//! One host's partition of the graph.

use crate::ownership::Ownership;
use crate::policy::Policy;
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::HostCtx;
use kimbap_graph::store::{EdgeIter, GraphStore, NeighborsRef, TargetIter};
use kimbap_graph::{Graph, NodeId, Weight};
use std::fmt;

/// Identifier of a proxy node local to one host. Local ids `0..num_masters`
/// are masters (ordered by global id); the rest are mirrors (also ordered by
/// global id).
pub type LocalId = u32;

/// One host's partition: a local CSR over proxy nodes, plus the metadata
/// needed to translate ids and synchronize with other hosts.
///
/// Produced by [`partition`]. The local graph contains exactly the directed
/// edges the [`Policy`] assigned to this host; proxies exist for all owned
/// nodes (masters, even if locally isolated) and for every non-owned
/// endpoint of a local edge (mirrors).
pub struct DistGraph {
    host: usize,
    ownership: Ownership,
    policy: Policy,
    /// Global id of each local proxy; masters first, then mirrors, each
    /// sorted by global id.
    l2g: Vec<NodeId>,
    num_masters: usize,
    /// Local CSR over proxy ids — raw arrays or the compressed tier.
    store: GraphStore,
    /// Transpose of the local CSR: for each proxy, the local sources of
    /// its in-edges. Maps an updated node to the dependents that read it
    /// through `ForEdges` — the fan-in the frontier scheduler follows.
    in_offsets: Vec<u64>,
    in_sources: Vec<LocalId>,
    /// For each peer host `h`: sorted global ids of *my masters* that have a
    /// mirror proxy on `h` (what a broadcast to `h` must cover).
    mirrors_on_peer: Vec<Vec<NodeId>>,
    /// Dense global-id → mirror-slot table (`NO_MIRROR` = no mirror proxy
    /// here). Mirror slot `s` is local id `num_masters + s`. Trades one
    /// `u32` per global node for O(1) mirror resolution on the read hot
    /// path — the sorted `l2g` tail stays authoritative for iteration
    /// order and the wire format.
    mirror_slot_of: Vec<u32>,
}

/// Vacant entry in [`DistGraph::mirror_slot_of`].
const NO_MIRROR: u32 = u32::MAX;

impl DistGraph {
    /// This host's id.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Number of hosts in the partitioning.
    pub fn num_hosts(&self) -> usize {
        self.ownership.num_hosts()
    }

    /// The node-ownership map shared by all hosts.
    pub fn ownership(&self) -> &Ownership {
        &self.ownership
    }

    /// The policy this partition was built with.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Total nodes in the *global* graph.
    pub fn num_global_nodes(&self) -> usize {
        self.ownership.num_nodes()
    }

    /// Number of local proxies (masters + mirrors).
    pub fn num_local_nodes(&self) -> usize {
        self.l2g.len()
    }

    /// Number of masters on this host.
    pub fn num_masters(&self) -> usize {
        self.num_masters
    }

    /// Number of mirror proxies on this host.
    pub fn num_mirrors(&self) -> usize {
        self.l2g.len() - self.num_masters
    }

    /// Number of directed edges stored on this host.
    pub fn num_local_edges(&self) -> usize {
        self.store.num_edges()
    }

    /// This host's share of the work the partitioner balances: one unit per
    /// local edge plus `NODE_WEIGHT` per master (see [`ownership_for`]).
    pub fn load_weight(&self) -> u64 {
        self.num_local_edges() as u64 + NODE_WEIGHT * self.num_masters as u64
    }

    /// `true` if the local CSR is stored on the compressed tier.
    pub fn is_compressed(&self) -> bool {
        self.store.is_compressed()
    }

    /// In-memory bytes of this host's partition: the local CSR store plus
    /// the transpose, id maps, and mirror metadata.
    pub fn size_bytes(&self) -> usize {
        self.store.size_bytes()
            + self.in_offsets.capacity() * std::mem::size_of::<u64>()
            + self.in_sources.capacity() * std::mem::size_of::<LocalId>()
            + self.l2g.capacity() * std::mem::size_of::<NodeId>()
            + self.mirror_slot_of.capacity() * std::mem::size_of::<u32>()
            + self
                .mirrors_on_peer
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Global id of local proxy `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn local_to_global(&self, l: LocalId) -> NodeId {
        self.l2g[l as usize]
    }

    /// Local proxy id for global node `g`, if `g` has a proxy here.
    pub fn global_to_local(&self, g: NodeId) -> Option<LocalId> {
        if self.ownership.owner(g) == self.host {
            return Some(self.ownership.master_offset(g) as LocalId);
        }
        self.mirror_slot(g)
            .map(|s| self.num_masters as LocalId + s)
    }

    /// Dense mirror slot of global node `g` (`0 .. num_mirrors`, ordered
    /// by global id), or `None` if `g` has no mirror proxy here. O(1):
    /// backed by a dense per-global-node table. Mirror slot `s`
    /// corresponds to local id `num_masters + s`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is outside the global node space.
    #[inline]
    pub fn mirror_slot(&self, g: NodeId) -> Option<u32> {
        let s = self.mirror_slot_of[g as usize];
        (s != NO_MIRROR).then_some(s)
    }

    /// `true` if local proxy `l` is a master.
    pub fn is_master(&self, l: LocalId) -> bool {
        (l as usize) < self.num_masters
    }

    /// Iterates local ids of all proxies.
    pub fn local_nodes(&self) -> impl Iterator<Item = LocalId> {
        0..self.num_local_nodes() as LocalId
    }

    /// Iterates local ids of masters only.
    pub fn master_nodes(&self) -> impl Iterator<Item = LocalId> {
        0..self.num_masters as LocalId
    }

    /// Iterates local ids of mirrors only.
    pub fn mirror_nodes(&self) -> impl Iterator<Item = LocalId> {
        self.num_masters as LocalId..self.num_local_nodes() as LocalId
    }

    /// Global ids of this host's mirror proxies (sorted).
    pub fn mirror_globals(&self) -> &[NodeId] {
        &self.l2g[self.num_masters..]
    }

    /// Out-degree of local proxy `l` on this host.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn degree(&self, l: LocalId) -> usize {
        self.store.degree(l)
    }

    /// Local out-neighbors of proxy `l` — borrowed on the raw tier,
    /// decoded into a per-thread scratch buffer on the compressed tier.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn neighbors(&self, l: LocalId) -> NeighborsRef<'_> {
        self.store.neighbors(l)
    }

    /// Iterates `(local_neighbor, weight)` of proxy `l`'s out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn edges(&self, l: LocalId) -> EdgeIter<'_> {
        self.store.edges(l)
    }

    /// Iterates just the targets of `l`'s local out-edges — the path for
    /// weight-blind algorithms (no weight decode on the compressed tier).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn targets(&self, l: LocalId) -> TargetIter<'_> {
        self.store.targets(l)
    }

    /// In-degree of local proxy `l` (edges of the local CSR ending at `l`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn in_degree(&self, l: LocalId) -> usize {
        let l = l as usize;
        (self.in_offsets[l + 1] - self.in_offsets[l]) as usize
    }

    /// Local in-neighbors of proxy `l`: every proxy with a local out-edge
    /// ending at `l` (sorted; parallel edges contribute one entry each).
    /// When a property keyed by `l` changes, these are the nodes whose
    /// adjacent-key reads observe the change.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn in_neighbors(&self, l: LocalId) -> &[LocalId] {
        let l = l as usize;
        &self.in_sources[self.in_offsets[l] as usize..self.in_offsets[l + 1] as usize]
    }

    /// Sum of local edge weights of proxy `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn weighted_degree(&self, l: LocalId) -> u64 {
        self.store.weighted_degree(l)
    }

    /// Sorted global ids of this host's masters that have mirrors on peer
    /// host `peer` — the recipients of a broadcast to that peer.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range.
    pub fn mirrors_on_peer(&self, peer: usize) -> &[NodeId] {
        &self.mirrors_on_peer[peer]
    }
}

impl fmt::Debug for DistGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistGraph")
            .field("host", &self.host)
            .field("masters", &self.num_masters)
            .field("mirrors", &self.num_mirrors())
            .field("edges", &self.num_local_edges())
            .finish()
    }
}

/// What [`partition_cfg`] builds: the policy, the host count and the
/// storage tier. The placement itself takes no knob — [`ownership_for`]
/// cuts the blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCfg {
    /// Edge-assignment policy.
    pub policy: Policy,
    /// Number of hosts.
    pub hosts: usize,
    /// Store each host's local CSR on the compressed tier.
    pub compressed: bool,
}

impl PartitionCfg {
    /// Raw storage — the classic [`partition`] behavior.
    pub fn new(policy: Policy, hosts: usize) -> Self {
        PartitionCfg {
            policy,
            hosts,
            compressed: false,
        }
    }
}

/// What owning one node costs a host, in edge visits, on top of the node's
/// edges: per-master phases (CC-SV's shortcut and request loops, Louvain's
/// per-node bookkeeping) run whether or not the node has neighbors. Flat
/// between 4 and 16 on the R-MAT workloads (EXPERIMENTS.md "PR 22").
const NODE_WEIGHT: u64 = 8;

/// The node-ownership map [`partition_cfg`] builds `graph`'s partitions
/// over, without building them. Blocked policies cut the id space where
/// the prefix sum of `degree(u) + NODE_WEIGHT` crosses each host's equal
/// share, so hosts own equal *work*, not equal node counts; the hashed
/// policy needs no table.
///
/// A pure function of the graph's degrees and `hosts` — the storage tier
/// plays no part — so every host, every TCP worker and every shrink / grow
/// re-partition derives the same boundaries with no communication.
///
/// # Panics
///
/// Panics if `hosts == 0`.
pub fn ownership_for(graph: &Graph, policy: Policy, hosts: usize) -> Ownership {
    match policy {
        Policy::EdgeCutHashed => Ownership::hashed(graph.num_nodes(), hosts),
        Policy::EdgeCutBlocked | Policy::EdgeCutIncoming | Policy::CartesianVertexCut => {
            let weights: Vec<u64> = graph
                .nodes()
                .map(|u| graph.degree(u) as u64 + NODE_WEIGHT)
                .collect();
            Ownership::blocked_by_weight(&weights, hosts)
        }
    }
}

/// Partitions `graph` across `num_hosts` hosts under `policy`, producing one
/// [`DistGraph`] per host (indexed by host id) on raw storage; see
/// [`partition_cfg`] for the compressed tier.
///
/// Construction is deterministic. Like the paper, partitioning time is not
/// part of any measured experiment, so this single-pass global construction
/// (rather than a distributed streaming partitioner like CuSP) is a faithful
/// substitution.
///
/// # Panics
///
/// Panics if `num_hosts == 0`.
pub fn partition(graph: &Graph, policy: Policy, num_hosts: usize) -> Vec<DistGraph> {
    partition_cfg(graph, &PartitionCfg::new(policy, num_hosts))
}

/// [`partition`] on the storage tier `cfg` names: every host's local CSR
/// raw or compressed, over the same [`ownership_for`] blocks either way.
///
/// # Panics
///
/// Panics if `cfg.hosts == 0`.
pub fn partition_cfg(graph: &Graph, cfg: &PartitionCfg) -> Vec<DistGraph> {
    let own = ownership_for(graph, cfg.policy, cfg.hosts);
    partition_over(graph, &own, cfg.policy, cfg.compressed)
}

/// Builds every host's [`DistGraph`] of `graph` over a given ownership.
fn partition_over(
    graph: &Graph,
    own: &Ownership,
    policy: Policy,
    compressed: bool,
) -> Vec<DistGraph> {
    let num_hosts = own.num_hosts();

    // Pass 1: assign every directed edge to a host.
    let mut host_edges: Vec<Vec<(NodeId, NodeId, Weight)>> = vec![Vec::new(); num_hosts];
    for (u, v, w) in graph.all_edges() {
        host_edges[policy.assign(own, u, v)].push((u, v, w));
    }

    // Pass 2: build each host's local graph.
    let mut parts: Vec<DistGraph> = host_edges
        .into_iter()
        .enumerate()
        .map(|(h, edges)| build_part(h, own, policy, &edges, compressed))
        .collect();

    // Pass 3: tell each owner which peers mirror its masters (in a real
    // deployment this is the mirror-list exchange at partitioning time).
    let all_mirrors: Vec<Vec<NodeId>> = parts
        .iter()
        .map(|p| p.mirror_globals().to_vec())
        .collect();
    for (peer, mirrored) in all_mirrors.iter().enumerate() {
        for &g in mirrored {
            let owner = own.owner(g);
            parts[owner].mirrors_on_peer[peer].push(g);
        }
    }
    for p in &mut parts {
        for list in &mut p.mirrors_on_peer {
            list.sort_unstable();
        }
    }
    parts
}

/// Builds one host's [`DistGraph`] from the edges assigned to it, *without*
/// the mirror-list exchange (callers fill `mirrors_on_peer`).
fn build_part(
    h: usize,
    own: &Ownership,
    policy: Policy,
    edges: &[(NodeId, NodeId, Weight)],
    compressed: bool,
) -> DistGraph {
    let num_hosts = own.num_hosts();
    let num_masters = own.num_masters(h);
    let mut mirrors: Vec<NodeId> = edges
        .iter()
        .flat_map(|&(u, v, _)| [u, v])
        .filter(|&x| own.owner(x) != h)
        .collect();
    mirrors.sort_unstable();
    mirrors.dedup();

    let mut l2g: Vec<NodeId> = own.masters(h).collect();
    l2g.extend_from_slice(&mirrors);

    let to_local = |g: NodeId| -> LocalId {
        if own.owner(g) == h {
            own.master_offset(g) as LocalId
        } else {
            (num_masters + mirrors.binary_search(&g).unwrap()) as LocalId
        }
    };

    let nl = l2g.len();
    let mut local_edges: Vec<(LocalId, LocalId, Weight)> = edges
        .iter()
        .map(|&(u, v, w)| (to_local(u), to_local(v), w))
        .collect();
    local_edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
    let mut offsets = vec![0u64; nl + 1];
    for &(s, _, _) in &local_edges {
        offsets[s as usize + 1] += 1;
    }
    for i in 0..nl {
        offsets[i + 1] += offsets[i];
    }
    let targets: Vec<LocalId> = local_edges.iter().map(|&(_, d, _)| d).collect();
    let weights = local_edges.iter().map(|&(_, _, w)| w).collect();

    // Transpose CSR: bucket every edge by destination. Scanning edges in
    // (s, d) order fills each destination's bucket with ascending sources.
    let mut in_offsets = vec![0u64; nl + 1];
    for &(_, d, _) in &local_edges {
        in_offsets[d as usize + 1] += 1;
    }
    for i in 0..nl {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut in_sources = vec![0 as LocalId; targets.len()];
    let mut cursor = in_offsets.clone();
    for &(s, d, _) in &local_edges {
        in_sources[cursor[d as usize] as usize] = s;
        cursor[d as usize] += 1;
    }

    let mut mirror_slot_of = vec![NO_MIRROR; own.num_nodes()];
    for (slot, &g) in mirrors.iter().enumerate() {
        mirror_slot_of[g as usize] = slot as u32;
    }

    let store = GraphStore::Raw {
        offsets,
        targets,
        weights,
    };
    let store = if compressed { store.compressed() } else { store };

    DistGraph {
        host: h,
        ownership: own.clone(),
        policy,
        l2g,
        num_masters,
        store,
        in_offsets,
        in_sources,
        mirrors_on_peer: vec![Vec::new(); num_hosts],
        mirror_slot_of,
    }
}

/// Distributed graph assembly: every host contributes the edges *it
/// produced* (e.g. the coarse edges of a Louvain aggregation step); edges
/// are routed to the hosts the `policy` assigns them to, and each host
/// builds its own [`DistGraph`] over a global node space of `n_global`
/// nodes, exchanging mirror lists with its peers.
///
/// This is the distributed analog of [`partition`] (a CuSP-style streaming
/// partitioner): no host ever sees the whole graph. Collective — every host
/// must call it together.
///
/// Duplicate edges contributed by different hosts are merged by summing
/// weights (community-aggregation semantics).
///
/// # Panics
///
/// Panics if an edge references a node `>= n_global`.
pub fn assemble_dist_graph(
    ctx: &HostCtx,
    n_global: usize,
    policy: Policy,
    produced_edges: Vec<(NodeId, NodeId, Weight)>,
) -> DistGraph {
    let num_hosts = ctx.num_hosts();
    let host = ctx.host();
    let own = policy.ownership(n_global, num_hosts);

    // Route each produced edge to its assigned host.
    let mut per_host: Vec<Vec<(NodeId, NodeId, Weight)>> = vec![Vec::new(); num_hosts];
    for (u, v, w) in produced_edges {
        assert!(
            (u as usize) < n_global && (v as usize) < n_global,
            "edge ({u},{v}) outside node space {n_global}"
        );
        per_host[policy.assign(&own, u, v)].push((u, v, w));
    }
    let outgoing = per_host
        .iter()
        .enumerate()
        .map(|(h, edges)| {
            if h == host {
                Vec::new()
            } else {
                encode_slice(&edges.iter().map(|&(u, v, w)| (u, (v, w))).collect::<Vec<_>>())
            }
        })
        .collect();
    let received = ctx.exchange(outgoing);

    // My edge set = locally produced + received; merge duplicates by sum.
    let mut my_edges = std::mem::take(&mut per_host[host]);
    for (h, buf) in received.iter().enumerate() {
        if h == host {
            continue;
        }
        for (u, (v, w)) in iter_decoded::<(NodeId, (NodeId, Weight))>(buf) {
            my_edges.push((u, v, w));
        }
    }
    my_edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    my_edges.dedup_by(|next, acc| {
        if acc.0 == next.0 && acc.1 == next.1 {
            acc.2 += next.2;
            true
        } else {
            false
        }
    });

    // Coarse/assembled graphs stay on the raw tier: they are rebuilt every
    // level and read once.
    let mut dg = build_part(host, &own, policy, &my_edges, false);

    // Mirror-list exchange: tell each node's owner that we mirror it.
    let outgoing = (0..num_hosts)
        .map(|peer| {
            if peer == host {
                return Vec::new();
            }
            let mine: Vec<NodeId> = dg
                .mirror_globals()
                .iter()
                .copied()
                .filter(|&g| own.owner(g) == peer)
                .collect();
            encode_slice(&mine)
        })
        .collect();
    let received = ctx.exchange(outgoing);
    for (peer, buf) in received.iter().enumerate() {
        if peer == host {
            continue;
        }
        let mut list: Vec<NodeId> = iter_decoded::<NodeId>(buf).collect();
        list.sort_unstable();
        dg.mirrors_on_peer[peer] = list;
    }
    dg
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_graph::gen;

    fn check_partition(g: &Graph, policy: Policy, hosts: usize) {
        let parts = partition(g, policy, hosts);
        assert_eq!(parts.len(), hosts);

        // Edge conservation.
        let total: usize = parts.iter().map(|p| p.num_local_edges()).sum();
        assert_eq!(total, g.num_edges());

        // Master conservation: each global node is a master exactly once.
        let total_masters: usize = parts.iter().map(|p| p.num_masters()).sum();
        assert_eq!(total_masters, g.num_nodes());

        for p in &parts {
            // Round-trip id mapping.
            for l in p.local_nodes() {
                let gid = p.local_to_global(l);
                assert_eq!(p.global_to_local(gid), Some(l));
                assert_eq!(p.is_master(l), p.ownership().owner(gid) == p.host());
            }
            // Local edges preserve global weights.
            for l in p.local_nodes() {
                for (t, w) in p.edges(l) {
                    let (gu, gv) = (p.local_to_global(l), p.local_to_global(t));
                    let found = g.edges(gu).any(|(x, xw)| x == gv && xw == w);
                    assert!(found, "edge ({gu},{gv},{w}) not in global graph");
                }
            }
            // Mirror lists point back correctly.
            for (peer, peer_part) in parts.iter().enumerate() {
                for &gid in p.mirrors_on_peer(peer) {
                    assert_eq!(p.ownership().owner(gid), p.host());
                    assert!(peer_part.mirror_globals().contains(&gid));
                }
            }
        }

        // Every mirror appears in its owner's mirror list for that peer.
        for p in &parts {
            for &gid in p.mirror_globals() {
                let owner = p.ownership().owner(gid);
                assert!(parts[owner].mirrors_on_peer(p.host()).contains(&gid));
            }
        }
    }

    #[test]
    fn edge_cut_blocked_partitions() {
        let g = gen::grid_road(6, 6, 1);
        for hosts in [1, 2, 3, 4] {
            check_partition(&g, Policy::EdgeCutBlocked, hosts);
        }
    }

    #[test]
    fn edge_cut_hashed_partitions() {
        let g = gen::rmat(7, 4, 2);
        for hosts in [1, 2, 5] {
            check_partition(&g, Policy::EdgeCutHashed, hosts);
        }
    }

    #[test]
    fn cvc_partitions() {
        let g = gen::rmat(7, 4, 3);
        for hosts in [1, 2, 4, 6] {
            check_partition(&g, Policy::CartesianVertexCut, hosts);
        }
    }

    #[test]
    fn local_ids_are_master_offsets_then_mirror_slots() {
        // What the node-property map's local-id accessors and the engine's
        // frontier build index by: a master's local id is its offset in
        // the ownership's dense master range, and mirror slot `s` is local
        // id `num_masters + s` — under blocked and hashed ownership, on
        // either storage tier.
        let g = gen::rmat(7, 4, 6);
        let mut partitions = Vec::new();
        for policy in [
            Policy::EdgeCutBlocked,
            Policy::EdgeCutHashed,
            Policy::CartesianVertexCut,
        ] {
            for hosts in [1, 3, 4] {
                partitions.push(partition(&g, policy, hosts));
            }
        }
        partitions.push(partition_cfg(
            &g,
            &PartitionCfg {
                compressed: true,
                ..PartitionCfg::new(Policy::EdgeCutHashed, 3)
            },
        ));
        for parts in &partitions {
            for p in parts {
                let own = p.ownership();
                assert_eq!(p.num_masters(), own.num_masters(p.host()));
                for l in p.master_nodes() {
                    let gid = p.local_to_global(l);
                    assert_eq!(gid, own.master_at(p.host(), l as usize));
                    assert_eq!(own.master_offset(gid), l as usize);
                    assert_eq!(p.mirror_slot(gid), None);
                }
                for s in 0..p.num_mirrors() as u32 {
                    let gid = p.local_to_global(p.num_masters() as LocalId + s);
                    assert_eq!(p.mirror_slot(gid), Some(s));
                    assert_ne!(own.owner(gid), p.host());
                }
            }
        }
    }

    #[test]
    fn iec_mirrors_have_no_in_edges() {
        let g = gen::rmat(7, 4, 4);
        for p in partition(&g, Policy::EdgeCutIncoming, 4) {
            let mut has_in = vec![false; p.num_local_nodes()];
            for l in p.local_nodes() {
                for (t, _) in p.edges(l) {
                    has_in[t as usize] = true;
                }
            }
            for m in p.mirror_nodes() {
                assert!(!has_in[m as usize], "IEC mirror with in-edges");
            }
        }
    }

    #[test]
    fn oec_mirrors_have_no_out_edges() {
        // Unconditional: nothing scatters a node's out-edges off its owner.
        let g = gen::rmat(7, 4, 4);
        for policy in [Policy::EdgeCutBlocked, Policy::EdgeCutHashed] {
            for hosts in 1..=4 {
                for compressed in [false, true] {
                    let cfg = PartitionCfg {
                        compressed,
                        ..PartitionCfg::new(policy, hosts)
                    };
                    for p in partition_cfg(&g, &cfg) {
                        for m in p.mirror_nodes() {
                            assert_eq!(p.degree(m), 0, "{policy} x{hosts}: mirror with out-edges");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_inverts_local_edges() {
        let g = gen::rmat(7, 4, 8);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            for p in partition(&g, policy, 3) {
                // Every out-edge (s, d) appears exactly once as d's
                // in-neighbor s, and nothing else does.
                let mut expected: Vec<Vec<LocalId>> =
                    vec![Vec::new(); p.num_local_nodes()];
                for s in p.local_nodes() {
                    for &d in p.neighbors(s).iter() {
                        expected[d as usize].push(s);
                    }
                }
                for d in p.local_nodes() {
                    expected[d as usize].sort_unstable();
                    assert_eq!(
                        p.in_neighbors(d),
                        expected[d as usize].as_slice(),
                        "in-edges of local {d} diverge from transpose"
                    );
                    assert_eq!(p.in_degree(d), expected[d as usize].len());
                }
                let total_in: usize =
                    p.local_nodes().map(|l| p.in_degree(l)).sum();
                assert_eq!(total_in, p.num_local_edges());
            }
        }
    }

    #[test]
    fn single_host_has_no_mirrors() {
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::CartesianVertexCut, 1);
        assert_eq!(parts[0].num_mirrors(), 0);
        assert_eq!(parts[0].num_local_edges(), g.num_edges());
    }

    #[test]
    fn assemble_matches_partition() {
        // Distribute edge production arbitrarily across hosts; the
        // assembled DistGraphs must match the global partitioner's output
        // over the ownership assembly uses (no host sees the degrees, so
        // its blocks are uniform).
        let g = gen::rmat(6, 4, 11);
        let hosts = 3;
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            let own = policy.ownership(g.num_nodes(), hosts);
            let reference = partition_over(&g, &own, policy, false);
            let assembled = kimbap_comm::Cluster::new(hosts).run(|ctx| {
                // Host h contributes every third edge, offset by h.
                let produced: Vec<_> = g
                    .all_edges()
                    .enumerate()
                    .filter(|(i, _)| i % hosts == ctx.host())
                    .map(|(_, e)| e)
                    .collect();
                assemble_dist_graph(ctx, g.num_nodes(), policy, produced)
            });
            for (a, r) in assembled.iter().zip(&reference) {
                assert_eq!(a.ownership(), r.ownership());
                assert_eq!(a.num_masters(), r.num_masters());
                assert_eq!(a.num_mirrors(), r.num_mirrors());
                assert_eq!(a.num_local_edges(), r.num_local_edges());
                assert_eq!(a.l2g, r.l2g);
                assert_eq!(a.store, r.store);
                assert_eq!(a.mirrors_on_peer, r.mirrors_on_peer);
            }
        }
    }

    #[test]
    fn assemble_merges_duplicate_edges() {
        // Both hosts contribute the same edge; weights must sum.
        let out = kimbap_comm::Cluster::new(2).run(|ctx| {
            let dg = assemble_dist_graph(
                ctx,
                4,
                Policy::EdgeCutBlocked,
                vec![(0, 1, 5), (1, 0, 5)],
            );
            if ctx.host() == 0 {
                let l0 = dg.global_to_local(0).unwrap();
                dg.edges(l0).collect::<Vec<_>>()
            } else {
                Vec::new()
            }
        });
        let l1 = out[0][0];
        assert_eq!(l1.1, 10); // two hosts x weight 5
    }

    #[test]
    fn compressed_partition_is_indistinguishable() {
        let g = gen::rmat(7, 4, 6);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            let raw = partition(&g, policy, 3);
            let mut cfg = PartitionCfg::new(policy, 3);
            cfg.compressed = true;
            let comp = partition_cfg(&g, &cfg);
            for (r, c) in raw.iter().zip(&comp) {
                assert!(c.is_compressed() && !r.is_compressed());
                assert_eq!(r.l2g, c.l2g);
                assert_eq!(r.num_local_edges(), c.num_local_edges());
                for l in r.local_nodes() {
                    assert_eq!(r.degree(l), c.degree(l));
                    assert_eq!(&r.neighbors(l)[..], &c.neighbors(l)[..]);
                    assert_eq!(
                        r.edges(l).collect::<Vec<_>>(),
                        c.edges(l).collect::<Vec<_>>()
                    );
                    assert_eq!(r.in_neighbors(l), c.in_neighbors(l));
                    assert_eq!(r.weighted_degree(l), c.weighted_degree(l));
                }
                assert_eq!(r.mirrors_on_peer, c.mirrors_on_peer);
                assert!(c.size_bytes() < r.size_bytes());
            }
        }
    }

    #[test]
    fn blocked_partitions_balance_work_on_power_law_graphs() {
        // R-MAT's hubs have the lowest ids. Cut by node count, host 0 of 2
        // held 74% of the edges of either graph.
        for scale in [14, 15] {
            let g = gen::rmat(scale, 16, 42);
            for hosts in [2, 4] {
                let own = ownership_for(&g, Policy::EdgeCutBlocked, hosts);
                let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
                let loads: Vec<u64> = parts.iter().map(|p| p.load_weight()).collect();
                let max = *loads.iter().max().unwrap() as f64;
                let mean = loads.iter().sum::<u64>() as f64 / hosts as f64;
                assert!(
                    max / mean <= 1.05,
                    "rmat({scale},16) on {hosts} hosts: loads {loads:?}"
                );
                let share = parts[0].num_local_edges() as f64 / g.num_edges() as f64;
                assert!(share < 0.6, "host 0 holds {share:.2} of the edges");
                assert!(parts.iter().all(|p| p.ownership() == &own));
            }
        }
    }

    #[test]
    fn uniform_degrees_keep_uniform_blocks() {
        // A grid's degrees are symmetric about its middle row, so the
        // weighted cut falls exactly where the node-count cut does.
        let g = gen::grid_road(120, 120, 42);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            assert_eq!(ownership_for(&g, policy, 2), Ownership::blocked(14_400, 2));
        }
    }

    #[test]
    fn ownership_ignores_storage_tier() {
        let g = gen::rmat(8, 8, 4);
        let plain = ownership_for(&g, Policy::EdgeCutBlocked, 3);
        let cfg = PartitionCfg {
            compressed: true,
            ..PartitionCfg::new(Policy::EdgeCutBlocked, 3)
        };
        for p in partition_cfg(&g, &cfg) {
            assert!(p.is_compressed());
            assert_eq!(p.ownership(), &plain);
        }
    }

    #[test]
    fn isolated_nodes_are_masters_somewhere() {
        let mut b = kimbap_graph::GraphBuilder::new();
        b.add_edge(0, 1, 1).ensure_nodes(10);
        let g = b.symmetric(true).build();
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let total: usize = parts.iter().map(|p| p.num_masters()).sum();
        assert_eq!(total, 10);
    }
}
