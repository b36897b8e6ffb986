//! One host's partition of the graph.

use crate::ownership::Ownership;
use crate::policy::Policy;
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::HostCtx;
use kimbap_graph::store::{EdgeIter, GraphStore, TargetIter};
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
    #[inline]
    pub fn local_to_global(&self, l: LocalId) -> NodeId {
        self.l2g[l as usize]
    }

    /// Local proxy id for global node `g`, if `g` has a proxy here.
    #[inline]
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
    #[inline]
    pub fn degree(&self, l: LocalId) -> usize {
        self.store.degree(l)
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

    /// Local in-neighbors of proxy `l`: every proxy with a local out-edge
    /// ending at `l` (sorted; parallel edges contribute one entry each).
    /// When a property keyed by `l` changes, these are the nodes whose
    /// adjacent-key reads observe the change.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn in_neighbors(&self, l: LocalId) -> &[LocalId] {
        let l = l as usize;
        &self.in_sources[self.in_offsets[l] as usize..self.in_offsets[l + 1] as usize]
    }

    /// Sum of local edge weights of proxy `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
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
/// over, without building them: both policies cut the id space where
/// the prefix sum of `degree(u) + NODE_WEIGHT` crosses each host's equal
/// share, so hosts own equal *work*, not equal node counts.
///
/// A pure function of the graph's degrees and `hosts` — the storage tier
/// plays no part — so every host, every TCP worker and every shrink / grow
/// re-partition derives the same boundaries with no communication.
///
/// # Panics
///
/// Panics if `hosts == 0`.
pub fn ownership_for(graph: &Graph, hosts: usize) -> Ownership {
    let weights: Vec<u64> = graph
        .nodes()
        .map(|u| graph.degree(u) as u64 + NODE_WEIGHT)
        .collect();
    Ownership::blocked_by_weight(&weights, hosts)
}

/// Partitions `graph` across `num_hosts` hosts under `policy`, producing one
/// [`DistGraph`] per host (indexed by host id) on raw storage; see
/// [`partition_cfg`] for the compressed tier.
///
/// Construction is deterministic: every part is [`partition_host`]'s, for
/// callers that hold all of them in one process.
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
    (0..cfg.hosts).map(|h| partition_host(graph, cfg, h)).collect()
}

/// Host `host`'s part of `graph` under `cfg`, built without any other
/// host's and without communication: the one place that decides which
/// edges and mirror lists a host holds. One scan over all edges counts the
/// edges `host` keeps and flags each master of `host` that ends an edge a
/// peer keeps (that peer's broadcast list); a second read of the kept rows
/// writes them straight into the local CSR.
///
/// # Panics
///
/// Panics if `host >= cfg.hosts`.
pub fn partition_host(graph: &Graph, cfg: &PartitionCfg, host: usize) -> DistGraph {
    let (policy, own) = (cfg.policy, &ownership_for(graph, cfg.hosts));
    let (_, cols) = Policy::grid(cfg.hosts);
    let n = graph.num_nodes();
    let (mut degree, mut is_target) = (vec![0u32; n], vec![false; n]);
    // `mirrored[p][o]`: the master at offset `o` has a mirror on peer `p`.
    let mut mirrored = vec![vec![false; own.num_masters(host)]; cfg.hosts];
    for u in graph.nodes() {
        let ou = own.owner(u);
        for v in graph.store().targets(u) {
            let ov = own.owner(v);
            let to = policy.assign_owned(cols, ou, ov);
            if to == host {
                degree[u as usize] += 1;
                is_target[v as usize] = true;
                continue;
            }
            for (x, _) in [(u, ou), (v, ov)].into_iter().filter(|&(_, o)| o == host) {
                mirrored[to][own.master_offset(x)] = true;
            }
        }
    }
    let row = |u| {
        let ou = own.owner(u);
        graph.edges(u).filter(move |&(v, _)| policy.assign_owned(cols, ou, own.owner(v)) == host)
    };
    let mut part = build_part(host, own, policy, degree, is_target, row, cfg.compressed);
    for (list, flags) in part.mirrors_on_peer.iter_mut().zip(&mirrored) {
        *list = own.masters(host).zip(flags).filter(|(_, &f)| f).map(|(g, _)| g).collect();
    }
    part
}

/// Builds host `h`'s [`DistGraph`] without its mirror lists from the edges
/// assigned to it: `degree[g]` leave global node `g`, `is_target[g]` if any
/// ends at `g`, and `row(g)` yields `g`'s `(target, weight)` among them.
fn build_part<R: Iterator<Item = (NodeId, Weight)>>(
    h: usize,
    own: &Ownership,
    policy: Policy,
    degree: Vec<u32>,
    is_target: Vec<bool>,
    row: impl Fn(NodeId) -> R,
    compressed: bool,
) -> DistGraph {
    let num_masters = own.num_masters(h);
    // Mirrors: the endpoints owned elsewhere, slotted by global id.
    let mut l2g: Vec<NodeId> = own.masters(h).collect();
    let mut mirror_slot_of = vec![NO_MIRROR; own.num_nodes()];
    for g in 0..own.num_nodes() as NodeId {
        if (degree[g as usize] > 0 || is_target[g as usize]) && own.owner(g) != h {
            mirror_slot_of[g as usize] = (l2g.len() - num_masters) as u32;
            l2g.push(g);
        }
    }
    l2g.shrink_to_fit(); // pushed one by one; `size_bytes` counts capacity
    let to_local = |g: NodeId| match mirror_slot_of[g as usize] {
        NO_MIRROR => own.master_offset(g) as LocalId,
        s => num_masters as LocalId + s,
    };

    let nl = l2g.len();
    let mut offsets = vec![0u64; nl + 1];
    for (l, &g) in l2g.iter().enumerate() {
        offsets[l + 1] = offsets[l] + u64::from(degree[g as usize]);
    }
    let mut targets = vec![0 as LocalId; offsets[nl] as usize];
    let mut weights = vec![0 as Weight; targets.len()];
    let mut in_offsets = vec![0u64; nl + 1];
    let mut pairs = Vec::new();
    for u in (0..own.num_nodes() as NodeId).filter(|&u| degree[u as usize] > 0) {
        pairs.clear();
        pairs.extend(row(u).map(|(v, w)| (to_local(v), w)));
        assert_eq!(pairs.len(), degree[u as usize] as usize, "row {u} changed");
        pairs.sort_unstable();
        let at = offsets[to_local(u) as usize] as usize;
        for (i, &(t, w)) in pairs.iter().enumerate() {
            (targets[at + i], weights[at + i]) = (t, w);
            in_offsets[t as usize + 1] += 1;
        }
    }
    let store = match (GraphStore::Raw { offsets, targets, weights }) {
        // The arm drops `raw`, so the transpose below never coexists with it.
        raw if compressed => raw.compressed(),
        raw => raw,
    };

    // Transpose CSR: scanning sources in order fills each destination's
    // bucket with ascending sources.
    for i in 0..nl {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut in_sources = vec![0 as LocalId; store.num_edges()];
    let mut cursor = in_offsets.clone();
    for s in 0..nl as LocalId {
        for d in store.targets(s) {
            in_sources[cursor[d as usize] as usize] = s;
            cursor[d as usize] += 1;
        }
    }

    DistGraph {
        host: h,
        ownership: own.clone(),
        policy,
        l2g,
        num_masters,
        store,
        in_offsets,
        in_sources,
        mirrors_on_peer: vec![Vec::new(); own.num_hosts()],
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
    let own = Ownership::blocked(n_global, num_hosts);
    let (_, cols) = Policy::grid(num_hosts);

    // Route each produced edge to its assigned host.
    let mut per_host: Vec<Vec<(NodeId, NodeId, Weight)>> = vec![Vec::new(); num_hosts];
    for (u, v, w) in produced_edges {
        assert!(
            (u as usize) < n_global && (v as usize) < n_global,
            "edge ({u},{v}) outside node space {n_global}"
        );
        per_host[policy.assign_owned(cols, own.owner(u), own.owner(v))].push((u, v, w));
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
    let (mut degree, mut is_target) = (vec![0u32; n_global], vec![false; n_global]);
    for &(u, v, _) in &my_edges {
        degree[u as usize] += 1;
        is_target[v as usize] = true;
    }
    let row = |u| {
        let at = my_edges.partition_point(|e| e.0 < u);
        my_edges[at..].iter().take_while(move |e| e.0 == u).map(|&(_, v, w)| (v, w))
    };
    let mut dg = build_part(host, &own, policy, degree, is_target, row, false);

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

    /// The three-pass construction [`partition_host`] replaced, kept as its
    /// oracle: bucket every edge by host, build every part, then tell each
    /// owner which peers mirror its masters.
    fn reference_parts(
        graph: &Graph,
        own: &Ownership,
        policy: Policy,
        compressed: bool,
    ) -> Vec<DistGraph> {
        let mut host_edges = vec![Vec::new(); own.num_hosts()];
        for (u, v, w) in graph.all_edges() {
            host_edges[policy.assign(own, u, v)].push((u, v, w));
        }
        let mut parts: Vec<DistGraph> = host_edges
            .iter()
            .enumerate()
            .map(|(h, edges)| reference_build_part(h, own, policy, edges, compressed))
            .collect();
        let all_mirrors: Vec<Vec<NodeId>> =
            parts.iter().map(|p| p.mirror_globals().to_vec()).collect();
        for (peer, mirrored) in all_mirrors.iter().enumerate() {
            for &g in mirrored {
                parts[own.owner(g)].mirrors_on_peer[peer].push(g);
            }
        }
        for p in &mut parts {
            for list in &mut p.mirrors_on_peer {
                list.sort_unstable();
            }
        }
        parts
    }

    /// The old per-host build: sort the host's edge list, binary-search
    /// each mirror's slot, transpose from the sorted list.
    fn reference_build_part(
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

    /// Asserts `a` and `b` agree in every field.
    fn assert_same_part(a: &DistGraph, b: &DistGraph, what: &str) {
        assert_eq!(a.host, b.host, "{what}: host");
        assert_eq!(a.ownership, b.ownership, "{what}: ownership");
        assert_eq!(a.policy, b.policy, "{what}: policy");
        assert_eq!(a.l2g, b.l2g, "{what}: l2g");
        assert_eq!(a.num_masters, b.num_masters, "{what}: num_masters");
        assert!(a.store == b.store, "{what}: store");
        assert_eq!(a.in_offsets, b.in_offsets, "{what}: in_offsets");
        assert_eq!(a.in_sources, b.in_sources, "{what}: in_sources");
        assert_eq!(a.mirrors_on_peer, b.mirrors_on_peer, "{what}: mirrors_on_peer");
        assert_eq!(a.mirror_slot_of, b.mirror_slot_of, "{what}: mirror_slot_of");
    }

    const POLICIES: [Policy; 2] = [Policy::EdgeCutBlocked, Policy::CartesianVertexCut];

    proptest::proptest! {
        #[test]
        fn partition_host_matches_the_three_pass_reference(
            kind in 0u8..3,
            size in 2usize..9,
            seed in 0u64..1_000,
            policy in 0usize..2,
            hosts in 1usize..=8,
            compressed in 0u8..2,
        ) {
            let g = match kind {
                0 => gen::rmat(size as u32, 4, seed),
                1 => gen::grid_road(size, size + 1, seed),
                // A few edges among many isolated nodes: empty hosts and
                // masters with no edges at all.
                _ => {
                    let mut b = kimbap_graph::GraphBuilder::new();
                    b.add_edge(0, 1, 1).add_edge(1, size as NodeId, 2);
                    b.ensure_nodes(size * 4);
                    b.symmetric(true).build()
                }
            };
            let cfg = PartitionCfg {
                compressed: compressed == 1,
                ..PartitionCfg::new(POLICIES[policy], hosts)
            };
            let own = ownership_for(&g, hosts);
            let reference = reference_parts(&g, &own, cfg.policy, cfg.compressed);
            for (h, r) in reference.iter().enumerate() {
                let what = format!("{} x{hosts} host {h} ({cfg:?})", g.num_nodes());
                assert_same_part(&partition_host(&g, &cfg, h), r, &what);
            }
        }
    }

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
        // id `num_masters + s` — under either policy, on either storage
        // tier.
        let g = gen::rmat(7, 4, 6);
        let mut partitions = Vec::new();
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            for hosts in [1, 3, 4] {
                partitions.push(partition(&g, policy, hosts));
            }
        }
        partitions.push(partition_cfg(
            &g,
            &PartitionCfg {
                compressed: true,
                ..PartitionCfg::new(Policy::CartesianVertexCut, 3)
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
    fn oec_mirrors_have_no_out_edges() {
        // Unconditional: nothing scatters a node's out-edges off its owner.
        let g = gen::rmat(7, 4, 4);
        for hosts in 1..=4 {
            for compressed in [false, true] {
                let cfg = PartitionCfg {
                    compressed,
                    ..PartitionCfg::new(Policy::EdgeCutBlocked, hosts)
                };
                for p in partition_cfg(&g, &cfg) {
                    for m in p.mirror_nodes() {
                        assert_eq!(p.degree(m), 0, "x{hosts}: mirror with out-edges");
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
                    for d in p.targets(s) {
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
                }
                let total_in: usize =
                    p.local_nodes().map(|l| p.in_neighbors(l).len()).sum();
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
            let own = Ownership::blocked(g.num_nodes(), hosts);
            let reference = reference_parts(&g, &own, policy, false);
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
            for (h, (a, r)) in assembled.iter().zip(&reference).enumerate() {
                assert_same_part(a, r, &format!("{policy} host {h}"));
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
                    assert!(r.targets(l).eq(c.targets(l)));
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
                let own = ownership_for(&g, hosts);
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
        assert_eq!(ownership_for(&g, 2), Ownership::blocked(14_400, 2));
    }

    #[test]
    fn ownership_ignores_storage_tier() {
        let g = gen::rmat(8, 8, 4);
        let plain = ownership_for(&g, 3);
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
