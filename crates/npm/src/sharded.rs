//! The §6.4 ablation baseline: a node-property map *without* the
//! graph-partition-aware representation (GAR).
//!
//! [`ShardedMap`] is what Fig. 11's SGR-only and SGR+CF rows measure. Key
//! ownership is a modulo hash that ignores the graph partition, so:
//!
//! * master values live in hash maps, one per pool thread over a disjoint
//!   key range, instead of a dense vector;
//! * every local proxy whose hashed owner is remote stays resident in a
//!   sorted cache (the variants cache "both master and remote node
//!   properties", §6.4) and, with no owner-to-mirror broadcast path, is
//!   re-fetched through request/response after every reduce-sync and
//!   broadcast-sync;
//! * a `Set()` of a key another host owns is buffered and shipped to its
//!   owner at the next collective.
//!
//! Both rows scatter-gather-reduce (SGR) exactly like [`crate::Npm`]. With
//! `conflict_free` (SGR+CF) each pool thread reduces into its own partial
//! buffer and reduce-sync combines them over disjoint key ranges — the
//! product map's CF state and code; without it (SGR-only) every thread
//! reduces into one shared sharded-lock map, so hot keys contend.
//!
//! The map keeps no per-key delta ([`NodePropMap::changed_keys`] stays
//! `Untracked`), takes no snapshots and has no local-id fast paths.

use crate::map::{
    check_whole, fetch_keys, merge_cache, read_miss, requested_by_owner, NodePropMap,
};
use crate::ops::ReduceOp;
use crate::partial::{CfPartials, FastOwn};
use crate::value::PropValue;
use crate::ConcurrentBitset;
use kimbap_comm::wire::iter_decoded;
use kimbap_comm::{HostCtx, Wire};
use kimbap_dist::{DistGraph, Ownership};
use kimbap_graph::NodeId;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Number of lock shards in the SGR-only shared map (mirrors the internal
/// sharding of a concurrent hash map like `phmap::flat_hash_map`).
const SHARED_SHARDS: usize = 64;

/// The hash-sharded node-property map of Fig. 11's SGR-only and SGR+CF
/// rows (see the [module docs](self)).
pub struct ShardedMap<T: PropValue, Op: ReduceOp<T>> {
    op: Op,
    host: usize,
    threads: usize,
    /// Key-distribution map: modulo hash over the node space.
    key_own: Ownership,
    fast_own: FastOwn,
    /// Master values, one hash map per pool thread over the disjoint key
    /// ranges of [`FastOwn::shard`], so the gather stays conflict-free.
    shards: Vec<Mutex<HashMap<NodeId, T>>>,
    /// Every local proxy whose hashed owner is another host, sorted: the
    /// keys kept resident in the cache.
    resident: Vec<NodeId>,
    /// Sorted keys + parallel values: the resident keys, plus requested
    /// keys until the next reduce-sync.
    cache_keys: Vec<NodeId>,
    cache_vals: Vec<T>,
    requests: ConcurrentBitset,
    /// `true` for SGR+CF: thread-local partials in `cf`. `false` for
    /// SGR-only: one shared map, `shared`.
    conflict_free: bool,
    cf: CfPartials<T>,
    shared: Vec<Mutex<HashMap<NodeId, T>>>,
    /// `Set()` calls targeting keys this host does not own, shipped to
    /// their owners at the next collective.
    pending_sets: Vec<(NodeId, T)>,
    updated: AtomicBool,
}

impl<T: PropValue, Op: ReduceOp<T>> ShardedMap<T, Op> {
    /// Creates a map over `dg`'s node space: SGR+CF when `conflict_free`,
    /// SGR-only otherwise. Every master property starts at the operator's
    /// identity.
    pub fn new(dg: &DistGraph, ctx: &HostCtx, op: Op, conflict_free: bool) -> Self {
        let host = ctx.host();
        let threads = ctx.threads();
        let key_own = Ownership::hashed(dg.num_global_nodes(), ctx.num_hosts());
        let mut resident: Vec<NodeId> = dg
            .local_nodes()
            .map(|l| dg.local_to_global(l))
            .filter(|&g| key_own.owner(g) != host)
            .collect();
        resident.sort_unstable();
        let dense = if conflict_free {
            key_own.num_masters(host)
        } else {
            0
        };
        ShardedMap {
            op,
            host,
            threads,
            fast_own: FastOwn::new(&key_own, host),
            cf: CfPartials::new(&key_own, host, threads, dense, op.identity()),
            shards: (0..threads).map(|_| Mutex::new(HashMap::new())).collect(),
            cache_keys: resident.clone(),
            cache_vals: vec![op.identity(); resident.len()],
            resident,
            requests: ConcurrentBitset::new(dg.num_global_nodes()),
            conflict_free,
            shared: (0..SHARED_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            key_own,
            pending_sets: Vec::new(),
            updated: AtomicBool::new(false),
        }
    }

    /// The master value of an owned `key` (identity if never written).
    fn master(&self, key: NodeId) -> T {
        debug_assert_eq!(self.key_own.owner(key), self.host);
        let shard = self
            .fast_own
            .shard(key, self.threads, self.key_own.num_nodes());
        self.shards[shard]
            .lock()
            .get(&key)
            .copied()
            .unwrap_or_else(|| self.op.identity())
    }

    /// Ships buffered `Set()` assignments to their key owners and applies
    /// them. Collective (an empty exchange when nothing is pending).
    fn flush_pending_sets(&mut self, ctx: &HostCtx) {
        let mut per_host: Vec<Vec<u8>> = vec![Vec::new(); self.key_own.num_hosts()];
        for (k, v) in self.pending_sets.drain(..) {
            (k, v).write(&mut per_host[self.key_own.owner(k)]);
        }
        let received = ctx.exchange(per_host);
        check_whole::<(NodeId, T)>(ctx, "assignments", "(key, value) pairs", &received);
        for buf in &received {
            for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                self.set(k, v);
            }
        }
    }

    /// Re-fetches every resident key through the request/response
    /// protocol — the broadcast substitute without GAR. Collective.
    fn refresh_resident(&mut self, ctx: &HostCtx) {
        let mut keys_by_owner: Vec<Vec<NodeId>> = vec![Vec::new(); self.key_own.num_hosts()];
        for &k in &self.resident {
            keys_by_owner[self.key_own.owner(k)].push(k);
        }
        let pairs = fetch_keys(ctx, keys_by_owner, |k| self.master(k));
        // Residents replace the whole cache (ad-hoc requests are stale now).
        merge_cache(&mut self.cache_keys, &mut self.cache_vals, pairs, false);
    }

    /// SGR-only scatter half of reduce-sync: the shared map is already
    /// combined; serialize every pair per owner host (including this host
    /// — self-delivery is an uncounted memcpy).
    fn shared_scatter(&mut self, ctx: &HostCtx) -> Vec<Vec<u8>> {
        let combined: Vec<HashMap<NodeId, T>> = self
            .shared
            .iter_mut()
            .map(|m| std::mem::take(m.get_mut()))
            .collect();
        let per_host = self.cf.wire_buffers();
        {
            let (key_own, threads) = (&self.key_own, self.threads);
            let (combined, per_host) = (&combined, &per_host);
            ctx.pool().run(|tid| {
                let mut local: Vec<Vec<u8>> = vec![Vec::new(); key_own.num_hosts()];
                // Combined maps are key-disjoint; distribute them
                // round-robin over the pool threads.
                for m in combined.iter().skip(tid).step_by(threads) {
                    for (&k, &v) in m {
                        (k, v).write(&mut local[key_own.owner(k)]);
                    }
                }
                for (h, buf) in local.into_iter().enumerate() {
                    if !buf.is_empty() {
                        per_host[h].lock().extend_from_slice(&buf);
                    }
                }
            });
        }
        self.cf.finish_wire(per_host)
    }
}

impl<T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for ShardedMap<T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        for i in 0..self.key_own.num_masters(self.host) {
            let g = self.key_own.master_at(self.host, i);
            self.set(g, f(g));
        }
        // The resident cache can be primed locally: `f` is the same pure
        // function on every host.
        for (v, &k) in self.cache_vals.iter_mut().zip(&self.cache_keys) {
            *v = f(k);
        }
    }

    fn read(&self, key: NodeId) -> T {
        // The resident cache is authoritative for everything fetched.
        if let Ok(i) = self.cache_keys.binary_search(&key) {
            return self.cache_vals[i];
        }
        if self.key_own.owner(key) == self.host {
            return self.master(key);
        }
        read_miss(self.host, key)
    }

    fn set(&mut self, key: NodeId, value: T) {
        if self.key_own.owner(key) != self.host {
            // Hashed key owners ignore the graph partition: ship the
            // assignment to the owner at the next collective.
            self.pending_sets.push((key, value));
            return;
        }
        let shard = self
            .fast_own
            .shard(key, self.threads, self.key_own.num_nodes());
        let old = self.shards[shard].get_mut().insert(key, value);
        if old.unwrap_or_else(|| self.op.identity()) != value {
            self.updated.store(true, Ordering::Relaxed);
        }
    }

    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        debug_assert!((key as usize) < self.key_own.num_nodes());
        if self.conflict_free {
            let op = self.op;
            let buf = self.cf.buf(tid);
            match self.fast_own.local_offset(key) {
                Some(off) => buf.reduce_local(off, value, |a, b| op.combine(a, b)),
                None => buf.reduce_remote(key, value, |a, b| op.combine(a, b)),
            }
            return;
        }
        // Shard the shared map by key hash; hot keys contend (the cost the
        // CF ablation measures).
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut m = self.shared[(h >> 32) as usize % SHARED_SHARDS].lock();
        match m.entry(key) {
            Entry::Occupied(mut e) => {
                let v = self.op.combine(*e.get(), value);
                e.insert(v);
            }
            Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    fn request(&self, key: NodeId) {
        self.requests.set(key as usize);
    }

    fn request_sync(&mut self, ctx: &HostCtx) {
        // Buffered Set() calls land before any owner serves reads.
        self.flush_pending_sets(ctx);
        let keys_by_owner = requested_by_owner(ctx, &self.requests, &self.key_own);
        self.requests.clear();
        let pairs = fetch_keys(ctx, keys_by_owner, |k| self.master(k));
        // Keep existing entries: a BSP round may chain several
        // request-compute/request-sync phases (e.g. `parent(parent(n))`),
        // and earlier phases' values stay valid until reduce-sync drops
        // them. Fresh responses win on overlap.
        merge_cache(&mut self.cache_keys, &mut self.cache_vals, pairs, true);
    }

    fn reduce_sync(&mut self, ctx: &HostCtx) {
        self.flush_pending_sets(ctx);
        let outgoing = if self.conflict_free {
            self.cf.combine_scatter(ctx, self.op)
        } else {
            self.shared_scatter(ctx)
        };
        let received = ctx.exchange(outgoing);
        let (op, shards, updated) = (self.op, &self.shards, &self.updated);
        self.cf.gather(ctx, &received, |tid| {
            let mut shard = shards[tid].lock();
            move |k: NodeId, v: T| {
                let old = shard.get(&k).copied().unwrap_or_else(|| op.identity());
                let new = op.combine(old, v);
                if new != old {
                    shard.insert(k, new);
                    updated.store(true, Ordering::Relaxed);
                }
            }
        });
        // Every resident value may be stale now; with no broadcast path
        // they are all re-fetched through request/response — the
        // communication overhead the GAR ablation measures.
        self.refresh_resident(ctx);
    }

    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        // Key owners do not align with the graph partition, so there is no
        // one-way broadcast: flush pending assignments and re-fetch every
        // resident property.
        self.flush_pending_sets(ctx);
        self.refresh_resident(ctx);
    }

    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        // Every proxy is always resident; pinning only refreshes them.
        self.broadcast_sync(ctx);
    }

    fn unpin_mirrors(&mut self) {}

    fn reset_updated(&mut self) {
        self.updated.store(false, Ordering::Relaxed);
    }

    fn reset_values(&mut self, _ctx: &HostCtx) {
        for s in self.shards.iter_mut() {
            s.get_mut().clear();
        }
        self.cf.clear();
        for m in self.shared.iter_mut() {
            m.get_mut().clear();
        }
        self.updated.store(false, Ordering::Relaxed);
        self.cache_vals.fill(self.op.identity());
    }

    fn is_updated(&self, ctx: &HostCtx) -> bool {
        ctx.all_reduce_or(self.updated.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::tests::{
        gar, pinned_mirrors_follow_broadcast_on, sync_round_equals_the_three_call_tail_on,
        with_cluster, Make,
    };
    use crate::map::ChangedKeys;
    use crate::ops::Min;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    fn sgr_only<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
        Box::new(ShardedMap::<u64, Min>::new(dg, ctx, Min, false))
    }

    fn sgr_cf<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
        Box::new(ShardedMap::<u64, Min>::new(dg, ctx, Min, true))
    }

    const ROWS: [(&str, Make); 2] = [("SGR-only", sgr_only), ("SGR+CF", sgr_cf)];

    /// The canonical values a fixed reduction workload leaves on a
    /// 3-host cluster, read back through requests.
    fn run_workload(make: Make) -> Vec<u64> {
        let g = gen::rmat(6, 4, 9);
        let n = g.num_nodes();
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let per_host = Cluster::with_threads(3, 2).run(|ctx| {
            let mut npm = make(&parts[ctx.host()], ctx);
            npm.init_masters(&|g| g as u64 + 500);
            // Deterministic scatter of reduces from every host.
            ctx.par_for(0..n, |tid, range| {
                for i in range {
                    npm.reduce(tid, i as NodeId, ((i * 7 + ctx.host() * 13) % 600) as u64);
                }
            });
            npm.reduce_sync(ctx);
            for k in 0..n as NodeId {
                npm.request(k);
            }
            npm.request_sync(ctx);
            (0..n as NodeId).map(|k| npm.read(k)).collect::<Vec<u64>>()
        });
        assert!(per_host.windows(2).all(|w| w[0] == w[1]), "hosts read different values");
        per_host.into_iter().next().unwrap()
    }

    #[test]
    fn pinned_mirrors_follow_broadcast() {
        for (what, make) in ROWS {
            pinned_mirrors_follow_broadcast_on(what, make);
        }
    }

    #[test]
    fn sync_round_equals_the_three_call_tail() {
        for (what, make) in ROWS {
            sync_round_equals_the_three_call_tail_on(what, make);
        }
    }

    #[test]
    fn rows_agree_with_the_product_map() {
        let want = run_workload(gar);
        for (what, make) in ROWS {
            assert_eq!(run_workload(make), want, "{what}");
        }
    }

    #[test]
    fn rows_report_untracked() {
        for (what, make) in ROWS {
            let out = with_cluster(2, 1, Policy::EdgeCutBlocked, move |ctx, dg| {
                let mut m = make(dg, ctx);
                m.init_masters(&|g| g as u64);
                m.reset_updated();
                matches!(m.changed_keys(), ChangedKeys::Untracked)
            });
            assert!(out.iter().all(|&b| b), "{what}");
        }
    }

    #[test]
    fn a_set_of_a_hashed_remote_key_lands_at_its_owner() {
        for (what, make) in ROWS {
            let out = with_cluster(3, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
                let mut m = make(dg, ctx);
                // Host 0 assigns every key; most are owned elsewhere.
                if ctx.host() == 0 {
                    for k in 0..dg.num_global_nodes() as NodeId {
                        m.set(k, 7 + k as u64);
                    }
                }
                m.reset_updated();
                m.reduce_sync(ctx);
                let updated = m.is_updated(ctx);
                for k in 0..dg.num_global_nodes() as NodeId {
                    m.request(k);
                }
                m.request_sync(ctx);
                updated && (0..dg.num_global_nodes() as NodeId).all(|k| m.read(k) == 7 + k as u64)
            });
            assert!(out.iter().all(|&b| b), "{what}");
        }
    }
}
