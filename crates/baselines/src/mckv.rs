//! A memcached-like distributed key-value store and a node-property map
//! backed by it (the *MC* runtime variant of §6.4).
//!
//! The paper implements Kimbap's request and reduce operations over
//! libMemcached: keys are **strings**, values opaque bytes, key
//! distribution is modulo hashing, reads are per-key `mget()` calls, and
//! reductions are **compare-and-swap retry loops** against the owner
//! server (`ReduceSync()` becomes a no-op). None of SGR, CF, or GAR apply.
//! This module reproduces those mechanics:
//!
//! * [`McStore`] — the store: one "server" per host, sharded hash maps with
//!   versioned CAS. It is shared memory here (the servers of a memcached
//!   deployment are passive processes), but every client operation is
//!   accounted as a message with its real key/value byte size.
//! * [`McNpm`] — the `NodePropMap` implementation: `reduce()` runs the
//!   fetch-combine-CAS loop immediately (hub keys make many threads retry
//!   against the same entry — the contention the paper measures);
//!   `request_sync()` issues one `get` per requested key; the cache layout
//!   is the same custom sorted map the other variants use.

use kimbap_comm::wire::{decode_slice, encode_slice};
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{ConcurrentBitset, NodePropMap, PropValue, ReduceOp};
use kimbap_algos::MapBuilder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sub-shards per server (memcached's internal hash-table locking).
const SHARDS_PER_SERVER: usize = 16;

/// A versioned value: CAS succeeds only when the stored version matches.
type Entry = (u64, Vec<u8>);

/// The distributed key-value store: `hosts` servers, each a sharded string
/// hash map with versioned compare-and-swap.
#[derive(Debug)]
pub struct McStore {
    servers: Vec<Vec<Mutex<HashMap<String, Entry>>>>,
    /// Total CAS attempts (for contention reporting).
    cas_attempts: AtomicU64,
    /// CAS attempts that lost the race and had to retry.
    cas_failures: AtomicU64,
}

impl McStore {
    /// Creates a store with one server per host.
    pub fn new(hosts: usize) -> Self {
        McStore {
            servers: (0..hosts)
                .map(|_| (0..SHARDS_PER_SERVER).map(|_| Mutex::new(HashMap::new())).collect())
                .collect(),
            cas_attempts: AtomicU64::new(0),
            cas_failures: AtomicU64::new(0),
        }
    }

    fn hash(key: &str) -> u64 {
        // FNV-1a, as a stand-in for memcached's key hash.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The server a key lives on (modulo hashing, as the paper configures).
    pub fn server_of(&self, key: &str) -> usize {
        (Self::hash(key) % self.servers.len() as u64) as usize
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Entry>> {
        let h = Self::hash(key);
        let server = (h % self.servers.len() as u64) as usize;
        let shard = ((h >> 32) % SHARDS_PER_SERVER as u64) as usize;
        &self.servers[server][shard]
    }

    /// `get`: returns `(version, value)` if present.
    pub fn get(&self, key: &str) -> Option<Entry> {
        self.shard(key).lock().get(key).cloned()
    }

    /// Unconditional `set` (version bumps).
    pub fn set(&self, key: &str, value: Vec<u8>) {
        let mut s = self.shard(key).lock();
        let v = s.get(key).map(|e| e.0 + 1).unwrap_or(1);
        s.insert(key.to_string(), (v, value));
    }

    /// Compare-and-swap: succeeds iff the stored version equals
    /// `expected_version` (0 = expect absent).
    pub fn cas(&self, key: &str, expected_version: u64, value: Vec<u8>) -> bool {
        self.cas_attempts.fetch_add(1, Ordering::Relaxed);
        let mut s = self.shard(key).lock();
        let cur = s.get(key).map(|e| e.0).unwrap_or(0);
        if cur != expected_version {
            self.cas_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        s.insert(key.to_string(), (cur + 1, value));
        true
    }

    /// `(attempts, failures)` of all CAS operations so far.
    pub fn cas_stats(&self) -> (u64, u64) {
        (
            self.cas_attempts.load(Ordering::Relaxed),
            self.cas_failures.load(Ordering::Relaxed),
        )
    }
}

/// Builds [`McNpm`] maps over a shared [`McStore`] — plug this into any
/// `kimbap-algos` algorithm to get its MC variant.
///
/// # Example
///
/// ```
/// use kimbap_algos::cc;
/// use kimbap_baselines::mckv::McBuilder;
/// use kimbap_comm::Cluster;
/// use kimbap_dist::{partition, Policy};
/// use kimbap_graph::gen;
///
/// let g = gen::grid_road(4, 4, 0);
/// let parts = partition(&g, Policy::EdgeCutBlocked, 2);
/// let b = McBuilder::new(2);
/// let per_host = Cluster::new(2).run(|ctx| {
///     cc::cc_sv(&parts[ctx.host()], ctx, &b)
/// });
/// let labels = kimbap_algos::merge_master_values(g.num_nodes(), per_host);
/// assert!(labels.iter().all(|&l| l == 0));
/// ```
#[derive(Debug)]
pub struct McBuilder {
    store: Arc<McStore>,
    /// Per-host map-id counters (all hosts create maps in program order).
    next_id: Vec<AtomicUsize>,
}

impl McBuilder {
    /// Creates a builder (and the backing store) for `hosts` hosts.
    pub fn new(hosts: usize) -> Self {
        McBuilder {
            store: Arc::new(McStore::new(hosts)),
            next_id: (0..hosts).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The shared store (for stats).
    pub fn store(&self) -> &McStore {
        &self.store
    }
}

impl MapBuilder for McBuilder {
    type Map<'g, T: PropValue, Op: ReduceOp<T>> = McNpm<'g, T, Op>;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> McNpm<'g, T, Op> {
        let id = self.next_id[ctx.host()].fetch_add(1, Ordering::Relaxed);
        McNpm::new(dg, ctx, op, Arc::clone(&self.store), id)
    }
}

/// A node-property map over [`McStore`] (see the [module docs](self)).
pub struct McNpm<'g, T: PropValue, Op: ReduceOp<T>> {
    /// Kept for lifetime parity with the other backends; the store itself
    /// is partition-oblivious.
    _dg: &'g DistGraph,
    op: Op,
    map_id: usize,
    store: Arc<McStore>,
    host: usize,
    n: usize,
    /// Same custom sorted-vector cache as the other variants.
    cache_keys: Vec<NodeId>,
    cache_vals: Vec<T>,
    requests: ConcurrentBitset,
    /// Keys kept permanently resident (all local proxies): MC fetches
    /// "master and remote values" alike.
    pin_set: Vec<NodeId>,
    updated: AtomicBool,
}

impl<'g, T: PropValue, Op: ReduceOp<T>> McNpm<'g, T, Op> {
    fn new(dg: &'g DistGraph, ctx: &HostCtx, op: Op, store: Arc<McStore>, map_id: usize) -> Self {
        let n = dg.num_global_nodes();
        let mut pin_set: Vec<NodeId> = dg
            .local_nodes()
            .map(|l| dg.local_to_global(l))
            .collect();
        pin_set.sort_unstable();
        let cache_vals = vec![op.identity(); pin_set.len()];
        McNpm {
            _dg: dg,
            op,
            map_id,
            store,
            host: ctx.host(),
            n,
            cache_keys: pin_set.clone(),
            cache_vals,
            requests: ConcurrentBitset::new(n),
            pin_set,
            updated: AtomicBool::new(false),
        }
    }

    fn key_string(&self, key: NodeId) -> String {
        format!("m{}:{}", self.map_id, key)
    }

    /// One accounted store operation: `messages` counts the request (and
    /// the implicit response), bytes count key + value payloads.
    fn account(&self, ctx: &HostCtx, key: &str, value_bytes: usize) {
        let remote = self.store.server_of(key) != self.host;
        if remote {
            ctx.add_traffic(1, (key.len() + value_bytes) as u64);
        }
    }

    fn fetch(&self, ctx: &HostCtx, key: NodeId) -> T {
        let ks = self.key_string(key);
        self.account(ctx, &ks, T::SIZE);
        match self.store.get(&ks) {
            Some((_, bytes)) => decode_slice::<T>(&bytes)[0],
            None => self.op.identity(),
        }
    }

    /// Refreshes every resident key with one `get` per key (the paper's
    /// `mget` batches the round-trips but still serializes each key/value).
    fn refresh_resident(&mut self, ctx: &HostCtx) {
        // Order with the other hosts' preceding writes (Set/CAS go straight
        // to the shared store, unlike the exchange-synchronized backends).
        ctx.barrier();
        for i in 0..self.cache_keys.len() {
            let k = self.cache_keys[i];
            self.cache_vals[i] = self.fetch(ctx, k);
        }
        // Memcached clients synchronize at our BSP boundaries.
        ctx.barrier();
    }
}

impl<'g, T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for McNpm<'g, T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        // Hash-partition the Set() work like the paper's MC client does.
        for g in 0..self.n as NodeId {
            let ks = self.key_string(g);
            if self.store.server_of(&ks) == self.host {
                self.set(g, f(g));
            }
        }
        for i in 0..self.cache_keys.len() {
            self.cache_vals[i] = f(self.cache_keys[i]);
        }
    }

    fn read(&self, key: NodeId) -> T {
        match self.cache_keys.binary_search(&key) {
            Ok(i) => self.cache_vals[i],
            Err(_) => panic!(
                "host {}: MC read of node {} that was neither requested nor resident",
                self.host, key
            ),
        }
    }

    fn set(&mut self, key: NodeId, value: T) {
        let ks = self.key_string(key);
        self.store.set(&ks, encode_slice(&[value]));
        self.updated.store(true, Ordering::Relaxed);
    }

    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        let _ = tid; // MC has no thread-local maps: CAS directly.
        let ks = self.key_string(key);
        loop {
            let (version, old) = match self.store.get(&ks) {
                Some((v, b)) => (v, decode_slice::<T>(&b)[0]),
                None => (0, self.op.identity()),
            };
            let new = self.op.combine(old, value);
            if new == old {
                return; // no change: nothing to write
            }
            if self.store.cas(&ks, version, encode_slice(&[new])) {
                self.updated.store(true, Ordering::Relaxed);
                return;
            }
            // Lost the race: fetch again and retry (the paper's loop).
        }
    }

    fn request(&self, key: NodeId) {
        self.requests.set(key as usize);
    }

    fn request_sync(&mut self, ctx: &HostCtx) {
        // See refresh_resident: observe every write from the previous
        // phase before fetching.
        ctx.barrier();
        let keys: Vec<NodeId> = self.requests.iter_set().map(|k| k as NodeId).collect();
        self.requests.clear();
        let pairs: Vec<(NodeId, T)> =
            keys.iter().map(|&k| (k, self.fetch(ctx, k))).collect();
        // Merge into the cache: fresh fetches overwrite resident entries
        // (they may still hold pre-round values) and new keys are inserted
        // in order.
        for (k, v) in pairs {
            match self.cache_keys.binary_search(&k) {
                Ok(i) => self.cache_vals[i] = v,
                Err(pos) => {
                    self.cache_keys.insert(pos, k);
                    self.cache_vals.insert(pos, v);
                }
            }
        }
        ctx.barrier();
    }

    fn reduce_sync(&mut self, ctx: &HostCtx) {
        // CAS already materialized every reduction; just resynchronize and
        // refresh what this host reads.
        ctx.barrier();
        self.refresh_resident(ctx);
        // Non-resident ad-hoc entries are stale: drop them.
        let resident = self.pin_set.clone();
        let mut keys = Vec::with_capacity(resident.len());
        let mut vals = Vec::with_capacity(resident.len());
        for &k in &resident {
            if let Ok(i) = self.cache_keys.binary_search(&k) {
                keys.push(k);
                vals.push(self.cache_vals[i]);
            }
        }
        self.cache_keys = keys;
        self.cache_vals = vals;
    }

    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        self.refresh_resident(ctx);
    }

    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        self.refresh_resident(ctx);
    }

    fn unpin_mirrors(&mut self) {}

    fn reset_updated(&mut self) {
        self.updated.store(false, Ordering::Relaxed);
    }

    fn reset_values(&mut self, ctx: &HostCtx) {
        // Owner-partitioned reset of the whole key space.
        let id = self.op.identity();
        for g in 0..self.n as NodeId {
            let ks = self.key_string(g);
            if self.store.server_of(&ks) == self.host {
                self.store.set(&ks, encode_slice(&[id]));
            }
        }
        for v in self.cache_vals.iter_mut() {
            *v = id;
        }
        self.updated.store(false, Ordering::Relaxed);
        ctx.barrier();
    }

    fn is_updated(&self, ctx: &HostCtx) -> bool {
        ctx.all_reduce_or(self.updated.load(Ordering::Relaxed))
    }
}

impl<T: PropValue, Op: ReduceOp<T>> std::fmt::Debug for McNpm<'_, T, Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McNpm")
            .field("map_id", &self.map_id)
            .field("host", &self.host)
            .field("resident", &self.pin_set.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_algos::{cc, merge_master_values, refcheck};
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    #[test]
    fn store_get_set_cas() {
        let s = McStore::new(3);
        assert!(s.get("a").is_none());
        s.set("a", vec![1]);
        let (v, val) = s.get("a").unwrap();
        assert_eq!((v, val), (1, vec![1]));
        assert!(!s.cas("a", 0, vec![9]), "stale version must fail");
        assert!(s.cas("a", 1, vec![2]));
        assert_eq!(s.get("a").unwrap().1, vec![2]);
        let (attempts, failures) = s.cas_stats();
        assert_eq!((attempts, failures), (2, 1));
    }

    #[test]
    fn concurrent_cas_reduces_to_min() {
        let s = Arc::new(McStore::new(2));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        // Min-reduce via CAS loop.
                        let val = 1000 - (t * 100 + i) % 997;
                        loop {
                            let (ver, old) = s
                                .get("k")
                                .map(|(v, b)| (v, u64::from_le_bytes(b.try_into().unwrap())))
                                .unwrap_or((0, u64::MAX));
                            let new = old.min(val);
                            if new == old || s.cas("k", ver, new.to_le_bytes().to_vec()) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let (_, bytes) = s.get("k").unwrap();
        // Values are 1000 - (t*100 + i) with t*100+i in 0..800: min = 201.
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 201);
        assert!(s.cas_stats().0 > 0);
    }

    #[test]
    fn cc_sv_on_mc_matches_reference() {
        let g = gen::rmat(6, 4, 19);
        let expected = refcheck::connected_components(&g);
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let b = McBuilder::new(3);
        let per_host = Cluster::with_threads(3, 2)
            .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &b));
        assert_eq!(merge_master_values(g.num_nodes(), per_host), expected);
    }

    #[test]
    fn cc_lp_on_mc_matches_reference() {
        let g = gen::grid_road(5, 5, 1);
        let expected = refcheck::connected_components(&g);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let b = McBuilder::new(2);
        let per_host = Cluster::new(2).run(|ctx| cc::cc_lp(&parts[ctx.host()], ctx, &b));
        assert_eq!(merge_master_values(g.num_nodes(), per_host), expected);
    }

    /// Louvain and Leiden read neighbors' communities through
    /// `NodePropMap::read_local`. MC-KV and the sharded baseline inherit
    /// the translating default, so every backend
    /// must reproduce the default map's run exactly: the same per-level
    /// mappings, modularity bits, levels and rounds — raw and compressed.
    #[test]
    fn community_detection_agrees_across_backends() {
        use kimbap_algos::{
            leiden, louvain, CommunityResult, MapBuilder, NpmBuilder, ShardedBuilder,
        };
        use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg};

        fn run<B: MapBuilder>(parts: &[DistGraph], b: &B) -> Vec<(CommunityResult, CommunityResult, u64)> {
            Cluster::with_threads(parts.len(), 2).run(|ctx| {
                let dg = &parts[ctx.host()];
                (louvain(dg, ctx, b), leiden(dg, ctx, b), ctx.current_round())
            })
        }
        let hosts = 3;
        for g in [gen::with_random_weights(&gen::rmat(6, 4, 31), 5, 2), gen::grid_road(6, 5, 3)] {
            for compressed in [false, true] {
                let pcfg = PartitionCfg {
                    compressed,
                    ..PartitionCfg::new(Policy::EdgeCutBlocked, hosts)
                };
                let parts = partition_cfg(&g, &pcfg);
                let want = run(&parts, &NpmBuilder);
                assert!(want[0].0.modularity > 0.0 && want[0].2 > 0);
                assert_eq!(run(&parts, &McBuilder::new(hosts)), want, "mc {pcfg:?}");
                for b in [ShardedBuilder::sgr_only(), ShardedBuilder::sgr_cf()] {
                    assert_eq!(run(&parts, &b), want, "{b} {pcfg:?}");
                }
            }
        }
    }

    #[test]
    fn mc_counts_remote_traffic() {
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let b = McBuilder::new(2);
        let stats = Cluster::new(2).run(|ctx| {
            cc::cc_sv(&parts[ctx.host()], ctx, &b);
            ctx.stats()
        });
        assert!(stats.iter().any(|s| s.messages > 0));
    }
}
