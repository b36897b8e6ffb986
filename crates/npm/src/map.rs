//! The distributed node-property map implementation (§4 of the paper).

use crate::bitset::ConcurrentBitset;
use crate::ops::ReduceOp;
use crate::partial::{PartialBuf, ThreadOwned};
use crate::value::PropValue;
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::{HostCtx, Wire};
use kimbap_dist::{DistGraph, LocalId, Ownership};
use kimbap_graph::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which of the paper's runtime designs backs a map (§6.4).
///
/// All variants use scatter-gather-reduce (SGR) for distributed reductions;
/// they differ in how in-memory reductions and reads are organized. The
/// memcached variant (`MC`), which lacks even SGR, is a separate type in
/// `kimbap-baselines`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// SGR only: one shared sharded-lock map per host collects partial
    /// reductions (threads contend on hot keys), keys are distributed by
    /// modulo hash, and *every* read goes through the remote cache or a
    /// hash lookup.
    SgrOnly,
    /// SGR + conflict-free reductions: per-thread local maps during
    /// reduce-compute, combined over disjoint key ranges during
    /// reduce-sync. Keys still modulo-hashed; reads still hash lookups.
    SgrCf,
    /// SGR + CF + the graph-partition-aware representation: key ownership
    /// follows the graph partition, master properties live in a dense
    /// vector, remote properties in a sorted-vector cache. The default.
    #[default]
    SgrCfGar,
}

impl Variant {
    /// `true` if this variant uses conflict-free thread-local reductions.
    pub fn conflict_free(&self) -> bool {
        !matches!(self, Variant::SgrOnly)
    }

    /// `true` if this variant uses the graph-partition-aware
    /// representation.
    pub fn partition_aware(&self) -> bool {
        matches!(self, Variant::SgrCfGar)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Variant::SgrOnly => "SGR-only",
            Variant::SgrCf => "SGR+CF",
            Variant::SgrCfGar => "SGR+CF+GAR",
        })
    }
}

/// How pinned mirrors are refreshed after a reduce-sync.
///
/// `Broadcast` is the general mechanism. `ResetToIdentity` implements
/// Gluon's structural-invariant optimization (§2.2): under an outgoing
/// edge-cut, mirrors of a push-style operator are never *semantically*
/// read — their cached value only pre-filters redundant reductions — so
/// instead of shipping the master value, each host locally reinitializes
/// mirrors to the reduction identity.
///
/// In Gluon this is a clear win because mirrors accumulate reductions
/// in place and only changed values ship. In Kimbap's node-property map
/// the same trade usually *loses*: identity-valued mirrors disable the
/// redundancy filter, so more distinct keys enter the thread-local maps
/// and the reduce-sync ships more pairs than the broadcast saved. This is
/// why `Broadcast` (plus the temporal invariant of sending only updated
/// values) is the default and what the paper's pinned mirrors do; the
/// option exists to measure that design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MirrorSync {
    /// Push updated master values to mirrors (the general mechanism).
    #[default]
    Broadcast,
    /// Locally reset mirrors to the reduction identity (OEC push-style
    /// invariant; no communication).
    ResetToIdentity,
}

/// Read-locality counters (the measurement behind §4.2's motivation for
/// GAR: 50–65% of reads hit master properties).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NpmReadStats {
    /// Reads served by this host's own canonical (master) storage.
    pub master_reads: u64,
    /// Reads served by the remote-property cache.
    pub remote_reads: u64,
    /// Reduce calls issued.
    pub reduce_calls: u64,
    /// Keys requested across all request-syncs.
    pub requested_keys: u64,
}

/// The keys whose readable values changed since the last
/// [`NodePropMap::reset_updated`] — the per-round delta behind the engine's
/// frontier (active-set) execution.
///
/// `Tracked` borrows bookkeeping the map maintains anyway: `masters` is the
/// per-master update bitset written by `set`/`reduce_sync` (bit index =
/// master offset in the map's key distribution, which under the
/// partition-aware representation equals the `DistGraph` local id), and
/// `remote` lists the global ids of pinned mirrors whose cached value
/// changed in the last `broadcast_sync`. Together they cover every key
/// whose *readable* value differs from the start of the round.
///
/// `Untracked` means the map cannot vouch for a complete delta — either
/// the backend keeps no per-key bits (non-partition-aware variants), or an
/// untracked mutation (a `request_sync` materialization, `reset_values`,
/// a checkpoint restore) happened inside the window. Callers must then
/// treat every key as potentially changed.
#[derive(Debug, Clone, Copy)]
pub enum ChangedKeys<'a> {
    /// No complete delta is available: assume everything changed.
    Untracked,
    /// The complete set of keys whose readable value changed.
    Tracked {
        /// Per-master update bits; bit index = master offset.
        masters: &'a ConcurrentBitset,
        /// Global ids of pinned mirrors updated by the last broadcast.
        remote: &'a [NodeId],
    },
}

/// The shared-memory node-property map interface (paper Figs. 2 and 5).
///
/// `read`/`reduce`/`set` are the developer API; the remaining methods are
/// the low-level API driven by compiler-generated code. All `*_sync`
/// methods, `sync_round`, `pin_mirrors`, and `is_updated` are
/// **collectives**: every host must call them in the same order.
pub trait NodePropMap<T: PropValue>: Send + Sync {
    /// Initializes every master property via `f(global_id)` (the paper's
    /// `Set` loop, e.g. `parent_npm.Set(node, node)` in Fig. 4).
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T);

    /// Reads the property of `key`.
    ///
    /// Master properties are always readable. Remote properties must have
    /// been requested (or be pinned mirrors); reads observe the value
    /// materialized by the last `request_sync`/`broadcast_sync`, i.e. BSP
    /// semantics — reductions from the current round are not yet visible.
    ///
    /// # Panics
    ///
    /// Panics if `key` is a remote node that was never requested.
    fn read(&self, key: NodeId) -> T;

    /// [`NodePropMap::read`] of the proxy whose local id in `dg` — the
    /// partition the map was built over — is `lid`: what a hand-written
    /// operator calls for a key it holds positionally (an edge's `dst`).
    /// The default translates and calls `read`; a backend whose tables are
    /// indexed by local id ([`Npm`]) skips the trip through the global id.
    /// Same value and same panic as `read(dg.local_to_global(lid))`.
    #[inline]
    fn read_local(&self, dg: &DistGraph, lid: LocalId) -> T {
        self.read(dg.local_to_global(lid))
    }

    /// Assigns `value` to `key`. For initialization only (§3.1): applied
    /// only on `key`'s owner host, not synchronized, no race detection.
    fn set(&mut self, key: NodeId, value: T);

    /// Reduces `value` into `key`'s property using the map's operator.
    /// `tid` is the calling pool thread's id. The result becomes visible
    /// after the next `reduce_sync`.
    fn reduce(&self, tid: usize, key: NodeId, value: T);

    /// Marks `key` as needed by the next `request_sync`. Duplicate
    /// requests are de-duplicated through a concurrent bitset.
    fn request(&self, key: NodeId);

    /// Collective: exchanges requests, serves them from canonical values,
    /// and materializes the remote cache.
    fn request_sync(&mut self, ctx: &HostCtx);

    /// Collective: combines thread partials (CF), scatters them to owners
    /// (SGR), reduces them onto canonical values, and drops unpinned cache
    /// entries.
    fn reduce_sync(&mut self, ctx: &HostCtx);

    /// Collective: pushes updated master values to their mirrors (only
    /// meaningful between `pin_mirrors`/`unpin_mirrors`).
    fn broadcast_sync(&mut self, ctx: &HostCtx);

    /// Collective: materializes all mirror properties in the cache and
    /// keeps them resident, served by broadcast instead of
    /// request/response.
    fn pin_mirrors(&mut self, ctx: &HostCtx);

    /// Drops pinned mirrors from the cache.
    fn unpin_mirrors(&mut self);

    /// Clears the per-round update flag and per-key delta (start of a BSP
    /// round): the window observed by [`NodePropMap::changed_keys`] begins
    /// here.
    fn reset_updated(&mut self);

    /// The keys whose readable values changed since the last
    /// [`NodePropMap::reset_updated`], as a cheap borrowed view. The
    /// default reports [`ChangedKeys::Untracked`], which is always sound
    /// (callers fall back to dense iteration).
    fn changed_keys(&self) -> ChangedKeys<'_> {
        ChangedKeys::Untracked
    }

    /// Resets every canonical value to the operator's identity and drops
    /// pending partials — equivalent to constructing a fresh map, which is
    /// what the paper's programs do for per-phase maps (e.g. the per-round
    /// neighbor-priority map in MIS or the per-level maps in Louvain);
    /// reusing the allocation just avoids churn. Pinned mirrors stay pinned
    /// and will hold identity until the next `broadcast_sync`.
    fn reset_values(&mut self, ctx: &HostCtx);

    /// Collective: `true` if any host's canonical value changed in the last
    /// `reduce_sync` — the quiescence condition of `KimbapWhile`.
    fn is_updated(&self, ctx: &HostCtx) -> bool;

    /// Collective: the tail of one BSP round — `reduce_sync`, then
    /// `broadcast_sync`, then `is_updated` — returning the agreed
    /// quiescence flag. Map state and result are exactly those of the three
    /// calls; an implementation may spend fewer collectives on them.
    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        self.reduce_sync(ctx);
        self.broadcast_sync(ctx);
        self.is_updated(ctx)
    }
}

/// A copy of a map's canonical (master) state, taken by [`Npm::snapshot`]
/// and reapplied by [`Npm::restore`] — the per-map payload of the engine's
/// round-level checkpoints.
///
/// Only canonical values are captured: caches, pending partials, and
/// request sets are transient within a BSP round, and a checkpoint is only
/// taken at round boundaries where they are empty or reconstructible.
#[derive(Debug, Clone)]
pub enum MapSnapshot<T> {
    /// GAR backend: the dense master-value vector.
    Dense(Vec<T>),
    /// Non-GAR backends: the sharded canonical hash maps.
    Sharded(Vec<HashMap<NodeId, T>>),
}

/// One (source thread, destination thread) spill cell of the CF combine.
type BucketCell<T> = Mutex<Vec<(NodeId, T)>>;

/// A slice that several pool threads write at *disjoint* indices: the
/// gather-reduce's view of the dense master table, whose key-range
/// partition ([`FastOwn::shard`]) hands every index to exactly one thread.
struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` describe a slice borrowed exclusively for `'a`;
// the threads of one parallel region move `T`s in and out of it (hence
// `T: Send`), and the caller of every `get` / `set` guarantees that no two
// threads touch the same index.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T: Copy> DisjointSlice<'a, T> {
    fn new(vals: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: vals.as_mut_ptr(),
            len: vals.len(),
            _borrow: PhantomData,
        }
    }

    /// # Safety
    ///
    /// No other thread may access `i` during this parallel region.
    #[inline]
    unsafe fn get(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} outside a {}-entry table", self.len);
        // SAFETY: in bounds (above); the caller excludes other threads.
        unsafe { *self.ptr.add(i) }
    }

    /// # Safety
    ///
    /// No other thread may access `i` during this parallel region.
    #[inline]
    unsafe fn set(&self, i: usize, v: T) {
        assert!(i < self.len, "index {i} outside a {}-entry table", self.len);
        // SAFETY: in bounds (above); the caller excludes other threads.
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Escalates a peer buffer that is not a whole number of `W` records as a
/// protocol violation instead of letting the decoder's assertion trip.
/// One length check per buffer, before anything is decoded.
fn check_whole<W: Wire>(ctx: &HostCtx, what: &str, unit: &str, received: &[Vec<u8>]) {
    for (from, buf) in received.iter().enumerate() {
        if !buf.len().is_multiple_of(W::SIZE) {
            ctx.protocol_violation(format!(
                "{what} from host {from}: {} bytes is not whole {unit}",
                buf.len()
            ));
        }
    }
}

/// Canonical (master) property storage.
enum Canonical<T: PropValue> {
    /// GAR: dense table indexed by master offset + per-master update bits
    /// (shared by the broadcast temporal invariant and the frontier delta
    /// view).
    Dense {
        vals: Vec<T>,
        updated: ConcurrentBitset,
    },
    /// Non-GAR: hash maps sharded by disjoint key range (one shard per pool
    /// thread, so the gather-reduce stays conflict-free).
    Sharded { shards: Vec<Mutex<HashMap<NodeId, T>>> },
}

/// Precomputed is-mine test for this host's key-distribution map.
///
/// [`Ownership`] answers "who owns key `k`" for *any* host — a search of
/// its boundary table or a modulus, with asserted bounds checks — fine
/// for collectives, too slow for the per-call `reduce`/`read` fast paths,
/// which only ever ask "is `k` mine, and at which master offset".
/// `FastOwn` pre-resolves this host's row of the boundary table (blocked
/// ownership) or modulus residue (hashed ownership) into two branch-light
/// operations.
#[derive(Debug, Clone, Copy)]
enum FastOwn {
    /// Blocked ownership: this host owns the contiguous range
    /// `lo .. lo + len`.
    Block { lo: u32, len: u32 },
    /// Hashed ownership: this host owns keys `≡ host (mod hosts)`.
    Mod { hosts: u32, host: u32 },
}

impl FastOwn {
    fn new(own: &Ownership, host: usize) -> Self {
        match own {
            Ownership::Blocked { bounds } => FastOwn::Block {
                lo: bounds[host],
                len: bounds[host + 1] - bounds[host],
            },
            Ownership::Hashed { hosts, .. } => FastOwn::Mod {
                hosts: *hosts as u32,
                host: host as u32,
            },
        }
    }

    /// This host's master offset for `key`, or `None` if `key` is remote.
    #[inline]
    fn local_offset(self, key: NodeId) -> Option<u32> {
        match self {
            FastOwn::Block { lo, len } => {
                let d = key.wrapping_sub(lo);
                (d < len).then_some(d)
            }
            FastOwn::Mod { hosts, host } => {
                (key % hosts == host).then(|| key / hosts)
            }
        }
    }

    /// The pool thread (of `threads`) that combines and gathers `key`:
    /// disjoint ascending ranges. A blocked host's own keys are split by
    /// master offset, so every thread gets an equal slice of the host's
    /// block wherever the block lies in the id space; remote keys, and
    /// hashed ownership (whose owned keys stride the whole space), are
    /// split over the `n` global ids. The scatter, the gather and the
    /// sharded canonical store must all agree on it.
    #[inline]
    fn shard(self, key: NodeId, threads: usize, n: usize) -> usize {
        let (pos, span) = match self {
            FastOwn::Block { lo, len } if key.wrapping_sub(lo) < len => (key - lo, len as usize),
            _ => (key, n.max(1)),
        };
        debug_assert!((pos as usize) < span);
        (pos as u64 * threads as u64 / span as u64) as usize
    }

    /// Inverse of [`FastOwn::local_offset`]: the global key at master
    /// offset `off`.
    #[inline]
    fn key_at(self, off: u32) -> NodeId {
        match self {
            FastOwn::Block { lo, .. } => lo + off,
            FastOwn::Mod { hosts, host } => off * hosts + host,
        }
    }
}

/// The node-property map (see the [crate docs](crate) and
/// [`NodePropMap`] for semantics).
pub struct Npm<'g, T: PropValue, Op: ReduceOp<T>> {
    dg: &'g DistGraph,
    op: Op,
    variant: Variant,
    host: usize,
    num_hosts: usize,
    threads: usize,
    /// Key-distribution map: the graph's ownership for GAR, modulo hash
    /// otherwise.
    key_own: Ownership,
    /// Precomputed is-mine test derived from `key_own` for the hot paths.
    fast_own: FastOwn,
    canonical: Canonical<T>,
    /// Remote cache: sorted keys + parallel values (paper Fig. 6). Under
    /// GAR this only spills requested keys that have *no* mirror proxy
    /// (trans-vertex requests); mirror values live in `mirror_vals`.
    cache_keys: Vec<NodeId>,
    cache_vals: Vec<T>,
    /// GAR: dense mirror-value table indexed by the partition's mirror
    /// slot, with presence bits. O(1) reads for materialized mirrors; the
    /// paper's sorted-pair form survives only on the wire. Empty without
    /// GAR.
    mirror_vals: Vec<T>,
    mirror_has: Vec<bool>,
    requests: ConcurrentBitset,
    /// CF: per-thread lock-free partial buffers (dense local range +
    /// open-addressed remote table).
    tls: ThreadOwned<PartialBuf<T>>,
    /// CF combine: spill cell per (source thread, destination thread).
    /// Region A of `cf_combine_scatter` fills row `tid`; region B drains
    /// column `tid`. Uncontended locks by construction.
    bucket_cells: Vec<Vec<BucketCell<T>>>,
    /// CF combine: per-destination-thread owned pairs that skip the wire
    /// and are applied locally after the exchange (self-delivery was
    /// always an uncounted memcpy).
    local_pairs: ThreadOwned<Vec<(NodeId, T)>>,
    /// Bytes serialized to each host by the previous reduce-sync: the
    /// capacity hint for this round's scatter buffers.
    prev_out_bytes: Vec<usize>,
    /// SGR-only: the single shared (sharded-lock) partial map.
    shared: Vec<Mutex<HashMap<NodeId, T>>>,
    pinned: bool,
    mirror_sync: MirrorSync,
    /// Read-locality counting is off by default: the per-read atomic
    /// increments contend across threads in the hottest loop of every
    /// algorithm. The locality experiment switches it on.
    count_reads: bool,
    /// Keys kept resident in the cache while pinned: the graph mirrors
    /// under GAR; *every* local proxy whose hashed key owner is remote for
    /// the non-partition-aware variants (they cache "both master and
    /// remote node properties", §6.4).
    pin_set: Vec<NodeId>,
    /// `Set()` calls targeting keys this host does not own (possible only
    /// without GAR, where key owners ignore the graph partition); shipped
    /// to owners at the next collective.
    pending_sets: Mutex<Vec<(NodeId, T)>>,
    /// Pin happened this round: the next broadcast must carry all mirror
    /// values, not just updated ones.
    broadcast_all: bool,
    /// Pinned mirrors whose cached value changed in the last
    /// `broadcast_sync` — the remote half of [`ChangedKeys::Tracked`].
    changed_remote: Vec<NodeId>,
    /// The current delta window is complete: no untracked mutation
    /// (request-sync materialization, value reset, restore) has happened
    /// since the last `reset_updated`. Cleared events force
    /// [`ChangedKeys::Untracked`] until the window rolls over.
    delta_tracked: bool,
    updated: AtomicBool,
    master_reads: AtomicU64,
    remote_reads: AtomicU64,
    reduce_calls: AtomicU64,
    requested_keys: AtomicU64,
}

/// Number of lock shards in the SGR-only shared map (mirrors the internal
/// sharding of a concurrent hash map like `phmap::flat_hash_map`).
const SHARED_SHARDS: usize = 64;

impl<'g, T: PropValue, Op: ReduceOp<T>> Npm<'g, T, Op> {
    /// Creates a map over `dg`'s node space with the default
    /// (SGR+CF+GAR) backend. Every master property starts at the
    /// operator's identity.
    pub fn new(dg: &'g DistGraph, ctx: &HostCtx, op: Op) -> Self {
        Self::with_variant(dg, ctx, op, Variant::SgrCfGar)
    }

    /// Creates a map with an explicit runtime [`Variant`] (for the §6.4
    /// ablations).
    pub fn with_variant(dg: &'g DistGraph, ctx: &HostCtx, op: Op, variant: Variant) -> Self {
        let n = dg.num_global_nodes();
        let host = ctx.host();
        let num_hosts = ctx.num_hosts();
        let threads = ctx.threads();
        let key_own = if variant.partition_aware() {
            dg.ownership().clone()
        } else {
            Ownership::hashed(n, num_hosts)
        };
        let canonical = if variant.partition_aware() {
            let m = key_own.num_masters(host);
            Canonical::Dense {
                vals: vec![op.identity(); m],
                updated: ConcurrentBitset::new(m),
            }
        } else {
            Canonical::Sharded {
                shards: (0..threads).map(|_| Mutex::new(HashMap::new())).collect(),
            }
        };
        let pin_set: Vec<NodeId> = if variant.partition_aware() {
            dg.mirror_globals().to_vec()
        } else {
            let mut v: Vec<NodeId> = dg
                .local_nodes()
                .map(|l| dg.local_to_global(l))
                .filter(|&g| key_own.owner(g) != host)
                .collect();
            v.sort_unstable();
            v
        };
        let auto_pinned = !variant.partition_aware();
        let (cache_keys, cache_vals) = if auto_pinned {
            (pin_set.clone(), vec![op.identity(); pin_set.len()])
        } else {
            (Vec::new(), Vec::new())
        };
        let (mirror_vals, mirror_has) = if variant.partition_aware() {
            let m = dg.num_mirrors();
            (vec![op.identity(); m], vec![false; m])
        } else {
            (Vec::new(), Vec::new())
        };
        let fast_own = FastOwn::new(&key_own, host);
        let cf_local = if variant.conflict_free() {
            key_own.num_masters(host)
        } else {
            0
        };
        Npm {
            dg,
            op,
            variant,
            host,
            num_hosts,
            threads,
            key_own,
            fast_own,
            canonical,
            cache_keys,
            cache_vals,
            mirror_vals,
            mirror_has,
            requests: ConcurrentBitset::new(n),
            tls: ThreadOwned::new(threads, || PartialBuf::new(cf_local, op.identity())),
            bucket_cells: (0..threads)
                .map(|_| (0..threads).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            local_pairs: ThreadOwned::new(threads, Vec::new),
            prev_out_bytes: vec![0; num_hosts],
            shared: (0..SHARED_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            pinned: auto_pinned,
            mirror_sync: MirrorSync::default(),
            count_reads: false,
            pin_set,
            pending_sets: Mutex::new(Vec::new()),
            broadcast_all: false,
            changed_remote: Vec::new(),
            delta_tracked: true,
            updated: AtomicBool::new(false),
            master_reads: AtomicU64::new(0),
            remote_reads: AtomicU64::new(0),
            reduce_calls: AtomicU64::new(0),
            requested_keys: AtomicU64::new(0),
        }
    }

    /// The backend variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Heap bytes of the dense master and mirror value tables, one `T` per
    /// entry (capacity-based, like the graph's size accounting). Zero for
    /// the sharded backends (their canonical bytes live in hash maps).
    pub fn table_bytes(&self) -> usize {
        let canonical = match &self.canonical {
            Canonical::Dense { vals, .. } => vals.capacity(),
            Canonical::Sharded { .. } => 0,
        };
        (canonical + self.mirror_vals.capacity()) * std::mem::size_of::<T>()
    }

    /// The map's reduction operator.
    pub fn op(&self) -> Op {
        self.op
    }

    /// Selects how pinned mirrors are refreshed (see [`MirrorSync`]).
    /// Only meaningful for the partition-aware variant; ignored otherwise
    /// (non-GAR variants have no broadcast path to elide).
    pub fn set_mirror_sync(&mut self, mode: MirrorSync) {
        self.mirror_sync = mode;
    }

    /// Enables master/remote read counting (see [`Npm::read_stats`]).
    /// Off by default: the counters are shared atomics on the read hot
    /// path.
    pub fn enable_read_stats(&mut self) {
        self.count_reads = true;
    }

    /// Read-locality counters accumulated so far.
    pub fn read_stats(&self) -> NpmReadStats {
        NpmReadStats {
            master_reads: self.master_reads.load(Ordering::Relaxed),
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            reduce_calls: self.reduce_calls.load(Ordering::Relaxed),
            requested_keys: self.requested_keys.load(Ordering::Relaxed),
        }
    }

    // Local-id accessors: what compiler-lowered operator code calls for
    // keys it knows positionally (the active node, an edge destination).

    /// [`NodePropMap::read`] of the proxy with local id `lid`, without the
    /// trip through its global id: under the partition-aware
    /// representation a master's table offset *is* its local id and mirror
    /// slot `s` is local id `num_masters + s`, so the dense tables are
    /// indexed directly. Same value, same counters and — for a mirror that
    /// was neither requested nor pinned — the same panic as `read`; the
    /// other variants translate and call it.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition, or where
    /// `read(local_to_global(lid))` would.
    #[inline]
    pub fn read_local(&self, lid: LocalId) -> T {
        if let Canonical::Dense { vals, .. } = &self.canonical {
            let l = lid as usize;
            match l.checked_sub(self.dg.num_masters()) {
                None => {
                    if self.count_reads {
                        self.master_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return vals[l];
                }
                Some(slot) if self.mirror_has[slot] => {
                    if self.count_reads {
                        self.remote_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return self.mirror_vals[slot];
                }
                // An unmaterialized mirror: `read` owns the miss.
                Some(_) => {}
            }
        }
        self.read(self.dg.local_to_global(lid))
    }

    /// [`NodePropMap::reduce`] into the proxy with local id `lid`: under
    /// the partition-aware representation a master's partial lands in the
    /// calling thread's dense buffer at offset `lid`, with no ownership
    /// test. Exactly the state `reduce(tid, local_to_global(lid), value)`
    /// leaves; the other variants translate and call it.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition.
    #[inline]
    pub fn reduce_local(&self, tid: usize, lid: LocalId, value: T) {
        if !self.variant.partition_aware() {
            return self.reduce(tid, self.dg.local_to_global(lid), value);
        }
        if self.count_reads {
            self.reduce_calls.fetch_add(1, Ordering::Relaxed);
        }
        let op = self.op;
        // SAFETY: `tid` is the caller's pool thread id; WorkerPool hands
        // each worker a distinct dense id, so no two concurrent callers
        // share a slot.
        let buf = unsafe { self.tls.slot(tid) };
        if (lid as usize) < self.dg.num_masters() {
            buf.reduce_local(lid, value, |a, b| op.combine(a, b));
        } else {
            buf.reduce_remote(self.dg.local_to_global(lid), value, |a, b| op.combine(a, b));
        }
    }

    /// [`NodePropMap::request`] of the proxy with local id `lid`: under
    /// the partition-aware representation masters need no request and the
    /// ownership test is one comparison.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition.
    #[inline]
    pub fn request_local(&self, lid: LocalId) {
        if self.variant.partition_aware() && (lid as usize) < self.dg.num_masters() {
            return;
        }
        self.requests.set(self.dg.local_to_global(lid) as usize);
    }

    /// The value canonical storage holds for an owned `key` (identity if
    /// never written).
    fn canonical_get(&self, key: NodeId) -> T {
        debug_assert_eq!(self.key_own.owner(key), self.host);
        match &self.canonical {
            Canonical::Dense { vals, .. } => vals[self.key_own.master_offset(key)],
            Canonical::Sharded { shards } => {
                let shard = self.fast_own.shard(key, self.threads, self.key_own.num_nodes());
                shards[shard]
                    .lock()
                    .get(&key)
                    .copied()
                    .unwrap_or_else(|| self.op.identity())
            }
        }
    }

    fn canonical_set(&mut self, key: NodeId, value: T) {
        debug_assert_eq!(self.key_own.owner(key), self.host);
        match &mut self.canonical {
            Canonical::Dense { vals, .. } => vals[self.key_own.master_offset(key)] = value,
            Canonical::Sharded { shards } => {
                let shard = self.fast_own.shard(key, self.threads, self.key_own.num_nodes());
                shards[shard].get_mut().insert(key, value);
            }
        }
    }

    fn cache_lookup(&self, key: NodeId) -> Option<T> {
        self.cache_keys
            .binary_search(&key)
            .ok()
            .map(|i| self.cache_vals[i])
    }

    /// Replaces / merges the cache with `pairs` (sorted by key). Entries in
    /// `pairs` win over existing ones; existing entries are retained only
    /// when `keep_existing`.
    fn merge_cache(&mut self, pairs: Vec<(NodeId, T)>, keep_existing: bool) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        if !keep_existing || self.cache_keys.is_empty() {
            self.cache_keys = pairs.iter().map(|&(k, _)| k).collect();
            self.cache_vals = pairs.iter().map(|&(_, v)| v).collect();
            return;
        }
        let mut keys = Vec::with_capacity(self.cache_keys.len() + pairs.len());
        let mut vals = Vec::with_capacity(keys.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.cache_keys.len() || j < pairs.len() {
            let take_new = j < pairs.len()
                && (i >= self.cache_keys.len() || pairs[j].0 <= self.cache_keys[i]);
            if take_new {
                if i < self.cache_keys.len() && pairs[j].0 == self.cache_keys[i] {
                    i += 1; // new value supersedes old
                }
                keys.push(pairs[j].0);
                vals.push(pairs[j].1);
                j += 1;
            } else {
                keys.push(self.cache_keys[i]);
                vals.push(self.cache_vals[i]);
                i += 1;
            }
        }
        self.cache_keys = keys;
        self.cache_vals = vals;
    }

    /// Fetches current canonical values for `keys` (grouped per owner,
    /// sorted) through the request/response protocol and returns the merged
    /// sorted pair list. Shared by `request_sync` and the non-GAR
    /// pin/broadcast fallback.
    fn fetch_keys(&mut self, ctx: &HostCtx, keys_by_owner: Vec<Vec<NodeId>>) -> Vec<(NodeId, T)> {
        // Round 1: ship request key lists.
        let outgoing = keys_by_owner
            .iter()
            .enumerate()
            .map(|(h, keys)| {
                if h == self.host {
                    Vec::new()
                } else {
                    encode_slice(keys)
                }
            })
            .collect();
        let incoming = ctx.exchange(outgoing);
        check_whole::<NodeId>(ctx, "request list", "keys", &incoming);

        // Serve: respond with values in request order.
        let responses: Vec<Vec<u8>> = incoming
            .iter()
            .enumerate()
            .map(|(h, buf)| {
                if h == self.host {
                    return Vec::new();
                }
                let mut resp = Vec::with_capacity(buf.len() / NodeId::SIZE * T::SIZE);
                for key in iter_decoded::<NodeId>(buf) {
                    self.canonical_get(key).write(&mut resp);
                }
                resp
            })
            .collect();

        // Round 2: ship responses.
        let answers = ctx.exchange(responses);

        // Materialize.
        let mut pairs: Vec<(NodeId, T)> = Vec::new();
        for (h, keys) in keys_by_owner.iter().enumerate() {
            if h == self.host {
                for &k in keys {
                    pairs.push((k, self.canonical_get(k)));
                }
            } else {
                let answer = &answers[h];
                if answer.len() != keys.len() * T::SIZE {
                    ctx.protocol_violation(format!(
                        "response from host {h}: {} bytes for {} keys",
                        answer.len(),
                        keys.len()
                    ));
                }
                pairs.extend(keys.iter().copied().zip(iter_decoded::<T>(answer)));
            }
        }
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// Ships buffered `Set()` assignments to their key owners and applies
    /// them. Collective (no-op exchange when nothing is pending anywhere).
    fn flush_pending_sets(&mut self, ctx: &HostCtx) {
        if self.variant.partition_aware() {
            debug_assert!(self.pending_sets.get_mut().is_empty());
            return;
        }
        let pending = std::mem::take(&mut *self.pending_sets.get_mut());
        let mut per_host: Vec<Vec<u8>> = vec![Vec::new(); self.num_hosts];
        for (k, v) in pending {
            (k, v).write(&mut per_host[self.key_own.owner(k)]);
        }
        let received = ctx.exchange(per_host);
        check_whole::<(NodeId, T)>(ctx, "assignments", "(key, value) pairs", &received);
        for buf in &received {
            for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                let changed = self.canonical_get(k) != v;
                self.canonical_set(k, v);
                if changed {
                    self.updated.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// Re-fetches the values of every resident (pin-set) key through the
    /// request/response protocol — the broadcast substitute for variants
    /// without the partition-aware representation. Collective.
    fn refresh_resident(&mut self, ctx: &HostCtx) {
        let mut keys_by_owner: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_hosts];
        for &m in &self.pin_set {
            keys_by_owner[self.key_own.owner(m)].push(m);
        }
        let pairs = self.fetch_keys(ctx, keys_by_owner);
        // Residents replace the whole cache (ad-hoc requests are stale now).
        self.merge_cache(pairs, false);
    }

    /// Captures this host's canonical (master) values for checkpointing.
    ///
    /// Call at a BSP round boundary (after `reduce_sync`): the snapshot
    /// deliberately excludes the remote cache, pending partials, buffered
    /// `Set()`s, and the request set, which are all empty or
    /// reconstructible there.
    pub fn snapshot(&self) -> MapSnapshot<T> {
        match &self.canonical {
            Canonical::Dense { vals, .. } => MapSnapshot::Dense(vals.clone()),
            Canonical::Sharded { shards } => {
                MapSnapshot::Sharded(shards.iter().map(|s| s.lock().clone()).collect())
            }
        }
    }

    /// Rewinds this host's map to a [`Npm::snapshot`]: canonical values are
    /// reapplied and every transient (cache, partials, requests, buffered
    /// `Set()`s, update flags, pin state) is reset as if the map had just
    /// reached that round boundary.
    ///
    /// Mirrors are dropped: callers that had mirrors pinned must call
    /// `pin_mirrors` again (the engine's recovery path does), which
    /// re-materializes them from the restored canonical values. For the
    /// non-partition-aware variants the always-resident cache is reset to
    /// identity and likewise refreshed by the next `pin_mirrors` /
    /// `broadcast_sync`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a map with a different backend
    /// [`Variant`] or node space.
    pub fn restore(&mut self, snap: &MapSnapshot<T>) {
        match (&mut self.canonical, snap) {
            (Canonical::Dense { vals, updated }, MapSnapshot::Dense(saved)) => {
                assert_eq!(vals.len(), saved.len(), "snapshot from a different map");
                vals.copy_from_slice(saved);
                updated.clear();
            }
            (Canonical::Sharded { shards }, MapSnapshot::Sharded(saved)) => {
                assert_eq!(shards.len(), saved.len(), "snapshot from a different map");
                for (shard, s) in shards.iter_mut().zip(saved) {
                    *shard.get_mut() = s.clone();
                }
            }
            _ => panic!("snapshot taken from a different backend variant"),
        }
        let auto_pinned = !self.variant.partition_aware();
        if auto_pinned {
            self.cache_keys = self.pin_set.clone();
            self.cache_vals = vec![self.op.identity(); self.pin_set.len()];
        } else {
            self.cache_keys.clear();
            self.cache_vals.clear();
            self.mirror_vals.fill(self.op.identity());
            self.mirror_has.fill(false);
        }
        self.requests.clear();
        self.clear_partials();
        for m in self.shared.iter_mut() {
            m.get_mut().clear();
        }
        self.pending_sets.get_mut().clear();
        self.pinned = auto_pinned;
        self.broadcast_all = false;
        self.changed_remote.clear();
        // The rewind is not a tracked mutation; the next round must run
        // dense before delta windows resume.
        self.delta_tracked = false;
        self.updated.store(false, Ordering::Relaxed);
    }

    /// Expands a snapshot of **this host's** shard into explicit
    /// `(node, value)` pairs — the partition-independent form a host ships
    /// to its replication successor, and the form a survivor re-shards
    /// under a recomputed ownership after a membership shrink. Dense
    /// offsets are decoded through the shared ownership; sharded maps are
    /// flattened. The order is deterministic (ascending node id), so
    /// replicated payloads are byte-stable across runs.
    ///
    /// # Panics
    ///
    /// Panics if a dense snapshot's length does not match this host's
    /// master count (snapshot from a different shard or node space).
    pub fn globalize_snapshot(&self, snap: &MapSnapshot<T>) -> Vec<(NodeId, T)> {
        match snap {
            MapSnapshot::Dense(vals) => {
                assert_eq!(
                    vals.len(),
                    self.key_own.num_masters(self.host),
                    "snapshot from a different shard"
                );
                self.key_own
                    .masters(self.host)
                    .zip(vals.iter().copied())
                    .collect()
            }
            MapSnapshot::Sharded(shards) => {
                let mut pairs: Vec<(NodeId, T)> = shards
                    .iter()
                    .flat_map(|s| s.iter().map(|(&k, &v)| (k, v)))
                    .collect();
                pairs.sort_unstable_by_key(|p| p.0);
                pairs
            }
        }
    }

    /// Resets every CF transient (thread buffers, combine cells, owned
    /// pairs), keeping allocations.
    fn clear_partials(&mut self) {
        for b in self.tls.iter_mut() {
            b.clear();
        }
        for row in self.bucket_cells.iter_mut() {
            for cell in row.iter_mut() {
                cell.get_mut().clear();
            }
        }
        for p in self.local_pairs.iter_mut() {
            p.clear();
        }
    }

    /// CF scatter half of reduce-sync: drains every thread's partial
    /// buffer, combines partials over disjoint destination key ranges
    /// (Fig. 7), and serializes remote-owned pairs per destination host.
    ///
    /// The combine touches each entry exactly twice — once when its source
    /// thread buckets it by [`FastOwn::shard`] (region A), once when its
    /// destination thread folds the bucket into its own emptied buffer
    /// (region B) — O(entries) total, instead of the previous
    /// all-threads-rescan-everything O(threads × entries).
    ///
    /// Keys this host owns never reach the wire: they land in
    /// `local_pairs` and are folded during the gather. (They were
    /// previously self-delivered, which the traffic stats never counted,
    /// so observable message/byte counts are unchanged.)
    fn cf_combine_scatter(&mut self, ctx: &HostCtx) -> Vec<Vec<u8>> {
        let n = self.key_own.num_nodes();
        let threads = self.threads;
        let op = self.op;
        let fast = self.fast_own;
        let key_own = self.key_own.clone();
        let num_hosts = self.num_hosts;
        let host = self.host;
        let prev_bytes = self.prev_out_bytes.clone();
        let per_host: Vec<Mutex<Vec<u8>>> = prev_bytes
            .iter()
            .map(|&b| Mutex::new(Vec::with_capacity(b)))
            .collect();
        {
            let tls = &self.tls;
            let cells = &self.bucket_cells;
            // Region A: each thread drains its own buffer, pre-bucketing
            // every entry by its destination combine thread.
            ctx.pool().run(|tid| {
                // SAFETY: WorkerPool hands each worker a distinct dense
                // thread id, so no two threads share a slot.
                let buf = unsafe { tls.slot(tid) };
                let mut row: Vec<_> = cells[tid].iter().map(|c| c.lock()).collect();
                buf.drain_local(|off, v| {
                    let k = fast.key_at(off);
                    row[fast.shard(k, threads, n)].push((k, v));
                });
                buf.drain_remote(|k, v| {
                    row[fast.shard(k, threads, n)].push((k, v));
                });
            });
            let tls = &self.tls;
            let local_pairs = &self.local_pairs;
            let per_host = &per_host;
            let prev_bytes = &prev_bytes;
            // Region B: each thread folds its incoming buckets into its
            // own (drained) buffer, then serializes — owned keys into
            // `local_pairs`, remote keys into per-destination-host wire
            // buffers.
            ctx.pool().run(|tid| {
                // SAFETY: distinct tids per worker; region A's barrier has
                // passed, so every buffer is drained and reusable as this
                // thread's combine accumulator.
                let acc = unsafe { tls.slot(tid) };
                debug_assert!(acc.is_empty());
                for src_cells in cells.iter() {
                    let mut cell = src_cells[tid].lock();
                    for &(k, v) in cell.iter() {
                        match fast.local_offset(k) {
                            Some(off) => acc.reduce_local(off, v, |a, b| op.combine(a, b)),
                            None => acc.reduce_remote(k, v, |a, b| op.combine(a, b)),
                        }
                    }
                    cell.clear(); // keep capacity for the next round
                }
                // SAFETY: distinct tids per worker.
                let mine = unsafe { local_pairs.slot(tid) };
                debug_assert!(mine.is_empty());
                let mut wire: Vec<Vec<u8>> = (0..num_hosts)
                    .map(|h| Vec::with_capacity(prev_bytes[h] / threads))
                    .collect();
                acc.drain_local(|off, v| mine.push((fast.key_at(off), v)));
                acc.drain_remote(|k, v| (k, v).write(&mut wire[key_own.owner(k)]));
                for (h, w) in wire.into_iter().enumerate() {
                    debug_assert!(h != host || w.is_empty(), "owned key serialized");
                    if !w.is_empty() {
                        per_host[h].lock().extend_from_slice(&w);
                    }
                }
            });
        }
        let outgoing: Vec<Vec<u8>> = per_host.into_iter().map(|m| m.into_inner()).collect();
        for (prev, out) in self.prev_out_bytes.iter_mut().zip(&outgoing) {
            *prev = out.len();
        }
        outgoing
    }

    /// Gather-reduce: threads own disjoint key ranges and fold pairs onto
    /// canonical values — first the locally retained CF pairs
    /// (`local_pairs`; SGR variants keep them empty), then matching pairs
    /// from every buffer in `received`, in host order.
    fn gather_fold(&mut self, ctx: &HostCtx, received: &[Vec<u8>]) {
        // Checked here, on the host thread: the pool threads below decode
        // without a way to report a peer's bytes.
        check_whole::<(NodeId, T)>(ctx, "reduce-sync", "(key, value) pairs", received);
        let n = self.key_own.num_nodes();
        let op = self.op;
        let threads = self.threads;
        let host = self.host;
        let key_own = self.key_own.clone();
        let fast = self.fast_own;
        let updated_any = &self.updated;
        let local_pairs = &self.local_pairs;
        match &mut self.canonical {
            Canonical::Dense { vals, updated } => {
                let table = DisjointSlice::new(vals);
                let table = &table;
                let updated = &*updated;
                ctx.pool().run(|tid| {
                    let apply = |k: NodeId, v: T| {
                        debug_assert_eq!(key_own.owner(k), host);
                        let off = fast.local_offset(k).expect("gather key not owned") as usize;
                        // SAFETY: `off` is unique to this thread's key
                        // range for the duration of this parallel region.
                        unsafe {
                            let old = table.get(off);
                            let new = op.combine(old, v);
                            if new != old {
                                table.set(off, new);
                                updated.set(off);
                                updated_any.store(true, Ordering::Relaxed);
                            }
                        }
                    };
                    // SAFETY: distinct tids per worker.
                    let mine = unsafe { local_pairs.slot(tid) };
                    for &(k, v) in mine.iter() {
                        debug_assert_eq!(fast.shard(k, threads, n), tid);
                        apply(k, v);
                    }
                    mine.clear();
                    for buf in received {
                        for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                            if fast.shard(k, threads, n) != tid {
                                continue;
                            }
                            apply(k, v);
                        }
                    }
                });
            }
            Canonical::Sharded { shards } => {
                let shards = &*shards;
                ctx.pool().run(|tid| {
                    let mut shard = shards[tid].lock();
                    let mut apply = |k: NodeId, v: T| {
                        debug_assert_eq!(key_own.owner(k), host);
                        let old = shard.get(&k).copied().unwrap_or_else(|| op.identity());
                        let new = op.combine(old, v);
                        if new != old {
                            shard.insert(k, new);
                            updated_any.store(true, Ordering::Relaxed);
                        }
                    };
                    // SAFETY: distinct tids per worker.
                    let mine = unsafe { local_pairs.slot(tid) };
                    for &(k, v) in mine.iter() {
                        debug_assert_eq!(fast.shard(k, threads, n), tid);
                        apply(k, v);
                    }
                    mine.clear();
                    for buf in received {
                        for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                            if fast.shard(k, threads, n) != tid {
                                continue;
                            }
                            apply(k, v);
                        }
                    }
                });
            }
        }
    }

    /// SGR-only scatter half of reduce-sync: the shared sharded map is
    /// already combined; serialize every pair per owner host (including
    /// this host — self-delivery is an uncounted memcpy).
    fn shared_scatter(&mut self, ctx: &HostCtx) -> Vec<Vec<u8>> {
        let combined: Vec<HashMap<NodeId, T>> = self
            .shared
            .iter_mut()
            .map(|m| std::mem::take(&mut *m.get_mut()))
            .collect();
        let per_host: Vec<Mutex<Vec<u8>>> = self
            .prev_out_bytes
            .iter()
            .map(|&b| Mutex::new(Vec::with_capacity(b)))
            .collect();
        {
            let key_own = self.key_own.clone();
            let threads = self.threads;
            let combined = &combined;
            let per_host = &per_host;
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
        let outgoing: Vec<Vec<u8>> = per_host.into_iter().map(|m| m.into_inner()).collect();
        for (prev, out) in self.prev_out_bytes.iter_mut().zip(&outgoing) {
            *prev = out.len();
        }
        outgoing
    }

    /// SGR-only reduce path: shard the shared map by key hash; hot keys
    /// contend (the cost the CF ablation measures).
    fn reduce_shared(&self, key: NodeId, value: T) {
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = (h >> 32) as usize % SHARED_SHARDS;
        let mut m = self.shared[slot].lock();
        match m.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let v = self.op.combine(*e.get(), value);
                e.insert(v);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    /// The GAR broadcast over pinned mirrors: one exchange pushing master
    /// values to the hosts that mirror them. With a `vote`, the same
    /// exchange carries every host's bit and the agreed OR is returned
    /// (without one the result is `false`).
    fn broadcast_pinned(&mut self, ctx: &HostCtx, vote: Option<bool>) -> bool {
        let all = self.broadcast_all;
        self.broadcast_all = false;
        let outgoing: Vec<Vec<u8>> = if self.mirror_sync == MirrorSync::ResetToIdentity && !all {
            // Structural-invariant elision: push-style programs under an
            // outgoing edge-cut never semantically read mirror values, so
            // reinitialize them locally instead of communicating. (The
            // initial materialization after pin_mirrors still broadcasts
            // so that the very first reads are exact.) The local
            // reinitialization is an untracked mirror mutation.
            self.delta_tracked = false;
            self.mirror_vals.fill(self.op.identity());
            // Peers may still be broadcasting to us this round; stay in the
            // collective but send nothing.
            vec![Vec::new(); self.num_hosts]
        } else {
            // One-way push of master values to mirror hosts. The temporal
            // invariant (partitions don't change) lets us send only values
            // updated by the last reduce_sync — except right after pinning,
            // when mirrors hold no values yet.
            let updated = match &self.canonical {
                Canonical::Dense { updated, .. } => updated,
                Canonical::Sharded { .. } => unreachable!("GAR is dense"),
            };
            (0..self.num_hosts)
                .map(|peer| {
                    let mut buf = Vec::new();
                    if peer != self.host {
                        for &g in self.dg.mirrors_on_peer(peer) {
                            if all || updated.get(self.key_own.master_offset(g)) {
                                (g, self.canonical_get(g)).write(&mut buf);
                            }
                        }
                    }
                    buf
                })
                .collect()
        };
        let (received, any) = match vote {
            Some(v) => ctx.exchange_or(outgoing, v),
            None => (ctx.exchange(outgoing), false),
        };
        check_whole::<(NodeId, T)>(ctx, "broadcast", "(key, value) pairs", &received);
        for buf in &received {
            for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                self.mirror_store(k, v);
            }
        }
        any
    }

    /// Stores a broadcast value into the mirror table if `key`'s mirror is
    /// materialized (GAR receive path), recording actual changes in the
    /// remote delta.
    fn mirror_store(&mut self, key: NodeId, value: T) {
        if let Some(slot) = self.dg.mirror_slot(key) {
            let slot = slot as usize;
            if self.mirror_has[slot] {
                if self.mirror_vals[slot] != value {
                    self.changed_remote.push(key);
                }
                self.mirror_vals[slot] = value;
            }
        }
    }

    /// Read slow path: `key` is remote and was neither requested nor
    /// pinned.
    #[cold]
    #[inline(never)]
    fn read_miss(&self, key: NodeId) -> ! {
        panic!(
            "host {}: read of remote node {} that was neither requested nor pinned",
            self.host, key
        );
    }
}

impl<'g, T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for Npm<'g, T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        for i in 0..self.key_own.num_masters(self.host) {
            let g = self.key_own.master_at(self.host, i);
            self.set(g, f(g));
        }
        if !self.variant.partition_aware() {
            // The always-resident cache can be primed locally: `f` is the
            // same pure function on every host.
            for i in 0..self.cache_keys.len() {
                self.cache_vals[i] = f(self.cache_keys[i]);
            }
        }
    }

    #[inline]
    fn read(&self, key: NodeId) -> T {
        // Under GAR the cache never holds owned keys (requests for them are
        // elided), so the O(1) master path goes first; without GAR the
        // resident cache is authoritative for everything fetched.
        if self.variant.partition_aware() {
            // Masters: O(1) dense canonical via precomputed ownership.
            if let Some(off) = self.fast_own.local_offset(key) {
                if self.count_reads {
                    self.master_reads.fetch_add(1, Ordering::Relaxed);
                }
                return match &self.canonical {
                    Canonical::Dense { vals, .. } => vals[off as usize],
                    Canonical::Sharded { .. } => unreachable!("GAR canonical is dense"),
                };
            }
            // Materialized mirrors: O(1) dense table indexed by the
            // partition's mirror slot.
            if let Some(slot) = self.dg.mirror_slot(key) {
                let slot = slot as usize;
                if self.mirror_has[slot] {
                    if self.count_reads {
                        self.remote_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return self.mirror_vals[slot];
                }
            }
            // Requested keys without a mirror proxy (trans-vertex
            // requests): sorted spill, binary search.
            if let Some(v) = self.cache_lookup(key) {
                if self.count_reads {
                    self.remote_reads.fetch_add(1, Ordering::Relaxed);
                }
                return v;
            }
        } else {
            if let Some(v) = self.cache_lookup(key) {
                if self.count_reads {
                    self.remote_reads.fetch_add(1, Ordering::Relaxed);
                }
                return v;
            }
            if self.key_own.owner(key) == self.host {
                if self.count_reads {
                    self.master_reads.fetch_add(1, Ordering::Relaxed);
                }
                return self.canonical_get(key);
            }
        }
        self.read_miss(key)
    }

    #[inline]
    fn read_local(&self, dg: &DistGraph, lid: LocalId) -> T {
        debug_assert!(std::ptr::eq(dg, self.dg), "a map reads the partition it was built over");
        Npm::read_local(self, lid)
    }

    fn set(&mut self, key: NodeId, value: T) {
        if self.key_own.owner(key) != self.host {
            // Only possible without GAR (key owners ignore the graph
            // partition): ship the assignment to the owner at the next
            // collective.
            self.pending_sets.get_mut().push((key, value));
            return;
        }
        let changed = self.canonical_get(key) != value;
        self.canonical_set(key, value);
        if changed {
            self.updated.store(true, Ordering::Relaxed);
            if let Canonical::Dense { updated, .. } = &self.canonical {
                updated.set(self.key_own.master_offset(key));
            }
        }
    }

    #[inline]
    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        debug_assert!((key as usize) < self.key_own.num_nodes());
        if self.count_reads {
            self.reduce_calls.fetch_add(1, Ordering::Relaxed);
        }
        if self.variant.conflict_free() {
            let op = self.op;
            // SAFETY: `tid` is the caller's pool thread id; WorkerPool
            // hands each worker a distinct dense id, so no two concurrent
            // callers share a slot.
            let buf = unsafe { self.tls.slot(tid) };
            match self.fast_own.local_offset(key) {
                Some(off) => buf.reduce_local(off, value, |a, b| op.combine(a, b)),
                None => buf.reduce_remote(key, value, |a, b| op.combine(a, b)),
            }
        } else {
            self.reduce_shared(key, value);
        }
    }

    fn request(&self, key: NodeId) {
        if self.variant.partition_aware() && self.key_own.owner(key) == self.host {
            return; // masters are always materialized under GAR
        }
        self.requests.set(key as usize);
    }

    fn request_sync(&mut self, ctx: &HostCtx) {
        // Without GAR, Set() calls targeting hashed-remote keys are still
        // buffered; land them before any owner serves reads.
        self.flush_pending_sets(ctx);
        // Bucket requested keys per owner host, in parallel over word
        // chunks of the request bitset. Chunks are ascending in key space,
        // and both ownership kinds are monotone within a chunk, so
        // chunk-order concatenation keeps every per-host list sorted.
        let keys_by_owner: Vec<Vec<NodeId>> = {
            let requests = &self.requests;
            let key_own = self.key_own.clone();
            let num_hosts = self.num_hosts;
            let num_words = requests.num_words();
            let chunk = num_words.div_ceil(self.threads).max(1);
            let parts = ctx.pool().run_map(|tid| {
                let lo = (tid * chunk).min(num_words);
                let hi = ((tid + 1) * chunk).min(num_words);
                let mut per: Vec<Vec<NodeId>> = vec![Vec::new(); num_hosts];
                for k in requests.iter_set_words(lo..hi) {
                    let k = k as NodeId;
                    per[key_own.owner(k)].push(k);
                }
                per
            });
            let mut merged: Vec<Vec<NodeId>> = vec![Vec::new(); num_hosts];
            for per in parts {
                for (h, mut keys) in per.into_iter().enumerate() {
                    merged[h].append(&mut keys);
                }
            }
            merged
        };
        self.requested_keys.fetch_add(
            keys_by_owner.iter().map(|v| v.len() as u64).sum(),
            Ordering::Relaxed,
        );
        self.requests.clear();
        let pairs = self.fetch_keys(ctx, keys_by_owner);
        if self.variant.partition_aware() {
            // Request materialization changes readable values outside the
            // per-key delta bookkeeping: the current window can no longer
            // vouch for completeness.
            if !pairs.is_empty() {
                self.delta_tracked = false;
            }
            // Mirror-proxied keys materialize straight into the dense
            // mirror table; only trans-vertex requests (no proxy) go to
            // the sorted spill.
            let mut spill: Vec<(NodeId, T)> = Vec::new();
            for (k, v) in pairs {
                if let Some(slot) = self.dg.mirror_slot(k) {
                    self.mirror_vals[slot as usize] = v;
                    self.mirror_has[slot as usize] = true;
                } else {
                    spill.push((k, v));
                }
            }
            self.merge_cache(spill, true);
        } else {
            // Keep existing entries: a BSP round may chain several
            // request-compute/request-sync phases (e.g. `parent(parent(n))`),
            // and earlier phases' values stay valid until reduce-sync drops
            // them. Fresh responses win on overlap.
            self.merge_cache(pairs, true);
        }
    }

    fn reduce_sync(&mut self, ctx: &HostCtx) {
        self.flush_pending_sets(ctx);

        // Scatter: combine thread partials over disjoint key ranges and
        // serialize (key, value) pairs per owner host.
        let outgoing = if self.variant.conflict_free() {
            self.cf_combine_scatter(ctx)
        } else {
            self.shared_scatter(ctx)
        };

        let received = ctx.exchange(outgoing);
        self.gather_fold(ctx, &received);

        // Cached remote properties are now stale: drop them.
        if self.pinned && !self.variant.partition_aware() {
            // Non-partition-aware variants keep every local property
            // resident; without a broadcast path they must re-fetch it all
            // through request/response — the communication overhead the
            // GAR ablation measures.
            self.refresh_resident(ctx);
        } else if self.variant.partition_aware() {
            // GAR: ad-hoc requested (non-mirror) values always drop. The
            // mirror table stays resident while pinned — its (now stale)
            // values are refreshed by the following broadcast_sync — and
            // is invalidated wholesale through the presence bits
            // otherwise.
            self.cache_keys.clear();
            self.cache_vals.clear();
            if !self.pinned {
                self.mirror_has.fill(false);
            }
        } else {
            self.cache_keys.clear();
            self.cache_vals.clear();
        }
    }

    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        if !self.variant.partition_aware() {
            // Without GAR, key owners do not align with the graph
            // partition, so there is no one-way broadcast: flush pending
            // assignments and re-fetch every resident property through
            // request/response.
            self.flush_pending_sets(ctx);
            self.refresh_resident(ctx);
            self.broadcast_all = false;
            return;
        }
        if self.pinned {
            self.broadcast_pinned(ctx, None);
        }
    }

    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        self.pinned = true;
        if self.variant.partition_aware() {
            // Materialize the whole mirror table with identity
            // placeholders (ad-hoc spilled requests are superseded)…
            self.mirror_vals.fill(self.op.identity());
            self.mirror_has.fill(true);
            self.cache_keys.clear();
            self.cache_vals.clear();
        }
        // …then pull in the real values: a full broadcast under GAR, a
        // request-fetch otherwise.
        self.broadcast_all = true;
        self.broadcast_sync(ctx);
    }

    fn unpin_mirrors(&mut self) {
        if !self.variant.partition_aware() {
            return; // resident cache is permanent without GAR
        }
        self.pinned = false;
        self.mirror_has.fill(false);
        self.cache_keys.clear();
        self.cache_vals.clear();
    }

    fn reset_updated(&mut self) {
        self.updated.store(false, Ordering::Relaxed);
        if let Canonical::Dense { updated, .. } = &mut self.canonical {
            updated.clear();
        }
        self.changed_remote.clear();
        // A fresh window begins: the per-key delta is complete from here
        // until the next untracked mutation.
        self.delta_tracked = true;
    }

    fn reset_values(&mut self, _ctx: &HostCtx) {
        let id = self.op.identity();
        match &mut self.canonical {
            Canonical::Dense { vals, updated } => {
                vals.fill(id);
                updated.clear();
            }
            Canonical::Sharded { shards } => {
                for s in shards.iter_mut() {
                    s.get_mut().clear();
                }
            }
        }
        self.clear_partials();
        for m in self.shared.iter_mut() {
            m.get_mut().clear();
        }
        self.updated.store(false, Ordering::Relaxed);
        self.changed_remote.clear();
        // A wholesale reinitialization changes values without per-key
        // bookkeeping: invalidate the window.
        self.delta_tracked = false;
        if self.pinned {
            // Mirror values are now stale everywhere; the next broadcast
            // must resend everything.
            self.mirror_vals.fill(id);
            for v in self.cache_vals.iter_mut() {
                *v = id;
            }
            self.broadcast_all = true;
        }
    }

    fn changed_keys(&self) -> ChangedKeys<'_> {
        match &self.canonical {
            Canonical::Dense { updated, .. } if self.delta_tracked => ChangedKeys::Tracked {
                masters: updated,
                remote: &self.changed_remote,
            },
            _ => ChangedKeys::Untracked,
        }
    }

    fn is_updated(&self, ctx: &HostCtx) -> bool {
        ctx.all_reduce_or(self.updated.load(Ordering::Relaxed))
    }

    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        self.reduce_sync(ctx);
        if self.variant.partition_aware() && self.pinned {
            // The broadcast is one exchange among all hosts: let it carry
            // the quiescence bits too.
            self.broadcast_pinned(ctx, Some(self.updated.load(Ordering::Relaxed)))
        } else {
            self.broadcast_sync(ctx);
            self.is_updated(ctx)
        }
    }
}

impl<T: PropValue, Op: ReduceOp<T>> std::fmt::Debug for Npm<'_, T, Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Npm")
            .field("host", &self.host)
            .field("variant", &self.variant)
            .field("cached", &self.cache_keys.len())
            .field("pinned", &self.pinned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Min, Sum};
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    fn with_cluster<R: Send>(
        hosts: usize,
        threads: usize,
        policy: Policy,
        f: impl Fn(&HostCtx, &DistGraph) -> R + Sync,
    ) -> Vec<R> {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, policy, hosts);
        Cluster::with_threads(hosts, threads).run(|ctx| f(ctx, &parts[ctx.host()]))
    }

    #[test]
    fn gather_shards_tile_each_hosts_block() {
        // 2 hosts x 4 threads, with blocks of very different widths (one
        // hub-heavy node range, one long tail): every thread must get a
        // non-empty contiguous slice of its host's masters. Splitting over
        // the global id space instead left threads 2-3 of host 0 and
        // threads 0-1 of host 1 without gather work.
        let weights: Vec<u64> = (0..100).map(|g| if g < 10 { 90 } else { 10 }).collect();
        let own = Ownership::blocked_by_weight(&weights, 2);
        assert!(own.num_masters(0) < own.num_masters(1) / 4);
        let threads = 4;
        for h in 0..2 {
            let fast = FastOwn::new(&own, h);
            let shards: Vec<usize> = own
                .masters(h)
                .map(|g| fast.shard(g, threads, own.num_nodes()))
                .collect();
            assert!(shards.windows(2).all(|w| w[0] <= w[1]), "host {h}: not ranges");
            for t in 0..threads {
                assert!(shards.contains(&t), "host {h}: thread {t} has no masters");
            }
            // Keys of the other host still land on a valid thread.
            for g in own.masters(1 - h) {
                assert!(fast.shard(g, threads, own.num_nodes()) < threads);
            }
        }
    }

    #[test]
    fn set_and_read_masters() {
        let out = with_cluster(3, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 * 2);
            dg.master_nodes()
                .all(|m| npm.read(dg.local_to_global(m)) == dg.local_to_global(m) as u64 * 2)
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn reduce_sync_applies_min_across_hosts() {
        let out = with_cluster(4, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 100);
            // Every host reduces (host id) into node 5.
            npm.reduce(0, 5, ctx.host() as u64 + 10);
            npm.reduce_sync(ctx);
            npm.request(5);
            npm.request_sync(ctx);
            npm.read(5)
        });
        assert!(out.iter().all(|&v| v == 10));
    }

    #[test]
    fn reduce_keeps_smaller_canonical() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|_| 1); // canonical smaller than any reduce
            npm.reduce(0, 3, 50);
            npm.reduce_sync(ctx);
            npm.request(3);
            npm.request_sync(ctx);
            npm.read(3)
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn is_updated_tracks_changes() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|_| 100);
            npm.reset_updated();
            npm.reduce(0, 0, 5);
            npm.reduce_sync(ctx);
            let first = npm.is_updated(ctx);
            npm.reset_updated();
            // Reducing a larger value changes nothing.
            npm.reduce(0, 0, 7);
            npm.reduce_sync(ctx);
            let second = npm.is_updated(ctx);
            (first, second)
        });
        assert!(out.iter().all(|&(a, b)| a && !b));
    }

    #[test]
    #[should_panic(expected = "host thread panicked")]
    fn unrequested_remote_read_panics() {
        // Node 0 is owned by host 0; host 1 reads it without requesting.
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let got: Vec<u64> = Cluster::new(2).run(|ctx| {
            let npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            if ctx.host() == 1 {
                npm.read(0)
            } else {
                0
            }
        });
        drop(got);
    }

    #[test]
    fn pinned_mirrors_follow_broadcast() {
        for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
            let out = with_cluster(3, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
                let mut npm: Npm<u64, Min> =
                    Npm::with_variant(dg, ctx, Min, variant);
                npm.init_masters(&|g| g as u64 + 1000);
                npm.pin_mirrors(ctx);
                // All mirror reads now resolve to the owner's canonical.
                let ok_initial = dg
                    .mirror_globals()
                    .iter()
                    .all(|&m| npm.read(m) == m as u64 + 1000);
                // Owners update node values; broadcast refreshes mirrors.
                npm.reset_updated();
                npm.reduce(0, 7, 3); // min: 3 < 1007
                npm.reduce_sync(ctx);
                npm.broadcast_sync(ctx);
                let ok_after = dg
                    .mirror_globals()
                    .iter()
                    .all(|&m| npm.read(m) == if m == 7 { 3 } else { m as u64 + 1000 });
                npm.unpin_mirrors();
                ok_initial && ok_after
            });
            assert!(out.iter().all(|&b| b), "variant {variant:?} failed");
        }
    }

    /// A few label-propagation-like rounds over pinned mirrors, with the
    /// round tail fused or spelled out; returns the per-round agreed flags,
    /// every readable value at the end, and the chunk frames sent per round.
    fn lp_rounds(
        variant: Variant,
        mirror_sync: MirrorSync,
        fused: bool,
    ) -> Vec<(Vec<bool>, Vec<u64>, Vec<u64>)> {
        with_cluster(2, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
            npm.set_mirror_sync(mirror_sync);
            npm.init_masters(&|g| g as u64 + 100);
            npm.pin_mirrors(ctx);
            let (mut flags, mut chunks) = (Vec::new(), Vec::new());
            // Rounds 0-2 lower some labels (round 1 only on host 0's side),
            // round 3 changes nothing: the flag must turn false everywhere.
            for round in 0..4u64 {
                npm.reset_updated();
                if round < 3 && (round != 1 || ctx.host() == 0) {
                    for key in [3u32, 20, 33] {
                        npm.reduce(0, key, 50 - 2 * round - ctx.host() as u64);
                    }
                }
                let before = ctx.stats().chunks_sent;
                flags.push(if fused {
                    npm.sync_round(ctx)
                } else {
                    npm.reduce_sync(ctx);
                    npm.broadcast_sync(ctx);
                    npm.is_updated(ctx)
                });
                chunks.push(ctx.stats().chunks_sent - before);
            }
            let readable = (0..dg.num_local_nodes() as u32)
                .map(|l| npm.read(dg.local_to_global(l)))
                .collect();
            (flags, readable, chunks)
        })
    }

    #[test]
    fn sync_round_equals_the_three_call_tail() {
        for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
            for mirror_sync in [MirrorSync::Broadcast, MirrorSync::ResetToIdentity] {
                let fused = lp_rounds(variant, mirror_sync, true);
                let split = lp_rounds(variant, mirror_sync, false);
                for (f, s) in fused.iter().zip(&split) {
                    assert_eq!(f.0, s.0, "{variant} {mirror_sync:?}: agreed flags differ");
                    assert_eq!(f.1, s.1, "{variant} {mirror_sync:?}: readable values differ");
                    assert_eq!(f.0, vec![true, true, true, false]);
                }
                assert_eq!(fused[0].0, fused[1].0, "hosts disagree on the flag");
            }
        }
    }

    #[test]
    fn fused_round_on_pinned_gar_hosts_is_two_exchanges() {
        // On two hosts every exchange is one chunk frame per host (payloads
        // here are far below a chunk), so frames sent count exchanges.
        for (fused, per_round) in [(true, 2), (false, 3)] {
            for host in lp_rounds(Variant::SgrCfGar, MirrorSync::Broadcast, fused) {
                assert_eq!(host.2, vec![per_round; 4], "fused={fused}");
            }
        }
    }

    #[test]
    fn misaligned_broadcast_buffer_is_a_protocol_violation() {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let res = Cluster::new(2).try_run(|ctx| {
            let mut npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            npm.init_masters(&|g| g as u64);
            npm.pin_mirrors(ctx);
            if ctx.host() == 0 {
                npm.broadcast_sync(ctx);
            } else {
                // A peer that sends 5 bytes where (u32, u64) pairs belong
                // (and may then see host 0 fail, or not: it is not judged).
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            }
        });
        let err = res[0].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation") && err.message.contains("5 bytes"),
            "host 0 reported: {}",
            err.message
        );
    }

    /// Runs `victim` on host 0 of a 2-host grid cluster while host 1 plays
    /// `peer` against the raw exchanges; returns host 0's error message.
    fn host0_error(
        victim: impl Fn(&mut Npm<u64, Min>, &HostCtx) + Sync,
        peer: impl Fn(&HostCtx) + Sync,
    ) -> String {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let res = Cluster::new(2).try_run(|ctx| {
            let mut npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            npm.init_masters(&|g| g as u64);
            if ctx.host() == 0 {
                victim(&mut npm, ctx);
            } else {
                // The peer may then see host 0 fail, or not: not judged.
                peer(ctx);
            }
        });
        res[0].as_ref().unwrap_err().message.clone()
    }

    #[test]
    fn misaligned_request_list_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| npm.request_sync(ctx),
            // 5 bytes where u32 keys belong.
            |ctx| {
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("request list from host 1: 5 bytes"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn short_response_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| {
                npm.request(35); // the grid's last node: a host-1 master
                npm.request_sync(ctx);
            },
            // Take the request, then answer with 3 bytes for one u64.
            |ctx| {
                if ctx.try_exchange(vec![Vec::new(); 2]).is_ok() {
                    let _ = ctx.try_exchange(vec![vec![0xAB; 3]; 2]);
                }
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("3 bytes for 1 keys"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn misaligned_reduce_sync_buffer_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| npm.reduce_sync(ctx),
            // 5 bytes where (u32, u64) pairs belong.
            |ctx| {
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("reduce-sync from host 1: 5 bytes"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn variants_agree_on_results() {
        // The same reduction workload must produce identical values on all
        // three backends.
        let reference = run_workload(Variant::SgrCfGar);
        assert_eq!(run_workload(Variant::SgrOnly), reference);
        assert_eq!(run_workload(Variant::SgrCf), reference);
    }

    fn run_workload(variant: Variant) -> Vec<u64> {
        let g = gen::rmat(6, 4, 9);
        let n = g.num_nodes();
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let mut out = vec![0u64; n];
        let per_host = Cluster::with_threads(3, 2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
            npm.init_masters(&|g| g as u64 + 500);
            // Deterministic scatter of reduces from every host.
            ctx.par_for(0..n, |tid, range| {
                for i in range {
                    npm.reduce(tid, i as NodeId, ((i * 7 + ctx.host() * 13) % 600) as u64);
                }
            });
            npm.reduce_sync(ctx);
            // Collect this host's canonical values.
            (0..npm.key_own.num_masters(ctx.host()))
                .map(|i| {
                    let g = npm.key_own.master_at(ctx.host(), i);
                    (g, npm.canonical_get(g))
                })
                .collect::<Vec<_>>()
        });
        for host_vals in per_host {
            for (g, v) in host_vals {
                out[g as usize] = v;
            }
        }
        out
    }

    #[test]
    fn sum_map_accumulates() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Sum> = Npm::new(dg, ctx, Sum);
            // 4 threads-worth of adds onto key 2 from both hosts.
            ctx.par_for(0..100, |tid, range| {
                for _ in range {
                    npm.reduce(tid, 2, 1);
                }
            });
            npm.reduce_sync(ctx);
            npm.request(2);
            npm.request_sync(ctx);
            npm.read(2)
        });
        assert!(out.iter().all(|&v| v == 200));
    }

    #[test]
    fn read_stats_classify_reads() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.enable_read_stats();
            npm.init_masters(&|g| g as u64);
            let my_master = dg.local_to_global(0);
            npm.read(my_master);
            npm.read(my_master);
            // One remote read.
            let remote = if ctx.host() == 0 { 20 } else { 0 };
            npm.request(remote);
            npm.request_sync(ctx);
            npm.read(remote);
            npm.read_stats()
        });
        for s in out {
            assert_eq!(s.master_reads, 2);
            assert_eq!(s.remote_reads, 1);
            assert_eq!(s.requested_keys, 1);
        }
    }

    #[test]
    fn request_dedup_counts_once() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let npm_cell = parking_lot::Mutex::new(Npm::<u64, Min>::new(dg, ctx, Min));
            {
                let npm = npm_cell.lock();
                let remote = if ctx.host() == 0 { 30u32 } else { 0 };
                for _ in 0..1000 {
                    npm.request(remote);
                }
            }
            let mut npm = npm_cell.into_inner();
            npm.request_sync(ctx);
            npm.read_stats().requested_keys
        });
        assert!(out.iter().all(|&c| c == 1));
    }

    #[test]
    fn changed_keys_tracks_round_delta() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 100);
            npm.pin_mirrors(ctx);
            npm.reset_updated();
            // Quiet round: nothing changes anywhere.
            npm.reduce_sync(ctx);
            npm.broadcast_sync(ctx);
            let quiet = match npm.changed_keys() {
                ChangedKeys::Tracked { masters, remote } => {
                    masters.none_set() && remote.is_empty()
                }
                ChangedKeys::Untracked => false,
            };
            npm.reset_updated();
            // Node 3 (owned by host 0) improves under Min.
            npm.reduce(0, 3, 1);
            npm.reduce_sync(ctx);
            npm.broadcast_sync(ctx);
            let delta_ok = match npm.changed_keys() {
                ChangedKeys::Tracked { masters, remote } => {
                    if npm.key_own.owner(3) == ctx.host() {
                        masters.get(npm.key_own.master_offset(3))
                            && masters.count_set() == 1
                            && remote.is_empty()
                    } else {
                        // The non-owner sees the change exactly when node 3
                        // is mirrored here.
                        let expect: Vec<NodeId> =
                            if dg.mirror_slot(3).is_some() { vec![3] } else { vec![] };
                        masters.none_set() && remote == expect.as_slice()
                    }
                }
                ChangedKeys::Untracked => false,
            };
            quiet && delta_ok
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn changed_keys_invalidated_by_untracked_mutations() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64);
            npm.reset_updated();
            // Request materialization mutates readable values outside the
            // delta bookkeeping.
            let remote = if ctx.host() == 0 { 20u32 } else { 0 };
            npm.request(remote);
            npm.request_sync(ctx);
            let after_request = matches!(npm.changed_keys(), ChangedKeys::Untracked);
            npm.reset_updated();
            let after_reset = matches!(npm.changed_keys(), ChangedKeys::Tracked { .. });
            npm.reset_values(ctx);
            let after_reset_values = matches!(npm.changed_keys(), ChangedKeys::Untracked);
            after_request && after_reset && after_reset_values
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn non_gar_variants_report_untracked() {
        for variant in [Variant::SgrOnly, Variant::SgrCf] {
            let out = with_cluster(2, 1, Policy::EdgeCutBlocked, move |ctx, dg| {
                let mut npm: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
                npm.init_masters(&|g| g as u64);
                npm.reset_updated();
                matches!(npm.changed_keys(), ChangedKeys::Untracked)
            });
            assert!(out.iter().all(|&b| b), "variant {variant:?}");
        }
    }

    #[test]
    fn snapshot_restore_rewinds_canonical_state() {
        for variant in [Variant::SgrCfGar, Variant::SgrCf, Variant::SgrOnly] {
            let out = with_cluster(3, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
                let mut npm: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
                npm.init_masters(&|g| g as u64 + 50);
                let snap = npm.snapshot();
                // Diverge: reductions, requests, and a pin all mutate state.
                npm.reduce(0, 4, 1);
                npm.reduce_sync(ctx);
                npm.pin_mirrors(ctx);
                npm.restore(&snap);
                npm.pin_mirrors(ctx); // recovery path: re-materialize mirrors
                let ok_values = dg
                    .local_nodes()
                    .map(|l| dg.local_to_global(l))
                    .all(|g| npm.read(g) == g as u64 + 50);
                // The restored map must behave identically going forward.
                npm.reset_updated();
                npm.reduce(0, 4, 1);
                npm.reduce_sync(ctx);
                npm.request(4);
                npm.request_sync(ctx);
                ok_values && npm.read(4) == 1
            });
            assert!(out.iter().all(|&b| b), "variant {variant:?} failed");
        }
    }

    #[test]
    fn cache_dropped_after_reduce_sync() {
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let panicked = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64);
            let remote = if ctx.host() == 0 { 15u32 } else { 0 };
            npm.request(remote);
            npm.request_sync(ctx);
            let _ = npm.read(remote);
            npm.reduce_sync(ctx);
            // Cache must be gone now.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| npm.read(remote))).is_err()
        });
        // Node 15 is remote to host 0 and node 0 is remote to host 1, so
        // both post-sync reads must fail.
        assert!(panicked[0]);
        assert!(panicked[1]);
    }
}
