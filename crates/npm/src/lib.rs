//! The distributed, concurrent node-property map — the paper's core
//! contribution (§3.1, §4).
//!
//! A node-property map ([`Npm`]) stores `(node id, property)` pairs across
//! the hosts of a cluster. Programmers see the shared-memory API of the
//! paper's Fig. 2 — [`NodePropMap::read`], [`NodePropMap::reduce`],
//! [`NodePropMap::set`] — while the compiler/runtime drive the low-level
//! API of Fig. 5 ([`NodePropMap::request`], [`NodePropMap::request_sync`],
//! [`NodePropMap::reduce_sync`], [`NodePropMap::broadcast_sync`],
//! [`NodePropMap::pin_mirrors`], …).
//!
//! The map, [`Npm`], applies all three of the paper's optimizations:
//!
//! * **GAR** (graph-partition-aware representation): each host owns the
//!   properties of its master nodes in a dense vector addressed by O(1)
//!   ownership arithmetic; remote properties live in a sorted key/value
//!   vector pair looked up by binary search, materialized at request-sync
//!   and dropped after reduce-sync (Fig. 6).
//! * **CF** (conflict-free reductions): during reduce-compute each pool
//!   thread reduces into its own thread-local map; during reduce-sync
//!   threads combine all thread-local maps over disjoint key ranges
//!   (Fig. 7), so no two threads ever write the same entry.
//! * **SGR** (scatter-gather-reduce): one message per host pair per round;
//!   partial values are reduced onto the owner's canonical values.
//!
//! The ablation rows of §6.4 are a separate type, [`ShardedMap`]: modulo-hashed key distribution, every
//! proxy resident in a sorted cache, and either one shared sharded-lock
//! map (SGR-only) or the same thread-local partials (SGR+CF) for
//! reductions. The memcached-like `MC` row lives in `kimbap-baselines`.
//!
//! # Example
//!
//! ```
//! use kimbap_comm::Cluster;
//! use kimbap_dist::{partition, Policy};
//! use kimbap_graph::gen;
//! use kimbap_npm::{Min, NodePropMap, Npm};
//!
//! let g = gen::grid_road(4, 4, 0);
//! let parts = partition(&g, Policy::EdgeCutBlocked, 2);
//! let results = Cluster::new(2).run(|ctx| {
//!     let dg = &parts[ctx.host()];
//!     let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
//!     // Initialize: every node's property is its own id.
//!     for m in dg.master_nodes() {
//!         let gid = dg.local_to_global(m);
//!         npm.set(gid, gid as u64);
//!     }
//!     // Reduce node 0's property from every host, then sync.
//!     npm.reduce(0, 0, ctx.host() as u64);
//!     npm.reduce_sync(ctx);
//!     npm.request(0);
//!     npm.request_sync(ctx);
//!     npm.read(0)
//! });
//! assert!(results.iter().all(|&v| v == 0));
//! ```

pub mod bitset;
pub mod map;
pub mod ops;
mod partial;
pub mod reducer;
pub mod sharded;
pub mod value;

pub use bitset::ConcurrentBitset;
pub use map::{ChangedKeys, MapSnapshot, NodePropMap, Npm};
pub use ops::{DynReduceOp, Max, Min, Or, ReduceOp, Sum};
pub use reducer::{BoolReducer, MinReducer, SumReducer};
pub use sharded::ShardedMap;
pub use value::PropValue;
