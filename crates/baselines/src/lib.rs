//! Comparison systems from the paper's evaluation (§6).
//!
//! * [`mckv`] — a memcached-like distributed in-memory key-value store
//!   (string keys, versioned compare-and-swap, per-operation requests) and
//!   [`mckv::McBuilder`], which lets the unchanged Kimbap algorithms run on
//!   it — the *MC* bars of Fig. 11.
//! * [`vite`] — Vite-style hand-optimized distributed Louvain: SGR
//!   batching, but a single-threaded inspection phase building a shared
//!   map that all threads then update with contended atomic reductions
//!   (§6.2, §6.4). Its move decisions sum neighbour weights in a
//!   [`neighbor_weights::NeighborWeights`].
//! * [`gluon`] — a Gluon-style adjacent-vertex framework: dense
//!   master+mirror property arrays updated with atomics during compute,
//!   reduce/broadcast synchronization of changed values only (§2.2), and
//!   its CC-LP used in Figs. 9c/10c.
//! * [`galois`] — Galois-style shared-memory (single-host) algorithms
//!   using asynchronous atomic updates, the Table 3 comparison.

pub mod galois;
pub mod gluon;
pub mod mckv;
pub mod neighbor_weights;
pub mod vite;
