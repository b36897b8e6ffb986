//! Graph partitioning and per-host distributed graphs.
//!
//! To run a vertex program on a cluster, the input graph's *edges* are
//! partitioned among hosts and *proxy nodes* are created for edge
//! endpoints. For every node, exactly one proxy — on the host that owns the
//! node — is the **master**, holding the canonical property value; proxies
//! on other hosts are **mirrors** (§2.2 of the paper).
//!
//! This crate provides:
//!
//! * [`Ownership`] — the node → owning-host map: contiguous blocks behind a
//!   `hosts + 1` boundary table (partitions), or a modulus (the hashed
//!   keys of `kimbap_npm::ShardedMap`, Fig. 11's SGR rows). A global node
//!   id resolves to its owner and to its dense *master offset* on that
//!   owner without any per-node table, which is what makes the
//!   node-property map's graph-partition-aware representation (GAR)
//!   cheap. [`ownership_for`] picks a graph's block boundaries so that
//!   hosts carry equal work (edges plus a per-node term), not equal node
//!   counts.
//! * [`Policy`] — the paper's two edge-assignment policies: outgoing
//!   edge-cut (Louvain, Leiden) and the 2-D Cartesian vertex-cut (CC,
//!   MSF, MIS).
//! * [`DistGraph`] — one host's partition: a local CSR whose local ids put
//!   all masters first (ordered by global id) followed by mirrors, plus the
//!   mirror lists each host needs to broadcast master values.
//!
//! A host builds its own part with [`partition_host`], without any other
//! host's and without communication; [`partition`] builds every host's
//! part, for callers that hold them all in one process.
//!
//! # Example
//!
//! ```
//! use kimbap_dist::{partition, Policy};
//! use kimbap_graph::gen;
//!
//! let g = gen::grid_road(8, 8, 0);
//! let parts = partition(&g, Policy::EdgeCutBlocked, 4);
//! assert_eq!(parts.len(), 4);
//! // Every directed edge lives on exactly one host.
//! let total: usize = parts.iter().map(|p| p.num_local_edges()).sum();
//! assert_eq!(total, g.num_edges());
//! ```

pub mod dist_graph;
pub mod ownership;
pub mod policy;

pub use dist_graph::{
    assemble_dist_graph, ownership_for, partition, partition_cfg, partition_host, DistGraph,
    LocalId, PartitionCfg,
};
pub use ownership::Ownership;
pub use policy::Policy;
