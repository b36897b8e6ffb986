//! Kimbap: a node-property map system for distributed graph analytics.
//!
//! This is the umbrella crate of the reproduction workspace. It hosts the
//! [`engine`] that executes compiler-generated BSP plans, and re-exports
//! the member crates under one roof:
//!
//! * [`kimbap_graph`] — CSR graphs and synthetic generators;
//! * [`kimbap_comm`] — the simulated cluster (hosts, collectives, pools);
//! * [`kimbap_dist`] — partitioning policies and per-host `DistGraph`s;
//! * [`kimbap_npm`] — the distributed node-property map (GAR + CF + SGR);
//! * [`kimbap_compiler`] — the vertex-program compiler.
//!
//! The performance-grade algorithm implementations live in `kimbap-algos`
//! (not re-exported here to keep the dependency graph acyclic: its tests
//! cross-validate against this crate's engine).
//!
//! # Example: compile and run CC-SV end to end
//!
//! ```
//! use kimbap::engine::Engine;
//! use kimbap::prelude::*;
//! use kimbap_compiler::{compile, programs, OptLevel};
//!
//! let g = gen::grid_road(6, 6, 0);
//! let plan = compile(&programs::cc_sv(), OptLevel::Full);
//! let parts = partition(&g, Policy::EdgeCutBlocked, 2);
//! let outputs = Cluster::new(2).run(|ctx| {
//!     Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx)
//! });
//! // Map 0 is `parent`; a grid is connected, so every master label is 0.
//! assert!(outputs
//!     .iter()
//!     .flat_map(|o| o.map_values[0].iter())
//!     .all(|&(_, v)| v == 0));
//! ```

pub mod elastic;
pub mod engine;
pub mod serve;
pub mod simfuzz;

/// One-stop imports for applications built on Kimbap.
pub mod prelude {
    pub use kimbap_comm::{Cluster, CommError, FaultPlan, HostCtx, HostStats};
    pub use kimbap_dist::{assemble_dist_graph, partition, DistGraph, Policy};
    pub use kimbap_graph::{gen, Graph, GraphBuilder, GraphStats, NodeId, Weight};
    pub use kimbap_npm::{
        BoolReducer, Max, Min, NodePropMap, Npm, Or, ReduceOp, Sum, SumReducer,
    };
}
