//! The paper's seven graph algorithms (§6.1), written against the
//! node-property map API exactly as the Kimbap compiler would emit them
//! (compare [`cc::cc_sv`] with the paper's Fig. 8). The crate ships these
//! seven and nothing else: each is one row of the launchers' algorithm
//! table (`kimbap::serve::TABLE`), which every launcher runs.
//!
//! Four graph problems are covered:
//!
//! | Problem | Algorithms | Operator types |
//! |---|---|---|
//! | Community detection | [`fn@louvain`] (LV), [`fn@leiden`] (LD) | adjacent + trans-vertex |
//! | Connected components | [`cc::cc_lp`], [`cc::cc_sclp`], [`cc::cc_sv`] | LP adjacent; SCLP both; SV trans |
//! | Minimum spanning forest | [`fn@msf`] (Boruvka) | trans-vertex |
//! | Maximal independent set | [`fn@mis`] (priority-based) | adjacent |
//!
//! Every algorithm is generic over a [`MapBuilder`], so the same source
//! runs on the SGR+CF+GAR node-property map, on the §6.4 ablation rows
//! ([`ShardedBuilder`]), and on the memcached-like baseline from
//! `kimbap-baselines`.
//!
//! [`refcheck`] holds single-threaded reference implementations (union-find
//! connectivity, Kruskal forests, MIS validity, modularity) used by tests
//! and benches to validate every distributed result.
//!
//! # Example: connected components in a few lines
//!
//! ```
//! use kimbap_algos::{cc, merge_master_values, NpmBuilder};
//! use kimbap_comm::Cluster;
//! use kimbap_dist::{partition, Policy};
//! use kimbap_graph::gen;
//!
//! let g = gen::grid_road(8, 8, 1);
//! let parts = partition(&g, Policy::CartesianVertexCut, 2);
//! let per_host = Cluster::new(2).run(|ctx| {
//!     cc::cc_sv(&parts[ctx.host()], ctx, &NpmBuilder)
//! });
//! let labels = merge_master_values(g.num_nodes(), per_host);
//! // A grid is connected: every node ends up labeled 0.
//! assert!(labels.iter().all(|&l| l == 0));
//! ```

pub mod accum;
pub mod builder;
pub mod cc;
#[cfg(test)]
mod kernel_diff;
pub mod leiden;
pub mod louvain;
pub mod mis;
pub mod msf;
pub mod refcheck;

pub use builder::{MapBuilder, NpmBuilder, ShardedBuilder};
pub use leiden::leiden;
pub use louvain::{compose_labels, louvain, try_compose_labels, CommunityResult, LouvainConfig};
pub use mis::mis;
pub use msf::msf;

use kimbap_graph::NodeId;

/// [`try_merge_master_values`], panicking on what it rejects.
pub fn merge_master_values<T: Copy + Default>(n: usize, per_host: Vec<Vec<(NodeId, T)>>) -> Vec<T> {
    try_merge_master_values(n, per_host).unwrap_or_else(|e| panic!("{e}"))
}

/// Merges per-host `(global id, value)` master lists into one dense global
/// vector. A node `>= n`, or one reported by zero or two hosts, is an
/// `Err`: master ownership must be a partition.
pub fn try_merge_master_values<T: Copy + Default>(
    n: usize,
    per_host: Vec<Vec<(NodeId, T)>>,
) -> Result<Vec<T>, String> {
    let mut out = vec![T::default(); n];
    let mut seen = vec![false; n];
    for (g, v) in per_host.into_iter().flatten() {
        match seen.get_mut(g as usize) {
            None => return Err(format!("node {g} out of range for {n} nodes")),
            Some(true) => return Err(format!("node {g} reported by two hosts")),
            Some(s) => *s = true,
        }
        out[g as usize] = v;
    }
    match seen.iter().position(|&s| !s) {
        Some(g) => Err(format!("node {g} reported by no host")),
        None => Ok(out),
    }
}
