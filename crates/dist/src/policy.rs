//! Edge-assignment partitioning policies.

use crate::ownership::Ownership;
use kimbap_graph::NodeId;
use std::fmt;

/// How edges are assigned to hosts: the paper's two policies.
///
/// Node *ownership* (where the master proxy lives) is blocked under both;
/// they differ in where each directed edge `(u, v)` is stored:
///
/// * **Edge-cut (OEC)** — at `owner(u)`: every node's outgoing edges are on
///   one host, so mirrors have no outgoing edges (the structural invariant
///   Gluon's broadcast elision exploits). The paper's policy for Louvain
///   and Leiden, and the one `serve` partitions with.
/// * **Cartesian vertex-cut (CVC)** — hosts form a `pr x pc` grid; edge
///   `(u, v)` goes to the host at `(row(owner(u)), col(owner(v)))` (Boman
///   et al., the policy the paper uses for CC, MSF, and MIS).
///
/// # Example
///
/// ```
/// use kimbap_dist::{Ownership, Policy};
///
/// let p = Policy::CartesianVertexCut;
/// let own = Ownership::blocked(100, 4); // 2x2 host grid
/// assert_eq!(p.assign(&own, 0, 99), 1); // row(owner 0)=0, col(owner 99)=1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Outgoing edge-cut with blocked node ownership.
    #[default]
    EdgeCutBlocked,
    /// 2-D Cartesian vertex-cut with blocked node ownership.
    CartesianVertexCut,
}

impl Policy {
    /// Host grid `(rows, cols)` for the Cartesian vertex-cut: the most
    /// square factorization of `hosts` with `rows <= cols`.
    pub fn grid(hosts: usize) -> (usize, usize) {
        let mut r = (hosts as f64).sqrt() as usize;
        while r > 1 && !hosts.is_multiple_of(r) {
            r -= 1;
        }
        (r.max(1), hosts / r.max(1))
    }

    /// Host that stores directed edge `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is outside the ownership range.
    pub fn assign(&self, own: &Ownership, u: NodeId, v: NodeId) -> usize {
        let (_, cols) = Policy::grid(own.num_hosts());
        self.assign_owned(cols, own.owner(u), own.owner(v))
    }

    /// [`Policy::assign`] given the owners `ou` / `ov` of the edge's source
    /// and target, on a host grid `cols` wide (`Policy::grid(hosts).1`).
    pub(crate) fn assign_owned(&self, cols: usize, ou: usize, ov: usize) -> usize {
        match self {
            Policy::EdgeCutBlocked => ou,
            Policy::CartesianVertexCut => ou / cols * cols + ov % cols,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Policy::EdgeCutBlocked => "edge-cut (blocked)",
            Policy::CartesianVertexCut => "cartesian vertex-cut",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorizations() {
        assert_eq!(Policy::grid(1), (1, 1));
        assert_eq!(Policy::grid(4), (2, 2));
        assert_eq!(Policy::grid(8), (2, 4));
        assert_eq!(Policy::grid(16), (4, 4));
        assert_eq!(Policy::grid(7), (1, 7));
        assert_eq!(Policy::grid(12), (3, 4));
    }

    #[test]
    fn edge_cut_assigns_to_source_owner() {
        let p = Policy::EdgeCutBlocked;
        let own = Ownership::blocked(8, 2);
        assert_eq!(p.assign(&own, 1, 7), 0);
        assert_eq!(p.assign(&own, 7, 1), 1);
    }

    #[test]
    fn cvc_assigns_within_grid() {
        let p = Policy::CartesianVertexCut;
        let own = Ownership::blocked(16, 4); // grid 2x2; blocks of 4
        for u in 0..16u32 {
            for v in 0..16u32 {
                let h = p.assign(&own, u, v);
                assert!(h < 4);
                // Host row must match source owner's row.
                assert_eq!(h / 2, own.owner(u) / 2);
                // Host col must match dest owner's col.
                assert_eq!(h % 2, own.owner(v) % 2);
            }
        }
    }

    #[test]
    fn cvc_on_one_host_is_trivial() {
        let p = Policy::CartesianVertexCut;
        let own = Ownership::blocked(10, 1);
        assert_eq!(p.assign(&own, 3, 9), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Policy::EdgeCutBlocked.to_string(), "edge-cut (blocked)");
        assert_eq!(
            Policy::CartesianVertexCut.to_string(),
            "cartesian vertex-cut"
        );
    }
}
