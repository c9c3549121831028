//! The `STGraphBase` graph abstraction (Figure 4) and its static subclass.
//!
//! The abstraction unifies how the framework sees static-temporal graphs and
//! DTDG snapshots. Per §V.B it must provide: forward and backward CSRs,
//! shared edge labels, and graph properties (node/edge counts, in/out
//! degrees). The paper's degree-sorted vertex order is not part of it:
//! kernels walk rows in natural order. Dynamic implementations
//! (`NaiveGraph`, `GPMAGraph`) live in `stgraph-dyngraph` and hand out
//! [`Snapshot`]s through the same interface.

use crate::csr::{reverse_csr, Csr};
use std::sync::Arc;

/// A fully-materialised view of one graph timestamp, ready for the kernels.
///
/// `csr` is the out-neighbour CSR consumed by the *backward* pass;
/// `reverse_csr` is the in-neighbour CSR consumed by the *forward* pass.
/// Both carry the same edge labels. Equality is bitwise over every array.
#[derive(Clone, PartialEq)]
pub struct Snapshot {
    /// Out-neighbour CSR (backward pass).
    pub csr: Arc<Csr>,
    /// In-neighbour CSR (forward pass).
    pub reverse_csr: Arc<Csr>,
    /// In-degree per vertex.
    pub in_degrees: Arc<Vec<u32>>,
    /// Out-degree per vertex.
    pub out_degrees: Arc<Vec<u32>>,
}

impl Snapshot {
    /// Builds a snapshot from an out-neighbour CSR, deriving the reverse CSR
    /// with the parallel Algorithm-3 kernel.
    pub fn from_csr(csr: Csr) -> Snapshot {
        let n = csr.num_nodes();
        let mut in_deg = vec![0u32; n];
        for i in 0..n {
            for (d, _) in csr.iter_row(i) {
                in_deg[d as usize] += 1;
            }
        }
        let rev = {
            let _sp = stgraph_telemetry::span_cat("snapshot.reverse_csr", "snapshot");
            reverse_csr(&csr, &in_deg)
        };
        let out_deg = csr.degrees();
        Snapshot {
            csr: Arc::new(csr),
            reverse_csr: Arc::new(rev),
            in_degrees: Arc::new(in_deg),
            out_degrees: Arc::new(out_deg),
        }
    }

    /// Builds a snapshot from a COO edge list with canonical edge labels.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Snapshot {
        Snapshot::from_csr(Csr::from_edges(num_nodes, edges))
    }

    /// Structural equality (same labelled edges per row, order-insensitive).
    pub fn same_structure(&self, other: &Snapshot) -> bool {
        crate::csr::same_rows(&self.csr, &other.csr)
            && crate::csr::same_rows(&self.reverse_csr, &other.reverse_csr)
    }
}

/// The `STGraphBase` abstraction: every graph the framework processes —
/// static or one DTDG timestamp — exposes this interface.
pub trait STGraphBase {
    /// Number of vertices.
    fn num_nodes(&self) -> usize;
    /// Number of edges.
    fn num_edges(&self) -> usize;
    /// Out-neighbour CSR (backward pass).
    fn csr(&self) -> &Csr;
    /// In-neighbour CSR (forward pass); shares edge labels with [`Self::csr`].
    fn reverse_csr(&self) -> &Csr;
    /// In-degree per vertex.
    fn in_degrees(&self) -> &[u32];
    /// Out-degree per vertex.
    fn out_degrees(&self) -> &[u32];
}

impl STGraphBase for Snapshot {
    fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    fn csr(&self) -> &Csr {
        &self.csr
    }

    fn reverse_csr(&self) -> &Csr {
        &self.reverse_csr
    }

    fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
}

/// A static graph (fixed structure; features may still vary over time —
/// the "static-temporal" case of Definition II.1). Pre-processing happens
/// once, ahead of training, exactly as Seastar does for static graphs.
pub struct StaticGraph {
    snapshot: Snapshot,
    /// Original COO edge list (kept for loaders/baselines).
    pub edges: Vec<(u32, u32)>,
}

impl StaticGraph {
    /// Builds and pre-processes a static graph from a COO edge list.
    pub fn new(num_nodes: usize, edges: Vec<(u32, u32)>) -> StaticGraph {
        let snapshot = Snapshot::from_edges(num_nodes, &edges);
        StaticGraph { snapshot, edges }
    }

    /// The single pre-processed snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Edge density m / n².
    pub fn density(&self) -> f64 {
        let n = self.num_nodes() as f64;
        self.num_edges() as f64 / (n * n)
    }
}

impl STGraphBase for StaticGraph {
    fn num_nodes(&self) -> usize {
        self.snapshot.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.snapshot.num_edges()
    }

    fn csr(&self) -> &Csr {
        self.snapshot.csr()
    }

    fn reverse_csr(&self) -> &Csr {
        self.snapshot.reverse_csr()
    }

    fn in_degrees(&self) -> &[u32] {
        self.snapshot.in_degrees()
    }

    fn out_degrees(&self) -> &[u32] {
        self.snapshot.out_degrees()
    }
}

/// GCN symmetric normalisation with self-loops: `1 / sqrt(1 + in_degree)`.
/// Matches PyG's `GCNConv(add_self_loops=True)` on directed graphs.
pub fn gcn_norm(in_degrees: &[u32]) -> Vec<f32> {
    in_degrees
        .iter()
        .map(|&d| 1.0 / ((1.0 + d as f32).sqrt()))
        .collect()
}

/// Oracle helper: dense adjacency from a snapshot (tests only; O(n²)).
pub fn dense_adjacency(s: &Snapshot) -> Vec<Vec<f32>> {
    let n = s.num_nodes();
    let mut a = vec![vec![0.0f32; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        for (d, _) in s.csr.iter_row(i) {
            row[d as usize] += 1.0;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Snapshot {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn snapshot_degrees() {
        let s = diamond();
        assert_eq!(s.out_degrees.as_slice(), &[2, 1, 1, 0]);
        assert_eq!(s.in_degrees.as_slice(), &[0, 1, 1, 2]);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_edges(), 4);
    }

    #[test]
    fn forward_and_backward_share_edge_labels() {
        let s = diamond();
        let fwd: std::collections::HashMap<u32, (u32, u32)> = s
            .csr
            .triples()
            .into_iter()
            .map(|(a, b, e)| (e, (a, b)))
            .collect();
        for (dst, src, e) in s.reverse_csr.triples() {
            assert_eq!(fwd[&e], (src, dst));
        }
    }

    #[test]
    fn static_graph_density() {
        let g = StaticGraph::new(4, vec![(0, 1), (1, 2)]);
        assert!((g.density() - 2.0 / 16.0).abs() < 1e-12);
        assert_eq!(g.snapshot().num_edges(), 2);
    }

    #[test]
    fn gcn_norm_formula() {
        let norms = gcn_norm(&[0, 3, 8]);
        assert!((norms[0] - 1.0).abs() < 1e-6);
        assert!((norms[1] - 0.5).abs() < 1e-6);
        assert!((norms[2] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn same_structure_detects_difference() {
        let a = diamond();
        let b = Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 1)]);
        assert!(a.same_structure(&diamond()));
        assert!(!a.same_structure(&b));
    }

    #[test]
    fn dense_adjacency_matches_csr() {
        let s = diamond();
        let a = dense_adjacency(&s);
        assert_eq!(a[0][1], 1.0);
        assert_eq!(a[0][2], 1.0);
        assert_eq!(a[1][3], 1.0);
        assert_eq!(a[3][0], 0.0);
    }
}
