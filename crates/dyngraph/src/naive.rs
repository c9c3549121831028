//! `NaiveGraph` (§V.C): every DTDG snapshot is fully materialised — forward
//! CSR, reverse CSR, edge labels and degree arrays — ahead of training and
//! kept resident for the whole run.
//! Snapshot access is array indexing, so per-epoch time is the best of the
//! STGraph variants, but memory scales with `T × (2 copies + labels)`,
//! which is the overhead Figure 8 shows.

use crate::source::{DtdgGraph, DtdgSource};
use std::time::Duration;
use stgraph_graph::base::Snapshot;
use stgraph_telemetry::{span_timed, TimeAccumulator};

/// A DTDG stored as one pre-processed [`Snapshot`] per timestamp.
pub struct NaiveGraph {
    num_nodes: usize,
    snapshots: Vec<Snapshot>,
    update_time: TimeAccumulator,
}

impl NaiveGraph {
    /// Pre-processes every snapshot of the source (the expensive, memory-
    /// hungry step the paper attributes to this variant).
    pub fn new(source: &DtdgSource) -> NaiveGraph {
        let snapshots = source
            .snapshots
            .iter()
            .map(|edges| Snapshot::from_edges(source.num_nodes, edges))
            .collect();
        NaiveGraph {
            num_nodes: source.num_nodes,
            snapshots,
            update_time: TimeAccumulator::new(),
        }
    }

    /// Direct snapshot access (tests).
    pub fn snapshot(&self, t: usize) -> &Snapshot {
        &self.snapshots[t]
    }
}

impl DtdgGraph for NaiveGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_timestamps(&self) -> usize {
        self.snapshots.len()
    }

    fn get_graph(&mut self, t: usize) -> Snapshot {
        let _sp = span_timed("snapshot.forward", &self.update_time);
        self.snapshots[t].clone()
    }

    fn get_backward_graph(&mut self, t: usize) -> Snapshot {
        let _sp = span_timed("snapshot.backward", &self.update_time);
        self.snapshots[t].clone()
    }

    fn take_update_time(&mut self) -> Duration {
        self.update_time.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph_graph::base::STGraphBase;

    fn source() -> DtdgSource {
        DtdgSource::from_snapshot_edges(
            4,
            vec![
                vec![(0, 1), (1, 2), (2, 3)],
                vec![(0, 1), (2, 3), (3, 0)],
                vec![(3, 0), (0, 2)],
            ],
        )
    }

    #[test]
    fn snapshots_match_source() {
        let mut g = NaiveGraph::new(&source());
        assert_eq!(g.num_timestamps(), 3);
        assert_eq!(g.num_nodes(), 4);
        for (t, edges) in source().snapshots.iter().enumerate() {
            let s = g.get_graph(t);
            let got: Vec<(u32, u32)> = s.csr.triples().iter().map(|&(a, b, _)| (a, b)).collect();
            assert_eq!(&got, edges, "timestamp {t}");
        }
    }

    #[test]
    fn forward_and_backward_return_same_structure() {
        let mut g = NaiveGraph::new(&source());
        let f = g.get_graph(1);
        let b = g.get_backward_graph(1);
        assert!(f.same_structure(&b));
        assert_eq!(f.num_edges(), 3);
    }

    #[test]
    fn random_access_any_order() {
        // Naive storage allows arbitrary access order (no LIFO requirement).
        let mut g = NaiveGraph::new(&source());
        let s2 = g.get_graph(2);
        let s0 = g.get_graph(0);
        assert_eq!(s2.num_edges(), 2);
        assert_eq!(s0.num_edges(), 3);
    }

    #[test]
    fn update_time_is_negligible_and_drains() {
        let mut g = NaiveGraph::new(&source());
        let _ = g.get_graph(0);
        let t1 = g.take_update_time();
        assert_eq!(g.take_update_time(), Duration::ZERO);
        assert!(t1 < Duration::from_millis(50));
    }
}
