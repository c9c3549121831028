//! DTDG sources: snapshot sequences and the windowed snapshot builder the
//! paper's evaluation uses ("the first half of the dataset is the first
//! snapshot, then the window is moved so the percent change between
//! consecutive snapshots is always less than X%", §VII.B).

use std::collections::BTreeSet;
use std::time::Duration;
use stgraph_graph::base::Snapshot;

/// A discrete-time dynamic graph expressed as per-timestamp edge sets, the
/// common input to `NaiveGraph`, `GPMAGraph` and the PyG-T baseline.
///
/// ```
/// use stgraph_dyngraph::DtdgSource;
///
/// // A temporal edge stream, windowed at <10% churn per snapshot.
/// let stream: Vec<(u32, u32)> = (0..200).map(|i| (i % 10, (i / 3) % 10)).collect();
/// let src = DtdgSource::from_temporal_edges(10, &stream, 10.0);
/// assert!(src.num_timestamps() > 1);
/// // diffs()[t] turns snapshot t into snapshot t+1.
/// assert_eq!(src.diffs().len(), src.num_timestamps() - 1);
/// ```
#[derive(Clone)]
pub struct DtdgSource {
    /// Number of vertices (fixed across timestamps).
    pub num_nodes: usize,
    /// Sorted, deduplicated edge set per timestamp.
    pub snapshots: Vec<Vec<(u32, u32)>>,
}

/// Edge changes turning snapshot `t-1` into snapshot `t`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Edges present at `t` but not `t-1`.
    pub additions: Vec<(u32, u32)>,
    /// Edges present at `t-1` but not `t`.
    pub deletions: Vec<(u32, u32)>,
}

impl UpdateBatch {
    /// Total number of changed edges.
    pub fn len(&self) -> usize {
        self.additions.len() + self.deletions.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DtdgSource {
    /// Builds a source directly from per-timestamp edge lists (deduplicated
    /// and sorted internally).
    pub fn from_snapshot_edges(num_nodes: usize, snaps: Vec<Vec<(u32, u32)>>) -> DtdgSource {
        let snapshots = snaps
            .into_iter()
            .map(|s| {
                let set: BTreeSet<(u32, u32)> = s.into_iter().collect();
                set.into_iter().collect()
            })
            .collect();
        DtdgSource {
            num_nodes,
            snapshots,
        }
    }

    /// The paper's preprocessing: slide a half-length window over a
    /// time-ordered temporal edge list so consecutive snapshots differ by
    /// roughly `pct_change` percent (each slide of `s` edges retires `s`
    /// old edges and admits `s` new ones against a window of `W`, i.e.
    /// ~`2s/W` change).
    pub fn from_temporal_edges(
        num_nodes: usize,
        edges: &[(u32, u32)],
        pct_change: f64,
    ) -> DtdgSource {
        assert!(pct_change > 0.0 && pct_change <= 100.0);
        let m = edges.len();
        let w = (m / 2).max(1);
        let slide = ((pct_change / 100.0) * w as f64 / 2.0).floor().max(1.0) as usize;
        let mut snaps = Vec::new();
        let mut start = 0usize;
        loop {
            let end = (start + w).min(m);
            snaps.push(edges[start..end].to_vec());
            if end == m {
                break;
            }
            start += slide;
        }
        DtdgSource::from_snapshot_edges(num_nodes, snaps)
    }

    /// Number of timestamps.
    pub fn num_timestamps(&self) -> usize {
        self.snapshots.len()
    }

    /// The update batches turning each snapshot into the next
    /// (`diffs()[t]` maps snapshot `t` to `t+1`).
    pub fn diffs(&self) -> Vec<UpdateBatch> {
        let mut out = Vec::with_capacity(self.snapshots.len().saturating_sub(1));
        for w in self.snapshots.windows(2) {
            let prev: BTreeSet<(u32, u32)> = w[0].iter().copied().collect();
            let next: BTreeSet<(u32, u32)> = w[1].iter().copied().collect();
            out.push(UpdateBatch {
                additions: next.difference(&prev).copied().collect(),
                deletions: prev.difference(&next).copied().collect(),
            });
        }
        out
    }

    /// The suffix of update batches starting at generation `from`
    /// (`diffs_from(g)[0]` maps snapshot `g` to `g+1`) — the stream an
    /// online trainer replays when resuming mid-stream without recomputing
    /// batches it has already consumed. `from` past the end yields an
    /// empty vector.
    pub fn diffs_from(&self, from: usize) -> Vec<UpdateBatch> {
        let mut diffs = self.diffs();
        if from >= diffs.len() {
            return Vec::new();
        }
        diffs.drain(..from);
        diffs
    }

    /// Average relative change `|Δ| / |snapshot|` between consecutive
    /// snapshots, as a percentage.
    pub fn mean_pct_change(&self) -> f64 {
        let diffs = self.diffs();
        if diffs.is_empty() {
            return 0.0;
        }
        let total: f64 = diffs
            .iter()
            .zip(&self.snapshots)
            .map(|(d, s)| d.len() as f64 / s.len().max(1) as f64)
            .sum();
        100.0 * total / diffs.len() as f64
    }
}

/// The DTDG interface consumed by the temporally-aware executor: snapshots
/// are produced *on demand* per timestamp, forward during forward
/// propagation and in strict LIFO order during backward propagation
/// (Algorithm 1 lines 9-12 and 19-22).
pub trait DtdgGraph {
    /// Number of vertices.
    fn num_nodes(&self) -> usize;
    /// Number of timestamps.
    fn num_timestamps(&self) -> usize;
    /// `Get-Graph(G, t)` — the snapshot for timestamp `t` during the
    /// forward pass (Algorithm 2).
    fn get_graph(&mut self, t: usize) -> Snapshot;
    /// `Get-Backward-Graph(G, t)` — the snapshot for timestamp `t` during
    /// the backward pass (reverse updates for GPMA).
    fn get_backward_graph(&mut self, t: usize) -> Snapshot;
    /// Cumulative time spent performing graph updates / snapshot
    /// construction since the last call (drained) — the "graph update time"
    /// series of Figure 9.
    ///
    /// The clock spans each *whole* [`DtdgGraph::get_graph`] /
    /// [`DtdgGraph::get_backward_graph`] call — cache restore, edge updates
    /// *and* the snapshot build — so it is their sum, not a third cost:
    /// adding it to timers around those two calls counts the store twice.
    fn take_update_time(&mut self) -> Duration;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_snapshot_edges_dedups_and_sorts() {
        let src =
            DtdgSource::from_snapshot_edges(4, vec![vec![(1, 2), (0, 1), (1, 2)], vec![(3, 0)]]);
        assert_eq!(src.snapshots[0], vec![(0, 1), (1, 2)]);
        assert_eq!(src.num_timestamps(), 2);
    }

    #[test]
    fn diffs_are_exact_set_differences() {
        let src = DtdgSource::from_snapshot_edges(
            4,
            vec![vec![(0, 1), (1, 2)], vec![(1, 2), (2, 3)], vec![(2, 3)]],
        );
        let d = src.diffs();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].additions, vec![(2, 3)]);
        assert_eq!(d[0].deletions, vec![(0, 1)]);
        assert_eq!(d[1].additions, vec![]);
        assert_eq!(d[1].deletions, vec![(1, 2)]);
    }

    #[test]
    fn diffs_from_is_the_resume_suffix() {
        let src = DtdgSource::from_snapshot_edges(
            4,
            vec![vec![(0, 1), (1, 2)], vec![(1, 2), (2, 3)], vec![(2, 3)]],
        );
        let d = src.diffs();
        assert_eq!(src.diffs_from(0), d);
        assert_eq!(src.diffs_from(1), d[1..].to_vec());
        assert!(src.diffs_from(2).is_empty());
        assert!(src.diffs_from(99).is_empty());
    }

    #[test]
    fn windowed_builder_first_snapshot_is_half() {
        let edges: Vec<(u32, u32)> = (0..100)
            .map(|i| (i as u32 % 10, (i as u32 * 7) % 10))
            .collect();
        let src = DtdgSource::from_temporal_edges(10, &edges, 10.0);
        // Window = 50 raw edges (snapshot is the dedup'd set of those).
        assert!(src.num_timestamps() > 2);
        let set: BTreeSet<(u32, u32)> = edges[0..50].iter().copied().collect();
        assert_eq!(src.snapshots[0], set.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn windowed_builder_respects_pct_change_bound() {
        // Distinct edges so set size == window size.
        let edges: Vec<(u32, u32)> = (0..2000u32).map(|i| (i / 50, i % 1000)).collect();
        let src = DtdgSource::from_temporal_edges(1000, &edges, 10.0);
        let w = 1000.0;
        for (d, s) in src.diffs().iter().zip(&src.snapshots) {
            let pct = 100.0 * d.len() as f64 / s.len() as f64;
            assert!(pct <= 10.0 + 1e-9, "change {pct}% exceeds bound (w={w})");
        }
        // Smaller pct_change must yield more snapshots.
        let fine = DtdgSource::from_temporal_edges(1000, &edges, 2.0);
        assert!(fine.num_timestamps() > src.num_timestamps());
    }

    #[test]
    fn mean_pct_change_tracks_slide() {
        let edges: Vec<(u32, u32)> = (0..2000u32).map(|i| (i / 50, i % 1000)).collect();
        let src = DtdgSource::from_temporal_edges(1000, &edges, 5.0);
        let mean = src.mean_pct_change();
        assert!(mean > 1.0 && mean <= 5.5, "mean change {mean}%");
    }
}
