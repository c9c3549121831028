//! Incremental snapshot ingest: a live graph that consumes [`UpdateBatch`]
//! diffs behind a *generation guard*.
//!
//! Training walks a fixed DTDG back and forth (Algorithm 2); serving only
//! ever moves forward — update batches arrive from a stream and each one
//! advances the live graph by exactly one generation. The guard is the
//! generation number itself: [`LiveGraph::apply`] publishes the new
//! generation only after *both* the insertion and deletion halves of a
//! batch are fully applied, and every snapshot is tagged with the
//! generation it was materialised at. A reader holding a
//! `(generation, Snapshot)` pair therefore can never observe a
//! half-applied batch: the snapshot for generation `g` is built strictly
//! after batch `g` completed and strictly before batch `g+1` starts.

use std::time::{Duration, Instant};
use stgraph_dyngraph::source::{DtdgSource, UpdateBatch};
use stgraph_dyngraph::DtdgStore;
use stgraph_faultline::{FaultError, RetryPolicy};
use stgraph_graph::base::Snapshot;

/// Cumulative ingest counters, part of the serve stats report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Update batches applied (== generations advanced).
    pub batches: u64,
    /// Edges inserted across all batches.
    pub edges_added: u64,
    /// Edges deleted across all batches.
    pub edges_deleted: u64,
    /// Wall time spent applying updates and materialising snapshots.
    pub ingest_time: Duration,
    /// Apply attempts that failed with an injected fault and entered the
    /// backoff-retry loop.
    pub retries: u64,
    /// Half-applied batches rolled back before the generation published.
    pub rollbacks: u64,
}

/// A failed (and fully rolled back) attempt to apply an [`UpdateBatch`].
/// The live graph is bitwise unchanged when this is returned: same edges,
/// same generation, same memoised snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// An injected (or, in principle, storage-level) fault interrupted the
    /// batch; the generation guard held and the partial work was undone.
    Fault(FaultError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Fault(e) => write!(f, "ingest batch failed (rolled back): {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Fault(e) => Some(e),
        }
    }
}

/// A continuously-updated graph: the DTDG store (one shard) advanced one
/// [`UpdateBatch`] at a time and read through generation-tagged snapshots.
/// The store owns the edges, the transactional apply and the memoised
/// snapshot; this type adds the generation, the counters and the retry
/// loop.
pub struct LiveGraph {
    store: DtdgStore,
    generation: u64,
    stats: IngestStats,
}

impl LiveGraph {
    /// A live graph starting from an explicit base edge set (generation 0).
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> LiveGraph {
        LiveGraph {
            store: DtdgStore::from_edge_stream(num_nodes, 1, || edges.iter().copied()),
            generation: 0,
            stats: IngestStats::default(),
        }
    }

    /// A live graph seeded with a DTDG source's first snapshot; replaying
    /// the source's `diffs()` through [`LiveGraph::apply`] then reproduces
    /// every subsequent snapshot exactly.
    pub fn from_source(source: &DtdgSource) -> LiveGraph {
        LiveGraph::from_edges(source.num_nodes, &source.snapshots[0])
    }

    /// Number of vertices (fixed for the stream's lifetime).
    pub fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    /// Number of live edges at the current generation.
    pub fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    /// The generation the graph currently represents. Generation `g` means
    /// exactly `g` update batches have been fully applied since the base.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative ingest counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Bytes held by the store's PMA.
    pub fn bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Applies one update batch and returns the *new* generation. The
    /// generation counter — the epoch guard — is bumped only after both
    /// edge sets are applied, so a snapshot tagged with the returned value
    /// reflects the whole batch and a snapshot tagged with an earlier value
    /// reflects none of it.
    ///
    /// Faults injected at the `gpma.update` / `ingest.apply` sites are
    /// rolled back and retried with exponential backoff ([`RetryPolicy`]'s
    /// default), transparently to the caller — update batches are the
    /// stream's ground truth and are never shed. A batch that still fails
    /// after the retry budget is a hard error (panic): at that point the
    /// stream cannot advance correctly and a supervisor must restart from
    /// a checkpoint.
    pub fn apply(&mut self, batch: &UpdateBatch) -> u64 {
        stgraph_faultline::retry(&RetryPolicy::default(), || {
            let r = self.try_apply(batch);
            if r.is_err() {
                self.stats.retries += 1;
            }
            r
        })
        .unwrap_or_else(|e| panic!("ingest failed after retry budget: {e}"))
    }

    /// One apply attempt with generation-guarded rollback: on `Err` the
    /// graph is exactly as it was — partial edge work undone, generation
    /// and memoised snapshot untouched — so no reader can ever observe a
    /// half-applied batch, even mid-recovery. The `ingest.apply` site
    /// models a crash after the edge work but before the generation
    /// publishes — the window the guard exists for.
    pub fn try_apply(&mut self, batch: &UpdateBatch) -> Result<u64, IngestError> {
        let start = Instant::now();
        if let Err(e) = self.store.try_apply(batch, "ingest.apply") {
            self.stats.rollbacks += 1;
            return Err(IngestError::Fault(e));
        }
        self.stats.batches += 1;
        self.stats.edges_added += batch.additions.len() as u64;
        self.stats.edges_deleted += batch.deletions.len() as u64;
        self.stats.ingest_time += start.elapsed();
        // Publish: from here on, readers see the fully-applied batch.
        self.generation += 1;
        Ok(self.generation)
    }

    /// The snapshot for the current generation, tagged with that
    /// generation: one build per generation regardless of how many readers
    /// ask ([`DtdgStore::snapshot`]).
    pub fn snapshot(&mut self) -> (u64, Snapshot) {
        let start = Instant::now();
        let snap = self.store.snapshot();
        self.stats.ingest_time += start.elapsed();
        (self.generation, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph_dyngraph::NaiveGraph;

    fn source() -> DtdgSource {
        DtdgSource::from_snapshot_edges(
            5,
            vec![
                vec![(0, 1), (1, 2), (2, 3), (3, 4)],
                vec![(0, 1), (2, 3), (3, 4), (4, 0)],
                vec![(0, 1), (3, 4), (4, 0), (1, 3)],
                vec![(3, 4), (4, 0), (1, 3), (2, 0)],
            ],
        )
    }

    #[test]
    fn replaying_diffs_reconstructs_every_snapshot() {
        let src = source();
        let naive = NaiveGraph::new(&src);
        let mut live = LiveGraph::from_source(&src);
        let (g0, s0) = live.snapshot();
        assert_eq!(g0, 0);
        assert!(s0.same_structure(naive.snapshot(0)));
        for (i, diff) in src.diffs().iter().enumerate() {
            let g = live.apply(diff);
            assert_eq!(g, i as u64 + 1);
            let (gs, snap) = live.snapshot();
            assert_eq!(gs, g, "snapshot must be tagged with the generation");
            assert!(
                snap.same_structure(naive.snapshot(i + 1)),
                "divergence at generation {g}"
            );
        }
    }

    #[test]
    fn snapshot_is_memoised_per_generation() {
        let src = source();
        let mut live = LiveGraph::from_source(&src);
        let (_, a) = live.snapshot();
        let (_, b) = live.snapshot();
        // Same materialisation: the Arcs inside the snapshot are shared.
        assert!(std::sync::Arc::ptr_eq(&a.csr, &b.csr));
        live.apply(&src.diffs()[0]);
        let (_, c) = live.snapshot();
        assert!(!std::sync::Arc::ptr_eq(&a.csr, &c.csr));
    }

    #[test]
    fn generation_publishes_only_after_full_batch() {
        // A batch that both adds and deletes: the pre-apply snapshot shows
        // neither half, the post-apply snapshot shows both. There is no
        // observable generation with only one half applied.
        let mut live = LiveGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let (g_before, before) = live.snapshot();
        let batch = UpdateBatch {
            additions: vec![(2, 3)],
            deletions: vec![(0, 1)],
        };
        let g_after = live.apply(&batch);
        assert_eq!(g_after, g_before + 1);
        let (_, after) = live.snapshot();
        use stgraph_graph::base::STGraphBase;
        assert_eq!(before.num_edges(), 2);
        assert_eq!(after.num_edges(), 2);
        let edges: Vec<(u32, u32)> = after
            .csr
            .triples()
            .into_iter()
            .map(|(s, d, _)| (s, d))
            .collect();
        assert!(edges.contains(&(2, 3)) && !edges.contains(&(0, 1)));
    }

    #[test]
    fn stats_accumulate() {
        let src = source();
        let mut live = LiveGraph::from_source(&src);
        for d in src.diffs() {
            live.apply(&d);
            live.snapshot();
        }
        let s = live.stats();
        assert_eq!(s.batches, 3);
        assert!(s.edges_added > 0 && s.edges_deleted > 0);
        assert!(s.ingest_time > Duration::ZERO);
    }
}
