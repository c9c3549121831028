//! `GPMAGraph` (§V.D): the DTDG is stored as a *base graph plus a list of
//! temporal updates*, and snapshots are constructed on demand. This is the
//! Algorithm-2 timeline and cache over the one [`DtdgStore`]; the store
//! owns the edges, the batch apply and the snapshot build.
//!
//! * `Get-Graph(G, t)` (Algorithm 2) rolls the store forward to timestamp
//!   `t` by applying edge insertion/deletion batches and returns the
//!   store's snapshot.
//! * `Get-Backward-Graph(G, t)` applies the *reverse* updates, walking the
//!   graph back down the sequence in LIFO order.
//! * The Algorithm-2 cache holds the store's state at the most advanced
//!   timestamp seen, so the next sequence's forward pass restores it
//!   instead of replaying updates from the rewound position.

use crate::source::{DtdgGraph, DtdgSource, UpdateBatch};
use crate::store::DtdgStore;
use std::time::Duration;
use stgraph_faultline::FaultError;
use stgraph_graph::base::Snapshot;
use stgraph_pma::Gpma;
use stgraph_telemetry::{span_timed, TimeAccumulator};

/// A DTDG stored as a base graph plus per-timestamp update batches.
pub struct GpmaGraph {
    store: DtdgStore,
    /// `updates[t-1]` transforms snapshot `t-1` into snapshot `t`.
    updates: Vec<UpdateBatch>,
    curr_time: usize,
    /// Algorithm-2 cache: store state at the given timestamp.
    cache: Option<(usize, Vec<Gpma>)>,
    update_time: TimeAccumulator,
}

/// [`GpmaGraph`] built with [`GpmaGraph::from_source`] at K > 1: the store
/// split into K edge-cut shards (`train --storage sharded`).
pub type ShardedGraph = GpmaGraph;

impl GpmaGraph {
    /// Builds the base graph (snapshot 0) and the update log from a source.
    pub fn new(source: &DtdgSource) -> GpmaGraph {
        GpmaGraph::from_source(source, 1)
    }

    /// [`GpmaGraph::new`] over `k` shards, partitioned over snapshot 0.
    pub fn from_source(source: &DtdgSource, k: usize) -> GpmaGraph {
        let seed = &source.snapshots[0];
        GpmaGraph {
            store: DtdgStore::from_edge_stream(source.num_nodes, k, || seed.iter().copied()),
            updates: source.diffs(),
            curr_time: 0,
            cache: None,
            update_time: TimeAccumulator::new(),
        }
    }

    /// The timestamp the store currently represents.
    pub fn current_time(&self) -> usize {
        self.curr_time
    }

    /// Bytes held by the store and the cache (snapshots are transient).
    pub fn bytes(&self) -> usize {
        let cached = self.cache.iter().flat_map(|(_, state)| state);
        self.store.bytes() + cached.map(Gpma::bytes).sum::<usize>()
    }

    /// The edge store under the timeline (sharded forwards, halo counters).
    pub fn store(&mut self) -> &mut DtdgStore {
        &mut self.store
    }

    /// Applies `batch` to the store directly, past the timeline, behind
    /// the `shard.exchange` commit barrier: ghost tables may only refresh
    /// once every shard holds its routed sub-batch, so a fault there models
    /// a failed exchange and aborts the whole batch (see
    /// [`DtdgStore::try_apply`]).
    pub fn try_apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), FaultError> {
        self.store.try_apply(batch, "shard.exchange")
    }

    /// Moves the store to timestamp `t`, one update batch (forward) or
    /// inverse batch (backward) per step.
    fn advance(&mut self, t: usize) {
        while self.curr_time < t {
            let u = &self.updates[self.curr_time];
            self.store.apply(&u.additions, &u.deletions);
            self.curr_time += 1;
        }
        while self.curr_time > t {
            let u = &self.updates[self.curr_time - 1];
            self.store.apply(&u.deletions, &u.additions);
            self.curr_time -= 1;
        }
    }
}

impl DtdgGraph for GpmaGraph {
    fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.updates.len() + 1
    }

    /// Algorithm 2. Restores the cache when it is between the current
    /// position and the target, then applies updates up to `t` (edge
    /// updates run in reverse when `t` precedes the current position —
    /// e.g. at an epoch boundary, when training restarts at timestamp 0
    /// while the store still sits at the last sequence's start).
    fn get_graph(&mut self, t: usize) -> Snapshot {
        assert!(t < self.num_timestamps(), "timestamp {t} out of range");
        let _sp = span_timed("snapshot.forward", &self.update_time);
        if let Some((ct, state)) = &self.cache {
            if *ct <= t && *ct > self.curr_time {
                self.store.restore_state(state);
                self.curr_time = *ct;
            }
        }
        self.advance(t);
        // Cache the most advanced state for the next sequence (Alg 2 l.10).
        if self.cache.as_ref().is_none_or(|(ct, _)| *ct < t) {
            self.cache = Some((t, self.store.clone_state()));
        }
        self.store.snapshot()
    }

    /// Reverse updates from the current position down to `t` (strict LIFO
    /// relative to the forward pass). At `t == current_time()` — the first
    /// backward call of every sequence — nothing moved, so this is the
    /// snapshot the forward pass built.
    fn get_backward_graph(&mut self, t: usize) -> Snapshot {
        let _sp = span_timed("snapshot.backward", &self.update_time);
        assert!(
            t <= self.curr_time,
            "Get-Backward-Graph must move backward (at {}, asked {t})",
            self.curr_time
        );
        self.advance(t);
        self.store.snapshot()
    }

    fn take_update_time(&mut self) -> Duration {
        self.update_time.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveGraph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use stgraph_graph::base::STGraphBase;

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

    fn random_source(seed: u64, n: u32, t: usize) -> DtdgSource {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut snaps = Vec::new();
        let mut cur: std::collections::BTreeSet<(u32, u32)> = (0..200)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        snaps.push(cur.iter().copied().collect::<Vec<_>>());
        for _ in 1..t {
            // ~10% churn.
            let removals: Vec<(u32, u32)> =
                cur.iter().copied().filter(|_| rng.gen_bool(0.1)).collect();
            for r in &removals {
                cur.remove(r);
            }
            for _ in 0..removals.len() {
                cur.insert((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            snaps.push(cur.iter().copied().collect());
        }
        DtdgSource::from_snapshot_edges(n as usize, snaps)
    }

    #[test]
    fn forward_snapshots_match_naive() {
        let src = source();
        let mut gpma = GpmaGraph::new(&src);
        let mut naive = NaiveGraph::new(&src);
        for t in 0..src.num_timestamps() {
            let a = gpma.get_graph(t);
            let b = naive.get_graph(t);
            assert!(a.same_structure(&b), "divergence at t={t}");
        }
    }

    #[test]
    fn backward_retraces_forward_snapshots() {
        let src = random_source(5, 50, 6);
        let mut gpma = GpmaGraph::new(&src);
        let mut naive = NaiveGraph::new(&src);
        let fwd: Vec<Snapshot> = (0..src.num_timestamps())
            .map(|t| gpma.get_graph(t))
            .collect();
        for t in (0..src.num_timestamps()).rev() {
            let b = gpma.get_backward_graph(t);
            assert!(b.same_structure(&fwd[t]), "backward divergence at t={t}");
            assert!(b.same_structure(&naive.get_graph(t)));
        }
        assert_eq!(gpma.current_time(), 0);
    }

    #[test]
    fn cache_restores_across_sequences() {
        // Sequence 1: t=0..2 forward, back to 0. Sequence 2: t=3 forward.
        // The cache at t=2 must be restored instead of replaying 0->3.
        let src = source();
        let mut g = GpmaGraph::new(&src);
        for t in 0..3 {
            let _ = g.get_graph(t);
        }
        for t in (0..3).rev() {
            let _ = g.get_backward_graph(t);
        }
        assert_eq!(g.current_time(), 0);
        let s3 = g.get_graph(3);
        let naive = NaiveGraph::new(&src).get_graph(3);
        assert!(s3.same_structure(&naive));
        assert_eq!(g.current_time(), 3);
    }

    #[test]
    fn get_graph_rewinds_at_epoch_boundary() {
        // Epoch 2 restarts at t=0 while the GPMA sits mid-sequence.
        let src = source();
        let mut g = GpmaGraph::new(&src);
        let _ = g.get_graph(2);
        let s0 = g.get_graph(0);
        assert!(s0.same_structure(&NaiveGraph::new(&src).get_graph(0)));
        assert_eq!(g.current_time(), 0);
    }

    #[test]
    #[should_panic(expected = "must move backward")]
    fn backward_cannot_advance() {
        let src = source();
        let mut g = GpmaGraph::new(&src);
        let _ = g.get_graph(1);
        let _ = g.get_backward_graph(3);
    }

    #[test]
    fn forward_then_backward_at_the_same_timestamp_shares_one_build() {
        let src = random_source(7, 40, 4);
        let mut g = GpmaGraph::new(&src);
        let _ = g.get_graph(1);
        let f = g.get_graph(2);
        let b = g.get_backward_graph(2);
        assert!(std::sync::Arc::ptr_eq(&f.csr, &b.csr));
        assert!(std::sync::Arc::ptr_eq(&f.reverse_csr, &b.reverse_csr));
        // Moving invalidates: t=1 is a fresh build, equal to the first.
        let b1 = g.get_backward_graph(1);
        assert!(!std::sync::Arc::ptr_eq(&b1.csr, &b.csr));
        assert!(b1.same_structure(&NaiveGraph::new(&src).get_graph(1)));
    }

    #[test]
    fn relabel_keeps_forward_backward_labels_consistent() {
        let src = random_source(9, 30, 4);
        let mut g = GpmaGraph::new(&src);
        let s = g.get_graph(2);
        let fwd: std::collections::HashMap<u32, (u32, u32)> = s
            .csr
            .triples()
            .into_iter()
            .map(|(a, b, e)| (e, (a, b)))
            .collect();
        for (dst, src_v, e) in s.reverse_csr.triples() {
            assert_eq!(fwd[&e], (src_v, dst));
        }
        // Edge ids are dense 0..m.
        let mut ids: Vec<u32> = fwd.keys().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..s.num_edges() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn memory_stays_near_single_snapshot() {
        // The whole point of GPMAGraph: storing T snapshots must not cost
        // T x snapshot bytes. We compare against naive's resident set.
        stgraph_tensor::mem::with_pool("gpma-vs-naive", || {
            let src = random_source(13, 100, 20);
            let gpma = GpmaGraph::new(&src);
            let naive = NaiveGraph::new(&src);
            let naive_bytes: usize = (0..20).map(|t| naive.snapshot(t).csr.bytes()).sum();
            assert!(
                gpma.bytes() * 3 < naive_bytes,
                "gpma {} vs naive csr-only {naive_bytes}",
                gpma.bytes()
            );
        });
    }

    #[test]
    fn update_time_accumulates_and_drains() {
        let src = source();
        let mut g = GpmaGraph::new(&src);
        let _ = g.get_graph(2);
        assert!(g.take_update_time() > Duration::ZERO);
        assert_eq!(g.take_update_time(), Duration::ZERO);
    }
}
