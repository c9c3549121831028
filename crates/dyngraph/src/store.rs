//! `DtdgStore`: the one DTDG edge store (§V.D's GPMA, stored
//! **reverse-first**). Every consumer — the Algorithm-2 timeline
//! ([`crate::GpmaGraph`]) and the serve tier's live ingest — drives this
//! type; it owns the only batch apply, the only transactional apply with
//! rollback and the only snapshot build.
//!
//! **Layout.** One [`Gpma`] holds edge `(u, v)` under the key
//! `(v << 32) | u`, so its sorted slot order *is* the in-neighbour
//! adjacency: destinations ascending, each destination's sources
//! ascending.
//!
//! **Snapshots.** [`DtdgStore::snapshot`] compacts the slots once into
//! the reverse CSR's columns, counts degrees from them, transposes once
//! for the forward CSR and numbers edge ids in that transpose. Rows are
//! laid out exactly as [`Snapshot::from_edges`] lays them out over the
//! sorted edge list, so the result is bitwise [`crate::NaiveGraph`]'s.
//! It is memoised until the next successful mutation bumps the store
//! version; a rolled-back [`DtdgStore::try_apply`] bumps nothing and
//! keeps the memo.

use crate::source::UpdateBatch;
use std::sync::Arc;
use stgraph_faultline::FaultError;
use stgraph_graph::base::Snapshot;
use stgraph_graph::csr::Csr;
use stgraph_pma::{Gpma, EMPTY};

/// `(src, dst)` edges as `(dst, src)` key halves.
fn reversed(edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
    edges.iter().map(|&(u, v)| (v, u)).collect()
}

/// The reverse-first PMA edge store (see module docs).
pub struct DtdgStore {
    /// Keys are `(dst << 32) | src`.
    gpma: Gpma,
    /// Bumped by every successful mutation (the bulk load is the first).
    version: u64,
    /// Snapshot of the current version; dropped when the version bumps.
    memo: Option<Snapshot>,
}

impl DtdgStore {
    /// Loads the seed edge list in one batch insert.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> DtdgStore {
        let mut store = DtdgStore {
            gpma: Gpma::new(num_nodes),
            version: 0,
            memo: None,
        };
        store.gpma.insert_edges(&reversed(edges));
        store.commit();
        store
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.gpma.num_nodes()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.gpma.num_edges()
    }

    /// `(src, dst)` in slot order: destinations ascending, each
    /// destination's sources ascending.
    fn slot_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.gpma
            .pma()
            .iter()
            .map(|k| (k as u32 as usize, (k >> 32) as usize))
    }

    /// The edge set, sorted by `(src, dst)` (tests / oracle comparison).
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .slot_edges()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        out.sort_unstable();
        out
    }

    /// Bytes held by the PMA.
    pub fn bytes(&self) -> usize {
        self.gpma.bytes()
    }

    /// Bumped by every successful mutation, and by nothing else: equal
    /// versions mean equal edge sets and a shared [`Self::snapshot`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Publishes a mutation: new version, memo dropped.
    fn commit(&mut self) {
        self.version += 1;
        self.memo = None;
    }

    /// Inserts `additions`, then deletes `deletions`. Infallible: the path
    /// of the training timeline.
    pub fn apply(&mut self, additions: &[(u32, u32)], deletions: &[(u32, u32)]) {
        count_update(additions.len(), deletions.len());
        self.gpma.insert_edges(&reversed(additions));
        self.gpma.delete_edges(&reversed(deletions));
        self.commit();
    }

    /// Fault-gated [`Self::apply`]: every edge of `batch` lands or none
    /// does. The batch is first filtered to its effective changes
    /// (additions not yet present, deletions actually present) so the
    /// inverse operation is exact. A fault at the insert's or the delete's
    /// `gpma.update` site, or at `ingest.apply` — the window between the
    /// edge work and its publish — undoes what landed and leaves edge set,
    /// version and memoised snapshot untouched.
    pub fn try_apply(&mut self, batch: &UpdateBatch) -> Result<(), FaultError> {
        let gpma = &mut self.gpma;
        let mut adds = reversed(&batch.additions);
        let mut dels = reversed(&batch.deletions);
        gpma.retain_edges(&mut adds, false);
        gpma.retain_edges(&mut dels, true);
        let result = gpma.try_insert_edges(&adds).and_then(|()| {
            // The insert landed: any later fault undoes it here.
            gpma.try_delete_edges(&dels)
                .and_then(|()| {
                    stgraph_faultline::fault_point!("ingest.apply")
                        .inspect_err(|_| gpma.insert_edges(&dels))
                })
                .inspect_err(|_| gpma.delete_edges(&adds))
        });
        if result.is_err() {
            stgraph_faultline::note_rollback();
            return result;
        }
        count_update(batch.additions.len(), batch.deletions.len());
        self.commit();
        Ok(())
    }

    /// The snapshot of the current version, built on the first call after
    /// a mutation and shared (same `Arc`s) until the next one.
    ///
    /// Carries the `snapshot.build` fault point: an injected failure models
    /// transient memory pressure during materialisation and is retried with
    /// backoff. The build is pure compute with no real failure mode, so if
    /// injection outlasts the retry budget it proceeds anyway — degraded
    /// latency, never a lost snapshot.
    pub fn snapshot(&mut self) -> Snapshot {
        if let Some(snap) = &self.memo {
            return snap.clone();
        }
        let _sp = stgraph_telemetry::span_cat("snapshot.build", "snapshot");
        let _ = stgraph_faultline::retry(&stgraph_faultline::RetryPolicy::default(), || {
            stgraph_faultline::fault_point!("snapshot.build")
        });
        static BUILD_NS: std::sync::OnceLock<&'static stgraph_telemetry::Histogram> =
            std::sync::OnceLock::new();
        let build_ns = BUILD_NS.get_or_init(|| stgraph_telemetry::histogram("snapshot.build_ns"));
        let start = std::time::Instant::now();
        let snap = self.build_snapshot();
        build_ns.record_duration(start.elapsed());
        self.memo = Some(snap.clone());
        snap
    }

    /// Slots -> [`Snapshot`], laid out as `Snapshot::from_edges` lays out
    /// the sorted edge list: dense forward rows in ascending destination
    /// order with edge id = forward slot, reverse rows in descending source
    /// order (the order Algorithm 3's sequential fill leaves, which the
    /// aggregation kernels' bitwise results depend on).
    fn build_snapshot(&self) -> Snapshot {
        let (n, m) = (self.num_nodes(), self.num_edges());
        let slots = self.gpma.pma().key_slots();
        // One branch-free compaction of the slots: every slot is written at
        // the cursor, which advances only past keys. `r_col` takes the
        // sources; `r_eids` holds the destinations until the transpose
        // overwrites them with edge ids. Stopping at the last key keeps the
        // cursor below `m`.
        let used = slots.iter().rposition(|&k| k != EMPTY).map_or(0, |i| i + 1);
        let (mut r_col, mut r_eids) = (vec![0u32; m], vec![0u32; m]);
        let mut c = 0;
        for &k in &slots[..used] {
            r_col[c] = k as u32;
            r_eids[c] = (k >> 32) as u32;
            c += (k != EMPTY) as usize;
        }
        debug_assert_eq!(c, m);
        let (mut in_deg, mut out_deg) = (vec![0u32; n], vec![0u32; n]);
        for (&u, &v) in r_col.iter().zip(&r_eids) {
            in_deg[v as usize] += 1;
            out_deg[u as usize] += 1;
        }
        let offsets = |deg: &[u32]| {
            let mut off = Vec::with_capacity(n + 1);
            off.push(0usize);
            for &d in deg {
                off.push(off.last().unwrap() + d as usize);
            }
            off
        };
        let (r_off, f_off) = (offsets(&in_deg), offsets(&out_deg));

        // The slots hold each row's sources ascending; reverse rows hold
        // them descending.
        for v in 0..n {
            r_col[r_off[v]..r_off[v + 1]].reverse();
        }

        // Transpose: destinations ascend through the reverse rows, so every
        // forward row fills in ascending destination order and a forward
        // slot is the edge's rank in the (src, dst)-sorted edge list — its
        // edge id, which takes the destination's place in `r_eids`.
        let mut f_col = vec![0u32; m];
        let mut next = f_off[..n].to_vec();
        for (&u, e) in r_col.iter().zip(r_eids.iter_mut()) {
            let u = u as usize;
            f_col[next[u]] = *e;
            *e = next[u] as u32;
            next[u] += 1;
        }
        Snapshot {
            csr: Arc::new(Csr::from_parts(f_off, f_col, (0..m as u32).collect())),
            reverse_csr: Arc::new(Csr::from_parts(r_off, r_col, r_eids)),
            in_degrees: Arc::new(in_deg),
            out_degrees: Arc::new(out_deg),
        }
    }
}

/// Adds an apply's edge counts to the `gpma.edges_*` counters, whose
/// handles are interned once instead of looked up by name per apply.
fn count_update(inserted: usize, deleted: usize) {
    static EDGES: std::sync::OnceLock<(stgraph_telemetry::Counter, stgraph_telemetry::Counter)> =
        std::sync::OnceLock::new();
    let (ins, del) = EDGES.get_or_init(|| {
        (
            stgraph_telemetry::counter("gpma.edges_inserted"),
            stgraph_telemetry::counter("gpma.edges_deleted"),
        )
    });
    ins.add(inserted as u64);
    del.add(deleted as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveGraph;
    use crate::source::{DtdgGraph, DtdgSource};
    use crate::GpmaGraph;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;
    use stgraph_faultline::FaultPlan;

    fn random_source(seed: u64, n: u32, t: usize) -> DtdgSource {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut snaps = Vec::new();
        let mut cur: BTreeSet<(u32, u32)> = (0..260)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        snaps.push(cur.iter().copied().collect::<Vec<_>>());
        for _ in 1..t {
            let removals: Vec<(u32, u32)> =
                cur.iter().copied().filter(|_| rng.gen_bool(0.15)).collect();
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

    fn store_of(src: &DtdgSource) -> DtdgStore {
        DtdgStore::from_edges(src.num_nodes, &src.snapshots[0])
    }

    #[test]
    fn snapshots_bitwise_match_naive() {
        let src = random_source(21, 80, 5);
        let mut naive = NaiveGraph::new(&src);
        let mut gpma = GpmaGraph::new(&src);
        for t in 0..src.num_timestamps() {
            let a = gpma.get_graph(t);
            let b = naive.get_graph(t);
            assert!(a == b, "t={t} diverged");
        }
        // LIFO rewind must retrace bitwise too.
        for t in (0..src.num_timestamps()).rev() {
            let a = gpma.get_backward_graph(t);
            let b = naive.get_graph(t);
            assert!(a == b, "backward t={t}");
        }
    }

    #[test]
    fn empty_rows_and_isolated_vertices_snapshot_like_naive() {
        let src = DtdgSource::from_snapshot_edges(6, vec![vec![(4, 0)], vec![]]);
        let mut naive = NaiveGraph::new(&src);
        let mut g = GpmaGraph::new(&src);
        for t in 0..2 {
            assert!(g.get_graph(t) == naive.get_graph(t));
        }
    }

    #[test]
    fn try_apply_rolls_back_on_commit_fault() {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let src = random_source(55, 60, 2);
        let batch = src.diffs().remove(0);
        let mut store = store_of(&src);
        let before = store.snapshot();

        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("ingest.apply", 1));
        assert!(store.try_apply(&batch).is_err());
        stgraph_faultline::clear_plan();
        store.memo = None;
        assert!(
            before == store.snapshot(),
            "faulted batch must leave the graph untouched"
        );

        // Retry cleanly: must land the full batch.
        store.try_apply(&batch).unwrap();
        let want = NaiveGraph::new(&src).get_graph(1);
        assert!(store.snapshot() == want);
    }

    #[test]
    fn try_apply_rolls_back_on_delete_fault_after_insert() {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let src = random_source(66, 60, 2);
        let batch = src.diffs().remove(0);
        let mut store = store_of(&src);
        let before = store.snapshot();

        // The second gpma.update hit is the delete: the insert has landed
        // and must be undone.
        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("gpma.update", 2));
        assert!(store.try_apply(&batch).is_err());
        stgraph_faultline::clear_plan();
        store.memo = None;
        assert!(before == store.snapshot());
        store.gpma.pma().check_invariants();
    }

    /// One step of [`memo_follows_the_version`]: `kind` 0 applies, 1
    /// tries to apply with `fault` choosing no fault, the insert's or the
    /// delete's `gpma.update` hit or `ingest.apply`, 2 only reads.
    type Op = (u8, u8, Vec<(u32, u32)>, Vec<(u32, u32)>);

    fn ops(n: u32) -> impl Strategy<Value = Vec<Op>> {
        let edges = move || prop::collection::vec((0..n, 0..n), 0..12);
        prop::collection::vec((0u8..3, 0u8..4, edges(), edges()), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The memo contract the incremental snapshot build must keep,
        /// over random interleavings of `apply`, `try_apply` (faulted at
        /// a random position, or clean) and `snapshot`: after every step
        /// the snapshot is bitwise `Snapshot::from_edges` over the edge
        /// set, the version bumps iff edge work landed, and the memoised
        /// `Arc`s are shared iff the version did not move.
        #[test]
        fn memo_follows_the_version(
            (n, base, steps) in (4usize..20).prop_flat_map(|n| {
                let v = n as u32;
                (Just(n), prop::collection::vec((0..v, 0..v), 0..40), ops(v))
            })
        ) {
            let _g = stgraph_faultline::test_lock();
            stgraph_faultline::clear_plan();
            let mut store = DtdgStore::from_edges(n, &base);
            let mut model: BTreeSet<(u32, u32)> = base.iter().copied().collect();
            let mut prev = (store.version(), store.snapshot());
            for (kind, fault, adds, dels) in steps {
                let adds: BTreeSet<(u32, u32)> = adds.into_iter().collect();
                let batch = UpdateBatch {
                    deletions: dels.into_iter().filter(|e| !adds.contains(e)).collect(),
                    additions: adds.into_iter().collect(),
                };
                let landed = match kind {
                    0 => {
                        store.apply(&batch.additions, &batch.deletions);
                        true
                    }
                    1 => {
                        let plan = match fault {
                            0 => None,
                            1 => Some(FaultPlan::new().fail_nth("gpma.update", 1)),
                            2 => Some(FaultPlan::new().fail_nth("gpma.update", 2)),
                            _ => Some(FaultPlan::new().fail_nth("ingest.apply", 1)),
                        };
                        let faulted = plan.is_some();
                        if let Some(plan) = plan {
                            stgraph_faultline::set_plan(plan);
                        }
                        let res = store.try_apply(&batch);
                        stgraph_faultline::clear_plan();
                        prop_assert_eq!(res.is_err(), faulted, "fault {}", fault);
                        res.is_ok()
                    }
                    _ => false,
                };
                if landed {
                    model.extend(batch.additions.iter().copied());
                    for d in &batch.deletions {
                        model.remove(d);
                    }
                }
                let edges = store.edges();
                prop_assert_eq!(&edges, &model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(store.version(), prev.0 + landed as u64);
                let snap = store.snapshot();
                prop_assert!(snap == Snapshot::from_edges(n, &edges));
                prop_assert_eq!(Arc::ptr_eq(&snap.csr, &prev.1.csr), !landed);
                prop_assert_eq!(Arc::ptr_eq(&snap.reverse_csr, &prev.1.reverse_csr), !landed);
                prev = (store.version(), snap);
            }
        }
    }

    #[test]
    fn a_mutation_drops_the_memo_at_once() {
        // Both successful paths drop the memo at the mutation, not at the
        // next build, so the store never holds two snapshots.
        let src = random_source(88, 40, 3);
        let diffs = src.diffs();
        let mut store = store_of(&src);
        let held = Arc::downgrade(&store.snapshot().csr);
        store.try_apply(&diffs[0]).unwrap();
        assert!(held.upgrade().is_none(), "memo outlived the mutation");
        let held = Arc::downgrade(&store.snapshot().csr);
        store.apply(&diffs[1].additions, &diffs[1].deletions);
        assert!(held.upgrade().is_none());
        let want = NaiveGraph::new(&src).get_graph(2);
        assert!(store.snapshot() == want);
    }
}
