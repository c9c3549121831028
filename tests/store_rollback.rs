//! Rollback suite for the DTDG store: seeded fault plans fire inside the
//! PMA update path (`gpma.update`) and the commit window
//! (`ingest.apply`) while batches stream through a [`DtdgStore`]. The
//! invariants under chaos:
//!
//! 1. **No panic escapes** — every injected failure surfaces as a typed
//!    error from `try_apply`.
//! 2. **Failed batches are bitwise invisible** — a fault after the insert
//!    landed undoes it with inverse operations, so edge set, version and
//!    memoised snapshot are the pre-batch ones.
//! 3. **Recovery is exact** — re-applying the same batch fault-free lands
//!    the store bitwise on `NaiveGraph`'s snapshot for that timestamp.
//!
//! Every plan is seeded, so a failure here reproduces exactly.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use stgraph_dyngraph::source::{DtdgSource, UpdateBatch};
use stgraph_dyngraph::{DtdgGraph, DtdgStore, GpmaGraph, NaiveGraph};
use stgraph_faultline::FaultPlan;
use stgraph_graph::base::Snapshot;

/// A churning DTDG: random snapshots over `n` vertices.
fn random_source(seed: u64, n: usize, timestamps: usize) -> DtdgSource {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let snaps: Vec<Vec<(u32, u32)>> = (0..=timestamps)
        .map(|_| {
            let m = rng.gen_range(20..60);
            let mut edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        })
        .collect();
    DtdgSource::from_snapshot_edges(n, snaps)
}

fn store_of(src: &DtdgSource) -> DtdgStore {
    DtdgStore::from_edges(src.num_nodes, &src.snapshots[0])
}

/// The headline chaos property: a seeded fault matrix over both fault
/// sites × streams. Each faulted batch must be bitwise invisible; each
/// clean re-apply must land exactly on the oracle.
#[test]
fn faulted_batches_are_invisible_and_recovery_is_exact() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    for seed in 1u64..=5 {
        let src = random_source(seed * 101, 40, 4);
        let mut naive = NaiveGraph::new(&src);
        let mut store = store_of(&src);
        for (t, batch) in src.diffs().iter().enumerate() {
            let (edges, version, before) = (store.edges(), store.version(), store.snapshot());
            // Alternate the failing site across timestamps; the plan
            // seed varies the probabilistic site too.
            let plan = if t % 2 == 0 {
                FaultPlan::new()
                    .seed(seed * 1000 + t as u64)
                    .fail_nth("ingest.apply", 1)
                    .fail_prob("gpma.update", 0.3)
            } else {
                FaultPlan::new()
                    .seed(seed * 1000 + t as u64)
                    .fail_nth("gpma.update", 1)
            };
            stgraph_faultline::set_plan(plan);
            let res = store.try_apply(batch);
            stgraph_faultline::clear_plan();
            assert!(res.is_err(), "plan must fire (seed {seed} t {t})");
            // Invariant 2: the failed batch is bitwise invisible.
            assert_eq!(store.edges(), edges);
            assert_eq!(store.version(), version);
            let after_fault = store.snapshot();
            assert!(Arc::ptr_eq(&after_fault.csr, &before.csr));
            assert!(
                after_fault == before,
                "faulted batch visible at t={t} (seed {seed})"
            );
            // Invariant 3: clean re-apply is exact.
            store.try_apply(batch).unwrap();
            assert!(
                store.snapshot() == naive.get_graph(t + 1),
                "recovery diverged at t={} (seed {seed})",
                t + 1
            );
        }
    }
}

/// Sustained chaos: every other commit fails across a whole stream;
/// retrying each failed batch must reconstruct every timestamp.
#[test]
fn retry_loop_reaches_every_timestamp_under_periodic_faults() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = random_source(31, 50, 6);
    let mut naive = NaiveGraph::new(&src);
    let mut store = store_of(&src);
    stgraph_faultline::set_plan(FaultPlan::new().fail_every("ingest.apply", 2));
    for (t, batch) in src.diffs().iter().enumerate() {
        let mut attempts = 0;
        while store.try_apply(batch).is_err() {
            attempts += 1;
            assert!(attempts < 4, "batch {t} should succeed within retries");
        }
        assert!(store.snapshot() == naive.get_graph(t + 1));
    }
    stgraph_faultline::clear_plan();
    let want = naive.get_graph(src.num_timestamps() - 1);
    assert!(
        store.snapshot() == want,
        "post-chaos stream must land exactly on the oracle"
    );
}

/// The single seed pass lands where incremental ingest does: loading the
/// seed in `from_edges` and applying it to an empty store give bitwise the
/// same snapshot, and both are `NaiveGraph`'s first snapshot.
#[test]
fn seed_load_matches_incremental_apply() {
    // `apply` passes the fault sites, so it must not consume the hits of
    // a plan another test has installed.
    let _g = stgraph_faultline::test_lock();
    for seed in 1u64..=4 {
        let src = random_source(seed * 53, 35, 1);
        let mut loaded = store_of(&src);
        let mut grown = DtdgStore::from_edges(src.num_nodes, &[]);
        grown.apply(&src.snapshots[0], &[]);
        assert_eq!(loaded.edges(), grown.edges());
        assert!(loaded.snapshot() == grown.snapshot());
        assert!(
            loaded.snapshot() == NaiveGraph::new(&src).get_graph(0),
            "seed load diverged from the oracle (seed {seed})"
        );
    }
}

/// `snapshot.build` faults cost latency, never a snapshot: even when every
/// attempt fails (outlasting the retry budget) the build proceeds and is
/// bitwise the oracle, and a faulted `try_apply` beforehand changes nothing.
#[test]
fn snapshot_build_faults_never_lose_a_snapshot() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = random_source(77, 30, 2);
    let mut naive = NaiveGraph::new(&src);
    let mut store = store_of(&src);
    for (t, batch) in src.diffs().iter().enumerate() {
        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("ingest.apply", 1));
        assert!(store.try_apply(batch).is_err());
        stgraph_faultline::set_plan(FaultPlan::new().fail_prob("snapshot.build", 1.0));
        let stale = store.snapshot();
        store.try_apply(batch).unwrap();
        let fresh = store.snapshot();
        stgraph_faultline::clear_plan();
        assert!(stale == naive.get_graph(t), "t={t}");
        assert!(fresh == naive.get_graph(t + 1), "t={}", t + 1);
    }
}

/// `GpmaGraph` is one store and nothing beside it. Over two epochs of
/// Algorithm-1 sequences of length 2, every `get_graph` and
/// `get_backward_graph` call leaves its bytes and snapshot equal to those
/// of a twin store driven through the same forward and inverse batches.
#[test]
fn gpma_graph_holds_only_its_store_across_sequences_and_epochs() {
    // `apply` passes the fault sites, so it must not consume the hits of
    // a plan another test has installed.
    let _g = stgraph_faultline::test_lock();
    let src = random_source(19, 40, 5);
    let diffs = src.diffs();
    let mut graph = GpmaGraph::new(&src);
    let (mut twin, mut at) = (store_of(&src), 0);
    let mut visit = |t: usize, forward: bool| {
        while at < t {
            twin.apply(&diffs[at].additions, &diffs[at].deletions);
            at += 1;
        }
        while at > t {
            at -= 1;
            twin.apply(&diffs[at].deletions, &diffs[at].additions);
        }
        let snap = if forward {
            graph.get_graph(t)
        } else {
            graph.get_backward_graph(t)
        };
        assert_eq!(graph.bytes(), twin.bytes(), "t={t} forward={forward}");
        assert!(snap == twin.snapshot(), "t={t} forward={forward}");
    };
    let total = src.num_timestamps();
    for _epoch in 0..2 {
        for start in (0..total).step_by(2) {
            let end = (start + 2).min(total);
            (start..end).for_each(|t| visit(t, true));
            (start..end).rev().for_each(|t| visit(t, false));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store's one transaction, at every reachable fault position: the
    /// insert and the delete (`gpma.update` hits 1 and 2, in that order)
    /// and the commit window (`ingest.apply`). Each faulted attempt leaves
    /// edge set, version and memoised snapshot untouched; the retried
    /// batch lands on the set oracle. Batches are arbitrary — they may
    /// re-add present edges and delete absent ones.
    #[test]
    fn rollback_is_exact_at_every_fault_position(
        (n, base, adds, dels) in (4usize..24).prop_flat_map(|n| {
            let edge = || (0..n as u32, 0..n as u32);
            (
                Just(n),
                prop::collection::vec(edge(), 0..60),
                prop::collection::vec(edge(), 0..30),
                prop::collection::vec(edge(), 0..30),
            )
        })
    ) {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let adds: BTreeSet<(u32, u32)> = adds.into_iter().collect();
        let batch = UpdateBatch {
            deletions: dels.into_iter().filter(|e| !adds.contains(e)).collect(),
            additions: adds.into_iter().collect(),
        };
        let mut want: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        want.extend(batch.additions.iter().copied());
        for d in &batch.deletions {
            want.remove(d);
        }

        let mut store = DtdgStore::from_edges(n, &base);
        let (edges, version, memo) = (store.edges(), store.version(), store.snapshot());
        for (site, hit) in [("gpma.update", 1), ("gpma.update", 2), ("ingest.apply", 1)] {
            stgraph_faultline::set_plan(FaultPlan::new().fail_nth(site, hit));
            let res = store.try_apply(&batch);
            stgraph_faultline::clear_plan();
            prop_assert!(res.is_err(), "{} hit {} must fire", site, hit);
            prop_assert_eq!(store.edges(), edges.clone(), "{} hit {}", site, hit);
            prop_assert_eq!(store.version(), version);
            prop_assert!(Arc::ptr_eq(&memo.csr, &store.snapshot().csr));
        }
        prop_assert!(store.try_apply(&batch).is_ok());
        prop_assert_eq!(store.version(), version + 1);
        prop_assert_eq!(store.edges(), want.iter().copied().collect::<Vec<_>>());
        let oracle = Snapshot::from_edges(n, &store.edges());
        prop_assert!(store.snapshot() == oracle);
    }
}
