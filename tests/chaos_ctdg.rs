//! Chaos suite for the CTDG event store: seeded fault plans fire inside
//! the T-CSR batch append (`tcsr.append`) while the fraud-burst stream
//! lands. The invariants mirror the DTDG store's rollback suite:
//!
//! 1. Every injected failure surfaces as a typed `CtdgError::Fault` —
//!    no panic escapes.
//! 2. A faulted batch is **bitwise invisible**: log and index compare
//!    equal to their pre-batch state, every node's row included.
//! 3. Clean re-apply recovers exactly: the store lands bitwise on an
//!    uninterrupted build of the same stream.

use stgraph_ctdg::{CtdgError, CtdgStore, TCsr};
use stgraph_datasets::{fraud_stream, FraudConfig};
use stgraph_faultline::FaultPlan;

fn batches(
    seed: u64,
    nodes: usize,
    events: usize,
    batch: usize,
) -> Vec<Vec<stgraph_datasets::TimedEdge>> {
    let cfg = FraudConfig::new(nodes, events, seed);
    let edges: Vec<_> = fraud_stream(&cfg).map(|e| e.edge).collect();
    edges.chunks(batch).map(|c| c.to_vec()).collect()
}

/// A fault at every position of a 10-event batch that hits node 0 as both
/// `src` and `dst` leaves the index equal to its pre-batch clone.
#[test]
fn faulted_batch_rolls_back_at_every_position() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let ev = |src, dst, t| stgraph_datasets::TimedEdge { src, dst, t };
    let mut x = TCsr::new(5);
    x.ingest_batch(&[ev(0, 1, 1), ev(2, 0, 2)]);
    let batch: Vec<_> = (0..10u32)
        .map(|i| {
            let (other, t) = (1 + i % 4, 3 + i as u64 / 3);
            if i % 2 == 0 {
                ev(0, other, t)
            } else {
                ev(other, 0, t)
            }
        })
        .collect();
    let before = x.clone();
    for nth in 1..=10u64 {
        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("tcsr.append", nth));
        let res = x.try_ingest_batch(&batch);
        stgraph_faultline::clear_plan();
        assert!(
            matches!(res, Err(CtdgError::Fault(_))),
            "fault {nth}: {res:?}"
        );
        assert_eq!(x, before, "fault at event {nth} left residue");
    }
    assert_eq!(x.try_ingest_batch(&batch), Ok(2));
    assert_eq!(x.degree(0), 12);
}

#[test]
fn faulted_appends_are_invisible_and_reapply_is_exact() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    for seed in [1u64, 2, 3] {
        let stream = batches(seed, 300, 3000, 128);
        // Oracle: the same stream ingested with no faults.
        let mut oracle = CtdgStore::new(300);
        for b in &stream {
            oracle.append_batch(b);
        }
        let mut store = CtdgStore::new(300);
        for (i, b) in stream.iter().enumerate() {
            // Every third batch faults mid-append (hit index varies so
            // rollback is exercised at different prefix depths).
            if i % 3 == 0 {
                let before = store.clone();
                stgraph_faultline::set_plan(
                    FaultPlan::new()
                        .seed(seed * 1000 + i as u64)
                        .fail_nth("tcsr.append", 1 + (i % 5) as u64 * 17),
                );
                let res = store.try_append_batch(b);
                stgraph_faultline::clear_plan();
                match res {
                    Err(CtdgError::Fault(f)) => assert_eq!(f.site, "tcsr.append"),
                    other => panic!("expected injected fault, got {other:?} (batch {i})"),
                }
                // Invariant 2: bitwise invisible (log and index).
                assert_eq!(
                    store, before,
                    "faulted batch {i} left residue (seed {seed})"
                );
            }
            // Invariant 3 (incremental): clean re-apply succeeds.
            store
                .try_append_batch(b)
                .unwrap_or_else(|e| panic!("clean apply of batch {i} failed: {e}"));
        }
        assert_eq!(
            store, oracle,
            "recovered store diverged from uninterrupted build (seed {seed})"
        );
        assert_eq!(store.log().len(), 3000);
    }
}

/// A killed-mid-append run recovers bitwise: fault the append at a random
/// depth, drop the store ("crash"), rebuild from the log's contents (the
/// durable prefix), and verify the rebuilt index equals a fresh build of
/// the same prefix.
#[test]
fn killed_mid_append_rebuild_from_log_is_bitwise() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let stream = batches(9, 200, 2000, 256);
    let mut store = CtdgStore::new(200);
    for b in stream.iter().take(4) {
        store.append_batch(b);
    }
    stgraph_faultline::set_plan(FaultPlan::new().seed(99).fail_nth("tcsr.append", 100));
    let res = store.try_append_batch(&stream[4]);
    stgraph_faultline::clear_plan();
    assert!(res.is_err(), "plan must fire");
    // "Crash": all that survives is the event log (the system of record).
    let durable: Vec<_> = store.log().as_slice().to_vec();
    assert_eq!(
        durable.len(),
        4 * 256,
        "faulted batch must not reach the log"
    );
    let mut rebuilt = CtdgStore::new(200);
    for chunk in durable.chunks(64) {
        rebuilt.append_batch(chunk);
    }
    // Batching-invariance: a different replay batch size lands on the
    // identical index.
    assert_eq!(rebuilt, store, "rebuild from log diverged");
}
