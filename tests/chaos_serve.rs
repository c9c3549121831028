//! Chaos suite for the serving stack: a seeded fault-plan matrix drives
//! injected failures through every `fault_point!` site while the full
//! pipeline (live graph → micro-batching engine → tickets) runs. The
//! invariants under chaos:
//!
//! 1. **No panic escapes** — every failure surfaces as a typed error or is
//!    retried internally; the tests completing at all proves it.
//! 2. **No half-applied generation is ever served** — a failed apply is
//!    bitwise invisible (same edges, same generation, same memoised
//!    snapshot), and the generation guard publishes only whole batches.
//! 3. **Recovery is exact** — after retries and rollbacks, every served
//!    embedding is bit-identical to a fault-free direct replay.
//! 4. **Overload sheds, never deadlocks** — a full queue returns
//!    [`ServeError::Overloaded`] immediately and keeps serving what it
//!    accepted.
//!
//! Every plan is seeded, so a failure here reproduces exactly.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;
use stgraph::tgnn::Tgcn;
use stgraph_dyngraph::source::{DtdgSource, UpdateBatch};
use stgraph_faultline::FaultPlan;
use stgraph_serve::oracle::direct_chain;
use stgraph_serve::{
    InferenceEngine, IngestError, LiveGraph, RequestQueue, ServeConfig, ServeError, Ticket,
};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::Tensor;

const NODES: usize = 8;
const FEATURES: usize = 3;
const HIDDEN: usize = 4;

fn source() -> DtdgSource {
    DtdgSource::from_snapshot_edges(
        NODES,
        vec![
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
            vec![(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)],
            vec![(0, 1), (3, 4), (4, 5), (6, 7), (7, 0), (1, 4), (2, 6)],
            vec![(3, 4), (4, 5), (7, 0), (1, 4), (2, 6), (0, 5), (5, 2)],
            vec![(4, 5), (1, 4), (2, 6), (0, 5), (5, 2), (6, 1), (3, 7)],
        ],
    )
}

/// A fresh TGCN with weights fully determined by the seed, so every run of
/// the matrix (and the fault-free oracle) computes with identical models.
fn cell(seed: u64) -> Tgcn {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    Tgcn::new(&mut ps, "cell", FEATURES, HIDDEN, &mut rng)
}

fn features(seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::rand_uniform((NODES, FEATURES), -1.0, 1.0, &mut rng)
}

/// Runs the full pipeline (all nodes queried at every generation) under
/// whatever fault plan is currently armed and returns the responses plus
/// the engine for report assertions.
fn run_pipeline(
    src: &DtdgSource,
    x: Tensor,
) -> (Vec<stgraph_serve::QueryResponse>, InferenceEngine) {
    let live = LiveGraph::from_source(src);
    let mut engine = InferenceEngine::new(Box::new(cell(7)), x, live, "seastar");
    let queue = RequestQueue::new(128);
    let config = ServeConfig {
        ..ServeConfig::default()
    };
    let generations = src.num_timestamps();
    let diffs = src.diffs();
    let responses = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut out = Vec::new();
            #[allow(clippy::needless_range_loop)] // g is a generation, not just an index
            for g in 0..generations {
                let tickets: Vec<Ticket> = (0..NODES as u32)
                    .map(|n| queue.submit(n).expect("queue sized for the whole matrix"))
                    .collect();
                out.extend(
                    tickets
                        .into_iter()
                        .map(|t| t.wait().expect("no deadline, no shed: every query answers")),
                );
                if g + 1 < generations {
                    queue.advance(diffs[g].clone());
                }
            }
            queue.close();
            out
        });
        engine.run(&queue, &config);
        producer.join().unwrap()
    });
    (responses, engine)
}

fn assert_bitwise(responses: &[stgraph_serve::QueryResponse], expected: &[Tensor], ctx: &str) {
    for resp in responses {
        let want = &expected[resp.generation as usize];
        let want_bits: Vec<u32> = (0..HIDDEN)
            .map(|j| want.at(resp.node as usize, j).to_bits())
            .collect();
        let got_bits: Vec<u32> = resp.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got_bits, want_bits,
            "[{ctx}] node {} at generation {} diverged from the fault-free replay",
            resp.node, resp.generation
        );
    }
}

/// Invariants 1 + 3: for every plan in the matrix the pipeline survives,
/// recovers, and serves outputs bit-identical to the fault-free oracle.
#[test]
fn chaos_matrix_recovers_to_bitwise_identical_outputs() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = source();
    let x = features(9);
    let oracle_cell = cell(7);
    let expected = direct_chain(&src, &x, &oracle_cell, None).unwrap();

    let matrix: Vec<(&str, FaultPlan)> = vec![
        (
            "ingest-every-2",
            FaultPlan::new().fail_every("ingest.apply", 2),
        ),
        (
            "gpma-update-storms",
            FaultPlan::new()
                .fail_every("gpma.update", 3)
                .fail_nth("ingest.apply", 1),
        ),
        (
            "slow-engine-flaky-snapshots",
            FaultPlan::new()
                .fail_every("snapshot.build", 2)
                .fail_every("engine.dequeue", 4)
                .delay("engine.dequeue", 100),
        ),
        (
            "seeded-probabilistic-mix",
            FaultPlan::new()
                .seed(42)
                .fail_prob("ingest.apply", 0.2)
                .fail_prob("gpma.update", 0.15)
                .fail_prob("snapshot.build", 0.2),
        ),
        (
            "allocator-pressure",
            FaultPlan::new().fail_every("pool.alloc", 2),
        ),
    ];

    for (name, plan) in matrix {
        let injected_before = stgraph_faultline::injected_count();
        stgraph_faultline::set_plan(plan);
        let (responses, mut engine) = run_pipeline(&src, x.clone());
        stgraph_faultline::clear_plan();

        assert_eq!(responses.len(), NODES * src.num_timestamps(), "[{name}]");
        assert_bitwise(&responses, &expected, name);
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(
            report.generation,
            src.num_timestamps() as u64 - 1,
            "[{name}] every generation must publish despite injected faults"
        );
        assert!(
            stgraph_faultline::injected_count() > injected_before,
            "[{name}] the plan must actually have fired"
        );
        if name == "ingest-every-2" {
            assert!(
                report.ingest.retries > 0,
                "[{name}] periodic apply faults must show up as retries"
            );
            assert!(
                report.ingest.rollbacks > 0,
                "[{name}] each failed apply attempt rolls back"
            );
        }
    }
}

/// Invariant 2, attempt level: a failed apply — whether the fault fires
/// mid-batch (between the insert and delete halves) or just before the
/// generation publishes — leaves the graph bitwise unchanged: same edges,
/// same generation, same memoised snapshot identity.
#[test]
fn failed_apply_is_invisible_to_readers() {
    let _g = stgraph_faultline::test_lock();
    let mut live = LiveGraph::from_edges(4, &[(0, 1), (1, 2)]);
    let (g0, snap0) = live.snapshot();
    let batch = UpdateBatch {
        additions: vec![(2, 3)],
        deletions: vec![(0, 1)],
    };

    // Crash in the publish window: both halves applied, then undone.
    stgraph_faultline::set_plan(FaultPlan::new().fail_nth("ingest.apply", 1));
    let err = live.try_apply(&batch).expect_err("fault must fire");
    assert!(matches!(err, IngestError::Fault(_)));
    assert_eq!(live.generation(), g0);
    assert_eq!(live.num_edges(), 2);
    let (g1, snap1) = live.snapshot();
    assert_eq!(g1, g0);
    assert!(
        Arc::ptr_eq(&snap0.csr, &snap1.csr),
        "memoised snapshot must be untouched by the failed attempt"
    );

    // Crash mid-batch: insert half lands (hit 1 passes), delete half dies
    // (hit 2 fails), and the insert half is rolled back.
    stgraph_faultline::set_plan(FaultPlan::new().fail_nth("gpma.update", 2));
    let err = live
        .try_apply(&batch)
        .expect_err("delete-half fault must fire");
    assert!(matches!(err, IngestError::Fault(_)));
    assert_eq!(live.generation(), g0);
    assert_eq!(live.num_edges(), 2, "freshly inserted edges rolled back");
    assert_eq!(live.stats().rollbacks, 2, "one rollback per failed attempt");

    // With the plan cleared the same batch applies cleanly, proving the
    // failed attempts left nothing behind.
    stgraph_faultline::clear_plan();
    let g = live.apply(&batch);
    assert_eq!(g, g0 + 1);
    assert_eq!(live.num_edges(), 2); // one added, one deleted
}

/// Invariant 2, stream level: under periodic apply faults the generation
/// counter and the served structure advance in lockstep — the snapshot at
/// generation `g` equals the source's `g`-th snapshot exactly, never a
/// blend of `g` and `g+1`.
#[test]
fn generations_publish_atomically_under_periodic_faults() {
    let _g = stgraph_faultline::test_lock();
    let src = source();
    stgraph_faultline::set_plan(FaultPlan::new().fail_every("ingest.apply", 2));
    let oracle = stgraph_dyngraph::NaiveGraph::new(&src);
    let mut live = LiveGraph::from_source(&src);
    for (i, diff) in src.diffs().iter().enumerate() {
        let g = live.apply(diff);
        assert_eq!(g, i as u64 + 1, "one generation per batch, faults or not");
        let (gs, snap) = live.snapshot();
        assert_eq!(gs, g);
        assert!(
            snap.same_structure(oracle.snapshot(i + 1)),
            "generation {g} must be exactly the source snapshot"
        );
    }
    stgraph_faultline::clear_plan();
    assert!(live.stats().retries > 0, "the plan must have fired");
}

/// Invariant 4: a full queue sheds with a typed error instead of blocking,
/// and the engine still answers everything it accepted. No engine thread
/// exists while the burst is submitted, so any blocking submit would
/// deadlock this test.
#[test]
fn overload_sheds_with_typed_errors_and_keeps_serving() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = source();
    let x = features(9);
    let live = LiveGraph::from_source(&src);
    let mut engine = InferenceEngine::new(Box::new(cell(7)), x, live, "seastar");
    let queue = RequestQueue::new(2);

    let accepted: Vec<Ticket> = (0..2).map(|n| queue.submit(n).unwrap()).collect();
    let shed_errors: Vec<ServeError> = (2..6)
        .map(|n| match queue.submit(n) {
            Err(e) => e,
            Ok(_) => panic!("queue is full: submit must shed"),
        })
        .collect();
    assert!(shed_errors.iter().all(|e| *e == ServeError::Overloaded));
    assert_eq!(queue.shed(), 4);

    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let responses: Vec<_> = accepted
                .into_iter()
                .map(|t| t.wait().expect("accepted queries must be answered"))
                .collect();
            queue.close();
            responses
        });
        engine.run(&queue, &ServeConfig::default());
        let responses = producer.join().unwrap();
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.values.len() == HIDDEN));
    });
    let report = engine.report(Duration::from_millis(1));
    assert_eq!(report.shed, 4);
    assert_eq!(report.queries, 2);
}

/// Network-tier chaos: a `net.read` fault kills a connection between
/// requests. The invariant is isolation — the dying connection takes out
/// exactly one client, the engine never sees the torn request, and the
/// next connection is served answers bit-identical to before the fault.
#[test]
fn net_read_fault_kills_connection_but_engine_keeps_serving() {
    use std::io::BufReader;
    use std::net::TcpStream;
    use stgraph_net::{
        build_resident_cell, http, AdmissionController, ModelMeta, ModelRegistry, NetConfig,
        NetServer, ServeContext, TenantQuota,
    };
    use stgraph_serve::{save_checkpoint, EngineHost};
    use stgraph_tensor::StateDict;

    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();

    // One tenant, published through the real checkpoint path.
    let dir = std::env::temp_dir().join(format!("stgraph-chaos-net-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t0.stgc");
    {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut ps = ParamSet::new();
        stgraph_serve::build_cell("tgcn", &mut ps, FEATURES, HIDDEN, &mut rng).unwrap();
        save_checkpoint(&path, &ps.to_state_dict()).unwrap();
    }
    let registry = Arc::new(ModelRegistry::new(16 << 20));
    registry
        .publish(
            "t0",
            ModelMeta {
                arch: "tgcn".into(),
                features: FEATURES,
                hidden: HIDDEN,
                init_seed: 21,
            },
            &path,
        )
        .unwrap();

    let reg = Arc::clone(&registry);
    let host = EngineHost::spawn(ServeConfig::default(), move || {
        let live = LiveGraph::from_source(&source());
        let mut engine = InferenceEngine::new(Box::new(cell(7)), features(9), live, "seastar");
        engine.set_model_provider(Box::new(move |key| {
            reg.resident(key).ok().and_then(|m| build_resident_cell(&m))
        }));
        engine
    });
    let ctx = Arc::new(ServeContext {
        queue: Arc::clone(host.queue()),
        registry,
        admission: AdmissionController::new(TenantQuota::default()),
        num_nodes: NODES as u32,
    });
    let handle = NetServer::start(
        NetConfig {
            threads: 2,
            ..NetConfig::default()
        },
        ctx,
    )
    .unwrap();

    let exchange = |stream: &TcpStream, reader: &mut BufReader<TcpStream>| {
        let mut w = stream.try_clone().unwrap();
        http::write_request(&mut w, "GET", "/infer?tenant=t0&node=2", b"").unwrap();
        http::read_response(reader)
    };

    // Arm the plan before connecting: the connection's first net.read
    // check passes (baseline request served), the second — evaluated right
    // after the first response is written, before the server blocks on the
    // next read — kills the connection mid-stream.
    stgraph_faultline::set_plan(FaultPlan::new().fail_nth("net.read", 2));
    let conn = TcpStream::connect(handle.http_addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (status, _, baseline) = exchange(&conn, &mut reader).unwrap();
    assert_eq!(status, 200);

    let torn = exchange(&conn, &mut reader);
    stgraph_faultline::clear_plan();
    assert!(
        torn.is_err(),
        "the faulted connection must die, not serve: {torn:?}"
    );

    // Isolation: a fresh connection gets a bit-identical answer — the torn
    // request never reached the engine and no state was corrupted.
    let conn2 = TcpStream::connect(handle.http_addr).unwrap();
    conn2
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader2 = BufReader::new(conn2.try_clone().unwrap());
    let (status, _, after) = exchange(&conn2, &mut reader2).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        baseline, after,
        "post-fault answers must be bit-identical to pre-fault"
    );

    handle.shutdown();
    let report = host.shutdown();
    assert_eq!(report.panics, 0, "no engine panic under a network fault");
}
