//! End-to-end serve smoke: train a TGCN for 2 epochs on a dynamic dataset,
//! checkpoint it, load the checkpoint into a *fresh* model, and serve 100+
//! queries through the micro-batching engine while the update stream
//! replays. Every served value must be bit-identical to a direct forward
//! chain computed with the original trained model — proving the checkpoint
//! transported the weights faithfully and the engine's batching changes
//! nothing numerically.
//!
//! The smoke runs as a two-mode matrix, not just the frozen-checkpoint
//! path: with `online = true` an [`OnlineTrainer`] rides the same engine,
//! taking one gradient step per stream batch and publishing each weight
//! generation behind the generation guard — and the served values must
//! then match an *online* direct replay (forward at generation `g` with
//! the weights published at `g`) just as bitwise.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{link_prediction_batches, train_epoch_link_prediction};
use stgraph_datasets::load_dynamic;
use stgraph_dyngraph::{DtdgSource, GpmaGraph};
use stgraph_serve::engine::{InferenceEngine, RequestQueue, ServeConfig, Ticket};
use stgraph_serve::oracle::direct_chain;
use stgraph_serve::{load_into, save_model, LiveGraph, OnlineConfig, OnlineTrainer, DEFAULT_MODEL};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::Tensor;

const FEATURES: usize = 4;
const HIDDEN: usize = 6;
const ONLINE_SEED: u64 = 17;
const ONLINE_BATCH: usize = 16;

fn online_config() -> OnlineConfig {
    OnlineConfig {
        seed: ONLINE_SEED,
        batch_size: ONLINE_BATCH,
        ..OnlineConfig::default()
    }
}

fn run(online: bool) {
    let tag = if online { "online" } else { "frozen" };
    let path = std::env::temp_dir().join(format!("stgc-smoke-{tag}-{}.stgc", std::process::id()));

    // A small dynamic dataset: 6 generations.
    let raw = load_dynamic("sx-mathoverflow", 300);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, 8.0);
    src.snapshots.truncate(6);
    let generations = src.num_timestamps();

    // Train 2 epochs of link prediction, then checkpoint.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "cell", FEATURES, HIDDEN, &mut rng);
    let trained = ps.clone();
    let mut opt = Adam::new(ps, 0.01);
    let feats = Tensor::rand_uniform((src.num_nodes, FEATURES), -1.0, 1.0, &mut rng);
    let batches = link_prediction_batches(&src, 64, 3);
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src)))),
    );
    for _ in 0..2 {
        train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 3);
    }
    save_model(&path, &trained).unwrap();

    // Load into a fresh, differently-initialised model.
    let mut ps2 = ParamSet::new();
    let cell2 = Tgcn::new(
        &mut ps2,
        "cell",
        FEATURES,
        HIDDEN,
        &mut ChaCha8Rng::seed_from_u64(99),
    );
    load_into(&path, &ps2).unwrap();

    // Oracle computed with the ORIGINAL trained cell; the engine uses only
    // the checkpoint-restored copy. Bitwise agreement therefore proves the
    // checkpoint + engine pipeline end to end. In online mode the oracle
    // additionally runs its own trainer replica so its weights walk the
    // same published generations.
    let mut oracle = online.then(|| {
        let mut t =
            OnlineTrainer::new("tgcn", FEATURES, HIDDEN, src.num_nodes, online_config()).unwrap();
        t.load_weights(&trained.state_dict()).unwrap();
        t
    });
    let expected =
        direct_chain(&src, &feats, &cell, oracle.as_mut().map(|t| (t, &trained))).unwrap();

    let live = LiveGraph::from_source(&src);
    let mut engine = InferenceEngine::new(Box::new(cell2), feats.clone(), live, "seastar");
    if online {
        let mut trainer =
            OnlineTrainer::new("tgcn", FEATURES, HIDDEN, src.num_nodes, online_config()).unwrap();
        trainer.load_weights(&ps2.state_dict()).unwrap();
        engine.attach_online(trainer, DEFAULT_MODEL, ps2.clone());
    }
    let queue = RequestQueue::new(128);
    let config = ServeConfig {
        queue_capacity: 128,
        ..ServeConfig::default()
    };
    let per_gen = 100usize.div_ceil(generations);
    let diffs = src.diffs();

    let start = std::time::Instant::now();
    let responses = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(123);
            let mut responses = Vec::new();
            #[allow(clippy::needless_range_loop)] // g is a generation, not just an index
            for g in 0..generations {
                use rand::Rng;
                let tickets: Vec<Ticket> = (0..per_gen)
                    .map(|_| {
                        queue
                            .submit(rng.gen_range(0..src.num_nodes as u32))
                            .unwrap()
                    })
                    .collect();
                responses.extend(tickets.into_iter().map(|t| t.wait().unwrap()));
                if g + 1 < generations {
                    queue.advance(diffs[g].clone());
                }
            }
            queue.close();
            responses
        });
        engine.run(&queue, &config);
        producer.join().unwrap()
    });
    let elapsed = start.elapsed();

    assert!(responses.len() >= 100, "served {} queries", responses.len());
    for resp in &responses {
        let want = &expected[resp.generation as usize];
        let want_bits: Vec<u32> = (0..HIDDEN)
            .map(|j| want.at(resp.node as usize, j).to_bits())
            .collect();
        let got_bits: Vec<u32> = resp.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got_bits, want_bits,
            "node {} at generation {} must match the direct replay bitwise (online={online})",
            resp.node, resp.generation
        );
    }

    // The report is fully populated: counters, percentiles, ingest and
    // pool/memory stats all reflect the run.
    let report = engine.report(elapsed);
    assert_eq!(report.queries, responses.len() as u64);
    assert_eq!(report.forwards, generations as u64);
    assert_eq!(report.generation, generations as u64 - 1);
    assert_eq!(report.ingest.batches, generations as u64 - 1);
    assert!(report.p99 >= report.p50);
    assert!(report.p50 > Duration::ZERO);
    assert!(report.throughput_qps() > 0.0);
    assert!(
        report.pool.hits + report.pool.misses > 0,
        "pool counters wired"
    );
    let text = format!("{report}");
    assert!(text.contains("latency: p50"));
    assert!(text.contains("buffer pool:"));

    if online {
        // The trainer actually trained: one committed step and one
        // published weight generation per applied stream batch.
        let stats = report.online.expect("online stats in the report");
        assert_eq!(stats.steps, generations as u64 - 1);
        assert_eq!(stats.weight_generation, generations as u64 - 1);
        assert!(!stats.halted);
        assert!(text.contains("online:"), "report prints the online line");
        let trainer = engine.take_online().expect("trainer still attached");
        assert_eq!(trainer.trajectory().len(), generations - 1);
        assert!(trainer.trajectory().iter().all(|l| l.is_finite()));
    } else {
        assert!(report.online.is_none(), "frozen mode attaches no trainer");
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn train_checkpoint_serve_end_to_end() {
    run(false);
}

#[test]
fn train_checkpoint_serve_end_to_end_online() {
    run(true);
}
