//! `ctdg_train` — continuous-time link prediction on the fraud stream.
//!
//! T-CSR + temporal sampler + TGN memory + gather/scatter tensor ops; no
//! seastar and no GPMA, so this workload *bypasses* both mechanisms the
//! other two training workloads stress and guards the third family.

use crate::harness::{self, Args, Pass, Report};
use crate::stats::Pct;
use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;
use stgraph_ctdg::{
    sample, CtdgConfig, CtdgReport, CtdgWorkload, SamplerConfig, Strategy, TCsr, TgnMemory,
    TgnMemoryConfig,
};
use stgraph_datasets::TimedEdge;
use stgraph_tensor::{PoolScope, Shape, Tape, Tensor};

const NODES: usize = 1_000;
const EVENTS: usize = 2_000;
const DIM: usize = 32;
const K: usize = 10;
const BATCH: usize = 200;
const WARMUP_OPS: u64 = 2;
/// Held-out AUC the first epoch must clear (chance is 0.5).
const MIN_TEST_AUC: f32 = 0.6;
/// Chunk size `CtdgWorkload::new` indexes the stream with.
const INGEST_CHUNK: usize = 4096;
/// Full passes of each layer replay in the traced run.
const REPLAY_PASSES: usize = 5;

fn config(seed: u64) -> CtdgConfig {
    CtdgConfig {
        num_nodes: NODES,
        num_events: EVENTS,
        dim: DIM,
        k: K,
        batch_size: BATCH,
        epochs: 1,
        lr: 1e-2,
        strategy: Strategy::Recent,
        seed,
    }
}

/// The op: memory reset → train slice → validation → test.
fn op(w: &mut CtdgWorkload) -> (CtdgReport, Result<u64, ()>) {
    let r = w.run();
    let ok = r.test_auc.is_finite() && r.epochs.iter().all(|e| e.loss.is_finite());
    let events = (r.split.0 + r.split.1 + r.split.2) as u64;
    (r, if ok { Ok(events) } else { Err(()) })
}

fn report_bits(r: &CtdgReport) -> Vec<u32> {
    let mut bits = vec![r.test_auc.to_bits()];
    for e in &r.epochs {
        bits.extend([e.loss.to_bits(), e.val_auc.to_bits()]);
    }
    bits
}

/// Same-seed set-ups must agree bit for bit, and the model must learn.
fn oracle(first_runs: &[CtdgReport]) -> Vec<String> {
    let mut errors = Vec::new();
    let want = report_bits(&first_runs[0]);
    for (i, r) in first_runs.iter().enumerate().skip(1) {
        if report_bits(r) != want {
            errors.push(format!(
                "ctdg_train oracle: same-seed run {i} differs from run 0 ({r:?} vs {:?})",
                first_runs[0]
            ));
        }
    }
    let auc = first_runs[0].test_auc;
    if auc.is_nan() || auc <= MIN_TEST_AUC {
        errors.push(format!(
            "ctdg_train oracle: test AUC {auc} after the first epoch, need > {MIN_TEST_AUC}"
        ));
    }
    errors
}

/// Times the CTDG layers on the workload's own store and batch shapes,
/// outside the ops (`CtdgWorkload::run` is opaque from outside).
fn replay_layers(
    w: &CtdgWorkload,
    seed: u64,
    tracer: &Tracer,
    op_ms: f64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let _pool = PoolScope::new();
    let events: Vec<TimedEdge> = w.store().log().as_slice().to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e91);
    let (mut queries, mut valid) = (0usize, 0usize);
    let memory = TgnMemory::new(TgnMemoryConfig {
        num_nodes: NODES,
        dim: DIM,
        seed,
    });

    for pass in 0..REPLAY_PASSES {
        memory.reset_state();
        for (b, chunk) in events.chunks(BATCH).enumerate() {
            // The op's row layout: sources, destinations, corrupted
            // destinations, all stamped with the event times.
            let n = chunk.len();
            let mut rows: Vec<u32> = Vec::with_capacity(3 * n);
            rows.extend(chunk.iter().map(|e| e.src));
            rows.extend(chunk.iter().map(|e| e.dst));
            rows.extend((0..n).map(|_| rng.gen_range(0..NODES as u32)));
            let times: Vec<u64> = chunk.iter().map(|e| e.t).cycle().take(3 * n).collect();
            let q: Vec<(u32, u64)> = rows.iter().copied().zip(times.iter().copied()).collect();

            let ns = {
                let _sp = tracer.span("ctdg.sample");
                sample(
                    w.store().index(),
                    &q,
                    &SamplerConfig {
                        k: K,
                        strategy: Strategy::Recent,
                        seed: seed ^ ((pass * 1_000_003 + b) as u64),
                    },
                )
            };
            queries += q.len();
            valid += ns.total_valid();

            let tape = Tape::new();
            let h = tape.constant(memory.read_rows(&rows));
            let partner = tape.constant(Tensor::zeros(Shape::Mat(3 * n, DIM)));
            let enc = tape.constant(memory.time_encode(&rows, &times));
            let h2 = {
                let _sp = tracer.span("ctdg.memory_update");
                memory.update(&tape, &h, &partner, &enc)
            };
            let upd = Tensor::from_vec(
                Shape::Mat(2 * n, DIM),
                h2.value().data()[..2 * n * DIM].to_vec(),
            );
            let _sp = tracer.span("ctdg.memory_commit");
            memory.commit(&rows[..2 * n], &upd, &times[..2 * n]);
        }
        let mut index = TCsr::new(NODES);
        let _sp = tracer.span("ctdg.tcsr_ingest");
        for chunk in events.chunks(INGEST_CHUNK) {
            index.ingest_batch(chunk);
        }
    }

    let total = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let batches = (events.len().div_ceil(BATCH) * REPLAY_PASSES) as f64;
    let (sample_ms, update_ms, commit_ms) = (
        total("ctdg.sample"),
        total("ctdg.memory_update"),
        total("ctdg.memory_commit"),
    );
    layers.insert("ctdg.sample_us_per_query", sample_ms * 1e3 / queries as f64);
    layers.insert(
        "ctdg.sample_valid_ratio",
        valid as f64 / (queries * K) as f64,
    );
    layers.insert("ctdg.memory_update_ms_per_batch", update_ms / batches);
    layers.insert("ctdg.memory_commit_ms_per_batch", commit_ms / batches);
    layers.insert(
        "ctdg.tcsr_ingest_events_per_s",
        (events.len() * REPLAY_PASSES) as f64 / (total("ctdg.tcsr_ingest") / 1e3),
    );
    // One op walks every batch once, so one pass of the replayed calls is
    // the part of an op they account for.
    layers.insert(
        "ctdg.replay_share",
        (sample_ms + update_ms + commit_ms) / REPLAY_PASSES as f64 / op_ms,
    );
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let seed = args.seed;
    let passes = if args.trace { 1 } else { harness::PASSES };
    let mut report = Report {
        passes: Vec::new(),
        tail: Pct::P90,
        work_unit: "events",
        layers: BTreeMap::new(),
        errors: Vec::new(),
        notes: Vec::new(),
    };
    // The first op of every pass: same seed, so they must agree bit for bit.
    let mut first_runs = Vec::new();
    let mut last_auc = f32::NAN;
    for _ in 0..passes {
        let t = Instant::now();
        let mut w = CtdgWorkload::new(config(seed));
        first_runs.push(op(&mut w).0);
        let setup_s = t.elapsed().as_secs_f64();
        for _ in 0..WARMUP_OPS {
            let _ = op(&mut w);
        }
        harness::reset_mem_peaks();
        let window = if !args.trace {
            harness::measure(args.seconds / passes as f64, |_| op(&mut w).1)
        } else {
            // The op is opaque, so there is nothing to trace inside it: the
            // window is untraced and the layers are replayed afterwards.
            let window = harness::measure(args.seconds / 2.0, |_| op(&mut w).1);
            tracer.set_enabled(true);
            replay_layers(&w, seed, tracer, window.p50(), &mut report.layers);
            tracer.set_enabled(false);
            report
                .layers
                .insert("bench.rss_peak_mb", harness::rss_peak_mb());
            // A second same-seed set-up for the oracle to compare with.
            first_runs.push(op(&mut CtdgWorkload::new(config(seed))).0);
            window
        };
        report.passes.push(Pass {
            setup_s,
            window,
            peak_mem_bytes: harness::peak_mem_bytes(),
        });
        last_auc = op(&mut w).0.test_auc;
    }
    report.errors = oracle(&first_runs);
    report.notes.push(format!(
        "fraud stream: {NODES} nodes, {EVENTS} events, dim {DIM}, k {K} recent, batch {BATCH}, 1 epoch per op, {WARMUP_OPS} warm-up ops; test AUC {:.4} after the first op, {last_auc:.4} after the last",
        first_runs[0].test_auc
    ));
    report
}
