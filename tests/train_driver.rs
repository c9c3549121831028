//! The one Algorithm-1 driver (`stgraph::train::run_sequences`) behind all
//! six trainers: STGraph's train/eval for node regression and link
//! prediction, and the PyG-T baseline's two training epochs.
//!
//! * Every training epoch fires `train.forward`, `train.backward` and
//!   `train.optimizer` exactly once per sequence — the baseline included,
//!   so per-phase time can be read for both frameworks from one trace.
//! * The driver opens no buffer-pool scope: PyG-T epochs stay unpooled
//!   (the Fig. 5 / Fig. 7 baseline columns depend on it), while STGraph's
//!   callers keep theirs.
//! * Evaluation still drains the State Stack: every push is popped.
//!
//! Span aggregates and pool counters are process-global, so the tests in
//! this file serialise on one lock.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{
    eval_link_prediction, eval_node_regression, link_prediction_batches,
    train_epoch_link_prediction, train_epoch_node_regression, LinkPredBatch, NodeRegressor,
};
use stgraph_dyngraph::{DtdgSource, NaiveGraph};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{pool, Tensor};

const N: usize = 10;
const F: usize = 3;
const H: usize = 4;
/// 7 timestamps in sequences of 3: lengths 3, 3, 1.
const T: usize = 7;
const SEQ_LEN: usize = 3;
const SEQUENCES: u64 = 3;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn ring_edges() -> Vec<(u32, u32)> {
    (0..N as u32).map(|i| (i, (i + 1) % N as u32)).collect()
}

fn signal(seed: u64) -> (Vec<Tensor>, Vec<Tensor>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let feats: Vec<Tensor> = (0..T)
        .map(|_| Tensor::rand_uniform((N, F), -1.0, 1.0, &mut rng))
        .collect();
    let targets = feats
        .iter()
        .map(|x| x.sum_axis1().mul_scalar(1.0 / F as f32).reshape((N, 1)))
        .collect();
    (feats, targets)
}

fn dtdg() -> DtdgSource {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let snaps = (0..T)
        .map(|_| {
            (0..3 * N)
                .map(|_| (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32)))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect();
    DtdgSource::from_snapshot_edges(N, snaps)
}

fn link_inputs() -> (DtdgSource, Vec<LinkPredBatch>, Tensor) {
    let src = dtdg();
    let batches = link_prediction_batches(&src, 8, 5);
    let feats = Tensor::rand_uniform((N, F), -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(6));
    (src, batches, feats)
}

fn static_exec() -> TemporalExecutor {
    TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Static(Snapshot::from_edges(N, &ring_edges())),
    )
}

fn dynamic_exec(src: &DtdgSource) -> TemporalExecutor {
    TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(src)))),
    )
}

/// One STGraph node-regression setup: `(model, params)`.
fn stgraph_regressor() -> (NodeRegressor<Tgcn>, ParamSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", F, H, &mut rng);
    (NodeRegressor::new(&mut ps, cell, 1, &mut rng), ps)
}

/// One STGraph link-prediction cell: `(cell, params)`.
fn stgraph_cell() -> (Tgcn, ParamSet) {
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", F, H, &mut ChaCha8Rng::seed_from_u64(2));
    (cell, ps)
}

fn pygt_regressor_epoch() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let cell = pygt_baseline::BaselineTgcn::new(&mut ps, "t", F, H, &mut rng);
    let model = pygt_baseline::BaselineRegressor::new(&mut ps, cell, 1, &mut rng);
    let graph = pygt_baseline::CooGraph::new(N, &ring_edges());
    let (feats, targets) = signal(4);
    let mut opt = Adam::new(ps, 0.01);
    pygt_baseline::train::train_epoch_node_regression(
        &model, &graph, &mut opt, &feats, &targets, SEQ_LEN,
    );
}

fn pygt_link_epoch() {
    let (src, batches, feats) = link_inputs();
    let mut ps = ParamSet::new();
    let cell =
        pygt_baseline::BaselineTgcn::new(&mut ps, "t", F, H, &mut ChaCha8Rng::seed_from_u64(2));
    let mut opt = Adam::new(ps, 0.01);
    let dtdg = pygt_baseline::BaselineDtdg::new(&src);
    pygt_baseline::train::train_epoch_link_prediction(
        &cell, &dtdg, &mut opt, &feats, &batches, SEQ_LEN,
    );
}

fn stgraph_regressor_epoch() {
    let (model, ps) = stgraph_regressor();
    let (feats, targets) = signal(4);
    let mut opt = Adam::new(ps, 0.01);
    train_epoch_node_regression(&model, &static_exec(), &mut opt, &feats, &targets, SEQ_LEN);
}

fn stgraph_link_epoch() {
    let (src, batches, feats) = link_inputs();
    let (cell, ps) = stgraph_cell();
    let mut opt = Adam::new(ps, 0.01);
    train_epoch_link_prediction(
        &cell,
        &dynamic_exec(&src),
        &mut opt,
        &feats,
        &batches,
        SEQ_LEN,
    );
}

/// `[forward, backward, optimizer]` span completions while `run` executes
/// with tracing on.
fn phase_spans(run: impl FnOnce()) -> [u64; 3] {
    fn counts() -> [u64; 3] {
        let stats = stgraph_telemetry::span::span_stats();
        ["train.forward", "train.backward", "train.optimizer"].map(|name| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, s)| s.count)
        })
    }
    stgraph_telemetry::set_enabled(true);
    let before = counts();
    run();
    let after = counts();
    stgraph_telemetry::set_enabled(false);
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn every_training_epoch_fires_each_phase_span_once_per_sequence() {
    let _g = lock();
    let once = [SEQUENCES; 3];
    assert_eq!(phase_spans(stgraph_regressor_epoch), once, "STGraph node");
    assert_eq!(phase_spans(stgraph_link_epoch), once, "STGraph link");
    assert_eq!(phase_spans(pygt_regressor_epoch), once, "PyG-T node");
    assert_eq!(phase_spans(pygt_link_epoch), once, "PyG-T link");
    // Evaluation runs forward and the stack-draining backward, never a step.
    let (model, _) = stgraph_regressor();
    let (feats, targets) = signal(4);
    let eval = phase_spans(|| {
        eval_node_regression(&model, &static_exec(), &feats, &targets, SEQ_LEN);
    });
    assert_eq!(eval, [SEQUENCES, SEQUENCES, 0], "eval");
}

#[test]
fn pygt_epochs_never_touch_the_buffer_pool() {
    let _g = lock();
    let hits = |run: fn()| {
        let before = pool::stats().hits;
        run();
        pool::stats().hits - before
    };
    assert_eq!(hits(pygt_regressor_epoch), 0, "PyG-T node epoch was pooled");
    assert_eq!(hits(pygt_link_epoch), 0, "PyG-T link epoch was pooled");
    // The STGraph callers keep their own scope (unless pooling is off).
    let pooling_off = std::env::var("STGRAPH_NO_POOL").is_ok_and(|v| !v.is_empty() && v != "0");
    if !pooling_off {
        assert!(
            hits(stgraph_regressor_epoch) > 0,
            "STGraph epoch lost its pool"
        );
    }
}

#[test]
fn evaluation_drains_the_state_stack() {
    let _g = lock();
    let drained = |exec: &TemporalExecutor, what: &str| {
        let (pushes, pops, _, bytes) = exec.state_stack_stats();
        assert!(pushes > 0, "{what}: nothing was pushed");
        assert_eq!(pushes, pops, "{what}: pushes != pops");
        assert_eq!(bytes, 0, "{what}: bytes left on the stack");
    };

    let (model, _) = stgraph_regressor();
    let (feats, targets) = signal(4);
    let exec = static_exec();
    eval_node_regression(&model, &exec, &feats, &targets, SEQ_LEN);
    drained(&exec, "eval_node_regression");

    let (src, batches, feats) = link_inputs();
    let (cell, _) = stgraph_cell();
    let exec = dynamic_exec(&src);
    eval_link_prediction(&cell, &exec, &feats, &batches, SEQ_LEN);
    drained(&exec, "eval_link_prediction");
}
