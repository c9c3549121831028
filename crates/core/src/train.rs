//! Training per Algorithm 1 (§V.B): timestamps are partitioned into ordered
//! sequences; forward propagation walks a sequence accumulating the loss
//! (pushing State/Graph-Stack frames), then a single reverse pass pops every
//! frame in LIFO order (the tape's reverse traversal), after which the
//! optimizer steps. Hidden state is carried across sequences *detached*
//! (truncated BPTT), matching how PyG-T's reference training loops handle
//! sequence boundaries.
//!
//! [`run_sequences`] is that procedure, written once. The four trainers
//! here and the PyG-T baseline's two are per-timestamp closures over it.

use crate::executor::TemporalExecutor;
use crate::tgnn::RecurrentCell;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::rc::Rc;
use stgraph_dyngraph::DtdgSource;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{Param, StateDict, Tape, Tensor, Var};

/// Algorithm 1 over `total` timestamps split into sequences of `seq_len`.
///
/// `step(tape, t, h)` runs timestamp `t` from hidden state `h` and returns
/// `(loss_t, h_new)`. Per sequence the driver sums the losses in timestamp
/// order on one tape, detaches the last hidden state into the next
/// sequence, and runs one backward: with `opt`, on the mean loss followed
/// by one optimizer step; without, on `loss × 0` — evaluation still pops
/// every stack frame but leaves no gradient. It opens the `train.forward`,
/// `train.backward` and (training only) `train.optimizer` spans and no
/// buffer-pool scope, so the caller decides pooling.
///
/// Returns each sequence's summed loss; callers apply their own reduction.
pub fn run_sequences<F>(
    total: usize,
    seq_len: usize,
    mut opt: Option<&mut Adam>,
    mut step: F,
) -> Vec<f32>
where
    F: for<'t> FnMut(&'t Tape, usize, Option<&Var<'t>>) -> (Var<'t>, Var<'t>),
{
    assert!(seq_len >= 1);
    let mut carried: Option<Tensor> = None;
    let mut sums = Vec::with_capacity(total.div_ceil(seq_len));
    let mut start = 0usize;
    while start < total {
        let end = (start + seq_len).min(total);
        if let Some(opt) = opt.as_deref() {
            opt.zero_grad();
        }
        let tape = Tape::new();
        let mut h: Option<Var> = carried.take().map(|t| tape.constant(t));
        let mut seq_loss: Option<Var> = None;
        {
            let _sp = stgraph_telemetry::span("train.forward");
            for t in start..end {
                let (l, h_new) = step(&tape, t, h.as_ref());
                seq_loss = Some(match seq_loss {
                    Some(acc) => acc.add(&l),
                    None => l,
                });
                h = Some(h_new);
            }
        }
        let scale = opt.as_ref().map_or(0.0, |_| 1.0 / (end - start) as f32);
        // The sum's buffer is released before the backward, which reuses it.
        let loss = {
            let seq_loss = seq_loss.expect("non-empty sequence");
            sums.push(seq_loss.value().item());
            seq_loss.mul_scalar(scale)
        };
        carried = h.map(|v| v.value().clone()); // detach across sequences
        {
            let _sp = stgraph_telemetry::span("train.backward");
            tape.backward(&loss);
        }
        if let Some(opt) = opt.as_deref_mut() {
            let _sp = stgraph_telemetry::span("train.optimizer");
            opt.step();
        }
        start = end;
    }
    sums
}

/// The training reduction over [`run_sequences`]' sums: the mean loss each
/// backward ran on, weighted by its sequence's length, averaged over all
/// `total` timestamps.
pub fn epoch_mean(seq_sums: &[f32], seq_len: usize, total: usize) -> f32 {
    let mut acc = 0.0f64;
    for (i, &sum) in seq_sums.iter().enumerate() {
        let n = seq_len.min(total - i * seq_len);
        acc += (sum * (1.0 / n as f32)) as f64 * n as f64;
    }
    (acc / total as f64) as f32
}

/// A recurrent cell plus a readout head for per-node regression — the
/// "RecurrentGCN" pattern of PyG-T's examples (`h = cell(x); relu; linear`).
pub struct NodeRegressor<C: RecurrentCell> {
    /// The temporal cell.
    pub cell: C,
    readout: Linear,
}

impl<C: RecurrentCell> NodeRegressor<C> {
    /// Wraps a cell with a readout producing `out_dim` values per node.
    pub fn new(
        params: &mut ParamSet,
        cell: C,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> NodeRegressor<C> {
        let readout = Linear::new(params, "readout", cell.hidden_size(), out_dim, true, rng);
        NodeRegressor { cell, readout }
    }

    /// One step: returns `(prediction, new_hidden)`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> (Var<'t>, Var<'t>) {
        let h_new = self.cell.step(tape, exec, t, x, h);
        let pred = self.readout.forward(tape, &h_new.relu());
        (pred, h_new)
    }
}

impl<C: RecurrentCell + StateDict> StateDict for NodeRegressor<C> {
    fn parameters(&self) -> Vec<Param> {
        let mut out = self.cell.parameters();
        out.extend(self.readout.parameters());
        out
    }
}

/// Runs one Algorithm-1 epoch of node regression (MSE). Returns the mean
/// per-timestamp loss.
pub fn train_epoch_node_regression<C: RecurrentCell>(
    model: &NodeRegressor<C>,
    exec: &TemporalExecutor,
    opt: &mut Adam,
    features: &[Tensor],
    targets: &[Tensor],
    seq_len: usize,
) -> f32 {
    assert_eq!(features.len(), targets.len());
    // Epoch-level buffer-pool scope: activations and scratch recycle across
    // every timestamp and sequence of this epoch, released on return.
    let _pool = stgraph_tensor::PoolScope::new();
    let sums = run_sequences(features.len(), seq_len, Some(opt), |tape, t, h| {
        let x = tape.constant(features[t].clone());
        let (pred, h_new) = model.forward(tape, exec, t, &x, h);
        (pred.mse_loss(&targets[t]), h_new)
    });
    epoch_mean(&sums, seq_len, features.len())
}

/// Evaluation (no training): mean MSE of the model over all timestamps.
pub fn eval_node_regression<C: RecurrentCell>(
    model: &NodeRegressor<C>,
    exec: &TemporalExecutor,
    features: &[Tensor],
    targets: &[Tensor],
    seq_len: usize,
) -> f32 {
    let _pool = stgraph_tensor::PoolScope::new();
    let sums = run_sequences(features.len(), seq_len, None, |tape, t, h| {
        let x = tape.constant(features[t].clone());
        let (pred, h_new) = model.forward(tape, exec, t, &x, h);
        (pred.mse_loss(&targets[t]), h_new)
    });
    let sum = sums.iter().fold(0.0f64, |acc, &s| acc + s as f64);
    (sum / features.len() as f64) as f32
}

/// One timestamp's link-prediction batch: candidate edges and 0/1 labels.
#[derive(Clone)]
pub struct LinkPredBatch {
    /// Source endpoint per candidate edge.
    pub src: Rc<Vec<u32>>,
    /// Destination endpoint per candidate edge.
    pub dst: Rc<Vec<u32>>,
    /// `[k, 1]` labels: 1 = edge present at this timestamp, 0 = negative.
    pub labels: Tensor,
}

/// Builds deterministic per-timestamp link-prediction batches from a DTDG:
/// up to `max_pos` positives sampled from the snapshot's edges plus an equal
/// number of uniformly-sampled negatives.
pub fn link_prediction_batches(
    source: &DtdgSource,
    max_pos: usize,
    seed: u64,
) -> Vec<LinkPredBatch> {
    let n = source.num_nodes as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    source
        .snapshots
        .iter()
        .map(|edges| {
            let present: HashSet<(u32, u32)> = edges.iter().copied().collect();
            let k = edges.len().min(max_pos);
            let stride = (edges.len() / k.max(1)).max(1);
            let mut src = Vec::with_capacity(2 * k);
            let mut dst = Vec::with_capacity(2 * k);
            let mut labels = Vec::with_capacity(2 * k);
            for e in edges.iter().step_by(stride).take(k) {
                src.push(e.0);
                dst.push(e.1);
                labels.push(1.0);
            }
            for _ in 0..k {
                let (mut u, mut v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                while present.contains(&(u, v)) {
                    u = rng.gen_range(0..n);
                    v = rng.gen_range(0..n);
                }
                src.push(u);
                dst.push(v);
                labels.push(0.0);
            }
            let len = labels.len();
            LinkPredBatch {
                src: Rc::new(src),
                dst: Rc::new(dst),
                labels: Tensor::from_vec((len, 1), labels),
            }
        })
        .collect()
}

/// Scores candidate edges from a hidden state: `logit(u,v) = h_u · h_v`.
pub fn edge_logits<'t>(h: &Var<'t>, batch: &LinkPredBatch) -> Var<'t> {
    let hu = h.gather_rows(Rc::clone(&batch.src));
    let hv = h.gather_rows(Rc::clone(&batch.dst));
    hu.mul(&hv).sum_cols()
}

/// Runs one Algorithm-1 epoch of link prediction (BCE-with-logits) over a
/// DTDG. `features` is the static per-node input used at every timestamp.
/// Returns the mean per-timestamp loss.
pub fn train_epoch_link_prediction<C: RecurrentCell>(
    cell: &C,
    exec: &TemporalExecutor,
    opt: &mut Adam,
    features: &Tensor,
    batches: &[LinkPredBatch],
    seq_len: usize,
) -> f32 {
    let _pool = stgraph_tensor::PoolScope::new();
    let sums = run_sequences(batches.len(), seq_len, Some(opt), |tape, t, h| {
        let x = tape.constant(features.clone());
        let h_new = cell.step(tape, exec, t, &x, h);
        let l = edge_logits(&h_new, &batches[t]).bce_with_logits_loss(&batches[t].labels);
        (l, h_new)
    });
    epoch_mean(&sums, seq_len, batches.len())
}

/// Link-prediction evaluation: runs the model over all timestamps without
/// training and returns `(mean BCE loss, ROC-AUC, binary accuracy)` pooled
/// over every candidate edge.
pub fn eval_link_prediction<C: RecurrentCell>(
    cell: &C,
    exec: &TemporalExecutor,
    features: &Tensor,
    batches: &[LinkPredBatch],
    seq_len: usize,
) -> (f32, f32, f32) {
    let _pool = stgraph_tensor::PoolScope::new();
    // Each timestamp's BCE is added in f64; the f32 sequence sums would round
    // differently.
    let mut loss_sum = 0.0f64;
    let mut all_logits: Vec<f32> = Vec::new();
    let mut all_labels: Vec<f32> = Vec::new();
    run_sequences(batches.len(), seq_len, None, |tape, t, h| {
        let x = tape.constant(features.clone());
        let h_new = cell.step(tape, exec, t, &x, h);
        let logits = edge_logits(&h_new, &batches[t]);
        all_logits.extend(logits.value().data());
        all_labels.extend(batches[t].labels.data());
        let l = logits.bce_with_logits_loss(&batches[t].labels);
        loss_sum += l.value().item() as f64;
        (l, h_new)
    });
    let n = all_logits.len();
    let logits_t = Tensor::from_vec(n, all_logits);
    let labels_t = Tensor::from_vec(n, all_labels);
    (
        (loss_sum / batches.len() as f64) as f32,
        crate::metrics::roc_auc(&logits_t, &labels_t),
        crate::metrics::binary_accuracy(&logits_t, &labels_t),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::create_backend;
    use crate::executor::GraphSource;
    use crate::tgnn::Tgcn;
    use std::cell::RefCell;
    use stgraph_dyngraph::{GpmaGraph, NaiveGraph};
    use stgraph_graph::base::Snapshot;

    fn ring_snapshot(n: usize) -> Snapshot {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Snapshot::from_edges(n, &edges)
    }

    fn static_exec(n: usize) -> TemporalExecutor {
        TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Static(ring_snapshot(n)),
        )
    }

    fn synthetic_signal(n: usize, f: usize, t: usize, seed: u64) -> (Vec<Tensor>, Vec<Tensor>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let feats: Vec<Tensor> = (0..t)
            .map(|_| Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng))
            .collect();
        // Learnable target: mean of own features (per node) — solvable by a
        // TGCN with enough epochs.
        let targets: Vec<Tensor> = feats
            .iter()
            .map(|x| {
                let rows = x.rows();
                x.sum_axis1().mul_scalar(1.0 / f as f32).reshape((rows, 1))
            })
            .collect();
        (feats, targets)
    }

    #[test]
    fn node_regression_loss_decreases() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 12;
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 4, 8, &mut rng);
        let model = NodeRegressor::new(&mut ps, cell, 1, &mut rng);
        let exec = static_exec(n);
        let mut opt = Adam::new(ps.clone(), 0.01);
        let (feats, targets) = synthetic_signal(n, 4, 10, 8);
        let first = train_epoch_node_regression(&model, &exec, &mut opt, &feats, &targets, 5);
        let mut last = first;
        for _ in 0..30 {
            last = train_epoch_node_regression(&model, &exec, &mut opt, &feats, &targets, 5);
        }
        assert!(last < first * 0.5, "loss should halve: {first} -> {last}");
        // Stacks balanced after the whole run.
        let (pushes, pops, _, bytes) = exec.state_stack_stats();
        assert_eq!(pushes, pops);
        assert_eq!(bytes, 0);
    }

    #[test]
    fn driver_sums_each_sequence_and_carries_the_hidden_state() {
        let mut seen = Vec::new();
        let sums = run_sequences(7, 3, None, |tape, t, h| {
            seen.push((t, h.map(|h| h.value().item())));
            let l = tape.constant(Tensor::from_vec(1, vec![t as f32]));
            (l.clone(), l)
        });
        assert_eq!(sums, vec![3.0, 12.0, 6.0]);
        assert_eq!(seen[0], (0, None));
        // Detached across the boundary: sequence 2 starts from t = 2's state.
        assert_eq!(seen[3], (3, Some(2.0)));
        // Means 1, 4, 6 weighted by lengths 3, 3, 1.
        assert_eq!(epoch_mean(&sums, 3, 7), 3.0);
    }

    #[test]
    fn eval_leaves_every_gradient_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 8;
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 3, 4, &mut rng);
        let model = NodeRegressor::new(&mut ps, cell, 1, &mut rng);
        let (feats, targets) = synthetic_signal(n, 3, 5, 4);
        eval_node_regression(&model, &static_exec(n), &feats, &targets, 2);
        for p in ps.iter() {
            assert!(p.grad().data().iter().all(|&g| g == 0.0), "{}", p.name());
        }
    }

    #[test]
    fn eval_matches_train_loss_on_frozen_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 8;
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 3, 4, &mut rng);
        let model = NodeRegressor::new(&mut ps, cell, 1, &mut rng);
        let exec = static_exec(n);
        let (feats, targets) = synthetic_signal(n, 3, 6, 10);
        let e1 = eval_node_regression(&model, &exec, &feats, &targets, 3);
        let e2 = eval_node_regression(&model, &exec, &feats, &targets, 3);
        assert!((e1 - e2).abs() < 1e-6, "eval must be deterministic");
    }

    fn dtdg_source(n: u32, t: usize, seed: u64) -> DtdgSource {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cur: std::collections::BTreeSet<(u32, u32)> = (0..3 * n)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let mut snaps = vec![cur.iter().copied().collect::<Vec<_>>()];
        for _ in 1..t {
            let removals: Vec<(u32, u32)> =
                cur.iter().copied().filter(|_| rng.gen_bool(0.08)).collect();
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
    fn link_prediction_batches_are_balanced_and_deterministic() {
        let src = dtdg_source(20, 4, 11);
        let a = link_prediction_batches(&src, 16, 42);
        let b = link_prediction_batches(&src, 16, 42);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
            let pos: f32 = x.labels.data().iter().sum();
            assert!((pos - x.labels.numel() as f32 / 2.0).abs() < 0.5);
        }
    }

    #[test]
    fn link_prediction_auc_improves_with_training() {
        let src = dtdg_source(20, 6, 21);
        let batches = link_prediction_batches(&src, 32, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 4, 8, &mut rng);
        let exec = TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(&src)))),
        );
        let feats = Tensor::rand_uniform((20, 4), -1.0, 1.0, &mut rng);
        let mut opt = Adam::new(ps, 0.02);
        let (loss0, auc0, _) = eval_link_prediction(&cell, &exec, &feats, &batches, 3);
        for _ in 0..15 {
            train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 3);
        }
        let (loss1, auc1, acc1) = eval_link_prediction(&cell, &exec, &feats, &batches, 3);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
        assert!(auc1 > auc0.max(0.6), "AUC {auc0} -> {auc1}");
        assert!(acc1 > 0.55, "accuracy {acc1}");
    }

    #[test]
    fn link_prediction_trains_on_naive_and_gpma_identically() {
        let src = dtdg_source(16, 5, 12);
        let batches = link_prediction_batches(&src, 24, 7);
        let feats = {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            Tensor::rand_uniform((16, 4), -1.0, 1.0, &mut rng)
        };
        let run = |source: GraphSource| -> Vec<f32> {
            let mut rng = ChaCha8Rng::seed_from_u64(14);
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "t", 4, 6, &mut rng);
            let exec = TemporalExecutor::new(create_backend("seastar"), source);
            let mut opt = Adam::new(ps, 0.01);
            (0..3)
                .map(|_| train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 3))
                .collect()
        };
        let naive = run(GraphSource::Dynamic(Rc::new(RefCell::new(
            NaiveGraph::new(&src),
        ))));
        let gpma = run(GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(
            &src,
        )))));
        for (a, b) in naive.iter().zip(&gpma) {
            assert!((a - b).abs() < 1e-3, "naive {a} vs gpma {b}");
        }
        // And the loss goes down.
        assert!(naive[2] < naive[0], "losses {naive:?}");
    }
}
