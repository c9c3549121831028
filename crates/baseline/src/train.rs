//! PyG-T-style training loops, mirroring `stgraph::train` so the harness
//! can time both frameworks on identical work. The baseline stores every
//! DTDG snapshot fully materialised ([`BaselineDtdg`]) — the storage
//! behaviour the paper's Figure 8 sweep exposes.

use crate::coo::CooGraph;
use crate::model::BaselineTgcn;
use rand::Rng;
use stgraph::train::{edge_logits, epoch_mean, run_sequences, LinkPredBatch};
use stgraph_dyngraph::DtdgSource;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{Tape, Tensor, Var};

/// A DTDG stored PyG-T style: one fully-materialised COO per timestamp,
/// resident for the whole training run.
pub struct BaselineDtdg {
    /// Per-timestamp graphs.
    pub snapshots: Vec<CooGraph>,
}

impl BaselineDtdg {
    /// Materialises every snapshot upfront.
    pub fn new(source: &DtdgSource) -> BaselineDtdg {
        BaselineDtdg {
            snapshots: source
                .snapshots
                .iter()
                .map(|edges| CooGraph::new(source.num_nodes, edges))
                .collect(),
        }
    }

    /// Number of timestamps.
    pub fn num_timestamps(&self) -> usize {
        self.snapshots.len()
    }
}

/// Baseline TGCN + readout for node regression (mirrors
/// `stgraph::train::NodeRegressor` including parameter order).
pub struct BaselineRegressor {
    /// The recurrent cell.
    pub cell: BaselineTgcn,
    readout: Linear,
}

impl BaselineRegressor {
    /// Wraps a cell with a readout head.
    pub fn new(
        params: &mut ParamSet,
        cell: BaselineTgcn,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> BaselineRegressor {
        let readout = Linear::new(params, "readout", cell.hidden_size(), out_dim, true, rng);
        BaselineRegressor { cell, readout }
    }

    /// One step: `(prediction, new_hidden)`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        graph: &CooGraph,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> (Var<'t>, Var<'t>) {
        let h_new = self.cell.step(tape, graph, x, h);
        let pred = self.readout.forward(tape, &h_new.relu());
        (pred, h_new)
    }
}

impl stgraph_tensor::StateDict for BaselineRegressor {
    fn parameters(&self) -> Vec<stgraph_tensor::Param> {
        let mut out = stgraph_tensor::StateDict::parameters(&self.cell);
        out.extend(stgraph_tensor::StateDict::parameters(&self.readout));
        out
    }
}

/// One epoch of node regression on a static graph: the same Algorithm-1
/// driver as `stgraph::train`, but with no buffer-pool scope, as PyG-T
/// allocates every activation fresh.
pub fn train_epoch_node_regression(
    model: &BaselineRegressor,
    graph: &CooGraph,
    opt: &mut Adam,
    features: &[Tensor],
    targets: &[Tensor],
    seq_len: usize,
) -> f32 {
    let sums = run_sequences(features.len(), seq_len, Some(opt), |tape, t, h| {
        let x = tape.constant(features[t].clone());
        let (pred, h_new) = model.forward(tape, graph, &x, h);
        (pred.mse_loss(&targets[t]), h_new)
    });
    epoch_mean(&sums, seq_len, features.len())
}

/// One epoch of link prediction over a fully-materialised DTDG, mirroring
/// `stgraph::train::train_epoch_link_prediction` (same batches and edge
/// scoring; unpooled, like the node-regression epoch above).
pub fn train_epoch_link_prediction(
    cell: &BaselineTgcn,
    dtdg: &BaselineDtdg,
    opt: &mut Adam,
    features: &Tensor,
    batches: &[LinkPredBatch],
    seq_len: usize,
) -> f32 {
    let sums = run_sequences(batches.len(), seq_len, Some(opt), |tape, t, h| {
        let x = tape.constant(features.clone());
        let h_new = cell.step(tape, &dtdg.snapshots[t], &x, h);
        let l = edge_logits(&h_new, &batches[t]).bce_with_logits_loss(&batches[t].labels);
        (l, h_new)
    });
    epoch_mean(&sums, seq_len, batches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn baseline_regression_loss_decreases() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 10;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let graph = CooGraph::new(n, &edges);
        let mut ps = ParamSet::new();
        let cell = BaselineTgcn::new(&mut ps, "t", 3, 6, &mut rng);
        let model = BaselineRegressor::new(&mut ps, cell, 1, &mut rng);
        let mut opt = Adam::new(ps, 0.01);
        let feats: Vec<Tensor> = (0..8)
            .map(|_| Tensor::rand_uniform((n, 3), -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Tensor> = feats
            .iter()
            .map(|x| x.sum_axis1().mul_scalar(1.0 / 3.0).reshape((n, 1)))
            .collect();
        let first = train_epoch_node_regression(&model, &graph, &mut opt, &feats, &targets, 4);
        let mut last = first;
        for _ in 0..30 {
            last = train_epoch_node_regression(&model, &graph, &mut opt, &feats, &targets, 4);
        }
        assert!(last < first * 0.5, "{first} -> {last}");
    }

    #[test]
    fn baseline_dtdg_materialises_all_snapshots() {
        let src = DtdgSource::from_snapshot_edges(
            4,
            vec![vec![(0, 1)], vec![(0, 1), (1, 2)], vec![(1, 2)]],
        );
        let d = BaselineDtdg::new(&src);
        assert_eq!(d.num_timestamps(), 3);
        assert_eq!(d.snapshots[1].num_real_edges, 2);
    }
}
