//! Training trajectories pinned bit for bit: every parameter, gradient and
//! loss bit after a few epochs of three models — TGCN link prediction over
//! a `GpmaGraph` (the `dtdg_train` shape), TGCN node regression over a
//! static graph, and the CTDG TGN — folded into one FNV-1a hash each.
//!
//! A change to how the tape schedules or skips gradient work (which ops
//! are recorded, which backward kernels launch, which snapshots are
//! rewound) must leave every one of these bits where it was.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{
    eval_link_prediction, eval_node_regression, link_prediction_batches,
    train_epoch_link_prediction, train_epoch_node_regression, NodeRegressor,
};
use stgraph_ctdg::{CtdgConfig, CtdgWorkload};
use stgraph_datasets::{load_dynamic, load_static};
use stgraph_dyngraph::{DtdgSource, GpmaGraph};
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_serve::CheckpointManager;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{StateDict, Tensor};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        xs.iter().for_each(|x| self.word(x.to_bits()));
    }

    fn params(&mut self, model: &impl StateDict) {
        for p in model.parameters() {
            self.floats(p.value().data());
            self.floats(p.grad().data());
        }
    }
}

/// `dtdg_train`'s model and store: SO at 1/48, 5 % windows, F 8, hidden
/// 16, sequences of 5, over a `GpmaGraph` (the first 10 timestamps). One
/// training epoch, then one evaluation pass, which rewinds the store
/// across the epoch boundary.
#[test]
fn dtdg_tgcn_over_gpma_is_pinned() {
    let seed = 1;
    let raw = load_dynamic("SO", 48);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, 5.0);
    src.snapshots.truncate(10);
    let batches = link_prediction_batches(&src, 512, seed);
    let feats = Tensor::rand_uniform(
        (src.num_nodes, 8),
        -1.0,
        1.0,
        &mut ChaCha8Rng::seed_from_u64(seed ^ 0x0d0d),
    );
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src)))),
    );
    let mut params = ParamSet::new();
    let cell = Tgcn::new(
        &mut params,
        "tgcn",
        8,
        16,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    let mut opt = Adam::new(params, 0.01);
    let mut h = Fnv::new();
    let loss = train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 5);
    h.word(loss.to_bits());
    let (loss, auc, acc) = eval_link_prediction(&cell, &exec, &feats, &batches, 5);
    h.floats(&[loss, auc, acc]);
    h.params(&cell);
    assert_eq!(h.0, 0x2055071592d519cf, "dtdg TGCN trajectory moved");
}

/// A static TGCN node regressor (MB, lags 4, hidden 16, sequences of 4):
/// two training epochs and one evaluation pass.
#[test]
fn static_tgcn_is_pinned() {
    let ds = load_static("MB", 4, 12);
    let snap = Snapshot::from_edges(ds.graph.num_nodes(), &ds.graph.edges);
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut params = ParamSet::new();
    let cell = Tgcn::new(&mut params, "tgcn", 4, 16, &mut rng);
    let model = NodeRegressor::new(&mut params, cell, 1, &mut rng);
    let mut opt = Adam::new(params, 0.01);
    let mut h = Fnv::new();
    for _ in 0..2 {
        let loss =
            train_epoch_node_regression(&model, &exec, &mut opt, &ds.features, &ds.targets, 4);
        h.word(loss.to_bits());
    }
    h.word(eval_node_regression(&model, &exec, &ds.features, &ds.targets, 4).to_bits());
    h.params(&model);
    assert_eq!(h.0, 0x98b532d03c2e31b6, "static TGCN trajectory moved");
}

/// The CTDG TGN at the smoke shape, two epochs: the per-epoch losses and
/// AUCs, the test AUC, and every entry of the last checkpoint (GRU, heads,
/// node memory and Adam moments).
#[test]
fn ctdg_tgn_is_pinned() {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "training-pin-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, "ctdg", 1);
    let report = CtdgWorkload::new(CtdgConfig::smoke(5)).run_with_checkpoints(&mgr, false);
    let (_, entries) = mgr.load_latest().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut h = Fnv::new();
    for e in &report.epochs {
        h.floats(&[e.loss, e.val_auc]);
    }
    h.word(report.test_auc.to_bits());
    for (_, _, data) in &entries {
        h.floats(data);
    }
    assert_eq!(h.0, 0xe2af262940f9fa92, "CTDG TGN trajectory moved");
}
