//! Satellite guarantee for the workspace buffer pool: recycling buffers must
//! never change numerics. Training with the pool enabled and with it disabled
//! (`pool::force_disable`) must produce *bit-identical*
//! loss trajectories, final parameters and last-epoch gradients, for both a
//! plain GCN stack and a recurrent TGCN. Pooled buffers hand back
//! unspecified-but-initialized contents, so any kernel that reads an output
//! element before writing it would fail this test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{train_epoch_node_regression, NodeRegressor};
use stgraph::GcnConv;
use stgraph_datasets::load_static;
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{pool, Tape, Var};

/// `pool::force_disable` is process-global; the two tests in this binary each
/// flip it, so they serialise on this lock (the harness runs tests on
/// parallel threads).
static POOL_FLAG: Mutex<()> = Mutex::new(());

const EPOCHS: usize = 3;

/// Everything a run produces, as raw bits so comparison is exact.
#[derive(PartialEq, Debug)]
struct RunBits {
    losses: Vec<u32>,
    params: Vec<Vec<u32>>,
    grads: Vec<Vec<u32>>,
}

fn snapshot_bits(losses: &[f32], params: &ParamSet) -> RunBits {
    RunBits {
        losses: losses.iter().map(|l| l.to_bits()).collect(),
        params: params
            .iter()
            .map(|p| p.value().data().iter().map(|x| x.to_bits()).collect())
            .collect(),
        grads: params
            .iter()
            .map(|p| p.grad().data().iter().map(|x| x.to_bits()).collect())
            .collect(),
    }
}

fn exec_for(ds: &stgraph_datasets::StaticTemporalDataset) -> TemporalExecutor {
    let snap = Snapshot::from_edges(ds.graph.num_nodes(), &ds.graph.edges);
    TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap))
}

fn run_tgcn(unpooled: bool) -> RunBits {
    pool::force_disable(unpooled);
    let ds = load_static("hungary-chickenpox", 4, 12);
    let exec = exec_for(&ds);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", 4, 8, &mut rng);
    let model = NodeRegressor::new(&mut ps, cell, 1, &mut rng);
    let shared = ps.clone(); // Params are shared handles; Adam consumes the set.
    let mut opt = Adam::new(ps, 0.01);
    let mut losses = Vec::new();
    for _ in 0..EPOCHS {
        losses.push(train_epoch_node_regression(
            &model,
            &exec,
            &mut opt,
            &ds.features,
            &ds.targets,
            6,
        ));
    }
    pool::force_disable(false);
    snapshot_bits(&losses, &shared)
}

fn run_gcn(unpooled: bool) -> RunBits {
    pool::force_disable(unpooled);
    let ds = load_static("pedal-me", 4, 10);
    let exec = exec_for(&ds);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut ps = ParamSet::new();
    let conv1 = GcnConv::new(&mut ps, "g1", 4, 8, &mut rng);
    let conv2 = GcnConv::new(&mut ps, "g2", 8, 1, &mut rng);
    let shared = ps.clone();
    let mut opt = Adam::new(ps, 0.01);
    let mut losses = Vec::new();
    for _ in 0..EPOCHS {
        let _scope = stgraph_tensor::PoolScope::new();
        opt.zero_grad();
        let tape = Tape::new();
        let mut seq_loss: Option<Var> = None;
        for t in 0..ds.features.len() {
            let x = tape.constant(ds.features[t].clone());
            let h = conv1.forward(&tape, &exec, t, &x).relu();
            let pred = conv2.forward(&tape, &exec, t, &h);
            let l = pred.mse_loss(&ds.targets[t]);
            seq_loss = Some(match seq_loss {
                Some(acc) => acc.add(&l),
                None => l,
            });
        }
        let loss = seq_loss.unwrap().mul_scalar(1.0 / ds.features.len() as f32);
        losses.push(loss.value().item());
        tape.backward(&loss);
        opt.step();
    }
    pool::force_disable(false);
    snapshot_bits(&losses, &shared)
}

#[test]
fn tgcn_training_is_bit_identical_with_and_without_pool() {
    let _lock = POOL_FLAG.lock().unwrap();
    let pooled = run_tgcn(false);
    let unpooled = run_tgcn(true);
    assert!(pooled.losses.iter().any(|&b| b != 0), "degenerate run");
    assert_eq!(pooled, unpooled);
}

#[test]
fn gcn_training_is_bit_identical_with_and_without_pool() {
    let _lock = POOL_FLAG.lock().unwrap();
    let pooled = run_gcn(false);
    let unpooled = run_gcn(true);
    assert!(
        pooled.grads.iter().flatten().any(|&b| b != 0),
        "degenerate run"
    );
    assert_eq!(pooled, unpooled);
}
