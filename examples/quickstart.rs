//! Quickstart: train the paper's default TGCN on the Hungary Chickenpox
//! static-temporal dataset with STGraph.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{train_epoch_node_regression, NodeRegressor};
use stgraph_datasets::load_static;
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;

fn main() {
    // 1. Load a static-temporal dataset: a fixed graph plus a node signal
    //    per timestamp (features = 4 lagged values, 40 supervised steps).
    let ds = load_static("hungary-chickenpox", 4, 40);
    println!(
        "dataset: {} — {} nodes, {} edges, {} timestamps",
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.num_timestamps()
    );

    // 2. Pre-process the graph once (forward + reverse CSR, degree-sorted
    //    node order, shared edge labels) and build the temporally-aware
    //    executor on the fused Seastar backend.
    let snapshot = Snapshot::from_edges(ds.graph.num_nodes(), &ds.graph.edges);
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snapshot));

    // 3. A TGCN cell (GRU over graph convolutions) plus a readout head.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut params = ParamSet::new();
    let cell = Tgcn::new(&mut params, "tgcn", ds.lags, 32, &mut rng);
    let model = NodeRegressor::new(&mut params, cell, 1, &mut rng);
    println!("model: TGCN, {} parameters", params.numel());

    // 4. Train with Algorithm 1: sequences of 10 timestamps, forward
    //    accumulating the loss, one LIFO backward pass, Adam step.
    let mut opt = Adam::new(params, 0.01);
    for epoch in 1..=20 {
        let loss =
            train_epoch_node_regression(&model, &exec, &mut opt, &ds.features, &ds.targets, 10);
        if epoch % 5 == 0 || epoch == 1 {
            println!("epoch {epoch:>3}: train MSE {loss:.5}");
        }
    }

    // 5. The executor's stacks drained exactly (every forward push was
    //    popped by the matching backward). Here nothing was pushed: the
    //    TGCN propagates the fixed features `[X|1]`, which need no gradient,
    //    so every propagation is forward-only.
    let (pushes, pops, peak, live) = exec.state_stack_stats();
    println!("state stack: {pushes} pushes / {pops} pops, peak depth {peak}, live bytes {live}");
}
