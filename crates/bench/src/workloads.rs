//! The two training workloads the exhibits time, each with the paper's
//! default TGCN: node regression on a static-temporal graph (Figs. 5–6)
//! and link prediction over windowed DTDG snapshots (Figs. 7–9).

use crate::{measure, BenchScale, RunResult, Series};
use pygt_baseline::{train as pygt, BaselineDtdg, BaselineRegressor, BaselineTgcn, CooGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{link_prediction_batches, NodeRegressor};
use stgraph::train::{train_epoch_link_prediction, train_epoch_node_regression};
use stgraph_datasets::{load_dynamic, load_static};
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{mem, Tensor};

/// Trains `dataset` (a static-temporal Table II name or code) with
/// `features` lags (the Figure 5 sweep) and Algorithm-1 sequence length
/// `seq_len` (the Figure 6 sweep), hidden width 32, under `series`
/// (`StGraph` or `PygT`).
pub fn run_static(
    dataset: &str,
    features: usize,
    seq_len: usize,
    series: Series,
    scale: BenchScale,
) -> RunResult {
    // Dataset tensors are charged to a separate pool: both frameworks read
    // the same data, so it is excluded from the comparison.
    let ds = mem::with_pool("dataset", || {
        load_static(dataset, features, scale.timestamps)
    });
    let (feats, targets, edges) = (&ds.features, &ds.targets, &ds.graph.edges);
    let n = ds.graph.snapshot().csr.num_nodes();
    let (pool, hidden, mut rng) = (series.name(), 32, ChaCha8Rng::seed_from_u64(0x5737_0001));
    mem::with_pool(pool, || match series {
        Series::StGraph => {
            // Pre-processing (Seastar does this once for static graphs).
            let snap = Snapshot::from_edges(n, edges);
            let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "tgcn", features, hidden, &mut rng);
            let model = NodeRegressor::new(&mut ps, cell, 1, &mut rng);
            let mut opt = Adam::new(ps, 0.01);
            let epoch =
                || train_epoch_node_regression(&model, &exec, &mut opt, feats, targets, seq_len);
            measure(pool, scale, epoch, || 0.0)
        }
        Series::PygT => {
            let graph = CooGraph::new(n, edges);
            let mut ps = ParamSet::new();
            let cell = BaselineTgcn::new(&mut ps, "tgcn", features, hidden, &mut rng);
            let model = BaselineRegressor::new(&mut ps, cell, 1, &mut rng);
            let mut opt = Adam::new(ps, 0.01);
            let epoch = || {
                pygt::train_epoch_node_regression(&model, &graph, &mut opt, feats, targets, seq_len)
            };
            measure(pool, scale, epoch, || 0.0)
        }
        _ => panic!("{pool} does not train static-temporal graphs"),
    })
}

/// Trains `dataset` (a dynamic Table II name or code, at `1/scale.scale`
/// size) with `features` input features (the Figure 7 sweep) over
/// snapshots that differ by `pct_change` percent (the Figure 8 sweep),
/// keeping at most `max_snapshots`, hidden width 16, sequence length 5 and
/// up to 512 positive edges per timestamp, under `series` (`Naive`,
/// `Gpma` or `PygT`).
pub fn run_dynamic(
    dataset: &str,
    features: usize,
    pct_change: f64,
    max_snapshots: usize,
    series: Series,
    scale: BenchScale,
) -> RunResult {
    let (src, batches, feats) = mem::with_pool("dataset", || {
        let raw = load_dynamic(dataset, scale.scale);
        let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, pct_change);
        src.snapshots.truncate(max_snapshots);
        let batches = link_prediction_batches(&src, 512, 0xfeed);
        let mut rng = ChaCha8Rng::seed_from_u64(0x0d0d);
        let feats = Tensor::rand_uniform((src.num_nodes, features), -1.0, 1.0, &mut rng);
        (src, batches, feats)
    });
    let (feats, batches, seq_len) = (&feats, &batches, 5);
    let (pool, hidden, mut rng) = (series.name(), 16, ChaCha8Rng::seed_from_u64(0x5737_0002));
    mem::with_pool(pool, || {
        let provider: Rc<RefCell<dyn DtdgGraph>> = match series {
            Series::Naive => Rc::new(RefCell::new(NaiveGraph::new(&src))),
            Series::Gpma => Rc::new(RefCell::new(GpmaGraph::new(&src))),
            Series::PygT => {
                let dtdg = BaselineDtdg::new(&src);
                let mut ps = ParamSet::new();
                let cell = BaselineTgcn::new(&mut ps, "tgcn", features, hidden, &mut rng);
                let mut opt = Adam::new(ps, 0.01);
                let epoch = || {
                    pygt::train_epoch_link_prediction(
                        &cell, &dtdg, &mut opt, feats, batches, seq_len,
                    )
                };
                return measure(pool, scale, epoch, || 0.0);
            }
            Series::StGraph => panic!("{pool} does not train DTDGs"),
        };
        let source = GraphSource::Dynamic(Rc::clone(&provider));
        let exec = TemporalExecutor::new(create_backend("seastar"), source);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "tgcn", features, hidden, &mut rng);
        let mut opt = Adam::new(ps, 0.01);
        let epoch = || train_epoch_link_prediction(&cell, &exec, &mut opt, feats, batches, seq_len);
        // The paper's Figure 9 splits *total* processing time into GNN
        // processing and graph-update time; everything that is not
        // updating/constructing snapshots is model compute.
        let take_update_s = || provider.borrow_mut().take_update_time().as_secs_f64();
        measure(pool, scale, epoch, take_update_s)
    })
}
