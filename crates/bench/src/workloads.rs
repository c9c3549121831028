//! The workloads the exhibits run: the two training workloads, each with
//! the paper's default TGCN — node regression on a static-temporal graph
//! (Figs. 5–6) and link prediction over windowed DTDG snapshots (Figs.
//! 7–9) — and the design ablations' State-Stack sequences and timed
//! aggregation launches.

use crate::{measure, time_ms, BenchScale, RunResult, Series};
use pygt_baseline::{train as pygt, BaselineDtdg, BaselineRegressor, BaselineTgcn, CooGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use stgraph::backend::{create_backend, AggregationBackend, ReferenceBackend, SeastarBackend};
use stgraph::executor::{compile, compile_save_all_inputs, GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::{link_prediction_batches, NodeRegressor};
use stgraph::train::{train_epoch_link_prediction, train_epoch_node_regression};
use stgraph_datasets::{load_dynamic, load_static};
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_graph::base::{gcn_norm, Snapshot};
use stgraph_seastar::ir::{gat_aggregation, gcn_aggregation};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::pool::PoolScope;
use stgraph_tensor::{mem, Tape, Tensor};

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

/// State-Stack bytes left after a forward sequence, under one saved-set
/// policy (§V.B).
#[derive(Debug, Serialize)]
pub struct StackRow {
    /// `GCN` or `GAT`.
    pub layer: &'static str,
    /// `minimal` (the forward/backward IR comparison) or `save-all`.
    pub policy: &'static str,
    /// Bytes on the State Stack after the last forward step.
    pub stack_bytes: usize,
    /// Deepest the stack got.
    pub peak_depth: usize,
}

/// [`TimedRow::ablation`] of vertex-parallel against edge-parallel.
pub const VERTEX_PARALLEL: &str = "edge- -> vertex-parallel";
/// [`TimedRow::ablation`] of fused kernels against the reference backend.
pub const FUSED: &str = "unfused -> fused kernels";

/// One forward aggregation launch, STGraph's choice against the
/// alternative it replaced; milliseconds per launch.
#[derive(Debug, Serialize)]
pub struct TimedRow {
    /// [`VERTEX_PARALLEL`] or [`FUSED`].
    pub ablation: &'static str,
    /// `GCN` or `GAT`.
    pub layer: &'static str,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Feature width.
    pub features: usize,
    /// The alternative.
    pub alternative_ms: f64,
    /// STGraph's choice.
    pub stgraph_ms: f64,
    /// `alternative_ms / stgraph_ms`.
    pub speedup: f64,
}

/// `m` uniform random edges over `n` vertices.
fn random_edges(n: usize, m: usize, rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    let mut vertex = || rng.gen_range(0..n as u32);
    (0..m).map(|_| (vertex(), vertex())).collect()
}

/// The State Stack after a 10-timestamp GCN and GAT sequence (n = 2000,
/// m = 16 000, F = 32) under the minimal saved set and under saving every
/// input — what a framework without that analysis would retain.
pub fn state_stack_rows() -> Vec<StackRow> {
    let (n, f) = (2000, 32);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let snap = Snapshot::from_edges(n, &random_edges(n, n * 8, &mut rng));
    let norm = Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees));
    let mut rows = Vec::new();
    for (layer, program) in [
        ("GCN", gcn_aggregation(f)),
        ("GAT", gat_aggregation(f, 0.2)),
    ] {
        for (policy, save_all) in [("minimal", false), ("save-all", true)] {
            let graph = GraphSource::Static(snap.clone());
            let exec = TemporalExecutor::new(create_backend("seastar"), graph);
            let prog = if save_all {
                compile_save_all_inputs(program.clone())
            } else {
                compile(program.clone())
            };
            let tape = Tape::new();
            // An input that needs a gradient: over constants the first
            // application would be forward-only and push nothing.
            let (mut x, _) = tape.input(Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng));
            for t in 0..10 {
                x = if layer == "GCN" {
                    exec.apply(&tape, &prog, t, &[&x], vec![norm.clone()], vec![])
                } else {
                    let (el, er) = (x.slice_cols(0, 1), x.slice_cols(1, 2));
                    exec.apply(&tape, &prog, t, &[&x, &el, &er], vec![], vec![])
                };
            }
            let (_, _, peak_depth, stack_bytes) = exec.state_stack_stats();
            rows.push(StackRow {
                layer,
                policy,
                stack_bytes,
                peak_depth,
            });
            tape.backward(&x.square().sum());
        }
    }
    rows
}

/// Times one forward aggregation per row: vertex-parallel GCN (one thread
/// owns an output row) against PyG-style edge-parallel gather–scale–scatter
/// (n = 5000, m = 60 000, F = 8 and 64); and fused Seastar kernels (edge
/// values in registers) against the reference backend, which materialises
/// every edge-space value (§IV; GCN and GAT, n = 4000, m = 40 000, F = 32).
pub fn timed_rows() -> Vec<TimedRow> {
    // Outputs come from the buffer pool, as in training; unpooled, every
    // launch mallocs multi-MB buffers and the alternative's time flips
    // with glibc's mmap threshold (1.1 or 3.8 ms at F = 8, run to run).
    let _pool = PoolScope::new();
    let mut rows = Vec::new();
    let mut row = |ablation, layer, (n, m), features, alternative_ms, stgraph_ms| {
        rows.push(TimedRow {
            ablation,
            layer,
            n,
            m,
            features,
            alternative_ms,
            stgraph_ms,
            speedup: alternative_ms / stgraph_ms,
        })
    };

    let (n, m) = (5000, 60_000);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let edges = random_edges(n, m, &mut rng);
    let snap = Snapshot::from_edges(n, &edges);
    let coo = CooGraph::new(n, &edges);
    let norm = Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees));
    for f in [8, 64] {
        let x = Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng);
        let gcn = gcn_aggregation(f);
        let edge_ms = time_ms(|| {
            let msgs = x.gather_rows(&coo.src).scale_rows(&coo.edge_norm);
            black_box(msgs.scatter_add_rows(&coo.dst, n));
        });
        let vertex_ms = time_ms(|| {
            black_box(SeastarBackend.execute(&gcn, &snap, &[&x], &[&norm], &[], &[], &[]));
        });
        row(VERTEX_PARALLEL, "GCN", (n, m), f, edge_ms, vertex_ms);
    }

    let (n, m, f) = (4000, 40_000, 32);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let snap = Snapshot::from_edges(n, &random_edges(n, m, &mut rng));
    let x = Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng);
    let norm = Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees));
    let el = Tensor::rand_uniform((n, 1), -1.0, 1.0, &mut rng);
    let er = Tensor::rand_uniform((n, 1), -1.0, 1.0, &mut rng);
    let (gcn, gat) = (gcn_aggregation(f), gat_aggregation(f, 0.2));
    for (layer, prog, inputs, consts) in [
        ("GCN", &gcn, vec![&x], vec![&norm]),
        ("GAT", &gat, vec![&x, &el, &er], vec![]),
    ] {
        let backends: [&dyn AggregationBackend; 2] = [&ReferenceBackend, &SeastarBackend];
        let [unfused_ms, fused_ms] = backends.map(|be| {
            time_ms(|| {
                black_box(be.execute(prog, &snap, &inputs, &consts, &[], &[], &[]));
            })
        });
        row(FUSED, layer, (n, m), f, unfused_ms, fused_ms);
    }
    rows
}
