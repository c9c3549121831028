//! `static_train` — TGCN node regression on the densest Table II graph.
//!
//! Seastar aggregation and the tensor kernels do nearly all the work and
//! the graph store does none, so this is the workload for kernel changes
//! (ROADMAP item 3) and the *bypass* workload for any store change.

use crate::harness::{Args, Report, DATASET_POOL};
use crate::probes::{TimedBackend, BACKWARD_SPAN};
use crate::trace::Tracer;
use crate::training::{self, StepOut, TrainInstance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stgraph::backend::{create_backend, AggregationBackend};
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::Tgcn;
use stgraph::train::NodeRegressor;
use stgraph_datasets::{load_static, StaticTemporalDataset};
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{mem, PoolScope, Tape, Tensor, Var};

const DATASET: &str = "WO";
const LAGS: usize = 8;
const TIMESTAMPS: usize = 40;
const HIDDEN: usize = 32;
const SEQ_LEN: usize = 10;
const WARMUP_OPS: u64 = 8;
/// Steps whose loss the oracle compares across backends.
const ORACLE_STEPS: usize = 2;
const ORACLE_TOL: f32 = 1e-4;

struct Instance {
    seed: u64,
    ds: StaticTemporalDataset,
    model: NodeRegressor<Tgcn>,
    exec: TemporalExecutor,
    opt: Adam,
    carried: Option<Tensor>,
    cursor: usize,
    edges: u64,
    /// Loss of the first `ORACLE_STEPS` steps since construction.
    first_losses: Vec<f32>,
    kernel_edges: Arc<AtomicU64>,
    // Declared last: the workspace pool is trimmed after everything that
    // allocated from it is gone.
    _pool: PoolScope,
}

/// Which executor backend an instance runs on.
enum Backend {
    /// The product's fused backend, untouched (end-to-end run).
    Seastar,
    /// The fused backend behind the timing decorator (traced run).
    SeastarTimed,
    /// The unfused interpreter (oracle).
    Reference,
}

impl Instance {
    /// One complete set-up up to (not including) the first op.
    fn build(seed: u64, tracer: &Tracer, backend: Backend) -> Instance {
        let pool = PoolScope::new();
        let ds = {
            let _sp = tracer.span("datasets.load");
            mem::with_pool(DATASET_POOL, || load_static(DATASET, LAGS, TIMESTAMPS))
        };
        let snap = {
            let _sp = tracer.span("graph.snapshot_build");
            Snapshot::from_edges(ds.graph.num_nodes(), &ds.graph.edges)
        };
        let edges = snap.num_edges() as u64;
        let kernel_edges = Arc::new(AtomicU64::new(0));
        let backend: Box<dyn AggregationBackend> = match backend {
            Backend::Seastar => create_backend("seastar"),
            Backend::SeastarTimed => {
                Box::new(TimedBackend::new(tracer.clone(), Arc::clone(&kernel_edges)))
            }
            Backend::Reference => create_backend("reference"),
        };
        let exec = TemporalExecutor::new(backend, GraphSource::Static(snap));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let cell = Tgcn::new(&mut params, "tgcn", LAGS, HIDDEN, &mut rng);
        let model = NodeRegressor::new(&mut params, cell, 1, &mut rng);
        let opt = Adam::new(params, 0.01);
        Instance {
            seed,
            ds,
            model,
            exec,
            opt,
            carried: None,
            cursor: 0,
            edges,
            first_losses: Vec::new(),
            kernel_edges,
            _pool: pool,
        }
    }
}

impl TrainInstance for Instance {
    const WARMUP_OPS: u64 = WARMUP_OPS;
    const WORK_UNIT: &'static str = "edge-timestamps";

    /// The body of `stgraph::train::train_epoch_node_regression`'s sequence
    /// loop, one sequence per call, cycling over the dataset's epochs.
    fn step(&mut self, tracer: &Tracer) -> StepOut {
        let total = self.ds.features.len();
        if self.cursor >= total {
            self.cursor = 0;
            self.carried = None; // hidden state does not cross epochs
        }
        let (start, end) = (self.cursor, (self.cursor + SEQ_LEN).min(total));
        self.opt.zero_grad();
        let tape = Tape::new();
        let mut h: Option<Var> = self.carried.take().map(|t| tape.constant(t));
        let mut seq_loss: Option<Var> = None;
        {
            let _sp = tracer.span("core.forward");
            for t in start..end {
                let x = tape.constant(self.ds.features[t].clone());
                let (pred, h_new) = self.model.forward(&tape, &self.exec, t, &x, h.as_ref());
                let l = pred.mse_loss(&self.ds.targets[t]);
                seq_loss = Some(match seq_loss {
                    Some(acc) => acc.add(&l),
                    None => l,
                });
                h = Some(h_new);
            }
        }
        let loss = seq_loss
            .expect("non-empty sequence")
            .mul_scalar(1.0 / (end - start) as f32);
        let loss_v = loss.value().item();
        self.carried = h.map(|v| v.value().clone());
        {
            let _sp = tracer.span(BACKWARD_SPAN);
            tape.backward(&loss);
        }
        {
            let _sp = tracer.span("tensor.optim_step");
            self.opt.step();
        }
        self.cursor = end;
        if self.first_losses.len() < ORACLE_STEPS {
            self.first_losses.push(loss_v);
        }
        StepOut {
            loss: loss_v,
            work: self.edges * (end - start) as u64,
        }
    }

    fn describe(&self) -> String {
        format!(
            "{DATASET}: {} nodes, {} edges, lags {LAGS}, {TIMESTAMPS} timestamps, hidden {HIDDEN}, seq_len {SEQ_LEN}, {WARMUP_OPS} warm-up ops",
            self.ds.graph.num_nodes(),
            self.edges
        )
    }

    fn traced_kernel_edges(&self) -> u64 {
        self.kernel_edges.load(Ordering::Relaxed)
    }

    /// The same loop on the unfused `reference` backend must produce the
    /// same per-step losses.
    fn oracle(&self) -> Vec<String> {
        let off = Tracer::new();
        let mut reference = Instance::build(self.seed, &off, Backend::Reference);
        let mut errors = Vec::new();
        for (i, &got) in self.first_losses.iter().enumerate() {
            let want = reference.step(&off).loss;
            if (got - want).abs() >= ORACLE_TOL || !(got.is_finite() && want.is_finite()) {
                errors.push(format!(
                    "static_train oracle: step {i} loss {got} (seastar) vs {want} (reference)"
                ));
            }
        }
        if self.first_losses.len() < ORACLE_STEPS {
            errors.push("static_train oracle: fewer than 2 steps recorded".into());
        }
        errors
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let backend = || {
        if args.trace {
            Backend::SeastarTimed
        } else {
            Backend::Seastar
        }
    };
    training::run(args, tracer, || {
        let mut inst = Instance::build(args.seed, tracer, backend());
        inst.step(tracer);
        inst
    })
}
