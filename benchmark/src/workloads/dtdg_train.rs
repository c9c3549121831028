//! `dtdg_train` — TGCN link prediction over windowed snapshots stored in a
//! `GpmaGraph` (the trainer's default `--storage gpma`).
//!
//! The only training workload where `dyngraph`/`pma` — forward updates,
//! reverse updates during backward, on-demand CSR — carry a Figure 9-sized
//! share of the op, so a change to the DTDG store (ROADMAP item 2) shows
//! here and not in `static_train`.

use crate::harness::{Args, Report, DATASET_POOL};
use crate::probes::{TimedBackend, TimedGraph, BACKWARD_SPAN};
use crate::trace::Tracer;
use crate::training::{self, StepOut, TrainInstance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stgraph::backend::{create_backend, AggregationBackend};
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph::train::{edge_logits, link_prediction_batches, LinkPredBatch};
use stgraph_datasets::load_dynamic;
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_pma::Gpma;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{mem, PoolScope, Tape, Tensor, Var};

const DATASET: &str = "SO";
const SCALE: usize = 48;
const PCT_CHANGE: f64 = 5.0;
const TIMESTAMPS: usize = 20;
const FEATURES: usize = 8;
const HIDDEN: usize = 16;
const SEQ_LEN: usize = 5;
const MAX_POS: usize = 512;
const WARMUP_OPS: u64 = 4;
/// Steps whose loss the oracle compares across stores, bit for bit.
const ORACLE_STEPS: usize = 2;
/// Wall-time cap of the bare-GPMA replay in the traced run.
const PMA_REPLAY_SECONDS: f64 = 1.0;

/// Which DTDG store an instance trains over.
enum Store {
    /// The product's `GpmaGraph`, untouched (end-to-end run).
    Gpma,
    /// `GpmaGraph` and seastar behind the timing decorators (traced run).
    GpmaTimed,
    /// All snapshots precomputed (oracle).
    Naive,
}

struct Instance {
    seed: u64,
    src: DtdgSource,
    batches: Vec<LinkPredBatch>,
    feats: Tensor,
    cell: Tgcn,
    exec: TemporalExecutor,
    provider: Rc<RefCell<dyn DtdgGraph>>,
    opt: Adam,
    carried: Option<Tensor>,
    cursor: usize,
    /// Loss of the first `ORACLE_STEPS` steps since construction.
    first_losses: Vec<f32>,
    kernel_edges: Arc<AtomicU64>,
    moved_edges: Rc<Cell<u64>>,
    _pool: PoolScope,
}

impl Instance {
    /// One complete set-up up to (not including) the first op.
    fn build(seed: u64, tracer: &Tracer, store: Store) -> Instance {
        let pool = PoolScope::new();
        let (src, batches, feats) = {
            let _sp = tracer.span("datasets.load");
            mem::with_pool(DATASET_POOL, || {
                let raw = load_dynamic(DATASET, SCALE);
                let mut src =
                    DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, PCT_CHANGE);
                src.snapshots.truncate(TIMESTAMPS);
                let batches = link_prediction_batches(&src, MAX_POS, seed);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0d0d);
                let feats = Tensor::rand_uniform((src.num_nodes, FEATURES), -1.0, 1.0, &mut rng);
                (src, batches, feats)
            })
        };
        let kernel_edges = Arc::new(AtomicU64::new(0));
        let moved_edges = Rc::new(Cell::new(0));
        let (provider, backend): (Rc<RefCell<dyn DtdgGraph>>, Box<dyn AggregationBackend>) = {
            let _sp = tracer.span("graph.snapshot_build");
            match store {
                Store::Gpma => (
                    Rc::new(RefCell::new(GpmaGraph::new(&src))),
                    create_backend("seastar"),
                ),
                Store::GpmaTimed => {
                    let diff_lens = src.diffs().iter().map(|d| d.len() as u64).collect();
                    (
                        Rc::new(RefCell::new(TimedGraph::new(
                            GpmaGraph::new(&src),
                            tracer.clone(),
                            diff_lens,
                            Rc::clone(&moved_edges),
                        ))),
                        Box::new(TimedBackend::new(tracer.clone(), Arc::clone(&kernel_edges))),
                    )
                }
                Store::Naive => (
                    Rc::new(RefCell::new(NaiveGraph::new(&src))),
                    create_backend("seastar"),
                ),
            }
        };
        let exec = TemporalExecutor::new(backend, GraphSource::Dynamic(Rc::clone(&provider)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let cell = Tgcn::new(&mut params, "tgcn", FEATURES, HIDDEN, &mut rng);
        let opt = Adam::new(params, 0.01);
        Instance {
            seed,
            src,
            batches,
            feats,
            cell,
            exec,
            provider,
            opt,
            carried: None,
            cursor: 0,
            first_losses: Vec::new(),
            kernel_edges,
            moved_edges,
            _pool: pool,
        }
    }
}

impl TrainInstance for Instance {
    const WARMUP_OPS: u64 = WARMUP_OPS;
    const WORK_UNIT: &'static str = "snapshot-edges";

    /// The body of `stgraph::train::train_epoch_link_prediction`'s sequence
    /// loop, one sequence per call, cycling over the dataset's epochs.
    fn step(&mut self, tracer: &Tracer) -> StepOut {
        let total = self.batches.len();
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
                let x = tape.constant(self.feats.clone());
                let h_new = self.cell.step(&tape, &self.exec, t, &x, h.as_ref());
                let logits = edge_logits(&h_new, &self.batches[t]);
                let l = logits.bce_with_logits_loss(&self.batches[t].labels);
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
        let work: usize = self.src.snapshots[start..end].iter().map(Vec::len).sum();
        StepOut {
            loss: loss_v,
            work: work as u64,
        }
    }

    fn describe(&self) -> String {
        format!(
            "{DATASET} at 1/{SCALE}: {} nodes, {} edges in snapshot 0, {:.2} % mean churn, {TIMESTAMPS} timestamps, F {FEATURES}, hidden {HIDDEN}, seq_len {SEQ_LEN}, max_pos {MAX_POS}, {WARMUP_OPS} warm-up ops",
            self.src.num_nodes,
            self.src.snapshots[0].len(),
            self.src.mean_pct_change()
        )
    }

    fn take_update(&mut self) -> (f64, u64) {
        let ms = self.provider.borrow_mut().take_update_time().as_secs_f64() * 1e3;
        (ms, self.moved_edges.replace(0))
    }

    fn traced_kernel_edges(&self) -> u64 {
        self.kernel_edges.load(Ordering::Relaxed)
    }

    /// The same loop over `NaiveGraph` (every snapshot precomputed) must
    /// produce bit-identical losses: on-demand GPMA snapshots are exact.
    fn oracle(&self) -> Vec<String> {
        let off = Tracer::new();
        let mut naive = Instance::build(self.seed, &off, Store::Naive);
        let mut errors = Vec::new();
        for (i, &got) in self.first_losses.iter().enumerate() {
            let want = naive.step(&off).loss;
            if got.to_bits() != want.to_bits() {
                errors.push(format!(
                    "dtdg_train oracle: step {i} loss {got} (gpma) vs {want} (naive) differ in bits"
                ));
            }
        }
        if self.first_losses.len() < ORACLE_STEPS {
            errors.push("dtdg_train oracle: fewer than 2 steps recorded".into());
        }
        errors
    }

    /// Replays the workload's own diffs into a bare `Gpma` — forward
    /// through every timestamp, then back — for the store's raw update
    /// throughput without snapshot construction.
    fn extra_layers(&mut self, layers: &mut BTreeMap<&'static str, f64>) {
        let diffs = self.src.diffs();
        let per_sweep: usize = 2 * diffs.iter().map(|d| d.len()).sum::<usize>();
        let mut gpma = Gpma::from_edges(self.src.num_nodes, &self.src.snapshots[0]);
        let (mut edges, mut secs) = (0usize, 0.0f64);
        while secs < PMA_REPLAY_SECONDS {
            let t = Instant::now();
            for d in &diffs {
                gpma.insert_edges(&d.additions);
                gpma.delete_edges(&d.deletions);
            }
            for d in diffs.iter().rev() {
                gpma.delete_edges(&d.additions);
                gpma.insert_edges(&d.deletions);
            }
            secs += t.elapsed().as_secs_f64();
            edges += per_sweep;
        }
        layers.insert("pma.replay_update_edges_per_s", edges as f64 / secs);
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let store = || {
        if args.trace {
            Store::GpmaTimed
        } else {
            Store::Gpma
        }
    };
    training::run(args, tracer, || {
        let mut inst = Instance::build(args.seed, tracer, store());
        inst.step(tracer);
        inst
    })
}
