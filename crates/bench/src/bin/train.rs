//! `stgraph-train` — a command-line trainer over the whole library: pick a
//! dataset, a model, and the knobs, and it trains and reports.
//!
//! ```text
//! cargo run --release -p stgraph-bench --bin train -- \
//!     --dataset HC --model tgcn --hidden 32 --epochs 20
//! cargo run --release -p stgraph-bench --bin train -- \
//!     --dataset MO --task link --storage gpma --pct-change 5 --epochs 5
//! cargo run --release -p stgraph-bench --bin train -- --help
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::train::{
    eval_link_prediction, link_prediction_batches, train_epoch_link_prediction,
    train_epoch_node_regression, NodeRegressor,
};
use stgraph_ctdg::{CtdgConfig, CtdgWorkload, Strategy};
use stgraph_datasets::cli::{self, get};
use stgraph_datasets::{info, load_dynamic, load_static, resolve_seed, GraphKind};
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_serve::zoo::{build_cell, ARCHITECTURES};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::Tensor;

const HELP: &str = "stgraph-train — train a TGNN on a Table II dataset

Options:
  --workload <dtdg|ctdg>  workload family (default dtdg). `ctdg` trains
                          TGN-style continuous-time link prediction on the
                          synthetic fraud-burst event stream; see the
                          continuous-time options below
  --dataset <name|code>   dataset (default HC); see `paper --exhibit table2`
  --task <auto|node|link> task (default: node for static, link for dynamic)
  --model <tgcn|gconvgru|gconvlstm|dcrnn>   temporal cell (default tgcn)
  --storage <naive|gpma>  DTDG storage (default gpma)
  --backend <seastar|reference>             kernel backend (default seastar)
  --features <n>          feature size / lags (default 8)
  --hidden <n>            hidden width (default 32)
  --epochs <n>            training epochs (default 10)
  --seq-len <n>           Algorithm-1 sequence length (default 10)
  --timestamps <n>        supervised timestamps (default 40 static / 20 dynamic)
  --pct-change <f>        DTDG snapshot churn percent (default 5)
  --scale <n>             dynamic dataset size divisor (default 64)
  --lr <f>                Adam learning rate (default 0.01)
  --seed <n>              RNG seed (default: the STGRAPH_SEED environment
                          variable, else 42)
  --save <path>           write trained weights as an .stgc checkpoint; a
                          path without the .stgc extension is treated as a
                          checkpoint *directory*: every epoch saves a
                          rotated, sequence-numbered checkpoint there
  --keep-checkpoints <n>  retained checkpoints when --save is a directory
                          (default 3)
  --online-steps <n>      after link training, continue learning online over
                          the stream's update batches (one incremental step
                          + atomic weight publish per batch, up to n steps)
                          — the same train-while-serving loop `serve
                          --online` runs (default 0 = off)
  --trace <path>          enable tracing and write a Chrome trace_event JSON
                          timeline there (chrome://tracing / Perfetto)
  --help                  this text

Continuous-time options (--workload ctdg):
  --nodes <n>             vertices in the synthetic stream (default 2000)
  --events <n>            events in the synthetic stream (default 40000)
  --dim <n>               per-node memory width (default 32)
  --neighbors <k>         temporal neighbors per query (default 10)
  --batch-size <n>        events per batch (default 200)
  --strategy <recent|uniform>  neighbor sampling strategy (default recent)
  --resume                load the latest checkpoint from --save (which
                          must be a directory) and continue after its
                          recorded epoch; the loss trajectory matches an
                          uninterrupted run exactly";

/// Where `--save` writes checkpoints: a single `.stgc` file at the end of
/// training, or (for a directory path) a rotated sequence with one
/// checkpoint per epoch, pruned to `--keep-checkpoints`.
enum Saver {
    Disabled,
    File(String),
    Dir(stgraph_serve::CheckpointManager),
}

impl Saver {
    fn from_args(path: Option<&str>, keep: usize) -> Saver {
        match path {
            None => Saver::Disabled,
            Some(p) if p.ends_with(".stgc") => Saver::File(p.to_string()),
            Some(p) => Saver::Dir(stgraph_serve::CheckpointManager::new(p, "model", keep)),
        }
    }

    /// Per-epoch rotated save (directory mode only). Save faults are
    /// retried inside the manager; a save that still fails only loses this
    /// epoch's snapshot, never the training run.
    fn epoch(&self, params: &ParamSet) {
        if let Saver::Dir(mgr) = self {
            if let Err(e) = mgr.save_model(params) {
                eprintln!("epoch checkpoint failed (training continues): {e}");
            }
        }
    }

    /// Final save: the single file, or one last rotated sequence entry.
    fn finish(&self, params: &ParamSet) {
        let result = match self {
            Saver::Disabled => return,
            Saver::File(path) => stgraph_serve::save_model(path, params).map(|()| path.clone()),
            Saver::Dir(mgr) => mgr.save_model(params).map(|p| p.display().to_string()),
        };
        match result {
            Ok(path) => println!("saved checkpoint to {path}"),
            Err(e) => {
                eprintln!("failed to save checkpoint: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Trains the continuous-time workload (`--workload ctdg`).
fn run_ctdg(args: &HashMap<String, String>, seed: u64) {
    let cfg = CtdgConfig {
        num_nodes: get(args, "nodes", 2000usize),
        num_events: get(args, "events", 40_000usize),
        dim: get(args, "dim", 32usize),
        k: get(args, "neighbors", 10usize),
        batch_size: get(args, "batch_size", 200usize),
        epochs: get(args, "epochs", 5usize),
        lr: get(args, "lr", 0.01f32),
        strategy: get(args, "strategy", Strategy::Recent),
        seed,
    };
    let resume = args.contains_key("resume");
    let manager = match args.get("save") {
        Some(p) if p.ends_with(".stgc") => {
            eprintln!("--workload ctdg checkpoints are rotated; pass a directory to --save");
            std::process::exit(2);
        }
        Some(p) => Some(stgraph_serve::CheckpointManager::new(
            p,
            "ctdg",
            get(args, "keep_checkpoints", 3usize),
        )),
        None => None,
    };
    if resume && manager.is_none() {
        eprintln!("--resume needs --save <dir> to load from");
        std::process::exit(2);
    }
    println!(
        "ctdg: {} nodes, {} events, dim {}, k {} ({}), batch {}, seed {seed}",
        cfg.num_nodes,
        cfg.num_events,
        cfg.dim,
        cfg.k,
        cfg.strategy.name(),
        cfg.batch_size
    );
    let mut w = CtdgWorkload::new(cfg);
    let (tr, va, te) = {
        let start = std::time::Instant::now();
        let report = match &manager {
            Some(m) => w.run_with_checkpoints(m, resume),
            None => w.run(),
        };
        for e in &report.epochs {
            println!(
                "epoch {:>3}: BCE {:.5}, val ROC-AUC {:.4}",
                e.epoch + 1,
                e.loss,
                e.val_auc
            );
        }
        println!(
            "trained {} epochs in {:.2}s — test ROC-AUC {:.4}",
            report.epochs.len(),
            start.elapsed().as_secs_f32(),
            report.test_auc
        );
        report.split
    };
    println!("chronological split: {tr} train / {va} val / {te} test events");
}

fn write_trace(path: &str) {
    match stgraph_telemetry::export::write_chrome_trace(path) {
        Ok(()) => println!("wrote Chrome trace to {path}"),
        Err(e) => {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = cli::parse_or_exit(HELP);
    let seed = resolve_seed(args.get("seed").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --seed: '{v}'");
            std::process::exit(2);
        })
    }));
    let trace_path = args.get("trace").cloned();
    if trace_path.is_some() {
        stgraph_telemetry::set_enabled(true);
    }
    if args.get("workload").map(String::as_str) == Some("ctdg") {
        run_ctdg(&args, seed);
        if let Some(path) = &trace_path {
            write_trace(path);
        }
        return;
    }
    let dataset = args
        .get("dataset")
        .map(String::as_str)
        .unwrap_or("HC")
        .to_string();
    let meta = info(&dataset);
    let task = match args.get("task").map(String::as_str).unwrap_or("auto") {
        "auto" => {
            if meta.kind == GraphKind::StaticTemporal {
                "node"
            } else {
                "link"
            }
        }
        t @ ("node" | "link") => t,
        other => {
            eprintln!("unknown task '{other}'");
            std::process::exit(2);
        }
    };
    let model = args
        .get("model")
        .map(String::as_str)
        .unwrap_or("tgcn")
        .to_string();
    if !ARCHITECTURES.contains(&model.as_str()) {
        eprintln!("unknown model '{model}' (try --help)");
        std::process::exit(2);
    }
    let backend = args
        .get("backend")
        .map(String::as_str)
        .unwrap_or("seastar")
        .to_string();
    let features = get(&args, "features", 8usize);
    let hidden = get(&args, "hidden", 32usize);
    let epochs = get(&args, "epochs", 10usize);
    let seq_len = get(&args, "seq_len", 10usize);
    let lr = get(&args, "lr", 0.01f32);
    let save_path = args.get("save").cloned();
    let keep = get(&args, "keep_checkpoints", 3usize);
    let saver = Saver::from_args(save_path.as_deref(), keep);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    println!(
        "dataset: {} ({:?}), task: {task}, model: {model}, backend: {backend}",
        meta.name, meta.kind
    );

    match task {
        "node" => {
            assert_eq!(
                meta.kind,
                GraphKind::StaticTemporal,
                "node regression needs a static-temporal dataset"
            );
            let timestamps = get(&args, "timestamps", 40usize);
            let ds = load_static(meta.name, features, timestamps);
            println!(
                "graph: {} nodes, {} edges; {} timestamps, {} lags",
                ds.graph.num_nodes(),
                ds.graph.num_edges(),
                ds.num_timestamps(),
                ds.lags
            );
            let snap = Snapshot::from_edges(ds.graph.num_nodes(), &ds.graph.edges);
            let exec = TemporalExecutor::new(create_backend(&backend), GraphSource::Static(snap));
            let mut params = ParamSet::new();
            let cell = build_cell(&model, &mut params, features, hidden, &mut rng)
                .expect("model checked against ARCHITECTURES");
            let regressor = NodeRegressor::new(&mut params, cell, 1, &mut rng);
            println!("parameters: {}", params.numel());
            let trained = params.clone();
            let mut opt = Adam::new(params, lr);
            let start = std::time::Instant::now();
            for epoch in 1..=epochs {
                let loss = train_epoch_node_regression(
                    &regressor,
                    &exec,
                    &mut opt,
                    &ds.features,
                    &ds.targets,
                    seq_len,
                );
                println!("epoch {epoch:>3}: MSE {loss:.5}");
                saver.epoch(&trained);
            }
            println!(
                "trained {epochs} epochs in {:.2}s",
                start.elapsed().as_secs_f32()
            );
            saver.finish(&trained);
        }
        "link" => {
            assert_eq!(
                meta.kind,
                GraphKind::Dynamic,
                "link prediction needs a dynamic dataset"
            );
            let scale = get(&args, "scale", 64usize);
            let pct = get(&args, "pct_change", 5.0f64);
            let max_t = get(&args, "timestamps", 20usize);
            let raw = load_dynamic(meta.name, scale);
            let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, pct);
            src.snapshots.truncate(max_t);
            println!(
                "DTDG: {} nodes, {} timestamps, mean churn {:.1}%",
                src.num_nodes,
                src.num_timestamps(),
                src.mean_pct_change()
            );
            let storage = args.get("storage").map(String::as_str).unwrap_or("gpma");
            let provider: Rc<RefCell<dyn DtdgGraph>> = match storage {
                "naive" => Rc::new(RefCell::new(NaiveGraph::new(&src))),
                "gpma" => Rc::new(RefCell::new(GpmaGraph::new(&src))),
                other => {
                    eprintln!("unknown storage '{other}'");
                    std::process::exit(2);
                }
            };
            let exec =
                TemporalExecutor::new(create_backend(&backend), GraphSource::Dynamic(provider));
            let mut params = ParamSet::new();
            let cell = build_cell(&model, &mut params, features, hidden, &mut rng)
                .expect("model checked against ARCHITECTURES");
            println!("parameters: {}", params.numel());
            let trained = params.clone();
            let mut opt = Adam::new(params, lr);
            let feats = Tensor::rand_uniform((src.num_nodes, features), -1.0, 1.0, &mut rng);
            let batches = link_prediction_batches(&src, 512, seed);
            let start = std::time::Instant::now();
            for epoch in 1..=epochs {
                let loss =
                    train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, seq_len);
                println!("epoch {epoch:>3}: BCE {loss:.5}");
                saver.epoch(&trained);
            }
            let (loss, auc, acc) = eval_link_prediction(&cell, &exec, &feats, &batches, seq_len);
            println!(
                "trained {epochs} epochs in {:.2}s — eval BCE {loss:.4}, ROC-AUC {auc:.4}, accuracy {acc:.4}",
                start.elapsed().as_secs_f32()
            );
            saver.finish(&trained);
            let online_steps = get(&args, "online_steps", 0usize);
            if online_steps > 0 {
                run_online_continuation(
                    &model,
                    &src,
                    features,
                    hidden,
                    seed,
                    &trained,
                    &feats,
                    online_steps,
                );
            }
        }
        _ => unreachable!(),
    }

    if let Some(path) = &trace_path {
        write_trace(path);
    }
}

/// `--online-steps`: continue learning over the stream's update batches
/// with the same train-while-serving loop `serve --online` runs — one
/// incremental gradient step on a replay sample plus an atomic weight
/// publish per applied batch. Demonstrates drift correction without
/// standing up the serving stack.
#[allow(clippy::too_many_arguments)] // a CLI leaf, not a library API
fn run_online_continuation(
    model: &str,
    src: &DtdgSource,
    features: usize,
    hidden: usize,
    seed: u64,
    trained: &ParamSet,
    feats: &Tensor,
    max_steps: usize,
) {
    use stgraph_serve::online::{OnlineConfig, OnlineTrainer};
    use stgraph_serve::LiveGraph;

    let cfg = OnlineConfig {
        seed,
        ..OnlineConfig::default()
    };
    let Some(mut trainer) = OnlineTrainer::new(model, features, hidden, src.num_nodes, cfg) else {
        eprintln!("online: unknown model '{model}'");
        return;
    };
    trainer
        .load_weights(&trained.state_dict())
        .expect("trained weights match the online cell");
    let mut live = LiveGraph::from_source(src);
    for batch in src.diffs_from(0) {
        if trainer.steps() >= max_steps as u64 {
            break;
        }
        live.apply(&batch);
        let (_, snap) = live.snapshot();
        match trainer.on_advance(live.generation(), &batch, snap, feats) {
            Ok(Some(p)) => println!(
                "online step {:>3}: BCE {:.5} (weight gen {})",
                trainer.steps(),
                trainer.stats().last_loss,
                p.weight_generation
            ),
            Ok(None) => {}
            Err(e) => {
                eprintln!("online: halted ({e})");
                break;
            }
        }
    }
    let s = trainer.stats();
    println!(
        "online: {} steps, weight generation {}, replay {} edges",
        s.steps, s.weight_generation, s.replay_len
    );
}
