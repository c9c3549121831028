//! `serve` — load an `.stgc` checkpoint, replay a dataset's update stream
//! through the live graph, and answer node-embedding queries through the
//! micro-batching engine.
//!
//! ```text
//! cargo run --release -p stgraph-bench --bin train -- \
//!     --dataset MO --epochs 5 --save model.stgc
//! cargo run --release -p stgraph-serve --bin serve -- \
//!     --load model.stgc --dataset MO --queries 1000 --verify
//! ```
//!
//! `--verify` recomputes every generation's recurrent step directly (no
//! queue, no batching) from a second copy of the checkpoint and requires
//! every served value to be bit-identical.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stgraph::tgnn::RecurrentCell;
use stgraph_datasets::cli::{self, get};
use stgraph_datasets::{info, load_dynamic, GraphKind};
use stgraph_dyngraph::DtdgSource;
use stgraph_serve::engine::{
    InferenceEngine, RequestQueue, ServeConfig, ServeError, Ticket, DEFAULT_MODEL,
};
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::online::{OnlineConfig, OnlineTrainer};
use stgraph_serve::{load_into, CheckpointError, CheckpointManager, QueryResponse};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{StateDict, Tensor};

const HELP: &str = "stgraph-serve — serve a trained TGNN over a live update stream

Options:
  --load <path>           .stgc checkpoint to serve, or a checkpoint
                          directory written by train --save <dir>: the
                          newest valid checkpoint is loaded, rolling back
                          over corrupt files (required)
  --keep-checkpoints <n>  when --load is a directory, prune it to the
                          newest n checkpoints after loading (default 3)
  --dataset <name|code>   dynamic dataset for the update stream (default MO)
  --model <tgcn|gconvgru|gconvlstm|dcrnn>   cell architecture (default tgcn)
  --features <n>          feature size, must match training (default 8)
  --hidden <n>            hidden width, must match training (default 32)
  --timestamps <n>        stream length in generations (default 20)
  --pct-change <f>        snapshot churn percent (default 5)
  --scale <n>             dataset size divisor (default 64)
  --queries <n>           total queries across the stream (default 1000)
  --max-batch <n>         micro-batch cap (default 256)
  --flush-us <n>          batch linger in microseconds (default 2000)
  --queue-cap <n>         request queue bound; queries beyond it are shed
                          with a typed Overloaded error rather than
                          blocking (default 1024)
  --deadline-ms <n>       per-request deadline: queries queued longer than
                          this fail with DeadlineExceeded instead of being
                          answered stale (default off)
  --seed <n>              RNG seed, must match training (default 42)
  --verify                check every served value bitwise against a direct
                          replay. With --online the replay reruns the
                          online loop from the same initial state (do not
                          combine with STGRAPH_FAULTS at the online.* sites)
  --online                train while serving: one incremental gradient
                          step per ingested batch on a replay sample, with
                          weight generations published atomically between
                          generation boundaries
  --replay-cap <n>        online replay buffer capacity (default 4096)
  --staleness-ms <n>      online replay staleness bound in logical ms; one
                          generation = 1000 logical ms (default 60000)
  --online-batch <n>      positives per online step (default 64)
  --online-lr <f>         online Adam learning rate (default 0.01)
  --online-dir <dir>      rotate crash-consistent online checkpoints
                          (weights + Adam moments + replay cursor) into
                          this directory after every publish
  --online-resume         resume the online loop from the newest valid
                          checkpoint in --online-dir (fresh start if none)
  --trace <path>          enable tracing and write a Chrome trace_event JSON
                          timeline there (chrome://tracing / Perfetto)
  --help                  this text

Fault injection: set STGRAPH_FAULTS (e.g. 'ingest.apply:every=7,seed=42')
to inject deterministic faults at the checkpoint.write/rename, gpma.update,
ingest.apply, snapshot.build, pool.alloc, engine.dequeue, online.step and
online.publish sites; the resilience report line shows recovery activity.
An online.* fault rolls the half-applied step back bitwise and halts
training (serving continues); the process then exits with code 42 so
supervisors restart it with --online-resume.";

/// Exit code when an injected fault halts the online trainer: the run is
/// *degraded* (serving finished on the last published weights), and a
/// supervisor should restart with `--online-resume`.
const EXIT_ONLINE_HALTED: i32 = 42;

fn make_cell(
    model: &str,
    params: &mut ParamSet,
    features: usize,
    hidden: usize,
    rng: &mut ChaCha8Rng,
) -> Box<dyn RecurrentCell> {
    stgraph_serve::build_cell(model, params, features, hidden, rng).unwrap_or_else(|| {
        eprintln!("unknown model '{model}' (try --help)");
        std::process::exit(2);
    })
}

/// Builds `(cell, features)` with the training binary's exact RNG draw
/// order, then overwrites the parameters from the checkpoint. `path` may
/// be a single `.stgc` file or a checkpoint directory — for a directory
/// the newest valid checkpoint wins, rolling back over corrupt files, and
/// the directory is pruned to `keep`.
fn load_model(
    path: &str,
    model: &str,
    features: usize,
    hidden: usize,
    num_nodes: usize,
    seed: u64,
    keep: usize,
) -> Result<(Box<dyn RecurrentCell>, ParamSet, Tensor), CheckpointError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let cell = make_cell(model, &mut params, features, hidden, &mut rng);
    let feats = Tensor::rand_uniform((num_nodes, features), -1.0, 1.0, &mut rng);
    if std::fs::metadata(path).map(|m| m.is_dir()).unwrap_or(false) {
        let mgr = CheckpointManager::new(path, "model", keep);
        let seq = mgr.load_latest_into(&params)?;
        mgr.prune()?;
        println!("checkpoint: sequence {seq} from {path}/ (keep {keep})");
    } else {
        load_into(path, &params)?;
    }
    Ok((cell, params, feats))
}

fn main() {
    let args = cli::parse_or_exit(HELP);
    let Some(load_path) = args.get("load").cloned() else {
        eprintln!("--load <path> is required (try --help)");
        std::process::exit(2);
    };
    let dataset = args
        .get("dataset")
        .map(String::as_str)
        .unwrap_or("MO")
        .to_string();
    let meta = info(&dataset);
    assert_eq!(
        meta.kind,
        GraphKind::Dynamic,
        "serve needs a dynamic dataset"
    );
    let model = args
        .get("model")
        .map(String::as_str)
        .unwrap_or("tgcn")
        .to_string();
    let features = get(&args, "features", 8usize);
    let hidden = get(&args, "hidden", 32usize);
    let max_t = get(&args, "timestamps", 20usize);
    let pct = get(&args, "pct_change", 5.0f64);
    let scale = get(&args, "scale", 64usize);
    let total_queries = get(&args, "queries", 1000usize);
    let seed = get(&args, "seed", 42u64);
    let verify = args.contains_key("verify");
    let online = args.contains_key("online");
    let online_resume = args.contains_key("online_resume");
    let replay_cap = get(&args, "replay_cap", 4096usize).max(1);
    let staleness_ms = get(&args, "staleness_ms", 60_000u64);
    let online_batch = get(&args, "online_batch", 64usize).max(1);
    let online_lr = get(&args, "online_lr", 1e-2f32);
    let online_dir = args.get("online_dir").cloned();
    if online_resume && online_dir.is_none() {
        eprintln!("--online-resume requires --online-dir");
        std::process::exit(2);
    }
    let trace_path = args.get("trace").cloned();
    if trace_path.is_some() {
        stgraph_telemetry::set_enabled(true);
    }

    let mut config = ServeConfig::default();
    config.max_batch = get(&args, "max_batch", config.max_batch);
    config.flush_interval = std::time::Duration::from_micros(get(
        &args,
        "flush_us",
        config.flush_interval.as_micros() as u64,
    ));
    config.queue_capacity = get(&args, "queue_cap", config.queue_capacity).max(1);
    if let Some(ms) = args.get("deadline_ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --deadline-ms: '{ms}'");
            std::process::exit(2);
        });
        config.deadline = Some(std::time::Duration::from_millis(ms));
    }
    let keep = get(&args, "keep_checkpoints", 3usize).max(1);

    let raw = load_dynamic(meta.name, scale);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, pct);
    src.snapshots.truncate(max_t);
    let generations = src.num_timestamps();
    println!(
        "stream: {} ({} nodes, {generations} generations, mean churn {:.1}%)",
        meta.name,
        src.num_nodes,
        src.mean_pct_change()
    );

    let (cell, serve_params, feats) = match load_model(
        &load_path,
        &model,
        features,
        hidden,
        src.num_nodes,
        seed,
        keep,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to load '{load_path}': {e}");
            std::process::exit(1);
        }
    };
    println!("model: {model} (features {features}, hidden {hidden}) from {load_path}");

    let live = LiveGraph::from_source(&src);
    let mut engine = InferenceEngine::new(cell, feats.clone(), live, "seastar");

    // The online loop's full initial state (weights + Adam + counters),
    // captured before serving starts so --verify can clone the trainer.
    let mut online_initial: Vec<stgraph_tensor::StateEntry> = Vec::new();
    if online {
        let cfg = OnlineConfig {
            seed,
            batch_size: online_batch,
            lr: online_lr,
            replay_cap,
            staleness_ms,
            ..OnlineConfig::default()
        };
        let mut trainer = OnlineTrainer::new(&model, features, hidden, src.num_nodes, cfg)
            .expect("architecture already validated by load_model");
        let mut resumed = None;
        if let Some(dir) = &online_dir {
            let mgr = CheckpointManager::new(dir, "online", keep);
            if online_resume {
                match trainer.resume_from(&mgr) {
                    Ok(seq) => resumed = Some(seq),
                    Err(e) => println!("online: no resumable checkpoint ({e}); starting fresh"),
                }
            }
            trainer.set_manager(mgr);
        }
        if resumed.is_none() {
            // Fresh start: the trainer continues from the served checkpoint.
            trainer
                .load_weights(&serve_params.state_dict())
                .expect("serving weights match the trainer's architecture");
        }
        match resumed {
            Some(seq) => println!(
                "online: resumed at step {} (checkpoint sequence {seq}), replay cap {replay_cap}, staleness {staleness_ms}ms",
                trainer.steps()
            ),
            None => println!(
                "online: fresh start, replay cap {replay_cap}, staleness {staleness_ms}ms"
            ),
        }
        online_initial = trainer.state_entries();
        trainer.gauges().register();
        engine.attach_online(trainer, DEFAULT_MODEL, serve_params.clone());
    }
    let queue = RequestQueue::new(config.queue_capacity);
    let per_gen = total_queries.div_ceil(generations);
    let diffs = src.diffs();

    let start = std::time::Instant::now();
    let (responses, failed) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e57e);
            let mut responses: Vec<QueryResponse> = Vec::new();
            let mut failed: Vec<ServeError> = Vec::new();
            #[allow(clippy::needless_range_loop)] // g is a generation, not just an index
            for g in 0..generations {
                let tickets: Vec<Ticket> = (0..per_gen)
                    .filter_map(
                        |_| match queue.submit(rng.gen_range(0..src.num_nodes as u32)) {
                            Ok(t) => Some(t),
                            Err(e) => {
                                // Shed at submit time — degraded, not dead.
                                failed.push(e);
                                None
                            }
                        },
                    )
                    .collect();
                for t in tickets {
                    match t.wait() {
                        Ok(resp) => responses.push(resp),
                        Err(e) => failed.push(e),
                    }
                }
                if g < generations - 1 {
                    queue.advance(diffs[g].clone());
                }
            }
            queue.close();
            (responses, failed)
        });
        engine.run(&queue, &config);
        producer.join().unwrap()
    });
    let elapsed = start.elapsed();
    if !failed.is_empty() {
        println!(
            "degraded: {} queries failed with typed errors",
            failed.len()
        );
    }

    let report = engine.report(elapsed);
    let online_trainer = engine.take_online();
    let online_halted = online_trainer.as_ref().map(|t| t.halted()).unwrap_or(false);

    let verdict = if verify && online_halted {
        println!("verify: skipped — online trainer halted by an injected fault");
        None
    } else if verify {
        let (direct_cell, direct_params, direct_feats) = load_model(
            &load_path,
            &model,
            features,
            hidden,
            src.num_nodes,
            seed,
            keep,
        )
        .expect("checkpoint reloaded for verification");
        // With --online, replay the train-while-serving schedule from the
        // captured initial state.
        let mut oracle = online_trainer.as_ref().map(|_| {
            let cfg = OnlineConfig {
                seed,
                batch_size: online_batch,
                lr: online_lr,
                replay_cap,
                staleness_ms,
                ..OnlineConfig::default()
            };
            let mut oracle = OnlineTrainer::new(&model, features, hidden, src.num_nodes, cfg)
                .expect("architecture already validated");
            oracle
                .load_entries(&online_initial)
                .expect("initial online state reloads");
            oracle
        });
        let expected = direct_chain(
            &src,
            &direct_feats,
            direct_cell.as_ref(),
            oracle.as_mut().map(|o| (o, &direct_params)),
        );
        let mut mismatches = 0usize;
        for resp in &responses {
            let want = &expected[resp.generation as usize];
            for (j, v) in resp.values.iter().enumerate() {
                if v.to_bits() != want.at(resp.node as usize, j).to_bits() {
                    mismatches += 1;
                }
            }
        }
        if mismatches == 0 {
            Some(format!(
                "verify: OK — {} responses bit-identical to direct replay",
                responses.len()
            ))
        } else {
            eprintln!("verify: FAILED — {mismatches} value mismatches");
            std::process::exit(1);
        }
    } else {
        None
    };

    print!("{report}");
    if let Some(line) = verdict {
        println!("{line}");
    }

    if let Some(t) = &online_trainer {
        // One line per committed step, with the loss's exact bit pattern:
        // the online-smoke CI job greps these to prove a crashed-and-resumed
        // run rejoins the uninterrupted trajectory bitwise.
        let first = t.steps() - t.trajectory().len() as u64;
        for (i, l) in t.trajectory().iter().enumerate() {
            println!(
                "online step {} loss_bits {:08x} loss {:.6}",
                first + 1 + i as u64,
                l.to_bits(),
                l
            );
        }
        if online_halted {
            println!(
                "online: HALTED by injected fault after step {} — restart with --online-resume",
                t.steps()
            );
        }
    }

    if let Some(path) = &trace_path {
        match stgraph_telemetry::export::write_chrome_trace(path) {
            Ok(()) => println!("wrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if online_halted {
        std::process::exit(EXIT_ONLINE_HALTED);
    }
}

/// The no-batching oracle: one recurrent step per generation, hidden
/// carried, computed on the same snapshot chain the engine saw, with no
/// engine code on the path. With `online` it follows the engine's
/// train-while-serving schedule too: forward generation `g` on the current
/// weights, apply `diffs[g]`, run one online step, and install the
/// published weights into `params` before `g+1`'s forward. A trainer
/// cloned from the live one's initial state replays the served embeddings
/// bitwise.
fn direct_chain(
    src: &DtdgSource,
    feats: &Tensor,
    cell: &dyn RecurrentCell,
    mut online: Option<(&mut OnlineTrainer, &ParamSet)>,
) -> Vec<Tensor> {
    use stgraph::backend::create_backend;
    use stgraph::executor::{GraphSource, TemporalExecutor};
    use stgraph_tensor::Tape;

    let mut live = LiveGraph::from_source(src);
    let diffs = src.diffs();
    let mut hidden: Option<Tensor> = None;
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // g is a generation, not just an index
    for g in 0..src.num_timestamps() {
        let (_, snap) = live.snapshot();
        let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
        let tape = Tape::new();
        let x = tape.constant(feats.clone());
        let h = hidden.clone().map(|t| tape.constant(t));
        let new = cell.step(&tape, &exec, 0, &x, h.as_ref());
        hidden = Some(new.value().clone());
        out.push(new.value().clone());
        if g + 1 == src.num_timestamps() {
            continue;
        }
        live.apply(&diffs[g]);
        if let Some((oracle, params)) = online.as_mut() {
            let (_, snap) = live.snapshot();
            match oracle.on_advance(live.generation(), &diffs[g], snap, feats) {
                Ok(Some(published)) => params
                    .try_load_state_dict(&published.entries)
                    .expect("published weights match the serving cell"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("verify: online oracle faulted ({e}); do not combine --verify with STGRAPH_FAULTS at online.* sites");
                    std::process::exit(1);
                }
            }
        }
    }
    out
}
