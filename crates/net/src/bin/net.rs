//! `net` — stand up the full network serve tier: dataset → live graph →
//! engine thread → model registry → HTTP + binary listeners.
//!
//! ```text
//! cargo run --release -p stgraph-net --bin net -- \
//!     --dataset MO --tenants 4 --http-port 0 --bin-port 0
//! ```
//!
//! Each tenant `t0..t{n-1}` gets its own checkpoint (freshly initialised
//! and written through the real `.stgc` save/publish path unless
//! `--models-dir` already holds `t<i>.stgc` files), so the registry, the
//! LRU budget and the engine's provider hook are all exercised exactly as
//! they would be with trained models.
//!
//! The first stdout line is machine-parseable:
//! `listening http=<addr> bin=<addr> nodes=<n> tenants=<n>` — the CI smoke
//! job and the load generator read it to find the ephemeral ports.

use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;
use stgraph_datasets::cli::{self, get};
use stgraph_datasets::{info, load_dynamic, GraphKind};
use stgraph_dyngraph::DtdgSource;
use stgraph_net::{
    build_resident_cell, AdmissionController, ModelMeta, ModelRegistry, NetConfig, NetServer,
    ServeContext, TenantQuota,
};
use stgraph_serve::engine::ServeConfig;
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::{
    load_checkpoint, save_checkpoint, EngineHost, InferenceEngine, OnlineConfig, OnlineTrainer,
};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{StateDict, Tensor};

const HELP: &str = "stgraph-net — serve temporal GNN inference over HTTP and a binary protocol

Options:
  --dataset <name|code>   dynamic dataset for the live graph (default MO)
  --scale <n>             dataset size divisor (default 64)
  --timestamps <n>        generations kept from the source stream (default 20)
  --pct-change <f>        snapshot churn percent (default 5)
  --model <arch>          tenant cell architecture (default tgcn)
  --features <n>          feature width (default 8)
  --hidden <n>            hidden width (default 16)
  --seed <n>              base RNG seed; tenant i uses seed+1+i (default 42)
  --tenants <n>           tenants t0..t{n-1} to publish models for (default 4)
  --models-dir <dir>      where tenant .stgc files live; existing files are
                          reused, missing ones are initialised and saved
                          (default: a fresh temp directory)
  --registry-budget-mb <n>  resident-checkpoint LRU byte budget (default 256)
  --max-resident-models <n> engine-side resident cell cap (default 8)
  --quota <n>             per-tenant sustained requests/s (default 500)
  --burst <n>             per-tenant token-bucket burst (default 100)
  --max-inflight <n>      per-tenant concurrency cap (default 32)
  --http-port <n>         HTTP port, 0 = ephemeral (default 0)
  --bin-port <n>          binary-protocol port, 0 = ephemeral (default 0)
  --threads <n>           acceptor threads per listener (default: cores, 2..16)
  --queue-cap <n>         engine queue bound (default 1024)
  --deadline-ms <n>       per-query deadline (default off)
  --duration-s <n>        serve this long then exit; 0 = until POST
                          /admin/shutdown (default 0)
  --online                attach an online trainer to tenant t0: every
                          POST /ingest batch feeds a replay buffer and an
                          incremental gradient step, and each published
                          weight generation is installed behind the
                          generation guard (queries pinned to generation g
                          keep generation-g weights)
  --replay-cap <n>        online replay-buffer capacity in edges (default 4096)
  --staleness-ms <n>      online replay staleness bound on the logical
                          stream clock (default 60000)
  --online-batch <n>      positive edges sampled per online step (default 64)
  --online-lr <f>         online Adam learning rate (default 1e-2)
  --help                  this text

Fault injection: set STGRAPH_FAULTS (e.g. 'net.read:every=50,seed=1') to
exercise the net.accept / net.read sites alongside the engine's own; with
--online the online.step / online.publish sites fire too (a faulted step
rolls back exactly and halts training; serving continues).";

fn main() {
    let args = cli::parse_or_exit(HELP);
    let dataset = args.get("dataset").map_or("MO", String::as_str).to_string();
    let meta = info(&dataset);
    assert_eq!(meta.kind, GraphKind::Dynamic, "net needs a dynamic dataset");
    let model = args.get("model").map_or("tgcn", String::as_str).to_string();
    let features = get(&args, "features", 8usize);
    let hidden = get(&args, "hidden", 16usize);
    let max_t = get(&args, "timestamps", 20usize);
    let pct = get(&args, "pct_change", 5.0f64);
    let scale = get(&args, "scale", 64usize);
    let seed = get(&args, "seed", 42u64);
    let tenants = get(&args, "tenants", 4usize).max(1);
    let budget_mb = get(&args, "registry_budget_mb", 256usize);
    let max_resident = get(&args, "max_resident_models", 8usize).max(1);
    let duration_s = get(&args, "duration_s", 0u64);
    let online = args.contains_key("online");
    let replay_cap = get(&args, "replay_cap", 4096usize).max(1);
    let staleness_ms = get(&args, "staleness_ms", 60_000u64);
    let online_batch = get(&args, "online_batch", 64usize).max(1);
    let online_lr = get(&args, "online_lr", 1e-2f32);

    let quota = TenantQuota {
        rate_per_s: get(&args, "quota", 500u64),
        burst: get(&args, "burst", 100u64),
        max_inflight: get(&args, "max_inflight", 32u64),
    };

    let mut config = ServeConfig::default();
    config.queue_capacity = get(&args, "queue_cap", config.queue_capacity).max(1);
    if let Some(ms) = args.get("deadline_ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --deadline-ms: '{ms}'");
            std::process::exit(2);
        });
        config.deadline = Some(Duration::from_millis(ms));
    }

    let raw = load_dynamic(meta.name, scale);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, pct);
    src.snapshots.truncate(max_t);
    let num_nodes = src.num_nodes;
    eprintln!(
        "stream: {} ({num_nodes} nodes, {} generations available)",
        meta.name,
        src.num_timestamps()
    );

    // Publish one checkpoint per tenant through the real save → publish
    // path. Existing files in --models-dir are reused (trained models);
    // missing ones are initialised here.
    let models_dir = args.get("models_dir").cloned().unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("stgraph-net-models-{}", std::process::id()));
        dir.to_string_lossy().into_owned()
    });
    std::fs::create_dir_all(&models_dir).expect("create models dir");
    let registry = Arc::new(ModelRegistry::new(budget_mb << 20));
    let mut t0_slot = None;
    for i in 0..tenants {
        let tenant = format!("t{i}");
        let init_seed = seed + 1 + i as u64;
        let path = std::path::Path::new(&models_dir).join(format!("{tenant}.stgc"));
        if !path.exists() {
            use rand::SeedableRng;
            let mut rng = ChaCha8Rng::seed_from_u64(init_seed);
            let mut params = ParamSet::new();
            stgraph_serve::build_cell(&model, &mut params, features, hidden, &mut rng)
                .unwrap_or_else(|| {
                    eprintln!("unknown model '{model}' (try --help)");
                    std::process::exit(2);
                });
            save_checkpoint(&path, &params.to_state_dict()).expect("save tenant checkpoint");
        }
        let key = registry
            .publish(
                &tenant,
                ModelMeta {
                    arch: model.clone(),
                    features,
                    hidden,
                    init_seed,
                },
                &path,
            )
            .expect("publish tenant model");
        eprintln!("tenant {tenant}: slot {key} from {}", path.display());
        if i == 0 {
            t0_slot = Some((key, path.clone(), init_seed));
        }
    }

    // Engine thread: default cell + per-tenant models resolved lazily
    // through the registry provider.
    let reg_for_engine = Arc::clone(&registry);
    let model_for_engine = model.clone();
    let host = EngineHost::spawn(config, move || {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let cell =
            stgraph_serve::build_cell(&model_for_engine, &mut params, features, hidden, &mut rng)
                .expect("default cell architecture");
        let feats = Tensor::rand_uniform((num_nodes, features), -1.0, 1.0, &mut rng);
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(cell, feats, live, "seastar");
        engine.set_max_resident_models(max_resident);
        engine.set_model_provider(Box::new(move |key| {
            reg_for_engine
                .resident(key)
                .ok()
                .and_then(|m| build_resident_cell(&m))
        }));
        if online {
            // Tenant t0 trains on the live stream: rebuild its cell with
            // the registry's exact draw order, pin it resident, and hand
            // the trainer the serving ParamSet so each published weight
            // generation is installed in place behind the generation guard.
            let (t0_key, t0_path, t0_seed) = t0_slot.expect("tenant t0 exists");
            let mut t0_rng = ChaCha8Rng::seed_from_u64(t0_seed);
            let mut t0_params = ParamSet::new();
            let t0_cell = stgraph_serve::build_cell(
                &model_for_engine,
                &mut t0_params,
                features,
                hidden,
                &mut t0_rng,
            )
            .expect("t0 cell architecture");
            let entries = load_checkpoint(&t0_path).expect("reload t0 checkpoint");
            t0_params
                .try_load_state_dict(&entries)
                .expect("t0 checkpoint shape");
            engine.install_model(t0_key, t0_cell);
            let cfg = OnlineConfig {
                seed: t0_seed,
                batch_size: online_batch,
                lr: online_lr,
                replay_cap,
                staleness_ms,
                ..OnlineConfig::default()
            };
            let mut trainer =
                OnlineTrainer::new(&model_for_engine, features, hidden, num_nodes, cfg)
                    .expect("t0 online trainer");
            trainer
                .load_weights(&entries)
                .expect("t0 checkpoint into trainer");
            trainer.gauges().register();
            engine.attach_online(trainer, t0_key, t0_params);
        }
        engine
    });

    let admission = AdmissionController::new(quota);
    for i in 0..tenants {
        admission.set_quota(&format!("t{i}"), quota);
    }
    let ctx = Arc::new(ServeContext {
        queue: Arc::clone(host.queue()),
        registry,
        admission,
        num_nodes: num_nodes as u32,
    });

    let mut net_config = NetConfig {
        http_addr: format!("127.0.0.1:{}", get(&args, "http_port", 0u16)),
        bin_addr: format!("127.0.0.1:{}", get(&args, "bin_port", 0u16)),
        ..NetConfig::default()
    };
    if let Some(t) = args.get("threads") {
        net_config.threads = t.parse::<usize>().unwrap_or(net_config.threads).max(1);
    }
    let handle = NetServer::start(net_config, ctx).expect("bind listeners");
    println!(
        "listening http={} bin={} nodes={num_nodes} tenants={tenants}",
        handle.http_addr, handle.bin_addr
    );

    if duration_s > 0 {
        handle.wait_timeout(Duration::from_secs(duration_s));
    } else {
        // Until /admin/shutdown (poll in day-long chunks; wait_timeout
        // returns early the moment shutdown triggers).
        while !handle.wait_timeout(Duration::from_secs(86_400)) {}
    }
    handle.shutdown();
    let report = host.shutdown();
    println!(
        "served: queries={} forwards={} batches={} shed={} expired={}",
        report.queries, report.forwards, report.batches, report.shed, report.expired
    );
    if let Some(o) = report.online {
        println!(
            "online: steps={} weight_gen={} replay={} last_loss={:.6}{}",
            o.steps,
            o.weight_generation,
            o.replay_len,
            o.last_loss,
            if o.halted { " HALTED" } else { "" }
        );
    }
}
