//! `shard_bench` — the DTDG store's sharded forward vs the dense one, at
//! scale.
//!
//! Drives the same closed loop a DTDG training epoch runs — apply an
//! update batch, refresh the queryable view, aggregate neighbour features
//! — over one synthetic stream. Every arm is the same reverse-first
//! [`DtdgStore`]; what differs is the shard count and the forward:
//!
//! * **single**: K = 1, `snapshot()` then [`dense_forward_sum`] — what
//!   `train --storage gpma` pays per timestamp.
//! * **sharded K**: K edge-cut shards applying their sub-batches in
//!   parallel, `snapshot()` plus the per-shard ghost tables, then
//!   `forward_sum` (halo gather + row-disjoint shard aggregation).
//!
//! Reported per arm: build time, **update throughput** (edges/s through
//! apply + view refresh — i.e. updates made *queryable*, not just
//! buffered) and **epoch time** (apply + refresh + forward aggregation
//! per timestamp, the per-timestamp cost of Algorithm 1's outer loop).
//! Both arms build the same two-CSR snapshot, so `sharded-k1` tracks
//! `single`; the committed `BENCH_shard.json` predates the store merge and
//! compared a reverse-only view against a forward-layout GPMA's two-CSR
//! build (DESIGN.md §"The DTDG store").
//!
//! ```text
//! cargo run --release -p stgraph-bench --bin shard_bench -- \
//!     --nodes 10000000 --edges 30000000 --shards 1,2,4,8 --json BENCH_shard.json
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;
use stgraph_datasets::cli::{self, get};
use stgraph_datasets::{community_stream, resolve_seed, SynthConfig, UpdateBatch, UpdateStream};
use stgraph_dyngraph::{dense_forward_sum, DtdgStore};
use stgraph_tensor::Tensor;

const HELP: &str = "shard_bench — sharded vs single-store update/epoch benchmark

Options:
  --nodes <n>        vertices (default 10000000)
  --edges <n>        seed edges (default 30000000)
  --batches <n>      update batches / timestamps (default 12)
  --batch-edges <n>  insertions per batch (default 100000)
  --delete-frac <f>  deletions per insertion (default 0.25)
  --features <n>     feature width for the forward pass (default 8)
  --communities <n>  generator communities (default 64)
  --shards <list>    comma-separated K values (default 1,2,4,8)
  --seed <n>         stream seed (default: STGRAPH_SEED, else 42)
  --json <path>      write the report there (default BENCH_shard.json)
  --help             this text";

/// One measured arm.
#[derive(Serialize)]
struct ArmReport {
    arm: String,
    shards: usize,
    build_s: f64,
    /// Edges applied *and made queryable* per second.
    update_edges_per_s: f64,
    /// Apply + refresh + forward aggregation, per timestamp.
    epoch_s: f64,
    /// Forward aggregation alone, per timestamp.
    forward_s: f64,
    edges_final: usize,
    halo_edges: usize,
    edge_cut_ratio: f64,
    bytes: usize,
}

#[derive(Serialize)]
struct Report {
    nodes: usize,
    edges: usize,
    batches: usize,
    batch_edges: usize,
    delete_frac: f64,
    features: usize,
    communities: usize,
    seed: u64,
    arms: Vec<ArmReport>,
    /// Speedups of each sharded arm over the single-store arm.
    speedups: Vec<Speedup>,
}

/// update-throughput and epoch-time gain of one sharded arm.
#[derive(Serialize)]
struct Speedup {
    arm: String,
    update_throughput: f64,
    epoch_time: f64,
}

/// Pre-generates the update batches so every arm replays identical churn.
fn make_batches(
    cfg: &SynthConfig,
    batches: usize,
    batch_edges: usize,
    delete_frac: f64,
) -> Vec<UpdateBatch> {
    let mut churn_cfg = cfg.clone();
    churn_cfg.seed = cfg.seed ^ 0x0bad_5eed;
    churn_cfg.num_edges = batches * batch_edges;
    let mut us = UpdateStream::new(&churn_cfg, delete_frac, 1 << 20);
    let mut out = Vec::with_capacity(batches);
    while let Some(b) = us.next_batch(batch_edges) {
        out.push(b);
    }
    out
}

/// One arm over `shards` shards: `None` is the single arm (K = 1, dense
/// forward), `Some(k)` a sharded arm (`forward_sum`).
fn run_arm(
    cfg: &SynthConfig,
    shards: Option<usize>,
    batches: &[UpdateBatch],
    feats: &Tensor,
) -> ArmReport {
    let k = shards.unwrap_or(1);
    let arm = shards.map_or("single".to_string(), |k| format!("sharded-k{k}"));
    let t0 = Instant::now();
    let mut g = DtdgStore::from_edge_stream(cfg.num_nodes, k, || community_stream(cfg));
    let build_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "{arm}: built {} edges in {build_s:.1}s (cut {:.3})",
        g.num_edges(),
        g.edge_cut_ratio()
    );

    let mut applied_edges = 0usize;
    let mut update_s = 0.0f64;
    let mut forward_s = 0.0f64;
    let mut sink = 0.0f32;
    for (adds, dels) in batches {
        let t = Instant::now();
        g.apply(adds, dels);
        // Make the batch queryable: the snapshot, and a sharded arm's
        // ghost tables.
        let snap = g.snapshot();
        if shards.is_some() {
            let _ = g.halo_edges();
        }
        update_s += t.elapsed().as_secs_f64();
        applied_edges += adds.len() + dels.len();
        let t = Instant::now();
        let out = match shards {
            None => dense_forward_sum(&snap, feats),
            Some(_) => g.forward_sum(feats),
        };
        forward_s += t.elapsed().as_secs_f64();
        sink += out.data()[0];
    }
    std::hint::black_box(sink);
    let steps = batches.len().max(1) as f64;
    ArmReport {
        arm,
        shards: k,
        build_s,
        update_edges_per_s: applied_edges as f64 / update_s.max(1e-9),
        epoch_s: (update_s + forward_s) / steps,
        forward_s: forward_s / steps,
        edges_final: g.num_edges(),
        halo_edges: g.halo_edges(),
        edge_cut_ratio: g.edge_cut_ratio(),
        bytes: g.bytes(),
    }
}

fn main() {
    let args = cli::parse_or_exit(HELP);
    let nodes = get(&args, "nodes", 10_000_000usize);
    let edges = get(&args, "edges", 30_000_000usize);
    let batches_n = get(&args, "batches", 12usize);
    let batch_edges = get(&args, "batch_edges", 100_000usize);
    let delete_frac = get(&args, "delete_frac", 0.25f64);
    let features = get(&args, "features", 8usize);
    let communities = get(&args, "communities", 64usize);
    let seed = resolve_seed(args.get("seed").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --seed: '{v}'");
            std::process::exit(2);
        })
    }));
    let json_path = args
        .get("json")
        .cloned()
        .unwrap_or_else(|| "BENCH_shard.json".into());
    let shard_list: Vec<usize> = args
        .get("shards")
        .map(String::as_str)
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("bad --shards entry"))
        .collect();

    let mut cfg = SynthConfig::new(nodes, edges, seed);
    cfg.communities = communities;
    println!(
        "shard_bench: {nodes} nodes, {edges} edges, {batches_n}x{batch_edges} update batches, \
         {features} features, K in {shard_list:?}"
    );

    let batches = make_batches(&cfg, batches_n, batch_edges, delete_frac);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfea7);
    let feats = Tensor::rand_uniform((nodes, features), -1.0, 1.0, &mut rng);

    let single = run_arm(&cfg, None, &batches, &feats);
    println!(
        "single:      update {:>10.0} edges/s   epoch {:.3}s   forward {:.3}s",
        single.update_edges_per_s, single.epoch_s, single.forward_s
    );
    let mut arms = vec![single];
    for &k in &shard_list {
        let r = run_arm(&cfg, Some(k), &batches, &feats);
        println!(
            "sharded k={k}: update {:>10.0} edges/s   epoch {:.3}s   forward {:.3}s   \
             halo {}   cut {:.3}",
            r.update_edges_per_s, r.epoch_s, r.forward_s, r.halo_edges, r.edge_cut_ratio
        );
        arms.push(r);
    }

    let base_update = arms[0].update_edges_per_s;
    let base_epoch = arms[0].epoch_s;
    let speedups: Vec<Speedup> = arms
        .iter()
        .skip(1)
        .map(|a| Speedup {
            arm: a.arm.clone(),
            update_throughput: a.update_edges_per_s / base_update,
            epoch_time: base_epoch / a.epoch_s,
        })
        .collect();
    for s in &speedups {
        println!(
            "{}: {:.2}x update throughput, {:.2}x epoch time vs single-store",
            s.arm, s.update_throughput, s.epoch_time
        );
    }

    let report = Report {
        nodes,
        edges,
        batches: batches_n,
        batch_edges,
        delete_frac,
        features,
        communities,
        seed,
        arms,
        speedups,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&json_path, json + "\n").expect("write report");
    println!("wrote {json_path}");
}
