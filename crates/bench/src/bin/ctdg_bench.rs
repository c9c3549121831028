//! `ctdg_bench` — throughput of the continuous-time event store and
//! temporal neighbor sampler, written to `BENCH_ctdg.json`.
//!
//! Two axes, matching the questions the CTDG tier raises:
//!
//! * **Ingest**: events/s of T-CSR batch appends as the index grows (an
//!   in-order append is a push onto two rows, so this should stay flat).
//! * **Sampling**: queries/s of `recent` vs `uniform` sampling at
//!   increasing adjacency sizes — `recent` is pure index arithmetic,
//!   `uniform` pays an RNG per slot; the gap is the cost of coverage.
//!
//! ```sh
//! cargo run --release -p stgraph-bench --bin ctdg_bench            # 1.2M events
//! cargo run --release -p stgraph-bench --bin ctdg_bench -- --quick # CI smoke
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;
use stgraph_ctdg::{sample, CtdgStore, SamplerConfig, Strategy};
use stgraph_datasets::{cli, fraud_stream, resolve_seed, FraudConfig};

const HELP: &str = "ctdg_bench — T-CSR ingest and temporal-sampler throughput

Options:
  --quick        CI smoke scale (60k events instead of 1.2M)
  --json <path>  write the report there (default BENCH_ctdg.json)
  --help         this text";

#[derive(Serialize)]
struct IngestRow {
    /// Events already in the index when this batch landed.
    events_before: u64,
    batch: usize,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct SampleRow {
    /// Events in the index when sampled.
    events: u64,
    strategy: String,
    k: usize,
    queries: usize,
    queries_per_sec: f64,
    slots_per_sec: f64,
    mean_valid: f64,
}

#[derive(Serialize)]
struct Report {
    nodes: usize,
    events: usize,
    k: usize,
    seed: u64,
    quick: bool,
    ingest: Vec<IngestRow>,
    sampling: Vec<SampleRow>,
}

fn main() {
    let args = cli::parse_or_exit(HELP);
    let quick = args.contains_key("quick");
    let json_path = args
        .get("json")
        .cloned()
        .unwrap_or_else(|| "BENCH_ctdg.json".into());
    let seed = resolve_seed(None);
    // Full mode exceeds the ISSUE's 1M-event floor; quick mode is a CI
    // smoke that exercises the same code paths in under a second.
    let (nodes, events, k) = if quick {
        (2_000usize, 60_000usize, 10usize)
    } else {
        (50_000usize, 1_200_000usize, 10usize)
    };
    let batch = 4096usize;
    let sample_queries = if quick { 4_000 } else { 50_000 };
    println!("ctdg_bench: {nodes} nodes, {events} events, k {k}, seed {seed} (quick: {quick})");

    let cfg = FraudConfig::new(nodes, events, seed);
    let stream: Vec<_> = fraud_stream(&cfg).map(|e| e.edge).collect();

    // --- Ingest throughput as the index grows. Measured per growth
    // decile so the flat-append claim is visible in the report. ---
    let mut store = CtdgStore::new(nodes);
    let mut ingest = Vec::new();
    let checkpoints: Vec<usize> = (1..=10).map(|i| events * i / 10).collect();
    let mut next_cp = 0usize;
    let mut t0 = Instant::now();
    let mut since = 0usize;
    for chunk in stream.chunks(batch) {
        store.append_batch(chunk);
        since += chunk.len();
        if next_cp < checkpoints.len() && store.index().num_events() >= checkpoints[next_cp] as u64
        {
            let dt = t0.elapsed().as_secs_f64();
            ingest.push(IngestRow {
                events_before: store.index().num_events() - since as u64,
                batch,
                events_per_sec: since as f64 / dt,
            });
            next_cp += 1;
            since = 0;
            t0 = Instant::now();
        }
    }
    println!("{:>14} {:>14}", "events_before", "events/s");
    for r in &ingest {
        println!("{:>14} {:>14.0}", r.events_before, r.events_per_sec);
    }

    // --- Sampling throughput, recent vs uniform, at three adjacency
    // sizes (the same stream truncated). ---
    let sizes: Vec<usize> = if quick {
        vec![events / 4, events]
    } else {
        vec![events / 10, events / 2, events]
    };
    let mut sampling = Vec::new();
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>10}",
        "events", "strategy", "queries/s", "slots/s", "mean_valid"
    );
    for &size in &sizes {
        let mut s = CtdgStore::new(nodes);
        for chunk in stream[..size].chunks(batch) {
            s.append_batch(chunk);
        }
        let horizon = s.index().last_timestamp() + 1;
        // Query hot nodes (event endpoints) at the stream horizon — the
        // workload's access pattern, not uniform cold nodes.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbe7c);
        let queries: Vec<(u32, u64)> = (0..sample_queries)
            .map(|_| {
                let e = stream[rng.gen_range(0..size)];
                (if rng.gen_bool(0.5) { e.src } else { e.dst }, horizon)
            })
            .collect();
        for strategy in [Strategy::Recent, Strategy::Uniform] {
            let cfg = SamplerConfig { k, strategy, seed };
            // Warm up, then time enough reps to smooth scheduler noise.
            let ns = sample(s.index(), &queries, &cfg);
            let reps = if quick { 3 } else { 5 };
            let t = Instant::now();
            let mut valid = 0usize;
            for _ in 0..reps {
                valid += sample(s.index(), &queries, &cfg).total_valid();
            }
            let dt = t.elapsed().as_secs_f64();
            let row = SampleRow {
                events: s.index().num_events(),
                strategy: strategy.name().to_string(),
                k,
                queries: queries.len(),
                queries_per_sec: (queries.len() * reps) as f64 / dt,
                slots_per_sec: valid as f64 / dt,
                mean_valid: ns.total_valid() as f64 / queries.len() as f64,
            };
            println!(
                "{:>10} {:>8} {:>12.0} {:>14.0} {:>10.2}",
                row.events, row.strategy, row.queries_per_sec, row.slots_per_sec, row.mean_valid
            );
            sampling.push(row);
        }
    }

    let report = Report {
        nodes,
        events,
        k,
        seed,
        quick,
        ingest,
        sampling,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&json_path, json + "\n").expect("write report");
    println!("wrote {json_path}");
}
