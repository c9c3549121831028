//! # stgraph-bench
//!
//! The harness regenerating every table and figure of the paper's
//! evaluation (§VII). The library provides the measurement machinery; one
//! binary per exhibit (`table2`, `fig5` … `fig9`, `table3`) drives it and
//! prints the same rows/series the paper reports; `ablations` and
//! `kernels` time the substrate-level design choices.
//!
//! Absolute numbers are CPU numbers (see DESIGN.md's device substitution);
//! the comparisons — who wins, by what factor, where the crossovers sit —
//! are the reproduction targets recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod dynamic_bench;
pub mod report;
pub mod static_bench;

pub use dynamic_bench::{run_dynamic, DynamicConfig, DynamicVariant};
pub use report::{print_table, summarize, write_json, Row};
pub use static_bench::{run_static, Framework, StaticConfig};

use serde::Serialize;
use std::time::Instant;

/// Median-of-three wall time per call of `f`, in milliseconds, after a
/// warm-up call; each repetition runs ~60 ms of iterations.
pub fn time_ms<F: FnMut()>(mut f: F) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-7);
    let iters = ((0.06 / once) as usize).clamp(1, 10_000);
    let mut reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e3 / iters as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[1]
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Mean wall-clock time per measured epoch, milliseconds.
    pub epoch_ms: f64,
    /// Peak tracked memory during the measured epochs, bytes.
    pub peak_bytes: u64,
    /// Final training loss (cross-framework equivalence check).
    pub final_loss: f32,
    /// Fraction of epoch time spent on GNN compute (dynamic runs; 1.0 for
    /// frameworks without the split instrumented).
    pub gnn_fraction: f64,
    /// Tracked allocator calls per measured epoch (memory-tracker counter,
    /// the same one telemetry exports as `mem.<pool>.allocations`).
    pub allocs: u64,
    /// Workspace buffer-pool hit rate over the measured epochs
    /// (`hits / (hits + misses)`; 0 when the pool saw no traffic).
    pub pool_hit_rate: f64,
}

/// Before/after snapshot of the allocator and buffer-pool counters, so runs
/// report per-epoch deltas rather than process-lifetime totals.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnapshot {
    allocations: u64,
    hits: u64,
    misses: u64,
}

impl CounterSnapshot {
    /// Captures the counters for the named memory pool.
    pub fn capture(pool: &str) -> CounterSnapshot {
        let p = stgraph_tensor::pool::stats();
        CounterSnapshot {
            allocations: stgraph_tensor::mem::stats(pool).allocations,
            hits: p.hits,
            misses: p.misses,
        }
    }

    /// `(allocations per epoch, pool hit rate)` accumulated since `self`.
    pub fn delta(&self, pool: &str, epochs: usize) -> (u64, f64) {
        let after = CounterSnapshot::capture(pool);
        let allocs = (after.allocations - self.allocations) / epochs.max(1) as u64;
        let (hits, misses) = (after.hits - self.hits, after.misses - self.misses);
        let rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        (allocs, rate)
    }
}

/// Benchmark scale knobs, overridable via environment variables so the
/// recorded full runs and quick smoke runs share one code path:
/// `STGRAPH_BENCH_EPOCHS`, `STGRAPH_BENCH_WARMUP`, `STGRAPH_BENCH_SCALE`
/// (dynamic dataset divisor), `STGRAPH_BENCH_TIMESTAMPS`.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Measured epochs per configuration.
    pub epochs: usize,
    /// Warm-up epochs excluded from timing (the paper ignores its first 3
    /// of 100).
    pub warmup: usize,
    /// Dynamic dataset size divisor.
    pub scale: usize,
    /// Static-temporal timestamps per run.
    pub timestamps: usize,
}

impl BenchScale {
    /// Reads the scale from the environment, with defaults sized for a
    /// multi-minute full run.
    pub fn from_env() -> BenchScale {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        BenchScale {
            epochs: get("STGRAPH_BENCH_EPOCHS", 5),
            warmup: get("STGRAPH_BENCH_WARMUP", 2),
            scale: get("STGRAPH_BENCH_SCALE", 64),
            timestamps: get("STGRAPH_BENCH_TIMESTAMPS", 20),
        }
    }
}
