//! # stgraph-bench
//!
//! The harness regenerating every table and figure of the paper's
//! evaluation (§VII): [`paper`] holds the exhibits as data and the `paper`
//! binary runs, prints, checks and records them; `ablations` and `kernels`
//! time the substrate-level design choices. Absolute numbers are CPU
//! numbers (DESIGN.md's device substitution); the comparisons — who wins,
//! by what factor, which way each sweep moves — are the reproduction
//! targets, asserted by each exhibit's predicate.

#![warn(missing_docs)]

pub mod paper;
mod report;
mod workloads;

pub(crate) use report::{print_aligned, print_table, summarize, write_json, Field, Row};
pub(crate) use workloads::{run_dynamic, run_static};

use serde::Serialize;
use std::time::Instant;
use stgraph_tensor::{mem, pool};

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

/// One line of a figure: STGraph on a static-temporal graph, STGraph over
/// one of its two DTDG stores, or the PyG-T baseline (either workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Series {
    /// STGraph (fused Seastar backend) on a static-temporal graph.
    StGraph,
    /// STGraph with all DTDG snapshots precomputed (§V.C).
    Naive,
    /// STGraph with on-demand GPMA snapshots (§V.D).
    Gpma,
    /// The PyG-T-equivalent edge-parallel baseline.
    PygT,
}

impl Series {
    /// Row label and memory-pool name.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Series::StGraph => "stgraph",
            Series::Naive => "stgraph-naive",
            Series::Gpma => "stgraph-gpma",
            Series::PygT => "pygt",
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct RunResult {
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

/// How much work each training run does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BenchScale {
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
    /// The scale `results/*.json` and EXPERIMENTS.md were recorded at.
    pub const RECORDED: BenchScale = BenchScale {
        epochs: 5,
        warmup: 2,
        scale: 64,
        timestamps: 20,
    };

    /// `paper --quick`: every exhibit in a few minutes on two cores.
    pub const QUICK: BenchScale = BenchScale {
        epochs: 1,
        warmup: 1,
        scale: 128,
        timestamps: 8,
    };
}

/// The one measurement every series shares: `scale.warmup` untimed
/// epochs, then [`mem::reset_peak`] and `scale.epochs` timed ones, charged
/// to memory pool `pool`. `take_update_s` drains the seconds spent
/// updating graph snapshots since its last call (`|| 0.0` for runs without
/// the split) and becomes [`RunResult::gnn_fraction`].
pub(crate) fn measure(
    pool: &str,
    scale: BenchScale,
    mut epoch: impl FnMut() -> f32,
    mut take_update_s: impl FnMut() -> f64,
) -> RunResult {
    let mut loss = 0.0;
    for _ in 0..scale.warmup {
        loss = epoch();
    }
    take_update_s();
    mem::reset_peak(pool);
    let (allocs, pooled) = (mem::stats(pool).allocations, pool::stats());
    let start = Instant::now();
    for _ in 0..scale.epochs {
        loss = epoch();
    }
    let total = start.elapsed().as_secs_f64();
    let update = take_update_s();
    let (mem, pool) = (mem::stats(pool), pool::stats());
    let (hits, misses) = (pool.hits - pooled.hits, pool.misses - pooled.misses);
    RunResult {
        epoch_ms: total * 1e3 / scale.epochs as f64,
        peak_bytes: mem.peak,
        final_loss: loss,
        gnn_fraction: (total - update).max(0.0) / total.max(f64::MIN_POSITIVE),
        allocs: (mem.allocations - allocs) / scale.epochs.max(1) as u64,
        pool_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}
