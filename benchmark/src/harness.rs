//! What every workload shares: the measured window, the passes a run is
//! made of, the memory axis, and the report a workload hands back to `main`.

use crate::stats::{self, Pct};
use std::collections::BTreeMap;
use std::time::Instant;
use stgraph_tensor::mem;

/// Identical passes of an end-to-end run: each is a complete set-up, the
/// warm-up and a window of a third of `--seconds`, on the same seed, the
/// instance dropped before the next is built. `setup_s` is the median of
/// the three set-ups; the op metrics are taken over the ops every pass ran
/// (see [`Report::end_to_end`]).
pub const PASSES: usize = 3;

/// Memory pool that holds generated inputs; excluded from `peak_mem_mb`
/// (the paper's memory axis is the framework's working set, not the data).
pub const DATASET_POOL: &str = "dataset";

/// Where a run writes its files (checkpoints, traces), relative to the
/// working directory `run.sh` sets: the repository root.
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line of a single-workload run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed: model init, sampled batches, query mix.
    pub seed: u64,
    /// Measured time of the run (all passes together).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One completed op of a window.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Its latency.
    pub lat_ms: f64,
    /// Work units it completed (unit is per workload).
    pub work: u64,
}

/// Completed ops and counts of one measured window.
///
/// A window is a sequence of *steps* run back to back; a step holds the
/// same number of ops every time (one in training, one lock-step round of
/// two in serving) and its wall time covers everything between two ops as
/// well (the ingest before a serving round).
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Every completed op, in order.
    pub ops: Vec<Op>,
    /// Wall time of every step, in order.
    pub steps_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not complete correctly; they carry no latency.
    pub failed: u64,
    /// Wall time the steps cover.
    pub wall_s: f64,
}

impl Window {
    /// Records one op's outcome.
    pub fn push(&mut self, lat_ms: f64, outcome: Result<u64, ()>) {
        self.attempted += 1;
        match outcome {
            Ok(work) if lat_ms.is_finite() => self.ops.push(Op { lat_ms, work }),
            _ => self.failed += 1,
        }
    }

    /// Latencies of the completed ops, in op order.
    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.lat_ms).collect()
    }

    /// Work units completed.
    pub fn work(&self) -> u64 {
        self.ops.iter().map(|o| o.work).sum()
    }

    /// Median latency.
    pub fn p50(&self) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies()), Pct::P50).unwrap_or(f64::NAN)
    }

    /// Mean latency.
    pub fn mean_ms(&self) -> f64 {
        stats::mean(&self.latencies())
    }
}

/// Runs `step` — which records the ops it makes into the window — back to
/// back until `seconds` have passed.
pub fn run_until(seconds: f64, mut step: impl FnMut(&mut Window)) -> Window {
    let mut w = Window::default();
    let opened = Instant::now();
    loop {
        let t = Instant::now();
        step(&mut w);
        w.steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let elapsed = opened.elapsed().as_secs_f64();
        if elapsed >= seconds {
            w.wall_s = elapsed;
            return w;
        }
    }
}

/// Runs `op` back to back until `seconds` have passed, one op per step.
/// `op` returns the work units it completed, or `Err` when its output was
/// wrong (non-finite loss, …): such an op is counted as failed and carries
/// no latency.
pub fn measure(seconds: f64, mut op: impl FnMut(u64) -> Result<u64, ()>) -> Window {
    run_until(seconds, |w| {
        let t = Instant::now();
        let out = op(w.attempted);
        w.push(t.elapsed().as_secs_f64() * 1e3, out);
    })
}

fn non_dataset_pools() -> impl Iterator<Item = (String, mem::PoolStats)> {
    mem::all_stats()
        .into_iter()
        .filter(|(name, _)| name != DATASET_POOL)
}

/// Resets the peak of every non-dataset pool to its live bytes.
pub fn reset_mem_peaks() {
    for (name, _) in non_dataset_pools() {
        mem::reset_peak(&name);
    }
}

/// Sum of peak bytes over the non-dataset pools since the last reset.
pub fn peak_mem_bytes() -> u64 {
    non_dataset_pools().map(|(_, s)| s.peak).sum()
}

/// Tracked allocator calls so far over the non-dataset pools.
pub fn tracked_allocations() -> u64 {
    non_dataset_pools().map(|(_, s)| s.allocations).sum()
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One pass: a complete set-up and the window measured on it.
pub struct Pass {
    /// Wall time of the set-up (inputs → graph/store → model → first op).
    pub setup_s: f64,
    /// The measured window (in a traced run: its traced part).
    pub window: Window,
    /// Peak tracked bytes during the window.
    pub peak_mem_bytes: u64,
}

/// What a workload returns.
pub struct Report {
    /// [`PASSES`] passes of an end-to-end run, one of a traced run.
    pub passes: Vec<Pass>,
    /// The fixed tail percentile of this workload.
    pub tail: Pct,
    /// What one unit of `work_per_s` is.
    pub work_unit: &'static str,
    /// Per-layer metrics (traced run only); absent names are reported as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Oracle and self-check violations; any entry fails the run.
    pub errors: Vec<String>,
    /// Sizes and counts worth printing beside the metrics.
    pub notes: Vec<String>,
}

/// The five end-to-end metrics, in `BENCHMARK.json` order, and what they
/// stand on.
pub struct EndToEnd {
    /// Ops every pass ran, the sample behind the percentiles.
    pub ops: usize,
    /// Measured wall time of those ops, as `work_per_s` counts it.
    pub wall_s: f64,
    /// Median of the set-ups.
    pub setup_s: f64,
    /// Median op latency.
    pub op_ms_p50: f64,
    /// Tail op latency at the workload's fixed percentile.
    pub op_ms_tail: f64,
    /// Work units per second.
    pub work_per_s: f64,
    /// Peak tracked memory.
    pub peak_mem_mb: f64,
}

impl Report {
    /// Ops started and ops failed, over all passes.
    pub fn counts(&self) -> (u64, u64) {
        self.passes.iter().fold((0, 0), |(a, f), p| {
            (a + p.window.attempted, f + p.window.failed)
        })
    }

    /// All passes' windows as one: what the literal whole-run statistics
    /// (printed beside the metrics, and Little's law) are taken over.
    pub fn pooled(&self) -> Window {
        let mut all = Window::default();
        for p in &self.passes {
            all.ops.extend_from_slice(&p.window.ops);
            all.steps_ms.extend_from_slice(&p.window.steps_ms);
            all.attempted += p.window.attempted;
            all.failed += p.window.failed;
            all.wall_s += p.window.wall_s;
        }
        all
    }

    /// Derives the end-to-end metrics and appends ruler violations to
    /// `errors`: the throughput identity always, the tail's sample support
    /// when `gate_tail` (the traced run's shorter window is not gated).
    ///
    /// The passes run the same op sequence from the same state, so op `i`
    /// of one pass is op `i` of the others: the same computation, observed
    /// [`PASSES`] times, seconds apart. What differs between the
    /// observations is what the shared box added — a neighbour only ever
    /// adds time — so op `i`'s latency is the **fastest of its
    /// observations**, and likewise each step's wall time. The metrics are
    /// whole-sequence statistics over these: every op of the sequence
    /// counts, in particular every slow phase the program itself goes
    /// through at the same place in every pass (CALIBRATION.md). The
    /// sequence ends where the shortest pass ended.
    pub fn end_to_end(&mut self, gate_tail: bool) -> EndToEnd {
        let windows: Vec<&Window> = self.passes.iter().map(|p| &p.window).collect();
        let steps = windows.iter().map(|w| w.steps_ms.len()).min().unwrap_or(0);
        // Without failed ops every step holds the same number of ops.
        let per_step = windows
            .first()
            .map_or(0, |w| w.ops.len() / w.steps_ms.len().max(1));
        let ops = windows
            .iter()
            .map(|w| w.ops.len())
            .min()
            .unwrap_or(0)
            .min(steps * per_step);
        let fastest = |at: &dyn Fn(&Window) -> f64| {
            windows.iter().map(|w| at(w)).fold(f64::INFINITY, f64::min)
        };
        let lat: Vec<f64> = (0..ops).map(|i| fastest(&|w| w.ops[i].lat_ms)).collect();
        let wall_s = (0..steps).map(|j| fastest(&|w| w.steps_ms[j])).sum::<f64>() / 1e3;
        let work: u64 = windows
            .first()
            .map_or(0, |w| w.ops[..ops].iter().map(|o| o.work).sum());

        let sorted = stats::sorted(&lat);
        let beyond = stats::samples_beyond(sorted.len(), self.tail);
        if gate_tail && beyond < stats::TAIL_FLOOR {
            self.errors.push(format!(
                "p{} stands on {beyond} samples beyond it ({} ops); the floor is {}",
                self.tail.get(),
                sorted.len(),
                stats::TAIL_FLOOR
            ));
        }
        let work_per_s = work as f64 / wall_s;
        if (work_per_s * wall_s - work as f64).abs() > 0.5 {
            self.errors.push(format!(
                "work_per_s × wall = {} but completed ops sum to {work}",
                work_per_s * wall_s
            ));
        }
        let setups: Vec<f64> = self.passes.iter().map(|p| p.setup_s).collect();
        let peak = self.passes.iter().map(|p| p.peak_mem_bytes).max();
        EndToEnd {
            ops,
            wall_s,
            setup_s: stats::median(&setups).unwrap_or(f64::NAN),
            op_ms_p50: stats::percentile(&sorted, Pct::P50).unwrap_or(f64::NAN),
            op_ms_tail: stats::percentile(&sorted, self.tail).unwrap_or(f64::NAN),
            work_per_s,
            peak_mem_mb: peak.unwrap_or(0) as f64 / (1024.0 * 1024.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_carry_no_latency_and_no_work() {
        let mut w = Window::default();
        w.push(1.0, Ok(10));
        w.push(2.0, Err(()));
        w.push(f64::NAN, Ok(10));
        assert_eq!((w.attempted, w.failed, w.work()), (3, 2, 10));
        assert_eq!(w.latencies(), vec![1.0]);
    }

    #[test]
    fn measure_runs_until_the_deadline_and_counts_work() {
        let w = measure(0.02, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(3)
        });
        assert!(w.wall_s >= 0.02);
        assert_eq!(w.work(), 3 * w.attempted);
        assert_eq!(w.ops.len() as u64, w.attempted);
        assert_eq!(w.steps_ms.len(), w.ops.len(), "one op per step");
        assert!(w.steps_ms.iter().sum::<f64>() / 1e3 <= w.wall_s);
    }

    /// A pass of `lats.len()` one-op steps of one work unit each.
    fn pass(setup_s: f64, lats: &[f64]) -> Pass {
        let mut window = Window::default();
        for &l in lats {
            window.push(l, Ok(1));
            window.steps_ms.push(l);
        }
        window.wall_s = lats.iter().sum::<f64>() / 1e3;
        Pass {
            setup_s,
            window,
            peak_mem_bytes: 1 << 20,
        }
    }

    fn report(passes: Vec<Pass>) -> Report {
        Report {
            passes,
            tail: Pct::P90,
            work_unit: "ops",
            layers: BTreeMap::new(),
            errors: vec![],
            notes: vec![],
        }
    }

    #[test]
    fn short_tail_support_is_an_error() {
        let mut r = report(vec![pass(1.0, &[1.0; 50])]);
        let e = r.end_to_end(true);
        assert_eq!((e.ops, e.op_ms_p50), (50, 1.0));
        assert!((e.work_per_s - 1000.0).abs() < 1e-6);
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert!(report(vec![pass(1.0, &[1.0; 50])])
            .end_to_end(false)
            .op_ms_tail
            .is_finite());
    }

    /// Ops of 10 ms whose ops 100..125 take 30 ms in every pass (the
    /// program's own slow phase); a neighbour adds 5 ms to a different
    /// stretch of each pass.
    fn disturbed(neighbour: std::ops::Range<usize>, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let own = if (100..125).contains(&i) { 30.0 } else { 10.0 };
                own + if neighbour.contains(&i) { 5.0 } else { 0.0 }
            })
            .collect()
    }

    #[test]
    fn the_neighbour_is_shed_and_the_programs_own_slow_phase_is_kept() {
        let mut r = report(vec![
            pass(0.30, &disturbed(0..90, 200)),
            pass(0.10, &disturbed(60..150, 210)),
            pass(0.20, &disturbed(140..200, 205)),
        ]);
        let e = r.end_to_end(true);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(e.ops, 200, "the shortest pass ends the sequence");
        assert_eq!(e.setup_s, 0.20, "median of the three set-ups");
        assert_eq!(e.op_ms_p50, 10.0);
        assert_eq!(
            e.op_ms_tail, 30.0,
            "p90 of 200 ops lies among the 25 slow ones"
        );
        let wall_s = (175.0 * 10.0 + 25.0 * 30.0) / 1e3;
        assert!((e.wall_s - wall_s).abs() < 1e-9);
        assert!((e.work_per_s - 200.0 / wall_s).abs() < 1e-6);
        assert_eq!(e.peak_mem_mb, 1.0);
        // The literal whole-run median still reads 10 ms, its mean does not.
        assert!(r.pooled().mean_ms() > 13.0);
        assert_eq!(r.counts(), (615, 0));
    }

    #[test]
    fn steps_of_two_ops_keep_their_own_wall_time() {
        // Serving: two ops per lock-step round, and every other round is
        // preceded by 4 ms of ingest that belongs to no op.
        let round = |extra: f64| {
            let mut w = Window::default();
            for j in 0..100 {
                w.push(2.0 + extra, Ok(1));
                w.push(2.0 + extra, Ok(1));
                w.steps_ms
                    .push(2.0 + extra + if j % 2 == 0 { 4.0 } else { 0.0 });
            }
            w.wall_s = w.steps_ms.iter().sum::<f64>() / 1e3;
            Pass {
                setup_s: 1.0,
                window: w,
                peak_mem_bytes: 1,
            }
        };
        let mut r = report(vec![round(0.5), round(0.0), round(1.0)]);
        r.tail = Pct::P50;
        let e = r.end_to_end(false);
        assert_eq!((e.ops, e.op_ms_p50), (200, 2.0));
        assert!((e.wall_s - 0.4).abs() < 1e-9, "{}", e.wall_s);
        assert!((e.work_per_s - 500.0).abs() < 1e-6);
    }
}
