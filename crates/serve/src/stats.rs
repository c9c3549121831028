//! Latency/throughput accounting for the serve engine, fused with the
//! tensor-layer pool and memory trackers so one report covers the whole
//! serving stack: query percentiles, ingest cost, buffer-pool recycling
//! and per-pool live bytes.

use crate::ingest::IngestStats;
use std::fmt;
use std::time::Duration;
use stgraph_telemetry::Histogram;
use stgraph_tensor::pool::BufPoolStats;

/// Records per-query latencies and reports nearest-rank percentiles.
///
/// A thin wrapper over the shared [`stgraph_telemetry::Histogram`] with an
/// unbounded exact-sample reservoir: percentiles stay on the histogram's
/// exact nearest-rank path regardless of sample count, so reported values
/// are bit-for-bit what the previous sort-the-`Vec` recorder produced,
/// while the buckets make the recorder mergeable and exportable.
#[derive(Debug)]
pub struct LatencyRecorder {
    hist: Histogram,
}

impl Default for LatencyRecorder {
    fn default() -> LatencyRecorder {
        LatencyRecorder::new()
    }
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder {
            hist: Histogram::with_exact_cap(usize::MAX),
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, d: Duration) {
        self.hist.record_duration(d);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Median (nearest rank); zero when empty.
    ///
    /// The three accessors are the only way to read a percentile: the raw
    /// `f64` form invited `percentile(0.50)` on a 0..=100 scale, which is
    /// the 0.5th percentile (how `loadgen` under-reported by ~100×).
    pub fn p50(&self) -> Duration {
        self.hist.quantile_duration(50.0)
    }

    /// 95th percentile (nearest rank); zero when empty.
    pub fn p95(&self) -> Duration {
        self.hist.quantile_duration(95.0)
    }

    /// 99th percentile (nearest rank); zero when empty.
    pub fn p99(&self) -> Duration {
        self.hist.quantile_duration(99.0)
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> Duration {
        self.hist.mean_duration()
    }

    /// The underlying histogram (exporters read buckets from here).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// The complete serve-run report printed by the `serve` binary.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Queries answered.
    pub queries: u64,
    /// Micro-batches flushed through the engine.
    pub batches: u64,
    /// Batched forward passes executed (one per generation served).
    pub forwards: u64,
    /// Final graph generation reached.
    pub generation: u64,
    /// Median query latency.
    pub p50: Duration,
    /// 95th-percentile query latency.
    pub p95: Duration,
    /// 99th-percentile query latency.
    pub p99: Duration,
    /// Mean query latency.
    pub mean: Duration,
    /// Wall time of the serving run.
    pub elapsed: Duration,
    /// Ingest counters from the live graph.
    pub ingest: IngestStats,
    /// Workspace buffer-pool counters ([`stgraph_tensor::pool`]).
    pub pool: BufPoolStats,
    /// Per-pool live/peak bytes ([`stgraph_tensor::mem`]).
    pub mem: Vec<(String, stgraph_tensor::mem::PoolStats)>,
    /// Queries shed at submit time because the queue was full.
    pub shed: u64,
    /// Queries expired past their deadline instead of being answered.
    pub expired: u64,
    /// Batched forwards that panicked and were recovered.
    pub panics: u64,
    /// Faults injected process-wide (the `faults.injected` counter) —
    /// nonzero only when `STGRAPH_FAULTS` or a programmatic plan is armed.
    pub faults_injected: u64,
    /// Train-while-serving stats — `Some` only when an online trainer was
    /// attached ([`crate::online::OnlineTrainer`]).
    pub online: Option<crate::online::OnlineStats>,
}

impl ServeReport {
    /// Queries per second over the run's wall time.
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.queries as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean queries per micro-batch (coalescing effectiveness).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.queries as f64 / self.batches as f64
    }
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 1000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{us:.1}us")
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} queries in {} batches ({:.1} q/batch), {} forwards over {} generations",
            self.queries,
            self.batches,
            self.mean_batch_size(),
            self.forwards,
            self.generation + 1,
        )?;
        writeln!(
            f,
            "latency: p50 {}  p95 {}  p99 {}  mean {}",
            fmt_dur(self.p50),
            fmt_dur(self.p95),
            fmt_dur(self.p99),
            fmt_dur(self.mean),
        )?;
        writeln!(
            f,
            "throughput: {:.0} q/s over {:.3}s wall",
            self.throughput_qps(),
            self.elapsed.as_secs_f64(),
        )?;
        writeln!(
            f,
            "ingest: {} batches (+{} -{} edges) in {}",
            self.ingest.batches,
            self.ingest.edges_added,
            self.ingest.edges_deleted,
            fmt_dur(self.ingest.ingest_time),
        )?;
        writeln!(
            f,
            "resilience: {} shed, {} expired, {} panics recovered, {} retries, {} rollbacks, {} faults injected",
            self.shed,
            self.expired,
            self.panics,
            self.ingest.retries,
            self.ingest.rollbacks,
            self.faults_injected,
        )?;
        if let Some(o) = &self.online {
            writeln!(
                f,
                "online: {} steps, weight gen {}, replay {} edges, last loss {:.6}{}",
                o.steps,
                o.weight_generation,
                o.replay_len,
                o.last_loss,
                if o.halted { " [halted]" } else { "" },
            )?;
        }
        writeln!(
            f,
            "buffer pool: {} hits / {} misses, {} recycled, {} cached, {} trimmed",
            self.pool.hits,
            self.pool.misses,
            fmt_bytes(self.pool.recycled_bytes),
            fmt_bytes(self.pool.cached_bytes),
            fmt_bytes(self.pool.trimmed_bytes),
        )?;
        for (name, s) in &self.mem {
            if s.total_allocated > 0 {
                writeln!(
                    f,
                    "mem[{name}]: live {}  peak {}  total {} in {} allocs",
                    fmt_bytes(s.live),
                    fmt_bytes(s.peak),
                    fmt_bytes(s.total_allocated),
                    s.allocations,
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.p50(), Duration::from_millis(50));
        assert_eq!(r.p95(), Duration::from_millis(95));
        assert_eq!(r.p99(), Duration::from_millis(99));
        assert_eq!(r.mean(), Duration::from_micros(50500));
    }

    #[test]
    fn accessors_are_on_the_percent_scale() {
        // Regression: loadgen asked for `percentile(0.50 / 0.95 / 0.99)` on
        // the 0..=100 scale and printed the 5th, 10th and 10th of 1000
        // samples as p50/p95/p99.
        let mut r = LatencyRecorder::new();
        for ms in 1..=1000u64 {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.p50(), Duration::from_millis(500));
        assert_eq!(r.p95(), Duration::from_millis(950));
        assert_eq!(r.p99(), Duration::from_millis(990));
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let r = LatencyRecorder::new();
        assert_eq!(r.p99(), Duration::ZERO);
        assert_eq!(r.mean(), Duration::ZERO);
        assert!(r.is_empty());
    }

    #[test]
    fn percentile_single_sample() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_millis(7));
        assert_eq!(r.p50(), Duration::from_millis(7));
        assert_eq!(r.p99(), Duration::from_millis(7));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn report_derives_and_displays() {
        let report = ServeReport {
            queries: 100,
            batches: 10,
            forwards: 5,
            generation: 4,
            p50: Duration::from_micros(120),
            p95: Duration::from_micros(900),
            p99: Duration::from_millis(2),
            mean: Duration::from_micros(200),
            elapsed: Duration::from_secs(2),
            ingest: IngestStats::default(),
            pool: stgraph_tensor::pool::stats(),
            mem: stgraph_tensor::mem::all_stats(),
            shed: 3,
            expired: 2,
            panics: 1,
            faults_injected: 0,
            online: None,
        };
        assert!((report.throughput_qps() - 50.0).abs() < 1e-9);
        assert!((report.mean_batch_size() - 10.0).abs() < 1e-9);
        let text = format!("{report}");
        assert!(text.contains("p50 120.0us"));
        assert!(text.contains("p99 2.00ms"));
        assert!(text.contains("50 q/s"));
        assert!(text.contains("resilience: 3 shed, 2 expired, 1 panics recovered"));
    }
}
