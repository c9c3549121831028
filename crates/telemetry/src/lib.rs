//! # stgraph-telemetry
//!
//! The one observability subsystem every layer of the STGraph stack reports
//! into. The paper's headline results are all *measurements* — kernel time,
//! snapshot-construction time, stack push/pop cost, memory footprint — and
//! before this crate each was captured by a different ad-hoc mechanism.
//! Here they share one vocabulary:
//!
//! * **Spans** ([`span`], [`span_timed`]) — hierarchical timed regions kept
//!   on a thread-local stack. When tracing is enabled each completed span
//!   feeds a lock-free per-name aggregate (count / total / max, all relaxed
//!   atomics, merged correctly across rayon workers) and a per-thread
//!   Chrome `trace_event` buffer. When tracing is *disabled* entering a
//!   span is a single relaxed atomic load returning an inert guard.
//! * **Counters** ([`counter`]) and **gauges**
//!   ([`register_gauge`], [`register_gauge_provider`]) — always-on
//!   monotone/atomic values and export-time sampled readings (the tensor
//!   crate re-exposes its pool and memory trackers this way).
//! * **Histograms** ([`histogram`], [`hist::Histogram`]) — log-bucketed,
//!   mergeable, with exact nearest-rank quantiles up to a sample cap
//!   ([`hist::DEFAULT_EXACT_CAP`]) and bucket resolution (within 2×) past
//!   it. Below the cap the serve engine's p50/p95/p99 report is
//!   bit-for-bit what the old bespoke recorder produced.
//! * **Exporters** ([`export`]) — a Chrome `trace_event` JSON timeline
//!   (`--trace <path>` on the `train` and `serve` binaries, read it in
//!   `chrome://tracing` or Perfetto) and a Prometheus-style text exposition
//!   snapshot of every counter, gauge, histogram and span aggregate.
//!
//! Tracing is gated by the `STGRAPH_TRACE` environment variable (any
//! non-empty value other than `0`) or programmatically via
//! [`set_enabled`] — which is what `--trace` does.

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod span;

pub use hist::Histogram;
pub use metrics::{
    counter, counter_labeled, histogram, histogram_labeled, register_gauge,
    register_gauge_provider, register_labeled_gauge_provider, Counter,
};
pub use span::{span, span_cat, span_timed, SpanGuard, TimeAccumulator};

use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// True when tracing (spans + trace events) is on. After the first call
/// this is exactly one relaxed atomic load — the disabled-path cost every
/// hot layer pays per instrumentation point.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("STGRAPH_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Turns tracing on or off for the whole process, overriding
/// `STGRAPH_TRACE`. The `--trace` flag calls this at startup; tests use it
/// to exercise the enabled paths deterministically.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Serialises tests that toggle the process-global enabled flag.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides_env() {
        let _g = test_guard();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
