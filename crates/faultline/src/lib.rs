//! # stgraph-faultline
//!
//! Deterministic fault injection and recovery primitives for the STGraph
//! serving stack. Production TGNN systems must survive torn checkpoint
//! writes, ingest batches that die mid-GPMA-update, and allocator failures
//! under load — and the only way to *prove* they do is to inject those
//! failures deterministically and assert on the recovery path. This crate
//! provides the three pieces every such proof needs:
//!
//! * **Fault points** — [`fault_point!`] marks a failable operation by
//!   name (`"checkpoint.write"`, `"ingest.apply"`, ...). When injection is
//!   disabled the macro is a single relaxed atomic load, exactly
//!   mirroring `stgraph-telemetry`'s tracing gate, so production binaries
//!   pay nothing for carrying the sites. When enabled, the process-wide
//!   [`FaultPlan`] decides per site and per hit whether to fail, how long
//!   to stall, or both.
//! * **Fault plans** — [`FaultPlan`] maps site names to [`SiteRule`]s:
//!   fail the n-th hit, fail every k-th hit, fail with a seeded
//!   probability (deterministic for a given seed — reruns reproduce the
//!   exact failure sequence), and/or inject latency. Plans come from the
//!   `STGRAPH_FAULTS` environment variable or programmatically via
//!   [`set_plan`].
//! * **Retry** — [`retry`] with a [`RetryPolicy`] (exponential backoff,
//!   capped) is the shared recovery loop for ingest application and
//!   checkpoint writes; every attempt after the first bumps the
//!   `faults.retries` telemetry counter so recovery activity is visible
//!   in the Prometheus exposition.
//!
//! ## `STGRAPH_FAULTS` syntax
//!
//! Comma-separated entries; each is either `seed=N` or
//! `site:key=val[;key=val...]`:
//!
//! ```text
//! STGRAPH_FAULTS="ingest.apply:every=7"
//! STGRAPH_FAULTS="checkpoint.write:nth=2,engine.dequeue:delay_us=500,seed=42"
//! STGRAPH_FAULTS="gpma.update:prob=0.1;delay_us=100,seed=7"
//! ```
//!
//! Keys: `nth` (fail exactly the n-th hit, 1-based), `every` (fail every
//! k-th hit), `prob` (fail each hit with probability `p`, seeded),
//! `delay_us` (sleep this long at every hit, failing or not).
//!
//! ## Site roster
//!
//! The workspace currently carries twelve sites: `checkpoint.write`,
//! `checkpoint.rename`, `gpma.update`, `ingest.apply`, `snapshot.build`,
//! `pool.alloc`, `engine.dequeue`, `net.accept`, `net.read`,
//! `tcsr.append`, and the train-while-serving pair
//! `online.step` (fires after the optimizer applies, forcing an exact
//! bitwise rollback of the half-applied gradient step) and
//! `online.publish` (fires before the atomic weight-generation swap, so
//! readers never observe a partial publish). Every site's recovery path
//! calls [`note_rollback`] so the `faults.rollbacks` counter audits it.

#![warn(missing_docs)]

mod plan;
mod retry;

pub use plan::{FaultError, FaultPlan, PlanParseError, SiteRule};
pub use retry::{retry, RetryPolicy};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

static PLAN: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();

fn plan_cell() -> &'static Mutex<Option<FaultPlan>> {
    PLAN.get_or_init(|| Mutex::new(None))
}

/// True when fault injection is armed. After the first call this is
/// exactly one relaxed atomic load — the disabled-path cost every
/// [`fault_point!`] site pays.
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
    let plan = std::env::var("STGRAPH_FAULTS")
        .ok()
        .filter(|v| !v.is_empty())
        .and_then(|v| match FaultPlan::parse(&v) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("STGRAPH_FAULTS ignored: {e}");
                None
            }
        });
    let on = plan.is_some();
    if on {
        *plan_cell().lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Installs `plan` as the process-wide fault plan and arms injection.
/// Overrides whatever `STGRAPH_FAULTS` configured.
pub fn set_plan(plan: FaultPlan) {
    *plan_cell().lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Removes any programmatic plan and re-derives state from
/// `STGRAPH_FAULTS` (with fresh hit counters), so tests that install plans
/// coexist with an environment-driven run of the whole suite.
pub fn clear_plan() {
    *plan_cell().lock().unwrap_or_else(|e| e.into_inner()) = None;
    STATE.store(STATE_UNSET, Ordering::Relaxed);
}

/// Slow path behind [`fault_point!`]: consults the installed plan for
/// `site`. Called only when [`enabled`] is true; sites with no rule are
/// `Ok(())`.
pub fn check_slow(site: &'static str) -> Result<(), FaultError> {
    let decision = {
        let guard = plan_cell().lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(plan) => plan.decide(site),
            None => return Ok(()),
        }
    };
    // Sleep outside the plan lock so injected latency never serialises
    // unrelated sites.
    if let Some(delay) = decision.delay {
        counters().delays.inc();
        std::thread::sleep(delay);
    }
    match decision.fail {
        Some(err) => {
            counters().injected.inc();
            Err(err)
        }
        None => Ok(()),
    }
}

/// Marks a failable operation. Expands to `Result<(), FaultError>`: when
/// injection is disabled the expansion is one relaxed atomic load and an
/// `Ok(())`; when enabled the process-wide [`FaultPlan`] decides.
///
/// ```
/// fn write_block() -> Result<(), stgraph_faultline::FaultError> {
///     stgraph_faultline::fault_point!("example.write")?;
///     // ... the real write ...
///     Ok(())
/// }
/// assert!(write_block().is_ok());
/// ```
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        if $crate::enabled() {
            $crate::check_slow($site)
        } else {
            ::core::result::Result::Ok(())
        }
    };
}

/// Cached handles to the resilience telemetry counters.
pub(crate) struct FaultCounters {
    pub(crate) injected: stgraph_telemetry::Counter,
    pub(crate) delays: stgraph_telemetry::Counter,
    pub(crate) retries: stgraph_telemetry::Counter,
    pub(crate) rollbacks: stgraph_telemetry::Counter,
}

pub(crate) fn counters() -> &'static FaultCounters {
    static CELL: OnceLock<FaultCounters> = OnceLock::new();
    CELL.get_or_init(|| FaultCounters {
        injected: stgraph_telemetry::counter("faults.injected"),
        delays: stgraph_telemetry::counter("faults.delays"),
        retries: stgraph_telemetry::counter("faults.retries"),
        rollbacks: stgraph_telemetry::counter("faults.rollbacks"),
    })
}

/// Total faults injected process-wide (the `faults.injected` counter).
pub fn injected_count() -> u64 {
    counters().injected.get()
}

/// Total retry attempts process-wide (the `faults.retries` counter).
pub fn retry_count() -> u64 {
    counters().retries.get()
}

/// Total rollbacks process-wide (the `faults.rollbacks` counter). Bumped
/// by recovery code (ingest rollback, checkpoint-manager fallback) via
/// [`note_rollback`].
pub fn rollback_count() -> u64 {
    counters().rollbacks.get()
}

/// Records one rollback on the shared `faults.rollbacks` counter.
pub fn note_rollback() {
    counters().rollbacks.inc();
}

/// Serialises tests (including downstream integration tests) that install
/// process-global fault plans. Hold the guard for the whole test body.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn disabled_sites_are_ok_and_free() {
        let _g = test_lock();
        clear_plan();
        // No STGRAPH_FAULTS in the test environment: stays disabled.
        if std::env::var("STGRAPH_FAULTS").is_ok() {
            return; // suite is running under an env plan; skip
        }
        assert!(!enabled());
        for _ in 0..100 {
            assert!(fault_point!("test.site").is_ok());
        }
    }

    #[test]
    fn nth_fails_exactly_once() {
        let _g = test_lock();
        set_plan(FaultPlan::new().fail_nth("test.nth", 3));
        let results: Vec<bool> = (0..6).map(|_| fault_point!("test.nth").is_ok()).collect();
        assert_eq!(results, [true, true, false, true, true, true]);
        clear_plan();
    }

    #[test]
    fn every_k_fails_periodically() {
        let _g = test_lock();
        set_plan(FaultPlan::new().fail_every("test.every", 3));
        let fails = (0..9)
            .filter(|_| fault_point!("test.every").is_err())
            .count();
        assert_eq!(fails, 3, "hits 3, 6, 9 fail");
        clear_plan();
    }

    #[test]
    fn seeded_prob_is_deterministic() {
        let _g = test_lock();
        let run = |seed| {
            set_plan(FaultPlan::new().seed(seed).fail_prob("test.prob", 0.5));
            let v: Vec<bool> = (0..32).map(|_| fault_point!("test.prob").is_ok()).collect();
            clear_plan();
            v
        };
        assert_eq!(run(7), run(7), "same seed, same failure sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        let fails = run(7).iter().filter(|ok| !*ok).count();
        assert!((4..=28).contains(&fails), "p=0.5 over 32 hits: got {fails}");
    }

    #[test]
    fn delay_injects_latency_without_failing() {
        let _g = test_lock();
        set_plan(FaultPlan::new().delay("test.delay", 2_000));
        let t0 = Instant::now();
        assert!(fault_point!("test.delay").is_ok());
        assert!(t0.elapsed().as_micros() >= 2_000);
        clear_plan();
    }

    #[test]
    fn unknown_sites_pass_under_any_plan() {
        let _g = test_lock();
        set_plan(FaultPlan::new().fail_every("test.other", 1));
        assert!(fault_point!("test.unknown").is_ok());
        clear_plan();
    }

    #[test]
    fn fault_error_names_site_and_hit() {
        let _g = test_lock();
        set_plan(FaultPlan::new().fail_nth("test.err", 1));
        let err = fault_point!("test.err").unwrap_err();
        assert_eq!(err.site, "test.err");
        assert_eq!(err.hit, 1);
        let text = err.to_string();
        assert!(
            text.contains("test.err") && text.contains("hit 1"),
            "{text}"
        );
        clear_plan();
    }

    #[test]
    fn counters_track_injections() {
        let _g = test_lock();
        let before = injected_count();
        set_plan(FaultPlan::new().fail_every("test.count", 1));
        for _ in 0..5 {
            let _ = fault_point!("test.count");
        }
        assert_eq!(injected_count() - before, 5);
        clear_plan();
    }

    /// The disabled path must stay in the "one relaxed atomic load" cost
    /// class. The bound is deliberately loose (it must hold in debug
    /// builds under CI noise); the chaos-smoke CI job re-runs it in
    /// release where the mean is a few nanoseconds.
    #[test]
    fn disabled_path_overhead() {
        let _g = test_lock();
        clear_plan();
        if std::env::var("STGRAPH_FAULTS").is_ok() {
            return; // enabled via env: overhead claim not applicable
        }
        assert!(!enabled());
        let iters = 1_000_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            let r = fault_point!("test.overhead");
            std::hint::black_box(&r);
        }
        let per_call = t0.elapsed().as_nanos() as f64 / iters as f64;
        let bound = if cfg!(debug_assertions) { 500.0 } else { 50.0 };
        assert!(
            per_call < bound,
            "disabled fault_point! cost {per_call:.1}ns/call (bound {bound}ns)"
        );
    }
}
