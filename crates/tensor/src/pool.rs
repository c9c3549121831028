//! Size-class workspace buffer pool backing [`crate::mem::TrackedBuf`].
//!
//! Training loops allocate and drop the same tensor shapes every timestamp:
//! activations, gradients, and kernel scratch churn through the allocator at
//! a rate that dominates the hot path once the kernels themselves are cache
//! tuned. This module recycles those buffers through power-of-two size
//! classes: a dropped buffer parks on a free list instead of returning to the
//! allocator, and the next allocation of the same class pops it back off.
//!
//! Design points:
//!
//! - **Scoped.** Pooling is off unless a [`PoolScope`] is alive on the
//!   *current thread* (the executor opens one per epoch / timestamp batch).
//!   The scope depth is thread-local so a scope opened by one test or by the
//!   training orchestrator never changes allocation semantics observed by
//!   unrelated threads; rayon workers fall back to plain allocation, which is
//!   free of correctness consequences because recycling is transparent.
//! - **Attribution-preserving.** Free lists are segregated by [`crate::mem`]
//!   pool id. A cached buffer keeps the byte charge it acquired at
//!   allocation, in the pool it was charged to, until [`trim`] releases it.
//!   Recycling therefore never moves bytes between named memory pools.
//! - **Conservative accounting.** Cached bytes still count as *live* in the
//!   memory tracker — the process really does hold them. Memory
//!   measurements (the Fig. 6 / Fig. 8 exhibits of the `paper` binary) run
//!   under [`force_disable`] so their reported live and peak bytes reflect
//!   true working-set sizes.
//!
//! When the outermost scope on a thread exits, the pool is trimmed: every
//! cached buffer is freed and its bytes are finally deducted from the memory
//! tracker, so quiescent live-byte assertions hold exactly as they did before
//! pooling existed.

use parking_lot::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Smallest size class, in `f32` elements (256 B). Requests below this are
/// rounded up; the waste is bounded and tiny buffers are cheap anyway.
pub const MIN_CLASS_FLOATS: usize = 64;

/// Largest size class, in `f32` elements (64 MiB). Larger requests bypass the
/// pool entirely — they are rare and caching them would pin too much memory.
pub const MAX_CLASS_FLOATS: usize = 1 << 24;

const MIN_CLASS_SHIFT: u32 = MIN_CLASS_FLOATS.trailing_zeros();
const N_CLASSES: usize = (MAX_CLASS_FLOATS.trailing_zeros() - MIN_CLASS_SHIFT) as usize + 1;

/// Cap on cached buffers per (memory pool, size class); returns beyond this
/// are freed normally so a burst can't pin unbounded memory.
const MAX_CACHED_PER_CLASS: usize = 64;

/// Returns the size-class index serving a request of `len` floats, or `None`
/// if the request is pool-ineligible (zero-length or beyond
/// [`MAX_CLASS_FLOATS`]).
fn class_for(len: usize) -> Option<usize> {
    if len == 0 || len > MAX_CLASS_FLOATS {
        return None;
    }
    let cap = len.next_power_of_two().max(MIN_CLASS_FLOATS);
    Some((cap.trailing_zeros() - MIN_CLASS_SHIFT) as usize)
}

/// Rounds `len` up to the capacity of its size class, or `None` if the
/// request bypasses the pool. Pool-eligible allocations reserve exactly this
/// capacity so the buffer slots back into its class on drop.
pub fn class_capacity(len: usize) -> Option<usize> {
    class_for(len).map(|c| MIN_CLASS_FLOATS << c)
}

// Free lists: outer index = mem pool id, then size class, then a stack of
// cached buffers of that class.
type ClassStacks = Vec<Vec<Vec<f32>>>;
type ClassLists = Vec<ClassStacks>;

static LISTS: OnceLock<Mutex<ClassLists>> = OnceLock::new();

fn lists() -> &'static Mutex<ClassLists> {
    LISTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SCOPE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

static FORCE_DISABLED: AtomicBool = AtomicBool::new(false);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);
static RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);
static CACHED_BYTES: AtomicU64 = AtomicU64::new(0);
static TRIMMED_BYTES: AtomicU64 = AtomicU64::new(0);

/// True when allocations on the current thread may be served from and
/// returned to the pool: a [`PoolScope`] is alive on this thread and
/// [`force_disable`] has not switched pooling off.
pub fn enabled() -> bool {
    SCOPE_DEPTH.with(|d| d.get()) > 0 && !FORCE_DISABLED.load(Ordering::Relaxed)
}

/// Disables (`true`) or re-enables (`false`) pooling process-wide regardless
/// of scope state. Memory measurements pass `true` before their runs so
/// reported bytes are true working-set sizes, and `false` afterwards.
/// Disabling trims the pool so no cached bytes linger.
pub fn force_disable(disable: bool) {
    FORCE_DISABLED.store(disable, Ordering::Relaxed);
    if disable {
        trim();
    }
}

/// RAII guard enabling pooled allocation on the current thread for its
/// lifetime. Scopes nest; when the outermost scope on a thread exits the pool
/// is [`trim`]med so cached bytes are released and live-byte accounting
/// returns to exact.
pub struct PoolScope {
    // Depth is thread-local: the guard must drop on the thread that made it.
    _not_send: PhantomData<*const ()>,
}

impl PoolScope {
    /// Opens a scope on the current thread.
    pub fn new() -> PoolScope {
        // First scope of the process hooks the pool and memory trackers up
        // to the telemetry registry as pull-style gauges.
        static TELEMETRY: std::sync::Once = std::sync::Once::new();
        TELEMETRY.call_once(install_telemetry_gauges);
        SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
        PoolScope {
            _not_send: PhantomData,
        }
    }
}

/// Exposes pool counters and every memory-tracker pool to `stgraph-telemetry`
/// (evaluated lazily at export time; zero steady-state cost).
fn install_telemetry_gauges() {
    stgraph_telemetry::register_gauge("pool.hits", || stats().hits as f64);
    stgraph_telemetry::register_gauge("pool.misses", || stats().misses as f64);
    stgraph_telemetry::register_gauge("pool.cached_bytes", || stats().cached_bytes as f64);
    stgraph_telemetry::register_gauge("pool.recycled_bytes", || stats().recycled_bytes as f64);
    stgraph_telemetry::register_gauge_provider("mem.pools", || {
        crate::mem::all_stats()
            .into_iter()
            .flat_map(|(name, s)| {
                [
                    (format!("mem.{name}.live_bytes"), s.live as f64),
                    (format!("mem.{name}.peak_bytes"), s.peak as f64),
                    (format!("mem.{name}.allocations"), s.allocations as f64),
                ]
            })
            .collect()
    });
}

impl Default for PoolScope {
    fn default() -> Self {
        PoolScope::new()
    }
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        let depth = SCOPE_DEPTH.with(|d| {
            let v = d.get() - 1;
            d.set(v);
            v
        });
        if depth == 0 {
            trim();
        }
    }
}

/// Pops a cached buffer able to hold `len` floats from `pool`'s free lists.
/// Returns `None` when pooling is disabled, the request is ineligible, or the
/// class is empty (a miss). The returned vector has its class capacity and
/// arbitrary (but initialized) contents; the caller sizes and fills it.
pub(crate) fn take(pool: u32, len: usize) -> Option<Vec<f32>> {
    if !enabled() {
        return None;
    }
    // The `pool.alloc` fault point degrades gracefully by design: an
    // injected failure is reported as a cache bypass (the caller falls
    // back to a fresh allocation), never an allocation error.
    if stgraph_faultline::fault_point!("pool.alloc").is_err() {
        return None;
    }
    let class = class_for(len)?;
    let cached = {
        let mut lists = lists().lock();
        lists
            .get_mut(pool as usize)
            .and_then(|classes| classes.get_mut(class))
            .and_then(|stack| stack.pop())
    };
    match cached {
        Some(v) => {
            let bytes = (v.capacity() * std::mem::size_of::<f32>()) as u64;
            HITS.fetch_add(1, Ordering::Relaxed);
            RECYCLED_BYTES.fetch_add(bytes, Ordering::Relaxed);
            CACHED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
            Some(v)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Offers a dropped buffer back to `pool`'s free lists. Returns the buffer
/// unconsumed when pooling is disabled, the capacity is not exactly a size
/// class, or the class stack is full — the caller then frees it normally
/// (deducting its charge from the memory tracker).
pub(crate) fn put(pool: u32, v: Vec<f32>) -> Result<(), Vec<f32>> {
    if !enabled() {
        return Err(v);
    }
    let cap = v.capacity();
    if !cap.is_power_of_two() || !(MIN_CLASS_FLOATS..=MAX_CLASS_FLOATS).contains(&cap) {
        return Err(v);
    }
    let class = (cap.trailing_zeros() - MIN_CLASS_SHIFT) as usize;
    {
        let mut lists = lists().lock();
        let idx = pool as usize;
        if lists.len() <= idx {
            lists.resize_with(idx + 1, || vec![Vec::new(); N_CLASSES]);
        }
        let stack = &mut lists[idx][class];
        if stack.len() >= MAX_CACHED_PER_CLASS {
            return Err(v);
        }
        stack.push(v);
    }
    RETURNS.fetch_add(1, Ordering::Relaxed);
    CACHED_BYTES.fetch_add((cap * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
    Ok(())
}

/// Frees every cached buffer, deducting each one's bytes from the memory
/// pool it was charged to. Runs automatically when the outermost
/// [`PoolScope`] on a thread exits and on [`force_disable`]. Safe to call at
/// any time: a concurrent scope simply re-fills its classes on demand.
pub fn trim() {
    let drained: Vec<(u32, ClassStacks)> = {
        let mut lists = lists().lock();
        lists
            .iter_mut()
            .enumerate()
            .map(|(pool, classes)| {
                (
                    pool as u32,
                    classes.iter_mut().map(std::mem::take).collect(),
                )
            })
            .collect()
    };
    for (pool, classes) in drained {
        for stack in classes {
            for v in stack {
                let bytes = v.capacity() * std::mem::size_of::<f32>();
                CACHED_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
                TRIMMED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
                crate::mem::track_free(pool, bytes);
            }
        }
    }
}

/// Counters describing pool behaviour since startup (or [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Allocations served from a free list (no allocator call, no new charge).
    pub hits: u64,
    /// Pool-eligible allocations that fell through to the allocator.
    pub misses: u64,
    /// Dropped buffers parked on a free list instead of being freed.
    pub returns: u64,
    /// Total bytes served from free lists (monotone).
    pub recycled_bytes: u64,
    /// Bytes currently parked on free lists (still live in the tracker).
    pub cached_bytes: u64,
    /// Total bytes released by [`trim`] (monotone).
    pub trimmed_bytes: u64,
}

/// Reads the pool counters.
pub fn stats() -> BufPoolStats {
    BufPoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
        recycled_bytes: RECYCLED_BYTES.load(Ordering::Relaxed),
        cached_bytes: CACHED_BYTES.load(Ordering::Relaxed),
        trimmed_bytes: TRIMMED_BYTES.load(Ordering::Relaxed),
    }
}

/// Zeroes the monotone counters (`cached_bytes` is live state and is kept).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RETURNS.store(0, Ordering::Relaxed);
    RECYCLED_BYTES.store(0, Ordering::Relaxed);
    TRIMMED_BYTES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{self, TrackedBuf};

    /// `force_disable` and the hit/miss/return counters are process-global,
    /// so the tests that set or read them run one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn size_classes_round_up() {
        assert_eq!(class_capacity(0), None);
        assert_eq!(class_capacity(1), Some(64));
        assert_eq!(class_capacity(64), Some(64));
        assert_eq!(class_capacity(65), Some(128));
        assert_eq!(class_capacity(1000), Some(1024));
        assert_eq!(class_capacity(MAX_CLASS_FLOATS), Some(MAX_CLASS_FLOATS));
        assert_eq!(class_capacity(MAX_CLASS_FLOATS + 1), None);
    }

    #[test]
    fn pooling_is_scoped_to_thread() {
        let _serial = serial();
        assert!(!enabled());
        let scope = PoolScope::new();
        assert!(enabled());
        let handle = std::thread::spawn(enabled);
        assert!(
            !handle.join().unwrap(),
            "scope must not leak to other threads"
        );
        drop(scope);
        assert!(!enabled());
    }

    // The full alloc/drop/reuse cycle with stats balance and trim accounting.
    // One test (not several) because the counters are global: a single
    // sequential body keeps the deltas attributable.
    #[test]
    fn lifecycle_balances_and_trims() {
        let _serial = serial();
        mem::with_pool("buf-pool-test", || {
            let before = stats();
            let live0 = mem::stats("buf-pool-test").live;
            {
                let _scope = PoolScope::new();
                let a = TrackedBuf::zeros(300); // class 512 floats = 2048 B
                assert_eq!(mem::stats("buf-pool-test").live - live0, 2048);
                drop(a); // parked, still live
                assert_eq!(mem::stats("buf-pool-test").live - live0, 2048);
                let b = TrackedBuf::zeros(400); // same class: served from cache
                assert!(b.as_slice().iter().all(|&x| x == 0.0));
                assert_eq!(
                    mem::stats("buf-pool-test").live - live0,
                    2048,
                    "recycled alloc must not add a new charge"
                );
                drop(b);
                let after = stats();
                assert_eq!(after.hits - before.hits, 1);
                assert_eq!(after.misses - before.misses, 1);
                assert_eq!(after.returns - before.returns, 2);
                assert_eq!(after.recycled_bytes - before.recycled_bytes, 2048);
                // Returns and takes balance: every hit consumed one return,
                // and the surplus return is exactly what sits in the cache.
                assert_eq!(
                    (after.returns - before.returns) - (after.hits - before.hits),
                    1,
                    "one buffer should remain cached"
                );
            }
            // Outermost scope exit trimmed: no leaked buffers or charges.
            assert_eq!(
                mem::stats("buf-pool-test").live,
                live0,
                "trim must release all cached charges"
            );
            let after = stats();
            assert!(after.trimmed_bytes - before.trimmed_bytes >= 2048);
        });
    }

    // Unwind audit: a panic under an open scope must run the guard's Drop —
    // depth back to zero, cached charges trimmed — and leave the thread able
    // to open fresh scopes. A leaked depth here would silently re-enable
    // pooling for every later allocation on the thread.
    #[test]
    fn scope_unwinds_cleanly_on_panic() {
        let _serial = serial();
        mem::with_pool("buf-pool-unwind", || {
            let live0 = mem::stats("buf-pool-unwind").live;
            let result = std::panic::catch_unwind(|| {
                let _scope = PoolScope::new();
                drop(TrackedBuf::zeros(300)); // parked in the cache
                panic!("injected panic under an open pool scope");
            });
            assert!(result.is_err());
            assert!(!enabled(), "unwound scope must close");
            assert_eq!(
                mem::stats("buf-pool-unwind").live,
                live0,
                "unwind must trim cached charges"
            );
            let _scope = PoolScope::new();
            assert!(enabled(), "pooling must still work after the unwind");
        });
    }

    #[test]
    fn oversized_and_disabled_allocations_bypass() {
        let _serial = serial();
        mem::with_pool("buf-pool-bypass", || {
            // No scope: plain exact-size allocation, freed on drop.
            let live0 = mem::stats("buf-pool-bypass").live;
            let a = TrackedBuf::zeros(100);
            assert_eq!(mem::stats("buf-pool-bypass").live - live0, 400);
            drop(a);
            assert_eq!(mem::stats("buf-pool-bypass").live, live0);

            // force_disable wins over an active scope.
            let _scope = PoolScope::new();
            force_disable(true);
            let b = TrackedBuf::zeros(100);
            assert_eq!(mem::stats("buf-pool-bypass").live - live0, 400);
            drop(b);
            assert_eq!(mem::stats("buf-pool-bypass").live, live0);
            force_disable(false);
        });
    }
}
