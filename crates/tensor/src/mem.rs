//! Byte-accurate memory accounting.
//!
//! The paper measures GPU device memory per framework. Our substitute is a
//! global tracker: every tensor buffer (and, in the graph crates, every CSR /
//! PMA array) registers its allocation against a named *pool* — e.g.
//! `"stgraph"`, `"pygt"`, `"naive-graph"` — and deregisters on drop. The
//! harness reads live and peak bytes per pool, which is a deterministic
//! version of the allocator-level measurement the authors report.
//!
//! Attribution is scoped: [`PoolGuard`] pushes a pool onto a thread-local
//! stack, and buffers allocated while the guard is alive are charged to that
//! pool. Buffers remember their pool so drops are charged correctly even if
//! they happen outside the scope.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Statistics for one memory pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Total bytes ever allocated (monotone).
    pub total_allocated: u64,
    /// Number of allocations (monotone).
    pub allocations: u64,
}

struct PoolCell {
    live: AtomicU64,
    peak: AtomicU64,
    total: AtomicU64,
    allocs: AtomicU64,
}

impl PoolCell {
    fn new() -> Self {
        PoolCell {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            total: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    fn alloc(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.total.fetch_add(bytes, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // Monotone max; races only ever under-update transiently and another
        // racer carries the larger value, so the final peak is exact for
        // quiescent reads.
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn free(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
            total_allocated: self.total.load(Ordering::Relaxed),
            allocations: self.allocs.load(Ordering::Relaxed),
        }
    }
}

/// Global registry of pools. Pool ids are small dense integers so buffers can
/// store them in 4 bytes.
struct Registry {
    by_name: Mutex<HashMap<String, u32>>,
    // Pools are never removed; indices are stable. Boxed so the Vec can grow
    // without moving the cells observed by concurrent allocators.
    cells: Mutex<Vec<&'static PoolCell>>,
}

static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        by_name: Mutex::new(HashMap::new()),
        cells: Mutex::new(Vec::new()),
    })
}

/// The default pool that untagged allocations land in.
pub const DEFAULT_POOL: &str = "default";

/// Interns `name` and returns its dense pool id.
pub fn pool_id(name: &str) -> u32 {
    let reg = registry();
    let mut by_name = reg.by_name.lock();
    if let Some(&id) = by_name.get(name) {
        return id;
    }
    let mut cells = reg.cells.lock();
    let id = cells.len() as u32;
    cells.push(Box::leak(Box::new(PoolCell::new())));
    by_name.insert(name.to_string(), id);
    id
}

fn cell(id: u32) -> &'static PoolCell {
    registry().cells.lock()[id as usize]
}

thread_local! {
    static POOL_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Returns the pool new allocations on this thread are charged to.
pub fn current_pool() -> u32 {
    POOL_STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| pool_id(DEFAULT_POOL))
}

/// RAII guard scoping allocation attribution to a pool.
pub struct PoolGuard {
    _priv: (),
}

impl PoolGuard {
    /// Pushes `name` as the current pool for this thread.
    pub fn enter(name: &str) -> PoolGuard {
        let id = pool_id(name);
        POOL_STACK.with(|s| s.borrow_mut().push(id));
        PoolGuard { _priv: () }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        POOL_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with all of this thread's allocations charged to `pool`.
pub fn with_pool<R>(pool: &str, f: impl FnOnce() -> R) -> R {
    let _g = PoolGuard::enter(pool);
    f()
}

/// Records an allocation of `bytes` against the thread's current pool and
/// returns the pool id the caller must use to free it.
pub fn track_alloc(bytes: usize) -> u32 {
    let id = current_pool();
    cell(id).alloc(bytes as u64);
    id
}

/// Records an allocation against an explicit pool id.
pub fn track_alloc_in(id: u32, bytes: usize) {
    cell(id).alloc(bytes as u64);
}

/// Records a free of `bytes` previously charged to pool `id`.
pub fn track_free(id: u32, bytes: usize) {
    cell(id).free(bytes as u64);
}

/// Reads the statistics for a pool by name (zero stats if never used).
pub fn stats(name: &str) -> PoolStats {
    cell(pool_id(name)).stats()
}

/// Resets a pool's peak to its current live value (e.g. between sweeps).
pub fn reset_peak(name: &str) {
    let c = cell(pool_id(name));
    c.peak
        .store(c.live.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Lists `(name, stats)` for every pool ever created.
pub fn all_stats() -> Vec<(String, PoolStats)> {
    let reg = registry();
    let by_name = reg.by_name.lock();
    let mut out: Vec<(String, PoolStats)> = by_name
        .iter()
        .map(|(n, &id)| (n.clone(), cell(id).stats()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Reads the workspace buffer pool's counters (hits, misses, recycled and
/// cached bytes) alongside the per-pool byte stats above. See [`crate::pool`]
/// for how cached bytes interact with `live`.
pub fn buffer_pool_stats() -> crate::pool::BufPoolStats {
    crate::pool::stats()
}

/// A raw tracked heap buffer of `f32`s. All tensor storage goes through this
/// type so device-memory accounting is exhaustive.
pub struct TrackedBuf {
    data: Vec<f32>,
    pool: u32,
}

impl TrackedBuf {
    /// Allocates a zero-filled buffer of `len` floats charged to the current
    /// pool, drawing from the workspace buffer pool when a
    /// [`crate::pool::PoolScope`] is active.
    pub fn zeros(len: usize) -> TrackedBuf {
        Self::zeros_in(current_pool(), len)
    }

    /// Like [`TrackedBuf::zeros`] but charged to an explicit pool id. Kernels
    /// capture the id before entering a parallel region so worker-thread
    /// allocations stay attributed to the orchestrating scope's pool.
    pub fn zeros_in(pool: u32, len: usize) -> TrackedBuf {
        let (mut data, recycled) = pooled_floats(pool, len);
        if recycled {
            data.fill(0.0);
        }
        TrackedBuf { data, pool }
    }

    /// Allocates a buffer of `len` floats with *unspecified* (but
    /// initialized — never uninitialized memory) contents. For kernel outputs
    /// that overwrite every element: skips the zero-fill `zeros` pays, and
    /// recycled buffers skip even the first-touch fill.
    pub fn raw(len: usize) -> TrackedBuf {
        Self::raw_in(current_pool(), len)
    }

    /// Like [`TrackedBuf::raw`] but charged to an explicit pool id.
    pub fn raw_in(pool: u32, len: usize) -> TrackedBuf {
        let (data, _recycled) = pooled_floats(pool, len);
        TrackedBuf { data, pool }
    }

    /// Takes ownership of an existing vector, charging its capacity.
    pub fn from_vec(data: Vec<f32>) -> TrackedBuf {
        let pool = track_alloc(data.capacity() * std::mem::size_of::<f32>());
        TrackedBuf { data, pool }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the elements.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Produces a `len`-element float vector charged to `pool`: recycled from
/// the buffer pool when possible (second tuple element `true`, contents
/// stale), freshly allocated otherwise (zero-filled). Fresh pool-eligible
/// allocations reserve their full size-class capacity so the buffer can park
/// on a free list later; the charge covers the capacity either way.
///
/// Every call adds `len · 4` to the `tensor.pool_bytes` telemetry counter:
/// the bytes the kernels draw, whether a free list or the allocator serves
/// them.
fn pooled_floats(pool: u32, len: usize) -> (Vec<f32>, bool) {
    static DRAWN: std::sync::OnceLock<stgraph_telemetry::Counter> = std::sync::OnceLock::new();
    DRAWN
        .get_or_init(|| stgraph_telemetry::counter("tensor.pool_bytes"))
        .add((len * std::mem::size_of::<f32>()) as u64);
    if let Some(mut v) = crate::pool::take(pool, len) {
        if v.len() < len {
            v.resize(len, 0.0);
        } else {
            v.truncate(len);
        }
        return (v, true);
    }
    let cap = if crate::pool::enabled() {
        crate::pool::class_capacity(len).unwrap_or(len)
    } else {
        len
    };
    track_alloc_in(pool, cap * std::mem::size_of::<f32>());
    let mut v = Vec::with_capacity(cap);
    v.resize(len, 0.0);
    (v, false)
}

impl Drop for TrackedBuf {
    fn drop(&mut self) {
        let cap_bytes = self.data.capacity() * std::mem::size_of::<f32>();
        let data = std::mem::take(&mut self.data);
        // Park on the buffer pool when possible; the byte charge rides along
        // with the cached buffer and is released by pool::trim().
        if crate::pool::put(self.pool, data).is_err() {
            track_free(self.pool, cap_bytes);
        }
    }
}

/// A tracked buffer of `i64` indices (edge lists, CSR arrays, labels).
pub struct TrackedIndexBuf {
    data: Vec<i64>,
    pool: u32,
}

impl TrackedIndexBuf {
    /// Takes ownership of an index vector, charging its capacity.
    pub fn from_vec(data: Vec<i64>) -> TrackedIndexBuf {
        let pool = track_alloc(data.capacity() * std::mem::size_of::<i64>());
        TrackedIndexBuf { data, pool }
    }

    /// Immutable view of the indices.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Mutable view of the indices.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for TrackedIndexBuf {
    fn drop(&mut self) {
        track_free(self.pool, self.data.capacity() * std::mem::size_of::<i64>());
    }
}

/// Records an untyped allocation of `bytes` and returns a guard that frees it
/// on drop. Used by graph structures that keep their own `Vec<u32>`/`Vec<usize>`
/// arrays but still want the bytes charged to a pool.
pub struct BytesCharge {
    pool: u32,
    bytes: usize,
}

impl BytesCharge {
    /// Charges `bytes` to the current pool.
    pub fn new(bytes: usize) -> BytesCharge {
        let pool = track_alloc(bytes);
        BytesCharge { pool, bytes }
    }

    /// Adjusts the charge to a new size (e.g. after a PMA resize).
    pub fn resize(&mut self, bytes: usize) {
        track_free(self.pool, self.bytes);
        track_alloc_in(self.pool, bytes);
        self.bytes = bytes;
    }

    /// The number of bytes currently charged.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for BytesCharge {
    fn drop(&mut self) {
        track_free(self.pool, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        with_pool("mem-test-rt", || {
            let before = stats("mem-test-rt");
            let buf = TrackedBuf::zeros(1024);
            let during = stats("mem-test-rt");
            assert_eq!(during.live - before.live, 4096);
            drop(buf);
            let after = stats("mem-test-rt");
            assert_eq!(after.live, before.live);
            assert!(after.peak >= 4096);
        });
    }

    #[test]
    fn nested_pools_attribute_correctly() {
        with_pool("mem-outer", || {
            let outer = TrackedBuf::zeros(10);
            let inner = with_pool("mem-inner", || TrackedBuf::zeros(20));
            assert_eq!(stats("mem-outer").live, 40);
            assert_eq!(stats("mem-inner").live, 80);
            // Drop order does not confuse attribution: buffers remember
            // their pool.
            drop(outer);
            drop(inner);
            assert_eq!(stats("mem-outer").live, 0);
            assert_eq!(stats("mem-inner").live, 0);
        });
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        with_pool("mem-peak", || {
            reset_peak("mem-peak");
            let a = TrackedBuf::zeros(100);
            let b = TrackedBuf::zeros(100);
            drop(a);
            drop(b);
            assert_eq!(stats("mem-peak").peak, 800);
            reset_peak("mem-peak");
            assert_eq!(stats("mem-peak").peak, 0);
        });
    }

    #[test]
    fn bytes_charge_resizes() {
        with_pool("mem-charge", || {
            let mut c = BytesCharge::new(128);
            assert_eq!(stats("mem-charge").live, 128);
            c.resize(256);
            assert_eq!(stats("mem-charge").live, 256);
            drop(c);
            assert_eq!(stats("mem-charge").live, 0);
        });
    }

    #[test]
    fn index_buf_tracks() {
        with_pool("mem-idx", || {
            let v = TrackedIndexBuf::from_vec(vec![1i64, 2, 3, 4]);
            assert!(stats("mem-idx").live >= 32);
            assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        });
    }
}
