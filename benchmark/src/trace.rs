//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions (in-program tracing is a later
//! issue). Every span has a name, start, end, the span that caused it
//! (`parent`) and the op it belongs to; spans are kept in memory and
//! written out once, when the run ends. A layer's *self* time is its
//! duration minus the part its direct children cover.
//!
//! The recorder is driven from one thread (the benchmark's driver thread);
//! the `Mutex` only exists because `AggregationBackend` decorators must be
//! `Send + Sync`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The op id of spans recorded outside any op (set-up, replays).
pub const NO_OP: u64 = u64::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name (`seastar.exec_fwd`, `tensor.backward`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one op ([`NO_OP`] outside ops).
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
    op: u64,
}

/// Shared handle to the recorder. Cloning is cheap.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

struct Inner {
    on: AtomicBool,
    t0: Instant,
    state: Mutex<State>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.inner.t0.elapsed().as_nanos() as u64;
            let mut st = self.tracer.lock();
            st.spans[idx].end_ns = end;
            // Guards drop in LIFO order, so the top of the stack is `idx`.
            st.stack.pop();
        }
    }
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                on: AtomicBool::new(false),
                t0: Instant::now(),
                state: Mutex::new(State {
                    op: NO_OP,
                    ..State::default()
                }),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Span bookkeeping is valid at every step; a panic elsewhere while
        // a guard is held must not hide the original failure.
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Switches recording on or off. Off, [`Tracer::span`] costs one
    /// relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.inner.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.on.load(Ordering::Relaxed)
    }

    /// Marks the op that subsequent spans belong to ([`NO_OP`] for none).
    pub fn set_op(&self, op: u64) {
        if self.enabled() {
            self.lock().op = op;
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let mut st = self.lock();
        let idx = st.spans.len();
        let parent = st.stack.last().copied();
        let op = st.op;
        st.stack.push(idx);
        // Take the start time last so bookkeeping stays outside the span.
        let start = self.inner.t0.elapsed().as_nanos() as u64;
        st.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            op,
        });
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Whether a span called `name` is currently open (used by the backend
    /// decorator to tell forward from backward kernel launches).
    pub fn inside(&self, name: &str) -> bool {
        let st = self.lock();
        st.stack.iter().any(|&i| st.spans[i].name == name)
    }

    /// Per-name aggregates over the spans that belong to an op. Spans
    /// recorded outside ops (set-up, replays) are read with
    /// [`Tracer::durations_ms`].
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let st = self.lock();
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            if s.op == NO_OP {
                continue;
            }
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.calls += 1;
            a.total_ms += dur as f64 / 1e6;
            a.self_ms += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
            if s.parent.is_none() {
                a.top_level_ms += dur as f64 / 1e6;
            }
        }
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes every span as one JSON document (`{"spans":[…]}`; times in
    /// microseconds).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"spans\":[")?;
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            write!(
                w,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"parent\":{parent},\"op\":{op}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Aggregate over all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of durations.
    pub total_ms: f64,
    /// Sum of durations minus time covered by direct children.
    pub self_ms: f64,
    /// Sum of durations of the spans that had no parent.
    pub top_level_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new();
        {
            let _a = t.span("a");
        }
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn parents_self_time_and_ops() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_op(7);
        {
            let _a = t.span("outer");
            assert!(t.inside("outer"));
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert!(!t.inside("outer"));
        let sum = t.summary();
        let (outer, inner) = (sum["outer"], sum["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ms >= inner.total_ms + 1.9);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert_eq!(inner.top_level_ms, 0.0);
        assert_eq!(outer.top_level_ms, outer.total_ms);
        let st = t.lock();
        assert_eq!(st.spans[1].parent, Some(0));
        assert!(st.spans.iter().all(|s| s.op == 7));
    }
}
