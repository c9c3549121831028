//! Named counters, gauges and registry histograms.
//!
//! Counters and histograms are interned by name into leaked cells, so a
//! looked-up handle is a `Copy` reference valid for the process lifetime —
//! hot call sites can cache one and pay a single relaxed `fetch_add` per
//! event. Gauges are *pull*-style: a registered closure (or provider
//! returning many named readings, for dynamic sets like the per-pool
//! memory tracker) is evaluated only when an exporter snapshots.

use crate::hist::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static COUNTERS: OnceLock<Mutex<HashMap<String, &'static AtomicU64>>> = OnceLock::new();
static HISTOGRAMS: OnceLock<Mutex<HashMap<String, &'static Histogram>>> = OnceLock::new();

/// Labeled series are interned by `(name, rendered-label-set)`; the label
/// set is rendered once at intern time in Prometheus form
/// (`tenant="a",proto="http"`, keys sorted) so exporters emit it verbatim.
type LabeledKey = (String, String);
static LABELED_COUNTERS: OnceLock<Mutex<HashMap<LabeledKey, &'static AtomicU64>>> = OnceLock::new();
static LABELED_HISTOGRAMS: OnceLock<Mutex<HashMap<LabeledKey, &'static Histogram>>> =
    OnceLock::new();

/// Renders a label set in Prometheus form with keys sorted (so the same
/// logical series always interns to the same cell) and values escaped.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;
type ProviderFn = Box<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;
type LabeledProviderFn = Box<dyn Fn() -> Vec<(String, String, f64)> + Send + Sync>;

static GAUGES: OnceLock<Mutex<HashMap<String, GaugeFn>>> = OnceLock::new();
static PROVIDERS: OnceLock<Mutex<HashMap<String, ProviderFn>>> = OnceLock::new();
static LABELED_PROVIDERS: OnceLock<Mutex<HashMap<String, LabeledProviderFn>>> = OnceLock::new();

/// A handle to an interned monotone counter. `Copy`; cache it at hot call
/// sites to skip the name lookup.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Interns (or finds) the counter called `name`.
pub fn counter(name: &str) -> Counter {
    let map = COUNTERS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(cell) = map.get(name) {
        return Counter(cell);
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    map.insert(name.to_string(), cell);
    Counter(cell)
}

/// Interns (or finds) the registry histogram called `name` (default exact
/// cap; see [`Histogram`]).
pub fn histogram(name: &str) -> &'static Histogram {
    let map = HISTOGRAMS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), h);
    h
}

/// Interns (or finds) the labeled counter `name{labels}` — e.g.
/// `counter_labeled("net.requests", &[("tenant", "acme")])`. Same cost
/// model as [`counter`]: the returned handle is `Copy`, cache it at hot
/// call sites. Label keys are sorted at intern time, so label order never
/// splits a series.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)]) -> Counter {
    let key = (name.to_string(), render_labels(labels));
    let map = LABELED_COUNTERS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(cell) = map.get(&key) {
        return Counter(cell);
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    map.insert(key, cell);
    Counter(cell)
}

/// Interns (or finds) the labeled registry histogram `name{labels}` — the
/// per-tenant latency series the network tier records into.
pub fn histogram_labeled(name: &str, labels: &[(&str, &str)]) -> &'static Histogram {
    let key = (name.to_string(), render_labels(labels));
    let map = LABELED_HISTOGRAMS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(h) = map.get(&key) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(key, h);
    h
}

/// Registers (or replaces) a pull-style gauge: `f` is evaluated at export
/// time only.
pub fn register_gauge(name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
    GAUGES
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap()
        .insert(name.to_string(), Box::new(f));
}

/// Registers (or replaces) a gauge *provider*: at export time `f` returns
/// any number of `(name, value)` readings. Used for dynamic sets — e.g.
/// one `mem.<pool>.live` gauge per memory pool ever created.
pub fn register_gauge_provider(
    key: &str,
    f: impl Fn() -> Vec<(String, f64)> + Send + Sync + 'static,
) {
    PROVIDERS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap()
        .insert(key.to_string(), Box::new(f));
}

/// Registers (or replaces) a *labeled* gauge provider: at export time `f`
/// returns `(name, rendered-label-body, value)` readings, rendered by the
/// Prometheus exporter as `stgraph_<name>{<labels>} <value>`. Used for
/// per-instance series of dynamic cardinality — e.g. one gauge reading
/// per tenant, labelled `tenant="t3"`.
pub fn register_labeled_gauge_provider(
    key: &str,
    f: impl Fn() -> Vec<(String, String, f64)> + Send + Sync + 'static,
) {
    LABELED_PROVIDERS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap()
        .insert(key.to_string(), Box::new(f));
}

/// Evaluates every labeled gauge provider, returning
/// `(name, label-body, value)` sorted by name then label set.
pub fn labeled_gauge_values() -> Vec<(String, String, f64)> {
    let mut out: Vec<(String, String, f64)> = Vec::new();
    if let Some(map) = LABELED_PROVIDERS.get() {
        let map = map.lock().unwrap();
        for f in map.values() {
            out.extend(f());
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

/// Snapshots every counter as `(name, value)`, sorted by name.
pub fn counter_values() -> Vec<(String, u64)> {
    let Some(map) = COUNTERS.get() else {
        return Vec::new();
    };
    let map = map.lock().unwrap();
    let mut out: Vec<(String, u64)> = map
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Evaluates every gauge and provider, returning `(name, value)` sorted by
/// name.
pub fn gauge_values() -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    if let Some(map) = GAUGES.get() {
        let map = map.lock().unwrap();
        out.extend(map.iter().map(|(n, f)| (n.clone(), f())));
    }
    if let Some(map) = PROVIDERS.get() {
        let map = map.lock().unwrap();
        for f in map.values() {
            out.extend(f());
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Snapshots every labeled counter as `(name, labels, value)`, sorted by
/// name then label set. `labels` is the rendered Prometheus body
/// (`tenant="a"`), ready to wrap in braces.
pub fn labeled_counter_values() -> Vec<(String, String, u64)> {
    let Some(map) = LABELED_COUNTERS.get() else {
        return Vec::new();
    };
    let map = map.lock().unwrap();
    let mut out: Vec<(String, String, u64)> = map
        .iter()
        .map(|((n, l), c)| (n.clone(), l.clone(), c.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

/// Snapshots every labeled histogram as `(name, labels, &Histogram)`,
/// sorted by name then label set.
pub fn labeled_histogram_values() -> Vec<(String, String, &'static Histogram)> {
    let Some(map) = LABELED_HISTOGRAMS.get() else {
        return Vec::new();
    };
    let map = map.lock().unwrap();
    let mut out: Vec<(String, String, &'static Histogram)> = map
        .iter()
        .map(|((n, l), h)| (n.clone(), l.clone(), *h))
        .collect();
    out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    out
}

/// Snapshots every registry histogram as `(name, &Histogram)`, sorted.
pub fn histogram_values() -> Vec<(String, &'static Histogram)> {
    let Some(map) = HISTOGRAMS.get() else {
        return Vec::new();
    };
    let map = map.lock().unwrap();
    let mut out: Vec<(String, &'static Histogram)> =
        map.iter().map(|(n, h)| (n.clone(), *h)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let c1 = counter("test.metrics.counter");
        let c2 = counter("test.metrics.counter");
        let before = c1.get();
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), before + 3, "handles share one cell");
        assert!(counter_values()
            .iter()
            .any(|(n, _)| n == "test.metrics.counter"));
    }

    #[test]
    fn histograms_intern() {
        let h = histogram("test.metrics.hist");
        h.record(42);
        assert_eq!(histogram("test.metrics.hist").count(), h.count());
    }

    #[test]
    fn labeled_counters_intern_per_series_and_ignore_label_order() {
        let a = counter_labeled("test.metrics.lbl", &[("tenant", "a"), ("proto", "http")]);
        let a2 = counter_labeled("test.metrics.lbl", &[("proto", "http"), ("tenant", "a")]);
        let b = counter_labeled("test.metrics.lbl", &[("tenant", "b"), ("proto", "http")]);
        let before_a = a.get();
        let before_b = b.get();
        a.inc();
        a2.add(2);
        b.inc();
        assert_eq!(a.get(), before_a + 3, "label order must not split series");
        assert_eq!(b.get(), before_b + 1);
        let snap = labeled_counter_values();
        let row = snap
            .iter()
            .find(|(n, l, _)| n == "test.metrics.lbl" && l.contains("tenant=\"a\""))
            .expect("labeled series snapshotted");
        assert_eq!(row.1, "proto=\"http\",tenant=\"a\"", "keys sorted");
    }

    #[test]
    fn labeled_histograms_intern_and_snapshot() {
        let h = histogram_labeled("test.metrics.lblhist", &[("tenant", "z")]);
        h.record(10);
        let snap = labeled_histogram_values();
        let (_, labels, got) = snap
            .iter()
            .find(|(n, _, _)| n == "test.metrics.lblhist")
            .expect("labeled histogram snapshotted");
        assert_eq!(labels, "tenant=\"z\"");
        assert!(got.count() >= 1);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            render_labels(&[("k", "a\"b\\c")]),
            "k=\"a\\\"b\\\\c\"",
            "quotes and backslashes escaped"
        );
    }

    #[test]
    fn gauges_pull_at_snapshot_time() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let v = Arc::new(AtomicU64::new(7));
        let v2 = Arc::clone(&v);
        register_gauge("test.metrics.gauge", move || {
            v2.load(Ordering::Relaxed) as f64
        });
        register_gauge_provider("test.metrics.provider", || {
            vec![("test.metrics.provided".to_string(), 1.5)]
        });
        let read = |name: &str| {
            gauge_values()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, x)| x)
        };
        assert_eq!(read("test.metrics.gauge"), Some(7.0));
        v.store(9, Ordering::Relaxed);
        assert_eq!(read("test.metrics.gauge"), Some(9.0), "pull, not push");
        assert_eq!(read("test.metrics.provided"), Some(1.5));
    }
}
