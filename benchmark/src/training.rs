//! The run shape shared by the two DTDG/static training workloads: passes of
//! set-up, warm-up (the oracle after the first) and the end-to-end window,
//! or one such pass whose window is traced and decomposed per layer.

use crate::harness::{self, Args, Pass, Report, Window};
use crate::stats::{self, Pct};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Loss and work of one Algorithm-1 sequence step.
pub struct StepOut {
    /// Mean per-timestamp loss of the sequence.
    pub loss: f32,
    /// Work units trained (edge·timestamps).
    pub work: u64,
}

/// A fully built training instance whose op is one sequence step.
pub trait TrainInstance {
    /// Ops run after the last set-up and before any measurement, so pools,
    /// caches and lazy state settle.
    const WARMUP_OPS: u64;
    /// Work unit printed beside `work_per_s`.
    const WORK_UNIT: &'static str;

    /// One sequence step: forward over `seq_len` timestamps, backward,
    /// optimizer step. Opens the `core.forward` / `tensor.backward` /
    /// `tensor.optim_step` spans.
    fn step(&mut self, tracer: &Tracer) -> StepOut;

    /// Graph-update time the store itself accounted since the last call
    /// (`DtdgGraph::take_update_time`), and the changed edges it applied.
    /// `(0, 0)` for a static graph.
    fn take_update(&mut self) -> (f64, u64) {
        (0.0, 0)
    }

    /// Input sizes and model shape, printed beside the metrics.
    fn describe(&self) -> String;

    /// Edges walked by traced kernel launches so far.
    fn traced_kernel_edges(&self) -> u64;

    /// Checks this instance's first steps against an independent
    /// implementation; returns the violations. Runs after warm-up, outside
    /// any timed window.
    fn oracle(&self) -> Vec<String>;

    /// Layer metrics only this workload has (replays outside the ops).
    fn extra_layers(&mut self, _layers: &mut BTreeMap<&'static str, f64>) {}
}

fn op(inst: &mut impl TrainInstance, tracer: &Tracer, i: u64) -> Result<u64, ()> {
    tracer.set_op(i);
    let out = inst.step(tracer);
    if out.loss.is_finite() {
        Ok(out.work)
    } else {
        Err(())
    }
}

/// Runs a training workload. `build` performs one complete set-up
/// (inputs → graph → model → first op).
pub fn run<I: TrainInstance>(args: &Args, tracer: &Tracer, mut build: impl FnMut() -> I) -> Report {
    let mut report = Report {
        passes: Vec::new(),
        tail: Pct::P90,
        work_unit: I::WORK_UNIT,
        layers: BTreeMap::new(),
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let passes = if args.trace { 1 } else { harness::PASSES };
    for pass in 0..passes {
        // Set-up spans are recorded in the traced run (datasets.load_ms, …).
        tracer.set_enabled(args.trace);
        let t = Instant::now();
        let mut inst = build();
        let setup_s = t.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        for i in 0..I::WARMUP_OPS {
            let _ = op(&mut inst, tracer, i);
        }
        if pass == 0 {
            report.errors = inst.oracle();
            report.notes.push(inst.describe());
        }
        let _ = inst.take_update();
        let (window, peak_mem_bytes) = if args.trace {
            traced_window(args, tracer, &mut inst, &mut report)
        } else {
            harness::reset_mem_peaks();
            let w = harness::measure(args.seconds / passes as f64, |i| op(&mut inst, tracer, i));
            (w, harness::peak_mem_bytes())
        };
        report.passes.push(Pass {
            setup_s,
            window,
            peak_mem_bytes,
        });
        // `inst` is dropped here, before the next pass builds its own.
    }
    report
}

/// The traced run's window: a quarter of the time untraced (the overhead
/// baseline), half of it traced; the rest is left for the workload's
/// replays. Fills `report.layers`; returns the traced part and its memory peak.
fn traced_window(
    args: &Args,
    tracer: &Tracer,
    inst: &mut impl TrainInstance,
    report: &mut Report,
) -> (Window, u64) {
    let plain = harness::measure(args.seconds / 4.0, |i| op(inst, tracer, i));
    let _ = inst.take_update();
    let before = Counters::read(inst);
    harness::reset_mem_peaks();
    tracer.set_enabled(true);
    let traced = harness::measure(args.seconds / 2.0, |i| op(inst, tracer, i));
    tracer.set_op(crate::trace::NO_OP);
    tracer.set_enabled(false);
    let during = Counters::read(inst).since(&before);
    report.layers = layer_metrics(tracer, inst, &plain, &traced, during);
    let ratio = report.layers["bench.layer_sum_ratio"];
    if !(0.95..=1.05).contains(&ratio) {
        report.errors.push(format!(
            "bench.layer_sum_ratio {ratio:.4} outside 0.95–1.05: the top-level spans do not add up to the op"
        ));
    }
    let peak = harness::peak_mem_bytes();
    inst.extra_layers(&mut report.layers);
    (traced, peak)
}

/// The monotone counters the traced window is bracketed with.
struct Counters {
    allocs: u64,
    kernel_edges: u64,
    pool_hits: u64,
    pool_misses: u64,
}

impl Counters {
    fn read(inst: &impl TrainInstance) -> Counters {
        let pool = stgraph_tensor::pool::stats();
        Counters {
            allocs: harness::tracked_allocations(),
            kernel_edges: inst.traced_kernel_edges(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            kernel_edges: self.kernel_edges - earlier.kernel_edges,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
        }
    }
}

/// The per-layer metrics of the traced window; `during` holds what the
/// counters advanced by while it ran.
fn layer_metrics(
    tracer: &Tracer,
    inst: &mut impl TrainInstance,
    plain: &Window,
    traced: &Window,
    during: Counters,
) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    let ops = traced.ops.len().max(1) as f64;
    let sum = tracer.summary();
    let total = |name: &str| sum.get(name).map_or(0.0, |a| a.total_ms);
    let self_ms = |name: &str| sum.get(name).map_or(0.0, |a| a.self_ms);
    let calls = |name: &str| sum.get(name).map_or(0, |a| a.calls) as f64;

    let (fwd, bwd) = (total("seastar.exec_fwd"), total("seastar.exec_bwd"));
    layers.insert("seastar.exec_fwd_ms", fwd / ops);
    layers.insert("seastar.exec_bwd_ms", bwd / ops);
    layers.insert(
        "seastar.exec_calls_per_op",
        (calls("seastar.exec_fwd") + calls("seastar.exec_bwd")) / ops,
    );
    if fwd + bwd > 0.0 {
        layers.insert(
            "seastar.edges_per_s",
            during.kernel_edges as f64 / ((fwd + bwd) / 1e3),
        );
    }

    layers.insert("dyngraph.get_graph_ms", total("dyngraph.get_graph") / ops);
    layers.insert(
        "dyngraph.get_backward_graph_ms",
        total("dyngraph.get_backward_graph") / ops,
    );
    layers.insert(
        "dyngraph.calls_per_op",
        (calls("dyngraph.get_graph") + calls("dyngraph.get_backward_graph")) / ops,
    );
    let (update_ms, moved_edges) = inst.take_update();
    layers.insert("dyngraph.update_ms", update_ms / ops);
    if update_ms > 0.0 {
        layers.insert(
            "dyngraph.update_edges_per_s",
            moved_edges as f64 / (update_ms / 1e3),
        );
    }

    layers.insert("core.forward_ms", total("core.forward") / ops);
    layers.insert("core.forward_self_ms", self_ms("core.forward") / ops);
    layers.insert("tensor.backward_ms", total("tensor.backward") / ops);
    layers.insert("tensor.backward_self_ms", self_ms("tensor.backward") / ops);
    layers.insert("tensor.optim_step_ms", total("tensor.optim_step") / ops);
    layers.insert("tensor.allocs_per_op", during.allocs as f64 / ops);
    let (hits, misses) = (during.pool_hits, during.pool_misses);
    if hits + misses > 0 {
        layers.insert(
            "tensor.pool_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }

    let setup_median = |name: &str| stats::median(&tracer.durations_ms(name)).unwrap_or(0.0);
    layers.insert("datasets.load_ms", setup_median("datasets.load"));
    layers.insert(
        "graph.snapshot_build_ms",
        setup_median("graph.snapshot_build"),
    );

    let top: f64 = sum.values().map(|a| a.top_level_ms).sum();
    layers.insert(
        "bench.layer_sum_ratio",
        top / traced.latencies().iter().sum::<f64>(),
    );
    layers.insert("bench.trace_overhead_ratio", traced.p50() / plain.p50());
    layers.insert("bench.rss_peak_mb", harness::rss_peak_mb());
    layers
}
