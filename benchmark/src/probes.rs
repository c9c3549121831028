//! Timing decorators over the product's two extension interfaces, in the
//! style of `examples/custom_backend.rs`: they record a span around the
//! inner call and otherwise delegate untouched. Installed in the traced
//! run only — the end-to-end run uses the product's own objects.

use crate::trace::Tracer;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use stgraph::backend::{AggregationBackend, SeastarBackend};
use stgraph_dyngraph::DtdgGraph;
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_seastar::exec::ExecOutput;
use stgraph_seastar::ir::{Id, Program};
use stgraph_tensor::Tensor;

/// Name of the span the training loops open around `Tape::backward`; the
/// backend decorator uses it to tell backward launches from forward ones.
pub const BACKWARD_SPAN: &str = "tensor.backward";

/// Seastar behind a stopwatch: one span per `execute`, plus the edge count
/// each launch walked (for `seastar.edges_per_s`).
pub struct TimedBackend {
    inner: SeastarBackend,
    tracer: Tracer,
    /// Edges walked by traced launches; shared because the executor owns
    /// the boxed backend.
    edges: Arc<AtomicU64>,
}

impl TimedBackend {
    /// Wraps the default fused backend.
    pub fn new(tracer: Tracer, edges: Arc<AtomicU64>) -> TimedBackend {
        TimedBackend {
            inner: SeastarBackend,
            tracer,
            edges,
        }
    }
}

impl AggregationBackend for TimedBackend {
    fn name(&self) -> &'static str {
        "seastar-timed"
    }

    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput {
        let _sp = if !self.tracer.enabled() {
            None
        } else {
            self.edges
                .fetch_add(graph.num_edges() as u64, Ordering::Relaxed);
            Some(self.tracer.span(if self.tracer.inside(BACKWARD_SPAN) {
                "seastar.exec_bwd"
            } else {
                "seastar.exec_fwd"
            }))
        };
        self.inner.execute(
            prog,
            graph,
            inputs,
            node_consts,
            edge_consts,
            mat_consts,
            save,
        )
    }
}

/// A `DtdgGraph` behind a stopwatch: spans around `get_graph` /
/// `get_backward_graph`, and a count of the edge changes that lie between
/// consecutively requested timestamps (what the store had to deliver,
/// whether it replayed them or restored its cache). `take_update_time`
/// passes through so the store's own Figure-9 counter stays readable.
pub struct TimedGraph<G: DtdgGraph> {
    inner: G,
    tracer: Tracer,
    /// `diff_lens[t]` = changed edges between snapshot `t` and `t + 1`.
    diff_lens: Vec<u64>,
    at: usize,
    moved: Rc<Cell<u64>>,
}

impl<G: DtdgGraph> TimedGraph<G> {
    /// Wraps `inner`, which must sit at timestamp 0. `moved` accumulates
    /// the edge changes requested while tracing is on.
    pub fn new(inner: G, tracer: Tracer, diff_lens: Vec<u64>, moved: Rc<Cell<u64>>) -> Self {
        TimedGraph {
            inner,
            tracer,
            diff_lens,
            at: 0,
            moved,
        }
    }

    fn move_to(&mut self, t: usize) {
        if self.tracer.enabled() {
            let (lo, hi) = (self.at.min(t), self.at.max(t));
            let delta: u64 = self.diff_lens[lo..hi].iter().sum();
            self.moved.set(self.moved.get() + delta);
        }
        self.at = t;
    }
}

impl<G: DtdgGraph> DtdgGraph for TimedGraph<G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.inner.num_timestamps()
    }

    fn get_graph(&mut self, t: usize) -> Snapshot {
        self.move_to(t);
        let _sp = self.tracer.span("dyngraph.get_graph");
        self.inner.get_graph(t)
    }

    fn get_backward_graph(&mut self, t: usize) -> Snapshot {
        self.move_to(t);
        let _sp = self.tracer.span("dyngraph.get_backward_graph");
        self.inner.get_backward_graph(t)
    }

    fn take_update_time(&mut self) -> Duration {
        self.inner.take_update_time()
    }
}
