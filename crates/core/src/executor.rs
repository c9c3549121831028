//! The Temporally-aware Executor (§V, Figures 1–2).
//!
//! [`TemporalExecutor::apply`] runs one vertex-centric kernel application at
//! a timestamp and registers it on the autograd tape. Forward: it obtains
//! the snapshot (on demand for DTDGs — Algorithm 2), runs the fused
//! forward kernels, and pushes the saved values onto the **State Stack**
//! and the timestamp onto the **Graph Stack**. Backward (driven by the
//! tape's reverse-order traversal, which is exactly LIFO): it pops both
//! stacks, asks the graph source for the *backward* snapshot
//! (`Get-Backward-Graph`, which rewinds the GPMA), and runs the backward
//! kernels over the out-edge CSR.
//!
//! An application none of whose inputs needs a gradient (a propagation of
//! fixed features) is forward-only: it saves nothing, pushes nothing on
//! either stack and records nothing on the tape, so it never launches a
//! backward kernel or rewinds the graph for one.
//!
//! Snapshot construction within one timestamp is memoised (a layer reads
//! the snapshot for its degree norms, then `apply` reads it again; Chebyshev
//! and diffusion cells launch several times per timestamp); the memo is
//! flushed whenever the executor switches between forward and backward
//! phases so every cross-timestamp transition really exercises the
//! update/rewind path whose cost Figure 9 measures.

use crate::backend::AggregationBackend;
use crate::stacks::{GraphStack, StateFrame, StateStack};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;
use stgraph_dyngraph::source::DtdgGraph;
use stgraph_graph::base::Snapshot;
use stgraph_seastar::autodiff::{differentiate, BackwardPlan, NodeSave};
use stgraph_seastar::ir::{Id, Program};
use stgraph_telemetry::{span_timed, TimeAccumulator};
use stgraph_tensor::{Tape, Tensor, Var};

/// A forward program compiled together with its backward plan and save set.
pub struct CompiledProgram {
    /// The forward program.
    pub forward: Program,
    /// The derived backward plan (program + saved-set description).
    pub backward: BackwardPlan,
    save_ids: Vec<Id>,
    n_node_value_saves: usize,
    /// Input slots pushed onto the State Stack *beyond* what backward
    /// needs. Empty under the paper's §V.B memory optimisation; populated
    /// by [`compile_save_all_inputs`] — the ablation arm that stores every
    /// forward feature the way a framework without the forward/backward IR
    /// comparison would.
    extra_input_saves: Vec<usize>,
}

/// Traces, optimises (CSE), differentiates and packages a vertex-centric
/// program, with the minimal State-Stack saved set.
pub fn compile(forward: Program) -> Rc<CompiledProgram> {
    Rc::new(compile_impl(forward, false))
}

/// Like [`compile`], but disables the saved-set minimisation: every input
/// feature is pushed onto the State Stack each timestamp. Used by the
/// ablation measuring what the §V.B optimisation buys.
pub fn compile_save_all_inputs(forward: Program) -> Rc<CompiledProgram> {
    Rc::new(compile_impl(forward, true))
}

fn compile_impl(forward: Program, save_all: bool) -> CompiledProgram {
    assert_eq!(
        forward.outputs.len(),
        1,
        "layer programs have a single output"
    );
    let forward = forward.eliminate_common_subexpressions();
    let mut backward = differentiate(&forward);
    backward.program = backward.program.eliminate_common_subexpressions();
    let save_ids = backward.save_ids();
    let n_node_value_saves = backward
        .node_saves
        .iter()
        .filter(|s| matches!(s, NodeSave::Value(_)))
        .count();
    let extra_input_saves = if save_all {
        let needed = backward.saved_input_slots();
        (0..forward.input_widths.len())
            .filter(|slot| !needed.contains(slot))
            .collect()
    } else {
        Vec::new()
    };
    CompiledProgram {
        forward,
        backward,
        save_ids,
        n_node_value_saves,
        extra_input_saves,
    }
}

/// Where snapshots come from.
#[derive(Clone)]
pub enum GraphSource {
    /// A static graph: the same snapshot at every timestamp.
    Static(Snapshot),
    /// A DTDG handing out snapshots on demand (NaiveGraph / GPMAGraph).
    Dynamic(Rc<RefCell<dyn DtdgGraph>>),
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Forward,
    Backward,
}

struct ExecShared {
    backend: Box<dyn AggregationBackend>,
    source: GraphSource,
    state_stack: RefCell<StateStack>,
    graph_stack: RefCell<GraphStack>,
    snap_memo: RefCell<Option<(usize, Snapshot)>>,
    phase: Cell<Phase>,
    gnn_time: TimeAccumulator,
}

impl ExecShared {
    fn snapshot(&self, t: usize, phase: Phase) -> Snapshot {
        if self.phase.get() != phase {
            // Phase flip: flush the memo so the DTDG update path really runs.
            self.phase.set(phase);
            *self.snap_memo.borrow_mut() = None;
        }
        if let Some((mt, snap)) = &*self.snap_memo.borrow() {
            if *mt == t {
                return snap.clone();
            }
        }
        let snap = match &self.source {
            GraphSource::Static(s) => s.clone(),
            GraphSource::Dynamic(p) => match phase {
                Phase::Forward => p.borrow_mut().get_graph(t),
                Phase::Backward => p.borrow_mut().get_backward_graph(t),
            },
        };
        *self.snap_memo.borrow_mut() = Some((t, snap.clone()));
        snap
    }

    fn is_dynamic(&self) -> bool {
        matches!(self.source, GraphSource::Dynamic(_))
    }
}

/// The temporally-aware executor. Cheap to clone (shared state).
#[derive(Clone)]
pub struct TemporalExecutor {
    shared: Rc<ExecShared>,
}

impl TemporalExecutor {
    /// Creates an executor over a graph source using the given backend.
    pub fn new(backend: Box<dyn AggregationBackend>, source: GraphSource) -> TemporalExecutor {
        TemporalExecutor {
            shared: Rc::new(ExecShared {
                backend,
                source,
                state_stack: RefCell::new(StateStack::new()),
                graph_stack: RefCell::new(GraphStack::new()),
                snap_memo: RefCell::new(None),
                phase: Cell::new(Phase::Forward),
                gnn_time: TimeAccumulator::new(),
            }),
        }
    }

    /// The forward snapshot for timestamp `t` (memoised within the current
    /// forward phase). Layers use this to derive per-snapshot constants
    /// such as degree norms.
    pub fn snapshot_for(&self, t: usize) -> Snapshot {
        self.shared.snapshot(t, Phase::Forward)
    }

    /// State-Stack statistics `(pushes, pops, peak_depth, live_bytes)`.
    pub fn state_stack_stats(&self) -> (usize, usize, usize, usize) {
        let s = self.shared.state_stack.borrow();
        let (pushes, pops) = s.counts();
        (pushes, pops, s.peak_depth(), s.bytes())
    }

    /// Graph-Stack statistics `(pushes, peak_depth, current_depth)`.
    pub fn graph_stack_stats(&self) -> (usize, usize, usize) {
        let g = self.shared.graph_stack.borrow();
        (g.pushes(), g.peak_depth(), g.depth())
    }

    /// Drains the accumulated kernel (GNN compute) time — the complement of
    /// the graph-update time in Figure 9's breakdown.
    pub fn take_gnn_time(&self) -> Duration {
        self.shared.gnn_time.take()
    }

    /// Applies a compiled vertex-centric program at timestamp `t`,
    /// recording the custom forward/backward pair on `tape` — or, when no
    /// input needs a gradient, running the forward kernels alone and
    /// returning a constant.
    ///
    /// `node_consts`/`edge_consts` are the program's constant tensors (the
    /// same tables are reused for the backward program, extended with the
    /// popped State-Stack frame).
    pub fn apply<'t>(
        &self,
        tape: &'t Tape,
        prog: &Rc<CompiledProgram>,
        t: usize,
        inputs: &[&Var<'t>],
        node_consts: Vec<Tensor>,
        edge_consts: Vec<Tensor>,
    ) -> Var<'t> {
        let shared = &self.shared;
        // Workspace buffers recycle within this timestamp's kernels; when an
        // epoch-level scope encloses this one (the train loops open one),
        // they recycle across timestamps too.
        let _pool = stgraph_tensor::PoolScope::new();
        let snap = shared.snapshot(t, Phase::Forward);
        let needs_grad = inputs.iter().any(|v| v.requires_grad());

        // Forward kernels; the saved set only when a backward will read it.
        let input_tensors: Vec<&Tensor> = inputs.iter().map(|v| v.value()).collect();
        let const_refs: Vec<&Tensor> = node_consts.iter().collect();
        let edge_refs: Vec<&Tensor> = edge_consts.iter().collect();
        let save: &[Id] = if needs_grad { &prog.save_ids } else { &[] };
        let mut exec = {
            let _sp = span_timed("kernel.forward", &shared.gnn_time);
            shared.backend.execute(
                &prog.forward,
                &snap,
                &input_tensors,
                &const_refs,
                &edge_refs,
                &[],
                save,
            )
        };
        let output = exec.outputs.remove(0);
        if !needs_grad {
            return tape.constant(output);
        }

        // Push the saved set (State Stack) and the timestamp (Graph Stack).
        // Extra saves (ablation: no saved-set minimisation) go after the
        // needed ones, so the backward pop consumes a prefix.
        let saved_inputs: Vec<Tensor> = prog
            .backward
            .saved_input_slots()
            .iter()
            .chain(prog.extra_input_saves.iter())
            .map(|&slot| inputs[slot].value().clone())
            .collect();
        let edge_values = exec.saved.split_off(prog.n_node_value_saves);
        let node_values = exec.saved;
        shared.state_stack.borrow_mut().push(StateFrame {
            t,
            inputs: saved_inputs,
            node_values,
            edge_values,
        });
        if shared.is_dynamic() {
            shared.graph_stack.borrow_mut().push(t);
        }
        stgraph_telemetry::counter("stack.pushes").inc();
        {
            let (pushes, pops) = shared.state_stack.borrow().counts();
            stgraph_telemetry::histogram("stack.depth").record((pushes - pops) as u64);
        }

        // Context captured for the backward closure.
        let input_shapes: Vec<_> = inputs.iter().map(|v| v.value().shape()).collect();
        let static_snap = match &shared.source {
            GraphSource::Static(_) => Some(snap),
            GraphSource::Dynamic(_) => None,
        };
        let shared_bw = Rc::clone(shared);
        let prog_bw = Rc::clone(prog);

        tape.custom(inputs, output, move |grad_out, needs| {
            let shared = &shared_bw;
            let prog = &prog_bw;
            let _pool = stgraph_tensor::PoolScope::new();
            // Graph Stack pop + backward snapshot (Get-Backward-Graph).
            let snap = match &static_snap {
                Some(s) => s.clone(),
                None => {
                    let tb = shared.graph_stack.borrow_mut().pop();
                    assert_eq!(tb, t, "Graph Stack LIFO violation");
                    shared.snapshot(tb, Phase::Backward)
                }
            };
            // State Stack pop.
            let frame = shared.state_stack.borrow_mut().pop(t);
            stgraph_telemetry::counter("stack.pops").inc();

            // Assemble the backward constant tables: forward consts, then
            // the frame's saves in plan slot order.
            let mut b_node_consts: Vec<&Tensor> = node_consts.iter().collect();
            let mut input_iter = frame.inputs.iter();
            let mut value_iter = frame.node_values.iter();
            for s in &prog.backward.node_saves {
                b_node_consts.push(match s {
                    NodeSave::Input(_) => input_iter.next().expect("missing saved input"),
                    NodeSave::Value(_) => value_iter.next().expect("missing saved value"),
                });
            }
            let mut b_edge_consts: Vec<&Tensor> = edge_consts.iter().collect();
            b_edge_consts.extend(frame.edge_values.iter());

            let bexec = {
                let _sp = span_timed("kernel.backward", &shared.gnn_time);
                shared.backend.execute(
                    &prog.backward.program,
                    &snap,
                    &[grad_out],
                    &b_node_consts,
                    &b_edge_consts,
                    &[],
                    &[],
                )
            };

            prog.backward
                .input_grads
                .iter()
                .zip(&input_shapes)
                .zip(needs)
                .map(|((ig, shape), &need)| {
                    need.then(|| match ig {
                        Some(idx) => bexec.outputs[*idx].clone(),
                        None => Tensor::zeros(*shape),
                    })
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::create_backend;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_dyngraph::{DtdgSource, GpmaGraph, NaiveGraph};
    use stgraph_graph::base::gcn_norm;
    use stgraph_seastar::ir::gcn_aggregation;
    use stgraph_tensor::autograd::check::{assert_close, numeric_grad};
    use stgraph_tensor::Param;

    fn snap() -> Snapshot {
        Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (2, 4)])
    }

    fn static_exec() -> TemporalExecutor {
        TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap()))
    }

    #[test]
    fn apply_runs_gcn_and_pushes_state() {
        let exec = static_exec();
        let prog = compile(gcn_aggregation(3));
        let s = exec.snapshot_for(0);
        let norm = Tensor::from_vec((5, 1), gcn_norm(&s.in_degrees));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let (xv, _) = tape.input(x);
        let y = exec.apply(&tape, &prog, 0, &[&xv], vec![norm], vec![]);
        assert_eq!(y.value().shape(), stgraph_tensor::Shape::Mat(5, 3));
        let (pushes, pops, peak, _) = exec.state_stack_stats();
        assert_eq!((pushes, pops, peak), (1, 0, 1));
        let loss = y.square().sum();
        tape.backward(&loss);
        let (pushes, pops, _, bytes) = exec.state_stack_stats();
        assert_eq!((pushes, pops), (1, 1));
        assert_eq!(bytes, 0, "stack must drain after backward");
    }

    #[test]
    fn gradients_flow_through_apply() {
        // End-to-end gradcheck through apply + the tape, with a Param.
        let exec = static_exec();
        let prog = compile(gcn_aggregation(2));
        let s = exec.snapshot_for(0);
        let norm = Tensor::from_vec((5, 1), gcn_norm(&s.in_degrees));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x0 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let p = Param::new("x", x0.clone());
        {
            let tape = Tape::new();
            let xv = tape.param(&p);
            let y = exec.apply(&tape, &prog, 0, &[&xv], vec![norm.clone()], vec![]);
            let loss = y.square().sum();
            tape.backward(&loss);
        }
        let exec2 = static_exec();
        let mut f = |t: &Tensor| {
            let tape = Tape::new();
            let xv = tape.constant(t.clone());
            let y = exec2.apply(&tape, &prog, 0, &[&xv], vec![norm.clone()], vec![]);
            let out = y.square().sum();
            let v = out.value().item();
            // Drain the stacks: run backward so state frames don't pile up.
            tape.backward(&out);
            v
        };
        assert_close(&p.grad(), &numeric_grad(&mut f, &x0, 1e-2), 2e-2);
    }

    #[test]
    fn multi_timestamp_sequence_drains_in_lifo() {
        let exec = static_exec();
        let prog = compile(gcn_aggregation(2));
        let s = exec.snapshot_for(0);
        let norm = Tensor::from_vec((5, 1), gcn_norm(&s.in_degrees));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let tape = Tape::new();
        let mut loss_acc: Option<Var> = None;
        for t in 0..4 {
            let (x, _) = tape.input(Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng));
            let y = exec.apply(&tape, &prog, t, &[&x], vec![norm.clone()], vec![]);
            let l = y.square().sum();
            loss_acc = Some(match loss_acc {
                Some(a) => a.add(&l),
                None => l,
            });
        }
        let (pushes, _, peak, _) = exec.state_stack_stats();
        assert_eq!(pushes, 4);
        assert_eq!(peak, 4);
        tape.backward(&loss_acc.unwrap());
        let (_, pops, _, bytes) = exec.state_stack_stats();
        assert_eq!(pops, 4);
        assert_eq!(bytes, 0);
    }

    fn dyn_source() -> DtdgSource {
        DtdgSource::from_snapshot_edges(
            5,
            vec![
                vec![(0, 1), (1, 2), (2, 3), (3, 4)],
                vec![(0, 1), (2, 3), (3, 4), (4, 0)],
                vec![(0, 1), (3, 4), (4, 0), (1, 3)],
            ],
        )
    }

    fn dtdg_loss(exec: &TemporalExecutor, x0: &Tensor) -> f32 {
        let prog = compile(gcn_aggregation(2));
        let tape = Tape::new();
        let mut loss_acc: Option<Var> = None;
        let mut h = tape.constant(x0.clone());
        for t in 0..3 {
            let snap = exec.snapshot_for(t);
            let norm = Tensor::from_vec((5, 1), gcn_norm(&snap.in_degrees));
            h = exec.apply(&tape, &prog, t, &[&h], vec![norm], vec![]);
            let l = h.square().sum();
            loss_acc = Some(match loss_acc {
                Some(a) => a.add(&l),
                None => l,
            });
        }
        let loss = loss_acc.unwrap();
        let v = loss.value().item();
        tape.backward(&loss);
        v
    }

    #[test]
    fn naive_and_gpma_sources_agree_end_to_end() {
        // The same recurrent computation over a DTDG must produce identical
        // losses whether snapshots are precomputed (Naive) or built on
        // demand (GPMA) — the central correctness claim of §V.D.
        let src = dyn_source();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x0 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let naive = TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(&src)))),
        );
        let gpma = TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src)))),
        );
        let (a, b) = (dtdg_loss(&naive, &x0), dtdg_loss(&gpma, &x0));
        assert!((a - b).abs() < 1e-4, "naive {a} vs gpma {b}");
        // Graph stacks drained.
        assert_eq!(naive.graph_stack_stats().2, 0);
        assert_eq!(gpma.graph_stack_stats().2, 0);
    }

    #[test]
    fn gpma_survives_multiple_sequences_and_epochs() {
        let src = dyn_source();
        let provider = Rc::new(RefCell::new(GpmaGraph::new(&src)));
        let exec = TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(provider.clone()),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x0 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let l1 = dtdg_loss(&exec, &x0);
        let l2 = dtdg_loss(&exec, &x0);
        assert!(
            (l1 - l2).abs() < 1e-5,
            "epochs must be deterministic: {l1} vs {l2}"
        );
        assert!(provider.borrow_mut().take_update_time() > Duration::ZERO);
    }

    #[test]
    fn reference_backend_matches_seastar_through_executor() {
        let src = dyn_source();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x0 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let a = TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(&src)))),
        );
        let b = TemporalExecutor::new(
            create_backend("reference"),
            GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(&src)))),
        );
        assert!((dtdg_loss(&a, &x0) - dtdg_loss(&b, &x0)).abs() < 1e-3);
    }

    #[test]
    fn save_all_ablation_retains_features_minimal_does_not() {
        // GCN's minimal saved set is empty; the save-all policy pushes the
        // full input features every timestamp. Same gradients either way.
        let run = |save_all: bool| -> (usize, Tensor) {
            let exec = static_exec();
            let prog = if save_all {
                crate::executor::compile_save_all_inputs(gcn_aggregation(4))
            } else {
                compile(gcn_aggregation(4))
            };
            let norm = Tensor::from_vec((5, 1), gcn_norm(&exec.snapshot_for(0).in_degrees));
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let p = Param::new("x", Tensor::rand_uniform((5, 4), -1.0, 1.0, &mut rng));
            let tape = Tape::new();
            let xv = tape.param(&p);
            let mut cur = xv;
            for t in 0..3 {
                cur = exec.apply(&tape, &prog, t, &[&cur], vec![norm.clone()], vec![]);
            }
            let (_, _, _, bytes_at_peak) = exec.state_stack_stats();
            let loss = cur.square().sum();
            tape.backward(&loss);
            (bytes_at_peak, p.grad())
        };
        let (minimal_bytes, g_min) = run(false);
        let (ablation_bytes, g_all) = run(true);
        assert_eq!(minimal_bytes, 0, "minimal saved set for GCN is empty");
        assert_eq!(
            ablation_bytes,
            3 * 5 * 4 * 4,
            "save-all keeps 3 x [5,4] f32 frames"
        );
        assert!(
            g_min.approx_eq(&g_all, 1e-5),
            "policies must not change gradients"
        );
    }

    #[test]
    fn compile_applies_cse_to_both_programs() {
        let prog = compile(stgraph_seastar::ir::gat_aggregation(4, 0.2));
        // CSE is idempotent: re-running changes nothing.
        assert_eq!(
            prog.forward.eliminate_common_subexpressions().len(),
            prog.forward.len()
        );
        assert_eq!(
            prog.backward
                .program
                .eliminate_common_subexpressions()
                .len(),
            prog.backward.program.len()
        );
    }

    /// `compile` hands the backward plan's forward ids to the kernels
    /// unremapped, which is sound only while CSE leaves no dead node behind
    /// (it ends in DCE) — so ids taken against the post-CSE forward program
    /// stay valid.
    #[test]
    fn save_ids_index_live_nodes_of_the_compiled_forward() {
        use stgraph_seastar::ir::gat_aggregation;
        for w in [1, 4, 9] {
            for prog in [
                compile(gcn_aggregation(w)),
                compile(gat_aggregation(w, 0.2)),
            ] {
                let fwd = &prog.forward;
                let mut live = vec![false; fwd.len()];
                let mut stack = fwd.outputs.clone();
                while let Some(id) = stack.pop() {
                    if !std::mem::replace(&mut live[id], true) {
                        stack.extend(fwd.node(id).op.operands());
                    }
                }
                assert!(live.iter().all(|&l| l), "dead node in compiled forward");
                assert_eq!(prog.save_ids, prog.backward.save_ids());
                assert!(prog.save_ids.iter().all(|&id| id < fwd.len()));
            }
        }
    }

    #[test]
    fn gnn_time_accumulates() {
        let exec = static_exec();
        let prog = compile(gcn_aggregation(2));
        let norm = Tensor::from_vec((5, 1), gcn_norm(&exec.snapshot_for(0).in_degrees));
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones((5, 2)));
        let y = exec.apply(&tape, &prog, 0, &[&x], vec![norm], vec![]);
        let loss = y.sum();
        tape.backward(&loss);
        assert!(exec.take_gnn_time() > Duration::ZERO);
        assert_eq!(exec.take_gnn_time(), Duration::ZERO);
    }
}
