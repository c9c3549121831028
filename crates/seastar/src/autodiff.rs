//! Auto-differentiation of vertex-centric programs.
//!
//! Given a forward [`Program`], [`differentiate`] produces the backward
//! program plus the *saved set*: exactly which forward values the backward
//! program needs. This is the paper's State-Stack memory optimisation
//! (§V.B): "STGraph compares the backward and forward intermediate
//! representations to determine which features need to be stored in the
//! state-stack". Three classes of forward values can be referenced:
//!
//! * **inputs** — stored on the executor's State Stack (cheap: the feature
//!   tensors already exist);
//! * **computed node-space values** — kept as backward node-constants;
//! * **computed edge-space values** — the only ones that cost extra memory;
//!   `Gather*` values are *recomputed* from their node-space source inside
//!   the backward kernels instead of being saved (the reason STGraph never
//!   retains the `[num_edges, F]` tensors PyG-style frameworks keep alive).
//!
//! Gradient aggregations flip direction: the adjoint of `GatherSrc` is
//! `AggSumSrc` — a sum over *out*-edges, which is why the backward pass
//! runs over the forward CSR while the forward pass runs over the reverse
//! CSR (§V.B, Figure 2).

use crate::ir::{Id, Op, Program, ProgramBuilder, Space, Val};
use std::collections::HashMap;

/// A forward value the backward program needs, stored as a backward
/// node-constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSave {
    /// The forward program's differentiable input in this slot (a
    /// State-Stack entry — the feature tensor already exists).
    Input(usize),
    /// A computed node-space forward value (by forward IR id).
    Value(Id),
}

/// The backward program and its saved-value requirements.
pub struct BackwardPlan {
    /// The backward program. Its differentiable-input slots are the
    /// upstream gradients (one per forward output, same order). Its
    /// node-constant slots are the forward node-constants followed by
    /// [`BackwardPlan::node_saves`] in order; its edge-constant slots are
    /// the forward edge-constants followed by [`BackwardPlan::edge_saves`].
    pub program: Program,
    /// Saved node-space values, in backward node-constant slot order.
    pub node_saves: Vec<NodeSave>,
    /// Saved edge-space forward values (by forward IR id), in backward
    /// edge-constant slot order. These are the tensors the forward executor
    /// must materialise.
    pub edge_saves: Vec<Id>,
    /// For each forward input slot: the index of its gradient among the
    /// backward program's outputs, or `None` if the gradient is zero.
    pub input_grads: Vec<Option<usize>>,
}

impl BackwardPlan {
    /// Forward IR ids the forward executor must save, in the order the
    /// caller should pass to `execute(..., save)`: node-space values first
    /// (those of `node_saves`), then `edge_saves`.
    pub fn save_ids(&self) -> Vec<Id> {
        let mut ids: Vec<Id> = self
            .node_saves
            .iter()
            .filter_map(|s| match s {
                NodeSave::Value(id) => Some(*id),
                NodeSave::Input(_) => None,
            })
            .collect();
        ids.extend(&self.edge_saves);
        ids
    }

    /// Forward input slots the State Stack must retain.
    pub fn saved_input_slots(&self) -> Vec<usize> {
        self.node_saves
            .iter()
            .filter_map(|s| match s {
                NodeSave::Input(i) => Some(*i),
                NodeSave::Value(_) => None,
            })
            .collect()
    }
}

struct Diff<'f> {
    fwd: &'f Program,
    b: ProgramBuilder,
    /// Memoised backward-program references to forward values.
    vals: HashMap<Id, Val>,
    node_saves: Vec<NodeSave>,
    edge_saves: Vec<Id>,
}

impl<'f> Diff<'f> {
    /// A backward-program value equal to the *forward value* of `fid`,
    /// recomputing gathers and saving everything else that was computed.
    fn val(&mut self, fid: Id) -> Val {
        if let Some(&v) = self.vals.get(&fid) {
            return v;
        }
        let node = self.fwd.node(fid).clone();
        let v = match node.op {
            Op::NodeInput(slot) => {
                self.node_saves.push(NodeSave::Input(slot));
                self.b.node_const(node.width)
            }
            Op::NodeConst(_) | Op::EdgeConst(_) => {
                unreachable!("constants are pre-seeded in vals")
            }
            Op::GatherSrc(x) => {
                let xv = self.val(x);
                self.b.gather_src(xv)
            }
            Op::GatherDst(x) => {
                let xv = self.val(x);
                self.b.gather_dst(xv)
            }
            _ => match node.space {
                Space::Node => {
                    self.node_saves.push(NodeSave::Value(fid));
                    self.b.node_const(node.width)
                }
                Space::Edge => {
                    self.edge_saves.push(fid);
                    self.b.edge_const(node.width)
                }
            },
        };
        self.vals.insert(fid, v);
        v
    }

    /// Adapts a gradient of width `gw` to an operand of width `ow`
    /// (broadcast adjoint = feature reduction).
    fn adapt(&mut self, g: Val, gw: usize, ow: usize) -> Val {
        if gw == ow {
            g
        } else {
            debug_assert_eq!(ow, 1, "grad adapt only reduces to width 1");
            self.b.reduce_feat(g)
        }
    }

    fn add_grad(&mut self, grads: &mut HashMap<Id, Val>, id: Id, g: Val) {
        match grads.get(&id) {
            Some(&prev) => {
                let sum = self.b.add(prev, g);
                grads.insert(id, sum);
            }
            None => {
                grads.insert(id, g);
            }
        }
    }
}

/// Differentiates a forward program. See [`BackwardPlan`].
pub fn differentiate(fwd: &Program) -> BackwardPlan {
    let mut d = Diff {
        fwd,
        b: ProgramBuilder::new(),
        vals: HashMap::new(),
        node_saves: Vec::new(),
        edge_saves: Vec::new(),
    };

    // Seed output gradients as backward inputs FIRST so backward input slot
    // k always corresponds to forward output k.
    let mut grads: HashMap<Id, Val> = HashMap::new();
    for &out in &fwd.outputs {
        let g = d.b.input(fwd.node(out).width);
        match grads.get(&out) {
            Some(&prev) => {
                let sum = d.b.add(prev, g);
                grads.insert(out, sum);
            }
            None => {
                grads.insert(out, g);
            }
        }
    }

    // Mirror the forward constant slots so slot numbering lines up: backward
    // node-const slot i == forward node-const slot i, etc.
    for (fid, node) in fwd.nodes.iter().enumerate() {
        match node.op {
            Op::NodeConst(_) => {
                let v = d.b.node_const(node.width);
                d.vals.insert(fid, v);
            }
            Op::EdgeConst(_) => {
                let v = d.b.edge_const(node.width);
                d.vals.insert(fid, v);
            }
            _ => {}
        }
    }

    let mut input_grads: Vec<Option<Val>> = vec![None; fwd.input_widths.len()];

    for fid in (0..fwd.len()).rev() {
        let Some(&g) = grads.get(&fid) else { continue };
        let node = fwd.node(fid).clone();
        let gw = node.width;
        match node.op {
            Op::NodeInput(slot) => {
                input_grads[slot] = Some(match input_grads[slot] {
                    Some(prev) => d.b.add(prev, g),
                    None => g,
                });
            }
            Op::NodeConst(_) | Op::EdgeConst(_) => {}
            Op::GatherSrc(x) => {
                let gx = d.b.agg_sum_src(g);
                d.add_grad(&mut grads, x, gx);
            }
            Op::GatherDst(x) => {
                let gx = d.b.agg_sum_dst(g);
                d.add_grad(&mut grads, x, gx);
            }
            Op::AggSumDst(e) => {
                let ge = d.b.gather_dst(g);
                d.add_grad(&mut grads, e, ge);
            }
            Op::AggSumSrc(e) => {
                let ge = d.b.gather_src(g);
                d.add_grad(&mut grads, e, ge);
            }
            Op::AggMaxDst(_) => {
                // Gradient stop: sanctioned only for the softmax shift,
                // where the shift's gradient provably cancels.
            }
            Op::Add(a, bb) => {
                let wa = fwd.node(a).width;
                let wb = fwd.node(bb).width;
                let ga = d.adapt(g, gw, wa);
                d.add_grad(&mut grads, a, ga);
                let gb = d.adapt(g, gw, wb);
                d.add_grad(&mut grads, bb, gb);
            }
            Op::Sub(a, bb) => {
                let wa = fwd.node(a).width;
                let wb = fwd.node(bb).width;
                let ga = d.adapt(g, gw, wa);
                d.add_grad(&mut grads, a, ga);
                let neg = d.b.scale(g, -1.0);
                let gb = d.adapt(neg, gw, wb);
                d.add_grad(&mut grads, bb, gb);
            }
            Op::Mul(a, bb) => {
                let wa = fwd.node(a).width;
                let wb = fwd.node(bb).width;
                if needs_grad(fwd, a) {
                    let bv = d.val(bb);
                    let prod = d.b.mul(g, bv);
                    let pw = gw.max(wb);
                    let ga = d.adapt(prod, pw, wa);
                    d.add_grad(&mut grads, a, ga);
                }
                if needs_grad(fwd, bb) {
                    let av = d.val(a);
                    let prod = d.b.mul(g, av);
                    let pw = gw.max(wa);
                    let gb = d.adapt(prod, pw, wb);
                    d.add_grad(&mut grads, bb, gb);
                }
            }
            Op::Div(a, bb) => {
                let wa = fwd.node(a).width;
                let wb = fwd.node(bb).width;
                if needs_grad(fwd, a) {
                    let bv = d.val(bb);
                    let q = d.b.div(g, bv);
                    let pw = gw.max(wb);
                    let ga = d.adapt(q, pw, wa);
                    d.add_grad(&mut grads, a, ga);
                }
                if needs_grad(fwd, bb) {
                    let av = d.val(a);
                    let bv = d.val(bb);
                    let b2 = d.b.mul(bv, bv);
                    let t = d.b.div(av, b2);
                    let prod = d.b.mul(g, t);
                    let neg = d.b.scale(prod, -1.0);
                    let pw = gw.max(wa).max(wb);
                    let gb = d.adapt(neg, pw, wb);
                    d.add_grad(&mut grads, bb, gb);
                }
            }
            Op::Scale(a, c) => {
                let ga = d.b.scale(g, c);
                d.add_grad(&mut grads, a, ga);
            }
            Op::LeakyRelu(a, s) => {
                let xv = d.val(a);
                let ga = d.b.leaky_relu_grad(g, xv, s);
                d.add_grad(&mut grads, a, ga);
            }
            Op::LeakyReluGrad(..) => {
                unreachable!("LeakyReluGrad only appears in backward programs")
            }
            Op::Exp(a) => {
                // d exp(x) = exp(x) dx — reuse the forward output value.
                let yv = d.val(fid);
                let ga = d.b.mul(g, yv);
                d.add_grad(&mut grads, a, ga);
            }
            Op::Sigmoid(a) => {
                // d σ(x) = σ(x)(1 - σ(x)) dx = (gy) - (gy)y with y saved.
                let yv = d.val(fid);
                let gy = d.b.mul(g, yv);
                let gyy = d.b.mul(gy, yv);
                let ga = d.b.sub(gy, gyy);
                d.add_grad(&mut grads, a, ga);
            }
            Op::Tanh(a) => {
                // d tanh(x) = (1 - y²) dx = g - g*y*y with y saved.
                let yv = d.val(fid);
                let gy = d.b.mul(g, yv);
                let gyy = d.b.mul(gy, yv);
                let ga = d.b.sub(g, gyy);
                d.add_grad(&mut grads, a, ga);
            }
            Op::ReduceFeat(a) => {
                let wa = fwd.node(a).width;
                let ga = d.b.broadcast_feat(g, wa);
                d.add_grad(&mut grads, a, ga);
            }
            Op::BroadcastFeat(a, _) => {
                let ga = d.b.reduce_feat(g);
                d.add_grad(&mut grads, a, ga);
            }
        }
    }

    let mut outputs = Vec::new();
    let mut input_grad_slots = Vec::with_capacity(input_grads.len());
    for ig in &input_grads {
        match ig {
            Some(v) => {
                input_grad_slots.push(Some(outputs.len()));
                outputs.push(*v);
            }
            None => input_grad_slots.push(None),
        }
    }
    let program = d.b.finish(&outputs);
    BackwardPlan {
        program,
        node_saves: d.node_saves,
        edge_saves: d.edge_saves,
        input_grads: input_grad_slots,
    }
}

/// True if any differentiable input is reachable from `id` through
/// gradient-carrying ops (constants and AggMax cut the path). Used to skip
/// emitting dead gradient expressions (and their saved values).
fn needs_grad(prog: &Program, id: Id) -> bool {
    match &prog.node(id).op {
        Op::NodeInput(_) => true,
        Op::NodeConst(_) | Op::EdgeConst(_) | Op::AggMaxDst(_) => false,
        op => op.operands().iter().any(|&o| needs_grad(prog, o)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::ir::{gat_aggregation, gcn_aggregation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_graph::base::{gcn_norm, Snapshot};
    use stgraph_tensor::Tensor;

    fn snap() -> Snapshot {
        Snapshot::from_edges(
            5,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (0, 3),
                (2, 4),
                (1, 4),
                (4, 0),
            ],
        )
    }

    /// Runs forward (with saves) then backward, returning per-input grads.
    fn run_backward(
        prog: &Program,
        plan: &BackwardPlan,
        graph: &Snapshot,
        inputs: &[Tensor],
        node_consts: &[Tensor],
        grad_out: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let consts: Vec<&Tensor> = node_consts.iter().collect();
        let save_ids = plan.save_ids();
        let fwd = execute(prog, graph, &refs, &consts, &[], &save_ids);
        // Split the returned saves back into node and edge lists.
        let n_node_value_saves = plan
            .node_saves
            .iter()
            .filter(|s| matches!(s, NodeSave::Value(_)))
            .count();
        let (node_vals, edge_vals) = fwd.saved.split_at(n_node_value_saves);
        let mut node_val_iter = node_vals.iter();
        let mut b_node_consts: Vec<&Tensor> = node_consts.iter().collect();
        for s in &plan.node_saves {
            match s {
                NodeSave::Input(i) => b_node_consts.push(&inputs[*i]),
                NodeSave::Value(_) => b_node_consts.push(node_val_iter.next().unwrap()),
            }
        }
        let b_edge_consts: Vec<&Tensor> = edge_vals.iter().collect();
        let bexec = execute(
            &plan.program,
            graph,
            &[grad_out],
            &b_node_consts,
            &b_edge_consts,
            &[],
        );
        plan.input_grads
            .iter()
            .map(|ig| ig.map(|idx| bexec.outputs[idx].clone()))
            .collect()
    }

    /// Numeric-vs-analytic gradient check: objective = sum(output ⊙ seed).
    fn gradcheck_program(
        prog: &Program,
        graph: &Snapshot,
        inputs: &[Tensor],
        node_consts: &[Tensor],
        tol: f32,
    ) {
        let plan = differentiate(prog);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let n = graph.csr.num_nodes();
        let out_w = prog.node(prog.outputs[0]).width;
        let seed = Tensor::rand_uniform((n, out_w), -1.0, 1.0, &mut rng);

        let grads = run_backward(prog, &plan, graph, inputs, node_consts, &seed);
        for (slot, maybe_g) in grads.iter().enumerate() {
            let Some(analytic) = maybe_g else { continue };
            let mut f = |t: &Tensor| {
                let mut ins = inputs.to_vec();
                ins[slot] = t.clone();
                let refs: Vec<&Tensor> = ins.iter().collect();
                let consts: Vec<&Tensor> = node_consts.iter().collect();
                let out = execute(prog, graph, &refs, &consts, &[], &[])
                    .outputs
                    .remove(0);
                out.mul(&seed).sum().item()
            };
            let numeric =
                stgraph_tensor::autograd::check::numeric_grad(&mut f, &inputs[slot], 1e-2);
            stgraph_tensor::autograd::check::assert_close(analytic, &numeric, tol);
        }
    }

    #[test]
    fn gcn_backward_saves_nothing_extra() {
        let prog = gcn_aggregation(4);
        let plan = differentiate(&prog);
        assert!(plan.edge_saves.is_empty(), "GCN must not save edge tensors");
        assert!(
            plan.node_saves.is_empty(),
            "GCN backward needs no saved activations"
        );
        assert_eq!(plan.input_grads, vec![Some(0)]);
        // Backward aggregates over out-edges: contains an AggSumSrc.
        assert!(plan
            .program
            .nodes
            .iter()
            .any(|n| matches!(n.op, Op::AggSumSrc(_))));
    }

    #[test]
    fn gcn_gradcheck() {
        let g = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let f = 3;
        let x = Tensor::rand_uniform((5, f), -1.0, 1.0, &mut rng);
        let norm = Tensor::from_vec((5, 1), gcn_norm(&g.in_degrees));
        gradcheck_program(&gcn_aggregation(f), &g, &[x], &[norm], 2e-2);
    }

    #[test]
    fn gat_gradcheck() {
        let g = snap();
        // Seed chosen so no leaky_relu pre-activation lands within the
        // finite-difference step of the kink, where numeric gradients are
        // meaningless.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let f = 3;
        let h = Tensor::rand_uniform((5, f), -1.0, 1.0, &mut rng);
        let el = Tensor::rand_uniform((5, 1), -1.0, 1.0, &mut rng);
        let er = Tensor::rand_uniform((5, 1), -1.0, 1.0, &mut rng);
        gradcheck_program(&gat_aggregation(f, 0.2), &g, &[h, el, er], &[], 3e-2);
    }

    #[test]
    fn gat_saved_set_is_small() {
        // The memory optimisation: GAT saves only width-1 edge values and
        // width-1 node values — never the [m, F] gathered features.
        let prog = gat_aggregation(16, 0.2);
        let plan = differentiate(&prog);
        for &id in &plan.edge_saves {
            assert_eq!(
                prog.node(id).width,
                1,
                "only scalar edge values may be saved"
            );
        }
        for s in &plan.node_saves {
            match s {
                NodeSave::Value(id) => assert_eq!(prog.node(*id).width, 1),
                NodeSave::Input(slot) => {
                    // Only h (slot 0) is needed; el/er values are not.
                    assert_eq!(*slot, 0);
                }
            }
        }
        assert_eq!(plan.saved_input_slots(), vec![0]);
    }

    #[test]
    fn sum_aggregation_grad_is_outdegree_scaled() {
        // out_v = sum in-nbrs h_u; objective = sum(out) => dh_u = out_deg(u).
        let mut b = ProgramBuilder::new();
        let h = b.input(1);
        let gsrc = b.gather_src(h);
        let out = b.agg_sum_dst(gsrc);
        let prog = b.finish(&[out]);
        let plan = differentiate(&prog);
        let g = snap();
        let ones = Tensor::ones((5, 1));
        let grads = run_backward(&prog, &plan, &g, &[Tensor::zeros((5, 1))], &[], &ones);
        let got = grads[0].as_ref().unwrap();
        let want: Vec<f32> = g.out_degrees.iter().map(|&d| d as f32).collect();
        assert_eq!(got.to_vec(), want);
    }

    #[test]
    fn sigmoid_tanh_gradcheck() {
        // An edge-gated aggregation: out_v = Σ tanh(σ(h_u)) — smooth
        // everywhere, so numerics are reliable.
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let g = b.gather_src(h);
        let sg = b.sigmoid(g);
        let tg = b.tanh(sg);
        let out = b.agg_sum_dst(tg);
        let prog = b.finish(&[out]);
        let graph = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let x = Tensor::rand_uniform((5, 2), -2.0, 2.0, &mut rng);
        gradcheck_program(&prog, &graph, &[x], &[], 2e-2);
        // The saved set holds the two edge-space activations (width 2).
        let plan = differentiate(&prog);
        assert_eq!(plan.edge_saves.len(), 2);
    }

    #[test]
    fn constant_only_branch_gets_no_gradient_machinery() {
        // Multiplying by a node-const must not save anything.
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let c = b.node_const(1);
        let scaled = b.mul(h, c);
        let gsrc = b.gather_src(scaled);
        let out = b.agg_sum_dst(gsrc);
        let prog = b.finish(&[out]);
        let plan = differentiate(&prog);
        assert!(plan.node_saves.is_empty());
        assert!(plan.edge_saves.is_empty());
    }

    #[test]
    fn two_outputs_get_two_grad_inputs() {
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let g1 = b.gather_src(h);
        let o1 = b.agg_sum_dst(g1);
        let g2 = b.gather_dst(h);
        let o2 = b.agg_sum_src(g2);
        let prog = b.finish(&[o1, o2]);
        let plan = differentiate(&prog);
        assert_eq!(plan.program.input_widths, vec![2, 2]);
        assert_eq!(plan.input_grads, vec![Some(0)]);
    }
}
