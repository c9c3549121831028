//! The vertex-centric intermediate representation (IR).
//!
//! Seastar traces a user's vertex-centric function into a DAG, optimises
//! it, auto-differentiates it, and generates forward/backward CUDA kernels
//! (§IV). We reproduce that pipeline: [`ProgramBuilder`] is the tracing
//! API, [`Program`] the DAG, `autodiff` derives the backward program, and
//! `exec` plays the role of kernel generation — edge-space values are
//! *never materialised* as tensors; they live in per-thread registers
//! inside the fused vertex-parallel aggregation loops.
//!
//! Values live in one of two [`Space`]s:
//! * **Node** values are `[num_nodes, width]` tensors;
//! * **Edge** values are virtual `[num_edges, width]` quantities produced
//!   by `gather_*` and consumed by `agg_*` (or explicitly materialised when
//!   the backward program needs them saved).

/// Which space a value lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// One row per vertex.
    Node,
    /// One (virtual) row per edge.
    Edge,
}

/// Node id within a [`Program`].
pub type Id = usize;

/// IR operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Differentiable per-node input tensor (slot index).
    NodeInput(usize),
    /// Non-differentiable per-node constant tensor (slot index) — degree
    /// norms, saved activations in backward programs, upstream gradients.
    NodeConst(usize),
    /// Non-differentiable per-edge constant tensor (slot index) — edge
    /// weights or saved edge activations in backward programs.
    EdgeConst(usize),
    /// Edge value: the source endpoint's node value.
    GatherSrc(Id),
    /// Edge value: the destination endpoint's node value.
    GatherDst(Id),
    /// Node value: sum of an edge value over each vertex's in-edges
    /// (executed vertex-parallel over the reverse CSR — the forward pass).
    AggSumDst(Id),
    /// Node value: sum of an edge value over each vertex's out-edges
    /// (executed over the forward CSR — the backward pass direction).
    AggSumSrc(Id),
    /// Node value: max of an edge value over in-edges (0 for isolated
    /// vertices). Gradient is *stopped* here: the only sanctioned use is
    /// the shift inside edge-softmax, where the shift provably cancels.
    AggMaxDst(Id),
    /// Elementwise sum.
    Add(Id, Id),
    /// Elementwise difference.
    Sub(Id, Id),
    /// Elementwise product (width-1 operands broadcast).
    Mul(Id, Id),
    /// Elementwise quotient (width-1 operands broadcast).
    Div(Id, Id),
    /// Multiply by a compile-time scalar.
    Scale(Id, f32),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Id, f32),
    /// `grad * leaky_relu'(x)` — emitted by autodiff.
    LeakyReluGrad(Id, Id, f32),
    /// Elementwise exponential.
    Exp(Id),
    /// Logistic sigmoid.
    Sigmoid(Id),
    /// Hyperbolic tangent.
    Tanh(Id),
    /// Sum across the feature dimension: `[*, w] -> [*, 1]`.
    ReduceFeat(Id),
    /// Repeat a width-1 value across `w` features.
    BroadcastFeat(Id, usize),
}

impl Op {
    /// Ids of this op's operands.
    pub fn operands(&self) -> Vec<Id> {
        match *self {
            Op::NodeInput(_) | Op::NodeConst(_) | Op::EdgeConst(_) => vec![],
            Op::GatherSrc(a)
            | Op::GatherDst(a)
            | Op::AggSumDst(a)
            | Op::AggSumSrc(a)
            | Op::AggMaxDst(a)
            | Op::Scale(a, _)
            | Op::LeakyRelu(a, _)
            | Op::Exp(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::ReduceFeat(a)
            | Op::BroadcastFeat(a, _) => vec![a],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::LeakyReluGrad(a, b, _) => vec![a, b],
        }
    }
}

/// One IR node: an op plus its inferred space and feature width.
#[derive(Debug, Clone)]
pub struct IrNode {
    /// The operation.
    pub op: Op,
    /// Node or edge space.
    pub space: Space,
    /// Feature width of the produced value.
    pub width: usize,
}

/// A traced vertex-centric program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Nodes in topological (creation) order.
    pub nodes: Vec<IrNode>,
    /// Output node ids (must be node-space).
    pub outputs: Vec<Id>,
    /// Feature width of each differentiable input slot.
    pub input_widths: Vec<usize>,
    /// Feature width of each node-constant slot.
    pub node_const_widths: Vec<usize>,
    /// Feature width of each edge-constant slot.
    pub edge_const_widths: Vec<usize>,
}

impl Program {
    /// The node for `id`.
    pub fn node(&self, id: Id) -> &IrNode {
        &self.nodes[id]
    }

    /// Number of IR nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Dead-code elimination: drops nodes unreachable from the outputs and
    /// remaps ids. Input/const slot indices are preserved (slots may become
    /// unused but keep their position so callers' argument lists still
    /// line up).
    pub fn eliminate_dead_code(&self) -> Program {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<Id> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(self.nodes[id].op.operands());
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if !live[id] {
                continue;
            }
            let mut op = node.op.clone();
            for operand in op_operands_mut(&mut op) {
                *operand = remap[*operand];
            }
            remap[id] = nodes.len();
            nodes.push(IrNode {
                op,
                space: node.space,
                width: node.width,
            });
        }
        Program {
            nodes,
            outputs: self.outputs.iter().map(|&o| remap[o]).collect(),
            input_widths: self.input_widths.clone(),
            node_const_widths: self.node_const_widths.clone(),
            edge_const_widths: self.edge_const_widths.clone(),
        }
    }

    /// Common-subexpression elimination: structurally identical nodes are
    /// merged (autodiff's value-recomputation rules routinely emit
    /// duplicate gathers). Scalar constants are compared bitwise. Returns
    /// the deduplicated program; run DCE afterwards to drop the husks.
    pub fn eliminate_common_subexpressions(&self) -> Program {
        use std::collections::HashMap;
        // Key: op discriminant + remapped operands + scalar bits.
        fn key(op: &Op) -> (u8, Vec<usize>, u32) {
            match *op {
                Op::NodeInput(s) => (0, vec![s], 0),
                Op::NodeConst(s) => (1, vec![s], 0),
                Op::EdgeConst(s) => (2, vec![s], 0),
                Op::GatherSrc(a) => (3, vec![a], 0),
                Op::GatherDst(a) => (4, vec![a], 0),
                Op::AggSumDst(a) => (5, vec![a], 0),
                Op::AggSumSrc(a) => (6, vec![a], 0),
                Op::AggMaxDst(a) => (7, vec![a], 0),
                Op::Add(a, b) => (8, vec![a, b], 0),
                Op::Sub(a, b) => (9, vec![a, b], 0),
                Op::Mul(a, b) => (10, vec![a, b], 0),
                Op::Div(a, b) => (11, vec![a, b], 0),
                Op::Scale(a, c) => (12, vec![a], c.to_bits()),
                Op::LeakyRelu(a, c) => (13, vec![a], c.to_bits()),
                Op::LeakyReluGrad(a, b, c) => (14, vec![a, b], c.to_bits()),
                Op::Exp(a) => (15, vec![a], 0),
                Op::ReduceFeat(a) => (16, vec![a], 0),
                Op::BroadcastFeat(a, w) => (17, vec![a, w], 0),
                Op::Sigmoid(a) => (18, vec![a], 0),
                Op::Tanh(a) => (19, vec![a], 0),
            }
        }
        let mut canon: HashMap<(u8, Vec<usize>, u32), Id> = HashMap::new();
        let mut remap: Vec<Id> = Vec::with_capacity(self.nodes.len());
        let mut out = self.clone();
        for (id, node) in self.nodes.iter().enumerate() {
            let mut op = node.op.clone();
            for operand in op_operands_mut(&mut op) {
                *operand = remap[*operand];
            }
            let k = key(&op);
            let canon_id = *canon.entry(k).or_insert(id);
            out.nodes[id].op = op;
            remap.push(canon_id);
        }
        for o in &mut out.outputs {
            *o = remap[*o];
        }
        out.eliminate_dead_code()
    }

    /// Ids of aggregation nodes (the kernel launch points), in order.
    pub fn aggregations(&self) -> Vec<Id> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::AggSumDst(_) | Op::AggSumSrc(_) | Op::AggMaxDst(_)))
            .map(|(i, _)| i)
            .collect()
    }
}

impl std::fmt::Display for Program {
    /// Pretty-prints the IR, one node per line, e.g.
    /// `%3: Edge[16] = GatherSrc(%2)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (id, node) in self.nodes.iter().enumerate() {
            let space = match node.space {
                Space::Node => "Node",
                Space::Edge => "Edge",
            };
            write!(f, "%{id}: {space}[{}] = ", node.width)?;
            match &node.op {
                Op::NodeInput(s) => writeln!(f, "NodeInput(slot {s})")?,
                Op::NodeConst(s) => writeln!(f, "NodeConst(slot {s})")?,
                Op::EdgeConst(s) => writeln!(f, "EdgeConst(slot {s})")?,
                Op::GatherSrc(a) => writeln!(f, "GatherSrc(%{a})")?,
                Op::GatherDst(a) => writeln!(f, "GatherDst(%{a})")?,
                Op::AggSumDst(a) => writeln!(f, "AggSumDst(%{a})")?,
                Op::AggSumSrc(a) => writeln!(f, "AggSumSrc(%{a})")?,
                Op::AggMaxDst(a) => writeln!(f, "AggMaxDst(%{a})")?,
                Op::Add(a, b) => writeln!(f, "Add(%{a}, %{b})")?,
                Op::Sub(a, b) => writeln!(f, "Sub(%{a}, %{b})")?,
                Op::Mul(a, b) => writeln!(f, "Mul(%{a}, %{b})")?,
                Op::Div(a, b) => writeln!(f, "Div(%{a}, %{b})")?,
                Op::Scale(a, c) => writeln!(f, "Scale(%{a}, {c})")?,
                Op::LeakyRelu(a, s) => writeln!(f, "LeakyRelu(%{a}, {s})")?,
                Op::LeakyReluGrad(g, x, s) => writeln!(f, "LeakyReluGrad(%{g}, %{x}, {s})")?,
                Op::Exp(a) => writeln!(f, "Exp(%{a})")?,
                Op::Sigmoid(a) => writeln!(f, "Sigmoid(%{a})")?,
                Op::Tanh(a) => writeln!(f, "Tanh(%{a})")?,
                Op::ReduceFeat(a) => writeln!(f, "ReduceFeat(%{a})")?,
                Op::BroadcastFeat(a, w) => writeln!(f, "BroadcastFeat(%{a}, {w})")?,
            }
        }
        let outs: Vec<String> = self.outputs.iter().map(|o| format!("%{o}")).collect();
        writeln!(f, "outputs: [{}]", outs.join(", "))
    }
}

fn op_operands_mut(op: &mut Op) -> Vec<&mut Id> {
    match op {
        Op::NodeInput(_) | Op::NodeConst(_) | Op::EdgeConst(_) => vec![],
        Op::GatherSrc(a)
        | Op::GatherDst(a)
        | Op::AggSumDst(a)
        | Op::AggSumSrc(a)
        | Op::AggMaxDst(a)
        | Op::Scale(a, _)
        | Op::LeakyRelu(a, _)
        | Op::Exp(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::ReduceFeat(a)
        | Op::BroadcastFeat(a, _) => vec![a],
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::Div(a, b)
        | Op::LeakyReluGrad(a, b, _) => {
            vec![a, b]
        }
    }
}

/// A handle to an IR value during tracing.
#[derive(Debug, Clone, Copy)]
pub struct Val {
    /// The node id.
    pub id: Id,
}

/// Builder for tracing vertex-centric programs.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    prog: Program,
}

impl ProgramBuilder {
    /// A fresh builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            prog: Program::default(),
        }
    }

    fn push(&mut self, op: Op, space: Space, width: usize) -> Val {
        self.prog.nodes.push(IrNode { op, space, width });
        Val {
            id: self.prog.nodes.len() - 1,
        }
    }

    fn node(&self, v: Val) -> &IrNode {
        &self.prog.nodes[v.id]
    }

    /// Declares a differentiable per-node input of the given width.
    pub fn input(&mut self, width: usize) -> Val {
        let slot = self.prog.input_widths.len();
        self.prog.input_widths.push(width);
        self.push(Op::NodeInput(slot), Space::Node, width)
    }

    /// Declares a non-differentiable per-node constant (e.g. degree norms).
    pub fn node_const(&mut self, width: usize) -> Val {
        let slot = self.prog.node_const_widths.len();
        self.prog.node_const_widths.push(width);
        self.push(Op::NodeConst(slot), Space::Node, width)
    }

    /// Declares a non-differentiable per-edge constant (e.g. edge weights).
    pub fn edge_const(&mut self, width: usize) -> Val {
        let slot = self.prog.edge_const_widths.len();
        self.prog.edge_const_widths.push(width);
        self.push(Op::EdgeConst(slot), Space::Edge, width)
    }

    /// Edge value: source endpoint's copy of a node value.
    pub fn gather_src(&mut self, v: Val) -> Val {
        assert_eq!(
            self.node(v).space,
            Space::Node,
            "gather_src takes a node value"
        );
        let w = self.node(v).width;
        self.push(Op::GatherSrc(v.id), Space::Edge, w)
    }

    /// Edge value: destination endpoint's copy of a node value.
    pub fn gather_dst(&mut self, v: Val) -> Val {
        assert_eq!(
            self.node(v).space,
            Space::Node,
            "gather_dst takes a node value"
        );
        let w = self.node(v).width;
        self.push(Op::GatherDst(v.id), Space::Edge, w)
    }

    /// Node value: per-vertex sum of an edge value over in-edges.
    pub fn agg_sum_dst(&mut self, e: Val) -> Val {
        assert_eq!(
            self.node(e).space,
            Space::Edge,
            "agg_sum_dst takes an edge value"
        );
        let w = self.node(e).width;
        self.push(Op::AggSumDst(e.id), Space::Node, w)
    }

    /// Node value: per-vertex sum of an edge value over out-edges.
    pub fn agg_sum_src(&mut self, e: Val) -> Val {
        assert_eq!(
            self.node(e).space,
            Space::Edge,
            "agg_sum_src takes an edge value"
        );
        let w = self.node(e).width;
        self.push(Op::AggSumSrc(e.id), Space::Node, w)
    }

    /// Node value: per-vertex max of an edge value over in-edges
    /// (gradient-stopped; see [`Op::AggMaxDst`]).
    pub fn agg_max_dst(&mut self, e: Val) -> Val {
        assert_eq!(
            self.node(e).space,
            Space::Edge,
            "agg_max_dst takes an edge value"
        );
        let w = self.node(e).width;
        self.push(Op::AggMaxDst(e.id), Space::Node, w)
    }

    fn binary_width(&self, a: Val, b: Val, what: &str) -> (Space, usize) {
        let (na, nb) = (self.node(a), self.node(b));
        assert_eq!(na.space, nb.space, "{what}: operand spaces differ");
        let w = match (na.width, nb.width) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            (x, y) => panic!("{what}: incompatible widths {x} vs {y}"),
        };
        (na.space, w)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Val, b: Val) -> Val {
        let (s, w) = self.binary_width(a, b, "add");
        self.push(Op::Add(a.id, b.id), s, w)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Val, b: Val) -> Val {
        let (s, w) = self.binary_width(a, b, "sub");
        self.push(Op::Sub(a.id, b.id), s, w)
    }

    /// Elementwise product (broadcasting width-1 operands).
    pub fn mul(&mut self, a: Val, b: Val) -> Val {
        let (s, w) = self.binary_width(a, b, "mul");
        self.push(Op::Mul(a.id, b.id), s, w)
    }

    /// Elementwise quotient (broadcasting width-1 operands).
    pub fn div(&mut self, a: Val, b: Val) -> Val {
        let (s, w) = self.binary_width(a, b, "div");
        self.push(Op::Div(a.id, b.id), s, w)
    }

    /// Scalar multiply.
    pub fn scale(&mut self, a: Val, c: f32) -> Val {
        let n = self.node(a);
        let (s, w) = (n.space, n.width);
        self.push(Op::Scale(a.id, c), s, w)
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, a: Val, slope: f32) -> Val {
        let n = self.node(a);
        let (s, w) = (n.space, n.width);
        self.push(Op::LeakyRelu(a.id, slope), s, w)
    }

    /// `grad * leaky_relu'(x)` (autodiff helper).
    pub fn leaky_relu_grad(&mut self, g: Val, x: Val, slope: f32) -> Val {
        let (s, w) = self.binary_width(g, x, "leaky_relu_grad");
        self.push(Op::LeakyReluGrad(g.id, x.id, slope), s, w)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Val) -> Val {
        let n = self.node(a);
        let (s, w) = (n.space, n.width);
        self.push(Op::Exp(a.id), s, w)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Val) -> Val {
        let n = self.node(a);
        let (s, w) = (n.space, n.width);
        self.push(Op::Sigmoid(a.id), s, w)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Val) -> Val {
        let n = self.node(a);
        let (s, w) = (n.space, n.width);
        self.push(Op::Tanh(a.id), s, w)
    }

    /// Sum across features to width 1.
    pub fn reduce_feat(&mut self, a: Val) -> Val {
        let n = self.node(a);
        let s = n.space;
        self.push(Op::ReduceFeat(a.id), s, 1)
    }

    /// Broadcast a width-1 value to width `w`.
    pub fn broadcast_feat(&mut self, a: Val, w: usize) -> Val {
        let n = self.node(a);
        assert_eq!(n.width, 1, "broadcast_feat takes a width-1 value");
        let s = n.space;
        self.push(Op::BroadcastFeat(a.id, w), s, w)
    }

    /// Finalises the program with the given node-space outputs and runs DCE.
    pub fn finish(mut self, outputs: &[Val]) -> Program {
        for &o in outputs {
            assert_eq!(
                self.node(o).space,
                Space::Node,
                "program outputs must be node-space values"
            );
        }
        self.prog.outputs = outputs.iter().map(|v| v.id).collect();
        self.prog.eliminate_dead_code()
    }
}

/// Traces the GCN aggregation: `out = norm ⊙ Σ_{u∈in(v)} (norm_u ⊙ h_u)`
/// plus the self-loop contribution `norm_v² ⊙ h_v` (so the program computes
/// `D̂^{-1/2} Â D̂^{-1/2} H` with `Â = A + I`).
pub fn gcn_aggregation(width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let h = b.input(width);
    let norm = b.node_const(1);
    let scaled = b.mul(h, norm);
    let gathered = b.gather_src(scaled);
    let agg = b.agg_sum_dst(gathered);
    // Self-loop: adding `scaled` here and multiplying the combined value by
    // `norm` yields the `norm_v² ⊙ h_v` diagonal term of D̂^{-1/2} Â D̂^{-1/2}.
    let combined = b.add(agg, scaled);
    let out = b.mul(combined, norm);
    b.finish(&[out])
}

/// Traces the GAT attention aggregation for a single head:
/// given transformed features `h = XW` and per-node attention halves
/// `el = (h·a_l)`, `er = (h·a_r)`, computes
/// `out_v = Σ_{u∈in(v)} softmax_v(leaky_relu(el_u + er_v)) ⊙ h_u`.
pub fn gat_aggregation(width: usize, slope: f32) -> Program {
    let mut b = ProgramBuilder::new();
    let h = b.input(width);
    let el = b.input(1);
    let er = b.input(1);
    let e_src = b.gather_src(el);
    let e_dst = b.gather_dst(er);
    let score = b.add(e_src, e_dst);
    let score = b.leaky_relu(score, slope);
    let shift = b.agg_max_dst(score);
    let shift_e = b.gather_dst(shift);
    let shifted = b.sub(score, shift_e);
    let unnorm = b.exp(shifted);
    let denom = b.agg_sum_dst(unnorm);
    let denom_e = b.gather_dst(denom);
    let alpha = b.div(unnorm, denom_e);
    let hg = b.gather_src(h);
    let weighted = b.mul(alpha, hg);
    let out = b.agg_sum_dst(weighted);
    b.finish(&[out])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_spaces_and_widths() {
        let mut b = ProgramBuilder::new();
        let h = b.input(8);
        let norm = b.node_const(1);
        let s = b.mul(h, norm);
        let g = b.gather_src(s);
        let a = b.agg_sum_dst(g);
        let p = b.finish(&[a]);
        assert_eq!(p.node(p.outputs[0]).space, Space::Node);
        assert_eq!(p.node(p.outputs[0]).width, 8);
        assert_eq!(p.input_widths, vec![8]);
        assert_eq!(p.node_const_widths, vec![1]);
    }

    #[test]
    #[should_panic(expected = "agg_sum_dst takes an edge value")]
    fn agg_of_node_value_panics() {
        let mut b = ProgramBuilder::new();
        let h = b.input(4);
        b.agg_sum_dst(h);
    }

    #[test]
    #[should_panic(expected = "gather_src takes a node value")]
    fn gather_of_edge_value_panics() {
        let mut b = ProgramBuilder::new();
        let h = b.input(4);
        let e = b.gather_src(h);
        b.gather_src(e);
    }

    #[test]
    #[should_panic(expected = "incompatible widths")]
    fn width_mismatch_panics() {
        let mut b = ProgramBuilder::new();
        let a = b.input(4);
        let c = b.input(3);
        b.add(a, c);
    }

    #[test]
    #[should_panic(expected = "outputs must be node-space")]
    fn edge_output_panics() {
        let mut b = ProgramBuilder::new();
        let h = b.input(4);
        let e = b.gather_src(h);
        b.finish(&[e]);
    }

    #[test]
    fn dce_removes_unreachable_nodes() {
        let mut b = ProgramBuilder::new();
        let h = b.input(4);
        let dead = b.scale(h, 2.0);
        let _deader = b.exp(dead);
        let g = b.gather_src(h);
        let out = b.agg_sum_dst(g);
        let p = b.finish(&[out]);
        // input + gather + agg survive; scale & exp are gone.
        assert_eq!(p.len(), 3);
        assert_eq!(p.aggregations().len(), 1);
    }

    #[test]
    fn gcn_program_shape() {
        let p = gcn_aggregation(16);
        assert_eq!(p.outputs.len(), 1);
        assert_eq!(p.node(p.outputs[0]).width, 16);
        assert_eq!(p.aggregations().len(), 1);
        assert_eq!(p.input_widths, vec![16]);
    }

    #[test]
    fn gat_program_shape() {
        let p = gat_aggregation(8, 0.2);
        assert_eq!(p.input_widths, vec![8, 1, 1]);
        // max, denom-sum, weighted-sum.
        assert_eq!(p.aggregations().len(), 3);
        assert_eq!(p.node(p.outputs[0]).width, 8);
    }

    #[test]
    fn display_prints_every_node_and_outputs() {
        let p = gcn_aggregation(4);
        let text = p.to_string();
        assert!(text.contains("NodeInput(slot 0)"), "{text}");
        assert!(text.contains("AggSumDst"));
        assert!(text.contains("outputs: ["));
        assert_eq!(text.lines().count(), p.len() + 1);
    }

    #[test]
    fn cse_merges_duplicate_gathers() {
        let mut b = ProgramBuilder::new();
        let h = b.input(4);
        let g1 = b.gather_src(h);
        let g2 = b.gather_src(h); // duplicate
        let sum = b.add(g1, g2);
        let out = b.agg_sum_dst(sum);
        let p = b.finish(&[out]);
        let before = p.len();
        let after = p.eliminate_common_subexpressions();
        assert_eq!(after.len(), before - 1, "one duplicate gather must merge");
        // Same aggregation count, same output width.
        assert_eq!(after.aggregations().len(), 1);
        assert_eq!(after.node(after.outputs[0]).width, 4);
    }

    #[test]
    fn cse_respects_scalar_constants() {
        let mut b = ProgramBuilder::new();
        let h = b.input(2);
        let s1 = b.scale(h, 2.0);
        let s2 = b.scale(h, 3.0); // different constant: must NOT merge
        let g1 = b.gather_src(s1);
        let g2 = b.gather_src(s2);
        let sum = b.add(g1, g2);
        let out = b.agg_sum_dst(sum);
        let p = b.finish(&[out]).eliminate_common_subexpressions();
        let scales = p
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Scale(_, _)))
            .count();
        assert_eq!(scales, 2);
    }

    #[test]
    fn cse_is_idempotent_and_preserves_gcn() {
        let p = gcn_aggregation(8);
        let once = p.eliminate_common_subexpressions();
        let twice = once.eliminate_common_subexpressions();
        assert_eq!(once.len(), twice.len());
        assert_eq!(once.input_widths, p.input_widths);
    }

    #[test]
    fn broadcast_mul_width_inference() {
        let mut b = ProgramBuilder::new();
        let wide = b.input(8);
        let narrow = b.input(1);
        let m = b.mul(wide, narrow);
        let r = b.reduce_feat(m);
        let bc = b.broadcast_feat(r, 8);
        let g = b.gather_src(bc);
        let out = b.agg_sum_dst(g);
        let p = b.finish(&[out]);
        assert_eq!(p.node(p.outputs[0]).width, 8);
    }
}
