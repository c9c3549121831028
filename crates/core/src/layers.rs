//! GNN layers written in the vertex-centric programming model, the building
//! blocks TGNN models are assembled from (§V.A.1). Dense transforms run on
//! the backend (`stgraph-tensor`); graph aggregation runs through the
//! temporally-aware executor as compiled vertex-centric programs.

use crate::executor::{compile, CompiledProgram, TemporalExecutor};
use rand::Rng;
use std::rc::Rc;
use stgraph_graph::base::{gcn_norm, Snapshot};
use stgraph_seastar::ir::{gat_aggregation, gcn_aggregation, Program, ProgramBuilder};
use stgraph_tensor::mem::TrackedBuf;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Param, Shape, StateDict, Tape, Tensor, Var};

/// Per-snapshot GCN degree norms as an `[n, 1]` tensor.
pub fn norm_tensor(snap: &Snapshot) -> Tensor {
    let n = snap.in_degrees.len();
    Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees))
}

/// A pooled tensor of `shape` holding `parts` back to back.
fn pooled(shape: impl Into<Shape>, parts: &[&[f32]]) -> Tensor {
    let mut buf = TrackedBuf::raw(parts.iter().map(|p| p.len()).sum());
    let mut rest = buf.as_mut_slice();
    for part in parts {
        let (dst, tail) = rest.split_at_mut(part.len());
        dst.copy_from_slice(part);
        rest = tail;
    }
    Tensor::from_buf(shape, buf)
}

/// Parameter-free GCN propagation `Â· = D̂^{-1/2}(A+I)D̂^{-1/2}·` over a
/// fixed column width — the aggregation half of every GCN-style layer.
/// Each [`GcnPropagate::forward`] is exactly one
/// [`TemporalExecutor::apply`]: one State-Stack + Graph-Stack push and one
/// LIFO pop when its input needs a gradient, a forward launch alone when
/// not. The program is compiled once, at construction.
pub struct GcnPropagate {
    program: Rc<CompiledProgram>,
}

impl GcnPropagate {
    /// A propagation over `[n, width]` inputs.
    pub fn new(width: usize) -> GcnPropagate {
        GcnPropagate {
            program: compile(gcn_aggregation(width)),
        }
    }

    /// `Â_t · x`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Var<'t> {
        let norm = norm_tensor(&exec.snapshot_for(t));
        exec.apply(tape, &self.program, t, &[x], vec![norm], vec![])
    }
}

/// The two propagations a GCN application to one shared input can take,
/// both compiled at construction: `[X|1]` (aggregate-first) and the
/// gates' transformed inputs side by side (transform-first).
pub struct SharedPropagate {
    aggregated: GcnPropagate,
    transformed: GcnPropagate,
}

impl SharedPropagate {
    /// The propagations serving `gates` same-shaped convolutions
    /// `in_features → out_features` of one input.
    pub fn new(in_features: usize, out_features: usize, gates: usize) -> SharedPropagate {
        SharedPropagate {
            aggregated: GcnPropagate::new(in_features + 1),
            transformed: GcnPropagate::new(gates * out_features),
        }
    }
}

/// Graph convolution (Kipf & Welling) with self-loops and symmetric
/// normalisation: `out = Â (X W + b)`, `Â = D̂^{-1/2}(A+I)D̂^{-1/2}`.
///
/// The layer is a parameter-free propagate ([`GcnPropagate`]) and a dense
/// transform. It runs **aggregate-first** when `in_features < out_features`
/// (the DGL `GraphConv` width rule: the adjacency pass runs at the narrow
/// width) or when its input needs no gradient: then the propagation reads
/// only constants and is forward-only — no backward launch, no stack frame,
/// no graph rewind. Otherwise it runs transform-first. Aggregate-first
/// keeps the bias inside the aggregation through
/// `Â(XW + 1bᵀ) = (Â[X|1])·[W; b]`, so both orders compute the same
/// function of the same parameters (up to float reassociation).
///
/// ```
/// use stgraph::backend::create_backend;
/// use stgraph::executor::{GraphSource, TemporalExecutor};
/// use stgraph::layers::GcnConv;
/// use stgraph_graph::base::Snapshot;
/// use stgraph_tensor::{nn::ParamSet, Tape, Tensor};
/// use rand::SeedableRng;
///
/// let graph = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(graph));
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut params = ParamSet::new();
/// let conv = GcnConv::new(&mut params, "gcn", 3, 8, &mut rng);
///
/// let tape = Tape::new();
/// let x = tape.constant(Tensor::zeros((4, 3)));
/// let y = conv.forward(&tape, &exec, 0, &x);
/// assert_eq!(y.value().shape(), stgraph_tensor::Shape::Mat(4, 8));
/// # let loss = y.sum();
/// # tape.backward(&loss);
/// ```
pub struct GcnConv {
    linear: Linear,
    prop: SharedPropagate,
}

impl GcnConv {
    /// A new GCN layer registered into `params`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> GcnConv {
        GcnConv {
            linear: Linear::new(params, name, in_features, out_features, true, rng),
            prop: SharedPropagate::new(in_features, out_features, 1),
        }
    }

    /// True when the layer propagates before it transforms an input that
    /// needs a gradient (the width rule: that propagates fewer columns).
    /// An input that needs none is always aggregated first.
    pub fn aggregates_first(&self) -> bool {
        self.linear.fan_in() < self.linear.fan_out()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.linear.fan_out()
    }

    /// The dense weight parameter (tests, weight sharing with baselines).
    pub fn weight_param(&self) -> &stgraph_tensor::Param {
        &self.linear.weight
    }

    /// The bias parameter.
    pub fn bias_param(&self) -> Option<&stgraph_tensor::Param> {
        self.linear.bias.as_ref()
    }

    /// The dense half after an aggregate-first propagation: `p · [W; b]`
    /// for `p = Â[X|1]` — one GEMM, the bias riding the ones column. `dp`
    /// is computed only when `p` needs a gradient.
    fn transform_aggregated<'t>(&self, tape: &'t Tape, p: &Var<'t>) -> Var<'t> {
        let w = tape.param(&self.linear.weight);
        let b = tape.param(self.linear.bias.as_ref().expect("GcnConv has a bias"));
        let (k, m) = w.value().shape().as_mat();
        let bias_shape = b.value().shape();
        let wb = pooled((k + 1, m), &[w.value().data(), b.value().data()]);
        let out = p.value().matmul(&wb);
        let pv = p.value().clone();
        let wb = p.requires_grad().then_some(wb);
        tape.custom(&[p, &w, &b], out, move |g, _| {
            let dwb = pv.t_matmul(g);
            let (dw, db) = dwb.data().split_at(k * m);
            vec![
                wb.as_ref().map(|wb| g.matmul(&wb.transpose())),
                Some(pooled((k, m), &[dw])),
                Some(pooled(bias_shape, &[db])),
            ]
        })
    }

    /// Applies same-shaped `convs` to one input with a **single**
    /// propagation through `prop` (built for as many gates), returning one
    /// output per conv — how a recurrent cell feeds all its gates from one
    /// adjacency pass per timestamp.
    pub fn forward_shared<'t, const N: usize>(
        convs: [&GcnConv; N],
        prop: &SharedPropagate,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> [Var<'t>; N] {
        if convs[0].aggregates_first() || !x.requires_grad() {
            let ones = tape.constant(Tensor::ones((x.value().rows(), 1)));
            let p = prop
                .aggregated
                .forward(tape, exec, t, &Var::concat_cols(&[x, &ones]));
            return convs.map(|c| c.transform_aggregated(tape, &p));
        }
        let prop = &prop.transformed;
        let hs = convs.map(|c| c.linear.forward(tape, x));
        if N == 1 {
            return hs.map(|h| prop.forward(tape, exec, t, &h));
        }
        let y = prop.forward(tape, exec, t, &Var::concat_cols(&hs.each_ref()));
        let w = convs[0].out_features();
        std::array::from_fn(|i| y.slice_cols(i * w, (i + 1) * w))
    }

    /// Applies the layer at timestamp `t`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Var<'t> {
        let [y] = GcnConv::forward_shared([self], &self.prop, tape, exec, t, x);
        y
    }
}

impl StateDict for GcnConv {
    fn parameters(&self) -> Vec<Param> {
        self.linear.parameters()
    }
}

/// Single-head graph attention (Veličković et al.): attention coefficients
/// from `leaky_relu(a_l·h_u + a_r·h_v)`, edge-softmax per destination,
/// weighted in-neighbour sum. The edge softmax is the op Seastar motivates
/// its vertex-centric model with.
pub struct GatConv {
    weight: Linear,
    attn_l: Linear,
    attn_r: Linear,
    program: Rc<CompiledProgram>,
}

impl GatConv {
    /// A new single-head GAT layer with LeakyReLU slope 0.2.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> GatConv {
        GatConv {
            weight: Linear::new(
                params,
                &format!("{name}.w"),
                in_features,
                out_features,
                false,
                rng,
            ),
            attn_l: Linear::new(params, &format!("{name}.al"), out_features, 1, false, rng),
            attn_r: Linear::new(params, &format!("{name}.ar"), out_features, 1, false, rng),
            program: compile(gat_aggregation(out_features, 0.2)),
        }
    }

    /// The dense weight parameter.
    pub fn weight_p(&self) -> &stgraph_tensor::Param {
        &self.weight.weight
    }

    /// The left attention parameter.
    pub fn attn_l_p(&self) -> &stgraph_tensor::Param {
        &self.attn_l.weight
    }

    /// The right attention parameter.
    pub fn attn_r_p(&self) -> &stgraph_tensor::Param {
        &self.attn_r.weight
    }

    /// Applies the layer at timestamp `t`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Var<'t> {
        let h = self.weight.forward(tape, x);
        let el = self.attn_l.forward(tape, &h);
        let er = self.attn_r.forward(tape, &h);
        exec.apply(tape, &self.program, t, &[&h, &el, &er], vec![], vec![])
    }
}

impl StateDict for GatConv {
    fn parameters(&self) -> Vec<Param> {
        let mut out = self.weight.parameters();
        out.extend(self.attn_l.parameters());
        out.extend(self.attn_r.parameters());
        out
    }
}

/// The vertex program for `-D^{-1/2} A D^{-1/2} X` — the scaled-Laplacian
/// application `L̂X` used by Chebyshev convolutions (with the standard
/// `λ_max ≈ 2` approximation, `L̂ = L - I = -D^{-1/2} A D^{-1/2}`).
pub fn neg_sym_aggregation(width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let h = b.input(width);
    let norm = b.node_const(1);
    let scaled = b.mul(h, norm);
    let gathered = b.gather_src(scaled);
    let agg = b.agg_sum_dst(gathered);
    let normed = b.mul(agg, norm);
    let out = b.scale(normed, -1.0);
    b.finish(&[out])
}

/// Chebyshev-polynomial spectral convolution (Defferrard et al.):
/// `out = Σ_{k<K} T_k(L̂) X · W_k + b`, with `T_0 = X`, `T_1 = L̂X`,
/// `T_k = 2 L̂ T_{k-1} - T_{k-2}`.
pub struct ChebConv {
    weights: Vec<Linear>,
    program: Rc<CompiledProgram>,
    k: usize,
}

impl ChebConv {
    /// A new K-order ChebConv (`k >= 1`; `k = 1` degenerates to a dense
    /// layer, `k = 2` adds one neighbourhood hop, etc.).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> ChebConv {
        assert!(k >= 1, "ChebConv needs K >= 1");
        let weights = (0..k)
            .map(|i| {
                // Only W_0 carries the bias, matching PyG's ChebConv.
                Linear::new(
                    params,
                    &format!("{name}.w{i}"),
                    in_features,
                    out_features,
                    i == 0,
                    rng,
                )
            })
            .collect();
        ChebConv {
            weights,
            program: compile(neg_sym_aggregation(in_features)),
            k,
        }
    }

    /// Chebyshev order K.
    pub fn order(&self) -> usize {
        self.k
    }

    /// The parameter-free half: the Chebyshev basis `[T_0 X, …, T_{K-1} X]`
    /// at timestamp `t`, `K - 1` propagations at the input width. Cells
    /// whose gates share an input compute it once and hand it to each
    /// gate's [`ChebConv::transform`].
    pub fn basis<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Vec<Var<'t>> {
        let mut basis = vec![x.clone()];
        if self.k == 1 {
            return basis;
        }
        // Norms without self-loops: 1/sqrt(max(deg, 1)).
        let snap = exec.snapshot_for(t);
        let n = snap.in_degrees.len();
        let norm: Vec<f32> = snap
            .in_degrees
            .iter()
            .map(|&d| 1.0 / (d.max(1) as f32).sqrt())
            .collect();
        let norm = Tensor::from_vec((n, 1), norm);
        let lap =
            |v: &Var<'t>| exec.apply(tape, &self.program, t, &[v], vec![norm.clone()], vec![]);
        basis.push(lap(x));
        for k in 2..self.k {
            let next = lap(&basis[k - 1]).mul_scalar(2.0).sub(&basis[k - 2]);
            basis.push(next);
        }
        basis
    }

    /// The dense half: `Σ_k basis[k] · W_k + b` over a basis from
    /// [`ChebConv::basis`] (of this layer or a same-shaped sibling).
    pub fn transform<'t>(&self, tape: &'t Tape, basis: &[Var<'t>]) -> Var<'t> {
        assert_eq!(basis.len(), self.k, "basis order vs K");
        let mut out = self.weights[0].forward(tape, &basis[0]);
        for (w, b) in self.weights.iter().zip(basis).skip(1) {
            out = out.add(&w.forward(tape, b));
        }
        out
    }

    /// Applies the layer at timestamp `t`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Var<'t> {
        self.transform(tape, &self.basis(tape, exec, t, x))
    }
}

impl StateDict for ChebConv {
    fn parameters(&self) -> Vec<Param> {
        self.weights.iter().flat_map(|w| w.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::create_backend;
    use crate::executor::GraphSource;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_tensor::autograd::check::{assert_close, numeric_grad};

    fn snap() -> Snapshot {
        Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    }

    fn exec() -> TemporalExecutor {
        TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap()))
    }

    #[test]
    fn gcn_conv_matches_manual_computation() {
        // Transform-first (3 -> 2) and aggregate-first (2 -> 3) against the
        // same formula, with a bias the aggregation must scale by Â·1.
        for (fan_in, fan_out) in [(3, 2), (2, 3)] {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut ps = ParamSet::new();
            let conv = GcnConv::new(&mut ps, "g", fan_in, fan_out, &mut rng);
            assert_eq!(conv.aggregates_first(), fan_in < fan_out);
            let bias = conv.linear.bias.as_ref().unwrap();
            bias.set_value(Tensor::rand_uniform(fan_out, -1.0, 1.0, &mut rng));
            let x = Tensor::rand_uniform((6, fan_in), -1.0, 1.0, &mut rng);
            let e = exec();
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = conv.forward(&tape, &e, 0, &xv);
            // Manual: h = xW + b, then N(A^T+I)N h.
            let s = snap();
            let h = x
                .matmul(&conv.linear.weight.value())
                .add_bias(&bias.value());
            let norm = gcn_norm(&s.in_degrees);
            let mut want = vec![0.0f32; 6 * fan_out];
            for v in 0..6 {
                for (u, _) in s.reverse_csr.iter_row(v) {
                    for j in 0..fan_out {
                        want[v * fan_out + j] += norm[v] * norm[u as usize] * h.at(u as usize, j);
                    }
                }
                for j in 0..fan_out {
                    want[v * fan_out + j] += norm[v] * norm[v] * h.at(v, j);
                }
            }
            let want = Tensor::from_vec((6, fan_out), want);
            assert!(y.value().approx_eq(&want, 1e-4));
        }
    }

    #[test]
    fn gcn_conv_weight_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let conv = GcnConv::new(&mut ps, "g", 3, 2, &mut rng);
        let x = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let e = exec();
        {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e, 0, &xv).mse_loss(&target);
            tape.backward(&loss);
        }
        let analytic = conv.linear.weight.grad();
        let w0 = conv.linear.weight.value();
        let e2 = exec();
        let mut f = |w: &Tensor| {
            conv.linear.weight.set_value(w.clone());
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e2, 0, &xv).mse_loss(&target);
            let v = loss.value().item();
            // Drain the stacks without polluting accumulated grads.
            tape.backward(&loss.mul_scalar(0.0));
            v
        };
        let numeric = numeric_grad(&mut f, &w0, 1e-2);
        conv.linear.weight.set_value(w0);
        assert_close(&analytic, &numeric, 2e-2);
    }

    #[test]
    fn gat_attention_rows_are_convex_combinations() {
        // With equal attention inputs, GAT output of v = mean of in-nbr h.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let conv = GatConv::new(&mut ps, "a", 3, 4, &mut rng);
        let x = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng);
        let e = exec();
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = conv.forward(&tape, &e, 0, &xv);
        let h = x.matmul(&conv.weight.weight.value());
        let s = snap();
        // Isolated-in-degree-0 vertices output zeros.
        for v in 0..6 {
            let indeg = s.in_degrees[v];
            if indeg == 0 {
                for j in 0..4 {
                    assert_eq!(y.value().at(v, j), 0.0);
                }
            }
        }
        // Vertices with one in-neighbour copy that neighbour's h (softmax
        // over a single edge is 1).
        for v in 0..6 {
            let nbrs: Vec<u32> = s.reverse_csr.iter_row(v).map(|(u, _)| u).collect();
            if nbrs.len() == 1 {
                for j in 0..4 {
                    assert!((y.value().at(v, j) - h.at(nbrs[0] as usize, j)).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn gat_weight_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let conv = GatConv::new(&mut ps, "a", 2, 3, &mut rng);
        let x = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng);
        let e = exec();
        {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e, 0, &xv).mse_loss(&target);
            tape.backward(&loss);
        }
        for p in [
            &conv.weight.weight,
            &conv.attn_l.weight,
            &conv.attn_r.weight,
        ] {
            let analytic = p.grad();
            let p0 = p.value();
            let e2 = exec();
            let mut f = |w: &Tensor| {
                p.set_value(w.clone());
                let tape = Tape::new();
                let xv = tape.constant(x.clone());
                let loss = conv.forward(&tape, &e2, 0, &xv).mse_loss(&target);
                let v = loss.value().item();
                // Drain the stacks without polluting accumulated grads.
                tape.backward(&loss.mul_scalar(0.0));
                v
            };
            let numeric = numeric_grad(&mut f, &p0, 1e-2);
            p.set_value(p0);
            assert_close(&analytic, &numeric, 3e-2);
        }
    }

    #[test]
    fn cheb_k1_equals_linear() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let conv = ChebConv::new(&mut ps, "c", 3, 2, 1, &mut rng);
        let x = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng);
        let e = exec();
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = conv.forward(&tape, &e, 0, &xv);
        let want = x
            .matmul(&conv.weights[0].weight.value())
            .add_bias(&conv.weights[0].bias.as_ref().unwrap().value());
        assert!(y.value().approx_eq(&want, 1e-5));
    }

    #[test]
    fn cheb_gradcheck_k3() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut ps = ParamSet::new();
        let conv = ChebConv::new(&mut ps, "c", 2, 2, 3, &mut rng);
        let x = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let e = exec();
        {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e, 0, &xv).mse_loss(&target);
            tape.backward(&loss);
        }
        let p = &conv.weights[2].weight;
        let analytic = p.grad();
        let p0 = p.value();
        let e2 = exec();
        let mut f = |w: &Tensor| {
            p.set_value(w.clone());
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e2, 0, &xv).mse_loss(&target);
            let v = loss.value().item();
            // Drain the stacks without polluting accumulated grads.
            tape.backward(&loss.mul_scalar(0.0));
            v
        };
        let numeric = numeric_grad(&mut f, &p0, 1e-2);
        p.set_value(p0);
        assert_close(&analytic, &numeric, 2e-2);
    }
}
