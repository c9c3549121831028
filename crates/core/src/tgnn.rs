//! Temporal GNN layers, following the PyG-T design pattern the paper adopts
//! (§V.A.1): temporal models are assembled from GNN layers (spatial) and
//! backend recurrent gates (temporal); swapping either yields a new model.

use crate::executor::TemporalExecutor;
use crate::layers::{ChebConv, GcnConv, SharedPropagate};
use rand::Rng;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Param, StateDict, Tape, Tensor, Var};

/// A recurrent graph cell: consumes `(x_t, h_{t-1})`, produces `h_t`.
pub trait RecurrentCell {
    /// Hidden width.
    fn hidden_size(&self) -> usize;

    /// One step at timestamp `t`. `h` is `None` at sequence start (treated
    /// as zeros).
    fn step<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> Var<'t>;
}

impl RecurrentCell for Box<dyn RecurrentCell> {
    fn hidden_size(&self) -> usize {
        self.as_ref().hidden_size()
    }

    fn step<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> Var<'t> {
        self.as_ref().step(tape, exec, t, x, h)
    }
}

fn hidden_or_zeros<'t>(tape: &'t Tape, h: Option<&Var<'t>>, rows: usize, width: usize) -> Var<'t> {
    match h {
        Some(v) => v.clone(),
        None => tape.constant(Tensor::zeros((rows, width))),
    }
}

/// T-GCN (Zhao et al.), in PyG-T's formulation: a GRU whose input transform
/// is a GCN —
/// `Z = σ(W_z [GCN_z(X) ‖ H])`, `R = σ(W_r [GCN_r(X) ‖ H])`,
/// `H̃ = tanh(W_h [GCN_h(X) ‖ R⊙H])`, `H' = Z⊙H + (1-Z)⊙H̃`.
///
/// The three GCNs read the same `(X, A_t)`, so a step propagates once
/// ([`GcnConv::forward_shared`]) and fans the result out to the gates.
pub struct Tgcn {
    conv_z: GcnConv,
    conv_r: GcnConv,
    conv_h: GcnConv,
    prop: SharedPropagate,
    lin_z: Linear,
    lin_r: Linear,
    lin_h: Linear,
    hidden: usize,
}

impl Tgcn {
    /// A new TGCN cell.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Tgcn {
        Tgcn {
            conv_z: GcnConv::new(params, &format!("{name}.conv_z"), in_features, hidden, rng),
            conv_r: GcnConv::new(params, &format!("{name}.conv_r"), in_features, hidden, rng),
            conv_h: GcnConv::new(params, &format!("{name}.conv_h"), in_features, hidden, rng),
            prop: SharedPropagate::new(in_features, hidden, 3),
            lin_z: Linear::new(
                params,
                &format!("{name}.lin_z"),
                2 * hidden,
                hidden,
                true,
                rng,
            ),
            lin_r: Linear::new(
                params,
                &format!("{name}.lin_r"),
                2 * hidden,
                hidden,
                true,
                rng,
            ),
            lin_h: Linear::new(
                params,
                &format!("{name}.lin_h"),
                2 * hidden,
                hidden,
                true,
                rng,
            ),
            hidden,
        }
    }

    /// The update-gate GCN weight (tests, weight surgery).
    pub fn conv_z_weight(&self) -> &stgraph_tensor::Param {
        self.conv_z.weight_param()
    }

    /// The candidate-gate dense weight (tests, weight surgery).
    pub fn lin_h_weight(&self) -> &stgraph_tensor::Param {
        &self.lin_h.weight
    }
}

impl StateDict for Tgcn {
    fn parameters(&self) -> Vec<Param> {
        let mut out = Vec::new();
        out.extend(self.conv_z.parameters());
        out.extend(self.conv_r.parameters());
        out.extend(self.conv_h.parameters());
        out.extend(self.lin_z.parameters());
        out.extend(self.lin_r.parameters());
        out.extend(self.lin_h.parameters());
        out
    }
}

impl RecurrentCell for Tgcn {
    fn hidden_size(&self) -> usize {
        self.hidden
    }

    fn step<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> Var<'t> {
        let n = x.value().rows();
        let h = hidden_or_zeros(tape, h, n, self.hidden);
        let gates = [&self.conv_z, &self.conv_r, &self.conv_h];
        let [cz, cr, ch] = GcnConv::forward_shared(gates, &self.prop, tape, exec, t, x);
        let z = self.lin_z.forward_parts(tape, &[&cz, &h]).sigmoid();
        let r = self.lin_r.forward_parts(tape, &[&cr, &h]).sigmoid();
        let rh = r.mul(&h);
        let htilde = self.lin_h.forward_parts(tape, &[&ch, &rh]).tanh();
        z.mix(&h, &htilde)
    }
}

/// GConvGRU (Seo et al.): a GRU whose gates are Chebyshev convolutions over
/// both input and hidden state.
pub struct GConvGru {
    xz: ChebConv,
    hz: ChebConv,
    xr: ChebConv,
    hr: ChebConv,
    xh: ChebConv,
    hh: ChebConv,
    hidden: usize,
}

impl GConvGru {
    /// A new GConvGRU cell of Chebyshev order `k`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> GConvGru {
        let mk = |params: &mut ParamSet, part: &str, fan_in: usize, rng: &mut _| {
            ChebConv::new(params, &format!("{name}.{part}"), fan_in, hidden, k, rng)
        };
        GConvGru {
            xz: mk(params, "xz", in_features, rng),
            hz: mk(params, "hz", hidden, rng),
            xr: mk(params, "xr", in_features, rng),
            hr: mk(params, "hr", hidden, rng),
            xh: mk(params, "xh", in_features, rng),
            hh: mk(params, "hh", hidden, rng),
            hidden,
        }
    }
}

impl StateDict for GConvGru {
    fn parameters(&self) -> Vec<Param> {
        [&self.xz, &self.hz, &self.xr, &self.hr, &self.xh, &self.hh]
            .iter()
            .flat_map(|c| c.parameters())
            .collect()
    }
}

impl RecurrentCell for GConvGru {
    fn hidden_size(&self) -> usize {
        self.hidden
    }

    fn step<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> Var<'t> {
        let n = x.value().rows();
        let h = hidden_or_zeros(tape, h, n, self.hidden);
        // One Chebyshev basis per distinct input: x (three gates), h (two).
        let bx = self.xz.basis(tape, exec, t, x);
        let bh = self.hz.basis(tape, exec, t, &h);
        let gate =
            |xc: &ChebConv, hc: &ChebConv| xc.transform(tape, &bx).add(&hc.transform(tape, &bh));
        let z = gate(&self.xz, &self.hz).sigmoid();
        let r = gate(&self.xr, &self.hr).sigmoid();
        let rh = r.mul(&h);
        let htilde = self
            .xh
            .transform(tape, &bx)
            .add(&self.hh.forward(tape, exec, t, &rh))
            .tanh();
        z.mix(&h, &htilde)
    }
}

/// GConvLSTM (Seo et al.) with Chebyshev gates. Peephole connections are
/// omitted (see DESIGN.md); the cell state is carried inside the struct-
/// external state as the second half of a doubled hidden tensor.
pub struct GConvLstm {
    xi: ChebConv,
    hi: ChebConv,
    xf: ChebConv,
    hf: ChebConv,
    xc: ChebConv,
    hc: ChebConv,
    xo: ChebConv,
    ho: ChebConv,
    hidden: usize,
}

impl GConvLstm {
    /// A new GConvLSTM cell of Chebyshev order `k`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> GConvLstm {
        let mk = |params: &mut ParamSet, part: &str, fan_in: usize, rng: &mut _| {
            ChebConv::new(params, &format!("{name}.{part}"), fan_in, hidden, k, rng)
        };
        GConvLstm {
            xi: mk(params, "xi", in_features, rng),
            hi: mk(params, "hi", hidden, rng),
            xf: mk(params, "xf", in_features, rng),
            hf: mk(params, "hf", hidden, rng),
            xc: mk(params, "xc", in_features, rng),
            hc: mk(params, "hc", hidden, rng),
            xo: mk(params, "xo", in_features, rng),
            ho: mk(params, "ho", hidden, rng),
            hidden,
        }
    }
}

impl StateDict for GConvLstm {
    fn parameters(&self) -> Vec<Param> {
        [
            &self.xi, &self.hi, &self.xf, &self.hf, &self.xc, &self.hc, &self.xo, &self.ho,
        ]
        .iter()
        .flat_map(|c| c.parameters())
        .collect()
    }
}

impl RecurrentCell for GConvLstm {
    /// The externally-carried state is `[H ‖ C]`, width `2 * hidden`.
    fn hidden_size(&self) -> usize {
        2 * self.hidden
    }

    fn step<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
        state: Option<&Var<'t>>,
    ) -> Var<'t> {
        let n = x.value().rows();
        let k = self.hidden;
        let state = hidden_or_zeros(tape, state, n, 2 * k);
        let h = state.slice_cols(0, k);
        let c = state.slice_cols(k, 2 * k);
        // All four gates read the same x and the same h: one basis each.
        let bx = self.xi.basis(tape, exec, t, x);
        let bh = self.hi.basis(tape, exec, t, &h);
        let gate =
            |xc: &ChebConv, hc: &ChebConv| xc.transform(tape, &bx).add(&hc.transform(tape, &bh));
        let i = gate(&self.xi, &self.hi).sigmoid();
        let f = gate(&self.xf, &self.hf).sigmoid();
        let g = gate(&self.xc, &self.hc).tanh();
        let o = gate(&self.xo, &self.ho).sigmoid();
        let c_new = f.mul(&c).add(&i.mul(&g));
        let h_new = o.mul(&c_new.tanh());
        Var::concat_cols(&[&h_new, &c_new])
    }
}

/// Multiplies every element of `x` by a scalar-valued Var (differentiable
/// through both operands) — the attention-weighting primitive of A3TGCN.
pub fn scale_by_scalar<'t>(x: &Var<'t>, s: &Var<'t>) -> Var<'t> {
    assert_eq!(s.value().numel(), 1, "scale_by_scalar takes a scalar Var");
    let sv = s.value().item();
    let s_shape = s.value().shape();
    let xv = x.value().clone();
    let out = xv.mul_scalar(sv);
    x.tape().custom(&[x, s], out, move |g, needs| {
        vec![
            needs[0].then(|| g.mul_scalar(sv)),
            needs[1].then(|| Tensor::full(s_shape, g.mul(&xv).sum().item())),
        ]
    })
}

/// A3T-GCN (Bai et al.): runs a TGCN over a window of `periods` timestamps
/// and combines the hidden states with learned softmax attention over time.
pub struct A3Tgcn {
    cell: Tgcn,
    /// Learnable attention logits `[1, periods]` (softmaxed over time).
    pub attention: stgraph_tensor::Param,
    periods: usize,
}

impl A3Tgcn {
    /// A new A3TGCN over a window of `periods` input timestamps.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        periods: usize,
        rng: &mut impl Rng,
    ) -> A3Tgcn {
        let cell = Tgcn::new(params, &format!("{name}.tgcn"), in_features, hidden, rng);
        let attention = params.register(format!("{name}.attention"), Tensor::zeros((1, periods)));
        A3Tgcn {
            cell,
            attention,
            periods,
        }
    }

    /// Attention window length.
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    /// Forward over a window `xs` of feature tensors for timestamps
    /// `t0..t0+periods`, returning the attention-weighted hidden state.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t0: usize,
        xs: &[Var<'t>],
        h0: Option<&Var<'t>>,
    ) -> Var<'t> {
        assert_eq!(xs.len(), self.periods, "window length vs periods");
        // Softmax over the attention logits.
        let att = tape.param(&self.attention);
        let e = att.exp();
        let s = e.sum();
        let mut h = h0.cloned();
        let mut out: Option<Var<'t>> = None;
        for (p, x) in xs.iter().enumerate() {
            let hn = self.cell.step(tape, exec, t0 + p, x, h.as_ref());
            let alpha_p = e.slice_cols(p, p + 1).reshape_scalar();
            let weighted = scale_by_scalar(&hn, &alpha_p);
            out = Some(match out {
                Some(acc) => acc.add(&weighted),
                None => weighted,
            });
            h = Some(hn);
        }
        // Divide by the softmax normaliser: out / s.
        let inv = recip_scalar(&s);
        scale_by_scalar(&out.unwrap(), &inv)
    }
}

impl StateDict for A3Tgcn {
    fn parameters(&self) -> Vec<Param> {
        let mut out = self.cell.parameters();
        out.push(self.attention.clone());
        out
    }
}

/// Reciprocal of a scalar Var (differentiable).
pub fn recip_scalar<'t>(s: &Var<'t>) -> Var<'t> {
    assert_eq!(s.value().numel(), 1);
    let sv = s.value().item();
    let out = Tensor::scalar(1.0 / sv);
    let shape = s.value().shape();
    s.tape().custom(&[s], out, move |g, _| {
        vec![Some(Tensor::full(shape, -g.item() / (sv * sv)))]
    })
}

/// Extension trait: view a 1-element Var as a scalar.
pub trait ScalarExt<'t> {
    /// Reshape a single-element value to rank 0.
    fn reshape_scalar(&self) -> Var<'t>;
}

impl<'t> ScalarExt<'t> for Var<'t> {
    fn reshape_scalar(&self) -> Var<'t> {
        assert_eq!(self.value().numel(), 1);
        let v = self.value().reshape(stgraph_tensor::Shape::Scalar);
        let shape = self.value().shape();
        self.tape()
            .custom(&[self], v, move |g, _| vec![Some(g.reshape(shape))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::create_backend;
    use crate::executor::{GraphSource, TemporalExecutor};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_graph::base::Snapshot;
    use stgraph_tensor::autograd::check::{assert_close, numeric_grad};
    use stgraph_tensor::Tape;

    fn exec() -> TemporalExecutor {
        let snap = Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap))
    }

    #[test]
    fn tgcn_step_shapes_and_gate_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 3, 4, &mut rng);
        assert_eq!(cell.hidden_size(), 4);
        let e = exec();
        let tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng));
        let h1 = cell.step(&tape, &e, 0, &x, None);
        assert_eq!(h1.value().shape(), stgraph_tensor::Shape::Mat(5, 4));
        // GRU output is a convex combination of tanh values: |h| <= 1.
        assert!(h1.value().data().iter().all(|v| v.abs() <= 1.0));
        let h2 = cell.step(&tape, &e, 1, &x, Some(&h1));
        assert!(h2.value().data().iter().all(|v| v.abs() <= 1.0));
        let loss = h2.square().sum();
        tape.backward(&loss);
        let (pushes, pops, _, _) = e.state_stack_stats();
        assert_eq!(pushes, pops);
    }

    #[test]
    fn tgcn_gradcheck_through_two_steps() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 2, 3, &mut rng);
        let x0 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let x1 = Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng);
        let run = |e: &TemporalExecutor| -> f32 {
            let tape = Tape::new();
            let xv0 = tape.constant(x0.clone());
            let xv1 = tape.constant(x1.clone());
            let h1 = cell.step(&tape, e, 0, &xv0, None);
            let h2 = cell.step(&tape, e, 1, &xv1, Some(&h1));
            let loss = h2.mse_loss(&target);
            let v = loss.value().item();
            // Drain the stacks without polluting accumulated grads.
            tape.backward(&loss.mul_scalar(0.0));
            v
        };
        // Analytic grads.
        ps.zero_grad();
        run(&exec());
        // Check the GCN weight inside the update gate — the gradient flows
        // through BPTT across both steps.
        let p = cell.conv_z.weight_param();
        let p0 = p.value();
        let grad = p.grad();
        let mut f = |w: &Tensor| {
            p.set_value(w.clone());
            run(&exec())
        };
        let numeric = numeric_grad(&mut f, &p0, 1e-2);
        p.set_value(p0);
        assert_close(&grad, &numeric, 3e-2);
    }

    #[test]
    fn gconv_gru_step_and_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let cell = GConvGru::new(&mut ps, "g", 3, 4, 2, &mut rng);
        let e = exec();
        let tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng));
        let h1 = cell.step(&tape, &e, 0, &x, None);
        let h2 = cell.step(&tape, &e, 1, &x, Some(&h1));
        assert_eq!(h2.value().shape(), stgraph_tensor::Shape::Mat(5, 4));
        let loss = h2.square().sum();
        tape.backward(&loss);
        // Some gradient must reach the hidden-path ChebConv weights.
        let total_grad: f32 = ps
            .iter()
            .map(|p| p.grad().data().iter().map(|g| g.abs()).sum::<f32>())
            .sum();
        assert!(total_grad > 0.0);
    }

    #[test]
    fn gconv_lstm_state_splits_hidden_and_cell() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let cell = GConvLstm::new(&mut ps, "l", 3, 4, 2, &mut rng);
        assert_eq!(cell.hidden_size(), 8);
        let e = exec();
        let tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng));
        let s1 = cell.step(&tape, &e, 0, &x, None);
        assert_eq!(s1.value().shape(), stgraph_tensor::Shape::Mat(5, 8));
        // H = o * tanh(C): |H| < 1 always; C unbounded in general.
        let h = s1.value().slice_cols(0, 4);
        assert!(h.data().iter().all(|v| v.abs() < 1.0));
        let s2 = cell.step(&tape, &e, 1, &x, Some(&s1));
        let loss = s2.slice_cols(0, 4).square().sum();
        tape.backward(&loss);
    }

    #[test]
    fn a3tgcn_attention_is_softmax_weighted() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = A3Tgcn::new(&mut ps, "a", 2, 3, 3, &mut rng);
        assert_eq!(model.periods(), 3);
        let e = exec();
        let tape = Tape::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| tape.constant(Tensor::rand_uniform((5, 2), -1.0, 1.0, &mut rng)))
            .collect();
        let out = model.forward(&tape, &e, 0, &xs, None);
        assert_eq!(out.value().shape(), stgraph_tensor::Shape::Mat(5, 3));
        // With zero-initialised logits, attention is uniform: out equals the
        // mean of the three hidden states. Recompute them to verify.
        let tape2 = Tape::new();
        let xs2: Vec<Var> = xs
            .iter()
            .map(|x| tape2.constant(x.value().clone()))
            .collect();
        let mut h = None;
        let mut acc: Option<Tensor> = None;
        let e2 = exec();
        for (p, x) in xs2.iter().enumerate() {
            let hn = model.cell.step(&tape2, &e2, p, x, h.as_ref());
            acc = Some(match acc {
                Some(a) => a.add(hn.value()),
                None => hn.value().clone(),
            });
            h = Some(hn);
        }
        let want = acc.unwrap().mul_scalar(1.0 / 3.0);
        assert!(out.value().approx_eq(&want, 1e-4));
        let loss = out.square().sum();
        tape.backward(&loss);
        assert!(model.attention.grad().data().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn scalar_helpers_gradcheck() {
        let tape = Tape::new();
        let (x, gx) = tape.input(Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]));
        let (s, gs) = tape.input(Tensor::scalar(2.0));
        let y = scale_by_scalar(&x, &s);
        let loss = y.square().sum();
        tape.backward(&loss);
        // d/dx = 2*y*s = 2*x*s^2; d/ds = sum(2*y*x) = 2*s*sum(x^2).
        let gxv = gx.get().unwrap();
        assert!((gxv.at(0, 0) - 2.0 * 1.0 * 4.0).abs() < 1e-5);
        let gsv = gs.get().unwrap().item();
        assert!((gsv - 2.0 * 2.0 * 30.0).abs() < 1e-3);
        // recip_scalar.
        let tape = Tape::new();
        let (s, gs) = tape.input(Tensor::scalar(4.0));
        let r = recip_scalar(&s);
        let loss = r.sum();
        tape.backward(&loss);
        assert!((gs.get().unwrap().item() + 1.0 / 16.0).abs() < 1e-6);
    }
}
