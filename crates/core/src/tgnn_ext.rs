//! Extended TGNN layers beyond the paper's benchmark set — the kind of
//! zoo growth the conclusion lists as future work ("the system can be
//! extended to include new GNN/TGNN layer APIs").
//!
//! * [`DConv`]/[`Dcrnn`] — DCRNN's dual-direction diffusion convolution
//!   (Li et al., ICLR'18): random-walk powers over *both* out-neighbour
//!   and in-neighbour matrices, which exercises the executor's
//!   `AggSumSrc` kernels in the forward pass (normally backward-only).
//! * [`EvolveGcnO`] — EvolveGCN-O (Pareja et al., AAAI'20): the GCN weight
//!   matrix itself is the recurrent state, evolved per timestamp by an
//!   LSTM cell; gradients flow through the whole weight trajectory.

use crate::executor::{compile, CompiledProgram, TemporalExecutor};
use crate::layers::GcnPropagate;
use crate::tgnn::RecurrentCell;
use rand::Rng;
use std::rc::Rc;
use stgraph_graph::base::Snapshot;
use stgraph_seastar::ir::{Program, ProgramBuilder};
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Param, StateDict, Tape, Tensor, Var};

/// Vertex program for one *forward* random-walk step `D_O^{-1} A · X`:
/// `out_v = (1/out_deg(v)) Σ_{v→u} x_u` — an out-neighbour mean, executed
/// by the `AggSumSrc` kernel over the forward CSR.
pub fn walk_out_aggregation(width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let h = b.input(width);
    let inv_out = b.node_const(1);
    let gathered = b.gather_dst(h);
    let agg = b.agg_sum_src(gathered);
    let out = b.mul(agg, inv_out);
    b.finish(&[out])
}

/// Vertex program for one *reverse* random-walk step `D_I^{-1} Aᵀ · X`:
/// `out_v = (1/in_deg(v)) Σ_{u→v} x_u` — an in-neighbour mean.
pub fn walk_in_aggregation(width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let h = b.input(width);
    let inv_in = b.node_const(1);
    let gathered = b.gather_src(h);
    let agg = b.agg_sum_dst(gathered);
    let out = b.mul(agg, inv_in);
    b.finish(&[out])
}

fn inv_degree_tensor(deg: &[u32]) -> Tensor {
    Tensor::from_vec(
        (deg.len(), 1),
        deg.iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
            .collect(),
    )
}

/// Diffusion convolution: `Σ_{k=1..K} (D_O^{-1}A)^k X W_k^out +
/// (D_I^{-1}Aᵀ)^k X W_k^in`, plus the k = 0 term `X W_0`.
pub struct DConv {
    w0: Linear,
    w_out: Vec<Linear>,
    w_in: Vec<Linear>,
    prog_out: Rc<CompiledProgram>,
    prog_in: Rc<CompiledProgram>,
    k: usize,
}

impl DConv {
    /// A new diffusion convolution of `k` walk steps (`k >= 1`).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> DConv {
        assert!(k >= 1);
        DConv {
            w0: Linear::new(
                params,
                &format!("{name}.w0"),
                in_features,
                out_features,
                true,
                rng,
            ),
            w_out: (1..=k)
                .map(|i| {
                    Linear::new(
                        params,
                        &format!("{name}.wo{i}"),
                        in_features,
                        out_features,
                        false,
                        rng,
                    )
                })
                .collect(),
            w_in: (1..=k)
                .map(|i| {
                    Linear::new(
                        params,
                        &format!("{name}.wi{i}"),
                        in_features,
                        out_features,
                        false,
                        rng,
                    )
                })
                .collect(),
            prog_out: compile(walk_out_aggregation(in_features)),
            prog_in: compile(walk_in_aggregation(in_features)),
            k,
        }
    }

    /// The parameter-free half: `[X, P_o X, P_i X, P_o² X, P_i² X, …]` for
    /// the out-/in-walk matrices `P_o = D_O^{-1}A`, `P_i = D_I^{-1}Aᵀ` at
    /// timestamp `t` — `2k` propagations. Gates that share an input compute
    /// it once and hand it to each gate's [`DConv::transform`].
    pub fn walks<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t: usize,
        x: &Var<'t>,
    ) -> Vec<Var<'t>> {
        let snap: Snapshot = exec.snapshot_for(t);
        let inv_out = inv_degree_tensor(&snap.out_degrees);
        let inv_in = inv_degree_tensor(&snap.in_degrees);
        let (mut fwd, mut bwd) = (x.clone(), x.clone());
        let mut walks = vec![x.clone()];
        for _ in 0..self.k {
            fwd = exec.apply(
                tape,
                &self.prog_out,
                t,
                &[&fwd],
                vec![inv_out.clone()],
                vec![],
            );
            bwd = exec.apply(
                tape,
                &self.prog_in,
                t,
                &[&bwd],
                vec![inv_in.clone()],
                vec![],
            );
            walks.extend([fwd.clone(), bwd.clone()]);
        }
        walks
    }

    /// The dense half over walks from [`DConv::walks`] (of this layer or a
    /// same-shaped sibling): `X W_0 + Σ_k P_o^k X W_k^out + P_i^k X W_k^in`.
    pub fn transform<'t>(&self, tape: &'t Tape, walks: &[Var<'t>]) -> Var<'t> {
        assert_eq!(walks.len(), 1 + 2 * self.k, "walk count vs K");
        let mut out = self.w0.forward(tape, &walks[0]);
        for step in 0..self.k {
            out = out
                .add(&self.w_out[step].forward(tape, &walks[1 + 2 * step]))
                .add(&self.w_in[step].forward(tape, &walks[2 + 2 * step]));
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
        self.transform(tape, &self.walks(tape, exec, t, x))
    }
}

impl StateDict for DConv {
    fn parameters(&self) -> Vec<Param> {
        let mut out = self.w0.parameters();
        out.extend(self.w_out.iter().flat_map(|w| w.parameters()));
        out.extend(self.w_in.iter().flat_map(|w| w.parameters()));
        out
    }
}

/// DCRNN cell: a GRU whose gates are diffusion convolutions over `[X ‖ H]`.
pub struct Dcrnn {
    conv_z: DConv,
    conv_r: DConv,
    conv_h: DConv,
    hidden: usize,
    in_features: usize,
}

impl Dcrnn {
    /// A new DCRNN cell with `k`-step diffusion.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Dcrnn {
        let width = in_features + hidden;
        Dcrnn {
            conv_z: DConv::new(params, &format!("{name}.z"), width, hidden, k, rng),
            conv_r: DConv::new(params, &format!("{name}.r"), width, hidden, k, rng),
            conv_h: DConv::new(params, &format!("{name}.h"), width, hidden, k, rng),
            hidden,
            in_features,
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl StateDict for Dcrnn {
    fn parameters(&self) -> Vec<Param> {
        let mut out = self.conv_z.parameters();
        out.extend(self.conv_r.parameters());
        out.extend(self.conv_h.parameters());
        out
    }
}

impl RecurrentCell for Dcrnn {
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
        let h = match h {
            Some(v) => v.clone(),
            None => tape.constant(Tensor::zeros((n, self.hidden))),
        };
        let xh = Var::concat_cols(&[x, &h]);
        // The update and reset gates diffuse the same [X ‖ H]: walk it once.
        let walks = self.conv_z.walks(tape, exec, t, &xh);
        let z = self.conv_z.transform(tape, &walks).sigmoid();
        let r = self.conv_r.transform(tape, &walks).sigmoid();
        let xrh = Var::concat_cols(&[x, &r.mul(&h)]);
        let htilde = self.conv_h.forward(tape, exec, t, &xrh).tanh();
        z.mul(&h).add(&z.one_minus().mul(&htilde))
    }
}

/// EvolveGCN-O: the GCN weight `W_t ∈ R^{f×f}` is recurrent state evolved
/// by an LSTM cell (`W` is both input and hidden), then used for the GCN
/// at each timestamp. Gradients flow through the weight trajectory.
pub struct EvolveGcnO {
    /// Initial weight `W_0` (trainable).
    pub w0: Param,
    // LSTM-over-weights parameters (input = hidden = a weight row).
    u_i: Param,
    v_i: Param,
    b_i: Param,
    u_f: Param,
    v_f: Param,
    b_f: Param,
    u_c: Param,
    v_c: Param,
    b_c: Param,
    u_o: Param,
    v_o: Param,
    b_o: Param,
    prop: GcnPropagate,
    features: usize,
}

impl EvolveGcnO {
    /// A new EvolveGCN-O layer over `features`-wide embeddings.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        features: usize,
        rng: &mut impl Rng,
    ) -> EvolveGcnO {
        let f = features;
        let mat = |part: &str, params: &mut ParamSet, rng: &mut _| {
            params.register(format!("{name}.{part}"), Tensor::glorot(f, f, rng))
        };
        let w0 = params.register(format!("{name}.w0"), Tensor::glorot(f, f, rng));
        let u_i = mat("u_i", params, rng);
        let v_i = mat("v_i", params, rng);
        let b_i = params.register(format!("{name}.b_i"), Tensor::zeros(f));
        let u_f = mat("u_f", params, rng);
        let v_f = mat("v_f", params, rng);
        // Forget bias 1.0: standard LSTM initialisation.
        let b_f = params.register(format!("{name}.b_f"), Tensor::ones(f));
        let u_c = mat("u_c", params, rng);
        let v_c = mat("v_c", params, rng);
        let b_c = params.register(format!("{name}.b_c"), Tensor::zeros(f));
        let u_o = mat("u_o", params, rng);
        let v_o = mat("v_o", params, rng);
        let b_o = params.register(format!("{name}.b_o"), Tensor::zeros(f));
        EvolveGcnO {
            w0,
            u_i,
            v_i,
            b_i,
            u_f,
            v_f,
            b_f,
            u_c,
            v_c,
            b_c,
            u_o,
            v_o,
            b_o,
            prop: GcnPropagate::new(features),
            features,
        }
    }

    /// Embedding width.
    pub fn features(&self) -> usize {
        self.features
    }

    /// One LSTM step evolving the weight: input = hidden = `w`.
    fn evolve<'t>(&self, tape: &'t Tape, w: &Var<'t>, c: &Var<'t>) -> (Var<'t>, Var<'t>) {
        let gate = |u: &Param, v: &Param, b: &Param| {
            let uu = tape.param(u);
            let vv = tape.param(v);
            let bb = tape.param(b);
            w.matmul(&uu).add(&w.matmul(&vv)).add_bias(&bb)
        };
        let i = gate(&self.u_i, &self.v_i, &self.b_i).sigmoid();
        let f = gate(&self.u_f, &self.v_f, &self.b_f).sigmoid();
        let g = gate(&self.u_c, &self.v_c, &self.b_c).tanh();
        let o = gate(&self.u_o, &self.v_o, &self.b_o).sigmoid();
        let c_new = f.mul(c).add(&i.mul(&g));
        let w_new = o.mul(&c_new.tanh());
        (w_new, c_new)
    }

    /// Forward over a window of feature tensors starting at timestamp
    /// `t0`, evolving the weight each step. Returns per-step embeddings.
    pub fn forward_sequence<'t>(
        &self,
        tape: &'t Tape,
        exec: &TemporalExecutor,
        t0: usize,
        xs: &[Var<'t>],
    ) -> Vec<Var<'t>> {
        let mut w = tape.param(&self.w0);
        let mut c = tape.constant(Tensor::zeros((self.features, self.features)));
        let mut outs = Vec::with_capacity(xs.len());
        for (step, x) in xs.iter().enumerate() {
            let t = t0 + step;
            let (w_new, c_new) = self.evolve(tape, &w, &c);
            w = w_new;
            c = c_new;
            // W_t is square, so the width rule keeps this transform-first.
            outs.push(self.prop.forward(tape, exec, t, &x.matmul(&w)));
        }
        outs
    }
}

impl StateDict for EvolveGcnO {
    fn parameters(&self) -> Vec<Param> {
        vec![
            self.w0.clone(),
            self.u_i.clone(),
            self.v_i.clone(),
            self.b_i.clone(),
            self.u_f.clone(),
            self.v_f.clone(),
            self.b_f.clone(),
            self.u_c.clone(),
            self.v_c.clone(),
            self.b_c.clone(),
            self.u_o.clone(),
            self.v_o.clone(),
            self.b_o.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::create_backend;
    use crate::executor::GraphSource;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_tensor::optim::Adam;

    fn exec() -> TemporalExecutor {
        let snap = Snapshot::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (2, 5),
            ],
        );
        TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap))
    }

    #[test]
    fn walk_out_is_out_neighbour_mean() {
        let prog = walk_out_aggregation(1);
        let compiled = compile(prog);
        let e = exec();
        let x = Tensor::from_vec((6, 1), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tape = Tape::new();
        let xv = tape.constant(x);
        let snap = e.snapshot_for(0);
        let inv = inv_degree_tensor(&snap.out_degrees);
        let y = e.apply(&tape, &compiled, 0, &[&xv], vec![inv], vec![]);
        // node0 -> {1, 3}: mean(2, 4) = 3.
        assert!((y.value().at(0, 0) - 3.0).abs() < 1e-6);
        // node2 -> {3, 5}: mean(4, 6) = 5.
        assert!((y.value().at(2, 0) - 5.0).abs() < 1e-6);
        let loss = y.sum();
        tape.backward(&loss);
    }

    #[test]
    fn walk_in_is_in_neighbour_mean() {
        let compiled = compile(walk_in_aggregation(1));
        let e = exec();
        let x = Tensor::from_vec((6, 1), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tape = Tape::new();
        let xv = tape.constant(x);
        let snap = e.snapshot_for(0);
        let inv = inv_degree_tensor(&snap.in_degrees);
        let y = e.apply(&tape, &compiled, 0, &[&xv], vec![inv], vec![]);
        // in(3) = {2, 0}: mean(3, 1) = 2.
        assert!((y.value().at(3, 0) - 2.0).abs() < 1e-6);
        let loss = y.sum();
        tape.backward(&loss);
    }

    #[test]
    fn dconv_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let conv = DConv::new(&mut ps, "d", 2, 2, 2, &mut rng);
        let x = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng);
        let e = exec();
        {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e, 0, &xv).mse_loss(&target);
            tape.backward(&loss);
        }
        let p = &conv.w_out[1].weight;
        let analytic = p.grad();
        let p0 = p.value();
        let e2 = exec();
        let mut f = |w: &Tensor| {
            p.set_value(w.clone());
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let loss = conv.forward(&tape, &e2, 0, &xv).mse_loss(&target);
            let v = loss.value().item();
            tape.backward(&loss.mul_scalar(0.0));
            v
        };
        let numeric = stgraph_tensor::autograd::check::numeric_grad(&mut f, &p0, 1e-2);
        p.set_value(p0);
        stgraph_tensor::autograd::check::assert_close(&analytic, &numeric, 2e-2);
    }

    #[test]
    fn dcrnn_learns_a_signal() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let cell = Dcrnn::new(&mut ps, "d", 3, 8, 2, &mut rng);
        assert_eq!(cell.in_features(), 3);
        let e = exec();
        let model = crate::train::NodeRegressor::new(&mut ps, cell, 1, &mut rng);
        let mut opt = Adam::new(ps, 0.01);
        let feats: Vec<Tensor> = (0..8)
            .map(|_| Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Tensor> = feats
            .iter()
            .map(|x| x.sum_axis1().mul_scalar(1.0 / 3.0).reshape((6, 1)))
            .collect();
        let first =
            crate::train::train_epoch_node_regression(&model, &e, &mut opt, &feats, &targets, 4);
        let mut last = first;
        for _ in 0..25 {
            last = crate::train::train_epoch_node_regression(
                &model, &e, &mut opt, &feats, &targets, 4,
            );
        }
        assert!(last < first * 0.7, "{first} -> {last}");
    }

    #[test]
    fn evolve_gcn_weight_changes_over_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let layer = EvolveGcnO::new(&mut ps, "e", 4, &mut rng);
        let e = exec();
        let tape = Tape::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| tape.constant(Tensor::rand_uniform((6, 4), -1.0, 1.0, &mut rng)))
            .collect();
        let outs = layer.forward_sequence(&tape, &e, 0, &xs);
        assert_eq!(outs.len(), 3);
        let loss = outs.last().unwrap().square().sum();
        tape.backward(&loss);
        // Gradient reaches both W0 and the evolution parameters.
        assert!(layer.w0.grad().data().iter().any(|&g| g != 0.0));
        assert!(layer.u_i.grad().data().iter().any(|&g| g != 0.0));

        // Same input at different timestamps maps through different weights
        // (fresh tape/executor so stack bookkeeping stays balanced).
        let e2 = exec();
        let tape2 = Tape::new();
        let same_x = tape2.constant(xs[0].value().clone());
        let xs2 = vec![same_x.clone(), same_x.clone()];
        let outs2 = layer.forward_sequence(&tape2, &e2, 0, &xs2);
        assert!(
            !outs2[0].value().approx_eq(outs2[1].value(), 1e-6),
            "evolved weights must differ between steps"
        );
        let drain = outs2[0].add(&outs2[1]).sum().mul_scalar(0.0);
        tape2.backward(&drain);
    }

    #[test]
    fn evolve_gcn_trains() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let layer = EvolveGcnO::new(&mut ps, "e", 3, &mut rng);
        let readout = Linear::new(&mut ps, "out", 3, 1, true, &mut rng);
        let e = exec();
        let mut opt = Adam::new(ps, 0.02);
        let feats: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Tensor> = feats
            .iter()
            .map(|x| x.sum_axis1().mul_scalar(1.0 / 3.0).reshape((6, 1)))
            .collect();
        let run = |opt: &mut Adam| -> f32 {
            opt.zero_grad();
            let tape = Tape::new();
            let xs: Vec<Var> = feats.iter().map(|x| tape.constant(x.clone())).collect();
            let outs = layer.forward_sequence(&tape, &e, 0, &xs);
            let mut loss: Option<Var> = None;
            for (o, target) in outs.iter().zip(&targets) {
                let l = readout.forward(&tape, &o.relu()).mse_loss(target);
                loss = Some(match loss {
                    Some(a) => a.add(&l),
                    None => l,
                });
            }
            let loss = loss.unwrap().mul_scalar(0.25);
            let v = loss.value().item();
            tape.backward(&loss);
            opt.step();
            v
        };
        let first = run(&mut opt);
        let mut last = first;
        for _ in 0..40 {
            last = run(&mut opt);
        }
        assert!(last < first * 0.8, "{first} -> {last}");
    }
}
