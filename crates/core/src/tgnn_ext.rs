//! DCRNN (Li et al., ICLR'18), one TGNN beyond the paper's benchmark set,
//! kept because the serve zoo builds it: [`DConv`] is its dual-direction
//! diffusion convolution — random-walk powers over *both* out-neighbour
//! and in-neighbour matrices, which runs the executor's `AggSumSrc`
//! kernels in the forward pass (normally backward-only) — and [`Dcrnn`]
//! the recurrent cell built from it.

use crate::executor::{compile, CompiledProgram, TemporalExecutor};
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
}
