//! The edge-parallel GCN/TGCN baseline, replicating PyG(-T)'s execution
//! strategy (§VII's analysis of why STGraph wins):
//!
//! * **edge parallelism with feature duplication** — message creation is a
//!   row gather `x[src]` producing an `[m, F]` tensor;
//! * **retention until backward** — the duplicated message tensor is kept
//!   alive by the autograd graph for the whole sequence, exactly like
//!   PyG's saved-for-backward message tensors (`_retained` below);
//! * **identical mathematics** — the same `D̂^{-1/2} Â D̂^{-1/2}` propagation
//!   as STGraph's GCN, so losses agree to float tolerance and only
//!   time/memory differ.

use crate::coo::CooGraph;
use rand::Rng;
use std::rc::Rc;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Param, StateDict, Tape, Tensor, Var};

/// Edge-parallel normalised message passing: `out = Â_norm h`.
///
/// Forward materialises the duplicated per-edge messages; the backward
/// closure *captures* them so they stay resident until backprop reaches
/// this op — the PyG retention behaviour the paper measures.
pub fn propagate<'t>(tape: &'t Tape, graph: &CooGraph, h: &Var<'t>) -> Var<'t> {
    let _ = tape;
    let n = graph.num_nodes;
    let src = Rc::clone(&graph.src);
    let dst = Rc::clone(&graph.dst);
    let norm = graph.edge_norm.clone();
    // Message creation: duplicate source features per edge, then weight.
    let messages = h.value().gather_rows(&src).scale_rows(&norm);
    let out = messages.scatter_add_rows(&dst, n);
    h.tape().custom(&[h], out, move |g, _| {
        // PyG's autograd keeps the duplicated message tensor alive until
        // this point; dropping the closure (after backward) releases it.
        let _retained = &messages;
        let gm = g.gather_rows(&dst).scale_rows(&norm);
        vec![Some(gm.scatter_add_rows(&src, n))]
    })
}

/// Edge-parallel `GCNConv`: dense transform + [`propagate`].
pub struct BaselineGcnConv {
    linear: Linear,
}

impl BaselineGcnConv {
    /// A new layer (identical parameter layout and init order to
    /// `stgraph::GcnConv`, enabling bitwise weight equivalence).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> BaselineGcnConv {
        BaselineGcnConv {
            linear: Linear::new(params, name, in_features, out_features, true, rng),
        }
    }

    /// Applies the layer on `graph`.
    pub fn forward<'t>(&self, tape: &'t Tape, graph: &CooGraph, x: &Var<'t>) -> Var<'t> {
        let h = self.linear.forward(tape, x);
        propagate(tape, graph, &h)
    }

    /// The weight parameter (for cross-framework weight copying).
    pub fn weight_param(&self) -> &stgraph_tensor::Param {
        &self.linear.weight
    }

    /// The bias parameter.
    pub fn bias_param(&self) -> Option<&stgraph_tensor::Param> {
        self.linear.bias.as_ref()
    }
}

impl StateDict for BaselineGcnConv {
    fn parameters(&self) -> Vec<Param> {
        self.linear.parameters()
    }
}

/// The PyG-T TGCN cell on the edge-parallel backend. Gate structure and
/// parameter creation order are identical to `stgraph::tgnn::Tgcn`, so
/// seeding both with the same RNG yields identical initial weights.
pub struct BaselineTgcn {
    conv_z: BaselineGcnConv,
    conv_r: BaselineGcnConv,
    conv_h: BaselineGcnConv,
    lin_z: Linear,
    lin_r: Linear,
    lin_h: Linear,
    hidden: usize,
}

impl BaselineTgcn {
    /// A new baseline TGCN cell.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_features: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> BaselineTgcn {
        BaselineTgcn {
            conv_z: BaselineGcnConv::new(
                params,
                &format!("{name}.conv_z"),
                in_features,
                hidden,
                rng,
            ),
            conv_r: BaselineGcnConv::new(
                params,
                &format!("{name}.conv_r"),
                in_features,
                hidden,
                rng,
            ),
            conv_h: BaselineGcnConv::new(
                params,
                &format!("{name}.conv_h"),
                in_features,
                hidden,
                rng,
            ),
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

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One recurrent step on `graph`.
    pub fn step<'t>(
        &self,
        tape: &'t Tape,
        graph: &CooGraph,
        x: &Var<'t>,
        h: Option<&Var<'t>>,
    ) -> Var<'t> {
        let n = x.value().rows();
        let h = match h {
            Some(v) => v.clone(),
            None => tape.constant(Tensor::zeros((n, self.hidden))),
        };
        let cz = self.conv_z.forward(tape, graph, x);
        let z = self.lin_z.forward_parts(tape, &[&cz, &h]).sigmoid();
        let cr = self.conv_r.forward(tape, graph, x);
        let r = self.lin_r.forward_parts(tape, &[&cr, &h]).sigmoid();
        let ch = self.conv_h.forward(tape, graph, x);
        let rh = r.mul(&h);
        let htilde = self.lin_h.forward_parts(tape, &[&ch, &rh]).tanh();
        z.mix(&h, &htilde)
    }
}

impl StateDict for BaselineTgcn {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_tensor::autograd::check::{assert_close, numeric_grad};

    fn graph() -> CooGraph {
        CooGraph::new(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 3)])
    }

    #[test]
    fn propagate_matches_dense_oracle() {
        let g = graph();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = propagate(&tape, &g, &xv);
        // Oracle: for each edge (incl. loops) out[dst] += w * x[src].
        let mut want = vec![0.0f32; 15];
        let w = g.edge_norm.data();
        for ((&u, &v), &we) in g.src.iter().zip(g.dst.iter()).zip(w.iter()) {
            let (u, v) = (u as usize, v as usize);
            for j in 0..3 {
                want[v * 3 + j] += we * x.at(u, j);
            }
        }
        assert!(y.value().approx_eq(&Tensor::from_vec((5, 3), want), 1e-5));
    }

    #[test]
    fn propagate_gradcheck() {
        let g = graph();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x0 = Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let (x, gx) = tape.input(x0.clone());
        let loss = propagate(&tape, &g, &x).square().sum();
        tape.backward(&loss);
        let mut f = |t: &Tensor| {
            let tape = Tape::new();
            let xv = tape.constant(t.clone());
            propagate(&tape, &g, &xv).square().sum().value().item()
        };
        assert_close(&gx.get().unwrap(), &numeric_grad(&mut f, &x0, 1e-2), 2e-2);
    }

    #[test]
    fn tgcn_step_shapes() {
        let g = graph();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let cell = BaselineTgcn::new(&mut ps, "t", 3, 4, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng));
        let h1 = cell.step(&tape, &g, &x, None);
        let h2 = cell.step(&tape, &g, &x, Some(&h1));
        assert_eq!(h2.value().shape(), stgraph_tensor::Shape::Mat(5, 4));
        assert!(h2.value().data().iter().all(|v| v.abs() <= 1.0));
        let loss = h2.square().sum();
        tape.backward(&loss);
        assert!(ps.iter().any(|p| p.grad().data().iter().any(|&g| g != 0.0)));
    }

    #[test]
    fn messages_are_retained_until_backward() {
        // The [m, F] duplicated tensor must stay charged between forward
        // and backward — this is the PyG behaviour the paper measures.
        stgraph_tensor::mem::with_pool("baseline-retention", || {
            let g = CooGraph::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
            let f = 16;
            let tape = Tape::new();
            let (x, _) = tape.input(Tensor::zeros((4, f)));
            let before = stgraph_tensor::mem::stats("baseline-retention").live;
            let y = propagate(&tape, &g, &x);
            let live_after_fwd = stgraph_tensor::mem::stats("baseline-retention").live;
            // messages (10 edges x 16 features x 4 bytes) are still alive.
            let msg_bytes = (g.num_edges_with_loops() * f * 4) as u64;
            assert!(
                live_after_fwd >= before + msg_bytes,
                "{live_after_fwd} vs {before} + {msg_bytes}"
            );
            let loss = y.sum();
            tape.backward(&loss);
            drop(y);
            drop(x);
            let after = stgraph_tensor::mem::stats("baseline-retention").live;
            assert!(
                after < before + msg_bytes,
                "messages must be freed after backward"
            );
        });
    }
}
