//! The STGraph backend interface (§VI.1).
//!
//! Seastar scattered its backend hooks across DGL-Hack; STGraph instead
//! confines every backend interaction to one dedicated interface created
//! through a factory, which is what keeps the framework backend-agnostic.
//! Here the interface is the execution of vertex-centric programs:
//!
//! * [`SeastarBackend`] — the default: fused vertex-parallel kernels from
//!   `stgraph-seastar` (edge values live in registers).
//! * [`ReferenceBackend`] — an unfused interpreter that materialises every
//!   edge-space value as an `[m, w]` tensor via gather/scatter, i.e. the
//!   edge-parallel strategy of PyG-style systems. It exists as the
//!   correctness oracle and as the "unfused" arm of the ablation bench.

use stgraph_graph::base::STGraphBase;
use stgraph_graph::csr::Csr;
use stgraph_seastar::exec::ExecOutput;
use stgraph_seastar::ir::{Id, Op, Program, Space};
use stgraph_tensor::{Shape, Tensor};

/// Executes vertex-centric programs for the framework.
pub trait AggregationBackend: Send + Sync {
    /// Backend name (factory key).
    fn name(&self) -> &'static str;

    /// Runs `prog` against `graph`; see `stgraph_seastar::exec::execute`.
    /// `mat_consts` is reserved: the executor always passes `&[]` and no
    /// program reads it. It stays in the signature only because the frozen
    /// `benchmark/` probes implement this trait.
    ///
    /// One positional slice per IR binding class — the signature mirrors the
    /// kernel launch ABI rather than bundling slices into a struct.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput;
}

/// The fused Seastar executor (default backend).
pub struct SeastarBackend;

impl AggregationBackend for SeastarBackend {
    fn name(&self) -> &'static str {
        "seastar"
    }

    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        _mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput {
        let _sp = stgraph_telemetry::span_cat("kernel.fused", "kernel");
        stgraph_seastar::exec::execute(prog, graph, inputs, node_consts, edge_consts, save)
    }
}

/// Unfused reference backend: every edge-space IR value becomes a real
/// `[num_edges, w]` tensor built with edge-parallel gather/scatter kernels.
pub struct ReferenceBackend;

/// Per-edge endpoint arrays (indexed by edge id) derived from the dense
/// reverse CSR.
fn edge_endpoints(rev: &Csr) -> (Vec<u32>, Vec<u32>) {
    let m = rev.num_edges();
    let mut src = vec![0u32; m];
    let mut dst = vec![0u32; m];
    for d in 0..rev.num_nodes() {
        for (s, eid) in rev.iter_row(d) {
            src[eid as usize] = s;
            dst[eid as usize] = d as u32;
        }
    }
    (src, dst)
}

impl AggregationBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        _mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput {
        let _sp = stgraph_telemetry::span_cat("kernel.unfused", "kernel");
        let n = graph.num_nodes();
        let m = graph.num_edges();
        let (src, dst) = edge_endpoints(graph.reverse_csr());
        let mut values: Vec<Option<Tensor>> = vec![None; prog.len()];
        for (id, node) in prog.nodes.iter().enumerate() {
            let w = node.width;
            let val = match node.op {
                Op::NodeInput(slot) => inputs[slot].clone(),
                Op::NodeConst(slot) => node_consts[slot].clone(),
                Op::EdgeConst(slot) => edge_consts[slot].clone(),
                Op::GatherSrc(v) => values[v].as_ref().unwrap().gather_rows(&src),
                Op::GatherDst(v) => values[v].as_ref().unwrap().gather_rows(&dst),
                Op::AggSumDst(e) => values[e].as_ref().unwrap().scatter_add_rows(&dst, n),
                Op::AggSumSrc(e) => values[e].as_ref().unwrap().scatter_add_rows(&src, n),
                Op::AggMaxDst(e) => {
                    let ev = values[e].as_ref().unwrap();
                    let mut out = vec![0.0f32; n * w];
                    let mut seen = vec![false; n];
                    let ed = ev.data();
                    for eid in 0..m {
                        let d = dst[eid] as usize;
                        for j in 0..w {
                            let v = ed[eid * w + j];
                            let slot = &mut out[d * w + j];
                            if !seen[d] || v > *slot {
                                *slot = v;
                            }
                        }
                        seen[d] = true;
                    }
                    Tensor::from_vec(Shape::Mat(n, w), out)
                }
                Op::Add(a, b) => broadcast_bin(&values, a, b, w, |x, y| x + y),
                Op::Sub(a, b) => broadcast_bin(&values, a, b, w, |x, y| x - y),
                Op::Mul(a, b) => broadcast_bin(&values, a, b, w, |x, y| x * y),
                Op::Div(a, b) => broadcast_bin(&values, a, b, w, |x, y| x / y),
                Op::Scale(a, c) => values[a].as_ref().unwrap().mul_scalar(c),
                Op::LeakyRelu(a, s) => values[a].as_ref().unwrap().leaky_relu(s),
                Op::LeakyReluGrad(g, x, s) => broadcast_bin(&values, g, x, w, move |gv, xv| {
                    gv * if xv >= 0.0 { 1.0 } else { s }
                }),
                Op::Exp(a) => values[a].as_ref().unwrap().exp(),
                Op::Sigmoid(a) => values[a].as_ref().unwrap().sigmoid(),
                Op::Tanh(a) => values[a].as_ref().unwrap().tanh(),
                Op::ReduceFeat(a) => {
                    let t = values[a].as_ref().unwrap();
                    let rows = t.rows();
                    t.sum_axis1().reshape((rows, 1))
                }
                Op::BroadcastFeat(a, bw) => values[a].as_ref().unwrap().broadcast_col(bw),
            };
            debug_assert_eq!(
                val.rows(),
                if node.space == Space::Node { n } else { m },
                "space/row mismatch at IR node {id}"
            );
            values[id] = Some(val);
        }
        let saved = save
            .iter()
            .map(|&id| values[id].as_ref().unwrap().clone())
            .collect();
        let outputs = prog
            .outputs
            .iter()
            .map(|&o| values[o].as_ref().unwrap().clone())
            .collect();
        ExecOutput { outputs, saved }
    }
}

fn broadcast_bin(
    values: &[Option<Tensor>],
    a: Id,
    b: Id,
    w: usize,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    let (ta, tb) = (values[a].as_ref().unwrap(), values[b].as_ref().unwrap());
    let rows = ta.rows();
    let (wa, wb) = (ta.cols(), tb.cols());
    let (ad, bd) = (ta.data(), tb.data());
    let mut out = vec![0.0f32; rows * w];
    for i in 0..rows {
        for j in 0..w {
            let x = ad[i * wa + if wa == 1 { 0 } else { j }];
            let y = bd[i * wb + if wb == 1 { 0 } else { j }];
            out[i * w + j] = f(x, y);
        }
    }
    Tensor::from_vec(Shape::Mat(rows, w), out)
}

/// The factory (Factory Class Design Pattern, §VI.1): creates a backend by
/// name. Panics on unknown names, listing the known ones.
pub fn create_backend(name: &str) -> Box<dyn AggregationBackend> {
    match name {
        "seastar" => Box::new(SeastarBackend),
        "reference" => Box::new(ReferenceBackend),
        other => panic!("unknown backend '{other}'; known: seastar, reference"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph_graph::base::{gcn_norm, Snapshot};
    use stgraph_seastar::ir::{gat_aggregation, gcn_aggregation};

    fn snap() -> Snapshot {
        Snapshot::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (2, 5),
                (1, 4),
            ],
        )
    }

    #[test]
    fn factory_creates_by_name() {
        assert_eq!(create_backend("seastar").name(), "seastar");
        assert_eq!(create_backend("reference").name(), "reference");
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn factory_rejects_unknown() {
        create_backend("tensorflow");
    }

    #[test]
    fn backends_agree_on_gcn() {
        let g = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = Tensor::rand_uniform((6, 5), -1.0, 1.0, &mut rng);
        let norm = Tensor::from_vec((6, 1), gcn_norm(&g.in_degrees));
        let prog = gcn_aggregation(5);
        let a = SeastarBackend.execute(&prog, &g, &[&x], &[&norm], &[], &[], &[]);
        let b = ReferenceBackend.execute(&prog, &g, &[&x], &[&norm], &[], &[], &[]);
        assert!(a.outputs[0].approx_eq(&b.outputs[0], 1e-4));
    }

    #[test]
    fn backends_agree_on_gat() {
        let g = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let h = Tensor::rand_uniform((6, 4), -1.0, 1.0, &mut rng);
        let el = Tensor::rand_uniform((6, 1), -1.0, 1.0, &mut rng);
        let er = Tensor::rand_uniform((6, 1), -1.0, 1.0, &mut rng);
        let prog = gat_aggregation(4, 0.2);
        let a = SeastarBackend.execute(&prog, &g, &[&h, &el, &er], &[], &[], &[], &[]);
        let b = ReferenceBackend.execute(&prog, &g, &[&h, &el, &er], &[], &[], &[], &[]);
        assert!(
            a.outputs[0].approx_eq(&b.outputs[0], 1e-4),
            "diff {}",
            a.outputs[0].max_abs_diff(&b.outputs[0])
        );
    }

    #[test]
    fn backends_agree_on_saved_values() {
        let g = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let h = Tensor::rand_uniform((6, 4), -1.0, 1.0, &mut rng);
        let el = Tensor::rand_uniform((6, 1), -1.0, 1.0, &mut rng);
        let er = Tensor::rand_uniform((6, 1), -1.0, 1.0, &mut rng);
        let prog = gat_aggregation(4, 0.2);
        let plan = stgraph_seastar::differentiate(&prog);
        let ids = plan.save_ids();
        let a = SeastarBackend.execute(&prog, &g, &[&h, &el, &er], &[], &[], &[], &ids);
        let b = ReferenceBackend.execute(&prog, &g, &[&h, &el, &er], &[], &[], &[], &ids);
        for (x, y) in a.saved.iter().zip(&b.saved) {
            assert!(x.approx_eq(y, 1e-4));
        }
    }

    /// Norms that are not degree-derived, and the backward program too
    /// (out-edge aggregation, the `AggSumSrc` arm of both backends).
    #[test]
    fn backends_agree_on_gcn_forward_and_backward_with_random_norms() {
        let g = snap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Tensor::rand_uniform((6, 5), -1.0, 1.0, &mut rng);
        let norm = Tensor::rand_uniform((6, 1), 0.25, 2.0, &mut rng);
        let grad = Tensor::rand_uniform((6, 5), -1.0, 1.0, &mut rng);
        let prog = gcn_aggregation(5);
        let plan = stgraph_seastar::differentiate(&prog);
        assert!(plan.save_ids().is_empty() && plan.saved_input_slots().is_empty());
        for (p, input) in [(&prog, &x), (&plan.program, &grad)] {
            let a = SeastarBackend.execute(p, &g, &[input], &[&norm], &[], &[], &[]);
            let b = ReferenceBackend.execute(p, &g, &[input], &[&norm], &[], &[], &[]);
            assert!(
                a.outputs[0].approx_eq(&b.outputs[0], 1e-4),
                "diff {}",
                a.outputs[0].max_abs_diff(&b.outputs[0])
            );
        }
    }
}
