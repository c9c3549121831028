//! Property-based testing of the vertex-centric compiler itself: generate
//! *random valid IR programs*, then assert
//!
//! 1. the fused Seastar backend and the unfused reference backend compute
//!    identical forward values and identical saved tensors;
//! 2. the auto-derived backward program's gradients match central-difference
//!    numerics for every differentiable input;
//! 3. CSE + DCE never change the program's value.
//!
//! This is the compiler-fuzzing counterpart of the hand-written layer
//! gradchecks — it explores op combinations no layer uses. The random
//! programs run on a 6-node graph, below the parallel cutover; one seeded
//! test pins the bits of GCN and GAT on a power-law graph above it, and
//! one checks the register-resident aggregation against the memory-row
//! loop it replaced, bit for bit.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stgraph::backend::{AggregationBackend, ReferenceBackend, SeastarBackend};
use stgraph_graph::base::{gcn_norm, Snapshot};
use stgraph_graph::csr::Csr;
use stgraph_seastar::autodiff::{differentiate, NodeSave};
use stgraph_seastar::exec::execute;
use stgraph_seastar::ir::{gat_aggregation, gcn_aggregation, Op, Program, ProgramBuilder, Val};
use stgraph_tensor::autograd::check::{assert_close, numeric_grad};
use stgraph_tensor::simd::{F32x8, LANES};
use stgraph_tensor::Tensor;

/// A recipe for one random op applied during program construction.
#[derive(Debug, Clone)]
enum Step {
    GatherSrc,
    GatherDst,
    AggSumDst,
    AggSumSrc,
    AddNode,
    MulNode,
    SubEdge,
    Scale(i8),
    LeakyRelu,
    SigmoidEdge,
    TanhNode,
    ReduceFeat,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::GatherSrc),
        Just(Step::GatherDst),
        Just(Step::AggSumDst),
        Just(Step::AggSumSrc),
        Just(Step::AddNode),
        Just(Step::MulNode),
        Just(Step::SubEdge),
        (-3i8..=3).prop_map(Step::Scale),
        Just(Step::LeakyRelu),
        Just(Step::SigmoidEdge),
        Just(Step::TanhNode),
        Just(Step::ReduceFeat),
    ]
}

/// Builds a random-but-valid program from the step recipe. Maintains pools
/// of node- and edge-space values; steps that don't apply are skipped, and
/// the program always ends with a node-space output depending on input 0.
fn build_program(widths: &[usize], steps: &[Step]) -> Program {
    let mut b = ProgramBuilder::new();
    let mut node_vals: Vec<(Val, usize)> = Vec::new();
    let mut edge_vals: Vec<(Val, usize)> = Vec::new();
    for &w in widths {
        let v = b.input(w);
        node_vals.push((v, w));
    }
    let mut pick = 0usize;
    let mut next = |len: usize| {
        pick = pick.wrapping_mul(31).wrapping_add(17);
        pick % len.max(1)
    };
    for step in steps {
        match step {
            Step::GatherSrc => {
                let (v, w) = node_vals[next(node_vals.len())];
                edge_vals.push((b.gather_src(v), w));
            }
            Step::GatherDst => {
                let (v, w) = node_vals[next(node_vals.len())];
                edge_vals.push((b.gather_dst(v), w));
            }
            Step::AggSumDst => {
                if let Some(&(e, w)) = edge_vals.last() {
                    node_vals.push((b.agg_sum_dst(e), w));
                }
            }
            Step::AggSumSrc => {
                if let Some(&(e, w)) = edge_vals.last() {
                    node_vals.push((b.agg_sum_src(e), w));
                }
            }
            Step::AddNode => {
                let (x, wx) = node_vals[next(node_vals.len())];
                let (y, wy) = node_vals[next(node_vals.len())];
                if wx == wy || wx == 1 || wy == 1 {
                    node_vals.push((b.add(x, y), wx.max(wy)));
                }
            }
            Step::MulNode => {
                let (x, wx) = node_vals[next(node_vals.len())];
                let (y, wy) = node_vals[next(node_vals.len())];
                if wx == wy || wx == 1 || wy == 1 {
                    // Halve to keep magnitudes tame through mul chains.
                    let m = b.mul(x, y);
                    node_vals.push((b.scale(m, 0.5), wx.max(wy)));
                }
            }
            Step::SubEdge => {
                if edge_vals.len() >= 2 {
                    let (x, wx) = edge_vals[edge_vals.len() - 1];
                    let (y, wy) = edge_vals[edge_vals.len() - 2];
                    if wx == wy || wx == 1 || wy == 1 {
                        edge_vals.push((b.sub(x, y), wx.max(wy)));
                    }
                }
            }
            Step::Scale(c) => {
                let (v, w) = node_vals[next(node_vals.len())];
                node_vals.push((b.scale(v, *c as f32 / 2.0), w));
            }
            Step::LeakyRelu => {
                if let Some(&(e, w)) = edge_vals.last() {
                    edge_vals.push((b.leaky_relu(e, 0.2), w));
                } else {
                    let (v, w) = node_vals[next(node_vals.len())];
                    node_vals.push((b.leaky_relu(v, 0.2), w));
                }
            }
            Step::SigmoidEdge => {
                if let Some(&(e, w)) = edge_vals.last() {
                    edge_vals.push((b.sigmoid(e), w));
                } else {
                    let (v, w) = node_vals[next(node_vals.len())];
                    node_vals.push((b.sigmoid(v), w));
                }
            }
            Step::TanhNode => {
                let (v, w) = node_vals[next(node_vals.len())];
                node_vals.push((b.tanh(v), w));
            }
            Step::ReduceFeat => {
                let (v, _) = node_vals[next(node_vals.len())];
                node_vals.push((b.reduce_feat(v), 1));
            }
        }
    }
    // Guarantee at least one aggregation so the graph matters, and tie the
    // output to input 0.
    let (x0, w0) = node_vals[0];
    let g = b.gather_src(x0);
    let agg = b.agg_sum_dst(g);
    let (last, wl) = *node_vals.last().unwrap();
    let out = if wl == w0 || wl == 1 || w0 == 1 {
        b.add(agg, last)
    } else {
        let r = b.reduce_feat(last);
        b.add(agg, r)
    };
    b.finish(&[out])
}

fn test_graph() -> Snapshot {
    Snapshot::from_edges(
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (0, 3),
            (2, 4),
            (5, 0),
            (4, 5),
        ],
    )
}

fn make_inputs(widths: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    widths
        .iter()
        .map(|&w| Tensor::rand_uniform((6, w), -1.0, 1.0, &mut rng))
        .collect()
}

/// Runs forward + backward via a backend, returning (output, input grads).
fn run(
    be: &dyn AggregationBackend,
    prog: &Program,
    graph: &Snapshot,
    inputs: &[Tensor],
    seed_grad: &Tensor,
) -> (Tensor, Vec<Option<Tensor>>) {
    run_with_consts(be, prog, graph, inputs, &[], seed_grad)
}

/// [`run`] for a program with node constants (they lead the backward
/// program's node constants, ahead of the saved values).
fn run_with_consts(
    be: &dyn AggregationBackend,
    prog: &Program,
    graph: &Snapshot,
    inputs: &[Tensor],
    consts: &[Tensor],
    seed_grad: &Tensor,
) -> (Tensor, Vec<Option<Tensor>>) {
    let plan = differentiate(prog);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let const_refs: Vec<&Tensor> = consts.iter().collect();
    let fwd = be.execute(prog, graph, &refs, &const_refs, &[], &[], &plan.save_ids());
    let n_node_value_saves = plan
        .node_saves
        .iter()
        .filter(|s| matches!(s, NodeSave::Value(_)))
        .count();
    let (node_vals, edge_vals) = fwd.saved.split_at(n_node_value_saves);
    let mut node_iter = node_vals.iter();
    let mut b_node_consts: Vec<&Tensor> = const_refs;
    for s in &plan.node_saves {
        match s {
            NodeSave::Input(i) => b_node_consts.push(&inputs[*i]),
            NodeSave::Value(_) => b_node_consts.push(node_iter.next().unwrap()),
        }
    }
    let b_edge_consts: Vec<&Tensor> = edge_vals.iter().collect();
    let bexec = be.execute(
        &plan.program,
        graph,
        &[seed_grad],
        &b_node_consts,
        &b_edge_consts,
        &[],
        &[],
    );
    let grads = plan
        .input_grads
        .iter()
        .map(|ig| ig.map(|idx| bexec.outputs[idx].clone()))
        .collect();
    (fwd.outputs[0].clone(), grads)
}

/// FNV-1a over the bits of an output and every present gradient.
fn fingerprint(out: &Tensor, grads: &[Option<Tensor>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let absent = [f32::from_bits(u32::MAX)];
    let planes = std::iter::once(out.data()).chain(
        grads
            .iter()
            .map(|g| g.as_ref().map_or(&absent[..], |g| g.data())),
    );
    for plane in planes {
        for b in plane.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// GCN and GAT forward + backward on a power-law graph far above
/// `par_min()`, so every aggregation and saved edge value runs chunked on
/// more than one thread. The hash pins every output and gradient bit: the
/// chunking of vertices into tasks may change, the bits may not, on any
/// `RAYON_NUM_THREADS` or `STGRAPH_PAR_MIN`.
#[test]
fn chunked_kernels_are_pinned_on_a_power_law_graph() {
    let (n, m, f) = (3000usize, 40_000usize, 16usize);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    // Destinations skew to low ids (u^3): a few hubs with huge in-degree.
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let u = rng.gen_range(0..n as u32);
            let v = (n as f64 * rng.gen_range(0.0f64..1.0).powf(3.0)) as u32 % n as u32;
            (u, v)
        })
        .collect();
    let graph = Snapshot::from_edges(n, &edges);
    assert!(
        m >= stgraph_tensor::par_min(),
        "the graph must reach the chunked path"
    );
    let x = Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng);
    let el = Tensor::rand_uniform((n, 1), -1.0, 1.0, &mut rng);
    let er = Tensor::rand_uniform((n, 1), -1.0, 1.0, &mut rng);
    let seed_grad = Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng);
    let norm = Tensor::from_vec((n, 1), gcn_norm(&graph.in_degrees));

    let (out, grads) = run_with_consts(
        &SeastarBackend,
        &gcn_aggregation(f),
        &graph,
        std::slice::from_ref(&x),
        &[norm],
        &seed_grad,
    );
    let gcn = fingerprint(&out, &grads);
    let (out, grads) = run(
        &SeastarBackend,
        &gat_aggregation(f, 0.2),
        &graph,
        &[x, el, er],
        &seed_grad,
    );
    let gat = fingerprint(&out, &grads);
    // Computed under the former degree-sorted schedule, where it held on 1,
    // 2 and 4 threads and with `STGRAPH_PAR_MIN=1`.
    assert_eq!(gcn, 0x10a6_18e0_db78_3dbe, "GCN output/gradient bits moved");
    assert_eq!(gat, 0xd0b7_8abd_e702_a76d, "GAT output/gradient bits moved");
}

/// The aggregation loop the register kernel replaced, kept as its oracle:
/// each output row lives in memory from `0.0`, and every edge loads it,
/// combines the edge's value lane-wise over the full [`LANES`] chunks and
/// scalar over the remainder, and stores it back (`max` copies the first
/// edge's value instead). `value(v, nbr, eid)` is the edge's value.
fn memory_row_loop<'v>(
    csr: &Csr,
    w: usize,
    max: bool,
    value: impl Fn(usize, usize, usize) -> &'v [f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; csr.num_nodes() * w];
    for v in 0..csr.num_nodes() {
        let row = &mut out[v * w..v * w + w];
        for (k, (nbr, eid)) in csr.iter_row(v).enumerate() {
            let val = value(v, nbr as usize, eid as usize);
            if max && k == 0 {
                row.copy_from_slice(val);
                continue;
            }
            let main = w / LANES * LANES;
            let (rm, rt) = row.split_at_mut(main);
            for (rc, vc) in rm.chunks_exact_mut(LANES).zip(val.chunks_exact(LANES)) {
                let (r, x) = (F32x8::load(rc), F32x8::load(vc));
                r.zip_map(x, |r, x| if max { r.max(x) } else { r + x })
                    .store(rc);
            }
            for (r, &x) in rt.iter_mut().zip(&val[main..]) {
                *r = if max { r.max(x) } else { *r + x };
            }
        }
    }
    out
}

/// A graph of 300 vertices with one in-hub (vertex 0, in-degree 1500),
/// one out-hub (vertex 1, out-degree 1500), about 3000 random edges and
/// 20 isolated vertices (280..300, no edge either way).
fn hub_graph() -> Snapshot {
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let live = 0..280u32;
    let mut edges: Vec<(u32, u32)> = (0..3000)
        .map(|_| (rng.gen_range(live.clone()), rng.gen_range(live.clone())))
        .collect();
    edges.extend((0..1500).map(|_| (rng.gen_range(live.clone()), 0)));
    edges.extend((0..1500).map(|_| (1, rng.gen_range(live.clone()))));
    Snapshot::from_edges(300, &edges)
}

/// Uniform values in `[-1, 1)` with about 2 % replaced by `-0.0`, `+0.0`,
/// `+∞`, `-∞` or NaN — outside the two hubs' rows, so that a special
/// reaches only its own vertex's edges rather than every row.
fn with_specials(rows: usize, w: usize, rng: &mut ChaCha8Rng) -> Tensor {
    let specials = [-0.0f32, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let data = (0..rows * w)
        .map(|i| {
            if i >= 2 * w && rng.gen_range(0..50) == 0 {
                specials[rng.gen_range(0..specials.len())]
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec((rows, w), data)
}

/// Equal bits, or NaN on both sides: Rust leaves the sign and payload of
/// an arithmetic NaN unspecified (x86 returns the first operand's NaN when
/// both are NaN, and the compiler may commute an add), so only NaN-ness is
/// part of the contract.
fn assert_same_bits(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.data().len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.data().iter().zip(want).enumerate() {
        if !(g.is_nan() && w.is_nan()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }
}

/// Sum-to-destination, sum-to-source and max-to-destination, over a bare
/// neighbour gather (read in place) and over a GAT-style edge plan
/// (`exp(leaky_relu(el_u + er_v)) · h_u`, evaluated per edge), at widths
/// around every lane and register-block boundary, on a graph with hubs and
/// isolated vertices and inputs holding `±0`, `±∞` and NaN: every output
/// bit equals the memory-row loop's.
#[test]
fn register_aggregation_is_bitwise_the_memory_row_loop() {
    let graph = hub_graph();
    let n = graph.reverse_csr.num_nodes();
    let (fwd, rev) = (&graph.csr, &graph.reverse_csr);
    let mut rng = ChaCha8Rng::seed_from_u64(62);
    for w in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 96] {
        let h = with_specials(n, w, &mut rng);

        // Bare gathers of the neighbour's row.
        let mut b = ProgramBuilder::new();
        let x = b.input(w);
        let (gs, gd) = (b.gather_src(x), b.gather_dst(x));
        let outs = [b.agg_sum_dst(gs), b.agg_sum_src(gd), b.agg_max_dst(gs)];
        let prog = b.finish(&outs);
        let got = execute(&prog, &graph, &[&h], &[], &[], &[]).outputs;
        let hd = h.data();
        let bare = |csr: &Csr, max| memory_row_loop(csr, w, max, |_, u, _| &hd[u * w..u * w + w]);
        assert_same_bits(&got[0], &bare(rev, false), &format!("w={w} bare SumDst"));
        assert_same_bits(&got[1], &bare(fwd, false), &format!("w={w} bare SumSrc"));
        assert_same_bits(&got[2], &bare(rev, true), &format!("w={w} bare MaxDst"));

        // A GAT-style plan; its saved edge values feed the oracle.
        let (el, er) = (with_specials(n, 1, &mut rng), with_specials(n, 1, &mut rng));
        let mut b = ProgramBuilder::new();
        let (x, l, r) = (b.input(w), b.input(1), b.input(1));
        let (ls, rd) = (b.gather_src(l), b.gather_dst(r));
        let score = b.add(ls, rd);
        let score = b.leaky_relu(score, 0.2);
        let alpha = b.exp(score);
        let xs = b.gather_src(x);
        let weighted = b.mul(alpha, xs);
        let outs = [
            b.agg_sum_dst(weighted),
            b.agg_sum_src(weighted),
            b.agg_max_dst(weighted),
        ];
        let prog = b.finish(&outs);
        let edge_value = prog
            .nodes
            .iter()
            .find_map(|nd| match nd.op {
                Op::AggSumDst(e) => Some(e),
                _ => None,
            })
            .unwrap();
        let ex = execute(&prog, &graph, &[&h, &el, &er], &[], &[], &[edge_value]);
        let sd = ex.saved[0].data();
        let plan = |csr: &Csr, max| memory_row_loop(csr, w, max, |_, _, e| &sd[e * w..e * w + w]);
        assert_same_bits(
            &ex.outputs[0],
            &plan(rev, false),
            &format!("w={w} plan SumDst"),
        );
        assert_same_bits(
            &ex.outputs[1],
            &plan(fwd, false),
            &format!("w={w} plan SumSrc"),
        );
        assert_same_bits(
            &ex.outputs[2],
            &plan(rev, true),
            &format!("w={w} plan MaxDst"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_agree_across_backends_and_match_numeric_grads(
        widths in prop::collection::vec(1usize..4, 1..3),
        steps in prop::collection::vec(step_strategy(), 2..10),
        seed in 0u64..1000,
    ) {
        let prog = build_program(&widths, &steps);
        let graph = test_graph();
        let inputs = make_inputs(&widths, seed);
        let out_w = prog.node(prog.outputs[0]).width;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let seed_grad = Tensor::rand_uniform((6, out_w), -1.0, 1.0, &mut rng);

        // 1. Backend agreement (forward + gradients).
        let (out_s, grads_s) = run(&SeastarBackend, &prog, &graph, &inputs, &seed_grad);
        let (out_r, grads_r) = run(&ReferenceBackend, &prog, &graph, &inputs, &seed_grad);
        prop_assert!(out_s.approx_eq(&out_r, 1e-3), "forward divergence");
        for (gs, gr) in grads_s.iter().zip(&grads_r) {
            match (gs, gr) {
                (Some(a), Some(b)) => prop_assert!(a.approx_eq(b, 1e-3), "grad divergence"),
                (None, None) => {}
                _ => prop_assert!(false, "grad presence mismatch"),
            }
        }

        // 2. CSE+DCE value preservation.
        let optimised = prog.eliminate_common_subexpressions();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let out_opt = SeastarBackend
            .execute(&optimised, &graph, &refs, &[], &[], &[], &[])
            .outputs
            .remove(0);
        prop_assert!(out_s.approx_eq(&out_opt, 1e-4), "CSE changed the program value");

        // 3. Numeric gradcheck for input slot 0 (always connected).
        // LeakyReLU is nondifferentiable at 0; random programs routinely
        // place values within the central-difference step of the kink,
        // which makes numeric gradients wrong *by construction* — skip the
        // numeric comparison for those programs (backend agreement in step
        // 1 still covers their backward kernels; the smooth-program cases
        // cover the autodiff rules numerically).
        let has_kink = steps.iter().any(|s| matches!(s, Step::LeakyRelu));
        if !has_kink {
        if let Some(analytic) = &grads_s[0] {
            let mut f = |t: &Tensor| {
                let mut ins = inputs.clone();
                ins[0] = t.clone();
                let refs: Vec<&Tensor> = ins.iter().collect();
                let out = SeastarBackend.execute(&prog, &graph, &refs, &[], &[], &[], &[]).outputs.remove(0);
                out.mul(&seed_grad).sum().item()
            };
            let numeric = numeric_grad(&mut f, &inputs[0], 1e-2);
            // Generous tolerance: random programs can stack several
            // aggregations, amplifying f32 noise through central diffs.
            assert_close(analytic, &numeric, 8e-2);
        }
        }
    }
}
