//! Finite-difference gradient checks for every autograd op and both
//! losses. Each op's analytic backward pass is compared against a
//! central-difference numeric gradient with per-element mixed
//! absolute/relative tolerance 1e-3 (f32).
//!
//! Non-scalar ops are reduced to a scalar through a fixed, element-varying
//! weighting (`sum(op(x) * c)` with distinct `c` entries) rather than a
//! plain sum, so gradients that land on the wrong element — a transposed
//! matmul backward, an off-by-one slice — cannot cancel out. Inputs avoid
//! the `relu`/`leaky_relu` kink (|x| >= 0.3) where the derivative is
//! undefined and finite differences are meaningless.
//!
//! The graph-layer section runs the same check through the layers whose
//! backward is hand-written or shared: the aggregate-first `GcnConv`
//! (one GEMM over `[W; b]`) and full `Tgcn` / `GConvGru` steps, where one
//! propagation feeds every gate.
//!
//! The last section checks gradient pruning: a random tape over constant,
//! input and parameter leaves gives every input and parameter gradient
//! bitwise equal to its twin in which every constant is an input — the
//! backward with nothing pruned.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::layers::{GcnConv, GcnPropagate};
use stgraph::tgnn::{scale_by_scalar, GConvGru, RecurrentCell, Tgcn};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::autograd::check::{assert_close, numeric_grad};
use stgraph_tensor::autograd::{InputGrad, Var};
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Param, Shape, Tape, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 1e-3;

/// A deterministic test tensor with every |element| in [0.3, 0.9]: away
/// from the relu kink, small enough that exp/sigmoid/tanh stay well
/// conditioned for f32 central differences.
fn test_tensor(shape: impl Into<Shape>, seed: u64) -> Tensor {
    let shape = shape.into();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = (0..shape.numel())
        .map(|_| {
            let m: f32 = rng.gen_range(0.3..0.9);
            if rng.gen_bool(0.5) {
                m
            } else {
                -m
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Reduces `v` to a scalar via a fixed element-varying weighting.
fn weighted<'t>(v: &Var<'t>) -> Var<'t> {
    let shape = v.value().shape();
    let c = Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|i| 0.3 + 0.17 * i as f32).collect(),
    );
    v.mul(&v.tape().constant(c)).sum()
}

/// The harness: analytic gradient through the tape vs central differences,
/// for a `build` that maps the input var to a *scalar* var.
fn check<F>(name: &str, x: &Tensor, build: F)
where
    F: for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t>,
{
    let tape = Tape::new();
    let (xv, xg) = tape.input(x.clone());
    let loss = build(&tape, xv);
    assert_eq!(
        loss.value().shape().numel(),
        1,
        "[{name}] build must produce a scalar"
    );
    tape.backward(&loss);
    let analytic = xg
        .get()
        .unwrap_or_else(|| panic!("[{name}] no gradient reached the input"));

    let mut f = |t: &Tensor| {
        let tape = Tape::new();
        let (xv, _) = tape.input(t.clone());
        build(&tape, xv).value().data()[0]
    };
    let numeric = numeric_grad(&mut f, x, EPS);
    assert_close(&analytic, &numeric, TOL);
}

#[test]
fn arithmetic_ops() {
    let x = test_tensor(Shape::Mat(3, 4), 1);
    let other = test_tensor(Shape::Mat(3, 4), 2);

    check("add-lhs", &x, |t, v| {
        weighted(&v.add(&t.constant(other.clone())))
    });
    check("add-rhs", &x, |t, v| {
        weighted(&t.constant(other.clone()).add(&v))
    });
    check("sub-lhs", &x, |t, v| {
        weighted(&v.sub(&t.constant(other.clone())))
    });
    check("sub-rhs", &x, |t, v| {
        weighted(&t.constant(other.clone()).sub(&v))
    });
    check("mul-lhs", &x, |t, v| {
        weighted(&v.mul(&t.constant(other.clone())))
    });
    check("mul-rhs", &x, |t, v| {
        weighted(&t.constant(other.clone()).mul(&v))
    });
    check("neg", &x, |_, v| weighted(&v.neg()));
    check("add_scalar", &x, |_, v| weighted(&v.add_scalar(0.7)));
    check("mul_scalar", &x, |_, v| weighted(&v.mul_scalar(-1.3)));
    check("one_minus", &x, |_, v| weighted(&v.one_minus()));
    check("square", &x, |_, v| weighted(&v.square()));
}

#[test]
fn activation_ops() {
    let x = test_tensor(Shape::Mat(3, 4), 3);
    check("sigmoid", &x, |_, v| weighted(&v.sigmoid()));
    check("tanh", &x, |_, v| weighted(&v.tanh()));
    check("relu", &x, |_, v| weighted(&v.relu()));
    check("leaky_relu", &x, |_, v| weighted(&v.leaky_relu(0.1)));
    check("exp", &x, |_, v| weighted(&v.exp()));
}

#[test]
fn linear_ops() {
    let x = test_tensor(Shape::Mat(3, 4), 4);
    let w = test_tensor(Shape::Mat(4, 2), 5);
    let a = test_tensor(Shape::Mat(2, 3), 6);
    let bias = test_tensor(Shape::Vec(4), 7);
    let rows = test_tensor(Shape::Vec(3), 8);

    check("matmul-lhs", &x, |t, v| {
        weighted(&v.matmul(&t.constant(w.clone())))
    });
    check("matmul-rhs", &x, |t, v| {
        weighted(&t.constant(a.clone()).matmul(&v))
    });
    check("matmul_const", &x, |_, v| weighted(&v.matmul_const(&w)));
    check("add_bias-input", &x, |t, v| {
        weighted(&v.add_bias(&t.constant(bias.clone())))
    });
    check("add_bias-bias", &bias, |t, v| {
        weighted(&t.constant(x.clone()).add_bias(&v))
    });
    check("scale_rows_const", &x, |_, v| {
        weighted(&v.scale_rows_const(&rows))
    });
}

#[test]
fn structural_ops() {
    let x = test_tensor(Shape::Mat(3, 2), 9);
    let side = test_tensor(Shape::Mat(3, 3), 10);
    check("concat_cols-first", &x, |t, v| {
        weighted(&Var::concat_cols(&[&v, &t.constant(side.clone())]))
    });
    check("concat_cols-second", &x, |t, v| {
        weighted(&Var::concat_cols(&[&t.constant(side.clone()), &v]))
    });

    let wide = test_tensor(Shape::Mat(3, 5), 11);
    check("slice_cols", &wide, |_, v| weighted(&v.slice_cols(1, 4)));

    // Repeated gather indices exercise the scatter-add accumulation in the
    // backward pass; an index absent from the list must get zero gradient.
    let table = test_tensor(Shape::Mat(5, 3), 12);
    check("gather_rows", &table, |_, v| {
        weighted(&v.gather_rows(Rc::new(vec![0, 2, 2, 4])))
    });

    let msgs = test_tensor(Shape::Mat(4, 3), 13);
    check("scatter_add_rows", &msgs, |_, v| {
        weighted(&v.scatter_add_rows(Rc::new(vec![1, 3, 3, 0]), 5))
    });
}

#[test]
fn reduction_ops() {
    let x = test_tensor(Shape::Mat(3, 4), 14);
    check("sum_cols", &x, |_, v| weighted(&v.sum_cols()));
    check("sum", &x, |_, v| v.sum());
    check("mean", &x, |_, v| v.mean());
}

#[test]
fn losses() {
    let x = test_tensor(Shape::Mat(4, 3), 15);
    let target = test_tensor(Shape::Mat(4, 3), 16);
    check("mse_loss", &x, |_, v| v.mse_loss(&target));

    // BCE-with-logits: targets are hard labels in {0, 1}.
    let logits = test_tensor(Shape::Mat(4, 3), 17);
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let labels = Tensor::from_vec(
        Shape::Mat(4, 3),
        (0..12)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
            .collect(),
    );
    check("bce_with_logits_loss", &logits, |_, v| {
        v.bce_with_logits_loss(&labels)
    });
}

// ---------- graph layers ----------

/// Looser than `TOL`: a layer loss sums tens of weighted f32 terms, so the
/// central difference itself carries ~1e-4 of rounding noise.
const LAYER_TOL: f32 = 5e-3;

/// A fresh executor per evaluation: numeric evaluations never run
/// backward, so their State-Stack frames must not outlive them.
fn layer_exec() -> TemporalExecutor {
    let edges = [
        (0, 1),
        (1, 2),
        (2, 0),
        (3, 4),
        (4, 5),
        (5, 3),
        (0, 3),
        (2, 5),
        (4, 1),
    ];
    TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Static(Snapshot::from_edges(6, &edges)),
    )
}

/// Every parameter's accumulated gradient from one backward pass vs central
/// differences over that parameter. `loss(true)` must also run backward.
fn check_params(name: &str, params: &ParamSet, loss: impl Fn(bool) -> f32) {
    params.zero_grad();
    loss(true);
    for p in params.iter() {
        let (analytic, p0) = (p.grad(), p.value());
        assert!(
            analytic.data().iter().any(|&g| g != 0.0),
            "[{name}] no gradient reached {}",
            p.name()
        );
        let mut f = |v: &Tensor| {
            p.set_value(v.clone());
            loss(false)
        };
        let numeric = numeric_grad(&mut f, &p0, EPS);
        p.set_value(p0);
        assert_close(&analytic, &numeric, LAYER_TOL);
    }
}

/// Moves every parameter (zero-initialised biases included) off its init.
fn perturb(params: &ParamSet, seed: u64) {
    for (i, p) in params.iter().enumerate() {
        let shape = p.value().shape();
        p.set_value(test_tensor(shape, seed + i as u64).mul_scalar(0.5));
    }
}

#[test]
fn aggregate_first_gcn_conv() {
    let mut ps = ParamSet::new();
    let conv = GcnConv::new(&mut ps, "g", 3, 5, &mut ChaCha8Rng::seed_from_u64(20));
    assert!(conv.aggregates_first());
    perturb(&ps, 21);
    let x = test_tensor(Shape::Mat(6, 3), 23);
    check_params("gcn-agg-first", &ps, |backward| {
        let tape = Tape::new();
        let loss = weighted(&conv.forward(&tape, &layer_exec(), 0, &tape.constant(x.clone())));
        if backward {
            tape.backward(&loss);
        }
        loss.value().item()
    });
    check("gcn-agg-first-input", &x, |t, v| {
        weighted(&conv.forward(t, &layer_exec(), 0, &v))
    });
}

/// Two steps of `cell`, so gradients also flow through the carried state.
/// `x_grad` registers the inputs with `Tape::input` instead of as
/// constants: a TGCN over an input that needs a gradient keeps the width
/// rule, over constants it always aggregates first.
fn check_cell(name: &str, params: &ParamSet, cell: &dyn RecurrentCell, in_w: usize, x_grad: bool) {
    perturb(params, 30);
    let x0 = test_tensor(Shape::Mat(6, in_w), 40);
    let x1 = test_tensor(Shape::Mat(6, in_w), 41);
    check_params(name, params, |backward| {
        let (tape, exec) = (Tape::new(), layer_exec());
        let var = |x: &Tensor| {
            if x_grad {
                tape.input(x.clone()).0
            } else {
                tape.constant(x.clone())
            }
        };
        let h1 = cell.step(&tape, &exec, 0, &var(&x0), None);
        let h2 = cell.step(&tape, &exec, 1, &var(&x1), Some(&h1));
        let loss = weighted(&h2);
        if backward {
            tape.backward(&loss);
            assert_eq!(exec.state_stack_stats().3, 0, "[{name}] stack must drain");
        }
        loss.value().item()
    });
}

#[test]
fn tgcn_step_shared_propagation() {
    // Both sides of the width rule: `[X|1]` shared, then the three gates'
    // transformed inputs side by side in one launch (an input that needs a
    // gradient); and constant features on the transform side of the width
    // rule, which aggregate first.
    for (name, in_w, hidden, x_grad) in [
        ("tgcn-agg-first", 3, 4, false),
        ("tgcn-transform-first", 5, 3, true),
        ("tgcn-constant-agg-first", 5, 3, false),
    ] {
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(
            &mut ps,
            "t",
            in_w,
            hidden,
            &mut ChaCha8Rng::seed_from_u64(50),
        );
        check_cell(name, &ps, &cell, in_w, x_grad);
    }
}

#[test]
fn gconv_gru_step_shared_basis() {
    let mut ps = ParamSet::new();
    let cell = GConvGru::new(&mut ps, "g", 3, 4, 3, &mut ChaCha8Rng::seed_from_u64(51));
    check_cell("gconvgru", &ps, &cell, 3, false);
}

// ---------- gradient pruning ----------

#[derive(Clone, Copy, PartialEq)]
enum Leaf {
    Constant,
    Input,
    Param,
}

/// Sigmoid; in the `twin`, with the composed backward the one-pass
/// kernel replaced.
fn sigmoid<'t>(a: &Var<'t>, twin: bool) -> Var<'t> {
    if !twin {
        return a.sigmoid();
    }
    let y = a.value().sigmoid();
    let yc = y.clone();
    a.tape().custom(&[a], y, move |g, _| {
        vec![Some(g.mul(&yc.mul(&yc.neg().add_scalar(1.0))))]
    })
}

/// Tanh; in the `twin`, with the composed backward the one-pass kernel
/// replaced.
fn tanh<'t>(a: &Var<'t>, twin: bool) -> Var<'t> {
    if !twin {
        return a.tanh();
    }
    let y = a.value().tanh();
    let yc = y.clone();
    a.tape().custom(&[a], y, move |g, _| {
        vec![Some(g.mul(&yc.square().neg().add_scalar(1.0)))]
    })
}

/// Builds a random tape from `seed`: `leaves` leaves of shape `[3, 3]`
/// (and as many bias vectors) of the given kinds, then `ops` random ops
/// over earlier values, among them the hand-written ones (executor
/// propagation, aggregate-first GCN, `scale_by_scalar`, the baseline's
/// edge-parallel propagation) and the fused ones (one-pass sigmoid/tanh
/// backwards, the GRU update `mix`, the parts `Linear`). The `twin`
/// registers constants as inputs and builds each fused op as the
/// composition it replaces. Runs backward from the weighted sum of every
/// op output and returns the bits of every op value, then of every
/// gradient of a leaf that is an input or parameter in the original tape
/// (`None` where none arrived), then the GCN's and the dense layer's
/// parameter gradients.
fn pruning_tape(seed: u64, kinds: &[Leaf], ops: usize, twin: bool) -> Vec<Option<Vec<u32>>> {
    const N: usize = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let edges = [(0, 1), (1, 2), (2, 0), (0, 2)];
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Static(Snapshot::from_edges(N, &edges)),
    );
    let coo = pygt_baseline::CooGraph::new(N, &edges);
    let prop = GcnPropagate::new(N);
    let mut conv_params = ParamSet::new();
    let conv = GcnConv::new(
        &mut conv_params,
        "g",
        2,
        N,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    perturb(&conv_params, seed);
    let mut lin_params = ParamSet::new();
    let lin = Linear::new(
        &mut lin_params,
        "l",
        2 * N,
        N,
        true,
        &mut ChaCha8Rng::seed_from_u64(seed + 1),
    );
    perturb(&lin_params, seed + 1);

    let tape = Tape::new();
    enum Sink {
        Input(InputGrad),
        Param(Param),
        None,
    }
    let mut sinks = Vec::new();
    let mut leaf = |kind: Leaf, value: Tensor| {
        let (var, sink) = match kind {
            Leaf::Constant if !twin => (tape.constant(value), Sink::None),
            Leaf::Constant => (tape.input(value).0, Sink::None),
            Leaf::Input => {
                let (v, g) = tape.input(value);
                (v, Sink::Input(g))
            }
            Leaf::Param => {
                let p = Param::new("p", value);
                (tape.param(&p), Sink::Param(p))
            }
        };
        sinks.push(sink);
        var
    };
    let mut vals: Vec<Var> = Vec::new();
    let mut biases: Vec<Var> = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        vals.push(leaf(
            kind,
            test_tensor(Shape::Mat(N, N), seed + 2 * i as u64),
        ));
        biases.push(leaf(
            kind,
            test_tensor(Shape::Vec(N), seed + 2 * i as u64 + 1),
        ));
    }
    let mut loss: Option<Var> = None;
    for _ in 0..ops {
        let a = &vals[rng.gen_range(0..vals.len())];
        let b = &vals[rng.gen_range(0..vals.len())];
        let y = match rng.gen_range(0..14) {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            3 => a.matmul(b),
            4 => {
                let lo = rng.gen_range(0..=N);
                Var::concat_cols(&[a, b]).slice_cols(lo, lo + N)
            }
            5 => sigmoid(a, twin),
            6 => tanh(a, twin).mul_scalar(-1.5),
            7 => a.add_bias(&biases[rng.gen_range(0..biases.len())]),
            8 => prop.forward(&tape, &exec, 0, a),
            9 => conv.forward(&tape, &exec, 0, &a.slice_cols(0, 2)),
            10 => scale_by_scalar(a, &b.sum()),
            11 => pygt_baseline::propagate(&tape, &coo, a),
            12 => {
                // A GRU update: a fresh gate, `a` as the carried state and
                // a fresh candidate (as in every cell that records one).
                let z = sigmoid(&vals[rng.gen_range(0..vals.len())], twin);
                let htilde = tanh(b, twin);
                if twin {
                    z.mul(a).add(&z.one_minus().mul(&htilde))
                } else {
                    z.mix(a, &htilde)
                }
            }
            _ => {
                if twin {
                    lin.forward(&tape, &Var::concat_cols(&[a, b]))
                } else {
                    lin.forward_parts(&tape, &[a, b])
                }
            }
        };
        let l = weighted(&y);
        loss = Some(match loss {
            Some(acc) => acc.add(&l),
            None => l,
        });
        vals.push(y);
    }
    tape.backward(&loss.expect("at least one op"));
    let (pushes, pops, _, bytes) = exec.state_stack_stats();
    assert_eq!((pushes - pops, bytes), (0, 0), "the stack must drain");
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out: Vec<Option<Vec<u32>>> = vals[kinds.len()..]
        .iter()
        .map(|v| Some(bits(v.value())))
        .collect();
    out.extend(sinks.iter().filter_map(|s| match s {
        Sink::Input(g) => Some(g.get().map(|t| bits(&t))),
        Sink::Param(p) => Some(Some(bits(&p.grad()))),
        Sink::None => None,
    }));
    out.extend(conv_params.iter().map(|p| Some(bits(&p.grad()))));
    out.extend(lin_params.iter().map(|p| Some(bits(&p.grad()))));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruning and fusion are invisible to every value and gradient that
    /// is read: turning each constant into an input (nothing pruned) and
    /// each fused op into its composition changes no value, input or
    /// parameter gradient bit.
    #[test]
    fn pruned_backward_matches_the_unpruned_twin(
        seed in 0u64..1_000_000,
        kinds in prop::collection::vec(0usize..3, 1..5),
        ops in 1usize..12,
    ) {
        let kinds: Vec<Leaf> = kinds
            .into_iter()
            .map(|k| [Leaf::Constant, Leaf::Input, Leaf::Param][k])
            .collect();
        let pruned = pruning_tape(seed, &kinds, ops, false);
        let twin = pruning_tape(seed, &kinds, ops, true);
        prop_assert!(pruned == twin, "seed {} kinds {} ops {}", seed, kinds.len(), ops);
    }
}
