//! End-to-end autodiff checks across crate boundaries: gradients flowing
//! through on-demand GPMA snapshots, Algorithm-1 BPTT semantics, and the
//! saved-set mechanics under both backends.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph_dyngraph::{DtdgSource, GpmaGraph};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::autograd::check::{assert_close, numeric_grad};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{Tape, Tensor, Var};

fn dyn_source() -> DtdgSource {
    DtdgSource::from_snapshot_edges(
        8,
        vec![
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (7, 1),
                (0, 4),
            ],
            vec![
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (7, 1),
                (0, 4),
                (2, 6),
            ],
        ],
    )
}

/// A 3-step TGCN over an evolving graph; loss vs a fixed target. The
/// inputs are differentiable, so every propagation has a backward that
/// rewinds the store.
fn dyn_loss(cell: &Tgcn, exec: &TemporalExecutor, feats: &[Tensor], target: &Tensor) -> f32 {
    let tape = Tape::new();
    let mut h: Option<Var> = None;
    for (t, x) in feats.iter().enumerate() {
        let (xv, _) = tape.input(x.clone());
        h = Some(cell.step(&tape, exec, t, &xv, h.as_ref()));
    }
    let loss = h.unwrap().mse_loss(target);
    let v = loss.value().item();
    tape.backward(&loss);
    v
}

#[test]
fn gradients_through_on_demand_snapshots_match_numerics() {
    // The hardest path in the system: BPTT through three timestamps where
    // each backward step rewinds the GPMA before running its kernels.
    let src = dyn_source();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", 3, 4, &mut rng);
    let feats: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform((8, 3), -1.0, 1.0, &mut rng))
        .collect();
    let target = Tensor::rand_uniform((8, 4), -1.0, 1.0, &mut rng);

    let fresh_exec = || {
        TemporalExecutor::new(
            create_backend("seastar"),
            GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src)))),
        )
    };
    ps.zero_grad();
    dyn_loss(&cell, &fresh_exec(), &feats, &target);

    // Check one parameter from each part of the cell.
    for p in [cell.conv_z_weight(), cell.lin_h_weight()] {
        let analytic = p.grad();
        let p0 = p.value();
        let mut f = |w: &Tensor| {
            p.set_value(w.clone());
            let exec = fresh_exec();
            // Fresh ParamSet grads are irrelevant; we only read the value.
            let tape = Tape::new();
            let mut h: Option<Var> = None;
            for (t, x) in feats.iter().enumerate() {
                let (xv, _) = tape.input(x.clone());
                h = Some(cell.step(&tape, &exec, t, &xv, h.as_ref()));
            }
            let loss = h.unwrap().mse_loss(&target);
            let v = loss.value().item();
            tape.backward(&loss.mul_scalar(0.0));
            v
        };
        let numeric = numeric_grad(&mut f, &p0, 1e-2);
        p.set_value(p0);
        assert_close(&analytic, &numeric, 3e-2);
    }
}

#[test]
fn algorithm1_sequence_loss_equals_sum_of_per_timestamp_losses() {
    // Forward over a sequence accumulates per-timestamp losses; the value
    // must equal computing each timestamp independently (forward is
    // deterministic and hidden-state chaining is the only coupling).
    let snap = Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", 2, 3, &mut rng);
    let feats: Vec<Tensor> = (0..4)
        .map(|_| Tensor::rand_uniform((6, 2), -1.0, 1.0, &mut rng))
        .collect();

    // Accumulated on one tape.
    let tape = Tape::new();
    let mut h: Option<Var> = None;
    let mut acc = 0.0f32;
    let mut acc_var: Option<Var> = None;
    for (t, x) in feats.iter().enumerate() {
        let xv = tape.constant(x.clone());
        let hn = cell.step(&tape, &exec, t, &xv, h.as_ref());
        let l = hn.square().sum();
        acc += l.value().item();
        acc_var = Some(match acc_var {
            Some(a) => a.add(&l),
            None => l,
        });
        h = Some(hn);
    }
    let total = acc_var.unwrap();
    assert!((total.value().item() - acc).abs() < 1e-3 * (1.0 + acc.abs()));
    tape.backward(&total);

    // Recomputed step-by-step with detached hidden values: forward values
    // must agree exactly.
    let exec2 = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Static(Snapshot::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        )),
    );
    let mut h_val: Option<Tensor> = None;
    let mut acc2 = 0.0f32;
    for (t, x) in feats.iter().enumerate() {
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let hv = h_val.map(|t| tape.constant(t));
        let hn = cell.step(&tape, &exec2, t, &xv, hv.as_ref());
        let l = hn.square().sum();
        acc2 += l.value().item();
        h_val = Some(hn.value().clone());
        tape.backward(&l.mul_scalar(0.0));
    }
    assert!(
        (acc - acc2).abs() < 1e-3 * (1.0 + acc.abs()),
        "{acc} vs {acc2}"
    );
}

#[test]
fn backward_snapshot_direction_is_exercised() {
    // Force a multi-sequence run and verify the GPMA actually rewound:
    // after backward of a sequence the provider must sit at the sequence's
    // first timestamp.
    let src = dyn_source();
    let provider = Rc::new(RefCell::new(GpmaGraph::new(&src)));
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Dynamic(provider.clone()),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", 2, 3, &mut rng);
    let feats: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform((8, 2), -1.0, 1.0, &mut rng))
        .collect();
    let tape = Tape::new();
    let mut h: Option<Var> = None;
    let mut loss: Option<Var> = None;
    for (t, x) in feats.iter().enumerate() {
        // A differentiable input: a propagation over constants would be
        // forward-only and never rewind.
        let (xv, _) = tape.input(x.clone());
        let hn = cell.step(&tape, &exec, t, &xv, h.as_ref());
        let l = hn.square().sum();
        loss = Some(match loss {
            Some(a) => a.add(&l),
            None => l,
        });
        h = Some(hn);
    }
    assert_eq!(
        provider.borrow().current_time(),
        2,
        "forward ends at the last timestamp"
    );
    tape.backward(&loss.unwrap());
    assert_eq!(
        provider.borrow().current_time(),
        0,
        "backward rewinds to the first"
    );
}

#[test]
fn both_backends_produce_equal_gradients() {
    let snap = Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let x = Tensor::rand_uniform((5, 3), -1.0, 1.0, &mut rng);
    let target = Tensor::rand_uniform((5, 4), -1.0, 1.0, &mut rng);
    let grads_for = |backend: &str| -> Vec<Tensor> {
        let exec = TemporalExecutor::new(
            create_backend(backend),
            GraphSource::Static(Snapshot::from_edges(
                5,
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)],
            )),
        );
        let _ = &snap;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "t", 3, 4, &mut rng);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let h = cell.step(&tape, &exec, 0, &xv, None);
        let loss = h.mse_loss(&target);
        tape.backward(&loss);
        ps.iter().map(|p| p.grad()).collect()
    };
    let a = grads_for("seastar");
    let b = grads_for("reference");
    for (ga, gb) in a.iter().zip(&b) {
        assert!(
            ga.approx_eq(gb, 1e-4),
            "backend gradient mismatch: {}",
            ga.max_abs_diff(gb)
        );
    }
}
