//! The paper's memory claims, asserted directly against the byte-accurate
//! tracker rather than eyeballed from plots:
//!
//! * the baseline's duplicated per-edge features scale with sequence
//!   length until backward (Figure 6's steep PyG-T curve), STGraph's State
//!   Stack does not;
//! * NaiveGraph memory grows with the snapshot count, GPMAGraph's stays
//!   near-flat (Figure 8);
//! * the GCN backward saves nothing, so STGraph's retained state for a
//!   whole sequence is orders of magnitude below the baseline's.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph_dyngraph::{DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::mem;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{Tape, Tensor, Var};

fn ring_edges(n: u32, extra: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|i| (1..=extra).map(move |k| (i, (i + k) % n)))
        .collect()
}

/// Runs a TGCN forward over `seq_len` timestamps in a pool, returning the
/// live bytes right before backward (the retention the paper plots).
fn retained_bytes(pool: &str, seq_len: usize, baseline: bool) -> u64 {
    mem::with_pool(pool, || {
        let n = 64;
        let f = 16;
        let edges = ring_edges(n as u32, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let feats: Vec<Tensor> = (0..seq_len)
            .map(|_| Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng))
            .collect();
        let live_before;
        if baseline {
            let graph = pygt_baseline::CooGraph::new(n, &edges);
            let cell = pygt_baseline::BaselineTgcn::new(&mut ps, "t", f, 16, &mut rng);
            let tape = Tape::new();
            let mut h: Option<Var> = None;
            let mut loss: Option<Var> = None;
            for x in &feats {
                let xv = tape.constant(x.clone());
                let hn = cell.step(&tape, &graph, &xv, h.as_ref());
                let l = hn.square().sum();
                loss = Some(match loss {
                    Some(a) => a.add(&l),
                    None => l,
                });
                h = Some(hn);
            }
            live_before = mem::stats(pool).live;
            tape.backward(&loss.unwrap());
        } else {
            let snap = Snapshot::from_edges(n, &edges);
            let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
            let cell = Tgcn::new(&mut ps, "t", f, 16, &mut rng);
            let tape = Tape::new();
            let mut h: Option<Var> = None;
            let mut loss: Option<Var> = None;
            for (t, x) in feats.iter().enumerate() {
                let xv = tape.constant(x.clone());
                let hn = cell.step(&tape, &exec, t, &xv, h.as_ref());
                let l = hn.square().sum();
                loss = Some(match loss {
                    Some(a) => a.add(&l),
                    None => l,
                });
                h = Some(hn);
            }
            live_before = mem::stats(pool).live;
            tape.backward(&loss.unwrap());
        }
        live_before
    })
}

#[test]
fn baseline_retention_grows_faster_with_sequence_length() {
    let b5 = retained_bytes("mem-b5", 5, true);
    let b20 = retained_bytes("mem-b20", 20, true);
    let s5 = retained_bytes("mem-s5", 5, false);
    let s20 = retained_bytes("mem-s20", 20, false);
    // Both grow with sequence length (activations), but the baseline holds
    // duplicated [m, F] messages on top: its absolute retention is larger
    // at every length and its growth is steeper.
    assert!(b5 > s5, "baseline {b5} vs stgraph {s5} at len 5");
    assert!(b20 > s20, "baseline {b20} vs stgraph {s20} at len 20");
    let baseline_growth = (b20 - b5) as f64;
    let stgraph_growth = (s20 - s5) as f64;
    assert!(
        baseline_growth > 1.5 * stgraph_growth,
        "baseline growth {baseline_growth} vs stgraph growth {stgraph_growth}"
    );
}

#[test]
fn state_stack_bytes_match_saved_set_and_drain() {
    // For a pure GCN model the saved set is empty (autodiff proves it);
    // State-Stack bytes during the forward pass must therefore be zero.
    let n = 32;
    let edges = ring_edges(n as u32, 4);
    let snap = Snapshot::from_edges(n, &edges);
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    let conv = stgraph::GcnConv::new(&mut ps, "g", 8, 8, &mut rng);
    let tape = Tape::new();
    // A differentiable input, so every one of the four propagations pushes.
    let (x, _) = tape.input(Tensor::rand_uniform((n, 8), -1.0, 1.0, &mut rng));
    let mut cur = x;
    for t in 0..4 {
        cur = conv.forward(&tape, &exec, t, &cur);
    }
    let (_, _, peak_depth, bytes) = exec.state_stack_stats();
    assert_eq!(peak_depth, 4);
    assert_eq!(
        bytes, 0,
        "GCN backward needs no saved features (the §V.B optimisation)"
    );
    let loss = cur.square().sum();
    tape.backward(&loss);
    let (pushes, pops, _, _) = exec.state_stack_stats();
    assert_eq!(pushes, pops);
}

fn churn_source(n: u32, m0: usize, t: usize) -> DtdgSource {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    use rand::Rng;
    let mut cur: std::collections::BTreeSet<(u32, u32)> = (0..m0)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut snaps = vec![cur.iter().copied().collect::<Vec<_>>()];
    for _ in 1..t {
        let removals: Vec<(u32, u32)> =
            cur.iter().copied().filter(|_| rng.gen_bool(0.03)).collect();
        for r in &removals {
            cur.remove(r);
        }
        for _ in 0..removals.len() {
            cur.insert((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        snaps.push(cur.iter().copied().collect());
    }
    DtdgSource::from_snapshot_edges(n as usize, snaps)
}

#[test]
fn naive_storage_scales_with_timestamps_gpma_does_not() {
    let short = churn_source(400, 6000, 4);
    let long = churn_source(400, 6000, 32);

    let naive_short = mem::with_pool("mem-naive-4", || {
        let _g = NaiveGraph::new(&short);
        mem::stats("mem-naive-4").live
    });
    let naive_long = mem::with_pool("mem-naive-32", || {
        let _g = NaiveGraph::new(&long);
        mem::stats("mem-naive-32").live
    });
    let gpma_short = mem::with_pool("mem-gpma-4", || {
        let _g = GpmaGraph::new(&short);
        mem::stats("mem-gpma-4").live
    });
    let gpma_long = mem::with_pool("mem-gpma-32", || {
        let _g = GpmaGraph::new(&long);
        mem::stats("mem-gpma-32").live
    });

    // Naive grows ~8x going from 4 to 32 snapshots; GPMA stays flat
    // (base graph + update log only).
    assert!(
        naive_long as f64 > 5.0 * naive_short as f64,
        "naive should scale with T: {naive_short} -> {naive_long}"
    );
    assert!(
        (gpma_long as f64) < 2.5 * gpma_short as f64,
        "gpma should stay near-flat: {gpma_short} -> {gpma_long}"
    );
    assert!(
        gpma_long < naive_long,
        "gpma {gpma_long} vs naive {naive_long} at T=32"
    );
}

#[test]
fn gpma_training_peak_stays_below_naive_for_long_dtdgs() {
    // End-to-end peak during training (graph storage + transient
    // snapshots + activations), the Figure 8 measurement.
    let src = churn_source(200, 3000, 24);
    let run = |pool: &str, naive: bool| {
        mem::with_pool(pool, || {
            let source: GraphSource = if naive {
                GraphSource::Dynamic(Rc::new(RefCell::new(NaiveGraph::new(&src))))
            } else {
                GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src))))
            };
            let exec = TemporalExecutor::new(create_backend("seastar"), source);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "t", 4, 8, &mut rng);
            let feats = Tensor::rand_uniform((200, 4), -1.0, 1.0, &mut rng);
            let batches = stgraph::train::link_prediction_batches(&src, 64, 5);
            let mut opt = stgraph_tensor::optim::Adam::new(ps, 0.01);
            mem::reset_peak(pool);
            stgraph::train::train_epoch_link_prediction(
                &cell, &exec, &mut opt, &feats, &batches, 6,
            );
            mem::stats(pool).peak
        })
    };
    let naive_peak = run("mem-train-naive", true);
    let gpma_peak = run("mem-train-gpma", false);
    assert!(
        gpma_peak < naive_peak,
        "gpma peak {gpma_peak} must undercut naive peak {naive_peak}"
    );
}
