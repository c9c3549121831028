//! End-to-end DTDG consistency: NaiveGraph (precomputed snapshots) and
//! GPMAGraph (on-demand snapshots from a base graph + updates) must be
//! observationally identical through the whole stack — same snapshots,
//! same training losses, balanced stacks — across sequences and epochs.
//! This is the central correctness claim behind §V.C/§V.D.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use stgraph::backend::{create_backend, AggregationBackend, SeastarBackend};
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::layers::GcnPropagate;
use stgraph::tgnn::{GConvGru, GConvLstm, RecurrentCell, Tgcn};
use stgraph::train::{link_prediction_batches, train_epoch_link_prediction};
use stgraph_datasets::load_dynamic;
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph, NaiveGraph};
use stgraph_graph::base::STGraphBase;
use stgraph_pma::Gpma;
use stgraph_seastar::exec::ExecOutput;
use stgraph_seastar::ir::{Id, Program};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{Tape, Tensor, Var};

fn windowed_source(name: &str, pct: f64, max_t: usize) -> DtdgSource {
    let raw = load_dynamic(name, 300);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, pct);
    src.snapshots.truncate(max_t);
    src
}

#[test]
fn snapshots_agree_on_generated_dataset() {
    let src = windowed_source("sx-mathoverflow", 10.0, 8);
    let mut naive = NaiveGraph::new(&src);
    let mut gpma = GpmaGraph::new(&src);
    // Forward sweep, then backward sweep, then a second epoch.
    for _ in 0..2 {
        for t in 0..src.num_timestamps() {
            assert!(
                gpma.get_graph(t).same_structure(&naive.get_graph(t)),
                "forward divergence at t={t}"
            );
        }
        for t in (0..src.num_timestamps()).rev() {
            assert!(
                gpma.get_backward_graph(t)
                    .same_structure(&naive.get_backward_graph(t)),
                "backward divergence at t={t}"
            );
        }
    }
}

/// Positive edges per timestamp in [`train_losses_seq`]'s batches.
const MAX_POS: usize = 512;
/// Hidden width of [`train_losses_seq`]'s TGCN.
const HIDDEN: usize = 8;

fn train_losses(src: &DtdgSource, provider: Rc<RefCell<dyn DtdgGraph>>, epochs: usize) -> Vec<f32> {
    train_losses_seq(src, provider, epochs, 4)
}

fn train_losses_seq(
    src: &DtdgSource,
    provider: Rc<RefCell<dyn DtdgGraph>>,
    epochs: usize,
    seq_len: usize,
) -> Vec<f32> {
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Dynamic(provider));
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "t", 6, HIDDEN, &mut rng);
    let mut opt = Adam::new(ps, 0.01);
    let feats = {
        let mut frng = ChaCha8Rng::seed_from_u64(78);
        Tensor::rand_uniform((src.num_nodes, 6), -1.0, 1.0, &mut frng)
    };
    let batches = link_prediction_batches(src, MAX_POS, 9);
    let losses: Vec<f32> = (0..epochs)
        .map(|_| train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, seq_len))
        .collect();
    let (pushes, pops, _, live) = exec.state_stack_stats();
    assert_eq!(pushes, pops, "state stack must balance");
    assert_eq!(live, 0);
    assert_eq!(exec.graph_stack_stats().2, 0, "graph stack must drain");
    losses
}

fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins the PMA slot layout under the benchmark's DTDG traffic: SO at
/// scale 48, 5 % windows, 20 timestamps, keyed reverse-first as
/// `DtdgStore` keys them, replayed forward and then back one store apply
/// (insert, then delete) at a time. Capacity, segment length and every
/// key slot are hashed after each batch, so a batch-path change that
/// moves one key, or one density or rebalance decision, fails here.
#[test]
fn store_traffic_slot_layout_is_pinned() {
    let raw = load_dynamic("SO", 48);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, 5.0);
    src.snapshots.truncate(20);
    let rev = |edges: &[(u32, u32)]| edges.iter().map(|&(u, v)| (v, u)).collect::<Vec<_>>();
    let diffs: Vec<_> = src
        .diffs()
        .iter()
        .map(|d| (rev(&d.additions), rev(&d.deletions)))
        .collect();
    let mut g = Gpma::from_edges(src.num_nodes, &rev(&src.snapshots[0]));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut pin = |g: &Gpma| {
        let pma = g.pma();
        h = fnv1a(h, [pma.capacity() as u64, pma.segment_len() as u64]);
        h = fnv1a(h, pma.key_slots().iter().copied());
    };
    pin(&g);
    let forward = diffs.iter().map(|(a, d)| (a, d));
    let back = diffs.iter().rev().map(|(a, d)| (d, a));
    for (ins, del) in forward.chain(back) {
        g.insert_edges(ins);
        pin(&g);
        g.delete_edges(del);
        pin(&g);
    }
    g.pma().check_invariants();
    assert_eq!(g.edges(), {
        let mut base = rev(&src.snapshots[0]);
        base.sort_unstable();
        base.dedup();
        base
    });
    assert_eq!(h, 0xfcaa_131f_90f0_f41c);
}

#[test]
fn training_losses_identical_naive_vs_gpma() {
    let src = windowed_source("reddit-title", 8.0, 10);
    // Every timestamp's edge gather and its scatter-add backward sit above
    // the parallel cutover, so this also pins thread-count independence
    // (CI runs it at 2 and 4 threads).
    let pairs = link_prediction_batches(&src, MAX_POS, 9)
        .iter()
        .map(|b| b.src.len())
        .min();
    assert!(
        pairs.unwrap() * HIDDEN >= stgraph_tensor::par_min(),
        "{pairs:?} pairs"
    );
    let naive = train_losses(&src, Rc::new(RefCell::new(NaiveGraph::new(&src))), 3);
    let gpma = train_losses(&src, Rc::new(RefCell::new(GpmaGraph::new(&src))), 3);
    let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&naive),
        bits(&gpma),
        "naive {naive:?} vs gpma {gpma:?}"
    );
    // And training makes progress.
    assert!(gpma.last().unwrap() < gpma.first().unwrap());
}

#[test]
fn gpma_losses_deterministic_across_runs() {
    let src = windowed_source("sx-superuser", 10.0, 6);
    let a = train_losses(&src, Rc::new(RefCell::new(GpmaGraph::new(&src))), 2);
    let b = train_losses(&src, Rc::new(RefCell::new(GpmaGraph::new(&src))), 2);
    assert_eq!(a, b, "full GPMA pipeline must be deterministic");
}

#[test]
fn gconvgru_works_on_dynamic_graphs_too() {
    // The layer zoo is graph-source-agnostic: a ChebConv-gated GRU trains
    // over on-demand snapshots just like TGCN.
    let src = windowed_source("wiki-talk-temporal", 10.0, 6);
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Dynamic(Rc::new(RefCell::new(GpmaGraph::new(&src)))),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(79);
    let mut ps = ParamSet::new();
    let cell = GConvGru::new(&mut ps, "g", 4, 6, 2, &mut rng);
    let mut opt = Adam::new(ps, 0.01);
    let feats = Tensor::rand_uniform((src.num_nodes, 4), -1.0, 1.0, &mut rng);
    let batches = link_prediction_batches(&src, 64, 3);
    let first = train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 3);
    let mut last = first;
    for _ in 0..4 {
        last = train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &batches, 3);
    }
    assert!(last < first, "loss should decrease: {first} -> {last}");
}

/// Seastar behind a launch counter (the `examples/custom_backend.rs` shape).
struct CountingBackend(Arc<AtomicUsize>);

impl AggregationBackend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput {
        self.0.fetch_add(1, Ordering::Relaxed);
        // Every forward and backward launch of every cell below: the
        // parameter is reserved, so a later PR may drop it from the trait.
        assert!(mat_consts.is_empty(), "executor passed a mat-const");
        SeastarBackend.execute(
            prog,
            graph,
            inputs,
            node_consts,
            edge_consts,
            mat_consts,
            save,
        )
    }
}

/// Three steps of `cell` over constant features on `provider`, then
/// backward. Returns `(forward launches, backward launches, loss bits)`
/// and checks that every backward launch had one State-Stack push + pop
/// and one Graph-Stack entry, and both stacks drained: forward-only
/// launches (propagations of constants) push nothing.
fn launches(
    cell: &dyn RecurrentCell,
    feats: &Tensor,
    provider: Rc<RefCell<dyn DtdgGraph>>,
) -> (usize, usize, u32) {
    const STEPS: usize = 3;
    let count = Arc::new(AtomicUsize::new(0));
    let exec = TemporalExecutor::new(
        Box::new(CountingBackend(count.clone())),
        GraphSource::Dynamic(provider),
    );
    let tape = Tape::new();
    let x = tape.constant(feats.clone());
    let mut h = None;
    for t in 0..STEPS {
        h = Some(cell.step(&tape, &exec, t, &x, h.as_ref()));
    }
    let forward = count.load(Ordering::Relaxed);
    let loss = h.unwrap().square().sum();
    tape.backward(&loss);
    let backward = count.load(Ordering::Relaxed) - forward;
    let (pushes, pops, _, live) = exec.state_stack_stats();
    assert_eq!((pushes, pops, live), (backward, backward, 0));
    let (graph_pushes, _, graph_depth) = exec.graph_stack_stats();
    assert_eq!((graph_pushes, graph_depth), (backward, 0));
    (forward, backward, loss.value().item().to_bits())
}

/// Three GCN applications over a `GpmaGraph`. Over constants each is one
/// forward launch and nothing else: no stack entry, no backward launch,
/// and the store stays at the last forward timestamp. The same inputs
/// registered with `tape.input` take the Algorithm-1 path: one frame and
/// one Graph-Stack entry per application, one backward launch each, and
/// the store rewound to the first timestamp.
#[test]
fn constant_inputs_are_forward_only_and_never_rewind() {
    let src = windowed_source("sx-mathoverflow", 10.0, 3);
    let prop = GcnPropagate::new(2);
    for differentiable in [false, true] {
        let provider = Rc::new(RefCell::new(GpmaGraph::new(&src)));
        let count = Arc::new(AtomicUsize::new(0));
        let exec = TemporalExecutor::new(
            Box::new(CountingBackend(count.clone())),
            GraphSource::Dynamic(provider.clone()),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let tape = Tape::new();
        let mut loss: Option<Var> = None;
        for t in 0..3 {
            let x = Tensor::rand_uniform((src.num_nodes, 2), -1.0, 1.0, &mut rng);
            let xv = if differentiable {
                tape.input(x).0
            } else {
                tape.constant(x)
            };
            let y = prop.forward(&tape, &exec, t, &xv);
            assert_eq!(y.requires_grad(), differentiable);
            let l = y.square().sum();
            loss = Some(match loss {
                Some(a) => a.add(&l),
                None => l,
            });
        }
        let per_apply = usize::from(differentiable);
        assert_eq!(exec.state_stack_stats().0, 3 * per_apply);
        assert_eq!(exec.graph_stack_stats().0, 3 * per_apply);
        assert_eq!(count.load(Ordering::Relaxed), 3, "one forward launch each");
        tape.backward(&loss.unwrap());
        assert_eq!(count.load(Ordering::Relaxed), 3 + 3 * per_apply);
        let (pushes, pops, _, bytes) = exec.state_stack_stats();
        assert_eq!(
            (pushes - pops, bytes, exec.graph_stack_stats().2),
            (0, 0, 0)
        );
        let want = if differentiable { 0 } else { 2 };
        assert_eq!(provider.borrow().current_time(), want);
    }
}

#[test]
fn cells_propagate_once_per_distinct_input_and_timestamp() {
    let src = windowed_source("sx-mathoverflow", 10.0, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(80);
    let feats = Tensor::rand_uniform((src.num_nodes, 4), -1.0, 1.0, &mut rng);
    let mut ps = ParamSet::new();
    // (cell, forward launches per step, backward launches over the three
    // steps): TGCN shares one propagation between its three gates on either
    // side of the width rule; the Chebyshev cells run K - 1 per distinct
    // basis — x, h and r⊙h for the GRU, x and h for the LSTM (six and eight
    // convolutions before the bases were shared). Only a propagation whose
    // input needs a gradient launches backward: never x (constant), h from
    // the second step on (the first is the constant zero state), r⊙h always.
    let cells: Vec<(Box<dyn RecurrentCell>, usize, usize)> = vec![
        (Box::new(Tgcn::new(&mut ps, "a", 4, 8, &mut rng)), 1, 0),
        (Box::new(Tgcn::new(&mut ps, "b", 4, 3, &mut rng)), 1, 0),
        (
            Box::new(GConvGru::new(&mut ps, "c", 4, 6, 3, &mut rng)),
            3 * 2,
            2 * 2 + 3 * 2,
        ),
        (
            Box::new(GConvLstm::new(&mut ps, "d", 4, 6, 2, &mut rng)),
            2,
            2,
        ),
    ];
    for (cell, per_step, backward) in &cells {
        let naive = launches(cell, &feats, Rc::new(RefCell::new(NaiveGraph::new(&src))));
        let gpma = launches(cell, &feats, Rc::new(RefCell::new(GpmaGraph::new(&src))));
        assert_eq!((naive.0, naive.1), (3 * per_step, *backward));
        assert_eq!(
            naive, gpma,
            "GPMA must match Naive launch for launch, bit for bit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The serve-side ingest pipeline is a third observationally-identical
    /// DTDG consumer: replaying `DtdgSource::diffs()` through
    /// `LiveGraph::apply` under the generation guard reconstructs every
    /// snapshot exactly (same labelled edges as `NaiveGraph`), for
    /// arbitrary snapshot sequences.
    #[test]
    fn live_graph_ingest_reconstructs_every_snapshot(
        (n, raw_snaps) in (3usize..16).prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(
                    prop::collection::vec((0..n as u32, 0..n as u32), 1..40),
                    2..7,
                ),
            )
        })
    ) {
        // Snapshots are edge *sets*: dedup what the generator produced.
        let snaps: Vec<Vec<(u32, u32)>> = raw_snaps
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let src = DtdgSource::from_snapshot_edges(n, snaps);
        let naive = NaiveGraph::new(&src);
        let mut live = stgraph_serve::LiveGraph::from_source(&src);
        let (g0, s0) = live.snapshot();
        prop_assert_eq!(g0, 0);
        prop_assert!(s0.same_structure(naive.snapshot(0)));
        for (i, diff) in src.diffs().iter().enumerate() {
            let g = live.apply(diff);
            prop_assert_eq!(g as usize, i + 1);
            let (tagged, snap) = live.snapshot();
            prop_assert_eq!(tagged, g, "snapshot must carry its generation");
            prop_assert!(
                snap.same_structure(naive.snapshot(i + 1)),
                "ingest divergence at generation {}", g
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GpmaGraph at field level: arbitrary snapshot sequences walked
    /// forward, then backward in LIFO order, produce snapshots bitwise
    /// identical to `NaiveGraph` — slot layout and edge ids included.
    #[test]
    fn gpma_graph_bitwise_matches_naive(
        (n, raw_snaps) in (3usize..16).prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(
                    prop::collection::vec((0..n as u32, 0..n as u32), 1..40),
                    2..7,
                ),
            )
        })
    ) {
        let src = DtdgSource::from_snapshot_edges(n, raw_snaps);
        let mut naive = NaiveGraph::new(&src);
        let mut gpma = GpmaGraph::new(&src);
        for t in 0..src.num_timestamps() {
            let want = naive.get_graph(t);
            let got = gpma.get_graph(t);
            prop_assert!(
                got == want,
                "forward snapshot divergence at t={}", t
            );
        }
        // ...then the LIFO backward sweep Algorithm 1 performs.
        for t in (0..src.num_timestamps()).rev() {
            let want = naive.get_backward_graph(t);
            let got = gpma.get_backward_graph(t);
            prop_assert!(
                got == want,
                "backward snapshot divergence at t={}", t
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same store through the `DtdgGraph` path the trainer uses: TGCN
    /// link-prediction losses over `snapshot()` are bitwise `NaiveGraph`'s.
    /// Sequences of two timestamps over >= 3 timestamps and two epochs walk
    /// forward and backward, replay past the rewound position at the second
    /// sequence and rewind across the epoch boundary.
    #[test]
    fn gpma_graph_trains_bitwise_like_naive(
        (n, raw_snaps) in (8usize..16).prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(
                    prop::collection::vec((0..n as u32, 0..n as u32), 1..40),
                    3..7,
                ),
            )
        })
    ) {
        let src = DtdgSource::from_snapshot_edges(n, raw_snaps);
        let bits = |losses: Vec<f32>| losses.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let naive = train_losses_seq(&src, Rc::new(RefCell::new(NaiveGraph::new(&src))), 2, 2);
        let gpma = train_losses_seq(&src, Rc::new(RefCell::new(GpmaGraph::new(&src))), 2, 2);
        prop_assert_eq!(bits(gpma), bits(naive));
    }
}

#[test]
fn sequence_length_does_not_change_snapshot_semantics() {
    // Different Algorithm-1 sequence splits visit the same snapshots; the
    // first-epoch loss (before any optimizer step affects later sequences)
    // summed over timestamps differs only through update timing, not graph
    // content. Verify per-timestamp snapshot equality under both splits.
    let src = windowed_source("sx-stackoverflow", 10.0, 9);
    for seq_len in [1usize, 3, 9] {
        let mut g = GpmaGraph::new(&src);
        let naive = NaiveGraph::new(&src);
        let mut start = 0;
        while start < src.num_timestamps() {
            let end = (start + seq_len).min(src.num_timestamps());
            for t in start..end {
                assert!(g.get_graph(t).same_structure(naive.snapshot(t)));
            }
            for t in (start..end).rev() {
                assert!(g.get_backward_graph(t).same_structure(naive.snapshot(t)));
            }
            start = end;
        }
    }
}
