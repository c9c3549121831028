//! Property-based tests for the temporal neighbor sampler: under
//! arbitrary event streams and query sets, sampling must be
//! deterministic under a fixed seed, must never time-travel, `recent`
//! must return exactly the k most-recent interactions, every sampled
//! entry must exist in a brute-force scan of the event list, and the
//! ragged neighbor aggregation must be bitwise the padded `q × k` one.

use std::rc::Rc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph_ctdg::{
    mean_neighbors, sample, CtdgStore, NeighborSample, SamplerConfig, Strategy as SampleStrategy,
    TCsr, TgnMemory, TgnMemoryConfig,
};
use stgraph_datasets::TimedEdge;
use stgraph_tensor::nn::{Linear, ParamSet};
use stgraph_tensor::{Shape, Tape, Tensor};

const N: u32 = 24;

/// Memory width of the aggregation oracle.
const D: usize = 8;

/// An arbitrary valid event stream: non-decreasing times, no self-loops,
/// nodes in range.
fn stream_strategy() -> impl Strategy<Value = Vec<TimedEdge>> {
    prop::collection::vec((0u32..N, 0u32..N - 1, 0u64..4), 1..300).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(src, d, dt)| {
                t += dt;
                // Skew the raw dst past src to rule out self-loops.
                let dst = if d >= src { d + 1 } else { d };
                TimedEdge { src, dst, t }
            })
            .collect()
    })
}

fn queries_strategy() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..N, 0u64..700), 1..40)
}

fn build(events: &[TimedEdge]) -> TCsr {
    let mut store = CtdgStore::new(N as usize);
    for chunk in events.chunks(17) {
        store.append_batch(chunk);
    }
    store.index().clone()
}

/// Brute force: all interactions of `node` strictly before `t`, as
/// `(neighbor, time, eid)` in event order.
fn history(events: &[TimedEdge], node: u32, t: u64) -> Vec<(u32, u64, u64)> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| (e.src == node || e.dst == node) && e.t < t)
        .map(|(eid, e)| {
            let nbr = if e.src == node { e.dst } else { e.src };
            (nbr, e.t, eid as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sampler_is_deterministic_under_a_fixed_seed(
        events in stream_strategy(),
        queries in queries_strategy(),
        k in 1usize..8,
        seed in any::<u64>(),
        uniform in any::<bool>(),
    ) {
        let index = build(&events);
        let strategy = if uniform { SampleStrategy::Uniform } else { SampleStrategy::Recent };
        let cfg = SamplerConfig { k, strategy, seed };
        let a = sample(&index, &queries, &cfg);
        let b = sample(&index, &queries, &cfg);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sampled_slots_never_time_travel_and_exist_in_the_log(
        events in stream_strategy(),
        queries in queries_strategy(),
        k in 1usize..8,
        seed in any::<u64>(),
        uniform in any::<bool>(),
    ) {
        let index = build(&events);
        let strategy = if uniform { SampleStrategy::Uniform } else { SampleStrategy::Recent };
        let s = sample(&index, &queries, &SamplerConfig { k, strategy, seed });
        // Query `qi` owns exactly `counts[qi]` entries, in query order.
        let v = s.total_valid();
        prop_assert_eq!(s.offsets.len(), queries.len() + 1);
        prop_assert_eq!(s.offsets[0], 0);
        prop_assert_eq!(s.offsets[queries.len()], v);
        prop_assert_eq!((s.times.len(), s.eids.len()), (v, v));
        prop_assert_eq!((s.weights.numel(), s.query.len()), (v, v));
        for (qi, &(node, t)) in queries.iter().enumerate() {
            let oracle = history(&events, node, t);
            prop_assert_eq!(
                s.counts[qi] as usize,
                oracle.len().min(k),
                "valid-count mismatch for query {} ({}, {})", qi, node, t
            );
            prop_assert_eq!(s.offsets[qi + 1] - s.offsets[qi], s.counts[qi] as usize);
            for slot in 0..s.counts[qi] as usize {
                let i = s.offsets[qi] + slot;
                prop_assert_eq!(s.query[i] as usize, qi);
                prop_assert_eq!(s.weights.data()[i], 1.0 / s.counts[qi] as f32);
                // No time travel: strictly before the query time.
                prop_assert!(s.times[i] < t);
                // Oracle membership: the exact (nbr, t, eid) triple is a
                // real interaction of this node.
                prop_assert!(
                    oracle.contains(&(s.nbrs[i], s.times[i], s.eids[i])),
                    "slot {} of query {} not in brute-force history", slot, qi
                );
            }
        }
    }

    #[test]
    fn recent_returns_exactly_the_k_most_recent(
        events in stream_strategy(),
        queries in queries_strategy(),
        k in 1usize..8,
    ) {
        let index = build(&events);
        let s = sample(&index, &queries, &SamplerConfig {
            k,
            strategy: SampleStrategy::Recent,
            seed: 0,
        });
        for (qi, &(node, t)) in queries.iter().enumerate() {
            let oracle = history(&events, node, t);
            let take = oracle.len().min(k);
            let want = &oracle[oracle.len() - take..];
            let got: Vec<(u32, u64, u64)> = (0..take)
                .map(|slot| {
                    let i = s.offsets[qi] + slot;
                    (s.nbrs[i], s.times[i], s.eids[i])
                })
                .collect();
            prop_assert_eq!(
                &got[..], want,
                "recent must be the true {} most-recent, oldest first", take
            );
        }
    }

    #[test]
    fn uniform_draws_k_distinct_events(
        events in stream_strategy(),
        queries in queries_strategy(),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let index = build(&events);
        let s = sample(&index, &queries, &SamplerConfig {
            k,
            strategy: SampleStrategy::Uniform,
            seed,
        });
        for (qi, _) in queries.iter().enumerate() {
            let mut eids: Vec<u64> = (0..s.counts[qi] as usize)
                .map(|slot| s.eids[s.offsets[qi] + slot])
                .collect();
            let before = eids.len();
            eids.sort_unstable();
            eids.dedup();
            prop_assert_eq!(eids.len(), before, "uniform slots must be distinct events");
        }
    }
}

/// The `nbr_proj` layer of the oracle, drawn from `seed` (the same seed
/// gives the same weights in a fresh parameter set).
fn projection(seed: u64, zero_bias: bool) -> Linear {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lin = Linear::new(&mut ParamSet::new(), "nbr_proj", D, D, true, &mut rng);
    if !zero_bias {
        let b = lin.bias.as_ref().unwrap();
        b.set_value(Tensor::rand_uniform(Shape::Vec(D), -1.0, 1.0, &mut rng));
    }
    lin
}

/// The aggregation's value and `proj`'s weight and bias gradients under
/// the upstream gradient `g`, as bits.
fn aggregate_bits(
    proj: &Linear,
    g: &Tensor,
    agg: impl for<'t> FnOnce(&'t Tape) -> stgraph_tensor::Var<'t>,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let tape = Tape::new();
    let out = agg(&tape);
    let value = bits(out.value());
    tape.backward(&out.mul(&tape.constant(g.clone())).sum());
    let dw = bits(&proj.weight.grad());
    let db = bits(&proj.bias.as_ref().unwrap().grad());
    (value, dw, db)
}

/// The padded `q × k` form the ragged batch replaced, rebuilt from its
/// counts: slot `j < count` of query `i` is its `j`-th entry with weight
/// `1 / count`; every other slot reads node 0's row with weight 0. All
/// `q·k` slots fold onto their query.
fn padded_planes(s: &NeighborSample) -> (Vec<u32>, Tensor, Vec<u32>) {
    let (q, k) = (s.counts.len(), s.k);
    let mut nbrs = vec![0u32; q * k];
    let mut weights = vec![0.0f32; q * k];
    for qi in 0..q {
        let c = s.counts[qi] as usize;
        for slot in 0..c {
            nbrs[qi * k + slot] = s.nbrs[s.offsets[qi] + slot];
            weights[qi * k + slot] = 1.0 / c as f32;
        }
    }
    let rows = (0..q * k).map(|i| (i / k) as u32).collect();
    (nbrs, Tensor::from_vec(Shape::Vec(q * k), weights), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `mean_neighbors` over the ragged batch is bitwise the padded
    /// aggregation — value, `nbr_proj` weight gradient and bias gradient.
    /// A padding slot adds `proj(mem[0]) · 0 = ±0` to chains that start at
    /// `+0`, so dropping it may not move one bit. Cases cover queries with
    /// no history (one query always predates the stream), whole batches
    /// with none (`V = 0`), memory rows of ±0 and zero biases.
    #[test]
    fn ragged_aggregation_is_bitwise_the_padded_one(
        events in stream_strategy(),
        mut queries in queries_strategy(),
        k in 1usize..8,
        seed in any::<u64>(),
        uniform in any::<bool>(),
        empty in any::<bool>(),
        zero_bias in any::<bool>(),
        mem in prop::collection::vec((0u8..3, -2.0f32..2.0), N as usize * D),
        g in prop::collection::vec(-1.0f32..1.0, 40 * D),
    ) {
        queries.push((queries[0].0, 0));
        if empty {
            // Nothing predates t = 0: the batch samples no entry.
            queries.iter_mut().for_each(|q| q.1 = 0);
        }
        let index = build(&events);
        let strategy = if uniform { SampleStrategy::Uniform } else { SampleStrategy::Recent };
        let s = sample(&index, &queries, &SamplerConfig { k, strategy, seed });
        prop_assert!(!empty || s.total_valid() == 0);

        let memory = TgnMemory::new(TgnMemoryConfig { num_nodes: N as usize, dim: D, seed });
        let rows: Vec<f32> = mem
            .iter()
            .map(|&(sel, x)| [0.0, -0.0, x][sel as usize])
            .collect();
        let all: Vec<u32> = (0..N).collect();
        memory.commit(&all, &Tensor::from_vec((N as usize, D), rows), &vec![0; N as usize]);
        let q = queries.len();
        let g = Tensor::from_vec((q, D), g[..q * D].to_vec());

        let ragged_proj = projection(seed, zero_bias);
        let ragged = aggregate_bits(&ragged_proj, &g, |tape| {
            mean_neighbors(tape, &ragged_proj, &memory, &s)
        });
        let padded_proj = projection(seed, zero_bias);
        let (nbrs, weights, scatter) = padded_planes(&s);
        let padded = aggregate_bits(&padded_proj, &g, |tape| {
            let x = tape.constant(memory.read_rows(&nbrs));
            padded_proj
                .forward(tape, &x)
                .scale_rows_const(&weights)
                .scatter_add_rows(Rc::new(scatter), q)
        });
        prop_assert_eq!(&ragged.0, &padded.0, "aggregation value");
        prop_assert_eq!(&ragged.1, &padded.1, "nbr_proj weight gradient");
        prop_assert_eq!(&ragged.2, &padded.2, "nbr_proj bias gradient");
    }
}
