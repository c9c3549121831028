//! Property-based tests for the online-learning subsystem:
//!
//! * **Sampling is schedule-independent** — `ReplayBuffer::sample` is a
//!   pure function of `(seed, k, buffer contents)`: each output index
//!   draws from its own splitmix64-derived ChaCha8 stream, so rayon's
//!   worker schedule can never leak into the result. Observable as exact
//!   repeat-call equality, prefix-stability in `k`, and independence from
//!   how the same contents were pushed.
//! * **Publishes are atomic** — a reader pinned to weight generation `G`
//!   (an `Arc` clone of the published dict, as a mid-forward query holds)
//!   never observes a single bit from generation `G+1`, no matter how many
//!   steps and publishes follow.
//! * **Eviction is exact** — the buffer matches a straight-line reference
//!   model: only the staleness rule and the capacity rule ever drop
//!   entries, and an event newer than the staleness bound is never dropped
//!   while the buffer is under capacity.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph_datasets::TimedEdge;
use stgraph_dyngraph::DtdgSource;
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::{OnlineConfig, OnlineTrainer, ReplayBuffer};
use stgraph_tensor::Tensor;

/// Raw push ops: (time delta, src, dst). Deltas of zero exercise same-tick
/// pushes; the occasional large delta exercises mass staleness eviction.
fn ops_strategy() -> impl Strategy<Value = Vec<(u64, u32, u32)>> {
    prop::collection::vec(
        (
            prop_oneof![Just(0u64), 1u64..40, 200u64..400],
            0u32..24,
            0u32..24,
        ),
        1..200,
    )
}

/// The reference model: a plain Vec driven by the two documented rules.
fn reference(cap: usize, staleness_ms: u64, ops: &[(u64, u32, u32)]) -> (Vec<TimedEdge>, u64) {
    let mut now = 0u64;
    let mut kept: Vec<TimedEdge> = Vec::new();
    let mut t_raw = 0u64;
    for &(dt, src, dst) in ops {
        t_raw += dt;
        let t = t_raw.max(now);
        now = t;
        let cutoff = now.saturating_sub(staleness_ms);
        kept.retain(|e| e.t >= cutoff);
        if kept.len() == cap {
            kept.remove(0);
        }
        kept.push(TimedEdge { src, dst, t });
    }
    (kept, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampling property (a): pure in `(seed, k, contents)`. Repeat calls
    /// are bitwise equal; a shorter sample is a strict prefix of a longer
    /// one (each index owns its stream, so no cross-index coupling exists
    /// for a schedule to perturb); and two buffers holding identical
    /// contents — however they got there — sample identically.
    #[test]
    fn replay_sampling_is_schedule_independent(
        ops in ops_strategy(),
        seed in any::<u64>(),
        k in 1usize..64,
    ) {
        let mut a = ReplayBuffer::new(64, u64::MAX);
        for &(dt, src, dst) in &ops {
            let t = a.now_ms() + dt;
            a.push(t, src, dst);
        }
        // Same contents via a different push schedule: replay the buffer's
        // own entries one by one into a fresh buffer.
        let mut b = ReplayBuffer::new(64, u64::MAX);
        for e in a.iter() {
            b.push(e.t, e.src, e.dst);
        }
        prop_assert_eq!(a.len(), b.len());

        let s1 = a.sample(seed, k);
        let s2 = a.sample(seed, k);
        prop_assert_eq!(&s1, &s2, "repeat call must be bitwise equal");
        let s3 = b.sample(seed, k);
        prop_assert_eq!(&s1, &s3, "same contents must sample identically");
        let longer = a.sample(seed, k + 17);
        prop_assert_eq!(&longer[..k], &s1[..], "per-index streams: prefix-stable in k");
        // Every draw is a real buffered entry.
        let held: Vec<TimedEdge> = a.iter().copied().collect();
        for e in &s1 {
            prop_assert!(held.contains(e), "sampled entry {e:?} not in buffer");
        }
    }

    /// Eviction property (c): the buffer tracks the reference model
    /// exactly, never retains anything past the staleness bound, and never
    /// drops a fresh entry while under capacity.
    #[test]
    fn eviction_matches_the_reference_model(
        ops in ops_strategy(),
        cap in 1usize..48,
        staleness_ms in prop_oneof![Just(u64::MAX), 0u64..600],
    ) {
        let mut buf = ReplayBuffer::new(cap, staleness_ms);
        let mut t_raw = 0u64;
        for &(dt, src, dst) in &ops {
            t_raw += dt;
            buf.push(t_raw, src, dst);
        }
        let (want, now) = reference(cap, staleness_ms, &ops);
        let got: Vec<TimedEdge> = buf.iter().copied().collect();
        prop_assert_eq!(&got, &want, "buffer diverged from reference model");
        prop_assert_eq!(buf.now_ms(), now);
        prop_assert!(got.len() <= cap);
        // Nothing staler than the bound survives the final clock...
        let cutoff = now.saturating_sub(staleness_ms);
        for e in &got {
            prop_assert!(e.t >= cutoff, "stale entry {e:?} retained (cutoff {cutoff})");
        }
        // ...and while under capacity, every fresh event survives: the
        // buffer holds exactly the newest min(cap, fresh) pushes.
        let (unbounded, _) = reference(usize::MAX, staleness_ms, &ops);
        let fresh: Vec<TimedEdge> =
            unbounded.into_iter().filter(|e| e.t >= cutoff).collect();
        let keep = fresh.len().min(cap);
        prop_assert_eq!(&got[..], &fresh[fresh.len() - keep..],
            "a fresh event was dropped under capacity");
        // Accounting: every push either survives or is attributed to
        // exactly one eviction rule.
        prop_assert_eq!(
            got.len() as u64 + buf.evicted_stale() + buf.evicted_cap(),
            ops.len() as u64
        );
    }
}

proptest! {
    // Trainer cases run real forward/backward steps — fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Publish property (b): a reader pinned to generation `G` holds a
    /// frozen, whole weight dict — later steps and publishes (generation
    /// `G+1` and beyond) never mutate it in place.
    #[test]
    fn pinned_generation_never_observes_future_weights(
        seed in any::<u64>(),
        node_mod in 6u32..14,
        dst_mod in 3u32..7,
    ) {
        // Explicit snapshots whose edge sets shift every generation, so
        // each diff is guaranteed non-empty additions (steps always run).
        let num_nodes = (node_mod + 20) as usize;
        let snaps: Vec<Vec<(u32, u32)>> = (0..6u32)
            .map(|t| {
                (0..node_mod)
                    .flat_map(|s| {
                        (0..dst_mod).map(move |j| (s, node_mod + ((s * 3 + j * 5 + t) % 20)))
                    })
                    .collect()
            })
            .collect();
        let src = DtdgSource::from_snapshot_edges(num_nodes, snaps);

        let cfg = OnlineConfig { seed, batch_size: 8, ..OnlineConfig::default() };
        let mut t = OnlineTrainer::new("tgcn", 3, 4, num_nodes, cfg).expect("tgcn");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFEED);
        let feats = Tensor::rand_uniform((num_nodes, 3), -1.0, 1.0, &mut rng);

        let mut live = LiveGraph::from_source(&src);
        // Pin every generation as it is published, with a bit-copy taken
        // at pin time.
        let mut pinned = vec![(t.published(), t.published().entries.clone())];
        for batch in src.diffs() {
            live.apply(&batch);
            let (_, snap) = live.snapshot();
            t.on_advance(live.generation(), &batch, snap, &feats).expect("no faults planned");
            pinned.push((t.published(), t.published().entries.clone()));
        }
        prop_assert!(t.steps() > 0, "stream produced no steps");

        // Distinct generations must actually differ (a publish that did
        // not change the weights would make this property vacuous)...
        let last = &pinned[pinned.len() - 1].0;
        let first = &pinned[0].0;
        prop_assert!(last.weight_generation > first.weight_generation);
        // ...and every pinned view must be bitwise identical to the copy
        // taken when it was pinned: no later generation leaked in.
        for (arc, copy) in &pinned {
            prop_assert_eq!(arc.entries.len(), copy.len());
            for ((an, ash, av), (bn, bsh, bv)) in arc.entries.iter().zip(copy) {
                prop_assert_eq!(an, bn);
                prop_assert_eq!(ash, bsh);
                let a_bits: Vec<u32> = av.iter().map(|x| x.to_bits()).collect();
                let b_bits: Vec<u32> = bv.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(a_bits, b_bits, "generation {} mutated in place",
                    arc.weight_generation);
            }
        }
    }
}
