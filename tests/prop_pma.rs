//! Property-based tests for the PMA/GPMA substrate: under arbitrary
//! interleaved batch insertions and deletions, the PMA must stay sorted,
//! respect its density invariants, and hold exactly the same key set as a
//! BTreeSet model.

use proptest::prelude::*;
use std::collections::BTreeSet;
use stgraph_pma::{Gpma, Pma};

#[derive(Debug, Clone)]
enum OpBatch {
    Insert(Vec<u64>),
    Delete(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = OpBatch> {
    prop_oneof![
        prop::collection::vec(0u64..2000, 1..120).prop_map(OpBatch::Insert),
        prop::collection::vec(0u64..2000, 1..120).prop_map(OpBatch::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pma_matches_btreeset_model(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut pma = Pma::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for op in &ops {
            match op {
                OpBatch::Insert(keys) => {
                    pma.insert_batch(keys);
                    model.extend(keys);
                }
                OpBatch::Delete(keys) => {
                    pma.delete_batch(keys);
                    for k in keys {
                        model.remove(k);
                    }
                }
            }
            pma.check_invariants();
            let got: Vec<u64> = pma.iter().collect();
            let want: Vec<u64> = model.iter().copied().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(pma.bytes(), pma.capacity() * 8);
        }
    }

    #[test]
    fn pma_point_lookups_agree_with_model(
        keys in prop::collection::vec(0u64..500, 1..300),
        probes in prop::collection::vec(0u64..600, 1..50),
    ) {
        let mut pma = Pma::new();
        pma.insert_batch(&keys);
        let model: BTreeSet<u64> = keys.iter().copied().collect();
        for p in probes {
            prop_assert_eq!(pma.contains(p), model.contains(&p));
        }
    }

    #[test]
    fn gpma_edge_set_matches_model(
        batches in prop::collection::vec(
            prop::collection::vec((0u32..40, 0u32..40), 1..60),
            1..8,
        ),
        delete_mask in prop::collection::vec(any::<bool>(), 8),
    ) {
        let n = 40usize;
        let mut g = Gpma::new(n);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (i, batch) in batches.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] && !model.is_empty() {
                let dels: Vec<(u32, u32)> = model.iter().step_by(3).copied().collect();
                g.delete_edges(&dels);
                for d in &dels {
                    model.remove(d);
                }
            }
            g.insert_edges(batch);
            model.extend(batch.iter().copied());
            g.pma().check_invariants();
            prop_assert_eq!(g.edges(), model.iter().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn gpma_update_then_reverse_update_is_identity(
        base in prop::collection::vec((0u32..30, 0u32..30), 5..80),
        adds in prop::collection::vec((0u32..30, 0u32..30), 1..30),
    ) {
        let base_set: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        let add_set: BTreeSet<(u32, u32)> =
            adds.iter().copied().filter(|e| !base_set.contains(e)).collect();
        let dels: Vec<(u32, u32)> = base_set.iter().step_by(4).copied().collect();

        let mut g = Gpma::from_edges(30, &base_set.iter().copied().collect::<Vec<_>>());
        let before = g.edges();
        // Apply an update batch, then its inverse (the Get-Backward-Graph
        // path), and compare.
        let add_vec: Vec<(u32, u32)> = add_set.iter().copied().collect();
        g.insert_edges(&add_vec);
        g.delete_edges(&dels);
        g.delete_edges(&add_vec);
        g.insert_edges(&dels);
        prop_assert_eq!(g.edges(), before);
        g.pma().check_invariants();
    }
}

/// Largest key the batched-presence test draws at random.
const DOMAIN: u64 = 1 << 20;

/// One batch built against the stored keys: each `(kind, r)` pick is a
/// stored key, a random key (mostly absent), a key below the first stored
/// key, one above the last, or a repeat of the batch's previous pick.
fn batch_against(model: &BTreeSet<u64>, picks: &[(u8, u64)]) -> Vec<u64> {
    let stored: Vec<u64> = model.iter().copied().collect();
    let mut batch: Vec<u64> = Vec::with_capacity(picks.len());
    for &(kind, r) in picks {
        let key = match (kind, stored.first(), stored.last()) {
            (0, Some(_), _) => stored[(r % stored.len() as u64) as usize],
            (2, Some(&first), _) if first > 0 => r % first,
            (3, _, Some(&last)) => last + 1 + r % 64,
            (4, _, _) if !batch.is_empty() => *batch.last().unwrap(),
            _ => r % DOMAIN,
        };
        batch.push(key);
    }
    batch
}

/// `count` keys absent from `model`, spread over the domain.
fn fresh_keys(model: &BTreeSet<u64>, count: usize, seed: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut k = seed % DOMAIN;
    while out.len() < count {
        k = (k + 7919) % (4 * DOMAIN);
        if !model.contains(&k) && !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// The batched presence walk and the per-key binary search must agree
/// with each other and with the model on every key of `batch` and on its
/// neighbours.
fn check_lookups(pma: &Pma, model: &BTreeSet<u64>, batch: &[u64]) {
    let mut probes: Vec<u64> = batch
        .iter()
        .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
        .collect();
    probes.sort_unstable();
    probes.dedup();
    for stored in [true, false] {
        let mut walked = probes.clone();
        pma.retain_sorted(&mut walked, stored);
        let per_key: Vec<u64> = probes
            .iter()
            .copied()
            .filter(|&k| pma.contains(k) == stored)
            .collect();
        let want: Vec<u64> = probes
            .iter()
            .copied()
            .filter(|k| model.contains(k) == stored)
            .collect();
        prop_assert_eq!(&per_key, &want, "contains vs model (stored = {})", stored);
        prop_assert_eq!(
            &walked,
            &want,
            "presence walk vs model (stored = {})",
            stored
        );
    }
}

/// Applies one batch to the PMA and the model and checks everything.
fn apply_batch(pma: &mut Pma, model: &mut BTreeSet<u64>, insert: bool, batch: &[u64]) {
    check_lookups(pma, model, batch);
    if insert {
        pma.insert_batch(batch);
        model.extend(batch.iter().copied());
    } else {
        pma.delete_batch(batch);
        for k in batch {
            model.remove(k);
        }
    }
    pma.check_invariants();
    prop_assert_eq!(
        pma.iter().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    check_lookups(pma, model, batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched insert and delete — duplicates within a batch, stored and
    /// absent keys, keys below the first and above the last stored key —
    /// on an empty PMA, then with every second batch right after a grow
    /// and every third right after a shrink. The model and the per-key
    /// lookups must agree with the batch paths before and after each one.
    #[test]
    fn batches_match_model_and_per_key_lookups(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u8..5, any::<u64>()), 0..60)),
            1..10,
        ),
        seed in any::<u64>(),
    ) {
        let mut pma = Pma::new();
        let mut model = BTreeSet::new();
        for (i, (insert, picks)) in ops.iter().enumerate() {
            let cap = pma.capacity();
            if i % 2 == 1 {
                // More fresh keys than slots: the root must overflow.
                let bulk = fresh_keys(&model, cap, seed ^ i as u64);
                apply_batch(&mut pma, &mut model, true, &bulk);
                prop_assert!(pma.capacity() > cap, "bulk insert did not grow");
            } else if i % 3 == 2 && cap > 16 {
                // Keep under a quarter of the slots: the root must shrink.
                let dels: Vec<u64> = model
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| j % 8 != 0)
                    .map(|(_, &k)| k)
                    .collect();
                apply_batch(&mut pma, &mut model, false, &dels);
                prop_assert!(pma.capacity() < cap, "bulk delete did not shrink");
            }
            let batch = batch_against(&model, picks);
            apply_batch(&mut pma, &mut model, *insert, &batch);
        }
    }
}
