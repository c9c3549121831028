//! Property-based tests for the PMA/GPMA substrate: under arbitrary
//! interleaved batch insertions and deletions, the PMA must stay sorted,
//! respect its density invariants, and hold exactly the same key/value set
//! as a BTreeMap model.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use stgraph_pma::{Gpma, Pma};

#[derive(Debug, Clone)]
enum OpBatch {
    Insert(Vec<(u64, u32)>),
    Delete(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = OpBatch> {
    prop_oneof![
        prop::collection::vec((0u64..2000, any::<u32>()), 1..120).prop_map(OpBatch::Insert),
        prop::collection::vec(0u64..2000, 1..120).prop_map(OpBatch::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pma_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut pma = Pma::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in &ops {
            match op {
                OpBatch::Insert(items) => {
                    pma.insert_batch(items);
                    // Batch dedup keeps the FIRST occurrence per key (the
                    // batch is sorted then deduped); replay that.
                    let mut sorted = items.clone();
                    sorted.sort_by_key(|&(k, _)| k);
                    sorted.dedup_by_key(|&mut (k, _)| k);
                    for &(k, v) in &sorted {
                        model.insert(k, v);
                    }
                }
                OpBatch::Delete(keys) => {
                    pma.delete_batch(keys);
                    for k in keys {
                        model.remove(k);
                    }
                }
            }
            pma.check_invariants();
            let got: Vec<(u64, u32)> = pma.iter().collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn pma_point_lookups_agree_with_model(
        items in prop::collection::vec((0u64..500, any::<u32>()), 1..300),
        probes in prop::collection::vec(0u64..600, 1..50),
    ) {
        let mut pma = Pma::new();
        pma.insert_batch(&items);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut sorted = items.clone();
        sorted.sort_by_key(|&(k, _)| k);
        sorted.dedup_by_key(|&mut (k, _)| k);
        for (k, v) in sorted {
            model.insert(k, v);
        }
        for p in probes {
            prop_assert_eq!(pma.get(p), model.get(&p).copied());
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
