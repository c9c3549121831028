//! Property-based tests on the graph substrate: the parallel Algorithm-3
//! reverse CSR against the sequential oracle, shared edge labelling, and
//! DTDG diff/compose round-trips — on arbitrary generated graphs.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use stgraph_dyngraph::DtdgSource;
use stgraph_graph::base::Snapshot;
use stgraph_graph::csr::{reverse_csr, reverse_csr_sequential, same_rows, Csr};

fn arb_edges(n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reverse_csr_matches_sequential_oracle(edges in arb_edges(50, 400)) {
        let g = Csr::from_edges(50, &edges);
        let seq = reverse_csr_sequential(&g, 50);
        let par = reverse_csr(&g, &seq.degrees());
        prop_assert!(same_rows(&par, &seq));
        prop_assert_eq!(par.num_edges(), edges.len());
    }

    #[test]
    fn reverse_is_involutive(edges in arb_edges(40, 300)) {
        // Reversing twice yields the original labelled adjacency.
        let g = Csr::from_edges(40, &edges);
        let rev = reverse_csr_sequential(&g, 40);
        let back = reverse_csr(&rev, &g.degrees());
        prop_assert!(same_rows(&back, &g));
    }

    #[test]
    fn edge_labels_shared_between_passes(edges in arb_edges(30, 200)) {
        let snap = Snapshot::from_edges(30, &edges);
        let fwd: HashMap<u32, (u32, u32)> =
            snap.csr.triples().into_iter().map(|(s, d, e)| (e, (s, d))).collect();
        prop_assert_eq!(fwd.len(), edges.len());
        for (d, s, e) in snap.reverse_csr.triples() {
            prop_assert_eq!(fwd[&e], (s, d));
        }
    }

    #[test]
    fn node_ids_is_a_degree_sorted_permutation(edges in arb_edges(25, 150)) {
        let g = Csr::from_edges(25, &edges);
        let mut seen = [false; 25];
        let mut prev_deg = usize::MAX;
        for &v in &g.node_ids {
            prop_assert!(!seen[v as usize], "duplicate vertex in node_ids");
            seen[v as usize] = true;
            let d = g.degree(v as usize);
            prop_assert!(d <= prev_deg, "node_ids not in descending degree order");
            prev_deg = d;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degrees_are_row_extents(edges in arb_edges(30, 200)) {
        // Dense rows: a vertex's degree is its row's extent, and the rows
        // partition the edge arrays.
        let g = Csr::from_edges(30, &edges);
        let mut out_deg = [0usize; 30];
        for &(s, _) in &edges {
            out_deg[s as usize] += 1;
        }
        for (v, &d) in out_deg.iter().enumerate() {
            prop_assert_eq!(g.degree(v), d);
            prop_assert_eq!(g.iter_row(v).count(), d);
        }
        prop_assert_eq!(g.num_edges(), edges.len());
        prop_assert_eq!(g.eids.len(), edges.len());
        prop_assert_eq!(g.degrees().iter().map(|&d| d as usize).sum::<usize>(), edges.len());
    }

    #[test]
    fn dtdg_diffs_compose_back_to_snapshots(
        snaps in prop::collection::vec(
            prop::collection::vec((0u32..20, 0u32..20), 1..60),
            2..6,
        )
    ) {
        let src = DtdgSource::from_snapshot_edges(20, snaps);
        let diffs = src.diffs();
        let mut cur: BTreeSet<(u32, u32)> = src.snapshots[0].iter().copied().collect();
        for (t, diff) in diffs.iter().enumerate() {
            for d in &diff.deletions {
                prop_assert!(cur.remove(d), "deletion of absent edge at t={t}");
            }
            for a in &diff.additions {
                prop_assert!(cur.insert(*a), "addition of present edge at t={t}");
            }
            let want: BTreeSet<(u32, u32)> = src.snapshots[t + 1].iter().copied().collect();
            prop_assert_eq!(&cur, &want, "compose mismatch at t={}", t + 1);
        }
    }

    #[test]
    fn snapshot_structure_equality_is_an_equivalence(edges in arb_edges(15, 80)) {
        let a = Snapshot::from_edges(15, &edges);
        let b = Snapshot::from_edges(15, &edges);
        prop_assert!(a.same_structure(&a));
        prop_assert!(a.same_structure(&b) && b.same_structure(&a));
    }
}
