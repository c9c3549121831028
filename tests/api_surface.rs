//! Behavioural tests for public-API corners not exercised by the focused
//! suites: tensor op edge cases, kernel feature-reduction ops, PMA
//! boundaries, dataset generator shapes across the whole Table II
//! inventory, and executor misuse panics.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph::backend::{AggregationBackend, ReferenceBackend, SeastarBackend};
use stgraph_datasets::{info, load_dynamic, load_static, table2, GraphKind};
use stgraph_dyngraph::DtdgSource;
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_pma::{edge_key, Pma};
use stgraph_seastar::ir::ProgramBuilder;
use stgraph_tensor::{Shape, Tape, Tensor};

// ---------- tensor ----------

#[test]
fn tensor_div_sqrt_ln() {
    let a = Tensor::from_vec(3, vec![4.0, 9.0, 16.0]);
    let b = Tensor::from_vec(3, vec![2.0, 3.0, 4.0]);
    assert_eq!(a.div(&b).to_vec(), vec![2.0, 3.0, 4.0]);
    assert_eq!(a.sqrt().to_vec(), vec![2.0, 3.0, 4.0]);
    let l = a.ln().to_vec();
    assert!((l[0] - 4.0f32.ln()).abs() < 1e-6);
}

#[test]
fn var_one_minus_and_matmul_const() {
    let tape = Tape::new();
    let (x, gx) = tape.input(Tensor::from_vec((2, 2), vec![0.2, 0.4, 0.6, 0.8]));
    let w = Tensor::from_vec((2, 1), vec![1.0, 2.0]);
    let y = x.one_minus().matmul_const(&w);
    assert!(y
        .value()
        .approx_eq(&Tensor::from_vec((2, 1), vec![2.0, 0.8]), 1e-6));
    let loss = y.sum();
    tape.backward(&loss);
    // d/dx = -(w broadcast over rows).
    assert_eq!(gx.get().unwrap().to_vec(), vec![-1.0, -2.0, -1.0, -2.0]);
}

#[test]
fn tensor_shape_mismatch_panics() {
    let a = Tensor::zeros((2, 2));
    let b = Tensor::zeros((2, 3));
    let r = std::panic::catch_unwind(|| a.add(&b));
    assert!(r.is_err());
}

// ---------- kernels: feature reduce/broadcast inside edge plans ----------

#[test]
fn kernel_reduce_and_broadcast_feat() {
    // out_v = Σ_{u in(v)} broadcast(reduce(h_u)) = deg-weighted row sums.
    let mut b = ProgramBuilder::new();
    let h = b.input(3);
    let g = b.gather_src(h);
    let r = b.reduce_feat(g);
    let wide = b.broadcast_feat(r, 2);
    let out = b.agg_sum_dst(wide);
    let prog = b.finish(&[out]);
    let snap = Snapshot::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
    let x = Tensor::from_vec((3, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    for be in [
        &SeastarBackend as &dyn AggregationBackend,
        &ReferenceBackend,
    ] {
        let out = be
            .execute(&prog, &snap, &[&x], &[], &[], &[], &[])
            .outputs
            .remove(0);
        // node1 <- node0: rowsum 6 -> [6,6]; node2 <- node0+node1: 6+15=21.
        assert_eq!(
            out.to_vec(),
            vec![0.0, 0.0, 6.0, 6.0, 21.0, 21.0],
            "{}",
            be.name()
        );
    }
}

// ---------- pma boundaries ----------

#[test]
fn pma_from_sorted_empty_and_single() {
    let empty = Pma::from_sorted(&[]);
    assert!(empty.is_empty());
    empty.check_invariants();
    let one = Pma::from_sorted(&[7]);
    assert!(one.contains(7));
    assert!(!one.contains(8));
    one.check_invariants();
}

#[test]
fn pma_extreme_keys() {
    let mut pma = Pma::new();
    pma.insert_batch(&[0, u64::MAX - 1]);
    assert!(pma.contains(0) && pma.contains(u64::MAX - 1));
    assert_eq!(pma.iter().collect::<Vec<_>>(), vec![0, u64::MAX - 1]);
    pma.check_invariants();
}

#[test]
fn edge_key_is_monotone_in_src_then_dst() {
    let mut keys: Vec<u64> = vec![
        edge_key(0, 5),
        edge_key(1, 0),
        edge_key(0, 0),
        edge_key(1, 9),
        edge_key(0, 9),
    ];
    keys.sort_unstable();
    assert_eq!(
        keys,
        vec![
            edge_key(0, 0),
            edge_key(0, 5),
            edge_key(0, 9),
            edge_key(1, 0),
            edge_key(1, 9)
        ]
    );
}

// ---------- datasets: full Table II inventory ----------

#[test]
fn every_static_dataset_generates_at_table2_shape() {
    for d in table2()
        .iter()
        .filter(|d| d.kind == GraphKind::StaticTemporal)
    {
        let ds = load_static(d.name, 2, 3);
        assert_eq!(ds.graph.num_nodes(), d.num_nodes, "{}", d.name);
        assert_eq!(ds.graph.num_edges(), d.num_edges, "{}", d.name);
        assert_eq!(ds.num_timestamps(), 3);
    }
}

#[test]
fn every_dynamic_dataset_generates_scaled() {
    for d in table2().iter().filter(|d| d.kind == GraphKind::Dynamic) {
        let raw = load_dynamic(d.name, 200);
        assert_eq!(raw.num_nodes, (d.num_nodes / 200).max(16), "{}", d.name);
        assert_eq!(raw.num_events(), (d.num_edges / 200).max(64), "{}", d.name);
        // Windowing at 10% produces a usable DTDG.
        let src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, 10.0);
        assert!(src.num_timestamps() >= 2, "{}", d.name);
        assert!(src.snapshots[0].len() > 10, "{}", d.name);
    }
}

#[test]
fn density_ordering_matches_paper_discussion() {
    // §VII.A: WO and PM are dense, HC mid, MB and WVM very sparse.
    let density = |code: &str| {
        let d = load_static(info(code).name, 2, 2);
        d.graph.density()
    };
    assert!(density("WO") > 0.9);
    assert!(density("PM") > 0.9);
    assert!(density("HC") > 0.1 && density("HC") < 0.5);
    assert!(density("MB") < 0.01);
    assert!(density("WVM") < 0.05);
}

// ---------- dtdg source corners ----------

#[test]
fn windowing_at_100_pct_gives_disjoint_hops() {
    let edges: Vec<(u32, u32)> = (0..100u32).map(|i| (i % 10, (i / 10) % 10)).collect();
    let src = DtdgSource::from_temporal_edges(10, &edges, 100.0);
    // Slide = W/2: consecutive windows overlap by half.
    assert!(src.num_timestamps() >= 2);
}

#[test]
fn single_snapshot_source_has_no_diffs() {
    let src = DtdgSource::from_snapshot_edges(4, vec![vec![(0, 1)]]);
    assert!(src.diffs().is_empty());
    assert_eq!(src.mean_pct_change(), 0.0);
}

// ---------- graph properties through the trait object ----------

#[test]
fn stgraphbase_trait_object_usable() {
    let snap = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let g: &dyn STGraphBase = &snap;
    assert_eq!(g.num_nodes(), 4);
    assert_eq!(g.num_edges(), 3);
    assert_eq!(g.in_degrees(), &[0, 1, 1, 1]);
    assert_eq!(g.out_degrees(), &[1, 1, 1, 0]);
    assert_eq!(g.csr().num_edges(), g.reverse_csr().num_edges());
}

// ---------- executor misuse ----------

#[test]
fn executor_rejects_wrong_const_count() {
    use stgraph::executor::{compile, GraphSource, TemporalExecutor};
    let snap = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
    let exec = TemporalExecutor::new(
        stgraph::backend::create_backend("seastar"),
        GraphSource::Static(snap),
    );
    let prog = compile(stgraph_seastar::ir::gcn_aggregation(2));
    let tape = Tape::new();
    let x = tape.constant(Tensor::zeros((3, 2)));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Missing the norm constant.
        exec.apply(&tape, &prog, 0, &[&x], vec![], vec![]);
    }));
    assert!(r.is_err());
}

// ---------- determinism of the seeded RNG pipeline ----------

#[test]
fn glorot_init_is_reproducible() {
    let mut a = ChaCha8Rng::seed_from_u64(9);
    let mut b = ChaCha8Rng::seed_from_u64(9);
    let ta = Tensor::glorot(13, 7, &mut a);
    let tb = Tensor::glorot(13, 7, &mut b);
    assert!(ta.approx_eq(&tb, 0.0));
    assert_eq!(ta.shape(), Shape::Mat(13, 7));
    let limit = (6.0f32 / 20.0).sqrt();
    assert!(ta.data().iter().all(|v| v.abs() <= limit));
}
