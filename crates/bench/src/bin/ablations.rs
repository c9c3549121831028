//! Design-choice ablations beyond the paper's figures, printed as two
//! tables:
//!
//! 1. **State-Stack saved-set minimisation** (§V.B): bytes retained on the
//!    State Stack mid-sequence, minimal vs save-everything policy — about
//!    *memory*, not time.
//! 2. Two timed forward-aggregation ablations, STGraph's choice against
//!    the alternative it replaced: **vertex-parallel** aggregation vs
//!    PyG-style edge-parallel gather–scale–scatter; and **fused** Seastar
//!    kernels (edge values in registers) vs the unfused reference backend
//!    (edge values materialised, §IV). (Figure 3's degree-sorted
//!    scheduling row measured 1.00x and was removed with the order itself;
//!    see DESIGN.md, "Figure 3's degree order".)

use pygt_baseline::CooGraph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use stgraph::backend::{create_backend, AggregationBackend, ReferenceBackend, SeastarBackend};
use stgraph::executor::{compile, compile_save_all_inputs, GraphSource, TemporalExecutor};
use stgraph_bench::time_ms;
use stgraph_graph::base::{gcn_norm, Snapshot};
use stgraph_seastar::ir::{gat_aggregation, gcn_aggregation};
use stgraph_tensor::{Tape, Tensor};

fn random_edges(n: u32, m: usize, rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

fn timed_row(ablation: &str, config: &str, alternative_ms: f64, stgraph_ms: f64) {
    println!(
        "{ablation:<34} {config:<26} {alternative_ms:>14.3} {stgraph_ms:>11.3} {:>8.2}x",
        alternative_ms / stgraph_ms
    );
}

fn timed_ablations() {
    println!(
        "\nAblation: forward aggregation, STGraph's choice vs the alternative (ms per launch)"
    );
    println!(
        "{:<34} {:<26} {:>14} {:>11} {:>9}",
        "ablation", "config", "alternative_ms", "stgraph_ms", "speedup"
    );

    // Vertex-parallel (one thread owns an output row) vs edge-parallel
    // gather-scale-scatter, one GCN propagation.
    let n = 5000u32;
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let edges = random_edges(n, 60_000, &mut rng);
    let snap = Snapshot::from_edges(n as usize, &edges);
    let coo = CooGraph::new(n as usize, &edges);
    let norm = Tensor::from_vec((n as usize, 1), gcn_norm(&snap.in_degrees));
    for f in [8usize, 64] {
        let x = Tensor::rand_uniform((n as usize, f), -1.0, 1.0, &mut rng);
        let gcn = gcn_aggregation(f);
        let edge_ms = time_ms(|| {
            let msgs = x.gather_rows(&coo.src).scale_rows(&coo.edge_norm);
            black_box(msgs.scatter_add_rows(&coo.dst, n as usize));
        });
        let vertex_ms = time_ms(|| {
            black_box(SeastarBackend.execute(&gcn, &snap, &[&x], &[&norm], &[], &[], &[]));
        });
        timed_row(
            "edge- -> vertex-parallel",
            &format!("GCN n=5000 m=60000 F={f}"),
            edge_ms,
            vertex_ms,
        );
    }

    // Fused kernels vs the reference backend that materialises every
    // edge-space value.
    let (n, f) = (4000u32, 32usize);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let snap = Snapshot::from_edges(n as usize, &random_edges(n, 40_000, &mut rng));
    let x = Tensor::rand_uniform((n as usize, f), -1.0, 1.0, &mut rng);
    let norm = Tensor::from_vec((n as usize, 1), gcn_norm(&snap.in_degrees));
    let el = Tensor::rand_uniform((n as usize, 1), -1.0, 1.0, &mut rng);
    let er = Tensor::rand_uniform((n as usize, 1), -1.0, 1.0, &mut rng);
    let gat = gat_aggregation(f, 0.2);
    let gcn = gcn_aggregation(f);
    for (layer, prog, inputs, consts) in [
        ("GCN", &gcn, vec![&x], vec![&norm]),
        ("GAT", &gat, vec![&x, &el, &er], vec![]),
    ] {
        let backends: [&dyn AggregationBackend; 2] = [&ReferenceBackend, &SeastarBackend];
        let [unfused_ms, fused_ms] = backends.map(|be| {
            time_ms(|| {
                black_box(be.execute(prog, &snap, &inputs, &consts, &[], &[], &[]));
            })
        });
        timed_row(
            "unfused -> fused kernels",
            &format!("{layer} n=4000 m=40000 F=32"),
            unfused_ms,
            fused_ms,
        );
    }
}

fn main() {
    let n = 2000usize;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let edges = random_edges(n as u32, n * 8, &mut rng);
    let f = 32;

    println!(
        "Ablation: State-Stack saved-set minimisation (seq of 10 timestamps, n={n}, m={}, F={f})",
        edges.len()
    );
    println!(
        "{:<10} {:<12} {:>16} {:>16}",
        "layer", "policy", "stack_bytes", "stack_peak_depth"
    );
    for (layer, make) in [("GCN", true), ("GAT", false)] {
        for (policy, save_all) in [("minimal", false), ("save-all", true)] {
            let snap = Snapshot::from_edges(n, &edges);
            let exec =
                TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap.clone()));
            let prog = if make {
                if save_all {
                    compile_save_all_inputs(gcn_aggregation(f))
                } else {
                    compile(gcn_aggregation(f))
                }
            } else if save_all {
                compile_save_all_inputs(gat_aggregation(f, 0.2))
            } else {
                compile(gat_aggregation(f, 0.2))
            };
            let norm = Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees));
            let tape = Tape::new();
            let mut x = tape.constant(Tensor::rand_uniform((n, f), -1.0, 1.0, &mut rng));
            for t in 0..10 {
                x = if make {
                    exec.apply(&tape, &prog, t, &[&x], vec![norm.clone()], vec![])
                } else {
                    let el = x.slice_cols(0, 1);
                    let er = x.slice_cols(1, 2);
                    exec.apply(&tape, &prog, t, &[&x, &el, &er], vec![], vec![])
                };
            }
            let (_, _, peak_depth, bytes) = exec.state_stack_stats();
            println!(
                "{:<10} {:<12} {:>16} {:>16}",
                layer, policy, bytes, peak_depth
            );
            let loss = x.square().sum();
            tape.backward(&loss);
        }
    }
    println!("\n(minimal = the paper's forward/backward IR comparison; save-all = what a\nframework without that analysis would retain. GCN needs nothing; GAT keeps\nonly width-1 attention vectors, never the [m, F] messages.)");

    timed_ablations();
}
