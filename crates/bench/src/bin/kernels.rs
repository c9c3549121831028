//! Kernel microbenchmarks tracking the perf trajectory of the SIMD layer:
//! the GEMM microkernel against its scalar reference, the parallel matmul
//! built on it, the exp / sigmoid / tanh lane family against libm, and the
//! GCN aggregation launch across column widths, and the DTDG store's
//! update + snapshot cycle. Every row carries GB/s over the *computed*
//! compulsory bytes (operands read once, result written once); GEMM and
//! graph rows add GFLOP/s, graph rows edges/s, elementwise rows
//! elements/s and the store row µs per snapshot build. Prints a table and
//! writes `BENCH_kernels.json`.
//!
//! ```sh
//! cargo run --release -p stgraph-bench --bin kernels
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use stgraph::backend::{AggregationBackend, SeastarBackend};
use stgraph_bench::time_ms;
use stgraph_datasets::load_dynamic;
use stgraph_dyngraph::{DtdgSource, DtdgStore};
use stgraph_graph::base::{gcn_norm, Snapshot};
use stgraph_seastar::ir::gcn_aggregation;
use stgraph_tensor::pool::PoolScope;
use stgraph_tensor::simd;
use stgraph_tensor::tensor::{gemm, gemm_scalar};
use stgraph_tensor::Tensor;

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    config: String,
    ms_per_iter: f64,
    /// Floating-point operations / time (GEMM and graph kernels only).
    gflops: Option<f64>,
    /// Computed compulsory bytes / time.
    gb_per_s: f64,
    /// Edges traversed / time (graph kernels only).
    edges_per_s: Option<f64>,
    /// Elements mapped / time (elementwise kernels only).
    elements_per_s: Option<f64>,
    /// Mean time of one snapshot build (store row only).
    us_per_build: Option<f64>,
    speedup_vs_baseline: f64,
}

const F32: f64 = 4.0;

/// Compulsory traffic of an `[n,k] x [k,m]` GEMM.
fn gemm_bytes(n: usize, k: usize, m: usize) -> f64 {
    F32 * (n * k + k * m + n * m) as f64
}

/// Compulsory traffic of a width-`w` neighbour aggregation: per edge one
/// `u32` index and one gathered source row.
fn gather_bytes(edges: usize, w: usize) -> f64 {
    edges as f64 * (4.0 + F32 * w as f64)
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(stgraph_datasets::resolve_seed(None) ^ 0x6b11);
    // Launches allocate their outputs the way the trainers do, from the
    // buffer pool; outside a scope every iteration would malloc (and, past
    // glibc's mmap threshold, page-fault) fresh multi-MB buffers.
    let _pool = PoolScope::new();
    let mut rows: Vec<KernelRow> = Vec::new();
    println!("kernel microbenches:");
    println!(
        "{:<26} {:<26} {:>10} {:>9} {:>8} {:>10} {:>9} {:>9}",
        "kernel", "config", "ms/iter", "GFLOP/s", "GB/s", "Medges/s", "Melem/s", "speedup"
    );
    // (flops, compulsory bytes, edges traversed, elements mapped) of one
    // iteration.
    type Work = (Option<f64>, f64, Option<usize>, Option<usize>);
    let mut push = |kernel: &str, config: String, ms: f64, work: Work, base_ms: f64| {
        let (flops, bytes, edges, elements) = work;
        let per_s = |x: f64| x / (ms * 1e-3);
        let gflops = flops.map(|f| per_s(f) / 1e9);
        let gb_per_s = per_s(bytes) / 1e9;
        let edges_per_s = edges.map(|e| per_s(e as f64));
        let elements_per_s = elements.map(|e| per_s(e as f64));
        let speedup = base_ms / ms;
        let show =
            |v: Option<f64>, scale: f64| v.map_or("-".to_string(), |v| format!("{:.2}", v / scale));
        let (gf, me, mel) = (
            show(gflops, 1.0),
            show(edges_per_s, 1e6),
            show(elements_per_s, 1e6),
        );
        println!(
            "{kernel:<26} {config:<26} {ms:>10.4} {gf:>9} {gb_per_s:>8.2} {me:>10} {mel:>9} {speedup:>8.2}x"
        );
        rows.push(KernelRow {
            kernel: kernel.to_string(),
            config,
            ms_per_iter: ms,
            gflops,
            gb_per_s,
            edges_per_s,
            elements_per_s,
            us_per_build: None,
            speedup_vs_baseline: speedup,
        });
    };

    // --- GEMM: the scalar reference vs the register-blocked microkernel,
    // both serial over all rows (isolates the kernel from rayon), then the
    // parallel matmul built on the microkernel. Two square-ish shapes plus
    // the benchmark's two dense shapes: serve's `[12000, 64] x [64, 32]`
    // gate transform and dtdg_train's aggregate-first `[4041, 9] x [9, 48]`.
    for (n, k, m) in [
        (256usize, 256usize, 256usize),
        (512, 64, 64),
        (12_000, 64, 32),
        (4041, 9, 48),
    ] {
        let a = Tensor::rand_uniform((n, k), -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform((k, m), -1.0, 1.0, &mut rng);
        let (ad, bd) = (a.data(), b.data());
        let mut out = vec![0f32; n * m];
        let work = (
            Some((2 * n * k * m) as f64),
            gemm_bytes(n, k, m),
            None,
            None,
        );
        let cfg = format!("{n}x{k}x{m}");
        let scalar_ms = time_ms(|| gemm_scalar(&mut out, ad, bd, k, m));
        push("gemm scalar", cfg.clone(), scalar_ms, work, scalar_ms);
        let block_ms = time_ms(|| gemm(&mut out, ad, bd, k, m));
        push("gemm block", cfg.clone(), block_ms, work, scalar_ms);
        let par_ms = time_ms(|| {
            std::hint::black_box(a.matmul(&b));
        });
        push("matmul parallel", cfg, par_ms, work, scalar_ms);
    }

    // --- Transcendentals at serve's gate shape `[12000, 32]`: the
    // per-element libm map the tensor ops used to run vs the lane family
    // (same dispatch as `Tensor::{exp, sigmoid, tanh}`, serial). Traffic
    // is one read and one write per element. ---
    let x = Tensor::rand_uniform((12_000, 32), -8.0, 8.0, &mut rng);
    let xd = x.data();
    let mut out = vec![0f32; xd.len()];
    let elems = (None, 2.0 * F32 * xd.len() as f64, None, Some(xd.len()));
    // (name, libm baseline, `map_lanes` of the scalar form: each entry is
    // its own instantiation, so the function is inlined into the lanes)
    type Member = (&'static str, fn(f32) -> f32, fn(&mut [f32], &[f32]));
    let libm_sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
    let family: [Member; 3] = [
        ("exp", f32::exp, |o, x| simd::map_lanes(o, x, simd::exp)),
        ("sigmoid", libm_sigmoid, |o, x| {
            simd::map_lanes(o, x, simd::sigmoid)
        }),
        ("tanh", f32::tanh, |o, x| simd::map_lanes(o, x, simd::tanh)),
    ];
    for (name, libm, lanes) in family {
        let cfg = "12000x32".to_string();
        let libm_ms = time_ms(|| {
            for (o, &v) in out.iter_mut().zip(xd) {
                *o = libm(v);
            }
            std::hint::black_box(&out);
        });
        push(
            &format!("{name} libm"),
            cfg.clone(),
            libm_ms,
            elems,
            libm_ms,
        );
        let lanes_ms = time_ms(|| {
            lanes(&mut out, xd);
            std::hint::black_box(&out);
        });
        push(&format!("{name} lanes"), cfg, lanes_ms, elems, libm_ms);
    }

    // --- GCN aggregation launch vs column width, on the two graph shapes
    // the benchmark trains on: WO (complete, 319 nodes) and SO at 1/48
    // (sparse). The baseline is a TGCN step before gates shared their
    // propagation — three width-32 launches — so `speedup` reads as "one
    // launch at this width instead": 9 is `[X|1]` aggregate-first at 8
    // input features, 96 the three gates side by side transform-first. ---
    let complete: Vec<(u32, u32)> = (0..319u32)
        .flat_map(|s| (0..319u32).map(move |d| (s, d)))
        .collect();
    let sparse: Vec<(u32, u32)> = (0..19_453)
        .map(|_| (rng.gen_range(0..4041u32), rng.gen_range(0..4041u32)))
        .collect();
    for (shape, n, edges) in [("WO", 319usize, complete), ("SO/48", 4041, sparse)] {
        let snap = Snapshot::from_edges(n, &edges);
        let norm = Tensor::from_vec((n, 1), gcn_norm(&snap.in_degrees));
        let timed: Vec<(usize, f64)> = [8usize, 9, 32, 96]
            .into_iter()
            .map(|w| {
                let (prog, x) = (
                    gcn_aggregation(w),
                    Tensor::rand_uniform((n, w), -1.0, 1.0, &mut rng),
                );
                let ms = time_ms(|| {
                    std::hint::black_box(SeastarBackend.execute(
                        &prog,
                        &snap,
                        &[&x],
                        &[&norm],
                        &[],
                        &[],
                        &[],
                    ));
                });
                (w, ms)
            })
            .collect();
        let three_at_32 = 3.0 * timed[2].1;
        for (w, ms) in timed {
            // One multiply-add per edge column plus the self-loop and the
            // two norm scalings per node column; edge rows, the input read
            // for the self-loop, the output write and the norms.
            let work = (
                Some((2 * edges.len() * w + 3 * n * w) as f64),
                gather_bytes(edges.len(), w) + F32 * (2 * n * w + n) as f64,
                Some(edges.len()),
                None,
            );
            let cfg = format!("{shape} n={n} m={} w={w}", edges.len());
            push("gcn_aggregation", cfg, ms, work, three_at_32);
        }
    }

    // --- The DTDG store at dtdg_train's shape (SO at 1/48, 5 % windows,
    // 20 timestamps): one sweep applies every diff forward, then every
    // inverse diff back, building the snapshot after each apply, as
    // `GpmaGraph` does. Edges/s counts changed edges over the whole cycle;
    // the build time is read around each `snapshot` call. Traffic is the
    // changed keys plus, per build, one read of the key slots and one
    // write of the snapshot's arrays. ---
    let raw = load_dynamic("SO", 48);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, 5.0);
    src.snapshots.truncate(20);
    let diffs = src.diffs();
    let mut store = DtdgStore::from_edges(src.num_nodes, &src.snapshots[0]);
    let (mut builds, mut build_s) = (0usize, 0.0f64);
    let ms = time_ms(|| {
        let forward = diffs.iter().map(|d| (&d.additions, &d.deletions));
        let back = diffs.iter().rev().map(|d| (&d.deletions, &d.additions));
        for (ins, del) in forward.chain(back) {
            store.apply(ins, del);
            let t = std::time::Instant::now();
            std::hint::black_box(store.snapshot());
            build_s += t.elapsed().as_secs_f64();
            builds += 1;
        }
    });
    let (n, m) = (src.num_nodes, store.num_edges());
    let changed = 2 * diffs.iter().map(|d| d.len()).sum::<usize>();
    // Forward and reverse CSR: offsets, columns and edge ids; degrees.
    let snapshot_bytes = 2 * (8 * (n + 1) + 8 * m) + 8 * n;
    let sweep_bytes = 8 * changed + 2 * diffs.len() * (store.bytes() + snapshot_bytes);
    let work = (None, sweep_bytes as f64, Some(changed), None);
    let cfg = format!("SO/48 n={n} m~{m} {} applies", 2 * diffs.len());
    push("dtdg_store apply+snapshot", cfg, ms, work, ms);
    let us_per_build = build_s * 1e6 / builds as f64;
    rows.last_mut()
        .expect("the store row was just pushed")
        .us_per_build = Some(us_per_build);
    println!("{:<26} mean snapshot build {us_per_build:.1} us", "");

    let path = "BENCH_kernels.json";
    std::fs::write(path, serde_json::to_string_pretty(&rows).unwrap())
        .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
    println!("(wrote {path})");
}
