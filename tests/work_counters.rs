//! Work counters: `tensor.gemm_macs` counts the multiply-adds of every
//! GEMM entry (`n·k·m` per call), and `seastar.edge_lanes` the edge lanes
//! of every aggregation launch and saved edge value (`edges · width`).
//! One TGCN step, forward plus backward, must read exactly its analytic
//! counts — reading concatenated and transposed operands in place, or
//! summing in registers, moves memory, not arithmetic — on every kernel
//! thread count. So must one CTDG training batch, whose neighbor term
//! scales with the neighbors it sampled, not with `queries · k`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::process::Command;
use std::sync::Mutex;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph_ctdg::{CtdgConfig, CtdgWorkload, TIME_ENC_DIM};
use stgraph_graph::base::Snapshot;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{Tape, Tensor};

/// Nodes, input features and hidden width: every GEMM of the step clears
/// the default parallel cutover (`n·H·H = 4096`), so above one thread the
/// row blocks run on several threads.
const N: usize = 64;
const F: usize = 8;
const H: usize = 8;

/// Edges of the step's graph: two out-edges per node.
const M: usize = 2 * N;

/// The counters are process-wide, so the tests that read them take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

/// How much `counter` grows over one TGCN step, forward plus backward.
fn tgcn_step_delta(counter: &str) -> u64 {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let edges: Vec<(u32, u32)> = (0..N as u32)
        .flat_map(|i| [(i, (i + 1) % N as u32), (i, (i * 7 + 3) % N as u32)])
        .collect();
    assert_eq!(edges.len(), M);
    let exec = TemporalExecutor::new(
        create_backend("seastar"),
        GraphSource::Static(Snapshot::from_edges(N, &edges)),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut params = ParamSet::new();
    let cell = Tgcn::new(&mut params, "t", F, H, &mut rng);
    let x = Tensor::rand_uniform((N, F), -1.0, 1.0, &mut rng);
    let h = Tensor::rand_uniform((N, H), -1.0, 1.0, &mut rng);

    let counter = stgraph_telemetry::counter(counter);
    let before = counter.get();
    {
        let tape = Tape::new();
        let (h, _) = tape.input(h);
        let out = cell.step(&tape, &exec, 0, &tape.constant(x), Some(&h));
        tape.backward(&out.sum());
    }
    counter.get() - before
}

#[test]
fn tgcn_step_reads_the_analytic_mac_count() {
    let got = tgcn_step_delta("tensor.gemm_macs");
    // Constant features aggregate first: p = Â[X|1] is [N, F+1] and needs
    // no gradient. Per gate, forward p·[W;b] and backward pᵀ·g; then the
    // dense gate over [c ‖ h] (forward, the weight gradient, and one
    // input gradient per part — all four parts need one).
    let conv = 3 * (N * (F + 1) * H + (F + 1) * N * H);
    let dense = 3 * (N * 2 * H * H + 2 * H * N * H + 2 * N * H * H);
    assert_eq!(got as usize, conv + dense, "one TGCN step's MACs");
}

#[test]
fn tgcn_step_reads_the_analytic_edge_lane_count() {
    let got = tgcn_step_delta("seastar.edge_lanes");
    // One forward launch: the three gates share the aggregate-first
    // propagation of the constant `[X|1]`, which needs no gradient, so
    // there is no backward launch and no saved edge value.
    assert_eq!(got as usize, M * (F + 1), "one TGCN step's edge lanes");
}

#[test]
fn ctdg_batch_reads_the_analytic_mac_count() {
    let cfg = CtdgConfig::smoke(7);
    let (b, d, k) = (cfg.batch_size, cfg.dim, cfg.k);
    let mut w = CtdgWorkload::new(cfg);
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let macs = stgraph_telemetry::counter("tensor.gemm_macs");
    let sampled = stgraph_telemetry::counter("ctdg.sampled_neighbors");
    let (macs0, sampled0) = (macs.get(), sampled.get());
    // A batch late enough that most of its 3b queries have some history.
    w.train_batch(0, 8);
    let (got, v) = (
        (macs.get() - macs0) as usize,
        (sampled.get() - sampled0) as usize,
    );
    assert!(
        0 < v && v < 3 * b * k,
        "V = {v} sampled of {} slots",
        3 * b * k
    );

    let x = d + TIME_ENC_DIM;
    // GRU over the 3b rows: per gate, forward [partner | enc]·W and the
    // recurrent map, backward dW and dU; the candidate gate's recurrent
    // map also passes a gradient back into its r ⊙ h input.
    let gru = 2 * 3 * (3 * b * x * d + 3 * b * d * d) + 3 * b * d * d;
    // Neighbors: forward and dW over the V sampled rows only (the memory
    // they read is a constant).
    let nbr = 2 * v * d * d;
    // self_proj on h': forward, dW and the input gradient.
    let self_proj = 3 * (3 * b * d * d);
    // score1 on [src | dst] and [src | neg]: forward, dW, two part
    // gradients; score2 on each: forward, dW, input gradient.
    let score = 2 * (3 * b * 2 * d * d) + 2 * 3 * b * d;
    assert_eq!(
        got,
        gru + nbr + self_proj + score,
        "one CTDG batch's MACs (V = {v})"
    );
}

/// The counts do not depend on the kernel thread count (latched per
/// process): rerun the three tests above in this binary at 1, 2 and 4
/// threads.
#[test]
fn the_mac_count_holds_at_1_2_and_4_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in [1, 2, 4] {
        let out = Command::new(&exe)
            .arg("_reads_the_analytic_")
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output()
            .expect("rerun the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("3 passed"),
            "at {threads} threads:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
