//! Checkpoint golden tests: an `.stgc` file round-trips GCN and TGCN
//! models bit-for-bit — identical parameters *and* identical forward
//! outputs — and every way a file can be bad (corruption, truncation,
//! wrong version, wrong model) surfaces as a typed error, never a panic.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::layers::GcnConv;
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph_graph::base::Snapshot;
use stgraph_serve::checkpoint::FORMAT_VERSION;
use stgraph_serve::{load_checkpoint, load_into, save_checkpoint, save_model, CheckpointError};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{StateDictError, Tape, Tensor};

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("stgc-test-{}-{name}", std::process::id()))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn exec_static() -> TemporalExecutor {
    let snap = Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
    TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap))
}

#[test]
fn gcn_roundtrip_is_bit_identical() {
    let path = tmp_path("gcn.stgc");
    let x = Tensor::rand_uniform((6, 5), -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(3));

    // Train-side model, saved.
    let mut ps_a = ParamSet::new();
    let conv_a = GcnConv::new(&mut ps_a, "gcn", 5, 4, &mut ChaCha8Rng::seed_from_u64(1));
    save_model(&path, &ps_a).unwrap();

    // Serve-side model with *different* init, then loaded.
    let mut ps_b = ParamSet::new();
    let conv_b = GcnConv::new(&mut ps_b, "gcn", 5, 4, &mut ChaCha8Rng::seed_from_u64(999));
    assert_ne!(
        bits(&ps_a.iter().next().unwrap().value()),
        bits(&ps_b.iter().next().unwrap().value()),
        "different seeds must differ before loading"
    );
    load_into(&path, &ps_b).unwrap();

    // Parameters: bit-identical, name for name.
    for ((na, sa, da), (nb, sb, db)) in ps_a.state_dict().iter().zip(&ps_b.state_dict()) {
        assert_eq!(na, nb);
        assert_eq!(sa, sb);
        let ba: Vec<u32> = da.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = db.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ba, bb, "param {na} must round-trip bitwise");
    }

    // Forward outputs: bit-identical on the same input and graph.
    let exec = exec_static();
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    let ya = conv_a.forward(&tape, &exec, 0, &xv);
    let yb = conv_b.forward(&tape, &exec, 0, &xv);
    assert_eq!(bits(ya.value()), bits(yb.value()));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tgcn_roundtrip_is_bit_identical() {
    let path = tmp_path("tgcn.stgc");
    let x = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(4));

    let mut ps_a = ParamSet::new();
    let cell_a = Tgcn::new(&mut ps_a, "cell", 3, 4, &mut ChaCha8Rng::seed_from_u64(10));
    save_model(&path, &ps_a).unwrap();

    let mut ps_b = ParamSet::new();
    let cell_b = Tgcn::new(&mut ps_b, "cell", 3, 4, &mut ChaCha8Rng::seed_from_u64(11));
    load_into(&path, &ps_b).unwrap();

    // Two recurrent steps (hidden carried) must agree bitwise.
    let exec = exec_static();
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    let ha1 = cell_a.step(&tape, &exec, 0, &xv, None);
    let ha2 = cell_a.step(&tape, &exec, 0, &xv, Some(&ha1));
    let hb1 = cell_b.step(&tape, &exec, 0, &xv, None);
    let hb2 = cell_b.step(&tape, &exec, 0, &xv, Some(&hb1));
    assert_eq!(bits(ha1.value()), bits(hb1.value()));
    assert_eq!(bits(ha2.value()), bits(hb2.value()));

    std::fs::remove_file(&path).unwrap();
}

/// A checkpoint written by the build *before* the propagate/transform
/// split (every `GcnConv` transform-first, three launches per TGCN step)
/// loads into today's `Tgcn` — 4 → 8 features, so aggregate-first with one
/// shared launch — and reproduces that build's hidden state after two
/// steps. `tests/golden/tgcn_parent.stgc` carries the perturbed parameters
/// (non-zero biases), the graph, both input frames and the old build's
/// `h2` as extra entries, which `load_into` ignores.
#[test]
fn parent_build_checkpoint_reproduces_its_embeddings() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tgcn_parent.stgc");
    let entries = load_checkpoint(path).unwrap();
    let tensor = |name: &str| {
        let (_, shape, data) = entries.iter().find(|(n, _, _)| n == name).expect(name);
        Tensor::from_vec(*shape, data.clone())
    };
    let edges: Vec<(u32, u32)> = tensor("golden.edges")
        .data()
        .chunks(2)
        .map(|e| (e[0] as u32, e[1] as u32))
        .collect();
    let (x0, x1, want) = (
        tensor("golden.x0"),
        tensor("golden.x1"),
        tensor("golden.h2"),
    );

    let mut ps = ParamSet::new();
    let cell = Tgcn::new(&mut ps, "cell", 4, 8, &mut ChaCha8Rng::seed_from_u64(77));
    load_into(path, &ps).unwrap();
    assert!(
        ps.iter().filter(|p| p.name().ends_with(".bias")).all(|p| p
            .value()
            .data()
            .iter()
            .any(|&b| b != 0.0)),
        "the golden model must exercise the bias identity"
    );

    let snap = Snapshot::from_edges(x0.rows(), &edges);
    let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
    let tape = Tape::new();
    let h1 = cell.step(&tape, &exec, 0, &tape.constant(x0), None);
    let h2 = cell.step(&tape, &exec, 1, &tape.constant(x1), Some(&h1));
    assert!(
        h2.value().approx_eq(&want, 1e-5),
        "max diff {}",
        h2.value().max_abs_diff(&want)
    );
    tape.backward(&h2.sum());
}

#[test]
fn corrupted_file_is_a_typed_checksum_error() {
    let path = tmp_path("corrupt.stgc");
    let mut ps = ParamSet::new();
    let _cell = Tgcn::new(&mut ps, "cell", 3, 4, &mut ChaCha8Rng::seed_from_u64(20));
    save_model(&path, &ps).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match load_checkpoint(&path) {
        Err(CheckpointError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // And the typed error leaves a target model untouched.
    let mut ps2 = ParamSet::new();
    let _cell2 = Tgcn::new(&mut ps2, "cell", 3, 4, &mut ChaCha8Rng::seed_from_u64(21));
    let before = ps2.state_dict();
    assert!(load_into(&path, &ps2).is_err());
    assert_eq!(before, ps2.state_dict(), "failed load must not mutate");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_is_a_typed_error() {
    let path = tmp_path("version.stgc");
    save_checkpoint(
        &path,
        &[(
            "w".to_string(),
            stgraph_tensor::Shape::Vec(2),
            vec![1.0, 2.0],
        )],
    )
    .unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let future = (FORMAT_VERSION + 7).to_le_bytes();
    bytes[4..8].copy_from_slice(&future);
    std::fs::write(&path, &bytes).unwrap();

    match load_checkpoint(&path) {
        Err(CheckpointError::UnsupportedVersion(v)) => assert_eq!(v, FORMAT_VERSION + 7),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_file_is_a_typed_error() {
    let path = tmp_path("trunc.stgc");
    let mut ps = ParamSet::new();
    let _conv = GcnConv::new(&mut ps, "g", 3, 3, &mut ChaCha8Rng::seed_from_u64(30));
    save_model(&path, &ps).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    // Cutting the tail either lands mid-record (Truncated) or leaves a
    // parseable prefix whose trailing CRC no longer matches.
    match load_checkpoint(&path) {
        Err(CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_for_a_different_model_is_a_typed_error() {
    let path = tmp_path("wrong-model.stgc");
    let mut ps_small = ParamSet::new();
    let _conv = GcnConv::new(
        &mut ps_small,
        "other",
        3,
        3,
        &mut ChaCha8Rng::seed_from_u64(40),
    );
    save_model(&path, &ps_small).unwrap();

    let mut ps = ParamSet::new();
    let _cell = Tgcn::new(&mut ps, "cell", 3, 4, &mut ChaCha8Rng::seed_from_u64(41));
    match load_into(&path, &ps) {
        Err(CheckpointError::State(StateDictError::MissingParam(name))) => {
            assert!(name.starts_with("cell."), "missing {name}");
        }
        other => panic!("expected State(MissingParam), got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_file_is_a_typed_io_error() {
    match load_checkpoint(tmp_path("does-not-exist.stgc")) {
        Err(CheckpointError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
}
