//! `.stgc` round-trip of the CTDG tier: the TGN memory module's state
//! dict survives encode/decode bitwise (golden checkpoint), corruption of
//! the newest checkpoint rolls back to an older good one with the exact
//! model state (reusing the manager-rollback harness), and a training run
//! killed between epochs resumes to the *identical* loss trajectory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use stgraph_ctdg::{CtdgConfig, CtdgWorkload, TgnMemory, TgnMemoryConfig};
use stgraph_serve::checkpoint::{decode, encode};
use stgraph_serve::CheckpointManager;
use stgraph_tensor::{StateDict, Tape};

fn case_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ctdg-ck-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A memory with non-trivial state: a few committed GRU steps.
fn warmed_memory(seed: u64) -> TgnMemory {
    let m = TgnMemory::new(TgnMemoryConfig {
        num_nodes: 12,
        dim: 6,
        seed,
    });
    for (step, (a, b)) in [(0u32, 5u32), (3, 7), (5, 0), (7, 11)].iter().enumerate() {
        let nodes = [*a, *b];
        let times = [10 * (step as u64 + 1), 10 * (step as u64 + 1) + 1];
        let tape = Tape::new();
        let h = tape.constant(m.read_rows(&nodes));
        let p = tape.constant(m.read_rows(&[*b, *a]));
        let enc = tape.constant(m.time_encode(&nodes, &times));
        let h2 = m.update(&tape, &h, &p, &enc);
        m.commit(&nodes, h2.value(), &times);
    }
    m
}

/// Golden round-trip: encode → decode → load lands bitwise on the
/// original, for GRU weights *and* the evolving memory/last-update state.
#[test]
fn tgn_memory_stgc_roundtrip_is_bitwise() {
    let a = warmed_memory(21);
    let bytes = encode(&a.to_state_dict());
    let entries = decode(&bytes).expect("golden checkpoint must decode");
    let b = TgnMemory::new(TgnMemoryConfig {
        num_nodes: 12,
        dim: 6,
        seed: 4242, // different init, fully overwritten by the load
    });
    b.try_load_state_dict(&entries).unwrap();
    for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
        assert_eq!(pa.name(), pb.name());
        assert_eq!(pa.value().shape(), pb.value().shape());
        let (da, db) = (pa.value(), pb.value());
        assert_eq!(da.data(), db.data(), "{} not bitwise", pa.name());
    }
    // Double round-trip is a fixed point.
    assert_eq!(bytes, encode(&b.to_state_dict()));
}

/// Corrupting the newest rotated checkpoint rolls back to the previous
/// good one, and the loaded memory equals that older state exactly —
/// the PR 4 corruption/rollback harness applied to the CTDG tier.
#[test]
fn corrupted_ctdg_checkpoint_rolls_back_to_good_state() {
    let dir = case_dir("rollback");
    let mgr = CheckpointManager::new(&dir, "ctdg", 4);
    let old = warmed_memory(1);
    mgr.save(&old.to_state_dict()).unwrap();
    let newer = warmed_memory(2);
    mgr.save(&newer.to_state_dict()).unwrap();

    let (seq, path) = mgr.list().unwrap().last().cloned().unwrap();
    assert_eq!(seq, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (seq, entries) = mgr.load_latest().expect("must roll back, not fail");
    assert_eq!(seq, 0, "newest is corrupt; the older good file wins");
    let restored = TgnMemory::new(TgnMemoryConfig {
        num_nodes: 12,
        dim: 6,
        seed: 777,
    });
    restored.try_load_state_dict(&entries).unwrap();
    for (pa, pb) in old.parameters().iter().zip(restored.parameters()) {
        assert_eq!(pa.value().data(), pb.value().data(), "{}", pa.name());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance test: kill a training run between epochs, resume
/// from the checkpoint directory, and the per-epoch losses, val AUCs,
/// and final test AUC are bit-identical to a run that never stopped.
#[test]
fn resumed_run_reproduces_the_loss_trajectory_exactly() {
    let cfg = CtdgConfig {
        epochs: 4,
        ..CtdgConfig::smoke(13)
    };

    // Uninterrupted reference.
    let full_dir = case_dir("full");
    let full = CtdgWorkload::new(cfg.clone())
        .run_with_checkpoints(&CheckpointManager::new(&full_dir, "ctdg", 5), false);
    assert_eq!(full.epochs.len(), 4);

    // "Killed" after epoch 2: a fresh process resumes from disk.
    let dir = case_dir("resume");
    let mgr = CheckpointManager::new(&dir, "ctdg", 5);
    let first = {
        let mut w = CtdgWorkload::new(CtdgConfig {
            epochs: 2,
            ..cfg.clone()
        });
        w.run_with_checkpoints(&mgr, false)
    }; // workload dropped: nothing survives but the checkpoint files
    let resumed = CtdgWorkload::new(cfg).run_with_checkpoints(&mgr, true);

    assert_eq!(first.epochs.len(), 2);
    assert_eq!(resumed.epochs.len(), 2, "resume continues after epoch 2");
    let stitched: Vec<_> = first
        .epochs
        .iter()
        .chain(resumed.epochs.iter())
        .copied()
        .collect();
    assert_eq!(
        stitched, full.epochs,
        "resumed trajectory must be bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.test_auc, full.test_auc);
    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
