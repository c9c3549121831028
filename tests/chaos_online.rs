//! Chaos suite for the online trainer: seeded fault plans kill the
//! train-while-serving loop mid-step (`online.step`, after the Adam update
//! has mutated the weights) and mid-publish (`online.publish`, before the
//! atomic generation swap), then recover from the rotated checkpoint
//! directory. The invariants mirror the CTDG chaos and store rollback
//! suites:
//!
//! 1. Every injected failure surfaces as a typed `OnlineError::Fault` —
//!    no panic escapes — and the trainer halts.
//! 2. A faulted step is **bitwise invisible**: weights, Adam moments and
//!    counters compare bit-for-bit equal to the last committed state, and
//!    the published weight generation never moves.
//! 3. Resuming from the rotated checkpoints and replaying the stream from
//!    generation zero lands on the uninterrupted run's loss trajectory
//!    bitwise, step for step.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stgraph_dyngraph::DtdgSource;
use stgraph_faultline::FaultPlan;
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::{CheckpointManager, OnlineConfig, OnlineError, OnlineTrainer};
use stgraph_tensor::{StateEntry, Tensor};

const ARCH: &str = "tgcn";
const FEATURES: usize = 4;
const HIDDEN: usize = 8;

fn source() -> DtdgSource {
    // 260 distinct, never-self edges cycling over time, so every window
    // slide admits fresh edges (non-empty additions feed the replay buffer).
    let stream: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 20, 20 + (i % 13))).collect();
    let mut src = DtdgSource::from_temporal_edges(33, &stream, 12.0);
    src.snapshots.truncate(9);
    src
}

fn features(num_nodes: usize) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    Tensor::rand_uniform((num_nodes, FEATURES), -1.0, 1.0, &mut rng)
}

fn trainer(num_nodes: usize, dir: Option<&Path>) -> OnlineTrainer {
    let cfg = OnlineConfig {
        seed: 17,
        batch_size: 16,
        ..OnlineConfig::default()
    };
    let mut t =
        OnlineTrainer::new(ARCH, FEATURES, HIDDEN, num_nodes, cfg).expect("known architecture");
    if let Some(dir) = dir {
        t.set_manager(CheckpointManager::new(dir, "online", 4));
    }
    t
}

/// Replays the stream from generation zero, returning the first error.
/// Batches the trainer's replay cursor already covers feed the buffer but
/// skip training — exactly the serve binary's `--online-resume` path.
fn drive(t: &mut OnlineTrainer, src: &DtdgSource, feats: &Tensor) -> Result<(), OnlineError> {
    let mut live = LiveGraph::from_source(src);
    for batch in src.diffs() {
        live.apply(&batch);
        let (_, snap) = live.snapshot();
        t.on_advance(live.generation(), &batch, snap, feats)?;
    }
    Ok(())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stgraph-chaos-online-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Bit-exact comparison of two state dicts (names, shapes, payload bits).
fn assert_entries_bitwise(a: &[StateEntry], b: &[StateEntry], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: entry count");
    for ((an, ash, av), (bn, bsh, bv)) in a.iter().zip(b) {
        assert_eq!(an, bn, "{what}: entry name");
        assert_eq!(ash, bsh, "{what}: shape of {an}");
        assert_eq!(bits(av), bits(bv), "{what}: payload of {an}");
    }
}

/// The uninterrupted oracle: full stream, no faults, no checkpoints.
fn oracle(src: &DtdgSource, feats: &Tensor) -> OnlineTrainer {
    let mut t = trainer(src.num_nodes, None);
    drive(&mut t, src, feats).expect("uninterrupted run");
    t
}

/// Kill matrix: fault each new site at several step depths, recover from
/// the rotated checkpoints, and pin the resumed trajectory bitwise.
#[test]
fn killed_online_loop_resumes_bitwise_at_both_sites() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = source();
    let feats = features(src.num_nodes);
    let full = oracle(&src, &feats);
    let want = bits(full.trajectory());
    assert!(
        want.len() >= 5,
        "stream too short to exercise kills (got {} steps)",
        want.len()
    );

    for site in ["online.step", "online.publish"] {
        for kill_at in [1u64, 3, 5] {
            let tag = format!("{site}@{kill_at}");
            let dir = tmp_dir(&tag.replace(['.', '@'], "-"));

            // Crash run: the plan fires on the kill_at-th hit of `site`.
            let mut t = trainer(src.num_nodes, Some(&dir));
            stgraph_faultline::set_plan(
                FaultPlan::new()
                    .seed(1000 + kill_at)
                    .fail_nth(site, kill_at),
            );
            let before_publish = t.published();
            let res = drive(&mut t, &src, &feats);
            stgraph_faultline::clear_plan();

            // Invariant 1: typed fault at the planned site; trainer halts.
            match res {
                Err(OnlineError::Fault(f)) => assert_eq!(f.site, site, "{tag}"),
                other => panic!("{tag}: expected injected fault, got {other:?}"),
            }
            assert!(t.halted(), "{tag}: fault must halt training");

            // Invariant 2: the half-applied step (or rejected publish) is
            // bitwise invisible. The trainer's full state equals the last
            // durable checkpoint...
            let committed = kill_at - 1;
            if committed > 0 {
                let mgr = CheckpointManager::new(&dir, "online", 4);
                let (_, durable) = mgr.load_latest().expect("rotated checkpoint");
                if site == "online.step" {
                    // Step rollback restores weights, Adam moments and
                    // counters to exactly what the last checkpoint holds.
                    assert_entries_bitwise(&t.state_entries(), &durable, &tag);
                }
            }
            // ...and the published generation never moved past the last
            // committed publish (readers keep a whole, old generation).
            let still = t.published();
            let expect_gen = if site == "online.step" {
                committed
            } else {
                // Publish faults before the swap: the generation visible
                // to readers is the one published by the previous step.
                kill_at - 1
            };
            assert_eq!(still.weight_generation, expect_gen, "{tag}");
            if kill_at == 1 {
                assert_entries_bitwise(
                    &still.entries,
                    &before_publish.entries,
                    &format!("{tag}: initial publish must survive untouched"),
                );
            }

            // "Crash": drop the trainer; only the checkpoint dir survives.
            drop(t);

            // Recovery: fresh process, resume from rotation, replay the
            // stream from generation zero.
            let mut resumed = trainer(src.num_nodes, Some(&dir));
            if committed > 0 {
                let mgr = CheckpointManager::new(&dir, "online", 4);
                let seq = resumed.resume_from(&mgr).expect("resume");
                assert_eq!(resumed.steps(), committed, "{tag}: resumed step count");
                assert_eq!(seq + 1, committed, "{tag}: checkpoint sequence");
            }
            drive(&mut resumed, &src, &feats)
                .unwrap_or_else(|e| panic!("{tag}: clean resume failed: {e}"));

            // Invariant 3: the resumed run's fresh steps continue the
            // uninterrupted trajectory bitwise...
            let got = bits(resumed.trajectory());
            assert_eq!(
                got,
                want[committed as usize..],
                "{tag}: resumed trajectory diverged"
            );
            assert_eq!(resumed.steps(), full.steps(), "{tag}: total steps");
            // ...and the final model state is bit-identical to never
            // having crashed at all.
            assert_entries_bitwise(
                &resumed.state_entries(),
                &full.state_entries(),
                &format!("{tag}: final state"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A reader holding the pre-crash publish keeps a frozen, whole view even
/// while the trainer faults, rolls back, resumes and republishes: the Arc
/// cloned at generation G is never mutated in place.
#[test]
fn pinned_publish_survives_crash_and_resume_bitwise() {
    let _g = stgraph_faultline::test_lock();
    stgraph_faultline::clear_plan();
    let src = source();
    let feats = features(src.num_nodes);
    let dir = tmp_dir("pinned");

    let mut t = trainer(src.num_nodes, Some(&dir));
    stgraph_faultline::set_plan(FaultPlan::new().seed(5).fail_nth("online.step", 3));
    let res = drive(&mut t, &src, &feats);
    stgraph_faultline::clear_plan();
    assert!(matches!(res, Err(OnlineError::Fault(_))), "plan must fire");

    // Pin the last committed generation, as an in-flight forward would.
    let pinned: Arc<_> = t.published();
    let frozen: Vec<StateEntry> = pinned.entries.clone();
    assert_eq!(pinned.weight_generation, 2);
    drop(t);

    let mut resumed = trainer(src.num_nodes, Some(&dir));
    let mgr = CheckpointManager::new(&dir, "online", 4);
    resumed.resume_from(&mgr).expect("resume");
    drive(&mut resumed, &src, &feats).expect("clean resume");
    assert!(resumed.published().weight_generation > pinned.weight_generation);

    // The pinned view is bitwise unchanged by everything that followed.
    assert_entries_bitwise(&pinned.entries, &frozen, "pinned generation");
    std::fs::remove_dir_all(&dir).ok();
}
