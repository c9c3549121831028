//! Train-while-serving: continuous online learning on the live stream.
//!
//! The serve tier historically ran a *frozen* checkpoint while GPMA / T-CSR
//! ingest raced ahead, so served embeddings drifted from the live graph.
//! This module closes that gap with an [`OnlineTrainer`]: incremental
//! gradient steps on freshly ingested edges, drawn from a bounded
//! time-indexed [`ReplayBuffer`] (recent `UpdateBatch` additions for DTDG,
//! recent timed events for CTDG), with new weight *generations* published
//! atomically behind the same protocol the LiveGraph generation guard uses —
//! inference never observes half-updated weights.
//!
//! ## The generation-publish protocol
//!
//! The trainer owns a private training cell (its own [`ParamSet`]); the
//! serving cell's weights are a *separate* `ParamSet`. After each committed
//! step the trainer stages a full `StateDict` snapshot and swaps it into
//! [`OnlineTrainer::published`] as one `Arc` store — readers that cloned the
//! previous `Arc` keep a bitwise-frozen view forever (the property
//! `tests/prop_online.rs` pins). The engine applies a publish to the serving
//! `ParamSet` only on the engine thread, *between* generation boundaries:
//! forwards memoised for generation `g` keep the weights they were computed
//! with, and the first forward of `g+1` sees the new weights whole.
//!
//! ## Determinism and crash consistency
//!
//! Everything is a pure function of `(OnlineConfig::seed, steps, stream)`:
//! positives are sampled per-index with splitmix64-derived ChaCha8 streams
//! (schedule-independent under rayon), negatives from a per-step seeded
//! stream, and the replay buffer evolves deterministically under the
//! *logical* clock `seen * ms_per_generation`. Optimizer state (Adam
//! moments + the replay cursor) persists in the `.stgc` format via
//! [`CheckpointManager`] rotation after every publish, so a crash at either
//! fault site (`online.step` — exact bitwise rollback of the half-applied
//! step — or `online.publish` — nothing swapped) resumes to a loss
//! trajectory bitwise identical to an uninterrupted run
//! (`tests/chaos_online.rs`).

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::RecurrentCell;
use stgraph::train::{edge_logits, LinkPredBatch};
use stgraph_datasets::TimedEdge;
use stgraph_dyngraph::source::UpdateBatch;
use stgraph_graph::base::Snapshot;
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{PoolScope, Shape, StateDict, StateDictError, StateEntry, Tape, Tensor};

use crate::checkpoint::CheckpointError;
use crate::manager::CheckpointManager;
use crate::zoo::build_cell;

/// splitmix64 — one-round mixer used to derive independent ChaCha8 streams
/// per (seed, step) and per (seed, sample index), so sampling is a pure
/// function of indices and never of rayon's schedule.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the ChaCha8 seed for logical stream `stream` at step/index `k`.
fn mix(seed: u64, stream: u64, k: u64) -> u64 {
    splitmix64(seed ^ stream.rotate_left(32) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

const STREAM_POSITIVE: u64 = 0x01;
const STREAM_NEGATIVE: u64 = 0x02;

/// Bounded time-indexed replay buffer over recently ingested edges. Each
/// entry is a [`TimedEdge`] whose `t` is its logical arrival time in
/// milliseconds.
///
/// Two eviction rules, and only two:
///
/// * **Staleness** — whenever the clock advances, entries whose age exceeds
///   `staleness_ms` (`t < now - staleness_ms`) are dropped from the front.
/// * **Capacity** — at `cap` entries, pushing a new entry displaces the
///   single *oldest* one.
///
/// Entry times are clamped monotone on push, so the front of the deque is
/// always the oldest entry and an event newer than the staleness bound is
/// never dropped while the buffer is under capacity — the invariant
/// `tests/prop_online.rs` checks against a reference model.
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    entries: VecDeque<TimedEdge>,
    cap: usize,
    staleness_ms: u64,
    now_ms: u64,
    evicted_stale: u64,
    evicted_cap: u64,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `cap` entries (`cap >= 1`), dropping
    /// entries older than `staleness_ms` as the logical clock advances.
    pub fn new(cap: usize, staleness_ms: u64) -> ReplayBuffer {
        assert!(cap >= 1, "replay buffer capacity must be >= 1");
        ReplayBuffer {
            entries: VecDeque::with_capacity(cap.min(4096)),
            cap,
            staleness_ms,
            now_ms: 0,
            evicted_stale: 0,
            evicted_cap: 0,
        }
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current logical clock in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Entries dropped by the staleness rule so far.
    pub fn evicted_stale(&self) -> u64 {
        self.evicted_stale
    }

    /// Entries displaced by the capacity rule so far.
    pub fn evicted_cap(&self) -> u64 {
        self.evicted_cap
    }

    /// Iterates the buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEdge> {
        self.entries.iter()
    }

    /// Advances the logical clock (monotone) and applies staleness eviction.
    pub fn advance_to(&mut self, now_ms: u64) {
        if now_ms > self.now_ms {
            self.now_ms = now_ms;
        }
        self.evict_stale();
    }

    /// Pushes one edge observed at logical time `t_ms`. Times are clamped
    /// monotone so the deque front is always the oldest entry.
    pub fn push(&mut self, t_ms: u64, src: u32, dst: u32) {
        let t = t_ms.max(self.now_ms);
        self.now_ms = t;
        self.evict_stale();
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.evicted_cap += 1;
        }
        self.entries.push_back(TimedEdge { src, dst, t });
    }

    /// Pushes every addition of a DTDG [`UpdateBatch`] at logical time
    /// `now_ms` (deletions carry no positive training signal). The clock
    /// advances even when the batch adds nothing.
    pub fn push_batch(&mut self, now_ms: u64, batch: &UpdateBatch) {
        self.advance_to(now_ms);
        for &(src, dst) in &batch.additions {
            self.push(now_ms, src, dst);
        }
    }

    fn evict_stale(&mut self) {
        let cutoff = self.now_ms.saturating_sub(self.staleness_ms);
        while let Some(front) = self.entries.front() {
            if front.t < cutoff {
                self.entries.pop_front();
                self.evicted_stale += 1;
            } else {
                break;
            }
        }
    }

    /// Samples `k` entries with replacement. Each output index draws from
    /// its own splitmix64-derived ChaCha8 stream, so the result is a pure
    /// function of `(seed, k, buffer contents)` — identical no matter how
    /// rayon schedules the parallel iterator (`tests/prop_online.rs`).
    pub fn sample(&self, seed: u64, k: usize) -> Vec<TimedEdge> {
        let n = self.entries.len();
        assert!(n > 0, "cannot sample from an empty replay buffer");
        let mut out = vec![
            TimedEdge {
                src: 0,
                dst: 0,
                t: 0
            };
            k
        ];
        let entries = &self.entries;
        out.par_iter_mut().enumerate().for_each(|(i, slot)| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, STREAM_POSITIVE, i as u64));
            *slot = entries[rng.gen_range(0..n)];
        });
        out
    }
}

/// Errors out of the online-learning loop. Injected faults surface typed —
/// never as panics — exactly like every other faultline site.
#[derive(Debug)]
pub enum OnlineError {
    /// A fault plan fired at `online.step` or `online.publish`; the
    /// half-applied step was rolled back bitwise and the trainer halted.
    Fault(stgraph_faultline::FaultError),
    /// Persisting or loading optimizer state failed.
    Checkpoint(CheckpointError),
    /// A state dict did not match the model (wrong arch/shape/missing key).
    State(StateDictError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Fault(e) => write!(f, "online fault: {e}"),
            OnlineError::Checkpoint(e) => write!(f, "online checkpoint: {e}"),
            OnlineError::State(e) => write!(f, "online state: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// One atomically published weight generation: a full `StateDict` snapshot
/// plus the generations it was cut at. Readers clone the `Arc` and keep a
/// frozen view; later publishes never mutate it.
#[derive(Debug)]
pub struct PublishedWeights {
    /// Monotone weight generation (bumped once per successful publish).
    pub weight_generation: u64,
    /// Graph generation the weights were trained through.
    pub graph_generation: u64,
    /// Complete weight snapshot (`cell.*` entries).
    pub entries: Vec<StateEntry>,
}

/// Drift/staleness gauges shared between the trainer (writer) and the
/// telemetry registry (reader). Registration is explicit so oracle trainers
/// in tests never collide with the live one.
#[derive(Debug, Default)]
pub struct OnlineGauges {
    steps: AtomicU64,
    replay_len: AtomicU64,
    generation_lag: AtomicU64,
    last_publish_unix_ms: AtomicU64,
}

impl OnlineGauges {
    /// Registers `online.steps`, `online.replay_len`, `online.generation_lag`
    /// and `online.staleness_ms` (wall-clock ms since the last publish)
    /// as one pull-style gauge provider.
    pub fn register(self: &Arc<Self>) {
        let g = Arc::clone(self);
        stgraph_telemetry::register_gauge_provider("online", move || {
            let last = g.last_publish_unix_ms.load(Ordering::Relaxed);
            let staleness = if last == 0 {
                0
            } else {
                unix_ms().saturating_sub(last)
            };
            vec![
                (
                    "online.steps".to_string(),
                    g.steps.load(Ordering::Relaxed) as f64,
                ),
                (
                    "online.replay_len".to_string(),
                    g.replay_len.load(Ordering::Relaxed) as f64,
                ),
                (
                    "online.generation_lag".to_string(),
                    g.generation_lag.load(Ordering::Relaxed) as f64,
                ),
                ("online.staleness_ms".to_string(), staleness as f64),
            ]
        });
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Configuration for an [`OnlineTrainer`].
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Master seed; the whole trajectory is a pure function of it.
    pub seed: u64,
    /// Positives sampled per step (matched 1:1 by negatives).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Replay buffer capacity.
    pub replay_cap: usize,
    /// Replay staleness bound in (logical) milliseconds.
    pub staleness_ms: u64,
    /// Logical milliseconds per graph generation — the deterministic clock
    /// driving staleness eviction (wall time never touches the trajectory).
    pub ms_per_generation: u64,
    /// Aggregation backend name (`seastar` / `reference`).
    pub backend: String,
}

impl Default for OnlineConfig {
    fn default() -> OnlineConfig {
        OnlineConfig {
            seed: 17,
            batch_size: 64,
            lr: 1e-2,
            replay_cap: 4096,
            staleness_ms: 60_000,
            ms_per_generation: 1000,
            backend: "seastar".to_string(),
        }
    }
}

/// Point-in-time summary of the online loop (surfaced in the serve report).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    /// Committed gradient steps.
    pub steps: u64,
    /// Last published weight generation.
    pub weight_generation: u64,
    /// Current replay buffer length.
    pub replay_len: usize,
    /// Loss of the last committed step (0 before the first).
    pub last_loss: f32,
    /// True once a fault halted training (serving continues).
    pub halted: bool,
}

/// The train-while-serving loop: owns a private training cell, a bounded
/// [`ReplayBuffer`], and crash-consistent Adam state; publishes whole weight
/// generations atomically and checkpoints after every publish.
///
/// Counter semantics (all persisted except `seen`):
///
/// * `seen` — batches observed since *this process* started; the stream is
///   replayed from generation zero on restart, so it restarts at zero too.
/// * `cursor` — batches whose gradient step has *committed*, ever. On
///   resume, replayed batches with `seen <= cursor` feed the replay buffer
///   (rebuilding it deterministically) but skip training.
/// * `steps` — committed gradient steps; seeds the per-step sample streams.
pub struct OnlineTrainer {
    cfg: OnlineConfig,
    num_nodes: usize,
    params: ParamSet,
    cell: Box<dyn RecurrentCell>,
    opt: Adam,
    replay: ReplayBuffer,
    seen: u64,
    cursor: u64,
    steps: u64,
    weight_generation: u64,
    graph_generation: u64,
    published: Arc<PublishedWeights>,
    last_loss: f32,
    halted: bool,
    trajectory: Vec<f32>,
    manager: Option<CheckpointManager>,
    gauges: Arc<OnlineGauges>,
}

impl OnlineTrainer {
    /// Builds a trainer for `arch` with freshly initialised weights (the
    /// training binaries' exact RNG draw order, so checkpoints interchange).
    /// Returns `None` for an unknown architecture.
    pub fn new(
        arch: &str,
        features: usize,
        hidden: usize,
        num_nodes: usize,
        cfg: OnlineConfig,
    ) -> Option<OnlineTrainer> {
        let mut params = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let cell = build_cell(arch, &mut params, features, hidden, &mut rng)?;
        let opt = Adam::new(params.clone(), cfg.lr);
        let replay = ReplayBuffer::new(cfg.replay_cap, cfg.staleness_ms);
        let published = Arc::new(PublishedWeights {
            weight_generation: 0,
            graph_generation: 0,
            entries: params.state_dict(),
        });
        Some(OnlineTrainer {
            cfg,
            num_nodes,
            params,
            cell,
            opt,
            replay,
            seen: 0,
            cursor: 0,
            steps: 0,
            weight_generation: 0,
            graph_generation: 0,
            published,
            last_loss: 0.0,
            halted: false,
            trajectory: Vec::new(),
            manager: None,
            gauges: Arc::new(OnlineGauges::default()),
        })
    }

    /// Attaches a rotation-managed checkpoint directory: optimizer state is
    /// saved after every successful publish.
    pub fn set_manager(&mut self, manager: CheckpointManager) {
        self.manager = Some(manager);
    }

    /// The gauge cell set; call [`OnlineGauges::register`] on it to export.
    pub fn gauges(&self) -> Arc<OnlineGauges> {
        Arc::clone(&self.gauges)
    }

    /// Committed gradient steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Replay cursor: batches whose step has committed, ever.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// True once a fault halted training.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The replay buffer (tests and gauges).
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// Losses of the steps committed by *this process*, in order.
    pub fn trajectory(&self) -> &[f32] {
        &self.trajectory
    }

    /// The latest atomically published weight generation.
    pub fn published(&self) -> Arc<PublishedWeights> {
        Arc::clone(&self.published)
    }

    /// Point-in-time stats for the serve report.
    pub fn stats(&self) -> OnlineStats {
        OnlineStats {
            steps: self.steps,
            weight_generation: self.weight_generation,
            replay_len: self.replay.len(),
            last_loss: self.last_loss,
            halted: self.halted,
        }
    }

    /// Full crash-consistent state: weights, Adam moments (+ step counter),
    /// and the online counters, all in one `.stgc`-encodable dict.
    pub fn state_entries(&self) -> Vec<StateEntry> {
        let mut entries = self.params.state_dict();
        entries.extend(self.opt.state_entries());
        entries.push(encode_u64("online.steps", self.steps));
        entries.push(encode_u64("online.cursor", self.cursor));
        entries.push(encode_u64("online.weight_gen", self.weight_generation));
        entries
    }

    /// Loads weights only (a frozen training checkpoint): Adam state and
    /// counters stay fresh. Republishes so readers see the loaded weights.
    pub fn load_weights(&mut self, entries: &[StateEntry]) -> Result<(), OnlineError> {
        self.params
            .try_load_state_dict(entries)
            .map_err(OnlineError::State)?;
        self.refresh_published();
        Ok(())
    }

    /// Loads a full online checkpoint (weights + Adam + counters), as
    /// written by [`OnlineTrainer::state_entries`].
    pub fn load_entries(&mut self, entries: &[StateEntry]) -> Result<(), OnlineError> {
        self.params
            .try_load_state_dict(entries)
            .map_err(OnlineError::State)?;
        self.opt
            .load_state_entries(entries)
            .map_err(OnlineError::State)?;
        self.steps = decode_u64(entries, "online.steps").map_err(OnlineError::State)?;
        self.cursor = decode_u64(entries, "online.cursor").map_err(OnlineError::State)?;
        self.weight_generation =
            decode_u64(entries, "online.weight_gen").map_err(OnlineError::State)?;
        self.gauges.steps.store(self.steps, Ordering::Relaxed);
        self.refresh_published();
        Ok(())
    }

    /// Resumes from the newest valid rotated checkpoint in `manager`
    /// (corrupt files roll back newest→oldest). Returns the sequence loaded.
    pub fn resume_from(&mut self, manager: &CheckpointManager) -> Result<u64, OnlineError> {
        let (seq, entries) = manager.load_latest().map_err(OnlineError::Checkpoint)?;
        self.load_entries(&entries)?;
        Ok(seq)
    }

    fn refresh_published(&mut self) {
        self.published = Arc::new(PublishedWeights {
            weight_generation: self.weight_generation,
            graph_generation: self.graph_generation,
            entries: self.params.state_dict(),
        });
    }

    /// Observes one applied stream batch and — when there is anything new to
    /// learn from — runs one gradient step, publishes the new weight
    /// generation, and checkpoints. Returns the publish for the caller to
    /// install into its serving weights, or `None` when this batch only fed
    /// the replay buffer (trainer halted, batch already consumed on a
    /// previous run, or empty buffer).
    pub fn on_advance(
        &mut self,
        generation: u64,
        batch: &UpdateBatch,
        snap: Snapshot,
        feats: &Tensor,
    ) -> Result<Option<Arc<PublishedWeights>>, OnlineError> {
        self.graph_generation = generation;
        self.seen += 1;
        let now_ms = self.seen.saturating_mul(self.cfg.ms_per_generation);
        self.replay.push_batch(now_ms, batch);
        self.gauges
            .replay_len
            .store(self.replay.len() as u64, Ordering::Relaxed);
        self.gauges.generation_lag.store(
            self.graph_generation
                .saturating_sub(self.published.graph_generation),
            Ordering::Relaxed,
        );
        if self.halted || self.cursor >= self.seen {
            return Ok(None);
        }
        if self.replay.is_empty() {
            // Nothing to learn from; count the batch as consumed so a
            // resumed run skips it identically.
            self.cursor = self.seen;
            return Ok(None);
        }
        self.try_step(snap, feats)?;
        let published = self.try_publish()?;
        if let Some(manager) = &self.manager {
            if let Err(e) = manager.save(&self.state_entries()) {
                self.halted = true;
                return Err(OnlineError::Checkpoint(e));
            }
        }
        Ok(Some(published))
    }

    /// One incremental gradient step on a replay sample. On an injected
    /// `online.step` fault the half-applied step is rolled back **bitwise**
    /// (weights and Adam moments restored, rollback counted) and the trainer
    /// halts; serving continues on the last published generation.
    pub fn try_step(&mut self, snap: Snapshot, feats: &Tensor) -> Result<f32, OnlineError> {
        let k = self.cfg.batch_size.min(self.replay.len()).max(1);
        let positives = self
            .replay
            .sample(mix(self.cfg.seed, STREAM_POSITIVE, self.steps), k);
        let mut neg_rng =
            ChaCha8Rng::seed_from_u64(mix(self.cfg.seed, STREAM_NEGATIVE, self.steps));
        let mut src = Vec::with_capacity(2 * k);
        let mut dst = Vec::with_capacity(2 * k);
        let mut labels = Vec::with_capacity(2 * k);
        for e in &positives {
            src.push(e.src);
            dst.push(e.dst);
            labels.push(1.0);
        }
        let n = self.num_nodes as u32;
        for _ in 0..k {
            src.push(neg_rng.gen_range(0..n));
            dst.push(neg_rng.gen_range(0..n));
            labels.push(0.0);
        }
        let batch = LinkPredBatch {
            src: Rc::new(src),
            dst: Rc::new(dst),
            labels: Tensor::from_vec(Shape::Mat(2 * k, 1), labels),
        };
        let _pool = PoolScope::new();
        self.opt.zero_grad();
        let tape = Tape::new();
        let exec =
            TemporalExecutor::new(create_backend(&self.cfg.backend), GraphSource::Static(snap));
        let x = tape.constant(feats.clone());
        let h = self.cell.step(&tape, &exec, 0, &x, None);
        let logits = edge_logits(&h, &batch);
        let loss = logits.bce_with_logits_loss(&batch.labels);
        let loss_val = loss.value().item();
        // Snapshot pre-step state *before* mutating, so an injected fault
        // after `opt.step()` can restore it bitwise.
        let saved_params: Vec<Tensor> = self.params.iter().map(|p| p.value()).collect();
        let saved_opt = self.opt.state_entries();
        tape.backward(&loss);
        self.opt.step();
        if let Err(f) = stgraph_faultline::fault_point!("online.step") {
            for (p, v) in self.params.iter().zip(saved_params) {
                p.set_value(v);
            }
            self.opt
                .load_state_entries(&saved_opt)
                .expect("pre-step optimizer snapshot always restores");
            stgraph_faultline::note_rollback();
            self.halted = true;
            return Err(OnlineError::Fault(f));
        }
        self.steps += 1;
        self.cursor = self.seen;
        self.last_loss = loss_val;
        self.trajectory.push(loss_val);
        self.gauges.steps.store(self.steps, Ordering::Relaxed);
        stgraph_telemetry::counter("online.steps_total").inc();
        Ok(loss_val)
    }

    /// Atomically publishes the current weights as the next generation. The
    /// fault site sits *before* the swap: an injected `online.publish` fault
    /// leaves the previous generation whole (readers observe nothing) and
    /// halts the trainer.
    pub fn try_publish(&mut self) -> Result<Arc<PublishedWeights>, OnlineError> {
        let staged = self.params.state_dict();
        if let Err(f) = stgraph_faultline::fault_point!("online.publish") {
            stgraph_faultline::note_rollback();
            self.halted = true;
            return Err(OnlineError::Fault(f));
        }
        self.weight_generation += 1;
        let published = Arc::new(PublishedWeights {
            weight_generation: self.weight_generation,
            graph_generation: self.graph_generation,
            entries: staged,
        });
        self.published = Arc::clone(&published);
        self.gauges.generation_lag.store(0, Ordering::Relaxed);
        self.gauges
            .last_publish_unix_ms
            .store(unix_ms(), Ordering::Relaxed);
        stgraph_telemetry::counter("online.publishes").inc();
        Ok(published)
    }
}

fn encode_u64(name: &str, v: u64) -> StateEntry {
    (
        name.to_string(),
        Shape::Vec(2),
        vec![f32::from_bits(v as u32), f32::from_bits((v >> 32) as u32)],
    )
}

fn decode_u64(entries: &[StateEntry], name: &str) -> Result<u64, StateDictError> {
    let (_, shape, data) = entries
        .iter()
        .find(|(n, _, _)| n == name)
        .ok_or_else(|| StateDictError::MissingParam(name.to_string()))?;
    if *shape != Shape::Vec(2) || data.len() != 2 {
        return Err(StateDictError::ShapeMismatch {
            name: name.to_string(),
            expected: Shape::Vec(2),
            found: *shape,
        });
    }
    Ok((data[0].to_bits() as u64) | ((data[1].to_bits() as u64) << 32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_counters_roundtrip_through_f32_bits() {
        for v in [
            0u64,
            1,
            42,
            u32::MAX as u64,
            u64::MAX,
            1 << 33,
            0xDEAD_BEEF_CAFE,
        ] {
            let e = encode_u64("online.steps", v);
            assert_eq!(decode_u64(&[e], "online.steps").unwrap(), v);
        }
    }

    #[test]
    fn replay_eviction_is_stale_or_capacity_only() {
        let mut rb = ReplayBuffer::new(3, 100);
        rb.push(10, 0, 1);
        rb.push(20, 1, 2);
        rb.push(30, 2, 3);
        assert_eq!(rb.len(), 3);
        // Capacity displacement drops exactly the oldest.
        rb.push(40, 3, 4);
        assert_eq!(rb.len(), 3);
        assert_eq!(rb.iter().next().unwrap().t, 20);
        assert_eq!(rb.evicted_cap(), 1);
        // Staleness: advancing far drops everything aged out.
        rb.advance_to(200);
        assert_eq!(rb.len(), 0);
        assert_eq!(rb.evicted_stale(), 3);
        // An entry exactly at the bound survives.
        rb.push(200, 5, 6);
        rb.advance_to(300);
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn replay_clock_is_monotone_even_with_decreasing_times() {
        let mut rb = ReplayBuffer::new(8, 1000);
        rb.push(50, 0, 1);
        rb.push(10, 1, 2); // clamped to 50
        let ts: Vec<u64> = rb.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![50, 50]);
        assert_eq!(rb.now_ms(), 50);
    }

    #[test]
    fn sample_is_deterministic_for_fixed_seed() {
        let mut rb = ReplayBuffer::new(64, u64::MAX);
        for i in 0..40u32 {
            rb.push(i as u64, i, i + 1);
        }
        let a = rb.sample(7, 16);
        let b = rb.sample(7, 16);
        assert_eq!(a, b);
        let c = rb.sample(8, 16);
        assert_ne!(a, c, "different seeds should sample differently");
    }

    #[test]
    fn online_trainer_trajectory_is_seed_deterministic() {
        let feats = Tensor::from_vec(Shape::Mat(6, 3), (0..18).map(|i| i as f32 * 0.1).collect());
        let run = || {
            let mut t = OnlineTrainer::new("tgcn", 3, 4, 6, OnlineConfig::default()).unwrap();
            let batch = UpdateBatch {
                additions: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
                deletions: Vec::new(),
            };
            let mut live = crate::LiveGraph::from_edges(6, &[(0, 1), (1, 2)]);
            let snap = live.snapshot().1;
            let mut losses = Vec::new();
            for g in 1..=4u64 {
                if let Some(p) = t.on_advance(g, &batch, snap.clone(), &feats).unwrap() {
                    assert_eq!(p.weight_generation, g);
                }
                losses.push(t.stats().last_loss.to_bits());
            }
            losses
        };
        assert_eq!(run(), run());
    }
}
