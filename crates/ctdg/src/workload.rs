//! End-to-end continuous-time link prediction over the fraud-burst
//! stream: the CTDG analogue of the snapshot workloads in `stgraph`.
//!
//! The stream is split **chronologically** 70/15/15 into train/val/test —
//! the only split that makes sense for temporal data (a random split
//! would let the model peek at the future). Each epoch resets the
//! per-node memory and replays the stream in order: every batch of
//! events steps the [`TgnMemory`](crate::TgnMemory) GRU for the nodes
//! involved, aggregates sampled temporal neighbors, and scores the real
//! destination against a corrupted one (BCE on the pair of logits).
//! Validation and test replay the same machinery without gradients —
//! memory keeps evolving through eval, as in TGN.
//!
//! Reproducibility contract: every random draw — GRU init, negative
//! sampling, uniform neighbor sampling — is a pure function of
//! `(cfg.seed, epoch, batch)`, never of iteration history. Together with
//! the per-epoch memory reset and bitwise Adam-state checkpointing, this
//! makes `--resume` *exact*: a run killed at an epoch boundary and
//! resumed produces the same loss trajectory as one that never stopped.

use std::rc::Rc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stgraph::metrics::roc_auc;
use stgraph_datasets::{fraud_stream, FraudConfig, FraudEvent};
use stgraph_serve::manager::CheckpointManager;
use stgraph_tensor::nn::{Linear, ParamSet, StateEntry};
use stgraph_tensor::optim::{clip_grad_norm, Adam};
use stgraph_tensor::{Param, PoolScope, Shape, StateDict, Tape, Tensor};

use crate::sampler::{sample, SamplerConfig, Strategy};
use crate::{CtdgStore, TgnMemory, TgnMemoryConfig};

/// Name of the bookkeeping entry that records the last finished epoch in
/// a checkpoint (stored alongside the model/optimizer state).
pub const EPOCH_ENTRY: &str = "ctdg.epoch";

/// Configuration for the CTDG link-prediction workload.
#[derive(Debug, Clone)]
pub struct CtdgConfig {
    /// Vertices in the synthetic stream.
    pub num_nodes: usize,
    /// Events in the synthetic stream.
    pub num_events: usize,
    /// Memory / embedding width.
    pub dim: usize,
    /// Temporal neighbors sampled per query.
    pub k: usize,
    /// Events per training batch.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Neighbor sampling strategy.
    pub strategy: Strategy,
    /// Master seed: data, init, negatives, and sampling all derive from it.
    pub seed: u64,
}

impl CtdgConfig {
    /// A small smoke-test shape (seconds, not minutes).
    pub fn smoke(seed: u64) -> CtdgConfig {
        CtdgConfig {
            num_nodes: 400,
            num_events: 4000,
            dim: 16,
            k: 8,
            batch_size: 200,
            epochs: 2,
            lr: 1e-2,
            strategy: Strategy::Recent,
            seed,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based, global across resumes).
    pub epoch: usize,
    /// Mean training-batch loss.
    pub loss: f32,
    /// Link-prediction ROC-AUC on the chronological validation slice.
    pub val_auc: f32,
}

/// Result of a [`CtdgWorkload`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CtdgReport {
    /// Stats for each epoch *this run* executed (a resumed run reports
    /// only the epochs it ran).
    pub epochs: Vec<EpochStats>,
    /// ROC-AUC on the held-out chronological test slice (after the final
    /// epoch), or `NaN` if no epoch ran.
    pub test_auc: f32,
    /// Events in the train/val/test slices.
    pub split: (usize, usize, usize),
}

/// Link scorer head + projections around the shared [`TgnMemory`].
struct CtdgModel {
    memory: TgnMemory,
    head: ParamSet,
    nbr_proj: Linear,
    self_proj: Linear,
    score1: Linear,
    score2: Linear,
}

impl CtdgModel {
    fn new(cfg: &CtdgConfig) -> CtdgModel {
        let memory = TgnMemory::new(TgnMemoryConfig {
            num_nodes: cfg.num_nodes,
            dim: cfg.dim,
            seed: cfg.seed,
        });
        let mut head = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xc7d6_0002);
        let d = cfg.dim;
        let nbr_proj = Linear::new(&mut head, "ctdg.nbr_proj", d, d, true, &mut rng);
        let self_proj = Linear::new(&mut head, "ctdg.self_proj", d, d, true, &mut rng);
        let score1 = Linear::new(&mut head, "ctdg.score1", 2 * d, d, true, &mut rng);
        let score2 = Linear::new(&mut head, "ctdg.score2", d, 1, true, &mut rng);
        CtdgModel {
            memory,
            head,
            nbr_proj,
            self_proj,
            score1,
            score2,
        }
    }

    /// Everything the optimizer steps (GRU weights + head; the memory
    /// *state* is not a trainable parameter).
    fn trainable(&self) -> ParamSet {
        let mut ps = self.memory.weights().clone();
        ps.extend(&self.head);
        ps
    }
}

impl StateDict for CtdgModel {
    fn parameters(&self) -> Vec<Param> {
        let mut ps = self.memory.parameters();
        ps.extend(self.head.iter().cloned());
        ps
    }
}

/// splitmix64-style mix for deriving per-(epoch, batch) stream seeds.
#[inline]
fn mix(seed: u64, epoch: u64, batch: u64) -> u64 {
    let mut x = seed
        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ batch.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The runnable workload: stream + store + model + optimizer.
pub struct CtdgWorkload {
    cfg: CtdgConfig,
    store: CtdgStore,
    events: Vec<FraudEvent>,
    /// `events[..train_end]` train, `..val_end` val, rest test.
    train_end: usize,
    val_end: usize,
    model: CtdgModel,
    opt: Adam,
}

impl CtdgWorkload {
    /// Generates the stream, indexes it, and initialises model and
    /// optimizer. Deterministic in `cfg`.
    pub fn new(cfg: CtdgConfig) -> CtdgWorkload {
        let _sp = stgraph_telemetry::span_cat("ctdg.setup", "ctdg");
        let fcfg = FraudConfig::new(cfg.num_nodes, cfg.num_events, cfg.seed);
        let events: Vec<FraudEvent> = fraud_stream(&fcfg).collect();
        // The whole stream is indexed up front: the sampler's strict
        // `t < query` horizon makes future events invisible, so one index
        // serves every epoch and split without leakage.
        let mut store = CtdgStore::new(cfg.num_nodes);
        for chunk in events
            .chunks(4096)
            .map(|c| c.iter().map(|e| e.edge).collect::<Vec<_>>())
        {
            store.append_batch(&chunk);
        }
        store.index().install_gauges();
        let n = events.len();
        let train_end = n * 70 / 100;
        let val_end = n * 85 / 100;
        let model = CtdgModel::new(&cfg);
        let opt = Adam::new(model.trainable(), cfg.lr);
        CtdgWorkload {
            cfg,
            store,
            events,
            train_end,
            val_end,
            model,
            opt,
        }
    }

    /// The indexed event store (tests and benches poke at it).
    pub fn store(&self) -> &CtdgStore {
        &self.store
    }

    /// The workload configuration.
    pub fn config(&self) -> &CtdgConfig {
        &self.cfg
    }

    /// Forward pass over `events[lo..hi]`. Steps the optimizer when
    /// `train`; always commits memory. Returns `(loss, pos, neg)` logits
    /// for metric accumulation.
    fn run_batch(
        &mut self,
        lo: usize,
        hi: usize,
        epoch: usize,
        batch: usize,
        train: bool,
    ) -> (f32, Vec<f32>, Vec<f32>) {
        let b = hi - lo;
        let d = self.cfg.dim;
        let slice = &self.events[lo..hi];
        let mut rows: Vec<u32> = Vec::with_capacity(3 * b);
        let mut times: Vec<u64> = Vec::with_capacity(3 * b);
        rows.extend(slice.iter().map(|e| e.edge.src));
        rows.extend(slice.iter().map(|e| e.edge.dst));
        let mut neg_rng = ChaCha8Rng::seed_from_u64(mix(self.cfg.seed, epoch as u64, batch as u64));
        for e in slice {
            // Corrupt the destination; avoid the true endpoints.
            let neg = loop {
                let c = neg_rng.gen_range(0..self.cfg.num_nodes as u32);
                if c != e.edge.src && c != e.edge.dst {
                    break c;
                }
            };
            rows.push(neg);
        }
        for _ in 0..3 {
            times.extend(slice.iter().map(|e| e.edge.t));
        }

        // Message content: each endpoint sees its partner's memory;
        // negatives see a zero message (no real interaction happened).
        let mut partner = Vec::with_capacity(2 * b);
        partner.extend(slice.iter().map(|e| e.edge.dst));
        partner.extend(slice.iter().map(|e| e.edge.src));
        let mut partner_mem = self.model.memory.read_rows(&partner).to_vec();
        partner_mem.resize(3 * b * d, 0.0);

        // Temporal neighbors from the current (pre-update) memory.
        let queries: Vec<(u32, u64)> = rows.iter().copied().zip(times.iter().copied()).collect();
        let ns = sample(
            self.store.index(),
            &queries,
            &SamplerConfig {
                k: self.cfg.k,
                strategy: self.cfg.strategy,
                seed: mix(self.cfg.seed ^ 0x5a3b, epoch as u64, batch as u64),
            },
        );

        let tape = Tape::new();
        let h = tape.constant(self.model.memory.read_rows(&rows));
        let p = tape.constant(Tensor::from_vec(Shape::Mat(3 * b, d), partner_mem));
        let enc = tape.constant(self.model.memory.time_encode(&rows, &times));
        let h2 = self.model.memory.update(&tape, &h, &p, &enc);

        let nbr_mem = tape.constant(self.model.memory.read_rows(&ns.nbrs));
        let agg = self
            .model
            .nbr_proj
            .forward(&tape, &nbr_mem)
            .scale_rows_const(&ns.weights)
            .scatter_add_rows(Rc::new(ns.scatter_idx()), 3 * b);
        let emb = self.model.self_proj.forward(&tape, &h2).add(&agg).relu();

        let idx =
            |range: std::ops::Range<usize>| Rc::new(range.map(|i| i as u32).collect::<Vec<_>>());
        let emb_src = emb.gather_rows(idx(0..b));
        let emb_dst = emb.gather_rows(idx(b..2 * b));
        let emb_neg = emb.gather_rows(idx(2 * b..3 * b));
        let pos_h = self
            .model
            .score1
            .forward_parts(&tape, &[&emb_src, &emb_dst])
            .relu();
        let pos = self.model.score2.forward(&tape, &pos_h);
        let neg_h = self
            .model
            .score1
            .forward_parts(&tape, &[&emb_src, &emb_neg])
            .relu();
        let neg = self.model.score2.forward(&tape, &neg_h);
        let ones = Tensor::ones(Shape::Mat(b, 1));
        let zeros = Tensor::zeros(Shape::Mat(b, 1));
        let loss = pos
            .bce_with_logits_loss(&ones)
            .add(&neg.bce_with_logits_loss(&zeros))
            .mul_scalar(0.5);
        let loss_v = loss.value().item();

        if train {
            tape.backward(&loss);
            clip_grad_norm(&self.model.trainable(), 5.0);
            self.opt.step();
            self.opt.zero_grad();
        }

        // Commit the post-interaction memories for the real endpoints
        // (rows 0..2b), stamped with the event times.
        let upd = Tensor::from_vec(
            Shape::Mat(2 * b, d),
            h2.value().data()[..2 * b * d].to_vec(),
        );
        self.model
            .memory
            .commit(&rows[..2 * b], &upd, &times[..2 * b]);

        (loss_v, pos.value().to_vec(), neg.value().to_vec())
    }

    /// Replays `events[lo..hi]` without gradients and returns ROC-AUC.
    fn evaluate(&mut self, lo: usize, hi: usize, epoch: usize, tag: u64) -> f32 {
        let bs = self.cfg.batch_size;
        let mut logits: Vec<f32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        let mut start = lo;
        let mut batch = tag; // disjoint batch-id space per segment
        while start < hi {
            let end = (start + bs).min(hi);
            let (_, pos, neg) = self.run_batch(start, end, epoch, batch as usize, false);
            labels.extend(std::iter::repeat_n(1.0, pos.len()));
            labels.extend(std::iter::repeat_n(0.0, neg.len()));
            logits.extend(pos);
            logits.extend(neg);
            start = end;
            batch += 1;
        }
        let n = logits.len();
        roc_auc(
            &Tensor::from_vec(Shape::Vec(n), logits),
            &Tensor::from_vec(Shape::Vec(n), labels),
        )
    }

    /// One epoch: memory reset, train slice with gradients, val slice
    /// without. Returns the epoch's stats.
    fn run_epoch(&mut self, epoch: usize) -> EpochStats {
        let _sp = stgraph_telemetry::span_cat("ctdg.epoch", "ctdg");
        self.model.memory.reset_state();
        let bs = self.cfg.batch_size;
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        let mut start = 0usize;
        while start < self.train_end {
            let end = (start + bs).min(self.train_end);
            let (loss, _, _) = self.run_batch(start, end, epoch, batches, true);
            loss_sum += loss;
            batches += 1;
            start = end;
        }
        let val_auc = self.evaluate(self.train_end, self.val_end, epoch, 1 << 32);
        stgraph_telemetry::counter("ctdg.epochs").inc();
        EpochStats {
            epoch,
            loss: loss_sum / batches.max(1) as f32,
            val_auc,
        }
    }

    /// Checkpoint payload: model (GRU + head + memory state) + Adam
    /// moments + the epoch counter.
    fn checkpoint_entries(&self, epoch: usize) -> Vec<StateEntry> {
        let mut entries = self.model.to_state_dict();
        entries.extend(self.opt.state_entries());
        entries.push((EPOCH_ENTRY.to_string(), Shape::Scalar, vec![epoch as f32]));
        entries
    }

    /// Restores model + optimizer from checkpoint entries; returns the
    /// recorded epoch.
    pub fn restore(&mut self, entries: &[StateEntry]) -> Result<usize, String> {
        let (_, _, epoch_data) = entries
            .iter()
            .find(|(n, _, _)| n == EPOCH_ENTRY)
            .ok_or_else(|| format!("checkpoint has no '{EPOCH_ENTRY}' entry"))?;
        self.model
            .try_load_state_dict(entries)
            .map_err(|e| e.to_string())?;
        self.opt
            .load_state_entries(entries)
            .map_err(|e| e.to_string())?;
        Ok(epoch_data[0] as usize)
    }

    /// Runs all epochs (no checkpointing) and the final test eval.
    pub fn run(&mut self) -> CtdgReport {
        self.run_from(0, None)
    }

    /// Runs epochs with per-epoch checkpoints; `resume` loads the latest
    /// checkpoint first and continues after its recorded epoch.
    pub fn run_with_checkpoints(
        &mut self,
        manager: &CheckpointManager,
        resume: bool,
    ) -> CtdgReport {
        let start = if resume {
            let (_, entries) = manager
                .load_latest()
                .unwrap_or_else(|e| panic!("resume: {e}"));
            let done = self
                .restore(&entries)
                .unwrap_or_else(|e| panic!("resume: {e}"));
            done + 1
        } else {
            0
        };
        self.run_from(start, Some(manager))
    }

    fn run_from(&mut self, start: usize, manager: Option<&CheckpointManager>) -> CtdgReport {
        let _scope = PoolScope::new();
        let mut epochs = Vec::new();
        for e in start..self.cfg.epochs {
            let stats = self.run_epoch(e);
            if let Some(m) = manager {
                m.save(&self.checkpoint_entries(e))
                    .unwrap_or_else(|err| panic!("checkpoint save: {err}"));
            }
            epochs.push(stats);
        }
        // Test continues chronologically from the last epoch's val state.
        let test_auc = if epochs.is_empty() {
            f32::NAN
        } else {
            let last = epochs.last().unwrap().epoch;
            self.evaluate(self.val_end, self.events.len(), last, 1 << 33)
        };
        CtdgReport {
            epochs,
            test_auc,
            split: (
                self.train_end,
                self.val_end - self.train_end,
                self.events.len() - self.val_end,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_learns_and_reports() {
        let mut w = CtdgWorkload::new(CtdgConfig::smoke(7));
        let report = w.run();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.epochs.iter().all(|e| e.loss.is_finite()));
        assert!(report.test_auc.is_finite());
        // Chronological split accounts for every event.
        let (tr, va, te) = report.split;
        assert_eq!(tr + va + te, w.config().num_events);
        // A learned model separates real from corrupted destinations
        // clearly better than chance on held-out future events.
        assert!(
            report.test_auc > 0.6,
            "test AUC {} should beat chance",
            report.test_auc
        );
    }

    #[test]
    fn identical_seeds_reproduce_bitwise() {
        let a = CtdgWorkload::new(CtdgConfig::smoke(3)).run();
        let b = CtdgWorkload::new(CtdgConfig::smoke(3)).run();
        assert_eq!(a, b);
        let c = CtdgWorkload::new(CtdgConfig::smoke(4)).run();
        assert_ne!(a, c);
    }
}
