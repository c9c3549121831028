//! Streaming synthetic graphs at 10M+ nodes.
//!
//! The Table II generators materialise their edge lists — fine at SNAP
//! scale, hopeless for graphs an order of magnitude past anything in the
//! paper. This module generates **community-structured power-law** edge
//! streams lazily: an [`EdgeStream`] is a seeded iterator with O(1)
//! state, so a 10M-node / 30M-edge graph costs nothing until consumed and
//! can be replayed by constructing it again (same config ⇒
//! bitwise-identical stream).
//!
//! Shape: vertices split into equal-size communities; each edge stays
//! inside its community with probability `intra_prob`, endpoints drawn
//! power-law over community-local ranks (every community has its own
//! hubs). Edges arrive in community-correlated *bursts* — runs of
//! `burst` edges biased toward one community — matching the temporal
//! locality of real interaction streams (conversations cluster).
//!
//! [`UpdateStream`] extends the same distribution to churn: batches of
//! insertions from the generator plus deletions sampled from a bounded
//! reservoir of previously-inserted edges, so deletions always hit edges
//! that exist without remembering the full history.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One timestamped edge event — the unit the CTDG stack keys everything
/// off, and the entry type of the online trainer's replay buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEdge {
    /// Source vertex.
    pub src: u32,
    /// Destination vertex.
    pub dst: u32,
    /// Event timestamp; non-decreasing within a stream.
    pub t: u64,
}

/// Configuration for [`community_stream`] / [`UpdateStream`].
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Total vertices.
    pub num_nodes: usize,
    /// Edges the base stream yields (events, not necessarily distinct).
    pub num_edges: usize,
    /// Number of equal-size communities.
    pub communities: usize,
    /// Probability an edge stays within its community.
    pub intra_prob: f64,
    /// Power-law exponent over community-local ranks (1.0 = uniform;
    /// higher = heavier hubs).
    pub exponent: f64,
    /// Length of community-correlated runs in the stream (1 = fully
    /// interleaved).
    pub burst: usize,
    /// RNG seed; equal configs yield bitwise-identical streams.
    pub seed: u64,
}

impl SynthConfig {
    /// A reasonable default shape: 64 communities, 90% intra-community
    /// edges, moderate hubs, bursts of 64.
    pub fn new(num_nodes: usize, num_edges: usize, seed: u64) -> SynthConfig {
        SynthConfig {
            num_nodes,
            num_edges,
            communities: 64,
            intra_prob: 0.9,
            exponent: 1.8,
            burst: 64,
            seed,
        }
    }
}

/// Power-law rank draw over `0..range` (rank 0 is the biggest hub).
#[inline]
fn powerlaw_rank(rng: &mut ChaCha8Rng, range: u32, exponent: f64) -> u32 {
    let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
    ((range as f64 * u.powf(exponent)) as u32).min(range - 1)
}

/// Lazy community-structured edge stream (see module docs). O(1) state;
/// reconstruct with the same config to replay.
pub struct EdgeStream {
    cfg: SynthConfig,
    rng: ChaCha8Rng,
    /// Community the current burst is biased toward.
    burst_comm: u32,
    /// Edges left in the current burst.
    burst_left: usize,
    /// Edges left overall.
    remaining: usize,
}

impl EdgeStream {
    fn community_bounds(&self, c: u32) -> (u32, u32) {
        let n = self.cfg.num_nodes as u64;
        let k = self.cfg.communities as u64;
        let base = (c as u64 * n / k) as u32;
        let end = ((c as u64 + 1) * n / k) as u32;
        (base, end.max(base + 1))
    }
}

impl Iterator for EdgeStream {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.burst_left == 0 {
            self.burst_comm = self.rng.gen_range(0..self.cfg.communities as u32);
            self.burst_left = self.cfg.burst.max(1);
        }
        self.burst_left -= 1;
        let (base, end) = self.community_bounds(self.burst_comm);
        let size = end - base;
        let u = base + powerlaw_rank(&mut self.rng, size, self.cfg.exponent);
        let mut v = if self.rng.gen_bool(self.cfg.intra_prob) {
            base + powerlaw_rank(&mut self.rng, size, self.cfg.exponent)
        } else {
            self.rng.gen_range(0..self.cfg.num_nodes as u32)
        };
        if v == u {
            v = base + (u - base + 1 + self.rng.gen_range(0..size.max(2) - 1)) % size;
            if v == u {
                v = (u + 1) % self.cfg.num_nodes as u32;
            }
        }
        Some((u, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Builds the seeded lazy stream for `cfg`.
pub fn community_stream(cfg: &SynthConfig) -> EdgeStream {
    assert!(cfg.num_nodes >= 2, "need at least two vertices");
    assert!(cfg.communities >= 1 && cfg.communities <= cfg.num_nodes);
    EdgeStream {
        cfg: cfg.clone(),
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        burst_comm: 0,
        burst_left: 0,
        remaining: cfg.num_edges,
    }
}

/// One churn batch: `(additions, deletions)`.
pub type UpdateBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Churn generator: insertion batches from the same distribution as the
/// base stream, deletion batches sampled from a bounded reservoir of
/// previously-inserted edges. Deterministic given the config.
pub struct UpdateStream {
    gen: EdgeStream,
    rng: ChaCha8Rng,
    reservoir: Vec<(u32, u32)>,
    reservoir_cap: usize,
    /// Deletions per insertion (0.0 = insert-only).
    delete_frac: f64,
}

impl UpdateStream {
    /// `cfg.num_edges` bounds the total insertions the stream will yield.
    pub fn new(cfg: &SynthConfig, delete_frac: f64, reservoir_cap: usize) -> UpdateStream {
        UpdateStream {
            gen: community_stream(cfg),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5eed_cafe),
            reservoir: Vec::with_capacity(reservoir_cap.min(1 << 20)),
            reservoir_cap,
            delete_frac,
        }
    }

    /// Next batch of `(additions, deletions)`; `None` when the insertion
    /// budget is exhausted. Deletions are distinct edges previously
    /// handed out as additions (never more than `delete_frac × adds`).
    pub fn next_batch(&mut self, batch_edges: usize) -> Option<UpdateBatch> {
        let adds: Vec<(u32, u32)> = self.gen.by_ref().take(batch_edges).collect();
        if adds.is_empty() {
            return None;
        }
        let want_dels = ((adds.len() as f64 * self.delete_frac) as usize).min(self.reservoir.len());
        let mut dels = Vec::with_capacity(want_dels);
        for _ in 0..want_dels {
            let i = self.rng.gen_range(0..self.reservoir.len());
            dels.push(self.reservoir.swap_remove(i));
        }
        for &pair in &adds {
            if self.reservoir.len() < self.reservoir_cap {
                self.reservoir.push(pair);
            } else {
                let i = self.rng.gen_range(0..self.reservoir.len());
                self.reservoir[i] = pair;
            }
        }
        Some((adds, dels))
    }
}

/// Configuration for [`fraud_stream`]: a continuous-time interaction
/// stream (e.g. payments) with injected fraud bursts.
#[derive(Debug, Clone)]
pub struct FraudConfig {
    /// Total vertices. The top [`FraudConfig::fraud_nodes`] ids form the
    /// fraud ring.
    pub num_nodes: usize,
    /// Total events the stream yields (background + burst).
    pub num_events: usize,
    /// Communities for the background traffic (as [`SynthConfig`]).
    pub communities: usize,
    /// Probability a background edge stays within its community.
    pub intra_prob: f64,
    /// Power-law exponent over community-local ranks.
    pub exponent: f64,
    /// Size of the fraud ring (node ids `num_nodes - fraud_nodes ..`).
    pub fraud_nodes: usize,
    /// Per-background-event probability of starting a fraud burst.
    pub burst_start_prob: f64,
    /// Events per fraud burst.
    pub burst_len: usize,
    /// Mean inter-arrival time of background events (ticks). Burst events
    /// arrive an order of magnitude faster — that velocity is the signal.
    pub mean_dt: u64,
    /// RNG seed; equal configs yield bitwise-identical streams.
    pub seed: u64,
}

impl FraudConfig {
    /// Default shape: 32 communities, 90% intra, a 1% fraud ring, ~3% of
    /// events inside bursts of 48, background inter-arrival mean 4 ticks.
    pub fn new(num_nodes: usize, num_events: usize, seed: u64) -> FraudConfig {
        FraudConfig {
            num_nodes,
            num_events,
            communities: 32,
            intra_prob: 0.9,
            exponent: 1.8,
            fraud_nodes: (num_nodes / 100).clamp(2, 1024),
            burst_start_prob: 0.0007,
            burst_len: 48,
            mean_dt: 4,
            seed,
        }
    }
}

/// One event of a [`FraudStream`]: a timestamped interaction plus its
/// ground-truth label (true = part of an injected fraud burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FraudEvent {
    /// The timestamped interaction.
    pub edge: TimedEdge,
    /// True when the event belongs to an injected fraud burst.
    pub fraud: bool,
}

/// Lazy seeded continuous-time event stream with injected fraud bursts —
/// the CTDG analogue of [`community_stream`]. Background interactions are
/// community-structured power-law edges whose clock advances by a random
/// inter-arrival around `mean_dt`; with probability `burst_start_prob` a
/// background event triggers a *burst*: `burst_len` rapid-fire (dt ∈
/// {0,1}) interactions between fraud-ring members and power-law-chosen
/// victims. O(1) state, replayable: same config ⇒ bitwise-identical
/// stream.
pub struct FraudStream {
    cfg: FraudConfig,
    rng: ChaCha8Rng,
    clock: u64,
    burst_left: usize,
    /// Victim the current burst drains (bursts fan in on one target).
    burst_victim: u32,
    remaining: usize,
}

impl Iterator for FraudStream {
    type Item = FraudEvent;

    fn next(&mut self) -> Option<FraudEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = self.cfg.num_nodes as u32;
        let ring = self.cfg.fraud_nodes as u32;
        let ring_base = n - ring;
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.clock += self.rng.gen_range(0u64..=1);
            let src = ring_base + self.rng.gen_range(0..ring);
            let mut dst = if self.rng.gen_bool(0.3) {
                ring_base + self.rng.gen_range(0..ring)
            } else {
                self.burst_victim
            };
            if dst == src {
                dst = if src == self.burst_victim {
                    (src + 1) % n
                } else {
                    self.burst_victim
                };
            }
            return Some(FraudEvent {
                edge: TimedEdge {
                    src,
                    dst,
                    t: self.clock,
                },
                fraud: true,
            });
        }
        // Background event: community power-law, normal velocity.
        self.clock += self.rng.gen_range(1..=2 * self.cfg.mean_dt.max(1) - 1);
        let comm = self.rng.gen_range(0..self.cfg.communities as u32);
        let k = self.cfg.communities as u64;
        let base = (comm as u64 * n as u64 / k) as u32;
        let end = (((comm as u64 + 1) * n as u64 / k) as u32).max(base + 1);
        let size = end - base;
        let src = base + powerlaw_rank(&mut self.rng, size, self.cfg.exponent);
        let mut dst = if self.rng.gen_bool(self.cfg.intra_prob) {
            base + powerlaw_rank(&mut self.rng, size, self.cfg.exponent)
        } else {
            self.rng.gen_range(0..n)
        };
        if dst == src {
            dst = (src + 1) % n;
        }
        if self.rng.gen_bool(self.cfg.burst_start_prob) {
            self.burst_left = self.cfg.burst_len;
            self.burst_victim = powerlaw_rank(&mut self.rng, n, self.cfg.exponent);
        }
        Some(FraudEvent {
            edge: TimedEdge {
                src,
                dst,
                t: self.clock,
            },
            fraud: false,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Builds the seeded lazy fraud-burst stream for `cfg`.
pub fn fraud_stream(cfg: &FraudConfig) -> FraudStream {
    assert!(cfg.num_nodes >= 4, "need at least four vertices");
    assert!(cfg.fraud_nodes >= 2 && cfg.fraud_nodes < cfg.num_nodes);
    assert!(cfg.communities >= 1 && cfg.communities <= cfg.num_nodes);
    FraudStream {
        cfg: cfg.clone(),
        rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xf4a0_d5ee),
        clock: 0,
        burst_left: 0,
        burst_victim: 0,
        remaining: cfg.num_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthConfig {
        SynthConfig {
            num_nodes: 1000,
            num_edges: 5000,
            communities: 8,
            intra_prob: 0.9,
            exponent: 1.8,
            burst: 16,
            seed: 42,
        }
    }

    #[test]
    fn stream_is_replayable_and_sized() {
        let cfg = small();
        let a: Vec<_> = community_stream(&cfg).collect();
        let b: Vec<_> = community_stream(&cfg).collect();
        assert_eq!(a.len(), 5000);
        assert_eq!(a, b, "same config must replay bitwise-identically");
    }

    #[test]
    fn edges_are_in_range_without_self_loops() {
        let cfg = small();
        for (u, v) in community_stream(&cfg) {
            assert!((u as usize) < cfg.num_nodes && (v as usize) < cfg.num_nodes);
            assert_ne!(u, v, "no self-loops");
        }
    }

    #[test]
    fn streams_have_community_structure() {
        let cfg = small();
        let comm = |x: u32| x as usize * cfg.communities / cfg.num_nodes;
        let intra = community_stream(&cfg)
            .filter(|&(u, v)| comm(u) == comm(v))
            .count();
        // intra_prob 0.9 plus the 1/k of cross edges landing home.
        assert!(
            intra as f64 > 0.8 * cfg.num_edges as f64,
            "expected mostly intra-community edges, got {intra}/5000"
        );
    }

    #[test]
    fn huge_streams_are_lazy() {
        // 20M nodes / 50M edges: constructing and peeking must be instant
        // and allocation-free apart from the iterator itself.
        let cfg = SynthConfig::new(20_000_000, 50_000_000, 7);
        let mut s = community_stream(&cfg);
        let first = s.next().unwrap();
        assert!((first.0 as usize) < cfg.num_nodes);
        assert_eq!(s.size_hint().0, 49_999_999);
    }

    #[test]
    fn batches_carry_the_base_stream_in_order() {
        let cfg = small();
        let base: Vec<_> = community_stream(&cfg).collect();
        let mut us = UpdateStream::new(&cfg, 0.3, 1024);
        let mut adds = Vec::new();
        while let Some((a, _)) = us.next_batch(256) {
            adds.extend(a);
        }
        assert_eq!(adds, base, "insertions are the base stream, uninterleaved");
    }

    /// Pins `next_batch` at the gated `serve_mixed` workload's shape (12 000
    /// nodes, seed 1, 658 insertions and 0.9 deletions per insertion from a
    /// 2^16 reservoir): FNV-1a over the first 16 batches. The benchmark
    /// replays this stream, so a changed RNG draw order must fail here and
    /// not surface as a benchmark shift.
    #[test]
    fn update_stream_batches_are_pinned() {
        let cfg = SynthConfig::new(12_000, usize::MAX / 2, 1 ^ 0x1263);
        let mut us = UpdateStream::new(&cfg, 0.9, 1 << 16);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for _ in 0..16 {
            let (adds, dels) = us.next_batch(658).expect("endless stream");
            mix(adds.len() as u64);
            mix(dels.len() as u64);
            for &(u, v) in adds.iter().chain(&dels) {
                mix(u as u64);
                mix(v as u64);
            }
        }
        assert_eq!(hash, 8_990_721_092_223_888_717);
    }

    #[test]
    fn fraud_stream_is_replayable_with_bursts() {
        let cfg = FraudConfig::new(2000, 20_000, 9);
        let a: Vec<_> = fraud_stream(&cfg).collect();
        let b: Vec<_> = fraud_stream(&cfg).collect();
        assert_eq!(a, b, "same config must replay bitwise-identically");
        assert_eq!(a.len(), 20_000);
        let fraud = a.iter().filter(|e| e.fraud).count();
        assert!(
            fraud > 100 && fraud < a.len() / 2,
            "expected a minority of fraud events, got {fraud}/20000"
        );
        let mut last_t = 0u64;
        for e in &a {
            assert!(e.edge.t >= last_t, "timestamps must be non-decreasing");
            last_t = e.edge.t;
            assert_ne!(e.edge.src, e.edge.dst, "no self-loops");
            assert!((e.edge.src as usize) < cfg.num_nodes);
            assert!((e.edge.dst as usize) < cfg.num_nodes);
            if e.fraud {
                let ring_base = (cfg.num_nodes - cfg.fraud_nodes) as u32;
                assert!(e.edge.src >= ring_base, "burst src must be in the ring");
            }
        }
    }

    #[test]
    fn fraud_bursts_are_fast_and_background_is_slow() {
        let cfg = FraudConfig::new(2000, 50_000, 3);
        let events: Vec<_> = fraud_stream(&cfg).collect();
        let (mut fraud_dt, mut fraud_n, mut bg_dt, mut bg_n) = (0u64, 0u64, 0u64, 0u64);
        for w in events.windows(2) {
            let dt = w[1].edge.t - w[0].edge.t;
            if w[1].fraud {
                fraud_dt += dt;
                fraud_n += 1;
            } else {
                bg_dt += dt;
                bg_n += 1;
            }
        }
        assert!(fraud_n > 0 && bg_n > 0);
        let fraud_mean = fraud_dt as f64 / fraud_n as f64;
        let bg_mean = bg_dt as f64 / bg_n as f64;
        assert!(
            fraud_mean * 3.0 < bg_mean,
            "burst velocity must dominate: fraud {fraud_mean:.2} vs background {bg_mean:.2}"
        );
    }

    #[test]
    fn update_stream_deletes_only_prior_insertions() {
        let cfg = small();
        let mut inserted = std::collections::HashSet::new();
        let mut us = UpdateStream::new(&cfg, 0.3, 1024);
        let mut batches = 0;
        while let Some((adds, dels)) = us.next_batch(256) {
            for d in &dels {
                assert!(inserted.contains(d), "deletion {d:?} never inserted");
            }
            for a in adds {
                inserted.insert(a);
            }
            batches += 1;
        }
        assert_eq!(batches, 5000usize.div_ceil(256));
    }
}
