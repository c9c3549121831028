//! Deterministic, seeded temporal neighbor sampling over the T-CSR —
//! the new hot path this workload family opens.
//!
//! A query is `(node, t)`: "give me up to *k* of this node's interactions
//! strictly before *t*". Two strategies, per TGL:
//!
//! * **Recent** — the true *k* most-recent such interactions, emitted
//!   oldest-first: the tail window of the node's
//!   [`history`](TCsr::history) slice. No RNG.
//! * **Uniform** — *k* distinct interactions uniform over everything
//!   before *t*, via Floyd's algorithm over the same slice, emitted in
//!   time order. RNG is derived *per query* from `(seed, query index)`
//!   with a splitmix64 scramble, so results are independent of thread
//!   schedule and batch partitioning — the parallel sampler is bitwise
//!   reproducible.
//!
//! Output is a padded `q × k` struct-of-arrays batch with an f32 validity
//! mask and per-slot mean-aggregation weights (`mask / count`), shaped to
//! feed the tensor stack directly: gather rows with
//! [`NeighborSample::nbrs`], scale with [`NeighborSample::weights`],
//! scatter-add with [`NeighborSample::scatter_idx`]. The f32 planes are
//! allocated through `stgraph-tensor`'s tracked buffers, so a surrounding
//! [`PoolScope`](stgraph_tensor::PoolScope) (the train loop and bench hold
//! one) recycles them across batches instead of hitting the allocator.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use stgraph_tensor::mem::TrackedBuf;
use stgraph_tensor::{Shape, Tensor};

use crate::{Entry, TCsr};

/// Which temporal neighbors a query draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The k most-recent interactions before the query time.
    Recent,
    /// k distinct interactions uniform over all before the query time.
    Uniform,
}

impl Strategy {
    /// Stable lowercase name (CLI flags, bench report keys).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Recent => "recent",
            Strategy::Uniform => "uniform",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "recent" => Ok(Strategy::Recent),
            "uniform" => Ok(Strategy::Uniform),
            other => Err(format!("unknown strategy '{other}' (recent|uniform)")),
        }
    }
}

/// Seeded sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Neighbors per query (slots; queries with fewer valid neighbors pad).
    pub k: usize,
    /// Sampling strategy.
    pub strategy: Strategy,
    /// Base seed; combined with the query index per draw.
    pub seed: u64,
}

/// A sampled `q × k` neighbor batch (see module docs for the layout).
#[derive(Clone)]
pub struct NeighborSample {
    /// Slots per query.
    pub k: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Sampled neighbor per slot (`q*k`; padding slots hold node 0 and are
    /// masked out).
    pub nbrs: Vec<u32>,
    /// Interaction timestamp per slot (`q*k`).
    pub times: Vec<u64>,
    /// Event id per slot (`q*k`).
    pub eids: Vec<u64>,
    /// 1.0 for a valid slot, 0.0 for padding (`[q*k]`, pool-allocated).
    pub mask: Tensor,
    /// `mask / valid_count(query)` — mean-aggregation weights (`[q*k]`,
    /// pool-allocated; all-zero for queries with no history).
    pub weights: Tensor,
    /// Valid neighbors per query (`q`).
    pub counts: Vec<u32>,
}

impl PartialEq for NeighborSample {
    fn eq(&self, other: &NeighborSample) -> bool {
        self.k == other.k
            && self.queries == other.queries
            && self.nbrs == other.nbrs
            && self.times == other.times
            && self.eids == other.eids
            && self.counts == other.counts
            && self.mask.data() == other.mask.data()
            && self.weights.data() == other.weights.data()
    }
}

impl std::fmt::Debug for NeighborSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborSample")
            .field("k", &self.k)
            .field("queries", &self.queries)
            .field("nbrs", &self.nbrs)
            .field("times", &self.times)
            .field("counts", &self.counts)
            .finish_non_exhaustive()
    }
}

impl NeighborSample {
    /// Row index (into a `q`-row output) for each of the `q*k` slots —
    /// the scatter-add map that folds slot rows back onto their query.
    pub fn scatter_idx(&self) -> Vec<u32> {
        let mut idx = Vec::with_capacity(self.queries * self.k);
        for q in 0..self.queries as u32 {
            idx.extend(std::iter::repeat_n(q, self.k));
        }
        idx
    }

    /// Total valid (non-padding) slots.
    pub fn total_valid(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }
}

/// splitmix64 — decorrelates consecutive query indices into independent
/// RNG seeds.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query's slots, borrowed disjointly from the batch output.
struct Slot<'a> {
    node: u32,
    t: u64,
    qi: usize,
    nbr: &'a mut [u32],
    times: &'a mut [u64],
    eid: &'a mut [u64],
    mask: &'a mut [f32],
    weights: &'a mut [f32],
    count: &'a mut u32,
}

fn sample_one(index: &TCsr, cfg: &SamplerConfig, s: &mut Slot<'_>) {
    let hist = index.history(s.node, s.t);
    let take = hist.len().min(cfg.k);
    let w = if take == 0 { 0.0 } else { 1.0 / take as f32 };
    let mut put = |slot: usize, e: &Entry| {
        debug_assert!(e.t < s.t, "sampled neighbor must predate the query");
        s.nbr[slot] = e.nbr;
        s.times[slot] = e.t;
        s.eid[slot] = e.eid;
        s.mask[slot] = 1.0;
        s.weights[slot] = w;
    };
    if cfg.strategy == Strategy::Uniform && take < hist.len() {
        // Floyd's algorithm: `take` distinct draws from 0..len, emitted in
        // ascending (= time) order.
        let mut rng =
            ChaCha8Rng::seed_from_u64(splitmix64(cfg.seed ^ (s.qi as u64).rotate_left(17)));
        let mut picked: Vec<usize> = Vec::with_capacity(take);
        for j in hist.len() - take..hist.len() {
            let r = rng.gen_range(0..=j);
            picked.push(if picked.contains(&r) { j } else { r });
        }
        picked.sort_unstable();
        for (slot, &i) in picked.iter().enumerate() {
            put(slot, &hist[i]);
        }
    } else {
        // Recent, or a uniform draw that takes the whole history: the tail
        // window, oldest first.
        for (slot, e) in hist[hist.len() - take..].iter().enumerate() {
            put(slot, e);
        }
    }
    *s.count = take as u32;
    for slot in take..cfg.k {
        s.nbr[slot] = 0;
        s.times[slot] = 0;
        s.eid[slot] = 0;
        s.mask[slot] = 0.0;
        s.weights[slot] = 0.0;
    }
}

/// Samples temporal neighbors for a batch of `(node, t)` queries,
/// parallelized over the batch. Deterministic for a fixed config: the
/// output is a pure function of `(index, queries, cfg)`.
pub fn sample(index: &TCsr, queries: &[(u32, u64)], cfg: &SamplerConfig) -> NeighborSample {
    assert!(cfg.k > 0, "k must be positive");
    let _sp = stgraph_telemetry::span_cat("ctdg.sample", "ctdg");
    let q = queries.len();
    let k = cfg.k;
    let mut nbrs = vec![0u32; q * k];
    let mut times = vec![0u64; q * k];
    let mut eids = vec![0u64; q * k];
    let mut mask = TrackedBuf::raw(q * k);
    let mut weights = TrackedBuf::raw(q * k);
    let mut counts = vec![0u32; q];

    {
        // Zip the six output planes into per-query work items so rayon
        // hands each thread disjoint slices, with no shared writes.
        let mut slots: Vec<Slot<'_>> = Vec::with_capacity(q);
        let mut nbr_rest: &mut [u32] = &mut nbrs;
        let mut t_rest: &mut [u64] = &mut times;
        let mut eid_rest: &mut [u64] = &mut eids;
        let mut mask_rest: &mut [f32] = mask.as_mut_slice();
        let mut w_rest: &mut [f32] = weights.as_mut_slice();
        let mut count_rest: &mut [u32] = &mut counts;
        for (qi, &(node, t)) in queries.iter().enumerate() {
            let (nbr, nr) = nbr_rest.split_at_mut(k);
            let (tt, tr) = t_rest.split_at_mut(k);
            let (eid, er) = eid_rest.split_at_mut(k);
            let (m, mr) = mask_rest.split_at_mut(k);
            let (w, wr) = w_rest.split_at_mut(k);
            let (c, cr) = count_rest.split_at_mut(1);
            nbr_rest = nr;
            t_rest = tr;
            eid_rest = er;
            mask_rest = mr;
            w_rest = wr;
            count_rest = cr;
            slots.push(Slot {
                node,
                t,
                qi,
                nbr,
                times: tt,
                eid,
                mask: m,
                weights: w,
                count: &mut c[0],
            });
        }
        slots.par_chunks_mut(32).for_each(|chunk| {
            for s in chunk {
                sample_one(index, cfg, s);
            }
        });
    }

    stgraph_telemetry::counter("ctdg.samples").add(q as u64);
    NeighborSample {
        k,
        queries: q,
        nbrs,
        times,
        eids,
        mask: Tensor::from_buf(Shape::Vec(q * k), mask),
        weights: Tensor::from_buf(Shape::Vec(q * k), weights),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph_datasets::TimedEdge;

    fn chain_index() -> TCsr {
        // Node 0 interacts with 1..=9 at t = 10,20,...,90.
        let mut x = TCsr::new(16);
        let batch: Vec<TimedEdge> = (1..10)
            .map(|i| TimedEdge {
                src: 0,
                dst: i,
                t: 10 * i as u64,
            })
            .collect();
        x.ingest_batch(&batch);
        x
    }

    #[test]
    fn recent_returns_true_k_most_recent_oldest_first() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 3,
            strategy: Strategy::Recent,
            seed: 0,
        };
        let s = sample(&x, &[(0, 75)], &cfg);
        assert_eq!(s.counts, vec![3]);
        // Before 75: t = 10..70. Most recent 3: 50,60,70 (oldest first).
        assert_eq!(&s.times[..3], &[50, 60, 70]);
        assert_eq!(&s.nbrs[..3], &[5, 6, 7]);
        assert_eq!(&s.mask.data()[..3], &[1.0; 3]);
    }

    #[test]
    fn queries_pad_when_history_is_short() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 4,
            strategy: Strategy::Recent,
            seed: 0,
        };
        let s = sample(&x, &[(0, 25), (3, 5), (15, 99)], &cfg);
        assert_eq!(s.counts, vec![2, 0, 0]);
        assert_eq!(&s.times[..2], &[10, 20]);
        assert_eq!(s.mask.data()[2], 0.0);
        assert_eq!(s.weights.data()[0], 0.5);
        assert_eq!(
            &s.weights.data()[4..8],
            &[0.0; 4],
            "empty query: zero weights"
        );
        assert_eq!(s.total_valid(), 2);
    }

    #[test]
    fn uniform_is_deterministic_and_respects_the_horizon() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 3,
            strategy: Strategy::Uniform,
            seed: 7,
        };
        let queries = vec![(0u32, 85u64); 8];
        let a = sample(&x, &queries, &cfg);
        let b = sample(&x, &queries, &cfg);
        assert_eq!(a, b, "same seed must reproduce bitwise");
        for qi in 0..8 {
            let slice = &a.times[qi * 3..qi * 3 + 3];
            assert!(slice.windows(2).all(|w| w[0] < w[1]), "time-ordered");
            assert!(slice.iter().all(|&t| t < 85), "no time travel");
        }
        // Different query indices draw differently (with 8 draws of 3
        // from 8 candidates, identical picks everywhere are ~impossible).
        assert!(
            (1..8).any(|qi| a.times[qi * 3..qi * 3 + 3] != a.times[0..3]),
            "per-query seeds must decorrelate draws"
        );
        let c = sample(
            &x,
            &queries,
            &SamplerConfig {
                seed: 8,
                ..cfg.clone()
            },
        );
        assert_ne!(a, c, "different seed, different draws");
    }

    /// FNV-1a over every output plane of one batch (f32 planes by bits).
    fn fingerprint(s: &NeighborSample) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words = s
            .nbrs
            .iter()
            .map(|&v| v as u64)
            .chain(s.times.iter().copied())
            .chain(s.eids.iter().copied())
            .chain(s.counts.iter().map(|&v| v as u64))
            .chain(s.mask.data().iter().map(|v| v.to_bits() as u64))
            .chain(s.weights.data().iter().map(|v| v.to_bits() as u64));
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the exact slots both strategies draw on a seeded fraud stream
    /// (every node queried at three horizons), so a change to the index
    /// layout or the sampler loop cannot silently move a single draw.
    #[test]
    fn sampled_slots_are_pinned_on_a_seeded_stream() {
        use stgraph_datasets::{fraud_stream, FraudConfig};
        let nodes = 200usize;
        let events: Vec<TimedEdge> = fraud_stream(&FraudConfig::new(nodes, 5_000, 11))
            .map(|e| e.edge)
            .collect();
        let mut x = TCsr::new(nodes);
        for chunk in events.chunks(256) {
            x.ingest_batch(chunk);
        }
        let horizons = [
            events[events.len() / 4].t,
            events[events.len() / 2].t,
            x.last_timestamp() + 1,
        ];
        let queries: Vec<(u32, u64)> = horizons
            .iter()
            .flat_map(|&t| (0..nodes as u32).map(move |u| (u, t)))
            .collect();
        let pinned = [
            (Strategy::Recent, 0x15a2_4b75_a04d_0391u64),
            (Strategy::Uniform, 0x0b8d_1f27_23c6_3dea),
        ];
        for (strategy, want) in pinned {
            let cfg = SamplerConfig {
                k: 10,
                strategy,
                seed: 29,
            };
            let got = fingerprint(&sample(&x, &queries, &cfg));
            assert_eq!(got, want, "{} fingerprint {got:#018x}", strategy.name());
        }
    }

    #[test]
    fn scatter_idx_maps_slots_to_queries() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 2,
            strategy: Strategy::Recent,
            seed: 0,
        };
        let s = sample(&x, &[(0, 95), (1, 95)], &cfg);
        assert_eq!(s.scatter_idx(), vec![0, 0, 1, 1]);
    }
}
