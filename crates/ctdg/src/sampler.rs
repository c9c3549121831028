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
//! Output is ragged, CSR-style: query `i` owns entries
//! `offsets[i]..offsets[i + 1]`, and only sampled neighbors have an entry
//! (a query with no history owns none). Each entry carries its neighbor,
//! time and event id, its query's mean-aggregation weight `1 / count`, and
//! the query row it folds back onto, so the tensor stack reads the batch
//! directly: gather rows with [`NeighborSample::nbrs`], scale with
//! [`NeighborSample::weights`], scatter-add with [`NeighborSample::query`].
//! The weight plane is allocated through `stgraph-tensor`'s tracked
//! buffers, so a surrounding [`PoolScope`](stgraph_tensor::PoolScope) (the
//! train loop and bench hold one) recycles it across batches.
//!
//! The fill is two passes: the histories give every query's count, a
//! prefix sum places its entries (and their weights and query rows), and
//! then each query draws into its own disjoint slices in parallel — the
//! same bits on every thread count.

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
    /// Neighbors per query, at most (a query with a shorter history takes
    /// all of it).
    pub k: usize,
    /// Sampling strategy.
    pub strategy: Strategy,
    /// Base seed; combined with the query index per draw.
    pub seed: u64,
}

/// A sampled neighbor batch, ragged by query (see module docs for the
/// layout). Per-entry planes have [`total_valid`](Self::total_valid)
/// entries.
#[derive(Clone)]
pub struct NeighborSample {
    /// The per-query bound it was sampled with.
    pub k: usize,
    /// Sampled neighbors per query (`q`).
    pub counts: Vec<u32>,
    /// Query `i`'s entries are `offsets[i]..offsets[i + 1]` (`q + 1`).
    pub offsets: Vec<usize>,
    /// Sampled neighbor per entry.
    pub nbrs: Vec<u32>,
    /// Interaction timestamp per entry.
    pub times: Vec<u64>,
    /// Event id per entry.
    pub eids: Vec<u64>,
    /// `1 / counts[query]` per entry — mean-aggregation weights
    /// (pool-allocated).
    pub weights: Tensor,
    /// The query (output row) each entry scatter-adds into.
    pub query: Vec<u32>,
}

impl PartialEq for NeighborSample {
    fn eq(&self, other: &NeighborSample) -> bool {
        self.k == other.k
            && self.counts == other.counts
            && self.offsets == other.offsets
            && self.nbrs == other.nbrs
            && self.times == other.times
            && self.eids == other.eids
            && self.weights.data() == other.weights.data()
            && self.query == other.query
    }
}

impl std::fmt::Debug for NeighborSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborSample")
            .field("k", &self.k)
            .field("counts", &self.counts)
            .field("nbrs", &self.nbrs)
            .field("times", &self.times)
            .finish_non_exhaustive()
    }
}

impl NeighborSample {
    /// Sampled entries across the batch.
    pub fn total_valid(&self) -> usize {
        self.nbrs.len()
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

/// One query's entries, borrowed disjointly from the batch output.
struct Slot<'a> {
    hist: &'a [Entry],
    t: u64,
    qi: usize,
    nbr: &'a mut [u32],
    times: &'a mut [u64],
    eid: &'a mut [u64],
}

fn sample_one(cfg: &SamplerConfig, s: &mut Slot<'_>) {
    let hist = s.hist;
    let take = s.nbr.len();
    let mut put = |slot: usize, e: &Entry| {
        debug_assert!(e.t < s.t, "sampled neighbor must predate the query");
        s.nbr[slot] = e.nbr;
        s.times[slot] = e.t;
        s.eid[slot] = e.eid;
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
}

/// Samples temporal neighbors for a batch of `(node, t)` queries,
/// parallelized over the batch. Deterministic for a fixed config: the
/// output is a pure function of `(index, queries, cfg)`.
pub fn sample(index: &TCsr, queries: &[(u32, u64)], cfg: &SamplerConfig) -> NeighborSample {
    assert!(cfg.k > 0, "k must be positive");
    let _sp = stgraph_telemetry::span_cat("ctdg.sample", "ctdg");
    let q = queries.len();
    let k = cfg.k;

    // Count pass: each query's history, and where its entries start.
    let hists: Vec<&[Entry]> = queries
        .iter()
        .map(|&(node, t)| index.history(node, t))
        .collect();
    let counts: Vec<u32> = hists.iter().map(|h| h.len().min(k) as u32).collect();
    let mut offsets = Vec::with_capacity(q + 1);
    offsets.push(0usize);
    for &c in &counts {
        offsets.push(offsets[offsets.len() - 1] + c as usize);
    }
    let v = offsets[q];

    let mut weights = TrackedBuf::raw(v);
    let mut query = Vec::with_capacity(v);
    for (qi, w) in offsets.windows(2).enumerate() {
        weights.as_mut_slice()[w[0]..w[1]].fill(1.0 / (w[1] - w[0]) as f32);
        query.extend(std::iter::repeat_n(qi as u32, w[1] - w[0]));
    }

    let mut nbrs = vec![0u32; v];
    let mut times = vec![0u64; v];
    let mut eids = vec![0u64; v];
    {
        // Zip the three sampled planes into per-query work items so rayon
        // hands each thread disjoint slices, with no shared writes.
        let mut slots: Vec<Slot<'_>> = Vec::with_capacity(q);
        let mut nbr_rest: &mut [u32] = &mut nbrs;
        let mut t_rest: &mut [u64] = &mut times;
        let mut eid_rest: &mut [u64] = &mut eids;
        for (qi, (&(_, t), hist)) in queries.iter().zip(&hists).enumerate() {
            let c = counts[qi] as usize;
            let (nbr, nr) = nbr_rest.split_at_mut(c);
            let (tt, tr) = t_rest.split_at_mut(c);
            let (eid, er) = eid_rest.split_at_mut(c);
            nbr_rest = nr;
            t_rest = tr;
            eid_rest = er;
            slots.push(Slot {
                hist,
                t,
                qi,
                nbr,
                times: tt,
                eid,
            });
        }
        slots.par_chunks_mut(32).for_each(|chunk| {
            for s in chunk {
                sample_one(cfg, s);
            }
        });
    }

    stgraph_telemetry::counter("ctdg.samples").add(q as u64);
    stgraph_telemetry::counter("ctdg.sampled_neighbors").add(v as u64);
    NeighborSample {
        k,
        counts,
        offsets,
        nbrs,
        times,
        eids,
        weights: Tensor::from_buf(Shape::Vec(v), weights),
        query,
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
        assert_eq!(&s.nbrs[..], &[5, 6, 7]);
        assert_eq!(s.offsets, vec![0, 3]);
        assert_eq!(s.weights.data(), &[1.0 / 3.0; 3]);
    }

    #[test]
    fn short_histories_own_only_their_entries() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 4,
            strategy: Strategy::Recent,
            seed: 0,
        };
        let s = sample(&x, &[(0, 25), (3, 5), (15, 99), (0, 35)], &cfg);
        assert_eq!(s.counts, vec![2, 0, 0, 3]);
        assert_eq!(s.offsets, vec![0, 2, 2, 2, 5], "empty queries own no entry");
        assert_eq!(&s.times[..], &[10, 20, 10, 20, 30]);
        assert_eq!(
            s.weights.data(),
            &[0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]
        );
        assert_eq!(s.total_valid(), 5);
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
        assert_eq!(a.counts, vec![3; 8]);
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

    /// Lays a per-entry plane out as `q × k` slots, `pad` after each
    /// query's entries.
    fn padded<T: Copy>(s: &NeighborSample, plane: &[T], pad: T) -> Vec<T> {
        let mut out = Vec::with_capacity(s.counts.len() * s.k);
        for w in s.offsets.windows(2) {
            out.extend_from_slice(&plane[w[0]..w[1]]);
            out.resize(out.len() + s.k - (w[1] - w[0]), pad);
        }
        out
    }

    /// FNV-1a over the batch laid out as padded `q × k` planes with an f32
    /// validity mask (f32 planes by bits), the form these pins were taken
    /// in: a padding slot holds node 0, time 0, event 0, mask and weight 0.
    fn fingerprint(s: &NeighborSample) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let ones = vec![1.0f32; s.total_valid()];
        let words = padded(s, &s.nbrs, 0)
            .into_iter()
            .map(|v| v as u64)
            .chain(padded(s, &s.times, 0))
            .chain(padded(s, &s.eids, 0))
            .chain(s.counts.iter().map(|&v| v as u64))
            .chain(
                padded(s, &ones, 0.0)
                    .into_iter()
                    .map(|v| v.to_bits() as u64),
            )
            .chain(
                padded(s, s.weights.data(), 0.0)
                    .into_iter()
                    .map(|v| v.to_bits() as u64),
            );
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
    fn query_rows_map_entries_to_queries() {
        let x = chain_index();
        let cfg = SamplerConfig {
            k: 2,
            strategy: Strategy::Recent,
            seed: 0,
        };
        let s = sample(&x, &[(0, 95), (4, 5), (1, 95)], &cfg);
        assert_eq!(s.query, vec![0, 0, 2]);
        assert_eq!(s.offsets, vec![0, 2, 2, 3]);
    }
}
