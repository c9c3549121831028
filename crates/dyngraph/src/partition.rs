//! Streaming edge-cut partitioning for [`crate::ShardedGraph`].
//!
//! Vertices are assigned to K shards by streaming greedy passes in the
//! linear-deterministic-greedy family (LDG, Stanton & Kliot KDD'12),
//! extended with a per-vertex **confidence counter** so the pass can
//! *reassign* as well as assign: every same-shard edge raises both
//! endpoints' confidence, and on a cross-shard edge the lower-confidence
//! endpoint defects to its partner's shard once its confidence is worn
//! down (capacity permitting). That single extension is what lets the
//! partitioner recover from early hash-seeded placements when the stream
//! arrives in arbitrary order — plain one-pass LDG fragments each
//! community across the hash roots its first few edges happen to create,
//! while the defection rule collapses those fragments toward the
//! community's plurality shard. Additional [`Partition::refine`] passes
//! over the same stream keep improving the cut (two passes roughly halve
//! it on community graphs).
//!
//! Every pass needs O(n) state (owner + confidence) and never
//! materialises the edge list, so it scales to the 10M+-node streaming
//! generators. Capacity carries a small slack factor so communities can
//! stay together without unbounding the largest shard.
//!
//! Edges themselves are *not* partitioned here: [`crate::ShardedGraph`]
//! stores every edge in the shard owning its **destination**, so each
//! shard holds complete in-neighbour rows and cross-shard edges surface
//! only as ghost sources in the halo table.

/// Owner sentinel for a vertex not yet assigned.
const UNASSIGNED: u32 = u32::MAX;

/// Per-shard capacity slack over the perfectly balanced n/k.
const CAP_SLACK: f64 = 1.05;

/// A vertex defects across a conflict edge while its confidence is below
/// this. Too low and fragments never dissolve; too high and assignments
/// thrash before communities form. 3 is the knee on community graphs.
const DEFECT_BELOW: u32 = 3;

/// SplitMix64 finaliser — the deterministic hash fallback.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn hash_owner(v: u32, k: usize) -> u32 {
    (mix(v as u64) % k as u64) as u32
}

/// A vertex → shard assignment plus the partitioner's quality counters.
pub struct Partition {
    k: usize,
    owner: Vec<u32>,
    /// Same-shard edge evidence per vertex; worn down by conflict edges.
    conf: Vec<u32>,
    shard_sizes: Vec<usize>,
    /// Edges whose endpoints sat in different shards when last counted.
    edge_cut: usize,
    /// Edges seen by that count.
    total_edges: usize,
}

impl Partition {
    /// One streaming greedy pass over `edges`: co-locate endpoints while
    /// shards have capacity, hash otherwise, and let low-confidence
    /// endpoints defect across conflict edges. Vertices untouched by any
    /// edge are spread over the least-loaded shards at the end.
    pub fn ldg(num_nodes: usize, k: usize, edges: impl Iterator<Item = (u32, u32)>) -> Partition {
        assert!(k >= 1, "need at least one shard");
        let mut p = Partition {
            k,
            owner: vec![UNASSIGNED; num_nodes],
            conf: vec![0; num_nodes],
            shard_sizes: vec![0; k],
            edge_cut: 0,
            total_edges: 0,
        };
        p.pass(edges);
        // Isolated vertices: deterministic least-loaded fill.
        for v in 0..num_nodes {
            if p.owner[v] == UNASSIGNED {
                let s = (0..k).min_by_key(|&s| (p.shard_sizes[s], s)).unwrap();
                p.owner[v] = s as u32;
                p.shard_sizes[s] += 1;
            }
        }
        p
    }

    /// Another greedy pass over a (replayed) stream, reusing the owner and
    /// confidence state. Each pass only moves vertices whose confidence
    /// has been worn down by conflict edges, so repeated passes converge:
    /// two passes roughly halve the seed cut on community graphs.
    pub fn refine(&mut self, edges: impl Iterator<Item = (u32, u32)>) {
        if self.k > 1 {
            self.pass(edges);
        }
    }

    /// The shared per-edge greedy step (see module docs). Also counts the
    /// stream's cut *as placed during this pass* — approximate while
    /// vertices are still moving; [`Partition::measure_cut`] gives the
    /// exact figure for a frozen assignment.
    fn pass(&mut self, edges: impl Iterator<Item = (u32, u32)>) {
        let k = self.k;
        let cap = ((self.owner.len() as f64 / k as f64) * CAP_SLACK).ceil() as usize + 1;
        let mut edge_cut = 0usize;
        let mut total_edges = 0usize;
        // Place v on shard `want` if it has room, else hash + linear probe
        // (total capacity k*cap > n guarantees a shard with room exists).
        let place = |v: usize, want: u32, sizes: &mut [usize]| -> u32 {
            let s = if sizes[want as usize] < cap {
                want
            } else {
                let mut s = hash_owner(v as u32, k);
                let mut probes = 0;
                while sizes[s as usize] >= cap && probes < k {
                    s = (s + 1) % k as u32;
                    probes += 1;
                }
                s
            };
            sizes[s as usize] += 1;
            s
        };
        for (u, v) in edges {
            total_edges += 1;
            let (u, v) = (u as usize, v as usize);
            if u == v {
                if self.owner[u] == UNASSIGNED {
                    let s = place(u, hash_owner(u as u32, k), &mut self.shard_sizes);
                    self.owner[u] = s;
                    self.conf[u] = 1;
                }
                continue;
            }
            let (ou, ov) = (self.owner[u], self.owner[v]);
            match (ou != UNASSIGNED, ov != UNASSIGNED) {
                (false, false) => {
                    let s = place(u, hash_owner(u as u32, k), &mut self.shard_sizes);
                    self.owner[u] = s;
                    self.conf[u] = 1;
                    let t = place(v, s, &mut self.shard_sizes);
                    self.owner[v] = t;
                    self.conf[v] = 1;
                }
                (true, false) => {
                    let t = place(v, ou, &mut self.shard_sizes);
                    self.owner[v] = t;
                    self.conf[v] = 1;
                    if t == ou {
                        self.conf[u] = self.conf[u].saturating_add(1);
                    }
                }
                (false, true) => {
                    let t = place(u, ov, &mut self.shard_sizes);
                    self.owner[u] = t;
                    self.conf[u] = 1;
                    if t == ov {
                        self.conf[v] = self.conf[v].saturating_add(1);
                    }
                }
                (true, true) => {
                    if ou == ov {
                        self.conf[u] = self.conf[u].saturating_add(1);
                        self.conf[v] = self.conf[v].saturating_add(1);
                    } else {
                        // Conflict: the endpoint with less same-shard
                        // evidence defects to its partner (ties: higher id
                        // defects, so the choice is deterministic).
                        let (l, w) = if (self.conf[u], v) < (self.conf[v], u) {
                            (u, v)
                        } else {
                            (v, u)
                        };
                        let target = self.owner[w] as usize;
                        if self.conf[l] < DEFECT_BELOW && self.shard_sizes[target] < cap {
                            self.shard_sizes[self.owner[l] as usize] -= 1;
                            self.owner[l] = target as u32;
                            self.shard_sizes[target] += 1;
                            self.conf[l] = 1;
                            self.conf[w] = self.conf[w].saturating_add(1);
                        } else {
                            self.conf[l] = self.conf[l].saturating_sub(1);
                        }
                    }
                }
            }
            if self.owner[u] != self.owner[v] {
                edge_cut += 1;
            }
        }
        self.edge_cut = edge_cut;
        self.total_edges = total_edges;
    }

    /// Pure hash partition (the fallback / baseline: balanced, oblivious
    /// to structure).
    pub fn hash(num_nodes: usize, k: usize) -> Partition {
        assert!(k >= 1, "need at least one shard");
        let owner: Vec<u32> = (0..num_nodes as u32).map(|v| hash_owner(v, k)).collect();
        let mut sizes = vec![0usize; k];
        for &o in &owner {
            sizes[o as usize] += 1;
        }
        Partition {
            k,
            owner,
            conf: vec![0; num_nodes],
            shard_sizes: sizes,
            edge_cut: 0,
            total_edges: 0,
        }
    }

    /// Owning shard of vertex `v`.
    #[inline]
    pub fn owner(&self, v: u32) -> u32 {
        self.owner[v as usize]
    }

    /// The full owner array.
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Vertices owned per shard.
    pub fn shard_sizes(&self) -> &[usize] {
        &self.shard_sizes
    }

    /// Owned vertex lists per shard, each sorted ascending (so local index
    /// order equals global id order within a shard).
    pub fn locals(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = self
            .shard_sizes
            .iter()
            .map(|&s| Vec::with_capacity(s))
            .collect();
        for (v, &o) in self.owner.iter().enumerate() {
            out[o as usize].push(v as u32);
        }
        out
    }

    /// Cut edges at the last count — in-pass (approximate, vertices still
    /// moving) until [`Partition::measure_cut`] freezes an exact figure.
    pub fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    /// Fraction of counted edges crossing shards.
    pub fn edge_cut_ratio(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.edge_cut as f64 / self.total_edges as f64
        }
    }

    /// Counts the cut of an arbitrary edge stream under the frozen
    /// assignment (the exact figure the gauges report), updating the
    /// stored counters.
    pub fn measure_cut(&mut self, edges: impl Iterator<Item = (u32, u32)>) -> f64 {
        let mut cut = 0usize;
        let mut total = 0usize;
        for (u, v) in edges {
            total += 1;
            if self.owner[u as usize] != self.owner[v as usize] {
                cut += 1;
            }
        }
        self.edge_cut = cut;
        self.total_edges = total;
        self.edge_cut_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// 4 dense communities with sparse cross-links, edges in random order.
    fn community_edges(seed: u64) -> Vec<(u32, u32)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let comms = 4u32;
        let size = 100u32;
        let mut edges = Vec::new();
        for _ in 0..4000 {
            let c = rng.gen_range(0..comms);
            let u = c * size + rng.gen_range(0..size);
            let v = if rng.gen_bool(0.95) {
                c * size + rng.gen_range(0..size)
            } else {
                rng.gen_range(0..comms * size)
            };
            edges.push((u, v));
        }
        edges
    }

    #[test]
    fn every_vertex_assigned_and_balanced() {
        let edges = community_edges(1);
        for k in [1, 2, 4, 8] {
            let mut p = Partition::ldg(400, k, edges.iter().copied());
            p.refine(edges.iter().copied());
            p.refine(edges.iter().copied());
            assert!(p.owners().iter().all(|&o| (o as usize) < k));
            assert_eq!(p.shard_sizes().iter().sum::<usize>(), 400);
            let cap = ((400.0 / k as f64) * CAP_SLACK).ceil() as usize + 1;
            for &s in p.shard_sizes() {
                assert!(s <= cap, "shard size {s} over capacity {cap} (k={k})");
            }
            let mut counted = vec![0usize; k];
            for &o in p.owners() {
                counted[o as usize] += 1;
            }
            assert_eq!(counted, p.shard_sizes(), "size counters must track owners");
        }
    }

    #[test]
    fn locals_are_sorted_and_cover() {
        let p = Partition::ldg(50, 3, [(0, 1), (2, 3), (10, 40)].into_iter());
        let locals = p.locals();
        let mut all: Vec<u32> = locals.iter().flatten().copied().collect();
        for l in &locals {
            assert!(l.windows(2).all(|w| w[0] < w[1]), "locals must be sorted");
        }
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn k1_puts_everything_in_one_shard() {
        let p = Partition::ldg(10, 1, [(0, 1), (5, 9)].into_iter());
        assert!(p.owners().iter().all(|&o| o == 0));
        assert_eq!(p.edge_cut(), 0);
    }

    #[test]
    fn refined_ldg_cuts_fewer_edges_than_hash_on_communities() {
        // The production build path: one seed pass, two refinement passes.
        let edges = community_edges(7);
        let mut ldg = Partition::ldg(400, 4, edges.iter().copied());
        ldg.refine(edges.iter().copied());
        ldg.refine(edges.iter().copied());
        let ldg_ratio = ldg.measure_cut(edges.iter().copied());
        let mut hash = Partition::hash(400, 4);
        let hash_ratio = hash.measure_cut(edges.iter().copied());
        assert!(
            ldg_ratio < 0.5 * hash_ratio,
            "refined LDG cut {ldg_ratio:.3} should beat hash cut {hash_ratio:.3} by 2x on community graphs"
        );
    }

    #[test]
    fn refine_lowers_cut_on_communities() {
        let edges = community_edges(9);
        let mut p = Partition::ldg(400, 4, edges.iter().copied());
        let before = p.measure_cut(edges.iter().copied());
        p.refine(edges.iter().copied());
        p.refine(edges.iter().copied());
        let after = p.measure_cut(edges.iter().copied());
        assert!(
            after < before,
            "refinement should lower the cut ({before:.3} -> {after:.3})"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let edges = community_edges(3);
        let mut a = Partition::ldg(400, 4, edges.iter().copied());
        a.refine(edges.iter().copied());
        let mut b = Partition::ldg(400, 4, edges.iter().copied());
        b.refine(edges.iter().copied());
        assert_eq!(a.owners(), b.owners());
        assert_eq!(a.edge_cut(), b.edge_cut());
    }
}
