//! `DtdgStore`: the one DTDG edge store (§V.D's GPMA, stored
//! **reverse-first**). Every consumer — the Algorithm-2 timeline
//! ([`crate::GpmaGraph`], K = 1 or K edge-cut shards) and the serve tier's
//! live ingest — drives this type; it owns the only batch apply, the only
//! transactional apply with rollback and the only snapshot build.
//!
//! **Layout.** Vertices are split over K shards by a [`Partition`]
//! (K = 1: everything on shard 0, no ghosts). Edge `(u, v)` lives in the
//! shard owning `v` under the PMA key `(local(v) << 32) | u`, so a shard's
//! sorted slot order *is* its in-neighbour adjacency and update batches
//! route by destination owner.
//!
//! **Snapshots.** [`DtdgStore::snapshot`] scans the shard slots into the
//! global reverse CSR (in-degrees counted on the way), transposes once for
//! the forward CSR and numbers edge ids in that transpose. Rows are laid
//! out exactly as [`Snapshot::from_edges`] lays them out over the sorted
//! edge list, so the result is bitwise [`crate::NaiveGraph`]'s. It is
//! memoised until the next successful mutation bumps the store version; a
//! rolled-back [`DtdgStore::try_apply`] bumps nothing and keeps the memo.
//!
//! **Sharded forward.** [`DtdgStore::forward_sum`] reads the memoised
//! snapshot's reverse CSR — the shard view and the snapshot are one
//! allocation — in two phases mirroring a distributed GNN step: a halo
//! exchange gathers each shard's ghost (remote-source) feature rows into
//! scratch, then shards accumulate into the disjoint output rows they own.
//! Rows accumulate in ascending source order, the order
//! [`dense_forward_sum`] uses, so the result is bitwise the dense one for
//! any K.

use crate::partition::Partition;
use crate::source::UpdateBatch;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use stgraph_faultline::FaultError;
use stgraph_graph::base::Snapshot;
use stgraph_graph::csr::Csr;
use stgraph_pma::{Gpma, EMPTY};
use stgraph_tensor::Tensor;

/// One shard's routed sub-batch: `(additions, deletions)` in local-dst,
/// global-src coordinates.
type ShardBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

struct Shard {
    /// Keys are `(local_dst << 32) | global_src`.
    gpma: Gpma,
    /// Owned global vertex ids, ascending (local id = position).
    locals: Vec<u32>,
}

impl Shard {
    /// `(src, dst)` in global ids, in slot order: by owned destination,
    /// each destination's sources ascending.
    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let keys = self.gpma.pma().key_slots();
        keys.iter()
            .filter(|&&k| k != EMPTY)
            .map(|&k| (k as u32 as usize, self.locals[(k >> 32) as usize] as usize))
    }
}

/// Row `v`'s sources in the forward's accumulation order — ascending, the
/// reverse CSR's slots back to front.
fn sources(rev: &Csr, v: u32) -> impl Iterator<Item = u32> + '_ {
    let row = rev.row_offset[v as usize]..rev.row_offset[v as usize + 1];
    rev.col_indices[row].iter().rev().copied()
}

/// One shard's ghost table for [`DtdgStore::forward_sum`].
struct Halo {
    /// Sorted, deduplicated global ids of remote in-edge sources.
    ghosts: Vec<u32>,
    /// Per halo edge, in the order the forward walks them, its index into
    /// `ghosts` (and so into the exchanged scratch rows).
    slots: Vec<u32>,
}

/// Live per-shard readings behind the `shard.*` gauges.
#[derive(Default)]
struct ShardGauges {
    nodes: usize,
    edges: AtomicUsize,
    halo_edges: AtomicUsize,
}

/// The reverse-first K-shard PMA edge store (see module docs).
pub struct DtdgStore {
    partition: Partition,
    shards: Vec<Shard>,
    /// Global vertex id -> local index within its owner shard.
    local_id: Vec<u32>,
    /// Bumped by every successful mutation (the bulk load is the first).
    version: u64,
    /// Snapshot of the current version; dropped when the version bumps.
    memo: Option<Snapshot>,
    /// Ghost tables of the current version (built by the first forward).
    halos: Option<Vec<Halo>>,
    gauges: Arc<Vec<ShardGauges>>,
}

impl DtdgStore {
    /// Partitions and loads a replayable edge stream without materialising
    /// it: one LDG pass partitions, two label-propagation passes refine,
    /// one pass measures the final cut, and a last pass routes and loads
    /// in bounded chunks (`make_stream` is called five times; each pass
    /// holds only O(n) state).
    pub fn from_edge_stream<I>(num_nodes: usize, k: usize, make_stream: impl Fn() -> I) -> DtdgStore
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut partition = Partition::ldg(num_nodes, k, make_stream());
        partition.refine(make_stream());
        partition.refine(make_stream());
        partition.measure_cut(make_stream());

        let locals = partition.locals();
        let mut local_id = vec![0u32; num_nodes];
        for (i, &v) in locals.iter().flat_map(|l| l.iter().enumerate()) {
            local_id[v as usize] = i as u32;
        }
        let gauges = Arc::new(
            locals
                .iter()
                .map(|l| ShardGauges {
                    nodes: l.len(),
                    ..Default::default()
                })
                .collect::<Vec<_>>(),
        );
        install_gauges(&gauges, partition.edge_cut_ratio());
        let mut store = DtdgStore {
            shards: locals
                .into_iter()
                .map(|locals| Shard {
                    gpma: Gpma::new(locals.len()),
                    locals,
                })
                .collect(),
            partition,
            local_id,
            version: 0,
            memo: None,
            halos: None,
            gauges,
        };
        // Bounded chunks, so the stream is never materialised in one piece.
        let mut chunk = Vec::new();
        let mut stream = make_stream();
        loop {
            chunk.clear();
            chunk.extend((&mut stream).take(1 << 22));
            if chunk.is_empty() {
                break;
            }
            store.mutate(&chunk, &[]);
        }
        store.commit();
        store
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.local_id.len()
    }

    /// Total edges across shards.
    pub fn num_edges(&self) -> usize {
        self.shards.iter().map(|s| s.gpma.num_edges()).sum()
    }

    /// The edge set, sorted by `(src, dst)` (tests / oracle comparison).
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .shards
            .iter()
            .flat_map(Shard::edges)
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        out.sort_unstable();
        out
    }

    /// The partitioner's edge-cut ratio over the seed stream.
    pub fn edge_cut_ratio(&self) -> f64 {
        self.partition.edge_cut_ratio()
    }

    /// Bytes held by the shard PMAs.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.gpma.bytes()).sum()
    }

    /// Bumped by every successful mutation, and by nothing else: equal
    /// versions mean equal edge sets and a shared [`Self::snapshot`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A deep copy of the shard PMAs (the Algorithm-2 cache payload).
    pub fn clone_state(&self) -> Vec<Gpma> {
        self.shards.iter().map(|s| s.gpma.clone_state()).collect()
    }

    /// Replaces the edge set with a state taken by [`Self::clone_state`].
    pub fn restore_state(&mut self, state: &[Gpma]) {
        assert_eq!(state.len(), self.shards.len(), "state of another store");
        for (shard, saved) in self.shards.iter_mut().zip(state) {
            shard.gpma = saved.clone_state();
        }
        self.commit();
    }

    /// Publishes a mutation: new version, memo and ghost tables dropped.
    fn commit(&mut self) {
        self.version += 1;
        self.memo = None;
        self.halos = None;
        for (g, shard) in self.gauges.iter().zip(&self.shards) {
            g.edges.store(shard.gpma.num_edges(), Ordering::Relaxed);
        }
    }

    /// Routes `(additions, deletions)` into per-shard local batches.
    fn route(&self, additions: &[(u32, u32)], deletions: &[(u32, u32)]) -> Vec<ShardBatch> {
        let mut out: Vec<ShardBatch> = vec![(Vec::new(), Vec::new()); self.shards.len()];
        for &(u, v) in additions {
            let s = self.partition.owner(v) as usize;
            out[s].0.push((self.local_id[v as usize], u));
        }
        for &(u, v) in deletions {
            let s = self.partition.owner(v) as usize;
            out[s].1.push((self.local_id[v as usize], u));
        }
        out
    }

    /// Inserts `additions`, then deletes `deletions`, shard-parallel.
    fn mutate(&mut self, additions: &[(u32, u32)], deletions: &[(u32, u32)]) {
        let routed = self.route(additions, deletions);
        let work = self.shards.par_iter_mut().zip(routed.par_iter());
        work.for_each(|(shard, (adds, dels))| {
            shard.gpma.insert_edges(adds);
            shard.gpma.delete_edges(dels);
        });
    }

    /// Inserts `additions`, then deletes `deletions`. Infallible: the path
    /// of the training timeline.
    pub fn apply(&mut self, additions: &[(u32, u32)], deletions: &[(u32, u32)]) {
        count_update(additions.len(), deletions.len());
        self.mutate(additions, deletions);
        self.commit();
    }

    /// Fault-gated [`Self::apply`]: every edge of `batch` lands or none
    /// does. Each shard's sub-batch is first filtered to its effective
    /// changes (additions not yet present, deletions actually present) so
    /// the inverse operation is exact. A fault at a shard's `gpma.update`
    /// site or at `commit_site` — the caller's name for the window between
    /// the edge work and its publish — undoes the shards already applied
    /// and leaves edge set, version and memoised snapshot untouched.
    pub fn try_apply(
        &mut self,
        batch: &UpdateBatch,
        commit_site: &'static str,
    ) -> Result<(), FaultError> {
        let mut routed = self.route(&batch.additions, &batch.deletions);
        for (shard, (adds, dels)) in self.shards.iter().zip(routed.iter_mut()) {
            adds.retain(|&(ld, src)| !shard.gpma.has_edge(ld, src));
            dels.retain(|&(ld, src)| shard.gpma.has_edge(ld, src));
        }
        let mut applied = 0usize;
        let mut result = Ok(());
        for (shard, (adds, dels)) in self.shards.iter_mut().zip(&routed) {
            result = shard.gpma.try_insert_edges(adds).and_then(|()| {
                // A delete fault after this shard's insert landed: undo
                // the insert here, the shards before it below.
                shard
                    .gpma
                    .try_delete_edges(dels)
                    .inspect_err(|_| shard.gpma.delete_edges(adds))
            });
            if result.is_err() {
                break;
            }
            applied += 1;
        }
        if result.is_ok() {
            result = stgraph_faultline::fault_point!(commit_site);
        }
        if result.is_err() {
            for (shard, (adds, dels)) in self.shards.iter_mut().zip(&routed).take(applied) {
                shard.gpma.delete_edges(adds);
                shard.gpma.insert_edges(dels);
            }
            stgraph_faultline::note_rollback();
            return result;
        }
        count_update(batch.additions.len(), batch.deletions.len());
        self.commit();
        Ok(())
    }

    /// The snapshot of the current version, built on the first call after
    /// a mutation and shared (same `Arc`s) until the next one.
    ///
    /// Carries the `snapshot.build` fault point: an injected failure models
    /// transient memory pressure during materialisation and is retried with
    /// backoff. The build is pure compute with no real failure mode, so if
    /// injection outlasts the retry budget it proceeds anyway — degraded
    /// latency, never a lost snapshot.
    pub fn snapshot(&mut self) -> Snapshot {
        if let Some(snap) = &self.memo {
            return snap.clone();
        }
        let _sp = stgraph_telemetry::span_cat("snapshot.build", "snapshot");
        let _ = stgraph_faultline::retry(&stgraph_faultline::RetryPolicy::default(), || {
            stgraph_faultline::fault_point!("snapshot.build")
        });
        let start = std::time::Instant::now();
        let snap = self.build_snapshot();
        stgraph_telemetry::histogram("snapshot.build_ns").record_duration(start.elapsed());
        self.memo = Some(snap.clone());
        snap
    }

    /// Shard slots -> [`Snapshot`], laid out as `Snapshot::from_edges`
    /// lays out the sorted edge list: dense forward rows in ascending
    /// destination order with edge id = forward slot, reverse rows in
    /// descending source order (the order Algorithm 3's sequential fill
    /// leaves, which the aggregation kernels' bitwise results depend on).
    fn build_snapshot(&self) -> Snapshot {
        let n = self.num_nodes();
        let (mut in_deg, mut out_deg) = (vec![0u32; n], vec![0u32; n]);
        for shard in &self.shards {
            for (u, v) in shard.edges() {
                in_deg[v] += 1;
                out_deg[u] += 1;
            }
        }
        let offsets = |deg: &[u32]| {
            let mut off = Vec::with_capacity(n + 1);
            off.push(0usize);
            for &d in deg {
                off.push(off.last().unwrap() + d as usize);
            }
            off
        };
        let (r_off, f_off) = (offsets(&in_deg), offsets(&out_deg));
        let m = r_off[n];

        // A shard's slots hold each row's sources ascending; fill the row
        // back to front.
        let mut r_col = vec![0u32; m];
        let mut row_end = r_off[1..].to_vec();
        for shard in &self.shards {
            for (u, v) in shard.edges() {
                row_end[v] -= 1;
                r_col[row_end[v]] = u as u32;
            }
        }

        // Transpose: destinations ascend with `v`, so every forward row
        // fills in ascending destination order and a forward slot is the
        // edge's rank in the (src, dst)-sorted edge list — its edge id.
        let mut f_col = vec![0u32; m];
        let mut r_eids = vec![0u32; m];
        let mut next = f_off[..n].to_vec();
        for v in 0..n {
            for slot in r_off[v]..r_off[v + 1] {
                let u = r_col[slot] as usize;
                f_col[next[u]] = v as u32;
                r_eids[slot] = next[u] as u32;
                next[u] += 1;
            }
        }
        Snapshot {
            csr: Arc::new(Csr::from_parts(f_off, f_col, (0..m as u32).collect())),
            reverse_csr: Arc::new(Csr::from_parts(r_off, r_col, r_eids)),
            in_degrees: Arc::new(in_deg),
            out_degrees: Arc::new(out_deg),
        }
    }

    /// Builds the ghost tables of the current version if they are stale.
    fn ensure_halos(&mut self) -> Snapshot {
        let snap = self.snapshot();
        if self.halos.is_none() {
            let owner = self.partition.owners();
            let halos: Vec<Halo> = (0..self.shards.len())
                .map(|s| {
                    // Remote sources in the order the forward meets them.
                    let locals = self.shards[s].locals.iter();
                    let remote: Vec<u32> = locals
                        .flat_map(|&v| sources(&snap.reverse_csr, v))
                        .filter(|&u| owner[u as usize] != s as u32)
                        .collect();
                    let mut ghosts = remote.clone();
                    ghosts.sort_unstable();
                    ghosts.dedup();
                    let slots = remote
                        .iter()
                        .map(|u| ghosts.binary_search(u).expect("ghost listed") as u32)
                        .collect();
                    Halo { ghosts, slots }
                })
                .collect();
            for (g, h) in self.gauges.iter().zip(&halos) {
                g.halo_edges.store(h.slots.len(), Ordering::Relaxed);
            }
            self.halos = Some(halos);
        }
        snap
    }

    /// In-edges whose source lives on another shard.
    pub fn halo_edges(&mut self) -> usize {
        self.ensure_halos();
        self.halos.iter().flatten().map(|h| h.slots.len()).sum()
    }

    /// Sum-aggregated forward pass (`out[v] = Σ feats[u]` over in-edges
    /// `(u, v)`), shard-parallel with one halo-exchange phase. Bitwise
    /// identical to [`dense_forward_sum`] over [`Self::snapshot`].
    pub fn forward_sum(&mut self, feats: &Tensor) -> Tensor {
        let n = self.num_nodes();
        let w = feats.cols();
        assert_eq!(feats.rows(), n, "feature rows must match vertex count");
        let snap = self.ensure_halos();
        let halos = self.halos.as_ref().expect("built by ensure_halos");

        // Phase 1: halo exchange. Pure in-process gathers cannot actually
        // fail, so injected faults are retried and then waved through —
        // degraded latency, never a lost forward (snapshot.build contract).
        let _sp = stgraph_telemetry::span_cat("shard.forward", "shard");
        let _ = stgraph_faultline::retry(&stgraph_faultline::RetryPolicy::default(), || {
            stgraph_faultline::fault_point!("shard.exchange")
        });
        let scratch: Vec<Tensor> = halos.iter().map(|h| feats.gather_rows(&h.ghosts)).collect();

        // Phase 2: shard-local aggregation into disjoint output rows.
        let mut out = vec![0f32; n * w];
        {
            struct SharedOut(*mut f32);
            // SAFETY: the pointer is only used for the row-disjoint writes
            // below; `out` outlives every use and is not touched otherwise
            // while the shards run.
            unsafe impl Sync for SharedOut {}
            let shared = SharedOut(out.as_mut_ptr());
            let (shards, owner) = (&self.shards, self.partition.owners());
            let fdata = feats.data();
            let body = |s: usize| {
                let shared = &shared;
                let gdata = scratch[s].data();
                let mut ghost = halos[s].slots.iter();
                for &v in &shards[s].locals {
                    // SAFETY: every vertex has exactly one owner shard, so
                    // row `v` (in bounds: v < n) is written by this closure
                    // call only.
                    let orow =
                        unsafe { std::slice::from_raw_parts_mut(shared.0.add(v as usize * w), w) };
                    for u in sources(&snap.reverse_csr, v) {
                        let frow = if owner[u as usize] == s as u32 {
                            &fdata[u as usize * w..][..w]
                        } else {
                            let gi = *ghost.next().expect("one slot per halo edge") as usize;
                            &gdata[gi * w..][..w]
                        };
                        for (o, &f) in orow.iter_mut().zip(frow) {
                            *o += f;
                        }
                    }
                }
            };
            (0..shards.len()).into_par_iter().for_each(body);
        }
        Tensor::from_vec((n, w), out)
    }
}

fn count_update(inserted: usize, deleted: usize) {
    stgraph_telemetry::counter("gpma.edges_inserted").add(inserted as u64);
    stgraph_telemetry::counter("gpma.edges_deleted").add(deleted as u64);
}

fn install_gauges(gauges: &Arc<Vec<ShardGauges>>, edge_cut_ratio: f64) {
    let g = Arc::clone(gauges);
    stgraph_telemetry::register_labeled_gauge_provider("shard.stats", move || {
        let mut out = Vec::new();
        for (i, s) in g.iter().enumerate() {
            for (name, value) in [
                ("shard.nodes", s.nodes),
                ("shard.edges", s.edges.load(Ordering::Relaxed)),
                ("shard.halo_edges", s.halo_edges.load(Ordering::Relaxed)),
            ] {
                out.push((name.to_string(), format!("shard=\"{i}\""), value as f64));
            }
        }
        out
    });
    stgraph_telemetry::register_gauge("shard.edge_cut_ratio", move || edge_cut_ratio);
}

/// Dense oracle / baseline: `out[v] = Σ feats[u]` over the snapshot's
/// (gap-free) reverse CSR, accumulating each row in **ascending source order**
/// (reverse slot order — the sequential Algorithm-3 transpose fills each
/// row's slots with descending sources). [`DtdgStore::forward_sum`] must
/// match this bitwise for every K.
pub fn dense_forward_sum(snap: &Snapshot, feats: &Tensor) -> Tensor {
    let rcsr = &snap.reverse_csr;
    let n = rcsr.num_nodes();
    let w = feats.cols();
    assert_eq!(feats.rows(), n, "feature rows must match vertex count");
    let f = feats.data();
    let mut out = vec![0f32; n * w];
    for v in 0..n {
        let orow = &mut out[v * w..(v + 1) * w];
        for src in sources(rcsr, v as u32) {
            let frow = &f[src as usize * w..][..w];
            for (o, &x) in orow.iter_mut().zip(frow) {
                *o += x;
            }
        }
    }
    Tensor::from_vec((n, w), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveGraph;
    use crate::source::{DtdgGraph, DtdgSource};
    use crate::ShardedGraph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;
    use stgraph_faultline::FaultPlan;

    fn csr_identical(a: &Csr, b: &Csr) -> bool {
        a.row_offset == b.row_offset
            && a.col_indices == b.col_indices
            && a.eids == b.eids
            && a.node_ids == b.node_ids
    }

    fn snapshot_identical(a: &Snapshot, b: &Snapshot) -> bool {
        csr_identical(&a.csr, &b.csr)
            && csr_identical(&a.reverse_csr, &b.reverse_csr)
            && a.in_degrees == b.in_degrees
            && a.out_degrees == b.out_degrees
    }

    fn random_source(seed: u64, n: u32, t: usize) -> DtdgSource {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut snaps = Vec::new();
        let mut cur: BTreeSet<(u32, u32)> = (0..260)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        snaps.push(cur.iter().copied().collect::<Vec<_>>());
        for _ in 1..t {
            let removals: Vec<(u32, u32)> =
                cur.iter().copied().filter(|_| rng.gen_bool(0.15)).collect();
            for r in &removals {
                cur.remove(r);
            }
            for _ in 0..removals.len() {
                cur.insert((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            snaps.push(cur.iter().copied().collect());
        }
        DtdgSource::from_snapshot_edges(n as usize, snaps)
    }

    fn store_of(src: &DtdgSource, k: usize) -> DtdgStore {
        DtdgStore::from_edge_stream(src.num_nodes, k, || src.snapshots[0].iter().copied())
    }

    #[test]
    fn snapshots_bitwise_match_naive_for_all_k() {
        let src = random_source(21, 80, 5);
        let mut naive = NaiveGraph::new(&src);
        for k in [1, 2, 3, 4] {
            let mut sharded = ShardedGraph::from_source(&src, k);
            for t in 0..src.num_timestamps() {
                let a = sharded.get_graph(t);
                let b = naive.get_graph(t);
                assert!(snapshot_identical(&a, &b), "k={k} t={t} diverged");
            }
            // LIFO rewind must retrace bitwise too.
            for t in (0..src.num_timestamps()).rev() {
                let a = sharded.get_backward_graph(t);
                let b = naive.get_graph(t);
                assert!(snapshot_identical(&a, &b), "k={k} backward t={t}");
            }
        }
    }

    #[test]
    fn empty_rows_and_isolated_vertices_snapshot_like_naive() {
        let src = DtdgSource::from_snapshot_edges(6, vec![vec![(4, 0)], vec![]]);
        let mut naive = NaiveGraph::new(&src);
        for k in [1, 3] {
            let mut g = ShardedGraph::from_source(&src, k);
            for t in 0..2 {
                assert!(snapshot_identical(&g.get_graph(t), &naive.get_graph(t)));
            }
        }
    }

    #[test]
    fn forward_sum_bitwise_matches_dense_oracle() {
        let src = random_source(33, 64, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let feats = Tensor::rand_uniform((64, 7), -1.0, 1.0, &mut rng);
        let mut naive = NaiveGraph::new(&src);
        for k in [1, 2, 3, 4] {
            let mut sharded = ShardedGraph::from_source(&src, k);
            for t in 0..src.num_timestamps() {
                let want = dense_forward_sum(&naive.get_graph(t), &feats);
                let _ = sharded.get_graph(t);
                let got = sharded.store().forward_sum(&feats);
                assert_eq!(
                    got.data(),
                    want.data(),
                    "k={k} t={t} forward not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn halo_accounting_matches_partition_cut() {
        let src = random_source(44, 100, 1);
        let mut store = store_of(&src, 4);
        let halo = store.halo_edges();
        // Every cross-shard edge is a halo edge in exactly one shard; the
        // store's own (refined) partition counters are the reference.
        let ratio = store.edge_cut_ratio();
        assert_eq!(
            halo,
            (ratio * src.snapshots[0].len() as f64).round() as usize
        );
        assert_eq!(store.num_edges(), src.snapshots[0].len());
        assert_eq!(store_of(&src, 1).halo_edges(), 0, "K=1 has no ghosts");
    }

    #[test]
    fn try_apply_rolls_back_on_exchange_fault() {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let src = random_source(55, 60, 2);
        let batch = src.diffs().remove(0);
        let mut store = store_of(&src, 3);
        let before = store.snapshot();

        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("shard.exchange", 1));
        assert!(store.try_apply(&batch, "shard.exchange").is_err());
        stgraph_faultline::clear_plan();
        store.memo = None;
        assert!(
            snapshot_identical(&before, &store.snapshot()),
            "faulted batch must leave the graph untouched"
        );

        // Retry cleanly: must land the full batch.
        store.try_apply(&batch, "shard.exchange").unwrap();
        let want = NaiveGraph::new(&src).get_graph(1);
        assert!(snapshot_identical(&store.snapshot(), &want));
    }

    #[test]
    fn try_apply_rolls_back_on_mid_batch_gpma_fault() {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let src = random_source(66, 60, 2);
        let batch = src.diffs().remove(0);
        let mut store = store_of(&src, 4);
        let before = store.snapshot();

        // Fail the third gpma.update hit: some shards have applied, one
        // dies mid-routed-batch.
        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("gpma.update", 3));
        assert!(store.try_apply(&batch, "shard.exchange").is_err());
        stgraph_faultline::clear_plan();
        store.memo = None;
        assert!(snapshot_identical(&before, &store.snapshot()));
        for s in &store.shards {
            s.gpma.pma().check_invariants();
        }
    }

    #[test]
    fn streaming_build_matches_source_build() {
        let src = random_source(77, 90, 1);
        let edges = src.snapshots[0].clone();
        let mut a = ShardedGraph::from_source(&src, 4);
        let mut b = DtdgStore::from_edge_stream(90, 4, || edges.iter().copied());
        assert!(snapshot_identical(&a.get_graph(0), &b.snapshot()));
    }

    #[test]
    fn memo_follows_the_version() {
        let _g = stgraph_faultline::test_lock();
        stgraph_faultline::clear_plan();
        let src = random_source(88, 40, 3);
        let diffs = src.diffs();
        let mut store = store_of(&src, 2);
        let (v0, a) = (store.version(), store.snapshot());
        assert!(Arc::ptr_eq(&a.csr, &store.snapshot().csr), "memoised");

        // A rolled-back attempt keeps version and memo.
        stgraph_faultline::set_plan(FaultPlan::new().fail_nth("ingest.apply", 1));
        assert!(store.try_apply(&diffs[0], "ingest.apply").is_err());
        stgraph_faultline::clear_plan();
        assert_eq!(store.version(), v0);
        assert!(Arc::ptr_eq(&a.reverse_csr, &store.snapshot().reverse_csr));

        // Both successful paths bump the version and drop the memo — at
        // the mutation, not at the next build, so the store never holds
        // two snapshots.
        let held = Arc::downgrade(&a.csr);
        drop(a);
        store.try_apply(&diffs[0], "ingest.apply").unwrap();
        assert_eq!(store.version(), v0 + 1);
        assert!(held.upgrade().is_none(), "memo outlived the mutation");
        let b = store.snapshot();
        let held = Arc::downgrade(&b.csr);
        drop(b);
        store.apply(&diffs[1].additions, &diffs[1].deletions);
        assert_eq!(store.version(), v0 + 2);
        assert!(held.upgrade().is_none());
        let want = NaiveGraph::new(&src).get_graph(2);
        assert!(snapshot_identical(&store.snapshot(), &want));
    }
}
