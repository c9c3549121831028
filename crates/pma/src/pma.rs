//! A Packed Memory Array (PMA) — the storage engine behind GPMA
//! (Sha et al., VLDB'17), which STGraph uses to build DTDG snapshots on
//! demand (§V.D).
//!
//! The PMA keeps `(key, value)` pairs sorted in an array with deliberate
//! gaps ([`EMPTY`] slots). The array is divided into power-of-two *segments*
//! organised as an implicit binary tree of *windows*; every window keeps its
//! density (valid slots / total slots) inside level-dependent bounds. Batch
//! updates descend the window tree: a batch that fits a leaf merges in
//! place, otherwise the smallest enclosing window whose density bound still
//! holds is rebalanced with the pending items spread evenly. The gaps are
//! exactly what makes GPMA's `col_indices`/`eids` arrays fast to update —
//! and what Algorithm 3's reverse-CSR kernel must skip.
//!
//! Deviation from the CUDA original: GPMA processes independent windows with
//! cooperative thread groups; we run the per-window redistribution loops
//! data-parallel with rayon instead. The density invariants, the update
//! complexity, and the resulting array layout are identical.

use stgraph_tensor::mem::BytesCharge;

/// Sentinel key marking an empty slot.
pub const EMPTY: u64 = u64::MAX;

/// Leaf-window maximum density.
const TAU_LEAF: f64 = 0.92;
/// Root-window maximum density.
const TAU_ROOT: f64 = 0.70;
/// Leaf-window minimum density.
const RHO_LEAF: f64 = 0.08;
/// Root-window minimum density.
const RHO_ROOT: f64 = 0.30;
/// Density targeted right after a grow/shrink redistribution.
const TARGET_DENSITY: f64 = 0.5;
/// Smallest array capacity.
const MIN_CAPACITY: usize = 16;

/// A sorted packed-memory array of `(u64 key, u32 value)` pairs.
pub struct Pma {
    keys: Vec<u64>,
    vals: Vec<u32>,
    seg_len: usize,
    n_elems: usize,
    /// Valid-slot count per segment. Window density checks sum this index
    /// instead of scanning raw slots, turning the per-level `count_valid`
    /// in batch updates from O(window) into O(window / seg_len) — the
    /// difference between rescanning half a multi-GB array per batch and
    /// touching a few MB of counters at 10M-node graph scale.
    seg_counts: Vec<u32>,
    charge: BytesCharge,
}

fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

fn seg_len_for(cap: usize) -> usize {
    // Segment length ~ log2(capacity), rounded to a power of two, >= 8.
    next_pow2((cap.max(2).ilog2() as usize).max(8))
}

impl Default for Pma {
    fn default() -> Self {
        Self::new()
    }
}

impl Pma {
    /// An empty PMA at minimum capacity.
    pub fn new() -> Pma {
        let cap = MIN_CAPACITY;
        let seg_len = seg_len_for(cap);
        Pma {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            seg_len,
            n_elems: 0,
            seg_counts: vec![0; cap / seg_len],
            charge: BytesCharge::new(cap * (8 + 4)),
        }
    }

    /// Builds a PMA from strictly-sorted `(key, value)` pairs.
    pub fn from_sorted(items: &[(u64, u32)]) -> Pma {
        debug_assert!(
            items.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted: keys not strict"
        );
        let mut pma = Pma::new();
        pma.rebuild_with(items.to_vec());
        pma
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.n_elems
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.n_elems == 0
    }

    /// Slot capacity of the backing array.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current segment length.
    pub fn segment_len(&self) -> usize {
        self.seg_len
    }

    /// Raw key slots (with [`EMPTY`] gaps) — the GPMA `col_indices` analogue.
    pub fn key_slots(&self) -> &[u64] {
        &self.keys
    }

    /// Raw value slots (aligned with [`Pma::key_slots`]) — the `eids` analogue.
    pub fn value_slots(&self) -> &[u32] {
        &self.vals
    }

    /// Bytes currently charged for the backing arrays.
    pub fn bytes(&self) -> usize {
        self.charge.bytes()
    }

    /// Iterates `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: u64) -> Option<u32> {
        let slot = self.lower_bound(key);
        // `lower_bound` returns the first valid slot with key >= `key`.
        match slot {
            Some(i) if self.keys[i] == key => Some(self.vals[i]),
            _ => None,
        }
    }

    /// True if `key` is stored.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    // ---------- geometry ----------

    fn num_segments(&self) -> usize {
        self.capacity() / self.seg_len
    }

    fn height(&self) -> usize {
        self.num_segments().max(1).ilog2() as usize
    }

    /// Upper density bound for a window `level` levels above the leaves.
    fn tau(&self, level: usize) -> f64 {
        let h = self.height().max(1) as f64;
        TAU_LEAF - (TAU_LEAF - TAU_ROOT) * level as f64 / h
    }

    /// Lower density bound for a window `level` levels above the leaves.
    fn rho(&self, level: usize) -> f64 {
        let h = self.height().max(1) as f64;
        RHO_LEAF + (RHO_ROOT - RHO_LEAF) * level as f64 / h
    }

    fn count_valid(&self, lo: usize, hi: usize) -> usize {
        // Window bounds from the density recursion are always
        // segment-aligned, so the per-segment index answers exactly;
        // unaligned callers fall back to a raw scan.
        let seg = self.seg_len;
        if lo.is_multiple_of(seg) && hi.is_multiple_of(seg) {
            self.seg_counts[lo / seg..hi / seg]
                .iter()
                .map(|&c| c as usize)
                .sum()
        } else {
            self.keys[lo..hi].iter().filter(|&&k| k != EMPTY).count()
        }
    }

    /// First valid slot index with key >= `key`, scanning segment summaries.
    fn lower_bound(&self, key: u64) -> Option<usize> {
        // Binary search over valid slots using a linear fallback within the
        // located region. Collect per-segment first-valid keys lazily.
        let mut lo = 0usize;
        let mut hi = self.capacity();
        // Standard binary search treating EMPTY runs as "look left first".
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Find nearest valid slot at or after mid; whole-empty segments
            // are skipped via the occupancy index so sparse regions cost
            // O(1) per segment instead of O(seg_len).
            let mut probe = mid;
            while probe < hi && self.keys[probe] == EMPTY {
                let s = probe / self.seg_len;
                if self.seg_counts[s] == 0 {
                    probe = (s + 1) * self.seg_len;
                } else {
                    probe += 1;
                }
            }
            let probe = probe.min(hi);
            if probe == hi || self.keys[probe] >= key {
                hi = mid;
            } else {
                lo = probe + 1;
            }
        }
        // lo is the first position such that every valid slot >= lo has
        // key >= `key`; advance to the first valid slot.
        let cap = self.capacity();
        let mut i = lo;
        while i < cap && self.keys[i] == EMPTY {
            let s = i / self.seg_len;
            if self.seg_counts[s] == 0 {
                i = (s + 1) * self.seg_len;
            } else {
                i += 1;
            }
        }
        (i < cap).then_some(i)
    }

    // ---------- batch insert ----------

    /// Inserts a batch of `(key, value)` pairs. Existing keys have their
    /// value overwritten in place; new keys are merged maintaining order and
    /// density bounds. The batch need not be sorted.
    pub fn insert_batch(&mut self, items: &[(u64, u32)]) {
        if items.is_empty() {
            return;
        }
        let mut batch: Vec<(u64, u32)> = items.to_vec();
        // Stable sort: for duplicate keys within one batch, the first
        // occurrence wins deterministically.
        batch.sort_by_key(|&(k, _)| k);
        batch.dedup_by_key(|&mut (k, _)| k);
        for &(k, _) in &batch {
            assert_ne!(k, EMPTY, "EMPTY is a reserved key");
        }
        // Split into updates (key present) and true inserts.
        let mut inserts = Vec::with_capacity(batch.len());
        for (k, v) in batch {
            if let Some(slot) = self.find_exact(k) {
                self.vals[slot] = v;
            } else {
                inserts.push((k, v));
            }
        }
        if inserts.is_empty() {
            return;
        }
        // Grow first if the root window would overflow.
        let need = self.n_elems + inserts.len();
        if (need as f64) / (self.capacity() as f64) > self.tau(self.height()) {
            let mut all: Vec<(u64, u32)> = self.iter().collect();
            all = merge_sorted(&all, &inserts);
            let mut cap = self.capacity();
            while (need as f64) / (cap as f64) > TARGET_DENSITY {
                cap *= 2;
            }
            self.reallocate(cap);
            self.write_spread(0, self.capacity(), &all);
            self.n_elems = all.len();
            return;
        }
        self.n_elems = need;
        self.insert_into_window(self.height(), 0, self.capacity(), inserts);
    }

    fn find_exact(&self, key: u64) -> Option<usize> {
        match self.lower_bound(key) {
            Some(i) if self.keys[i] == key => Some(i),
            _ => None,
        }
    }

    /// Recursive top-down batch insertion into the window `[lo, hi)` at
    /// `level` levels above the leaves. Precondition: the window's density
    /// *with* the pending items does not exceed `tau(level)` (the caller
    /// checked, or will rebalance us).
    fn insert_into_window(&mut self, level: usize, lo: usize, hi: usize, items: Vec<(u64, u32)>) {
        if items.is_empty() {
            return;
        }
        if level == 0 {
            self.merge_into_segment(lo, hi, &items);
            return;
        }
        let mid = (lo + hi) / 2;
        // Boundary = first valid key in the right child; items below it go
        // left.
        let boundary = self.keys[mid..hi].iter().copied().find(|&k| k != EMPTY);
        let split = match boundary {
            Some(b) => items.partition_point(|&(k, _)| k < b),
            None => items.len(),
        };
        let (left_items, right_items) = items.split_at(split);
        let (mut left_items, mut right_items) = (left_items.to_vec(), right_items.to_vec());

        // Check each child's density with its share; a child over threshold
        // forces a rebalance of *this* window (which is known to fit).
        let child_tau = self.tau(level - 1);
        let half = (hi - lo) / 2;
        let left_over =
            (self.count_valid(lo, mid) + left_items.len()) as f64 / half as f64 > child_tau;
        let right_over =
            (self.count_valid(mid, hi) + right_items.len()) as f64 / half as f64 > child_tau;
        if left_over || right_over {
            let mut all: Vec<(u64, u32)> = self.collect_window(lo, hi);
            left_items.append(&mut right_items);
            all = merge_sorted(&all, &left_items);
            self.write_spread(lo, hi, &all);
            return;
        }
        self.insert_into_window(level - 1, lo, mid, left_items);
        self.insert_into_window(level - 1, mid, hi, right_items);
    }

    /// Merges sorted `items` into the (single-segment) window `[lo, hi)`,
    /// rewriting the segment with an even spread.
    fn merge_into_segment(&mut self, lo: usize, hi: usize, items: &[(u64, u32)]) {
        let existing = self.collect_window(lo, hi);
        let merged = merge_sorted(&existing, items);
        debug_assert!(
            merged.len() <= hi - lo,
            "segment overflow: caller must rebalance"
        );
        self.write_spread(lo, hi, &merged);
    }

    fn collect_window(&self, lo: usize, hi: usize) -> Vec<(u64, u32)> {
        self.keys[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Writes `items` into `[lo, hi)` spread evenly, clearing other slots.
    fn write_spread(&mut self, lo: usize, hi: usize, items: &[(u64, u32)]) {
        let slots = hi - lo;
        debug_assert!(items.len() <= slots);
        // Handles are interned once — rebalances are frequent enough that a
        // per-call name lookup would show up in insert-heavy workloads.
        static REBAL: std::sync::OnceLock<(
            stgraph_telemetry::Counter,
            &'static stgraph_telemetry::Histogram,
        )> = std::sync::OnceLock::new();
        let (rebalances, rebalance_slots) = REBAL.get_or_init(|| {
            (
                stgraph_telemetry::counter("pma.rebalances"),
                stgraph_telemetry::histogram("pma.rebalance_slots"),
            )
        });
        rebalances.inc();
        rebalance_slots.record(slots as u64);
        debug_assert!(
            lo.is_multiple_of(self.seg_len) && hi.is_multiple_of(self.seg_len),
            "write_spread window must be segment-aligned"
        );
        self.keys[lo..hi].fill(EMPTY);
        self.seg_counts[lo / self.seg_len..hi / self.seg_len].fill(0);
        if items.is_empty() {
            return;
        }
        let t = items.len();
        for (i, &(k, v)) in items.iter().enumerate() {
            let pos = lo + i * slots / t;
            debug_assert_eq!(self.keys[pos], EMPTY);
            self.keys[pos] = k;
            self.vals[pos] = v;
            self.seg_counts[pos / self.seg_len] += 1;
        }
    }

    fn reallocate(&mut self, cap: usize) {
        self.keys = vec![EMPTY; cap];
        self.vals = vec![0; cap];
        self.seg_len = seg_len_for(cap);
        self.seg_counts = vec![0; cap / self.seg_len];
        self.charge.resize(cap * (8 + 4));
    }

    fn rebuild_with(&mut self, items: Vec<(u64, u32)>) {
        let mut cap = MIN_CAPACITY;
        while (items.len() as f64) / (cap as f64) > TARGET_DENSITY {
            cap *= 2;
        }
        self.reallocate(cap);
        self.write_spread(0, cap, &items);
        self.n_elems = items.len();
    }

    // ---------- batch delete ----------

    /// Deletes a batch of keys (missing keys are ignored). Maintains lower
    /// density bounds, shrinking the array when the root window empties out.
    pub fn delete_batch(&mut self, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        let mut removed = 0usize;
        for &k in keys {
            if let Some(slot) = self.find_exact(k) {
                self.keys[slot] = EMPTY;
                self.seg_counts[slot / self.seg_len] -= 1;
                removed += 1;
            }
        }
        if removed == 0 {
            return;
        }
        self.n_elems -= removed;
        // Root underflow: shrink and redistribute.
        let cap_f = self.capacity() as f64;
        if self.capacity() > MIN_CAPACITY && (self.n_elems as f64) / cap_f < self.rho(self.height())
        {
            let all: Vec<(u64, u32)> = self.iter().collect();
            self.rebuild_with(all);
            return;
        }
        // Repair leaf/lower-window underflows bottom-up: find leaves under
        // rho and rebalance their smallest satisfying ancestor window.
        self.repair_underflow();
    }

    fn repair_underflow(&mut self) {
        let seg = self.seg_len;
        let nseg = self.num_segments();
        let mut s = 0;
        while s < nseg {
            let lo = s * seg;
            let hi = lo + seg;
            let d = self.count_valid(lo, hi) as f64 / seg as f64;
            if d >= self.rho(0) || self.n_elems == 0 {
                s += 1;
                continue;
            }
            // Walk up until the window density satisfies its bound (the
            // root always does after the shrink check above).
            let mut level = 0usize;
            let (mut wlo, mut whi) = (lo, hi);
            loop {
                level += 1;
                if level > self.height() {
                    break;
                }
                let wsize = seg << level;
                wlo = (lo / wsize) * wsize;
                whi = wlo + wsize;
                let wd = self.count_valid(wlo, whi) as f64 / wsize as f64;
                if wd >= self.rho(level) {
                    break;
                }
            }
            let all = self.collect_window(wlo, whi);
            self.write_spread(wlo, whi, &all);
            // Skip past the repaired window.
            s = whi / seg;
        }
    }

    // ---------- invariants (test support) ----------

    /// Panics if any PMA invariant is violated: sortedness, element count,
    /// geometry, or per-window density bounds (leaf bounds get slack because
    /// a freshly-rebalanced sibling may sit right at the edge).
    pub fn check_invariants(&self) {
        assert!(
            self.capacity().is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(self.seg_len.is_power_of_two() && self.capacity().is_multiple_of(self.seg_len));
        let valid: Vec<u64> = self.keys.iter().copied().filter(|&k| k != EMPTY).collect();
        assert_eq!(valid.len(), self.n_elems, "element count drifted");
        assert!(valid.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert_eq!(self.seg_counts.len(), self.capacity() / self.seg_len);
        for (s, &c) in self.seg_counts.iter().enumerate() {
            let lo = s * self.seg_len;
            let hi = lo + self.seg_len;
            let actual = self.keys[lo..hi].iter().filter(|&&k| k != EMPTY).count();
            assert_eq!(c as usize, actual, "segment {s} occupancy index drifted");
        }
        // Root density must respect the root bound (except tiny arrays).
        if self.capacity() > MIN_CAPACITY {
            let d = self.n_elems as f64 / self.capacity() as f64;
            assert!(d <= self.tau(self.height()) + 1e-9, "root overflow: {d}");
        }
    }
}

/// Merges two sorted-by-key vectors (strict keys within each, disjoint sets).
fn merge_sorted(a: &[(u64, u32)], b: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            debug_assert_ne!(a[i].0, b[j].0, "merge_sorted: duplicate key");
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn empty_pma() {
        let pma = Pma::new();
        assert!(pma.is_empty());
        assert_eq!(pma.capacity(), MIN_CAPACITY);
        assert_eq!(pma.get(42), None);
        pma.check_invariants();
    }

    #[test]
    fn insert_and_lookup_small() {
        let mut pma = Pma::new();
        pma.insert_batch(&[(5, 50), (1, 10), (9, 90)]);
        assert_eq!(pma.len(), 3);
        assert_eq!(pma.get(5), Some(50));
        assert_eq!(pma.get(1), Some(10));
        assert_eq!(pma.get(9), Some(90));
        assert_eq!(pma.get(2), None);
        assert_eq!(
            pma.iter().collect::<Vec<_>>(),
            vec![(1, 10), (5, 50), (9, 90)]
        );
        pma.check_invariants();
    }

    #[test]
    fn insert_overwrites_existing_value() {
        let mut pma = Pma::new();
        pma.insert_batch(&[(3, 1)]);
        pma.insert_batch(&[(3, 2)]);
        assert_eq!(pma.len(), 1);
        assert_eq!(pma.get(3), Some(2));
    }

    #[test]
    fn grow_keeps_order() {
        let mut pma = Pma::new();
        let items: Vec<(u64, u32)> = (0..1000).map(|i| (i as u64 * 3, i as u32)).collect();
        pma.insert_batch(&items);
        assert_eq!(pma.len(), 1000);
        assert!(pma.capacity() >= 2000);
        let got: Vec<u64> = pma.iter().map(|(k, _)| k).collect();
        let want: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(got, want);
        pma.check_invariants();
    }

    #[test]
    fn interleaved_batches_match_btreemap_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut pma = Pma::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for round in 0..30 {
            let n_ins = rng.gen_range(1..200);
            let ins: Vec<(u64, u32)> = (0..n_ins)
                .map(|_| (rng.gen_range(0..5000u64), round))
                .collect();
            pma.insert_batch(&ins);
            let mut sorted = ins.clone();
            sorted.sort_unstable_by_key(|&(k, _)| k);
            sorted.dedup_by_key(|&mut (k, _)| k);
            for (k, v) in sorted {
                model.insert(k, v);
            }
            // Delete a random subset of present keys plus some absent ones.
            let present: Vec<u64> = model.keys().copied().collect();
            let n_del = rng.gen_range(0..present.len().max(1));
            let mut dels: Vec<u64> = present.choose_multiple(&mut rng, n_del).copied().collect();
            dels.push(999_999); // absent
            pma.delete_batch(&dels);
            for d in &dels {
                model.remove(d);
            }
            pma.check_invariants();
            let got: Vec<(u64, u32)> = pma.iter().collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "model divergence in round {round}");
        }
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let mut pma = Pma::new();
        let items: Vec<(u64, u32)> = (0..500).map(|i| (i, i as u32)).collect();
        pma.insert_batch(&items);
        pma.delete_batch(&(0..500u64).collect::<Vec<_>>());
        assert!(pma.is_empty());
        pma.check_invariants();
        pma.insert_batch(&[(7, 7)]);
        assert_eq!(pma.get(7), Some(7));
        pma.check_invariants();
    }

    #[test]
    fn shrink_after_mass_delete() {
        let mut pma = Pma::new();
        let items: Vec<(u64, u32)> = (0..4096).map(|i| (i, 0)).collect();
        pma.insert_batch(&items);
        let big_cap = pma.capacity();
        pma.delete_batch(&(0..4000u64).collect::<Vec<_>>());
        assert!(
            pma.capacity() < big_cap,
            "should shrink: {} vs {}",
            pma.capacity(),
            big_cap
        );
        assert_eq!(pma.len(), 96);
        pma.check_invariants();
    }

    #[test]
    fn from_sorted_roundtrip() {
        let items: Vec<(u64, u32)> = (0..100).map(|i| (i * 7, i as u32)).collect();
        let pma = Pma::from_sorted(&items);
        assert_eq!(pma.iter().collect::<Vec<_>>(), items);
        pma.check_invariants();
    }

    #[test]
    fn descending_batch_inserts() {
        // Repeatedly prepend smaller keys: stresses left-edge rebalancing.
        let mut pma = Pma::new();
        for chunk in (0..20).rev() {
            let items: Vec<(u64, u32)> = (0..50)
                .map(|i| (chunk * 50 + i, (chunk * 50 + i) as u32))
                .collect();
            pma.insert_batch(&items);
            pma.check_invariants();
        }
        assert_eq!(pma.len(), 1000);
        let got: Vec<u64> = pma.iter().map(|(k, _)| k).collect();
        assert_eq!(got, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn memory_charge_follows_capacity() {
        stgraph_tensor::mem::with_pool("pma-test", || {
            let mut pma = Pma::new();
            let base = pma.bytes();
            pma.insert_batch(&(0..10_000u64).map(|i| (i, 0)).collect::<Vec<_>>());
            assert!(pma.bytes() > base);
            assert_eq!(pma.bytes(), pma.capacity() * 12);
        });
    }
}
