//! A Packed Memory Array (PMA) — the storage engine behind GPMA
//! (Sha et al., VLDB'17), which STGraph uses to build DTDG snapshots on
//! demand (§V.D).
//!
//! The PMA keeps a set of `u64` keys sorted in an array with deliberate
//! gaps ([`EMPTY`] slots). The array is divided into power-of-two *segments*
//! organised as an implicit binary tree of *windows*; every window keeps its
//! density (valid slots / total slots) inside level-dependent bounds. Batch
//! updates descend the window tree: a batch that fits a leaf merges in
//! place, otherwise the smallest enclosing window whose density bound still
//! holds is rebalanced with the pending keys spread evenly. The gaps are
//! what makes a batch update cheap.
//!
//! Deviations from the CUDA original:
//! * GPMA processes independent windows with cooperative thread groups; we
//!   run the per-window redistribution loops sequentially. The density
//!   invariants, the update complexity and the array layout are identical.
//! * GPMA stores a value (the edge id) beside each key and its kernels read
//!   the gapped arrays in place. Here a slot holds only its key: the DTDG
//!   store numbers edge ids itself and builds dense CSRs from the key
//!   slots, so no consumer ever reads a gap.

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

/// A sorted packed-memory array of `u64` keys.
pub struct Pma {
    keys: Vec<u64>,
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
            seg_len,
            n_elems: 0,
            seg_counts: vec![0; cap / seg_len],
            charge: BytesCharge::new(cap * 8),
        }
    }

    /// Builds a PMA from strictly-sorted keys.
    pub fn from_sorted(keys: &[u64]) -> Pma {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "from_sorted: keys not strict"
        );
        let mut pma = Pma::new();
        pma.rebuild_with(keys.to_vec());
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

    /// Raw key slots, with [`EMPTY`] gaps.
    pub fn key_slots(&self) -> &[u64] {
        &self.keys
    }

    /// Bytes currently charged for the backing arrays.
    pub fn bytes(&self) -> usize {
        self.charge.bytes()
    }

    /// Iterates the keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied().filter(|&k| k != EMPTY)
    }

    /// True if `key` is stored.
    pub fn contains(&self, key: u64) -> bool {
        self.find_exact(key).is_some()
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

    /// Inserts a batch of keys, merged maintaining order and density
    /// bounds. Keys already stored and duplicates within the batch are
    /// no-ops. The batch need not be sorted.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        let mut inserts: Vec<u64> = keys.to_vec();
        inserts.sort_unstable();
        inserts.dedup();
        assert!(inserts.last() != Some(&EMPTY), "EMPTY is a reserved key");
        inserts.retain(|&k| !self.contains(k));
        if inserts.is_empty() {
            return;
        }
        // Grow first if the root window would overflow.
        let need = self.n_elems + inserts.len();
        if (need as f64) / (self.capacity() as f64) > self.tau(self.height()) {
            let all = merge_sorted(&self.iter().collect::<Vec<_>>(), &inserts);
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
    fn insert_into_window(&mut self, level: usize, lo: usize, hi: usize, items: Vec<u64>) {
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
            Some(b) => items.partition_point(|&k| k < b),
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
            left_items.append(&mut right_items);
            let all = merge_sorted(&self.collect_window(lo, hi), &left_items);
            self.write_spread(lo, hi, &all);
            return;
        }
        self.insert_into_window(level - 1, lo, mid, left_items);
        self.insert_into_window(level - 1, mid, hi, right_items);
    }

    /// Merges sorted `items` into the (single-segment) window `[lo, hi)`,
    /// rewriting the segment with an even spread.
    fn merge_into_segment(&mut self, lo: usize, hi: usize, items: &[u64]) {
        let existing = self.collect_window(lo, hi);
        let merged = merge_sorted(&existing, items);
        debug_assert!(
            merged.len() <= hi - lo,
            "segment overflow: caller must rebalance"
        );
        self.write_spread(lo, hi, &merged);
    }

    fn collect_window(&self, lo: usize, hi: usize) -> Vec<u64> {
        self.keys[lo..hi]
            .iter()
            .copied()
            .filter(|&k| k != EMPTY)
            .collect()
    }

    /// Writes `items` into `[lo, hi)` spread evenly, clearing other slots.
    fn write_spread(&mut self, lo: usize, hi: usize, items: &[u64]) {
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
        for (i, &k) in items.iter().enumerate() {
            let pos = lo + i * slots / t;
            debug_assert_eq!(self.keys[pos], EMPTY);
            self.keys[pos] = k;
            self.seg_counts[pos / self.seg_len] += 1;
        }
    }

    fn reallocate(&mut self, cap: usize) {
        self.keys = vec![EMPTY; cap];
        self.seg_len = seg_len_for(cap);
        self.seg_counts = vec![0; cap / self.seg_len];
        self.charge.resize(cap * 8);
    }

    fn rebuild_with(&mut self, items: Vec<u64>) {
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
            self.rebuild_with(self.iter().collect());
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

/// Merges two sorted key vectors (strict within each, disjoint sets).
fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            debug_assert_ne!(a[i], b[j], "merge_sorted: duplicate key");
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
    use std::collections::BTreeSet;

    #[test]
    fn empty_pma() {
        let pma = Pma::new();
        assert!(pma.is_empty());
        assert_eq!(pma.capacity(), MIN_CAPACITY);
        assert!(!pma.contains(42));
        pma.check_invariants();
    }

    #[test]
    fn insert_and_lookup_small() {
        let mut pma = Pma::new();
        pma.insert_batch(&[5, 1, 9]);
        assert_eq!(pma.len(), 3);
        assert!(pma.contains(5) && pma.contains(1) && pma.contains(9));
        assert!(!pma.contains(2));
        assert_eq!(pma.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        pma.check_invariants();
    }

    #[test]
    fn reinserting_a_key_is_a_no_op() {
        let mut pma = Pma::new();
        pma.insert_batch(&[3, 3]);
        let slots = pma.key_slots().to_vec();
        pma.insert_batch(&[3]);
        assert_eq!(pma.len(), 1);
        assert_eq!(pma.key_slots(), &slots[..]);
    }

    #[test]
    fn grow_keeps_order() {
        let mut pma = Pma::new();
        pma.insert_batch(&(0..1000u64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(pma.len(), 1000);
        assert!(pma.capacity() >= 2000);
        let want: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(pma.iter().collect::<Vec<_>>(), want);
        pma.check_invariants();
    }

    #[test]
    fn interleaved_batches_match_btreeset_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut pma = Pma::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for round in 0..30 {
            let n_ins = rng.gen_range(1..200);
            let ins: Vec<u64> = (0..n_ins).map(|_| rng.gen_range(0..5000u64)).collect();
            pma.insert_batch(&ins);
            model.extend(&ins);
            // Delete a random subset of present keys plus some absent ones.
            let present: Vec<u64> = model.iter().copied().collect();
            let n_del = rng.gen_range(0..present.len().max(1));
            let mut dels: Vec<u64> = present.choose_multiple(&mut rng, n_del).copied().collect();
            dels.push(999_999); // absent
            pma.delete_batch(&dels);
            for d in &dels {
                model.remove(d);
            }
            pma.check_invariants();
            let got: Vec<u64> = pma.iter().collect();
            let want: Vec<u64> = model.iter().copied().collect();
            assert_eq!(got, want, "model divergence in round {round}");
        }
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let mut pma = Pma::new();
        pma.insert_batch(&(0..500u64).collect::<Vec<_>>());
        pma.delete_batch(&(0..500u64).collect::<Vec<_>>());
        assert!(pma.is_empty());
        pma.check_invariants();
        pma.insert_batch(&[7]);
        assert!(pma.contains(7));
        pma.check_invariants();
    }

    #[test]
    fn shrink_after_mass_delete() {
        let mut pma = Pma::new();
        pma.insert_batch(&(0..4096u64).collect::<Vec<_>>());
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
        let keys: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let pma = Pma::from_sorted(&keys);
        assert_eq!(pma.iter().collect::<Vec<_>>(), keys);
        pma.check_invariants();
    }

    #[test]
    fn descending_batch_inserts() {
        // Repeatedly prepend smaller keys: stresses left-edge rebalancing.
        let mut pma = Pma::new();
        for chunk in (0..20u64).rev() {
            pma.insert_batch(&(chunk * 50..chunk * 50 + 50).collect::<Vec<_>>());
            pma.check_invariants();
        }
        assert_eq!(pma.len(), 1000);
        assert_eq!(
            pma.iter().collect::<Vec<_>>(),
            (0..1000u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_charge_follows_capacity() {
        stgraph_tensor::mem::with_pool("pma-test", || {
            let mut pma = Pma::new();
            let base = pma.bytes();
            pma.insert_batch(&(0..10_000u64).collect::<Vec<_>>());
            assert!(pma.bytes() > base);
            assert_eq!(pma.bytes(), pma.capacity() * 8);
        });
    }
}
