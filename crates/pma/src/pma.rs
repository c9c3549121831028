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
//! what makes a batch update cheap. A batch is sorted once, and one
//! forward walk over the segments' first keys finds which of its keys are
//! stored and, for an insert, the leaf each new key descends to.
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
    /// First key of each segment, [`EMPTY`] for an empty one: the fence
    /// keys a batch's presence walk gallops over, so a probe reads this
    /// dense index instead of a segment's slots.
    seg_first: Vec<u64>,
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
            seg_first: vec![EMPTY; cap / seg_len],
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
        pma.rebuild_with(keys);
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

    /// True if `key` is stored: one binary search over the slots. Batch
    /// updates look their keys up in one forward walk instead.
    pub fn contains(&self, key: u64) -> bool {
        self.lower_bound(key).is_some_and(|i| self.keys[i] == key)
    }

    /// Keeps the keys of the strictly ascending `keys` whose presence in
    /// the array equals `stored`, in one forward walk over the segments.
    pub fn retain_sorted(&self, keys: &mut Vec<u64>, stored: bool) {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "retain_sorted: keys not strict"
        );
        let mut seek = Seek::new(self);
        keys.retain(|&k| seek.find(k).is_some() == stored);
    }

    // ---------- geometry ----------

    fn num_segments(&self) -> usize {
        self.seg_counts.len()
    }

    /// Segment of slot `i` (segment lengths are powers of two).
    fn seg_of(&self, i: usize) -> usize {
        i >> self.seg_len.trailing_zeros()
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

    /// Keys stored in the segment-aligned window `[lo, hi)`, summed from
    /// the occupancy index.
    fn count_valid(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo.is_multiple_of(self.seg_len) && hi.is_multiple_of(self.seg_len));
        self.seg_counts[self.seg_of(lo)..self.seg_of(hi)]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// First stored key in segments `segs`, read from the fence keys.
    fn first_key(&self, segs: std::ops::Range<usize>) -> Option<u64> {
        self.seg_first[segs].iter().copied().find(|&k| k != EMPTY)
    }

    /// Replaces `out` with the keys of `[lo, hi)` in slot order.
    /// Branch-free: every slot is written at the cursor, which advances
    /// only past keys.
    fn compact_into(&self, lo: usize, hi: usize, out: &mut Vec<u64>) {
        let n = self.count_valid(lo, hi);
        // One slot of headroom for the gaps written after the last key.
        out.clear();
        out.resize(n + 1, EMPTY);
        let mut c = 0;
        for &k in &self.keys[lo..hi] {
            out[c] = k;
            c += (k != EMPTY) as usize;
        }
        out.truncate(n);
    }

    /// First valid slot index with key >= `key`: a binary search over slot
    /// positions, where a probe that lands in a gap moves right to the next
    /// valid slot.
    fn lower_bound(&self, key: u64) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.capacity();
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Find nearest valid slot at or after mid; whole-empty segments
            // are skipped via the occupancy index so sparse regions cost
            // O(1) per segment instead of O(seg_len).
            let mut probe = mid;
            while probe < hi && self.keys[probe] == EMPTY {
                let s = self.seg_of(probe);
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
            let s = self.seg_of(i);
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
        let mut inserts = sorted_set(keys);
        assert!(inserts.last() != Some(&EMPTY), "EMPTY is a reserved key");
        // Drop the stored keys; note where the descent takes the others.
        let mut leaves = Vec::with_capacity(inserts.len());
        let mut seek = Seek::new(self);
        inserts.retain(|&k| {
            let stored = seek.find(k).is_some();
            if !stored {
                leaves.push(seek.seg);
            }
            !stored
        });
        if inserts.is_empty() {
            return;
        }
        // Holds one window's existing keys at a time, for the whole batch.
        let mut scratch = Vec::new();
        // Grow first if the root window would overflow.
        let need = self.n_elems + inserts.len();
        if (need as f64) / (self.capacity() as f64) > self.tau(self.height()) {
            self.compact_into(0, self.capacity(), &mut scratch);
            let mut cap = self.capacity();
            while (need as f64) / (cap as f64) > TARGET_DENSITY {
                cap *= 2;
            }
            self.reallocate(cap);
            self.write_spread(0, cap, &scratch, &inserts);
            self.n_elems = need;
            return;
        }
        let (height, count) = (self.height(), self.n_elems);
        self.n_elems = need;
        self.insert_into_window(height, 0, count, &inserts, &leaves, &mut scratch);
    }

    /// Recursive top-down batch insertion into the window of `2^level`
    /// segments starting at segment `first`, which holds `count` keys.
    /// `items` is non-empty and `leaves[i]` is the segment the descent
    /// sends `items[i]` to: an item goes right iff the right child holds a
    /// key at or below it, which the presence walk has already worked out
    /// for every level (see [`Seek`]). Precondition: the window's density
    /// *with* the pending items does not exceed `tau(level)` (the caller
    /// checked, or will rebalance us).
    fn insert_into_window(
        &mut self,
        level: usize,
        first: usize,
        count: usize,
        items: &[u64],
        leaves: &[usize],
        scratch: &mut Vec<u64>,
    ) {
        let seg = self.seg_len;
        let (lo, hi) = (first * seg, (first + (1 << level)) * seg);
        if level == 0 {
            self.merge_spread(lo, hi, items, scratch);
            return;
        }
        let mid = first + (1 << (level - 1));
        let split = leaves.partition_point(|&s| s < mid);

        // Check each child's density with its share; a child over threshold
        // forces a rebalance of *this* window (which is known to fit).
        let child_tau = self.tau(level - 1);
        let half = ((hi - lo) / 2) as f64;
        let left = self.seg_counts[first..mid]
            .iter()
            .map(|&c| c as usize)
            .sum::<usize>();
        let right = count - left;
        let left_over = (left + split) as f64 / half > child_tau;
        let right_over = (right + items.len() - split) as f64 / half > child_tau;
        if left_over || right_over {
            self.merge_spread(lo, hi, items, scratch);
            return;
        }
        let (left_items, right_items) = items.split_at(split);
        let (left_leaves, right_leaves) = leaves.split_at(split);
        if !left_items.is_empty() {
            self.insert_into_window(level - 1, first, left, left_items, left_leaves, scratch);
        }
        if !right_items.is_empty() {
            self.insert_into_window(level - 1, mid, right, right_items, right_leaves, scratch);
        }
    }

    /// Rewrites the window `[lo, hi)` as its keys merged with the sorted
    /// `items`, spread evenly. The window's keys are copied to `scratch`
    /// first: a spread position can lie past a key not yet merged.
    fn merge_spread(&mut self, lo: usize, hi: usize, items: &[u64], scratch: &mut Vec<u64>) {
        self.compact_into(lo, hi, scratch);
        self.write_spread(lo, hi, scratch, items);
    }

    /// Writes the merge of the sorted, disjoint `a` and `b` into
    /// `[lo, hi)` spread evenly (item `i` of `t` at `lo + i * slots / t`),
    /// clearing the other slots.
    fn write_spread(&mut self, lo: usize, hi: usize, a: &[u64], b: &[u64]) {
        let slots = hi - lo;
        let t = a.len() + b.len();
        debug_assert!(t <= slots, "window overflow: caller must rebalance");
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
        let (s_lo, s_hi) = (self.seg_of(lo), self.seg_of(hi));
        self.seg_counts[s_lo..s_hi].fill(0);
        self.seg_first[s_lo..s_hi].fill(EMPTY);
        if t == 0 {
            return;
        }
        // `q` = i * slots / t and `r` = i * slots % t step by the quotient
        // and remainder of slots / t: one division per window, not per key.
        let (q_step, r_step) = (slots / t, slots % t);
        let (mut q, mut r) = (0usize, 0usize);
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..t {
            // EMPTY sorts after every key, so an exhausted side never wins.
            let x = a.get(i).copied().unwrap_or(EMPTY);
            let y = b.get(j).copied().unwrap_or(EMPTY);
            debug_assert_ne!(x, y, "write_spread: duplicate key");
            let take_a = x < y;
            i += take_a as usize;
            j += !take_a as usize;
            let (pos, k) = (lo + q, if take_a { x } else { y });
            self.keys[pos] = k;
            let s = self.seg_of(pos);
            self.seg_counts[s] += 1;
            // Keys arrive ascending: a segment's first one is its minimum.
            self.seg_first[s] = self.seg_first[s].min(k);
            q += q_step;
            r += r_step;
            let carry = (r >= t) as usize;
            q += carry;
            r -= carry * t;
        }
    }

    /// Sizes the arrays for `cap` slots; the caller's spread over the
    /// whole array then rewrites every slot and index entry. A shrink
    /// that lands on the current capacity (root density just under its
    /// bound) keeps the arrays instead of allocating them again.
    fn reallocate(&mut self, cap: usize) {
        if cap == self.capacity() {
            return;
        }
        self.keys = vec![EMPTY; cap];
        self.seg_len = seg_len_for(cap);
        self.seg_counts = vec![0; cap / self.seg_len];
        self.seg_first = vec![EMPTY; cap / self.seg_len];
        self.charge.resize(cap * 8);
    }

    fn rebuild_with(&mut self, items: &[u64]) {
        let mut cap = MIN_CAPACITY;
        while (items.len() as f64) / (cap as f64) > TARGET_DENSITY {
            cap *= 2;
        }
        self.reallocate(cap);
        self.write_spread(0, cap, items, &[]);
        self.n_elems = items.len();
    }

    // ---------- batch delete ----------

    /// Deletes a batch of keys (missing keys are ignored). Maintains lower
    /// density bounds, shrinking the array when the root window empties out.
    pub fn delete_batch(&mut self, keys: &[u64]) {
        let mut batch = sorted_set(keys);
        let slots: Vec<usize> = {
            let mut seek = Seek::new(self);
            batch.iter().filter_map(|&k| seek.find(k)).collect()
        };
        if slots.is_empty() {
            return;
        }
        let seg = self.seg_len;
        for &slot in &slots {
            let (s, k) = (self.seg_of(slot), self.keys[slot]);
            self.keys[slot] = EMPTY;
            self.seg_counts[s] -= 1;
            // A segment that lost its first key starts at the next one.
            if self.seg_first[s] == k {
                let base = s * seg;
                let rest = &self.keys[slot + 1..base + seg];
                self.seg_first[s] = rest.iter().copied().find(|&k| k != EMPTY).unwrap_or(EMPTY);
            }
        }
        self.n_elems -= slots.len();
        // The batch's keys are spent: its buffer is the scratch from here.
        let scratch = &mut batch;
        // Root underflow: shrink and redistribute.
        let cap_f = self.capacity() as f64;
        if self.capacity() > MIN_CAPACITY && (self.n_elems as f64) / cap_f < self.rho(self.height())
        {
            self.compact_into(0, self.capacity(), scratch);
            self.rebuild_with(scratch);
            return;
        }
        // Repair leaf/lower-window underflows bottom-up: find leaves under
        // rho and rebalance their smallest satisfying ancestor window.
        self.repair_underflow(scratch);
    }

    fn repair_underflow(&mut self, scratch: &mut Vec<u64>) {
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
                wlo = lo & !(wsize - 1);
                whi = wlo + wsize;
                let wd = self.count_valid(wlo, whi) as f64 / wsize as f64;
                if wd >= self.rho(level) {
                    break;
                }
            }
            self.merge_spread(wlo, whi, &[], scratch);
            // Skip past the repaired window.
            s = self.seg_of(whi);
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
            let first = self.keys[lo..hi].iter().copied().find(|&k| k != EMPTY);
            assert_eq!(
                self.seg_first[s],
                first.unwrap_or(EMPTY),
                "segment {s} fence key drifted"
            );
        }
        // Root density must respect the root bound (except tiny arrays).
        if self.capacity() > MIN_CAPACITY {
            let d = self.n_elems as f64 / self.capacity() as f64;
            assert!(d <= self.tau(self.height()) + 1e-9, "root overflow: {d}");
        }
    }
}

/// `keys` ascending without duplicates: the form every batch walks in.
fn sorted_set(keys: &[u64]) -> Vec<u64> {
    let mut set = keys.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// The presence walk of a batch: looks up strictly ascending keys, each
/// [`Seek::find`] galloping forward over the segments from the segment of
/// the previous key. A sorted batch of `b` keys costs O(b log(segments /
/// b)) segment probes instead of `b` binary searches over the slots.
struct Seek<'a> {
    pma: &'a Pma,
    /// Smallest stored key ([`EMPTY`] when there is none).
    first: u64,
    /// The last segment whose [`Seek::lead`] is at most the previous key
    /// (0 before any key reaches the smallest stored one); only moves
    /// forward. That is the last non-empty segment whose first key is at
    /// most the key, which is the leaf an insert's descent sends the key
    /// to: at every window it goes right iff the right child holds a key
    /// at or below it.
    seg: usize,
}

impl<'a> Seek<'a> {
    fn new(pma: &'a Pma) -> Seek<'a> {
        let first = pma.first_key(0..pma.num_segments()).unwrap_or(EMPTY);
        Seek { pma, first, seg: 0 }
    }

    /// First stored key at or after the start of segment `s`, [`EMPTY`] if
    /// there is none: non-decreasing in `s`.
    fn lead(&self, s: usize) -> u64 {
        self.pma
            .first_key(s..self.pma.num_segments())
            .unwrap_or(EMPTY)
    }

    /// Slot of `key`, if stored. Calls must pass strictly ascending keys.
    fn find(&mut self, key: u64) -> Option<usize> {
        if key < self.first || key == EMPTY {
            return None;
        }
        // Bracket `lead(lo) <= key < lead(hi)`, `hi == nseg` standing for a
        // lead past every key: gallop forward, then bisect.
        let nseg = self.pma.num_segments();
        let (mut lo, mut hi, mut step) = (self.seg, self.seg + 1, 1);
        while hi < nseg && self.lead(hi) <= key {
            lo = hi;
            step *= 2;
            hi = (lo + step).min(nseg);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.lead(mid) <= key {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.seg = lo;
        // Every key before segment `lo` is below `lead(lo)`, every key from
        // segment `lo + 1` on is at least `lead(lo + 1) > key`: if stored,
        // `key` is in segment `lo`.
        let base = lo * self.pma.seg_len;
        self.pma.keys[base..base + self.pma.seg_len]
            .iter()
            .position(|&k| k == key)
            .map(|p| base + p)
    }
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
