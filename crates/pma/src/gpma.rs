//! GPMA: the PMA specialised to graph adjacency (§V.D).
//!
//! An edge is one `u64` key `(a << 32) | b`, so the PMA's sorted order
//! groups the edges sharing `a` contiguously, ascending in `b`. Which
//! endpoint goes first is the caller's choice: the DTDG store
//! (`stgraph_dyngraph::DtdgStore`) keys by destination, so its slot order
//! is the in-neighbour adjacency and it builds snapshots — edge ids
//! included (Algorithm 2, line 8) — straight from the slots.
//!
//! The key is the whole edge: there is no per-edge value column (GPMA's
//! `eids`), and no consumer reads the gapped slots as a CSR. The store
//! numbers edge ids when it builds the dense snapshot CSRs.

use crate::pma::Pma;

/// Packs an edge into its PMA key.
#[inline]
pub fn edge_key(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Unpacks a PMA key into `(src, dst)`.
#[inline]
pub fn key_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// A dynamic graph stored as a GPMA.
///
/// ```
/// use stgraph_pma::Gpma;
///
/// let mut g = Gpma::from_edges(4, &[(0, 1), (1, 2)]);
/// g.insert_edges(&[(2, 3)]);
/// g.delete_edges(&[(0, 1)]);
/// assert_eq!(g.edges(), vec![(1, 2), (2, 3)]);
/// assert!(g.has_edge(2, 3) && !g.has_edge(0, 1));
/// ```
pub struct Gpma {
    pma: Pma,
    num_nodes: usize,
}

impl Gpma {
    /// An empty graph over `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Gpma {
        Gpma {
            pma: Pma::new(),
            num_nodes,
        }
    }

    /// Builds a graph from an initial (base) edge list.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Gpma {
        let mut g = Gpma::new(num_nodes);
        g.insert_edges(edges);
        g
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.pma.len()
    }

    /// Bytes charged for the PMA arrays.
    pub fn bytes(&self) -> usize {
        self.pma.bytes()
    }

    /// Access to the underlying PMA (tests, invariant checks).
    pub fn pma(&self) -> &Pma {
        &self.pma
    }

    /// Batch edge insertion (duplicates of existing edges are no-ops).
    pub fn insert_edges(&mut self, edges: &[(u32, u32)]) {
        let keys: Vec<u64> = edges.iter().map(|&(s, d)| edge_key(s, d)).collect();
        self.pma.insert_batch(&keys);
    }

    /// Batch edge deletion (absent edges are ignored).
    pub fn delete_edges(&mut self, edges: &[(u32, u32)]) {
        let keys: Vec<u64> = edges.iter().map(|&(s, d)| edge_key(s, d)).collect();
        self.pma.delete_batch(&keys);
    }

    /// [`Gpma::insert_edges`] behind the `gpma.update` fault point: an
    /// injected fault fails the call *before* any mutation, so the
    /// structure is untouched on `Err`. The DTDG store builds its batch
    /// rollback on this guarantee.
    pub fn try_insert_edges(
        &mut self,
        edges: &[(u32, u32)],
    ) -> Result<(), stgraph_faultline::FaultError> {
        stgraph_faultline::fault_point!("gpma.update")?;
        self.insert_edges(edges);
        Ok(())
    }

    /// [`Gpma::delete_edges`] behind the `gpma.update` fault point; same
    /// untouched-on-`Err` contract as [`Gpma::try_insert_edges`].
    pub fn try_delete_edges(
        &mut self,
        edges: &[(u32, u32)],
    ) -> Result<(), stgraph_faultline::FaultError> {
        stgraph_faultline::fault_point!("gpma.update")?;
        self.delete_edges(edges);
        Ok(())
    }

    /// Lists edges in sorted order (tests / snapshot comparison).
    pub fn edges(&self) -> Vec<(u32, u32)> {
        self.pma.iter().map(key_edge).collect()
    }

    /// True if the edge is present.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.pma.contains(edge_key(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    #[test]
    fn key_packing_roundtrip() {
        assert_eq!(key_edge(edge_key(3, 9)), (3, 9));
        assert_eq!(key_edge(edge_key(0, 0)), (0, 0));
        assert_eq!(key_edge(edge_key(u32::MAX - 1, 7)), (u32::MAX - 1, 7));
        // Keys order by src first, dst second.
        assert!(edge_key(1, 9) < edge_key(2, 0));
        assert!(edge_key(1, 3) < edge_key(1, 4));
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut g = Gpma::new(5);
        g.insert_edges(&[(0, 1), (2, 3), (1, 4)]);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(2, 3));
        g.delete_edges(&[(2, 3), (4, 4)]);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(2, 3));
        assert_eq!(g.edges(), vec![(0, 1), (1, 4)]);
    }

    #[test]
    fn batches_keep_the_sorted_edge_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 40u32;
        let mut g = Gpma::new(n as usize);
        let mut set = BTreeSet::new();
        for _ in 0..5 {
            let batch: Vec<(u32, u32)> = (0..300)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            g.insert_edges(&batch);
            set.extend(batch);
            g.pma().check_invariants();
        }
        assert_eq!(g.edges(), set.into_iter().collect::<Vec<_>>());
    }

    fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the slot layout — capacity, segment length and every key slot,
    /// gaps included — after each of 40 seeded insert/delete batches that
    /// grow and then shrink the array. Spread positions and rebalance
    /// decisions depend only on key order and counts, so any change to
    /// what a slot carries must leave this hash alone.
    #[test]
    fn slot_layout_is_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        let n = 96u32;
        let mut g = Gpma::new(n as usize);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let (mut grew, mut shrank) = (false, false);
        for round in 0..40 {
            let cap = g.pma().capacity();
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(1..400))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            // Inserts dominate the first half, deletes the second.
            if rng.gen_bool(if round < 20 { 0.8 } else { 0.15 }) {
                g.insert_edges(&edges);
            } else {
                let mut dels = g.edges();
                dels.retain(|_| rng.gen_bool(0.4));
                dels.extend(edges);
                g.delete_edges(&dels);
            }
            g.pma().check_invariants();
            grew |= g.pma().capacity() > cap;
            shrank |= g.pma().capacity() < cap;
            let pma = g.pma();
            h = fnv1a(h, [pma.capacity() as u64, pma.segment_len() as u64]);
            h = fnv1a(h, pma.key_slots().iter().copied());
        }
        assert!(grew && shrank, "the run must grow and shrink the array");
        assert_eq!(h, 0x5f17_74bf_2ada_c6d6);
    }
}
