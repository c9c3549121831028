//! CSR storage with shared edge labels, degree-sorted processing order and
//! the paper's parallel reverse-CSR kernel (Algorithm 3).
//!
//! Conventions follow §V.B of the paper:
//!
//! * the **CSR** stores *out*-neighbours and drives the backward pass;
//! * the **reverse CSR** stores *in*-neighbours and drives the forward pass;
//! * both carry the same **edge ids** (`eids`) so an edge's data is addressed
//!   identically in both passes;
//! * instead of relabelling vertices per snapshot, each CSR carries an
//!   auxiliary [`Csr::node_ids`] array listing vertices in descending degree
//!   order — the kernel processes vertices in that order so high-degree rows
//!   start early and overlap with many low-degree rows (Figure 3).
//!
//! Every CSR is dense: a row's slots are exactly its edges. (The paper's
//! GPMA kernels read gapped arrays in place; here the DTDG store builds
//! dense CSRs from its PMA's keys, so no consumer ever skips a gap.)

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use stgraph_tensor::mem::BytesCharge;

/// A compressed-sparse-row adjacency with edge labels.
pub struct Csr {
    /// `row_offset[i]..row_offset[i+1]` spans vertex `i`'s edges in
    /// `col_indices` and `eids`.
    pub row_offset: Vec<usize>,
    /// Neighbour vertex per edge.
    pub col_indices: Vec<u32>,
    /// Edge id per edge.
    pub eids: Vec<u32>,
    /// Vertices in descending order of degree: the kernel scheduling order.
    pub node_ids: Vec<u32>,
    charge: BytesCharge,
}

impl Csr {
    /// Assembles a CSR from raw arrays, computing `node_ids` and the charge.
    /// The rows must be dense: `row_offset` ends at `col_indices.len()`.
    pub fn from_parts(row_offset: Vec<usize>, col_indices: Vec<u32>, eids: Vec<u32>) -> Csr {
        assert_eq!(col_indices.len(), eids.len());
        assert_eq!(row_offset.last(), Some(&col_indices.len()));
        let degree: Vec<u32> = row_offset
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        let node_ids = degree_sorted_ids(&degree);
        let bytes = row_offset.len() * std::mem::size_of::<usize>()
            + col_indices.len() * std::mem::size_of::<u32>()
            + eids.len() * std::mem::size_of::<u32>()
            + node_ids.len() * std::mem::size_of::<u32>();
        Csr {
            row_offset,
            col_indices,
            eids,
            node_ids,
            charge: BytesCharge::new(bytes),
        }
    }

    /// Builds an out-neighbour CSR from a COO edge list, labelling edge `e`
    /// with id `e` (the canonical labelling shared with the reverse CSR).
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Csr {
        let mut degree = vec![0usize; num_nodes];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut row_offset = vec![0usize; num_nodes + 1];
        for i in 0..num_nodes {
            row_offset[i + 1] = row_offset[i] + degree[i];
        }
        let m = edges.len();
        let mut col_indices = vec![0u32; m];
        let mut eids = vec![0u32; m];
        let mut cursor = row_offset.clone();
        for (e, &(s, d)) in edges.iter().enumerate() {
            let slot = cursor[s as usize];
            cursor[s as usize] += 1;
            col_indices[slot] = d;
            eids[slot] = e as u32;
        }
        Csr::from_parts(row_offset, col_indices, eids)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.row_offset.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.row_offset[i + 1] - self.row_offset[i]
    }

    /// Iterates vertex `i`'s `(neighbour, eid)` pairs.
    pub fn iter_row(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let row = self.row_offset[i]..self.row_offset[i + 1];
        self.col_indices[row.clone()]
            .iter()
            .copied()
            .zip(self.eids[row].iter().copied())
    }

    /// Degrees of all vertices.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_nodes())
            .map(|i| self.degree(i) as u32)
            .collect()
    }

    /// Bytes charged against the memory tracker for this CSR.
    pub fn bytes(&self) -> usize {
        self.charge.bytes()
    }

    /// Collects `(src, dst, eid)` triples in row order (test/debug helper).
    pub fn triples(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for i in 0..self.num_nodes() {
            for (d, e) in self.iter_row(i) {
                out.push((i as u32, d, e));
            }
        }
        out
    }
}

/// Vertices sorted by descending degree (stable: ties keep id order). This is
/// the `node_ids` auxiliary array of Figure 3 — it avoids relabelling the CSR
/// per snapshot while still scheduling high-degree vertices first.
pub fn degree_sorted_ids(degree: &[u32]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..degree.len() as u32).collect();
    ids.sort_by(|&a, &b| degree[b as usize].cmp(&degree[a as usize]).then(a.cmp(&b)));
    ids
}

/// Parallel reverse-CSR construction — Algorithm 3 of the paper, with
/// `atomic_sub` claiming slots exactly as the CUDA kernel does.
///
/// Input: an out-neighbour CSR and the in-degree array.
/// Output: an in-neighbour CSR carrying the same edge ids, each row
/// holding its sources in descending `g`-slot order — what the claims
/// leave when one thread walks the rows in order. On more threads the
/// claims race, so each row is put back into that order after the scatter
/// and the result does not depend on scheduling.
pub fn reverse_csr(g: &Csr, in_degrees: &[u32]) -> Csr {
    let n = g.num_nodes();
    assert_eq!(in_degrees.len(), n);
    let m: usize = in_degrees.iter().map(|&d| d as usize).sum();
    debug_assert_eq!(m, g.num_edges(), "in-degrees inconsistent with CSR");
    let racing = m >= stgraph_tensor::par_min() && rayon::current_num_threads() > 1;

    // r_row_offset = inclusive prefix sum of in_degrees: slot *ends*.
    let mut ends = vec![0usize; n];
    let mut acc = 0usize;
    for i in 0..n {
        acc += in_degrees[i] as usize;
        ends[i] = acc;
    }
    let cursor: Vec<AtomicUsize> = ends.iter().map(|&e| AtomicUsize::new(e)).collect();

    let mut r_col = vec![0u32; m];
    // Sequential: the edge id. Racing: the edge's slot in `g`, the sort key
    // that restores the sequential order; exchanged for the edge id below.
    let mut r_eids = vec![0u32; m];
    {
        struct Shared(*mut u32, *mut u32);
        // SAFETY: the pointers are only used for the claimed-slot writes
        // below; both vectors outlive every use and are not otherwise
        // touched while `body` runs.
        unsafe impl Sync for Shared {}
        let shared = Shared(r_col.as_mut_ptr(), r_eids.as_mut_ptr());
        let body = |i: usize| {
            let shared = &shared;
            for slot in g.row_offset[i]..g.row_offset[i + 1] {
                let dst = g.col_indices[slot];
                // `loc = atomic_sub(r_row_offset[dst], 1)` then write at
                // loc-1 (the paper's pseudo-code returns the decremented
                // value; fetch_sub returns the previous one).
                let loc = cursor[dst as usize].fetch_sub(1, Ordering::Relaxed) - 1;
                // SAFETY: each `loc` in `0..m` is claimed exactly once via
                // fetch_sub (the in-degrees sum to `m`), so the writes are
                // in bounds and disjoint.
                unsafe {
                    *shared.0.add(loc) = i as u32;
                    *shared.1.add(loc) = if racing { slot as u32 } else { g.eids[slot] };
                }
            }
        };
        if racing {
            assert!(
                g.col_indices.len() <= u32::MAX as usize,
                "slot keys are u32"
            );
            (0..n).into_par_iter().for_each(body);
        } else {
            (0..n).for_each(body);
        }
    }

    // After all decrements each cursor holds the slot *start*; assemble the
    // standard (n+1)-length offsets.
    let mut r_row_offset = Vec::with_capacity(n + 1);
    for c in &cursor {
        r_row_offset.push(c.load(Ordering::Relaxed));
    }
    r_row_offset.push(m);
    if racing {
        // `g` slots ascend with the source vertex, so sorting a row's
        // sources and its slot keys separately keeps them paired.
        for v in 0..n {
            let row = r_row_offset[v]..r_row_offset[v + 1];
            r_col[row.clone()].sort_unstable_by(|a, b| b.cmp(a));
            r_eids[row].sort_unstable_by(|a, b| b.cmp(a));
        }
        for e in &mut r_eids {
            *e = g.eids[*e as usize];
        }
    }
    Csr::from_parts(r_row_offset, r_col, r_eids)
}

/// Sequential transpose used as the correctness oracle for [`reverse_csr`].
pub fn reverse_csr_sequential(g: &Csr, num_nodes: usize) -> Csr {
    let mut in_deg = vec![0usize; num_nodes];
    for i in 0..g.num_nodes() {
        for (d, _) in g.iter_row(i) {
            in_deg[d as usize] += 1;
        }
    }
    let mut row_offset = vec![0usize; num_nodes + 1];
    for i in 0..num_nodes {
        row_offset[i + 1] = row_offset[i] + in_deg[i];
    }
    let m = row_offset[num_nodes];
    let mut col = vec![0u32; m];
    let mut eids = vec![0u32; m];
    let mut cursor = row_offset.clone();
    for i in 0..g.num_nodes() {
        for (d, e) in g.iter_row(i) {
            let slot = cursor[d as usize];
            cursor[d as usize] += 1;
            col[slot] = i as u32;
            eids[slot] = e;
        }
    }
    Csr::from_parts(row_offset, col, eids)
}

/// Checks two CSRs describe the same labelled edge multiset per row
/// (slot order within a row is allowed to differ — the parallel kernel's
/// interleaving is nondeterministic).
pub fn same_rows(a: &Csr, b: &Csr) -> bool {
    if a.num_nodes() != b.num_nodes() {
        return false;
    }
    for i in 0..a.num_nodes() {
        let mut ra: Vec<_> = a.iter_row(i).collect();
        let mut rb: Vec<_> = b.iter_row(i).collect();
        ra.sort_unstable();
        rb.sort_unstable();
        if ra != rb {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The worked example of Figure 3: V2 has out-degree 3, V0 and V1 have 2,
    /// V3 has 0; node_ids must order them [2, 0, 1, 3].
    #[test]
    fn figure3_node_ids_order() {
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3)];
        let g = Csr::from_edges(4, &edges);
        assert_eq!(g.node_ids, vec![2, 0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn from_edges_roundtrips_triples() {
        let edges = [(0u32, 1u32), (2, 0), (1, 2), (0, 2)];
        let g = Csr::from_edges(3, &edges);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        let mut t = g.triples();
        t.sort_unstable();
        // Edge e keeps label e.
        assert_eq!(t, vec![(0, 1, 0), (0, 2, 3), (1, 2, 2), (2, 0, 1)]);
    }

    #[test]
    fn reverse_matches_sequential_small() {
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3)];
        let g = Csr::from_edges(4, &edges);
        let rev_par = reverse_csr(&g, &reverse_csr_sequential(&g, 4).degrees());
        let rev_seq = reverse_csr_sequential(&g, 4);
        assert!(same_rows(&rev_par, &rev_seq));
        // Shared labels: eid e appears exactly once in each CSR, linking the
        // same (src, dst).
        let fwd: std::collections::HashMap<u32, (u32, u32)> = g
            .triples()
            .into_iter()
            .map(|(s, d, e)| (e, (s, d)))
            .collect();
        for (d, s, e) in rev_par.triples() {
            assert_eq!(fwd[&e], (s, d), "edge {e} disagrees between CSRs");
        }
    }

    #[test]
    fn reverse_matches_sequential_random_large() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 500usize;
        let m = 20_000usize;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let g = Csr::from_edges(n, &edges);
        let seq = reverse_csr_sequential(&g, n);
        let par = reverse_csr(&g, &seq.degrees());
        assert!(same_rows(&par, &seq));
        assert_eq!(par.num_edges(), m);
    }

    /// The order is the one-thread Algorithm-3 fill — each row's edges in
    /// descending `g`-slot order — on any thread count: above `par_min()`
    /// edges and on >= 2 threads this runs the racing scatter.
    #[test]
    fn reverse_order_is_schedule_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (n, m) = (300usize, 3 * stgraph_tensor::par_min().max(4096));
        // Few vertices, many edges: long rows and repeated (src, dst) pairs.
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let g = Csr::from_edges(n, &edges);
        // The oracle fills each row in ascending g-slot order.
        let seq = reverse_csr_sequential(&g, n);
        let rev = reverse_csr(&g, &seq.degrees());
        assert_eq!(rev.row_offset, seq.row_offset);
        for v in 0..n {
            let row = seq.row_offset[v]..seq.row_offset[v + 1];
            let want_col: Vec<u32> = seq.col_indices[row.clone()].iter().rev().copied().collect();
            let want_eid: Vec<u32> = seq.eids[row.clone()].iter().rev().copied().collect();
            assert_eq!(
                rev.col_indices[row.clone()],
                want_col[..],
                "row {v} sources"
            );
            assert_eq!(rev.eids[row], want_eid[..], "row {v} edge ids");
        }
    }

    #[test]
    fn degree_sorted_ids_stable_on_ties() {
        assert_eq!(degree_sorted_ids(&[1, 3, 3, 0, 2]), vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(5, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.node_ids.len(), 5);
        let r = reverse_csr(&g, &[0; 5]);
        assert_eq!(r.num_edges(), 0);
    }

    #[test]
    fn bytes_accounts_all_arrays() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        // 4 offsets * 8 + (2 cols + 2 eids + 3 node_ids) * 4
        assert_eq!(g.bytes(), 4 * 8 + 7 * 4);
    }
}
