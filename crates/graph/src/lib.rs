//! # stgraph-graph
//!
//! Graph storage for the STGraph reproduction: dense CSR / reverse-CSR arrays
//! with shared edge labels, the parallel reverse-CSR kernel
//! (paper Algorithm 3), the degree-sorted `node_ids` scheduling order
//! (Figure 3), and the `STGraphBase` abstraction with its static subclass
//! (Figure 4).

#![warn(missing_docs)]

pub mod base;
pub mod csr;

pub use base::{dense_adjacency, gcn_norm, STGraphBase, Snapshot, StaticGraph};
pub use csr::{degree_sorted_ids, reverse_csr, reverse_csr_sequential, same_rows, Csr};
