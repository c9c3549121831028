//! # stgraph-graph
//!
//! Graph storage for the STGraph reproduction: dense CSR / reverse-CSR arrays
//! with shared edge labels, the parallel reverse-CSR kernel
//! (paper Algorithm 3), and the `STGraphBase` abstraction with its static
//! subclass (Figure 4). Kernels walk CSR rows in natural vertex order; the
//! degree-sorted order of Figure 3 is not kept (DESIGN.md, "Figure 3's
//! degree order").

#![warn(missing_docs)]

pub mod base;
pub mod csr;

pub use base::{dense_adjacency, gcn_norm, STGraphBase, Snapshot, StaticGraph};
pub use csr::{reverse_csr, reverse_csr_sequential, same_rows, Csr};
