//! # stgraph-pma
//!
//! The GPMA substrate (Sha et al., VLDB'17) STGraph builds DTDG snapshots
//! from: a density-bounded Packed Memory Array with batch insert/delete,
//! specialised to graph adjacency (edge keys, fault-gated batch updates).

#![warn(missing_docs)]

pub mod gpma;
pub mod pma;

pub use gpma::{edge_key, key_edge, Gpma};
pub use pma::{Pma, EMPTY};
