//! # stgraph-pma
//!
//! The GPMA substrate (Sha et al., VLDB'17) STGraph builds DTDG snapshots
//! from: a density-bounded Packed Memory Array of `u64` keys with batch
//! insert/delete, specialised to graph adjacency (one key per edge,
//! fault-gated batch updates).

#![warn(missing_docs)]

pub mod gpma;
pub mod pma;

pub use gpma::{edge_key, key_edge, Gpma};
pub use pma::{Pma, EMPTY};
