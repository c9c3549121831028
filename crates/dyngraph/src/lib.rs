//! # stgraph-dyngraph
//!
//! Discrete-time dynamic graphs for STGraph: the common [`DtdgSource`]
//! (including the paper's windowed snapshot builder), the [`DtdgGraph`]
//! on-demand snapshot interface, and its implementations —
//! [`NaiveGraph`] (all snapshots precomputed, §V.C) and [`GpmaGraph`]
//! (base graph + temporal updates, §V.D). `GpmaGraph` and the serve tier's
//! live ingest both drive the one reverse-first PMA edge store,
//! [`DtdgStore`].

#![warn(missing_docs)]

pub mod gpma_graph;
pub mod naive;
pub mod source;
pub mod store;

pub use gpma_graph::GpmaGraph;
pub use naive::NaiveGraph;
pub use source::{DtdgGraph, DtdgSource, UpdateBatch};
pub use store::DtdgStore;
