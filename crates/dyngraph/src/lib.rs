//! # stgraph-dyngraph
//!
//! Discrete-time dynamic graphs for STGraph: the common [`DtdgSource`]
//! (including the paper's windowed snapshot builder), the [`DtdgGraph`]
//! on-demand snapshot interface, and its implementations —
//! [`NaiveGraph`] (all snapshots precomputed, §V.C) and [`GpmaGraph`]
//! (base graph + temporal updates, §V.D; [`ShardedGraph`] is the same type
//! over K edge-cut shards). `GpmaGraph` and the serve tier's live ingest
//! both drive the one reverse-first PMA edge store, [`DtdgStore`],
//! partitioned by [`partition::Partition`].

#![warn(missing_docs)]

pub mod gpma_graph;
pub mod naive;
pub mod partition;
pub mod source;
pub mod store;

pub use gpma_graph::{GpmaGraph, ShardedGraph};
pub use naive::NaiveGraph;
pub use partition::Partition;
pub use source::{DtdgGraph, DtdgSource, UpdateBatch};
pub use store::{dense_forward_sum, DtdgStore};
