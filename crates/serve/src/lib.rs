//! `stgraph-serve` — streaming inference for trained temporal GNNs.
//!
//! Training (the rest of the workspace) optimises a model over a *fixed*
//! DTDG. This crate covers what happens after: the model is frozen into a
//! checkpoint, the graph keeps changing, and queries arrive concurrently.
//! Three pieces:
//!
//! * [`checkpoint`] — the versioned, checksummed `.stgc` binary format plus
//!   a [`StateDict`](stgraph_tensor::StateDict) save/load pair usable with
//!   every model in `stgraph` and `pygt-baseline`;
//! * [`ingest`] — [`LiveGraph`](ingest::LiveGraph), a GPMA-backed graph
//!   advanced by [`UpdateBatch`](stgraph_dyngraph::UpdateBatch) diffs under
//!   a generation guard (readers never see a half-applied batch);
//! * [`engine`] — the query engine: one recurrent step per graph
//!   generation and per resident model (queries carry a [`ModelKey`]),
//!   memoised, and every read answered from that memo as soon as the
//!   engine thread wakes, with latency percentiles and pool/memory stats
//!   in [`stats`];
//! * [`host`] — [`EngineHost`], which spawns the engine on its own thread
//!   (cells are `!Send`) behind a shared [`RequestQueue`], the submit
//!   boundary the network tier (`stgraph-net`) feeds;
//! * [`online`] — [`OnlineTrainer`](online::OnlineTrainer), the
//!   train-while-serving loop: incremental gradient steps on freshly
//!   ingested edges from a bounded time-indexed replay buffer, with weight
//!   generations published atomically and Adam state checkpointed
//!   crash-consistently;
//! * [`zoo`] — [`build_cell`], the architecture-name → cell constructor
//!   shared by the binaries and the per-tenant model registry;
//! * [`oracle`] — [`direct_chain`](oracle::direct_chain), the unbatched
//!   replay every served answer is checked against bitwise (`serve
//!   --verify` and the serving test suites).
//!
//! The `serve` binary wires them together: load an `.stgc` checkpoint,
//! replay a dataset's update stream, answer queries, print the report.
//! The network edge — HTTP + binary protocols, tenants, admission — lives
//! in the `stgraph-net` crate on top of this one.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod host;
pub mod ingest;
pub mod manager;
pub mod online;
pub mod oracle;
pub mod stats;
pub mod zoo;

pub use checkpoint::{load_checkpoint, load_into, save_checkpoint, save_model, CheckpointError};
pub use engine::{
    InferenceEngine, ModelKey, ModelProvider, QueryResponse, RequestQueue, ServeConfig, ServeError,
    Ticket, DEFAULT_MODEL,
};
pub use host::EngineHost;
pub use ingest::{IngestError, IngestStats, LiveGraph};
pub use manager::CheckpointManager;
pub use online::{
    OnlineConfig, OnlineError, OnlineGauges, OnlineStats, OnlineTrainer, PublishedWeights,
    ReplayBuffer,
};
pub use stats::{LatencyRecorder, ServeReport};
pub use zoo::build_cell;
