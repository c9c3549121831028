//! Continuous-time dynamic graphs (CTDG) for the STGraph reproduction.
//!
//! The rest of the workspace models *discrete-time* dynamic graphs: a
//! sequence of snapshots, each a full graph. This crate adds the
//! *continuous-time* view — the graph **is** the stream: an append-only
//! log of timestamped edge events `(src, dst, t)`, never materialised as
//! snapshots. Three layers:
//!
//! * [`event`] / [`tcsr`] — the system of record ([`EventLog`]) and its
//!   T-CSR index ([`TCsr`]): one time-sorted row per node, so an in-order
//!   append is a push (no re-sort) and "history before t" is one binary
//!   search returning a slice of the row. Batch ingest is a
//!   [`stgraph_faultline`] site (`tcsr.append`) with exact-inverse
//!   rollback: a faulted batch is bitwise invisible.
//! * [`sampler`] — deterministic seeded temporal neighbor sampling
//!   (`recent` / `uniform`), parallel over the query batch and bitwise
//!   reproducible regardless of thread schedule.
//! * [`memory`] / [`workload`] — a TGN-style per-node memory module
//!   (GRU-flavored update + time-delta encoding, checkpointable through
//!   `.stgc`) and the end-to-end continuous-time link-prediction
//!   workload over the synthetic fraud-burst stream.

#![warn(missing_docs)]

pub mod event;
pub mod memory;
pub mod sampler;
pub mod tcsr;
pub mod workload;

pub use event::{CtdgStore, EventLog};
pub use memory::{TgnMemory, TgnMemoryConfig, TIME_ENC_DIM};
pub use sampler::{sample, NeighborSample, SamplerConfig, Strategy};
pub use tcsr::{Entry, TCsr};
pub use workload::{mean_neighbors, CtdgConfig, CtdgReport, CtdgWorkload, EpochStats};

use stgraph_faultline::FaultError;

/// Typed failure from CTDG ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtdgError {
    /// An injected fault fired at the `tcsr.append` site; the half-applied
    /// batch was rolled back and the index is bitwise unchanged.
    Fault(FaultError),
    /// An event's timestamp precedes the last ingested event's.
    NonMonotonic {
        /// Offending timestamp.
        t: u64,
        /// Timestamp of the last accepted event.
        last: u64,
    },
    /// `src == dst`.
    SelfLoop {
        /// The node.
        node: u32,
        /// The event's timestamp.
        t: u64,
    },
    /// An endpoint is outside the store's node range.
    NodeOutOfRange {
        /// Offending node id.
        node: u32,
        /// The store's node count.
        num_nodes: usize,
    },
}

impl std::fmt::Display for CtdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtdgError::Fault(e) => write!(f, "injected fault at {} (hit {})", e.site, e.hit),
            CtdgError::NonMonotonic { t, last } => {
                write!(f, "non-monotonic event time {t} after {last}")
            }
            CtdgError::SelfLoop { node, t } => write!(f, "self-loop on node {node} at t={t}"),
            CtdgError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (num_nodes = {num_nodes})")
            }
        }
    }
}

impl std::error::Error for CtdgError {}
