//! # stgraph
//!
//! A framework for Temporal Graph Neural Networks — a Rust reproduction of
//! *STGraph* (Cherian et al., IPDPS 2024).
//!
//! STGraph extends Seastar's vertex-centric programming model to temporal
//! graphs. The pieces map to the paper as follows:
//!
//! * [`backend`] — the backend interface + factory (§VI.1): fused Seastar
//!   kernels or an unfused reference interpreter.
//! * [`stacks`] — the **State Stack** and **Graph Stack** (§V.A.2, §V.B).
//! * [`executor`] — the temporally-aware executor orchestrating snapshots,
//!   stacks and kernels across forward/backward passes (Algorithm 1).
//! * [`layers`] — vertex-centric GNN layers (GCN, GAT, ChebConv).
//! * [`tgnn`] — temporal models assembled from them (TGCN, GConvGRU,
//!   GConvLSTM, A3TGCN), following PyG-T's design pattern (§V.A.1).
//! * [`train`] — Algorithm-1 training loops for node regression
//!   (static-temporal graphs) and link prediction (DTDGs).
//!
//! ```
//! use stgraph::backend::create_backend;
//! use stgraph::executor::{GraphSource, TemporalExecutor};
//! use stgraph::tgnn::{RecurrentCell, Tgcn};
//! use stgraph_graph::base::Snapshot;
//! use stgraph_tensor::nn::ParamSet;
//! use stgraph_tensor::{Tape, Tensor};
//! use rand::SeedableRng;
//!
//! let snap = Snapshot::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
//! let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut params = ParamSet::new();
//! let cell = Tgcn::new(&mut params, "tgcn", 4, 8, &mut rng);
//! let tape = Tape::new();
//! let x = tape.constant(Tensor::zeros((3, 4)));
//! let h = cell.step(&tape, &exec, 0, &x, None);
//! assert_eq!(h.value().shape(), stgraph_tensor::Shape::Mat(3, 8));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod executor;
pub mod layers;
pub mod metrics;
pub mod stacks;
pub mod tgnn;
pub mod tgnn_ext;
pub mod train;

pub use backend::{create_backend, AggregationBackend};
pub use executor::{compile, CompiledProgram, GraphSource, TemporalExecutor};
pub use layers::{ChebConv, GatConv, GcnConv, GcnPropagate, SharedPropagate};
pub use stacks::{GraphStack, StateStack};
pub use tgnn::{A3Tgcn, GConvGru, GConvLstm, RecurrentCell, Tgcn};
pub use tgnn_ext::{DConv, Dcrnn};
