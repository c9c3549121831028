//! # stgraph-tensor
//!
//! The deep-learning backend substrate for the STGraph reproduction: dense
//! `f32` tensors with rayon-parallel kernels, a reverse-mode autodiff tape
//! with custom-op extension points, dense NN layers, optimizers, and a
//! byte-accurate memory tracker standing in for GPU device-memory
//! measurement.
//!
//! In the paper, this role is played by PyTorch; STGraph is deliberately
//! *backend agnostic* and touches the backend only through a narrow
//! interface. The same is true here: the framework crates consume this crate
//! only through [`Tensor`], [`autograd::Tape`]/[`autograd::Var`] and
//! [`mem`] — see `stgraph::backend` for the interface itself.

#![warn(missing_docs)]

pub mod autograd;
pub mod mem;
pub mod nn;
pub mod optim;
pub mod pool;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use autograd::{Param, Tape, Var};
pub use nn::{StateDict, StateDictError, StateEntry};
pub use pool::PoolScope;
pub use shape::Shape;
pub use tensor::{par_min, Tensor};
