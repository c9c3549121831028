//! The four workloads. Names are final: later performance claims are
//! accepted or rejected on them.

mod ctdg_train;
mod dtdg_train;
mod serve_mixed;
mod static_train;

use crate::harness::{Args, Report};
use crate::trace::Tracer;

/// Runs the named workload in this process.
pub fn run(name: &str, args: &Args, tracer: &Tracer) -> Report {
    match name {
        "ctdg_train" => ctdg_train::run(args, tracer),
        "dtdg_train" => dtdg_train::run(args, tracer),
        "serve_mixed" => serve_mixed::run(args, tracer),
        "static_train" => static_train::run(args, tracer),
        other => unreachable!("workload '{other}' passed validation"),
    }
}
