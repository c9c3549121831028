//! # stgraph-datasets
//!
//! Seeded synthetic generators reproducing the *shape* of the ten
//! benchmark datasets in the paper's Table II — five static-temporal
//! signal datasets (PyG-T's WikiMath, Windmill, Chickenpox, Montevideo,
//! PedalMe) and five dynamic (SNAP temporal networks). We have no network
//! access; what drives every figure is the datasets' node/edge counts,
//! density, temporal length and churn, all of which the generators match
//! (see DESIGN.md for the substitution argument).

#![warn(missing_docs)]

pub mod cli;
pub mod dynamic;
pub mod io;
pub mod static_temporal;
pub mod synth;

pub use dynamic::{load_dynamic, TemporalEdgeList};
pub use io::{read_signal_csv, read_snap_temporal, write_snap_temporal};
pub use static_temporal::{load_static, StaticTemporalDataset};
pub use synth::{
    community_stream, fraud_stream, EdgeStream, FraudConfig, FraudEvent, FraudStream, SynthConfig,
    TimedEdge, UpdateBatch, UpdateStream,
};

/// The one seeding convention every binary shares: an explicit `--seed`
/// flag wins, else the `STGRAPH_SEED` environment variable, else 42 — so a
/// CTDG run and a DTDG run are made reproducible the same way. Malformed
/// `STGRAPH_SEED` values are rejected loudly rather than silently ignored:
/// a typo'd seed that falls back to the default would *look* reproducible
/// while reproducing the wrong run.
pub fn resolve_seed(cli: Option<u64>) -> u64 {
    if let Some(s) = cli {
        return s;
    }
    match std::env::var("STGRAPH_SEED") {
        Ok(v) if !v.is_empty() => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid STGRAPH_SEED '{v}' (expected u64)");
            std::process::exit(2);
        }),
        _ => 42,
    }
}

/// Whether a dataset is static-temporal or a DTDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Fixed structure, time-varying signals (Definition II.1).
    StaticTemporal,
    /// Discrete-time dynamic graph (Definition II.2).
    Dynamic,
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Dataset name (also the loader key).
    pub name: &'static str,
    /// Short code used in the paper's plots (WVM, WO, ...).
    pub code: &'static str,
    /// Number of vertices.
    pub num_nodes: usize,
    /// Number of edges (static) or temporal edge events (dynamic).
    pub num_edges: usize,
    /// Static-temporal or dynamic.
    pub kind: GraphKind,
}

/// The Table II inventory (paper §VII). Edge counts are the paper's, with
/// the same "pruned to the first 2 million edges" treatment for
/// wiki-talk-temporal and sx-stackoverflow.
pub fn table2() -> Vec<DatasetInfo> {
    use GraphKind::*;
    vec![
        DatasetInfo {
            name: "wikivital-mathematics",
            code: "WVM",
            num_nodes: 1068,
            num_edges: 27_079,
            kind: StaticTemporal,
        },
        DatasetInfo {
            name: "windmill-output",
            code: "WO",
            num_nodes: 319,
            num_edges: 101_761,
            kind: StaticTemporal,
        },
        DatasetInfo {
            name: "hungary-chickenpox",
            code: "HC",
            num_nodes: 20,
            num_edges: 102,
            kind: StaticTemporal,
        },
        DatasetInfo {
            name: "montevideo-bus",
            code: "MB",
            num_nodes: 675,
            num_edges: 690,
            kind: StaticTemporal,
        },
        DatasetInfo {
            name: "pedal-me",
            code: "PM",
            num_nodes: 15,
            num_edges: 225,
            kind: StaticTemporal,
        },
        DatasetInfo {
            name: "wiki-talk-temporal",
            code: "WT",
            num_nodes: 120_000,
            num_edges: 2_000_000,
            kind: Dynamic,
        },
        DatasetInfo {
            name: "sx-superuser",
            code: "SU",
            num_nodes: 194_000,
            num_edges: 1_443_000,
            kind: Dynamic,
        },
        DatasetInfo {
            name: "sx-stackoverflow",
            code: "SO",
            num_nodes: 194_000,
            num_edges: 2_000_000,
            kind: Dynamic,
        },
        DatasetInfo {
            name: "sx-mathoverflow",
            code: "MO",
            num_nodes: 24_000,
            num_edges: 506_000,
            kind: Dynamic,
        },
        DatasetInfo {
            name: "reddit-title",
            code: "RT",
            num_nodes: 55_000,
            num_edges: 858_000,
            kind: Dynamic,
        },
    ]
}

/// Looks up a Table II entry by name or code.
pub fn info(name: &str) -> DatasetInfo {
    table2()
        .into_iter()
        .find(|d| d.name == name || d.code == name)
        .unwrap_or_else(|| panic!("unknown dataset '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_ten_rows_split_five_five() {
        let t = table2();
        assert_eq!(t.len(), 10);
        assert_eq!(
            t.iter()
                .filter(|d| d.kind == GraphKind::StaticTemporal)
                .count(),
            5
        );
        assert_eq!(t.iter().filter(|d| d.kind == GraphKind::Dynamic).count(), 5);
    }

    #[test]
    fn lookup_by_name_and_code() {
        assert_eq!(info("hungary-chickenpox").code, "HC");
        assert_eq!(info("WO").num_nodes, 319);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn lookup_unknown_panics() {
        info("imaginary");
    }
}
