//! The metric names, units and directions — one table, mirrored by
//! `/BENCHMARK.json` (a unit test keeps the two in step).

/// `(name, unit, better)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_mem_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. The crate name is the
/// prefix. A traced run prints every name; a layer the workload does not
/// exercise reads 0 (that *is* the "bypasses this layer" observation).
///
/// Training workloads report times as mean milliseconds **per op** (all
/// calls inside one op summed), so a layer's share of `op_ms_p50` can be
/// read off directly; `*_calls_per_op` says how many calls that is.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("seastar.exec_fwd_ms", "ms", "lower"),
    ("seastar.exec_bwd_ms", "ms", "lower"),
    ("seastar.exec_calls_per_op", "count", "lower"),
    ("seastar.edges_per_s", "1/s", "higher"),
    ("dyngraph.get_graph_ms", "ms", "lower"),
    ("dyngraph.get_backward_graph_ms", "ms", "lower"),
    ("dyngraph.calls_per_op", "count", "lower"),
    ("dyngraph.update_ms", "ms", "lower"),
    ("dyngraph.update_edges_per_s", "1/s", "higher"),
    ("pma.replay_update_edges_per_s", "1/s", "higher"),
    ("core.forward_ms", "ms", "lower"),
    ("core.forward_self_ms", "ms", "lower"),
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.backward_self_ms", "ms", "lower"),
    ("tensor.optim_step_ms", "ms", "lower"),
    ("tensor.allocs_per_op", "count", "lower"),
    ("tensor.pool_hit_ratio", "ratio", "higher"),
    ("ctdg.sample_us_per_query", "us", "lower"),
    ("ctdg.sample_valid_ratio", "ratio", "higher"),
    ("ctdg.memory_update_ms_per_batch", "ms", "lower"),
    ("ctdg.memory_commit_ms_per_batch", "ms", "lower"),
    ("ctdg.tcsr_ingest_events_per_s", "1/s", "higher"),
    ("ctdg.replay_share", "ratio", "lower"),
    ("serve.submit_wait_ms_p50", "ms", "lower"),
    ("serve.step_ms", "ms", "lower"),
    ("serve.ingest_apply_ms", "ms", "lower"),
    ("serve.snapshot_ms", "ms", "lower"),
    ("serve.ingest_edges_per_s", "1/s", "higher"),
    ("serve.mean_batch_size", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.forwards", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.checkpoint_load_ms", "ms", "lower"),
    ("net.wire_codec_us", "us", "lower"),
    ("net.admit_us", "us", "lower"),
    ("net.ingest_ack_ms", "ms", "lower"),
    ("net.overhead_us", "us", "lower"),
    ("datasets.load_ms", "ms", "lower"),
    ("graph.snapshot_build_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.layer_sum_ratio", "ratio", "higher"),
    ("bench.little_ratio", "ratio", "lower"),
    ("bench.rss_peak_mb", "MB", "lower"),
];

/// Workload names, in suite order.
pub const WORKLOADS: [&str; 4] = ["static_train", "dtdg_train", "ctdg_train", "serve_mixed"];

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn triples(v: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        v[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn own(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        assert_eq!(triples(&m, "end_to_end"), own(&END_TO_END));
        assert_eq!(triples(&m, "per_layer"), own(&PER_LAYER));
        let names: Vec<&str> = m["workloads"]
            .as_array()
            .expect("workloads is a list")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn bounds_respect_the_contract() {
        let m = manifest();
        let mut largest = ("", 0.0);
        for e in m["end_to_end"].as_array().expect("end_to_end is a list") {
            let (name, bound) = (e["name"].as_str().unwrap(), e["bound"].as_f64().unwrap());
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            if bound >= largest.1 {
                largest = (name, bound);
            }
        }
        let setup = m["end_to_end"][0]["bound"].as_f64().unwrap();
        assert_eq!(setup, largest.1, "setup_s carries the largest bound");
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|t| t.0)
            .chain(WORKLOADS)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
