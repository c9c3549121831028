//! The whole suite: every workload in a fresh child process, one after
//! another (never two at once), and the A/A noise gate over two sets of
//! such suite runs.

use crate::{metrics, stats, Cli, MANIFEST};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// `metric → value` of one workload's run.
type Metrics = BTreeMap<String, f64>;

/// Runs one workload in a child process, echoes its output, and parses the
/// JSON on its last line. `None` if the child failed or reported
/// `correct: false`.
fn run_child(cli: &Cli, workload: &str) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output() // waits for the child to end
        .expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last()?;
    let v: serde_json::Value = serde_json::from_str(last).ok()?;
    if !out.status.success() || v["correct"].as_bool() != Some(true) {
        return None;
    }
    let table: &[(&str, &str, &str)] = if cli.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    table
        .iter()
        .map(|(name, _, _)| Some((name.to_string(), v["metrics"][*name]["value"].as_f64()?)))
        .collect()
}

/// `workload → metrics` of one run of the whole suite.
type SuiteRun = BTreeMap<&'static str, Metrics>;

/// Suite runs per A/A set. Each cell is the median of its set's runs, so
/// one disturbed run cannot own it.
const AA_RUNS_PER_SET: usize = 3;
/// Which set each suite run goes to: A B B A A B, so a noisy stretch of
/// minutes on a shared box lands on both and a steady drift cancels.
const AA_ORDER: [usize; 2 * AA_RUNS_PER_SET] = [0, 1, 1, 0, 0, 1];

/// Runs every workload once; `None` if any of them failed.
fn run_suite(cli: &Cli) -> Option<SuiteRun> {
    let start = std::time::Instant::now();
    let mut set = BTreeMap::new();
    let mut ok = true;
    for w in metrics::WORKLOADS {
        let t = std::time::Instant::now();
        match run_child(cli, w) {
            Some(m) => {
                set.insert(w, m);
            }
            None => ok = false,
        }
        println!("  [{w}: {:.1} s wall]\n", t.elapsed().as_secs_f64());
    }
    println!("[suite: {:.1} s wall]", start.elapsed().as_secs_f64());
    ok.then_some(set)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Compares two sets of suite runs of the same build, cell by cell (median
/// over the set's runs): any end-to-end metric × workload whose two values
/// differ by more than half its bound fails the gate.
fn aa_gate(a: &[SuiteRun], b: &[SuiteRun]) -> bool {
    let manifest: serde_json::Value =
        serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    let cell = |set: &[SuiteRun], w: &str, name: &str| {
        let values: Vec<f64> = set.iter().map(|run| run[w][name]).collect();
        stats::median(&values).expect("a set has runs")
    };
    let mut pass = true;
    println!(
        "\nA/A gate (medians of {AA_RUNS_PER_SET} interleaved runs per set; |difference| must stay within half the bound):"
    );
    println!(
        "  {:<13} {:<12} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "set 1", "set 2", "diff", "limit"
    );
    for (i, (name, _, better)) in metrics::END_TO_END.iter().enumerate() {
        let bound = manifest["end_to_end"][i]["bound"].as_f64().expect("bound");
        for w in metrics::WORKLOADS {
            let (x, y) = (cell(a, w, name), cell(b, w, name));
            let diff = worsening(x, y, better).abs();
            let verdict = if diff > bound / 2.0 {
                pass = false;
                "FAIL"
            } else {
                ""
            };
            println!(
                "  {w:<13} {name:<12} {x:>14.4} {y:>14.4} {:>7.2}% {:>7.2}% {verdict}",
                diff * 100.0,
                bound * 50.0
            );
        }
    }
    pass
}

/// Entry point of the suite modes; returns the process exit code.
pub fn run(cli: &Cli) -> i32 {
    if !cli.aa {
        return if run_suite(cli).is_some() { 0 } else { 1 };
    }
    if cli.trace {
        eprintln!("--aa compares end-to-end metrics; drop --trace 1");
        return 2;
    }
    let mut sets: [Vec<SuiteRun>; 2] = [Vec::new(), Vec::new()];
    for set in AA_ORDER {
        println!("[A/A: run {} of set {}]", sets[set].len() + 1, set + 1);
        let Some(run) = run_suite(cli) else {
            return 1;
        };
        sets[set].push(run);
    }
    if aa_gate(&sets[0], &sets[1]) {
        println!("A/A gate: PASS");
        0
    } else {
        println!("A/A gate: FAIL");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, "lower") < 0.0);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
    }
}
