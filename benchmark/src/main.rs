//! `stbench` — the repository's one gated benchmark.
//!
//! ```text
//! stbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
//! stbench [--seed N] [--seconds S] [--trace 0|1] [--aa]               every workload, one child process each
//! ```
//!
//! A single-workload run prints its metrics by name with units and ends
//! with one JSON object on the last line of stdout (the contract in
//! README.md). See README.md for what each workload and metric is for.

mod harness;
mod metrics;
mod probes;
mod stats;
mod suite;
mod trace;
mod training;
mod workloads;

use harness::{Args, Report};
use trace::Tracer;

/// `/BENCHMARK.json`, compiled in so the binary and the manifest the
/// driver reads cannot drift apart (bounds for `--aa`, default window).
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Worker threads of the product's parallel kernels, pinned so a caller's
/// shell cannot change a number. One, not the two the issue proposed: the
/// vendored rayon stand-in spawns a scoped thread per parallel call, and on
/// the 2-vCPU reference box two threads made every training op 1.3–1.6×
/// slower and the serving tail four times less steady from run to run
/// (CALIBRATION.md, "Two kernel threads"). One thread is also what
/// ROADMAP item 4 gates on ("this box is 1 core"), and it keeps
/// `reverse_csr` — whose parallel form fills rows in scheduling order —
/// deterministic, which the bitwise oracles rely on.
const THREADS: &str = "1";

/// Everything the command line can say.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--aa]",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let manifest: serde_json::Value =
        serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: manifest["run_seconds"].as_f64().expect("run_seconds"),
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--aa" => cli.aa = true,
            _ => usage(),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        usage();
    }
    if let Some(w) = &cli.workload {
        if !metrics::WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    cli
}

/// Removes every product knob from the environment and pins the thread
/// count. Runs first, while the process is still single-threaded.
fn pin_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STGRAPH_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("RAYON_NUM_THREADS", THREADS);
}

/// The commit the run measured; `unknown` outside a git checkout (the
/// driver's).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_metric(name: &str, unit: &str, value: f64) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// Prints the report and returns the process exit code.
fn emit(cli: &Cli, workload: &str, mut report: Report, tracer: &Tracer) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "stbench {workload}: seed={} seconds={} trace={} threads={THREADS} nproc={nproc} git_rev={}",
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        git_rev()
    );
    for n in &report.notes {
        println!("  {n}");
    }
    let e = report.end_to_end(!cli.trace);
    let whole = report.pooled();
    let (attempted, failed) = report.counts();
    let beyond = stats::samples_beyond(e.ops, report.tail);
    let setups: Vec<String> = report
        .passes
        .iter()
        .map(|p| format!("{:.4}", p.setup_s))
        .collect();
    let which = if cli.trace { " (traced window)" } else { "" };
    println!(
        "  end to end{which}: {} ops in each of {} passes, per op the fastest pass ({:.3} s of {:.3} s measured):",
        e.ops,
        report.passes.len(),
        e.wall_s,
        whole.wall_s
    );
    println!(
        "    setup_s      {:>14.4} s    median of {} set-ups: {}",
        e.setup_s,
        setups.len(),
        setups.join(" ")
    );
    println!(
        "    op_ms_p50    {:>14.4} ms   n={} (all {} ops as they ran: {:.4})",
        e.op_ms_p50,
        e.ops,
        whole.ops.len(),
        whole.p50()
    );
    println!(
        "    op_ms_tail   {:>14.4} ms   p{} n={}, {beyond} beyond (as they ran: {:.4})",
        e.op_ms_tail,
        report.tail.get(),
        e.ops,
        stats::percentile(&stats::sorted(&whole.latencies()), report.tail).unwrap_or(f64::NAN)
    );
    println!(
        "    work_per_s   {:>14.2} 1/s  {} (as they ran: {:.2})",
        e.work_per_s,
        report.work_unit,
        whole.work() as f64 / whole.wall_s
    );
    println!("    peak_mem_mb  {:>14.4} MB", e.peak_mem_mb);
    println!("    ops_attempted {attempted} ops_failed {failed}");

    let mut fields = Vec::new();
    if cli.trace {
        println!("  per layer:");
        for (name, unit, _) in metrics::PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            println!("    {name:<34} {v:>16.4} {unit}");
            if !v.is_finite() {
                report.errors.push(format!("{name} is not finite"));
            }
            fields.push(json_metric(name, unit, if v.is_finite() { v } else { 0.0 }));
        }
        let path = std::path::Path::new(harness::OUT_DIR).join(format!("{workload}.trace.json"));
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(err) => report
                .errors
                .push(format!("writing {}: {err}", path.display())),
        }
    } else {
        let values = [
            e.setup_s,
            e.op_ms_p50,
            e.op_ms_tail,
            e.work_per_s,
            e.peak_mem_mb,
        ];
        for ((name, unit, _), v) in metrics::END_TO_END.iter().zip(values) {
            if !(v.is_finite() && v > 0.0) {
                report
                    .errors
                    .push(format!("{name} = {v} is not a positive number"));
            }
            fields.push(json_metric(name, unit, if v.is_finite() { v } else { 0.0 }));
        }
    }
    if failed > 0 {
        report.errors.push(format!("{failed} ops failed"));
    }
    for err in &report.errors {
        println!("  ERROR: {err}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    );
    i32::from(!correct)
}

fn main() {
    pin_environment();
    let cli = parse_cli();
    let code = match &cli.workload {
        None => suite::run(&cli),
        Some(workload) => {
            let args = Args {
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
            };
            let tracer = Tracer::new();
            let report = workloads::run(workload, &args, &tracer);
            emit(&cli, workload, report, &tracer)
        }
    };
    std::process::exit(code);
}
