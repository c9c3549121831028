//! Result reporting: aligned console tables (the figures' series, printed
//! as rows) and JSON dumps under the workspace's `results/`.

use crate::{RunResult, Series};
use serde::Serialize;
use std::path::Path;

/// A measurement of a row: epoch time, peak bytes, …
pub type Field = fn(&RunResult) -> f64;

/// The series every ratio is taken over.
const BASELINE: &str = Series::PygT.name();

/// One labelled measurement row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset code.
    pub dataset: String,
    /// Series label (framework / variant).
    pub series: String,
    /// Sweep variable value (feature size, sequence length, % change, ...).
    pub x: f64,
    /// The measurements.
    #[serde(flatten)]
    pub result: RunResult,
}

/// The `series` row at `(dataset, x)`, if any.
pub(crate) fn find<'a>(rows: &'a [Row], dataset: &str, x: f64, series: &str) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.series == series && r.dataset == dataset && r.x == x)
}

/// Prints `rows` of cells under `header`, each column as wide as its
/// widest cell: the first left-aligned, the rest right-aligned.
pub fn print_aligned(header: &[&str], rows: &[Vec<String>]) {
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut widths = vec![0; header.len()];
    for row in std::iter::once(&header).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.chars().count().max(*w);
        }
    }
    for row in std::iter::once(&header).chain(rows) {
        let mut cells = row.iter().zip(&widths);
        let line = cells.next().map(|(c, &w)| format!("{c:<w$}"));
        let rest = cells.map(|(c, &w)| format!("  {c:>w$}"));
        println!("{}", line.into_iter().chain(rest).collect::<String>());
    }
}

/// Prints a figure's rows with ratio columns over the PyG-T baseline;
/// `upd%` is the graph-update share of the epoch (Fig. 9). Losses print in
/// shortest round-trip form, so equal text is equal bits.
pub fn print_table(x_label: &str, rows: &[Row]) {
    let header = [
        "data",
        "series",
        x_label,
        "epoch_ms",
        "peak_MiB",
        "loss",
        "allocs",
        "hit%",
        "upd%",
        "speedup",
        "mem_ratio",
    ];
    let cells = |row: &Row| {
        let r = &row.result;
        let over_baseline = |f: Field| match find(rows, &row.dataset, row.x, BASELINE) {
            Some(b) if row.series != BASELINE => format!("{:.2}x", f(&b.result) / f(r)),
            _ => "-".to_string(),
        };
        vec![
            row.dataset.clone(),
            row.series.clone(),
            row.x.to_string(),
            format!("{:.2}", r.epoch_ms),
            format!("{:.2}", r.peak_bytes as f64 / (1024.0 * 1024.0)),
            r.final_loss.to_string(),
            r.allocs.to_string(),
            format!("{:.1}", r.pool_hit_rate * 100.0),
            format!("{:.1}", (1.0 - r.gnn_fraction) * 100.0),
            over_baseline(|r| r.epoch_ms),
            over_baseline(|r| r.peak_bytes as f64),
        ]
    };
    print_aligned(&header, &rows.iter().map(cells).collect::<Vec<_>>());
}

/// Max and mean of PyG-T's `field` over `series`'s at every point
/// where both ran (Table III's aggregation: speed-up for epoch time,
/// improvement for peak bytes).
pub fn summarize(rows: &[Row], series: &str, field: Field) -> (f64, f64) {
    let over =
        |r: &Row| Some(field(&find(rows, &r.dataset, r.x, BASELINE)?.result) / field(&r.result));
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.series == series)
        .filter_map(over)
        .collect();
    let max = ratios.iter().copied().fold(f64::NAN, f64::max);
    (max, ratios.iter().sum::<f64>() / ratios.len().max(1) as f64)
}

/// Writes `value` as pretty JSON to `results/<name>.json` at the workspace
/// root, wherever the binary is run from, and prints the path — or prints
/// why it could not and returns `false`.
pub fn write_json<T: Serialize + ?Sized>(name: &str, value: &T) -> bool {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("results");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("rows serialize") + "\n";
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    match &written {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => println!("FAIL: cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ds: &str, series: &str, x: f64, ms: f64, bytes: u64) -> Row {
        Row {
            dataset: ds.into(),
            series: series.into(),
            x,
            result: RunResult {
                epoch_ms: ms,
                peak_bytes: bytes,
                final_loss: 0.1,
                gnn_fraction: 1.0,
                allocs: 0,
                pool_hit_rate: 0.0,
            },
        }
    }

    #[test]
    fn summarize_computes_ratios() {
        let rows = vec![
            row("HC", "pygt", 8.0, 100.0, 2000),
            row("HC", "stgraph", 8.0, 50.0, 1000),
            row("HC", "pygt", 16.0, 100.0, 3000),
            row("HC", "stgraph", 16.0, 80.0, 1500),
        ];
        let (smax, savg) = summarize(&rows, "stgraph", |r| r.epoch_ms);
        let (mmax, mavg) = summarize(&rows, "stgraph", |r| r.peak_bytes as f64);
        assert!((smax - 2.0).abs() < 1e-9);
        assert!((savg - 1.625).abs() < 1e-9);
        assert!((mmax - 2.0).abs() < 1e-9);
        assert!((mavg - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_skips_unmatched_x() {
        let rows = vec![
            row("HC", "pygt", 8.0, 100.0, 1000),
            row("HC", "stgraph", 99.0, 50.0, 500),
        ];
        let (smax, savg) = summarize(&rows, "stgraph", |r| r.epoch_ms);
        assert!(smax.is_nan());
        assert!(savg == 0.0 || savg.is_nan());
    }
}
