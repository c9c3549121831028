//! `paper` — regenerates the paper's evaluation (Table II, Figs. 5–9,
//! Table III) and asserts every exhibit's paper shape; see the help text
//! and `stgraph_bench::paper`.

use stgraph_bench::paper::{self, EXHIBITS};
use stgraph_datasets::cli;

const HELP: &str = "paper — regenerate the paper's evaluation and check its shapes

Prints Table II, Figs. 5-9 and Table III and asserts each exhibit's paper
shape; Table III is derived from the Fig. 5-8 rows, so asking for it runs
those too. Exits 1 on any shape violation or unwritable results file.

Options:
  --exhibit <name>  table2, fig5, fig6, fig7, fig8, fig9 or table3
                    (default: every exhibit, in one process)
  --quick           8 timestamps, 1 warm-up and 1 timed epoch, dynamic
                    datasets at 1/128 size; writes no JSON (default: the
                    recorded scale, which writes results/<exhibit>.json)
  --help            this text";

fn main() {
    let args = cli::parse_or_exit(HELP);
    let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    let selected = match args.get("exhibit") {
        None => names,
        Some(name) if names.contains(&name.as_str()) => vec![name.as_str()],
        Some(name) => {
            eprintln!("unknown exhibit '{name}' (try --help)");
            std::process::exit(2);
        }
    };
    let failures = paper::run(&selected, args.contains_key("quick"));
    if failures > 0 {
        eprintln!("paper: {failures} failure(s)");
        std::process::exit(1);
    }
}
