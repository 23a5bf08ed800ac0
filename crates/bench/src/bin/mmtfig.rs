//! `mmtfig <figure>`: regenerate one table or figure of the paper's
//! evaluation (Section 6), or one ablation beyond it, from the table in
//! `mmt_bench::figures`.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin mmtfig -- fig5 --threads 2 --jobs 8
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--threads N` | 2 | hardware threads (1–4; Figures 1, 2 and 6 fix their own) |
//! | `--scale N` | 1 | workload size divisor |
//! | `--jobs N` | cores | rows computed in parallel |
//! | `--deadline-secs S` | none | per-row wall-clock deadline |
//! | `--resume-dir DIR` | off | cache finished rows and checkpoint runs under DIR |
//! | `--trace-dir DIR` | off | write every run's pipeline trace under DIR |
//!
//! The figure prints on stdout, byte-identical at any `--jobs`; per-run
//! telemetry lands in `results/BENCH_<bench>.json`. A row that fails
//! supervision prints as `[kind: message]` and is recorded in the BENCH
//! report; the figure then exits 1. Usage errors exit 2.

use mmt_bench::cli::fail_usage;
use mmt_bench::figures::{run_figure, Options, FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map_or("", String::as_str);
    let Some(fig) = FIGURES.iter().find(|f| f.name == name) else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        fail_usage(
            false,
            format!(
                "unknown figure '{name}'; usage: mmtfig <figure> [flags], figures: {}",
                names.join(", ")
            ),
        );
    };
    let opts = Options::from_args(&args);
    let run = run_figure(fig, &opts);
    print!("{}", run.text);
    if opts.resume.is_some() {
        eprintln!(
            "resume: {} of {} app rows loaded from cache",
            run.cache_hits, run.rows
        );
    }
    let failed = run.report.failures.len();
    if failed > 0 {
        eprintln!("{failed} of {} apps failed supervision", run.rows);
    }
    if fig.bench.is_some() {
        match run.report.write() {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("warning: telemetry not written: {e}"),
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
