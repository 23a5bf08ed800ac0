//! The repository benchmark: end-to-end and per-layer timing of the MMT
//! simulator on three workloads, with an output check in the same run.
//!
//! ```text
//! cargo run --release --manifest-path mmtbench/Cargo.toml -- \
//!     --workload fig5|sampled|functional --seed N --seconds S --trace 0|1
//! ```
//!
//! A run prepares its references (untimed), then repeats passes over
//! the workload's jobs until `--seconds` have elapsed. Each pass times
//! its set-up (input generation, executor construction) apart from its
//! timed section; the reported times are medians over passes. Jobs run
//! one after another on one thread: a closed loop with one client.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced passes with traced ones, in which every call into a layer
//! is timed and the pipeline's stage profiler is on, and prints the
//! per-layer metrics plus the tracing overhead. The last line of
//! standard output is the JSON result; see README.md.

mod check;
mod expected;
mod fig5;
mod functional;
mod metrics;
mod sampled;

use check::Checker;
use metrics::{derived, median, ratio, Layers, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one pass over a workload's jobs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds generating inputs and constructing executors.
    pub setup_s: f64,
    /// Host seconds in the timed section (the jobs themselves).
    pub wall_s: f64,
    /// Simulated architectural instructions completed.
    pub insts: u64,
    /// Per-layer seconds and counts.
    pub layers: Layers,
}

/// One benchmark workload.
pub trait Workload {
    /// Run every job once, checking each job's outputs into `check`.
    /// A traced pass also times every call into each layer.
    fn pass(&mut self, traced: bool, check: &mut Checker) -> Pass;
    /// Deterministic results that exist on this workload only, named
    /// as in `PER_LAYER`.
    fn results(&self) -> Vec<(&'static str, f64)>;
    /// Layers whose seconds make up a pass's timed section.
    fn top_layers(&self) -> &'static [&'static str];
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    if !["fig5", "sampled", "functional"].contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let num = |key: &str, default: &str| -> Result<f64, String> {
        value(key)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{key}: {e}"))
    };
    let seed = value("--seed")
        .map_or(Ok(expected::DEFAULT_SEED), str::parse::<u64>)
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds", "10")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        record: argv.iter().any(|a| a == "--record"),
    })
}

/// Build a workload and its untimed references.
fn open(workload: &str, seed: u64, check: &mut Checker) -> Box<dyn Workload> {
    match workload {
        "fig5" => Box::new(fig5::Fig5::prepare(seed)),
        "sampled" => Box::new(sampled::Sampled::prepare(seed, check)),
        _ => Box::new(functional::Functional::new(seed)),
    }
}

/// Pin glibc's allocator policy for the whole run.
///
/// By default glibc moves its mmap threshold with the history of frees
/// and trims the top of the heap, so whether a multi-megabyte buffer (a
/// memory image copied at every sampled handoff, an interpreter trace)
/// is a fresh mapping that page-faults on first touch or reused heap
/// depends on the seed and on what ran before. That alone moved
/// `sampled` passes between 3 and 5 s from one seed to the next. A fixed
/// threshold at glibc's own dynamic ceiling (32 MiB on 64-bit) and no
/// trimming keep every pass on the reused-heap path.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_policy() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, c_int::MAX)] {
        // SAFETY: `mallopt` takes two integers by value and only adjusts
        // glibc's malloc parameters under its own lock; it returns 0 for
        // a value it rejects, which is reported below.
        if unsafe { mallopt(param, value) } == 0 {
            eprintln!("mmtbench: mallopt({param}, {value}) was rejected");
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_policy() {}

fn main() -> ExitCode {
    pin_allocator_policy();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmtbench: {e}");
            eprintln!(
                "usage: mmtbench --workload fig5|sampled|functional [--seed N] [--seconds S] \
                 [--trace 0|1] [--record]\n\
                 outputs are recorded at seed {}; seed {} is the held-out check seed",
                expected::DEFAULT_SEED,
                expected::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let expected = (args.seed == expected::DEFAULT_SEED && !args.record)
        .then(|| expected::table(&args.workload));
    let mut check = Checker::new(expected);

    let prep = Instant::now();
    let mut workload = open(&args.workload, args.seed, &mut check);
    eprintln!(
        "mmtbench: {} seed {}: references ready in {:.2} s",
        args.workload,
        args.seed,
        prep.elapsed().as_secs_f64()
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    loop {
        plain.push(workload.pass(false, &mut check));
        // Read after the first pass: later passes can only add allocator
        // fragmentation, and how many of them fit depends on host speed.
        peak_rss_mb.get_or_insert_with(metrics::peak_rss_mb);
        if args.trace {
            traced.push(workload.pass(true, &mut check));
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let walls = |passes: &[Pass]| -> Vec<String> {
        passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect()
    };
    eprintln!("mmtbench: pass wall_s {:?}", walls(&plain));
    if args.trace {
        eprintln!("mmtbench: traced pass wall_s {:?}", walls(&traced));
    }
    for m in &check.messages {
        eprintln!("mmtbench: FAILED {m}");
    }
    if args.record {
        println!("{}", expected::render(&args.workload, &check.seen));
    }

    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let wall = per_pass(&plain, &|p| p.wall_s);
    let e2e = END_TO_END.iter().map(|&(name, _)| {
        let v = match name {
            "setup_s" => per_pass(&plain, &|p| p.setup_s),
            "wall_s" => wall,
            "sim_minst_per_s" => per_pass(&plain, &|p| ratio(p.insts as f64, p.wall_s) / 1e6),
            "peak_rss_mb" => peak_rss_mb.expect("at least one pass ran"),
            _ => unreachable!("end-to-end metric {name} has no measurement"),
        };
        (name, v)
    });
    let only = workload.results();
    println!(
        "workload {} seed {}: {} passes{}, {} jobs checked, {} failed",
        args.workload,
        args.seed,
        plain.len(),
        if args.trace {
            format!(" + {} traced", traced.len())
        } else {
            String::new()
        },
        check.attempted,
        check.failed
    );
    let cycles_per_s = per_pass(&plain, &|p| {
        ratio(p.layers.get("pipeline.cycles"), p.wall_s)
    });
    if cycles_per_s > 0.0 {
        println!(
            "  {:<26} {:>12.4} kcycles/s",
            "sim_kcycles_per_s",
            cycles_per_s / 1e3
        );
    }
    for (name, v) in &only {
        let paper = match *name {
            "fxr_speedup_2t" => format!("  paper 1.15, error {:+.1}%", (v / 1.15 - 1.0) * 100.0),
            "fxr_speedup_4t" => format!("  paper 1.25, error {:+.1}%", (v / 1.25 - 1.0) * 100.0),
            _ => String::new(),
        };
        println!("  {name:<26} {v:>12.4} {}{paper}", metrics::unit_of(name));
    }

    let printed: Vec<(&str, f64)> = if args.trace {
        let top = workload.top_layers();
        let traced_wall = per_pass(&traced, &|p| p.wall_s);
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let result = only.iter().find(|(o, _)| *o == name);
                let v = match (name, result) {
                    ("trace_overhead", _) => traced_wall / wall - 1.0,
                    ("trace.coverage", _) => {
                        per_pass(&traced, &|p| ratio(p.layers.sum(top), p.wall_s))
                    }
                    (_, Some(&(_, v))) => v,
                    _ => per_pass(&traced, &|p| derived(&p.layers, name)),
                };
                (name, v)
            })
            .collect()
    } else {
        e2e.collect()
    };
    for (name, v) in &printed {
        println!("  {name:<26} {v:>14.6} {}", metrics::unit_of(name));
    }
    println!(
        "{}",
        metrics::result_line(check.attempted.max(1), check.failed, &printed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_pass(workload: &str, seed: u64, check: &mut Checker) -> Pass {
        open(workload, seed, check).pass(false, check)
    }

    #[test]
    fn held_out_seed_passes_the_output_check() {
        for workload in ["fig5", "sampled", "functional"] {
            let mut check = Checker::new(None);
            let pass = one_pass(workload, expected::HELD_OUT_SEED, &mut check);
            assert!(
                check.attempted > 0 && pass.insts > 0,
                "{workload} ran nothing"
            );
            assert_eq!(check.failed, 0, "{workload}: {:?}", check.messages);
        }
    }

    #[test]
    fn a_wrong_recorded_digest_fails_exactly_its_job() {
        let mut check = Checker::new(Some(expected::FUNCTIONAL));
        one_pass("functional", expected::DEFAULT_SEED, &mut check);
        assert_eq!(check.failed, 0, "{:?}", check.messages);

        let mut table = expected::FUNCTIONAL.to_vec();
        table[4].1 ^= 1;
        let mut check = Checker::new(Some(Box::leak(table.into_boxed_slice())));
        one_pass("functional", expected::DEFAULT_SEED, &mut check);
        assert_eq!(check.failed, 1);
        assert!(check.messages[0].starts_with(expected::FUNCTIONAL[4].0));
    }

    #[test]
    fn traced_layers_account_for_the_timed_section() {
        let mut check = Checker::new(None);
        let mut w = functional::Functional::new(expected::HELD_OUT_SEED);
        let pass = w.pass(true, &mut check);
        let covered = pass.layers.sum(w.top_layers()) / pass.wall_s;
        assert!(covered > 0.9 && covered <= 1.0, "layers cover {covered}");
        for name in PER_LAYER.iter().map(|m| m.0) {
            assert!(derived(&pass.layers, name).is_finite(), "{name}");
        }
    }
}
