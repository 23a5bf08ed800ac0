//! # mmt-bench — the experiment harness
//!
//! `mmtfig <figure>` regenerates every table and figure of the paper's
//! evaluation (Section 6) plus the ablations beyond it, one entry each
//! in the [`figures`] table; see EXPERIMENTS.md at the repository root
//! for the paper-vs-measured record. The shared plumbing lives here:
//! building [`RunSpec`]s from workloads, running configurations, and
//! computing speedups.
//!
//! | binary | reproduces |
//! |---|---|
//! | `mmtfig fig1` | Figure 1 (+ Table 1 suite listing) |
//! | `mmtfig fig2` | Figure 2 |
//! | `mmtfig table3` | Table 3 |
//! | `mmtfig fig5` | Figures 5(a)/5(c) (`--threads 2|4`) |
//! | `mmtfig fig5b` | Figure 5(b) |
//! | `mmtfig fig5d` | Figure 5(d) + Section 6.3 remerge distances |
//! | `mmtfig fig6` | Figure 6 |
//! | `mmtfig fig7a`, `fig7b`, `fig7d` | Figures 7(a)/(c), 7(b), 7(d) |
//! | `mmtfig ablation-<study>` | design-choice studies beyond the paper (`sync`, `align`, `lvip`, `fetchstyle`, `prefetch`, `barrier`, `fetchpolicy`) |
//! | `mmtsim` | general-purpose CLI driver (any app/config, JSON output, `--asm` files) |
//! | `mmtlint` | static linter + merge classification over suite apps (`--format json`) |
//! | `mmtpredict` | static savings predictor vs. per-PC dynamic profile (differential gate) |
//! | `mmtmem` | static memory divergence/race analysis + LVIP brackets vs. dynamic addresses (differential gate) |
//! | `mmtvalue` | thread-parametric value-flow analysis + static RST model vs. per-PC exec-merge profile (differential gate) |
//! | `diag_app` | one-line per-level diagnostic for model/workload tuning |

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod gate;
pub mod ledger;
pub mod report;
pub mod retry;
pub mod sample;
pub mod sweep;

use mmt_sim::config::SyncPolicy;
use mmt_sim::{MmtLevel, RunSpec, SimConfig, SimResult, Simulator};
use mmt_workloads::{App, WorkloadInstance};

/// Iteration divisor for full experiment runs (1 = paper-sized for this
/// repository's synthetic kernels).
pub const FULL_SCALE: u64 = 1;
/// Divisor used by smoke tests.
pub const SMOKE_SCALE: u64 = 16;

/// Convert a workload instance into the simulator's run spec.
pub fn to_run_spec(w: WorkloadInstance) -> RunSpec {
    RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    }
}

/// Run one app at one configuration level.
///
/// # Panics
///
/// Panics on simulator errors: the harness runs statically-known-good
/// workloads, so any failure is a bug worth a loud stop.
pub fn run_app(app: &App, threads: usize, level: MmtLevel, scale: u64) -> SimResult {
    run_app_with(app, threads, level, scale, |_| {})
}

/// Run one app with a configuration tweak (sweeps).
///
/// # Panics
///
/// Panics on simulator errors (see [`run_app`]).
pub fn run_app_with(
    app: &App,
    threads: usize,
    level: MmtLevel,
    scale: u64,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimResult {
    simulator(app, threads, level, scale, Instance::Normal, tweak)
        .expect("valid config and spec")
        .run()
        .expect("workloads terminate")
}

/// Which workload instance of an app a run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instance {
    /// The app's own input ([`App::instance`]).
    Normal,
    /// The paper's *Limit* input: identical processes
    /// ([`App::limit_instance`]).
    Limit,
    /// The normal input under Thread Fusion-style software remerge
    /// hints (`SyncPolicy::SoftwareHints`, hints from the generator).
    Hinted,
    /// The normal input with a barrier every N outer iterations
    /// (0 = free-running); needs a shared-memory app.
    Barriered(u64),
}

/// Build the simulator for one app run at `level` with `tweak` applied
/// to the paper configuration. An invalid config or spec comes back as
/// a message naming the app.
pub fn simulator(
    app: &App,
    threads: usize,
    level: MmtLevel,
    scale: u64,
    instance: Instance,
    tweak: impl FnOnce(&mut SimConfig),
) -> Result<Simulator, String> {
    let mut cfg = SimConfig::paper_with(threads, level);
    tweak(&mut cfg);
    let w = match instance {
        Instance::Normal | Instance::Hinted => app.instance(threads, scale),
        Instance::Limit => app.limit_instance(threads, scale),
        Instance::Barriered(every) => {
            let mut barriered = app.clone();
            barriered.spec.barrier_every = every;
            barriered.instance(threads, scale)
        }
    };
    if instance == Instance::Hinted {
        cfg.sync_policy = SyncPolicy::SoftwareHints;
        cfg.remerge_hints = w.remerge_hints.clone();
    }
    Simulator::new(cfg, to_run_spec(w))
        .map_err(|e| format!("{}: invalid config/spec: {e}", app.name))
}

/// Run the paper's *Limit* configuration for an app (identical instances
/// on MMT-FXR hardware).
///
/// # Panics
///
/// Panics on simulator errors (see [`run_app`]).
pub fn run_limit(app: &App, threads: usize, scale: u64) -> SimResult {
    simulator(app, threads, MmtLevel::Fxr, scale, Instance::Limit, |_| {})
        .expect("valid config and spec")
        .run()
        .expect("workloads terminate")
}

/// Speedup of `test` over `base` by cycle count (same work on both
/// sides).
pub fn speedup(base: &SimResult, test: &SimResult) -> f64 {
    base.stats.cycles as f64 / test.stats.cycles.max(1) as f64
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Parse `--key value` style arguments (tiny, dependency-free).
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_workloads::app_by_name;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--threads", "4", "--scale", "16"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--threads").as_deref(), Some("4"));
        assert_eq!(arg_value(&args, "--scale").as_deref(), Some("16"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn smoke_run_and_speedup() {
        let app = app_by_name("swaptions").expect("known app");
        let base = run_app(&app, 2, MmtLevel::Base, SMOKE_SCALE);
        let fxr = run_app(&app, 2, MmtLevel::Fxr, SMOKE_SCALE);
        let s = speedup(&base, &fxr);
        assert!(s > 0.5 && s < 5.0, "speedup {s} out of sanity range");
        // Same architectural work either way.
        assert_eq!(base.final_regs, fxr.final_regs);
    }

    #[test]
    fn limit_run_is_heavily_merged() {
        let app = app_by_name("twolf").expect("known app");
        let lim = run_limit(&app, 2, SMOKE_SCALE);
        let id = &lim.stats.identity;
        assert!(
            (id.execute_identical + id.execute_identical_regmerge) as f64 / id.total() as f64 > 0.7,
            "limit should merge almost everything: {id:?}"
        );
    }
}
