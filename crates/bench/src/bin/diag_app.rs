//! Developer diagnostic: dump detailed statistics for one app across
//! all four MMT levels on one line each — the quickest way to see where
//! cycles, merges and misses go when tuning the model or a workload.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin diag_app -- --app twolf --threads 4
//! cargo run --release -p mmt-bench --bin diag_app -- --app equake --no-div 1
//! ```
//!
//! Combine with the engine's cycle tracer (`MMT_TRACE=start..end`) and
//! merge-hardware summary (`MMT_DEBUG_MERGE=1`) for deeper digging.

use mmt_bench::cli::scale_arg;
use mmt_bench::{arg_value, run_app, FULL_SCALE};
use mmt_sim::MmtLevel;
use mmt_workloads::app_by_name;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = arg_value(&args, "--app").unwrap_or_else(|| "swaptions".into());
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().unwrap())
        .unwrap_or(2);
    let scale = scale_arg(&args, false, FULL_SCALE);
    let mut app = app_by_name(&name).expect("known app");
    if arg_value(&args, "--no-div").is_some() {
        app.spec.divergence_inv = 0;
    }
    if let Some(u) = arg_value(&args, "--unroll") {
        app.spec.unroll = u.parse().unwrap();
    }
    for level in MmtLevel::ALL {
        let r = run_app(&app, threads, level, scale);
        let s = &r.stats;
        let (m, d, c) = s.fetch_modes.fractions();
        println!(
            "{level:8} cyc={:7} ipc={:4.2} uops d/x={}/{} mispred={} lvip={}/{} div={} rem={} fp={} modes m/d/c={:.2}/{:.2}/{:.2} l1d={}:{} l1i={}:{} l2m={} id e/er/f/p={}/{}/{}/{}",
            s.cycles,
            s.ipc(),
            s.uops_dispatched,
            s.uops_executed,
            s.branch_mispredicts,
            s.lvip_mispredicts,
            s.lvip_lookups,
            s.divergences,
            s.remerges,
            s.catchup_false_positives,
            m, d, c,
            s.l1d.accesses, s.l1d.misses,
            s.l1i.accesses, s.l1i.misses,
            s.l2.misses,
            s.identity.execute_identical,
            s.identity.execute_identical_regmerge,
            s.identity.fetch_identical,
            s.identity.private,
        );
    }
}
