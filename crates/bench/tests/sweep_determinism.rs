//! The figure runner's core contract: rows come back in app order and
//! the printed figure is byte-identical no matter the worker-pool size —
//! only wall-clock fields (excluded from the canonical BENCH form) may
//! differ.

use mmt_bench::figures::{run_figure, Options, FIGURES};
use mmt_bench::sweep::Supervision;

fn options(jobs: usize) -> Options {
    Options {
        threads: 2,
        scale: 256,
        jobs,
        supervision: Supervision::default(),
        trace_dir: None,
        resume: None,
    }
}

#[test]
fn figure_data_is_identical_at_any_pool_size() {
    let fig = FIGURES.iter().find(|f| f.name == "fig5b").expect("fig5b");
    let serial = run_figure(fig, &options(1));
    assert!(serial.report.failures.is_empty(), "{}", serial.text);
    let parallel = run_figure(fig, &options(4));
    assert_eq!(serial.text, parallel.text);
    assert_eq!(
        serial.report.canonical_json(),
        parallel.report.canonical_json()
    );
    // The canonical JSON still carries the deterministic payload.
    let json = serial.report.canonical_json();
    assert!(json.contains("swaptions/fxr"));
    assert!(json.contains("\"peak_uop_arena\""));
}
