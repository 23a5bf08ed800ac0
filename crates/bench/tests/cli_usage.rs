//! Usage-error conventions shared by the harness bins (DESIGN.md §15):
//! a malformed flag value or an unknown figure name exits 2 with an
//! `error:` line on stderr instead of panicking.

use std::process::Command;

/// Run `bin args` and assert it exits 2 with an `error: <expect>` line.
fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    // Run from the temp dir: a bin that wrongly went ahead would write
    // its BENCH report there, not into the source tree.
    let out = Command::new(bin)
        .current_dir(std::env::temp_dir())
        .args(args)
        .output()
        .expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: {expect}")),
        "{bin} {args:?}: stderr was {stderr:?}"
    );
}

#[test]
fn bad_scale_is_a_usage_error() {
    for scale in ["0", "big", "-4"] {
        let args = ["--scale", scale];
        assert_usage_error(env!("CARGO_BIN_EXE_mmtsim"), &args, "--scale");
        assert_usage_error(env!("CARGO_BIN_EXE_mmtpredict"), &args, "--scale");
        let args = ["fig5", "--scale", scale];
        assert_usage_error(env!("CARGO_BIN_EXE_mmtfig"), &args, "--scale");
    }
}

#[test]
fn bad_jobs_is_a_usage_error() {
    for jobs in ["x", "0", "-1"] {
        let args = ["fig5b", "--jobs", jobs];
        assert_usage_error(env!("CARGO_BIN_EXE_mmtfig"), &args, "--jobs");
    }
    let args = ["--jobs", "x"];
    assert_usage_error(env!("CARGO_BIN_EXE_mmtpredict"), &args, "--jobs");
}

#[test]
fn bad_threads_is_a_usage_error() {
    for threads in ["two", "0", "9"] {
        for fig in ["fig5b", "fig7b"] {
            let args = [fig, "--threads", threads];
            assert_usage_error(env!("CARGO_BIN_EXE_mmtfig"), &args, "--threads");
        }
    }
}

#[test]
fn unknown_figure_lists_the_figures() {
    for args in [&["fig9"][..], &[], &["--threads", "2"]] {
        assert_usage_error(env!("CARGO_BIN_EXE_mmtfig"), args, "unknown figure");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_mmtfig"))
        .arg("fig9")
        .output()
        .expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for fig in mmt_bench::figures::FIGURES {
        assert!(
            stderr.contains(fig.name),
            "{} not listed: {stderr}",
            fig.name
        );
    }
}
