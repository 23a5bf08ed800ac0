//! Usage-error conventions shared by the harness bins (DESIGN.md §15):
//! a malformed `--scale` exits 2 with an `error:` line on stderr instead
//! of panicking inside workload instantiation.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
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
        stderr.contains("error: --scale"),
        "{bin} {args:?}: stderr was {stderr:?}"
    );
}

#[test]
fn bad_scale_is_a_usage_error() {
    for scale in ["0", "big", "-4"] {
        assert_usage_error(env!("CARGO_BIN_EXE_mmtsim"), &["--scale", scale]);
        assert_usage_error(env!("CARGO_BIN_EXE_mmtpredict"), &["--scale", scale]);
    }
}
