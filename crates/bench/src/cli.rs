//! Shared failure conventions for the harness bins (DESIGN.md §15).
//!
//! Every bin distinguishes two failure classes with fixed exit codes,
//! always reports on stderr with an `error:` prefix, and — when the
//! caller asked for `--format json` — also emits a `{"error": ...}`
//! object on stdout so machine consumers see the failure in-band
//! instead of an empty stream:
//!
//! * **usage errors** (unknown flag values, unknown apps, unreadable
//!   inputs): exit code 2 via [`fail_usage`];
//! * **runtime failures** (simulator errors, failed gates, unwritable
//!   outputs): exit code 1 via [`fail_run`].

/// Exit code for malformed invocations (bad flags, unknown names).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for runtime failures (simulation errors, failed gates).
pub const EXIT_RUN: i32 = 1;

/// Parse `--format text|json` (and the older `--json` alias). `Err`
/// carries a usage message for an unknown format value.
pub fn format_json_arg(args: &[String]) -> Result<bool, String> {
    match crate::arg_value(args, "--format").as_deref() {
        Some("json") => Ok(true),
        Some("text") => Ok(false),
        Some(other) => Err(format!("unknown format '{other}' (text|json)")),
        None => Ok(args.iter().any(|a| a == "--json")),
    }
}

/// Parse `--scale N`, the workload size divisor (`default` when
/// absent). A value that is not a positive integer is a usage error:
/// scale 0 would divide by zero when the app is instantiated.
pub fn scale_arg(args: &[String], json: bool, default: u64) -> u64 {
    int_arg(args, json, "--scale", "a positive integer", 1.., default)
}

/// Parse `--jobs N`, the worker-pool size (one per core when absent).
pub fn jobs_arg(args: &[String], json: bool) -> usize {
    let default = crate::sweep::default_jobs();
    int_arg(args, json, "--jobs", "a positive integer", 1.., default)
}

/// Parse `--threads N`, the hardware thread count (`default` when
/// absent): the core has `mmt_isa::MAX_THREADS` thread contexts.
pub fn threads_arg(args: &[String], json: bool, default: usize) -> usize {
    let max = mmt_isa::MAX_THREADS;
    let what = format!("an integer from 1 to {max}");
    int_arg(args, json, "--threads", &what, 1..=max, default)
}

/// Parse `key N` as an integer in `range` (`default` when absent);
/// anything else is a usage error saying the flag takes `what`.
fn int_arg<T: std::str::FromStr + PartialOrd>(
    args: &[String],
    json: bool,
    key: &str,
    what: &str,
    range: impl std::ops::RangeBounds<T>,
    default: T,
) -> T {
    let Some(v) = crate::arg_value(args, key) else {
        return default;
    };
    match v.parse() {
        Ok(n) if range.contains(&n) => n,
        _ => fail_usage(json, format!("{key} takes {what}, got '{v}'")),
    }
}

/// Report a usage error and exit 2.
pub fn fail_usage(json: bool, message: impl AsRef<str>) -> ! {
    fail(EXIT_USAGE, json, message.as_ref())
}

/// Report a runtime failure and exit 1.
pub fn fail_run(json: bool, message: impl AsRef<str>) -> ! {
    fail(EXIT_RUN, json, message.as_ref())
}

fn fail(code: i32, json: bool, message: &str) -> ! {
    if json {
        let mut quoted = String::new();
        serde::Serialize::serialize_json(message, &mut quoted);
        println!("{{\"error\":{quoted}}}");
    }
    eprintln!("error: {message}");
    std::process::exit(code);
}
