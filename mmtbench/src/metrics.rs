//! Metric names, units, per-layer accumulators and the result line.
//!
//! Every name the benchmark can print is declared once here, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! the tests keep the two in step.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run (`--trace 0`) for
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer
/// that does not run on a workload reads 0 there. The last five are not
/// layers: the deterministic results of one workload (`fig5`'s speed-ups,
/// `sampled`'s estimate error), which the result line of an untraced run
/// cannot carry because its metric set is the same for every workload,
/// and the tracing's own coverage and overhead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("pipeline.new_s", "s"),
    ("pipeline.run_s", "s"),
    ("pipeline.base.run_s", "s"),
    ("pipeline.fxr.run_s", "s"),
    ("pipeline.cycles", "count"),
    ("pipeline.ns_per_cycle", "ns"),
    ("pipeline.kcycles_per_s", "kcycles/s"),
    ("pipeline.uops_per_inst", "uops/inst"),
    ("pipeline.ipc", "inst/cycle"),
    ("pipeline.fetch_s", "s"),
    ("pipeline.dispatch_s", "s"),
    ("pipeline.issue_s", "s"),
    ("pipeline.commit_s", "s"),
    ("snapshot.from_arch_s", "s"),
    ("snapshot.arch_state_s", "s"),
    ("snapshot.into_hierarchy_s", "s"),
    ("snapshot.handoffs", "count"),
    ("snapshot.window_step_s", "s"),
    ("ffwd.run_s", "s"),
    ("ffwd.warm_s", "s"),
    ("ffwd.insts", "count"),
    ("ffwd.minst_per_s", "Minst/s"),
    ("interp.trace_s", "s"),
    ("interp.steps", "count"),
    ("profile.align_s", "s"),
    ("analysis.lint_s", "s"),
    ("analysis.predict_s", "s"),
    ("analysis.memdep_s", "s"),
    ("analysis.valueflow_s", "s"),
    ("split.evals", "count"),
    ("rst.updates", "count"),
    ("lvip.lookups", "count"),
    ("lvip.mispredict_ratio", "ratio"),
    ("regmerge.checks", "count"),
    ("frontend.merge_fraction", "ratio"),
    ("frontend.mispredict_ratio", "ratio"),
    ("frontend.divergences", "count"),
    ("mem.l1i_miss_ratio", "ratio"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.mshr_stalls", "count"),
    ("fxr_speedup_2t", "x"),
    ("fxr_speedup_4t", "x"),
    ("sampled_cycles_err", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The unit of a declared metric.
///
/// # Panics
///
/// Panics on an undeclared name: every printed metric is declared above.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Named accumulators for one pass: seconds spent in a layer, or a count
/// of its work. Layer names are the module names of `PER_LAYER`.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Add `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Run `f`, adding its host seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// The accumulated value (0 when the layer never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of several accumulators.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

/// A per-layer metric from one pass's accumulators: either a raw layer
/// value or a ratio of raw counts.
pub fn derived(l: &Layers, name: &str) -> f64 {
    let g = |n: &str| l.get(n);
    match name {
        "pipeline.ns_per_cycle" => ratio(g("pipeline.run_s") * 1e9, g("pipeline.cycles")),
        "pipeline.kcycles_per_s" => ratio(g("pipeline.cycles") / 1e3, g("pipeline.run_s")),
        "pipeline.uops_per_inst" => ratio(g("raw.uops_dispatched"), g("raw.pipeline_insts")),
        "pipeline.ipc" => ratio(g("raw.pipeline_insts"), g("pipeline.cycles")),
        "ffwd.minst_per_s" => ratio(g("ffwd.insts") / 1e6, g("ffwd.run_s") + g("ffwd.warm_s")),
        "lvip.mispredict_ratio" => ratio(g("raw.lvip_mispredicts"), g("lvip.lookups")),
        "frontend.merge_fraction" => ratio(g("raw.fetch_merge"), g("raw.fetch_total")),
        "frontend.mispredict_ratio" => ratio(g("raw.branch_mispredicts"), g("raw.branches")),
        "mem.l1i_miss_ratio" => ratio(g("raw.l1i_misses"), g("raw.l1i_accesses")),
        "mem.l1d_miss_ratio" => ratio(g("raw.l1d_misses"), g("raw.l1d_accesses")),
        "mem.l2_miss_ratio" => ratio(g("raw.l2_misses"), g("raw.l2_accesses")),
        _ => g(name),
    }
}

/// Fold one finished cycle-level run's `SimStats` into the simulated
/// per-layer counts.
pub fn add_stats(l: &mut Layers, s: &mmt_sim::SimStats) {
    let f = |v: u64| v as f64;
    l.add("pipeline.cycles", f(s.cycles));
    l.add("raw.pipeline_insts", f(s.total_retired()));
    l.add("raw.uops_dispatched", f(s.uops_dispatched));
    l.add("split.evals", f(s.energy.split_evals));
    l.add("rst.updates", f(s.energy.rst_updates));
    l.add("lvip.lookups", f(s.lvip_lookups));
    l.add("raw.lvip_mispredicts", f(s.lvip_mispredicts));
    l.add("regmerge.checks", f(s.energy.merge_checks));
    l.add("raw.fetch_merge", f(s.fetch_modes.merge));
    l.add("raw.fetch_total", f(s.fetch_modes.total()));
    l.add("raw.branches", f(s.branches));
    l.add("raw.branch_mispredicts", f(s.branch_mispredicts));
    l.add("frontend.divergences", f(s.divergences));
    for (c, acc, miss) in [
        (&s.l1i, "raw.l1i_accesses", "raw.l1i_misses"),
        (&s.l1d, "raw.l1d_accesses", "raw.l1d_misses"),
        (&s.l2, "raw.l2_accesses", "raw.l2_misses"),
    ] {
        l.add(acc, f(c.accesses));
        l.add(miss, f(c.misses));
    }
}

/// Fold the pipeline's stage profiler (`SimConfig::metrics`) into the
/// per-stage seconds.
pub fn add_stage_seconds(l: &mut Layers, snap: Option<&mmt_obs::MetricsSnapshot>) {
    let Some(snap) = snap else { return };
    for s in snap.series.iter().filter(|s| s.name == "mmt_stage_seconds") {
        let stage = s.labels.iter().find(|(k, _)| k == "stage").map(|(_, v)| v);
        let name = match stage.map(String::as_str) {
            Some("fetch") => "pipeline.fetch_s",
            Some("dispatch") => "pipeline.dispatch_s",
            Some("issue") => "pipeline.issue_s",
            Some("commit") => "pipeline.commit_s",
            _ => continue,
        };
        if let mmt_obs::SeriesValue::Histogram { sum, .. } = s.value {
            l.add(name, sum);
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_declared_name_is_valid_unique_and_has_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name), "metric {name} declared twice");
            assert_eq!(unit_of(name), unit);
        }
    }

    #[test]
    fn benchmark_json_lists_the_declared_metrics() {
        use mmt_obs::json::{self, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(3, 1, &[("wall_s", 1.5), ("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        let doc = mmt_obs::json::parse(&line).expect("result line is JSON");
        assert!(doc.get("metrics").is_some());
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
