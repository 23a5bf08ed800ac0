//! Output checks: every job the benchmark runs is one attempted
//! operation, and it fails when any of its outputs is wrong.
//!
//! Three kinds of check apply:
//! * cross-executor, at every seed — a detailed or sampled run must end
//!   in the architectural state the block-dispatch executor reaches
//!   (`Ffwd::run_to_halt`) on the same inputs;
//! * repeatability, at every seed — a job's outputs are the same in
//!   every pass of a run;
//! * recorded, at the default seed only — each job's output digest must
//!   equal the value in [`crate::expected`]. A change to the model then
//!   reads as failed operations instead of as a speed-up.

use mmt_analysis::{Lint, MemDepAnalysis, Prediction, ValueFlowAnalysis};
use mmt_bench::sample::SampledEstimate;
use mmt_profile::RedundancyProfile;
use mmt_sim::snapshot::Fnv;
use mmt_sim::SimStats;
use std::collections::BTreeMap;

/// Attempted/failed job counts plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Checker {
    /// Jobs run.
    pub attempted: u64,
    /// Jobs with at least one wrong output.
    pub failed: u64,
    /// Human-readable reasons, for stderr.
    pub messages: Vec<String>,
    /// Digest of each job's outputs in the first pass that ran it.
    first_seen: BTreeMap<String, u64>,
    /// Recorded digests to compare against (default seed only).
    expected: Option<&'static [(&'static str, u64)]>,
    /// First digest of each job, in job order, for `--record`.
    pub seen: Vec<(String, u64)>,
}

impl Checker {
    /// A checker comparing against `expected` when given.
    pub fn new(expected: Option<&'static [(&'static str, u64)]>) -> Checker {
        Checker {
            expected,
            ..Checker::default()
        }
    }

    /// Account one job: `digest` summarises its outputs and `problems`
    /// lists cross-executor mismatches already found by the caller.
    pub fn job(&mut self, name: &str, digest: u64, mut problems: Vec<String>) {
        self.attempted += 1;
        match self.first_seen.get(name) {
            Some(&first) if first != digest => problems.push(format!(
                "output digest {digest:#018x} differs from the first pass's {first:#018x}"
            )),
            Some(_) => {}
            None => {
                self.first_seen.insert(name.to_string(), digest);
                self.seen.push((name.to_string(), digest));
            }
        }
        if let Some(table) = self.expected {
            match table.iter().find(|(n, _)| *n == name) {
                Some(&(_, want)) if want != digest => problems.push(format!(
                    "output digest {digest:#018x} != recorded {want:#018x}"
                )),
                Some(_) => {}
                None => problems.push("no recorded digest for this job".to_string()),
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.messages.len() < 20 {
                    self.messages.push(format!("{name}: {p}"));
                }
            }
        }
    }
}

/// Compare two values, describing a mismatch.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Option<String> {
    (got != want).then(|| format!("{what}: got {got:?}, want {want:?}"))
}

/// Digest of the model-visible `SimStats` counters: everything a change
/// aimed purely at host speed must leave bit-identical. The host-side
/// allocation counters (`peak_live_uops`, `peak_uop_arena`,
/// `scratch_growth_events`) and the optional per-PC profile are left out.
pub fn stats_digest(s: &SimStats) -> u64 {
    let mut h = Fnv::new();
    let mut put = |vs: &[u64]| vs.iter().for_each(|&v| h.put_u64(v));
    put(&[s.cycles]);
    put(&s.retired_per_thread);
    put(&[s.macro_ops_fetched, s.uops_dispatched, s.uops_executed]);
    let f = &s.fetch_modes;
    put(&[f.merge, f.detect, f.catchup]);
    let i = &s.identity;
    put(&[
        i.fetch_identical,
        i.execute_identical,
        i.execute_identical_regmerge,
        i.private,
    ]);
    put(&[
        s.branches,
        s.branch_mispredicts,
        s.lvip_lookups,
        s.lvip_mispredicts,
        s.divergences,
        s.remerges,
        s.catchup_false_positives,
    ]);
    put(&s.remerge_branch_histogram);
    for c in [&s.l1i, &s.l1d, &s.l2] {
        put(&[c.accesses, c.hits, c.misses]);
    }
    let e = &s.energy;
    put(&[
        e.cycles,
        e.icache_accesses,
        e.dcache_accesses,
        e.l2_accesses,
        e.dram_accesses,
        e.renames,
        e.executions,
        e.regfile_reads,
        e.regfile_writes,
        e.commits,
        e.bpred_accesses,
        e.fhb_ops,
        e.rst_updates,
        e.lvip_lookups,
        e.merge_checks,
        e.split_evals,
    ]);
    h.finish()
}

/// Digest of a sampled estimate: every field, floats by their bits.
pub fn estimate_digest(e: &SampledEstimate) -> u64 {
    let mut h = Fnv::new();
    for v in [
        e.total_insts,
        e.measured_insts,
        e.measured_cycles,
        e.detailed_insts,
    ] {
        h.put_u64(v);
    }
    for v in [
        e.est_cpi,
        e.cpi_stderr,
        e.est_cycles,
        e.cycles_err,
        e.merge_fraction,
    ] {
        h.put_u64(v.to_bits());
    }
    h.put_u64(e.windows.len() as u64);
    for w in &e.windows {
        for v in [
            w.start_inst,
            w.stratum_insts,
            w.insts,
            w.cycles,
            w.merge_slots,
            w.total_slots,
        ] {
            h.put_u64(v);
        }
    }
    h.finish()
}

/// Digest of a two-thread redundancy profile (the Figure 1/2 counts).
pub fn profile_digest(p: &RedundancyProfile) -> u64 {
    let mut h = Fnv::new();
    for v in [
        p.total,
        p.execute_identical,
        p.fetch_identical,
        p.not_identical,
        p.divergences,
    ] {
        h.put_u64(v);
    }
    p.divergence_diff_histogram
        .iter()
        .for_each(|&v| h.put_u64(v));
    h.finish()
}

/// Digest of the static analyses' results over one program.
pub fn analysis_digest(
    lints: &[Lint],
    pred: &Prediction,
    mem: &MemDepAnalysis,
    vf: &ValueFlowAnalysis,
) -> u64 {
    let mut h = Fnv::new();
    let mut lints: Vec<String> = lints.iter().map(|l| format!("{l:?}")).collect();
    lints.sort();
    for l in &lints {
        h.put_bytes(l.as_bytes());
    }
    h.put_bytes(format!("{pred:?}").as_bytes());
    for a in mem.accesses() {
        h.put_bytes(format!("{a:?}").as_bytes());
    }
    for r in mem.races() {
        h.put_bytes(format!("{r:?}").as_bytes());
    }
    h.put_bytes(format!("{:?}", vf.summary()).as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_recorded_digest_fails_the_job() {
        static TABLE: &[(&str, u64)] = &[("a", 1), ("b", 2)];
        let mut c = Checker::new(Some(TABLE));
        c.job("a", 1, Vec::new());
        c.job("b", 3, Vec::new());
        c.job("c", 9, Vec::new());
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.messages[0].contains("recorded"));
        assert!(c.messages[1].contains("no recorded digest"));
    }

    #[test]
    fn pass_to_pass_drift_and_reported_problems_fail() {
        let mut c = Checker::new(None);
        c.job("a", 1, Vec::new());
        c.job("a", 1, Vec::new());
        c.job("a", 2, Vec::new());
        c.job("b", 5, vec!["digest mismatch".into()]);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.seen, vec![("a".into(), 1), ("b".into(), 5)]);
        assert_eq!(same("x", 1, 1), None);
        assert!(same("x", 1, 2).is_some());
    }

    #[test]
    fn stats_digest_ignores_host_allocation_counters() {
        let mut s = SimStats {
            cycles: 10,
            retired_per_thread: vec![4, 5],
            ..SimStats::default()
        };
        let d = stats_digest(&s);
        s.peak_uop_arena = 99;
        s.scratch_growth_events = 3;
        assert_eq!(stats_digest(&s), d);
        s.energy.split_evals += 1;
        assert_ne!(stats_digest(&s), d);
    }
}
