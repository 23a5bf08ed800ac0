//! `fig5`: the Figure 5/6/7 method — full cycle-level runs of all 16
//! suite apps at Base and MMT-FXR, 2 and 4 threads, scale 4, every run
//! starting with empty caches. Nearly all host time is in the pipeline
//! stages; snapshot handoff, fast-forward, interpretation and analysis
//! do not run.

use crate::check::{self, Checker};
use crate::metrics::{add_stage_seconds, add_stats};
use crate::{Pass, Workload};
use mmt_bench::{geomean, to_run_spec};
use mmt_sim::{Ffwd, MmtLevel, SimConfig, Simulator};
use mmt_workloads::{all_apps, App};
use std::collections::BTreeMap;
use std::time::Instant;

/// Iteration divisor (the ROADMAP's `--scale 4`).
pub const SCALE: u64 = 4;
const THREADS: [usize; 2] = [2, 4];
const LEVELS: [(MmtLevel, &str); 2] = [(MmtLevel::Base, "base"), (MmtLevel::Fxr, "fxr")];

/// The `fig5` workload.
pub struct Fig5 {
    seed: u64,
    apps: Vec<App>,
    /// Final architectural digest per `(app, threads)` from `Ffwd`.
    reference: BTreeMap<(usize, usize), u64>,
    /// Simulated cycles per job, from the first pass.
    cycles: BTreeMap<(usize, usize, MmtLevel), u64>,
}

impl Fig5 {
    /// Compute the fast-forward reference digest of every input.
    pub fn prepare(seed: u64) -> Fig5 {
        let apps = all_apps();
        let mut reference = BTreeMap::new();
        for (a, app) in apps.iter().enumerate() {
            for threads in THREADS {
                let spec = to_run_spec(app.instance_with_input(threads, SCALE, seed));
                let mut state = spec.initial_arch_state();
                Ffwd::new(&spec.program)
                    .run_to_halt(&spec.program, &mut state, u64::MAX)
                    .expect("suite apps run to halt functionally");
                reference.insert((a, threads), state.digest());
            }
        }
        Fig5 {
            seed,
            apps,
            reference,
            cycles: BTreeMap::new(),
        }
    }

    fn speedup(&self, threads: usize) -> f64 {
        let ratios: Vec<f64> = (0..self.apps.len())
            .filter_map(|a| {
                let base = self.cycles.get(&(a, threads, MmtLevel::Base))?;
                let fxr = self.cycles.get(&(a, threads, MmtLevel::Fxr))?;
                Some(*base as f64 / (*fxr).max(1) as f64)
            })
            .collect();
        geomean(&ratios)
    }
}

impl Workload for Fig5 {
    fn pass(&mut self, traced: bool, check: &mut Checker) -> Pass {
        let mut p = Pass::default();
        for (a, app) in self.apps.iter().enumerate() {
            for threads in THREADS {
                for (level, level_name) in LEVELS {
                    let name = format!("{}/{threads}t/{level_name}", app.name);
                    let setup = Instant::now();
                    let spec = p.layers.time("workloads.generate_s", || {
                        to_run_spec(app.instance_with_input(threads, SCALE, self.seed))
                    });
                    let mut cfg = SimConfig::paper_with(threads, level);
                    cfg.metrics = traced;
                    let mut sim = p
                        .layers
                        .time("pipeline.new_s", || Simulator::new(cfg, spec))
                        .expect("suite configurations are valid");
                    p.setup_s += setup.elapsed().as_secs_f64();

                    let run = Instant::now();
                    let mut outcome = Ok(());
                    while outcome.is_ok() && !sim.finished() {
                        outcome = sim.step_cycle();
                    }
                    let step_s = run.elapsed().as_secs_f64();
                    // Untimed: the final architectural state for the
                    // cross-executor check, and (traced) the MSHR stall
                    // count, which only the memory hierarchy holds.
                    let arch = sim.arch_state().digest();
                    if traced {
                        if let Ok(ckpt) = sim.checkpoint() {
                            let stalls = ckpt.restore().into_hierarchy().mshr_stalls();
                            p.layers.add("mem.mshr_stalls", stalls as f64);
                        }
                    }
                    let finish = Instant::now();
                    let res = sim.finish();
                    p.wall_s += step_s + finish.elapsed().as_secs_f64();

                    p.layers.add("pipeline.run_s", step_s);
                    p.layers.add(
                        if level == MmtLevel::Base {
                            "pipeline.base.run_s"
                        } else {
                            "pipeline.fxr.run_s"
                        },
                        step_s,
                    );
                    p.insts += res.stats.total_retired();
                    add_stats(&mut p.layers, &res.stats);
                    add_stage_seconds(&mut p.layers, res.metrics.as_ref());
                    self.cycles
                        .entry((a, threads, level))
                        .or_insert(res.stats.cycles);

                    let problems = [
                        outcome.err().map(|e| format!("simulation failed: {e}")),
                        check::same(
                            "final architectural digest vs ffwd",
                            arch,
                            self.reference[&(a, threads)],
                        ),
                    ];
                    check.job(
                        &name,
                        check::stats_digest(&res.stats),
                        problems.into_iter().flatten().collect(),
                    );
                }
            }
        }
        p
    }

    fn results(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fxr_speedup_2t", self.speedup(2)),
            ("fxr_speedup_4t", self.speedup(4)),
        ]
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &["pipeline.run_s"]
    }
}
