//! `functional`: the Figure 1/2 method and the static half of the
//! gates, over all 16 suite apps at full scale. Per app: 2-thread trace
//! collection with the interpreter (`collect_trace`, i.e.
//! `Machine::step`) and `profile_pair` alignment; `Ffwd::run_to_halt`
//! at 2 and 4 threads; and the linter, the savings predictor, the
//! memory-dependence and the value-flow analyses over the 2- and
//! 4-thread programs. The cycle-level pipeline does not run.

use crate::check::{self, Checker};
use crate::{Pass, Workload};
use mmt_analysis::{
    lint_program_with_sharing, predict, MemDepAnalysis, ValueFlowAnalysis, ValueFlowOptions,
};
use mmt_bench::{to_run_spec, FULL_SCALE};
use mmt_isa::MemSharing;
use mmt_profile::{collect_trace, profile_pair};
use mmt_sim::Ffwd;
use mmt_workloads::{all_apps, App};
use std::time::Instant;

/// Interpreter step cap per thread: far above any suite app's length.
const MAX_STEPS: u64 = 10_000_000;

/// The `functional` workload.
pub struct Functional {
    seed: u64,
    apps: Vec<App>,
}

impl Functional {
    /// Nothing to prepare: each pass checks the interpreter against the
    /// fast-forward executor on the same inputs.
    pub fn new(seed: u64) -> Functional {
        Functional {
            seed,
            apps: all_apps(),
        }
    }
}

impl Workload for Functional {
    fn pass(&mut self, _traced: bool, check: &mut Checker) -> Pass {
        let mut p = Pass::default();
        for app in &self.apps {
            // Figure 1/2: interpret both threads, then align the traces.
            let setup = Instant::now();
            let w = p.layers.time("workloads.generate_s", || {
                app.instance_with_input(2, FULL_SCALE, self.seed)
            });
            let mut mems = w.memories.clone();
            p.setup_s += setup.elapsed().as_secs_f64();
            let run = Instant::now();
            let traces: Vec<_> = p.layers.time("interp.trace_s", || {
                (0..2)
                    .map(|t| {
                        let mem = match w.sharing {
                            MemSharing::Shared => &mut mems[0],
                            MemSharing::PerThread => &mut mems[t],
                        };
                        collect_trace(&w.program, mem, t, MAX_STEPS)
                    })
                    .collect()
            });
            let traces: Vec<_> = match traces.into_iter().collect::<Result<Vec<_>, _>>() {
                Ok(t) => t,
                Err(e) => {
                    p.wall_s += run.elapsed().as_secs_f64();
                    check.job(
                        &format!("{}/profile", app.name),
                        0,
                        vec![format!("interpreter fault: {e}")],
                    );
                    continue;
                }
            };
            let profile = p
                .layers
                .time("profile.align_s", || profile_pair(&traces[0], &traces[1]));
            p.wall_s += run.elapsed().as_secs_f64();
            let steps: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
            p.layers
                .add("interp.steps", steps.iter().sum::<u64>() as f64);
            p.insts += steps.iter().sum::<u64>();
            check.job(
                &format!("{}/profile", app.name),
                check::profile_digest(&profile),
                Vec::new(),
            );

            for threads in [2, 4] {
                let name = format!("{}/{threads}t", app.name);
                let setup = Instant::now();
                let wt = if threads == 2 {
                    w.clone()
                } else {
                    p.layers.time("workloads.generate_s", || {
                        app.instance_with_input(threads, FULL_SCALE, self.seed)
                    })
                };
                let identical_memories = wt.memories.windows(2).all(|m| m[0] == m[1]);
                let spec = to_run_spec(wt);
                let mut state = spec.initial_arch_state();
                let ffwd = Ffwd::new(&spec.program);
                p.setup_s += setup.elapsed().as_secs_f64();

                let run = Instant::now();
                let executed = p.layers.time("ffwd.run_s", || {
                    ffwd.run_to_halt(&spec.program, &mut state, u64::MAX)
                });
                let (prog, sharing) = (&spec.program, spec.sharing);
                let lints = p.layers.time("analysis.lint_s", || {
                    lint_program_with_sharing(prog, sharing)
                });
                let pred = p
                    .layers
                    .time("analysis.predict_s", || predict(prog, sharing, threads));
                let mem = p
                    .layers
                    .time("analysis.memdep_s", || MemDepAnalysis::run(prog, sharing));
                let vf = p.layers.time("analysis.valueflow_s", || {
                    ValueFlowAnalysis::run(prog, sharing, ValueFlowOptions { identical_memories })
                });
                p.wall_s += run.elapsed().as_secs_f64();

                let mut problems = Vec::new();
                match executed {
                    Ok(n) => {
                        p.layers.add("ffwd.insts", n as f64);
                        p.insts += n;
                    }
                    Err(e) => problems.push(format!("fast-forward fault: {e}")),
                }
                // Two executors, one program: the interpreter's trace
                // lengths are the fast-forward executor's retired counts.
                if threads == 2 {
                    let retired: Vec<u64> = state.threads.iter().map(|t| t.retired).collect();
                    problems.extend(check::same(
                        "ffwd retired vs interp steps",
                        retired,
                        steps.clone(),
                    ));
                }
                let mut h = mmt_sim::snapshot::Fnv::new();
                h.put_u64(state.digest());
                h.put_u64(check::analysis_digest(&lints, &pred, &mem, &vf));
                check.job(&name, h.finish(), problems);
            }
        }
        p
    }

    fn results(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "interp.trace_s",
            "profile.align_s",
            "ffwd.run_s",
            "analysis.lint_s",
            "analysis.predict_s",
            "analysis.memdep_s",
            "analysis.valueflow_s",
        ]
    }
}
