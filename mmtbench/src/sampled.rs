//! `sampled`: SMARTS-style two-speed runs (`mmt_bench::sample::run_sampled`
//! with the default `SampleConfig`) at MMT-FXR, 4 threads, full scale.
//!
//! The apps span per-process memory size: ammp and equake are
//! multi-execution (one large memory per process), swaptions and
//! canneal multi-threaded (one shared memory). Caches are warmed
//! functionally during fast-forward and carried into each detailed
//! window. Host time goes to the snapshot handoff between tiers
//! (rebuilding a `Simulator` from the architectural state and reading
//! the state back), to stepping the short detailed windows, and to
//! warming fast-forward.
//!
//! A traced pass does not call `run_sampled`: [`replay`] drives the same
//! public calls (`from_arch_warmed` → `step_cycle` → `arch_state` →
//! `into_hierarchy` → `advance_warming`) with a timer around each, and
//! every replay must reproduce `run_sampled`'s estimate exactly.

use crate::check::{self, Checker};
use crate::metrics::{add_stage_seconds, Layers};
use crate::{Pass, Workload};
use mmt_bench::sample::{run_sampled, SampleConfig, SampledEstimate, WindowStat};
use mmt_bench::{to_run_spec, FULL_SCALE};
use mmt_sim::{ArchState, Ffwd, MemoryHierarchy, MmtLevel, RunSpec, SimConfig, Simulator};
use mmt_workloads::app_by_name;
use std::time::Instant;

const APPS: [&str; 4] = ["ammp", "equake", "swaptions", "canneal"];
const THREADS: usize = 4;

struct Job {
    name: &'static str,
    /// Final architectural digest and instruction total from `Ffwd`.
    ffwd_digest: u64,
    ffwd_insts: u64,
    /// Relative error of the sampled cycle estimate against a
    /// full-detail run of the same input.
    cycles_err: f64,
}

/// The `sampled` workload.
pub struct Sampled {
    seed: u64,
    jobs: Vec<Job>,
}

fn config(traced: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_with(THREADS, MmtLevel::Fxr);
    cfg.metrics = traced;
    cfg
}

fn spec(name: &str, seed: u64) -> RunSpec {
    let app = app_by_name(name).expect("sampled apps are in the suite");
    to_run_spec(app.instance_with_input(THREADS, FULL_SCALE, seed))
}

impl Sampled {
    /// Compute, untimed, each input's references: the fast-forward
    /// final state, a full-detail run's cycles, and one replay, whose
    /// final state must match the fast-forward one.
    pub fn prepare(seed: u64, check: &mut Checker) -> Sampled {
        let sample = SampleConfig::default();
        let jobs = APPS
            .iter()
            .map(|&name| {
                let spec = spec(name, seed);
                let mut state = spec.initial_arch_state();
                Ffwd::new(&spec.program)
                    .run_to_halt(&spec.program, &mut state, u64::MAX)
                    .expect("suite apps run to halt functionally");
                let full = Simulator::new(config(false), spec.clone())
                    .expect("suite configurations are valid")
                    .run()
                    .expect("suite apps terminate");
                let (est, last) = replay(&config(false), &spec, &sample, &mut Layers::default());
                let problems = [
                    check::same(
                        "replay final architectural digest vs ffwd",
                        last.digest(),
                        state.digest(),
                    ),
                    check::same(
                        "full-detail retired vs ffwd",
                        full.stats.total_retired(),
                        state.total_retired(),
                    ),
                ];
                // Same job name as the passes: each pass's estimate must
                // then repeat this replay's exactly.
                check.job(
                    name,
                    check::estimate_digest(&est),
                    problems.into_iter().flatten().collect(),
                );
                Job {
                    name,
                    ffwd_digest: state.digest(),
                    ffwd_insts: state.total_retired(),
                    cycles_err: est.cycles_rel_err(full.stats.cycles),
                }
            })
            .collect();
        Sampled { seed, jobs }
    }
}

impl Workload for Sampled {
    fn pass(&mut self, traced: bool, check: &mut Checker) -> Pass {
        let mut p = Pass::default();
        let sample = SampleConfig::default();
        for job in &self.jobs {
            let setup = Instant::now();
            let spec = p
                .layers
                .time("workloads.generate_s", || spec(job.name, self.seed));
            let cfg = config(traced);
            p.setup_s += setup.elapsed().as_secs_f64();

            let run = Instant::now();
            let (est, last) = if traced {
                let (est, last) = replay(&cfg, &spec, &sample, &mut p.layers);
                (est, Some(last))
            } else {
                (run_sampled(&cfg, &spec, &sample), None)
            };
            p.wall_s += run.elapsed().as_secs_f64();
            p.insts += est.total_insts;

            let problems = [
                check::same("total_insts vs ffwd", est.total_insts, job.ffwd_insts),
                last.and_then(|s| check::same("final digest vs ffwd", s.digest(), job.ffwd_digest)),
            ];
            check.job(
                job.name,
                check::estimate_digest(&est),
                problems.into_iter().flatten().collect(),
            );
        }
        p
    }

    fn results(&self) -> Vec<(&'static str, f64)> {
        let err = self.jobs.iter().map(|j| j.cycles_err).fold(0.0, f64::max);
        vec![("sampled_cycles_err", err)]
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "snapshot.from_arch_s",
            "snapshot.window_step_s",
            "snapshot.arch_state_s",
            "snapshot.into_hierarchy_s",
            "ffwd.warm_s",
            "ffwd.run_s",
        ]
    }
}

/// `run_sampled`, step by step through the public API, with every call
/// into a layer timed into `layers`. Returns the same estimate as
/// `run_sampled(cfg, spec, sample)` plus the final architectural state.
///
/// # Panics
///
/// Panics on simulator or executor errors, as `run_sampled` does.
pub fn replay(
    cfg: &SimConfig,
    spec: &RunSpec,
    sample: &SampleConfig,
    layers: &mut Layers,
) -> (SampledEstimate, ArchState) {
    assert!(sample.measure > 0, "measure quantum must be non-empty");
    let ffwd = Ffwd::new(&spec.program);
    let mut state = spec.initial_arch_state();
    let mut windows: Vec<WindowStat> = Vec::new();
    let mut detailed_insts = 0u64;
    let mut prev_end = 0u64;
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);

    while !state.all_halted() && windows.len() < sample.max_windows {
        let mut sim = layers
            .time("snapshot.from_arch_s", || {
                Simulator::from_arch_warmed(cfg.clone(), spec.program.clone(), &state, hierarchy)
            })
            .expect("sampled handoff accepts the architectural state");
        layers.add("snapshot.handoffs", 1.0);
        let step = Instant::now();
        let window_start = sim.instructions_fetched();
        let warm_target = window_start + sample.warmup;
        while !sim.finished() && sim.instructions_fetched() < warm_target {
            sim.step_cycle().expect("workloads terminate");
        }
        let measure_start = sim.instructions_fetched();
        let cycle0 = sim.now();
        let modes0 = sim.stats().fetch_modes;
        let measure_target = measure_start + sample.measure;
        while !sim.finished() && sim.instructions_fetched() < measure_target {
            sim.step_cycle().expect("workloads terminate");
        }
        let step_s = step.elapsed().as_secs_f64();
        layers.add("snapshot.window_step_s", step_s);
        layers.add("pipeline.run_s", step_s);
        layers.add("pipeline.fxr.run_s", step_s);
        layers.add("pipeline.cycles", sim.now() as f64);
        layers.add(
            "raw.pipeline_insts",
            (sim.instructions_fetched() - window_start) as f64,
        );
        layers.add("raw.uops_dispatched", sim.stats().uops_dispatched as f64);
        add_stage_seconds(layers, sim.metrics_snapshot().as_ref());

        let insts = sim.instructions_fetched() - measure_start;
        if insts > 0 {
            let modes = sim.stats().fetch_modes;
            let end = measure_start + insts;
            windows.push(WindowStat {
                start_inst: measure_start,
                stratum_insts: end - prev_end,
                insts,
                cycles: sim.now() - cycle0,
                merge_slots: modes.merge - modes0.merge,
                total_slots: modes.total() - modes0.total(),
            });
            prev_end = end;
        }
        detailed_insts += sim.instructions_fetched() - window_start;
        state = layers.time("snapshot.arch_state_s", || sim.arch_state());
        hierarchy = layers.time("snapshot.into_hierarchy_s", || sim.into_hierarchy());
        if state.all_halted() {
            break;
        }
        if sample.skip > 0 {
            let n = layers
                .time("ffwd.warm_s", || {
                    ffwd.advance_warming(&spec.program, &mut state, sample.skip, &mut hierarchy)
                })
                .expect("fast-forward executes the skip interval");
            layers.add("ffwd.insts", n as f64);
        }
    }
    if !state.all_halted() {
        let n = layers
            .time("ffwd.run_s", || {
                ffwd.run_to_halt(&spec.program, &mut state, u64::MAX)
            })
            .expect("fast-forward drains the tail");
        layers.add("ffwd.insts", n as f64);
    }
    layers.add("mem.mshr_stalls", hierarchy.mshr_stalls() as f64);

    // The estimator, operation for operation as in `run_sampled`, so the
    // result is bit-identical.
    let total_insts = state.total_retired();
    let measured_insts: u64 = windows.iter().map(|w| w.insts).sum();
    let measured_cycles: u64 = windows.iter().map(|w| w.cycles).sum();
    let ratio_cpi = measured_cycles as f64 / measured_insts.max(1) as f64;
    let tail = total_insts.saturating_sub(prev_end) as f64;
    let est_cycles = windows
        .iter()
        .map(|w| w.cpi() * w.stratum_insts as f64)
        .sum::<f64>()
        + ratio_cpi * tail;
    let cpi_stderr = if windows.len() > 1 {
        let n = windows.len() as f64;
        let mean = windows.iter().map(WindowStat::cpi).sum::<f64>() / n;
        let var = windows
            .iter()
            .map(|w| (w.cpi() - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        (var / n).sqrt()
    } else {
        0.0
    };
    let ratio_merge = {
        let merge_slots: u64 = windows.iter().map(|w| w.merge_slots).sum();
        let total_slots: u64 = windows.iter().map(|w| w.total_slots).sum();
        merge_slots as f64 / total_slots.max(1) as f64
    };
    let merge_fraction = (windows
        .iter()
        .map(|w| {
            let mf = w.merge_slots as f64 / w.total_slots.max(1) as f64;
            mf * w.stratum_insts as f64
        })
        .sum::<f64>()
        + ratio_merge * tail)
        / total_insts.max(1) as f64;
    let est = SampledEstimate {
        total_insts,
        measured_insts,
        measured_cycles,
        detailed_insts,
        est_cpi: est_cycles / total_insts.max(1) as f64,
        cpi_stderr,
        est_cycles,
        cycles_err: 1.96 * cpi_stderr * total_insts as f64,
        merge_fraction,
        windows,
    };
    (est, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_bench::SMOKE_SCALE;

    #[test]
    fn traced_replay_matches_run_sampled() {
        for (name, threads) in [("swaptions", 2), ("equake", 2)] {
            let app = app_by_name(name).expect("known app");
            let spec = to_run_spec(app.instance_with_input(threads, SMOKE_SCALE, 3));
            let sample = SampleConfig {
                skip: 800,
                warmup: 100,
                measure: 200,
                max_windows: 4_096,
            };
            let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
            let plain = run_sampled(&cfg, &spec, &sample);
            cfg.metrics = true;
            let mut layers = Layers::default();
            let (est, last) = replay(&cfg, &spec, &sample, &mut layers);
            assert_eq!(check::estimate_digest(&est), check::estimate_digest(&plain));
            assert_eq!(format!("{est:?}"), format!("{plain:?}"));
            // One handoff per window; a last window that only drains the
            // pipeline measures nothing and records no WindowStat.
            let handoffs = layers.get("snapshot.handoffs") as usize;
            assert!((plain.windows.len()..=plain.windows.len() + 1).contains(&handoffs));
            assert!(layers.get("ffwd.insts") > 0.0);
            assert!(
                layers.get("pipeline.dispatch_s") > 0.0,
                "stage profile read"
            );

            let mut reference = spec.initial_arch_state();
            Ffwd::new(&spec.program)
                .run_to_halt(&spec.program, &mut reference, u64::MAX)
                .expect("halts");
            assert_eq!(last.digest(), reference.digest());
        }
    }

    #[test]
    fn window_cap_tail_is_replayed_too() {
        let app = app_by_name("canneal").expect("known app");
        let spec = to_run_spec(app.instance_with_input(2, SMOKE_SCALE, 0));
        let sample = SampleConfig {
            skip: 200,
            warmup: 50,
            measure: 100,
            max_windows: 2,
        };
        let cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
        let mut layers = Layers::default();
        let (est, _) = replay(&cfg, &spec, &sample, &mut layers);
        let plain = run_sampled(&cfg, &spec, &sample);
        assert_eq!(format!("{est:?}"), format!("{plain:?}"));
        assert!(layers.get("ffwd.run_s") > 0.0);
    }
}
