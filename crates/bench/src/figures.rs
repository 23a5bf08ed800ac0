//! The figure table behind `mmtfig` (DESIGN.md §6): every table and
//! figure of the paper's evaluation, and the ablations beyond it, as one
//! [`Figure`] entry each in [`FIGURES`].
//!
//! A figure is a grid of per-app rows. [`run_figure`] runs the rows on a
//! `--jobs`-sized worker pool under [`run_supervised`], so a row that
//! panics, misses `--deadline-secs` or hits a typed simulator error
//! degrades to a [`PointFailure`](crate::sweep::PointFailure) record
//! instead of killing the figure. With `--resume-dir DIR` every finished
//! row is cached under DIR and every simulation drops periodic
//! `ArchState` checkpoints there; a rerun after a kill skips the cached
//! rows. With `--trace-dir DIR` every simulation records a pipeline trace
//! and writes `<app>-<tag>.{trace.json,events.jsonl,windows.jsonl}` under
//! DIR. The printed figure is byte-identical at any pool size, resumed or
//! not, traced or not; per-run telemetry lands in
//! `results/BENCH_<bench>.json`.

use crate::cli::{fail_usage, jobs_arg, scale_arg, threads_arg};
use crate::sweep::{resume_dir_arg, run_supervised, trace_dir_arg, write_trace_files};
use crate::sweep::{BenchReport, ResumeDir, RunTelemetry, Supervision};
use crate::{arg_value, geomean, simulator, speedup, Instance, FULL_SCALE};
use mmt_isa::MemSharing;
use mmt_profile::{collect_trace, profile_pair, RedundancyProfile};
use mmt_sim::config::FetchPolicy;
use mmt_sim::hw_cost::{total_storage_bits, TABLE3};
use mmt_sim::{FetchStyle, MmtLevel, SimConfig, SimResult, TraceConfig};
use mmt_workloads::{all_apps, App};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles between `ArchState` checkpoints of each simulation when
/// `--resume-dir` is active.
const CHECKPOINT_EVERY: u64 = 50_000;

/// The settings shared by every figure, parsed from the `mmtfig` flags.
#[derive(Debug, Clone)]
pub struct Options {
    /// Hardware threads (`--threads`, default 2); Figures 1, 2 and 6 fix
    /// their own thread counts.
    pub threads: usize,
    /// Workload size divisor (`--scale`, default full scale).
    pub scale: u64,
    /// Worker-pool size (`--jobs`, default one per core).
    pub jobs: usize,
    /// Per-row deadline (`--deadline-secs`) and retry policy.
    pub supervision: Supervision,
    /// Where every run drops its pipeline trace (`--trace-dir`).
    pub trace_dir: Option<PathBuf>,
    /// Row cache and checkpoints (`--resume-dir`).
    pub resume: Option<ResumeDir>,
}

impl Options {
    /// Parse the figure flags, exiting with a usage error (status 2) on
    /// anything malformed.
    pub fn from_args(args: &[String]) -> Options {
        let deadline = arg_value(args, "--deadline-secs").map(|v| match v.parse() {
            Ok(secs) if secs > 0.0 && secs < 1e9 => Duration::from_secs_f64(secs),
            _ => fail_usage(false, format!("--deadline-secs takes seconds, got '{v}'")),
        });
        let resume = resume_dir_arg(args).map(|dir| {
            let opened = ResumeDir::open(&dir);
            opened.unwrap_or_else(|e| fail_usage(false, format!("cannot open --resume-dir: {e}")))
        });
        Options {
            threads: threads_arg(args, false, 2),
            scale: scale_arg(args, false, FULL_SCALE),
            jobs: jobs_arg(args, false),
            supervision: Supervision {
                deadline,
                ..Supervision::default()
            },
            trace_dir: trace_dir_arg(args),
            resume,
        }
    }
}

/// One table entry: a figure's identity, its per-app rows and how they
/// print.
pub struct Figure {
    /// Name on the `mmtfig` command line.
    pub name: &'static str,
    /// Telemetry lands in `results/BENCH_<bench>.json`; `None` for
    /// figures that run no cycle-level simulation.
    pub bench: Option<&'static str>,
    /// Title line; `{t}` stands for the thread count and `{panel}` for
    /// Figure 5's panel letter (`a` at 2 threads, `c` otherwise).
    pub title: &'static str,
    /// Column header line (empty for none).
    pub header: &'static str,
    /// The apps that get a row, in print order.
    pub apps: fn() -> Vec<App>,
    /// What each row computes and how the figure prints.
    pub grid: Grid,
}

impl Figure {
    /// The title line at `threads` hardware threads.
    pub fn title(&self, threads: usize) -> String {
        let panel = if threads == 2 { "a" } else { "c" };
        let title = self.title.replace("{panel}", panel);
        title.replace("{t}", &threads.to_string())
    }
}

/// The two shapes of figure grid.
pub enum Grid {
    /// One printed line per app, then a footer.
    Rows {
        /// One app's numbers.
        row: fn(&mut Runs<'_>) -> Result<Vec<f64>, String>,
        /// The line after the app-name column.
        line: fn(&App, &[f64]) -> String,
        /// Lines after the rows, from every completed row in app order
        /// (empty for none).
        footer: fn(&[Vec<f64>]) -> String,
    },
    /// A sensitivity sweep over one configuration knob: each app's
    /// MMT-FXR speedup over Base at every value, printed as one geomean
    /// line per value.
    Knob {
        /// The knob values, in print order.
        values: &'static [usize],
        /// Set the knob to a value.
        tweak: fn(&mut SimConfig, usize),
        /// A value's tag in run labels (`<app>/<tag>/base`).
        tag: fn(usize) -> String,
        /// A value's printed line, given the geomean speedup.
        line: fn(usize, f64) -> String,
    },
}

/// A knob sweep whose run labels tag each value with its number.
const fn knob(values: &'static [usize], tweak: fn(&mut SimConfig, usize), line: KnobLine) -> Grid {
    Grid::Knob {
        values,
        tweak,
        tag: |v| v.to_string(),
        line,
    }
}

type KnobLine = fn(usize, f64) -> String;

fn fig7_line(v: usize, g: f64) -> String {
    format!("{v:>4}: {g:.3}")
}

fn ablation_line(v: usize, g: f64) -> String {
    format!("{v:>6}: {g:.3}")
}

/// Figure 7(b): load/store ports, with the MSHRs scaled along.
fn set_ports(cfg: &mut SimConfig, ports: usize) {
    cfg.lsq_ports = ports;
    cfg.hierarchy.mshrs = 2 * ports;
}

fn set_alignment_slack(cfg: &mut SimConfig, slack: usize) {
    cfg.merge_alignment_slack = slack as u64;
}

/// One app's row in flight: runs simulations and records their
/// telemetry, honouring `--trace-dir` and `--resume-dir`.
pub struct Runs<'a> {
    /// The row's app.
    pub app: &'a App,
    /// Hardware threads of the next run (`--threads` to start with).
    pub threads: usize,
    /// Workload size divisor.
    pub scale: u64,
    opts: &'a Options,
    telemetry: Vec<RunTelemetry>,
}

impl<'a> Runs<'a> {
    fn new(app: &'a App, opts: &'a Options) -> Runs<'a> {
        Runs {
            app,
            threads: opts.threads,
            scale: opts.scale,
            opts,
            telemetry: Vec::new(),
        }
    }

    /// Run one simulation of the app, labelled `<app>/<tag>` in the
    /// telemetry, trace artifacts and checkpoints.
    pub fn sim(
        &mut self,
        tag: &str,
        level: MmtLevel,
        instance: Instance,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> Result<SimResult, String> {
        let (app, label) = (self.app, format!("{}/{tag}", self.app.name));
        let start = Instant::now();
        let traced = self.opts.trace_dir.is_some();
        let sim = simulator(app, self.threads, level, self.scale, instance, |cfg| {
            tweak(cfg);
            if traced {
                cfg.trace = Some(TraceConfig {
                    ring_capacity: 1 << 20,
                    window: 4096,
                });
            }
        })?;
        let result = match &self.opts.resume {
            Some(cache) => cache.run_checkpointed(&label, sim, CHECKPOINT_EVERY),
            None => sim.run(),
        };
        let result = result.map_err(|e| format!("{}: {e}", app.name))?;
        let elapsed = start.elapsed();
        if let (Some(dir), Some(trace)) = (&self.opts.trace_dir, &result.trace) {
            if let Err(e) = write_trace_files(dir, &label, trace) {
                eprintln!("warning: trace for {label} not written: {e}");
            }
        }
        let telemetry = RunTelemetry::new(label, elapsed, &result.stats);
        self.telemetry.push(telemetry);
        Ok(result)
    }

    /// The MMT-FXR speedup over Base under one tweak, from runs labelled
    /// `<app>/<tag>/base` and `<app>/<tag>/fxr`; returns the FXR run too.
    pub fn speedup(
        &mut self,
        tag: &str,
        tweak: impl Fn(&mut SimConfig),
    ) -> Result<(f64, SimResult), String> {
        let normal = Instance::Normal;
        let base = self.sim(&format!("{tag}/base"), MmtLevel::Base, normal, &tweak)?;
        let fxr = self.sim(&format!("{tag}/fxr"), MmtLevel::Fxr, normal, &tweak)?;
        Ok((speedup(&base, &fxr), fxr))
    }
}

/// A finished row: its numbers and the telemetry of its runs (also the
/// `--resume-dir` cache entry).
#[derive(serde::Serialize)]
struct Row {
    values: Vec<f64>,
    runs: Vec<RunTelemetry>,
}

impl Row {
    /// Rebuild a row from its cache entry (the vendored serde has no
    /// deserializer; resume caches read back through `mmt_obs::json`).
    fn from_json(v: &mmt_obs::json::Value) -> Option<Row> {
        let values = v.get("values")?.as_array()?.iter().map(|x| x.as_f64());
        let runs = v
            .get("runs")?
            .as_array()?
            .iter()
            .map(RunTelemetry::from_json);
        Some(Row {
            values: values.collect::<Option<_>>()?,
            runs: runs.collect::<Option<_>>()?,
        })
    }
}

/// A finished figure: what it prints and its telemetry.
pub struct FigureRun {
    /// The figure as printed on stdout.
    pub text: String,
    /// Telemetry and failed rows, in app order.
    pub report: BenchReport,
    /// Rows loaded from the `--resume-dir` cache.
    pub cache_hits: usize,
    /// Rows in the grid.
    pub rows: usize,
}

/// Compute one figure under supervision and render it.
pub fn run_figure(fig: &'static Figure, opts: &Options) -> FigureRun {
    let apps = (fig.apps)();
    let t0 = Instant::now();
    let hits = Arc::new(AtomicUsize::new(0));
    let (point_hits, point_opts) = (Arc::clone(&hits), opts.clone());
    let compute = move |app: App| {
        // A cached row belongs to one figure, thread count and scale.
        let (threads, scale) = (point_opts.threads, point_opts.scale);
        let key = format!("{}-{threads}t-s{scale}-{}", fig.name, app.name);
        let cache = point_opts.resume.as_ref();
        if let Some(row) = cache.and_then(|c| Row::from_json(&c.load(&key)?)) {
            point_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(row);
        }
        let mut runs = Runs::new(&app, &point_opts);
        let values = match &fig.grid {
            Grid::Rows { row, .. } => row(&mut runs)?,
            Grid::Knob {
                values, tweak, tag, ..
            } => values
                .iter()
                .map(|&v| Ok(runs.speedup(&tag(v), |c| tweak(c, v))?.0))
                .collect::<Result<_, String>>()?,
        };
        let row = Row {
            values,
            runs: runs.telemetry,
        };
        if let Some(Err(e)) = cache.map(|c| c.store(&key, &row)) {
            eprintln!("warning: resume cache for {key} not written: {e}");
        }
        Ok(row)
    };
    let outcomes = run_supervised(
        &apps,
        opts.jobs,
        &opts.supervision,
        |app| app.name.into(),
        compute,
    );

    let mut text = fig.title(opts.threads) + "\n";
    if !fig.header.is_empty() {
        text += &format!("{}\n", fig.header);
    }
    let (mut rows, mut telemetry, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for (app, outcome) in apps.iter().zip(outcomes) {
        match outcome {
            Ok(row) => {
                if let Grid::Rows { line, .. } = &fig.grid {
                    let _ = writeln!(text, "{:<14}{}", app.name, line(app, &row.values));
                }
                rows.push(row.values);
                telemetry.extend(row.runs);
            }
            Err(fail) => {
                let (kind, message) = (fail.kind.name(), &fail.message);
                let _ = writeln!(text, "{:<14} [{kind}: {message}]", app.name);
                failures.push(fail);
            }
        }
    }
    let footer = match &fig.grid {
        Grid::Rows { footer, .. } => footer(&rows),
        Grid::Knob { values, line, .. } => {
            let geomeans = values.iter().enumerate();
            let lines = geomeans.map(|(i, &v)| line(v, geomean(&column(&rows, i))));
            lines.collect::<Vec<_>>().join("\n")
        }
    };
    if !footer.is_empty() {
        text += &format!("{footer}\n");
    }
    let bench = fig.bench.unwrap_or(fig.name);
    let report = BenchReport::new(bench, opts.jobs, t0.elapsed(), telemetry);
    FigureRun {
        text,
        report: report.with_failures(failures),
        cache_hits: hits.load(Ordering::Relaxed),
        rows: apps.len(),
    }
}

/// Entry `i` of every row.
fn column(rows: &[Vec<f64>], i: usize) -> Vec<f64> {
    rows.iter().map(|row| row[i]).collect()
}

/// The geomean of every row's entry `i`, formatted `{:>width$.3}`.
fn geomean_cell(rows: &[Vec<f64>], i: usize, width: usize) -> String {
    format!(" {:>width$.3}", geomean(&column(rows, i)))
}

/// The two-thread trace-alignment profile of an app (Figures 1 and 2).
fn profile(r: &mut Runs<'_>) -> Result<RedundancyProfile, String> {
    let w = r.app.instance(2, r.scale);
    let mut mems = w.memories.clone();
    let mut traces = Vec::new();
    for t in 0..2 {
        let mem = match w.sharing {
            MemSharing::Shared => &mut mems[0],
            MemSharing::PerThread => &mut mems[t],
        };
        let trace = collect_trace(&w.program, mem, t, 10_000_000);
        traces.push(trace.map_err(|e| format!("{}: {e}", r.app.name))?);
    }
    Ok(profile_pair(&traces[0], &traces[1]))
}

/// The app's MMT-FXR run (Figures 5(b) and 5(d)).
fn fxr_run(r: &mut Runs<'_>) -> Result<SimResult, String> {
    r.sim("fxr", MmtLevel::Fxr, Instance::Normal, |_| {})
}

/// Figure 5: MMT-F, MMT-FX and MMT-FXR speedups over Base, then Limit's.
fn fig5_row(r: &mut Runs<'_>) -> Result<Vec<f64>, String> {
    let normal = Instance::Normal;
    let base = r.sim("base", MmtLevel::Base, normal, |_| {})?;
    let mut row = Vec::new();
    for (tag, level) in [
        ("f", MmtLevel::F),
        ("fx", MmtLevel::Fx),
        ("fxr", MmtLevel::Fxr),
    ] {
        row.push(speedup(&base, &r.sim(tag, level, normal, |_| {})?));
    }
    // Limit runs different (identical-input) work; normalize against a
    // Base run of that same workload.
    let limit_base = r.sim("limit-base", MmtLevel::Base, Instance::Limit, |_| {})?;
    let limit = r.sim("limit", MmtLevel::Fxr, Instance::Limit, |_| {})?;
    row.push(speedup(&limit_base, &limit));
    Ok(row)
}

/// Figure 6: energy per job of SMT-2, MMT-2, then the MMT-2 overhead
/// share, and the same three at 4 threads.
fn fig6_row(r: &mut Runs<'_>) -> Result<Vec<f64>, String> {
    // Jobs per run: each process of a multi-execution workload is a job,
    // and each thread of a *replicated-sweep* multi-threaded kernel
    // performs the full sweep (more threads = more work), so both
    // normalize per thread; only block-partitioned kernels split one
    // problem across threads. This keeps 2- and 4-thread runs comparable
    // (the paper's Section 5 scaling rules).
    let model = mmt_energy::EnergyModel::default();
    let mut row = Vec::new();
    for threads in [2, 4] {
        r.threads = threads;
        let jobs = if r.app.spec.index_partitioned {
            1.0
        } else {
            threads as f64
        };
        for (tag, level) in [("base", MmtLevel::Base), ("fxr", MmtLevel::Fxr)] {
            let run = r.sim(
                &format!("{threads}t/{tag}"),
                level,
                Instance::Normal,
                |_| {},
            )?;
            let e = model.energy(&run.stats.energy);
            row.push(e.total() / jobs);
            if level == MmtLevel::Fxr {
                row.push(e.overhead_fraction());
            }
        }
    }
    Ok(row)
}

/// Figure 7(a)/(c): per FHB size, the speedup and the MERGE, DETECT and
/// CATCHUP fractions.
fn fhb_row(r: &mut Runs<'_>) -> Result<Vec<f64>, String> {
    let mut row = Vec::new();
    for size in [8, 16, 32, 64, 128] {
        let (s, fxr) = r.speedup(&format!("fhb{size}"), |c| c.fhb_entries = size)?;
        let (m, d, c) = fxr.stats.fetch_modes.fractions();
        row.extend([s, m, d, c]);
    }
    Ok(row)
}

/// Software-hints ablation: the FHB and hinted speedups over Base, then
/// their MERGE fractions.
fn sync_row(r: &mut Runs<'_>) -> Result<Vec<f64>, String> {
    let base = r.sim("base", MmtLevel::Base, Instance::Normal, |_| {})?;
    let fhb = r.sim("fhb", MmtLevel::Fxr, Instance::Normal, |_| {})?;
    let hinted = r.sim("hints", MmtLevel::Fxr, Instance::Hinted, |_| {})?;
    let merge = |run: &SimResult| run.stats.fetch_modes.fractions().0;
    Ok(vec![
        speedup(&base, &fhb),
        speedup(&base, &hinted),
        merge(&fhb),
        merge(&hinted),
    ])
}

/// Barrier ablation: the free-running and barrier-phased speedups over
/// Base, then their MERGE fractions.
fn barrier_row(r: &mut Runs<'_>) -> Result<Vec<f64>, String> {
    let (mut speedups, mut merge) = (Vec::new(), Vec::new());
    for (tag, every) in [("free", 0), ("barrier", 8)] {
        let phased = Instance::Barriered(every);
        let base = r.sim(&format!("{tag}-base"), MmtLevel::Base, phased, |_| {})?;
        let fxr = r.sim(&format!("{tag}-fxr"), MmtLevel::Fxr, phased, |_| {})?;
        speedups.push(speedup(&base, &fxr));
        merge.push(fxr.stats.fetch_modes.fractions().0);
    }
    Ok([speedups, merge].concat())
}

fn shared_apps() -> Vec<App> {
    // Barriers need shared memory.
    let mut apps = all_apps();
    apps.retain(|app| app.sharing() == MemSharing::Shared);
    apps
}

fn no_footer(_: &[Vec<f64>]) -> String {
    String::new()
}

const FETCH_STYLES: [FetchStyle; 2] = [FetchStyle::TraceCache, FetchStyle::Conventional];
const FETCH_POLICIES: [FetchPolicy; 2] = [FetchPolicy::ICount, FetchPolicy::RoundRobin];

/// Every figure `mmtfig` can regenerate, in DESIGN.md §6 order.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "fig1",
        bench: None,
        title: "Figure 1: instruction sharing breakdown (2 threads)",
        header: "app                suite  exe-id% fetch-id%  not-id%",
        apps: all_apps,
        grid: Grid::Rows {
            row: |r| {
                let (e, f, n) = profile(r)?.fractions();
                Ok(vec![e, f, n])
            },
            line: |app, v| {
                let [e, fid, n] = [v[0], v[0] + v[1], v[2]].map(|x| x * 100.0);
                format!(" {:>9} {e:>8.1} {fid:>9.1} {n:>8.1}", app.suite.name())
            },
            footer: |rows| {
                let n = rows.len() as f64;
                let exe = rows.iter().map(|v| v[0]).sum::<f64>() / n * 100.0;
                let fid = rows.iter().map(|v| v[0] + v[1]).sum::<f64>() / n * 100.0;
                format!(
                    "{:<14} {:>9} {exe:>8.1} {fid:>9.1}\n\n(paper: ~35% execute-identical, \
                     ~88% fetch-identical on average)",
                    "average", ""
                )
            },
        },
    },
    Figure {
        name: "fig2",
        bench: None,
        title: "Figure 2: divergent path length differences (taken branches, 2 threads)",
        header: "app              divs    <=16    <=32    <=64    <=128    <=256    <=512   >512",
        apps: all_apps,
        grid: Grid::Rows {
            row: |r| {
                let p = profile(r)?;
                let hist = p.divergence_diff_histogram.iter().map(|&c| c as f64);
                Ok(std::iter::once(p.divergences as f64).chain(hist).collect())
            },
            line: |_, v| {
                let hist = v[1..].iter().map(|&c| c as u64);
                let (total, mut cum) = (hist.clone().sum::<u64>().max(1), 0);
                let mut s = format!(" {:>6}", v[0] as u64);
                for c in hist {
                    cum += c;
                    let _ = write!(s, " {:>6.1}", cum as f64 / total as f64 * 100.0);
                }
                s
            },
            footer: |_| {
                let note = "(cumulative %; paper: >=85% within 16 for all but equake and vortex)";
                format!("\n{note}")
            },
        },
    },
    Figure {
        name: "table3",
        bench: None,
        title: "Table 3: Conservative Estimate of Hardware Requirements",
        header: "Component   Description                                      Area    Delay",
        apps: Vec::new,
        grid: Grid::Rows {
            row: |_| Ok(Vec::new()),
            line: |_, _| String::new(),
            footer: |_| {
                let mut s = String::new();
                for c in TABLE3 {
                    let (name, desc, area, delay) = (c.name, c.description, c.area, c.delay);
                    let _ = writeln!(s, "{name:<11} {desc:<38} {area:>14} {delay:>8}");
                }
                let bits = total_storage_bits();
                let kib = bits as f64 / 8.0 / 1024.0;
                s + &format!("\nTotal storage: {bits} bits ({kib:.1} KiB)")
            },
        },
    },
    Figure {
        name: "fig5",
        bench: Some("fig5_speedup"),
        title: "Figure 5({panel}): speedup over Base SMT, {t} threads",
        header: "app              MMT-F  MMT-FX  MMT-FXR   Limit",
        apps: all_apps,
        grid: Grid::Rows {
            row: fig5_row,
            line: |_, v| format!(" {:>7.3} {:>7.3} {:>8.3} {:>7.3}", v[0], v[1], v[2], v[3]),
            footer: |rows| {
                let cells = [(0, 7), (1, 7), (2, 8), (3, 7)].map(|(i, w)| geomean_cell(rows, i, w));
                format!("{:<14}{}", "geomean", cells.concat())
            },
        },
    },
    Figure {
        name: "fig5b",
        bench: Some("fig5b_identified"),
        title: "Figure 5(b): identified identical instructions, {t} threads, MMT-FXR",
        header: "app              exe-id%   exe+rm%   fetch-id%  private%",
        apps: all_apps,
        grid: Grid::Rows {
            row: |r| {
                let id = fxr_run(r)?.stats.identity;
                let total = id.total().max(1) as f64;
                let counts = [
                    id.execute_identical,
                    id.execute_identical_regmerge,
                    id.fetch_identical,
                    id.private,
                ];
                Ok(counts.iter().map(|&c| c as f64 / total).collect())
            },
            line: |_, v| {
                let [e, rm, f, p] = [v[0], v[1], v[2], v[3]].map(|x| x * 100.0);
                format!(" {e:>9.1} {rm:>9.1} {f:>11.1} {p:>9.1}")
            },
            footer: no_footer,
        },
    },
    Figure {
        name: "fig5d",
        bench: Some("fig5d_fetch_modes"),
        title: "Figure 5(d): fetch-mode breakdown, {t} threads, MMT-FXR",
        header: "app              merge%  detect%  catchup%   divs remerges   <=512 tb",
        apps: all_apps,
        grid: Grid::Rows {
            row: |r| {
                let stats = fxr_run(r)?.stats;
                let (m, d, c) = stats.fetch_modes.fractions();
                let (divs, remerges) = (stats.divergences as f64, stats.remerges as f64);
                Ok(vec![m, d, c, divs, remerges, stats.remerges_within(512)])
            },
            line: |_, v| {
                let [m, d, c] = [v[0], v[1], v[2]].map(|x| x * 100.0);
                let (divs, remerges, within) = (v[3] as u64, v[4] as u64, v[5] * 100.0);
                format!(" {m:>8.1} {d:>8.1} {c:>9.1} {divs:>6} {remerges:>8} {within:>9.0}%")
            },
            footer: |_| "\n(paper: ~90% of remerge points found within 512 taken branches)".into(),
        },
    },
    Figure {
        name: "fig6",
        bench: Some("fig6_energy"),
        title: "Figure 6: energy per job, normalized to SMT (2 threads)",
        header: "app              SMT-2   MMT-2   SMT-4   MMT-4     ovh-2 %   ovh-4 %",
        apps: all_apps,
        grid: Grid::Rows {
            row: fig6_row,
            line: |_, v| {
                let (smt2, mmt2, smt4, mmt4) = (v[0], v[1], v[3], v[4]);
                let [ovh2, ovh4] = [v[2], v[5]].map(|x| x * 100.0);
                let [mmt2, smt4, mmt4] = [mmt2, smt4, mmt4].map(|x| x / smt2);
                let ratios = format!("{:>7.3} {mmt2:>7.3} {smt4:>7.3} {mmt4:>7.3}", 1.0);
                format!(" {ratios}   {ovh2:>8.2}% {ovh4:>8.2}%")
            },
            footer: |rows| {
                let ratios4: Vec<f64> = rows.iter().map(|v| v[4] / v[3]).collect();
                let g = geomean(&ratios4);
                format!("\nMMT-4 / SMT-4 energy geomean: {g:.3} (paper: ~0.66, range 0.50-0.90)")
            },
        },
    },
    Figure {
        name: "fig7a",
        bench: Some("fig7_fhb"),
        title: "Figure 7(a)/(c): FHB size sweep, {t} threads, MMT-FXR",
        header: "app                 8e m/d/c     16e m/d/c     32e m/d/c     64e m/d/c    128e m/d/c",
        apps: all_apps,
        grid: Grid::Rows {
            row: fhb_row,
            line: |_, v| {
                let mut s = String::new();
                for cell in v.chunks(4) {
                    let [m, d, c] = [cell[1], cell[2], cell[3]].map(|x| x * 100.0);
                    let _ = write!(s, " {:>5.2} {m:>2.0}/{d:>2.0}/{c:>2.0}", cell[0]);
                }
                s
            },
            footer: |_| {
                let note = "(speedup then %insts fetched in MERGE/DETECT/CATCHUP per FHB size)";
                format!("\n{note}")
            },
        },
    },
    Figure {
        name: "fig7b",
        bench: Some("fig7_ports"),
        title: "Figure 7(b): speedup vs load/store ports (MSHRs scaled along), {t} threads, MMT-FXR geomean over all apps",
        header: "",
        apps: all_apps,
        grid: knob(&[2, 4, 6, 8, 12], set_ports, fig7_line),
    },
    Figure {
        name: "fig7d",
        bench: Some("fig7_width"),
        title: "Figure 7(d): speedup vs fetch width, {t} threads, MMT-FXR geomean over all apps",
        header: "",
        apps: all_apps,
        grid: knob(&[4, 8, 16, 32], |cfg, v| cfg.fetch_width = v, fig7_line),
    },
    Figure {
        name: "ablation-sync",
        bench: Some("ablations_sync"),
        title: "Ablation: FHB hardware vs software remerge hints ({t} threads, MMT-FXR speedup over Base)",
        header: "app                 FHB    hints   FHB mrg%  hint mrg%",
        apps: all_apps,
        grid: Grid::Rows {
            row: sync_row,
            line: |_, v| {
                let (m_fhb, m_hint) = (v[2] * 100.0, v[3] * 100.0);
                format!(" {:>8.3} {:>8.3} {m_fhb:>9.1}% {m_hint:>9.1}%", v[0], v[1])
            },
            footer: |rows| {
                let cells = geomean_cell(rows, 0, 8) + &geomean_cell(rows, 1, 8);
                format!(
                    "{:<14}{cells}   (paper: the hardware FHB removes the need for hints;\n{:>14} \
                     comparable results validate that claim)",
                    "geomean", ""
                )
            },
        },
    },
    Figure {
        name: "ablation-align",
        bench: Some("ablations_align"),
        title: "Ablation: merge-alignment slack (instructions) ({t} threads, MMT-FXR geomean speedup over Base)",
        header: "",
        apps: all_apps,
        grid: knob(&[16, 64, 256, 1024, 4096], set_alignment_slack, ablation_line),
    },
    Figure {
        name: "ablation-lvip",
        bench: Some("ablations_lvip"),
        title: "Ablation: LVIP entries ({t} threads, MMT-FXR geomean speedup over Base)",
        header: "",
        apps: all_apps,
        grid: knob(&[64, 512, 4096], |cfg, v| cfg.lvip_entries = v, ablation_line),
    },
    Figure {
        name: "ablation-fetchstyle",
        bench: Some("ablations_fetchstyle"),
        title: "Ablation: trace-cache vs conventional fetch ({t} threads; paper §5 reports the difference is negligible)",
        header: "app                 trace  conventional",
        apps: all_apps,
        grid: Grid::Knob {
            values: &[0, 1],
            tweak: |cfg, v| cfg.fetch_style = FETCH_STYLES[v],
            tag: |v| format!("{:?}", FETCH_STYLES[v]),
            line: |v, g| format!("geomean {:?}: {g:.3}", FETCH_STYLES[v]),
        },
    },
    Figure {
        name: "ablation-prefetch",
        bench: Some("ablations_prefetch"),
        title: "Ablation: next-line prefetch (0=off, 1=on) ({t} threads, MMT-FXR geomean speedup over Base)",
        header: "",
        apps: all_apps,
        grid: knob(&[0, 1], |cfg, v| cfg.hierarchy.prefetch = v != 0, ablation_line),
    },
    Figure {
        name: "ablation-barrier",
        bench: Some("ablations_barrier"),
        title: "Ablation: barrier-phased kernels ({t} threads, MMT-FXR speedup over Base, MERGE residency)",
        header: "app                  free  barriered  free mrg%  barr mrg%",
        apps: shared_apps,
        grid: Grid::Rows {
            row: barrier_row,
            line: |_, v| {
                let (m_free, m_barr) = (v[2] * 100.0, v[3] * 100.0);
                format!(" {:>10.3} {:>10.3} {m_free:>9.1}% {m_barr:>9.1}%", v[0], v[1])
            },
            footer: no_footer,
        },
    },
    Figure {
        name: "ablation-fetchpolicy",
        bench: Some("ablations_fetchpolicy"),
        title: "Ablation: fetch policy (0=ICOUNT, 1=round-robin) ({t} threads, MMT-FXR geomean speedup over Base)",
        header: "",
        apps: all_apps,
        grid: knob(&[0, 1], |c, v| c.fetch_policy = FETCH_POLICIES[v], ablation_line),
    },
];
