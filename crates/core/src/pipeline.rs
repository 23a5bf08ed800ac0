//! The cycle-level out-of-order SMT pipeline with the MMT mechanisms.
//!
//! ## Model
//!
//! The simulator is *oracle-functional, cycle-level timing*: every dynamic
//! instruction is functionally executed (per thread, in program order) at
//! fetch, producing exact operand/result values, effective addresses and
//! branch outcomes ([`mmt_isa::interp::StepInfo`]). The timing model then
//! determines *when* everything happens: fetch-width and fetch-entity
//! limits, decode latency, rename width, issue width, functional-unit and
//! load/store-port contention, cache latencies with MSHR-limited miss
//! parallelism, ROB/LSQ/IQ occupancy, and in-order per-thread commit.
//!
//! Documented simplifications (standard for trace-driven reproduction and
//! noted in DESIGN.md): wrong-path instructions are not fetched — a
//! mispredicted control transfer instead blocks that thread's fetch until
//! the branch executes, plus a redirect penalty; LVIP rollbacks charge the
//! same penalty; stores are performed at issue; memory disambiguation is
//! oracle-exact (no speculative reordering violations).
//!
//! ## MMT mechanisms (Section 4)
//!
//! * Shared fetch with ITID tagging; MERGE/DETECT/CATCHUP synchronization
//!   via per-thread Fetch History Buffers ([`mmt_frontend::FetchSync`]).
//! * The splitter stage between decode and rename
//!   ([`crate::split::split_instruction_at`]) driven by the Register
//!   Sharing Table, with LVIP-gated merged multi-execution loads.
//! * Commit-time register merging with mapping-validity tracking and
//!   port-limited value comparisons.

use crate::config::{FetchPolicy, FetchStyle, SimConfig, SyncPolicy};
use crate::itid::Itid;
use crate::lvip::Lvip;
use crate::rst::RegSharingTable;
use crate::snapshot::{self, ArchState};
use crate::split::{split_instruction_at, PartList, SplitPart};
use crate::stats::SimStats;
use mmt_frontend::{Btb, FetchSync, Ras, SyncMode, TwoLevelPredictor};
use mmt_isa::interp::{Machine, Memory, StepInfo};
use mmt_isa::reg::NUM_REGS;
use mmt_isa::{Inst, MemSharing, OpClass, Program, Reg, MAX_THREADS};
use mmt_obs::{
    FaultUnit, FetchKind, LvipOutcome, ModeTag, ModeTrigger, Occupancy, SplitCause, SplitKind,
    TraceEvent, WatchdogKind,
};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// A workload instance ready to simulate.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The (shared) program text.
    pub program: Program,
    /// Memory model: one shared memory (multi-threaded) or one per thread
    /// (multi-execution).
    pub sharing: MemSharing,
    /// Initial memories: exactly 1 for [`MemSharing::Shared`], exactly
    /// `threads` for [`MemSharing::PerThread`].
    pub memories: Vec<Memory>,
    /// Number of hardware threads to run.
    pub threads: usize,
}

impl RunSpec {
    /// The reset-state architectural checkpoint for this workload: fresh
    /// machines at PC 0 over the spec's *initialized* memory images. The
    /// starting point for a fast-forward ([`crate::Ffwd`]) leg that
    /// replaces a detailed run from cycle 0.
    pub fn initial_arch_state(&self) -> ArchState {
        ArchState {
            cycle: 0,
            config_digest: 0,
            sharing: self.sharing,
            threads: (0..self.threads).map(Machine::new).collect(),
            memories: self.memories.clone(),
            rst: None,
            lvip: None,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    BadConfig(String),
    /// The spec's memories do not match its sharing/threads.
    BadSpec(String),
    /// A thread faulted (PC or memory out of bounds).
    Exec(mmt_isa::interp::ExecError),
    /// `max_cycles` elapsed before all threads finished.
    CycleLimit {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// The pipeline's divergence bookkeeping went inconsistent: a thread
    /// named in a fetch group was missing the per-member step
    /// information the front end is required to record for it. This is a
    /// simulator bug surfaced as a diagnostic rather than a panic.
    Desync {
        /// Fetch PC of the instruction being processed.
        pc: u64,
        /// The thread whose state was inconsistent.
        thread: usize,
        /// What the pipeline was doing when it noticed.
        context: &'static str,
    },
    /// A structural invariant failed in [`Simulator::validate`] (only
    /// produced when the `check-invariants` feature is enabled).
    Invariant(String),
    /// The livelock watchdog fired: no thread retired an instruction for
    /// [`crate::WatchdogConfig::livelock_window`] consecutive cycles
    /// while the run was not finished.
    LivelockDetected {
        /// The configured no-retirement window that elapsed.
        window: u64,
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The memory-budget watchdog fired: the total touched-memory
    /// footprint exceeded
    /// [`crate::WatchdogConfig::memory_budget_words`].
    MemoryBudgetExceeded {
        /// The configured budget in words.
        budget_words: usize,
        /// Touched words at the time of the check.
        used_words: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
            SimError::BadSpec(m) => write!(f, "invalid run spec: {m}"),
            SimError::Exec(e) => write!(f, "thread faulted: {e}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::Desync {
                pc,
                thread,
                context,
            } => write!(f, "pipeline desync at pc {pc}, thread {thread}: {context}"),
            SimError::Invariant(m) => write!(f, "invariant violation: {m}"),
            SimError::LivelockDetected { window, cycle } => write!(
                f,
                "livelock detected: no retirement for {window} cycles (at cycle {cycle})"
            ),
            SimError::MemoryBudgetExceeded {
                budget_words,
                used_words,
            } => write!(
                f,
                "memory budget exceeded: {used_words} words touched, budget {budget_words}"
            ),
        }
    }
}

impl Error for SimError {}

impl From<mmt_isa::interp::ExecError> for SimError {
    fn from(e: mmt_isa::interp::ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All statistics.
    pub stats: SimStats,
    /// Final architected register values per thread (functional ground
    /// truth — identical across MMT levels for the same workload).
    pub final_regs: Vec<[u64; NUM_REGS]>,
    /// Every merged dispatch, when [`SimConfig::record_merge_log`] was
    /// set (empty otherwise). Consumed by the `mmt-analysis` differential
    /// oracle.
    pub merge_log: Vec<crate::audit::MergeEvent>,
    /// The pipeline trace, when [`SimConfig::trace`] was set (`None`
    /// otherwise): typed event stream, windowed metrics series, and the
    /// metadata the `mmt-obs` exporters need.
    pub trace: Option<mmt_obs::Trace>,
    /// The phase-profiling metrics snapshot, when
    /// [`SimConfig::metrics`] was set (`None` otherwise): per-stage
    /// wall-clock histograms plus the headline `SimStats` counters,
    /// exportable as JSON or Prometheus text.
    pub metrics: Option<mmt_obs::MetricsSnapshot>,
}

type UopId = usize;

#[derive(Debug, Clone)]
struct MacroOp {
    pc: u64,
    inst: Inst,
    itid: Itid,
    infos: [Option<StepInfo>; MAX_THREADS],
    ready_at: u64,
    /// Members fetched while *not* in MERGE mode (register-merge
    /// eligibility, Section 4.2.7).
    detect_mask: u8,
    /// Threads whose fetch is blocked until this instruction's uop
    /// resolves (mispredicted control transfers).
    blocks_mask: u8,
}

/// Sentinel for "blocked on a uop that has not been dispatched yet".
const PENDING_UOP: UopId = usize::MAX;

/// A thread only enters CATCHUP when its progress since the last sync
/// event trails the other thread's by at least this many instructions
/// (filters the loop ambiguity where both threads' targets sit in both
/// FHBs).
const CATCHUP_ENTRY_SLACK: u64 = 1;

/// Abort a catch-up whose "behind" thread has sprinted this far past the
/// "ahead" thread's progress without their PCs meeting — the direction
/// was wrong (path-length asymmetry from detours makes progress a
/// slightly noisy measure, so allow some slack).
const CATCHUP_OVERSHOOT_SLACK: u64 = 256;

#[derive(Debug, Clone)]
struct Uop {
    /// Monotonic age. Arena slots (and with them `UopId`s) are recycled
    /// through the free-list once a uop retires, so slot indices no
    /// longer encode dispatch order — every age comparison (commit
    /// selection, store-older-than-load) uses `seq` instead.
    seq: u64,
    /// False once the slot has been reclaimed (awaiting reuse).
    live: bool,
    /// Static PC of the fetched macro-op (timing-inert; carried for
    /// issue/commit trace events).
    pc: u64,
    itid: Itid,
    inst: Inst,
    class: OpClass,
    infos: [Option<StepInfo>; MAX_THREADS],
    /// Producers this uop waits on, as `(slot, seq)` pairs: if the slot's
    /// current seq differs, the producer has retired (hence completed).
    deps: Vec<(UopId, u64)>,
    detect_mask: u8,
    /// The fetch ITID had more than one owner (even if this uop is a
    /// split singleton) — extends register-merge eligibility to
    /// fetch-identical instructions the RST pessimistically split.
    fetched_merged: bool,
    issued: bool,
    complete_at: Option<u64>,
    committed_mask: u8,
    is_mem: bool,
    /// D-cache accesses this uop performs (per-thread for ME, 1 for MT).
    accesses: usize,
}

impl Uop {
    fn completed(&self, now: u64) -> bool {
        self.issued && self.complete_at.is_some_and(|c| c <= now)
    }

    /// Placeholder occupying a freshly grown arena slot until dispatch
    /// fills it.
    fn vacant() -> Uop {
        Uop {
            seq: 0,
            live: false,
            pc: 0,
            itid: Itid::single(0),
            inst: Inst::Halt,
            class: OpClass::IntAlu,
            infos: [None; MAX_THREADS],
            deps: Vec::new(),
            detect_mask: 0,
            fetched_merged: false,
            issued: false,
            complete_at: None,
            committed_mask: 0,
            is_mem: false,
            accesses: 0,
        }
    }
}

/// Reusable per-cycle buffers for the stages whose working sets can
/// exceed the fixed `MAX_THREADS` bound (issue width, rename width).
/// Allocated once in [`Simulator::new`] and recycled every cycle, so the
/// steady-state cycle loop performs no heap allocation; any post-warmup
/// growth is counted in [`SimStats::scratch_growth_events`].
#[derive(Debug, Default)]
struct Scratch {
    /// Uops selected by the issue stage this cycle.
    issued_ids: Vec<UopId>,
    /// Uop ids created by the dispatch stage for one macro-op.
    created: Vec<UopId>,
}

/// Push that counts heap growth: the telemetry behind
/// [`SimStats::scratch_growth_events`].
#[inline]
fn push_counted<T>(v: &mut Vec<T>, x: T, growth_events: &mut u64) {
    if v.len() == v.capacity() {
        *growth_events += 1;
    }
    v.push(x);
}

/// Clone a vector preserving its *capacity*, not just its contents.
/// `Vec::clone` allocates to fit the length; the checkpoint/restore path
/// must preserve capacities so every [`push_counted`] growth event fires
/// identically in the original and the restored run.
#[allow(clippy::ptr_arg)] // capacity() requires the owning Vec
fn clone_keep_cap<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend(v.iter().cloned());
    out
}

/// [`clone_keep_cap`] for `VecDeque`s (commit and decode queues).
fn clone_deque_keep_cap<T: Clone>(q: &VecDeque<T>) -> VecDeque<T> {
    let mut out = VecDeque::with_capacity(q.capacity());
    out.extend(q.iter().cloned());
    out
}

/// A full-fidelity checkpoint of a detailed-model run, produced by
/// [`Simulator::checkpoint`]. Opaque and in-memory only — it captures
/// *micro-architectural* state (queues, arenas, predictors, statistics),
/// which is exactly what makes restores bit-identical and what the
/// portable JSON [`ArchState`] format deliberately leaves out.
#[derive(Debug)]
pub struct Checkpoint(Box<Simulator>);

impl Checkpoint {
    /// The cycle the checkpoint was captured at.
    pub fn cycle(&self) -> u64 {
        self.0.now
    }

    /// Materialize an independent simulator continuing from the captured
    /// state. May be called any number of times — each restore is a fork.
    pub fn restore(&self) -> Simulator {
        self.0.deep_clone()
    }

    /// The architectural slice of the captured state (the portable
    /// mode-handoff payload).
    pub fn arch_state(&self) -> ArchState {
        self.0.arch_state()
    }
}

#[derive(Debug, Clone)]
struct ThreadState {
    machine: Machine,
    mem_idx: usize,
    /// Fetched the `halt` instruction.
    halted_fetch: bool,
    /// Fetch blocked until this cycle (i-cache miss, redirect penalty).
    blocked_until: u64,
    /// Fetch blocked until this uop completes (misprediction/rollback).
    blocked_on: Option<UopId>,
    /// Uops in flight (ICOUNT fetch policy).
    inflight: u64,
    /// Taken branches since last divergence (remerge-distance stat).
    branches_since_diverge: u64,
    /// Software-hint mode: cycle at which this thread parked at a
    /// remerge-hint PC (None = not parked).
    hint_parked_since: Option<u64>,
    /// Software-hint mode: hint PC to skip after a park timed out (so the
    /// thread does not immediately re-park on the same instruction).
    hint_skip_pc: Option<u64>,

    /// In-flight writer counts per architected register (incremented at
    /// fetch, decremented at commit) — the paper's "Reg State" bit
    /// vector generalized to a counter.
    writers: [u32; NUM_REGS],
    /// Committed architected register values.
    commit_regs: [u64; NUM_REGS],
    /// Per-thread program-order commit queue.
    commit_queue: VecDeque<UopId>,
    retired: u64,
}

/// The simulator. Construct with [`Simulator::new`], run with
/// [`Simulator::run`].
///
/// # Examples
///
/// ```
/// use mmt_sim::{RunSpec, SimConfig, Simulator, MmtLevel};
/// use mmt_isa::{asm::Builder, interp::Memory, MemSharing, Reg};
///
/// let mut b = Builder::new();
/// b.addi(Reg::R1, Reg::R0, 41);
/// b.addi(Reg::R1, Reg::R1, 1);
/// b.halt();
/// let spec = RunSpec {
///     program: b.build()?,
///     sharing: MemSharing::Shared,
///     memories: vec![Memory::new(0)],
///     threads: 2,
/// };
/// let cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
/// let result = Simulator::new(cfg, spec)?.run()?;
/// assert_eq!(result.final_regs[0][Reg::R1.index()], 42);
/// assert_eq!(result.final_regs[1][Reg::R1.index()], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    program: Program,
    sharing: MemSharing,
    memories: Vec<Memory>,
    threads: Vec<ThreadState>,
    now: u64,

    // Forward-progress watchdog bookkeeping (DESIGN.md §15): the total
    // retired count last time progress was seen, and when.
    wd_last_retired: u64,
    wd_last_progress: u64,

    // Front end.
    sync: FetchSync,
    bpred: TwoLevelPredictor,
    btb: Btb,
    rases: Vec<Ras>,
    hierarchy: mmt_mem::MemoryHierarchy,
    decode_queue: VecDeque<MacroOp>,
    decode_capacity: usize,

    // MMT structures.
    rst: RegSharingTable,
    lvip: Lvip,

    // Back end.
    uops: Vec<Uop>,
    /// Retired arena slots awaiting reuse — bounds the arena (and its
    /// memory) by the ROB size instead of the dynamic instruction count.
    free_uops: Vec<UopId>,
    /// Next value of [`Uop::seq`].
    next_seq: u64,
    iq: Vec<UopId>,
    rob_live: usize,
    lsq_live: usize,
    /// Per-thread in-flight stores `(uop id, word address)`.
    store_lists: Vec<Vec<(UopId, u64)>>,
    /// Latest in-flight producer per thread per architected register.
    rat: Vec<[Option<UopId>; NUM_REGS]>,

    /// Pairwise retirement snapshots taken the last time each thread
    /// pair was synchronized (merged together, or split apart by the
    /// same divergence). Progress comparisons between two threads are
    /// only meaningful from a common epoch: per-thread baselines go
    /// stale as soon as the threads synchronize with *different*
    /// partners at different times.
    pair_sync: [[(u64, u64); MAX_THREADS]; MAX_THREADS],

    dbg_merge_fail_writers: u64,
    dbg_merge_fail_compare: u64,
    dbg_idle_cycles: u64,
    dbg_unmerged_cycles: u64,
    dbg_stall_frontend: u64,
    dbg_stall_rob: u64,
    dbg_stall_iq: u64,
    dbg_stall_other: u64,
    dbg_dispatch_hist: [u64; 9],
    stats: SimStats,
    merge_log: Vec<crate::audit::MergeEvent>,
    /// Tracing recorder ([`SimConfig::trace`]); `None` compiles every
    /// emission site down to one pointer test.
    obs: Option<Box<mmt_obs::ObsRecorder>>,
    /// Phase self-profiler ([`SimConfig::metrics`]); host-clock only,
    /// never reads or writes simulated state.
    metrics: Option<Box<crate::SimMetrics>>,

    // Hot-path caches: per-cycle scratch buffers and debug-env flags
    // looked up once at construction instead of every cycle/branch.
    scratch: Scratch,
    trace: Option<std::ops::Range<u64>>,
    dbg_sync: bool,
    dbg_div: bool,
    dbg_merge: bool,
}

impl Simulator {
    /// Build a simulator for one run.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] / [`SimError::BadSpec`] when the
    /// configuration or spec is inconsistent.
    pub fn new(cfg: SimConfig, spec: RunSpec) -> Result<Simulator, SimError> {
        Simulator::with_hierarchy(cfg, spec, None)
    }

    /// [`Simulator::new`] around `hierarchy` when given (already checked
    /// against `cfg.hierarchy`), else around a cold one.
    fn with_hierarchy(
        cfg: SimConfig,
        spec: RunSpec,
        hierarchy: Option<mmt_mem::MemoryHierarchy>,
    ) -> Result<Simulator, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        let expected_mems = match spec.sharing {
            MemSharing::Shared => 1,
            MemSharing::PerThread => spec.threads,
        };
        if spec.memories.len() != expected_mems {
            return Err(SimError::BadSpec(format!(
                "{:?} workload with {} threads needs {} memories, got {}",
                spec.sharing,
                spec.threads,
                expected_mems,
                spec.memories.len()
            )));
        }
        if spec.threads != cfg.threads {
            return Err(SimError::BadSpec(format!(
                "spec has {} threads but config has {}",
                spec.threads, cfg.threads
            )));
        }
        if spec.program.is_empty() {
            return Err(SimError::BadSpec("empty program".into()));
        }

        let n = spec.threads;
        let threads = (0..n)
            .map(|t| ThreadState {
                machine: Machine::new(t),
                mem_idx: match spec.sharing {
                    MemSharing::Shared => 0,
                    MemSharing::PerThread => t,
                },
                halted_fetch: false,
                blocked_until: 0,
                blocked_on: None,
                inflight: 0,
                branches_since_diverge: 0,
                hint_parked_since: None,
                hint_skip_pc: None,
                writers: [0; NUM_REGS],
                commit_regs: [0; NUM_REGS],
                commit_queue: VecDeque::with_capacity(cfg.rob_size),
                retired: 0,
            })
            .collect();

        let stats = SimStats {
            retired_per_thread: vec![0; n],
            pc_profile: if cfg.record_pc_profile {
                vec![crate::stats::PcCounters::default(); spec.program.len()]
            } else {
                Vec::new()
            },
            ..SimStats::default()
        };

        Ok(Simulator {
            sync: FetchSync::new(n, cfg.fhb_entries),
            bpred: TwoLevelPredictor::new(cfg.predictor, n),
            btb: Btb::new(cfg.btb_entries),
            rases: (0..n).map(|_| Ras::new(cfg.ras_depth)).collect(),
            hierarchy: hierarchy.unwrap_or_else(|| mmt_mem::MemoryHierarchy::new(cfg.hierarchy)),
            decode_queue: VecDeque::with_capacity(cfg.fetch_width * 4 + 1),
            decode_capacity: cfg.fetch_width * 4,
            rst: RegSharingTable::new_all_shared(),
            lvip: Lvip::new(cfg.lvip_entries),
            uops: Vec::with_capacity(cfg.rob_size + cfg.rename_width),
            free_uops: Vec::with_capacity(cfg.rob_size + cfg.rename_width),
            next_seq: 0,
            iq: Vec::with_capacity(cfg.iq_size + 1),
            rob_live: 0,
            lsq_live: 0,
            store_lists: (0..n).map(|_| Vec::with_capacity(cfg.lsq_size)).collect(),
            rat: (0..n).map(|_| [None; NUM_REGS]).collect(),
            pair_sync: [[(0, 0); MAX_THREADS]; MAX_THREADS],
            dbg_merge_fail_writers: 0,
            dbg_merge_fail_compare: 0,
            dbg_idle_cycles: 0,
            dbg_unmerged_cycles: 0,
            dbg_stall_frontend: 0,
            dbg_stall_rob: 0,
            dbg_stall_iq: 0,
            dbg_stall_other: 0,
            dbg_dispatch_hist: [0; 9],
            merge_log: Vec::new(),
            obs: cfg.trace.as_ref().map(|tc| {
                Box::new(mmt_obs::ObsRecorder::new(
                    tc,
                    n,
                    n >= 2 && cfg.level.shared_fetch(),
                ))
            }),
            metrics: cfg.metrics.then(|| Box::new(crate::SimMetrics::new())),
            scratch: Scratch {
                issued_ids: Vec::with_capacity(cfg.issue_width),
                created: Vec::with_capacity(cfg.rename_width),
            },
            trace: trace_range(),
            dbg_sync: std::env::var_os("MMT_DEBUG_SYNC").is_some(),
            dbg_div: std::env::var_os("MMT_DEBUG_DIV").is_some(),
            dbg_merge: std::env::var_os("MMT_DEBUG_MERGE").is_some(),
            threads,
            now: 0,
            wd_last_retired: 0,
            wd_last_progress: 0,
            program: spec.program,
            sharing: spec.sharing,
            memories: spec.memories,
            stats,
            cfg,
        })
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] if a thread faults, [`SimError::CycleLimit`] if
    /// the configured cycle cap is reached.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        while !self.finished() {
            self.step_cycle()?;
        }
        Ok(self.finish())
    }

    /// Advance the machine by one cycle (commit, issue, dispatch, fetch).
    ///
    /// [`Simulator::run`] is a loop over this; it is public so tests and
    /// checkers can observe — or deliberately corrupt — mid-flight state
    /// between cycles. With the `check-invariants` feature enabled,
    /// [`Simulator::validate`] runs after every cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] if a thread faults, [`SimError::CycleLimit`]
    /// once `max_cycles` have elapsed, [`SimError::Desync`] on
    /// inconsistent divergence bookkeeping, and (under `check-invariants`)
    /// [`SimError::Invariant`] when a structural audit fails.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        {
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            self.check_watchdogs()?;
            if self.rob_live == 0 && self.decode_queue.is_empty() {
                self.dbg_idle_cycles += 1;
            }
            if self.cfg.level.shared_fetch() {
                let n = self.threads.len();
                let unmerged =
                    (0..n).any(|t| !self.threads[t].halted_fetch && !self.sync.is_merged(t));
                if unmerged {
                    self.dbg_unmerged_cycles += 1;
                    let retired0 = self.stats.energy.commits;
                    let _ = retired0;
                }
            }
            let disp_before = self.stats.uops_dispatched;
            let commits0 = self.stats.energy.commits;
            let exec0 = self.stats.uops_executed;
            let disp0 = self.stats.uops_dispatched;
            let fetch0 = self.stats.macro_ops_fetched;
            self.timed_phase(crate::SimPhase::Commit, Simulator::commit_stage);
            self.timed_phase(crate::SimPhase::Issue, Simulator::issue_stage);
            self.timed_phase(crate::SimPhase::Dispatch, Simulator::dispatch_stage);
            let disp_now = self.stats.uops_dispatched - disp_before;
            self.dbg_dispatch_hist[disp_now.min(8) as usize] += 1;
            if disp_now == 0 {
                let head_ready = self
                    .decode_queue
                    .front()
                    .is_some_and(|m| m.ready_at <= self.now);
                if !head_ready {
                    self.dbg_stall_frontend += 1;
                } else if self.rob_live + 4 > self.cfg.rob_size {
                    self.dbg_stall_rob += 1;
                } else if self.iq.len() + 4 > self.cfg.iq_size {
                    self.dbg_stall_iq += 1;
                } else {
                    self.dbg_stall_other += 1;
                }
            }
            self.timed_phase(crate::SimPhase::Fetch, Simulator::fetch_stage)?;
            if let Some(range) = self.trace.clone() {
                if range.contains(&self.now) {
                    eprintln!(
                        "cyc {:4} fetch {} disp {} exec {} commit {} | dq {} iq {} rob {} blocked {:?}",
                        self.now,
                        self.stats.macro_ops_fetched - fetch0,
                        self.stats.uops_dispatched - disp0,
                        self.stats.uops_executed - exec0,
                        self.stats.energy.commits - commits0,
                        self.decode_queue.len(),
                        self.iq.len(),
                        self.rob_live,
                        self.threads
                            .iter()
                            .map(|t| (t.blocked_until, t.blocked_on))
                            .collect::<Vec<_>>(),
                    );
                }
            }
            if let Some(obs) = self.obs.as_deref_mut() {
                if obs.window_due(self.now) {
                    obs.sample_window(
                        self.now,
                        Occupancy {
                            rob: self.rob_live as u32,
                            lsq: self.lsq_live as u32,
                            iq: self.iq.len() as u32,
                            arena: self.uops.len() as u32,
                        },
                    );
                }
            }
            self.now += 1;
        }
        #[cfg(feature = "check-invariants")]
        self.validate().map_err(SimError::Invariant)?;
        Ok(())
    }

    /// Finalize statistics and extract the [`SimResult`].
    ///
    /// Normally called through [`Simulator::run`]; callers driving the
    /// machine with [`Simulator::step_cycle`] call it themselves once
    /// [`Simulator::finished`] reports true (calling earlier just yields
    /// a snapshot of a partial run).
    pub fn finish(mut self) -> SimResult {
        self.stats.cycles = self.now;
        for t in 0..self.threads.len() {
            self.stats.retired_per_thread[t] = self.threads[t].retired;
        }
        self.stats.l1i = self.hierarchy.l1i_stats();
        self.stats.l1d = self.hierarchy.l1d_stats();
        self.stats.l2 = self.hierarchy.l2_stats();
        self.stats.lvip_lookups = self.lvip.lookup_count();
        self.stats.lvip_mispredicts = self.lvip.mispredict_count();
        if self.dbg_merge {
            eprintln!(
                "merge-check: sets={} fail_writers={} fail_compare={} idle_cycles={}",
                self.rst.merge_set_count(),
                self.dbg_merge_fail_writers,
                self.dbg_merge_fail_compare,
                self.dbg_idle_cycles
            );
            eprintln!(
                "dispatch hist: {:?} unmerged_cycles={}",
                self.dbg_dispatch_hist, self.dbg_unmerged_cycles
            );
            eprintln!(
                "stalls: frontend={} rob={} iq={} other={}",
                self.dbg_stall_frontend,
                self.dbg_stall_rob,
                self.dbg_stall_iq,
                self.dbg_stall_other
            );
        }
        let (_, catchup_aborts, merges, divergences) = self.sync.stats();
        self.stats.remerges = merges;
        self.stats.divergences = divergences;
        self.stats.catchup_false_positives = catchup_aborts;
        let (fhb_rec, fhb_search) = self.sync.fhb_activity();
        self.stats.energy.fhb_ops = fhb_rec + fhb_search;
        self.stats.energy.rst_updates = self.rst.update_count();
        self.stats.energy.lvip_lookups = self.lvip.lookup_count();
        self.stats.energy.cycles = self.now;
        self.stats.energy.icache_accesses = self.stats.l1i.accesses;
        self.stats.energy.dcache_accesses = self.stats.l1d.accesses;
        self.stats.energy.l2_accesses = self.stats.l2.accesses;
        self.stats.energy.dram_accesses = self.stats.l2.misses;

        let trace = self.obs.take().map(|o| {
            o.into_trace(
                self.now,
                Occupancy {
                    rob: self.rob_live as u32,
                    lsq: self.lsq_live as u32,
                    iq: self.iq.len() as u32,
                    arena: self.uops.len() as u32,
                },
            )
        });
        let metrics = self.metrics.take().map(|mut m| {
            m.finish(&self.stats);
            m.snapshot()
        });
        let final_regs = self.threads.iter().map(|t| *t.machine.regs()).collect();
        SimResult {
            stats: self.stats,
            final_regs,
            merge_log: self.merge_log,
            trace,
            metrics,
        }
    }

    /// All threads have fetched their `halt` and drained their commit
    /// queues — nothing is left in flight.
    pub fn finished(&self) -> bool {
        self.decode_queue.is_empty()
            && self
                .threads
                .iter()
                .all(|t| t.halted_fetch && t.commit_queue.is_empty())
    }

    /// Audit structural invariants of the pipeline state.
    ///
    /// Checks, in order:
    ///
    /// 1. Register Sharing Table integrity ([`RegSharingTable::audit`]):
    ///    merge-provenance bits only on set sharing bits, no pair bits
    ///    beyond the pairs that exist.
    /// 2. ITID masks: every in-flight uop and every decode-queue entry
    ///    owns only hardware threads that exist, and a uop's committed
    ///    mask never exceeds its ownership mask.
    /// 3. Writer-counter balance: each thread's per-register in-flight
    ///    writer counters (the paper's "Reg State" vectors) must equal
    ///    the number of uncommitted uops in that thread's commit queue
    ///    that write the register — a mismatch means a leak in the
    ///    fetch-increment / commit-decrement protocol.
    ///
    /// Cost is `O(in-flight uops × threads)`, so the per-cycle call is
    /// gated behind the `check-invariants` feature; calling it manually
    /// from tests is always available.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.rst.audit()?;

        let live_mask: u8 = (1u8 << self.threads.len()) - 1;
        for (id, u) in self.uops.iter().enumerate() {
            if !u.live {
                continue; // retired slot awaiting reuse
            }
            let mask = u.itid.mask();
            if mask & !live_mask != 0 {
                return Err(format!(
                    "uop {id}: itid mask {mask:#06b} names threads beyond the {} configured",
                    self.threads.len()
                ));
            }
            if u.committed_mask & !mask != 0 {
                return Err(format!(
                    "uop {id}: committed mask {:#06b} exceeds itid mask {mask:#06b}",
                    u.committed_mask
                ));
            }
        }
        for (i, mo) in self.decode_queue.iter().enumerate() {
            let mask = mo.itid.mask();
            if mask & !live_mask != 0 {
                return Err(format!(
                    "decode entry {i} (pc {}): itid mask {mask:#06b} names threads beyond the {} configured",
                    mo.pc,
                    self.threads.len()
                ));
            }
        }

        for (t, ts) in self.threads.iter().enumerate() {
            let mut expected = [0u32; NUM_REGS];
            for &id in &ts.commit_queue {
                let u = &self.uops[id];
                if u.committed_mask & (1 << t) != 0 {
                    continue;
                }
                if let Some(rd) = u.inst.dest().filter(|r| !r.is_zero()) {
                    expected[rd.index()] += 1;
                }
            }
            for (r, &want) in expected.iter().enumerate() {
                if ts.writers[r] != want {
                    return Err(format!(
                        "thread {t}: writer counter for r{r} is {} but {want} uncommitted writers are in flight",
                        ts.writers[r]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Test hook: mutable access to the Register Sharing Table, so tests
    /// can inject corruption mid-run and prove the differential oracle /
    /// invariant audit catches it. Not part of the stable API.
    #[doc(hidden)]
    pub fn rst_mut(&mut self) -> &mut RegSharingTable {
        &mut self.rst
    }

    /// Forward-progress watchdogs (DESIGN.md §15), checked at the top of
    /// every cycle: livelock (no thread retired for the configured window
    /// while the run is unfinished) and the total touched-memory budget
    /// (sampled every 4096 cycles — footprints grow slowly relative to
    /// the cycle loop).
    fn check_watchdogs(&mut self) -> Result<(), SimError> {
        let wd = self.cfg.watchdog;
        if wd.livelock_window > 0 {
            let retired: u64 = self.threads.iter().map(|t| t.retired).sum();
            if retired != self.wd_last_retired {
                self.wd_last_retired = retired;
                self.wd_last_progress = self.now;
            } else if self.now - self.wd_last_progress >= wd.livelock_window && !self.finished() {
                self.emit(TraceEvent::Watchdog {
                    kind: WatchdogKind::Livelock,
                });
                return Err(SimError::LivelockDetected {
                    window: wd.livelock_window,
                    cycle: self.now,
                });
            }
        }
        if wd.memory_budget_words > 0 && self.now & 0xFFF == 0 {
            let used: usize = self.memories.iter().map(Memory::touched_len).sum();
            if used > wd.memory_budget_words {
                self.emit(TraceEvent::Watchdog {
                    kind: WatchdogKind::MemoryBudget,
                });
                return Err(SimError::MemoryBudgetExceeded {
                    budget_words: wd.memory_budget_words,
                    used_words: used,
                });
            }
        }
        Ok(())
    }

    /// Apply a single-event upset to live state between cycles
    /// (fault-injection campaigns, DESIGN.md §15). Emits a
    /// [`TraceEvent::FaultInjected`] when tracing is on.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSpec`] when the target is out of range for this
    /// configuration, or is a
    /// [`CheckpointByte`](crate::inject::FaultTarget::CheckpointByte)
    /// (those apply to serialized documents via
    /// [`crate::inject::flip_byte`], not to a live simulator).
    pub fn inject(&mut self, target: &crate::inject::FaultTarget) -> Result<(), SimError> {
        use crate::inject::FaultTarget as T;
        match *target {
            T::RstEntry {
                reg,
                shared_xor,
                by_merge_xor,
            } => {
                if reg == 0 || reg >= NUM_REGS {
                    return Err(SimError::BadSpec(format!(
                        "rst fault register {reg} out of range"
                    )));
                }
                self.rst.debug_xor_entry(reg, shared_xor, by_merge_xor);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::Rst,
                    index: reg as u32,
                });
            }
            T::LvipSlot { slot, bits } => {
                if slot >= self.cfg.lvip_entries {
                    return Err(SimError::BadSpec(format!(
                        "lvip fault slot {slot} out of range"
                    )));
                }
                self.lvip.debug_xor_slot(slot, bits);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::Lvip,
                    index: slot as u32,
                });
            }
            T::ArchReg { thread, reg, bits } => {
                let Some(r) = Reg::from_index(reg).filter(|r| !r.is_zero()) else {
                    return Err(SimError::BadSpec(format!(
                        "arch-reg fault register {reg} out of range"
                    )));
                };
                if thread >= self.threads.len() {
                    return Err(SimError::BadSpec(format!(
                        "arch-reg fault thread {thread} out of range"
                    )));
                }
                let m = &mut self.threads[thread].machine;
                let v = m.reg(r);
                m.set_reg(r, v ^ bits);
                self.emit(TraceEvent::FaultInjected {
                    unit: FaultUnit::ArchReg,
                    index: ((thread as u32) << 8) | reg as u32,
                });
            }
            T::CheckpointByte { .. } => {
                return Err(SimError::BadSpec(
                    "checkpoint faults apply to serialized documents, not a live simulator".into(),
                ));
            }
        }
        Ok(())
    }

    /// Test hook: park thread `t`'s fetch forever, constructing a true
    /// livelock (nothing retires, yet the run never finishes) for
    /// watchdog tests. Not part of the stable API.
    #[doc(hidden)]
    pub fn debug_hang_thread(&mut self, t: usize) {
        self.threads[t].blocked_until = u64::MAX;
    }

    /// The merge events recorded so far (empty unless
    /// [`SimConfig::record_merge_log`](crate::SimConfig) is set). Lets a
    /// driver check merges incrementally while stepping with
    /// [`Self::step_cycle`] instead of waiting for [`Self::finish`].
    pub fn merge_log(&self) -> &[crate::audit::MergeEvent] {
        &self.merge_log
    }

    // ----------------------------------------------------------------
    // Two-speed simulation: checkpoint / restore / architectural handoff
    // (see DESIGN.md §14).
    // ----------------------------------------------------------------

    /// The current cycle (the fetch boundary the architectural state
    /// corresponds to).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Dynamic instructions functionally executed so far, summed over
    /// threads. Because the model executes at fetch, this leads the
    /// committed count by the in-flight window — it is the instruction
    /// clock the sampling runner schedules windows against.
    pub fn instructions_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.machine.retired()).sum()
    }

    /// Capture a full-fidelity checkpoint of the entire pipeline state.
    ///
    /// Restoring it yields a simulator that continues *bit-identically*:
    /// every queue, predictor, arena slot, and statistics counter is
    /// preserved (scratch-vector capacities included, so even
    /// [`SimStats::scratch_growth_events`] evolves identically). One
    /// checkpoint can be restored many times — the fork point for
    /// sweep-grid runs that share a warmed prefix.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when tracing ([`SimConfig::trace`]) is
    /// active: the trace recorder's event ring is not checkpointable.
    pub fn checkpoint(&self) -> Result<Checkpoint, SimError> {
        if self.obs.is_some() {
            return Err(SimError::BadConfig(
                "cannot checkpoint a tracing run (disable SimConfig::trace)".into(),
            ));
        }
        Ok(Checkpoint(Box::new(self.deep_clone())))
    }

    /// Materialize an independent simulator from a checkpoint. Equivalent
    /// to `ckpt.restore()`.
    pub fn restore(ckpt: &Checkpoint) -> Simulator {
        ckpt.restore()
    }

    /// The architectural slice of the current state: machines, memories,
    /// and the warm RST/LVIP contents, at this cycle's fetch boundary.
    /// This is the mode-handoff payload — serializable via
    /// [`ArchState::to_json`] and executable by [`crate::Ffwd`].
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            cycle: self.now,
            config_digest: snapshot::config_digest(&self.cfg),
            sharing: self.sharing,
            threads: self.threads.iter().map(|t| t.machine.clone()).collect(),
            memories: self.memories.clone(),
            rst: Some(self.rst.entries_raw()),
            lvip: Some(self.lvip.entries().to_vec()),
        }
    }

    /// Build a simulator that starts from a checkpointed architectural
    /// state instead of reset: machines and memories are restored, fetch
    /// groups are partitioned by current PC (threads at the same PC
    /// resume merged; halted or divergent threads resume as singletons),
    /// and warm RST/LVIP state is applied when present and compatible.
    /// When the state carries no warm RST, a sound one is derived from
    /// the registers themselves (a pair shares a register iff the values
    /// are currently equal).
    ///
    /// The pipeline itself (queues, ROB, predictors) starts empty, so a
    /// resumed run's `SimStats` cover the resumed portion only; if the
    /// restored PCs are not all equal, the initial partition is counted
    /// as one divergence. For bit-identical continuation use
    /// [`Simulator::checkpoint`] instead.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] / [`SimError::BadSpec`] as
    /// [`Simulator::new`], plus [`SimError::BadSpec`] when the state's
    /// thread list is inconsistent (tids not `0..n`).
    pub fn from_arch(
        cfg: SimConfig,
        program: Program,
        state: &ArchState,
    ) -> Result<Simulator, SimError> {
        Simulator::from_arch_with(cfg, program, state, None)
    }

    /// [`Simulator::from_arch`] around `hierarchy` when given, as
    /// [`Simulator::with_hierarchy`].
    fn from_arch_with(
        cfg: SimConfig,
        program: Program,
        state: &ArchState,
        hierarchy: Option<mmt_mem::MemoryHierarchy>,
    ) -> Result<Simulator, SimError> {
        for (i, t) in state.threads.iter().enumerate() {
            if t.tid != i {
                return Err(SimError::BadSpec(format!(
                    "checkpoint thread {i} carries tid {}",
                    t.tid
                )));
            }
        }
        let spec = RunSpec {
            program,
            sharing: state.sharing,
            memories: state.memories.clone(),
            threads: state.threads.len(),
        };
        let mut sim = Simulator::with_hierarchy(cfg, spec, hierarchy)?;
        let n = sim.threads.len();

        for (ts, ta) in sim.threads.iter_mut().zip(&state.threads) {
            ts.machine = ta.clone();
            ts.halted_fetch = ta.halted;
            // With an empty pipeline the committed state *is* the
            // architected state.
            ts.commit_regs = ta.regs;
            ts.commit_regs[0] = 0;
        }

        // Progress comparisons only make sense from a common epoch:
        // re-base every pair snapshot to the restored retired counts.
        for t in 0..n {
            for u in 0..n {
                sim.pair_sync[t][u] = (
                    sim.threads[t].machine.retired(),
                    sim.threads[u].machine.retired(),
                );
            }
        }

        // Fetch groups: threads at the same (live) PC resume merged.
        if sim.cfg.level.shared_fetch() && n >= 2 {
            let mut parts: Vec<u8> = Vec::new();
            for t in 0..n {
                let bit = 1u8 << t;
                if !sim.threads[t].machine.halted() {
                    let pc = sim.threads[t].machine.pc();
                    let partner = (0..t).find(|&u| {
                        !sim.threads[u].machine.halted() && sim.threads[u].machine.pc() == pc
                    });
                    if let Some(u) = partner {
                        let part = parts.iter_mut().find(|p| **p & (1 << u) != 0).unwrap();
                        *part |= bit;
                        continue;
                    }
                }
                parts.push(bit);
            }
            if parts.len() > 1 {
                sim.sync.diverge(&parts);
            }
        }

        match &state.rst {
            Some(raw) => sim.rst.restore_raw(raw),
            None => {
                // Derive sound sharing from the values: a pair shares a
                // register exactly when the two copies are equal.
                let mut raw = [(0u8, 0u8); NUM_REGS];
                for (r, e) in raw.iter_mut().enumerate() {
                    for t in 0..n {
                        for u in (t + 1)..n {
                            if state.threads[t].regs[r] == state.threads[u].regs[r] {
                                e.0 |= 1 << crate::rst::pair_index(t, u);
                            }
                        }
                    }
                }
                sim.rst.restore_raw(&raw);
            }
        }
        if let Some(lvip) = &state.lvip {
            // Warm LVIP state only transfers between equally-sized
            // tables; otherwise start cold (a prediction-quality detail,
            // never a correctness one).
            if lvip.len() == sim.cfg.lvip_entries {
                sim.lvip.restore_entries(lvip);
            }
        }
        Ok(sim)
    }

    /// [`Simulator::from_arch`] with a functionally-warmed memory
    /// hierarchy transplanted in (quiesced first, since this simulator's
    /// cycle clock starts at zero). The sampled runner threads one
    /// hierarchy through fast-forward warming and detailed windows so
    /// cache contents stay continuous across mode switches.
    ///
    /// # Errors
    ///
    /// As [`Simulator::from_arch`], plus [`SimError::BadConfig`] when the
    /// warmed hierarchy's configuration differs from `cfg.hierarchy`.
    pub fn from_arch_warmed(
        cfg: SimConfig,
        program: Program,
        state: &ArchState,
        mut hierarchy: mmt_mem::MemoryHierarchy,
    ) -> Result<Simulator, SimError> {
        if *hierarchy.config() != cfg.hierarchy {
            return Err(SimError::BadConfig(format!(
                "warmed hierarchy {:?} does not match the run's memory configuration {:?}",
                hierarchy.config(),
                cfg.hierarchy
            )));
        }
        hierarchy.quiesce();
        Simulator::from_arch_with(cfg, program, state, Some(hierarchy))
    }

    /// Take the memory hierarchy out of this simulator (quiesced) for
    /// functional warming across a mode switch — the counterpart of
    /// [`Simulator::from_arch_warmed`].
    pub fn into_hierarchy(self) -> mmt_mem::MemoryHierarchy {
        let mut h = self.hierarchy;
        h.quiesce();
        h
    }

    /// Field-by-field clone that preserves the capacity of every counted
    /// scratch vector, so a restored run observes the identical
    /// allocation behavior (and identical
    /// [`SimStats::scratch_growth_events`]) as the original.
    fn deep_clone(&self) -> Simulator {
        debug_assert!(self.obs.is_none(), "checkpoint() gates tracing runs");
        Simulator {
            cfg: self.cfg.clone(),
            program: self.program.clone(),
            sharing: self.sharing,
            memories: self.memories.clone(),
            threads: self
                .threads
                .iter()
                .map(|t| {
                    let mut c = t.clone();
                    c.commit_queue = clone_deque_keep_cap(&t.commit_queue);
                    c
                })
                .collect(),
            now: self.now,
            wd_last_retired: self.wd_last_retired,
            wd_last_progress: self.wd_last_progress,
            sync: self.sync.clone(),
            bpred: self.bpred.clone(),
            btb: self.btb.clone(),
            rases: self.rases.clone(),
            hierarchy: self.hierarchy.clone(),
            decode_queue: clone_deque_keep_cap(&self.decode_queue),
            decode_capacity: self.decode_capacity,
            rst: self.rst.clone(),
            lvip: self.lvip.clone(),
            uops: {
                let mut v = Vec::with_capacity(self.uops.capacity());
                v.extend(self.uops.iter().map(|u| {
                    let mut c = u.clone();
                    c.deps = clone_keep_cap(&u.deps);
                    c
                }));
                v
            },
            free_uops: clone_keep_cap(&self.free_uops),
            next_seq: self.next_seq,
            iq: clone_keep_cap(&self.iq),
            rob_live: self.rob_live,
            lsq_live: self.lsq_live,
            store_lists: self.store_lists.iter().map(clone_keep_cap).collect(),
            rat: self.rat.clone(),
            pair_sync: self.pair_sync,
            dbg_merge_fail_writers: self.dbg_merge_fail_writers,
            dbg_merge_fail_compare: self.dbg_merge_fail_compare,
            dbg_idle_cycles: self.dbg_idle_cycles,
            dbg_unmerged_cycles: self.dbg_unmerged_cycles,
            dbg_stall_frontend: self.dbg_stall_frontend,
            dbg_stall_rob: self.dbg_stall_rob,
            dbg_stall_iq: self.dbg_stall_iq,
            dbg_stall_other: self.dbg_stall_other,
            dbg_dispatch_hist: self.dbg_dispatch_hist,
            stats: self.stats.clone(),
            merge_log: self.merge_log.clone(),
            obs: None,
            metrics: self.metrics.clone(),
            scratch: Scratch {
                issued_ids: clone_keep_cap(&self.scratch.issued_ids),
                created: clone_keep_cap(&self.scratch.created),
            },
            trace: self.trace.clone(),
            dbg_sync: self.dbg_sync,
            dbg_div: self.dbg_div,
            dbg_merge: self.dbg_merge,
        }
    }

    // ----------------------------------------------------------------
    // Tracing (mmt-obs). With SimConfig::trace unset, every site below
    // reduces to a branch on an always-None option.
    // ----------------------------------------------------------------

    /// The current phase-profiling snapshot, when
    /// [`SimConfig::metrics`] is set. Safe to call mid-run: snapshots
    /// are immutable copies, and a later snapshot minus this one (via
    /// [`mmt_obs::MetricsSnapshot::delta`]) isolates an interval.
    pub fn metrics_snapshot(&self) -> Option<mmt_obs::MetricsSnapshot> {
        self.metrics.as_deref().map(crate::SimMetrics::snapshot)
    }

    /// Run one pipeline stage, timing it into the phase profiler when
    /// [`SimConfig::metrics`] is set. The profiler only reads the host
    /// clock after the stage returns, so the simulated behavior is
    /// bit-identical with metrics on or off; with metrics off this is
    /// one branch around the direct call.
    #[inline]
    fn timed_phase<R>(&mut self, phase: crate::SimPhase, f: fn(&mut Simulator) -> R) -> R {
        if self.metrics.is_none() {
            return f(self);
        }
        let start = std::time::Instant::now();
        let r = f(self);
        let elapsed = start.elapsed();
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe_phase(phase, elapsed);
        }
        r
    }

    /// Record one trace event at the current cycle (no-op when tracing
    /// is off).
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.emit(self.now, event);
        }
    }

    /// Merge `a`'s and `b`'s groups and re-snapshot pair progress,
    /// emitting the implied mode transitions and a remerge event first.
    /// Wraps every [`FetchSync::merge`] call site so the trace cannot
    /// drift from the sync state machine.
    fn merge_groups(&mut self, a: usize, b: usize, trigger: ModeTrigger) {
        if self.obs.is_some() {
            let union = self.sync.group_mask(a) | self.sync.group_mask(b);
            for t in 0..self.threads.len() {
                if union & (1 << t) != 0 && self.sync.mode(t) != SyncMode::Merge {
                    self.emit(TraceEvent::ModeTransition {
                        thread: t as u8,
                        to: ModeTag::Merge,
                        trigger,
                    });
                }
            }
            self.emit(TraceEvent::Remerge { mask: union });
        }
        let union = self.sync.merge(a, b);
        self.snapshot_pairs(union);
    }

    /// Emit the mode transitions a fetch halt of `t` implies, inspecting
    /// the sync state *before* [`FetchSync::force_detect`] rewires it: the
    /// halting thread drops to DETECT, a sole surviving partner drops out
    /// of MERGE, and catch-ups chasing `t` are abandoned.
    fn emit_halt_transitions(&mut self, t: usize) {
        if self.obs.is_none() {
            return;
        }
        if self.sync.mode(t) != SyncMode::Detect {
            self.emit(TraceEvent::ModeTransition {
                thread: t as u8,
                to: ModeTag::Detect,
                trigger: ModeTrigger::Halt,
            });
        }
        let group = self.sync.group_mask(t);
        if group.count_ones() == 2 {
            let survivor = (group & !(1 << t)).trailing_zeros() as usize;
            self.emit(TraceEvent::ModeTransition {
                thread: survivor as u8,
                to: ModeTag::Detect,
                trigger: ModeTrigger::PartnerHalt,
            });
        }
        for u in 0..self.threads.len() {
            if self.sync.mode(u) == (SyncMode::Catchup { ahead: t }) {
                self.emit(TraceEvent::ModeTransition {
                    thread: u as u8,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::CatchupAbort,
                });
            }
        }
    }

    // ----------------------------------------------------------------
    // Commit
    // ----------------------------------------------------------------

    fn commit_stage(&mut self) {
        let mut budget = self.cfg.commit_width;
        let mut merge_checks = self.cfg.merge_checks_per_cycle;
        while budget > 0 {
            // Find the oldest uop (by seq — slot ids are recycled) that is
            // at the head of EVERY owning thread's queue and has completed
            // execution.
            let mut candidate: Option<UopId> = None;
            for t in &self.threads {
                if let Some(&head) = t.commit_queue.front() {
                    if self.uops[head].completed(self.now)
                        && self.uops[head]
                            .itid
                            .threads()
                            .all(|u| self.threads[u].commit_queue.front() == Some(&head))
                        && candidate.is_none_or(|c| self.uops[head].seq < self.uops[c].seq)
                    {
                        candidate = Some(head);
                    }
                }
            }
            let Some(id) = candidate else { break };
            self.commit_uop(id, &mut merge_checks);
            budget -= 1;
        }
    }

    fn commit_uop(&mut self, id: UopId, merge_checks: &mut usize) {
        let (itid, inst, detect_mask, fetched_merged, pc) = {
            let u = &self.uops[id];
            (u.itid, u.inst, u.detect_mask, u.fetched_merged, u.pc)
        };
        let dest = inst.dest().filter(|r| !r.is_zero());
        self.stats.energy.commits += 1;
        self.emit(TraceEvent::Commit {
            pc,
            mask: itid.mask(),
        });
        if dest.is_some() {
            self.stats.energy.regfile_writes += 1;
        }

        for t in itid.threads() {
            let ts = &mut self.threads[t];
            let popped = ts.commit_queue.pop_front();
            debug_assert_eq!(popped, Some(id));
            ts.inflight -= 1;
            ts.retired += 1;
            if let Some(rd) = dest {
                debug_assert!(ts.writers[rd.index()] > 0);
                ts.writers[rd.index()] -= 1;
                let result = self.uops[id].infos[t]
                    .as_ref()
                    .and_then(|i| i.result)
                    .expect("dest implies a result");
                ts.commit_regs[rd.index()] = result;
                if self.rat[t][rd.index()] == Some(id) {
                    self.rat[t][rd.index()] = None;
                }
            }
        }

        // Register merging (Section 4.2.7): for instructions fetched in
        // DETECT/CATCHUP mode — and for fetch-identical instructions the
        // RST pessimistically split (the post-remerge "entire register
        // set divergent" recovery case the section motivates) — when the
        // committing mapping is still valid, limited by register-file
        // port availability.
        let merge_eligible = detect_mask != 0 || (fetched_merged && !itid.is_merged());
        if self.cfg.level.register_merging() && merge_eligible {
            if let Some(rd) = dest {
                for t in itid.threads() {
                    if detect_mask & (1 << t) == 0 && !fetched_merged {
                        continue;
                    }
                    if self.threads[t].writers[rd.index()] != 0 {
                        self.dbg_merge_fail_writers += 1;
                        continue; // mapping no longer valid
                    }
                    let result = self.threads[t].commit_regs[rd.index()];
                    for u in 0..self.threads.len() {
                        if itid.contains(u) || *merge_checks == 0 {
                            continue;
                        }
                        // No port wasted when the pair is already known
                        // to share the register.
                        if self.rst.pair_shared(rd, t, u) {
                            continue;
                        }
                        // The other thread's bit-vector says no active
                        // instruction is writing the register.
                        if self.threads[u].writers[rd.index()] != 0 {
                            self.dbg_merge_fail_writers += 1;
                            continue;
                        }
                        *merge_checks -= 1;
                        self.stats.energy.merge_checks += 1;
                        self.stats.energy.regfile_reads += 1;
                        if self.threads[u].commit_regs[rd.index()] == result {
                            self.rst.set_merged(rd, t, u);
                            self.emit(TraceEvent::RstSet {
                                reg: rd.index() as u8,
                                a: t as u8,
                                b: u as u8,
                            });
                        } else {
                            self.dbg_merge_fail_compare += 1;
                        }
                    }
                }
            }
        }

        let u = &mut self.uops[id];
        u.committed_mask = itid.mask();
        u.live = false;
        let is_mem = u.is_mem;
        let complete_at = u.complete_at.expect("committed implies completed");
        self.rob_live -= 1;
        if is_mem {
            self.lsq_live -= 1;
            if matches!(inst, Inst::St { .. }) {
                for t in itid.threads() {
                    self.store_lists[t].retain(|&(sid, _)| sid != id);
                }
            }
        }

        // Convert any fetch block on this uop into a plain cycle bound
        // before the slot is recycled. Commit precedes fetch within the
        // cycle, so this computes exactly what fetch_stage's unblock scan
        // would have computed from the slot this cycle.
        let resume = complete_at + self.cfg.redirect_penalty;
        for ts in &mut self.threads {
            if ts.blocked_on == Some(id) {
                ts.blocked_on = None;
                if self.now < resume {
                    ts.blocked_until = ts.blocked_until.max(resume);
                }
            }
        }
        push_counted(
            &mut self.free_uops,
            id,
            &mut self.stats.scratch_growth_events,
        );
    }

    // ----------------------------------------------------------------
    // Issue / execute
    // ----------------------------------------------------------------

    fn issue_stage(&mut self) {
        let mut budget = self.cfg.issue_width;
        let mut alu = self.cfg.int_alus;
        let mut fpu = self.cfg.fpus;
        let mut ports = self.cfg.lsq_ports;

        // Age-ordered select: the IQ vector is in dispatch order; collect
        // issued entries and remove them afterwards so the scan order
        // stays oldest-first. The collection buffer is recycled scratch
        // (taken out for the loop because `execute_mem` needs `&mut self`).
        let mut issued_ids = std::mem::take(&mut self.scratch.issued_ids);
        issued_ids.clear();
        let mut i = 0;
        while i < self.iq.len() {
            if budget == 0 {
                break;
            }
            let id = self.iq[i];
            if !self.deps_ready(id) || !self.mem_ready(id) {
                i += 1;
                continue;
            }
            let (class, accesses, is_mem) = {
                let u = &self.uops[id];
                (u.class, u.accesses, u.is_mem)
            };
            // Functional-unit / port availability.
            let ok = if is_mem {
                if accesses > self.cfg.lsq_ports {
                    ports == self.cfg.lsq_ports // needs a full-width burst
                } else {
                    ports >= accesses
                }
            } else if class.is_fpu() {
                fpu > 0
            } else {
                alu > 0
            };
            if !ok {
                i += 1;
                continue;
            }

            // Consume resources and compute completion.
            budget -= 1;
            let complete_at = if is_mem {
                let consumed = accesses.min(self.cfg.lsq_ports);
                ports -= consumed;
                // Serialization beyond the port width adds cycles.
                let extra = (accesses.saturating_sub(1) / self.cfg.lsq_ports) as u64;
                self.execute_mem(id) + extra
            } else {
                if class.is_fpu() {
                    fpu -= 1;
                } else {
                    alu -= 1;
                }
                self.now + class.latency()
            };
            {
                let u = &mut self.uops[id];
                u.issued = true;
                u.complete_at = Some(complete_at);
            }
            if self.obs.is_some() {
                let (pc, mask) = (self.uops[id].pc, self.uops[id].itid.mask());
                self.emit(TraceEvent::Issue {
                    pc,
                    mask,
                    complete_at,
                });
            }
            self.stats.energy.executions += 1;
            self.stats.energy.regfile_reads += self.uops[id].inst.sources().len() as u64;
            self.stats.uops_executed += 1;
            push_counted(&mut issued_ids, id, &mut self.stats.scratch_growth_events);
            i += 1;
        }
        if !issued_ids.is_empty() {
            self.iq.retain(|id| !issued_ids.contains(id));
        }
        self.scratch.issued_ids = issued_ids;
    }

    fn deps_ready(&self, id: UopId) -> bool {
        self.uops[id].deps.iter().all(|&(d, seq)| {
            let dep = &self.uops[d];
            // A seq mismatch means the producer retired and its slot was
            // recycled — retired implies completed.
            dep.seq != seq || dep.completed(self.now)
        })
    }

    /// Loads must wait for older overlapping stores from the same thread
    /// to complete (oracle-exact disambiguation; completed stores forward).
    fn mem_ready(&self, id: UopId) -> bool {
        let u = &self.uops[id];
        if !matches!(u.inst, Inst::Ld { .. }) {
            return true;
        }
        for t in u.itid.threads() {
            let addr = u.infos[t]
                .as_ref()
                .and_then(|i| i.mem_addr)
                .expect("load has an address");
            for &(sid, saddr) in &self.store_lists[t] {
                // In-flight stores are always live, so seq ordering is the
                // dispatch ordering the recycled slot ids no longer carry.
                if self.uops[sid].seq < u.seq
                    && saddr == addr
                    && !self.uops[sid].completed(self.now)
                {
                    return false;
                }
            }
        }
        true
    }

    fn execute_mem(&mut self, id: UopId) -> u64 {
        let (itid, inst) = {
            let u = &self.uops[id];
            (u.itid, u.inst)
        };
        let is_store = matches!(inst, Inst::St { .. });
        let mut done = self.now + 1;
        match self.sharing {
            MemSharing::Shared => {
                // One access regardless of merging: memory is shared.
                let lead = itid.lead();
                let addr = self.uops[id].infos[lead]
                    .as_ref()
                    .and_then(|i| i.mem_addr)
                    .expect("mem uop has an address");
                let out = self.hierarchy.access_data(0, addr, self.now, is_store);
                done = done.max(out.completes_at);
            }
            MemSharing::PerThread => {
                // The LSQ expands merged accesses and performs them
                // separately (Table 2); completion is the slowest.
                for t in itid.threads() {
                    let addr = self.uops[id].infos[t]
                        .as_ref()
                        .and_then(|i| i.mem_addr)
                        .expect("mem uop has an address");
                    let out = self.hierarchy.access_data(t, addr, self.now, is_store);
                    done = done.max(out.completes_at);
                }
            }
        }
        done
    }

    // ----------------------------------------------------------------
    // Dispatch: split + rename
    // ----------------------------------------------------------------

    fn dispatch_stage(&mut self) {
        let mut slots = self.cfg.rename_width;
        // Recycled scratch for the per-macro-op uop id list (taken out for
        // the loop because the body needs `&mut self`).
        let mut created = std::mem::take(&mut self.scratch.created);
        // Not a `while let`: the loop body conditionally pops the front
        // only after resource checks pass.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(mo) = self.decode_queue.front() else {
                break;
            };
            if mo.ready_at > self.now || slots == 0 {
                break;
            }

            // Split (the MMT stage between decode and the RAT). The
            // macro-op stays borrowed from the decode queue until the
            // resource checks pass — no clone on the hot path.
            let mut outcome = split_instruction_at(
                mo.pc,
                mo.inst,
                mo.itid,
                self.sharing,
                self.cfg.level,
                &self.rst,
                &mut self.lvip,
            );
            if mo.itid.is_merged() && self.cfg.level.shared_execute() {
                self.stats.energy.split_evals += 1;
            }

            // LVIP verification, oracle-resolved at dispatch: merged ME
            // loads whose actual values differ are split here and the
            // rollback penalty is charged (the hardware would flush and
            // refetch; see module docs).
            let mut lvip_rollback = false;
            let mut lvip_hits = 0u64;
            let mut lvip_misses = 0u64;
            let mut verified = PartList::new();
            for part in &outcome.parts {
                if part.lvip_speculative {
                    let lead = part.itid.lead();
                    let lead_val = mo.infos[lead].as_ref().and_then(|i| i.loaded);
                    let all_equal = part
                        .itid
                        .threads()
                        .all(|t| mo.infos[t].as_ref().and_then(|i| i.loaded) == lead_val);
                    if all_equal {
                        self.lvip.record_match(mo.pc);
                        lvip_hits += 1;
                        verified.push(*part);
                    } else {
                        self.lvip.record_mismatch(mo.pc);
                        lvip_misses += 1;
                        lvip_rollback = true;
                        for t in part.itid.threads() {
                            verified.push(SplitPart {
                                itid: Itid::single(t),
                                lvip_speculative: false,
                            });
                        }
                    }
                } else {
                    verified.push(*part);
                }
            }
            outcome.parts = verified;

            // Structural resources for the whole split set.
            let parts = outcome.parts.len();
            let is_mem = mo.inst.class().is_mem();
            if parts > slots
                || self.rob_live + parts > self.cfg.rob_size
                || self.iq.len() + parts > self.cfg.iq_size
                || (is_mem && self.lsq_live + parts > self.cfg.lsq_size)
            {
                break;
            }
            let mo = self.decode_queue.pop_front().expect("front checked above");
            slots -= parts;
            self.stats.uops_dispatched += parts as u64;
            self.stats.energy.renames += parts as u64;

            // Per-PC LVIP and address-divergence profile. Bumped only
            // after the pop: the split + verification above re-run on
            // stall retries, so counting there would double-count. (The
            // global `SimStats::lvip_lookups` meter comes from the
            // predictor itself and deliberately does include retries.)
            if let Some(c) = self.stats.pc_profile.get_mut(mo.pc as usize) {
                c.lvip_lookups += outcome.lvip_lookups as u64;
                c.lvip_hits += lvip_hits;
                c.lvip_misses += lvip_misses;
                if is_mem && mo.itid.is_merged() {
                    c.mem_merged += 1;
                    let lead_addr = mo.infos[mo.itid.lead()].as_ref().and_then(|i| i.mem_addr);
                    if mo
                        .itid
                        .threads()
                        .any(|t| mo.infos[t].as_ref().and_then(|i| i.mem_addr) != lead_addr)
                    {
                        c.mem_addr_diverged += 1;
                    }
                }
            }

            if self.obs.is_some() {
                let kind = if parts == 1 {
                    if outcome.parts[0].itid.is_merged() {
                        SplitKind::Merged
                    } else {
                        SplitKind::Private
                    }
                } else if outcome.parts.iter().all(|p| !p.itid.is_merged()) {
                    SplitKind::Private
                } else {
                    SplitKind::Partial
                };
                let cause = if !mo.itid.is_merged() {
                    SplitCause::FetchedAlone
                } else if !self.cfg.level.shared_execute() {
                    SplitCause::NoSharedExecute
                } else if lvip_rollback {
                    SplitCause::LvipRollback
                } else if parts == 1 {
                    if outcome.regmerge_assisted {
                        SplitCause::RegMergeAssisted
                    } else {
                        SplitCause::RstShared
                    }
                } else {
                    SplitCause::RstSplit
                };
                self.emit(TraceEvent::Split {
                    pc: mo.pc,
                    mask: mo.itid.mask(),
                    kind,
                    cause,
                });
                if lvip_rollback {
                    self.emit(TraceEvent::Lvip {
                        pc: mo.pc,
                        mask: mo.itid.mask(),
                        outcome: LvipOutcome::Rollback,
                    });
                }
                for part in &outcome.parts {
                    if part.lvip_speculative {
                        self.emit(TraceEvent::Lvip {
                            pc: mo.pc,
                            mask: part.itid.mask(),
                            outcome: LvipOutcome::Match,
                        });
                    }
                }
            }

            // RST destination update (Section 4.2.3).
            if self.cfg.level.shared_execute() {
                if let Some(rd) = mo.inst.dest() {
                    let mut itids = [Itid::single(0); MAX_THREADS];
                    for (i, part) in outcome.parts.iter().enumerate() {
                        itids[i] = part.itid;
                    }
                    self.rst.update_dest(rd, mo.itid, &itids[..parts]);
                    if parts >= 2 {
                        self.emit(TraceEvent::RstClear {
                            reg: rd.index() as u8,
                            mask: mo.itid.mask(),
                        });
                    }
                }
            }

            // Identity accounting (Figure 5(b)).
            for part in &outcome.parts {
                for _t in part.itid.threads() {
                    if !mo.itid.is_merged() {
                        self.stats.identity.private += 1;
                    } else if part.itid.is_merged() {
                        if outcome.regmerge_assisted {
                            self.stats.identity.execute_identical_regmerge += 1;
                        } else {
                            self.stats.identity.execute_identical += 1;
                        }
                    } else {
                        self.stats.identity.fetch_identical += 1;
                    }
                }
                // Per-PC dispatch profile (one bump per uop, not per
                // thread — exec counters are in dispatched uops).
                if let Some(c) = self.stats.pc_profile.get_mut(mo.pc as usize) {
                    if !mo.itid.is_merged() {
                        c.exec_private += 1;
                    } else if part.itid.is_merged() {
                        c.exec_merged += 1;
                    } else {
                        c.exec_split += 1;
                    }
                }
            }

            // Create and rename the uops.
            created.clear();
            for part in &outcome.parts {
                // Allocate an arena slot: recycle a retired one (and its
                // deps allocation) when available, so the arena is bounded
                // by the ROB size rather than the dynamic instruction
                // count. Deps capacity is bounded by sources × threads, so
                // a fresh slot pre-reserves it once.
                let seq = self.next_seq;
                self.next_seq += 1;
                let (id, mut deps) = match self.free_uops.pop() {
                    Some(id) => {
                        let mut deps = std::mem::take(&mut self.uops[id].deps);
                        deps.clear();
                        (id, deps)
                    }
                    None => {
                        if self.uops.len() == self.uops.capacity() {
                            self.stats.scratch_growth_events += 1;
                        }
                        self.uops.push(Uop::vacant());
                        self.stats.peak_uop_arena =
                            self.stats.peak_uop_arena.max(self.uops.len() as u64);
                        (self.uops.len() - 1, Vec::with_capacity(2 * MAX_THREADS))
                    }
                };
                for t in part.itid.threads() {
                    for r in mo.inst.sources().iter() {
                        if r.is_zero() {
                            continue;
                        }
                        if let Some(p) = self.rat[t][r.index()] {
                            if deps.iter().all(|&(d, _)| d != p) {
                                push_counted(
                                    &mut deps,
                                    (p, self.uops[p].seq),
                                    &mut self.stats.scratch_growth_events,
                                );
                            }
                        }
                    }
                }
                let accesses = if is_mem {
                    match self.sharing {
                        MemSharing::Shared => 1,
                        MemSharing::PerThread => part.itid.count(),
                    }
                } else {
                    0
                };
                if part.itid.is_merged() && self.cfg.record_merge_log {
                    // Differential-checking mode: hand every merge
                    // decision (with its functional ground truth) to the
                    // offline oracle instead of asserting in-line, so an
                    // injected corruption reaches the checker.
                    let mut records = [None; MAX_THREADS];
                    for t in part.itid.threads() {
                        records[t] = mo.infos[t].map(mmt_isa::trace::TraceRecord::from);
                    }
                    self.merge_log.push(crate::audit::MergeEvent {
                        pc: mo.pc,
                        inst: mo.inst,
                        itid: part.itid,
                        records,
                        lvip_speculative: part.lvip_speculative,
                    });
                } else if part.itid.is_merged() && !part.lvip_speculative {
                    // In debug runs, enforce the merged-execution
                    // soundness invariant: every owning thread must
                    // produce the same result (the RST may only merge
                    // value-identical work).
                    #[cfg(debug_assertions)]
                    {
                        let lead = part.itid.lead();
                        let lead_res = mo.infos[lead].as_ref().and_then(|i| i.result);
                        for t in part.itid.threads() {
                            debug_assert_eq!(
                                mo.infos[t].as_ref().and_then(|i| i.result),
                                lead_res,
                                "unsound merge at pc {} ({})",
                                mo.pc,
                                mo.inst
                            );
                        }
                    }
                }

                let mut infos = [None; MAX_THREADS];
                for t in part.itid.threads() {
                    infos[t] = mo.infos[t];
                }
                self.uops[id] = Uop {
                    seq,
                    live: true,
                    pc: mo.pc,
                    itid: part.itid,
                    inst: mo.inst,
                    class: mo.inst.class(),
                    infos,
                    deps,
                    detect_mask: mo.detect_mask & part.itid.mask(),
                    fetched_merged: mo.itid.is_merged(),
                    issued: false,
                    complete_at: None,
                    committed_mask: 0,
                    is_mem,
                    accesses,
                };
                self.rob_live += 1;
                self.stats.peak_live_uops = self.stats.peak_live_uops.max(self.rob_live as u64);
                if is_mem {
                    self.lsq_live += 1;
                }
                for t in part.itid.threads() {
                    if let Some(rd) = mo.inst.dest().filter(|r| !r.is_zero()) {
                        self.rat[t][rd.index()] = Some(id);
                        // In-flight writer tracking mirrors the RAT (the
                        // paper's "mapping still valid" test): it counts
                        // renamed-but-uncommitted writers.
                        self.threads[t].writers[rd.index()] += 1;
                    }
                    let q = &self.threads[t].commit_queue;
                    if q.len() == q.capacity() {
                        self.stats.scratch_growth_events += 1;
                    }
                    self.threads[t].commit_queue.push_back(id);
                    self.threads[t].inflight += 1;
                    if matches!(mo.inst, Inst::St { .. }) {
                        let addr = mo.infos[t]
                            .as_ref()
                            .and_then(|i| i.mem_addr)
                            .expect("store has an address");
                        push_counted(
                            &mut self.store_lists[t],
                            (id, addr),
                            &mut self.stats.scratch_growth_events,
                        );
                    }
                }
                push_counted(&mut self.iq, id, &mut self.stats.scratch_growth_events);
                push_counted(&mut created, id, &mut self.stats.scratch_growth_events);
                self.emit(TraceEvent::Dispatch {
                    pc: mo.pc,
                    mask: part.itid.mask(),
                    merged: part.itid.is_merged(),
                });
            }

            // Resolve fetch blocks that were waiting for this
            // instruction to enter the window (mispredicted control).
            if mo.blocks_mask != 0 {
                for &id in &created {
                    let part = self.uops[id].itid;
                    for t in part.threads() {
                        if mo.blocks_mask & (1 << t) != 0
                            && self.threads[t].blocked_on == Some(PENDING_UOP)
                        {
                            self.threads[t].blocked_on = Some(id);
                        }
                    }
                }
            }

            // LVIP rollback penalty: the owning threads' fetch stalls
            // until the offending load completes, plus the redirect
            // penalty (flush-and-refetch approximation).
            if lvip_rollback {
                let block_on = *created.last().expect("parts is non-empty");
                for t in mo.itid.threads() {
                    self.threads[t].blocked_on = Some(block_on);
                }
            }
        }
        self.scratch.created = created;
    }

    // ----------------------------------------------------------------
    // Fetch
    // ----------------------------------------------------------------

    fn fetch_stage(&mut self) -> Result<(), SimError> {
        let n = self.threads.len();

        // Unblock threads whose redirect has resolved.
        for t in 0..n {
            if let Some(b) = self.threads[t].blocked_on {
                if b == PENDING_UOP {
                    continue; // the blocking instruction has not dispatched yet
                }
                if let Some(c) = self.uops[b].complete_at.filter(|_| self.uops[b].issued) {
                    let resume = c + self.cfg.redirect_penalty;
                    if self.now >= resume {
                        self.threads[t].blocked_on = None;
                    } else {
                        // Collapse into the cycle bound so fetchable() is
                        // a single comparison.
                        self.threads[t].blocked_until = self.threads[t].blocked_until.max(resume);
                        self.threads[t].blocked_on = None;
                    }
                }
            }
        }

        // Self-correct wrong-direction catch-ups: if the "behind" thread
        // has fetched past the "ahead" thread's progress without their
        // PCs meeting, the FHB hit pointed the wrong way (in loops both
        // threads' targets appear in both FHBs); abort and let the next
        // taken branch re-detect with the true direction.
        if self.cfg.level.shared_fetch() {
            for t in 0..n {
                if let SyncMode::Catchup { ahead } = self.sync.mode(t) {
                    if self.pair_progress_delta(t, ahead) > CATCHUP_OVERSHOOT_SLACK as i64 {
                        self.sync.cancel_catchup(t);
                        self.emit(TraceEvent::ModeTransition {
                            thread: t as u8,
                            to: ModeTag::Detect,
                            trigger: ModeTrigger::WrongDirection,
                        });
                    }
                }
            }
        }

        // Software-hint parking: expire stale parks.
        if self.cfg.sync_policy == SyncPolicy::SoftwareHints {
            for t in 0..n {
                if let Some(since) = self.threads[t].hint_parked_since {
                    let no_partner_possible = (0..n).all(|u| {
                        u == t
                            || self.threads[u].halted_fetch
                            || self.sync.group_mask(t) & (1 << u) != 0
                    });
                    if self.now >= since + self.cfg.hint_wait_limit || no_partner_possible {
                        self.threads[t].hint_skip_pc = Some(self.threads[t].machine.pc());
                        self.threads[t].hint_parked_since = None;
                    }
                }
            }
        }

        // Opportunistic remerge: identical PCs fetch together (Section
        // 4.1's base rule). Only fetchable (or hint-parked), independent
        // threads merge.
        if self.cfg.level.shared_fetch() {
            for a in 0..n {
                for b in (a + 1)..n {
                    if self.sync.group_mask(a) & (1 << b) != 0 {
                        continue; // already merged together
                    }
                    let ok = |s: &Self, t: usize| {
                        s.thread_fetchable(t) || s.threads[t].hint_parked_since.is_some()
                    };
                    if !ok(self, a) || !ok(self, b) {
                        continue;
                    }
                    let both_parked = self.threads[a].hint_parked_since.is_some()
                        && self.threads[b].hint_parked_since.is_some();
                    if self.threads[a].machine.pc() == self.threads[b].machine.pc()
                        && (both_parked
                            || self.pair_progress_delta(a, b).unsigned_abs()
                                <= self.cfg.merge_alignment_slack)
                    {
                        // Record remerge distances for catching-up threads.
                        for t in [a, b] {
                            if !self.sync.is_merged(t) {
                                let d = self.threads[t].branches_since_diverge;
                                if d > 0 {
                                    self.stats.record_remerge_distance(d);
                                }
                                self.threads[t].branches_since_diverge = 0;
                            }
                        }
                        self.merge_groups(a, b, ModeTrigger::PcMatch);
                    }
                }
            }
        }

        // Build fetch entities (merge groups / singleton threads) — at
        // most one per thread, so a fixed buffer holds them all.
        let mut entity_buf = [(0u8, 0usize); MAX_THREADS]; // (mask, lead)
        let mut n_entities = 0;
        for t in 0..n {
            let mask = if self.cfg.level.shared_fetch() {
                self.sync.group_mask(t)
            } else {
                1 << t
            };
            if mask.trailing_zeros() as usize == t {
                entity_buf[n_entities] = (mask, t);
                n_entities += 1;
            }
        }
        // Priority: CATCHUP-boosted first, then ICOUNT, throttled last.
        // (Unstable sort is fine: `lead` is a unique final tiebreaker.)
        let now = self.now;
        entity_buf[..n_entities].sort_unstable_by_key(|&(mask, lead)| {
            let members = Itid::from_mask(mask);
            let boosted = self.cfg.level.shared_fetch() && self.sync.boosted(lead);
            // A group is throttled when ANY member is being caught up to
            // — otherwise a singleton chasing a thread inside a merged
            // group can never close on it.
            let throttled =
                self.cfg.level.shared_fetch() && members.threads().any(|t| self.sync.throttled(t));
            let pick = match self.cfg.fetch_policy {
                FetchPolicy::ICount => members.threads().map(|t| self.threads[t].inflight).sum(),
                FetchPolicy::RoundRobin => ((lead as u64) + now) % MAX_THREADS as u64,
            };
            (!boosted, throttled, pick, lead)
        });

        let mut slots = self.cfg.fetch_width;
        let mut entities_fetched = 0;
        for &(mask, lead) in entity_buf.iter().take(n_entities) {
            if slots == 0 || entities_fetched >= self.cfg.max_fetch_threads {
                break;
            }
            // A mid-cycle CATCHUP merge may have restructured groups
            // after this list was built; skip stale entries.
            if self.cfg.level.shared_fetch() && self.sync.group_mask(lead) != mask {
                continue;
            }
            let members = Itid::from_mask(mask);
            if !members.threads().all(|t| self.thread_fetchable(t)) {
                continue;
            }
            if members
                .threads()
                .any(|t| self.threads[t].hint_parked_since.is_some())
            {
                continue; // parked at a software remerge hint
            }
            // Software-hint mode: an unmerged entity arriving at a hint
            // PC parks and waits for a partner (Thread Fusion's join).
            if self.cfg.sync_policy == SyncPolicy::SoftwareHints
                && self.cfg.level.shared_fetch()
                && members.count() < self.threads.len()
            {
                let pc = self.threads[lead].machine.pc();
                let skip = self.threads[lead].hint_skip_pc == Some(pc);
                if !skip {
                    self.threads[lead].hint_skip_pc = None;
                }
                let partner_exists = (0..self.threads.len())
                    .any(|u| !members.contains(u) && !self.threads[u].halted_fetch);
                // A partner already waiting at a *different* join means we
                // should keep running toward it instead of deadlocking at
                // our own.
                let partner_waits_elsewhere = (0..self.threads.len()).any(|u| {
                    !members.contains(u)
                        && self.threads[u].hint_parked_since.is_some()
                        && self.threads[u].machine.pc() != pc
                });
                if !skip
                    && partner_exists
                    && !partner_waits_elsewhere
                    && self.cfg.remerge_hints.contains(&pc)
                {
                    for t in members.threads() {
                        self.threads[t].hint_parked_since = Some(self.now);
                    }
                    continue;
                }
            }
            // Throttled (being caught up to) entities receive only
            // leftover fetch slots — they sort last, so when the
            // catching-up thread saturates fetch they are fully parked.
            // Parking matters beyond fairness: the merge must land on the
            // same loop iteration in both threads, and a crawling "ahead"
            // thread would drift across the lap boundary before the
            // behind thread arrives, ratcheting a permanent one-iteration
            // skew that destroys execute-identical merging.
            let fetched = self.fetch_entity(members, slots)?;
            if fetched > 0 {
                slots -= fetched;
                entities_fetched += 1;
            }
        }
        Ok(())
    }

    /// Signed progress difference of `t` relative to `u`, measured from
    /// the pair's last common synchronization point: positive means `t`
    /// has retired more instructions than `u` since they were last
    /// aligned.
    fn pair_progress_delta(&self, t: usize, u: usize) -> i64 {
        let (snap_t, snap_u) = self.pair_sync[t][u];
        let pt = (self.threads[t].machine.retired() - snap_t) as i64;
        let pu = (self.threads[u].machine.retired() - snap_u) as i64;
        pt - pu
    }

    /// Record that every thread pair within `mask` is synchronized right
    /// now (they share a PC: a merge, or the instant of a divergence).
    fn snapshot_pairs(&mut self, mask: u8) {
        let members = Itid::from_mask(mask);
        for t in members.threads() {
            for u in members.threads() {
                if t != u {
                    self.pair_sync[t][u] = (
                        self.threads[t].machine.retired(),
                        self.threads[u].machine.retired(),
                    );
                }
            }
        }
    }

    fn thread_fetchable(&self, t: usize) -> bool {
        let ts = &self.threads[t];
        !ts.halted_fetch && ts.blocked_on.is_none() && ts.blocked_until <= self.now
    }

    /// Fetch up to `max_insts` instructions for one entity; returns the
    /// number fetched.
    fn fetch_entity(&mut self, members: Itid, max_insts: usize) -> Result<usize, SimError> {
        if self.decode_queue.len() >= self.decode_capacity {
            return Ok(0);
        }
        let lead = members.lead();
        let pc0 = self.threads[lead].machine.pc();
        debug_assert!(
            members
                .threads()
                .all(|t| self.threads[t].machine.pc() == pc0),
            "merged threads must share a PC"
        );

        // One instruction-cache access per fetch group per cycle. A miss
        // blocks the whole entity until the line arrives.
        let icache = self.hierarchy.access_inst(0, pc0, self.now);
        if icache.completes_at > self.now + self.cfg.hierarchy.l1i.latency {
            // Miss (or hit-under-fill): the whole entity waits for the
            // line.
            for t in members.threads() {
                self.threads[t].blocked_until = icache.completes_at;
            }
            return Ok(1.min(max_insts)); // the slot was consumed by the attempt
        }

        let mut fetched = 0;
        while fetched < max_insts && self.decode_queue.len() < self.decode_capacity {
            let pc = self.threads[lead].machine.pc();
            // Software-hint mode: stop the burst when it reaches a hint
            // PC mid-cycle; the entity-start logic parks there next
            // cycle.
            if fetched > 0
                && self.cfg.sync_policy == SyncPolicy::SoftwareHints
                && members.count() < self.threads.len()
                && self.threads[lead].hint_skip_pc != Some(pc)
                && self.cfg.remerge_hints.contains(&pc)
            {
                break;
            }
            // Record fetch modes before stepping (what mode was each
            // thread in when this instruction was fetched?).
            let mut detect_mask = 0u8;
            for t in members.threads() {
                let mode = if self.cfg.level.shared_fetch() {
                    self.sync.mode(t)
                } else {
                    SyncMode::Detect
                };
                if members.is_merged() {
                    self.stats.fetch_modes.record(SyncMode::Merge);
                } else {
                    self.stats.fetch_modes.record(mode);
                    detect_mask |= 1 << t;
                }
                if let Some(c) = self.stats.pc_profile.get_mut(pc as usize) {
                    c.record_fetch(mode, members.is_merged());
                }
            }
            if self.obs.is_some() {
                // Same classification as the fetch_modes loop above (a
                // non-merged entity is a singleton, so its lead's mode is
                // the one recorded) — the replay consistency test holds
                // by construction.
                let kind = if members.is_merged() {
                    FetchKind::Merged
                } else {
                    let mode = if self.cfg.level.shared_fetch() {
                        self.sync.mode(lead)
                    } else {
                        SyncMode::Detect
                    };
                    match mode {
                        SyncMode::Merge => FetchKind::Merged,
                        SyncMode::Detect => FetchKind::Detect,
                        SyncMode::Catchup { .. } => FetchKind::Catchup,
                    }
                };
                self.emit(TraceEvent::Fetch {
                    pc,
                    mask: members.mask(),
                    kind,
                });
            }

            // Functionally execute for every member (the oracle step).
            let mut infos = [None; MAX_THREADS];
            for t in members.threads() {
                let ts = &mut self.threads[t];
                let mem = &mut self.memories[ts.mem_idx];
                let info = ts.machine.step(&self.program, mem)?;
                infos[t] = Some(info);
            }
            let inst = member_info(&infos, lead, pc, "lead of a fetch group was not stepped")?.inst;
            fetched += 1;
            self.stats.macro_ops_fetched += 1;

            self.decode_queue.push_back(MacroOp {
                pc,
                inst,
                itid: members,
                infos,
                ready_at: self.now + self.cfg.decode_latency,
                detect_mask,
                blocks_mask: 0,
            });

            // Control-flow and halt handling decide whether fetch for
            // this entity continues this cycle.
            let flow = self.post_fetch_control(members, pc, inst, &infos)?;

            // CATCHUP completion: the behind thread has reached the ahead
            // thread's PC — merge now so the next cycle fetches them as a
            // group (Section 4.1's remerge).
            if self.cfg.level.shared_fetch() && !members.is_merged() {
                if let SyncMode::Catchup { ahead } = self.sync.mode(lead) {
                    if !self.threads[ahead].halted_fetch
                        && self.threads[lead].machine.pc() == self.threads[ahead].machine.pc()
                        && self.pair_progress_delta(lead, ahead).unsigned_abs()
                            <= self.cfg.merge_alignment_slack
                    {
                        let d = self.threads[lead].branches_since_diverge;
                        if d > 0 {
                            self.stats.record_remerge_distance(d);
                        }
                        self.threads[lead].branches_since_diverge = 0;
                        self.threads[ahead].branches_since_diverge = 0;
                        if self.dbg_sync {
                            eprintln!("cyc {} MERGE t{lead}+t{ahead}", self.now);
                        }
                        self.merge_groups(lead, ahead, ModeTrigger::CatchupComplete);
                        break;
                    }
                }
            }

            match flow {
                FetchFlow::Continue => continue,
                FetchFlow::EndCycle => break,
            }
        }
        Ok(fetched)
    }

    fn post_fetch_control(
        &mut self,
        members: Itid,
        pc: u64,
        inst: Inst,
        infos: &[Option<StepInfo>; MAX_THREADS],
    ) -> Result<FetchFlow, SimError> {
        let lead = members.lead();
        match inst {
            Inst::Halt => {
                for t in members.threads() {
                    self.threads[t].halted_fetch = true;
                    if self.cfg.level.shared_fetch() {
                        self.emit_halt_transitions(t);
                        self.sync.force_detect(t);
                    }
                }
                Ok(FetchFlow::EndCycle)
            }
            Inst::Br { .. } => {
                self.stats.branches += members.count() as u64;
                self.stats.energy.bpred_accesses += 1 + members.count() as u64;
                let predicted_taken = self.bpred.predict(lead, pc);
                for t in members.threads() {
                    let taken = member_info(infos, t, pc, "conditional branch member")?
                        .taken
                        .ok_or(SimError::Desync {
                            pc,
                            thread: t,
                            context: "conditional branch step recorded no direction",
                        })?;
                    self.bpred.update(t, pc, taken);
                }
                self.resolve_control(members, pc, infos, predicted_taken)
            }
            Inst::Jmp { .. } | Inst::Jal { .. } => {
                if let Inst::Jal { .. } = inst {
                    for t in members.threads() {
                        self.rases[t].push(pc + 1);
                    }
                }
                // Static target: always predicted correctly.
                for t in members.threads() {
                    let target = member_info(infos, t, pc, "direct jump member")?.next_pc;
                    if self.cfg.level.shared_fetch() {
                        self.record_taken_branch(t, target);
                    }
                }
                Ok(match self.cfg.fetch_style {
                    FetchStyle::Conventional => FetchFlow::EndCycle,
                    FetchStyle::TraceCache => FetchFlow::Continue,
                })
            }
            Inst::Jr { .. } => {
                // Predict through the RAS; resolve per member (fixed
                // buffers: a group has at most MAX_THREADS members).
                let mut lead_pred = None;
                for (i, t) in members.threads().enumerate() {
                    let pred = self.rases[t].pop();
                    if i == 0 {
                        lead_pred = pred;
                    }
                }
                let mut mispredicted = false;
                let mut targets = [(0usize, 0u64); MAX_THREADS];
                let mut n_targets = 0;
                for t in members.threads() {
                    let target = member_info(infos, t, pc, "indirect jump member")?.next_pc;
                    targets[n_targets] = (t, target);
                    n_targets += 1;
                }
                let targets = &targets[..n_targets];
                let uniform = targets.windows(2).all(|w| w[0].1 == w[1].1);
                if uniform {
                    if lead_pred != Some(targets[0].1) {
                        mispredicted = true;
                    }
                    for &(t, target) in targets {
                        if self.cfg.level.shared_fetch() {
                            self.record_taken_branch(t, target);
                        }
                    }
                    if mispredicted {
                        self.stats.branch_mispredicts += members.count() as u64;
                        self.block_members(members, pc)?;
                        Ok(FetchFlow::EndCycle)
                    } else {
                        Ok(match self.cfg.fetch_style {
                            FetchStyle::Conventional => FetchFlow::EndCycle,
                            FetchStyle::TraceCache => FetchFlow::Continue,
                        })
                    }
                } else {
                    self.diverge_members(members, pc, targets, lead_pred)?;
                    Ok(FetchFlow::EndCycle)
                }
            }
            _ => Ok(FetchFlow::Continue),
        }
    }

    /// Shared branch-resolution logic for conditional branches.
    fn resolve_control(
        &mut self,
        members: Itid,
        pc: u64,
        infos: &[Option<StepInfo>; MAX_THREADS],
        predicted_taken: bool,
    ) -> Result<FetchFlow, SimError> {
        let mut targets = [(0usize, 0u64); MAX_THREADS];
        let mut takens = [(0usize, false); MAX_THREADS];
        let mut n_members = 0;
        for t in members.threads() {
            let info = member_info(infos, t, pc, "conditional branch member")?;
            targets[n_members] = (t, info.next_pc);
            takens[n_members] = (t, info.taken == Some(true));
            n_members += 1;
        }
        let targets = &targets[..n_members];
        let takens = &takens[..n_members];
        let uniform = takens.windows(2).all(|w| w[0].1 == w[1].1);

        if uniform {
            let taken = takens[0].1;
            if predicted_taken != taken {
                self.stats.branch_mispredicts += members.count() as u64;
                self.block_members(members, pc)?;
                return Ok(FetchFlow::EndCycle);
            }
            if taken {
                let target = targets[0].1;
                // BTB: a first-encounter taken branch costs a fetch
                // bubble even when the direction was right.
                let btb_hit = self.btb.lookup(pc) == Some(target);
                self.btb.update(pc, target);
                for t in members.threads() {
                    if self.cfg.level.shared_fetch() {
                        self.record_taken_branch(t, target);
                    }
                }
                if !btb_hit {
                    return Ok(FetchFlow::EndCycle);
                }
                Ok(match self.cfg.fetch_style {
                    FetchStyle::Conventional => FetchFlow::EndCycle,
                    FetchStyle::TraceCache => FetchFlow::Continue,
                })
            } else {
                Ok(FetchFlow::Continue)
            }
        } else {
            // Divergence: the merged group's threads disagree.
            let predicted_next = if predicted_taken {
                // All taken threads share one target for direct branches.
                targets
                    .iter()
                    .zip(takens)
                    .find(|(_, &(_, tk))| tk)
                    .map(|((_, pc), _)| *pc)
                    .unwrap_or(pc + 1)
            } else {
                pc + 1
            };
            self.diverge_members_with_pred(members, pc, targets, predicted_next, Some(pc + 1))?;
            Ok(FetchFlow::EndCycle)
        }
    }

    /// Record a taken control transfer in the FHB machinery and track
    /// remerge-distance counters.
    fn record_taken_branch(&mut self, t: usize, target: u64) {
        if self.sync.mode(t) != SyncMode::Merge {
            self.threads[t].branches_since_diverge += 1;
        }
        if self.cfg.sync_policy == SyncPolicy::SoftwareHints {
            // Thread Fusion-style: no FHB recording or CAM search; the
            // remerge points come from software.
            return;
        }
        let event = self.sync.record_taken(t, target);
        // An FHB hit says the other thread passed this point, but inside
        // a loop both threads' targets live in both FHBs, so the hit
        // alone cannot tell who is behind. Boosting the *ahead* thread
        // would let it sprint away while the truly-behind thread is
        // throttled; cancel such wrong-direction catch-ups using the
        // per-thread retirement counters.
        match event {
            mmt_frontend::SyncEvent::CatchupEntered { behind, ahead } => {
                if self.dbg_sync {
                    eprintln!(
                        "cyc {} CATCHUP t{behind} -> t{ahead} (delta {}) groups {:?}",
                        self.now,
                        self.pair_progress_delta(behind, ahead),
                        (0..self.threads.len())
                            .map(|t| self.sync.group_mask(t))
                            .collect::<Vec<_>>()
                    );
                }
                self.emit(TraceEvent::ModeTransition {
                    thread: behind as u8,
                    to: ModeTag::Catchup,
                    trigger: ModeTrigger::FhbHit,
                });
                if self.pair_progress_delta(behind, ahead) + CATCHUP_ENTRY_SLACK as i64 > 0 {
                    // Not convincingly behind: in a loop both threads'
                    // targets sit in both FHBs, so the hit alone cannot
                    // pick the direction; progress-since-last-sync can.
                    self.sync.cancel_catchup(behind);
                    self.emit(TraceEvent::ModeTransition {
                        thread: behind as u8,
                        to: ModeTag::Detect,
                        trigger: ModeTrigger::WrongDirection,
                    });
                }
            }
            mmt_frontend::SyncEvent::CatchupAborted { thread } => {
                self.emit(TraceEvent::ModeTransition {
                    thread: thread as u8,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::CatchupAbort,
                });
            }
            mmt_frontend::SyncEvent::None => {}
        }
    }

    /// Block every member's fetch until the just-fetched control
    /// instruction (the newest decode-queue entry) executes, plus the
    /// redirect penalty — the mispredict stall.
    fn block_members(&mut self, members: Itid, pc: u64) -> Result<(), SimError> {
        for t in members.threads() {
            self.threads[t].blocked_on = Some(PENDING_UOP);
        }
        self.decode_queue
            .back_mut()
            .ok_or(SimError::Desync {
                pc,
                thread: members.lead(),
                context: "mispredict block with no just-fetched decode entry",
            })?
            .blocks_mask |= members.mask();
        Ok(())
    }

    fn diverge_members(
        &mut self,
        members: Itid,
        pc: u64,
        targets: &[(usize, u64)],
        lead_pred: Option<u64>,
    ) -> Result<(), SimError> {
        let predicted_next = lead_pred.unwrap_or(targets[0].1);
        self.diverge_members_with_pred(members, pc, targets, predicted_next, None)
    }

    /// Split a merged group whose members resolved a control transfer
    /// differently. `fallthrough` is `Some(pc + 1)` for conditional
    /// branches (so not-taken edges are not recorded in the FHB).
    fn diverge_members_with_pred(
        &mut self,
        members: Itid,
        pc: u64,
        targets: &[(usize, u64)],
        predicted_next: u64,
        fallthrough: Option<u64>,
    ) -> Result<(), SimError> {
        // Partition members by their actual next PC (fixed buffers: at
        // most one part per member thread).
        let mut part_buf = [(0u64, 0u8); MAX_THREADS];
        let mut n_parts = 0;
        for &(t, next) in targets {
            match part_buf[..n_parts].iter_mut().find(|(pc, _)| *pc == next) {
                Some((_, mask)) => *mask |= 1 << t,
                None => {
                    part_buf[n_parts] = (next, 1 << t);
                    n_parts += 1;
                }
            }
        }
        let parts = &part_buf[..n_parts];
        if self.dbg_div {
            eprintln!("cyc {} DIVERGE pc-parts {:?}", self.now, parts);
        }
        debug_assert!(parts.len() >= 2);
        debug_assert_eq!(
            parts.iter().fold(0u8, |a, &(_, m)| a | m),
            members.mask(),
            "divergence parts must partition the group"
        );
        if self.cfg.level.shared_fetch() {
            let mut masks = [0u8; MAX_THREADS];
            for (i, &(_, m)) in parts.iter().enumerate() {
                masks[i] = m;
            }
            self.sync.diverge(&masks[..n_parts]);
            if self.obs.is_some() {
                self.emit(TraceEvent::Divergence {
                    pc,
                    mask: members.mask(),
                    parts: n_parts as u8,
                });
                // Threads split off alone leave MERGE; multi-thread parts
                // remain merged sub-groups and keep their mode.
                for &(_, m) in parts {
                    if m.count_ones() == 1 {
                        self.emit(TraceEvent::ModeTransition {
                            thread: m.trailing_zeros() as u8,
                            to: ModeTag::Detect,
                            trigger: ModeTrigger::Divergence,
                        });
                    }
                }
            }
        }
        let mut blocked_mask = 0u8;
        self.snapshot_pairs(members.mask());
        for &(next, mask) in parts {
            let part = Itid::from_mask(mask);
            for t in part.threads() {
                self.threads[t].branches_since_diverge = 0;
                if next != predicted_next {
                    self.stats.branch_mispredicts += 1;
                    blocked_mask |= 1 << t;
                }
            }
            // Taken diverging edges enter each thread's (fresh) FHB so
            // the other side can find the remerge point.
            if self.cfg.level.shared_fetch() && Some(next) != fallthrough {
                for t in part.threads() {
                    self.record_taken_branch(t, next);
                }
            }
        }
        if blocked_mask != 0 {
            self.block_members(Itid::from_mask(blocked_mask), pc)?;
        }
        Ok(())
    }

    /// Read-only access to the accumulated statistics (useful for tests
    /// that drive the simulator manually).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

enum FetchFlow {
    Continue,
    EndCycle,
}

/// Fetch the functional step record the front end is required to record
/// for every member thread it steps. Absence means the fetch group and
/// the per-member records went out of sync — a simulator bug reported as
/// [`SimError::Desync`] instead of a panic.
fn member_info<'a>(
    infos: &'a [Option<StepInfo>; MAX_THREADS],
    t: usize,
    pc: u64,
    context: &'static str,
) -> Result<&'a StepInfo, SimError> {
    infos[t].as_ref().ok_or(SimError::Desync {
        pc,
        thread: t,
        context,
    })
}

/// Cycle range for the per-cycle debug trace, parsed once from
/// `MMT_TRACE=start..end` (a developer aid; absent in normal runs).
fn trace_range() -> Option<std::ops::Range<u64>> {
    let v = std::env::var("MMT_TRACE").ok()?;
    let (a, b) = v.split_once("..")?;
    Some(a.parse().ok()?..b.parse().ok()?)
}
