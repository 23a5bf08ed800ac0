//! Functional trace collection into the compact [`Trace`] format.

use mmt_isa::interp::{ExecError, Machine, Memory, StepInfo};
use mmt_isa::{Program, TraceRecord};

/// `meta` bits 0–1: the record's source-operand count (0–2).
const SRC_COUNT: u8 = 0b0011;
/// `meta` bit 2: the record has a loaded value (after its sources).
const LOADED: u8 = 0b0100;
/// `meta` bit 3: the record was a taken branch or a jump.
const TAKEN: u8 = 0b1000;
/// The `meta` bits that describe a record's values: two records with
/// equal `meta & VALUE_BITS` have value slices of equal length and layout.
pub(crate) const VALUE_BITS: u8 = SRC_COUNT | LOADED;

/// A dynamic-instruction trace of one thread, stored struct-of-arrays.
///
/// Record `i` has PC `pcs[i]` and a flags byte `meta[i]` (source count,
/// loaded-value bit, taken bit); its values are the next words of
/// `vals`, sources first, then the loaded value. Records carry no
/// instruction: fetch identity is PC equality, which holds only between
/// traces of one [`Program`] (see [`profile_pair`](crate::profile_pair)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub(crate) pcs: Vec<u64>,
    pub(crate) meta: Vec<u8>,
    pub(crate) vals: Vec<u64>,
}

/// Number of `vals` words a record with flags `meta` owns.
#[inline]
pub(crate) fn value_count(meta: u8) -> usize {
    usize::from(meta & SRC_COUNT) + usize::from((meta & LOADED) != 0)
}

/// Whether a record with flags `meta` was a taken branch or a jump.
#[inline]
pub(crate) fn is_taken(meta: u8) -> bool {
    meta & TAKEN != 0
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// PC of record `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn pc(&self, i: usize) -> u64 {
        self.pcs[i]
    }

    /// Append the record of one interpreter step. It holds what
    /// [`TraceRecord::from_step`] would keep, less the instruction.
    #[inline]
    pub fn push_step(&mut self, info: &StepInfo) {
        let taken = info.redirects() && info.control_target.is_some();
        self.push(info.pc, info.srcs(), info.loaded, taken);
    }

    #[inline]
    fn push(&mut self, pc: u64, srcs: &[u64], loaded: Option<u64>, taken: bool) {
        debug_assert!(srcs.len() <= usize::from(SRC_COUNT));
        let mut meta = srcs.len() as u8;
        self.vals.extend_from_slice(srcs);
        if let Some(v) = loaded {
            meta |= LOADED;
            self.vals.push(v);
        }
        if taken {
            meta |= TAKEN;
        }
        self.pcs.push(pc);
        self.meta.push(meta);
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Trace {
        let mut t = Trace::default();
        for r in iter {
            t.push(r.pc, r.srcs(), r.loaded, r.taken_target.is_some());
        }
        t
    }
}

/// Run thread `tid` of `program` against `memory` to completion (or
/// `max_steps`), returning its dynamic-instruction trace.
///
/// # Errors
///
/// Propagates interpreter faults ([`ExecError`]); hitting `max_steps`
/// without `halt` is not an error — the truncated trace is returned (the
/// aligner treats both traces symmetrically).
pub fn collect_trace(
    program: &Program,
    memory: &mut Memory,
    tid: usize,
    max_steps: u64,
) -> Result<Trace, ExecError> {
    let mut machine = Machine::new(tid);
    let mut out = Trace::default();
    while !machine.halted() && (out.len() as u64) < max_steps {
        let info = machine.step(program, memory)?;
        out.push_step(&info);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::{MemSharing, Reg};

    #[test]
    fn collects_full_trace() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 2);
        b.alu_add(Reg::R2, Reg::R1, Reg::R1);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let t = collect_trace(&p, &mut mem, 0, 1000).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.pc(0), 0);
        assert_eq!(t.pc(2), 2);
    }

    #[test]
    fn truncates_at_max_steps() {
        let mut b = Builder::new();
        let top = b.label();
        b.bind(top);
        b.jmp(top); // infinite loop
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let t = collect_trace(&p, &mut mem, 0, 50).unwrap();
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn suite_app_trace_equals_its_records() {
        // An app with loads, branches and per-thread memories: the
        // compact trace must hold exactly the records' PCs, values and
        // taken bits.
        let w = mmt_workloads::app_by_name("equake")
            .expect("known app")
            .instance(2, 1);
        assert_eq!(w.sharing, MemSharing::PerThread);
        for tid in 0..2 {
            let mut mem = w.memories[tid].clone();
            let got = collect_trace(&w.program, &mut mem, tid, 200_000).unwrap();

            let mut mem = w.memories[tid].clone();
            let mut machine = Machine::new(tid);
            let mut records = Vec::new();
            while !machine.halted() && records.len() < 200_000 {
                let info = machine.step(&w.program, &mut mem).unwrap();
                records.push(TraceRecord::from_step(&info));
            }
            assert!(records.iter().any(|r| r.loaded.is_some()));
            assert!(records.iter().any(|r| r.taken_target.is_some()));
            assert!(records.iter().any(|r| r.num_srcs == 2));
            assert_eq!(got, records.into_iter().collect::<Trace>());
        }
    }
}
