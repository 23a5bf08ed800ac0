//! Property-based tests for the ISA substrate: instruction semantics
//! algebra, assembler label resolution, memory round-trips, and the
//! determinism the whole toolchain rests on.

use mmt_isa::asm::Builder;
use mmt_isa::interp::{Machine, MemError, Memory};
use mmt_isa::{AluOp, BrCond, FpuOp, Reg};

use proptest::prelude::*;

/// Word limit of the memories in the dense-model test: a few pages and a
/// ragged tail.
const MEM_LIMIT: u64 = 3 * 4096 + 17;

/// Addresses anywhere up to a little past the limit, with extra weight
/// next to multiples of 4096 (page boundaries) and next to the limit.
fn mem_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..MEM_LIMIT + 16,
        (1u64..4, 0u64..16).prop_map(|(p, d)| p * 4096 - 8 + d),
        (0u64..48).prop_map(|d| MEM_LIMIT - 40 + d),
    ]
}

/// Mostly zeros and small values, so that stores leave trailing zeros
/// and the two memories often hold the same words.
fn mem_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..3, any::<u64>()]
}

/// [`Memory::store`] on a dense model whose length is the high-water mark.
fn model_store(model: &mut Vec<u64>, addr: u64, val: u64) -> Result<(), MemError> {
    if addr >= MEM_LIMIT {
        return Err(MemError { addr });
    }
    let a = addr as usize;
    if a >= model.len() {
        model.resize(a + 1, 0);
    }
    model[a] = val;
    Ok(())
}

proptest! {
    #[test]
    fn alu_algebra(a in any::<u64>(), b in any::<u64>()) {
        // add/sub are inverses (wrapping).
        prop_assert_eq!(AluOp::Sub.apply(AluOp::Add.apply(a, b), b), a);
        // xor is self-inverse.
        prop_assert_eq!(AluOp::Xor.apply(AluOp::Xor.apply(a, b), b), a);
        // and/or identities.
        prop_assert_eq!(AluOp::And.apply(a, a), a);
        prop_assert_eq!(AluOp::Or.apply(a, 0), a);
        // slt is a strict order: not (a<b and b<a).
        prop_assert!(AluOp::Slt.apply(a, b) & AluOp::Slt.apply(b, a) == 0);
        // division never panics and respects |quotient| <= |dividend|.
        let q = AluOp::Div.apply(a, b) as i64;
        if b != 0 && (b as i64) != -1 {
            prop_assert!(q.unsigned_abs() <= (a as i64).unsigned_abs());
        }
    }

    #[test]
    fn branch_conditions_partition(a in any::<u64>(), b in any::<u64>()) {
        // eq/ne partition, lt/ge partition.
        prop_assert_ne!(BrCond::Eq.eval(a, b), BrCond::Ne.eval(a, b));
        prop_assert_ne!(BrCond::Lt.eval(a, b), BrCond::Ge.eval(a, b));
    }

    #[test]
    fn fpu_ops_are_pure(a in any::<u64>(), b in any::<u64>()) {
        for op in [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Fdiv, FpuOp::Fsqrt] {
            prop_assert_eq!(op.apply(a, b), op.apply(a, b));
        }
    }

    #[test]
    fn memory_round_trip(writes in prop::collection::vec((0u64..4096, any::<u64>()), 1..64)) {
        let mut mem = Memory::new(0);
        let mut model = std::collections::HashMap::new();
        for &(addr, val) in &writes {
            mem.store(addr, val).unwrap();
            model.insert(addr, val);
        }
        for (&addr, &val) in &model {
            prop_assert_eq!(mem.load(addr).unwrap(), val);
        }
        // Untouched addresses read zero.
        prop_assert_eq!(mem.load(4097).unwrap(), 0);
    }

    /// Two memories driven by random stores, bulk stores, clones and
    /// loads agree with two dense models: clones are isolated in both
    /// directions, the high-water mark and equality track the models,
    /// and the limit rejects exactly the out-of-range addresses.
    #[test]
    fn memories_match_a_dense_model_across_clones(
        ops in prop::collection::vec(
            (0u8..4, 0usize..2, mem_addr(), mem_value(), 0u64..40),
            1..80,
        ),
    ) {
        let mut mems = [
            Memory::with_limit(0, MEM_LIMIT),
            Memory::with_limit(0, MEM_LIMIT),
        ];
        let mut models: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &(kind, i, addr, val, n) in &ops {
            match kind {
                0 => {
                    let r = mems[i].store(addr, val);
                    prop_assert_eq!(r, model_store(&mut models[i], addr, val));
                }
                1 => {
                    let words = (0..n).map(|k| val.wrapping_add(k));
                    let r = mems[i].store_words(addr, words.clone());
                    let mut want = Ok(());
                    for (k, v) in words.enumerate() {
                        want = model_store(&mut models[i], addr + k as u64, v);
                        if want.is_err() {
                            break;
                        }
                    }
                    prop_assert_eq!(r, want);
                }
                2 => {
                    mems[i] = mems[1 - i].clone();
                    models[i] = models[1 - i].clone();
                }
                _ => {
                    let want = if addr >= MEM_LIMIT {
                        Err(MemError { addr })
                    } else {
                        Ok(models[i].get(addr as usize).copied().unwrap_or(0))
                    };
                    prop_assert_eq!(mems[i].load(addr), want);
                }
            }
            for (m, model) in mems.iter().zip(&models) {
                prop_assert_eq!(m.touched_len(), model.len());
            }
            prop_assert_eq!(mems[0] == mems[1], models[0] == models[1]);
        }
        for (m, model) in mems.iter().zip(&models) {
            for a in 0..MEM_LIMIT {
                prop_assert_eq!(m.load(a), Ok(model.get(a as usize).copied().unwrap_or(0)));
            }
            let image: Vec<u64> = m.word_chunks().flatten().copied().collect();
            prop_assert_eq!(&image, model);
        }
    }

    #[test]
    fn li_materializes_any_constant(v in any::<i64>()) {
        let mut b = Builder::new();
        b.li(Reg::R1, v);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.run(&p, &mut mem, 100).unwrap();
        prop_assert!(m.halted());
        prop_assert_eq!(m.reg(Reg::R1) as i64, v);
    }

    #[test]
    fn straight_line_alu_programs_are_deterministic(
        ops in prop::collection::vec((0usize..8, 1usize..8, 1usize..8, 1usize..8), 1..48),
        seeds in prop::collection::vec(any::<i64>(), 4),
    ) {
        let alu = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or,
                   AluOp::Xor, AluOp::Shl, AluOp::Shr, AluOp::Mul];
        let mut b = Builder::new();
        for (i, &s) in seeds.iter().enumerate() {
            b.li(Reg::from_index(i + 1).unwrap(), s);
        }
        for &(op, rd, rs1, rs2) in &ops {
            b.alu(
                alu[op],
                Reg::from_index(rd).unwrap(),
                Reg::from_index(rs1).unwrap(),
                Reg::from_index(rs2).unwrap(),
            );
        }
        b.halt();
        let p = b.build().unwrap();
        let run = || {
            let mut mem = Memory::new(0);
            let mut m = Machine::new(0);
            m.run(&p, &mut mem, 10_000).unwrap();
            *m.regs()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn countdown_loops_terminate_with_exact_trip_counts(n in 1i64..200) {
        let mut b = Builder::new();
        let (top, out) = (b.label(), b.label());
        b.li(Reg::R1, n);
        b.addi(Reg::R2, Reg::R0, 0);
        b.bind(top);
        b.beq(Reg::R1, Reg::R0, out);
        b.addi(Reg::R2, Reg::R2, 1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.jmp(top);
        b.bind(out);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.run(&p, &mut mem, 1_000_000).unwrap();
        prop_assert!(m.halted());
        prop_assert_eq!(m.reg(Reg::R2) as i64, n);
    }
}

// ---------------------------------------------------------------------
// Assembler round-trip: any program's disassembly re-parses to itself.
// ---------------------------------------------------------------------

use mmt_isa::inst::Inst;
use mmt_isa::parse::parse;

fn arb_inst(len: usize) -> impl Strategy<Value = Inst> {
    let reg = (0usize..32).prop_map(|i| Reg::from_index(i).unwrap());
    let target = 0u64..len as u64;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone(), 0usize..10).prop_map(|(rd, rs1, rs2, op)| {
            let ops = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
                AluOp::Slt,
                AluOp::Mul,
                AluOp::Div,
            ];
            Inst::Alu {
                op: ops[op],
                rd,
                rs1,
                rs2,
            }
        }),
        (reg.clone(), reg.clone(), any::<i32>(), 0usize..10).prop_map(|(rd, rs1, imm, op)| {
            let ops = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
                AluOp::Slt,
                AluOp::Mul,
                AluOp::Div,
            ];
            Inst::AluI {
                op: ops[op],
                rd,
                rs1,
                imm: imm as i64,
            }
        }),
        (reg.clone(), reg.clone(), reg.clone(), 0usize..4).prop_map(|(rd, rs1, rs2, op)| {
            let ops = [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Fdiv, FpuOp::Fsqrt];
            Inst::Fpu {
                op: ops[op],
                rd,
                rs1,
                rs2,
            }
        }),
        (reg.clone(), reg.clone(), any::<i16>()).prop_map(|(rd, base, off)| Inst::Ld {
            rd,
            base,
            off: off as i64
        }),
        (reg.clone(), reg.clone(), any::<i16>()).prop_map(|(src, base, off)| Inst::St {
            src,
            base,
            off: off as i64
        }),
        (reg.clone(), reg.clone(), target.clone(), 0usize..4).prop_map(|(rs1, rs2, t, c)| {
            let conds = [BrCond::Eq, BrCond::Ne, BrCond::Lt, BrCond::Ge];
            Inst::Br {
                cond: conds[c],
                rs1,
                rs2,
                target: t,
            }
        }),
        target.clone().prop_map(|t| Inst::Jmp { target: t }),
        (reg.clone(), target).prop_map(|(rd, t)| Inst::Jal { rd, target: t }),
        reg.clone().prop_map(|rs| Inst::Jr { rs }),
        reg.prop_map(|rd| Inst::Tid { rd }),
        Just(Inst::Halt),
        Just(Inst::Nop),
    ]
}

proptest! {
    #[test]
    fn disassembly_reparses_identically(
        insts in prop::collection::vec(arb_inst(64), 1..64)
    ) {
        let original = mmt_isa::Program::from_insts(insts);
        let text = original.to_string();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(reparsed, original);
    }
}
