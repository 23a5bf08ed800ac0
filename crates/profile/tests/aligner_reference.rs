//! The compact-trace aligner against a reference: the record-at-a-time
//! aligner over `Vec<TraceRecord>` that it replaced, kept here verbatim.
//! On random trace pairs both must report the same [`RedundancyProfile`].

use mmt_isa::{AluOp, Inst, Reg, TraceRecord};
use mmt_profile::align::{ANCHOR_LEN, DIVERGENCE_BUCKETS, SEARCH_WINDOW};
use mmt_profile::{profile_pair, RedundancyProfile, Trace};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The aligner over full trace records, as it was before traces became
/// struct-of-arrays.
mod reference {
    use super::*;
    use std::collections::HashMap;

    pub fn profile_pair(a: &[TraceRecord], b: &[TraceRecord]) -> RedundancyProfile {
        let mut p = RedundancyProfile {
            total: a.len() as u64,
            ..RedundancyProfile::default()
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if a[i].fetch_identical(&b[j]) {
                if a[i].execute_identical(&b[j]) {
                    p.execute_identical += 1;
                } else {
                    p.fetch_identical += 1;
                }
                i += 1;
                j += 1;
                continue;
            }
            // Divergence: find the nearest anchor within the window.
            match find_resync(a, i, b, j) {
                Some((di, dj)) => {
                    p.divergences += 1;
                    let tb_a = taken_branches(&a[i..i + di]);
                    let tb_b = taken_branches(&b[j..j + dj]);
                    record_divergence(&mut p, tb_a.abs_diff(tb_b));
                    p.not_identical += di as u64;
                    i += di;
                    j += dj;
                }
                None => {
                    // No re-convergence in the window: classify the rest of
                    // trace `a` as not-identical and stop.
                    p.divergences += 1;
                    let tb_a = taken_branches(&a[i..]);
                    let tb_b = taken_branches(&b[j..]);
                    record_divergence(&mut p, tb_a.abs_diff(tb_b));
                    p.not_identical += (a.len() - i) as u64;
                    return p;
                }
            }
        }
        // Tail of `a` with no partner left in `b`.
        p.not_identical += (a.len() - i) as u64;
        p
    }

    fn record_divergence(p: &mut RedundancyProfile, diff: u64) {
        let idx = DIVERGENCE_BUCKETS
            .iter()
            .position(|&bkt| diff <= bkt)
            .expect("last bucket is unbounded");
        p.divergence_diff_histogram[idx] += 1;
    }

    fn taken_branches(seg: &[TraceRecord]) -> u64 {
        seg.iter().filter(|r| r.taken_target.is_some()).count() as u64
    }

    fn anchor_hash(t: &[TraceRecord], at: usize) -> Option<u64> {
        if at + ANCHOR_LEN > t.len() {
            return None;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &t[at..at + ANCHOR_LEN] {
            h ^= r.pc.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Some(h)
    }

    /// Find `(di, dj)` — the smallest-total skip from `(i, j)` such that
    /// `a[i+di..]` and `b[j+dj..]` start with a matching anchor.
    fn find_resync(
        a: &[TraceRecord],
        i: usize,
        b: &[TraceRecord],
        j: usize,
    ) -> Option<(usize, usize)> {
        // Index trace b's window by anchor hash (earliest offset wins).
        let mut index: HashMap<u64, usize> = HashMap::new();
        let b_window = SEARCH_WINDOW.min(b.len() - j);
        for dj in (0..b_window).rev() {
            if let Some(h) = anchor_hash(b, j + dj) {
                index.insert(h, dj); // reverse order => earliest offset kept
            }
        }

        let a_window = SEARCH_WINDOW.min(a.len() - i);
        let mut best: Option<(usize, usize)> = None;
        for di in 0..a_window {
            if let Some(&(bi, bj)) = best.as_ref() {
                if di >= bi + bj {
                    break; // cannot beat the best total skip any more
                }
            }
            let Some(h) = anchor_hash(a, i + di) else {
                break;
            };
            if let Some(&dj) = index.get(&h) {
                // Verify (hash collision guard).
                if (0..ANCHOR_LEN).all(|k| a[i + di + k].fetch_identical(&b[j + dj + k])) {
                    let total = di + dj;
                    if best.is_none_or(|(x, y)| total < x + y) {
                        best = Some((di, dj));
                    }
                }
            }
        }
        // A zero-offset "resync" would mean the traces already matched.
        best.filter(|&(di, dj)| di + dj > 0)
    }
}

/// PCs of detours that can never re-converge: unique, and far above any
/// program PC.
const FAR_PC: u64 = 1 << 40;

/// The one static instruction at `pc` of the shared program, so that
/// equal PCs fetch equal instructions, as in a real SPMD pair.
fn inst_at(pc: u64) -> Inst {
    let r = |k: u64| Reg::from_index((k % 31 + 1) as usize).expect("r1..r31");
    Inst::Alu {
        op: AluOp::Add,
        rd: r(pc),
        rs1: r(pc / 31),
        rs2: r(pc / 961),
    }
}

/// A record at `pc` with a random source count, sources and (sometimes)
/// loaded value. Values come from a small alphabet so that the two
/// threads often agree by chance.
fn record(rng: &mut TestRng, pc: u64, taken: bool) -> TraceRecord {
    let num_srcs = rng.below(3) as u8;
    let src_vals = [rng.below(4), rng.below(4)];
    let loaded = (pc.is_multiple_of(5) || rng.below(8) == 0).then(|| rng.below(4));
    TraceRecord {
        pc,
        inst: inst_at(pc),
        src_vals,
        num_srcs,
        loaded,
        taken_target: taken.then_some(pc + 1 + rng.below(8)),
    }
}

/// Thread b's copy of thread a's record: the same most of the time,
/// otherwise with one of its values, its source count or its load
/// changed.
fn partner(rng: &mut TestRng, r: &TraceRecord) -> TraceRecord {
    let mut p = *r;
    match rng.below(10) {
        0 => p.src_vals[rng.below(2) as usize] ^= 1,
        1 => p.num_srcs = rng.below(3) as u8,
        2 => p.loaded = p.loaded.map(|v| v ^ 1),
        3 => p.loaded = if p.loaded.is_some() { None } else { Some(0) },
        // The same value words, split differently between sources and
        // the loaded value.
        4 if p.num_srcs > 0 && p.loaded.is_none() => {
            p.loaded = Some(p.src_vals[p.num_srcs as usize - 1]);
            p.num_srcs -= 1;
        }
        5 => p.taken_target = p.taken_target.xor(Some(r.pc + 1)),
        _ => {}
    }
    p
}

/// A detour: a run of records only one thread executes. Its PCs are
/// either program PCs (which may re-converge early or spuriously) or
/// fresh far PCs (which never match).
fn detour(rng: &mut TestRng, out: &mut Vec<TraceRecord>, len: usize, program: u64, far: &mut u64) {
    let in_program = rng.below(2) == 0;
    for _ in 0..len {
        let pc = if in_program {
            rng.below(program)
        } else {
            *far += 1;
            *far
        };
        let taken = rng.below(2) == 0;
        out.push(record(rng, pc, taken));
    }
}

/// Random trace pairs of one shared program.
struct TracePairs;

impl Strategy for TracePairs {
    type Value = (Vec<TraceRecord>, Vec<TraceRecord>);

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        if rng.below(6) == 0 {
            // Two unrelated walks over a tiny program: anchors everywhere,
            // most of them spurious.
            let program = 1 + rng.below(3);
            for t in [&mut a, &mut b] {
                for _ in 0..rng.below(60) {
                    let pc = rng.below(program);
                    let taken = rng.below(3) == 0;
                    t.push(record(rng, pc, taken));
                }
            }
            return (a, b);
        }
        let program = [4, 16, 64, 256][rng.below(4) as usize];
        let len = match rng.below(4) {
            0 => rng.below(2 * ANCHOR_LEN as u64),
            1 | 2 => rng.below(600),
            _ => rng.below(2500),
        };
        // At most one detour per pair runs past the search window.
        let mut long_detour = rng.below(4) == 0;
        let mut far = FAR_PC;
        let mut pc = 0;
        for _ in 0..len {
            for t in [&mut a, &mut b] {
                if rng.below(40) == 0 {
                    let dlen = if long_detour && rng.below(8) == 0 {
                        long_detour = false;
                        SEARCH_WINDOW + rng.below(64) as usize
                    } else {
                        1 + rng.below(40) as usize
                    };
                    detour(rng, t, dlen, program, &mut far);
                }
            }
            // The shared walk: mostly straight-line, sometimes a jump.
            let next = if rng.below(6) == 0 {
                rng.below(program)
            } else {
                (pc + 1) % program
            };
            let r = record(rng, pc, next != pc + 1);
            let skip_b = rng.below(60) == 0;
            if !skip_b {
                b.push(partner(rng, &r));
            }
            a.push(r);
            pc = next;
        }
        (a, b)
    }
}

fn compact(t: &[TraceRecord]) -> Trace {
    t.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compact_aligner_matches_the_record_aligner(pair in TracePairs) {
        let (a, b) = pair;
        let (ca, cb) = (compact(&a), compact(&b));
        prop_assert_eq!(ca.len(), a.len());
        prop_assert_eq!(profile_pair(&ca, &cb), reference::profile_pair(&a, &b));
        prop_assert_eq!(profile_pair(&cb, &ca), reference::profile_pair(&b, &a));
        prop_assert_eq!(profile_pair(&ca, &ca), reference::profile_pair(&a, &a));
    }
}

/// The generator reaches every case the property is meant to cover.
#[test]
fn trace_pairs_cover_the_interesting_cases() {
    let mut rng = TestRng::from_name("trace_pairs_cover_the_interesting_cases");
    let (mut short, mut past_window, mut both_kinds, mut wide_diff, mut unmatched_loads) =
        (false, false, false, false, false);
    for _ in 0..96 {
        let (a, b) = TracePairs.new_value(&mut rng);
        let p = reference::profile_pair(&a, &b);
        short |= !a.is_empty() && a.len() < ANCHOR_LEN;
        past_window |= a.len().abs_diff(b.len()) > SEARCH_WINDOW;
        both_kinds |= p.execute_identical > 0 && p.fetch_identical > 0 && p.divergences > 0;
        wide_diff |= p.divergence_diff_histogram[1..].iter().any(|&c| c > 0);
        unmatched_loads |= a.iter().zip(&b).any(|(x, y)| {
            x.pc == y.pc && x.srcs() == y.srcs() && x.loaded.is_some() && x.loaded != y.loaded
        });
    }
    assert!(short, "no trace shorter than an anchor");
    assert!(past_window, "no divergence longer than the search window");
    assert!(
        both_kinds,
        "no pair with both identity kinds and a divergence"
    );
    assert!(wide_diff, "no divergence past the first histogram bucket");
    assert!(unmatched_loads, "no loads of differing values");
}
