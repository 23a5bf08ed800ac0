//! Trace alignment: the common-subtrace finder.
//!
//! The paper measures inter-thread redundancy by "finding all of the
//! common subtraces of each trace" (Section 3.2), allowing execution
//! paths to "diverge for different amounts of time before coming back
//! together". We implement that with a classic anchor-based greedy
//! aligner: walk both traces in lockstep while they match; on a
//! mismatch, search a bounded window for the nearest *anchor* (a run of
//! [`ANCHOR_LEN`] consecutive identical PCs) and skip both traces to it,
//! counting the skipped segments as divergent.
//!
//! The search is linear per divergence: the window of the second trace
//! is indexed by anchor hash, then the first trace's window is scanned
//! against that index, preferring the resynchronization that skips the
//! fewest total instructions.

use crate::trace::{is_taken, value_count, Trace, VALUE_BITS};
use crate::RedundancyProfile;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Histogram buckets for divergent-path length differences, in taken
/// branches (Figure 2's x-axis: ≤16, ≤32, … plus an unbounded bucket).
pub const DIVERGENCE_BUCKETS: [u64; 7] = [16, 32, 64, 128, 256, 512, u64::MAX];

/// Consecutive identical PCs required to declare re-convergence.
pub const ANCHOR_LEN: usize = 4;

/// Maximum instructions scanned ahead in each trace when searching for a
/// re-convergence point. Divergences longer than this are treated as
/// never re-converging (everything to the window edge is not-identical).
pub const SEARCH_WINDOW: usize = 4096;

/// Align two thread traces and classify every instruction (Figure 1) and
/// every divergence (Figure 2).
///
/// Both traces must come from the same [`Program`](mmt_isa::Program):
/// a [`Trace`] stores no instructions, so two records are taken to be
/// fetch-identical exactly when their PCs are equal. Within one program a
/// PC names one static instruction, which is the argument
/// [`TraceRecord::fetch_identical`](mmt_isa::TraceRecord::fetch_identical)
/// makes; traces of two different programs give a meaningless profile.
pub fn profile_pair(a: &Trace, b: &Trace) -> RedundancyProfile {
    let mut p = RedundancyProfile {
        total: a.len() as u64,
        ..RedundancyProfile::default()
    };
    let mut index = AnchorIndex::default();
    let (mut i, mut j) = (0usize, 0usize);
    // Where the values of records `a[i]` and `b[j]` start in `vals`.
    let (mut va, mut vb) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a.pcs[i] == b.pcs[j] {
            let (ma, mb) = (a.meta[i], b.meta[j]);
            let (na, nb) = (value_count(ma), value_count(mb));
            // Equal value bits mean equal source counts and both or
            // neither loading, so the slices line up value for value.
            if ma & VALUE_BITS == mb & VALUE_BITS && a.vals[va..va + na] == b.vals[vb..vb + nb] {
                p.execute_identical += 1;
            } else {
                p.fetch_identical += 1;
            }
            i += 1;
            j += 1;
            va += na;
            vb += nb;
            continue;
        }
        // Divergence: find the nearest anchor within the window.
        match find_resync(&mut index, &a.pcs, i, &b.pcs, j) {
            Some((di, dj)) => {
                p.divergences += 1;
                let (tb_a, vals_a) = skip(&a.meta[i..i + di]);
                let (tb_b, vals_b) = skip(&b.meta[j..j + dj]);
                record_divergence(&mut p, tb_a.abs_diff(tb_b));
                p.not_identical += di as u64;
                i += di;
                j += dj;
                va += vals_a;
                vb += vals_b;
            }
            None => {
                // No re-convergence in the window: classify the rest of
                // trace `a` as not-identical and stop.
                p.divergences += 1;
                let (tb_a, _) = skip(&a.meta[i..]);
                let (tb_b, _) = skip(&b.meta[j..]);
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

/// The taken branches among a run of skipped records (given by their
/// `meta` flags), and the number of value words the run owns.
fn skip(meta: &[u8]) -> (u64, usize) {
    meta.iter().fold((0, 0), |(taken, vals), &m| {
        (taken + u64::from(is_taken(m)), vals + value_count(m))
    })
}

/// Anchor hash → earliest window offset holding that anchor. The keys
/// are already FNV hashes, so they hash to themselves. Keys that collide
/// in the table cost time, never a wrong result: every hit is verified.
type AnchorIndex = HashMap<u64, usize, BuildHasherDefault<PassThrough>>;

/// A [`Hasher`] for `u64` keys that are already well mixed.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("anchor keys are hashed with write_u64");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

fn anchor_hash(pcs: &[u64], at: usize) -> Option<u64> {
    let anchor = pcs.get(at..at + ANCHOR_LEN)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &pc in anchor {
        h ^= pc.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    Some(h)
}

/// Find `(di, dj)` — the smallest-total skip from `(i, j)` such that
/// `a[i+di..]` and `b[j+dj..]` start with a matching anchor. `index` is
/// scratch space, reused across the divergences of one pair.
fn find_resync(
    index: &mut AnchorIndex,
    a: &[u64],
    i: usize,
    b: &[u64],
    j: usize,
) -> Option<(usize, usize)> {
    // Index trace b's window by anchor hash (earliest offset wins).
    index.clear();
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
            let (sa, sb) = (i + di, j + dj);
            if a[sa..sa + ANCHOR_LEN] == b[sb..sb + ANCHOR_LEN] {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::{AluOp, Inst, Reg, TraceRecord};

    fn rec(pc: u64, srcs: &[u64]) -> TraceRecord {
        let mut sv = [0u64; 2];
        for (k, &v) in srcs.iter().take(2).enumerate() {
            sv[k] = v;
        }
        TraceRecord {
            pc,
            inst: Inst::Alu {
                op: AluOp::Add,
                rd: Reg::R1,
                rs1: Reg::R2,
                rs2: Reg::R3,
            },
            src_vals: sv,
            num_srcs: srcs.len().min(2) as u8,
            loaded: None,
            taken_target: None,
        }
    }

    fn branch(pc: u64, target: u64) -> TraceRecord {
        TraceRecord {
            taken_target: Some(target),
            ..rec(pc, &[])
        }
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        records.into_iter().collect()
    }

    #[test]
    fn identical_traces_are_all_execute_identical() {
        let t: Trace = (0..20).map(|pc| rec(pc, &[pc, 7])).collect();
        let p = profile_pair(&t, &t);
        assert_eq!(p.execute_identical, 20);
        assert_eq!(p.fetch_identical, 0);
        assert_eq!(p.not_identical, 0);
        assert_eq!(p.divergences, 0);
        let (e, f, n) = p.fractions();
        assert_eq!((e, f, n), (1.0, 0.0, 0.0));
    }

    #[test]
    fn same_path_different_values_is_fetch_identical() {
        let a: Trace = (0..20).map(|pc| rec(pc, &[1])).collect();
        let b: Trace = (0..20).map(|pc| rec(pc, &[2])).collect();
        let p = profile_pair(&a, &b);
        assert_eq!(p.fetch_identical, 20);
        assert_eq!(p.execute_identical, 0);
    }

    #[test]
    fn divergence_is_found_and_skipped() {
        // a: 0..10, then detour 100..104, then 10..30
        // b: 0..10, then           10..30 directly
        let mut a: Vec<_> = (0..10).map(|pc| rec(pc, &[0])).collect();
        a.extend((100..105).map(|pc| rec(pc, &[0])));
        a.extend((10..30).map(|pc| rec(pc, &[0])));
        let b: Trace = (0..30).map(|pc| rec(pc, &[0])).collect();
        let p = profile_pair(&trace(a), &b);
        assert_eq!(p.divergences, 1);
        assert_eq!(p.not_identical, 5, "the detour");
        assert_eq!(p.execute_identical, 30, "prefix + suffix");
    }

    #[test]
    fn divergence_diff_counts_taken_branches() {
        // Thread a's divergent segment has 3 taken branches, b's has 1:
        // difference 2 lands in the <=16 bucket.
        let mut a: Vec<_> = (0..8).map(|pc| rec(pc, &[0])).collect();
        a.extend([branch(100, 101), branch(101, 102), branch(102, 103)]);
        a.extend((8..20).map(|pc| rec(pc, &[0])));
        let mut b: Vec<_> = (0..8).map(|pc| rec(pc, &[0])).collect();
        b.extend([branch(200, 201)]);
        b.extend((8..20).map(|pc| rec(pc, &[0])));
        let p = profile_pair(&trace(a), &trace(b));
        assert_eq!(p.divergences, 1);
        assert_eq!(p.divergence_diff_histogram[0], 1);
        assert!(p.divergences_within(16) >= 1.0);
    }

    #[test]
    fn non_reconverging_traces_mark_tail_not_identical() {
        let a: Trace = (0..50).map(|pc| rec(pc, &[0])).collect();
        let b: Trace = (1000..1050).map(|pc| rec(pc, &[0])).collect();
        let p = profile_pair(&a, &b);
        assert_eq!(p.not_identical, 50);
        assert_eq!(p.execute_identical + p.fetch_identical, 0);
    }

    #[test]
    fn prefers_smallest_total_skip() {
        // b contains the anchor twice; the aligner must pick the earlier
        // occurrence (smaller dj).
        let mut a: Vec<_> = (0..6).map(|pc| rec(pc, &[0])).collect();
        a.extend((50..60).map(|pc| rec(pc, &[0])));
        let mut b: Vec<_> = (0..6).map(|pc| rec(pc, &[0])).collect();
        b.extend((200..203).map(|pc| rec(pc, &[0])));
        b.extend((50..60).map(|pc| rec(pc, &[0])));
        let p = profile_pair(&trace(a), &trace(b));
        assert_eq!(p.divergences, 1);
        // All of a aligns except nothing — a's segments: prefix 6 + 10.
        assert_eq!(p.execute_identical, 16);
        assert_eq!(p.not_identical, 0);
    }

    #[test]
    fn empty_traces() {
        let p = profile_pair(&Trace::default(), &Trace::default());
        assert_eq!(p.total, 0);
        assert_eq!(p.fractions(), (0.0, 0.0, 0.0));
        assert_eq!(p.divergences_within(16), 1.0);
    }

    #[test]
    fn loads_with_different_values_do_not_count_execute_identical() {
        let mk = |v: u64| TraceRecord {
            loaded: Some(v),
            ..rec(5, &[9])
        };
        let p = profile_pair(&trace(vec![mk(1)]), &trace(vec![mk(2)]));
        assert_eq!(p.fetch_identical, 1);
        assert_eq!(p.execute_identical, 0);
    }
}
