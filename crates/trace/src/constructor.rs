//! Trace construction: turns a selected [`TraceCandidate`] into an
//! executable [`TraceFrame`] of decoded uops with atomic-trace semantics —
//! conditional branches become **assert** uops carrying their recorded
//! direction, unconditional control transfers dissolve (control flow inside
//! an atomic trace is implicit), and memory uops get stable slots into the
//! recorded effective-address sequence.

use crate::cache::{OptLevel, TraceFrame};
use crate::selection::TraceCandidate;
use parrot_isa::{Uop, UopKind};
use parrot_telemetry::{metrics, profile, trace as tev};
use parrot_workloads::DecodedProgram;

/// Build an executable frame from a candidate.
///
/// Per-uop transformations:
/// * `Branch(cond)` → `Assert { cond, expect: recorded }` (branch
///   promotion; a failed assert aborts the trace),
/// * `Jump` and `JumpInd` are elided — within an atomic trace the next
///   instruction is known statically, and a return's target is implied by
///   its in-trace context (§2.2),
/// * memory uops receive a `mem_slot` index into the frame's recorded
///   address sequence (used by functional replay and by optimization
///   verification).
///
/// The frame carries its dispatch form ([`TraceFrame::build_dispatch`]).
pub fn construct_frame(cand: &TraceCandidate, decoded: &DecodedProgram) -> TraceFrame {
    let _prof = profile::scope("trace.construct");
    let mut uops: Vec<Uop> = Vec::with_capacity(cand.num_uops as usize);
    let mut mem_addrs: Vec<u64> = Vec::new();
    for (ordinal, ci) in cand.insts.iter().enumerate() {
        for u in decoded.uops(ci.inst) {
            let mut u = u.clone();
            u.inst_idx = ordinal as u32;
            match u.kind {
                UopKind::Branch(cond) => {
                    u.kind = UopKind::Assert {
                        cond,
                        expect: ci.taken,
                    };
                }
                UopKind::Jump | UopKind::JumpInd => continue,
                _ => {}
            }
            if u.is_mem() {
                u.mem_slot = Some(mem_addrs.len() as u16);
                mem_addrs.push(ci.eff_addr);
            }
            uops.push(u);
        }
    }
    let orig_uops = uops.len() as u32;
    let num_insts = cand.insts.len() as u32;
    tev::instant(
        "trace.construct",
        "trace",
        tev::track::TRACE,
        tev::arg2("insts", f64::from(num_insts), "uops", f64::from(orig_uops)),
    );
    metrics::hist_record("trace_len_insts", u64::from(num_insts));
    metrics::hist_record("trace_len_uops", u64::from(orig_uops));
    let mut frame = TraceFrame {
        tid: cand.tid,
        uops,
        mem_addrs,
        dispatch: Vec::with_capacity(orig_uops.max(1) as usize),
        addr_slots: Vec::new(),
        path: cand.insts.iter().map(|ci| (ci.pc, ci.taken)).collect(),
        num_insts,
        orig_uops,
        joins: cand.joins,
        opt_level: OptLevel::Constructed,
        verdict: None,
        exec_count: 0,
        execs_since_opt: 0,
        live_conf: 1,
    };
    frame.build_dispatch();
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{select_candidates, SelectionConfig};
    use parrot_workloads::{generate_program, AppProfile, Suite};

    fn frames_from_stream(n: usize) -> (Vec<TraceFrame>, parrot_workloads::Program) {
        let prog = generate_program(&AppProfile::suite_base(Suite::SpecInt));
        let decoded = prog.decode_all();
        let frames = select_candidates(&prog, SelectionConfig::default(), n)
            .iter()
            .map(|c| construct_frame(c, &decoded))
            .collect();
        (frames, prog)
    }

    #[test]
    fn frames_have_asserts_not_branches() {
        let (frames, _) = frames_from_stream(20_000);
        assert!(frames.len() > 50);
        for f in &frames {
            let mut asserts = 0u8;
            for u in &f.uops {
                assert!(
                    !matches!(
                        u.kind,
                        UopKind::Branch(_) | UopKind::Jump | UopKind::JumpInd
                    ),
                    "raw control uop left in frame"
                );
                if matches!(u.kind, UopKind::Assert { .. }) {
                    asserts += 1;
                }
            }
            assert_eq!(
                asserts, f.tid.num_branches,
                "one assert per recorded direction"
            );
        }
    }

    #[test]
    fn assert_directions_match_tid() {
        let (frames, _) = frames_from_stream(20_000);
        for f in &frames {
            let mut i = 0u8;
            for u in &f.uops {
                if let UopKind::Assert { expect, .. } = u.kind {
                    assert_eq!(expect, f.tid.dir(i), "assert expectation mirrors TID bit");
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn mem_slots_are_dense_and_addressed() {
        let (frames, _) = frames_from_stream(20_000);
        for f in &frames {
            let mut next = 0u16;
            for u in &f.uops {
                if u.is_mem() {
                    assert_eq!(u.mem_slot, Some(next), "mem slots must be dense in order");
                    next += 1;
                } else {
                    assert_eq!(u.mem_slot, None);
                }
            }
            assert_eq!(usize::from(next), f.mem_addrs.len());
        }
    }

    #[test]
    fn construction_compresses_unconditional_control() {
        let (frames, _) = frames_from_stream(20_000);
        let total_orig: u32 = frames.iter().map(|f| f.orig_uops).sum();
        let total_decoded: u32 = frames
            .iter()
            .map(|f| f.num_insts) // lower bound: ≥1 uop per inst
            .sum();
        assert!(total_orig >= total_decoded, "sanity: uops ≥ insts");
        // At least some frames contain elided jumps (call-heavy code).
        let any_inst_gap = frames.iter().any(|f| {
            f.uops.len() < f.num_insts as usize * 2 // loose: drops happened somewhere
        });
        assert!(any_inst_gap);
    }

    #[test]
    fn the_dispatch_form_has_one_uop_per_uop_and_the_credit_on_the_last() {
        use parrot_isa::DispatchUop;
        let (frames, _) = frames_from_stream(20_000);
        for f in &frames {
            assert_eq!(f.dispatch.len(), f.uops.len().max(1));
            let credits: Vec<u32> = f.dispatch.iter().map(|d| d.inst_credit).collect();
            let (last, rest) = credits.split_last().expect("never empty");
            assert_eq!(*last, f.num_insts, "the last uop carries the whole credit");
            assert!(rest.iter().all(|&c| c == 0));
            for (d, u) in f.dispatch.iter().zip(&f.uops) {
                assert_eq!(*d, DispatchUop::from_uop(u, 0, d.inst_credit));
            }
            let mem: Vec<(u32, u32)> = (f.uops.iter().enumerate())
                .filter(|(_, u)| u.is_mem())
                .map(|(i, u)| (i as u32, u.inst_idx))
                .collect();
            assert_eq!(
                f.addr_slots, mem,
                "constructed frames are in instruction order"
            );
        }
    }

    #[test]
    fn inst_idx_is_trace_local_and_monotone() {
        let (frames, _) = frames_from_stream(20_000);
        for f in &frames {
            let mut prev = 0;
            for u in &f.uops {
                assert!(u.inst_idx >= prev);
                assert!((u.inst_idx as usize) < f.num_insts as usize);
                prev = u.inst_idx;
            }
        }
    }
}
