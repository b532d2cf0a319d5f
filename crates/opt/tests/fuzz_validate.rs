//! Differential fuzzing of the static translation validator.
//!
//! A deterministic xorshift-driven generator produces random traces; each
//! runs through the full optimizer pipeline (including the validation
//! gate), and the static verdict is cross-checked against multi-seed
//! dynamic replay:
//!
//! * a `Validated` trace that diverges under replay is a **hard failure**
//!   (the validator would be unsound);
//! * a demoted trace must keep its original uops;
//! * deliberately corrupted rewrites that replay detects as divergent must
//!   never be marked `Validated` (soundness under mutation).
//!
//! Run with `cargo test -q -p parrot-opt --test fuzz_validate`. The seed
//! corpus is fixed, so the run is reproducible.

use parrot_isa::{AluOp, Cond, FpOp, Reg, Uop, UopKind};
use parrot_opt::validate::{self, Verdict};
use parrot_opt::verify::check_equivalent_multi;
use parrot_opt::{GateDecision, Optimizer, OptimizerConfig};
use parrot_telemetry::rng::Xorshift64Star;
use parrot_trace::{OptLevel, Tid, TraceFrame};

/// A small pool of aliasing addresses: store-to-load forwarding through
/// memory must be preserved by every rewrite.
fn addr_of(r: &mut Xorshift64Star) -> u64 {
    0x2000 + r.u64_in(0, 6) * 8
}

fn gen_trace(r: &mut Xorshift64Star) -> (Vec<Uop>, Vec<u64>) {
    let n = r.usize_in(2, 56);
    let mut uops = Vec::with_capacity(n);
    let mut addrs = Vec::new();
    let ri = |r: &mut Xorshift64Star| Reg::int(r.u8_in(0, 16));
    for i in 0..n {
        let mut u = match r.u32_in(0, 13) {
            0 | 1 => Uop::mov_imm(ri(r), r.i64_in(-300, 300)),
            2 | 3 => {
                let op = *r.pick(&AluOp::ALL);
                Uop::alu_imm(op, ri(r), ri(r), r.i64_in(-64, 64))
            }
            4 | 5 => {
                let op = *r.pick(&AluOp::ALL);
                Uop::alu(op, ri(r), ri(r), ri(r))
            }
            6 => {
                let mut u = Uop::alu(AluOp::Add, ri(r), ri(r), ri(r));
                u.kind = UopKind::Mul;
                u
            }
            7 => {
                let mut u = Uop::alu(AluOp::Add, ri(r), ri(r), ri(r));
                u.kind = UopKind::Div;
                u
            }
            8 => {
                let op = *r.pick(&FpOp::ALL);
                let mut u = Uop::alu(
                    AluOp::Add,
                    Reg::fp(r.u8_in(0, 16)),
                    Reg::fp(r.u8_in(0, 16)),
                    Reg::fp(r.u8_in(0, 16)),
                );
                u.kind = UopKind::Fp(op);
                u
            }
            9 => Uop::cmp(ri(r), r.chance(0.5).then(|| ri(r)), Some(r.i64_in(-64, 64))),
            10 => Uop::assert(*r.pick(&Cond::ALL), r.chance(0.5)),
            11 => Uop::load(ri(r), ri(r)),
            _ => Uop::store(ri(r), ri(r)),
        };
        u.inst_idx = i as u32;
        if u.is_mem() {
            u.mem_slot = Some(addrs.len() as u16);
            addrs.push(addr_of(r));
        }
        uops.push(u);
    }
    (uops, addrs)
}

fn frame_of(uops: &[Uop], addrs: &[u64]) -> TraceFrame {
    TraceFrame {
        tid: Tid::new(0x7000),
        uops: uops.to_vec(),
        mem_addrs: addrs.to_vec(),
        dispatch: Vec::new(),
        addr_slots: Vec::new(),
        path: vec![],
        num_insts: uops.len() as u32,
        orig_uops: uops.len() as u32,
        joins: 1,
        opt_level: OptLevel::Constructed,
        verdict: None,
        exec_count: 0,
        execs_since_opt: 0,
        live_conf: 2,
    }
}

const CASES: u64 = 300;
const CORPUS_SEED: u64 = 0xf022_1dea;

#[test]
fn fuzz_validate_static_verdicts_match_dynamic_replay() {
    let mut r = Xorshift64Star::seed_from_u64(CORPUS_SEED);
    let mut validated = 0u64;
    for case in 0..CASES {
        let (uops, addrs) = gen_trace(&mut r);
        let replay_seeds: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut frame = frame_of(&uops, &addrs);
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let out = optz.optimize(&mut frame, 0);
        match out.gate {
            GateDecision::Validated => {
                // Hard failure on divergence: the static proof claims ALL
                // entry states, so any sampled state must agree.
                if let Err(e) = check_equivalent_multi(&uops, &frame.uops, &addrs, &replay_seeds) {
                    panic!("case {case}: VALIDATED trace diverges under replay: {e}");
                }
                validated += 1;
            }
            GateDecision::DemotedLint | GateDecision::DemotedEquiv => {
                assert_eq!(frame.uops, uops, "case {case}: demotion must restore");
            }
        }
    }
    // The generator only produces well-formed traces; the pass pipeline is
    // sound and the domain is complete for everything it does, so nothing
    // should demote.
    assert_eq!(
        validated, CASES,
        "expected every generated trace to validate"
    );
}

#[test]
fn fuzz_validate_generated_and_optimized_traces_lint_clean() {
    let mut r = Xorshift64Star::seed_from_u64(CORPUS_SEED ^ 0x5a5a);
    for case in 0..CASES {
        let (uops, addrs) = gen_trace(&mut r);
        let mut frame = frame_of(&uops, &addrs);
        let findings = validate::lint::lint_frame(&frame);
        assert!(
            !validate::lint::has_errors(&findings),
            "case {case}: generator produced lint errors: {findings:?}"
        );
        let mut optz = Optimizer::new(OptimizerConfig::full());
        optz.optimize(&mut frame, 0);
        let findings = validate::lint::lint_frame(&frame);
        assert!(
            !validate::lint::has_errors(&findings),
            "case {case}: optimized trace has lint errors: {findings:?}"
        );
    }
}

#[test]
fn fuzz_validate_rejects_corrupted_rewrites() {
    // Soundness direction: corrupt the optimized sequence; whenever dynamic
    // replay can tell the difference, the static validator must too.
    let mut r = Xorshift64Star::seed_from_u64(CORPUS_SEED ^ 0xc0de);
    let mut rejected = 0u64;
    for case in 0..CASES {
        let (uops, addrs) = gen_trace(&mut r);
        let mut frame = frame_of(&uops, &addrs);
        let mut optz = Optimizer::new(OptimizerConfig::full());
        optz.optimize(&mut frame, 0);
        let mut mutated = frame.uops.clone();
        if mutated.is_empty() {
            continue;
        }
        let idx = r.usize_in(0, mutated.len());
        match r.u32_in(0, 3) {
            0 => {
                let delta = r.i64_in(1, 5);
                mutated[idx].imm = Some(mutated[idx].imm.unwrap_or(0) + delta);
            }
            1 => {
                mutated.remove(idx);
            }
            _ => {
                if mutated.len() >= 2 {
                    let j = (idx + 1) % mutated.len();
                    mutated.swap(idx, j);
                }
            }
        }
        let seeds: Vec<u64> = (0..6).map(|_| r.next_u64()).collect();
        if check_equivalent_multi(&uops, &mutated, &addrs, &seeds).is_ok() {
            continue; // harmless mutation (e.g. bumping an unused imm)
        }
        rejected += 1;
        let v = validate::validate_uops(&uops, &mutated, &addrs);
        assert!(
            !matches!(v, Verdict::Validated),
            "case {case}: corrupted rewrite diverges dynamically but was validated statically"
        );
    }
    assert!(
        rejected > CASES / 4,
        "mutation harness too weak: only {rejected} divergent mutants"
    );
}
