//! Randomized-property verification (seeded in-tree PRNG; formerly
//! proptest): the full optimizer pipeline preserves semantics on
//! *arbitrary* generated traces, not just ones our workload generator
//! happens to produce.

use parrot_isa::{AluOp, Cond, FpOp, Reg, Uop, UopKind};
use parrot_opt::verify::check_equivalent_multi;
use parrot_opt::{Optimizer, OptimizerConfig};
use parrot_trace::{OptLevel, Tid, TraceFrame};
use parrot_workloads::rng::Xorshift64Star;

#[derive(Clone, Debug)]
enum GenOp {
    MovImm { dst: u8, imm: i64 },
    AluImm { op: u8, dst: u8, src: u8, imm: i64 },
    AluReg { op: u8, dst: u8, a: u8, b: u8 },
    Mul { dst: u8, a: u8, b: u8 },
    Fp { op: u8, dst: u8, a: u8, b: u8 },
    CmpImm { src: u8, imm: i64 },
    Assert { cond: u8, expect: bool },
    Load { dst: u8 },
    Store { src: u8 },
}

fn arb_op(r: &mut Xorshift64Star) -> GenOp {
    match r.u32_in(0, 9) {
        0 => GenOp::MovImm {
            dst: r.u8_in(0, 15),
            imm: r.i64_in(-200, 200),
        },
        1 => GenOp::AluImm {
            op: r.u8_in(0, 8),
            dst: r.u8_in(0, 15),
            src: r.u8_in(0, 15),
            imm: r.i64_in(-64, 64),
        },
        2 => GenOp::AluReg {
            op: r.u8_in(0, 8),
            dst: r.u8_in(0, 15),
            a: r.u8_in(0, 15),
            b: r.u8_in(0, 15),
        },
        3 => GenOp::Mul {
            dst: r.u8_in(0, 15),
            a: r.u8_in(0, 15),
            b: r.u8_in(0, 15),
        },
        4 => GenOp::Fp {
            op: r.u8_in(0, 5),
            dst: r.u8_in(0, 16),
            a: r.u8_in(0, 16),
            b: r.u8_in(0, 16),
        },
        5 => GenOp::CmpImm {
            src: r.u8_in(0, 15),
            imm: r.i64_in(-64, 64),
        },
        6 => GenOp::Assert {
            cond: r.u8_in(0, 6),
            expect: r.chance(0.5),
        },
        7 => GenOp::Load {
            dst: r.u8_in(0, 15),
        },
        _ => GenOp::Store {
            src: r.u8_in(0, 15),
        },
    }
}

fn build_trace(ops: &[GenOp], addr_seed: u64) -> (Vec<Uop>, Vec<u64>) {
    let mut uops = Vec::new();
    let mut addrs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let alu = |k: u8| AluOp::ALL[k as usize % AluOp::ALL.len()];
        let fp = |k: u8| FpOp::ALL[k as usize % FpOp::ALL.len()];
        let cond = |k: u8| Cond::ALL[k as usize % Cond::ALL.len()];
        let mut u = match *op {
            GenOp::MovImm { dst, imm } => Uop::mov_imm(Reg::int(dst), imm),
            GenOp::AluImm { op, dst, src, imm } => {
                Uop::alu_imm(alu(op), Reg::int(dst), Reg::int(src), imm)
            }
            GenOp::AluReg { op, dst, a, b } => {
                Uop::alu(alu(op), Reg::int(dst), Reg::int(a), Reg::int(b))
            }
            GenOp::Mul { dst, a, b } => {
                let mut u = Uop::alu(AluOp::Add, Reg::int(dst), Reg::int(a), Reg::int(b));
                u.kind = UopKind::Mul;
                u
            }
            GenOp::Fp { op, dst, a, b } => {
                let mut u = Uop::alu(
                    AluOp::Add,
                    Reg::fp(dst % 16),
                    Reg::fp(a % 16),
                    Reg::fp(b % 16),
                );
                u.kind = UopKind::Fp(fp(op));
                u
            }
            GenOp::CmpImm { src, imm } => Uop::cmp(Reg::int(src), None, Some(imm)),
            GenOp::Assert { cond: c, expect } => Uop::assert(cond(c), expect),
            GenOp::Load { dst } => Uop::load(Reg::int(dst), Reg::int((dst + 1) % 15)),
            GenOp::Store { src } => Uop::store(Reg::int(src), Reg::int((src + 2) % 15)),
        };
        u.inst_idx = i as u32;
        if u.is_mem() {
            u.mem_slot = Some(addrs.len() as u16);
            // A few aliasing addresses on purpose: store-load forwarding
            // through memory must be preserved.
            let a =
                0x1000 + ((addr_seed.wrapping_mul(31).wrapping_add(addrs.len() as u64)) % 8) * 8;
            addrs.push(a);
        }
        uops.push(u);
    }
    (uops, addrs)
}

fn frame_of(uops: &[Uop], addrs: &[u64]) -> TraceFrame {
    TraceFrame {
        tid: Tid::new(0x4000),
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

#[test]
fn full_optimizer_preserves_semantics() {
    let mut r = Xorshift64Star::seed_from_u64(0x0b7_0001);
    for case in 0..256 {
        let ops: Vec<GenOp> = (0..r.usize_in(1, 64)).map(|_| arb_op(&mut r)).collect();
        let addr_seed = r.next_u64();
        let state_seeds: Vec<u64> = (0..r.usize_in(1, 4)).map(|_| r.next_u64()).collect();
        let (uops, addrs) = build_trace(&ops, addr_seed);
        let mut frame = frame_of(&uops, &addrs);
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let outcome = optz.optimize(&mut frame, 0);
        assert!(
            outcome.uops_after <= outcome.uops_before,
            "case {case}: optimizer must never grow a trace"
        );
        if outcome.gate != parrot_opt::GateDecision::Validated {
            assert_eq!(
                frame.uops, uops,
                "case {case}: a demoted frame must keep its original uops"
            );
        }
        if let Err(e) = check_equivalent_multi(&uops, &frame.uops, &addrs, &state_seeds) {
            panic!("case {case}: not equivalent: {e}\nops: {ops:?}");
        }
    }
}

#[test]
fn generic_only_optimizer_preserves_semantics() {
    let mut r = Xorshift64Star::seed_from_u64(0x0b7_0002);
    for case in 0..256 {
        let ops: Vec<GenOp> = (0..r.usize_in(1, 48)).map(|_| arb_op(&mut r)).collect();
        let addr_seed = r.next_u64();
        let (uops, addrs) = build_trace(&ops, addr_seed);
        let mut frame = frame_of(&uops, &addrs);
        let mut optz = Optimizer::new(OptimizerConfig::generic_only());
        optz.optimize(&mut frame, 0);
        if let Err(e) = check_equivalent_multi(&uops, &frame.uops, &addrs, &[7, 1234]) {
            panic!("case {case}: not equivalent: {e}\nops: {ops:?}");
        }
    }
}

#[test]
fn historical_regression_aliasing_load_store_chain() {
    // Shrunk failure case preserved from the former proptest suite:
    // aliasing loads/stores with addr_seed 0 exercised store-load
    // forwarding through the same address.
    let ops = [
        GenOp::Load { dst: 8 },
        GenOp::Load { dst: 0 },
        GenOp::Load { dst: 0 },
        GenOp::Load { dst: 1 },
        GenOp::Store { src: 0 },
        GenOp::Load { dst: 0 },
        GenOp::Load { dst: 0 },
        GenOp::Load { dst: 0 },
        GenOp::Store { src: 0 },
        GenOp::Load { dst: 0 },
    ];
    let (uops, addrs) = build_trace(&ops, 0);
    let mut frame = frame_of(&uops, &addrs);
    let mut optz = Optimizer::new(OptimizerConfig::full());
    optz.optimize(&mut frame, 0);
    check_equivalent_multi(&uops, &frame.uops, &addrs, &[0]).expect("regression case equivalent");
}
