//! Randomized-property test (seeded in-tree PRNG; formerly proptest): the
//! oracle's lookahead buffer behaves like a pure slice of the committed
//! stream under arbitrary interleavings of peek and pop, and pulls from its
//! source exactly as far as the furthest instruction seen (the basis of the
//! `capture:written == replay:read` ledger).

use parrot_uarch::oracle::OracleStream;
use parrot_workloads::rng::Xorshift64Star;
use parrot_workloads::{generate_program, AppProfile, DynInst, ExecutionEngine, Suite};

#[derive(Clone, Debug)]
enum Op {
    Pop,
    Peek(u8),
}

fn arb_op(r: &mut Xorshift64Star) -> Op {
    // Weighted 2:1 like the original proptest strategy's pop and peek.
    match r.u32_in(0, 9) {
        0..=5 => Op::Pop,
        _ => Op::Peek(r.u8_in(0, 64)),
    }
}

#[test]
fn oracle_matches_reference_slice() {
    let mut r = Xorshift64Star::seed_from_u64(0x0_07ac1e);
    let prog = generate_program(&AppProfile::suite_base(Suite::SpecInt));
    for case in 0..64 {
        let ops: Vec<Op> = (0..r.usize_in(1, 300)).map(|_| arb_op(&mut r)).collect();
        let limit = r.u64_in(50, 400);
        let reference: Vec<DynInst> = ExecutionEngine::new(&prog).take(limit as usize).collect();
        let mut oracle = OracleStream::new(ExecutionEngine::new(&prog), limit);
        let mut cursor = 0u64;
        let mut pulled = 0u64;
        for o in &ops {
            match o {
                Op::Pop => {
                    let got = oracle.pop();
                    if cursor < limit {
                        assert_eq!(
                            got.expect("within limit"),
                            reference[cursor as usize],
                            "case {case}"
                        );
                        cursor += 1;
                        pulled = pulled.max(cursor);
                    } else {
                        assert!(got.is_none(), "case {case}");
                    }
                }
                Op::Peek(k) => {
                    let seq = cursor + u64::from(*k);
                    let got = oracle.peek(u64::from(*k));
                    let want = reference.get(seq as usize).copied();
                    assert_eq!(got, want, "case {case}");
                    if seq < limit {
                        pulled = pulled.max(seq + 1);
                    }
                }
            }
            assert_eq!(oracle.cursor(), cursor, "case {case}");
            assert_eq!(oracle.remaining(), limit - cursor, "case {case}");
            assert_eq!(oracle.exhausted(), cursor == limit, "case {case}");
            assert_eq!(oracle.pulled(), pulled, "case {case}");
        }
    }
}
