//! Unit tests over hand-built CFGs: diamond, nested loops, self-loop,
//! irreducible (two-entry) loop, unreachable block, and malformed-table
//! error paths.

use crate::{analyze, AnalysisError, ReuseClass, StructuralLintKind};
use parrot_isa::{Cond, Inst, InstKind, Reg};
use parrot_workloads::{BasicBlock, BranchBehavior, Function, Program, Terminator, STACK_BASE};

/// Build a program where every block is one instruction whose kind
/// matches its terminator, then lay it out.
fn prog(terms: Vec<Terminator>, funcs: Vec<Function>, behaviors: Vec<BranchBehavior>) -> Program {
    let mut insts = Vec::new();
    let mut blocks = Vec::new();
    for (i, term) in terms.into_iter().enumerate() {
        let kind = match &term {
            Terminator::FallThrough { .. } => InstKind::Nop,
            Terminator::CondBranch { .. } => InstKind::CondBranch { cond: Cond::Lt },
            Terminator::Jump { .. } => InstKind::Jump,
            Terminator::IndirectJump { .. } => InstKind::IndirectJump { sel: Reg::int(0) },
            Terminator::Call { .. } => InstKind::Call,
            Terminator::Return => InstKind::Return,
        };
        insts.push(Inst::new(kind));
        blocks.push(BasicBlock {
            first_inst: u32::try_from(i).unwrap(),
            num_insts: 1,
            term,
        });
    }
    let mut p = Program {
        insts,
        blocks,
        funcs,
        behaviors,
        addr_streams: Vec::new(),
        stack_base: STACK_BASE,
        code_bytes: 0,
    };
    p.layout();
    p
}

fn one_func(n: u32) -> Vec<Function> {
    vec![Function {
        entry: 0,
        num_blocks: n,
    }]
}

fn bias() -> BranchBehavior {
    BranchBehavior::Bias { p_taken: 0.5 }
}

fn loop_behavior(trip: f64) -> BranchBehavior {
    BranchBehavior::Loop {
        trip_mean: trip,
        trip_jitter: 0.0,
    }
}

#[test]
fn diamond_has_no_loops_and_a_join_head() {
    let p = prog(
        vec![
            Terminator::CondBranch {
                taken: 2,
                fall: 1,
                behavior: 0,
            },
            Terminator::Jump { target: 3 },
            Terminator::FallThrough { next: 3 },
            Terminator::Return,
        ],
        one_func(4),
        vec![bias()],
    );
    let pa = analyze(&p).unwrap();
    assert_eq!(pa.num_loops, 0);
    assert_eq!(pa.max_loop_depth, 0);
    assert!(pa.warnings.is_empty());
    // Block 3 joins blocks 1 and 2; block 0 is the function entry.
    let join = pa.head_at(p.block_pc(3)).expect("join head");
    assert!(join.roles.join && !join.roles.loop_header);
    let entry = pa.head_at(p.block_pc(0)).expect("entry head");
    assert!(entry.roles.func_entry);
    // Straight-line interior blocks are not heads.
    assert!(pa.head_at(p.block_pc(1)).is_none());
}

#[test]
fn nested_loops_get_correct_depths_and_trips() {
    let p = prog(
        vec![
            Terminator::FallThrough { next: 1 },
            Terminator::FallThrough { next: 2 }, // outer header
            Terminator::FallThrough { next: 3 }, // inner header
            Terminator::CondBranch {
                taken: 2,
                fall: 4,
                behavior: 0, // inner latch, trip 16
            },
            Terminator::CondBranch {
                taken: 1,
                fall: 5,
                behavior: 1, // outer latch, trip 4
            },
            Terminator::Return,
        ],
        one_func(6),
        vec![loop_behavior(16.0), loop_behavior(4.0)],
    );
    let pa = analyze(&p).unwrap();
    assert_eq!(pa.num_loops, 2);
    assert_eq!(pa.max_loop_depth, 2);
    assert!(pa.warnings.is_empty());
    // Depths: straight-line prologue 0; outer body 1; inner body 2.
    assert_eq!(pa.block_depth[0], 0);
    assert_eq!(pa.block_depth[1], 1);
    assert_eq!(pa.block_depth[2], 2);
    assert_eq!(pa.block_depth[3], 2);
    assert_eq!(pa.block_depth[4], 1);
    assert_eq!(pa.block_depth[5], 0);
    let inner = pa.head_at(p.block_pc(2)).expect("inner header");
    assert!(inner.roles.loop_header);
    assert!((inner.trip - 16.0).abs() < 1e-9);
    // The inner body runs ~trip_inner * trip_outer times per invocation.
    assert!(pa.block_hotness[2] > pa.block_hotness[1]);
    assert!(pa.block_hotness[1] > pa.block_hotness[0]);
    // The deepest, hottest head is classified High.
    assert_eq!(inner.class, ReuseClass::High);
}

#[test]
fn self_loop_is_a_depth_one_loop_on_its_own_header() {
    let p = prog(
        vec![
            Terminator::FallThrough { next: 1 },
            Terminator::CondBranch {
                taken: 1,
                fall: 2,
                behavior: 0,
            },
            Terminator::Return,
        ],
        one_func(3),
        vec![loop_behavior(32.0)],
    );
    let pa = analyze(&p).unwrap();
    assert_eq!(pa.num_loops, 1);
    assert_eq!(pa.max_loop_depth, 1);
    assert_eq!(pa.block_depth[1], 1);
    assert_eq!(pa.block_depth[0], 0);
    assert_eq!(pa.block_depth[2], 0);
    let h = pa.head_at(p.block_pc(1)).expect("self-loop header");
    assert!(h.roles.loop_header);
    assert!((h.trip - 32.0).abs() < 1e-9);
}

#[test]
fn irreducible_two_entry_loop_degrades_to_a_warning() {
    // 0 branches to both 1 and 2; 1 and 2 branch to each other: the
    // 1<->2 cycle has two entries, so neither edge is a back edge.
    let p = prog(
        vec![
            Terminator::CondBranch {
                taken: 1,
                fall: 2,
                behavior: 0,
            },
            Terminator::CondBranch {
                taken: 2,
                fall: 3,
                behavior: 0,
            },
            Terminator::CondBranch {
                taken: 1,
                fall: 3,
                behavior: 0,
            },
            Terminator::Return,
        ],
        one_func(4),
        vec![bias()],
    );
    let pa = analyze(&p).unwrap();
    assert_eq!(pa.num_loops, 0, "irreducible cycle must not become a loop");
    assert!(
        pa.warnings.iter().any(|w| w.contains("irreducible")),
        "expected an irreducibility warning, got {:?}",
        pa.warnings
    );
}

#[test]
fn unreachable_block_is_excluded_and_warned() {
    let p = prog(
        vec![
            Terminator::Jump { target: 2 },
            Terminator::FallThrough { next: 2 }, // unreachable
            Terminator::Return,
        ],
        one_func(3),
        vec![],
    );
    let pa = analyze(&p).unwrap();
    assert_eq!(pa.funcs[0].unreachable, 1);
    assert!(pa.warnings.iter().any(|w| w.contains("unreachable")));
    // Unreachable blocks carry no hotness and are never heads.
    assert!(pa.block_hotness[1].abs() < f64::EPSILON);
    assert!(pa.head_at(p.block_pc(1)).is_none());
}

#[test]
fn malformed_tables_produce_structured_errors() {
    // Empty function.
    let p = prog(vec![Terminator::Return], one_func(1), vec![]);
    let mut bad = p.clone();
    bad.funcs[0].num_blocks = 0;
    assert_eq!(
        analyze(&bad).unwrap_err(),
        AnalysisError::EmptyFunction { func: 0 }
    );
    // Block range off the end of the table.
    let mut bad = p.clone();
    bad.funcs[0].num_blocks = 7;
    assert!(matches!(
        analyze(&bad).unwrap_err(),
        AnalysisError::BlockRangeOutOfBounds { func: 0, .. }
    ));
    // Edge to a nonexistent block.
    let mut bad = p;
    bad.blocks[0].term = Terminator::FallThrough { next: 99 };
    assert!(matches!(
        analyze(&bad).unwrap_err(),
        AnalysisError::EdgeOutOfRange { from: 0, to: 99 }
    ));
    // No functions at all.
    let empty = Program {
        insts: Vec::new(),
        blocks: Vec::new(),
        funcs: Vec::new(),
        behaviors: Vec::new(),
        addr_streams: Vec::new(),
        stack_base: STACK_BASE,
        code_bytes: 0,
    };
    assert_eq!(analyze(&empty).unwrap_err(), AnalysisError::NoFunctions);
}

#[test]
fn lint_trace_flags_uncloseable_back_edges_and_weak_heads() {
    let p = prog(
        vec![
            Terminator::FallThrough { next: 1 },
            Terminator::CondBranch {
                taken: 1,
                fall: 2,
                behavior: 0,
            },
            Terminator::Return,
        ],
        one_func(3),
        vec![loop_behavior(8.0)],
    );
    let pa = analyze(&p).unwrap();
    // A trace headed at the loop header that takes its own back edge is
    // clean: the loop closes on the head.
    let header_pc = p.block_pc(1);
    let lints = pa.lint_trace(header_pc, &[header_pc, header_pc]);
    assert!(lints.is_empty(), "{lints:?}");
    // A trace headed at the prologue (a valid head: function entry) that
    // runs through the back edge crosses a loop it cannot close.
    let pro_pc = p.block_pc(0);
    let lints = pa.lint_trace(pro_pc, &[pro_pc, header_pc, header_pc]);
    assert!(lints
        .iter()
        .any(|l| l.kind == StructuralLintKind::CrossesBackEdge));
    assert!(!lints.iter().any(|l| l.kind == StructuralLintKind::WeakHead));
    // The straight-line exit block is a weak head: no loop, no join.
    let exit_pc = p.block_pc(2);
    let lints = pa.lint_trace(exit_pc, &[exit_pc]);
    assert!(lints.iter().any(|l| l.kind == StructuralLintKind::WeakHead));
    // A head that is not even a block boundary is flagged.
    let lints = pa.lint_trace(header_pc + 1, &[]);
    assert!(lints.iter().any(|l| l.kind == StructuralLintKind::WeakHead));
}

#[test]
fn report_is_deterministic_and_well_formed() {
    let prof = parrot_workloads::app_by_name("gcc").unwrap();
    let p = parrot_workloads::generate_program(&prof);
    let pa = analyze(&p).unwrap();
    let a = pa.report_string("gcc");
    let b = analyze(&p).unwrap().report_string("gcc");
    assert_eq!(a, b);
    let doc = parrot_telemetry::json::parse(&a).expect("report parses");
    assert_eq!(doc.get("app").as_str(), Some("gcc"));
    assert!(doc.get("summary").get("loops").as_u64().unwrap() > 0);
}
