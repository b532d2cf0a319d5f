//! Deterministic trace selection (§2.2): folds the committed instruction
//! stream into trace candidates according to the paper's rules —
//! 64-uop frames, termination on indirect jumps and backward taken
//! branches, returns terminating only when they exit the outermost
//! procedure context entered within the trace (a context counter), and
//! joining of consecutive identical traces (loop unrolling).

use crate::tid::Tid;
use parrot_isa::{InstId, InstKind};
use parrot_workloads::{DynInst, ExecutionEngine, Program};
use std::collections::HashMap;

/// How trace boundaries are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// PARROT's deterministic, mostly *static* criteria (§2.2): terminate
    /// on indirect jumps, backward taken branches and outermost returns;
    /// join identical consecutive traces (loop unrolling).
    ParrotStatic,
    /// A rePlay-style *dynamic* criterion (the paper's closest related
    /// system): frames end where branch bias drops — a per-branch
    /// confidence estimator cuts the frame at the first weakly biased
    /// branch. No loop-boundary cutting, no joining, no return-context
    /// rule. Implemented as the comparison baseline the paper discusses.
    ReplayDynamic {
        /// Saturating-counter confidence required to extend a frame past a
        /// conditional branch (0–15; rePlay used high-confidence promotion).
        confidence: u8,
    },
}

/// Trace-selection parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectionConfig {
    /// Frame capacity in uops (the paper uses 64).
    pub max_uops: u32,
    /// Join consecutive identical traces (explicit loop unrolling).
    pub join_identical: bool,
    /// Maximum identical units joined into one trace. Bounding the unroll
    /// factor bounds a joined trace's exposure to loop exits (every exit
    /// aborts an in-flight unrolled trace) while still enabling
    /// SIMDification across 2–4 iterations.
    pub max_joins: u32,
    /// Boundary-selection strategy.
    pub strategy: SelectionStrategy,
}

impl Default for SelectionConfig {
    fn default() -> SelectionConfig {
        SelectionConfig {
            max_uops: 64,
            join_identical: true,
            max_joins: 4,
            strategy: SelectionStrategy::ParrotStatic,
        }
    }
}

impl SelectionConfig {
    /// The rePlay-style baseline configuration.
    pub fn replay_style() -> SelectionConfig {
        SelectionConfig {
            max_uops: 64,
            join_identical: false,
            max_joins: 1,
            strategy: SelectionStrategy::ReplayDynamic { confidence: 11 },
        }
    }
}

/// One committed instruction recorded into a candidate (everything trace
/// construction later needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandInst {
    /// Static instruction id.
    pub inst: InstId,
    /// Committed pc.
    pub pc: u64,
    /// Committed direction (conditional branches; false otherwise).
    pub taken: bool,
    /// Committed effective address (memory instructions; 0 otherwise).
    pub eff_addr: u64,
    /// Decoded uop count of the instruction.
    pub uop_count: u8,
}

/// A completed trace candidate: TID plus the recorded instruction sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCandidate {
    /// The (possibly joined) trace identifier.
    pub tid: Tid,
    /// The TID of one un-joined unit (used for join matching).
    pub unit_tid: Tid,
    /// Recorded instructions in commit order.
    pub insts: Vec<CandInst>,
    /// Total decoded uops.
    pub num_uops: u32,
    /// Oracle sequence number of the first instruction.
    pub start_seq: u64,
    /// Number of identical units joined (1 = no joining; >1 = unrolled).
    pub joins: u32,
}

/// Why a trace was terminated (statistics).
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectorStats {
    /// Candidates emitted.
    pub candidates: u64,
    /// Extra units merged into joined candidates.
    pub joined_units: u64,
    /// Frames cut at the uop-capacity limit.
    pub term_capacity: u64,
    /// Frames cut at a backward taken branch.
    pub term_backward: u64,
    /// Frames cut at an indirect jump.
    pub term_indirect: u64,
    /// Frames cut at a return.
    pub term_return: u64,
    /// rePlay mode: frames cut at weakly biased branches.
    pub term_lowbias: u64,
}

#[derive(Clone, Debug)]
struct Build {
    tid: Tid,
    insts: Vec<CandInst>,
    num_uops: u32,
    start_seq: u64,
    ctx: u32,
}

/// The background TID/trace-selection unit. Feed it every committed
/// instruction; it emits [`TraceCandidate`]s at trace boundaries.
#[derive(Clone, Debug)]
pub struct TraceSelector {
    cfg: SelectionConfig,
    cur: Option<Build>,
    pending: Option<TraceCandidate>,
    /// Consecutive-repeat tracking: joining is only worthwhile when a unit
    /// historically repeats many times (long loops); every loop exit aborts
    /// an in-flight unrolled trace, so the unroll factor adapts to the
    /// observed repeat count (EWMA per unit TID).
    run_tid: Option<Tid>,
    run_len: u32,
    repeat_ewma: HashMap<u64, f32>,
    /// rePlay-mode branch-bias estimator: per-PC saturating agreement
    /// counter (bumped when the branch repeats its previous direction).
    bias: HashMap<u64, (bool, u8)>,
    stats: SelectorStats,
}

impl TraceSelector {
    /// A selector with the given configuration.
    pub fn new(cfg: SelectionConfig) -> TraceSelector {
        TraceSelector {
            cfg,
            cur: None,
            pending: None,
            run_tid: None,
            run_len: 0,
            repeat_ewma: HashMap::new(),
            bias: HashMap::new(),
            stats: SelectorStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SelectorStats {
        &self.stats
    }

    /// Is the selector at a trace boundary (the next committed instruction
    /// starts a new trace)?
    pub fn at_boundary(&self) -> bool {
        self.cur.is_none()
    }

    /// Would an instruction of `uop_count` uops start a new trace? True at
    /// plain boundaries and also when the in-progress trace would overflow
    /// (capacity cuts seal *before* the overflowing instruction, so the
    /// fetch selector must see that boundary ahead of time).
    pub fn boundary_before(&self, uop_count: u32) -> bool {
        match &self.cur {
            None => true,
            Some(cur) => cur.num_uops + uop_count > self.cfg.max_uops || cur.tid.num_branches == 64,
        }
    }

    /// The TID of the sealed-but-unemitted candidate currently held for
    /// possible joining, if any (its key feeds speculative trace
    /// prediction).
    pub fn pending_tid(&self) -> Option<Tid> {
        self.pending.as_ref().map(|p| p.tid)
    }

    /// Process one committed instruction. Completed candidates (zero, one,
    /// or — at a capacity boundary — two) are appended to `out`.
    pub fn step(&mut self, d: &DynInst, kind: &InstKind, seq: u64, out: &mut Vec<TraceCandidate>) {
        let uop_count = kind.uop_count() as u32;

        // Capacity: if this instruction doesn't fit, seal the current trace
        // first. (The paper cuts oversized basic blocks — the "extremely
        // large basic blocks" exception.)
        if let Some(cur) = &self.cur {
            if cur.num_uops + uop_count > self.cfg.max_uops || cur.tid.num_branches == 64 {
                self.stats.term_capacity += 1;
                self.seal(out);
            }
        }

        let cur = self.cur.get_or_insert_with(|| Build {
            tid: Tid::new(d.pc),
            insts: Vec::with_capacity(16),
            num_uops: 0,
            start_seq: seq,
            ctx: 0,
        });

        cur.insts.push(CandInst {
            inst: d.inst,
            pc: d.pc,
            taken: d.taken,
            eff_addr: d.eff_addr,
            uop_count: uop_count as u8,
        });
        cur.num_uops += uop_count;
        if matches!(kind, InstKind::CondBranch { .. }) {
            cur.tid.push_dir(d.taken);
        }

        // Termination rules, per strategy.
        let terminate = match self.cfg.strategy {
            SelectionStrategy::ParrotStatic => match kind {
                InstKind::IndirectJump { .. } => {
                    self.stats.term_indirect += 1;
                    true
                }
                InstKind::CondBranch { .. } if d.taken && d.next_pc < d.pc => {
                    self.stats.term_backward += 1;
                    true
                }
                InstKind::Call => {
                    cur.ctx += 1;
                    false
                }
                InstKind::Return => {
                    if cur.ctx == 0 {
                        self.stats.term_return += 1;
                        true
                    } else {
                        cur.ctx -= 1;
                        false
                    }
                }
                _ => false,
            },
            SelectionStrategy::ReplayDynamic { confidence } => match kind {
                InstKind::IndirectJump { .. } => {
                    self.stats.term_indirect += 1;
                    true
                }
                InstKind::CondBranch { .. } => {
                    // Update the per-branch agreement counter and cut the
                    // frame at weakly biased branches.
                    let e = self.bias.entry(d.pc).or_insert((d.taken, 12));
                    if e.0 == d.taken {
                        e.1 = (e.1 + 1).min(15);
                    } else {
                        e.1 = e.1.saturating_sub(3);
                        if e.1 == 0 {
                            *e = (d.taken, 4);
                        }
                    }
                    let weak = e.1 < confidence;
                    if weak {
                        self.stats.term_lowbias += 1;
                    }
                    weak
                }
                _ => false,
            },
        };
        if terminate {
            self.seal(out);
        }
    }

    /// Emit any in-progress and pending candidates (end of simulation).
    pub fn flush(&mut self, out: &mut Vec<TraceCandidate>) {
        self.seal(out);
        if let Some(p) = self.pending.take() {
            self.stats.candidates += 1;
            out.push(p);
        }
    }

    /// Seal the current build into a candidate, merging with the pending
    /// candidate when they are identical consecutive traces.
    fn seal(&mut self, out: &mut Vec<TraceCandidate>) {
        let Some(b) = self.cur.take() else { return };
        if b.insts.is_empty() {
            return;
        }
        let raw = TraceCandidate {
            tid: b.tid,
            unit_tid: b.tid,
            insts: b.insts,
            num_uops: b.num_uops,
            start_seq: b.start_seq,
            joins: 1,
        };
        // Track consecutive repeats of this unit.
        if self.run_tid == Some(raw.tid) {
            self.run_len += 1;
        } else {
            if let Some(t) = self.run_tid.take() {
                let e = self.repeat_ewma.entry(t.key()).or_insert(24.0);
                *e = 0.75 * *e + 0.25 * self.run_len as f32;
            }
            self.run_tid = Some(raw.tid);
            self.run_len = 1;
        }
        if self.cfg.join_identical {
            // Adaptive unroll: short-repeat units are not worth joining.
            let ewma = self
                .repeat_ewma
                .get(&raw.tid.key())
                .copied()
                .unwrap_or(24.0);
            let join_limit = ((ewma / 12.0) as u32).clamp(1, self.cfg.max_joins);
            if let Some(p) = &mut self.pending {
                let same_unit = p.unit_tid == raw.tid;
                let fits = p.num_uops + raw.num_uops <= self.cfg.max_uops && p.joins < join_limit;
                if same_unit && fits && p.tid.try_join(&raw.tid) {
                    p.insts.extend_from_slice(&raw.insts);
                    p.num_uops += raw.num_uops;
                    p.joins += 1;
                    self.stats.joined_units += 1;
                    return;
                }
            }
        }
        if let Some(prev) = self.pending.replace(raw) {
            self.stats.candidates += 1;
            out.push(prev);
        }
        if !self.cfg.join_identical {
            // No joining: emit immediately.
            if let Some(p) = self.pending.take() {
                self.stats.candidates += 1;
                out.push(p);
            }
        }
    }
}

/// Select traces offline: run the first `insts` committed instructions of
/// `prog`'s live execution through a fresh [`TraceSelector`] and return
/// every candidate, the flushed tail included. No machine is involved, so
/// every candidate is emitted regardless of hotness.
pub fn select_candidates(
    prog: &Program,
    cfg: SelectionConfig,
    insts: usize,
) -> Vec<TraceCandidate> {
    let mut sel = TraceSelector::new(cfg);
    let mut out = Vec::new();
    for (seq, d) in ExecutionEngine::new(prog).take(insts).enumerate() {
        sel.step(&d, &prog.inst(d.inst).kind, seq as u64, &mut out);
    }
    sel.flush(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_isa::Cond;
    use parrot_workloads::{generate_program, AppProfile, DynInst, Suite};

    fn dyninst(pc: u64, taken: bool, next_pc: u64) -> DynInst {
        DynInst {
            inst: 0,
            pc,
            len: 2,
            taken,
            next_pc,
            eff_addr: 0,
            has_mem: false,
        }
    }

    fn run_selector(cfg: SelectionConfig, steps: &[(DynInst, InstKind)]) -> Vec<TraceCandidate> {
        let mut sel = TraceSelector::new(cfg);
        let mut out = Vec::new();
        for (seq, (d, k)) in steps.iter().enumerate() {
            sel.step(d, k, seq as u64, &mut out);
        }
        sel.flush(&mut out);
        out
    }

    fn alu_kind() -> InstKind {
        InstKind::IntAlu {
            op: parrot_isa::AluOp::Add,
            dst: parrot_isa::Reg::int(0),
            src: parrot_isa::Reg::int(1),
            rhs: parrot_isa::Operand::Imm(1),
        }
    }

    #[test]
    fn backward_taken_branch_terminates() {
        let steps = vec![
            (dyninst(100, false, 102), alu_kind()),
            (
                dyninst(102, true, 100),
                InstKind::CondBranch { cond: Cond::Eq },
            ),
        ];
        // Repeat the loop body 3 times: identical iteration traces join.
        let mut all = steps.clone();
        all.extend(steps.clone());
        all.extend(steps);
        let out = run_selector(
            SelectionConfig {
                join_identical: false,
                ..Default::default()
            },
            &all,
        );
        assert_eq!(out.len(), 3, "each iteration is a trace without joining");
        assert_eq!(out[0].tid.num_branches, 1);
        assert!(out[0].tid.dir(0));
    }

    #[test]
    fn identical_consecutive_traces_join() {
        let steps = vec![
            (dyninst(100, false, 102), alu_kind()),
            (
                dyninst(102, true, 100),
                InstKind::CondBranch { cond: Cond::Eq },
            ),
        ];
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(steps.clone());
        }
        let out = run_selector(SelectionConfig::default(), &all);
        // With the default repeat estimate (EWMA 24), the adaptive unroll
        // limit is 2: four identical iterations become two joined pairs.
        assert_eq!(out.len(), 2);
        for c in &out {
            assert_eq!(c.joins, 2);
            assert_eq!(c.insts.len(), 4);
            assert_eq!(c.tid.num_branches, 2);
        }
    }

    #[test]
    fn long_loops_unroll_to_the_configured_limit() {
        // Many iterations: once the EWMA learns the long repeat run, joins
        // reach the configured maximum.
        let steps = vec![
            (dyninst(100, false, 102), alu_kind()),
            (
                dyninst(102, true, 100),
                InstKind::CondBranch { cond: Cond::Eq },
            ),
        ];
        let mut all = Vec::new();
        for _ in 0..200 {
            all.extend(steps.clone());
        }
        // Break the run so the EWMA updates, then run the loop again.
        all.push((dyninst(500, true, 700), InstKind::Jump));
        for _ in 0..40 {
            all.extend(steps.clone());
        }
        let out = run_selector(SelectionConfig::default(), &all);
        let max_joins = out.iter().map(|c| c.joins).max().unwrap_or(0);
        assert_eq!(max_joins, SelectionConfig::default().max_joins);
    }

    #[test]
    fn capacity_limits_frame_to_max_uops() {
        // 70 single-uop instructions, no CTIs: must split at 64.
        let steps: Vec<_> = (0..70)
            .map(|i| (dyninst(100 + i * 2, false, 102 + i * 2), alu_kind()))
            .collect();
        let out = run_selector(
            SelectionConfig {
                join_identical: false,
                ..Default::default()
            },
            &steps,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].num_uops, 64);
        assert_eq!(out[1].num_uops, 6);
    }

    #[test]
    fn indirect_jump_terminates() {
        let steps = vec![
            (dyninst(100, false, 103), alu_kind()),
            (
                dyninst(103, true, 500),
                InstKind::IndirectJump {
                    sel: parrot_isa::Reg::int(3),
                },
            ),
            (dyninst(500, false, 503), alu_kind()),
        ];
        let out = run_selector(
            SelectionConfig {
                join_identical: false,
                ..Default::default()
            },
            &steps,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].insts.len(), 2);
        assert_eq!(out[1].insts[0].pc, 500);
    }

    #[test]
    fn return_respects_context_counter() {
        // call; body; return (matched: does NOT terminate); then a bare
        // return at outermost context (terminates) — procedure inlining.
        let steps = vec![
            (dyninst(100, true, 200), InstKind::Call),
            (dyninst(200, false, 203), alu_kind()),
            (dyninst(203, true, 105), InstKind::Return),
            (dyninst(105, false, 108), alu_kind()),
            (dyninst(108, true, 50), InstKind::Return),
            (dyninst(50, false, 53), alu_kind()),
        ];
        let out = run_selector(
            SelectionConfig {
                join_identical: false,
                ..Default::default()
            },
            &steps,
        );
        assert_eq!(
            out.len(),
            2,
            "matched call/return must be inlined into one trace"
        );
        assert_eq!(out[0].insts.len(), 5);
    }

    #[test]
    fn forward_branches_and_jumps_extend_traces() {
        let steps = vec![
            (
                dyninst(100, true, 200),
                InstKind::CondBranch { cond: Cond::Ne },
            ), // forward taken
            (dyninst(200, false, 202), alu_kind()),
            (dyninst(202, true, 300), InstKind::Jump),
            (dyninst(300, false, 303), alu_kind()),
        ];
        let out = run_selector(
            SelectionConfig {
                join_identical: false,
                ..Default::default()
            },
            &steps,
        );
        assert_eq!(out.len(), 1, "forward CTIs must not terminate");
        assert_eq!(out[0].tid.num_branches, 1);
    }

    #[test]
    fn single_entry_invariant_on_real_stream() {
        // On a real application stream, every candidate starts where the
        // previous dynamic instruction ended and stays within uop capacity.
        let prog = generate_program(&AppProfile::suite_base(Suite::SpecInt));
        let out = select_candidates(&prog, SelectionConfig::default(), 30_000);
        assert!(out.len() > 100);
        for c in &out {
            assert!(c.num_uops <= 64, "capacity violated: {}", c.num_uops);
            assert!(!c.insts.is_empty());
            assert_eq!(c.tid.start_pc, c.insts[0].pc);
            let branches = c
                .insts
                .iter()
                .filter(|i| matches!(prog.inst(i.inst).kind, InstKind::CondBranch { .. }))
                .count();
            assert_eq!(branches, c.tid.num_branches as usize);
            let uops: u32 = c.insts.iter().map(|i| u32::from(i.uop_count)).sum();
            assert_eq!(uops, c.num_uops);
        }
        let joined = out.iter().filter(|c| c.joins > 1).count();
        assert!(joined > 0, "loops should produce joined (unrolled) traces");
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use parrot_isa::Cond;
    use parrot_workloads::{generate_program, AppProfile, Suite};

    fn dyninst(pc: u64, taken: bool, next_pc: u64) -> parrot_workloads::DynInst {
        parrot_workloads::DynInst {
            inst: 0,
            pc,
            len: 2,
            taken,
            next_pc,
            eff_addr: 0,
            has_mem: false,
        }
    }

    #[test]
    fn replay_cuts_at_weakly_biased_branches() {
        let mut sel = TraceSelector::new(SelectionConfig::replay_style());
        let mut out = Vec::new();
        let alu = InstKind::IntAlu {
            op: parrot_isa::AluOp::Add,
            dst: parrot_isa::Reg::int(0),
            src: parrot_isa::Reg::int(1),
            rhs: parrot_isa::Operand::Imm(1),
        };
        let br = InstKind::CondBranch { cond: Cond::Eq };
        // An alternating (unbiased) branch: agreement counter collapses, so
        // frames must terminate at it.
        let mut seq = 0u64;
        for i in 0..40 {
            sel.step(&dyninst(100, false, 102), &alu, seq, &mut out);
            seq += 1;
            sel.step(&dyninst(102, i % 2 == 0, 104), &br, seq, &mut out);
            seq += 1;
        }
        sel.flush(&mut out);
        assert!(
            sel.stats().term_lowbias > 10,
            "alternating branch must cut frames"
        );
        // A strongly biased branch extends frames instead.
        let mut sel2 = TraceSelector::new(SelectionConfig::replay_style());
        let mut out2 = Vec::new();
        let mut seq = 0u64;
        for _ in 0..40 {
            sel2.step(&dyninst(100, false, 102), &alu, seq, &mut out2);
            seq += 1;
            sel2.step(&dyninst(102, true, 104), &br, seq, &mut out2);
            seq += 1;
        }
        sel2.flush(&mut out2);
        assert!(
            sel2.stats().term_lowbias <= 2,
            "a monotone branch must stop cutting frames once confidence builds"
        );
    }

    #[test]
    fn replay_mode_still_partitions_real_streams() {
        let prog = generate_program(&AppProfile::suite_base(Suite::SpecInt));
        let n = 20_000usize;
        let out = select_candidates(&prog, SelectionConfig::replay_style(), n);
        let total: usize = out.iter().map(|c| c.insts.len()).sum();
        assert_eq!(total, n, "every instruction in exactly one frame");
        assert!(out.iter().all(|c| c.num_uops <= 64));
        assert!(out.iter().all(|c| c.joins == 1), "rePlay mode never joins");
    }
}
