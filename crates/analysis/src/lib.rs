//! Whole-program static analysis over the synthetic [`Program`] table:
//! CFG recovery, dominator trees, natural-loop forests with nesting
//! depth, loop-depth-weighted hotness propagation, and predicted-reuse
//! classification of potential trace heads.
//!
//! This crate is the static substrate for PARROT's *selective* side: the
//! paper spends optimization power only on traces worth it, and
//! Coppieters et al. (PAPERS.md) show "worth it" is largely predictable
//! from loop structure and instruction mix before a single instruction
//! runs. The outputs feed two consumers:
//!
//! - `parrot analyze` emits a deterministic per-app JSON report,
//! - `parrot lint-traces` consumes [`ProgramAnalysis::lint_trace`] for
//!   structural trace lints.
//!
//! Analysis is total: malformed inputs produce a structured
//! [`AnalysisError`], never a panic, and irreducible or unreachable
//! regions degrade to warnings instead of wrong answers.
//!
//! ```
//! let prof = parrot_workloads::app_by_name("gzip").unwrap();
//! let prog = parrot_workloads::generate_program(&prof);
//! let pa = parrot_analysis::analyze(&prog).unwrap();
//! assert!(pa.num_loops > 0);
//! assert!(pa.heads.iter().any(|h| h.class == parrot_analysis::ReuseClass::High));
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// usize/u32/u64 index conversions are pervasive in table-indexed CFG code
// and every cast site is bounds-guarded; the wrapper noise outweighs it.
#![allow(clippy::cast_possible_truncation)]

pub mod cfg;
pub mod dom;
pub mod hotness;
pub mod loops;
pub mod reuse;

use parrot_telemetry::json::Value;
use parrot_workloads::{BlockId, FuncId, Program};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use reuse::{HeadRoles, ReuseClass, TraceHead};

/// Structured failure of [`analyze`]; the analysis never panics on a
/// malformed program table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The program has no functions at all.
    NoFunctions,
    /// A function owns zero blocks.
    EmptyFunction {
        /// Offending function.
        func: FuncId,
    },
    /// A function's contiguous block range exceeds the block table.
    BlockRangeOutOfBounds {
        /// Offending function.
        func: FuncId,
        /// Its claimed entry block.
        first: BlockId,
        /// Its claimed block count.
        num_blocks: u32,
        /// Actual size of the block table.
        total: u32,
    },
    /// A terminator edge targets a block outside the block table.
    EdgeOutOfRange {
        /// Source block of the edge.
        from: BlockId,
        /// Out-of-range target.
        to: BlockId,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoFunctions => write!(f, "program has no functions"),
            AnalysisError::EmptyFunction { func } => {
                write!(f, "function {func} has zero blocks")
            }
            AnalysisError::BlockRangeOutOfBounds {
                func,
                first,
                num_blocks,
                total,
            } => write!(
                f,
                "function {func} claims blocks {first}..{} but the table has {total}",
                first + num_blocks
            ),
            AnalysisError::EdgeOutOfRange { from, to } => {
                write!(f, "block {from} has an edge to nonexistent block {to}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Per-function analysis summary (global block ids).
#[derive(Clone, Debug)]
pub struct FuncSummary {
    /// Function id.
    pub func: FuncId,
    /// Entry block.
    pub first: BlockId,
    /// Total blocks in the function.
    pub num_blocks: u32,
    /// Blocks not reachable from the entry.
    pub unreachable: u32,
    /// Natural loops found.
    pub loops: u32,
    /// Deepest loop nesting.
    pub max_depth: u32,
    /// Retreating edges that are not back edges.
    pub irreducible_edges: u32,
    /// Edges that leave the function's block range without being calls.
    pub cross_function_edges: u32,
    /// Estimated invocation weight (dispatch driver = 1.0).
    pub weight: f64,
}

/// Kind of structural trace lint (see [`ProgramAnalysis::lint_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructuralLintKind {
    /// The trace takes a loop back edge whose header is not the trace
    /// head, so the trace spans loop iterations it can never close.
    CrossesBackEdge,
    /// The trace head is not a loop header, function entry, call-return
    /// join, or control-flow join — reuse is unlikely.
    WeakHead,
}

/// One structural finding about a constructed trace.
#[derive(Clone, Debug)]
pub struct StructuralLint {
    /// What was found.
    pub kind: StructuralLintKind,
    /// Code address the finding anchors to.
    pub pc: u64,
    /// Human-readable explanation.
    pub msg: String,
}

/// The complete analysis of one program. Produced by [`analyze`].
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// Per-function summaries, in function order.
    pub funcs: Vec<FuncSummary>,
    /// All classified trace heads, sorted by pc.
    pub heads: Vec<TraceHead>,
    /// Loop-nesting depth of every block (global ids, 0 = no loop).
    pub block_depth: Vec<u32>,
    /// Absolute static hotness of every block (global ids).
    pub block_hotness: Vec<f64>,
    /// Total natural loops across all functions.
    pub num_loops: usize,
    /// Deepest nesting anywhere in the program.
    pub max_loop_depth: u32,
    /// Deterministic, human-readable degradation warnings
    /// (irreducible regions, unreachable blocks, cross-function edges).
    pub warnings: Vec<String>,
    /// All loop back edges as global `(latch, header)` pairs.
    back_edges: BTreeSet<(BlockId, BlockId)>,
    /// `(start_pc, end_pc_exclusive, block)` sorted by start.
    pc_ranges: Vec<(u64, u64, BlockId)>,
    /// Head pc → index into `heads`.
    head_index: BTreeMap<u64, usize>,
}

/// Analyze `prog`: recover the CFG, compute dominators, loops, hotness
/// and reuse classes.
///
/// # Errors
///
/// Returns [`AnalysisError`] when the program table is structurally
/// malformed; see the enum for the cases. Irreducible and unreachable
/// regions are *not* errors — they degrade to
/// [`ProgramAnalysis::warnings`].
pub fn analyze(prog: &Program) -> Result<ProgramAnalysis, AnalysisError> {
    let cfg = cfg::Cfg::build(prog)?;
    let mut forests = Vec::with_capacity(cfg.funcs.len());
    let mut warnings = Vec::new();
    for f in &cfg.funcs {
        let dt = dom::DomTree::compute(f);
        let forest = loops::LoopForest::build(f, &dt, prog);
        for &(u, v) in &forest.irreducible_edges {
            warnings.push(format!(
                "func {}: irreducible retreating edge b{} -> b{} (excluded from loop forest)",
                f.func,
                f.global(u),
                f.global(v)
            ));
        }
        if !f.unreachable.is_empty() {
            warnings.push(format!(
                "func {}: {} unreachable block(s) excluded from analysis",
                f.func,
                f.unreachable.len()
            ));
        }
        if f.cross_function_edges > 0 {
            warnings.push(format!(
                "func {}: {} edge(s) leave the function's block range",
                f.func, f.cross_function_edges
            ));
        }
        forests.push(forest);
    }
    let intra = hotness::intra_weights(&cfg, &forests);
    let fw = hotness::function_weights(&cfg, &intra);
    let block_hotness = hotness::block_hotness(&cfg, &intra, &fw);
    let heads = reuse::classify_heads(prog, &cfg, &forests, &block_hotness);

    let mut block_depth = vec![0u32; prog.blocks.len()];
    let mut back_edges: BTreeSet<(BlockId, BlockId)> = BTreeSet::new();
    let mut funcs = Vec::with_capacity(cfg.funcs.len());
    let mut num_loops = 0usize;
    let mut max_loop_depth = 0u32;
    for (f, forest) in cfg.funcs.iter().zip(&forests) {
        for local in 0..f.num_blocks {
            block_depth[f.global(local) as usize] = forest.depth_of[local as usize];
        }
        for l in &forest.loops {
            for &latch in &l.latches {
                back_edges.insert((f.global(latch), f.global(l.header)));
            }
        }
        num_loops += forest.loops.len();
        let fmax = forest.loops.iter().map(|l| l.depth).max().unwrap_or(0);
        max_loop_depth = max_loop_depth.max(fmax);
        funcs.push(FuncSummary {
            func: f.func,
            first: f.first,
            num_blocks: f.num_blocks,
            unreachable: u32::try_from(f.unreachable.len()).unwrap_or(u32::MAX),
            loops: u32::try_from(forest.loops.len()).unwrap_or(u32::MAX),
            max_depth: fmax,
            irreducible_edges: u32::try_from(forest.irreducible_edges.len()).unwrap_or(u32::MAX),
            cross_function_edges: f.cross_function_edges,
            weight: fw[f.func as usize],
        });
    }

    let mut pc_ranges: Vec<(u64, u64, BlockId)> = prog
        .blocks
        .iter()
        .enumerate()
        .map(|(b, blk)| {
            let last = prog.inst(blk.last_inst());
            (
                prog.block_pc(u32::try_from(b).unwrap_or(u32::MAX)),
                last.addr + u64::from(last.len),
                u32::try_from(b).unwrap_or(u32::MAX),
            )
        })
        .collect();
    pc_ranges.sort_unstable();
    let head_index = heads.iter().enumerate().map(|(i, h)| (h.pc, i)).collect();

    Ok(ProgramAnalysis {
        funcs,
        heads,
        block_depth,
        block_hotness,
        num_loops,
        max_loop_depth,
        warnings,
        back_edges,
        pc_ranges,
        head_index,
    })
}

impl ProgramAnalysis {
    /// The block containing code address `pc`, if any.
    #[must_use]
    pub fn block_at(&self, pc: u64) -> Option<BlockId> {
        let i = self.pc_ranges.partition_point(|&(start, _, _)| start <= pc);
        let (start, end, b) = *self.pc_ranges.get(i.checked_sub(1)?)?;
        (pc >= start && pc < end).then_some(b)
    }

    /// The classified trace head starting exactly at `pc`, if any.
    #[must_use]
    pub fn head_at(&self, pc: u64) -> Option<&TraceHead> {
        self.head_index.get(&pc).map(|&i| &self.heads[i])
    }

    /// Head counts per class as `(high, medium, low)`.
    #[must_use]
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for h in &self.heads {
            match h.class {
                ReuseClass::High => c.0 += 1,
                ReuseClass::Medium => c.1 += 1,
                ReuseClass::Low => c.2 += 1,
            }
        }
        c
    }

    /// Structural lints for one constructed trace: `start_pc` is the
    /// trace head, `inst_pcs` the addresses of its committed
    /// instructions in order (including the head).
    #[must_use]
    pub fn lint_trace(&self, start_pc: u64, inst_pcs: &[u64]) -> Vec<StructuralLint> {
        let mut out = Vec::new();
        match self.block_at(start_pc) {
            Some(b) if self.pc_of_block(b) == Some(start_pc) => {
                if self.head_at(start_pc).is_none() {
                    out.push(StructuralLint {
                        kind: StructuralLintKind::WeakHead,
                        pc: start_pc,
                        msg: format!(
                            "trace head {start_pc:#x} is not a loop header, function entry, \
                             or join point; low predicted reuse"
                        ),
                    });
                }
            }
            _ => out.push(StructuralLint {
                kind: StructuralLintKind::WeakHead,
                pc: start_pc,
                msg: format!("trace head {start_pc:#x} is not a basic-block boundary"),
            }),
        }
        for w in inst_pcs.windows(2) {
            let (Some(u), Some(v)) = (self.block_at(w[0]), self.block_at(w[1])) else {
                continue;
            };
            if self.pc_of_block(v) != Some(w[1]) {
                continue; // mid-block step, not a CFG edge
            }
            if self.back_edges.contains(&(u, v)) && self.pc_of_block(v) != Some(start_pc) {
                out.push(StructuralLint {
                    kind: StructuralLintKind::CrossesBackEdge,
                    pc: w[1],
                    msg: format!(
                        "trace crosses loop back edge into header {:#x} it cannot close \
                         (trace head is {start_pc:#x})",
                        w[1]
                    ),
                });
            }
        }
        out
    }

    /// Start pc of block `b`, if it holds any instructions.
    #[must_use]
    pub fn pc_of_block(&self, b: BlockId) -> Option<u64> {
        self.pc_ranges
            .iter()
            .find(|&&(_, _, blk)| blk == b)
            .map(|&(start, _, _)| start)
    }

    /// Deterministic JSON report for `app`. Two runs over the same
    /// program produce byte-identical output (sorted keys, no time, no
    /// randomness, fixed-order float arithmetic).
    #[must_use]
    pub fn report(&self, app: &str) -> Value {
        let summary = Value::obj([
            ("functions", Value::int(self.funcs.len() as u64)),
            ("blocks", Value::int(self.block_depth.len() as u64)),
            ("loops", Value::int(self.num_loops as u64)),
            ("maxLoopDepth", Value::int(u64::from(self.max_loop_depth))),
            ("backEdges", Value::int(self.back_edges.len() as u64)),
            ("heads", Value::int(self.heads.len() as u64)),
            (
                "unreachableBlocks",
                Value::int(self.funcs.iter().map(|f| u64::from(f.unreachable)).sum()),
            ),
            (
                "irreducibleEdges",
                Value::int(
                    self.funcs
                        .iter()
                        .map(|f| u64::from(f.irreducible_edges))
                        .sum(),
                ),
            ),
        ]);
        let (high, medium, low) = self.class_counts();
        let classes = Value::obj([
            ("high", Value::int(high as u64)),
            ("medium", Value::int(medium as u64)),
            ("low", Value::int(low as u64)),
        ]);
        let funcs = Value::Arr(
            self.funcs
                .iter()
                .map(|f| {
                    Value::obj([
                        ("func", Value::int(u64::from(f.func))),
                        ("blocks", Value::int(u64::from(f.num_blocks))),
                        ("loops", Value::int(u64::from(f.loops))),
                        ("maxDepth", Value::int(u64::from(f.max_depth))),
                        ("unreachable", Value::int(u64::from(f.unreachable))),
                        ("irreducible", Value::int(u64::from(f.irreducible_edges))),
                        ("weight", Value::Num(round6(f.weight))),
                    ])
                })
                .collect(),
        );
        let heads = Value::Arr(
            self.heads
                .iter()
                .map(|h| {
                    let mut roles = Vec::new();
                    if h.roles.loop_header {
                        roles.push("loopHeader");
                    }
                    if h.roles.func_entry {
                        roles.push("funcEntry");
                    }
                    if h.roles.ret_to {
                        roles.push("retTo");
                    }
                    if h.roles.join {
                        roles.push("join");
                    }
                    Value::obj([
                        ("pc", Value::Str(format!("{:#x}", h.pc))),
                        ("class", Value::Str(h.class.label().to_string())),
                        ("depth", Value::int(u64::from(h.loop_depth))),
                        ("trip", Value::Num(round6(h.trip))),
                        ("share", Value::Num(round6(h.share))),
                        ("memFrac", Value::Num(round6(h.mem_frac))),
                        ("fpFrac", Value::Num(round6(h.fp_frac))),
                        ("score", Value::Num(round6(h.score))),
                        (
                            "roles",
                            Value::Arr(
                                roles
                                    .into_iter()
                                    .map(|r| Value::Str(r.to_string()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let warnings = Value::Arr(
            self.warnings
                .iter()
                .map(|w| Value::Str(w.clone()))
                .collect(),
        );
        Value::obj([
            ("app", Value::Str(app.to_string())),
            ("summary", summary),
            ("classes", classes),
            ("functions", funcs),
            ("heads", heads),
            ("warnings", warnings),
        ])
    }

    /// [`ProgramAnalysis::report`] pretty-printed with a trailing newline
    /// (the exact bytes `parrot analyze --out` writes).
    #[must_use]
    pub fn report_string(&self, app: &str) -> String {
        let mut s = self.report(app).to_json_pretty();
        s.push('\n');
        s
    }
}

/// Round to 6 decimal places so reports don't carry float noise.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

#[cfg(test)]
mod tests;
