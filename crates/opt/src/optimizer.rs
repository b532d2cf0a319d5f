//! The trace optimizer: pass pipeline, occupancy model and statistics.
//!
//! Modeled as the paper describes (§3.1): a non-pipelined unit holding one
//! trace in a ROB-like structure, analyzing uops over several passes with a
//! total delay on the order of 100 cycles, amortized by the blazing
//! filter's high reuse threshold.

use crate::depgraph::DepGraph;
use crate::passes::{self, PassStats};
use crate::validate::{self, InconclusiveKind, Verdict};
use parrot_telemetry::{profile, trace as tev};
use parrot_trace::{OptLevel, OptVerdict, TraceFrame};

/// Which passes run, and the occupancy model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Partial (virtual) renaming — core-specific.
    pub rename: bool,
    /// Constant propagation/folding — general-purpose.
    pub const_prop: bool,
    /// Logic simplification — general-purpose.
    pub simplify: bool,
    /// Dead-code elimination — general-purpose.
    pub dce: bool,
    /// Uop fusion — core-specific.
    pub fuse: bool,
    /// SIMDification — core-specific.
    pub simdify: bool,
    /// Critical-path list scheduling — core-specific.
    pub schedule: bool,
    /// Occupancy per optimized trace, in cycles.
    pub latency_cycles: u32,
}

impl OptimizerConfig {
    /// Everything on (the PARROT `TO*` models).
    pub fn full() -> OptimizerConfig {
        OptimizerConfig {
            rename: true,
            const_prop: true,
            simplify: true,
            dce: true,
            fuse: true,
            simdify: true,
            schedule: true,
            latency_cycles: 100,
        }
    }

    /// Only the general-purpose optimizations (the ablation point the
    /// companion-paper comparison calls "generic").
    pub fn generic_only() -> OptimizerConfig {
        OptimizerConfig {
            rename: false,
            fuse: false,
            simdify: false,
            schedule: false,
            ..Self::full()
        }
    }

    /// No optimization at all (the `TN`/`TW` models never construct one of
    /// these, but it is useful for ablations).
    pub fn none() -> OptimizerConfig {
        OptimizerConfig {
            rename: false,
            const_prop: false,
            simplify: false,
            dce: false,
            fuse: false,
            simdify: false,
            schedule: false,
            latency_cycles: 0,
        }
    }
}

/// What the translation-validation gate decided about one optimized trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GateDecision {
    /// The rewrite was statically proven equivalent; the optimized uops
    /// were kept.
    #[default]
    Validated,
    /// A structural lint error demoted the trace to its unoptimized form
    /// (a pass produced malformed IR — should never happen).
    DemotedLint,
    /// Equivalence could not be proven; the trace was demoted to its
    /// unoptimized form.
    DemotedEquiv,
}

/// A fault-injection sabotage hook: mutates the rewritten uops between the
/// pass pipeline and the validation gate (see [`Optimizer::optimize_with`]).
pub type SabotageHook<'a> = &'a mut dyn FnMut(&mut Vec<parrot_isa::Uop>);

/// Result of optimizing one trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptOutcome {
    /// Uops before optimization.
    pub uops_before: u32,
    /// Uops after optimization (equals `uops_before` when demoted).
    pub uops_after: u32,
    /// Latency-weighted critical path before.
    pub dep_before: u32,
    /// Latency-weighted critical path after.
    pub dep_after: u32,
    /// Per-pass counters.
    pub passes: PassStats,
    /// Total uop-analysis steps performed (drives optimizer energy).
    pub work_uops: u64,
    /// Verdict of the mandatory translation-validation gate.
    pub gate: GateDecision,
}

/// Cumulative optimizer statistics across a run (Fig 4.9 inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizerStats {
    /// Traces optimized.
    pub traces: u64,
    /// Total uops before optimization.
    pub uops_before: u64,
    /// Total uops after optimization.
    pub uops_after: u64,
    /// Total critical path before optimization.
    pub dep_before: u64,
    /// Total critical path after optimization.
    pub dep_after: u64,
    /// Total analysis work (uop·pass).
    pub work_uops: u64,
    /// Aggregated pass counters.
    pub passes: PassStats,
    /// Traces whose optimization was statically validated.
    pub validated: u64,
    /// Traces demoted to their unoptimized form by the validation gate.
    pub demoted: u64,
    /// Demotions caused by structural lint errors (should stay zero).
    pub inconclusive_lint: u64,
    /// Demotions where equivalence could not be proven.
    pub inconclusive_equiv: u64,
}

impl OptimizerStats {
    /// Average relative uop reduction.
    pub fn uop_reduction(&self) -> f64 {
        if self.uops_before == 0 {
            0.0
        } else {
            1.0 - self.uops_after as f64 / self.uops_before as f64
        }
    }

    /// Average relative dependency-path reduction.
    pub fn dep_reduction(&self) -> f64 {
        if self.dep_before == 0 {
            0.0
        } else {
            1.0 - self.dep_after as f64 / self.dep_before as f64
        }
    }

    fn absorb(&mut self, o: &OptOutcome) {
        self.traces += 1;
        self.uops_before += u64::from(o.uops_before);
        self.uops_after += u64::from(o.uops_after);
        self.dep_before += u64::from(o.dep_before);
        self.dep_after += u64::from(o.dep_after);
        self.work_uops += o.work_uops;
        match o.gate {
            GateDecision::Validated => self.validated += 1,
            GateDecision::DemotedLint => {
                self.demoted += 1;
                self.inconclusive_lint += 1;
            }
            GateDecision::DemotedEquiv => {
                self.demoted += 1;
                self.inconclusive_equiv += 1;
            }
        }
        let p = &o.passes;
        let t = &mut self.passes;
        t.renamed_defs += p.renamed_defs;
        t.folded += p.folded;
        t.copies_propagated += p.copies_propagated;
        t.simplified += p.simplified;
        t.removed_dead += p.removed_dead;
        t.fused += p.fused;
        t.simd_lanes += p.simd_lanes;
    }
}

/// The dynamic optimizer unit.
#[derive(Clone, Debug)]
pub struct Optimizer {
    cfg: OptimizerConfig,
    stats: OptimizerStats,
    /// The unit is non-pipelined: busy until this cycle.
    busy_until: u64,
}

impl Optimizer {
    /// An idle optimizer.
    pub fn new(cfg: OptimizerConfig) -> Optimizer {
        Optimizer {
            cfg,
            stats: OptimizerStats::default(),
            busy_until: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &OptimizerStats {
        &self.stats
    }

    /// Is the unit free at `now`? (Non-pipelined: one trace at a time.)
    pub fn is_idle(&self, now: u64) -> bool {
        now >= self.busy_until
    }

    /// Optimize a frame in place: applies the configured pass pipeline, then
    /// runs the mandatory static translation-validation gate. A validated
    /// frame becomes [`OptLevel::Optimized`]; an unvalidatable one is
    /// restored to its original uops and becomes [`OptLevel::Demoted`].
    /// Either way the unit is occupied for `latency_cycles` and the frame
    /// carries a [`OptVerdict`].
    pub fn optimize(&mut self, frame: &mut TraceFrame, now: u64) -> OptOutcome {
        self.optimize_with(frame, now, None)
    }

    /// [`Optimizer::optimize`] with an optional *sabotage* hook, applied to
    /// the rewritten uops after the pass pipeline but **before** the
    /// mandatory validation gate. Fault-injection campaigns use it to model
    /// a buggy rewrite: the gate must then either demote the frame or prove
    /// the mutation harmless — it can never ship an unvalidated rewrite.
    pub fn optimize_with(
        &mut self,
        frame: &mut TraceFrame,
        now: u64,
        sabotage: Option<SabotageHook<'_>>,
    ) -> OptOutcome {
        let _prof = profile::scope("opt.optimize");
        let mut out = OptOutcome {
            uops_before: frame.uops.len() as u32,
            ..OptOutcome::default()
        };
        let g0 = DepGraph::build(&frame.uops);
        out.dep_before = g0.critical_path(&frame.uops);
        let original = frame.uops.clone();

        // Debug builds lint the IR between passes so a broken invariant is
        // pinned on the pass that introduced it. Skipped when the *input*
        // already lints dirty (then no pass is at fault; the gate below
        // still demotes).
        let mem_slots = frame.mem_addrs.len();
        let num_insts = frame.num_insts;
        let input_clean = !cfg!(debug_assertions)
            || !validate::lint::has_errors(&validate::lint::lint_uops(
                &original, mem_slots, num_insts,
            ));
        let debug_lint = |uops: &[parrot_isa::Uop], pass: &'static str| {
            if cfg!(debug_assertions) && input_clean {
                let errs: Vec<String> = validate::lint::lint_uops(uops, mem_slots, num_insts)
                    .into_iter()
                    .filter(|f| f.severity == validate::lint::Severity::Error)
                    .map(|f| f.to_string())
                    .collect();
                assert!(
                    errs.is_empty(),
                    "pass {pass} broke a uop-IR invariant: {}",
                    errs.join("; ")
                );
            }
        };

        let mut work = 0u64;
        // Analysis work per executed pass, in pipeline order; doubles as the
        // weighting for the per-pass telemetry spans below.
        let mut pass_work: Vec<(&'static str, u64)> = Vec::new();
        let track = |uops: &Vec<parrot_isa::Uop>| uops.len() as u64;

        if self.cfg.rename {
            let _p = profile::scope("opt.rename");
            passes::partial_rename(&mut frame.uops, &mut out.passes);
            pass_work.push(("opt.rename", track(&frame.uops)));
            debug_lint(&frame.uops, "rename");
        }
        // Two rounds of the general-purpose trio: simplification exposes new
        // constants and dead code.
        for _ in 0..2 {
            if self.cfg.const_prop {
                let _p = profile::scope("opt.const_prop");
                passes::const_propagate(&mut frame.uops, &mut out.passes);
                pass_work.push(("opt.const_prop", track(&frame.uops)));
                debug_lint(&frame.uops, "const_prop");
            }
            if self.cfg.simplify {
                let _p = profile::scope("opt.simplify");
                passes::simplify(&mut frame.uops, &mut out.passes);
                pass_work.push(("opt.simplify", track(&frame.uops)));
                debug_lint(&frame.uops, "simplify");
            }
            if self.cfg.dce {
                let _p = profile::scope("opt.dce");
                passes::dce(&mut frame.uops, &mut out.passes);
                pass_work.push(("opt.dce", track(&frame.uops)));
                debug_lint(&frame.uops, "dce");
            }
        }
        if self.cfg.fuse {
            let _p = profile::scope("opt.fuse");
            passes::fuse(&mut frame.uops, &mut out.passes);
            pass_work.push(("opt.fuse", track(&frame.uops)));
            debug_lint(&frame.uops, "fuse");
        }
        if self.cfg.simdify {
            let _p = profile::scope("opt.simdify");
            passes::simdify(&mut frame.uops, &mut out.passes);
            pass_work.push(("opt.simdify", track(&frame.uops)));
            debug_lint(&frame.uops, "simdify");
        }
        if self.cfg.dce && (self.cfg.fuse || self.cfg.simdify) {
            let _p = profile::scope("opt.dce");
            passes::dce(&mut frame.uops, &mut out.passes);
            pass_work.push(("opt.dce", track(&frame.uops)));
            debug_lint(&frame.uops, "dce");
        }
        if self.cfg.schedule {
            let _p = profile::scope("opt.schedule");
            passes::schedule(&mut frame.uops);
            pass_work.push(("opt.schedule", track(&frame.uops)));
            debug_lint(&frame.uops, "schedule");
        }

        // Sabotage hook (fault injection): mutates the rewrite after the
        // passes, without the per-pass debug lint — a corrupted rewrite is a
        // legitimate input to the gate below, not a pass bug.
        if let Some(sabotage) = sabotage {
            sabotage(&mut frame.uops);
        }

        // Mandatory gate: every rewrite must lint clean and be statically
        // proven equivalent before the trace cache may serve it.
        out.gate = {
            let _p = profile::scope("opt.validate");
            let findings = validate::lint::lint_uops(&frame.uops, mem_slots, num_insts);
            if validate::lint::has_errors(&findings) {
                GateDecision::DemotedLint
            } else {
                match validate::validate_uops(&original, &frame.uops, &frame.mem_addrs) {
                    Verdict::Validated => GateDecision::Validated,
                    Verdict::Inconclusive {
                        kind: InconclusiveKind::Lint,
                        ..
                    } => GateDecision::DemotedLint,
                    Verdict::Inconclusive { .. } => GateDecision::DemotedEquiv,
                }
            }
        };
        pass_work.push(("opt.validate", (original.len() + frame.uops.len()) as u64));
        work += pass_work.iter().map(|(_, w)| w).sum::<u64>();

        if out.gate == GateDecision::Validated {
            frame.opt_level = OptLevel::Optimized;
            frame.verdict = Some(OptVerdict::Validated);
            frame.execs_since_opt = 0;
        } else {
            frame.uops = original;
            frame.opt_level = OptLevel::Demoted;
            frame.verdict = Some(OptVerdict::Demoted);
        }

        let g1 = DepGraph::build(&frame.uops);
        out.dep_after = g1.critical_path(&frame.uops);
        out.uops_after = frame.uops.len() as u32;
        out.work_uops = work;

        self.busy_until = now + u64::from(self.cfg.latency_cycles);
        self.emit_job_spans(now, &pass_work, &out);
        self.stats.absorb(&out);
        out
    }

    /// Emit the optimizer-job span and its per-pass sub-spans onto the
    /// telemetry timeline. The unit occupies `[now, busy_until)` in
    /// simulated cycles; each executed pass gets a slice of that window
    /// proportional to its analysis work (uops examined).
    fn emit_job_spans(&self, now: u64, pass_work: &[(&'static str, u64)], out: &OptOutcome) {
        if !tev::active() {
            return;
        }
        tev::complete(
            "opt.job",
            "opt",
            tev::track::OPT,
            now,
            self.busy_until,
            tev::arg2(
                "uops_before",
                f64::from(out.uops_before),
                "uops_after",
                f64::from(out.uops_after),
            ),
        );
        let total: u64 = pass_work.iter().map(|(_, w)| w).sum();
        let window = self.busy_until.saturating_sub(now);
        if total == 0 || window == 0 {
            return;
        }
        let mut t = now;
        for (name, w) in pass_work {
            let dur = window * w / total;
            tev::complete(
                name,
                "opt.pass",
                tev::track::OPT,
                t,
                t + dur,
                tev::arg1("work_uops", *w as f64),
            );
            t += dur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_equivalent_multi;
    use parrot_trace::{construct_frame, select_candidates, SelectionConfig};
    use parrot_workloads::{all_apps, generate_program, AppProfile, Suite};

    fn frames_for(profile: &AppProfile, n: usize) -> Vec<TraceFrame> {
        let prog = generate_program(profile);
        let decoded = prog.decode_all();
        select_candidates(&prog, SelectionConfig::default(), n)
            .iter()
            .map(|c| construct_frame(c, &decoded))
            .collect()
    }

    #[test]
    fn full_pipeline_preserves_semantics_on_real_traces() {
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let mut checked = 0;
        for app in [
            AppProfile::suite_base(Suite::SpecInt),
            AppProfile::suite_base(Suite::SpecFp),
            AppProfile::suite_base(Suite::Multimedia),
        ] {
            for mut frame in frames_for(&app, 15_000) {
                let orig = frame.uops.clone();
                optz.optimize(&mut frame, 0);
                check_equivalent_multi(&orig, &frame.uops, &frame.mem_addrs, &[5, 17])
                    .unwrap_or_else(|e| panic!("{}: {e}", frame.tid));
                checked += 1;
            }
        }
        assert!(checked > 200, "checked {checked} traces");
    }

    #[test]
    fn optimizer_reduces_uops_and_dependencies_on_aggregate() {
        let mut optz = Optimizer::new(OptimizerConfig::full());
        for mut frame in frames_for(&AppProfile::suite_base(Suite::Multimedia), 30_000) {
            optz.optimize(&mut frame, 0);
        }
        let s = optz.stats();
        assert!(
            s.uop_reduction() > 0.08,
            "expected meaningful uop reduction, got {:.3}",
            s.uop_reduction()
        );
        assert!(
            s.dep_reduction() > 0.0,
            "expected dependency reduction, got {:.3}",
            s.dep_reduction()
        );
    }

    #[test]
    fn generic_only_does_less_than_full() {
        let run = |cfg: OptimizerConfig| {
            let mut optz = Optimizer::new(cfg);
            for mut frame in frames_for(&AppProfile::suite_base(Suite::Multimedia), 20_000) {
                optz.optimize(&mut frame, 0);
            }
            optz.stats().uop_reduction()
        };
        let generic = run(OptimizerConfig::generic_only());
        let full = run(OptimizerConfig::full());
        assert!(
            full > generic,
            "core-specific passes must add reduction: full={full:.3} generic={generic:.3}"
        );
    }

    #[test]
    fn occupancy_models_non_pipelined_unit() {
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let mut frame = frames_for(&AppProfile::suite_base(Suite::SpecInt), 5_000)
            .pop()
            .expect("some trace");
        assert!(optz.is_idle(0));
        optz.optimize(&mut frame, 10);
        assert!(!optz.is_idle(50));
        assert!(optz.is_idle(110));
    }

    #[test]
    fn gate_validates_every_real_trace() {
        // Completeness pin: the abstract domain must be strong enough to
        // validate everything the real pass pipeline produces on real
        // traces — a demotion here means a normalization is missing.
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let mut n = 0;
        for app in [
            AppProfile::suite_base(Suite::SpecInt),
            AppProfile::suite_base(Suite::SpecFp),
            AppProfile::suite_base(Suite::Multimedia),
        ] {
            for mut frame in frames_for(&app, 10_000) {
                let out = optz.optimize(&mut frame, 0);
                assert_eq!(out.gate, GateDecision::Validated, "{}", frame.tid);
                assert_eq!(frame.opt_level, OptLevel::Optimized);
                assert_eq!(frame.verdict, Some(OptVerdict::Validated));
                n += 1;
            }
        }
        assert!(n > 100, "validated {n} traces");
        assert_eq!(optz.stats().demoted, 0);
        assert_eq!(optz.stats().validated, optz.stats().traces);
    }

    #[test]
    fn gate_demotes_malformed_traces_instead_of_shipping_them() {
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let mut frame = frames_for(&AppProfile::suite_base(Suite::SpecInt), 5_000)
            .pop()
            .expect("some trace");
        // A memory uop with no resolvable address: un-replayable, so the
        // gate must refuse to mark any rewrite of it validated.
        let mut bad = parrot_isa::Uop::load(parrot_isa::Reg::int(2), parrot_isa::Reg::int(0));
        bad.inst_idx = frame.num_insts.saturating_sub(1);
        frame.uops.push(bad);
        let orig = frame.uops.clone();
        let out = optz.optimize(&mut frame, 0);
        assert_eq!(out.gate, GateDecision::DemotedLint);
        assert_eq!(frame.opt_level, OptLevel::Demoted);
        assert_eq!(frame.verdict, Some(OptVerdict::Demoted));
        assert_eq!(frame.uops, orig, "demotion restores the original uops");
        assert_eq!(out.uops_before, out.uops_after);
        assert_eq!(optz.stats().demoted, 1);
        assert_eq!(optz.stats().inconclusive_lint, 1);
        assert_eq!(optz.stats().inconclusive_equiv, 0);
    }

    #[test]
    fn sabotaged_rewrite_is_demoted_or_provably_harmless() {
        // Drive many traces through optimize_with a corrupting hook: the
        // gate must catch every mutation it cannot prove equivalent, and a
        // validated outcome must still replay identically to the original.
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let mut caught = 0;
        let mut benign = 0;
        for (i, mut frame) in frames_for(&AppProfile::suite_base(Suite::SpecInt), 20_000)
            .into_iter()
            .enumerate()
        {
            let orig = frame.uops.clone();
            let r = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut mutated = false;
            let out = optz.optimize_with(
                &mut frame,
                0,
                Some(&mut |uops: &mut Vec<parrot_isa::Uop>| {
                    if uops.is_empty() {
                        return;
                    }
                    let idx = (r % uops.len() as u64) as usize;
                    mutated = parrot_isa::corrupt::corrupt_uop(&mut uops[idx], r >> 8).is_some();
                }),
            );
            if !mutated {
                continue;
            }
            match out.gate {
                GateDecision::Validated => {
                    benign += 1;
                    // Provably harmless: replay must agree with the original.
                    check_equivalent_multi(&orig, &frame.uops, &frame.mem_addrs, &[3, 11])
                        .unwrap_or_else(|e| panic!("validated sabotage diverges: {e}"));
                }
                _ => {
                    caught += 1;
                    assert_eq!(frame.opt_level, OptLevel::Demoted);
                    assert_eq!(frame.uops, orig, "demotion restores original uops");
                }
            }
        }
        assert!(caught > 0, "corruption was never caught (caught={caught})");
        // Benign outcomes are possible (mutating a dead field) but catching
        // must dominate.
        assert!(caught >= benign, "caught={caught} benign={benign}");
    }

    #[test]
    fn every_app_optimizes_safely_smoke() {
        // Broad smoke: a couple of traces per registered app.
        let mut optz = Optimizer::new(OptimizerConfig::full());
        for app in all_apps().into_iter().take(10) {
            for mut frame in frames_for(&app, 3_000).into_iter().take(5) {
                let orig = frame.uops.clone();
                optz.optimize(&mut frame, 0);
                check_equivalent_multi(&orig, &frame.uops, &frame.mem_addrs, &[9])
                    .unwrap_or_else(|e| panic!("{} {}: {e}", app.name, frame.tid));
            }
        }
    }
}
