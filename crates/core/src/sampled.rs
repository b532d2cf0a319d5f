//! Sampled (SimPoint-style) simulation: run only a plan's representative
//! intervals and reconstruct the whole-run report as a weighted sum.
//!
//! Each representative is measured with a **checkpointed delta**: one
//! *window* machine replays `[rep.start - warm, rep.start + rep.len)`
//! plus a small fetch tail, and [`Machine::run_segment`] captures
//! cumulative report snapshots at the warmup boundary and at the window
//! end — both mid-flight, with the pipeline fully overlapped, so the
//! field-wise snapshot difference measures a contiguous warmed segment
//! with no drain tail on either side. The warmup prefix cancels out
//! exactly (same run, same trajectory) at the cost of a single
//! simulation per representative. The machine replays a capture, so
//! repositioning costs one slice decode through the `.ptrace` index
//! instead of re-executing the stream prefix.
//!
//! Reconstruction scales each cluster's measured delta by
//! `weight_insts / measured insts` and sums: counters land within rounding
//! of an equivalent full run, `insts` is set to the budget exactly, and
//! rate fields (coverage, optimizer ratios, mean trace reuse) are weighted
//! arithmetic means of the window values. Two full-run fields do not
//! survive sampling: `store_log_hash` is order-sensitive and reported as 0,
//! and fault injection is rejected up front (fault state is global to a
//! run and cannot be spliced from windows).

use crate::machine::Machine;
use crate::report::SimReport;
use crate::request::SimRequest;
use crate::warmth::{detailed_insts, effective_warmup, SampleWarmth};
use parrot_sampling::{build_plan, SamplePlan, SamplingSpec};
use parrot_telemetry::metrics;
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::Workload;
use std::sync::Arc;

/// Extra fetch budget past a measured window's end: comfortably larger
/// than the machine's maximum in-flight instruction count, so the
/// window-end snapshot is taken with the pipeline still fully supplied
/// (the abandoned tail is fetched but never measured).
const SEGMENT_TAIL: u64 = 4_096;

/// Entry point behind [`SimRequest::run`] when a sampling spec is armed.
///
/// # Panics
///
/// Panics if a fault plan is armed (unsupported under sampling), if an
/// armed replay capture fails validation, or if the supplied plan or
/// warmth does not fit the request's budget, spec and machine.
pub(crate) fn run_sampled(
    req: &SimRequest,
    wl: &Workload,
    spec: &SamplingSpec,
    plan: Option<&Arc<SamplePlan>>,
) -> SimReport {
    assert!(
        req.fault_plan().is_none(),
        "fault injection is not supported under sampled simulation \
         (fault state is global to a run and cannot be reconstructed from windows)"
    );
    let budget = req.insts_budget();
    // Sampled runs always replay a capture: window repositioning must be
    // O(slice) through the index, not O(start) live-engine stepping. An
    // armed replay is reused; otherwise the stream is captured in memory.
    let trace = match req.replay_trace() {
        Some(t) => Arc::clone(t),
        None => Arc::new(
            capture(wl, budget, DEFAULT_SLICE_INSTS).expect("committed stream is encodable"),
        ),
    };
    let plan = match plan {
        Some(p) => {
            assert_eq!(p.budget, budget, "sampling plan budget mismatch");
            assert_eq!(&p.spec, spec, "sampling plan spec mismatch");
            Arc::clone(p)
        }
        None => Arc::new(
            build_plan(&trace, wl, budget, spec).expect("capture covers the sampling budget"),
        ),
    };
    let cfg = req.machine_config();
    // Functional warming (DESIGN.md §18.3): every window machine starts
    // from cache/predictor state replayed over its *full* stream history,
    // so the detailed warmup only settles timing-coupled state. Shared
    // snapshots must fit this request; without them one pass is run here
    // for this machine's predictor configuration.
    let warmth = match req.warmth() {
        Some(w) => {
            w.assert_fits(budget, spec, cfg);
            Arc::clone(w)
        }
        None => Arc::new(SampleWarmth::build(
            &trace,
            wl,
            budget,
            &plan,
            spec,
            std::slice::from_ref(cfg),
        )),
    };
    let mut snapshots = Vec::with_capacity(plan.k());
    for (ci, cluster) in plan.clusters.iter().enumerate() {
        let iv = plan.intervals[cluster.rep];
        let warm = effective_warmup(cfg, spec, iv.start);
        let skip = iv.start - warm;
        if warm == 0 && iv.len >= budget {
            // One cold window covering the whole budget *is* the full run
            // (no history to warm from: skip == 0).
            let machine = Machine::from_config_window(
                cfg.clone(),
                wl,
                iv.len,
                None,
                Some(Arc::clone(&trace)),
                skip,
            );
            snapshots.push((machine.run(), None));
        } else {
            // Budget past the window end keeps the fetch side supplied
            // through the second snapshot, so both segment boundaries see
            // a fully-overlapped pipeline (capped by the captured stream).
            let run_budget = (warm + iv.len + SEGMENT_TAIL).min(budget - skip);
            let mut machine = Machine::from_config_window(
                cfg.clone(),
                wl,
                run_budget,
                None,
                Some(Arc::clone(&trace)),
                skip,
            );
            let (mem, bpred) = warmth.state_for(ci, cfg);
            machine.inject_warm_state(mem, bpred);
            let (prefix, window) = machine.run_segment(warm, warm + iv.len);
            snapshots.push((window, prefix));
        }
    }
    let recon = reconstruct(&plan, &snapshots);
    if metrics::active() {
        // A fresh run context *after* the per-window machines (each window
        // begins its own run): the sampled counters describe the
        // reconstruction, not any single machine.
        metrics::begin_run(&format!("{}/{}#sampled", cfg.name, wl.profile.name));
        metrics::counter_set("sample:intervals", plan.num_intervals() as u64);
        metrics::counter_set("sample:simulated", detailed_insts(&plan, cfg));
        metrics::counter_set("sample:weighted_insts", plan.weighted_insts());
        metrics::snapshot(recon.insts, recon.cycles);
    }
    recon
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The running per-field sums of one reconstruction, one `f64` per
/// visited field in visiting order.
#[derive(Default)]
struct Weigh {
    sums: Vec<f64>,
    next: usize,
    /// The current cluster's counter scale: `weight_insts / measured insts`.
    scale: f64,
    /// The current cluster's rate weight: its fraction of the budget.
    frac: f64,
}

impl Weigh {
    /// Add `x` to the next field's sum and return the sum so far.
    fn add(&mut self, x: f64) -> f64 {
        if self.next == self.sums.len() {
            // `-0.0`, the neutral element `Iterator::sum` starts from.
            self.sums.push(-0.0);
        }
        self.sums[self.next] += x;
        self.next += 1;
        self.sums[self.next - 1]
    }

    /// A cumulative counter: `window − prefix` (saturating as a guard —
    /// the earlier snapshot is never ahead), scaled, rounded once.
    fn count(&mut self, out: &mut u64, w: u64, p: Option<u64>) {
        let delta = w.saturating_sub(p.unwrap_or(0));
        *out = self.add(delta as f64 * self.scale).round() as u64;
    }

    /// Cumulative energy: `window − prefix`, clamped at zero, scaled.
    fn energy(&mut self, out: &mut f64, w: f64, p: Option<f64>) {
        let delta = p.map_or(w, |p| (w - p).max(0.0));
        *out = self.add(delta * self.scale);
    }

    /// A mean over the window's traces, not a monotone counter: the
    /// window's value, weighted by its budget fraction.
    fn rate(&mut self, out: &mut f64, w: f64) {
        *out = self.add(w * self.frac);
    }
}

/// Weigh the listed fields of `$out` from window `$w` and optional prefix
/// `$p`: `count` fields as counters, `rate` fields as weighted means.
macro_rules! weigh_fields {
    ($acc:ident, $out:ident, $w:ident, $p:ident; count: $($c:ident),*; rate: $($r:ident),*) => {
        $( $acc.count(&mut $out.$c, $w.$c, $p.map(|p| p.$c)); )*
        $( $acc.rate(&mut $out.$r, $w.$r); )*
    };
}

/// Add one cluster's (window, prefix) snapshot pair into `out`. Both
/// snapshots come from the same run ([`Machine::run_segment`]), so the
/// field-wise difference is the representative interval with its warmup
/// removed; a missing prefix subtracts nothing. A numeric report field
/// missing from these lists keeps the first window's value.
fn weigh(acc: &mut Weigh, out: &mut SimReport, w: &SimReport, p: Option<&SimReport>) {
    acc.next = 0;
    weigh_fields!(acc, out, w, p;
        count: uops, cycles, cond_branches, cond_mispredicts, iq_empty_cycles,
            issue_blocked_cycles, state_switches, committed_stores;
        rate:);
    acc.energy(&mut out.energy, w.energy, p.map(|p| p.energy));
    for (u, (label, e)) in out.energy_by_unit.iter_mut().enumerate() {
        debug_assert_eq!(label, &w.energy_by_unit[u].0, "unit order is fixed");
        acc.energy(e, w.energy_by_unit[u].1, p.map(|p| p.energy_by_unit[u].1));
    }
    let (Some(out), Some(w)) = (out.trace.as_mut(), w.trace.as_ref()) else {
        return;
    };
    let p = p.and_then(|p| p.trace.as_ref());
    weigh_fields!(acc, out, w, p;
        count: hot_insts, cold_insts, tpred_predictions, tpred_correct, pred_aborts,
            aborts, entries, hot_attempts, no_variant, constructed, tc_lookups, tc_hits,
            tc_evictions;
        rate: mean_opt_reuse);
    out.coverage = ratio(
        out.hot_insts as f64,
        (out.hot_insts + out.cold_insts) as f64,
    );
    let (Some(out), Some(w)) = (out.opt.as_mut(), w.opt.as_ref()) else {
        return;
    };
    let p = p.and_then(|p| p.opt.as_ref());
    weigh_fields!(acc, out, w, p;
        count: traces, work_uops, fused, simd_lanes, removed_dead, folded, validated,
            demoted, inconclusive_lint, inconclusive_equiv;
        rate: uop_reduction, dep_reduction);
}

/// The whole-run report as one weighted pass over the clusters'
/// (window, prefix) snapshot pairs: counters scale by
/// `weight_insts / measured insts` and round once at the end, rates are
/// budget-fraction means, and `insts` is the budget exactly.
/// `store_log_hash` is order-sensitive over the full stream and cannot be
/// composed from windows: it is 0 ("not computed").
fn reconstruct(plan: &SamplePlan, snapshots: &[(SimReport, Option<SimReport>)]) -> SimReport {
    let (first, _) = &snapshots[0];
    let mut out = SimReport {
        insts: plan.budget,
        store_log_hash: 0,
        faults: None,
        ..first.clone()
    };
    let mut acc = Weigh::default();
    let fracs = plan.weights();
    for ((cluster, (w, p)), frac) in plan.clusters.iter().zip(snapshots).zip(fracs) {
        let measured = w.insts.saturating_sub(p.as_ref().map_or(0, |p| p.insts));
        acc.scale = cluster.weight_insts as f64 / measured.max(1) as f64;
        acc.frac = frac;
        weigh(&mut acc, &mut out, w, p.as_ref());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use parrot_workloads::app_by_name;

    fn workload(name: &str) -> Workload {
        Workload::build(&app_by_name(name).expect("registered"))
    }

    fn spec() -> SamplingSpec {
        SamplingSpec {
            interval: 4_000,
            warmup: 2_000,
            max_k: 3,
            ..SamplingSpec::default()
        }
    }

    #[test]
    fn reconstruction_is_exact_in_the_limit() {
        // With every interval its own cluster and warmup reaching back to
        // the stream start, each delta measures its interval under the
        // exact full-run history — the weighted sum must telescope back to
        // the full report up to floating-point rounding. This pins the
        // window/prefix/delta machinery: any systematic error here is a
        // bug, not a sampling approximation.
        let wl = workload("gcc");
        let budget = 20_000;
        let full = SimRequest::model(Model::TOW).insts(budget).run(&wl);
        let sampled = SimRequest::model(Model::TOW)
            .insts(budget)
            .sampled(SamplingSpec {
                interval: 4_000,
                warmup: budget, // full history: zero warmth deficit
                max_k: 64,      // ≥ interval count: zero clustering error
                ..SamplingSpec::default()
            })
            .run(&wl);
        assert_eq!(sampled.insts, budget, "insts is the budget exactly");
        assert_eq!(sampled.model, full.model);
        assert_eq!(sampled.app, full.app);
        assert_eq!(sampled.suite, full.suite);
        assert_eq!(sampled.store_log_hash, 0, "not reconstructible");
        let ipc_err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
        let energy_err = (sampled.energy - full.energy).abs() / full.energy;
        assert!(
            ipc_err < 1e-3,
            "IPC error {ipc_err:.6} should telescope away"
        );
        assert!(energy_err < 1e-3, "energy error {energy_err:.6}");
        let t = sampled
            .trace
            .as_ref()
            .expect("trace models keep trace reports");
        let ft = full.trace.as_ref().expect("full trace");
        assert!(
            (t.coverage - ft.coverage).abs() < 1e-3,
            "coverage {:.4} vs full {:.4}",
            t.coverage,
            ft.coverage
        );
        let uop_err = (sampled.uops as f64 - full.uops as f64).abs() / full.uops as f64;
        assert!(uop_err < 1e-3, "uop error {uop_err:.6}");
    }

    #[test]
    fn sampled_run_tracks_full_at_a_small_budget() {
        // Real sampling settings (k-selection active, partial warmup) on a
        // phase-stable fp app: the reconstruction must land in the right
        // neighborhood even at a budget where the whole run is still a
        // cache-warming transient.
        let wl = workload("swim");
        let budget = 100_000;
        let full = SimRequest::model(Model::TOW).insts(budget).run(&wl);
        let sampled = SimRequest::model(Model::TOW)
            .insts(budget)
            .sampled(SamplingSpec {
                interval: 20_000,
                warmup: 40_000,
                max_k: 4,
                ..SamplingSpec::default()
            })
            .run(&wl);
        let ipc_err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
        let energy_err = (sampled.energy - full.energy).abs() / full.energy;
        assert!(ipc_err < 0.10, "IPC error {ipc_err:.3}");
        assert!(energy_err < 0.10, "energy error {energy_err:.3}");
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let wl = workload("swim");
        let a = SimRequest::model(Model::TON)
            .insts(20_000)
            .sampled(spec())
            .run(&wl);
        let b = SimRequest::model(Model::TON)
            .insts(20_000)
            .sampled(spec())
            .run(&wl);
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
    }

    #[test]
    fn sampled_accepts_an_armed_replay_and_a_prebuilt_plan() {
        // The sweep shares one capture, plan and warmth (built for every
        // model) across all models of an app: each report must equal the
        // model's sampled run prepared alone, byte for byte.
        let wl = workload("vpr");
        let budget = 20_000;
        let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).expect("encodable"));
        let plan = Arc::new(build_plan(&trace, &wl, budget, &spec()).expect("plan builds"));
        let cfgs: Vec<_> = Model::ALL.iter().map(|m| m.config()).collect();
        let warmth = Arc::new(SampleWarmth::build(
            &trace,
            &wl,
            budget,
            &plan,
            &spec(),
            &cfgs,
        ));
        for m in Model::ALL {
            let alone = SimRequest::model(m).insts(budget).sampled(spec()).run(&wl);
            let via_plan = SimRequest::model(m)
                .insts(budget)
                .replay(Arc::clone(&trace))
                .sampled_plan(Arc::clone(&plan));
            let via_warmth = via_plan.clone().sample_warmth(Arc::clone(&warmth));
            let alone = alone.to_json().to_json();
            assert_eq!(alone, via_plan.run(&wl).to_json().to_json(), "{m} plan");
            assert_eq!(alone, via_warmth.run(&wl).to_json().to_json(), "{m} warmth");
        }
    }

    /// Run N at `budget` under `spec`, armed with warmth built for `cfgs`
    /// at 20k instructions under `spec()`.
    fn run_with_warmth(budget: u64, spec: SamplingSpec, cfgs: &[crate::MachineConfig]) {
        let wl = workload("vpr");
        let trace = Arc::new(capture(&wl, 20_000, DEFAULT_SLICE_INSTS).expect("encodable"));
        let plan = build_plan(&trace, &wl, 20_000, &self::spec()).expect("plan builds");
        let warmth = SampleWarmth::build(&trace, &wl, 20_000, &plan, &plan.spec, cfgs);
        let _ = SimRequest::model(Model::N)
            .insts(budget)
            .sampled(spec)
            .sample_warmth(Arc::new(warmth))
            .run(&wl);
    }

    #[test]
    #[should_panic(expected = "fault injection is not supported")]
    fn sampled_rejects_fault_plans() {
        let wl = workload("art");
        let _ = SimRequest::model(Model::TOW)
            .insts(10_000)
            .faults(crate::FaultPlan::new(1))
            .sampled(spec())
            .run(&wl);
    }

    #[test]
    #[should_panic(expected = "sample warmth budget mismatch")]
    fn sampled_rejects_warmth_built_at_another_budget() {
        run_with_warmth(16_000, spec(), &[Model::N.config()]);
    }

    #[test]
    #[should_panic(expected = "sample warmth spec mismatch")]
    fn sampled_rejects_warmth_built_under_another_spec() {
        let other = SamplingSpec {
            warmup: 3_000,
            ..spec()
        };
        run_with_warmth(20_000, other, &[Model::N.config()]);
    }

    #[test]
    #[should_panic(expected = "sample warmth has no warming pass for N")]
    fn sampled_rejects_warmth_without_a_pass_for_the_machine() {
        run_with_warmth(20_000, spec(), &[Model::TOW.config()]);
    }

    #[test]
    fn budget_smaller_than_interval_degenerates_to_one_window() {
        let wl = workload("gzip");
        let budget = 2_500; // < interval → one interval, k = 1, warm = 0
        let sampled = SimRequest::model(Model::N)
            .insts(budget)
            .sampled(SamplingSpec {
                interval: 100_000,
                ..SamplingSpec::default()
            })
            .run(&wl);
        // One cold window covering the whole budget IS the full run, modulo
        // the zeroed store-log hash.
        let mut full = SimRequest::model(Model::N).insts(budget).run(&wl);
        full.store_log_hash = 0;
        assert_eq!(sampled.to_json().to_json(), full.to_json().to_json());
    }
}
