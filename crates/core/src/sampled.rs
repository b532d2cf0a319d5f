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
use crate::report::{OptReport, SimReport, TraceReport};
use crate::request::SimRequest;
use crate::warmth::SampleWarmth;
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
/// armed replay capture fails validation, or if the supplied plan does not
/// match the request's budget and spec.
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
    // snapshots are reused when they match this request; otherwise one
    // pass is run here for this machine's predictor configuration.
    let warmth = match req.warmth() {
        Some(w) if w.matches(budget, spec) && w.has_pass(cfg) => Arc::clone(w),
        _ => Arc::new(SampleWarmth::build(
            &trace,
            wl,
            budget,
            &plan,
            spec,
            std::slice::from_ref(cfg),
        )),
    };
    let mut deltas = Vec::with_capacity(plan.k());
    let mut simulated = 0u64;
    for (ci, cluster) in plan.clusters.iter().enumerate() {
        let iv = plan.intervals[cluster.rep];
        let warm = crate::warmth::effective_warmup(cfg, spec, iv.start);
        let skip = iv.start - warm;
        simulated += warm + iv.len;
        let delta = if warm == 0 && iv.len >= budget {
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
            machine.run()
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
            if let Some((mem, bpred)) = warmth.state_for(ci, cfg) {
                machine.inject_warm_state(mem, bpred);
            }
            let (prefix, window) = machine.run_segment(warm, warm + iv.len);
            match prefix {
                Some(p) => delta_report(&window, &p),
                None => window,
            }
        };
        deltas.push(delta);
    }
    let recon = reconstruct(&plan, &deltas);
    if metrics::active() {
        // A fresh run context *after* the per-window machines (each window
        // begins its own run): the sampled counters describe the
        // reconstruction, not any single machine.
        metrics::begin_run(&format!("{}/{}#sampled", cfg.name, wl.profile.name));
        metrics::counter_set("sample:intervals", plan.num_intervals() as u64);
        metrics::counter_set("sample:simulated", simulated);
        metrics::counter_set("sample:weighted_insts", plan.weighted_insts());
        metrics::snapshot(recon.insts, recon.cycles);
    }
    recon
}

fn sub_trace(w: &TraceReport, p: &TraceReport) -> TraceReport {
    let hot = w.hot_insts.saturating_sub(p.hot_insts);
    let cold = w.cold_insts.saturating_sub(p.cold_insts);
    TraceReport {
        coverage: ratio(hot as f64, (hot + cold) as f64),
        hot_insts: hot,
        cold_insts: cold,
        tpred_predictions: w.tpred_predictions.saturating_sub(p.tpred_predictions),
        tpred_correct: w.tpred_correct.saturating_sub(p.tpred_correct),
        pred_aborts: w.pred_aborts.saturating_sub(p.pred_aborts),
        aborts: w.aborts.saturating_sub(p.aborts),
        entries: w.entries.saturating_sub(p.entries),
        hot_attempts: w.hot_attempts.saturating_sub(p.hot_attempts),
        no_variant: w.no_variant.saturating_sub(p.no_variant),
        constructed: w.constructed.saturating_sub(p.constructed),
        tc_lookups: w.tc_lookups.saturating_sub(p.tc_lookups),
        tc_hits: w.tc_hits.saturating_sub(p.tc_hits),
        tc_evictions: w.tc_evictions.saturating_sub(p.tc_evictions),
        // A mean over the window's traces, not a monotone counter: keep the
        // window value (reconstruction takes the weighted mean).
        mean_opt_reuse: w.mean_opt_reuse,
        opt: w.opt.as_ref().map(|wo| {
            let po = p.opt.as_ref().cloned().unwrap_or_default();
            OptReport {
                traces: wo.traces.saturating_sub(po.traces),
                uop_reduction: wo.uop_reduction,
                dep_reduction: wo.dep_reduction,
                work_uops: wo.work_uops.saturating_sub(po.work_uops),
                fused: wo.fused.saturating_sub(po.fused),
                simd_lanes: wo.simd_lanes.saturating_sub(po.simd_lanes),
                removed_dead: wo.removed_dead.saturating_sub(po.removed_dead),
                folded: wo.folded.saturating_sub(po.folded),
                validated: wo.validated.saturating_sub(po.validated),
                demoted: wo.demoted.saturating_sub(po.demoted),
                inconclusive_lint: wo.inconclusive_lint.saturating_sub(po.inconclusive_lint),
                inconclusive_equiv: wo.inconclusive_equiv.saturating_sub(po.inconclusive_equiv),
            }
        }),
    }
}

/// Field-wise `window − prefix`: the measured contribution of the
/// representative interval with its warmup removed. Both reports are
/// snapshots of the same run ([`Machine::run_segment`]), so cumulative
/// counters subtract exactly (saturating as a guard — the earlier
/// snapshot is never ahead of the later one); rate fields keep the
/// window's value.
fn delta_report(window: &SimReport, prefix: &SimReport) -> SimReport {
    SimReport {
        model: window.model.clone(),
        app: window.app.clone(),
        suite: window.suite.clone(),
        insts: window.insts.saturating_sub(prefix.insts),
        uops: window.uops.saturating_sub(prefix.uops),
        cycles: window.cycles.saturating_sub(prefix.cycles),
        energy: (window.energy - prefix.energy).max(0.0),
        energy_by_unit: window
            .energy_by_unit
            .iter()
            .zip(&prefix.energy_by_unit)
            .map(|((l, we), (pl, pe))| {
                debug_assert_eq!(l, pl, "unit order is fixed by Unit::ALL");
                (l.clone(), (we - pe).max(0.0))
            })
            .collect(),
        cond_branches: window.cond_branches.saturating_sub(prefix.cond_branches),
        cond_mispredicts: window
            .cond_mispredicts
            .saturating_sub(prefix.cond_mispredicts),
        iq_empty_cycles: window
            .iq_empty_cycles
            .saturating_sub(prefix.iq_empty_cycles),
        issue_blocked_cycles: window
            .issue_blocked_cycles
            .saturating_sub(prefix.issue_blocked_cycles),
        state_switches: window.state_switches.saturating_sub(prefix.state_switches),
        // Order-sensitive digest over the full stream; windows cannot
        // compose it. 0 marks "not computed" (a real hash is never 0's
        // astronomically-unlikely FNV fixed point in practice).
        store_log_hash: 0,
        committed_stores: window
            .committed_stores
            .saturating_sub(prefix.committed_stores),
        faults: None,
        trace: match (&window.trace, &prefix.trace) {
            (Some(w), Some(p)) => Some(sub_trace(w, p)),
            (Some(w), None) => Some(w.clone()),
            _ => None,
        },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Weighted sum of the cluster deltas: counter fields scale by
/// `weight_insts / measured insts` and round once at the end; `insts` is
/// the budget exactly; rates are weight-fraction means.
fn reconstruct(plan: &SamplePlan, deltas: &[SimReport]) -> SimReport {
    // Per-cluster counter scale (exact-count basis) and rate weight
    // (fraction-of-budget basis, summing to exactly 1.0).
    let scales: Vec<f64> = plan
        .clusters
        .iter()
        .zip(deltas)
        .map(|(c, d)| c.weight_insts as f64 / d.insts.max(1) as f64)
        .collect();
    let fracs = plan.weights();
    let wsum_u64 = |f: &dyn Fn(&SimReport) -> u64| -> u64 {
        deltas
            .iter()
            .zip(&scales)
            .map(|(d, s)| f(d) as f64 * s)
            .sum::<f64>()
            .round() as u64
    };
    let wsum_f64 = |f: &dyn Fn(&SimReport) -> f64| -> f64 {
        deltas.iter().zip(&scales).map(|(d, s)| f(d) * s).sum()
    };
    let units: Vec<(String, f64)> = deltas[0]
        .energy_by_unit
        .iter()
        .enumerate()
        .map(|(u, (label, _))| {
            (
                label.clone(),
                wsum_f64(&|d: &SimReport| d.energy_by_unit[u].1),
            )
        })
        .collect();
    let trace = deltas[0].trace.as_ref().map(|_| {
        let tsum_u64 = |f: &dyn Fn(&TraceReport) -> u64| -> u64 {
            deltas
                .iter()
                .zip(&scales)
                .map(|(d, s)| f(d.trace.as_ref().expect("all or none")) as f64 * s)
                .sum::<f64>()
                .round() as u64
        };
        let tmean = |f: &dyn Fn(&TraceReport) -> f64| -> f64 {
            deltas
                .iter()
                .zip(&fracs)
                .map(|(d, w)| f(d.trace.as_ref().expect("all or none")) * w)
                .sum()
        };
        let hot = tsum_u64(&|t| t.hot_insts);
        let cold = tsum_u64(&|t| t.cold_insts);
        let opt = deltas[0]
            .trace
            .as_ref()
            .and_then(|t| t.opt.as_ref())
            .map(|_| {
                let osum = |f: &dyn Fn(&OptReport) -> u64| -> u64 {
                    deltas
                        .iter()
                        .zip(&scales)
                        .map(|(d, s)| {
                            f(d.trace
                                .as_ref()
                                .and_then(|t| t.opt.as_ref())
                                .expect("all or none")) as f64
                                * s
                        })
                        .sum::<f64>()
                        .round() as u64
                };
                let omean = |f: &dyn Fn(&OptReport) -> f64| -> f64 {
                    deltas
                        .iter()
                        .zip(&fracs)
                        .map(|(d, w)| {
                            f(d.trace
                                .as_ref()
                                .and_then(|t| t.opt.as_ref())
                                .expect("all or none"))
                                * w
                        })
                        .sum()
                };
                OptReport {
                    traces: osum(&|o| o.traces),
                    uop_reduction: omean(&|o| o.uop_reduction),
                    dep_reduction: omean(&|o| o.dep_reduction),
                    work_uops: osum(&|o| o.work_uops),
                    fused: osum(&|o| o.fused),
                    simd_lanes: osum(&|o| o.simd_lanes),
                    removed_dead: osum(&|o| o.removed_dead),
                    folded: osum(&|o| o.folded),
                    validated: osum(&|o| o.validated),
                    demoted: osum(&|o| o.demoted),
                    inconclusive_lint: osum(&|o| o.inconclusive_lint),
                    inconclusive_equiv: osum(&|o| o.inconclusive_equiv),
                }
            });
        TraceReport {
            coverage: ratio(hot as f64, (hot + cold) as f64),
            hot_insts: hot,
            cold_insts: cold,
            tpred_predictions: tsum_u64(&|t| t.tpred_predictions),
            tpred_correct: tsum_u64(&|t| t.tpred_correct),
            pred_aborts: tsum_u64(&|t| t.pred_aborts),
            aborts: tsum_u64(&|t| t.aborts),
            entries: tsum_u64(&|t| t.entries),
            hot_attempts: tsum_u64(&|t| t.hot_attempts),
            no_variant: tsum_u64(&|t| t.no_variant),
            constructed: tsum_u64(&|t| t.constructed),
            tc_lookups: tsum_u64(&|t| t.tc_lookups),
            tc_hits: tsum_u64(&|t| t.tc_hits),
            tc_evictions: tsum_u64(&|t| t.tc_evictions),
            mean_opt_reuse: tmean(&|t| t.mean_opt_reuse),
            opt,
        }
    });
    SimReport {
        model: deltas[0].model.clone(),
        app: deltas[0].app.clone(),
        suite: deltas[0].suite.clone(),
        insts: plan.budget,
        uops: wsum_u64(&|d| d.uops),
        cycles: wsum_u64(&|d| d.cycles),
        energy: wsum_f64(&|d| d.energy),
        energy_by_unit: units,
        cond_branches: wsum_u64(&|d| d.cond_branches),
        cond_mispredicts: wsum_u64(&|d| d.cond_mispredicts),
        iq_empty_cycles: wsum_u64(&|d| d.iq_empty_cycles),
        issue_blocked_cycles: wsum_u64(&|d| d.issue_blocked_cycles),
        state_switches: wsum_u64(&|d| d.state_switches),
        store_log_hash: 0,
        committed_stores: wsum_u64(&|d| d.committed_stores),
        faults: None,
        trace,
    }
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
        let wl = workload("vpr");
        let budget = 20_000;
        let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).expect("encodable"));
        let plan = Arc::new(build_plan(&trace, &wl, budget, &spec()).expect("plan builds"));
        let via_spec = SimRequest::model(Model::TOW)
            .insts(budget)
            .replay(Arc::clone(&trace))
            .sampled(spec())
            .run(&wl);
        let via_plan = SimRequest::model(Model::TOW)
            .insts(budget)
            .replay(trace)
            .sampled_plan(Arc::clone(&plan))
            .run(&wl);
        assert_eq!(via_spec.to_json().to_json(), via_plan.to_json().to_json());
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

/// Ignored tuning harness: prints sampled-vs-full error for a grid of
/// sampling specs. Run with
/// `cargo test -p parrot-core probe_error_vs_warmup -- --ignored --nocapture`
/// when retuning the fidelity-test or CI sampling constants.
#[cfg(test)]
mod probe {
    use super::*;
    use crate::models::Model;
    use parrot_workloads::app_by_name;

    #[test]
    #[ignore]
    fn probe_error_vs_warmup() {
        for app in ["gcc", "swim", "crafty"] {
            let wl = Workload::build(&app_by_name(app).expect("registered"));
            let budget = 200_000;
            for model in [Model::TOW, Model::N] {
                let full = SimRequest::model(model).insts(budget).run(&wl);
                for (interval, warmup, max_k) in [
                    (10_000u64, 20_000u64, 4usize),
                    (20_000, 40_000, 4),
                    (20_000, 60_000, 8),
                    (20_000, budget, 64),
                ] {
                    let spec = SamplingSpec {
                        interval,
                        warmup,
                        max_k,
                        ..SamplingSpec::default()
                    };
                    let s = SimRequest::model(model)
                        .insts(budget)
                        .sampled(spec)
                        .run(&wl);
                    let ipc_err = (s.ipc() - full.ipc()).abs() / full.ipc();
                    let e_err = (s.energy - full.energy).abs() / full.energy;
                    println!(
                        "{app:8} {:4} iv={interval:6} warm={warmup:6} k<= {max_k} -> ipc_err {ipc_err:.4} energy_err {e_err:.4}",
                        format!("{model:?}")
                    );
                }
            }
        }
    }
}
