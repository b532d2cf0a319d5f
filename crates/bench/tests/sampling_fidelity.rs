//! Sampled-vs-full fidelity harness (DESIGN.md §18).
//!
//! Pins the SimPoint-style sampling pipeline end to end: every registered
//! application's sampled reconstruction must track the full simulation
//! within a per-suite tolerance, the sampled sweep must be bit-stable
//! across worker counts and invocations, the new `sample:*` telemetry
//! counters must reconcile with the plan, and sampled sweeps must never
//! share cache files with full sweeps.
//!
//! Tier-1 budgets sit deep inside the engine's microarchitectural warmup
//! transient (the trace cache and optimizer take ~1–2M instructions to
//! reach steady state), where an interval's position matters more than
//! its code signature — no BBV clustering can hit a few-percent error
//! there, at any k. The all-app gate therefore runs with warmup = budget
//! and k = interval count, where the reconstruction must *telescope*
//! back to the full run: every segment boundary snapshot cancels, so any
//! systematic error pins a bug in the window/segment/delta/reconstruct
//! machinery rather than a sampling approximation. Clustering-compression
//! fidelity at paper-scale budgets is gated by
//! `clustered_sampling_meets_tolerance_at_scale` (ignored; the CI
//! sampling job and the EXPERIMENTS `parrot sample --tol` gate run it in
//! release).

use parrot_bench::{ResultSet, SweepConfig};
use parrot_core::{build_plan, detailed_insts, Model, SamplingSpec, SimRequest};
use parrot_energy::metrics::geo_mean;
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{all_apps, Suite, Workload};
use std::sync::Arc;

/// Pinned committed-instruction budget of the all-app fidelity gate.
const BUDGET: u64 = 40_000;

/// Per-suite geomean tolerance for IPC and energy reconstruction error.
const SUITE_TOL: f64 = 0.03;

/// No single application may be worse than this: in telescoping mode the
/// only residual is floating-point rounding plus the final window's
/// fetch-exhaustion boundary, both well under a percent.
const APP_TOL: f64 = 0.01;

/// Errors are floored here before geomeans (exact reconstructions are
/// common and ln(0) would collapse the aggregate).
const ERR_FLOOR: f64 = 1e-6;

fn fidelity_spec() -> SamplingSpec {
    SamplingSpec {
        interval: 10_000,
        warmup: BUDGET, // full history: zero warmth deficit
        max_k: 64,      // ≥ interval count: zero clustering error
        ..SamplingSpec::default()
    }
}

/// A cheap spec for the determinism/cache tests: small windows, partial
/// warmup, so the whole 44-app sweep stays test-suite friendly.
fn small_spec() -> SamplingSpec {
    SamplingSpec {
        interval: 2_000,
        warmup: 4_000,
        max_k: 2,
        ..SamplingSpec::default()
    }
}

#[test]
fn sampled_runs_track_full_runs_across_every_app() {
    let mut by_suite: std::collections::BTreeMap<Suite, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    let spec = fidelity_spec();
    for p in all_apps() {
        let wl = Workload::build(&p);
        let full = SimRequest::model(Model::TOW).insts(BUDGET).run(&wl);
        let trace = Arc::new(capture(&wl, BUDGET, DEFAULT_SLICE_INSTS).expect("capturable"));
        let plan = Arc::new(build_plan(&trace, &wl, BUDGET, &spec).expect("plannable"));
        let sampled = SimRequest::model(Model::TOW)
            .insts(BUDGET)
            .replay(trace)
            .sampled_plan(plan)
            .run(&wl);
        let rel = |s: f64, f: f64| if f != 0.0 { (s / f - 1.0).abs() } else { 0.0 };
        let ipc_err = rel(sampled.ipc(), full.ipc());
        let energy_err = rel(sampled.energy, full.energy);
        assert!(
            ipc_err < APP_TOL && energy_err < APP_TOL,
            "{}: sampled TOW diverges from full (IPC err {:.3}, energy err {:.3})",
            p.name,
            ipc_err,
            energy_err
        );
        assert_eq!(
            sampled.insts, BUDGET,
            "{}: reconstruction covers budget",
            p.name
        );
        let (ipc, energy) = by_suite.entry(p.suite).or_default();
        ipc.push(ipc_err.max(ERR_FLOOR));
        energy.push(energy_err.max(ERR_FLOOR));
    }
    let mut all_ipc = Vec::new();
    let mut all_energy = Vec::new();
    for (suite, (ipc, energy)) in &by_suite {
        let (gi, ge) = (geo_mean(ipc), geo_mean(energy));
        assert!(
            gi <= SUITE_TOL,
            "{suite}: IPC geomean error {:.4} exceeds {SUITE_TOL}",
            gi
        );
        assert!(
            ge <= SUITE_TOL,
            "{suite}: energy geomean error {:.4} exceeds {SUITE_TOL}",
            ge
        );
        all_ipc.extend_from_slice(ipc);
        all_energy.extend_from_slice(energy);
    }
    assert_eq!(all_ipc.len(), all_apps().len(), "every app measured");
    assert!(geo_mean(&all_ipc) <= SUITE_TOL, "overall IPC geomean");
    assert!(geo_mean(&all_energy) <= SUITE_TOL, "overall energy geomean");
}

/// Paper-scale clustering gate: real compression (default spec: 100k
/// intervals, 200k warmup, k ≤ 10) at a past-transient budget must keep
/// per-suite geomean IPC/energy error within [`SUITE_TOL`]. Ignored in
/// tier-1 — at ~14M simulated instructions per app this is a
/// release-build job (`cargo test --release -p parrot-bench --test
/// sampling_fidelity -- --ignored`), run by the CI sampling job; the
/// EXPERIMENTS table applies the same gate at 30M via
/// `parrot sample --all --tol 0.03`.
#[test]
#[ignore]
fn clustered_sampling_meets_tolerance_at_scale() {
    const SCALE_BUDGET: u64 = 10_000_000;
    const SCALE_APP_TOL: f64 = 0.15;
    let spec = SamplingSpec::default();
    let mut by_suite: std::collections::BTreeMap<Suite, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for p in all_apps() {
        let wl = Workload::build(&p);
        let full = SimRequest::model(Model::TOW).insts(SCALE_BUDGET).run(&wl);
        let sampled = SimRequest::model(Model::TOW)
            .insts(SCALE_BUDGET)
            .sampled(spec.clone())
            .run(&wl);
        let rel = |s: f64, f: f64| if f != 0.0 { (s / f - 1.0).abs() } else { 0.0 };
        let ipc_err = rel(sampled.ipc(), full.ipc());
        let energy_err = rel(sampled.energy, full.energy);
        assert!(
            ipc_err < SCALE_APP_TOL && energy_err < SCALE_APP_TOL,
            "{}: sampled TOW diverges at scale (IPC err {:.3}, energy err {:.3})",
            p.name,
            ipc_err,
            energy_err
        );
        let (ipc, energy) = by_suite.entry(p.suite).or_default();
        ipc.push(ipc_err.max(ERR_FLOOR));
        energy.push(energy_err.max(ERR_FLOOR));
    }
    for (suite, (ipc, energy)) in &by_suite {
        let (gi, ge) = (geo_mean(ipc), geo_mean(energy));
        assert!(gi <= SUITE_TOL, "{suite}: IPC geomean {gi:.4} at scale");
        assert!(ge <= SUITE_TOL, "{suite}: energy geomean {ge:.4} at scale");
    }
}

#[test]
fn sampled_sweep_is_deterministic_across_jobs_and_invocations() {
    let cfg = |jobs: usize| {
        SweepConfig::new()
            .insts(8_000)
            .jobs(jobs)
            .sampled(small_spec())
    };
    let serial = ResultSet::run_sweep_with(&cfg(1));
    let parallel = ResultSet::run_sweep_with(&cfg(8));
    let repeat = ResultSet::run_sweep_with(&cfg(8));
    for a in serial.apps() {
        for m in Model::ALL {
            let s = serial.get(m, a.name).to_json().to_json();
            assert_eq!(
                s,
                parallel.get(m, a.name).to_json().to_json(),
                "{m}/{}: sampled report must not depend on the worker count",
                a.name
            );
            assert_eq!(
                s,
                repeat.get(m, a.name).to_json().to_json(),
                "{m}/{}: sampled report must be stable across invocations",
                a.name
            );
        }
    }
}

#[test]
fn the_per_app_runner_matches_each_model_sampled_alone() {
    // The runner captures, plans and warms once per app for all models;
    // every report must equal that model's sampled run prepared alone.
    let spec = small_spec();
    let cfg = SweepConfig::new().insts(8_000).sampled(spec.clone());
    for app in ["gcc", "swim"] {
        let wl = Workload::build(&parrot_workloads::app_by_name(app).expect("registered"));
        let (reports, plan) = cfg.run_app(&wl);
        assert_eq!(plan.expect("sampling is armed").spec, spec);
        assert_eq!(reports.len(), Model::ALL.len());
        for (m, shared) in Model::ALL.iter().zip(&reports) {
            let alone = SimRequest::model(*m)
                .insts(8_000)
                .sampled(spec.clone())
                .run(&wl);
            assert_eq!(
                shared.to_json().to_json(),
                alone.to_json().to_json(),
                "{m}/{app}"
            );
        }
    }
}

#[test]
fn sampling_counters_reconcile_with_the_plan() {
    use parrot_telemetry::metrics;

    let p = parrot_workloads::app_by_name("swim").expect("registered");
    let wl = Workload::build(&p);
    let spec = small_spec();
    let budget = 12_000;
    let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).expect("capturable"));
    let plan = Arc::new(build_plan(&trace, &wl, budget, &spec).expect("plannable"));
    // Expected simulated instructions: per representative, one
    // checkpointed run of warmup prefix + measured window.
    let expected_simulated = detailed_insts(&plan, &Model::TON.config());
    metrics::install(metrics::MetricsHub::new(1_000));
    let report = SimRequest::model(Model::TON)
        .insts(budget)
        .replay(trace)
        .sampled_plan(Arc::clone(&plan))
        .run(&wl);
    let hub = metrics::take().expect("hub still installed");
    assert_eq!(
        hub.counter("sample:weighted_insts"),
        budget,
        "integer cluster weights must partition the budget exactly"
    );
    assert_eq!(report.insts, budget);
    assert_eq!(hub.counter("sample:intervals"), plan.num_intervals() as u64);
    assert_eq!(hub.counter("sample:simulated"), expected_simulated);
    let weights = plan.weights();
    assert_eq!(
        weights.iter().sum::<f64>(),
        1.0,
        "weights sum to 1.0 exactly"
    );
}

#[test]
fn sampled_sweeps_never_share_cache_files_with_full_sweeps() {
    let dir = std::env::temp_dir().join(format!("parrot_samplecache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let full_cfg = SweepConfig::new().insts(3_000).jobs(4).cache_dir(&dir);
    let sampled_cfg = SweepConfig::new()
        .insts(3_000)
        .jobs(4)
        .cache_dir(&dir)
        .sampled(small_spec());
    assert_ne!(
        full_cfg.fingerprint(),
        sampled_cfg.fingerprint(),
        "sampled sweeps must land in their own cache files"
    );
    let full = ResultSet::load_or_run_with(&full_cfg);
    let sampled = ResultSet::load_or_run_with(&sampled_cfg);
    assert!(full_cfg.cache_file().is_file());
    assert!(sampled_cfg.cache_file().is_file());
    assert_ne!(full_cfg.cache_file(), sampled_cfg.cache_file());
    // Reloading the sampled config must reproduce the sampled results
    // byte-for-byte (cache round-trip), not the full-simulation results.
    let reloaded = ResultSet::load_or_run_with(&sampled_cfg);
    let mut differs = false;
    for a in sampled.apps() {
        for m in Model::ALL {
            assert_eq!(
                sampled.get(m, a.name).to_json().to_json(),
                reloaded.get(m, a.name).to_json().to_json(),
                "{m}/{}: sampled cache round-trip",
                a.name
            );
            differs |= sampled.get(m, a.name).to_json().to_json()
                != full.get(m, a.name).to_json().to_json();
        }
    }
    assert!(differs, "sampled and full sweeps produce distinct results");
    let _ = std::fs::remove_dir_all(&dir);
}
