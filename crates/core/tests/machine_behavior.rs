//! Machine-level behavioural tests: the integration contracts of the
//! PARROT machine (promotion pipeline, atomic aborts, split switching,
//! custom configurations, fault injection and graceful degradation) on
//! small budgets.

use parrot_core::{FaultKind, FaultPlan, Model, SimRequest};
use parrot_workloads::{app_by_name, Workload};

fn wl(app: &str) -> Workload {
    Workload::build(&app_by_name(app).expect("registered app"))
}

fn run(model: Model, app: &str, insts: u64) -> parrot_core::SimReport {
    SimRequest::model(model).insts(insts).run(&wl(app))
}

#[test]
fn promotion_pipeline_reaches_every_stage() {
    let r = run(Model::TON, "swim", 80_000);
    let t = r.trace.expect("trace report");
    assert!(t.constructed > 10, "hot filter must construct traces");
    assert!(t.entries > 100, "traces must be streamed");
    let o = t.opt.expect("optimizer report");
    assert!(
        o.traces > 0,
        "blazing filter must promote traces to the optimizer"
    );
    assert!(o.work_uops > 0);
}

#[test]
fn irregular_code_aborts_but_completes() {
    let r = run(Model::TON, "gcc", 80_000);
    let t = r.trace.as_ref().expect("trace report");
    assert!(
        t.aborts > 0,
        "irregular SpecInt code must produce some trace aborts"
    );
    assert_eq!(
        r.insts, 80_000,
        "aborts roll back and re-execute cold: no lost instructions"
    );
    // Aborts are bounded: the confidence mechanism keeps them a small
    // fraction of entries.
    assert!(
        (t.aborts as f64) < 0.35 * (t.entries + t.aborts) as f64,
        "aborts {} vs entries {}",
        t.aborts,
        t.entries
    );
}

#[test]
fn split_machine_switches_sides() {
    let r = run(Model::TOS, "swim", 60_000);
    assert!(
        r.state_switches > 10,
        "TOS must alternate between its cores"
    );
    assert_eq!(r.insts, 60_000);
    let unified = run(Model::TON, "swim", 60_000);
    assert_eq!(
        unified.state_switches, 0,
        "unified machines never state-switch"
    );
}

#[test]
fn trace_models_commit_fewer_uops_with_optimizer() {
    let a = run(Model::TN, "wupwise", 60_000);
    let b = run(Model::TON, "wupwise", 60_000);
    assert!(
        b.uops < a.uops,
        "optimization must eliminate committed uops"
    );
}

#[test]
fn custom_config_round_trips_name() {
    let mut cfg = Model::TON.config();
    cfg.name = "my-custom-machine".to_string();
    cfg.trace.as_mut().expect("trace").hot_filter.threshold = 4;
    let r = SimRequest::config(cfg).insts(20_000).run(&wl("gzip"));
    assert_eq!(r.model, "my-custom-machine");
    assert_eq!(r.insts, 20_000);
}

#[test]
fn lower_hot_threshold_raises_coverage() {
    let mut eager = Model::TON.config();
    eager.trace.as_mut().expect("trace").hot_filter.threshold = 2;
    let mut picky = Model::TON.config();
    picky.trace.as_mut().expect("trace").hot_filter.threshold = 64;
    let e = SimRequest::config(eager).insts(60_000).run(&wl("word"));
    let p = SimRequest::config(picky).insts(60_000).run(&wl("word"));
    let cov = |r: &parrot_core::SimReport| r.trace.as_ref().expect("trace").coverage;
    assert!(
        cov(&e) > cov(&p),
        "eager construction must cover more: {:.2} vs {:.2}",
        cov(&e),
        cov(&p)
    );
}

#[test]
fn disabling_the_optimizer_matches_tn_shape() {
    let mut cfg = Model::TON.config();
    cfg.trace.as_mut().expect("trace").optimizer = None;
    let r = SimRequest::config(cfg).insts(40_000).run(&wl("flash"));
    assert!(
        r.trace.as_ref().expect("trace").opt.is_none(),
        "no optimizer => no opt report"
    );
}

#[test]
fn budget_zero_is_a_clean_noop() {
    let r = run(Model::TON, "gzip", 0);
    assert_eq!(r.insts, 0);
    assert_eq!(r.uops, 0);
}

// ---------------------------------------------------------------------------
// Canonical form: the serialized request is deterministic, versioned, and
// distinguishes every knob that changes simulation output — it is the wire
// schema's `config fingerprint` input, so two requests with equal canonical
// bytes must produce byte-identical reports.
// ---------------------------------------------------------------------------

#[test]
fn canonical_form_is_deterministic_and_distinguishes_knobs() {
    let base = SimRequest::model(Model::TOW).insts(30_000);
    let a = base.clone().canonical().to_json();
    let b = base.clone().canonical().to_json();
    assert_eq!(a, b, "canonicalization is a pure function of the request");

    let budget = base.clone().insts(40_000).canonical().to_json();
    assert_ne!(a, budget, "budget must be visible in the canonical form");

    let faulted = base
        .clone()
        .faults(FaultPlan::new(9).rate(0.01))
        .canonical()
        .to_json();
    assert_ne!(
        a, faulted,
        "fault plan must be visible in the canonical form"
    );

    let mut cfg = Model::TOW.config();
    cfg.name = "ablation".to_string();
    let renamed = SimRequest::config(cfg).insts(30_000).canonical().to_json();
    assert_ne!(
        a, renamed,
        "config name must be visible in the canonical form"
    );
}

// ---------------------------------------------------------------------------
// Fault injection & graceful degradation: the machine must degrade, never
// die. Every injection is caught or provably benign, and the committed
// store log must match the fault-free baseline exactly.
// ---------------------------------------------------------------------------

fn assert_degrades_gracefully(model: Model, app: &str, insts: u64, plan: FaultPlan) -> u64 {
    let w = wl(app);
    let clean = SimRequest::model(model).insts(insts).run(&w);
    let faulted = SimRequest::model(model).insts(insts).faults(plan).run(&w);
    assert_eq!(faulted.insts, insts, "no lost instructions under faults");
    assert_eq!(
        faulted.store_log_hash, clean.store_log_hash,
        "{model:?}/{app}: committed store log must match the fault-free run"
    );
    assert_eq!(
        faulted.committed_stores, clean.committed_stores,
        "{model:?}/{app}: committed store count must match"
    );
    let fr = faulted.faults.expect("fault report present");
    assert!(
        fr.reconciles(),
        "{model:?}/{app}: injected == caught + benign must reconcile: {:?}",
        fr.counters
    );
    assert!(
        clean.faults.is_none(),
        "fault-free runs carry no fault report"
    );
    fr.counters.total_injected()
}

#[test]
fn bitflips_are_caught_by_the_integrity_gate() {
    let plan = FaultPlan::new(0xB17).rate(0.5).only(&[FaultKind::BitFlip]);
    let w = wl("swim");
    let r = SimRequest::model(Model::TOW)
        .insts(60_000)
        .faults(plan.clone())
        .run(&w);
    let fr = r.faults.expect("fault report");
    let idx = FaultKind::BitFlip as usize;
    assert!(fr.counters.injected[idx] > 0, "bit-flips must land");
    assert_eq!(
        fr.counters.injected[idx], fr.counters.caught[idx],
        "every landed bit-flip is caught before streaming"
    );
    assert!(fr.counters.fellback > 0, "caught flips fall back cold");
    assert_degrades_gracefully(Model::TOW, "swim", 60_000, plan);
}

#[test]
fn stale_traces_abort_and_roll_back() {
    let plan = FaultPlan::new(0x57A1E)
        .rate(0.5)
        .only(&[FaultKind::StaleTrace]);
    let w = wl("swim");
    let r = SimRequest::model(Model::TOW)
        .insts(60_000)
        .faults(plan.clone())
        .run(&w);
    let fr = r.faults.expect("fault report");
    let idx = FaultKind::StaleTrace as usize;
    assert!(fr.counters.injected[idx] > 0, "stale deliveries must land");
    assert_eq!(
        fr.counters.injected[idx], fr.counters.caught[idx],
        "a stale delivery always trips the trace's asserts"
    );
    let aborts = r.trace.expect("trace").aborts;
    assert!(
        aborts >= fr.counters.caught[idx],
        "each caught stale trace is an abort"
    );
    assert_degrades_gracefully(Model::TOW, "swim", 60_000, plan);
}

#[test]
fn cache_structure_faults_are_benign() {
    let plan = FaultPlan::new(0xCAFE).rate(0.3).only(&[
        FaultKind::SpuriousInval,
        FaultKind::EvictionStorm,
        FaultKind::TidAlias,
    ]);
    let injected = assert_degrades_gracefully(Model::TOW, "gcc", 60_000, plan.clone());
    assert!(injected > 0, "structure faults must land");
    let r = SimRequest::model(Model::TOW)
        .insts(60_000)
        .faults(plan)
        .run(&wl("gcc"));
    let fr = r.faults.expect("fault report");
    assert_eq!(fr.counters.total_caught(), 0, "all benign by construction");
    assert_eq!(fr.counters.total_benign(), fr.counters.total_injected());
    assert!(fr.counters.evicted_frames > 0);
}

#[test]
fn corrupted_rewrites_are_demoted_by_the_gate() {
    let plan = FaultPlan::new(0xDE0)
        .rate(1.0)
        .only(&[FaultKind::CorruptRewrite]);
    let w = wl("swim");
    let r = SimRequest::model(Model::TOW)
        .insts(80_000)
        .faults(plan.clone())
        .run(&w);
    let fr = r.faults.expect("fault report");
    let idx = FaultKind::CorruptRewrite as usize;
    assert!(fr.counters.injected[idx] > 0, "sabotage must land");
    assert_eq!(
        fr.counters.caught[idx], fr.counters.demoted,
        "every caught rewrite corruption is a demotion"
    );
    let demoted = r.trace.expect("trace").opt.expect("optimizer").demoted;
    assert!(
        demoted >= fr.counters.demoted,
        "gate demotions include the injected ones"
    );
    assert_degrades_gracefully(Model::TOW, "swim", 80_000, plan);
}

#[test]
fn full_campaign_degrades_but_stays_correct() {
    for model in [Model::TOW, Model::TOS] {
        let injected =
            assert_degrades_gracefully(model, "gcc", 60_000, FaultPlan::new(0xF1EE7).rate(0.1));
        assert!(injected > 0, "{model:?}: a full campaign must inject");
    }
}

#[test]
fn fault_campaigns_are_deterministic() {
    let req = || {
        SimRequest::model(Model::TOW)
            .insts(40_000)
            .faults(FaultPlan::new(99).rate(0.2))
            .run(&wl("gcc"))
    };
    let a = req();
    let b = req();
    assert_eq!(
        a.to_json().to_json(),
        b.to_json().to_json(),
        "same plan, same run: byte-identical reports"
    );
    assert!(a.faults.expect("report").counters.total_injected() > 0);
}

#[test]
fn models_without_trace_cache_ignore_trace_faults() {
    // N has no trace machinery: a fault plan arms, draws nothing, and the
    // run completes with an all-zero (still reconciling) report.
    let r = SimRequest::model(Model::N)
        .insts(20_000)
        .faults(FaultPlan::new(1).rate(1.0))
        .run(&wl("gzip"));
    let fr = r.faults.expect("fault report");
    assert_eq!(fr.counters.total_injected(), 0);
    assert!(fr.reconciles());
    assert_eq!(r.insts, 20_000);
}

#[test]
fn profiled_runs_time_every_stage_they_run() {
    use parrot_telemetry::profile::{self, Profiler, Stage};
    let timed = |req: SimRequest, app: &str| {
        profile::install(Profiler::new());
        req.run(&wl(app));
        let p = profile::take().expect("profiler installed");
        Stage::ALL.map(|s| p.stage_stats(s).is_some_and(|(n, _, _)| n > 0))
    };
    // The clock times the optimizer on 1 tick in 64. Eager filters make it
    // run about 460 times here, so some call lands on a timed tick.
    let mut eager = Model::TOW.config();
    let t = eager.trace.as_mut().expect("trace");
    t.hot_filter.threshold = 2;
    t.blazing_filter.threshold = 2;
    let [frontend, trace_cache, optimizer, exec, dispatch, _] =
        timed(SimRequest::config(eager).insts(400_000), "gcc");
    assert!(exec && dispatch && trace_cache && optimizer && frontend);
    let [frontend, trace_cache, optimizer, exec, dispatch, _] =
        timed(SimRequest::model(Model::N).insts(20_000), "swim");
    assert!(frontend && exec && dispatch);
    assert!(!trace_cache && !optimizer, "N has no trace cache");
}
