//! Tests of the benchmark's own machinery: order statistics, seed
//! derivation, span self time, the metric registry read from
//! `BENCHMARK.json`, and a tiny run of every workload.

use parrot_benchmark::metrics::{registry, Metrics};
use parrot_benchmark::serve::{run_serve, ServeSpec};
use parrot_benchmark::sims::{run_sampled, run_sims, run_sweep, SampledSpec, SimSpec, SweepSpec};
use parrot_benchmark::spans::{by_name, layer_self_ns, self_times, Span};
use parrot_benchmark::{end_to_end, per_layer, seeded, stats, Ctx, Outcome};
use parrot_core::{Model, SamplingSpec};
use parrot_workloads::all_apps;

#[test]
fn nearest_rank_percentiles_rest_on_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(stats::percentile(&samples, 50.0), 500.0);
    assert_eq!(stats::percentile(&samples, 99.0), 990.0);
    assert_eq!(stats::percentile(&samples, 100.0), 1000.0);
    assert_eq!(stats::percentile(&samples, 0.01), 1.0);
    // The tail percentiles the benchmark reports need at least ten
    // samples beyond them at the sample counts a run collects.
    let beyond = |n: usize, p: f64| n - stats::rank(n, p);
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(beyond(1400, 99.0) >= 10, "serve hits at p99");
    assert!(beyond(900, 95.0) >= 10, "serve misses at p95");
    let p99 = stats::percentile(&samples, 99.0);
    assert_eq!(samples.iter().filter(|&&s| s > p99).count(), 10);
    assert_eq!(stats::percentile(&[], 50.0), 0.0);
}

#[test]
fn median_over_passes() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(stats::median(&[7.0]), 7.0);
    assert_eq!(stats::median(&[]), 0.0);
    assert!((stats::spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    assert_eq!(stats::spread(&[5.0]), 0.0);
}

#[test]
fn seed_zero_is_the_registry_and_other_seeds_change_every_app() {
    let apps = all_apps();
    for a in &apps {
        assert_eq!(&seeded(a, 0), a, "seed 0 must be the registry profile");
        let s7 = seeded(a, 7);
        assert_eq!(s7, seeded(a, 7), "derivation is deterministic");
        assert_ne!(s7.seed, a.seed, "seed 7 changes {}", a.name);
        assert_ne!(s7.seed, seeded(a, 8).seed, "seeds differ from each other");
        // Only the program instance changes, never the statistical profile.
        assert_eq!(parrot_workloads::AppProfile { seed: a.seed, ..s7 }, *a);
    }
    let distinct: std::collections::BTreeSet<u64> =
        apps.iter().map(|a| seeded(a, 7).seed).collect();
    assert_eq!(
        distinct.len(),
        apps.len(),
        "no two apps collapse onto one seed"
    );
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        id: 0,
        thread: 0,
    }
}

#[test]
fn self_time_subtracts_the_children() {
    let spans = vec![
        span("bench.pass", 0, 100, None),
        span("core.run", 10, 30, Some(0)),
        span("core.run", 40, 70, Some(0)),
        span("opt.optimize", 45, 50, Some(2)),
        span("bench.pass", 200, 210, None),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 25, 5, 10]);
    let names = by_name(&spans);
    assert_eq!(names["core.run"], (2, 50, 45));
    assert_eq!(names["bench.pass"], (2, 110, 60));
    let layers = layer_self_ns(&spans);
    assert_eq!(layers["core"], 45);
    assert_eq!(layers["opt"], 5);
    assert_eq!(layers["bench"], 60);
    let total: u64 = layers.values().sum();
    assert_eq!(total, 110, "self times partition the top-level spans");
}

#[test]
fn the_registry_is_benchmark_json() {
    let r = registry();
    assert_eq!(r.workloads.len(), 5);
    assert!(r.end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut names: Vec<&str> = r
        .end_to_end
        .iter()
        .chain(&r.per_layer)
        .map(|(n, _)| n.as_str())
        .collect();
    let listed = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), listed, "every metric name is listed once");
}

/// A traced context that makes one untraced and one traced pass and
/// probes only a few thousand instructions.
fn tiny_ctx(seed: u64) -> Ctx {
    let mut ctx = Ctx::new(seed, 0.0, true);
    ctx.probe_insts = 4_000;
    ctx
}

/// Check a tiny traced run and return its per-layer metrics.
fn assert_sound(o: &Outcome, ctx: &Ctx) -> Metrics {
    assert!(
        o.correct(),
        "checks {:?}, {} of {} failed",
        o.checks,
        o.failed,
        o.attempted
    );
    let m = per_layer(o, ctx);
    let stages: f64 = [
        "core.frontend_ns_per_inst",
        "core.trace_cache_ns_per_inst",
        "core.optimizer_ns_per_inst",
        "core.exec_ns_per_inst",
        "core.dispatch_ns_per_inst",
        "core.accounting_ns_per_inst",
        "core.unattributed_ns_per_inst",
    ]
    .iter()
    .map(|n| m.get(n).unwrap_or(0.0))
    .sum();
    let run = m
        .get("core.run_ns_per_inst")
        .expect("core attribution recorded");
    assert!(run > 0.0);
    assert!(
        (stages - run).abs() <= 1e-9 * run.abs().max(1.0),
        "stages {stages} vs run {run}"
    );
    let e2e = end_to_end(o);
    for (name, _) in &registry().end_to_end {
        assert!(e2e.get(name).is_some_and(|v| v > 0.0), "{name} reads 0");
    }
    assert!(!ctx.rec.spans().is_empty(), "a traced run records spans");
    m
}

fn tiny_sims() -> Metrics {
    let spec = SimSpec {
        models: vec![Model::N, Model::TOW],
        apps: vec!["gcc", "swim"],
        insts: 3_000,
        sink_probe: true,
    };
    let mut ctx = tiny_ctx(7);
    let o = run_sims(&spec, &mut ctx);
    assert_eq!(o.passes.len(), 2);
    assert_eq!(o.attempted, 8);
    assert!(o.layer.get("telemetry.all_sinks_overhead").is_some());
    assert_sound(&o, &ctx)
}

fn tiny_sampled() -> Metrics {
    let spec = SampledSpec {
        models: vec![Model::N, Model::TOW],
        apps: vec!["eon"],
        budget: 60_000,
        spec: SamplingSpec {
            interval: 10_000,
            warmup: 10_000,
            max_k: 3,
            ..SamplingSpec::default()
        },
    };
    let mut ctx = tiny_ctx(0);
    let o = run_sampled(&spec, &mut ctx);
    assert_eq!(o.attempted, 2, "one operation per application per pass");
    assert!(o.layer.get("sampling.k").is_some_and(|k| k >= 1.0));
    assert_sound(&o, &ctx)
}

fn tiny_sweep() -> Metrics {
    let spec = SweepSpec {
        insts: 500,
        jobs: 2,
        reference: None,
    };
    let mut ctx = tiny_ctx(0);
    let o = run_sweep(&spec, &mut ctx);
    let runs = (all_apps().len() * Model::ALL.len()) as u64;
    assert_eq!(o.attempted, 2 * runs);
    let m = assert_sound(&o, &ctx);
    let busy = m.get("bench.worker_busy_frac").unwrap_or(0.0);
    assert!(busy > 0.0 && busy <= 1.0, "busy fraction {busy}");
    m
}

#[test]
fn a_missing_sweep_cache_fails_every_reference_report_at_seed_zero() {
    let missing = std::env::temp_dir().join("parrot-benchmark-no-such-dir");
    let spec = SweepSpec {
        insts: 300,
        jobs: 2,
        reference: Some((missing, 400)),
    };
    let runs = (all_apps().len() * Model::ALL.len()) as u64;
    let o = run_sweep(&spec, &mut Ctx::new(0, 0.0, false));
    assert_eq!(
        o.attempted,
        2 * runs,
        "one timed sweep plus the reference sweep"
    );
    assert_eq!(o.failed, runs, "every reference report fails");
    assert!(!o.correct());
    // Other seeds do not run the reference check.
    let o = run_sweep(&spec, &mut Ctx::new(5, 0.0, false));
    assert_eq!((o.attempted, o.failed), (runs, 0));
}

fn tiny_serve() -> Metrics {
    let spec = ServeSpec {
        clients: 2,
        workers: 2,
        repeat_p: 0.6,
        recent: 4,
        base_insts: 2_000,
        verify_per_client: 2,
        setup_reps: 2,
    };
    let mut ctx = tiny_ctx(3);
    ctx.budget = std::time::Duration::from_millis(1500);
    let o = run_serve(&spec, &mut ctx);
    assert!(o.attempted > 4);
    assert_eq!(o.reports.len(), 4, "two verified specs per client");
    let m = assert_sound(&o, &ctx);
    assert!(m.get("serve.cache_hit_ratio").is_some_and(|r| r > 0.0));
    assert!(m.get("serve.submit_ms_p50").is_some_and(|v| v > 0.0));
    m
}

/// A tiny run of every workload is correct, and together they measure
/// every per-layer metric `BENCHMARK.json` lists (the code cannot emit an
/// unlisted one: `Metrics::set` rejects it).
#[test]
fn tiny_runs_of_every_workload_check_and_measure_every_metric() {
    let runs = [tiny_sims(), tiny_sampled(), tiny_sweep(), tiny_serve()];
    for (name, _) in &registry().per_layer {
        assert!(
            runs.iter().any(|m| m.get(name).is_some()),
            "no workload measures {name}"
        );
    }
}
