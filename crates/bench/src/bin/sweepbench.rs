//! Measure full-sweep wall clock: serial vs `--jobs N`, with and without
//! telemetry sinks installed. Records the numbers to
//! `results/sweep_timings.json` (embedded into EXPERIMENTS.md by
//! `reproduce`) and prints the same table as markdown.
//!
//! Run with: `cargo run --release -p parrot-bench --bin sweepbench`
//! (set `PARROT_INSTS` to change the per-run instruction budget, `--jobs`
//! to change the parallel worker count). Each configuration runs
//! [`REPS`] times and the best is recorded.

use parrot_bench::cli::{Telemetry, METRICS_INTERVAL, TRACE_CAP};
use parrot_bench::{ResultSet, SweepConfig};
use parrot_telemetry::json::Value;
use parrot_telemetry::{metrics, profile, status, trace};

/// Best-of repetitions per configuration.
const REPS: u32 = 2;

fn timed_sweep(insts: u64, jobs: usize, sinks: bool) -> f64 {
    if sinks {
        trace::install(trace::Tracer::new(TRACE_CAP));
        metrics::install(metrics::MetricsHub::new(METRICS_INTERVAL));
        profile::install(profile::Profiler::new());
    }
    let t0 = std::time::Instant::now();
    let set = ResultSet::run_sweep_with(&SweepConfig::new().insts(insts).jobs(jobs));
    let secs = t0.elapsed().as_secs_f64();
    assert!(!set.apps().is_empty());
    if sinks {
        // Artifacts are timed, not written: drop the merged sinks.
        let tr = trace::take().expect("merged tracer");
        let hub = metrics::take().expect("merged hub");
        let _ = profile::take().expect("merged profiler");
        status!(
            "  captured {} trace events, {} metric rows",
            tr.len(),
            hub.rows()
        );
    }
    secs
}

fn main() {
    let (telemetry, _args) = Telemetry::from_args(std::env::args().skip(1).collect());
    let env = SweepConfig::from_env();
    let insts = env.insts_value();
    // Detected hardware parallelism and the job count the parallel rows
    // actually use are different things (the latter is floored at 2 so a
    // one-core host still exercises the sharded-telemetry path); record
    // both so the timings file is honest about what ran.
    let detected = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let par = env.jobs_value().max(2);
    let configs = [
        ("serial, no telemetry", 1usize, false),
        ("parallel, no telemetry", par, false),
        ("serial, all sinks", 1, true),
        ("parallel, all sinks", par, true),
    ];
    let mut timings = Vec::new();
    for (label, n, sinks) in configs {
        status!("sweep: {label} (jobs={n}, insts={insts}, best of {REPS})");
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let secs = timed_sweep(insts, n, sinks);
            status!("  {secs:.2} s");
            best = best.min(secs);
        }
        timings.push(Value::obj([
            ("label", Value::Str(label.to_string())),
            ("jobs", Value::int(n as u64)),
            ("sinks", Value::Bool(sinks)),
            ("secs", Value::Num(best)),
        ]));
    }
    let doc = Value::obj([
        (
            "schema_version",
            Value::int(parrot_bench::RESULTS_SCHEMA_VERSION),
        ),
        ("insts", Value::int(insts)),
        ("host_parallelism", Value::int(detected)),
        ("jobs_used", Value::int(par as u64)),
        ("reps", Value::int(u64::from(REPS))),
        ("timings", Value::Arr(timings)),
    ]);
    let path = parrot_bench::timings_path();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, doc.to_json_pretty()).expect("write sweep timings");
    status!("wrote {}", path.display());
    print!(
        "{}",
        parrot_bench::sweep_timing_markdown().expect("timings just recorded")
    );
    telemetry.finish();
}
