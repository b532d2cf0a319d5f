//! End-to-end and per-layer benchmark of the PARROT simulator.
//!
//! Five workloads, each run in its own process, drive the program only
//! through its public entry points and time those calls from outside:
//!
//! | workload | what runs | layers it isolates |
//! |---|---|---|
//! | `sweep_full` | the 44 × 7 sweep at 50k instructions on 2 workers (a 200k sweep is too long to repeat within a run) | work-stealing sweep scheduler |
//! | `cold_path` | N and W over six irregular, large-footprint apps, 1M instructions | front end, branch predictor, caches |
//! | `hot_path` | TON, TOW and TOS over four loop-heavy apps, 1M instructions | trace selection, construction, optimizer, hot delivery |
//! | `sampled_long` | capture, plan, warm and sample four apps at 10M instructions | capture, phase sampling, functional warming |
//! | `serve_mix` | `parrot serve` under a closed loop of cache hits and misses | HTTP, admission, result store |
//!
//! An untraced run reports the end-to-end metrics. A traced run records
//! spans around every call ([`spans`]), installs the program's own profiler
//! for cycle-loop stage attribution, runs per-layer probes ([`probes`]),
//! and reports the per-layer metrics. See `README.md` for the metric
//! definitions and how to compare two commits.

pub mod metrics;
pub mod probes;
pub mod serve;
pub mod sims;
pub mod spans;
pub mod stats;

use metrics::Metrics;
use parrot_core::SimReport;
use parrot_telemetry::json::Value;
use parrot_telemetry::profile::{self, Profiler, Stage, STAGE_STRIDE};
use parrot_workloads::AppProfile;
use spans::Recorder;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The application profile a workload seed selects. Seed 0 is the
/// registry profile itself; any other seed keeps every statistical
/// parameter and replaces only the program-instance seed with a
/// deterministic mix of (registry seed, workload seed).
pub fn seeded(profile: &AppProfile, seed: u64) -> AppProfile {
    if seed == 0 {
        return profile.clone();
    }
    AppProfile {
        seed: mix64(profile.seed ^ mix64(seed)),
        ..profile.clone()
    }
}

/// FNV-1a over the JSON of every report, in order: equal digests mean
/// byte-identical simulated results.
pub fn digest(reports: &[SimReport]) -> u64 {
    let all: String = reports.iter().map(|r| r.to_json().to_json()).collect();
    parrot_serve::fingerprint(&all)
}

/// Settings and shared state of one benchmark run.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the measured phase may run.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Spans of the calling thread.
    pub rec: Recorder,
    /// The program's profiler, installed only around traced work.
    pub profiler: Option<Profiler>,
    /// Instructions the machine simulated in detail while the profiler
    /// was installed (the denominator of the `core.*` rates).
    pub profiled_insts: u64,
    /// Committed instructions the per-layer probes stream in total.
    pub probe_insts: u64,
}

impl Ctx {
    /// A run of `seconds` at `seed`; `traced` selects the per-layer run.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            traced,
            rec: Recorder::new(traced, Instant::now(), 0),
            profiler: None,
            profiled_insts: 0,
            probe_insts: probes::PROBE_INSTS,
        }
    }

    /// Whether to start another pass, given the walls of the passes so far
    /// and when the first began. A run makes at least one pass (two in a
    /// traced run: one untraced, one traced) and starts another only if a
    /// pass as long as the last still ends within the budget.
    pub fn another(&self, started: Instant, walls: &[f64]) -> bool {
        let min = if self.traced { 2 } else { 1 };
        match walls.last() {
            _ if walls.len() < min => true,
            Some(last) => started.elapsed().as_secs_f64() + last <= self.budget.as_secs_f64(),
            None => true,
        }
    }

    /// Whether pass `n` records spans: a traced run alternates untraced and
    /// traced passes, so the two sample the same host conditions and their
    /// ratio is the tracing overhead.
    pub fn pass_traced(&self, n: usize) -> bool {
        self.traced && n % 2 == 1
    }

    /// Run `f` with span recording set to `on`, and with the program's
    /// profiler installed on this thread when `on`.
    pub fn traced_section<T>(&mut self, on: bool, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let was = self.rec.enabled();
        self.rec.set_enabled(on);
        if on {
            profile::install(self.profiler.take().unwrap_or_default());
        }
        let out = f(&mut self.rec);
        if on {
            self.profiler = profile::take();
        }
        self.rec.set_enabled(was);
        out
    }
}

/// One measured pass: a fixed unit of work, repeated for the run's budget.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Committed instructions the program simulated.
    pub insts: u64,
    /// Operations completed.
    pub ops: u64,
    /// Whether spans and the profiler were on.
    pub traced: bool,
}

impl Pass {
    /// Operations per second.
    pub fn ops_rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up samples, seconds: the program's calls before timing starts.
    pub setup_s: Vec<f64>,
    /// Every pass, untraced and traced.
    pub passes: Vec<Pass>,
    /// Latency of every operation of the untraced passes, milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Named whole-run checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Reference reports (one pass, or the verified set), for `sim.*`.
    pub reports: Vec<SimReport>,
    /// Peak resident set after set-up and the first pass, MiB. Read then
    /// rather than at exit, so it does not depend on how many passes the
    /// host's speed let the run make.
    pub peak_rss_mib: f64,
    /// Per-layer values the workload measured itself.
    pub layer: Metrics,
    /// Budgets and sizes, for the provenance record.
    pub budgets: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Record one operation's verdict.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold `ok` into the named whole-run check.
    pub fn note(&mut self, check: &'static str, ok: bool) {
        match self.checks.iter_mut().find(|(name, _)| *name == check) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((check, ok)),
        }
    }

    /// True when no operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Run workload `name` (one of the registry's workloads).
pub fn run(name: &str, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "sweep_full" => sims::run_sweep(&sims::SweepSpec::sweep_full(), ctx),
        "cold_path" => sims::run_sims(&sims::SimSpec::cold_path(), ctx),
        "hot_path" => sims::run_sims(&sims::SimSpec::hot_path(), ctx),
        "sampled_long" => sims::run_sampled(&sims::SampledSpec::sampled_long(), ctx),
        "serve_mix" => serve::run_serve(&serve::ServeSpec::serve_mix(), ctx),
        _ => return None,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Metrics {
    let untraced: Vec<&Pass> = o.passes.iter().filter(|p| !p.traced).collect();
    let rate = |f: &dyn Fn(&Pass) -> f64| {
        stats::median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let mut m = Metrics::default();
    m.set("cips", rate(&|p| p.insts as f64 / p.wall_s));
    m.set("ops_per_s", rate(&|p| p.ops_rate()));
    m.set("op_ms_p50", stats::percentile(&o.op_ms, 50.0));
    m.set("setup_s", stats::median(&o.setup_s));
    m.set("peak_rss_mib", o.peak_rss_mib);
    m
}

/// Per-layer metrics that are the median duration of one span name.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("workloads.build_ms", "workloads.build"),
    ("sampling.plan_ms", "sampling.plan"),
    ("sampling.warmth_ms", "sampling.warmth"),
    ("core.sampled_run_ms", "core.sampled_run"),
    ("serve.healthz_ms_p50", "serve.healthz"),
    ("serve.submit_ms_p50", "serve.submit"),
    ("serve.poll_ms_p50", "serve.poll"),
    ("serve.fetch_ms_p50", "serve.fetch"),
    ("serve.exec_ms_p50", "serve.exec"),
];

/// The per-layer metrics of a traced run: the workload's own values plus
/// those derived from its spans, passes, reports and the profiler.
pub fn per_layer(o: &Outcome, ctx: &Ctx) -> Metrics {
    let mut m = o.layer.clone();
    for (metric, span) in SPAN_MEDIANS {
        let d = ctx.rec.durations_ms(span);
        if !d.is_empty() {
            m.set(metric, stats::percentile(&d, 50.0));
        }
    }
    let rates = |traced: bool| -> Vec<f64> {
        o.passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(Pass::ops_rate)
            .collect()
    };
    let (bare, traced) = (stats::median(&rates(false)), stats::median(&rates(true)));
    if traced > 0.0 {
        m.set("host.trace_overhead", bare / traced - 1.0);
    }
    m.set("host.pass_spread", stats::spread(&rates(false)));
    sim_stats(&o.reports, &mut m);
    json_costs(&o.reports, &mut m);
    if let Some(p) = &ctx.profiler {
        core_stages(p, ctx.profiled_insts, &mut m);
    }
    m
}

/// `sim.*`: modelled statistics over the reference reports. These are
/// exact and must not move on a change that only speeds up the host.
pub fn sim_stats(reports: &[SimReport], m: &mut Metrics) {
    let insts: u64 = reports.iter().map(|r| r.insts).sum();
    if insts == 0 {
        return;
    }
    let per_inst = |x: f64| x / insts as f64;
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let trace = |f: fn(&parrot_core::TraceReport) -> u64| -> u64 {
        reports.iter().filter_map(|r| r.trace.as_ref()).map(f).sum()
    };
    m.set("sim.ipc", insts as f64 / cycles.max(1) as f64);
    m.set("sim.hot_frac", per_inst(trace(|t| t.hot_insts) as f64));
    m.set(
        "sim.aborts_per_kinst",
        1e3 * per_inst(trace(|t| t.aborts) as f64),
    );
    let mispredicts: u64 = reports.iter().map(|r| r.cond_mispredicts).sum();
    m.set(
        "sim.mispredicts_per_kinst",
        1e3 * per_inst(mispredicts as f64),
    );
    m.set(
        "sim.energy_per_inst",
        per_inst(reports.iter().map(|r| r.energy).sum()),
    );
}

/// `telemetry.json_*`: the JSON codec's cost per byte of report documents.
pub fn json_costs(reports: &[SimReport], m: &mut Metrics) {
    if reports.is_empty() {
        return;
    }
    let values: Vec<Value> = reports.iter().map(SimReport::to_json).collect();
    let t = Instant::now();
    let texts: Vec<String> = values.iter().map(Value::to_json_pretty).collect();
    let render = t.elapsed().as_nanos() as f64;
    let bytes: usize = texts.iter().map(String::len).sum();
    let t = Instant::now();
    let parsed = texts
        .iter()
        .filter(|s| parrot_telemetry::json::parse(s).is_ok())
        .count();
    let parse = t.elapsed().as_nanos() as f64;
    debug_assert_eq!(parsed, texts.len(), "rendered reports parse back");
    m.set("telemetry.json_render_ns_per_byte", render / bytes as f64);
    m.set("telemetry.json_parse_ns_per_byte", parse / bytes as f64);
}

/// `core.*`: the cycle loop's stage attribution from the program's
/// sampled stage timers, per instruction simulated under the profiler.
/// The unattributed row is the run total minus the stages, so the stage
/// rows and it sum to `core.run_ns_per_inst`.
pub fn core_stages(p: &Profiler, insts: u64, m: &mut Metrics) {
    if insts == 0 {
        return;
    }
    let per_inst = |ns: f64| ns / insts as f64;
    let run = per_inst(
        p.section("machine.run")
            .map_or(0.0, |(_, total, _)| total.as_nanos() as f64),
    );
    let mut staged = 0.0;
    for (stage, name) in [
        (Stage::Frontend, "core.frontend_ns_per_inst"),
        (Stage::TraceCache, "core.trace_cache_ns_per_inst"),
        (Stage::Optimizer, "core.optimizer_ns_per_inst"),
        (Stage::Exec, "core.exec_ns_per_inst"),
        (Stage::Dispatch, "core.dispatch_ns_per_inst"),
        (Stage::Accounting, "core.accounting_ns_per_inst"),
    ] {
        let ns = p.stage_stats(stage).map_or(0.0, |(_, t, _)| {
            t.as_nanos() as f64 * f64::from(STAGE_STRIDE)
        });
        staged += per_inst(ns);
        m.set(name, per_inst(ns));
    }
    m.set("core.run_ns_per_inst", run);
    m.set("core.unattributed_ns_per_inst", run - staged);
}
