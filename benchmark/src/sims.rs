//! The simulation workloads: `cold_path`, `hot_path`, `sampled_long` and
//! `sweep_full`.
//!
//! Each repeats a fixed pass of simulations for the run's budget. Every
//! report is checked: it must reach its instruction budget (a run cut
//! short by the cycle cap fails), the models of one application must
//! commit the same store log, and every pass must reproduce the first
//! pass byte for byte. The sweep is also checked against the committed
//! sweep cache.

use crate::spans::Recorder;
use crate::{peak_rss_mib, probes, seeded, Ctx, Outcome, Pass};
use parrot_bench::cli::{METRICS_INTERVAL, TRACE_CAP};
use parrot_bench::{ResultSet, SweepConfig, CACHE_VERSION};
use parrot_core::{
    build_plan, effective_warmup, Model, SamplePlan, SampleWarmth, SamplingSpec, SimReport,
    SimRequest,
};
use parrot_telemetry::json::{self, Value};
use parrot_telemetry::{metrics, profile, trace};
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{all_apps, app_by_name, AppProfile, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the set-up is repeated before the first pass and again after
/// every pass; the median of all of them is `setup_s`. Spreading them
/// over the run keeps a burst of host contention from setting the median.
pub const SETUP_REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A batch of full simulations: every model over every application.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Machine models, run in this order on each application.
    pub models: Vec<Model>,
    /// Registry application names.
    pub apps: Vec<&'static str>,
    /// Committed instructions per simulation.
    pub insts: u64,
    /// Also measure the cost of every telemetry sink (traced run only).
    pub sink_probe: bool,
}

impl SimSpec {
    /// `cold_path`: the baselines over irregular integer code with large
    /// working sets. The trace and optimizer layers do no work here; the
    /// front end, branch predictor and cache hierarchy do most of it.
    pub fn cold_path() -> SimSpec {
        SimSpec {
            models: vec![Model::N, Model::W],
            apps: vec!["gcc", "parser", "crafty", "twolf", "vortex", "art"],
            insts: 1_000_000,
            sink_probe: false,
        }
    }

    /// `hot_path`: the trace models over loop-heavy code, where about nine
    /// in ten instructions come from the trace cache. TOS also covers the
    /// split-core switch path.
    pub fn hot_path() -> SimSpec {
        SimSpec {
            models: vec![Model::TON, Model::TOW, Model::TOS],
            apps: vec!["swim", "lucas", "wupwise", "flash"],
            insts: 1_000_000,
            sink_probe: true,
        }
    }
}

/// Phase-sampled evaluation of long runs.
#[derive(Clone, Debug)]
pub struct SampledSpec {
    /// Models simulated from each plan.
    pub models: Vec<Model>,
    /// Registry application names.
    pub apps: Vec<&'static str>,
    /// Committed-instruction budget each sampled report stands for.
    pub budget: u64,
    /// Interval, warmup, cluster bound and projection seed.
    pub spec: SamplingSpec,
}

impl SampledSpec {
    /// `sampled_long`: the apps whose sampling fidelity is recorded in
    /// `results/sampling.json`, at 10M instructions, under the default
    /// spec with at most 3 clusters. A run's cost grows with the number of
    /// clusters, which under the default bound of 10 ranges from 3 to 9
    /// per app as the seed changes the program, and under a bound of 4 is
    /// 3 or 4; under a bound of 3 it is 3 for every app at seeds 1–12, so
    /// runs at different seeds simulate the same number of windows.
    pub fn sampled_long() -> SampledSpec {
        SampledSpec {
            models: vec![Model::N, Model::TOW],
            apps: vec!["gcc", "swim", "word", "dotnet-num2"],
            budget: 10_000_000,
            spec: SamplingSpec {
                max_k: 3,
                ..SamplingSpec::default()
            },
        }
    }
}

/// The full (model × app) sweep.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Committed instructions per run of each timed sweep.
    pub insts: u64,
    /// Sweep worker threads.
    pub jobs: usize,
    /// The committed sweep cache: its directory and budget. At seed 0 the
    /// workload also runs one untimed sweep at that budget and checks
    /// every report against the cache byte for byte.
    pub reference: Option<(PathBuf, u64)>,
}

impl SweepSpec {
    /// `sweep_full`: every model on every app on two workers. Timed
    /// sweeps run at 50k instructions, so a run makes several and reports
    /// their median; one sweep at the 200k default takes about 11 s on a
    /// 2-vCPU host, and with one or two per run a slow spell of the host
    /// moved the result by 30%. Seed 0 first checks a 200k sweep against
    /// the cache under `results/`.
    pub fn sweep_full() -> SweepSpec {
        SweepSpec {
            insts: 50_000,
            jobs: 2,
            reference: Some((PathBuf::from("results"), parrot_core::DEFAULT_INSTS)),
        }
    }
}

fn profiles(apps: &[&str], seed: u64) -> Vec<AppProfile> {
    apps.iter()
        .map(|a| seeded(&app_by_name(a).expect("registered app"), seed))
        .collect()
}

/// The program's set-up, timed: build every workload.
pub(crate) fn build(profiles: &[AppProfile], rec: &mut Recorder) -> (Vec<Workload>, f64) {
    let t = Instant::now();
    let wls = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            rec.time("workloads.build", i as u64, || Workload::build(p))
                .0
        })
        .collect();
    (wls, t.elapsed().as_secs_f64())
}

/// Set up [`SETUP_REPS`] times; returns the last build and every time.
fn setup(profiles: &[AppProfile], rec: &mut Recorder) -> (Vec<Workload>, Vec<f64>) {
    let mut wls = Vec::new();
    let samples = (0..SETUP_REPS)
        .map(|_| {
            let (built, secs) = build(profiles, rec);
            wls = built;
            secs
        })
        .collect();
    (wls, samples)
}

/// What one pass produced.
struct PassRun {
    /// Every report, grouped by operation in order.
    reports: Vec<SimReport>,
    /// Reports per operation; 0 marks an operation that produced none.
    group: Vec<usize>,
    /// Latency of each timed unit, milliseconds.
    op_ms: Vec<f64>,
    /// Wall time of the pass, seconds.
    wall: f64,
    /// Instructions simulated in detail (the profiler's denominator).
    detailed: u64,
}

/// How a pass's reports are checked.
struct Check {
    /// Instruction budget every report must reach.
    budget: u64,
    /// Consecutive reports of one application whose store logs must
    /// agree; `None` for sampled reports, which carry no store log.
    per_app: Option<usize>,
}

impl Check {
    /// Per-report verdicts: budget reached, store logs agree across the
    /// models of each application, and bytes equal to the first pass's
    /// (`first` is empty on the first pass, which fills it). Each is
    /// folded into the outcome's named checks.
    fn reports(
        &self,
        o: &mut Outcome,
        reports: &[SimReport],
        first: &mut Vec<String>,
    ) -> Vec<bool> {
        let fill = first.is_empty();
        reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let text = r.to_json().to_json();
                let mut ok = r.insts == self.budget;
                o.note("budget_reached", ok);
                if let Some(per_app) = self.per_app {
                    let app =
                        &reports[i - i % per_app..(i - i % per_app + per_app).min(reports.len())];
                    let agree = app.iter().all(|a| {
                        (a.store_log_hash, a.committed_stores)
                            == (r.store_log_hash, r.committed_stores)
                    });
                    o.note("store_logs_agree", agree);
                    ok &= agree;
                }
                let same = fill || first.get(i) == Some(&text);
                o.note("passes_identical", same);
                ok &= same;
                if fill {
                    first.push(text);
                }
                ok
            })
            .collect()
    }
}

/// Repeat `pass` for the run's budget, checking every report and timing
/// the set-up of `profiles` again after each pass. An operation fails
/// when it produced no report or any of its reports fails a check.
fn repeat(
    ctx: &mut Ctx,
    o: &mut Outcome,
    check: &Check,
    profiles: &[AppProfile],
    mut pass: impl FnMut(&mut Recorder, usize) -> PassRun,
) {
    let mut first = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while ctx.another(started, &walls) {
        let n = walls.len();
        let traced = ctx.pass_traced(n);
        let run = ctx.traced_section(traced, |rec| pass(rec, n));
        if traced {
            ctx.profiled_insts += run.detailed;
        } else {
            o.op_ms.extend(&run.op_ms);
        }
        let mut ok = check.reports(o, &run.reports, &mut first).into_iter();
        for &size in &run.group {
            o.note("operations_completed", size > 0);
            let op_ok = ok.by_ref().take(size).fold(size > 0, |all, v| all && v);
            o.op(op_ok);
        }
        o.passes.push(Pass {
            wall_s: run.wall,
            insts: run.reports.iter().map(|r| r.insts).sum(),
            ops: run.group.len() as u64,
            traced,
        });
        if n == 0 {
            o.reports = run.reports;
            o.peak_rss_mib = peak_rss_mib();
        }
        o.setup_s.extend(setup(profiles, &mut ctx.rec).1);
        walls.push(run.wall);
    }
}

/// Run `cold_path` or `hot_path`.
pub fn run_sims(spec: &SimSpec, ctx: &mut Ctx) -> Outcome {
    let profiles = profiles(&spec.apps, ctx.seed);
    let (wls, setup_s) = setup(&profiles, &mut ctx.rec);
    let mut o = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let check = Check {
        budget: spec.insts,
        per_app: Some(spec.models.len()),
    };
    repeat(ctx, &mut o, &check, &profiles, |rec, n| {
        let pass = rec.begin("bench.pass", n as u64);
        let mut reports = Vec::with_capacity(wls.len() * spec.models.len());
        let mut op_ms = Vec::with_capacity(reports.capacity());
        for wl in &wls {
            for &m in &spec.models {
                let id = reports.len() as u64;
                let (r, dt) = rec.time("core.run", id, || {
                    SimRequest::model(m).insts(spec.insts).run(wl)
                });
                reports.push(r);
                op_ms.push(ms(dt));
            }
        }
        let wall = rec.end(pass).as_secs_f64();
        PassRun {
            group: vec![1; reports.len()],
            detailed: reports.iter().map(|r| r.insts).sum(),
            reports,
            op_ms,
            wall,
        }
    });
    if ctx.traced {
        let cfg = spec.models[0].config();
        probes::substrate(&wls, &cfg, ctx.probe_insts, &mut ctx.rec, &mut o.layer);
        if spec.sink_probe {
            let overhead = sinks_overhead(spec, &wls[0]);
            o.layer.set("telemetry.all_sinks_overhead", overhead);
        }
    }
    o.budgets = vec![
        ("insts_per_run", Value::int(spec.insts)),
        ("models", names(spec.models.iter().map(|m| m.name()))),
        ("apps", names(spec.apps.iter().copied())),
    ];
    o
}

fn names<'a>(it: impl Iterator<Item = &'a str>) -> Value {
    Value::Arr(it.map(|s| Value::Str(s.to_string())).collect())
}

/// Extra wall time, as a fraction, of simulating one application on every
/// model with the tracer, metrics hub and profiler all installed.
fn sinks_overhead(spec: &SimSpec, wl: &Workload) -> f64 {
    let run_all = || {
        for &m in &spec.models {
            std::hint::black_box(SimRequest::model(m).insts(spec.insts).run(wl));
        }
    };
    let t = Instant::now();
    run_all();
    let bare = t.elapsed().as_secs_f64();
    trace::install(trace::Tracer::new(TRACE_CAP));
    metrics::install(metrics::MetricsHub::new(METRICS_INTERVAL));
    profile::install(profile::Profiler::new());
    let t = Instant::now();
    run_all();
    let sunk = t.elapsed().as_secs_f64();
    let _ = (trace::take(), metrics::take(), profile::take());
    sunk / bare - 1.0
}

/// One application's sampled evaluation: capture, plan, warming, then one
/// sampled report per model. `None` when the capture or plan fails.
fn sample_app(
    spec: &SampledSpec,
    wl: &Workload,
    rec: &mut Recorder,
    id: u64,
) -> Option<(Arc<SamplePlan>, Vec<SimReport>)> {
    let budget = spec.budget;
    let (trace, _) = rec.time("workloads.capture", id, || {
        capture(wl, budget, DEFAULT_SLICE_INSTS)
    });
    let trace = Arc::new(trace.ok()?);
    let (plan, _) = rec.time("sampling.plan", id, || {
        build_plan(&trace, wl, budget, &spec.spec)
    });
    let plan = Arc::new(plan.ok()?);
    let cfgs: Vec<_> = spec.models.iter().map(|m| m.config()).collect();
    let (warmth, _) = rec.time("sampling.warmth", id, || {
        SampleWarmth::build(&trace, wl, budget, &plan, &spec.spec, &cfgs)
    });
    let warmth = Arc::new(warmth);
    let reports = spec
        .models
        .iter()
        .map(|&m| {
            rec.time("core.sampled_run", id, || {
                SimRequest::model(m)
                    .insts(budget)
                    .replay(Arc::clone(&trace))
                    .sampled_plan(Arc::clone(&plan))
                    .sample_warmth(Arc::clone(&warmth))
                    .run(wl)
            })
            .0
        })
        .collect();
    Some((plan, reports))
}

/// Instructions a sampled run of `model` simulates in detail under
/// `plan`: each representative interval plus its detailed warmup.
fn detailed_insts(plan: &SamplePlan, model: Model) -> u64 {
    let cfg = model.config();
    plan.clusters
        .iter()
        .map(|c| {
            let iv = plan.intervals[c.rep];
            effective_warmup(&cfg, &plan.spec, iv.start) + iv.len
        })
        .sum()
}

/// Run `sampled_long`. One operation is one application's whole sampled
/// evaluation, the latency a user of sampling waits for.
pub fn run_sampled(spec: &SampledSpec, ctx: &mut Ctx) -> Outcome {
    let profiles = profiles(&spec.apps, ctx.seed);
    let (wls, setup_s) = setup(&profiles, &mut ctx.rec);
    let mut o = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let check = Check {
        budget: spec.budget,
        per_app: None,
    };
    // Plans are deterministic, so the first pass's stand for all.
    let mut plans: Vec<Arc<SamplePlan>> = Vec::new();
    repeat(ctx, &mut o, &check, &profiles, |rec, n| {
        let pass = rec.begin("bench.pass", n as u64);
        let mut run = PassRun {
            reports: Vec::new(),
            group: Vec::new(),
            op_ms: Vec::new(),
            wall: 0.0,
            detailed: 0,
        };
        for (i, wl) in wls.iter().enumerate() {
            let op = rec.begin("bench.op", i as u64);
            let eval = sample_app(spec, wl, rec, i as u64);
            run.op_ms.push(ms(rec.end(op)));
            match eval {
                Some((plan, reports)) => {
                    run.detailed += spec
                        .models
                        .iter()
                        .map(|&m| detailed_insts(&plan, m))
                        .sum::<u64>();
                    run.group.push(reports.len());
                    run.reports.extend(reports);
                    if n == 0 {
                        plans.push(plan);
                    }
                }
                None => run.group.push(0),
            }
        }
        run.wall = rec.end(pass).as_secs_f64();
        run
    });
    let apps = wls.len().max(1) as f64;
    let k: usize = plans.iter().map(|p| p.k()).sum();
    let detailed: u64 = plans
        .iter()
        .flat_map(|p| spec.models.iter().map(|&m| detailed_insts(p, m)))
        .sum();
    o.layer.set("sampling.k", k as f64 / apps);
    o.layer.set(
        "sampling.detailed_frac",
        detailed as f64 / (spec.budget as f64 * apps * spec.models.len() as f64),
    );
    if ctx.traced {
        let cfg = spec.models[0].config();
        probes::substrate(&wls, &cfg, ctx.probe_insts, &mut ctx.rec, &mut o.layer);
    }
    o.budgets = vec![
        ("budget", Value::int(spec.budget)),
        ("interval", Value::int(spec.spec.interval)),
        ("warmup", Value::int(spec.spec.warmup)),
        ("max_k", Value::int(spec.spec.max_k as u64)),
        ("models", names(spec.models.iter().map(|m| m.name()))),
        ("apps", names(spec.apps.iter().copied())),
    ];
    o
}

/// The committed sweep cache for `cfg`, as report JSON by (model, app).
fn load_reference(cfg: &SweepConfig) -> Result<BTreeMap<(String, String), String>, String> {
    let path = cfg.cache_file();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("version").as_u64() != Some(CACHE_VERSION)
        || doc.get("fingerprint").as_str() != Some(&format!("{:016x}", cfg.fingerprint()))
    {
        return Err(format!(
            "{}: version or fingerprint mismatch",
            path.display()
        ));
    }
    let runs = doc.get("runs").as_arr().ok_or("cache has no runs")?;
    Ok(runs
        .iter()
        .map(|r| {
            let key = (
                r.get("model").as_str().unwrap_or_default().to_string(),
                r.get("app").as_str().unwrap_or_default().to_string(),
            );
            (key, r.to_json())
        })
        .collect())
}

/// Run `sweep_full`. One operation is one (model, app) report; the timed
/// unit is the whole sweep, the latency its user waits for. The sweep
/// takes the registry itself, so the seed does not change its inputs.
pub fn run_sweep(spec: &SweepSpec, ctx: &mut Ctx) -> Outcome {
    let cfg = SweepConfig::new().insts(spec.insts).jobs(spec.jobs);
    let apps = all_apps();
    let (wls, setup_s) = setup(&apps, &mut ctx.rec);
    let mut o = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let reports = |set: &ResultSet| -> Vec<SimReport> {
        apps.iter()
            .flat_map(|a| Model::ALL.map(|m| set.get(m, a.name).clone()))
            .collect()
    };
    // The reference check runs first and its wall time comes out of the
    // run's budget, so a seed-0 run takes no longer than any other.
    if let (0, Some((dir, insts))) = (ctx.seed, &spec.reference) {
        let t = Instant::now();
        let reference_cfg = SweepConfig::new()
            .insts(*insts)
            .jobs(spec.jobs)
            .cache_dir(dir);
        let committed = load_reference(&reference_cfg);
        if let Err(e) = &committed {
            eprintln!("sweep_full: committed sweep cache unusable: {e}");
        }
        let (set, _) = ctx.rec.time("bench.reference_sweep", 0, || {
            ResultSet::run_sweep_with(&reference_cfg)
        });
        for r in reports(&set) {
            let key = (r.model.clone(), r.app.clone());
            let text = r.to_json().to_json();
            let same = committed.as_ref().is_ok_and(|m| m.get(&key) == Some(&text));
            o.note("matches_committed_cache", same);
            o.op(same);
        }
        ctx.budget = ctx.budget.saturating_sub(t.elapsed());
    }
    let check = Check {
        budget: spec.insts,
        per_app: Some(Model::ALL.len()),
    };
    repeat(ctx, &mut o, &check, &apps, |rec, n| {
        let (set, d) = rec.time("bench.sweep", n as u64, || ResultSet::run_sweep_with(&cfg));
        let reports = reports(&set);
        PassRun {
            group: vec![1; reports.len()],
            detailed: reports.iter().map(|r| r.insts).sum(),
            reports,
            op_ms: vec![ms(d)],
            wall: d.as_secs_f64(),
        }
    });
    if ctx.traced {
        worker_balance(ctx, spec.jobs, &o.passes, &mut o.layer);
        let cfg = Model::N.config();
        probes::substrate(&wls, &cfg, ctx.probe_insts, &mut ctx.rec, &mut o.layer);
    }
    o.budgets = vec![
        ("insts_per_run", Value::int(spec.insts)),
        ("jobs", Value::int(spec.jobs as u64)),
        ("runs", Value::int((apps.len() * Model::ALL.len()) as u64)),
    ];
    if let Some((_, insts)) = &spec.reference {
        o.budgets.push(("reference_insts", Value::int(*insts)));
    }
    o
}

/// `bench.*`: how busy the sweep kept its workers during traced passes,
/// from the program profiler's per-worker attribution of `machine.run`.
fn worker_balance(ctx: &Ctx, jobs: usize, passes: &[Pass], m: &mut crate::metrics::Metrics) {
    let Some(p) = &ctx.profiler else { return };
    let wall: f64 = passes.iter().filter(|p| p.traced).map(|p| p.wall_s).sum();
    let busy: Vec<f64> = (0..jobs as u32)
        .map(|w| {
            p.worker_section(w, "machine.run")
                .map_or(0.0, |(_, total, _)| total.as_secs_f64())
        })
        .collect();
    let sum: f64 = busy.iter().sum();
    if wall > 0.0 && sum > 0.0 {
        let mean = sum / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        m.set("bench.worker_busy_frac", sum / (wall * jobs as f64));
        m.set("bench.worker_imbalance", max / mean - 1.0);
    }
}

/// The fingerprint of the committed sweep cache the reference check reads.
pub fn sweep_fingerprint() -> String {
    let insts = SweepSpec::sweep_full()
        .reference
        .map_or(parrot_core::DEFAULT_INSTS, |(_, insts)| insts);
    format!("{:016x}", SweepConfig::new().insts(insts).fingerprint())
}
