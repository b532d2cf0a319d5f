//! `parrot` — the command-line front door to the simulator.
//!
//! ```console
//! $ parrot list-apps                      # the 44 registered applications
//! $ parrot list-models                    # the 7 machine models
//! $ parrot run TON gcc --insts 200000     # one simulation, human-readable
//! $ parrot run TON gcc --json             # machine-readable report
//! $ parrot compare N TON gcc              # side-by-side with deltas
//! $ parrot sweep gcc                      # all models on one application
//! $ parrot sweep gcc --json               # same, as one JSON document
//! $ parrot fig 4.1                        # one paper figure, as markdown
//! $ parrot analyze --all                  # whole-program CFG/loop analysis
//! $ parrot analyze gcc --json             # one app's full analysis report
//! $ parrot lint-traces --all              # uop-IR lint + validation gate
//! $ parrot soak --rates 0.01,0.1          # seeded fault-injection campaign
//! $ parrot bench                          # record BENCH_cips.json baseline
//! $ parrot bench --check                  # CI perf gate vs the baseline
//! $ parrot capture gcc                    # write corpus/gcc.ptrace
//! $ parrot capture --all --insts 500000   # capture the full corpus
//! $ parrot replay gcc --verify            # replay a capture, diff vs live
//! $ parrot sample gcc --insts 30000000    # sampled-vs-full fidelity, one app
//! $ parrot sample --all --tol 0.03        # full table + tolerance gate
//! $ parrot serve --addr 127.0.0.1:8040    # the HTTP simulation service
//! $ parrot help replay                    # one command's full flag schema
//! ```
//!
//! Run via `cargo run --release -p parrot-bench --bin parrot -- <args>`.
//! Subcommands, their positionals, and their flags all come from the
//! table in [`parrot_bench::cli`] ([`cli::COMMANDS`]): parsing, the
//! usage screen, and `parrot help <cmd>` are generated from one schema,
//! so an unknown flag is an error everywhere, not silently ignored
//! somewhere. Every subcommand also accepts the shared telemetry flags
//! (`--trace-out`, `--metrics-out`, `--profile`, `--jobs`, `-v`/`-q`).
//!
//! JSON outputs that have a served twin (`run --json`, `sweep --json`,
//! `replay --json`) are printed with `print!` — the pretty serializer
//! carries its own trailing newline — so stdout is byte-identical to
//! the corresponding `/v1/results/:fingerprint` body.

use parrot_bench::{cli, figures};
use parrot_core::{FaultPlan, Model, SimReport, SimRequest};
use parrot_energy::metrics::cmpw_relative;
use parrot_workloads::{all_apps, app_by_name, AppProfile, Workload};

fn main() {
    let (telemetry, args) =
        parrot_bench::cli::Telemetry::from_args(std::env::args().skip(1).collect());
    let Some(name) = args.first() else {
        usage();
    };
    let Some(spec) = cli::command(name) else {
        eprintln!("parrot: unknown command '{name}'\n");
        usage();
    };
    let p = match cli::parse_command(spec, &args[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let code = match spec.name {
        "list-apps" => list_apps(),
        "list-models" => list_models(),
        "run" => run(&p),
        "compare" => compare(&p),
        "sweep" => sweep(&p),
        "fig" => fig(&p),
        "analyze" => analyze(&p),
        "lint-traces" => lint_traces(&p),
        "soak" => soak(&p),
        "bench" => bench(&p),
        "capture" => capture(&p),
        "replay" => replay(&p),
        "sample" => sample(&p),
        "serve" => serve(&p),
        "help" => help(&p),
        other => unreachable!("command {other} is in the table but not dispatched"),
    };
    telemetry.finish();
    std::process::exit(code);
}

fn usage() -> ! {
    eprintln!("{}", cli::usage_text());
    std::process::exit(2);
}

/// Unwrap a typed flag lookup, exiting with the conventional usage code
/// on a malformed value.
fn flag<T>(r: Result<Option<T>, String>) -> Option<T> {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn insts_or_default(p: &cli::Parsed) -> u64 {
    flag(p.u64_value("--insts")).unwrap_or_else(parrot_bench::insts_budget)
}

fn parse_model(s: &str) -> Model {
    Model::from_name(s).unwrap_or_else(|| {
        eprintln!("unknown model '{s}'; known: N W TN TW TON TOW TOS");
        std::process::exit(2);
    })
}

fn parse_profile(s: &str) -> AppProfile {
    app_by_name(s).unwrap_or_else(|| {
        eprintln!("unknown app '{s}'; run `parrot list-apps`");
        std::process::exit(2);
    })
}

fn parse_app(s: &str) -> Workload {
    Workload::build(&parse_profile(s))
}

/// The `<APP> | --all` convention shared by analyze / lint-traces /
/// capture: `--all` wins, else the first positional names one app.
fn profiles_of(p: &cli::Parsed) -> Option<Vec<AppProfile>> {
    if p.switch("--all") {
        return Some(all_apps());
    }
    p.positionals.first().map(|name| vec![parse_profile(name)])
}

fn list_apps() -> i32 {
    for suite in parrot_workloads::Suite::ALL {
        println!("{suite}:");
        for a in all_apps().iter().filter(|a| a.suite == suite) {
            println!("  {}", a.name);
        }
    }
    0
}

fn list_models() -> i32 {
    for m in Model::ALL {
        let c = m.config();
        println!(
            "{:<5} {}-wide{}{}",
            m.name(),
            c.core.issue_width,
            if m.has_trace_cache() {
                ", trace cache"
            } else {
                ""
            },
            if m.has_optimizer() {
                ", dynamic optimizer"
            } else {
                ""
            },
        );
    }
    0
}

fn help(p: &cli::Parsed) -> i32 {
    match p.positionals.first() {
        None => {
            println!("{}", cli::usage_text());
            0
        }
        Some(name) => match cli::command(name) {
            Some(spec) => {
                println!("{}", cli::help_text(spec));
                0
            }
            None => {
                eprintln!("help: unknown command '{name}'\n\n{}", cli::usage_text());
                2
            }
        },
    }
}

/// Print one entry of the figure table, exactly as `reproduce` writes it
/// into EXPERIMENTS.md. The id is checked before the sweep is loaded.
fn fig(p: &cli::Parsed) -> i32 {
    let Some(f) = p.positionals.first().and_then(|id| figures::figure(id)) else {
        let given = p.positionals.first().map_or("no figure id".into(), |id| {
            format!("unknown figure id '{id}'")
        });
        eprintln!("fig: {given}; valid ids: {}", figures::ids());
        return 2;
    };
    print!("{}", f.markdown(&parrot_bench::ResultSet::load_or_run()));
    0
}

fn print_human(r: &SimReport) {
    println!("{} on {} ({})", r.model, r.app, r.suite);
    println!("  insts            {}", r.insts);
    println!("  uops             {}", r.uops);
    println!("  cycles           {}", r.cycles);
    println!("  IPC              {:.3}", r.ipc());
    println!("  energy           {:.0}", r.energy);
    println!(
        "  branch mispred   {:.2}%",
        r.branch_mispredict_rate() * 100.0
    );
    if let Some(t) = &r.trace {
        println!("  coverage         {:.1}%", t.coverage * 100.0);
        println!(
            "  trace mispred    {:.2}%",
            t.trace_mispredict_rate() * 100.0
        );
        if let Some(o) = &t.opt {
            println!("  uop reduction    {:.1}%", o.uop_reduction * 100.0);
            println!("  validated        {}", o.validated);
            println!("  demoted          {}", o.demoted);
        }
    }
}

/// The optional fault plan from the shared `--fault-seed`/`--fault-rate`
/// pair (same defaults the serve backend applies).
fn fault_plan(p: &cli::Parsed) -> Option<FaultPlan> {
    let seed = flag(p.u64_value("--fault-seed"));
    let rate = flag(p.f64_value("--fault-rate"));
    if seed.is_some() || rate.is_some() {
        Some(FaultPlan::new(seed.unwrap_or(0)).rate(rate.unwrap_or(0.01)))
    } else {
        None
    }
}

fn run(p: &cli::Parsed) -> i32 {
    let [model, app, ..] = p.positionals.as_slice() else {
        usage();
    };
    let wl = parse_app(app);
    let mut req = SimRequest::model(parse_model(model)).insts(insts_or_default(p));
    if let Some(plan) = fault_plan(p) {
        req = req.faults(plan);
    }
    let r = req.run(&wl);
    if p.switch("--json") {
        print!("{}", r.to_json().to_json_pretty());
    } else {
        print_human(&r);
        if let Some(fr) = &r.faults {
            println!(
                "  faults           {} injected / {} caught / {} benign (reconciled: {})",
                fr.counters.total_injected(),
                fr.counters.total_caught(),
                fr.counters.total_benign(),
                fr.reconciles()
            );
        }
    }
    0
}

/// Run the admission-controlled HTTP simulation service (DESIGN.md §19)
/// over the real backend until killed.
fn serve(p: &cli::Parsed) -> i32 {
    use parrot_serve::{serve, ServerConfig};

    let mut cfg = ServerConfig::default();
    if let Some(addr) = p.value("--addr") {
        cfg.addr = addr.to_string();
    }
    // The sweep pool already parallelizes inside one job; a couple of
    // service workers is about concurrency between jobs, not speed.
    cfg.workers = parrot_bench::jobs().clamp(1, 4);
    if let Some(n) = flag(p.usize_value("--queue-cap")) {
        cfg.admission.queue_cap = n;
    }
    if let Some(n) = flag(p.usize_value("--shed-mark")) {
        cfg.admission.shed_mark = n;
    }
    if let Some(n) = flag(p.usize_value("--cache-cap")) {
        cfg.cache_cap = n;
    }
    let handle = match serve(cfg, parrot_bench::serve_backend::Backend::new()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            return 1;
        }
    };
    println!("parrot serve: listening on http://{}", handle.addr());
    println!("  POST /v1/jobs | GET /v1/jobs/:id | GET /v1/results/:fp | GET /v1/healthz | GET /v1/metrics");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Run a seeded fault-injection soak campaign across every registered
/// application, record `results/soak.json`, and print the campaign table.
/// Nonzero exit when any run's committed store log diverged from its
/// fault-free twin or the fault accounting failed to reconcile — this is
/// the CI gate for "degrade, never die".
fn soak(p: &cli::Parsed) -> i32 {
    use parrot_bench::soak::{run_soak, soak_path, SoakConfig};
    let mut cfg = SoakConfig::from_env();
    if let Some(m) = p.value("--model") {
        cfg = cfg.model(parse_model(m));
    }
    if let Some(s) = flag(p.u64_value("--seed")) {
        cfg = cfg.seed(s);
    }
    if let Some(n) = flag(p.u64_value("--insts")) {
        cfg = cfg.insts(n);
    }
    if let Some(spec) = p.value("--rates") {
        let rates: Vec<f64> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if rates.is_empty() {
            eprintln!("--rates expects a comma-separated list of probabilities");
            return 2;
        }
        cfg = cfg.rates(&rates);
    }
    let report = run_soak(&cfg);
    let path = soak_path();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(&path, report.to_json().to_json_pretty());
    if p.switch("--json") {
        print!("{}", report.to_json().to_json_pretty());
    } else {
        println!("{}", report.markdown());
    }
    parrot_telemetry::status!("(written to {})", path.display());
    if report.passed() {
        0
    } else {
        eprintln!("soak FAILED: store-log divergence or unreconciled fault accounting");
        1
    }
}

/// Measure committed-instructions-per-second for every model with and
/// without telemetry sinks. Default: rewrite the `BENCH_cips.json`
/// baseline at the repository root (or `--out FILE`). With `--check`:
/// leave the baseline untouched, write the fresh numbers to `--out FILE`
/// if given, and exit nonzero when any model regressed more than the
/// tolerance (default 10%) below the baseline — the CI perf gate.
fn bench(p: &cli::Parsed) -> i32 {
    use parrot_bench::cips;
    let insts = flag(p.u64_value("--insts")).unwrap_or(cips::DEFAULT_BENCH_INSTS);
    let tolerance = flag(p.f64_value("--tolerance")).unwrap_or(cips::REGRESSION_TOLERANCE);
    let out = p.value("--out").map(std::path::PathBuf::from);
    let fresh = cips::measure(insts);
    println!("{}", fresh.markdown());
    if !p.switch("--check") {
        let path = out.unwrap_or_else(cips::baseline_path);
        if let Err(e) = std::fs::write(&path, fresh.to_json().to_json_pretty()) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            return 1;
        }
        parrot_telemetry::status!("bench: recorded baseline at {}", path.display());
        return 0;
    }
    if let Some(path) = &out {
        let _ = std::fs::write(path, fresh.to_json().to_json_pretty());
        parrot_telemetry::status!("bench: fresh measurement written to {}", path.display());
    }
    let base_path = cips::baseline_path();
    let baseline = std::fs::read_to_string(&base_path)
        .ok()
        .and_then(|t| parrot_telemetry::json::parse(&t).ok())
        .as_ref()
        .and_then(cips::BenchReport::from_json);
    let Some(baseline) = baseline else {
        eprintln!(
            "bench: no readable baseline at {} (run `parrot bench` and commit it)",
            base_path.display()
        );
        return 1;
    };
    if baseline.insts_per_run != fresh.insts_per_run {
        eprintln!(
            "bench: warning: baseline measured at {} insts/run, fresh at {} — \
             comparing rates anyway",
            baseline.insts_per_run, fresh.insts_per_run
        );
    }
    let regs = cips::regressions(&baseline, &fresh, tolerance);
    if regs.is_empty() {
        println!(
            "bench: PASS — no model regressed more than {:.0}% vs {}",
            tolerance * 100.0,
            base_path.display()
        );
        0
    } else {
        eprintln!("bench: FAIL — CIPS regressions vs {}:", base_path.display());
        for r in &regs {
            eprintln!("  {r}");
        }
        eprintln!("(intentional? re-record with `parrot bench` and commit BENCH_cips.json)");
        1
    }
}

fn compare(p: &cli::Parsed) -> i32 {
    let [a, b, app, ..] = p.positionals.as_slice() else {
        usage();
    };
    let wl = parse_app(app);
    let insts = insts_or_default(p);
    let ra = SimRequest::model(parse_model(a)).insts(insts).run(&wl);
    let rb = SimRequest::model(parse_model(b)).insts(insts).run(&wl);
    println!("{:<20}{:>12}{:>12}{:>10}", app, ra.model, rb.model, "delta");
    let row = |label: &str, x: f64, y: f64, pct: bool| {
        let delta = if x != 0.0 { (y / x - 1.0) * 100.0 } else { 0.0 };
        if pct {
            println!("{label:<20}{x:>11.2}%{y:>11.2}%{delta:>+9.1}%");
        } else {
            println!("{label:<20}{x:>12.3}{y:>12.3}{delta:>+9.1}%");
        }
    };
    row("IPC", ra.ipc(), rb.ipc(), false);
    row("energy", ra.energy, rb.energy, false);
    row(
        "branch mispredict",
        ra.branch_mispredict_rate() * 100.0,
        rb.branch_mispredict_rate() * 100.0,
        true,
    );
    let cmpw = cmpw_relative(&ra.summary(), &rb.summary());
    println!(
        "{:<20}{:>34}{:>+9.1}%",
        "CMPW (b vs a)",
        "",
        (cmpw - 1.0) * 100.0
    );
    0
}

/// Whole-program static analysis: CFG recovery, dominators, natural
/// loops, hotness, and reuse classification for one app or all 44.
/// `--json` prints the full deterministic report(s); `--out DIR` writes
/// one `<app>.json` per app (the artifact the CI determinism job diffs).
fn analyze(p: &cli::Parsed) -> i32 {
    use parrot_workloads::generate_program;

    let json = p.switch("--json");
    let out_dir = p.value("--out").map(std::path::PathBuf::from);
    let Some(profiles) = profiles_of(p) else {
        usage();
    };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("analyze: cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    if !json {
        println!(
            "{:<16}{:>6}{:>8}{:>7}{:>7}{:>7}{:>7}{:>7}{:>6}{:>6}{:>6}{:>6}",
            "app",
            "funcs",
            "blocks",
            "loops",
            "depth",
            "irred",
            "unrch",
            "heads",
            "hi",
            "med",
            "lo",
            "warns"
        );
    }
    let mut all_reports: std::collections::BTreeMap<String, parrot_telemetry::json::Value> =
        std::collections::BTreeMap::new();
    let mut failures = 0u32;
    for p in &profiles {
        let prog = generate_program(p);
        let pa = match parrot_analysis::analyze(&prog) {
            Ok(pa) => pa,
            Err(e) => {
                eprintln!("{}: analysis error: {e}", p.name);
                failures += 1;
                continue;
            }
        };
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.json", p.name));
            if let Err(e) = std::fs::write(&path, pa.report_string(p.name)) {
                eprintln!("analyze: cannot write {}: {e}", path.display());
                failures += 1;
            }
        }
        if json {
            all_reports.insert(p.name.to_string(), pa.report(p.name));
        } else {
            let blocks: u32 = pa.funcs.iter().map(|f| f.num_blocks).sum();
            let irred: u32 = pa.funcs.iter().map(|f| f.irreducible_edges).sum();
            let unreach: u32 = pa.funcs.iter().map(|f| f.unreachable).sum();
            let (hi, med, lo) = pa.class_counts();
            println!(
                "{:<16}{:>6}{:>8}{:>7}{:>7}{:>7}{:>7}{:>7}{:>6}{:>6}{:>6}{:>6}",
                p.name,
                pa.funcs.len(),
                blocks,
                pa.num_loops,
                pa.max_loop_depth,
                irred,
                unreach,
                pa.heads.len(),
                hi,
                med,
                lo,
                pa.warnings.len()
            );
        }
    }
    if json {
        let v = if profiles.len() == 1 {
            all_reports
                .into_values()
                .next()
                .unwrap_or(parrot_telemetry::json::Value::Null)
        } else {
            parrot_telemetry::json::Value::Obj(all_reports)
        };
        print!("{}", v.to_json_pretty());
    }
    i32::from(failures > 0)
}

/// Lint constructed and optimized traces for one app (or all 44) without
/// running a full simulation: select and construct frames from the cold
/// execution stream, run the uop-IR lint suite before and after the full
/// pass pipeline, and tally the validation-gate verdicts. Nonzero exit on
/// any lint error.
fn lint_traces(p: &cli::Parsed) -> i32 {
    use parrot_opt::{validate, GateDecision, Optimizer, OptimizerConfig};
    use parrot_telemetry::metrics;
    use parrot_trace::{construct_frame, SelectionConfig, TraceSelector};
    use parrot_workloads::{generate_program, ExecutionEngine};

    let insts = flag(p.u64_value("--insts")).unwrap_or(30_000) as usize;
    let Some(profiles) = profiles_of(p) else {
        usage();
    };
    println!(
        "{:<16}{:>8}{:>9}{:>11}{:>9}{:>7}{:>7}",
        "app", "frames", "uops", "validated", "demoted", "errs", "struct"
    );
    let (mut total_frames, mut total_errors, mut total_struct) = (0u64, 0u64, 0u64);
    for p in &profiles {
        let prog = generate_program(p);
        let decoded = prog.decode_all();
        // Structural lints come from the static analyzer; if the program
        // is malformed the uop lints below still run, just without the
        // structural pass.
        let pa = parrot_analysis::analyze(&prog).ok();
        let mut sel = TraceSelector::new(SelectionConfig::default());
        let mut cands = Vec::new();
        for (seq, d) in ExecutionEngine::new(&prog).take(insts).enumerate() {
            let kind = prog.inst(d.inst).kind;
            sel.step(&d, &kind, seq as u64, &mut cands);
        }
        sel.flush(&mut cands);
        let mut optz = Optimizer::new(OptimizerConfig::full());
        let (mut validated, mut demoted, mut errors, mut uops) = (0u64, 0u64, 0u64, 0u64);
        let mut structural = 0u64;
        let report =
            |stage: &str, app: &str, tid: &dyn std::fmt::Display, f: &validate::lint::Finding| {
                if f.severity == validate::lint::Severity::Error {
                    eprintln!("{app}/{tid} ({stage}): {f}");
                    1
                } else {
                    0
                }
            };
        for c in &cands {
            let mut frame = construct_frame(c, &decoded);
            uops += frame.uops.len() as u64;
            if let Some(pa) = &pa {
                // Advisory only: structural lints flag traces the static
                // analyzer predicts won't close or re-enter, but they are
                // not uop-IR correctness errors and never fail the run.
                let pcs: Vec<u64> = frame.path.iter().map(|&(pc, _)| pc).collect();
                structural += pa.lint_trace(frame.tid.start_pc, &pcs).len() as u64;
            }
            for f in &validate::lint::lint_frame(&frame) {
                errors += report("constructed", p.name, &frame.tid, f);
            }
            match optz.optimize(&mut frame, 0).gate {
                GateDecision::Validated => validated += 1,
                _ => demoted += 1,
            }
            for f in &validate::lint::lint_frame(&frame) {
                errors += report("post-opt", p.name, &frame.tid, f);
            }
        }
        metrics::counter_add("lint:frames", cands.len() as u64);
        metrics::counter_add("lint:errors", errors);
        metrics::counter_add("lint:structural", structural);
        total_frames += cands.len() as u64;
        total_errors += errors;
        total_struct += structural;
        println!(
            "{:<16}{:>8}{:>9}{:>11}{:>9}{:>7}{:>7}",
            p.name,
            cands.len(),
            uops,
            validated,
            demoted,
            errors,
            structural
        );
    }
    println!(
        "{total_frames} frames linted, {total_errors} lint errors, \
         {total_struct} structural warnings (advisory)"
    );
    i32::from(total_errors > 0)
}

/// Capture one app (or all 44) into `.ptrace` files under the corpus
/// directory (default `corpus/`, the convention `parrot replay APP` and
/// `SweepConfig::replay_dir` read from). Prints per-app size accounting.
fn capture(p: &cli::Parsed) -> i32 {
    use parrot_workloads::tracefmt::{self, DEFAULT_SLICE_INSTS};

    let insts = insts_or_default(p);
    let slice = flag(p.u64_value("--slice"))
        .map(|s| s as u32)
        .unwrap_or(DEFAULT_SLICE_INSTS);
    let out = p.value("--out").map(std::path::PathBuf::from);
    let dir = p
        .value("--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(parrot_bench::corpus_dir);
    let Some(profiles) = profiles_of(p) else {
        usage();
    };
    if out.is_some() && profiles.len() > 1 {
        eprintln!("--out names a single file; use --dir with --all");
        return 2;
    }
    println!(
        "{:<16}{:>10}{:>12}{:>11}  file",
        "app", "insts", "bytes", "bits/inst"
    );
    for p in &profiles {
        let wl = Workload::build(p);
        let trace = match tracefmt::capture(&wl, insts, slice) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("capture {} failed: {e}", p.name);
                return 1;
            }
        };
        let path = out
            .clone()
            .unwrap_or_else(|| parrot_bench::corpus_file(&dir, p.name));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, trace.bytes()) {
            eprintln!("capture {}: cannot write {}: {e}", p.name, path.display());
            return 1;
        }
        println!(
            "{:<16}{:>10}{:>12}{:>11.2}  {}",
            p.name,
            trace.inst_count(),
            trace.bytes().len(),
            trace.bits_per_inst(),
            path.display()
        );
    }
    0
}

/// Replay a `.ptrace` capture through a machine model. The argument is a
/// file path, or an app name resolved to `corpus/<app>.ptrace`. With
/// `--verify`, the committed stream is re-decoded fallibly and the report
/// is byte-compared against a live-engine twin (nonzero exit on any
/// divergence).
fn replay(p: &cli::Parsed) -> i32 {
    use parrot_workloads::tracefmt::{decode_all, TraceFile};
    use std::sync::Arc;

    let Some(target) = p.positionals.first() else {
        usage();
    };
    let path = if std::path::Path::new(target).is_file() {
        std::path::PathBuf::from(target)
    } else if app_by_name(target).is_some() {
        parrot_bench::corpus_file(&parrot_bench::corpus_dir(), target)
    } else {
        eprintln!("'{target}' is neither a trace file nor a registered app");
        return 2;
    };
    let trace = match TraceFile::open(&path) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            eprintln!("replay: {e}");
            return 1;
        }
    };
    let Some(profile) = app_by_name(trace.app_name()) else {
        eprintln!(
            "replay: trace was captured from unknown app '{}'",
            trace.app_name()
        );
        return 1;
    };
    let wl = Workload::build(&profile);
    if let Err(e) = trace.check_source(&wl) {
        eprintln!("replay: {e}");
        return 1;
    }
    let insts = flag(p.u64_value("--insts")).unwrap_or_else(|| trace.inst_count());
    let model = p.value("--model").map(parse_model).unwrap_or(Model::TOW);
    let mut req = SimRequest::model(model)
        .insts(insts)
        .replay(Arc::clone(&trace));
    let plan = fault_plan(p);
    if let Some(plan) = plan.clone() {
        req = req.faults(plan);
    }
    if let Err(e) = req.validate_replay(&wl) {
        eprintln!("replay: {e}");
        return 1;
    }
    let r = req.run(&wl);
    if p.switch("--json") {
        print!("{}", r.to_json().to_json_pretty());
    } else {
        print_human(&r);
        println!("  replayed from    {}", path.display());
    }
    if !p.switch("--verify") {
        return 0;
    }
    // Full fallible decode, stream diff, and report diff vs the live twin.
    let decoded = match decode_all(&trace, &wl) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("verify: decode failed: {e}");
            return 1;
        }
    };
    let live_stream: Vec<_> = wl.engine().take(decoded.len()).collect();
    if decoded != live_stream {
        eprintln!("verify: FAIL — replayed committed stream diverges from the live engine");
        return 1;
    }
    let mut live_req = SimRequest::model(model).insts(insts);
    if let Some(plan) = plan {
        live_req = live_req.faults(plan);
    }
    let live = live_req.run(&wl);
    if live.to_json().to_json() != r.to_json().to_json() {
        eprintln!("verify: FAIL — replayed report differs from the live-engine report");
        return 1;
    }
    println!(
        "verify: PASS — {} instructions and the {} report are byte-identical to the live engine",
        decoded.len(),
        model.name()
    );
    0
}

/// SimPoint-style phase-sampling fidelity measurement: run every model
/// full and sampled for the named apps (or all 44), merge the per-app
/// records into `results/sampling.json` (refusing to mix configurations
/// unless `--fresh` starts the file over), print the per-suite table, and
/// — when `--tol` is given — fail if any per-suite geomean error exceeds
/// the tolerance.
fn sample(p: &cli::Parsed) -> i32 {
    use parrot_bench::sample::{self, SampleReport};
    use parrot_core::SamplingSpec;

    let insts = insts_or_default(p);
    let mut spec = SamplingSpec::default();
    if let Some(n) = flag(p.u64_value("--interval")) {
        spec.interval = n;
    }
    if let Some(n) = flag(p.u64_value("--warmup")) {
        spec.warmup = n;
    }
    if let Some(k) = flag(p.u64_value("--k")) {
        spec.max_k = k as usize;
    }
    let profiles = if p.switch("--all") {
        all_apps()
    } else {
        let named: Vec<_> = p.positionals.iter().map(|a| parse_profile(a)).collect();
        if named.is_empty() {
            usage();
        }
        named
    };
    let path = p
        .value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(sample::sampling_path);
    let mut report = match SampleReport::load(&path) {
        Some(_) if p.switch("--fresh") => SampleReport::new(insts, spec.clone()),
        Some(existing) => {
            if !existing.compatible(insts, &spec) {
                eprintln!(
                    "sample: {} was measured at a different configuration \
                     (insts {}, {}); re-run with --fresh to start it over",
                    path.display(),
                    existing.insts,
                    existing.spec.cache_tag()
                );
                return 2;
            }
            existing
        }
        None => SampleReport::new(insts, spec.clone()),
    };
    report.merge(sample::run_sample(&profiles, insts, &spec));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, report.to_json().to_json_pretty()) {
        eprintln!("sample: cannot write {}: {e}", path.display());
        return 1;
    }
    if p.switch("--json") {
        print!("{}", report.to_json().to_json_pretty());
    } else {
        println!("{}", report.markdown());
    }
    parrot_telemetry::status!("(written to {})", path.display());
    let Some(tol) = flag(p.f64_value("--tol")) else {
        return 0;
    };
    let violations = sample::gate(&report, tol);
    if violations.is_empty() {
        println!(
            "sample: PASS — every per-suite geomean error within {:.2}%",
            tol * 100.0
        );
        0
    } else {
        eprintln!("sample: FAIL — fidelity gate violations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        1
    }
}

fn sweep(p: &cli::Parsed) -> i32 {
    let Some(app) = p.positionals.first() else {
        usage();
    };
    let profile = parse_profile(app);
    let insts = insts_or_default(p);
    let cfg = parrot_bench::SweepConfig::new().insts(insts);
    if p.switch("--json") {
        // The same function the serve backend runs for a one-app sweep
        // job: stdout here is byte-identical to that job's result body.
        let doc = parrot_bench::serve_backend::sweep_app_doc(&profile, &cfg);
        print!("{}", doc.to_json_pretty());
        return 0;
    }
    println!(
        "{:<6}{:>9}{:>12}{:>10}{:>10}",
        "model", "IPC", "energy", "cov", "tmr"
    );
    for r in cfg.run_app(&Workload::build(&profile)).0 {
        let (cov, tmr) = r
            .trace
            .as_ref()
            .map(|t| (t.coverage * 100.0, t.trace_mispredict_rate() * 100.0))
            .unwrap_or((0.0, 0.0));
        println!(
            "{:<6}{:>9.3}{:>12.0}{:>9.1}%{:>9.2}%",
            r.model,
            r.ipc(),
            r.energy,
            cov,
            tmr
        );
    }
    0
}
