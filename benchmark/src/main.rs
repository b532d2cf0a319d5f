//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! parrot-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! The last line of stdout is the result: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics). The line before it records provenance and every
//! check. A table for people goes to stderr. A traced run also writes its
//! spans as a Chrome trace (default `.bench_out/NAME-seedN.trace.json`).

use parrot_benchmark::metrics::registry;
use parrot_benchmark::{digest, end_to_end, per_layer, run, sims, spans, Ctx, Outcome};
use parrot_telemetry::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: parrot-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]\n\
         workloads: {}",
        registry().workloads.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !registry().workloads.contains(&a.workload) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, o: &Outcome) -> Value {
    let checks = o
        .checks
        .iter()
        .map(|(name, ok)| ((*name).to_string(), Value::Bool(*ok)))
        .collect();
    let passes = o
        .passes
        .iter()
        .map(|p| {
            Value::obj([
                ("wall_s", Value::Num(p.wall_s)),
                ("insts", Value::int(p.insts)),
                ("ops", Value::int(p.ops)),
                ("traced", Value::Bool(p.traced)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::int(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.trace)),
        ("commit", Value::Str(git_commit())),
        (
            "nproc",
            Value::int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("budgets", Value::obj(o.budgets.clone())),
        ("sweep_fingerprint", Value::Str(sims::sweep_fingerprint())),
        (
            "sim_digest",
            Value::Str(format!("{:016x}", digest(&o.reports))),
        ),
        ("checks", Value::Obj(checks)),
        ("passes", Value::Arr(passes)),
        ("op_samples", Value::int(o.op_ms.len() as u64)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let o = run(&args.workload, &mut ctx).expect("workload name validated");
    let (metrics, table) = if args.trace {
        (per_layer(&o, &ctx), &registry().per_layer)
    } else {
        (end_to_end(&o), &registry().end_to_end)
    };
    let prov = provenance(&args, &o);

    eprintln!(
        "{} seed {}: {} ({} of {} operations failed)",
        args.workload,
        args.seed,
        if o.correct() { "correct" } else { "INCORRECT" },
        o.failed,
        o.attempted
    );
    for (name, ok) in &o.checks {
        eprintln!("  check {name:<28} {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, unit) in table {
        let v = metrics.get(name).unwrap_or(0.0);
        eprintln!("  {name:<36} {v:>16.6} {unit}");
    }
    if args.trace {
        let layers = spans::by_name(ctx.rec.spans());
        eprintln!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        );
        let mut self_ms = Vec::new();
        for (name, (calls, total, own)) in &layers {
            eprintln!(
                "  {name:<28} {calls:>8} {:>12.3} {:>12.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
            self_ms.push(((*name).to_string(), Value::Num(*own as f64 / 1e6)));
        }
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_out")
                .join(format!("{}-seed{}.trace.json", args.workload, args.seed))
        });
        let mut layer_ms = Vec::new();
        for (layer, own) in spans::layer_self_ns(ctx.rec.spans()) {
            eprintln!("  layer {layer:<22} self {:>12.3} ms", own as f64 / 1e6);
            layer_ms.push((layer.to_string(), Value::Num(own as f64 / 1e6)));
        }
        let other = Value::obj([
            ("provenance", prov.clone()),
            ("span_self_ms", Value::Obj(self_ms.into_iter().collect())),
            ("layer_self_ms", Value::Obj(layer_ms.into_iter().collect())),
        ]);
        let doc = spans::chrome_trace(ctx.rec.spans(), other);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, doc.to_json()));
        match written {
            Ok(()) => eprintln!("  trace written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }

    println!("{}", Value::obj([("provenance", prov)]).to_json());
    let result = Value::obj([
        ("correct", Value::Bool(o.correct())),
        ("attempted", Value::int(o.attempted)),
        ("failed", Value::int(o.failed)),
        ("metrics", metrics.to_json(table)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
