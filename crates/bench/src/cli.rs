//! Shared telemetry plumbing for the bench binaries.
//!
//! Every binary accepts the same observability flags:
//!
//! - `--trace-out FILE`   — write a Chrome/Perfetto trace-event JSON file
//!   of the run (fetch phases, trace lifecycle, optimizer jobs).
//! - `--sample N`         — keep 1-in-N trace events per event name (with
//!   exact per-name correction counts in the file's `eventStats`
//!   metadata); metrics counters are unaffected by sampling.
//! - `--metrics-out FILE` — write JSONL metric snapshots taken every
//!   `--metrics-interval N` committed instructions (default 10000).
//! - `--profile`          — print a wall-clock self/total profile of the
//!   simulator itself to stderr on exit, with p50/p95/max per scope and
//!   sampled cycle-loop stage attribution (parallel sweeps add per-worker
//!   attribution). Combined with `--trace-out FILE.json`, also writes a
//!   collapsed-stack flamegraph file next to it (`FILE.folded`).
//! - `--jobs N`           — sweep worker threads (default
//!   `available_parallelism`, env `PARROT_JOBS`).
//! - `-v` / `-q`          — verbose / quiet logging (stderr only; stdout
//!   stays reserved for figure and table data).
//!
//! Usage pattern: call [`Telemetry::from_args`] first thing in `main`,
//! run the experiment with the returned (flag-stripped) arguments, then
//! call [`Telemetry::finish`] last:
//!
//! ```no_run
//! use parrot_bench::cli::Telemetry;
//!
//! let (telemetry, args) = Telemetry::from_args(std::env::args().skip(1).collect());
//! // ... run the experiment with the flag-stripped `args` ...
//! # let _ = args;
//! telemetry.finish(); // writes --trace-out/--metrics-out, prints --profile
//! ```

use parrot_telemetry::log::{self, Level};
use parrot_telemetry::{metrics, profile, status, trace};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Default ring capacity of the event tracer (events, not bytes). Oldest
/// events are dropped past this; the drop count is recorded in the file.
pub const TRACE_CAP: usize = 1 << 18;

/// Default metric-snapshot interval in committed instructions.
pub const METRICS_INTERVAL: u64 = 10_000;

/// Telemetry sinks requested on the command line. Created by
/// [`Telemetry::from_args`]; flushed by [`Telemetry::finish`].
pub struct Telemetry {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    profile: bool,
}

impl Telemetry {
    /// Strip the telemetry flags out of `args`, install the matching
    /// thread-local sinks, and return the handle plus the remaining
    /// (telemetry-free) arguments for the binary's own parser.
    ///
    /// Exits with a usage error on a flag missing its value. The sinks
    /// are thread-local; the sweep harness (`ResultSet::run_sweep_with`)
    /// shards them per work item across its workers and drains the shards
    /// deterministically at work-item boundaries, so sweeps stay parallel
    /// while being captured (see `parrot_telemetry::shard`).
    pub fn from_args(args: Vec<String>) -> (Telemetry, Vec<String>) {
        let mut t = Telemetry {
            trace_out: None,
            metrics_out: None,
            profile: false,
        };
        let mut interval = METRICS_INTERVAL;
        let mut sample = 1u32;
        let mut rest = Vec::with_capacity(args.len());
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut path_value = |flag: &str| -> PathBuf {
                it.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("{flag} requires a file argument");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--trace-out" => t.trace_out = Some(path_value("--trace-out")),
                "--metrics-out" => t.metrics_out = Some(path_value("--metrics-out")),
                "--metrics-interval" => {
                    let v = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--metrics-interval requires a positive integer");
                        std::process::exit(2);
                    });
                    interval = v;
                }
                "--sample" => {
                    let n = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--sample requires a positive integer");
                            std::process::exit(2);
                        });
                    sample = n;
                }
                "--profile" => t.profile = true,
                "--jobs" => {
                    let n = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--jobs requires a positive integer");
                            std::process::exit(2);
                        });
                    crate::set_jobs(n);
                }
                "-v" | "--verbose" => log::set_level(Level::Verbose),
                "-q" | "--quiet" => log::set_level(Level::Quiet),
                _ => rest.push(a),
            }
        }
        if t.trace_out.is_some() {
            let mut tr = trace::Tracer::new(TRACE_CAP);
            tr.set_sample(sample);
            trace::install(tr);
        }
        if t.metrics_out.is_some() {
            metrics::install(metrics::MetricsHub::new(interval));
        }
        if t.profile {
            profile::install(profile::Profiler::new());
        }
        (t, rest)
    }

    /// Flush every installed sink: write the trace-event JSON and metrics
    /// JSONL files, print the profile table to stderr, and — when both
    /// `--profile` and `--trace-out` were given — write the collapsed-
    /// stack flamegraph text next to the trace file.
    pub fn finish(self) {
        if let Some(path) = &self.trace_out {
            if let Some(tr) = trace::take() {
                match std::fs::write(path, tr.to_chrome_json()) {
                    Ok(()) => status!("telemetry: wrote trace events to {}", path.display()),
                    Err(e) => eprintln!("telemetry: cannot write {}: {e}", path.display()),
                }
            }
        }
        if let Some(path) = &self.metrics_out {
            if let Some(hub) = metrics::take() {
                match std::fs::write(path, hub.to_jsonl()) {
                    Ok(()) => status!(
                        "telemetry: wrote {} metric snapshots to {}",
                        hub.rows(),
                        path.display()
                    ),
                    Err(e) => eprintln!("telemetry: cannot write {}: {e}", path.display()),
                }
            }
        }
        if self.profile {
            if let Some(p) = profile::take() {
                eprint!("{}", p.report());
                if let Some(trace_path) = &self.trace_out {
                    let folded = trace_path.with_extension("folded");
                    match std::fs::write(&folded, p.collapsed()) {
                        Ok(()) => status!(
                            "telemetry: wrote collapsed stacks to {} (feed to inferno/flamegraph.pl)",
                            folded.display()
                        ),
                        Err(e) => eprintln!("telemetry: cannot write {}: {e}", folded.display()),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The subcommand table. Every `parrot` subcommand declares its flags here
// once; the parser, the `usage` text, and `parrot help <cmd>` are all
// generated from this table, so they cannot drift apart. Shared flags
// (`--json`, `--insts`, `--out`, `--all`, ...) are single `FlagSpec`
// constants referenced by every command that takes them; `--jobs`/`-v`/`-q`
// and the telemetry sinks are shared one level up, in
// [`Telemetry::from_args`], before the table parser ever sees the args.
// ---------------------------------------------------------------------------

/// One flag in a subcommand's schema.
#[derive(Clone, Copy)]
pub struct FlagSpec {
    /// The flag itself, e.g. `--insts`.
    pub name: &'static str,
    /// Placeholder for the value it consumes (`None` for boolean switches).
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// One `parrot` subcommand.
#[derive(Clone, Copy)]
pub struct CommandSpec {
    /// Subcommand name.
    pub name: &'static str,
    /// Positional-argument synopsis, e.g. `<MODEL> <APP>`.
    pub positional: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Accepted flags.
    pub flags: &'static [FlagSpec],
}

const FLAG_JSON: FlagSpec = FlagSpec {
    name: "--json",
    value: None,
    help: "machine-readable JSON output",
};
const FLAG_INSTS: FlagSpec = FlagSpec {
    name: "--insts",
    value: Some("N"),
    help: "committed-instruction budget",
};
const FLAG_OUT: FlagSpec = FlagSpec {
    name: "--out",
    value: Some("PATH"),
    help: "write the artifact here instead of the default location",
};
const FLAG_ALL: FlagSpec = FlagSpec {
    name: "--all",
    value: None,
    help: "every registered application",
};
const FLAG_MODEL: FlagSpec = FlagSpec {
    name: "--model",
    value: Some("M"),
    help: "machine model (N W TN TW TON TOW TOS)",
};
const FLAG_FAULT_SEED: FlagSpec = FlagSpec {
    name: "--fault-seed",
    value: Some("S"),
    help: "arm fault injection with this seed",
};
const FLAG_FAULT_RATE: FlagSpec = FlagSpec {
    name: "--fault-rate",
    value: Some("R"),
    help: "per-opportunity fault probability",
};

/// Every `parrot` subcommand, in help order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "list-apps",
        positional: "",
        summary: "the 44 registered applications",
        flags: &[],
    },
    CommandSpec {
        name: "list-models",
        positional: "",
        summary: "the 7 machine models",
        flags: &[],
    },
    CommandSpec {
        name: "run",
        positional: "<MODEL> <APP>",
        summary: "one simulation",
        flags: &[FLAG_INSTS, FLAG_JSON, FLAG_FAULT_SEED, FLAG_FAULT_RATE],
    },
    CommandSpec {
        name: "compare",
        positional: "<MODEL> <MODEL> <APP>",
        summary: "two models side by side with deltas",
        flags: &[FLAG_INSTS],
    },
    CommandSpec {
        name: "sweep",
        positional: "<APP>",
        summary: "all models on one application",
        flags: &[FLAG_INSTS, FLAG_JSON],
    },
    CommandSpec {
        name: "fig",
        positional: "<ID>",
        summary: "one paper figure or table as markdown, from the cached sweep",
        flags: &[],
    },
    CommandSpec {
        name: "analyze",
        positional: "<APP>",
        summary: "whole-program CFG/loop analysis",
        flags: &[FLAG_ALL, FLAG_JSON, FLAG_OUT],
    },
    CommandSpec {
        name: "lint-traces",
        positional: "<APP>",
        summary: "uop-IR lint + validation gate",
        flags: &[FLAG_ALL, FLAG_INSTS],
    },
    CommandSpec {
        name: "soak",
        positional: "",
        summary: "seeded fault-injection campaign",
        flags: &[
            FLAG_MODEL,
            FlagSpec {
                name: "--seed",
                value: Some("S"),
                help: "campaign seed",
            },
            FlagSpec {
                name: "--rates",
                value: Some("R1,R2,.."),
                help: "comma-separated fault rates",
            },
            FLAG_INSTS,
            FLAG_JSON,
        ],
    },
    CommandSpec {
        name: "capture",
        positional: "<APP>",
        summary: "write .ptrace captures",
        flags: &[
            FLAG_ALL,
            FLAG_INSTS,
            FlagSpec {
                name: "--slice",
                value: Some("N"),
                help: "instructions per compressed slice",
            },
            FlagSpec {
                name: "--dir",
                value: Some("DIR"),
                help: "corpus directory (default corpus/)",
            },
            FLAG_OUT,
        ],
    },
    CommandSpec {
        name: "replay",
        positional: "<FILE | APP>",
        summary: "replay a capture through a model",
        flags: &[
            FLAG_MODEL,
            FLAG_INSTS,
            FLAG_JSON,
            FlagSpec {
                name: "--verify",
                value: None,
                help: "diff stream and report against the live engine",
            },
            FLAG_FAULT_SEED,
            FLAG_FAULT_RATE,
        ],
    },
    CommandSpec {
        name: "sample",
        positional: "<APP..>",
        summary: "sampled-vs-full fidelity measurement",
        flags: &[
            FLAG_ALL,
            FLAG_INSTS,
            FlagSpec {
                name: "--interval",
                value: Some("N"),
                help: "sampling interval (instructions)",
            },
            FlagSpec {
                name: "--warmup",
                value: Some("N"),
                help: "detailed warmup per sample",
            },
            FlagSpec {
                name: "--k",
                value: Some("K"),
                help: "max phase clusters",
            },
            FlagSpec {
                name: "--tol",
                value: Some("T"),
                help: "fail if any per-suite geomean error exceeds T",
            },
            FLAG_OUT,
            FlagSpec {
                name: "--fresh",
                value: None,
                help: "start the merged report file over",
            },
            FLAG_JSON,
        ],
    },
    CommandSpec {
        name: "serve",
        positional: "",
        summary: "admission-controlled HTTP simulation service",
        flags: &[
            FlagSpec {
                name: "--addr",
                value: Some("HOST:PORT"),
                help: "bind address (default 127.0.0.1:8040)",
            },
            FlagSpec {
                name: "--queue-cap",
                value: Some("N"),
                help: "max jobs queued or running (default 64)",
            },
            FlagSpec {
                name: "--shed-mark",
                value: Some("N"),
                help: "load at which sim/sweep jobs shed to sampled mode (default 16)",
            },
            FlagSpec {
                name: "--cache-cap",
                value: Some("N"),
                help: "result-cache capacity in documents (default 64)",
            },
        ],
    },
    CommandSpec {
        name: "help",
        positional: "[<COMMAND>]",
        summary: "this message, or one command's full schema",
        flags: &[],
    },
];

/// Look up a subcommand in the table.
pub fn command(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Arguments parsed against one [`CommandSpec`].
#[derive(Default, Debug)]
pub struct Parsed {
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Parsed {
    /// Was this boolean switch given?
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The raw value of a value-taking flag, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A `u64` flag value. `Err` if given but unparseable.
    pub fn u64_value(&self, name: &str) -> Result<Option<u64>, String> {
        self.typed(name)
    }

    /// An `f64` flag value. `Err` if given but unparseable.
    pub fn f64_value(&self, name: &str) -> Result<Option<f64>, String> {
        self.typed(name)
    }

    /// A `usize` flag value. `Err` if given but unparseable.
    pub fn usize_value(&self, name: &str) -> Result<Option<usize>, String> {
        self.typed(name)
    }

    fn typed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {raw:?}")),
        }
    }
}

/// Parse `args` against `spec`. Unknown flags and missing flag values are
/// errors (with the command's generated help appended), not silently
/// ignored.
pub fn parse_command(spec: &CommandSpec, args: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            out.positionals.push(a.clone());
            continue;
        }
        let Some(flag) = spec.flags.iter().find(|f| f.name == a.as_str()) else {
            return Err(format!(
                "{}: unknown flag {a}\n{}",
                spec.name,
                help_text(spec)
            ));
        };
        match flag.value {
            None => out.switches.push(flag.name),
            Some(placeholder) => match it.next() {
                Some(v) => {
                    out.values.insert(flag.name, v.clone());
                }
                None => {
                    return Err(format!(
                        "{}: {} requires a value <{placeholder}>",
                        spec.name, flag.name
                    ));
                }
            },
        }
    }
    Ok(out)
}

/// The one-line synopsis of a command (used in the overall usage).
pub fn synopsis(spec: &CommandSpec) -> String {
    let mut s = format!("parrot {}", spec.name);
    if !spec.positional.is_empty() {
        s.push(' ');
        s.push_str(spec.positional);
    }
    for f in spec.flags {
        match f.value {
            None => s.push_str(&format!(" [{}]", f.name)),
            Some(v) => s.push_str(&format!(" [{} {v}]", f.name)),
        }
    }
    s
}

/// The full generated help for one command (`parrot help <cmd>`).
pub fn help_text(spec: &CommandSpec) -> String {
    let mut s = format!("{}\n  {}\n", synopsis(spec), spec.summary);
    if !spec.flags.is_empty() {
        s.push_str("  flags:\n");
        for f in spec.flags {
            let head = match f.value {
                None => f.name.to_string(),
                Some(v) => format!("{} {v}", f.name),
            };
            s.push_str(&format!("    {head:<24}{}\n", f.help));
        }
    }
    s.push_str(
        "  shared: --jobs N, -v/-q, --trace-out FILE, --metrics-out FILE, \
         --metrics-interval N, --sample N, --profile\n",
    );
    s
}

/// The overall generated usage text (`parrot help`, or any parse failure).
pub fn usage_text() -> String {
    let mut s = String::from("usage:\n");
    for c in COMMANDS {
        s.push_str(&format!("  parrot {:<12} {}\n", c.name, c.summary));
    }
    s.push_str("run `parrot help <command>` for a command's full schema\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_telemetry_flags_and_keeps_the_rest() {
        let args: Vec<String> = ["run", "TON", "gcc", "--profile", "--insts", "5000", "-q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (t, rest) = Telemetry::from_args(args);
        assert!(t.profile);
        assert!(t.trace_out.is_none());
        assert_eq!(rest, ["run", "TON", "gcc", "--insts", "5000"]);
        // Undo side effects on the shared process state.
        log::set_level(Level::Status);
        let _ = profile::take();
        t.finish();
    }

    #[test]
    fn jobs_flag_sets_worker_count() {
        let args: Vec<String> = ["--jobs", "3", "run"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (t, rest) = Telemetry::from_args(args);
        assert_eq!(rest, ["run"]);
        assert_eq!(crate::jobs(), 3);
        crate::set_jobs(0);
        t.finish();
    }

    #[test]
    fn trace_and_metrics_flags_take_values() {
        let args: Vec<String> = [
            "--trace-out",
            "/tmp/t.json",
            "--metrics-out",
            "/tmp/m.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (t, rest) = Telemetry::from_args(args);
        assert!(rest.is_empty());
        assert_eq!(
            t.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(
            t.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.jsonl"))
        );
        // Installed sinks exist; drop them without writing.
        assert!(parrot_telemetry::trace::take().is_some());
        assert!(parrot_telemetry::metrics::take().is_some());
    }

    fn strs(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_table_parser_separates_positionals_switches_and_values() {
        let spec = command("run").expect("run is in the table");
        let p = parse_command(spec, &strs(&["TON", "gcc", "--insts", "5000", "--json"])).unwrap();
        assert_eq!(p.positionals, ["TON", "gcc"]);
        assert!(p.switch("--json"));
        assert_eq!(p.u64_value("--insts").unwrap(), Some(5000));
        assert_eq!(p.u64_value("--fault-seed").unwrap(), None);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let spec = command("run").unwrap();
        let e = parse_command(spec, &strs(&["TON", "gcc", "--frobnicate"])).unwrap_err();
        assert!(e.contains("unknown flag --frobnicate"));
        assert!(e.contains("parrot run"), "the error carries generated help");
        let e = parse_command(spec, &strs(&["TON", "gcc", "--insts"])).unwrap_err();
        assert!(e.contains("--insts requires a value"));
        let p = parse_command(spec, &strs(&["TON", "gcc", "--insts", "lots"])).unwrap();
        assert!(p.u64_value("--insts").is_err());
    }

    #[test]
    fn every_command_generates_help_and_the_usage_lists_them_all() {
        let usage = usage_text();
        for c in COMMANDS {
            assert!(usage.contains(c.name), "usage must list {}", c.name);
            let help = help_text(c);
            assert!(help.contains(c.summary));
            for f in c.flags {
                assert!(
                    help.contains(f.name),
                    "{} help must list {}",
                    c.name,
                    f.name
                );
            }
        }
        // The shared flags are documented exactly once per help page.
        assert!(help_text(command("serve").unwrap()).contains("--jobs N"));
    }

    #[test]
    fn sample_flag_configures_the_tracer() {
        let args: Vec<String> = ["--trace-out", "/tmp/t2.json", "--sample", "8", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_t, rest) = Telemetry::from_args(args);
        assert_eq!(rest, ["x"]);
        let tr = parrot_telemetry::trace::take().expect("tracer installed");
        assert_eq!(tr.sample(), 8);
    }
}
