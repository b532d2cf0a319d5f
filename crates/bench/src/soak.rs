//! Seeded fault-injection soak campaigns.
//!
//! A soak runs one machine model over the full application set under a
//! [`FaultPlan`] at several fault rates, with a fault-free twin of every
//! run as the correctness baseline. The campaign verifies graceful
//! degradation end to end — no panics, every committed store log identical
//! to the fault-free run, and the `injected == caught + benign` accounting
//! reconciling exactly — and measures how IPC and energy degrade as the
//! fault rate rises. `parrot soak` drives it from the command line; the
//! fixed-seed short-budget variant is a CI gate, and the recorded
//! `results/soak.json` feeds the soak table in EXPERIMENTS.md via
//! [`soak_markdown`].

use crate::{env_root, pct, SweepConfig};
use parrot_core::{FaultPlan, Model, SimReport, SimRequest};
use parrot_energy::metrics::geo_mean;
use parrot_telemetry::json::Value;
use parrot_telemetry::shard::SweepSession;
use parrot_workloads::{all_apps, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default campaign seed (the one the CI job and EXPERIMENTS.md use).
pub const DEFAULT_SEED: u64 = 0x5ea1_de7e_c7ab_1e00;

/// Default fault rates swept by a campaign.
pub const DEFAULT_RATES: [f64; 4] = [0.01, 0.05, 0.1, 0.25];

/// A soak campaign description: model, seed, fault rates, budget, workers.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    model: Model,
    seed: u64,
    rates: Vec<f64>,
    insts: u64,
    jobs: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl SoakConfig {
    /// The default campaign: model TOW (the full trace + optimizer
    /// machine), [`DEFAULT_SEED`], [`DEFAULT_RATES`], the default budget,
    /// automatic worker count.
    pub fn new() -> SoakConfig {
        SoakConfig {
            model: Model::TOW,
            seed: DEFAULT_SEED,
            rates: DEFAULT_RATES.to_vec(),
            insts: crate::DEFAULT_INSTS,
            jobs: 0,
        }
    }

    /// The default campaign with budget and worker count taken from the
    /// environment (`PARROT_INSTS`, `--jobs`/`PARROT_JOBS`).
    pub fn from_env() -> SoakConfig {
        let env = SweepConfig::from_env();
        Self::new().insts(env.insts_value()).jobs(env.jobs_value())
    }

    /// Set the machine model the campaign soaks.
    pub fn model(mut self, model: Model) -> SoakConfig {
        self.model = model;
        self
    }

    /// Set the campaign seed (every run's injector derives from it).
    pub fn seed(mut self, seed: u64) -> SoakConfig {
        self.seed = seed;
        self
    }

    /// Set the fault rates swept (empty slices keep the default).
    pub fn rates(mut self, rates: &[f64]) -> SoakConfig {
        if !rates.is_empty() {
            self.rates = rates.to_vec();
        }
        self
    }

    /// Set the committed-instruction budget per run.
    pub fn insts(mut self, insts: u64) -> SoakConfig {
        self.insts = insts;
        self
    }

    /// Set the worker-thread count (0 = automatic).
    pub fn jobs(mut self, jobs: usize) -> SoakConfig {
        self.jobs = jobs;
        self
    }

    /// The campaign seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The committed-instruction budget per run.
    pub fn insts_value(&self) -> u64 {
        self.insts
    }

    fn jobs_value(&self) -> usize {
        SweepConfig::new().jobs(self.jobs).jobs_value()
    }
}

/// One row of a soak report: the campaign outcome at a single fault rate,
/// aggregated over every application.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// The per-attempt fault probability of this row.
    pub rate: f64,
    /// Faults that actually landed in machine state.
    pub injected: u64,
    /// Landed faults detected and neutralised by a gate.
    pub caught: u64,
    /// Landed faults harmless by construction.
    pub benign: u64,
    /// Corrupted optimizer rewrites refused by the validation gate.
    pub demoted: u64,
    /// Deliveries abandoned for the cold front end after a caught fault.
    pub fellback: u64,
    /// Trace-cache frames lost to spurious invalidations and storms.
    pub evicted_frames: u64,
    /// Geomean of faulted/clean IPC over all applications.
    pub ipc_ratio: f64,
    /// Geomean of faulted/clean total energy over all applications.
    pub energy_ratio: f64,
    /// Applications whose committed store log diverged from the
    /// fault-free twin. Must be zero: divergence is an incorrect machine.
    pub store_log_divergences: u64,
    /// Applications whose `injected == caught + benign` accounting failed
    /// to reconcile. Must be zero.
    pub unreconciled: u64,
}

/// The outcome of a whole soak campaign.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Name of the soaked machine model.
    pub model: String,
    /// Campaign seed.
    pub seed: u64,
    /// Committed-instruction budget per run.
    pub insts: u64,
    /// Number of applications soaked.
    pub apps: u64,
    /// One row per fault rate, in sweep order.
    pub rows: Vec<SoakRow>,
}

impl SoakReport {
    /// Did the campaign demonstrate graceful degradation? True iff no run
    /// diverged from its fault-free store log and every run's fault
    /// accounting reconciled. (Panics would have aborted the process —
    /// reaching a report at all already proves "degrade, never die".)
    pub fn passed(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.store_log_divergences == 0 && r.unreconciled == 0)
    }

    /// Serialize for `results/soak.json`. The seed is a 16-hex-digit
    /// string (JSON numbers are doubles; 64-bit seeds must not be
    /// rounded).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema_version", Value::int(crate::RESULTS_SCHEMA_VERSION)),
            ("model", Value::Str(self.model.clone())),
            ("seed", Value::Str(format!("{:016x}", self.seed))),
            ("insts", Value::int(self.insts)),
            ("apps", Value::int(self.apps)),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Value::obj([
                                ("rate", Value::Num(r.rate)),
                                ("injected", Value::int(r.injected)),
                                ("caught", Value::int(r.caught)),
                                ("benign", Value::int(r.benign)),
                                ("demoted", Value::int(r.demoted)),
                                ("fellback", Value::int(r.fellback)),
                                ("evicted_frames", Value::int(r.evicted_frames)),
                                ("ipc_ratio", Value::Num(r.ipc_ratio)),
                                ("energy_ratio", Value::Num(r.energy_ratio)),
                                ("store_log_divergences", Value::int(r.store_log_divergences)),
                                ("unreconciled", Value::int(r.unreconciled)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a `results/soak.json` document.
    pub fn from_json(v: &Value) -> Option<SoakReport> {
        crate::check_results_schema(v, "results/soak.json")?;
        Some(SoakReport {
            model: v.get("model").as_str()?.to_string(),
            seed: u64::from_str_radix(v.get("seed").as_str()?, 16).ok()?,
            insts: v.get("insts").as_u64()?,
            apps: v.get("apps").as_u64()?,
            rows: v
                .get("rows")
                .as_arr()?
                .iter()
                .map(|r| {
                    Some(SoakRow {
                        rate: r.get("rate").as_f64()?,
                        injected: r.get("injected").as_u64()?,
                        caught: r.get("caught").as_u64()?,
                        benign: r.get("benign").as_u64()?,
                        demoted: r.get("demoted").as_u64()?,
                        fellback: r.get("fellback").as_u64()?,
                        evicted_frames: r.get("evicted_frames").as_u64()?,
                        ipc_ratio: r.get("ipc_ratio").as_f64()?,
                        energy_ratio: r.get("energy_ratio").as_f64()?,
                        store_log_divergences: r.get("store_log_divergences").as_u64()?,
                        unreconciled: r.get("unreconciled").as_u64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Markdown table of the campaign (the EXPERIMENTS.md embedding).
    pub fn markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut md = String::new();
        writeln!(
            md,
            "Seeded campaign on {} (seed `{:016x}`, {} committed instructions ×\n\
             {} applications per rate; fault-free twin as baseline). Every landed\n\
             fault is caught by a gate or provably benign; the committed store log\n\
             is byte-identical to the fault-free run at every rate. Regenerate with\n\
             `cargo run --release -p parrot-bench --bin parrot -- soak`.\n",
            self.model, self.seed, self.insts, self.apps
        )
        .unwrap();
        writeln!(
            md,
            "| rate | injected | caught | benign | demoted | fellback | IPC vs clean | energy vs clean | store log |"
        )
        .unwrap();
        writeln!(md, "|---|---|---|---|---|---|---|---|---|").unwrap();
        for r in &self.rows {
            writeln!(
                md,
                "| {:.0}% | {} | {} | {} | {} | {} | {} | {} | {} |",
                r.rate * 100.0,
                r.injected,
                r.caught,
                r.benign,
                r.demoted,
                r.fellback,
                pct(r.ipc_ratio),
                pct(r.energy_ratio),
                if r.store_log_divergences == 0 {
                    "identical".to_string()
                } else {
                    format!("{} DIVERGED", r.store_log_divergences)
                }
            )
            .unwrap();
        }
        md
    }
}

/// Run a soak campaign: for every application, one fault-free run plus one
/// faulted run per rate, on a work-stealing pool (one application per work
/// item). Telemetry sinks installed on the calling thread are sharded per
/// work item and merged after the join, exactly like a sweep — so the
/// merged metrics JSONL carries the campaign's `fault:*` counters.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let apps = all_apps();
    let session = SweepSession::begin();
    let workers = cfg.jobs_value().clamp(1, apps.len());
    let next = AtomicUsize::new(0);
    type AppRuns = BTreeMap<String, (SimReport, Vec<SimReport>)>;
    let results: Mutex<AppRuns> = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for w in 0..workers as u32 {
            let (session, next, results, apps, cfg) =
                (session.as_ref(), &next, &results, &apps, &cfg);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= apps.len() {
                    break;
                }
                if let Some(sess) = session {
                    sess.install_item();
                }
                let wl = Workload::build(&apps[i]);
                let clean = SimRequest::model(cfg.model).insts(cfg.insts).run(&wl);
                let faulted: Vec<SimReport> = cfg
                    .rates
                    .iter()
                    .map(|&rate| {
                        SimRequest::model(cfg.model)
                            .insts(cfg.insts)
                            .faults(FaultPlan::new(cfg.seed).rate(rate))
                            .run(&wl)
                    })
                    .collect();
                if let Some(sess) = session {
                    sess.collect_item(i, w);
                }
                results
                    .lock()
                    .expect("soak results lock")
                    .insert(apps[i].name.to_string(), (clean, faulted));
                parrot_telemetry::verbose!(
                    "soaked {} ({} rates + clean)",
                    apps[i].name,
                    cfg.rates.len()
                );
            });
        }
    });
    if let Some(sess) = session {
        sess.finish();
    }
    let runs = results.into_inner().expect("soak results");
    let rows = cfg
        .rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let mut row = SoakRow {
                rate,
                injected: 0,
                caught: 0,
                benign: 0,
                demoted: 0,
                fellback: 0,
                evicted_frames: 0,
                ipc_ratio: 1.0,
                energy_ratio: 1.0,
                store_log_divergences: 0,
                unreconciled: 0,
            };
            let (mut ipc, mut energy) = (Vec::new(), Vec::new());
            for (clean, faulted) in runs.values() {
                let f = &faulted[ri];
                if f.store_log_hash != clean.store_log_hash
                    || f.committed_stores != clean.committed_stores
                    || f.insts != clean.insts
                {
                    row.store_log_divergences += 1;
                }
                let fr = f.faults.as_ref().expect("faulted runs carry a report");
                if !fr.reconciles() {
                    row.unreconciled += 1;
                }
                row.injected += fr.counters.total_injected();
                row.caught += fr.counters.total_caught();
                row.benign += fr.counters.total_benign();
                row.demoted += fr.counters.demoted;
                row.fellback += fr.counters.fellback;
                row.evicted_frames += fr.counters.evicted_frames;
                ipc.push(f.ipc() / clean.ipc());
                energy.push(if clean.energy == 0.0 {
                    1.0
                } else {
                    f.energy / clean.energy
                });
            }
            row.ipc_ratio = geo_mean(&ipc);
            row.energy_ratio = geo_mean(&energy);
            row
        })
        .collect();
    SoakReport {
        model: cfg.model.name().to_string(),
        seed: cfg.seed,
        insts: cfg.insts,
        apps: runs.len() as u64,
        rows,
    }
}

/// Where `parrot soak` records its campaign outcome.
pub fn soak_path() -> PathBuf {
    PathBuf::from(env_root()).join("results/soak.json")
}

/// Markdown table of the last recorded soak campaign, or `None` when no
/// record exists yet. Embedded into EXPERIMENTS.md by `reproduce`.
pub fn soak_markdown() -> Option<String> {
    let text = std::fs::read_to_string(soak_path()).ok()?;
    let report = SoakReport::from_json(&parrot_telemetry::json::parse(&text).ok()?)?;
    Some(report.markdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_passes_and_round_trips() {
        let cfg = SoakConfig::new()
            .insts(1_500)
            .jobs(4)
            .seed(7)
            .rates(&[0.05, 0.5]);
        let report = run_soak(&cfg);
        assert_eq!(report.apps, all_apps().len() as u64);
        assert_eq!(report.rows.len(), 2);
        assert!(report.passed(), "graceful degradation: {:?}", report.rows);
        assert!(
            report.rows.iter().any(|r| r.injected > 0),
            "a 50% rate must land faults"
        );
        for r in &report.rows {
            assert_eq!(r.injected, r.caught + r.benign, "accounting reconciles");
        }
        let back = SoakReport::from_json(
            &parrot_telemetry::json::parse(&report.to_json().to_json()).expect("parses"),
        )
        .expect("round-trips");
        assert_eq!(back.seed, 7);
        assert_eq!(back.rows.len(), 2);
        assert!(back.markdown().contains("| 50% |"));
    }

    #[test]
    fn soak_campaigns_are_deterministic_across_worker_counts() {
        let base = SoakConfig::new().insts(1_200).seed(11).rates(&[0.3]);
        let serial = run_soak(&base.clone().jobs(1));
        let parallel = run_soak(&base.jobs(8));
        assert_eq!(
            serial.to_json().to_json(),
            parallel.to_json().to_json(),
            "scheduling must not change a seeded campaign"
        );
    }
}
