//! SimPoint-style phase-sampling harness behind `parrot sample`.
//!
//! For each application the harness runs every machine model twice through
//! the per-app runner [`SweepConfig::run_app`]: the full simulation at the
//! pinned budget, and the sampled reconstruction driven by one shared
//! in-memory capture, one shared [`parrot_core::SamplePlan`], and shared
//! functional-warming snapshots ([`parrot_core::SampleWarmth`]). It
//! records, per app, the worst-over-models IPC and energy reconstruction
//! error plus both wall-clock timings (the sampled side includes the
//! capture, the BBV+clustering plan, and the warming passes — the real
//! cost a user pays), and merges the records by app into
//! `results/sampling.json` so the 44-app table can be accumulated across
//! invocations. [`sampling_markdown`] renders the per-suite fidelity
//! table EXPERIMENTS.md embeds; [`gate`] is the tolerance check behind
//! `parrot sample --tol` and the CI sampling job.

use crate::{env_root, SweepConfig, RESULTS_SCHEMA_VERSION};
use parrot_core::{detailed_insts, Model, SamplingSpec};
use parrot_energy::metrics::geo_mean;
use parrot_telemetry::json::Value;
use parrot_telemetry::status;
use parrot_workloads::{all_apps, AppProfile, Suite, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Default per-suite geomean error tolerance for the `--tol` gate (3%,
/// the paper-reproduction fidelity target at steady-state budgets).
pub const DEFAULT_TOL: f64 = 0.03;

/// Relative errors below this floor are clamped before taking geomeans:
/// sampled runs reproduce many apps exactly (error 0.0), and ln(0) would
/// otherwise collapse the aggregate to zero no matter what the rest of
/// the suite does.
pub const ERR_FLOOR: f64 = 1e-6;

/// One application's sampled-vs-full measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct AppSample {
    /// Application name.
    pub app: String,
    /// Suite label ([`Suite::label`]).
    pub suite: String,
    /// Number of budget intervals the stream was sliced into.
    pub intervals: usize,
    /// Number of phase clusters (= simulated representatives) per model.
    pub k: usize,
    /// Instructions actually simulated per model under sampling (warmup
    /// prefixes included).
    pub simulated: u64,
    /// Wall clock of the full simulation across every model, in ms.
    pub full_ms: f64,
    /// Wall clock of capture + plan + sampled runs across every model,
    /// in ms.
    pub sampled_ms: f64,
    /// Worst relative IPC error over the models.
    pub ipc_err: f64,
    /// Worst relative energy error over the models.
    pub energy_err: f64,
}

impl AppSample {
    /// Wall-clock speedup of the sampled path for this app.
    pub fn speedup(&self) -> f64 {
        if self.sampled_ms > 0.0 {
            self.full_ms / self.sampled_ms
        } else {
            f64::NAN
        }
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("app", Value::Str(self.app.clone())),
            ("suite", Value::Str(self.suite.clone())),
            ("intervals", Value::int(self.intervals as u64)),
            ("k", Value::int(self.k as u64)),
            ("simulated", Value::int(self.simulated)),
            ("full_ms", Value::Num(self.full_ms)),
            ("sampled_ms", Value::Num(self.sampled_ms)),
            ("ipc_err", Value::Num(self.ipc_err)),
            ("energy_err", Value::Num(self.energy_err)),
        ])
    }

    fn from_json(v: &Value) -> Option<AppSample> {
        Some(AppSample {
            app: v.get("app").as_str()?.to_string(),
            suite: v.get("suite").as_str()?.to_string(),
            intervals: v.get("intervals").as_u64()? as usize,
            k: v.get("k").as_u64()? as usize,
            simulated: v.get("simulated").as_u64()?,
            full_ms: v.get("full_ms").as_f64()?,
            sampled_ms: v.get("sampled_ms").as_f64()?,
            ipc_err: v.get("ipc_err").as_f64()?,
            energy_err: v.get("energy_err").as_f64()?,
        })
    }
}

/// A (partially filled) sampling measurement record: one configuration,
/// any subset of the registered applications.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleReport {
    /// Committed-instruction budget every app was measured at.
    pub insts: u64,
    /// The sampling configuration every record was measured with.
    pub spec: SamplingSpec,
    /// Per-app records, in registry order.
    pub apps: Vec<AppSample>,
}

impl SampleReport {
    /// An empty record for one configuration.
    pub fn new(insts: u64, spec: SamplingSpec) -> SampleReport {
        SampleReport {
            insts,
            spec,
            apps: Vec::new(),
        }
    }

    /// The `results/sampling.json` document for this record.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema_version", Value::int(RESULTS_SCHEMA_VERSION)),
            ("insts", Value::int(self.insts)),
            ("interval", Value::int(self.spec.interval)),
            ("warmup", Value::int(self.spec.warmup)),
            ("max_k", Value::int(self.spec.max_k as u64)),
            ("seed", Value::Str(format!("{:#018x}", self.spec.seed))),
            (
                "apps",
                Value::Arr(self.apps.iter().map(AppSample::to_json).collect()),
            ),
        ])
    }

    /// Parse a `results/sampling.json` document; `None` on malformed
    /// input or a schema-version mismatch.
    pub fn from_json(v: &Value) -> Option<SampleReport> {
        if v.get("schema_version").as_u64()? != RESULTS_SCHEMA_VERSION {
            eprintln!(
                "results/sampling.json: schema_version mismatch (this build writes {RESULTS_SCHEMA_VERSION}) — \
                 refusing to read it; re-run `parrot sample` with --fresh"
            );
            return None;
        }
        let seed = v.get("seed").as_str()?;
        let spec = SamplingSpec {
            interval: v.get("interval").as_u64()?,
            warmup: v.get("warmup").as_u64()?,
            max_k: v.get("max_k").as_u64()? as usize,
            seed: u64::from_str_radix(seed.trim_start_matches("0x"), 16).ok()?,
        };
        Some(SampleReport {
            insts: v.get("insts").as_u64()?,
            spec,
            apps: v
                .get("apps")
                .as_arr()?
                .iter()
                .map(AppSample::from_json)
                .collect::<Option<_>>()?,
        })
    }

    /// Load the record at `path`, or `None` when absent or unreadable.
    pub fn load(path: &std::path::Path) -> Option<SampleReport> {
        let text = std::fs::read_to_string(path).ok()?;
        Self::from_json(&parrot_telemetry::json::parse(&text).ok()?)
    }

    /// Whether `other`'s records were measured under the same
    /// configuration as this record (same budget, same sampling spec) —
    /// the precondition for [`SampleReport::merge`].
    pub fn compatible(&self, insts: u64, spec: &SamplingSpec) -> bool {
        self.insts == insts && self.spec == *spec
    }

    /// Merge fresh per-app records into this record: same-app entries are
    /// replaced, new apps inserted, and the result re-sorted into registry
    /// order. The caller must have checked [`SampleReport::compatible`] —
    /// mixing configurations in one file would make the table lie.
    pub fn merge(&mut self, fresh: Vec<AppSample>) {
        for f in fresh {
            match self.apps.iter_mut().find(|a| a.app == f.app) {
                Some(slot) => *slot = f,
                None => self.apps.push(f),
            }
        }
        let order: Vec<&str> = all_apps().iter().map(|p| p.name).collect();
        self.apps
            .sort_by_key(|a| order.iter().position(|n| *n == a.app).unwrap_or(usize::MAX));
    }

    /// Per-suite aggregate rows (label, records) behind the markdown
    /// table: every suite with at least one record, then the overall row.
    fn groups(&self) -> Vec<(String, Vec<&AppSample>)> {
        let mut g: Vec<(String, Vec<&AppSample>)> = Suite::ALL
            .iter()
            .map(|s| {
                (
                    s.label().to_string(),
                    self.apps
                        .iter()
                        .filter(|a| a.suite == s.label())
                        .collect::<Vec<_>>(),
                )
            })
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        if !self.apps.is_empty() {
            g.push(("Mean".to_string(), self.apps.iter().collect()));
        }
        g
    }

    /// The per-suite fidelity table EXPERIMENTS.md embeds.
    pub fn markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut md = String::new();
        let _ = writeln!(
            md,
            "Measured with `parrot sample --all --insts {}` (interval {},\n\
             warmup {}, max k {}, {} of {} apps recorded; errors are the\n\
             worst model per app, aggregated as suite geomeans with a\n\
             {ERR_FLOOR:.0e} floor; re-run it to refresh):\n",
            self.insts,
            self.spec.interval,
            self.spec.warmup,
            self.spec.max_k,
            self.apps.len(),
            all_apps().len(),
        );
        let _ = writeln!(
            md,
            "| suite | apps | IPC err (geo) | IPC err (max) | energy err (geo) | energy err (max) | sim insts | speedup |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
        for (label, rows) in self.groups() {
            let geo = |f: &dyn Fn(&AppSample) -> f64| {
                geo_mean(&rows.iter().map(|a| f(a).max(ERR_FLOOR)).collect::<Vec<_>>())
            };
            let max =
                |f: &dyn Fn(&AppSample) -> f64| rows.iter().map(|a| f(a)).fold(0.0f64, f64::max);
            let sim_frac = geo_mean(
                &rows
                    .iter()
                    .map(|a| (a.simulated as f64 / self.insts.max(1) as f64).max(ERR_FLOOR))
                    .collect::<Vec<_>>(),
            );
            let speedup = geo_mean(&rows.iter().map(|a| a.speedup()).collect::<Vec<_>>());
            let _ = writeln!(
                md,
                "| {label} | {} | {:.3}% | {:.3}% | {:.3}% | {:.3}% | {:.1}% | {speedup:.1}× |",
                rows.len(),
                geo(&|a| a.ipc_err) * 100.0,
                max(&|a| a.ipc_err) * 100.0,
                geo(&|a| a.energy_err) * 100.0,
                max(&|a| a.energy_err) * 100.0,
                sim_frac * 100.0,
            );
        }
        md
    }
}

/// Check every per-suite geomean (IPC and energy) against `tol`. Returns
/// one human-readable line per violation; empty means pass.
pub fn gate(report: &SampleReport, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    for (label, rows) in report.groups() {
        let pairs = [
            (
                "IPC",
                rows.iter()
                    .map(|a| a.ipc_err.max(ERR_FLOOR))
                    .collect::<Vec<_>>(),
            ),
            (
                "energy",
                rows.iter()
                    .map(|a| a.energy_err.max(ERR_FLOOR))
                    .collect::<Vec<_>>(),
            ),
        ];
        for (what, errs) in pairs {
            let g = geo_mean(&errs);
            if g > tol {
                out.push(format!(
                    "{label} ({what}): geomean error {:.3}% exceeds {:.3}%",
                    g * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    out
}

/// Measure one application: full simulation of every model, then the
/// sampled reconstruction (shared capture, plan and warmth — both through
/// [`SweepConfig::run_app`]), and the worst-over-models reconstruction
/// errors.
pub fn run_app(profile: &AppProfile, insts: u64, spec: &SamplingSpec) -> AppSample {
    let wl = Workload::build(profile);
    let cfg = SweepConfig::new().insts(insts);
    let t0 = Instant::now();
    let (full, _) = cfg.run_app(&wl);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let (sampled, plan) = cfg.sampled(spec.clone()).run_app(&wl);
    let sampled_ms = t1.elapsed().as_secs_f64() * 1e3;
    let plan = plan.expect("sampling is armed");

    let rel = |s: f64, f: f64| if f != 0.0 { (s / f - 1.0).abs() } else { 0.0 };
    let (mut ipc_err, mut energy_err) = (0.0f64, 0.0f64);
    for (f, s) in full.iter().zip(&sampled) {
        debug_assert_eq!(f.model, s.model);
        ipc_err = ipc_err.max(rel(s.ipc(), f.ipc()));
        energy_err = energy_err.max(rel(s.energy, f.energy));
    }
    // Per-model simulated instructions, reported for a trace model (the
    // largest figure): functional warming lets the baseline models trim
    // their detailed warmup further.
    let simulated = detailed_insts(&plan, &Model::TOW.config());
    AppSample {
        app: profile.name.to_string(),
        suite: profile.suite.label().to_string(),
        intervals: plan.num_intervals(),
        k: plan.k(),
        simulated,
        full_ms,
        sampled_ms,
        ipc_err,
        energy_err,
    }
}

/// Measure a batch of applications serially (timings stay honest on a
/// busy host), with a progress line per app.
pub fn run_sample(profiles: &[AppProfile], insts: u64, spec: &SamplingSpec) -> Vec<AppSample> {
    profiles
        .iter()
        .map(|p| {
            let rec = run_app(p, insts, spec);
            status!(
                "sample: {:<16} k={:<2} {:>5.1}% simulated, IPC err {:.3}%, energy err {:.3}%, {:.1}× faster",
                rec.app,
                rec.k,
                rec.simulated as f64 / insts.max(1) as f64 * 100.0,
                rec.ipc_err * 100.0,
                rec.energy_err * 100.0,
                rec.speedup()
            );
            rec
        })
        .collect()
}

/// Where the accumulated sampling measurement lives:
/// `results/sampling.json` under the repository root.
pub fn sampling_path() -> PathBuf {
    PathBuf::from(env_root()).join("results/sampling.json")
}

/// Markdown fidelity table from the recorded `results/sampling.json`, or
/// `None` when no record exists yet. Embedded into EXPERIMENTS.md by
/// `reproduce` so the sampled-fidelity claim stays re-checkable.
pub fn sampling_markdown() -> Option<String> {
    Some(SampleReport::load(&sampling_path())?.markdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_workloads::app_by_name;

    fn spec() -> SamplingSpec {
        SamplingSpec {
            interval: 2_000,
            warmup: 1_000,
            max_k: 2,
            ..SamplingSpec::default()
        }
    }

    fn record(app: &str, suite: &str, ipc_err: f64) -> AppSample {
        AppSample {
            app: app.to_string(),
            suite: suite.to_string(),
            intervals: 3,
            k: 2,
            simulated: 5_000,
            full_ms: 70.0,
            sampled_ms: 10.0,
            ipc_err,
            energy_err: ipc_err / 2.0,
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let mut r = SampleReport::new(6_000, spec());
        r.merge(vec![record("gcc", "SpecInt", 0.01)]);
        let text = r.to_json().to_json_pretty();
        let back = SampleReport::from_json(&parrot_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(back.compatible(6_000, &spec()));
        assert!(!back.compatible(6_000, &SamplingSpec::default()));
        assert!(!back.compatible(7_000, &spec()));
    }

    #[test]
    fn from_json_rejects_other_schema_versions() {
        let mut v = SampleReport::new(6_000, spec()).to_json();
        if let Value::Obj(m) = &mut v {
            m.insert(
                "schema_version".into(),
                Value::int(RESULTS_SCHEMA_VERSION + 1),
            );
        }
        assert!(SampleReport::from_json(&v).is_none());
    }

    #[test]
    fn merge_replaces_by_app_and_keeps_registry_order() {
        let mut r = SampleReport::new(6_000, spec());
        // "swim" is registered after "gcc"; insert out of order.
        r.merge(vec![record("swim", "SpecFP", 0.02)]);
        r.merge(vec![record("gcc", "SpecInt", 0.01)]);
        assert_eq!(r.apps.len(), 2);
        assert_eq!(r.apps[0].app, "gcc");
        assert_eq!(r.apps[1].app, "swim");
        // Re-merging the same app replaces its record.
        r.merge(vec![record("gcc", "SpecInt", 0.5)]);
        assert_eq!(r.apps.len(), 2);
        assert_eq!(r.apps[0].ipc_err, 0.5);
    }

    #[test]
    fn markdown_and_gate_aggregate_per_suite() {
        let mut r = SampleReport::new(6_000, spec());
        r.merge(vec![
            record("gcc", "SpecInt", 0.01),
            record("swim", "SpecFP", 0.10),
        ]);
        let md = r.markdown();
        assert!(md.contains("| SpecInt | 1 |"), "{md}");
        assert!(md.contains("| SpecFP | 1 |"), "{md}");
        assert!(md.contains("| Mean | 2 |"), "{md}");
        // 3%: SpecFP (10%) and the overall mean (geomean ≈ 3.2%) fail on
        // IPC; SpecInt (1%) passes.
        let v = gate(&r, 0.03);
        assert!(v.iter().any(|l| l.starts_with("SpecFP (IPC)")), "{v:?}");
        assert!(v.iter().any(|l| l.starts_with("Mean (IPC)")), "{v:?}");
        assert!(!v.iter().any(|l| l.starts_with("SpecInt")), "{v:?}");
        assert!(gate(&r, 0.5).is_empty());
        // Exact reconstructions (error 0.0) must not collapse geomeans.
        let mut z = SampleReport::new(6_000, spec());
        z.merge(vec![record("gcc", "SpecInt", 0.0)]);
        assert!(gate(&z, 0.03).is_empty());
        assert!(z.markdown().contains("| Mean | 1 |"));
    }

    #[test]
    fn run_app_measures_fidelity_on_a_tiny_budget() {
        let p = app_by_name("gzip").expect("registered");
        let rec = run_app(&p, 6_000, &spec());
        assert_eq!(rec.app, "gzip");
        assert_eq!(rec.intervals, 3);
        assert!(rec.k >= 1 && rec.k <= 2);
        assert!(rec.simulated > 0);
        assert!(rec.full_ms > 0.0 && rec.sampled_ms > 0.0);
        assert!(rec.ipc_err.is_finite() && rec.energy_err.is_finite());
    }
}
