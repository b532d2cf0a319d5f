//! The production [`Executor`] behind `parrot serve`.
//!
//! `parrot-serve` owns the wire schema and the service mechanics but
//! deliberately knows nothing about models or applications; this module
//! injects those semantics. Two rules keep the HTTP surface honest:
//!
//! * **Canonicalization is never re-derived here.** [`Backend::canonical`]
//!   only *wraps* [`SimRequest::canonical`] / [`SweepConfig::canonical`]
//!   in a small `{"job": ..}` envelope, so the result-cache key is a
//!   function of exactly the same bytes the CLI's request objects
//!   serialize to.
//! * **Execution goes through the same entry points as the CLI.** A
//!   `sim` job is `SimRequest::run`; a one-app `sweep` job is
//!   [`sweep_app_doc`], the *same function* `parrot sweep APP --json`
//!   prints — byte identity between a POST and the CLI is by
//!   construction, not by test luck.
//!
//! Shed jobs (admission degraded them under load) rerun the same spec
//! under default SimPoint sampling ([`SamplingSpec::default`]); the
//! service salts their cache key so a sampled document can never be
//! served where full fidelity was promised.

use crate::{ResultSet, SweepConfig};
use parrot_core::{FaultPlan, Model, SamplingSpec, SimReport, SimRequest};
use parrot_serve::wire::{JobKind, JobSpec, WireError};
use parrot_serve::Executor;
use parrot_telemetry::json::Value;
use parrot_telemetry::shard::Progress;
use parrot_workloads::tracefmt::{self, DEFAULT_SLICE_INSTS};
use parrot_workloads::{all_apps, app_by_name, generate_program, AppProfile, Workload};
use std::sync::Arc;

/// The experiment harness as a service backend.
#[derive(Debug, Default)]
pub struct Backend;

impl Backend {
    /// A fresh backend.
    pub fn new() -> Backend {
        Backend
    }
}

/// The `parrot sweep APP --json` document: every machine model run over
/// one application under `cfg` ([`SweepConfig::run_app`]), reports in
/// [`Model::ALL`] order.
///
/// This is the single source of that document — the CLI prints it and
/// the serve backend returns it, which is what makes the two
/// byte-identical. Ticks the calling thread's installed progress handle
/// once per model (a no-op on the CLI path).
pub fn sweep_app_doc(profile: &AppProfile, cfg: &SweepConfig) -> Value {
    let (reports, _) = cfg.run_app(&Workload::build(profile));
    Value::obj([
        ("app", Value::Str(profile.name.to_string())),
        ("insts", Value::int(cfg.insts_value())),
        (
            "runs",
            Value::Arr(reports.iter().map(SimReport::to_json).collect()),
        ),
    ])
}

/// The full (model × app) sweep as one document, reports in
/// (model, app) order. Shared by the serve backend and any future CLI
/// surface for the same reason as [`sweep_app_doc`].
pub fn full_sweep_doc(set: &ResultSet) -> Value {
    Value::obj([
        ("insts", Value::int(set.insts)),
        (
            "runs",
            Value::Arr(set.runs.values().map(SimReport::to_json).collect()),
        ),
    ])
}

fn lookup_model(spec: &JobSpec) -> Result<Model, WireError> {
    let name = spec.model().unwrap_or_default();
    Model::from_name(name).ok_or_else(|| {
        WireError::new(
            "unknown_model",
            format!(
                "unknown model {name:?}; expected one of: {}",
                Model::ALL.map(|m| m.name()).join(", ")
            ),
        )
    })
}

fn lookup_app(name: &str) -> Result<AppProfile, WireError> {
    app_by_name(name).ok_or_else(|| {
        WireError::new(
            "unknown_app",
            format!(
                "unknown app {name:?}; `parrot list-apps` names all {}",
                all_apps().len()
            ),
        )
    })
}

fn insts_of(spec: &JobSpec) -> u64 {
    spec.insts().unwrap_or_else(crate::insts_budget)
}

/// The `SimRequest` a sim-shaped spec describes (shared by the `sim` and
/// `replay_verify` kinds). Fault knobs default exactly like the CLI's
/// `--fault-seed`/`--fault-rate` pair.
fn sim_request(spec: &JobSpec, model: Model) -> SimRequest {
    let mut req = SimRequest::model(model).insts(insts_of(spec));
    let seed = spec.fault_seed();
    let rate = spec.fault_rate();
    if seed.is_some() || rate.is_some() {
        req = req.faults(FaultPlan::new(seed.unwrap_or(0)).rate(rate.unwrap_or(0.01)));
    }
    req
}

fn sweep_config(spec: &JobSpec) -> SweepConfig {
    SweepConfig::new().insts(insts_of(spec))
}

impl Executor for Backend {
    fn canonical(&self, spec: &JobSpec) -> Result<Value, WireError> {
        match spec.kind() {
            JobKind::Sim => {
                let model = lookup_model(spec)?;
                let app = lookup_app(spec.app().unwrap_or_default())?;
                Ok(Value::obj([
                    ("job", Value::Str("sim".to_string())),
                    ("app", Value::Str(app.name.to_string())),
                    ("model", Value::Str(model.name().to_string())),
                    ("request", sim_request(spec, model).canonical()),
                ]))
            }
            JobKind::Sweep => {
                let mut fields = vec![
                    ("job", Value::Str("sweep".to_string())),
                    ("config", sweep_config(spec).canonical()),
                ];
                if let Some(name) = spec.app() {
                    let app = lookup_app(name)?;
                    fields.push(("app", Value::Str(app.name.to_string())));
                }
                Ok(Value::obj(fields))
            }
            JobKind::Soak => Ok(Value::obj([
                ("job", Value::Str("soak".to_string())),
                ("insts", Value::int(insts_of(spec))),
            ])),
            JobKind::ReplayVerify => {
                let model = lookup_model(spec)?;
                let app = lookup_app(spec.app().unwrap_or_default())?;
                Ok(Value::obj([
                    ("job", Value::Str("replay_verify".to_string())),
                    ("app", Value::Str(app.name.to_string())),
                    ("model", Value::Str(model.name().to_string())),
                    ("request", sim_request(spec, model).canonical()),
                ]))
            }
            JobKind::Analyze => {
                let app = lookup_app(spec.app().unwrap_or_default())?;
                Ok(Value::obj([
                    ("job", Value::Str("analyze".to_string())),
                    ("app", Value::Str(app.name.to_string())),
                ]))
            }
        }
    }

    fn execute(
        &self,
        spec: &JobSpec,
        shed: bool,
        progress: &Arc<Progress>,
    ) -> Result<Value, String> {
        match spec.kind() {
            JobKind::Sim => {
                let model = lookup_model(spec).map_err(|e| e.to_string())?;
                let app = lookup_app(spec.app().unwrap_or_default()).map_err(|e| e.to_string())?;
                let wl = Workload::build(&app);
                let mut req = sim_request(spec, model);
                if shed {
                    req = req.sampled(SamplingSpec::default());
                }
                progress.set_total(1);
                let report = req.run(&wl);
                progress.tick();
                Ok(report.to_json())
            }
            JobKind::Sweep => {
                let mut cfg = sweep_config(spec);
                if shed {
                    cfg = cfg.sampled(SamplingSpec::default());
                }
                match spec.app() {
                    Some(name) => {
                        let app = lookup_app(name).map_err(|e| e.to_string())?;
                        progress.set_total(Model::ALL.len() as u64);
                        Ok(sweep_app_doc(&app, &cfg))
                    }
                    None => {
                        progress.set_total(all_apps().len() as u64);
                        // The sweep pool shards telemetry per work item
                        // and ticks the installed handle as each app's
                        // shard drains (see `SweepSession`).
                        Ok(full_sweep_doc(&ResultSet::run_sweep_with(&cfg)))
                    }
                }
            }
            JobKind::Soak => {
                let cfg = crate::soak::SoakConfig::new().insts(insts_of(spec));
                progress.set_total(1);
                let report = crate::soak::run_soak(&cfg);
                progress.tick();
                Ok(report.to_json())
            }
            JobKind::ReplayVerify => {
                let model = lookup_model(spec).map_err(|e| e.to_string())?;
                let app = lookup_app(spec.app().unwrap_or_default()).map_err(|e| e.to_string())?;
                let wl = Workload::build(&app);
                let insts = insts_of(spec);
                progress.set_total(3);
                let trace = tracefmt::capture(&wl, insts, DEFAULT_SLICE_INSTS)
                    .map_err(|e| format!("capture failed: {e}"))?;
                progress.tick();
                let trace = Arc::new(trace);
                let req = sim_request(spec, model).replay(Arc::clone(&trace));
                req.validate_replay(&wl)
                    .map_err(|e| format!("replay validation failed: {e}"))?;
                let replayed = req.run(&wl);
                progress.tick();
                let live = sim_request(spec, model).run(&wl);
                progress.tick();
                let verified = live.to_json().to_json() == replayed.to_json().to_json();
                if !verified {
                    return Err(format!(
                        "replay diverged: the {} report from the captured trace is not \
                         byte-identical to the live engine",
                        model.name()
                    ));
                }
                Ok(Value::obj([
                    ("app", Value::Str(app.name.to_string())),
                    ("insts", Value::int(insts)),
                    ("model", Value::Str(model.name().to_string())),
                    ("report", replayed.to_json()),
                    ("verified", Value::Bool(true)),
                ]))
            }
            JobKind::Analyze => {
                let app = lookup_app(spec.app().unwrap_or_default()).map_err(|e| e.to_string())?;
                let prog = generate_program(&app);
                progress.set_total(1);
                let pa =
                    parrot_analysis::analyze(&prog).map_err(|e| format!("analysis failed: {e}"))?;
                progress.tick();
                Ok(pa.report(app.name))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_serve::fingerprint;

    fn spec(body: &str) -> JobSpec {
        JobSpec::parse(body).expect("well-formed spec")
    }

    #[test]
    fn canonicalization_validates_and_distinguishes_jobs() {
        let b = Backend::new();
        let sim = b
            .canonical(&spec(r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc"}"#))
            .unwrap();
        let other_model = b
            .canonical(&spec(r#"{"v":1,"kind":"sim","model":"TON","app":"gcc"}"#))
            .unwrap();
        assert_ne!(
            fingerprint(&sim.to_json()),
            fingerprint(&other_model.to_json()),
            "the model must be part of the cache key"
        );
        // Defaults are explicit in the canonical form: spelling the
        // default budget out changes nothing.
        let explicit = b
            .canonical(&spec(&format!(
                r#"{{"v":1,"kind":"sim","model":"TOW","app":"gcc","insts":{}}}"#,
                crate::insts_budget()
            )))
            .unwrap();
        assert_eq!(sim.to_json(), explicit.to_json());

        let err = b
            .canonical(&spec(r#"{"v":1,"kind":"sim","model":"XX","app":"gcc"}"#))
            .unwrap_err();
        assert_eq!(err.code, "unknown_model");
        let err = b
            .canonical(&spec(r#"{"v":1,"kind":"analyze","app":"nope"}"#))
            .unwrap_err();
        assert_eq!(err.code, "unknown_app");
    }

    #[test]
    fn sim_execution_matches_the_request_api_and_ticks_progress() {
        let b = Backend::new();
        let s = spec(r#"{"v":1,"kind":"sim","model":"N","app":"gcc","insts":20000}"#);
        let p = Progress::new(0);
        let served = b.execute(&s, false, &p).unwrap();
        let wl = Workload::build(&app_by_name("gcc").unwrap());
        let direct = SimRequest::model(Model::N).insts(20_000).run(&wl).to_json();
        assert_eq!(served.to_json(), direct.to_json());
        assert_eq!((p.done(), p.total()), (1, 1));
    }

    #[test]
    fn a_shed_sim_is_sampled_and_differs_from_the_full_run() {
        let b = Backend::new();
        let s = spec(r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc","insts":60000}"#);
        let p = Progress::new(0);
        let full = b.execute(&s, false, &p).unwrap();
        let shed = b.execute(&s, true, &p).unwrap();
        let wl = Workload::build(&app_by_name("gcc").unwrap());
        let sampled = SimRequest::model(Model::TOW)
            .insts(60_000)
            .sampled(SamplingSpec::default())
            .run(&wl)
            .to_json();
        assert_eq!(shed.to_json(), sampled.to_json());
        assert_ne!(
            full.to_json(),
            shed.to_json(),
            "sampling must actually engage under shed"
        );
    }
}
