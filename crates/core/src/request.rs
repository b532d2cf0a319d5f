//! The builder-style simulation entry point.
//!
//! [`SimRequest`] replaces the old `simulate`/`simulate_config` free
//! functions (removed in 0.2.0): one builder carries the machine
//! description, the instruction budget, and an optional [`FaultPlan`],
//! and [`SimRequest::run`] produces the [`SimReport`]. The request also
//! has a [canonical serialized form](SimRequest::canonical) shared
//! byte-for-byte by the CLI and `parrot serve`.
//!
//! ```no_run
//! use parrot_core::{Model, SimRequest};
//! use parrot_workloads::{app_by_name, Workload};
//!
//! let wl = Workload::build(&app_by_name("gcc").expect("registered"));
//! let report = SimRequest::model(Model::TOW).insts(100_000).run(&wl);
//! println!("{} IPC {:.3}", report.model, report.ipc());
//! ```

use crate::faults::{FaultKind, FaultPlan};
use crate::machine::Machine;
use crate::models::{MachineConfig, Model};
use crate::report::SimReport;
use crate::warmth::SampleWarmth;
use parrot_sampling::{SamplePlan, SamplingSpec};
use parrot_telemetry::json::Value;
use parrot_workloads::tracefmt::{TraceError, TraceFile};
use parrot_workloads::Workload;
use std::sync::Arc;

/// Default committed-instruction budget (matches the sweep default).
pub const DEFAULT_INSTS: u64 = 200_000;

/// Version of the [`SimRequest::canonical`] serialized form. Bump whenever
/// a knob is added, removed, or re-encoded — equal canonical bytes promise
/// byte-identical reports, so the version must change when that mapping
/// does.
pub const CANONICAL_VERSION: u64 = 1;

/// A complete description of one simulation: machine, budget, faults.
///
/// Build with [`SimRequest::model`] or [`SimRequest::config`], refine with
/// the chained setters, execute with [`SimRequest::run`].
#[derive(Clone, Debug)]
pub struct SimRequest {
    cfg: MachineConfig,
    insts: u64,
    faults: Option<FaultPlan>,
    replay: Option<Arc<TraceFile>>,
    sampling: Option<SamplingSpec>,
    plan: Option<Arc<SamplePlan>>,
    warmth: Option<Arc<SampleWarmth>>,
}

impl SimRequest {
    /// A request for one of the study's named models.
    pub fn model(model: Model) -> SimRequest {
        Self::config(model.config())
    }

    /// A request for an arbitrary machine configuration (ablations, design
    /// studies, custom machines). The report's `model` field carries
    /// `cfg.name`.
    pub fn config(cfg: MachineConfig) -> SimRequest {
        SimRequest {
            cfg,
            insts: DEFAULT_INSTS,
            faults: None,
            replay: None,
            sampling: None,
            plan: None,
            warmth: None,
        }
    }

    /// Set the committed-instruction budget (default [`DEFAULT_INSTS`]).
    pub fn insts(mut self, insts: u64) -> SimRequest {
        self.insts = insts;
        self
    }

    /// Arm deterministic fault injection for this run. The injector seed is
    /// derived from `(plan seed, model name, app name)`, so a given request
    /// is reproducible regardless of scheduling or app order.
    pub fn faults(mut self, plan: FaultPlan) -> SimRequest {
        self.faults = Some(plan);
        self
    }

    /// Drive the simulation from a captured trace instead of the live
    /// engine. The capture must have been taken from the workload passed to
    /// [`SimRequest::run`] and must hold at least the instruction budget —
    /// check with [`SimRequest::validate_replay`] first when either is in
    /// doubt. Replay changes only where the committed stream comes from;
    /// the report is byte-identical to the live-engine run.
    ///
    /// ```
    /// use parrot_core::{Model, SimRequest};
    /// use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
    /// use parrot_workloads::{app_by_name, Workload};
    /// use std::sync::Arc;
    ///
    /// let wl = Workload::build(&app_by_name("eon").expect("registered"));
    /// let trace = Arc::new(capture(&wl, 3_000, DEFAULT_SLICE_INSTS).expect("encodable"));
    /// let req = SimRequest::model(Model::TOW).insts(3_000);
    /// let live = req.clone().run(&wl);
    /// let replayed = req.replay(Arc::clone(&trace)).run(&wl);
    /// assert_eq!(live.to_json().to_json(), replayed.to_json().to_json());
    /// ```
    pub fn replay(mut self, trace: Arc<TraceFile>) -> SimRequest {
        self.replay = Some(trace);
        self
    }

    /// The armed replay capture, if any.
    pub fn replay_trace(&self) -> Option<&Arc<TraceFile>> {
        self.replay.as_ref()
    }

    /// Run this request under SimPoint-style phase sampling instead of
    /// simulating the full budget: the committed stream is sliced into
    /// intervals, clustered on basic-block frequency vectors, and only one
    /// weighted representative per cluster is simulated (with
    /// `spec.warmup` instructions of unmeasured warmup). The report is the
    /// weighted reconstruction — `insts` equals the budget exactly, rates
    /// are weighted means, and `store_log_hash` is 0 (not reconstructible).
    /// See `parrot_sampling::build_plan` and DESIGN.md §18.
    ///
    /// Incompatible with [`SimRequest::faults`]: [`SimRequest::run`] panics
    /// if both are armed. An armed [`SimRequest::replay`] capture is reused
    /// as the sampling stream; otherwise one is captured in memory.
    pub fn sampled(mut self, spec: SamplingSpec) -> SimRequest {
        self.sampling = Some(spec);
        self.plan = None;
        self
    }

    /// As [`SimRequest::sampled`], reusing a prebuilt [`SamplePlan`] (the
    /// BBV + clustering work) — the sweep runner builds one plan per app
    /// and shares it across all models. The plan's budget and spec must
    /// match this request.
    pub fn sampled_plan(mut self, plan: Arc<SamplePlan>) -> SimRequest {
        self.sampling = Some(plan.spec.clone());
        self.plan = Some(plan);
        self
    }

    /// As [`SimRequest::sampled_plan`], additionally reusing prebuilt
    /// functional-warming snapshots ([`SampleWarmth`], DESIGN.md §18.3) —
    /// the sweep runner builds them once per app and shares them across
    /// all models. Like a mismatched plan, snapshots whose budget or spec
    /// differ from this request's, or that carry no pass for this
    /// machine's branch-predictor configuration, make [`SimRequest::run`]
    /// panic.
    pub fn sample_warmth(mut self, warmth: Arc<SampleWarmth>) -> SimRequest {
        self.warmth = Some(warmth);
        self
    }

    /// The armed warming snapshots, if any.
    pub(crate) fn warmth(&self) -> Option<&Arc<SampleWarmth>> {
        self.warmth.as_ref()
    }

    /// The armed sampling spec, if any.
    pub fn sampling_spec(&self) -> Option<&SamplingSpec> {
        self.sampling.as_ref()
    }

    /// Check that the armed replay capture (if any) passes
    /// [`TraceFile::check_source`] for `wl` (right source, every slice
    /// decodes) and covers the instruction budget. [`SimRequest::run`]
    /// enforces the same conditions by panicking; call this first to get
    /// the structured [`TraceError`] instead.
    pub fn validate_replay(&self, wl: &Workload) -> Result<(), TraceError> {
        let Some(trace) = &self.replay else {
            return Ok(());
        };
        trace.check_source(wl)?;
        trace.check_covers(self.insts)
    }

    /// The instruction budget this request will simulate.
    pub fn insts_budget(&self) -> u64 {
        self.insts
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The machine configuration this request will build.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The canonical serialized form of this request: a deterministic,
    /// versioned JSON value carrying exactly the knobs that determine the
    /// report's bytes. The CLI and `parrot serve` share this form, and the
    /// serve result cache keys on a fingerprint of `canonical().to_json()`,
    /// so equal canonical bytes must mean byte-identical reports.
    ///
    /// An armed replay capture and prebuilt plan/warmth handles are
    /// deliberately absent: they change where the committed stream or the
    /// clustering work comes from, never what the report says. Seeds are
    /// encoded as hex strings because they use all 64 bits and a JSON
    /// number (an `f64`) only carries 53.
    pub fn canonical(&self) -> Value {
        let mut fields = vec![
            ("v", Value::int(CANONICAL_VERSION)),
            ("config", Value::Str(self.cfg.name.clone())),
            (
                "config_digest",
                Value::Str(format!("{:016x}", config_digest(&self.cfg))),
            ),
            ("insts", Value::int(self.insts)),
        ];
        if let Some(plan) = &self.faults {
            let kinds = FaultKind::ALL
                .iter()
                .filter(|k| plan.enabled(**k))
                .map(|k| Value::Str(k.name().to_string()))
                .collect();
            fields.push((
                "faults",
                Value::obj([
                    ("seed", Value::Str(format!("{:#x}", plan.seed()))),
                    ("rate", Value::Num(plan.rate_value())),
                    ("kinds", Value::Arr(kinds)),
                ]),
            ));
        }
        if let Some(spec) = &self.sampling {
            fields.push((
                "sampling",
                Value::obj([
                    ("interval", Value::int(spec.interval)),
                    ("warmup", Value::int(spec.warmup)),
                    ("max_k", Value::int(spec.max_k as u64)),
                    ("seed", Value::Str(format!("{:#x}", spec.seed))),
                ]),
            ));
        }
        Value::obj(fields)
    }

    /// Run the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics if a replay capture is armed that fails
    /// [`SimRequest::validate_replay`] (wrong source or too short), and
    /// under sampling if a fault plan is armed or a prebuilt plan or
    /// warmth does not fit the request.
    pub fn run(&self, wl: &Workload) -> SimReport {
        if let Err(e) = self.validate_replay(wl) {
            panic!("invalid replay request: {e}");
        }
        if let Some(spec) = &self.sampling {
            return crate::sampled::run_sampled(self, wl, spec, self.plan.as_ref());
        }
        let inj = self
            .faults
            .as_ref()
            .map(|p| p.injector_for(&self.cfg.name, wl.profile.name));
        let replay = self.replay.clone();
        Machine::from_config_window(self.cfg.clone(), wl, self.insts, inj, replay, 0).run()
    }
}

/// FNV-1a over the config's `Debug` rendering: a cheap structural digest
/// that tells two same-named ablation configs apart in the canonical form.
/// `Debug` output is deterministic for these plain-data structs, and the
/// digest only ever needs to distinguish configs within one binary version
/// (the canonical `v` field gates anything longer-lived).
fn config_digest(cfg: &MachineConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    #[test]
    fn builder_defaults_and_setters() {
        let r = SimRequest::model(Model::TOW);
        assert_eq!(r.insts_budget(), DEFAULT_INSTS);
        assert!(r.fault_plan().is_none());
        assert_eq!(r.machine_config().name, Model::TOW.config().name);
        let r = r
            .insts(5_000)
            .faults(FaultPlan::new(7).only(&[FaultKind::BitFlip]));
        assert_eq!(r.insts_budget(), 5_000);
        assert!(r.fault_plan().is_some_and(|p| p.seed() == 7));
    }
}
