//! Layer 1 of the service: request parsing.
//!
//! The wire schema is a versioned JSON object — the codec is the
//! hand-rolled [`parrot_telemetry::json`] parser, hardened for untrusted
//! input (depth cap, strict number grammar, structured errors). A job
//! submission looks like:
//!
//! ```json
//! {"v": 1, "kind": "sim", "model": "TOW", "app": "gcc", "insts": 200000}
//! ```
//!
//! `v` is [`WIRE_VERSION`] and is required: the schema can evolve without
//! guessing games. `kind` selects one of the five [`JobKind`]s; the
//! remaining fields are kind-specific and closed — an unknown field is a
//! structured [`WireError`], not silently ignored, so client typos
//! (`"modle"`) fail loudly instead of running the wrong simulation.
//!
//! This module is deliberately *syntactic*: it checks shape, types, and
//! ranges, but it does not know which model or app names exist. Semantic
//! validation and canonicalization live behind the
//! [`Executor`](crate::Executor) trait so that the crate stays below the
//! experiment harness in the dependency graph.

use parrot_telemetry::json::{self, Value};
use std::fmt;

/// Version of the job wire schema. Bump on any change to field names,
/// types, or semantics.
pub const WIRE_VERSION: u64 = 1;

/// Hard cap on a request body. A submission is a small JSON object; a
/// megabyte is already generous, and the cap is what keeps a hostile
/// `Content-Length` from becoming an allocation.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// The five job kinds the service executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// One `SimRequest`: a single (model, app) simulation.
    Sim,
    /// The full (model × app) sweep.
    Sweep,
    /// The fault-injection soak campaign.
    Soak,
    /// Capture a trace in memory, replay it, and verify byte-identity.
    ReplayVerify,
    /// Static whole-program analysis of one app.
    Analyze,
}

impl JobKind {
    /// Every kind, in wire-name order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Sim,
        JobKind::Sweep,
        JobKind::Soak,
        JobKind::ReplayVerify,
        JobKind::Analyze,
    ];

    /// The wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Sim => "sim",
            JobKind::Sweep => "sweep",
            JobKind::Soak => "soak",
            JobKind::ReplayVerify => "replay_verify",
            JobKind::Analyze => "analyze",
        }
    }

    /// Inverse of [`JobKind::name`].
    pub fn from_name(s: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable index for per-kind budget arrays.
    pub fn index(self) -> usize {
        JobKind::ALL.iter().position(|k| *k == self).unwrap()
    }

    /// Can this kind run in SimPoint-sampled mode under overload?
    /// Simulation-shaped work can trade fidelity for throughput; soak,
    /// replay-verification, and static analysis cannot (a sampled verify
    /// or soak would not be testing what it claims to test).
    pub fn sheddable(self) -> bool {
        matches!(self, JobKind::Sim | JobKind::Sweep)
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured wire-level error: a stable machine-readable `code` plus a
/// human-readable `message`. Serialized into every non-2xx response body.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Stable error code (`bad_json`, `bad_version`, `unknown_field`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// The response-body form: `{"error": {"code": ..., "message": ...}}`.
    pub fn to_json(&self) -> Value {
        Value::obj([(
            "error",
            Value::obj([
                ("code", Value::Str(self.code.to_string())),
                ("message", Value::Str(self.message.clone())),
            ]),
        )])
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Fields accepted per kind, beyond the common `v`/`kind`/`insts`.
/// `(name, required)` pairs; the schema is closed over this table.
fn kind_fields(kind: JobKind) -> &'static [(&'static str, bool)] {
    match kind {
        JobKind::Sim => &[
            ("model", true),
            ("app", true),
            ("fault_seed", false),
            ("fault_rate", false),
        ],
        // `app` restricts the sweep to one application (all models);
        // absent, the job is the full (model × app) sweep.
        JobKind::Sweep => &[("app", false)],
        JobKind::Soak => &[],
        JobKind::ReplayVerify => &[("model", true), ("app", true)],
        JobKind::Analyze => &[("app", true)],
    }
}

/// A parsed, shape-checked job submission.
///
/// The body is kept as the parsed [`Value`]; typed accessors pull the
/// fields the backend needs. Everything here has already passed the
/// closed-schema check, so an accessor returning `None` means "field
/// absent", never "field misspelled".
#[derive(Clone, Debug)]
pub struct JobSpec {
    kind: JobKind,
    body: Value,
}

impl JobSpec {
    /// Parse and shape-check a submission body.
    pub fn parse(text: &str) -> Result<JobSpec, WireError> {
        let v = json::parse(text)
            .map_err(|e| WireError::new("bad_json", format!("body is not valid JSON: {e}")))?;
        Self::from_value(v)
    }

    /// Shape-check an already-parsed value.
    pub fn from_value(v: Value) -> Result<JobSpec, WireError> {
        let Value::Obj(map) = &v else {
            return Err(WireError::new("bad_body", "body must be a JSON object"));
        };
        match v.get("v").as_u64() {
            Some(WIRE_VERSION) => {}
            Some(other) => {
                return Err(WireError::new(
                    "bad_version",
                    format!(
                        "wire version {other} not supported (this server speaks {WIRE_VERSION})"
                    ),
                ));
            }
            None => {
                return Err(WireError::new(
                    "bad_version",
                    format!("missing required field \"v\" (wire version; this server speaks {WIRE_VERSION})"),
                ));
            }
        }
        let kind = match v.get("kind").as_str() {
            Some(s) => JobKind::from_name(s).ok_or_else(|| {
                WireError::new(
                    "bad_kind",
                    format!(
                        "unknown kind {s:?}; expected one of: {}",
                        JobKind::ALL.map(|k| k.name()).join(", ")
                    ),
                )
            })?,
            None => {
                return Err(WireError::new(
                    "bad_kind",
                    "missing required field \"kind\"",
                ))
            }
        };
        let fields = kind_fields(kind);
        for key in map.keys() {
            let known = key == "v"
                || key == "kind"
                || key == "insts"
                || fields.iter().any(|(n, _)| n == key);
            if !known {
                return Err(WireError::new(
                    "unknown_field",
                    format!("field {key:?} is not part of the {kind} schema"),
                ));
            }
        }
        for (name, required) in fields {
            if *required && matches!(v.get(name), Value::Null) {
                return Err(WireError::new(
                    "missing_field",
                    format!("kind {kind} requires field {name:?}"),
                ));
            }
        }
        let spec = JobSpec { kind, body: v };
        // Type/range checks on the optional numerics.
        if !matches!(spec.body.get("insts"), Value::Null) && spec.insts().is_none() {
            return Err(WireError::new(
                "bad_field",
                "\"insts\" must be a positive integer",
            ));
        }
        if !matches!(spec.body.get("fault_seed"), Value::Null) && spec.fault_seed().is_none() {
            return Err(WireError::new(
                "bad_field",
                "\"fault_seed\" must be a non-negative integer",
            ));
        }
        if let Value::Num(r) = spec.body.get("fault_rate") {
            if !(0.0..=1.0).contains(r) {
                return Err(WireError::new(
                    "bad_field",
                    "\"fault_rate\" must be in [0, 1]",
                ));
            }
        } else if !matches!(spec.body.get("fault_rate"), Value::Null) {
            return Err(WireError::new(
                "bad_field",
                "\"fault_rate\" must be a number",
            ));
        }
        for name in ["model", "app"] {
            if !matches!(spec.body.get(name), Value::Null) && spec.body.get(name).as_str().is_none()
            {
                return Err(WireError::new(
                    "bad_field",
                    format!("{name:?} must be a string"),
                ));
            }
        }
        Ok(spec)
    }

    /// The job kind.
    pub fn kind(&self) -> JobKind {
        self.kind
    }

    /// The model name, if the kind carries one.
    pub fn model(&self) -> Option<&str> {
        self.body.get("model").as_str()
    }

    /// The app name, if the kind carries one.
    pub fn app(&self) -> Option<&str> {
        self.body.get("app").as_str()
    }

    /// The instruction budget, if given.
    pub fn insts(&self) -> Option<u64> {
        let n = self.body.get("insts").as_u64()?;
        (n > 0).then_some(n)
    }

    /// The fault-plan seed, if given.
    pub fn fault_seed(&self) -> Option<u64> {
        self.body.get("fault_seed").as_u64()
    }

    /// The fault rate, if given.
    pub fn fault_rate(&self) -> Option<f64> {
        self.body.get("fault_rate").as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_their_wire_names() {
        for k in JobKind::ALL {
            assert_eq!(JobKind::from_name(k.name()), Some(k));
            assert_eq!(JobKind::ALL[k.index()], k);
        }
        assert_eq!(JobKind::from_name("SIM"), None, "wire names are exact");
    }

    #[test]
    fn a_minimal_sim_spec_parses() {
        let s = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"TOW","app":"gcc"}"#).unwrap();
        assert_eq!(s.kind(), JobKind::Sim);
        assert_eq!(s.model(), Some("TOW"));
        assert_eq!(s.app(), Some("gcc"));
        assert_eq!(s.insts(), None);
    }

    #[test]
    fn version_and_kind_are_required_and_checked() {
        let e = JobSpec::parse(r#"{"kind":"sim","model":"TOW","app":"gcc"}"#).unwrap_err();
        assert_eq!(e.code, "bad_version");
        let e = JobSpec::parse(r#"{"v":2,"kind":"sim","model":"TOW","app":"gcc"}"#).unwrap_err();
        assert_eq!(e.code, "bad_version");
        let e = JobSpec::parse(r#"{"v":1,"kind":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, "bad_kind");
        let e = JobSpec::parse(r#"{"v":1}"#).unwrap_err();
        assert_eq!(e.code, "bad_kind");
    }

    #[test]
    fn the_schema_is_closed_per_kind() {
        let e = JobSpec::parse(r#"{"v":1,"kind":"sim","modle":"TOW","app":"gcc"}"#).unwrap_err();
        assert_eq!(e.code, "unknown_field");
        // `model` belongs to sim, not analyze.
        let e =
            JobSpec::parse(r#"{"v":1,"kind":"analyze","app":"gcc","model":"TOW"}"#).unwrap_err();
        assert_eq!(e.code, "unknown_field");
        // The retired eviction flag is part of no schema, sweep included.
        let e = JobSpec::parse(r#"{"v":1,"kind":"sweep","loop_aware":true}"#).unwrap_err();
        assert_eq!(e.code, "unknown_field");
        let e = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"TOW"}"#).unwrap_err();
        assert_eq!(e.code, "missing_field");
    }

    #[test]
    fn numeric_fields_are_range_checked() {
        let e = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc","insts":0}"#)
            .unwrap_err();
        assert_eq!(e.code, "bad_field");
        let e = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc","insts":1.5}"#)
            .unwrap_err();
        assert_eq!(e.code, "bad_field");
        let e = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc","fault_rate":1.5}"#)
            .unwrap_err();
        assert_eq!(e.code, "bad_field");
        let s = JobSpec::parse(r#"{"v":1,"kind":"sim","model":"N","app":"gcc","fault_rate":0.25}"#)
            .unwrap();
        assert_eq!(s.fault_rate(), Some(0.25));
    }

    #[test]
    fn garbage_bodies_are_structured_errors() {
        for bad in ["", "[]", "17", "\"sim\"", "{\"v\":1,", "{"] {
            let e = JobSpec::parse(bad).unwrap_err();
            assert!(
                e.code == "bad_json" || e.code == "bad_body" || e.code == "bad_version",
                "{bad:?} -> {e}"
            );
            // The error serializes into a well-formed response body.
            let doc = e.to_json().to_json();
            assert!(json::parse(&doc).is_ok());
        }
    }

    #[test]
    fn only_simulation_kinds_are_sheddable() {
        assert!(JobKind::Sim.sheddable());
        assert!(JobKind::Sweep.sheddable());
        assert!(!JobKind::Soak.sheddable());
        assert!(!JobKind::ReplayVerify.sheddable());
        assert!(!JobKind::Analyze.sheddable());
    }
}
