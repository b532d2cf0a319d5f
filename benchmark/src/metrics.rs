//! The metric registry: `BENCHMARK.json` at the repository root, compiled
//! in. It lists every workload and every metric the benchmark emits, with
//! its unit, so the names live in one place.
//!
//! End-to-end metrics are what a user of the simulator sees and are
//! reported by untraced runs. Per-layer metrics come from the separate
//! traced run; a layer a workload never reaches reports 0.

use parrot_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A metric's name and unit.
pub type Metric = (String, String);

/// The workloads and metrics `BENCHMARK.json` lists, in its order.
#[derive(Debug)]
pub struct Registry {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
}

/// The registry parsed from `BENCHMARK.json`.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let entries = |key: &str| {
            doc.get(key)
                .as_arr()
                .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
                .to_vec()
        };
        let text = |v: &Value, k: &str| v.get(k).as_str().unwrap_or_default().to_string();
        let metrics = |key: &str| -> Vec<Metric> {
            entries(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        Registry {
            workloads: entries("workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`. Panics on a name outside the registry: an emitted
    /// name `BENCHMARK.json` does not list is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let r = registry();
        assert!(
            r.end_to_end
                .iter()
                .chain(&r.per_layer)
                .any(|(n, _)| n == name),
            "metric {name} is not in BENCHMARK.json"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line for `table`: every name in
    /// it, as `{"value": .., "unit": ..}`. Unrecorded and non-finite values
    /// read 0.
    pub fn to_json(&self, table: &[Metric]) -> Value {
        Value::Obj(
            table
                .iter()
                .map(|(name, unit)| {
                    let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                    let entry =
                        Value::obj([("value", Value::Num(v)), ("unit", Value::Str(unit.clone()))]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}
