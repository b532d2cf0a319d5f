//! Sampling-fidelity probe: prints sampled-vs-full IPC/energy error per
//! app (and optionally per model) for an arbitrary sampling spec. A
//! tuning tool for the fidelity-test and CI constants — not part of the
//! measured experiments.
//!
//! ```console
//! $ cargo run --release -p parrot-bench --example probe_fidelity -- \
//!       30000000 100000 10 200000 gcc,swim --models
//! ```

use parrot_core::{build_plan, Model, SamplingSpec, SimRequest};
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{all_apps, Workload};
use std::sync::Arc;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    let interval: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let max_k: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let warmup: u64 = std::env::args()
        .nth(4)
        .and_then(|s| s.parse().ok())
        .unwrap_or(budget);
    let spec = SamplingSpec {
        interval,
        warmup,
        max_k,
        ..SamplingSpec::default()
    };
    println!("budget {budget} interval {interval} max_k {max_k} warmup {warmup}");
    let only: Vec<String> = std::env::args()
        .nth(5)
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let per_model = std::env::args().any(|a| a == "--models");
    let models: &[Model] = if per_model {
        &Model::ALL
    } else {
        &[Model::TOW]
    };
    for p in all_apps() {
        if !only.is_empty() && !only.iter().any(|n| n == p.name) {
            continue;
        }
        let wl = Workload::build(&p);
        let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).unwrap());
        let plan = Arc::new(build_plan(&trace, &wl, budget, &spec).unwrap());
        let k = plan.k();
        for &m in models {
            let full = SimRequest::model(m).insts(budget).run(&wl);
            let sampled = SimRequest::model(m)
                .insts(budget)
                .replay(Arc::clone(&trace))
                .sampled_plan(Arc::clone(&plan))
                .run(&wl);
            let rel = |s: f64, f: f64| if f != 0.0 { (s / f - 1.0).abs() } else { 0.0 };
            println!(
                "{:<12} {:?} {m:<4} k={} ipc_err={:.4} energy_err={:.4}",
                p.name,
                p.suite,
                k,
                rel(sampled.ipc(), full.ipc()),
                rel(sampled.energy, full.energy)
            );
        }
    }
}
