//! One-off timing breakdown of the sampled path (tuning tool).
use parrot_core::{build_plan, Model, SampleWarmth, SamplingSpec, SimRequest};
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{app_by_name, Workload};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "gcc".into());
    let budget: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000_000);
    let spec = SamplingSpec::default();
    let wl = Workload::build(&app_by_name(&app).unwrap());
    let t = Instant::now();
    let trace = Arc::new(capture(&wl, budget, DEFAULT_SLICE_INSTS).unwrap());
    println!("capture  {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let plan = Arc::new(build_plan(&trace, &wl, budget, &spec).unwrap());
    println!(
        "plan     {:>8.1} ms (k={})",
        t.elapsed().as_secs_f64() * 1e3,
        plan.k()
    );
    let t = Instant::now();
    let cfgs: Vec<_> = Model::ALL.iter().map(|m| m.config()).collect();
    let warmth = Arc::new(SampleWarmth::build(
        &trace, &wl, budget, &plan, &spec, &cfgs,
    ));
    println!("warmth   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    for m in Model::ALL {
        let t = Instant::now();
        let r = SimRequest::model(m)
            .insts(budget)
            .replay(Arc::clone(&trace))
            .sampled_plan(Arc::clone(&plan))
            .sample_warmth(Arc::clone(&warmth))
            .run(&wl);
        println!(
            "{m:<4} run {:>8.1} ms (ipc {:.3})",
            t.elapsed().as_secs_f64() * 1e3,
            r.ipc()
        );
    }
}
