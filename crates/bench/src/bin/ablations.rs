//! Ablation studies for the design choices DESIGN.md calls out, covering
//! the paper's own sensitivity discussions and its §5 future work:
//!
//! 1. **Optimization classes** (§2.4 / companion paper): generic-only vs.
//!    the full core-specific pipeline — the paper claims core-specific
//!    optimizations roughly double the benefit of generic ones.
//! 2. **Blazing threshold** (§2.4): the optimizer is amortized by a
//!    "relatively high blazing threshold" — sweep it.
//! 3. **Hot threshold** (§2.3): selectivity of trace construction.
//! 4. **Trace-cache size** (§4.2): coverage vs. capacity.
//! 5. **Unroll (join) limit** (§2.2): loop unrolling vs. abort exposure.
//! 6. **Split-core design space** (§5 future work): hot-core width of a
//!    TOS-style machine.
//!
//! Run with: `cargo run --release -p parrot-bench --bin ablations [insts]`

use parrot_core::{Model, SimReport, SimRequest};
use parrot_energy::metrics::geo_mean;
use parrot_opt::OptimizerConfig;
use parrot_trace::TraceCacheConfig;
use parrot_uarch::core::CoreConfig;
use parrot_workloads::{app_by_name, Workload};

const APPS: [&str; 5] = ["gcc", "swim", "flash", "word", "dotnet-num1"];

struct Bench {
    workloads: Vec<Workload>,
    insts: u64,
}

impl Bench {
    fn run(&self, cfg: parrot_core::MachineConfig) -> (f64, f64, f64) {
        let req = SimRequest::config(cfg).insts(self.insts);
        let runs: Vec<SimReport> = self.workloads.iter().map(|wl| req.run(wl)).collect();
        let ipc = geo_mean(&runs.iter().map(|r| r.ipc()).collect::<Vec<_>>());
        let energy = geo_mean(&runs.iter().map(|r| r.energy).collect::<Vec<_>>());
        let cov = geo_mean(
            &runs
                .iter()
                .map(|r| {
                    r.trace
                        .as_ref()
                        .map(|t| t.coverage)
                        .unwrap_or(0.0)
                        .max(1e-6)
                })
                .collect::<Vec<_>>(),
        );
        (ipc, energy, cov)
    }
}

fn main() {
    let insts: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    let bench = Bench {
        workloads: APPS
            .iter()
            .map(|a| Workload::build(&app_by_name(a).expect("app")))
            .collect(),
        insts,
    };
    let base = bench.run(Model::N.config());
    let ton = bench.run(Model::TON.config());
    println!(
        "baselines: N ipc={:.3}  TON ipc={:.3} (+{:.1}%)\n",
        base.0,
        ton.0,
        (ton.0 / base.0 - 1.0) * 100.0
    );

    // 1. Optimization classes.
    println!("## optimization classes (TON; paper: core-specific ≈ 2x generic)");
    println!(
        "{:<16}{:>8}{:>12}{:>14}",
        "passes", "IPC", "vs N", "energy vs N"
    );
    for (label, opt) in [
        ("none (TN-like)", None),
        ("generic only", Some(OptimizerConfig::generic_only())),
        ("full", Some(OptimizerConfig::full())),
    ] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[{label}]");
        cfg.trace.as_mut().expect("trace").optimizer = opt;
        let r = bench.run(cfg);
        println!(
            "{:<16}{:>8.3}{:>11.1}%{:>13.1}%",
            label,
            r.0,
            (r.0 / base.0 - 1.0) * 100.0,
            (r.1 / base.1 - 1.0) * 100.0
        );
    }

    // 2. Blazing threshold.
    println!("\n## blazing threshold (TON; optimizer amortization)");
    println!(
        "{:<10}{:>8}{:>12}{:>14}",
        "threshold", "IPC", "vs N", "energy vs N"
    );
    for th in [4u32, 16, 48, 128, 512] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[blaze={th}]");
        cfg.trace.as_mut().expect("trace").blazing_filter.threshold = th;
        let r = bench.run(cfg);
        println!(
            "{:<10}{:>8.3}{:>11.1}%{:>13.1}%",
            th,
            r.0,
            (r.0 / base.0 - 1.0) * 100.0,
            (r.1 / base.1 - 1.0) * 100.0
        );
    }

    // 3. Hot threshold.
    println!("\n## hot threshold (TON; construction selectivity)");
    println!(
        "{:<10}{:>8}{:>10}{:>14}",
        "threshold", "IPC", "coverage", "energy vs N"
    );
    for th in [2u32, 6, 12, 32, 96] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[hot={th}]");
        cfg.trace.as_mut().expect("trace").hot_filter.threshold = th;
        let r = bench.run(cfg);
        println!(
            "{:<10}{:>8.3}{:>9.1}%{:>13.1}%",
            th,
            r.0,
            r.2 * 100.0,
            (r.1 / base.1 - 1.0) * 100.0
        );
    }

    // 4. Trace-cache capacity.
    println!("\n## trace-cache capacity (TON)");
    println!("{:<10}{:>8}{:>10}", "frames", "IPC", "coverage");
    for (sets, ways) in [(16u32, 4u32), (32, 4), (64, 4), (128, 4), (256, 4)] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[tc={}]", sets * ways);
        cfg.trace.as_mut().expect("trace").tcache = TraceCacheConfig { sets, ways };
        let r = bench.run(cfg);
        println!("{:<10}{:>8.3}{:>9.1}%", sets * ways, r.0, r.2 * 100.0);
    }

    // 5. Unroll limit.
    println!("\n## unroll (join) limit (TON; exposure to loop-exit aborts)");
    println!("{:<10}{:>8}{:>10}", "max joins", "IPC", "coverage");
    for mj in [1u32, 2, 4, 8] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[joins={mj}]");
        cfg.trace.as_mut().expect("trace").selection.max_joins = mj;
        let r = bench.run(cfg);
        println!("{:<10}{:>8.3}{:>9.1}%", mj, r.0, r.2 * 100.0);
    }

    // 6. Selection strategy: PARROT's static criteria vs a *stylized*
    //    rePlay-like dynamic (bias-cut) baseline — the comparison §1/§2
    //    discusses. Without loop-boundary cutting, frames are dominated by
    //    capacity cuts whose phase drifts across loop executions, so trace
    //    recurrence (and thus coverage) collapses — the paper's redundancy
    //    argument, amplified.
    println!("\n## selection strategy (TON; PARROT static vs rePlay-style dynamic)");
    println!(
        "{:<24}{:>8}{:>10}{:>14}",
        "strategy", "IPC", "coverage", "energy vs N"
    );
    for (label, sel) in [
        ("PARROT static", parrot_trace::SelectionConfig::default()),
        (
            "rePlay dynamic",
            parrot_trace::SelectionConfig::replay_style(),
        ),
    ] {
        let mut cfg = Model::TON.config();
        cfg.name = format!("TON[{label}]");
        cfg.trace.as_mut().expect("trace").selection = sel;
        let r = bench.run(cfg);
        println!(
            "{:<24}{:>8.3}{:>9.1}%{:>13.1}%",
            label,
            r.0,
            r.2 * 100.0,
            (r.1 / base.1 - 1.0) * 100.0
        );
    }

    // 7. Split-core design space (§5 future work).
    println!("\n## split-core design space (TOS variants; §5 future work)");
    println!(
        "{:<24}{:>8}{:>12}{:>14}",
        "hot core", "IPC", "vs N", "energy vs N"
    );
    for (label, hot, area) in [
        ("narrow (4-wide)", CoreConfig::narrow(), 2.3),
        ("wide (8-wide)", CoreConfig::wide(), 2.8),
        ("wide in-order", CoreConfig::wide().into_in_order(), 2.5),
    ] {
        let mut cfg = Model::TOS.config();
        cfg.name = format!("TOS[{label}]");
        cfg.hot_core = Some(hot);
        cfg.energy.core_area = area;
        if let Some(h) = cfg.hot_energy.as_mut() {
            h.core_area = area;
            if hot.in_order {
                // In-order scheduling: tiny window energy.
                h.window_size = 8;
            }
        }
        let r = bench.run(cfg);
        println!(
            "{:<24}{:>8.3}{:>11.1}%{:>13.1}%",
            label,
            r.0,
            (r.0 / base.0 - 1.0) * 100.0,
            (r.1 / base.1 - 1.0) * 100.0
        );
    }
}
