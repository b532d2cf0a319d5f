//! Optimization-class breakdown, in the spirit of the companion paper the
//! study cites for §2.4/§4.3: how much each pass class contributes to uop
//! and dependency-path reduction, measured offline over the blazing-grade
//! traces of several applications.
//!
//! The paper's claim: core-specific optimizations (renaming, fusion,
//! SIMDification, scheduling) more than double the benefit of generic ones
//! (constant propagation, simplification, dead-code elimination).
//!
//! Run with: `cargo run --release -p parrot-bench --bin opt_breakdown`

use parrot_opt::{Optimizer, OptimizerConfig};
use parrot_trace::{construct_frame, select_candidates, SelectionConfig, TraceFrame};
use parrot_workloads::{app_by_name, Workload};

fn frames_for(app: &str, n: usize) -> Vec<TraceFrame> {
    let wl = Workload::build(&app_by_name(app).expect("registered app"));
    select_candidates(&wl.program, SelectionConfig::default(), n)
        .iter()
        .map(|c| construct_frame(c, &wl.decoded))
        .collect()
}

fn measure(frames: &[TraceFrame], cfg: OptimizerConfig) -> (f64, f64) {
    let mut optz = Optimizer::new(cfg);
    for frame in frames {
        let mut f = frame.clone();
        optz.optimize(&mut f, 0);
    }
    (optz.stats().uop_reduction(), optz.stats().dep_reduction())
}

fn main() {
    let apps = ["gcc", "swim", "flash", "wupwise", "word"];
    let mut frames = Vec::new();
    for a in apps {
        frames.extend(frames_for(a, 25_000));
    }
    println!("{} traces from {:?}\n", frames.len(), apps);

    let none = OptimizerConfig::none();
    let stages: Vec<(&str, OptimizerConfig)> = vec![
        (
            "renaming only",
            OptimizerConfig {
                rename: true,
                latency_cycles: 100,
                ..none
            },
        ),
        (
            "+ const prop",
            OptimizerConfig {
                rename: true,
                const_prop: true,
                latency_cycles: 100,
                ..none
            },
        ),
        (
            "+ simplify",
            OptimizerConfig {
                rename: true,
                const_prop: true,
                simplify: true,
                latency_cycles: 100,
                ..none
            },
        ),
        (
            "+ DCE  (= generic)",
            OptimizerConfig {
                rename: true,
                const_prop: true,
                simplify: true,
                dce: true,
                latency_cycles: 100,
                ..none
            },
        ),
        (
            "+ fusion",
            OptimizerConfig {
                rename: true,
                const_prop: true,
                simplify: true,
                dce: true,
                fuse: true,
                latency_cycles: 100,
                ..none
            },
        ),
        (
            "+ SIMDify",
            OptimizerConfig {
                rename: true,
                const_prop: true,
                simplify: true,
                dce: true,
                fuse: true,
                simdify: true,
                latency_cycles: 100,
                ..none
            },
        ),
        ("+ schedule (= full)", OptimizerConfig::full()),
    ];

    println!(
        "{:<22}{:>16}{:>16}",
        "cumulative passes", "uop reduction", "dep reduction"
    );
    let mut generic = (0.0, 0.0);
    let mut full = (0.0, 0.0);
    for (label, cfg) in stages {
        let (u, d) = measure(&frames, cfg);
        println!("{label:<22}{:>15.1}%{:>15.1}%", u * 100.0, d * 100.0);
        if label.contains("generic") {
            generic = (u, d);
        }
        if label.contains("full") {
            full = (u, d);
        }
    }
    println!();
    println!(
        "core-specific passes add {:+.1} points of uop reduction and {:+.1} of dep\nreduction on top of the generic classes (paper: they more than double it).",
        (full.0 - generic.0) * 100.0,
        (full.1 - generic.1) * 100.0
    );
}
