//! The paper's qualitative *shapes* — who wins, roughly by what factor,
//! and where the orderings fall — asserted over the committed
//! default-budget sweep cache. The test only reads the cache: when it is
//! missing or stale it fails naming the file, and never runs the sweep
//! (`cargo run --release -p parrot-bench --bin reproduce` regenerates it).

use parrot_bench::{ResultSet, SweepConfig};
use parrot_core::{Model, SimReport};
use parrot_workloads::Suite;
use std::ops::RangeInclusive;

/// One shape: its label, the measured value, and the range the paper's
/// result allows.
type Bound = (&'static str, f64, RangeInclusive<f64>);

/// Every shape bound, measured on `set`.
fn bounds(set: &ResultSet) -> Vec<Bound> {
    let ipc = |r: &SimReport| r.ipc();
    let energy = |r: &SimReport| r.energy;
    let ratio = |model, base, f: fn(&SimReport) -> f64| set.suite_ratio(None, model, base, f);
    let cmpw = |model, base| set.suite_cmpw(None, model, base);
    // Trace-side metrics, floored so the geomean stays finite.
    let metric = |suite, model, f: &dyn Fn(&SimReport) -> Option<f64>| {
        set.suite_metric(suite, model, |r| f(r).unwrap_or(0.0).max(1e-6))
    };
    let coverage = |suite| {
        metric(Some(suite), Model::TON, &|r| {
            Some(r.trace.as_ref()?.coverage)
        })
    };
    let opt = |f: fn(&parrot_core::OptReport) -> f64| {
        metric(None, Model::TOW, &|r| {
            Some(f(r.trace.as_ref()?.opt.as_ref()?))
        })
    };

    let tn = ratio(Model::TN, Model::N, ipc);
    let ton = ratio(Model::TON, Model::N, ipc);
    let n_bmr = metric(None, Model::N, &|r| Some(r.branch_mispredict_rate()));
    let cold_bmr = metric(None, Model::TON, &|r| Some(r.branch_mispredict_rate()));
    let tmr = metric(None, Model::TON, &|r| {
        Some(r.trace.as_ref()?.trace_mispredict_rate())
    });
    let trace_energy = metric(None, Model::TON, &|r| {
        Some(
            ["tcache", "filters", "optimizer", "tpred"]
                .map(|u| r.unit_share(u))
                .iter()
                .sum(),
        )
    });

    vec![
        // §1/§4.1 headline bands (paper value ± generous tolerance).
        (
            "W vs N IPC (paper ~1.15)",
            ratio(Model::W, Model::N, ipc),
            1.08..=1.25,
        ),
        (
            "W vs N energy (paper ~1.70)",
            ratio(Model::W, Model::N, energy),
            1.45..=1.95,
        ),
        ("TON vs N IPC (paper ~1.17)", ton, 1.10..=1.25),
        (
            "TON vs N energy (paper ~1.03)",
            ratio(Model::TON, Model::N, energy),
            0.85..=1.12,
        ),
        (
            "TON vs W IPC (paper: slightly better)",
            ratio(Model::TON, Model::W, ipc),
            0.95..=1.15,
        ),
        (
            "TON vs W energy (paper ~0.61)",
            ratio(Model::TON, Model::W, energy),
            0.45..=0.72,
        ),
        (
            "TOW vs W IPC (paper ~1.25)",
            ratio(Model::TOW, Model::W, ipc),
            1.10..=1.35,
        ),
        (
            "TOW vs W energy (paper ~0.82)",
            ratio(Model::TOW, Model::W, energy),
            0.65..=0.95,
        ),
        (
            "TOW vs N IPC (paper ~1.45)",
            ratio(Model::TOW, Model::N, ipc),
            1.25..=1.55,
        ),
        (
            "TON vs N CMPW (paper ~1.32)",
            cmpw(Model::TON, Model::N),
            1.15..=1.60,
        ),
        (
            "TOW vs N CMPW (paper ~1.51)",
            cmpw(Model::TOW, Model::N),
            1.25..=1.75,
        ),
        (
            "TON vs W CMPW (paper ~1.67)",
            cmpw(Model::TON, Model::W),
            1.40..=2.10,
        ),
        (
            "TOW vs W CMPW (paper ~1.92)",
            cmpw(Model::TOW, Model::W),
            1.55..=2.30,
        ),
        // Fig 4.1: the trace cache alone is worth little; optimization is the win.
        ("TN vs N IPC (paper ~1.02)", tn, 0.98..=1.12),
        ("optimization adds over TN (TON/TN)", ton / tn, 1.05..=1.30),
        // Fig 4.7: trace mispredict < N branch mispredict < TON cold.
        (
            "Fig4.7: trace mispredict below N branch",
            tmr / n_bmr,
            0.0..=1.0,
        ),
        (
            "Fig4.7: TON cold branch above N branch",
            cold_bmr / n_bmr,
            1.0..=10.0,
        ),
        // Fig 4.8: coverage levels and ordering.
        (
            "coverage SpecFP (paper ~0.90)",
            coverage(Suite::SpecFp),
            0.75..=0.98,
        ),
        (
            "coverage SpecInt (paper 0.60–0.70)",
            coverage(Suite::SpecInt),
            0.45..=0.80,
        ),
        (
            "coverage: SpecFP above SpecInt",
            coverage(Suite::SpecFp) / coverage(Suite::SpecInt),
            1.05..=3.0,
        ),
        // Fig 4.9: optimizer impact bands.
        (
            "uop reduction (paper ~0.19)",
            opt(|o| o.uop_reduction),
            0.10..=0.40,
        ),
        (
            "dep reduction (paper ~0.08)",
            opt(|o| o.dep_reduction),
            0.04..=0.30,
        ),
        // Fig 4.10: reuse amortizes the optimizer (≫ blazing threshold 48).
        (
            "mean optimized-trace reuse",
            metric(None, Model::TOW, &|r| {
                Some(r.trace.as_ref()?.mean_opt_reuse)
            }),
            50.0..=1e9,
        ),
        // Fig 4.11: trace manipulation is around 10% of TON energy.
        (
            "trace-manipulation energy share (paper ~0.10)",
            trace_energy,
            0.04..=0.18,
        ),
    ]
}

#[test]
fn the_committed_sweep_has_the_papers_shapes() {
    let cfg = SweepConfig::new();
    let set = ResultSet::load(&cfg).unwrap_or_else(|| {
        panic!(
            "no current sweep cache at {} (missing, or stale for this build): \
             regenerate it with `cargo run --release -p parrot-bench --bin reproduce`",
            cfg.cache_file().display()
        )
    });
    let bounds = bounds(&set);
    let failed: Vec<String> = bounds
        .iter()
        .filter(|(_, value, range)| !range.contains(value))
        .map(|(label, value, range)| format!("{label}: {value:.3} outside {range:?}"))
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} paper-shape bounds failed:\n  {}",
        failed.len(),
        bounds.len(),
        failed.join("\n  ")
    );
}
