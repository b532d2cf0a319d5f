//! Quick diagnostic sweep: every model on four contrasting applications,
//! one line per run with the calibration-relevant statistics (IPC, energy,
//! coverage, mispredict rates, uop reduction, pipeline-balance counters),
//! and each application's wall clock on stderr.
//!
//! Run with: `cargo run --release -p parrot-bench --bin smoke`
//! (accepts the shared telemetry flags; see [`parrot_bench::cli`]).

use parrot_bench::cli::Telemetry;
use parrot_bench::SweepConfig;
use parrot_telemetry::{status, verbose};
use parrot_workloads::{app_by_name, Workload};

fn main() {
    let (telemetry, _args) = Telemetry::from_args(std::env::args().skip(1).collect());
    let apps = ["gcc", "swim", "flash", "perlbench"];
    let cfg = SweepConfig::new().insts(150_000);
    for app in apps {
        verbose!("building workload {app}");
        let wl = Workload::build(&app_by_name(app).unwrap());
        let t0 = std::time::Instant::now();
        for r in cfg.run_app(&wl).0 {
            let cov = r.trace.as_ref().map(|t| t.coverage).unwrap_or(0.0);
            let tmr = r
                .trace
                .as_ref()
                .map(|t| t.trace_mispredict_rate())
                .unwrap_or(0.0);
            let ur = r
                .trace
                .as_ref()
                .and_then(|t| t.opt.as_ref())
                .map(|o| o.uop_reduction)
                .unwrap_or(0.0);
            println!(
                "{:10} {:4} ipc={:.3} E={:>10.0} cov={:.2} bmr={:.3} tmr={:.3} uopred={:.3} starve={:.2} blocked={:.2} cyc={}",
                app, r.model, r.ipc(), r.energy, cov, r.branch_mispredict_rate(), tmr, ur,
                r.iq_empty_cycles as f64 / r.cycles as f64,
                r.issue_blocked_cycles as f64 / r.cycles as f64,
                r.cycles
            );
        }
        status!("smoke: {app} ({:.1}s)", t0.elapsed().as_secs_f32());
        println!();
    }
    telemetry.finish();
}
