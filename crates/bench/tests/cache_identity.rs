//! Re-simulating a sample of the committed default-budget sweep must
//! reproduce its reports byte for byte: every model on 200k instructions
//! of two SPEC FP apps, one SPEC Int app, and one app each from Office,
//! Multimedia and .NET. Any change to the cycle loop that moves a single
//! report byte fails here, in a debug build, where the cycle loop also
//! steps through every idle span it would skip and checks it.

use parrot_bench::{ResultSet, SweepConfig};
use parrot_core::Model;
use parrot_workloads::{app_by_name, Workload};

const APPS: [&str; 6] = ["swim", "art", "gcc", "word", "quake3", "dotnet-num2"];

#[test]
fn resimulated_reports_match_the_committed_cache_byte_for_byte() {
    let cfg = SweepConfig::new().insts(200_000);
    let cached = ResultSet::load(&cfg).unwrap_or_else(|| {
        panic!(
            "{} is missing or stale; regenerate it with \
             `cargo run --release -p parrot-bench --bin reproduce`",
            cfg.cache_file().display()
        )
    });
    // Two threads, three apps each.
    std::thread::scope(|s| {
        for apps in APPS.chunks(APPS.len() / 2) {
            let (cfg, cached) = (&cfg, &cached);
            s.spawn(move || {
                for &app in apps {
                    let wl = Workload::build(&app_by_name(app).expect("registered app"));
                    let (reports, _) = cfg.run_app(&wl);
                    for (model, report) in Model::ALL.iter().zip(&reports) {
                        assert_eq!(
                            report.to_json().to_json(),
                            cached.get(*model, app).to_json().to_json(),
                            "{model:?}/{app}: re-simulated report differs from {}",
                            cfg.cache_file().display()
                        );
                    }
                }
            });
        }
    });
}
