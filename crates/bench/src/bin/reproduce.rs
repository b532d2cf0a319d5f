//! Reproduce every table and figure of the paper's evaluation (§4) and
//! write the paper-vs-measured record to `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p parrot-bench --bin reproduce`
//! (set `PARROT_INSTS` to change the per-run instruction budget; pass
//! `--jobs N` to set the sweep worker count — telemetry sinks, if any,
//! are sharded across the workers and merged after the join). The
//! document is [`parrot_bench::figures::experiments_markdown`]; print one
//! of its figures with `parrot fig <id>`.

use parrot_bench::figures::experiments_markdown;
use parrot_bench::ResultSet;

fn main() {
    let (telemetry, _args) =
        parrot_bench::cli::Telemetry::from_args(std::env::args().skip(1).collect());
    let md = experiments_markdown(&ResultSet::load_or_run());
    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    println!("{md}");
    parrot_telemetry::status!("(written to EXPERIMENTS.md)");
    telemetry.finish();
}
