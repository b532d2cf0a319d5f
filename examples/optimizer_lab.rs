//! Optimizer laboratory: capture a real trace from an application stream,
//! run the dynamic optimizer on it, print the uop listing before and after,
//! and verify functional equivalence by deterministic replay.
//!
//! Run with: `cargo run --release -p parrot-examples --bin optimizer_lab`

use parrot_opt::verify::check_equivalent_multi;
use parrot_opt::{Optimizer, OptimizerConfig};
use parrot_trace::{construct_frame, select_candidates, SelectionConfig};
use parrot_workloads::{app_by_name, Workload};

fn main() {
    let wl = Workload::build(&app_by_name("wupwise").expect("app"));

    // Collect trace candidates from the committed stream.
    let cands = select_candidates(&wl.program, SelectionConfig::default(), 60_000);

    // Pick a juicy candidate: unrolled (joined) with a decent uop count.
    let cand = cands
        .iter()
        .filter(|c| c.joins >= 2)
        .max_by_key(|c| c.num_uops)
        .or_else(|| cands.iter().max_by_key(|c| c.num_uops))
        .expect("stream produced candidates");
    let mut frame = construct_frame(cand, &wl.decoded);
    let original = frame.uops.clone();

    println!(
        "trace {} ({} insts, {} units joined)\n",
        frame.tid, frame.num_insts, frame.joins
    );
    println!("-- before optimization: {} uops --", original.len());
    for (i, u) in original.iter().enumerate() {
        println!("  {i:>2}: {u}");
    }

    let mut optimizer = Optimizer::new(OptimizerConfig::full());
    let outcome = optimizer.optimize(&mut frame, 0);

    println!("\n-- after optimization: {} uops --", frame.uops.len());
    for (i, u) in frame.uops.iter().enumerate() {
        println!("  {i:>2}: {u}");
    }
    println!();
    println!(
        "uops {} -> {} ({:.0}% reduction); critical path {} -> {} cycles",
        outcome.uops_before,
        outcome.uops_after,
        (1.0 - outcome.uops_after as f64 / outcome.uops_before as f64) * 100.0,
        outcome.dep_before,
        outcome.dep_after
    );
    println!(
        "pass activity: {} renamed, {} folded, {} simplified, {} dead removed, {} fused, {} SIMD lanes",
        outcome.passes.renamed_defs,
        outcome.passes.folded,
        outcome.passes.simplified,
        outcome.passes.removed_dead,
        outcome.passes.fused,
        outcome.passes.simd_lanes
    );

    // Prove it: replay both versions from many random entry states.
    let seeds: Vec<u64> = (0..32).map(|i| 0x5eed + i * 7919).collect();
    match check_equivalent_multi(&original, &frame.uops, &frame.mem_addrs, &seeds) {
        Ok(()) => println!(
            "\nfunctional equivalence verified over {} random entry states ✓",
            seeds.len()
        ),
        Err(e) => panic!("optimizer broke the trace: {e}"),
    }
}
