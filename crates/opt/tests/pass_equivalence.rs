//! Exhaustive per-pass equivalence over real application traces: every
//! prefix of the pass pipeline must preserve trace semantics.

use parrot_opt::passes::{self, PassStats};
use parrot_opt::verify::check_equivalent_multi;
use parrot_trace::{construct_frame, select_candidates, SelectionConfig};
use parrot_workloads::{generate_program, AppProfile, Suite};

type PassFn = fn(&mut Vec<parrot_isa::Uop>, &mut PassStats);

fn passes_list() -> Vec<(&'static str, PassFn)> {
    vec![
        (
            "rename",
            |u: &mut Vec<parrot_isa::Uop>, s: &mut PassStats| passes::partial_rename(u, s),
        ),
        ("const_prop", passes::const_propagate),
        ("simplify", passes::simplify),
        ("dce", passes::dce),
        ("fuse", passes::fuse),
        ("simdify", passes::simdify),
        (
            "schedule",
            |u: &mut Vec<parrot_isa::Uop>, _s: &mut PassStats| passes::schedule(u),
        ),
    ]
}

fn check_suite(suite: Suite, insts: usize) {
    let prog = generate_program(&AppProfile::suite_base(suite));
    let decoded = prog.decode_all();
    let cands = select_candidates(&prog, SelectionConfig::default(), insts);
    let all = passes_list();
    let mut checked = 0;
    for c in &cands {
        let frame = construct_frame(c, &decoded);
        for upto in 1..=all.len() {
            let mut uops = frame.uops.clone();
            let mut st = PassStats::default();
            for (_, f) in &all[..upto] {
                f(&mut uops, &mut st);
            }
            check_equivalent_multi(&frame.uops, &uops, &frame.mem_addrs, &[5, 17, 91])
                .unwrap_or_else(|e| {
                    panic!(
                        "{suite:?} trace {} broken by pass prefix ending '{}': {e}",
                        frame.tid,
                        all[upto - 1].0
                    )
                });
        }
        checked += 1;
    }
    assert!(checked > 50, "{suite:?}: only {checked} traces checked");
}

#[test]
fn specint_pass_prefixes_preserve_semantics() {
    check_suite(Suite::SpecInt, 12_000);
}

#[test]
fn specfp_pass_prefixes_preserve_semantics() {
    check_suite(Suite::SpecFp, 12_000);
}

#[test]
fn multimedia_pass_prefixes_preserve_semantics() {
    check_suite(Suite::Multimedia, 12_000);
}

#[test]
fn dotnet_pass_prefixes_preserve_semantics() {
    check_suite(Suite::DotNet, 12_000);
}
