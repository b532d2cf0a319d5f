//! `parrot fig` refuses an unknown id before loading any sweep: usage exit
//! code, and the valid ids on stderr.

use parrot_bench::figures;
use std::process::Command;

#[test]
fn an_unknown_figure_id_exits_2_and_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_parrot"))
        .args(["fig", "no-such-figure"])
        .output()
        .expect("parrot runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing on stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-figure"), "{err}");
    assert!(err.contains(&figures::ids()), "{err}");
}
