//! The `experiments` binary's contract, driven as a process: exit status
//! 0 on a pass and 2 on a name the command table does not hold, and
//! stdout that is a function of the code — equal between two runs and
//! equal to the committed golden of `experiments -- all`.

use std::process::{Command, Output};

/// `crates/netpart-bench/tests/fixtures/experiments_all.txt`: stdout of
/// `experiments -- all`, which CI regenerates and diffs whole.
const ALL: &str = include_str!("fixtures/experiments_all.txt");

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Regression: `experiments -- tabel1` printed nothing and exited 0, so a
/// typo in CI was a green step.
#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = experiments(&["table1", "tabel1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand `tabel1`"), "{err}");
    assert!(
        err.contains("chaos-fabric-smoke"),
        "usage lists the table: {err}"
    );
}

#[test]
fn fig2_passes_with_the_pinned_text() {
    let out = experiments(&["fig2"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        stdout(&out),
        "Fig. 2 — 20×20 grid, 1-D partition over 4 processors:\n  \
         p1: rows  0.. 5  (A=5)\n  p2: rows  5..10  (A=5)\n  \
         p3: rows 10..15  (A=5)\n  p4: rows 15..20  (A=5)\n\n"
    );
}

/// `overhead` and `scalability` were the two commands of `all` that
/// printed host time; now two runs agree and both match the golden.
#[test]
fn overhead_and_scalability_are_functions_of_the_code() {
    for command in ["overhead", "scalability"] {
        let first = experiments(&[command]);
        assert_eq!(first.status.code(), Some(0), "{command}");
        let text = stdout(&first);
        assert_eq!(text, stdout(&experiments(&[command])), "{command}");
        assert!(ALL.contains(&text), "{command} left the golden:\n{text}");
    }
}
