//! Command-line surface of the `tc-bench` binary.

use std::process::Command;

fn tc_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tc-bench"))
        .args(args)
        .output()
        .expect("tc-bench runs")
}

#[test]
fn run_one_help_prints_its_usage_and_exits_zero() {
    let output = tc_bench(&["run-one", "--help"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 usage");
    assert!(
        stdout.starts_with("usage: tc-bench run-one [options]"),
        "{stdout}"
    );
    assert!(stdout.contains("--checkpoint-every N"), "{stdout}");
}

#[test]
fn top_level_usage_points_run_one_at_its_help() {
    let output = tc_bench(&["--help"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 usage");
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("run-one"))
        .expect("run-one is listed");
    assert!(line.contains("`tc-bench run-one --help`"), "{line}");
    assert!(!line.contains("no args"), "{line}");
}
