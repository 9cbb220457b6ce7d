//! Command-line contract of `reproduce`: anything outside its modes and
//! flags exits 2 with the usage line before any analysis runs.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("spawn reproduce")
}

#[test]
fn bad_arguments_exit_2_before_any_analysis() {
    for args in [
        &["pta"][..],
        &["table1", "--apps", "droidlife", "--no-snapshot"],
        &["loops", "--budget", "abc"],
        &["table1", "--apps", "nosuch"],
        &["table1", "--assert-no-drift"],
        &["table1", "--budget"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed output: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    }
}

#[test]
fn loops_mode_runs() {
    let out = reproduce(&["loops"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("CONFIRMS hypothesis 3"));
}
