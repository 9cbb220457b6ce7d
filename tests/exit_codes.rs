//! The documented process exit-code contract (`thresher::exit`), exercised
//! end-to-end against the real binaries: analysis outcomes (0/1/2) and the
//! sysexits failure band (64+), shared by `thresher-cli` and
//! `thresher-serve`.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const PROGRAM: &str = r#"
class Box { field item: Object; }
global CACHE: Box;
fn main() {
  var b: Box;
  var secret: Object;
  var s: Object;
  b = new Box @box0;
  secret = new Object @secret0;
  s = new Object @str0;
  b.item = s;
  $CACHE = b;
}
entry main;
"#;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thresher-exit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cli(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_thresher-cli"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run thresher-cli")
        .code()
}

#[test]
fn cli_analysis_outcomes() {
    let dir = tmp("outcomes");
    let path = dir.join("boxy.tir");
    fs::write(&path, PROGRAM).expect("write program");
    let p = path.to_str().unwrap();

    // Completed, everything refuted -> 0.
    assert_eq!(cli(&[p, "--query", "CACHE", "secret0"]), Some(0));
    // Completed with a finding (reachable) -> 1.
    assert_eq!(cli(&[p, "--query", "CACHE", "str0"]), Some(1));
    // Findings dominate refutations when both are queried.
    assert_eq!(cli(&[p, "--query", "CACHE", "secret0", "--query", "CACHE", "str0"]), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_failure_band() {
    let dir = tmp("failures");
    let good = dir.join("boxy.tir");
    fs::write(&good, PROGRAM).expect("write program");
    let bad = dir.join("broken.tir");
    fs::write(&bad, "class {{{ not tir").expect("write broken program");
    let duplicate = dir.join("duplicate.tir");
    fs::write(
        &duplicate,
        PROGRAM.replace("global CACHE: Box;", "global CACHE: Box;\nglobal CACHE: Box;"),
    )
    .expect("write program with a duplicate global");

    // Usage errors -> 64.
    assert_eq!(cli(&["--definitely-not-a-flag"]), Some(64));
    assert_eq!(cli(&[good.to_str().unwrap(), "--query", "NO_SUCH_GLOBAL", "str0"]), Some(64));
    // `--pta-solver` and `--edit-script` are no flags, and `off` is no
    // cache mode.
    assert_eq!(cli(&[good.to_str().unwrap(), "--pta-solver", "delta"]), Some(64));
    let script = dir.join("edits.ndjson");
    fs::write(&script, "{\"op\":\"remove_stmt\",\"method\":\"main\",\"at\":0}\n")
        .expect("write edit script");
    assert_eq!(cli(&[good.to_str().unwrap(), "--edit-script", script.to_str().unwrap()]), Some(64));
    assert_eq!(cli(&[good.to_str().unwrap(), "--cache", "off"]), Some(64));
    // Missing input -> 66.
    assert_eq!(cli(&[dir.join("missing.tir").to_str().unwrap()]), Some(66));
    // Parse error -> 65, a duplicate declaration included.
    assert_eq!(cli(&[bad.to_str().unwrap()]), Some(65));
    assert_eq!(cli(&[duplicate.to_str().unwrap()]), Some(65));
    // --diff-reports with unreadable inputs -> 66.
    assert_eq!(cli(&["--diff-reports", "no-such-a.json", "no-such-b.json"]), Some(66));
    let _ = fs::remove_dir_all(&dir);
}

/// A reader that goes away before the report is written (`| head -1`,
/// `| true`) is an output I/O error -> 74, never a panic.
#[test]
fn cli_closed_stdout_is_an_io_error() {
    let dir = tmp("closed-stdout");
    let path = dir.join("boxy.tir");
    fs::write(&path, PROGRAM).expect("write program");
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_thresher-cli"))
        .args([path.to_str().unwrap(), "--query", "CACHE", "str0"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run thresher-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(74), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_shares_the_contract() {
    // Usage errors -> 64; the daemon has no worker-pool or window flags.
    for args in [
        &["--definitely-not-a-flag"][..],
        &["--workers", "2"],
        &["--global-budget", "5"],
        &["--window", "8"],
    ] {
        let code = Command::new(env!("CARGO_BIN_EXE_thresher-serve"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run thresher-serve")
            .code();
        assert_eq!(code, Some(64), "thresher-serve {args:?}");
    }

    // A clean drain (EOF with no requests) -> 0.
    let mut child = Command::new(env!("CARGO_BIN_EXE_thresher-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn thresher-serve");
    child.stdin.take().unwrap().write_all(b"").unwrap();
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(0));
}
