//! Determinism self-tests of the benchmark: generated inputs are a pure
//! function of the seed, and two runs of a workload give the same
//! answers and the same work counts. An answer that depends on timing
//! fails here instead of widening a bound.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workload runs are release-only: debug symbolic execution is
//! orders of magnitude slower). The serve-edit test builds
//! `thresher-serve` into this target directory when it is missing.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use perfbench::report::Report;
use perfbench::{leak, null, serve, RunOpts};

/// Workload runs install the process-global obs recorder and resolve
/// `corpus/` against the working directory: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").to_owned()
}

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_current_dir(repo_root()).expect("enter the repository root");
    guard
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `thresher-serve` from this target directory, built on first use.
fn serve_bin() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).parent().expect("target dir").to_owned();
    let bin = target.join("release").join("thresher-serve");
    if !bin.exists() {
        let status = std::process::Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-p", "thresher", "--bin", "thresher-serve"])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(repo_root())
            .status()
            .expect("run cargo");
        assert!(status.success(), "building thresher-serve failed");
    }
    bin
}

/// One untraced and one traced pass over the inputs in `inputs`.
fn short_run(seed: u64, inputs: &Path) -> RunOpts {
    RunOpts {
        seed,
        seconds: 0.0,
        traced: true,
        inputs: inputs.to_owned(),
        out: inputs.to_owned(),
        serve_bin: PathBuf::new(),
    }
}

/// The answers and work counts that must repeat exactly.
fn repeatable(r: &Report) -> Vec<(&'static str, f64)> {
    assert!(r.correct(), "failed checks: {:?} ({} failed ops)", r.check_failures, r.failed);
    let mut out = vec![("failed_frac", r.failed as f64 / r.attempted as f64)];
    for name in
        ["refuted_frac", "decided_frac", "pta.propagations", "symex.path_programs", "solver.calls"]
    {
        out.push((name, r.metrics[name].unwrap_or_else(|| panic!("{name} withheld"))));
    }
    out
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let _serial = serial();
    assert_eq!(leak::app_order(7), leak::app_order(7));
    assert_ne!(leak::app_order(1), leak::app_order(2));

    let files = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .expect("read inputs")
            .map(|e| {
                let p = e.expect("entry").path();
                (p.display().to_string(), std::fs::read(&p).expect("read input"))
            })
            .collect();
        v.sort();
        v.into_iter()
            .map(|(p, b)| (Path::new(&p).file_name().unwrap().to_string_lossy().into(), b))
            .collect()
    };
    let gen = |seed: u64, tag: &str| {
        let dir = scratch(&format!("gen-{tag}"));
        null::write_inputs(&dir, seed, 16).expect("null inputs");
        serve::write_inputs(&dir, seed, 1).expect("serve inputs");
        files(&dir)
    };
    let a = gen(3, "a");
    assert_eq!(a.len(), 3, "program text, alarm count and edit stream");
    assert_eq!(a, gen(3, "b"), "same seed, byte-identical inputs");
    assert_ne!(a, gen(4, "c"), "another seed, other inputs");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn leak_corpus_repeats_its_answers() {
    let _serial = serial();
    let dir = scratch("leak");
    let first = leak::run(&short_run(1, &dir)).expect("leak run");
    let second = leak::run(&short_run(1, &dir)).expect("leak run");
    assert_eq!(repeatable(&first), repeatable(&second));
    assert_eq!(first.metrics["refuted_frac"], Some(43.0 / 163.0));
    assert_eq!(first.metrics["decided_frac"], Some(195.0 / 222.0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn null_scaled_repeats_its_answers() {
    let _serial = serial();
    let dir = scratch("null");
    null::write_inputs(&dir, 5, 64).expect("null inputs");
    let first = null::run(&short_run(5, &dir)).expect("null run");
    let second = null::run(&short_run(5, &dir)).expect("null run");
    assert_eq!(repeatable(&first), repeatable(&second));

    // The per-site loop is `NullClient::run`'s sequential path.
    let (text, _) = null::generate(5, 64);
    let program = tir::parse(&text).expect("parse");
    let report = thresher::Thresher::new(&program).check_null_derefs();
    let refuted = report.refuted_sites as f64 / report.candidate_sites as f64;
    assert_eq!(first.metrics["refuted_frac"], Some(refuted));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn serve_edit_repeats_its_answers() {
    let _serial = serial();
    let bin = serve_bin();
    let dir = scratch("serve");
    serve::write_inputs(&dir, 9, 1).expect("serve inputs");
    let run = || serve::run(&RunOpts { serve_bin: bin.clone(), ..short_run(9, &dir) });
    let first = run().expect("serve run");
    let second = run().expect("serve run");
    assert_eq!(repeatable(&first), repeatable(&second));
}
