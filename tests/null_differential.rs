//! Differential + ground-truth testing for the null-dereference client.
//!
//! Two properties, checked over the corpus, the null-motif generators,
//! and the scaled null corpus:
//!
//! 1. **Ground truth.** [`thresher::NullClient`] reports exactly the
//!    alarms the motif vocabulary predicts ([`apps::NullMotif::expect_alarm`]):
//!    every satisfiable null flow is witnessed, every dead one refuted,
//!    and nothing aborts within the default budget.
//! 2. **Determinism.** The *bytes* of the report — both the human
//!    rendering (`describe`) and the machine rendering
//!    (`to_value(..).to_json()`) — are identical across every context
//!    policy × `--jobs {1,4}` × cold/warm cache × points-to solver
//!    (`reference`, `delta`). A client that answers
//!    differently depending on scheduling, cache state, or solver choice
//!    cannot back a refutation cache or a resident daemon.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use apps::NullMotif;
use pta::ModRef;
use thresher::{CacheMode, NullClient, PointsToPolicy, PtaOptions, SymexConfig, Thresher};
use tir::Program;

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_cache_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("thresher-null-diff-{}-{n}", std::process::id()));
    p
}

fn corpus_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("corpus");
    p
}

/// The insensitive policy, the corpus containers, and object sensitivity
/// (container sensitivity over every class of `program`).
fn policies(program: &Program) -> Vec<PointsToPolicy> {
    let classes: Vec<&str> = program.class_ids().map(|c| program.class(c).name.as_str()).collect();
    vec![
        PointsToPolicy::Insensitive,
        PointsToPolicy::containers_named(program, &["AVec", "AHashMap"]),
        PointsToPolicy::containers_named(program, &classes),
    ]
}

/// Runs the client and returns both renderings of the report.
fn report_bytes(t: &Thresher, program: &Program) -> (String, String) {
    let report = t.check_null_derefs();
    (report.describe(program), report.to_value(program).to_json())
}

fn one_group(motifs: Vec<NullMotif>) -> Vec<(String, Vec<NullMotif>)> {
    vec![(String::new(), motifs)]
}

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

/// Every motif shape, safe and alarming variants, in isolation: the
/// client's verdict must match the vocabulary's ground truth, with a
/// concrete witness attached to every alarm and no budget exhaustion.
#[test]
fn ground_truth_per_motif() {
    let cases: Vec<(&str, NullMotif)> = vec![
        ("vec-get-unwritten", NullMotif::VecGet { pushes: 1, read_at: 2 }),
        ("vec-get-written", NullMotif::VecGet { pushes: 2, read_at: 1 }),
        ("deep-chain-live", NullMotif::DeepChain { depth: 3, null_source: true }),
        ("deep-chain-dead", NullMotif::DeepChain { depth: 3, null_source: false }),
        ("wide-dispatch-null-arm", NullMotif::WideDispatch { width: 3, null_arm: Some(1) }),
        ("wide-dispatch-clean", NullMotif::WideDispatch { width: 3, null_arm: None }),
        ("guarded", NullMotif::GuardedDeref),
    ];
    for (name, motif) in cases {
        let expected = usize::from(motif.expect_alarm());
        let groups = one_group(vec![motif]);
        let program = apps::null_motifs::build_null_program(&groups);
        let t = Thresher::new(&program);
        let report = t.check_null_derefs();
        assert_eq!(
            report.num_alarms(),
            expected,
            "{name}: wrong verdict\n{}",
            report.describe(&program)
        );
        assert_eq!(report.edge_timeouts, 0, "{name}: ran out of budget");
        for alarm in &report.alarms {
            assert!(!alarm.aborted, "{name}: alarm is a budget artifact");
            assert!(alarm.witness.is_some(), "{name}: alarm lacks a witness");
        }
    }
}

/// The scaled null corpus at several sizes: alarm count equals the
/// generator's ground truth, so precision neither decays nor inflates
/// with program size. The front end proposes exactly four sites per
/// module and the engine refutes exactly the pinned number, so a dropped
/// candidate that would have been refuted fails too; every candidate
/// site is either refuted or an alarm.
#[test]
fn ground_truth_on_scaled_corpus() {
    // (scale, candidate sites, refuted sites)
    let pinned = [(1, 4, 4), (2, 8, 6), (4, 16, 12), (6, 24, 18), (8, 32, 23), (16, 64, 45)];
    for (scale, sites, refuted) in pinned {
        let program = apps::scale::scaled_null_program(scale);
        let expected = apps::scale::expected_null_alarms(scale);
        let t = Thresher::new(&program);
        let report = t.check_null_derefs();
        assert_eq!(
            report.num_alarms(),
            expected,
            "scaled-{scale}: wrong alarm count\n{}",
            report.describe(&program)
        );
        assert_eq!(report.edge_timeouts, 0, "scaled-{scale}: ran out of budget");
        assert_eq!(report.candidate_sites, sites, "scaled-{scale}: candidate sites");
        assert_eq!(report.refuted_sites, refuted, "scaled-{scale}: refuted sites");
        assert_eq!(
            report.candidate_sites,
            report.refuted_sites + report.num_alarms(),
            "scaled-{scale}: a candidate site was neither refuted nor reported"
        );
    }
}

/// Figure 1's on-disk program: every dereference in `AVec` is through a
/// freshly allocated table or a just-initialized vector, so the
/// may-null front end produces no candidates at all — the paper's
/// false *flow* alarm (`EMPTY -> act0`) is an escape-client problem,
/// not a null-client one. Pins the front end's tightness: broadening
/// it to "every field read" would regress this to noise.
#[test]
fn fig1_corpus_file_is_null_clean() {
    let src = fs::read_to_string(corpus_dir().join("fig1_vec_null_object.tir")).expect("read");
    let program = tir::parse(&src).expect("parse");
    let t = Thresher::new(&program);
    let report = t.check_null_derefs();
    assert!(report.is_null_safe(), "unexpected alarms:\n{}", report.describe(&program));
    assert_eq!(report.candidate_sites, 0, "fig1 should have no may-null dereference bases");
}

/// The whole on-disk corpus must run the client to completion without
/// aborts, account for every candidate site, and answer byte-identically
/// under four workers — a gate that new corpus files stay analyzable.
#[test]
fn corpus_files_run_null_client() {
    let mut count = 0;
    for entry in fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("tir") {
            continue;
        }
        count += 1;
        let src = fs::read_to_string(&path).expect("read");
        let program = tir::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = Thresher::new(&program).check_null_derefs();
        assert_eq!(report.edge_timeouts, 0, "{}: null client aborted", path.display());
        assert_eq!(
            report.candidate_sites,
            report.refuted_sites + report.num_alarms(),
            "{}: a candidate site was neither refuted nor reported",
            path.display()
        );
        assert_eq!(
            (report.describe(&program), report.to_value(&program).to_json()),
            report_bytes(&Thresher::new(&program).with_jobs(4), &program),
            "{}: jobs=4 changed the report",
            path.display()
        );
    }
    assert!(count >= 10, "expected the full corpus, found {count}");
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// Asserts that every configuration axis leaves both report renderings
/// byte-identical to the jobs-1, cache-free, delta-solver baseline.
#[track_caller]
fn assert_identical_everywhere(name: &str, program: &Program) {
    for policy in policies(program) {
        let mk = || Thresher::with_setup(program, policy.clone(), SymexConfig::default());
        let baseline = report_bytes(&mk(), program);

        // Parallel scheduler.
        let jobs4 = report_bytes(&mk().with_jobs(4), program);
        assert_eq!(baseline, jobs4, "{name} ({policy:?}): jobs=4 changed the report");

        // The reference points-to solver.
        let pta = pta::analyze_reference(program, policy.clone(), &PtaOptions::default());
        let modref = ModRef::compute(program, &pta);
        let report = NullClient::new(program, &pta, &modref, SymexConfig::default()).run();
        let got = (report.describe(program), report.to_value(program).to_json());
        assert_eq!(baseline, got, "{name} ({policy:?}): the reference solver changed the report");

        // Cold write-through cache, then a warm read-only run over it.
        let dir = fresh_cache_dir();
        let cold =
            report_bytes(&mk().with_cache(&dir, CacheMode::ReadWrite).expect("cache"), program);
        assert_eq!(baseline, cold, "{name} ({policy:?}): cold cache changed the report");
        let warm = report_bytes(
            &mk().with_cache(&dir, CacheMode::Read).expect("cache").with_jobs(4),
            program,
        );
        assert_eq!(baseline, warm, "{name} ({policy:?}): warm cache changed the report");
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reports_identical_on_motif_mix() {
    let groups = vec![
        (
            "A".to_owned(),
            vec![
                NullMotif::VecGet { pushes: 1, read_at: 2 },
                NullMotif::DeepChain { depth: 3, null_source: false },
                NullMotif::GuardedDeref,
            ],
        ),
        (
            "B".to_owned(),
            vec![
                NullMotif::WideDispatch { width: 3, null_arm: Some(1) },
                NullMotif::DeepChain { depth: 2, null_source: true },
                NullMotif::VecGet { pushes: 2, read_at: 1 },
            ],
        ),
    ];
    let program = apps::null_motifs::build_null_program(&groups);
    assert_identical_everywhere("motif-mix", &program);
}

#[test]
fn reports_identical_on_scaled_corpus() {
    for scale in [4, 16] {
        let program = apps::scale::scaled_null_program(scale);
        assert_identical_everywhere(&format!("scaled-{scale}"), &program);
    }
}

#[test]
fn reports_identical_on_fig1_corpus_file() {
    let src = fs::read_to_string(corpus_dir().join("fig1_vec_null_object.tir")).expect("read");
    let program = tir::parse(&src).expect("parse");
    assert_identical_everywhere("fig1", &program);
}
