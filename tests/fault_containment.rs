//! Corpus-wide fault containment: under tiny budgets and short deadlines
//! the analysis must degrade (abort per edge) rather than crash, and the
//! resilient driver must never lose a refutation the strict seed
//! configuration finds.

use std::fs;
use std::time::Duration;

use pta::{ContextPolicy, HeapEdge, LocId, ModRef, PtaResult};
use symex::{Engine, LoopMode, SearchOutcome, StopReason, SymexConfig};
use tir::Program;

fn corpus_dir() -> std::path::PathBuf {
    // Tests run from the crate dir (crates/core); the corpus lives at the
    // workspace root.
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("corpus");
    p
}

fn corpus_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("tir") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("read");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let program = tir::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name, program));
    }
    assert!(out.len() >= 10, "expected the full corpus, found {}", out.len());
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Every may edge of the flow-insensitive heap graph: field edges from
/// `heap_entries` plus global edges from the global points-to sets.
fn all_edges(program: &Program, pta: &PtaResult) -> Vec<HeapEdge> {
    let mut edges = Vec::new();
    for (base, field, targets) in pta.heap_entries() {
        for t in targets.iter() {
            edges.push(HeapEdge::Field { base, field, target: LocId(t as u32) });
        }
    }
    for global in program.global_ids() {
        for t in pta.pt_global(global).iter() {
            edges.push(HeapEdge::Global { global, target: LocId(t as u32) });
        }
    }
    edges
}

/// Per-file cap so the sweep stays fast on the bigger apps.
const EDGE_CAP: usize = 25;

#[test]
fn corpus_sweeps_under_pressure_without_crashing() {
    for (name, program) in corpus_programs() {
        let pta = pta::analyze(&program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&program, &pta);
        let cfg =
            SymexConfig::default().with_budget(20).with_edge_deadline(Duration::from_millis(5));
        let mut engine = Engine::new(&program, &pta, &modref, cfg);
        for edge in all_edges(&program, &pta).into_iter().take(EDGE_CAP) {
            let decision = engine.refute_edge_resilient(&edge);
            // Totality: the driver must return one of the three outcome
            // kinds (never panic, never hang past its deadlines).
            match decision.outcome {
                SearchOutcome::Refuted
                | SearchOutcome::Witnessed(_)
                | SearchOutcome::Aborted(_) => {}
            }
            assert!(decision.attempts >= 1, "{name}: zero attempts recorded");
        }
    }
}

#[test]
fn resilient_driver_never_flips_a_seed_refutation() {
    for (name, program) in corpus_programs() {
        let pta = pta::analyze(&program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&program, &pta);
        for edge in all_edges(&program, &pta).into_iter().take(EDGE_CAP) {
            // Seed behavior: a strict single pass under the default config
            // (fresh engine per edge, like `Thresher::refute_edge`).
            let mut strict = Engine::new(&program, &pta, &modref, SymexConfig::default());
            if !strict.refute_edge(&edge).is_refuted() {
                continue;
            }
            let mut resilient = Engine::new(&program, &pta, &modref, SymexConfig::default());
            let decision = resilient.refute_edge_resilient(&edge);
            assert!(
                decision.outcome.is_refuted(),
                "{name}: resilient driver lost a seed refutation of {edge:?}"
            );
        }
    }
}

#[test]
fn escape_checker_survives_injected_panic() {
    let program = tir::parse(
        r#"
class Box { field item: Object; }
global CACHE: Box;
fn main() {
  var b: Box;
  var s: Object;
  b = new Box @box0;
  s = new Object @secret0;
  b.item = s;
  $CACHE = b;
}
entry main;
"#,
    )
    .expect("parse");
    // A `DropAll` base gets no coarse retry, so nothing strips the injected
    // fault: it panics inside every search that reaches box0's allocation,
    // and the checker must finish anyway and account for it.
    let mut cfg = SymexConfig::default().with_loop_mode(LoopMode::DropAll);
    cfg.inject_panic_on_new = Some("box0".into());
    let t = thresher::Thresher::with_setup(&program, ContextPolicy::Insensitive, cfg);
    let report = t.escape_checker().check_site("secret0");
    assert!(report.aborts.panic >= 1, "expected contained panics, got {:?}", report.aborts);
    // Aborted edges are conservatively kept, so the pair is not proven
    // encapsulated — degraded precision, not a crash.
    assert!(!report.is_encapsulated());
}

#[test]
fn escape_checker_ladder_recovers_from_injected_panic() {
    // A false `box0.item -> secret0` edge whose refutation must walk back
    // through box0's allocation (the store's value has an unresolved
    // `from` constraint until then), so the injected fault fires on the
    // strict pass; the coarse retry strips it and refutes.
    let program = tir::parse(
        r#"
class Box { field item: Object; field other: Box; }
global PUB: Box;
fn main() {
  var b: Box;
  var u: Object;
  var s: Object;
  var i: int;
  b = new Box @box0;
  u = new Object @pub0;
  i = 0;
  while (i < 3) {
    b.other = b;
    i = i + 1;
  }
  s = new Object @secret0;
  b.item = u;
  u = s;
  $PUB = b;
}
entry main;
"#,
    )
    .expect("parse");
    let cfg = SymexConfig { inject_panic_on_new: Some("box0".into()), ..SymexConfig::default() };
    let t = thresher::Thresher::with_setup(&program, ContextPolicy::Insensitive, cfg);
    let report = t.escape_checker().check_site("secret0");
    assert!(report.is_encapsulated(), "the coarse retry should recover the refutation");
    assert!(report.degraded_decisions >= 1);
    assert!(report.retries >= 1);
}

#[test]
fn zero_engine_deadline_degrades_whole_corpus_run() {
    // A zero total deadline must not crash or hang: every edge aborts
    // with WallClock (the coarse retry is skipped once the engine deadline
    // is past) and the sweep completes immediately.
    let (name, program) = &corpus_programs()[0];
    let pta = pta::analyze(program, ContextPolicy::Insensitive);
    let modref = ModRef::compute(program, &pta);
    let cfg = SymexConfig::default().with_total_deadline(Duration::ZERO);
    let mut engine = Engine::new(program, &pta, &modref, cfg);
    for edge in all_edges(program, &pta).into_iter().take(EDGE_CAP) {
        let decision = engine.refute_edge_resilient(&edge);
        match decision.outcome {
            SearchOutcome::Aborted(StopReason::WallClock) => {}
            SearchOutcome::Refuted => {
                // Vacuous edges (no producers) refute before any charge;
                // that is fine — refutation is always sound to report.
            }
            other => {
                panic!("{name}: expected WallClock abort or vacuous refutation, got {other:?}")
            }
        }
        assert!(!decision.degraded, "{name}: no retry may run past the engine deadline");
    }
}

#[test]
fn pressured_outcomes_are_a_subset_flip_to_abort_only() {
    // Degrading pressure may turn decisions into aborts, but it must not
    // invent refutations of edges the seed config witnesses, nor flip
    // refuted edges to witnessed. (Aborts in either direction are fine.)
    let (_, program) = &corpus_programs()[0];
    let pta = pta::analyze(program, ContextPolicy::Insensitive);
    let modref = ModRef::compute(program, &pta);
    for edge in all_edges(program, &pta).into_iter().take(EDGE_CAP) {
        let mut seed = Engine::new(program, &pta, &modref, SymexConfig::default());
        let seed_out = seed.refute_edge(&edge);
        let cfg =
            SymexConfig::default().with_budget(20).with_edge_deadline(Duration::from_millis(5));
        let mut pressured = Engine::new(program, &pta, &modref, cfg);
        let out = pressured.refute_edge_resilient(&edge).outcome;
        match (&seed_out, &out) {
            (SearchOutcome::Refuted, SearchOutcome::Witnessed(_)) => {
                panic!("pressure flipped a refutation to a witness for {edge:?}")
            }
            (SearchOutcome::Witnessed(_), SearchOutcome::Refuted) => {
                panic!("pressure invented a refutation for witnessed {edge:?}")
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Persistent-cache fault containment: a damaged `decisions.jsonl` must
// degrade the run to cold — never panic, never change an answer.

/// Decides the capped canonical edge set of `program` through a scheduler
/// backed by `dir`, returning the per-edge refuted bits, the tally, and the
/// store's corrupt-line count.
fn decide_cached(
    program: &Program,
    dir: &std::path::Path,
    mode: symex::CacheMode,
) -> (Vec<bool>, symex::Tally, u64) {
    use std::sync::Arc;
    let pta = pta::analyze(program, ContextPolicy::Insensitive);
    let modref = ModRef::compute(program, &pta);
    let mut edges = all_edges(program, &pta);
    edges.sort(); // heap_entries iterates a HashMap; canonicalize the cap
    edges.truncate(EDGE_CAP);
    let store = symex::DecisionStore::open(dir, mode, program).expect("open store despite damage");
    let skipped = store.skipped_corrupt();
    let mut sched =
        symex::RefutationScheduler::new(program, &pta, &modref, SymexConfig::default(), 1)
            .with_store(Arc::new(store));
    let mut tally = symex::Tally::default();
    let refuted = edges
        .iter()
        .map(|e| matches!(sched.decide_edge(*e, &mut tally), symex::EdgeAnswer::Refuted))
        .collect();
    (refuted, tally, skipped)
}

fn cache_test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("thresher-fault-cache-{tag}-{}", std::process::id()))
}

fn small_corpus_program() -> Program {
    let src = fs::read_to_string(corpus_dir().join("droidlife.tir")).expect("read droidlife");
    tir::parse(&src).expect("parse droidlife")
}

#[test]
fn bit_flipped_cache_records_degrade_to_cold() {
    let program = small_corpus_program();
    let dir = cache_test_dir("bitflip");
    let _ = fs::remove_dir_all(&dir);
    let (cold, _, _) = decide_cached(&program, &dir, symex::CacheMode::ReadWrite);

    // Flip a byte in the middle of every record line (the header survives).
    let path = dir.join(symex::persist::CACHE_FILE);
    let text = fs::read_to_string(&path).expect("read cache file");
    let mangled: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            if i == 0 || line.len() < 8 {
                line.to_owned()
            } else {
                let mut bytes = line.as_bytes().to_vec();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5a;
                String::from_utf8_lossy(&bytes).into_owned()
            }
        })
        .collect();
    fs::write(&path, mangled.join("\n") + "\n").expect("write mangled cache");

    let (warm, tally, skipped) = decide_cached(&program, &dir, symex::CacheMode::Read);
    assert_eq!(cold, warm, "corrupt cache changed an answer");
    assert!(skipped > 0, "no corrupt line was detected");
    assert_eq!(tally.cache_hits, 0, "a mangled record was served");
    assert_eq!(tally.cache_misses, cold.len() as u64, "every decision must recompute cold");
}

#[test]
fn truncated_cache_degrades_to_cold() {
    let program = small_corpus_program();
    let dir = cache_test_dir("truncate");
    let _ = fs::remove_dir_all(&dir);
    let (cold, _, _) = decide_cached(&program, &dir, symex::CacheMode::ReadWrite);

    // Cut the file mid-record: everything before the cut stays usable,
    // the severed line is skipped, nothing panics.
    let path = dir.join(symex::persist::CACHE_FILE);
    let bytes = fs::read(&path).expect("read cache file");
    let cut = bytes.len() * 3 / 5;
    fs::write(&path, &bytes[..cut]).expect("truncate cache");

    let (warm, tally, skipped) = decide_cached(&program, &dir, symex::CacheMode::Read);
    assert_eq!(cold, warm, "truncated cache changed an answer");
    assert!(skipped >= 1, "the severed record was not counted as corrupt");
    assert_eq!(
        tally.cache_hits + tally.cache_misses,
        cold.len() as u64,
        "every edge is either served from the surviving prefix or recomputed"
    );
    assert_eq!(tally.fresh_path_programs > 0, tally.cache_misses > 0);
}

#[test]
fn wrong_version_cache_is_discarded_then_rebuilt() {
    let program = small_corpus_program();
    let dir = cache_test_dir("version");
    let _ = fs::remove_dir_all(&dir);
    let (cold, _, _) = decide_cached(&program, &dir, symex::CacheMode::ReadWrite);

    // A future/foreign schema version makes the whole file unusable.
    let path = dir.join(symex::persist::CACHE_FILE);
    let text = fs::read_to_string(&path).expect("read cache file");
    let mut lines: Vec<&str> = text.lines().collect();
    let bad_header = "{\"schema\":\"thresher.cache/999\"}";
    lines[0] = bad_header;
    fs::write(&path, lines.join("\n") + "\n").expect("write wrong-version cache");

    // Read-write reopen: degrade to cold AND start a fresh file.
    let (warm, tally, skipped) = decide_cached(&program, &dir, symex::CacheMode::ReadWrite);
    assert_eq!(cold, warm, "version-mismatched cache changed an answer");
    assert_eq!(skipped, 1, "the mismatched header counts as one skipped record");
    assert_eq!(tally.cache_hits, 0, "a record outlived its schema");
    assert_eq!(tally.cache_misses, cold.len() as u64);

    // The rewrite restored a valid store: the next run is fully warm.
    let (rewarm, tally2, skipped2) = decide_cached(&program, &dir, symex::CacheMode::Read);
    assert_eq!(cold, rewarm);
    assert_eq!(skipped2, 0, "the rebuilt store must be clean");
    assert_eq!(tally2.cache_hits, cold.len() as u64);
    assert_eq!(tally2.cache_misses, 0);
    assert_eq!(tally2.fresh_path_programs, 0);

    let _ = fs::remove_dir_all(&dir);
}
