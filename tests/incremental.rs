//! Cross-run incremental behavior of the persistent refutation cache
//! (`symex::persist`).
//!
//! Three properties:
//!
//! - **cold/warm identity** on corpus apps: a warm rerun over an
//!   unchanged program serves *every* decision from disk (zero misses,
//!   zero invalidations, zero live path programs) and produces the same
//!   answers and committed decisions as the cold run — both for every
//!   heap edge through the scheduler and for the leak client over every
//!   suite app;
//! - **edit sensitivity**: after editing one method, the warm run's
//!   answers equal a cold run on the edited program, and exactly the
//!   decisions whose fingerprint slice contains the edited method are
//!   invalidated;
//! - **edit precision**: editing a method outside every decision's slice
//!   (dead code) invalidates nothing — the rerun is still fully warm.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use android::{ActivityLeakChecker, Alarm, LeakReport};
use pta::{ContextPolicy, HeapEdge, LocId, ModRef, PtaResult};
use symex::{
    CacheMode, DecisionStore, EdgeAnswer, Fingerprinter, RefutationScheduler, SymexConfig, Tally,
};
use tir::{MethodId, Program, ProgramBuilder, Ty};

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_cache_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("thresher-incremental-test-{}-{n}", std::process::id()))
}

fn corpus_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("corpus");
    p
}

fn load(name: &str) -> Program {
    let src = fs::read_to_string(corpus_dir().join(name)).expect("read corpus file");
    tir::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every may edge of the flow-insensitive heap graph, capped for speed.
fn all_edges(program: &Program, pta: &PtaResult, cap: usize) -> Vec<HeapEdge> {
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
    // `heap_entries` iterates a HashMap: canonicalize so two analyses of the
    // same program enumerate (and cap to) the same edges.
    edges.sort();
    edges.truncate(cap);
    edges
}

/// Committed decision shape in canonical order: `(edge, refuted, attempts,
/// degraded)`.
type DecisionShape = (HeapEdge, bool, u32, bool);

/// One full pass: decide every edge through a scheduler backed by `dir`,
/// returning the per-edge refuted bits, the committed decision shapes,
/// and the tally.
fn decide_all(
    program: &Program,
    dir: &std::path::Path,
    mode: CacheMode,
    config: &SymexConfig,
    cap: usize,
) -> (Vec<bool>, Vec<DecisionShape>, Tally) {
    let pta = pta::analyze(program, ContextPolicy::Insensitive);
    let modref = ModRef::compute(program, &pta);
    let edges = all_edges(program, &pta, cap);
    let store = DecisionStore::open(dir, mode, program).expect("open store");
    let mut sched = RefutationScheduler::new(program, &pta, &modref, config.clone(), 1)
        .with_store(Arc::new(store));
    let mut tally = Tally::default();
    let refuted: Vec<bool> = edges
        .iter()
        .map(|e| matches!(sched.decide_edge(*e, &mut tally), EdgeAnswer::Refuted))
        .collect();
    let decisions = sched
        .decisions()
        .into_iter()
        .map(|(e, d)| (e, d.outcome.is_refuted(), d.attempts, d.degraded))
        .collect();
    (refuted, decisions, tally)
}

fn assert_pure_warm(tally: &Tally, decisions: usize, what: &str) {
    assert_eq!(tally.cache_misses, 0, "{what}: warm run recomputed a decision");
    assert_eq!(tally.cache_invalidated, 0, "{what}: unchanged program invalidated a decision");
    assert_eq!(tally.fresh_path_programs, 0, "{what}: warm run explored path programs");
    assert_eq!(tally.cache_hits, decisions as u64, "{what}: not every decision came from disk");
}

#[test]
fn corpus_cold_warm_identical() {
    let config = SymexConfig::default();
    for name in ["droidlife.tir", "opensudoku.tir", "smspopup.tir"] {
        let program = load(name);
        let dir = fresh_cache_dir();

        let (cold, cold_dec, cold_tally) =
            decide_all(&program, &dir, CacheMode::ReadWrite, &config, 20);
        assert_eq!(cold_tally.cache_hits, 0, "{name}: fresh store produced hits");
        assert_eq!(cold_tally.cache_misses, cold_dec.len() as u64, "{name}: miss accounting");

        let (warm, warm_dec, warm_tally) = decide_all(&program, &dir, CacheMode::Read, &config, 20);
        assert_eq!(cold, warm, "{name}: warm answers differ from cold");
        assert_eq!(cold_dec, warm_dec, "{name}: warm committed decisions differ from cold");
        assert_pure_warm(&warm_tally, warm_dec.len(), name);

        let _ = fs::remove_dir_all(&dir);
    }
}

/// What a leak run answered: every alarm with its verdict, in order, and
/// the edge counters. Cache counters are left out: they record where a
/// decision came from, not what it was.
fn leak_answers(report: &LeakReport) -> (Vec<(Alarm, bool)>, [usize; 6]) {
    let s = &report.stats;
    (
        report.alarms.iter().map(|(alarm, result)| (*alarm, result.is_refuted())).collect(),
        [
            s.edges_refuted,
            s.edges_witnessed,
            s.edge_timeouts,
            s.retries,
            s.degraded_decisions,
            s.edges_descheduled,
        ],
    )
}

/// The leak client over every suite app, cold then warm against a fresh
/// store per app: the warm run answers like the cold one and takes every
/// committed decision from the store (20, 17, 4, 18, 17, 66 and 80 of
/// them in suite order) without exploring a path program. The apps run
/// side by side because the cold runs of aMetro and K9Mail dominate.
#[test]
fn leak_client_warm_rerun_comes_from_the_store() {
    std::thread::scope(|s| {
        for app in apps::suite::all_apps() {
            s.spawn(move || assert_warm_rerun_is_pure(&app));
        }
    });
}

fn assert_warm_rerun_is_pure(app: &apps::BenchApp) {
    let dir = fresh_cache_dir();
    let run = || {
        ActivityLeakChecker::new(&app.program)
            .with_policy(apps::builder::container_policy(app))
            .with_cache(&dir, CacheMode::ReadWrite)
            .check()
    };
    let cold = run();
    let warm = run();
    let name = app.name;
    assert_eq!(leak_answers(&cold), leak_answers(&warm), "{name}: warm answers differ");
    let s = &warm.stats;
    assert_eq!(s.cache_misses, 0, "{name}: warm run recomputed a decision");
    assert_eq!(s.cache_invalidated, 0, "{name}: unchanged program invalidated a decision");
    assert_eq!(s.fresh_path_programs, 0, "{name}: warm run explored path programs");
    assert_eq!(cold.stats.cache_hits, 0, "{name}: fresh store produced hits");
    assert_eq!(s.cache_hits, cold.stats.cache_misses, "{name}: not every decision came from disk");
    let _ = fs::remove_dir_all(&dir);
}

/// `edit`: 0 = baseline; 1 = edit the live `mutate` helper (in every
/// decision's slice); 2 = edit the dead `scratch` helper (in no slice).
fn build_program(edit: u8) -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.object_class();
    let node = b.class("Node", None);
    let f = b.field(node, "f", Ty::Ref(object));
    let g = b.field(node, "g", Ty::Ref(object));
    let ga = b.global("GA", Ty::Ref(object));
    let gb = b.global("GB", Ty::Ref(node));

    let mutate =
        b.method(None, "mutate", &[("n", Ty::Ref(node)), ("o", Ty::Ref(object))], None, |mb| {
            let (n, o) = (mb.param(0), mb.param(1));
            mb.write_field(n, f, o);
            if edit == 1 {
                mb.write_field(n, g, o);
            }
        });
    let publish = b.method(None, "publish", &[("o", Ty::Ref(object))], None, |mb| {
        let o = mb.param(0);
        mb.write_global(ga, o);
    });
    // Never called: in no decision's call-graph slice, so edits to it must
    // not invalidate anything.
    b.method(None, "scratch", &[("n", Ty::Ref(node))], None, |mb| {
        let n = mb.param(0);
        let t = mb.var("t", Ty::Ref(object));
        mb.read_field(t, n, f);
        if edit == 2 {
            mb.write_field(n, g, t);
        }
    });

    let main = b.method(None, "main", &[], None, |mb| {
        let n = mb.var("n", Ty::Ref(node));
        let o = mb.var("o", Ty::Ref(object));
        let p = mb.var("p", Ty::Ref(object));
        mb.new_obj(n, node, "n0");
        mb.new_obj(o, object, "o0");
        mb.new_obj(p, object, "p0");
        mb.call_static(None, mutate, &[n.into(), o.into()]);
        mb.call_static(None, publish, &[p.into()]);
        mb.write_global(gb, n);
    });
    b.set_entry(main);
    b.finish()
}

fn method_named(program: &Program, name: &str) -> MethodId {
    program
        .method_ids()
        .find(|&m| program.method_name(m) == name)
        .unwrap_or_else(|| panic!("no method {name}"))
}

#[test]
fn edit_invalidates_exactly_the_dependent_decisions() {
    let config = SymexConfig::default();
    let dir = fresh_cache_dir();

    // Cold run on the baseline, then a pure warm rerun on an *independently
    // rebuilt* identical program: fingerprints must be build-stable.
    let v0 = build_program(0);
    let (_, dec0, t0) = decide_all(&v0, &dir, CacheMode::ReadWrite, &config, usize::MAX);
    assert!(dec0.len() >= 3, "baseline decided too few edges: {}", dec0.len());
    assert_eq!(t0.cache_misses, dec0.len() as u64);
    let v0_again = build_program(0);
    let (_, dec0b, t0b) = decide_all(&v0_again, &dir, CacheMode::Read, &config, usize::MAX);
    assert_eq!(dec0, dec0b, "identical rebuild changed decisions");
    assert_pure_warm(&t0b, dec0b.len(), "identical rebuild");

    // Editing the live helper: every decision's slice contains `mutate`
    // (the slice is the connected call-graph component of the producers),
    // so every previously stored edge is invalidated; edges new in the
    // edited program are misses. Answers equal a cold run on the edit.
    let v1 = build_program(1);
    {
        let pta = pta::analyze(&v1, ContextPolicy::Insensitive);
        let fpr = Fingerprinter::new(&v1, &pta, &config);
        let mutate_m = method_named(&v1, "mutate");
        let scratch_m = method_named(&v1, "scratch");
        for e in all_edges(&v1, &pta, usize::MAX) {
            let slice = fpr.slice(&e);
            assert!(slice.contains(&mutate_m), "edge slice misses the live helper");
            assert!(!slice.contains(&scratch_m), "dead code leaked into an edge slice");
        }
    }
    let (warm1, dec1, t1) = decide_all(&v1, &dir, CacheMode::ReadWrite, &config, usize::MAX);
    let cold_dir = fresh_cache_dir();
    let (cold1, cold_dec1, _) =
        decide_all(&v1, &cold_dir, CacheMode::ReadWrite, &config, usize::MAX);
    assert_eq!(warm1, cold1, "warm-after-edit answers differ from a cold run on the edit");
    assert_eq!(dec1, cold_dec1, "warm-after-edit decisions differ from a cold run on the edit");
    assert_eq!(t1.cache_hits, 0, "a stale decision was served from disk after the edit");
    assert_eq!(
        t1.cache_invalidated,
        dec0.len() as u64,
        "every stored decision depends on the edited method and must be invalidated"
    );
    assert_eq!(
        t1.cache_misses,
        (dec1.len() - dec0.len()) as u64,
        "edges introduced by the edit are plain misses, not invalidations"
    );
    assert!(dec1.len() > dec0.len(), "the edit should add a heap edge (n0.g -> o0)");

    let _ = fs::remove_dir_all(&cold_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dead_code_edit_invalidates_nothing() {
    let config = SymexConfig::default();
    let dir = fresh_cache_dir();

    let v0 = build_program(0);
    let (_, dec0, _) = decide_all(&v0, &dir, CacheMode::ReadWrite, &config, usize::MAX);

    // `scratch` is unreachable: its edit changes the program text but no
    // decision's slice, so the rerun must stay fully warm.
    let v2 = build_program(2);
    let (_, dec2, t2) = decide_all(&v2, &dir, CacheMode::Read, &config, usize::MAX);
    assert_eq!(dec0, dec2, "dead-code edit changed committed decisions");
    assert_pure_warm(&t2, dec2.len(), "dead-code edit");

    let _ = fs::remove_dir_all(&dir);
}
