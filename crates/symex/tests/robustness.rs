//! Fault-containment and graceful-degradation tests for the refutation
//! driver: wall-clock deadlines, injected panics, budget exhaustion, and
//! the one coarse retry.

use std::time::Duration;

use pta::{analyze, ContextPolicy, HeapEdge, LocId, ModRef, PtaResult};
use symex::{
    Engine, HeapCell, LoopMode, Query, Region, SearchOutcome, StopReason, SymexConfig, Val,
};
use tir::Program;

/// A program whose `box0.item -> secret0` edge is refutable, but only
/// after exploring a fork-heavy loop: under `LoopMode::Infer` the search
/// needs hundreds of path programs, while the degraded `DropAll` retry
/// needs a handful. A fork budget in between makes the strict pass abort
/// and the coarse retry succeed.
const FORK_HEAVY: &str = r#"
class Box { field item: Object; field other: Box; }
global PUB: Box;
fn main() {
  var b: Box;
  var u: Object;
  var s: Object;
  var t: int;
  var i: int;
  b = new Box @box0;
  u = new Object @pub0;
  i = 0;
  while (i < 3) {
    choice { t = 1; } or { t = 2; }
    choice { t = 3; } or { t = 4; }
    choice { t = 5; } or { t = 6; }
    b.other = b;
    i = i + 1;
  }
  s = new Object @secret0;
  b.item = u;
  u = s;
  $PUB = b;
}
entry main;
"#;

struct Setup {
    program: Program,
    pta: PtaResult,
    modref: ModRef,
}

fn setup(src: &str) -> Setup {
    let program = tir::parse(src).expect("parse");
    let pta = analyze(&program, ContextPolicy::Insensitive);
    let modref = ModRef::compute(&program, &pta);
    Setup { program, pta, modref }
}

impl Setup {
    fn engine(&self, config: SymexConfig) -> Engine<'_> {
        Engine::new(&self.program, &self.pta, &self.modref, config)
    }

    fn loc(&self, name: &str) -> LocId {
        self.pta
            .locs()
            .ids()
            .find(|&l| self.pta.loc_name(&self.program, l) == name)
            .unwrap_or_else(|| panic!("no abstract location named {name}"))
    }

    fn item_edge(&self) -> HeapEdge {
        let c = self.program.class_by_name("Box").expect("class Box");
        let f = self.program.resolve_field(c, "item").expect("field item");
        HeapEdge::Field { base: self.loc("box0"), field: f, target: self.loc("secret0") }
    }
}

// ---------------------------------------------------------------------------
// Wall-clock deadlines
// ---------------------------------------------------------------------------

#[test]
fn zero_total_deadline_aborts_wall_clock() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig::default().with_total_deadline(Duration::ZERO);
    let mut engine = s.engine(cfg);
    match engine.refute_edge(&s.item_edge()) {
        SearchOutcome::Aborted(StopReason::WallClock) => {}
        other => panic!("expected Aborted(WallClock), got {other:?}"),
    }
}

#[test]
fn zero_edge_deadline_aborts_wall_clock() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig::default().with_edge_deadline(Duration::ZERO);
    let mut engine = s.engine(cfg);
    match engine.refute_edge(&s.item_edge()) {
        SearchOutcome::Aborted(StopReason::WallClock) => {}
        other => panic!("expected Aborted(WallClock), got {other:?}"),
    }
}

#[test]
fn generous_deadline_does_not_perturb_outcome() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig::default().with_edge_deadline(Duration::from_secs(600));
    let mut engine = s.engine(cfg);
    assert!(engine.refute_edge(&s.item_edge()).is_refuted());
}

// ---------------------------------------------------------------------------
// Budget exhaustion and the coarse retry
// ---------------------------------------------------------------------------

/// Between the ~3 path programs `DropAll` needs and the ~289 `Infer` needs.
const SPLITTING_BUDGET: u64 = 64;

#[test]
fn strict_pass_exhausts_fork_budget() {
    let s = setup(FORK_HEAVY);
    let mut engine = s.engine(SymexConfig::default().with_budget(SPLITTING_BUDGET));
    match engine.refute_edge(&s.item_edge()) {
        SearchOutcome::Aborted(StopReason::ForkBudget) => {}
        other => panic!("expected Aborted(ForkBudget), got {other:?}"),
    }
}

#[test]
fn ladder_recovers_refutation_after_budget_abort() {
    let s = setup(FORK_HEAVY);
    let mut engine = s.engine(SymexConfig::default().with_budget(SPLITTING_BUDGET));
    let decision = engine.refute_edge_resilient(&s.item_edge());
    assert!(
        decision.outcome.is_refuted(),
        "the coarse retry should refute where the strict pass aborts, got {:?}",
        decision.outcome
    );
    assert!(decision.degraded, "refutation should be attributed to a degraded retry");
    assert_eq!(decision.attempts, 2);
}

#[test]
fn one_coarse_retry_then_abort() {
    let s = setup(FORK_HEAVY);
    // Budget 1 starves both passes: the strict pass aborts, the coarse
    // retry aborts too, and nothing further is tried.
    let mut engine = s.engine(SymexConfig::default().with_budget(1));
    let decision = engine.refute_edge_resilient(&s.item_edge());
    match decision.outcome {
        SearchOutcome::Aborted(StopReason::ForkBudget) => {}
        other => panic!("expected Aborted(ForkBudget), got {other:?}"),
    }
    assert_eq!(decision.attempts, 2);
    assert!(!decision.degraded);
}

#[test]
fn drop_all_base_gets_no_retry() {
    let s = setup(FORK_HEAVY);
    // A base that already drops loops has no coarser configuration to
    // retry under: the strict abort stands.
    let cfg = SymexConfig::default().with_loop_mode(LoopMode::DropAll).with_budget(1);
    let mut engine = s.engine(cfg);
    let decision = engine.refute_edge_resilient(&s.item_edge());
    match decision.outcome {
        SearchOutcome::Aborted(StopReason::ForkBudget) => {}
        other => panic!("expected Aborted(ForkBudget), got {other:?}"),
    }
    assert_eq!(decision.attempts, 1);
    assert!(!decision.degraded);
}

#[test]
fn ladder_restores_strict_config() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig::default().with_budget(SPLITTING_BUDGET);
    let mut engine = s.engine(cfg.clone());
    let _ = engine.refute_edge_resilient(&s.item_edge());
    // The coarse retry must not leak its settings back into the engine: a
    // second strict pass behaves like the first.
    match engine.refute_edge(&s.item_edge()) {
        SearchOutcome::Aborted(StopReason::ForkBudget) => {}
        other => panic!("config leaked from the retry: second strict pass gave {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_is_contained() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig { inject_panic_on_new: Some("box0".into()), ..SymexConfig::default() };
    let mut engine = s.engine(cfg);
    match engine.refute_edge_contained(&s.item_edge()) {
        SearchOutcome::Aborted(StopReason::Panic(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected panic message: {msg}");
        }
        other => panic!("expected Aborted(Panic), got {other:?}"),
    }
}

#[test]
fn resilient_driver_recovers_from_panic() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig { inject_panic_on_new: Some("box0".into()), ..SymexConfig::default() };
    let mut engine = s.engine(cfg);
    // The strict pass panics; the coarse retry strips the injection (it is
    // a test-only fault, not a precision setting) and refutes coarsely.
    let decision = engine.refute_edge_resilient(&s.item_edge());
    assert!(
        decision.outcome.is_refuted(),
        "the coarse retry should recover from a contained panic, got {:?}",
        decision.outcome
    );
    assert!(decision.degraded);
}

#[test]
fn engine_stays_usable_after_contained_panic() {
    let s = setup(FORK_HEAVY);
    let cfg = SymexConfig { inject_panic_on_new: Some("box0".into()), ..SymexConfig::default() };
    let mut engine = s.engine(cfg);
    let first = engine.refute_edge_contained(&s.item_edge());
    assert!(matches!(first, SearchOutcome::Aborted(StopReason::Panic(_))));
    // Disarm the fault and reuse the same engine: state was not poisoned.
    engine.config.inject_panic_on_new = None;
    assert!(engine.refute_edge_contained(&s.item_edge()).is_refuted());
}

// ---------------------------------------------------------------------------
// Heap-cell cap
// ---------------------------------------------------------------------------

#[test]
fn soft_heap_cap_still_decides() {
    let s = setup(FORK_HEAVY);
    let mut engine = s.engine(SymexConfig::default());
    assert!(!matches!(engine.refute_edge(&s.item_edge()), SearchOutcome::Aborted(_)));
    // Cells past the cap are truncated newest first (a sound weakening),
    // never turned into an abort: a query capped to no cells at all is
    // discharged and satisfiable, which the search reports as a witness.
    let field = s.program.resolve_field(s.program.class_by_name("Box").unwrap(), "other").unwrap();
    let mut q = Query::new();
    let boxes: Vec<_> =
        (0..3).map(|_| q.fresh_sym(Region::singleton(s.loc("box0").index()))).collect();
    for pair in boxes.windows(2) {
        q.heap.push(HeapCell { obj: pair[0], field, val: Val::Sym(pair[1]), idx: None });
    }
    q.truncate_heap(1);
    assert_eq!(q.heap.len(), 1);
    assert_eq!(q.heap[0].obj, boxes[0], "the oldest cell must survive");
    q.truncate_heap(0);
    assert!(q.is_discharged());
    assert_eq!(q.try_pure_sat(), Ok(true));
}

// ---------------------------------------------------------------------------
// Abort provenance surfacing
// ---------------------------------------------------------------------------

#[test]
fn abort_counts_describe_reasons() {
    let s = setup(FORK_HEAVY);
    let mut counts = symex::AbortCounts::default();
    let cfg = SymexConfig::default().with_budget(SPLITTING_BUDGET);
    let mut engine = s.engine(cfg);
    if let SearchOutcome::Aborted(reason) = engine.refute_edge(&s.item_edge()) {
        counts.record(&reason);
    }
    assert_eq!(counts.total(), 1);
    assert!(counts.describe().contains("fork-budget"));
}
