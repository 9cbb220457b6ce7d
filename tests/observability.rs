//! End-to-end observability guarantees: the `RunReport` produced by a real
//! corpus run must agree *exactly* with the driver-level statistics
//! (`ClientStats`, `AbortCounts`, `RefutationCounts`), and the recorded
//! trace must be well-nested with monotonic timestamps.
//!
//! All tests install the process-global recorder, so each serializes on
//! `obs::test_lock()` and resets the recorder up front.

use std::fs;

use thresher::obs::{self, Counter, MemRecorder, RingCapacity, SpanKind};
use thresher::{ActivityLeakChecker, Thresher};

fn corpus_dir() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("corpus");
    p
}

fn load(name: &str) -> tir::Program {
    let src = fs::read_to_string(corpus_dir().join(name)).expect("read corpus file");
    tir::parse(&src).expect("parse corpus file")
}

/// One shared static recorder for this test binary (installs leak, so
/// cycling one per test would grow without bound). Re-installs on every
/// call: a previous test's `obs::uninstall()` leaves recording disabled.
fn recorder() -> &'static MemRecorder {
    use std::sync::OnceLock;
    static REC: OnceLock<&'static MemRecorder> = OnceLock::new();
    let rec = *REC.get_or_init(|| MemRecorder::install_static(RingCapacity::default()));
    obs::install(rec);
    rec
}

#[test]
fn report_counters_match_client_stats_exactly() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    // SMSPopup rather than DroidLife: every path DroidLife explores keeps a
    // known-satisfiable constraint set, so it never runs the decision
    // procedure, and the solver-counter identity below needs runs.
    let program = load("smspopup.tir");
    let report = {
        let _run = obs::span(SpanKind::Run, "smspopup");
        ActivityLeakChecker::new(&program).check()
    };
    obs::uninstall();

    // Edge outcomes: the obs counters are bumped at the single
    // refute_edge_resilient site, the ClientStats at the decide_edge site —
    // they must agree exactly.
    assert_eq!(rec.counter(Counter::EdgesRefuted), report.stats.edges_refuted as u64);
    assert_eq!(rec.counter(Counter::EdgesWitnessed), report.stats.edges_witnessed as u64);
    assert_eq!(rec.counter(Counter::EdgesAborted), report.stats.edge_timeouts as u64);
    assert_eq!(rec.counter(Counter::DegradedRetries), report.stats.retries as u64);
    assert_eq!(rec.counter(Counter::DegradedDecisions), report.stats.degraded_decisions as u64);

    // Abort provenance: per-reason counters come only from
    // AbortCounts::record.
    let a = &report.stats.aborts;
    assert_eq!(rec.counter(Counter::AbortForkBudget), a.fork_budget);
    assert_eq!(rec.counter(Counter::AbortWorkBudget), a.work_budget);
    assert_eq!(rec.counter(Counter::AbortWallClock), a.wall_clock);
    assert_eq!(rec.counter(Counter::AbortCallerDepth), a.caller_depth);
    assert_eq!(rec.counter(Counter::AbortPanic), a.panic);
    assert_eq!(rec.counter(Counter::AbortSolverFailure), a.solver_failure);

    // Alarm totals.
    assert_eq!(rec.counter(Counter::AlarmsFound), report.num_alarms() as u64);
    assert_eq!(rec.counter(Counter::AlarmsRefuted), report.num_refuted() as u64);
    assert_eq!(rec.counter(Counter::AlarmsWitnessed), report.num_witnessed() as u64);

    // The analysis must actually have exercised the pipeline.
    assert!(rec.counter(Counter::SolverCalls) > 0);
    assert!(rec.counter(Counter::PathPrograms) > 0);
    assert_eq!(
        rec.counter(Counter::SolverCalls),
        rec.counter(Counter::SolverSat)
            + rec.counter(Counter::SolverUnsat)
            + rec.counter(Counter::SolverFailures)
    );
}

#[test]
fn report_refutation_totals_match_search_stats_exactly() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let program = load("fig1_vec_null_object.tir");
    let t = Thresher::new(&program);
    // refute_edge uses a fresh engine per call, so one edge suffices for an
    // exact comparison.
    let (base, field, targets) =
        t.points_to().heap_entries().next().expect("fig1 has at least one heap field edge");
    let target = pta::LocId(targets.iter().next().expect("non-empty points-to set") as u32);
    let edge = pta::HeapEdge::Field { base, field, target };
    let (_, stats) = t.refute_edge(&edge);
    obs::uninstall();

    let r = &stats.refutations;
    assert_eq!(rec.counter(Counter::RefutedEmptyRegion), r.empty_region);
    assert_eq!(rec.counter(Counter::RefutedSeparation), r.separation);
    assert_eq!(rec.counter(Counter::RefutedPure), r.pure);
    assert_eq!(rec.counter(Counter::RefutedAllocation), r.allocation);
    assert_eq!(rec.counter(Counter::RefutedEntry), r.entry);
    assert_eq!(rec.counter(Counter::PathPrograms), stats.path_programs);
    assert_eq!(rec.counter(Counter::CmdsExecuted), stats.cmds_executed);
    assert_eq!(rec.counter(Counter::Subsumed), stats.subsumed);
    assert_eq!(rec.counter(Counter::LoopFixpoints), stats.loop_fixpoints);
    assert_eq!(rec.counter(Counter::CallsSkippedIrrelevant), stats.calls_skipped_irrelevant);
    assert_eq!(rec.counter(Counter::CallsSkippedDepth), stats.calls_skipped_depth);
}

#[test]
fn corpus_run_report_is_schema_valid() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let program = load("fig1_vec_null_object.tir");
    {
        let _run = obs::span(SpanKind::Run, "fig1");
        let t = Thresher::new(&program);
        assert!(!t.query_reachable("EMPTY", "act0").is_reachable());
    }
    obs::uninstall();

    let report = rec.run_report(&[("program", "fig1_vec_null_object.tir")]);
    let text = report.to_json();
    let parsed = obs::json::parse(&text).expect("report is valid JSON");

    use obs::json::Value;
    assert_eq!(parsed.get("schema").and_then(Value::as_str), Some("thresher.run_report/1"));
    let counters = parsed.get("counters").expect("counters object");
    // Every declared counter is present (zeros included) and integral.
    for c in Counter::ALL {
        let v = counters.get(c.name()).unwrap_or_else(|| panic!("missing {}", c.name()));
        assert!(v.as_u64().is_some(), "{} not an integer", c.name());
    }
    // Every declared histogram is present with the snapshot shape.
    let hists = parsed.get("histograms").expect("histograms object");
    for h in obs::Hist::ALL {
        let snap = hists.get(h.name()).unwrap_or_else(|| panic!("missing {}", h.name()));
        for field in ["count", "sum", "max"] {
            assert!(snap.get(field).and_then(Value::as_u64).is_some(), "{}.{field}", h.name());
        }
        let buckets = snap.get("buckets").and_then(Value::as_arr).expect("buckets");
        // Bucket bounds ascend strictly.
        let bounds: Vec<u64> =
            buckets.iter().map(|b| b.as_arr().unwrap()[0].as_u64().unwrap()).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{} bounds not ascending", h.name());
    }
    // The run actually did work.
    assert!(report.counter("edges_refuted").unwrap() > 0);
    assert!(report.histogram("solver_call_ns").unwrap().count > 0);
    assert_eq!(
        report.counter("solver_calls").unwrap(),
        report.histogram("solver_call_ns").unwrap().count
    );
}

#[test]
fn corpus_trace_spans_nest_and_are_monotonic() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let program = load("fig1_vec_null_object.tir");
    {
        let _run = obs::span(SpanKind::Run, "fig1");
        let t = Thresher::new(&program);
        let _ = t.query_reachable("EMPTY", "act0");
    }
    obs::uninstall();

    let events = rec.events();
    assert_eq!(rec.dropped_events(), 0, "default ring must hold a corpus run");
    let spans: Vec<_> = events.iter().filter(|e| !e.instant).collect();
    assert!(spans.iter().any(|e| e.kind == SpanKind::Run));
    assert!(spans.iter().any(|e| e.kind == SpanKind::Setup));
    assert!(spans.iter().any(|e| e.kind == SpanKind::Pta));
    assert!(spans.iter().any(|e| e.kind == SpanKind::Query));
    assert!(spans.iter().any(|e| e.kind == SpanKind::Edge));
    assert!(spans.iter().any(|e| e.kind == SpanKind::SolverCall));

    // Single-threaded run: every span at depth d+1 must be contained in
    // the timestamp interval of some span at depth d.
    for inner in &spans {
        if inner.depth == 0 {
            continue;
        }
        let contained = spans.iter().any(|outer| {
            outer.depth + 1 == inner.depth
                && outer.ts_us <= inner.ts_us
                && inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us
        });
        assert!(
            contained,
            "span {:?}/{} at depth {} not contained in any parent",
            inner.kind, inner.label, inner.depth
        );
    }

    // The Run span is the outermost: it contains every other span.
    let run = spans.iter().find(|e| e.kind == SpanKind::Run).unwrap();
    for e in &spans {
        assert!(run.ts_us <= e.ts_us && e.ts_us + e.dur_us <= run.ts_us + run.dur_us);
    }

    // Timestamps are monotone in event order per thread (complete events
    // are emitted at close; end times must be non-decreasing).
    for tid in spans.iter().map(|e| e.tid).collect::<std::collections::HashSet<_>>() {
        let ends: Vec<u64> = events
            .iter()
            .filter(|e| e.tid == tid && !e.instant)
            .map(|e| e.ts_us + e.dur_us)
            .collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]), "non-monotonic close order");
    }

    // The Chrome export of this real trace parses and keeps all events.
    let chrome = obs::json::parse(&rec.chrome_trace()).expect("chrome trace parses");
    let items = chrome.get("traceEvents").and_then(obs::json::Value::as_arr).unwrap();
    assert_eq!(items.len(), events.len());
}

/// CI regression gate for the disabled-recorder overhead guarantee. The
/// threshold is an absolute ceiling orders of magnitude above the real cost
/// of the one-branch fast path (~1 ns/call), so it only trips on a real
/// regression (e.g. allocation or clock reads sneaking into the path).
#[test]
fn disabled_recorder_overhead_gate() {
    let _serial = obs::test_lock();
    obs::uninstall();

    let program = load("fig1_vec_null_object.tir");
    let t = Thresher::new(&program);

    // Warm caches, then measure an instrumented end-to-end query with the
    // recorder disabled.
    let _ = t.query_reachable("EMPTY", "act0");
    let start = std::time::Instant::now();
    let _ = t.query_reachable("EMPTY", "act0");
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "disabled-recorder corpus query too slow: {elapsed:?}"
    );

    // Micro gate: 10M disabled counter/histogram calls stay under a second
    // on any plausible hardware unless the fast path regressed.
    let start = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        obs::add(Counter::CmdsExecuted, 1);
        obs::observe(obs::Hist::HeapCells, i & 0xff);
    }
    let micro = start.elapsed();
    assert!(micro < std::time::Duration::from_secs(1), "fast path regressed: {micro:?}");
}
