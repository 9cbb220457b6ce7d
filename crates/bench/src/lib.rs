//! # bench — experiment drivers regenerating the paper's tables
//!
//! The `reproduce` binary prints each table in the paper's format; this
//! library holds the measurement drivers behind it.
//!
//! | Experiment | Paper artifact | Driver |
//! |---|---|---|
//! | Filtering effectiveness & effort | Table 1 | [`run_table1_row`] |
//! | Mixed vs fully symbolic | Table 2 | [`run_repr_comparison`] |
//! | Query simplification ablation | §4 hypothesis 2 | [`run_simplification_ablation`] |
//! | Loop invariant ablation | §4 hypothesis 3 | [`run_loop_ablation`] |
//! | Refutation-reason breakdown | §3.2 | [`run_reason_breakdown`] |

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use android::{paper_annotations, ActivityLeakChecker};
use apps::{builder, BenchApp};
use symex::{LoopMode, Representation, SymexConfig};
use thresher::Thresher;

/// One measured Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Program size in IR commands (the `CGB` analogue).
    pub size_cmds: usize,
    /// Annotated configuration?
    pub annotated: bool,
    /// `Alrms`: alarms reported by the flow-insensitive analysis.
    pub alarms: usize,
    /// `RefA`: alarms refuted.
    pub refuted_alarms: usize,
    /// `TruA`: surviving alarms on ground-truth leak fields.
    pub true_alarms: usize,
    /// `FalA`: surviving alarms on non-leak fields (false positives kept).
    pub false_alarms: usize,
    /// `Flds`: distinct fields with alarms.
    pub fields: usize,
    /// `RefFlds`: fields fully refuted.
    pub refuted_fields: usize,
    /// `RefEdg`: edges refuted.
    pub edges_refuted: usize,
    /// `WitEdg`: edges witnessed.
    pub edges_witnessed: usize,
    /// `TO`: edge timeouts.
    pub timeouts: usize,
    /// Abort provenance (`timeouts` broken down by reason).
    pub aborts: symex::AbortCounts,
    /// Degraded refutation retries performed.
    pub retries: usize,
    /// Edges decided only by a coarsened retry.
    pub degraded_decisions: usize,
    /// `T(s)`: symbolic-execution wall time.
    pub time: Duration,
}

/// Runs the leak client over `app` in one annotation configuration
/// (sequential refutation).
pub fn run_table1_row(app: &BenchApp, annotated: bool, config: SymexConfig) -> Table1Row {
    let mut checker = ActivityLeakChecker::new(&app.program)
        .with_policy(builder::container_policy(app))
        .with_config(config);
    if annotated {
        checker = checker.with_annotations(paper_annotations(&app.lib));
    }
    let report = checker.check();
    let mut true_alarms = 0;
    let mut false_alarms = 0;
    for (alarm, result) in &report.alarms {
        if result.is_refuted() {
            continue;
        }
        let field = &app.program.global(alarm.field).name;
        if app.true_leak_fields.contains(field) {
            true_alarms += 1;
        } else {
            false_alarms += 1;
        }
    }
    Table1Row {
        name: app.name,
        size_cmds: app.program.num_cmds(),
        annotated,
        alarms: report.num_alarms(),
        refuted_alarms: report.num_refuted(),
        true_alarms,
        false_alarms,
        fields: report.num_fields(),
        refuted_fields: report.num_refuted_fields(),
        edges_refuted: report.stats.edges_refuted,
        edges_witnessed: report.stats.edges_witnessed,
        timeouts: report.stats.edge_timeouts,
        aborts: report.stats.aborts.clone(),
        retries: report.stats.retries,
        degraded_decisions: report.stats.degraded_decisions,
        time: report.stats.symex_time,
    }
}

/// A representation-comparison measurement (one Table 2 cell pair).
#[derive(Clone, Debug)]
pub struct ReprComparison {
    /// Benchmark name.
    pub name: &'static str,
    /// Annotated configuration?
    pub annotated: bool,
    /// Mixed-representation time, the median of [`REPR_RUNS`] runs.
    pub mixed_time: Duration,
    /// Mixed-representation edge timeouts.
    pub mixed_timeouts: usize,
    /// Comparison-representation time, the median of [`REPR_RUNS`] runs.
    pub other_time: Duration,
    /// Comparison-representation edge timeouts.
    pub other_timeouts: usize,
    /// Alarms refuted under mixed (precision check).
    pub mixed_refuted: usize,
    /// Alarms refuted under the comparison representation.
    pub other_refuted: usize,
}

impl ReprComparison {
    /// The slowdown factor `other / mixed`.
    pub fn slowdown(&self) -> f64 {
        let m = self.mixed_time.as_secs_f64().max(1e-9);
        self.other_time.as_secs_f64() / m
    }

    /// Additional timeouts relative to mixed.
    pub fn added_timeouts(&self) -> isize {
        self.other_timeouts as isize - self.mixed_timeouts as isize
    }
}

/// Runs per representation in [`run_repr_comparison`]. Annotated rows take
/// milliseconds, so one run's time is mostly noise.
pub const REPR_RUNS: usize = 5;

/// Compares the mixed representation against `other` on one app (Table 2
/// uses [`Representation::FullySymbolic`]). Each representation runs
/// [`REPR_RUNS`] times; its time is the median, and its answers are the
/// first run's.
///
/// # Panics
///
/// Panics if two runs of one representation disagree on any column but
/// the time.
pub fn run_repr_comparison(
    app: &BenchApp,
    annotated: bool,
    other: Representation,
    base_config: SymexConfig,
) -> ReprComparison {
    let answers =
        |row: &Table1Row| format!("{:?}", Table1Row { time: Duration::ZERO, ..row.clone() });
    let run = |repr: Representation| {
        let cfg = base_config.clone().with_representation(repr);
        let timed = || {
            let t0 = Instant::now();
            let row = run_table1_row(app, annotated, cfg.clone());
            (t0.elapsed(), row)
        };
        let (time, first) = timed();
        let mut times = vec![time];
        for _ in 1..REPR_RUNS {
            let (time, row) = timed();
            assert_eq!(answers(&first), answers(&row), "{} {repr:?}: runs disagree", app.name);
            times.push(time);
        }
        times.sort();
        (times[REPR_RUNS / 2], first)
    };
    let (mixed_time, mixed_row) = run(Representation::Mixed);
    let (other_time, other_row) = run(other);
    ReprComparison {
        name: app.name,
        annotated,
        mixed_time,
        mixed_timeouts: mixed_row.timeouts,
        other_time,
        other_timeouts: other_row.timeouts,
        mixed_refuted: mixed_row.refuted_alarms,
        other_refuted: other_row.refuted_alarms,
    }
}

/// A simplification-ablation measurement (§4 hypothesis 2).
#[derive(Clone, Debug)]
pub struct SimplificationAblation {
    /// Benchmark name.
    pub name: &'static str,
    /// Time with query simplification (the default).
    pub with_time: Duration,
    /// Time without simplification.
    pub without_time: Duration,
    /// Timeouts with simplification.
    pub with_timeouts: usize,
    /// Timeouts without simplification (the paper's out-of-memory case
    /// shows up as budget exhaustion here).
    pub without_timeouts: usize,
}

impl SimplificationAblation {
    /// Slowdown factor of disabling simplification.
    pub fn slowdown(&self) -> f64 {
        self.without_time.as_secs_f64() / self.with_time.as_secs_f64().max(1e-9)
    }
}

/// Measures the simplification ablation on one (annotated) app.
pub fn run_simplification_ablation(
    app: &BenchApp,
    base_config: SymexConfig,
) -> SimplificationAblation {
    let t0 = Instant::now();
    let with_row = run_table1_row(app, true, base_config.clone().with_simplification(true));
    let with_time = t0.elapsed();
    let t1 = Instant::now();
    let without_row = run_table1_row(app, true, base_config.with_simplification(false));
    let without_time = t1.elapsed();
    SimplificationAblation {
        name: app.name,
        with_time,
        without_time,
        with_timeouts: with_row.timeouts,
        without_timeouts: without_row.timeouts,
    }
}

/// A loop-handling ablation result (§4 hypothesis 3) on the multi-container
/// micro benchmark.
#[derive(Clone, Debug)]
pub struct LoopAblation {
    /// Did full inference refute the clean-container query?
    pub infer_refutes: bool,
    /// Did the drop-all ablation refute it (expected: no)?
    pub drop_all_refutes: bool,
}

/// Runs the loop ablation on the multi-container micro benchmark.
pub fn run_loop_ablation() -> LoopAblation {
    let program = apps::figures::multi_map();
    let check = |mode: LoopMode| {
        let t = Thresher::with_setup(
            &program,
            pta::ContextPolicy::Insensitive,
            SymexConfig::default().with_loop_mode(mode),
        );
        !t.query_reachable("CLEAN", "secret0").is_reachable()
    };
    LoopAblation {
        infer_refutes: check(LoopMode::Infer),
        drop_all_refutes: check(LoopMode::DropAll),
    }
}

/// Per-app refutation-reason breakdown (diagnostic companion to Table 1:
/// which of the three refutation tools of §3.2 — separation, instance
/// constraints, pure constraints — fired).
#[derive(Clone, Debug)]
pub struct ReasonBreakdown {
    /// Benchmark name.
    pub name: &'static str,
    /// Refutations from empty `from` regions (instance constraints).
    pub empty_region: u64,
    /// Refutations from separation.
    pub separation: u64,
    /// Refutations from pure-constraint unsatisfiability.
    pub pure: u64,
    /// Refutations at allocation sites.
    pub allocation: u64,
    /// Refutations at the program entry.
    pub entry: u64,
}

/// Collects refutation reasons by running the client and reading the
/// engine counters.
pub fn run_reason_breakdown(
    app: &BenchApp,
    annotated: bool,
    config: SymexConfig,
) -> ReasonBreakdown {
    let opts = if annotated {
        android::to_pta_options(&paper_annotations(&app.lib))
    } else {
        pta::PtaOptions::default()
    };
    let pta_result = pta::analyze_with(&app.program, builder::container_policy(app), &opts);
    let modref = pta::ModRef::compute(&app.program, &pta_result);
    let mut client = android::LeakClient::new(&app.program, &pta_result, &modref, config);
    let alarms = client.find_alarms();
    let mut stats = android::ClientStats::default();
    for alarm in alarms {
        let _ = client.triage(alarm, &mut stats);
    }
    let r = &client.engine_stats().refutations;
    ReasonBreakdown {
        name: app.name,
        empty_region: r.empty_region,
        separation: r.separation,
        pure: r.pure,
        allocation: r.allocation,
        entry: r.entry,
    }
}

/// Formats a Table 1 row in the paper's column order.
pub fn format_table1_row(r: &Table1Row) -> String {
    let pct = |n: usize, d: usize| (n * 100).checked_div(d).unwrap_or(0);
    let base = format!(
        "{:<14} {:>6} {:^4} {:>6} {:>5} ({:>3}%) {:>5} ({:>3}%) {:>5} ({:>3}%) {:>5} {:>8} {:>7} {:>7} {:>3} {:>8.2}",
        r.name,
        r.size_cmds,
        if r.annotated { "Y" } else { "N" },
        r.alarms,
        r.refuted_alarms,
        pct(r.refuted_alarms, r.alarms),
        r.true_alarms,
        pct(r.true_alarms, r.alarms),
        r.false_alarms,
        pct(r.false_alarms, r.alarms),
        r.fields,
        r.refuted_fields,
        r.edges_refuted,
        r.edges_witnessed,
        r.timeouts,
        r.time.as_secs_f64(),
    );
    // Abort/degradation provenance only when something actually aborted or
    // was retried, so clean runs keep the paper's exact column layout.
    if r.timeouts > 0 || r.retries > 0 {
        format!(
            "{base}  [aborts: {}; retries: {}; degraded: {}]",
            r.aborts.describe(),
            r.retries,
            r.degraded_decisions
        )
    } else {
        base
    }
}

/// The Table 1 header matching [`format_table1_row`].
pub fn table1_header() -> String {
    format!(
        "{:<14} {:>6} {:^4} {:>6} {:>12} {:>12} {:>12} {:>5} {:>8} {:>7} {:>7} {:>3} {:>8}",
        "Benchmark",
        "Cmds",
        "Ann?",
        "Alrms",
        "RefA(%)",
        "TruA(%)",
        "FalA(%)",
        "Flds",
        "RefFlds",
        "RefEdg",
        "WitEdg",
        "TO",
        "T(s)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_on_droidlife() {
        let app = apps::suite::droidlife();
        let row = run_table1_row(&app, false, SymexConfig::default());
        assert_eq!(row.alarms, row.true_alarms + row.false_alarms + row.refuted_alarms);
        assert_eq!(row.refuted_alarms, 0);
        assert_eq!(row.true_alarms, 3);
        let line = format_table1_row(&row);
        assert!(line.contains("DroidLife"), "{line}");
    }

    #[test]
    fn loop_ablation_shape() {
        let abl = run_loop_ablation();
        assert!(abl.infer_refutes);
        assert!(!abl.drop_all_refutes);
    }

    #[test]
    fn repr_comparison_reports_slowdown() {
        let app = apps::suite::droidlife();
        let cmp =
            run_repr_comparison(&app, false, Representation::FullySymbolic, SymexConfig::default());
        // Precision must not differ on DroidLife (everything witnessed).
        assert_eq!(cmp.mixed_refuted, cmp.other_refuted);
        assert!(cmp.slowdown() > 0.0);
    }
}
