//! # bench — experiment drivers regenerating the paper's tables
//!
//! The `reproduce` binary prints each table in the paper's format; this
//! library holds the shared measurement drivers so the Criterion benches
//! and the binary agree on methodology.
//!
//! | Experiment | Paper artifact | Driver |
//! |---|---|---|
//! | Filtering effectiveness & effort | Table 1 | [`run_table1_row`] |
//! | Mixed vs fully symbolic | Table 2 | [`run_repr_comparison`] |
//! | Query simplification ablation | §4 hypothesis 2 | [`run_simplification_ablation`] |
//! | Loop invariant ablation | §4 hypothesis 3 | [`run_loop_ablation`] |

#![warn(missing_docs)]

use std::path::Path;
use std::time::{Duration, Instant};

use android::{paper_annotations, ActivityLeakChecker};
use apps::{builder, BenchApp};
use symex::{CacheMode, LoopMode, Representation, SymexConfig};
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
/// (sequential refutation; see [`run_table1_row_with_jobs`]).
pub fn run_table1_row(app: &BenchApp, annotated: bool, config: SymexConfig) -> Table1Row {
    run_table1_row_with_jobs(app, annotated, config, 1)
}

/// [`run_table1_row`] with an explicit refutation thread count. Every
/// counter in the returned row is identical for every `jobs` value; only
/// the wall clock changes.
pub fn run_table1_row_with_jobs(
    app: &BenchApp,
    annotated: bool,
    config: SymexConfig,
    jobs: usize,
) -> Table1Row {
    let mut checker = ActivityLeakChecker::new(&app.program)
        .with_policy(builder::container_policy(app))
        .with_config(config)
        .with_jobs(jobs);
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
    /// Mixed-representation time.
    pub mixed_time: Duration,
    /// Mixed-representation edge timeouts.
    pub mixed_timeouts: usize,
    /// Comparison-representation time.
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

/// Compares the mixed representation against `other` on one app (Table 2
/// uses [`Representation::FullySymbolic`]).
pub fn run_repr_comparison(
    app: &BenchApp,
    annotated: bool,
    other: Representation,
    base_config: SymexConfig,
) -> ReprComparison {
    let run = |repr: Representation| {
        let cfg = base_config.clone().with_representation(repr);
        let t0 = Instant::now();
        let row = run_table1_row(app, annotated, cfg);
        (t0.elapsed(), row)
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
pub fn run_reason_breakdown(app: &BenchApp, annotated: bool) -> ReasonBreakdown {
    let opts = if annotated {
        android::to_pta_options(&paper_annotations(&app.lib))
    } else {
        pta::PtaOptions::default()
    };
    let pta_result = pta::analyze_with(&app.program, builder::container_policy(app), &opts);
    let modref = pta::ModRef::compute(&app.program, &pta_result);
    let mut client =
        android::LeakClient::new(&app.program, &pta_result, &modref, SymexConfig::default());
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

/// One point of a `--jobs` scaling sweep: the wall-clock time of a full
/// Table 1 pass (all apps, both annotation configurations) at one
/// refutation thread count.
#[derive(Clone, Debug)]
pub struct JobsSweepPoint {
    /// Refutation worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock time of the pass.
    pub wall: Duration,
}

impl JobsSweepPoint {
    /// Speedup of this point relative to `baseline` (the `jobs = 1` wall
    /// clock).
    pub fn speedup_vs(&self, baseline: Duration) -> f64 {
        baseline.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs a full Table 1 pass once per entry of `jobs_list`, wall-clocking
/// each pass. Returns the sweep points plus the rows of the first pass
/// (the counters are identical across passes — the scheduler is
/// deterministic — so one copy suffices for the snapshot).
pub fn run_jobs_sweep(
    apps: &[BenchApp],
    budget: u64,
    jobs_list: &[usize],
) -> (Vec<JobsSweepPoint>, Vec<Table1Row>) {
    let mut points = Vec::new();
    let mut first_rows = Vec::new();
    for &jobs in jobs_list {
        let t0 = Instant::now();
        let mut rows = Vec::new();
        for app in apps {
            for annotated in [false, true] {
                let cfg = SymexConfig::default().with_budget(budget);
                rows.push(run_table1_row_with_jobs(app, annotated, cfg, jobs));
            }
        }
        points.push(JobsSweepPoint { jobs, wall: t0.elapsed() });
        if first_rows.is_empty() {
            first_rows = rows;
        }
    }
    (points, first_rows)
}

/// One measured point of the points-to solver benchmark: one program
/// under one fixpoint strategy. Effort counters are read back from the
/// serialized run report (not from in-process state), so the numbers the
/// snapshot records are exactly the numbers `--diff-reports` compares.
#[derive(Clone, Debug)]
pub struct PtaBenchPoint {
    /// Program name (an app, or `scaled-N` for the generated corpus).
    pub program: String,
    /// Generator scale, when the program came from [`apps::scale`].
    pub scale: Option<usize>,
    /// Fixpoint strategy that produced this point.
    pub solver: pta::SolverKind,
    /// Solve wall time in seconds.
    pub solve_s: f64,
    /// `pta_propagations` from the run report.
    pub propagations: u64,
    /// `pta_deltas_pushed` from the run report.
    pub deltas_pushed: u64,
    /// `pta_sccs_collapsed` from the run report.
    pub sccs_collapsed: u64,
    /// `pta_nodes` from the run report (solver-independent).
    pub nodes: u64,
}

/// Solves `program` once with `solver` under `rec`, timing the solve and
/// reading the effort counters back out of a serialized run report.
fn measure_pta(
    rec: &obs::MemRecorder,
    name: &str,
    scale: Option<usize>,
    program: &tir::Program,
    policy: pta::ContextPolicy,
    solver: pta::SolverKind,
) -> PtaBenchPoint {
    rec.reset();
    let opts = pta::PtaOptions { solver, ..Default::default() };
    let t0 = Instant::now();
    let result = pta::analyze_with(program, policy, &opts);
    let solve_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&result);
    let report = obs::json::parse(
        &rec.run_report(&[("program", name), ("pta_solver", solver.name())]).to_json(),
    )
    .expect("run report serializes to valid JSON");
    let counter = |key: &str| {
        report
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(obs::json::Value::as_u64)
            .unwrap_or(0)
    };
    PtaBenchPoint {
        program: name.to_owned(),
        scale,
        solver,
        solve_s,
        propagations: counter("pta_propagations"),
        deltas_pushed: counter("pta_deltas_pushed"),
        sccs_collapsed: counter("pta_sccs_collapsed"),
        nodes: counter("pta_nodes"),
    }
}

/// Benchmarks both points-to fixpoint strategies over every suite app and
/// one [`apps::scale`] program of the given `scale`. Returns two points
/// (delta, then reference) per program. Installs a fresh static metric
/// recorder; any previously installed recorder is replaced.
pub fn run_pta_bench(scale: usize) -> Vec<PtaBenchPoint> {
    let rec = obs::MemRecorder::install_static(obs::RingCapacity::default());
    let mut points = Vec::new();
    let mut both =
        |name: &str, sc: Option<usize>, program: &tir::Program, policy: &pta::ContextPolicy| {
            for solver in [pta::SolverKind::Delta, pta::SolverKind::Reference] {
                points.push(measure_pta(rec, name, sc, program, policy.clone(), solver));
            }
        };
    for app in apps::suite::all_apps() {
        both(app.name, None, &app.program, &builder::container_policy(&app));
    }
    let scaled = apps::scale::scaled_program(scale);
    both(&format!("scaled-{scale}"), Some(scale), &scaled, &pta::ContextPolicy::Insensitive);
    points
}

impl PtaBenchPoint {
    /// A structured JSON view of the point for the perf snapshot.
    pub fn to_value(&self) -> obs::json::Value {
        use obs::json::Value;
        let mut fields = vec![
            ("program".to_owned(), Value::str(&self.program)),
            ("solver".to_owned(), Value::str(self.solver.name())),
            ("pta_solve_s".to_owned(), Value::Float(self.solve_s)),
            ("pta_propagations".to_owned(), Value::uint(self.propagations)),
            ("pta_deltas_pushed".to_owned(), Value::uint(self.deltas_pushed)),
            ("pta_sccs_collapsed".to_owned(), Value::uint(self.sccs_collapsed)),
            ("pta_nodes".to_owned(), Value::uint(self.nodes)),
        ];
        if let Some(s) = self.scale {
            fields.insert(1, ("scale".to_owned(), Value::uint(s as u64)));
        }
        Value::Obj(fields)
    }
}

/// One wall-time sample of the scaled corpus under both fixpoint
/// strategies, for the crossover scan `reproduce pta` prints.
#[derive(Clone, Copy, Debug)]
pub struct CrossoverSample {
    /// Generator scale of the measured program.
    pub scale: usize,
    /// Best-of-three delta-solver wall time, seconds.
    pub delta_s: f64,
    /// Best-of-three reference-solver wall time, seconds.
    pub reference_s: f64,
}

/// Times both solvers on [`apps::scale`] programs at each of `scales`
/// (best of three runs per point, to shave scheduler noise) and returns
/// the samples plus the first scale where the delta solver's wall time
/// beats the reference solver's — the point where delta bookkeeping pays
/// for itself.
pub fn pta_walltime_crossover(scales: &[usize]) -> (Vec<CrossoverSample>, Option<usize>) {
    let time_solver = |program: &tir::Program, solver: pta::SolverKind| -> f64 {
        let opts = pta::PtaOptions { solver, ..Default::default() };
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(pta::analyze_with(
                    program,
                    pta::ContextPolicy::Insensitive,
                    &opts,
                ));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut samples = Vec::new();
    let mut crossover = None;
    for &scale in scales {
        let program = apps::scale::scaled_program(scale);
        let sample = CrossoverSample {
            scale,
            delta_s: time_solver(&program, pta::SolverKind::Delta),
            reference_s: time_solver(&program, pta::SolverKind::Reference),
        };
        if crossover.is_none() && sample.delta_s < sample.reference_s {
            crossover = Some(scale);
        }
        samples.push(sample);
    }
    (samples, crossover)
}

/// Aggregated measurements of single-statement edits driven through the
/// incremental points-to pipeline on one program: summed edit-solve vs
/// from-scratch propagations, edit-solve latency quantiles, and whether
/// the canonicalized incremental state matched a from-scratch
/// `SolverKind::Reference` solve after every single batch.
#[derive(Clone, Debug)]
pub struct EditBenchPoint {
    /// Program name (an app, or `scaled-N` for the generated corpus).
    pub program: String,
    /// Generator scale, when the program came from [`apps::scale`].
    pub scale: Option<usize>,
    /// Single-statement edit batches measured (each candidate statement
    /// contributes a removal and a re-addition).
    pub edits: u64,
    /// Summed `EditSolveStats::propagations` across the batches.
    pub edit_propagations: u64,
    /// Summed propagations of a from-scratch delta solve of the edited
    /// program, one solve per batch — what a non-incremental pipeline
    /// would have paid.
    pub scratch_propagations: u64,
    /// Batches that took the deletion-then-rederive path.
    pub rebuilds: u64,
    /// Median edit-solve latency, microseconds (nearest rank).
    pub p50_us: u64,
    /// 99th-percentile edit-solve latency, microseconds.
    pub p99_us: u64,
    /// Worst edit-solve latency, microseconds.
    pub max_us: u64,
    /// Median from-scratch solve latency, microseconds, for contrast.
    pub scratch_p50_us: u64,
    /// True iff the reference oracle matched byte-for-byte after every
    /// batch.
    pub oracle_ok: bool,
}

impl EditBenchPoint {
    /// Edit-solve propagations as a fraction of from-scratch propagations
    /// (the CI gate requires ≤ 0.25 on the scaled corpus).
    pub fn propagation_ratio(&self) -> f64 {
        self.edit_propagations as f64 / (self.scratch_propagations as f64).max(1.0)
    }

    /// A structured JSON view of the point for the snapshot's `edits`
    /// section.
    pub fn to_value(&self) -> obs::json::Value {
        use obs::json::Value;
        let mut fields = vec![
            ("program".to_owned(), Value::str(&self.program)),
            ("edits".to_owned(), Value::uint(self.edits)),
            ("edit_propagations".to_owned(), Value::uint(self.edit_propagations)),
            ("scratch_propagations".to_owned(), Value::uint(self.scratch_propagations)),
            ("propagation_ratio".to_owned(), Value::Float(self.propagation_ratio())),
            ("rebuilds".to_owned(), Value::uint(self.rebuilds)),
            ("p50_us".to_owned(), Value::uint(self.p50_us)),
            ("p99_us".to_owned(), Value::uint(self.p99_us)),
            ("max_us".to_owned(), Value::uint(self.max_us)),
            ("scratch_p50_us".to_owned(), Value::uint(self.scratch_p50_us)),
            ("oracle_ok".to_owned(), Value::Bool(self.oracle_ok)),
        ];
        if let Some(s) = self.scale {
            fields.insert(1, ("scale".to_owned(), Value::uint(s as u64)));
        }
        Value::Obj(fields)
    }
}

/// Statements eligible as single-statement edit subjects: every command
/// whose printed text round-trips through the edit parser (validated on a
/// throwaway clone, so allocation-site uniqueness and control-flow
/// restrictions are enforced by the edit layer itself, not re-encoded
/// here). Sorted by (method, ordinal) for determinism.
fn edit_candidates(program: &tir::Program) -> Vec<(String, usize, String)> {
    let mut methods: Vec<tir::MethodId> =
        program.methods_by_name().values().flatten().copied().collect();
    methods.sort_by_key(|m| m.index());
    let mut out = Vec::new();
    for m in methods {
        let name = program.method_name(m);
        for (at, cid) in program.method_cmds(m).iter().enumerate() {
            let text = format!("{};", tir::print_cmd(program, program.cmd(*cid)));
            // Allocation sites stay reserved after removal, so a `new`
            // can never be re-added under its original name.
            if text.contains('@') {
                continue;
            }
            let mut probe = program.clone();
            let remove = tir::EditOp::RemoveStmt { method: name.clone(), at };
            let add = tir::EditOp::AddStmt { method: name.clone(), at, text: text.clone() };
            if tir::apply_edits(&mut probe, std::slice::from_ref(&remove)).is_ok()
                && tir::apply_edits(&mut probe, std::slice::from_ref(&add)).is_ok()
            {
                out.push((name.clone(), at, text));
            }
        }
    }
    out
}

/// Drives up to `max_edits` single-statement edit batches (remove a
/// statement, then restore it) through one long-lived [`pta::IncrementalPta`],
/// comparing each batch's cost against a from-scratch solve of the edited
/// program and checking the `SolverKind::Reference` oracle after every
/// batch. Candidates are stride-sampled across the whole program so the
/// measurements cover many methods, not just the first one.
fn measure_edit_point(
    name: &str,
    scale: Option<usize>,
    program: &tir::Program,
    policy: &pta::ContextPolicy,
    max_edits: usize,
) -> EditBenchPoint {
    let opts = pta::PtaOptions::default();
    let ref_opts = pta::PtaOptions { solver: pta::SolverKind::Reference, ..Default::default() };
    let mut prog = program.clone();
    let all = edit_candidates(&prog);
    let want = (max_edits / 2).max(1);
    let step = (all.len() / want).max(1);
    let picked: Vec<_> = all.into_iter().step_by(step).take(want).collect();

    let mut inc = pta::IncrementalPta::new(&prog, policy.clone(), &opts);
    let mut edit_us = Vec::new();
    let mut scratch_us = Vec::new();
    let mut point = EditBenchPoint {
        program: name.to_owned(),
        scale,
        edits: 0,
        edit_propagations: 0,
        scratch_propagations: 0,
        rebuilds: 0,
        p50_us: 0,
        p99_us: 0,
        max_us: 0,
        scratch_p50_us: 0,
        oracle_ok: true,
    };
    'candidates: for (method, at, text) in picked {
        let batches = [
            tir::EditOp::RemoveStmt { method: method.clone(), at },
            tir::EditOp::AddStmt { method, at, text },
        ];
        for op in batches {
            // Candidates were validated against the pristine program; a
            // failure here means earlier batches drifted the indices, so
            // stop rather than measure a different program.
            let Ok(applied) = tir::apply_edits(&mut prog, std::slice::from_ref(&op)) else {
                break 'candidates;
            };
            let t0 = Instant::now();
            let stats = inc.apply_edits(&prog, &applied);
            edit_us.push(t0.elapsed().as_micros() as u64);
            point.edits += 1;
            point.edit_propagations += stats.propagations;
            point.rebuilds += u64::from(stats.rebuilt);

            let t1 = Instant::now();
            let scratch = pta::IncrementalPta::new(&prog, policy.clone(), &opts);
            scratch_us.push(t1.elapsed().as_micros() as u64);
            point.scratch_propagations += scratch.propagations();

            let reference = pta::analyze_with(&prog, policy.clone(), &ref_opts);
            point.oracle_ok &= pta::canonical_text(&prog, &inc.result(&prog))
                == pta::canonical_text(&prog, &reference);
        }
    }
    let quantiles = |samples: &[u64]| {
        let mut window = obs::SlidingWindow::new(samples.len().max(1));
        for &s in samples {
            window.push(s);
        }
        (
            window.quantile(0.5).unwrap_or(0),
            window.quantile(0.99).unwrap_or(0),
            window.max().unwrap_or(0),
        )
    };
    (point.p50_us, point.p99_us, point.max_us) = quantiles(&edit_us);
    (point.scratch_p50_us, _, _) = quantiles(&scratch_us);
    point
}

/// Benchmarks single-statement edit re-analysis over every suite app and
/// one [`apps::scale`] program of the given `scale`, `max_edits` batches
/// per program. Returns one aggregated point per program.
pub fn run_edit_bench(scale: usize, max_edits: usize) -> Vec<EditBenchPoint> {
    let mut points = Vec::new();
    for app in apps::suite::all_apps() {
        points.push(measure_edit_point(
            app.name,
            None,
            &app.program,
            &builder::container_policy(&app),
            max_edits,
        ));
    }
    let scaled = apps::scale::scaled_program(scale);
    points.push(measure_edit_point(
        &format!("scaled-{scale}"),
        Some(scale),
        &scaled,
        &pta::ContextPolicy::Insensitive,
        max_edits,
    ));
    points
}

/// One measured point of the null-dereference client benchmark: every
/// candidate dereference site of one program pushed through the full
/// refutation stack, with the jobs-1 report byte-compared against a
/// jobs-4 rerun and (for generated programs) the alarm count checked
/// against the generator's ground truth. `drift` counts violations of
/// either property — 0 means the answers are scheduler-independent and
/// exactly right.
#[derive(Clone, Debug)]
pub struct NullBenchPoint {
    /// Program name (an app, or `scaled-null-N` for the generated corpus).
    pub program: String,
    /// Generator scale, when the program came from [`apps::scale`].
    pub scale: Option<usize>,
    /// May-null dereference sites the front end flagged.
    pub candidate_sites: u64,
    /// Candidate sites fully refuted.
    pub refuted_sites: u64,
    /// Surviving alarms (each carries a concrete witness).
    pub alarms: u64,
    /// Ground-truth alarm count, when the program has one.
    pub expected_alarms: Option<u64>,
    /// Per-site flow edges refuted by symbolic execution.
    pub edges_refuted: u64,
    /// Sites whose verdict degraded to a budget-exhausted alarm.
    pub edge_timeouts: u64,
    /// Ground-truth mismatches plus jobs-4 report divergences (0 = the
    /// client answered correctly and deterministically).
    pub drift: u64,
    /// Wall time of the jobs-1 pass, microseconds.
    pub time_us: u64,
}

impl NullBenchPoint {
    /// A structured JSON view of the point for the snapshot's `null`
    /// section.
    pub fn to_value(&self) -> obs::json::Value {
        use obs::json::Value;
        let mut fields = vec![
            ("program".to_owned(), Value::str(&self.program)),
            ("candidate_sites".to_owned(), Value::uint(self.candidate_sites)),
            ("refuted_sites".to_owned(), Value::uint(self.refuted_sites)),
            ("alarms".to_owned(), Value::uint(self.alarms)),
            ("edges_refuted".to_owned(), Value::uint(self.edges_refuted)),
            ("edge_timeouts".to_owned(), Value::uint(self.edge_timeouts)),
            ("drift".to_owned(), Value::uint(self.drift)),
            ("time_us".to_owned(), Value::uint(self.time_us)),
        ];
        if let Some(expected) = self.expected_alarms {
            fields.insert(4, ("expected_alarms".to_owned(), Value::uint(expected)));
        }
        if let Some(sc) = self.scale {
            fields.insert(1, ("scale".to_owned(), Value::uint(sc as u64)));
        }
        Value::Obj(fields)
    }
}

/// Runs the null client once sequentially (the timed pass), reruns it
/// with four workers, and folds both the jobs-4 byte comparison and the
/// optional ground-truth check into the point's `drift` counter.
pub fn measure_null_point(
    name: &str,
    scale: Option<usize>,
    program: &tir::Program,
    expected_alarms: Option<u64>,
) -> NullBenchPoint {
    let t0 = Instant::now();
    let report = Thresher::new(program).check_null_derefs();
    let time_us = t0.elapsed().as_micros() as u64;
    let parallel = Thresher::new(program).with_jobs(4).check_null_derefs();
    let mut drift = 0u64;
    if report.to_value(program).to_json() != parallel.to_value(program).to_json() {
        drift += 1;
    }
    if let Some(expected) = expected_alarms {
        if report.num_alarms() as u64 != expected {
            drift += 1;
        }
    }
    NullBenchPoint {
        program: name.to_owned(),
        scale,
        candidate_sites: report.candidate_sites as u64,
        refuted_sites: report.refuted_sites as u64,
        alarms: report.num_alarms() as u64,
        expected_alarms,
        edges_refuted: report.edges_refuted as u64,
        edge_timeouts: report.edge_timeouts as u64,
        drift,
        time_us,
    }
}

/// Benchmarks the null client over every suite app (no ground truth —
/// the numbers are recorded for diffing) and the generated null corpus
/// at doubling scales up to `max_scale`, where the alarm count is
/// pinned to [`apps::scale::expected_null_alarms`].
pub fn run_null_bench(max_scale: usize) -> Vec<NullBenchPoint> {
    let mut points = Vec::new();
    for app in apps::suite::all_apps() {
        points.push(measure_null_point(app.name, None, &app.program, None));
    }
    let top = max_scale.max(1);
    let mut scales = Vec::new();
    let mut s = 1;
    while s < top {
        scales.push(s);
        s *= 2;
    }
    scales.push(top);
    for scale in scales {
        let scaled = apps::scale::scaled_null_program(scale);
        let expected = apps::scale::expected_null_alarms(scale) as u64;
        points.push(measure_null_point(
            &format!("scaled-null-{scale}"),
            Some(scale),
            &scaled,
            Some(expected),
        ));
    }
    points
}

/// Drops a `--jobs` sweep measured on a single-CPU host. Every `jobs >
/// 1` point on such a host measures scheduler contention, not parallel
/// scaling, and a snapshot that records contention data as a
/// `jobs_sweep` section poisons every later cross-commit diff — so the
/// sweep is refused outright rather than written with a caveat.
pub fn admissible_jobs_sweep(host_cpus: usize, points: Vec<JobsSweepPoint>) -> Vec<JobsSweepPoint> {
    if host_cpus <= 1 {
        Vec::new()
    } else {
        points
    }
}

/// One cold-vs-warm measurement of the persistent refutation cache on one
/// app: a cold run (fresh cache directory) populates the store, a warm
/// rerun over the unchanged program must answer every committed edge
/// decision from disk without exploring a single path program.
#[derive(Clone, Debug)]
pub struct IncrementalPoint {
    /// Benchmark name.
    pub name: &'static str,
    /// Cold (cache-populating) wall-clock time.
    pub cold: Duration,
    /// Warm (cache-served) wall-clock time.
    pub warm: Duration,
    /// Committed edge decisions per run (identical cold and warm).
    pub decisions: usize,
    /// Warm-run decisions served from the store (`cache_hits`).
    pub warm_hits: usize,
    /// Warm-run decisions computed live (`cache_misses`; must be 0).
    pub warm_misses: usize,
    /// Warm-run decisions recomputed after invalidation (must be 0 on an
    /// unchanged program).
    pub warm_invalidated: usize,
    /// Path programs explored live during the warm run (must be 0: the
    /// whole point of the cache).
    pub warm_fresh_paths: u64,
    /// Do the cold and warm reports agree on every alarm verdict and
    /// every edge counter?
    pub reports_agree: bool,
}

impl IncrementalPoint {
    /// Cold / warm wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }

    /// The incremental-soundness gate: the warm run reproduced the cold
    /// report entirely from the store — every decision a hit, zero live
    /// path explorations.
    pub fn warm_is_pure(&self) -> bool {
        self.reports_agree
            && self.warm_misses == 0
            && self.warm_invalidated == 0
            && self.warm_fresh_paths == 0
            && self.warm_hits == self.decisions
    }
}

/// Result equivalence for the incremental gate: same alarms in the same
/// order with the same verdicts, and the same edge counters. (Cache
/// counters are deliberately not compared — they are the run's cold/warm
/// provenance, not its result.)
fn leak_reports_agree(a: &android::LeakReport, b: &android::LeakReport) -> bool {
    a.alarms.len() == b.alarms.len()
        && a.alarms
            .iter()
            .zip(&b.alarms)
            .all(|((aa, ra), (ab, rb))| aa == ab && ra.is_refuted() == rb.is_refuted())
        && a.stats.edges_refuted == b.stats.edges_refuted
        && a.stats.edges_witnessed == b.stats.edges_witnessed
        && a.stats.edge_timeouts == b.stats.edge_timeouts
        && a.stats.retries == b.stats.retries
        && a.stats.degraded_decisions == b.stats.degraded_decisions
        && a.stats.edges_descheduled == b.stats.edges_descheduled
}

/// Runs the leak client twice over `app` against a persistent cache
/// rooted at `cache_dir` — cold then warm — and checks that the warm run
/// was served entirely from the store. The caller provides a *fresh*
/// directory (an existing store would make the first run warm).
pub fn run_incremental(app: &BenchApp, cache_dir: &Path, config: SymexConfig) -> IncrementalPoint {
    let run = || {
        let t0 = Instant::now();
        let report = ActivityLeakChecker::new(&app.program)
            .with_policy(builder::container_policy(app))
            .with_config(config.clone())
            .with_cache(cache_dir, CacheMode::ReadWrite)
            .check();
        (t0.elapsed(), report)
    };
    let (cold, cold_report) = run();
    let (warm, warm_report) = run();
    let s = &warm_report.stats;
    IncrementalPoint {
        name: app.name,
        cold,
        warm,
        decisions: s.cache_hits + s.cache_misses + s.cache_invalidated,
        warm_hits: s.cache_hits,
        warm_misses: s.cache_misses,
        warm_invalidated: s.cache_invalidated,
        warm_fresh_paths: s.fresh_path_programs,
        reports_agree: leak_reports_agree(&cold_report, &warm_report),
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

/// Schema identifier written into every perf snapshot (see
/// [`perf_snapshot_json`]). Version 3 added the `serve` section
/// (daemon latency quantiles + per-phase cost splits); version 4 added
/// the `edits` section (per-edit latency quantiles + propagation ratio
/// of incremental edit re-analysis); version 5 added an optional
/// `demand` section, since dropped along with the demand-driven
/// points-to tier it measured; version 6 added the `null` section
/// ([`NullBenchPoint`]: null-dereference client verdicts + drift vs
/// generator ground truth) and made the `jobs_sweep` section refuse to
/// appear at all on single-CPU hosts (see [`admissible_jobs_sweep`])
/// instead of recording contention data behind a `host_cpus` caveat.
pub const SNAPSHOT_SCHEMA: &str = "thresher.bench_snapshot/6";

/// One `reproduce serve` measurement: request-latency quantiles and the
/// summed per-phase cost splits of a resident daemon answering `rounds`
/// analyses of one app, straight from the response `cost` blocks.
#[derive(Clone, Debug)]
pub struct ServeLatencyPoint {
    /// Benchmark name.
    pub name: String,
    /// Resident (post-load) requests measured.
    pub requests: u64,
    /// Median request wall time, microseconds (nearest rank).
    pub p50_us: u64,
    /// 99th-percentile request wall time, microseconds (nearest rank).
    pub p99_us: u64,
    /// Worst request wall time, microseconds.
    pub max_us: u64,
    /// Summed `cost.phases.parse_us` over the measured requests.
    pub parse_us: u64,
    /// Summed `cost.phases.pta_us`.
    pub pta_us: u64,
    /// Summed `cost.phases.symex_us`.
    pub symex_us: u64,
    /// Summed `cost.phases.cache_us`.
    pub cache_us: u64,
}

impl ServeLatencyPoint {
    /// Builds a point from per-request `(wall_us, parse, pta, symex,
    /// cache)` cost samples. Quantiles are exact nearest-rank (the sample
    /// set is small and fully retained).
    pub fn from_samples(name: impl Into<String>, samples: &[(u64, u64, u64, u64, u64)]) -> Self {
        let mut window = obs::SlidingWindow::new(samples.len().max(1));
        for &(wall, ..) in samples {
            window.push(wall);
        }
        let sum = |f: fn(&(u64, u64, u64, u64, u64)) -> u64| samples.iter().map(f).sum();
        ServeLatencyPoint {
            name: name.into(),
            requests: samples.len() as u64,
            p50_us: window.quantile(0.5).unwrap_or(0),
            p99_us: window.quantile(0.99).unwrap_or(0),
            max_us: window.max().unwrap_or(0),
            parse_us: sum(|s| s.1),
            pta_us: sum(|s| s.2),
            symex_us: sum(|s| s.3),
            cache_us: sum(|s| s.4),
        }
    }

    /// A structured JSON view of the point, for the snapshot's `serve`
    /// section.
    pub fn to_value(&self) -> obs::json::Value {
        use obs::json::Value;
        Value::Obj(vec![
            ("name".to_owned(), Value::str(self.name.clone())),
            ("requests".to_owned(), Value::uint(self.requests)),
            ("p50_us".to_owned(), Value::uint(self.p50_us)),
            ("p99_us".to_owned(), Value::uint(self.p99_us)),
            ("max_us".to_owned(), Value::uint(self.max_us)),
            (
                "phases_us".to_owned(),
                Value::Obj(vec![
                    ("parse".to_owned(), Value::uint(self.parse_us)),
                    ("pta".to_owned(), Value::uint(self.pta_us)),
                    ("symex".to_owned(), Value::uint(self.symex_us)),
                    ("cache".to_owned(), Value::uint(self.cache_us)),
                ]),
            ),
        ])
    }
}

impl Table1Row {
    /// A structured JSON view of the row, mirroring the printed columns
    /// plus abort/degradation provenance.
    pub fn to_value(&self) -> obs::json::Value {
        use obs::json::Value;
        let aborts = self
            .aborts
            .by_key()
            .iter()
            .map(|(k, n)| ((*k).to_owned(), Value::uint(*n)))
            .collect::<Vec<_>>();
        Value::Obj(vec![
            ("name".to_owned(), Value::str(self.name)),
            ("size_cmds".to_owned(), Value::uint(self.size_cmds as u64)),
            ("annotated".to_owned(), Value::Bool(self.annotated)),
            ("alarms".to_owned(), Value::uint(self.alarms as u64)),
            ("refuted_alarms".to_owned(), Value::uint(self.refuted_alarms as u64)),
            ("true_alarms".to_owned(), Value::uint(self.true_alarms as u64)),
            ("false_alarms".to_owned(), Value::uint(self.false_alarms as u64)),
            ("fields".to_owned(), Value::uint(self.fields as u64)),
            ("refuted_fields".to_owned(), Value::uint(self.refuted_fields as u64)),
            ("edges_refuted".to_owned(), Value::uint(self.edges_refuted as u64)),
            ("edges_witnessed".to_owned(), Value::uint(self.edges_witnessed as u64)),
            ("timeouts".to_owned(), Value::uint(self.timeouts as u64)),
            ("aborts".to_owned(), Value::Obj(aborts)),
            ("retries".to_owned(), Value::uint(self.retries as u64)),
            ("degraded_decisions".to_owned(), Value::uint(self.degraded_decisions as u64)),
            ("time_s".to_owned(), Value::Float(self.time.as_secs_f64())),
        ])
    }
}

/// Serializes a machine-readable perf snapshot of a Table 1 run — the
/// payload of the `BENCH_<timestamp>.json` files the `reproduce` binary
/// emits so runs can be diffed across commits.
pub fn perf_snapshot_json(rows: &[Table1Row], unix_time_s: u64, budget: u64) -> String {
    perf_snapshot_json_with_sweep(rows, unix_time_s, budget, &[])
}

/// [`perf_snapshot_json`] extended with a `--jobs` scaling sweep. When
/// `sweep` is non-empty an additional `jobs_sweep` key records
/// `{jobs, wall_time_s, speedup_vs_1}` per point; speedups are relative
/// to the sweep's `jobs = 1` entry.
pub fn perf_snapshot_json_with_sweep(
    rows: &[Table1Row],
    unix_time_s: u64,
    budget: u64,
    sweep: &[JobsSweepPoint],
) -> String {
    perf_snapshot_json_full(rows, unix_time_s, budget, sweep, &[], &[], &[], &[])
}

/// The full snapshot serializer (schema `thresher.bench_snapshot/6`):
/// Table 1 rows, an optional `--jobs` sweep, an optional `pta` phase
/// breakdown of [`PtaBenchPoint`]s (per program × solver: solve wall
/// time, propagation/delta/SCC effort counters), an optional `serve`
/// section of [`ServeLatencyPoint`]s (daemon latency quantiles +
/// per-phase cost splits), an optional `edits` section of
/// [`EditBenchPoint`]s (incremental edit latency quantiles + propagation
/// ratio vs from-scratch), and an optional `null` section of
/// [`NullBenchPoint`]s (null-dereference client verdicts + drift). Pass
/// `sweep` through [`admissible_jobs_sweep`] first — a sweep measured on
/// a single-CPU host must not be snapshotted at all.
#[allow(clippy::too_many_arguments)]
pub fn perf_snapshot_json_full(
    rows: &[Table1Row],
    unix_time_s: u64,
    budget: u64,
    sweep: &[JobsSweepPoint],
    pta_points: &[PtaBenchPoint],
    serve_points: &[ServeLatencyPoint],
    edit_points: &[EditBenchPoint],
    null_points: &[NullBenchPoint],
) -> String {
    use obs::json::Value;
    let mut fields = vec![
        ("schema".to_owned(), Value::str(SNAPSHOT_SCHEMA)),
        ("unix_time_s".to_owned(), Value::uint(unix_time_s)),
        ("budget".to_owned(), Value::uint(budget)),
        ("rows".to_owned(), Value::Arr(rows.iter().map(Table1Row::to_value).collect())),
    ];
    if !sweep.is_empty() {
        let baseline = sweep.iter().find(|p| p.jobs == 1).map_or_else(|| sweep[0].wall, |p| p.wall);
        let points = sweep
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("jobs".to_owned(), Value::uint(p.jobs as u64)),
                    ("wall_time_s".to_owned(), Value::Float(p.wall.as_secs_f64())),
                    ("speedup_vs_1".to_owned(), Value::Float(p.speedup_vs(baseline))),
                ])
            })
            .collect();
        // Wall-clock scaling is only meaningful relative to the cores the
        // sweep actually had; record them so snapshots from different
        // hosts can be compared honestly.
        fields.push(("host_cpus".to_owned(), Value::uint(thresher::default_jobs() as u64)));
        fields.push(("jobs_sweep".to_owned(), Value::Arr(points)));
    }
    if !pta_points.is_empty() {
        fields.push((
            "pta".to_owned(),
            Value::Arr(pta_points.iter().map(PtaBenchPoint::to_value).collect()),
        ));
    }
    if !serve_points.is_empty() {
        fields.push((
            "serve".to_owned(),
            Value::Arr(serve_points.iter().map(ServeLatencyPoint::to_value).collect()),
        ));
    }
    if !edit_points.is_empty() {
        fields.push((
            "edits".to_owned(),
            Value::Arr(edit_points.iter().map(EditBenchPoint::to_value).collect()),
        ));
    }
    if !null_points.is_empty() {
        fields.push((
            "null".to_owned(),
            Value::Arr(null_points.iter().map(NullBenchPoint::to_value).collect()),
        ));
    }
    Value::Obj(fields).to_json()
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
    fn single_cpu_host_refuses_the_jobs_sweep_snapshot() {
        let sweep = vec![
            JobsSweepPoint { jobs: 1, wall: Duration::from_millis(100) },
            JobsSweepPoint { jobs: 4, wall: Duration::from_millis(80) },
        ];
        // A sweep measured on one CPU is dropped wholesale, so the
        // snapshot carries neither contention data nor the host_cpus
        // caveat that used to footnote it.
        let gated = admissible_jobs_sweep(1, sweep.clone());
        assert!(gated.is_empty(), "1-CPU sweep must be refused");
        let snap = perf_snapshot_json_full(&[], 0, 10_000, &gated, &[], &[], &[], &[]);
        assert!(!snap.contains("jobs_sweep"), "refused sweep still snapshotted: {snap}");
        assert!(!snap.contains("host_cpus"), "refused sweep left its caveat behind: {snap}");
        // Multi-CPU hosts keep their measurements untouched.
        let kept = admissible_jobs_sweep(2, sweep);
        assert_eq!(kept.len(), 2);
        let snap = perf_snapshot_json_full(&[], 0, 10_000, &kept, &[], &[], &[], &[]);
        assert!(snap.contains("\"jobs_sweep\":["), "{snap}");
        assert!(snap.contains("\"host_cpus\":"), "{snap}");
    }

    #[test]
    fn null_bench_point_pins_scaled_ground_truth() {
        let program = apps::scale::scaled_null_program(2);
        let expected = apps::scale::expected_null_alarms(2) as u64;
        let p = measure_null_point("scaled-null-2", Some(2), &program, Some(expected));
        assert_eq!(p.alarms, expected, "null client missed the generator's ground truth");
        assert_eq!(p.drift, 0, "null report drifted (ground truth or jobs-4 bytes)");
        assert!(p.candidate_sites > p.alarms, "nothing was refuted");
        assert_eq!(p.edge_timeouts, 0, "budget artifact on the scaled null corpus");
        let snap =
            perf_snapshot_json_full(&[], 0, 10_000, &[], &[], &[], &[], std::slice::from_ref(&p));
        assert!(snap.contains("\"schema\":\"thresher.bench_snapshot/6\""), "{snap}");
        assert!(snap.contains("\"null\":[{"), "{snap}");
        assert!(snap.contains("\"expected_alarms\":"), "{snap}");
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
