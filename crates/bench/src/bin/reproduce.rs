//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! reproduce table1 [--budget N] [--apps a,b,c]   # Table 1
//! reproduce table2 [--budget N] [--apps a,b,c]   # Table 2 (fully symbolic vs mixed)
//! reproduce simplification [--budget N]          # §4 hypothesis 2
//! reproduce loops                                # §4 hypothesis 3
//! reproduce jobs [--budget N] [--apps a,b,c] [--assert-scaling]
//!                                                # --jobs scaling sweep (1, 2, all cores);
//!                                                # 1-core hosts refuse to snapshot the
//!                                                # sweep (and the gate is skipped)
//! reproduce pta [--scale N] [--assert-fewer-propagations]
//!                                                # points-to solver comparison
//! reproduce edits [--scale N] [--edits N] [--assert-edit-ratio]
//!                                                # incremental edit re-analysis vs from-scratch
//! reproduce null [--scale N] [--assert-no-drift]
//!                                                # null-dereference client vs ground truth
//! reproduce incremental [--budget N] [--apps a,b,c] [--cache-dir DIR]
//!                                                # persistent-cache cold vs warm
//! reproduce serve [--apps a,b,c] [--rounds N]    # resident daemon vs cold pipeline
//! reproduce all [--budget N]                     # everything
//!
//! snapshot options (table1 / jobs / pta / edits / null / serve / all; table1 and all include the pta breakdown):
//!   --snapshot-out <path>   where to write the perf snapshot JSON
//!                           (default BENCH_<unix-time>.json)
//!   --no-snapshot           skip writing the snapshot
//! ```
//!
//! Table 1 runs additionally emit a machine-readable perf snapshot
//! (`thresher.bench_snapshot/6`) so results can be diffed across commits.
//! The `serve` mode records the daemon's request-latency quantiles
//! (p50/p99, from the `cost` blocks attached to every response) and the
//! summed per-phase cost splits into the snapshot's `serve` section.
//!
//! The `incremental` mode runs every selected app cold then warm against
//! a persistent refutation cache and prints the wall-clock comparison.
//! It is always a gate: the process exits non-zero unless every warm run
//! answers every committed edge decision from the store (`cache_hits ==
//! decisions`) with **zero** live path-program explorations and a report
//! that agrees with the cold run on every verdict and edge counter. The
//! cache directory defaults to a fresh temp directory; `--cache-dir`
//! overrides it (useful for inspecting the store afterwards).
//!
//! The `pta` mode solves every suite app plus one generated
//! `apps::scale` program (default `--scale 16`) under both points-to
//! fixpoint strategies, reading the effort counters back from serialized
//! run reports. `--assert-fewer-propagations` turns the comparison into a
//! regression gate: the process exits non-zero unless the delta solver
//! performs strictly fewer propagations than the reference on the scaled
//! corpus — the CI guard for the difference-propagation rewrite. The mode
//! also scans generator scales for the wall-time crossover point: the
//! smallest corpus where the delta solver's bookkeeping pays for itself.
//!
//! The `edits` mode replays single-statement edits (remove a statement,
//! restore it) through a resident incremental points-to analysis on every
//! suite app plus the scaled corpus, comparing each edit solve against a
//! from-scratch solve of the edited program. After **every** batch the
//! canonicalized incremental state is checked byte-for-byte against a
//! from-scratch `SolverKind::Reference` solve; any divergence fails the
//! process unconditionally. `--assert-edit-ratio` adds the perf gate:
//! edit-solve propagations on the scaled corpus must total ≤ 25% of the
//! from-scratch propagations — the CI guard for the incremental-edit
//! pipeline.
//!
//! The `null` mode runs the null-dereference client over every suite app
//! and the generated null corpus at doubling scales up to `--scale N`
//! (default 16), pushing every may-null dereference site through the
//! full refutation stack. Each point reruns the client with four
//! workers and byte-compares the reports; scaled points additionally
//! pin the alarm count to the generator's ground truth. A non-zero
//! `drift` column means either check failed; `--assert-no-drift` fails
//! the process on any drift — the CI guard that the client's answers
//! are exactly right and scheduler-independent.
//!
//! Absolute times are hardware-dependent; the *shape* (who wins, by what
//! factor, where timeouts fall) is the reproduction target — see
//! EXPERIMENTS.md.

use apps::BenchApp;
use bench::{
    admissible_jobs_sweep, format_table1_row, perf_snapshot_json_full, pta_walltime_crossover,
    run_edit_bench, run_jobs_sweep, run_loop_ablation, run_null_bench, run_pta_bench,
    run_repr_comparison, run_simplification_ablation, run_table1_row, table1_header,
    EditBenchPoint, JobsSweepPoint, NullBenchPoint, PtaBenchPoint, ServeLatencyPoint, Table1Row,
};
use symex::{Representation, SymexConfig};

fn parse_budget(args: &[String]) -> u64 {
    args.iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn selected_apps(args: &[String]) -> Vec<BenchApp> {
    let filter: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--apps")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').map(|s| s.to_lowercase()).collect());
    apps::suite::all_apps()
        .into_iter()
        .filter(|a| match &filter {
            Some(names) => names.iter().any(|n| a.name.to_lowercase() == *n),
            None => true,
        })
        .collect()
}

fn table1(apps: &[BenchApp], budget: u64) -> Vec<Table1Row> {
    println!("== Table 1: filtering effectiveness and computational effort ==");
    println!("{}", table1_header());
    let mut totals = [0usize; 8];
    let mut rows = Vec::new();
    for app in apps {
        for annotated in [false, true] {
            let cfg = SymexConfig::default().with_budget(budget);
            let row = run_table1_row(app, annotated, cfg);
            println!("{}", format_table1_row(&row));
            let idx = usize::from(annotated) * 4;
            totals[idx] += row.alarms;
            totals[idx + 1] += row.refuted_alarms;
            totals[idx + 2] += row.true_alarms;
            totals[idx + 3] += row.false_alarms;
            rows.push(row);
        }
    }
    println!(
        "Total  Ann?=N: alarms={} refuted={} true={} false={}",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!(
        "Total  Ann?=Y: alarms={} refuted={} true={} false={}",
        totals[4], totals[5], totals[6], totals[7]
    );
    rows
}

/// Writes the perf snapshot next to the working directory (or to
/// `--snapshot-out`), named `BENCH_<unix-time>.json` by default.
#[allow(clippy::too_many_arguments)]
fn write_snapshot(
    args: &[String],
    rows: &[Table1Row],
    budget: u64,
    sweep: &[JobsSweepPoint],
    pta: &[PtaBenchPoint],
    serve: &[ServeLatencyPoint],
    edits: &[EditBenchPoint],
    null: &[NullBenchPoint],
) {
    if (rows.is_empty()
        && pta.is_empty()
        && serve.is_empty()
        && edits.is_empty()
        && null.is_empty())
        || args.iter().any(|a| a == "--no-snapshot")
    {
        return;
    }
    let unix_time_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = args
        .iter()
        .position(|a| a == "--snapshot-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{unix_time_s}.json"));
    let payload =
        perf_snapshot_json_full(rows, unix_time_s, budget, sweep, pta, serve, edits, null);
    match std::fs::write(&path, payload) {
        Ok(()) => println!("perf snapshot written to {path}"),
        Err(e) => eprintln!("warning: cannot write snapshot {path}: {e}"),
    }
}

/// Runs the `--jobs` scaling sweep (1, 2, all cores) over a full Table 1
/// pass and prints the wall-clock scaling table. With `assert_scaling`,
/// exits non-zero if the all-cores pass is slower than the sequential
/// one — except on single-core hosts, where every multi-threaded point
/// measures scheduler contention rather than scaling: there the gate is
/// skipped and the sweep points are *dropped* (via
/// [`admissible_jobs_sweep`]), so the snapshot never grows a
/// `jobs_sweep` section that would poison later cross-commit diffs.
/// The Table 1 rows are still returned — they are jobs-invariant.
fn jobs_sweep(
    apps: &[BenchApp],
    budget: u64,
    assert_scaling: bool,
) -> (Vec<JobsSweepPoint>, Vec<Table1Row>) {
    // Always include a 4-thread point so snapshots are comparable across
    // hosts, even when the sweep host has fewer cores.
    let cores = thresher::default_jobs();
    let mut jobs_list = vec![1usize, 2, 4, cores];
    jobs_list.sort_unstable();
    jobs_list.dedup();
    println!("== --jobs scaling: full Table 1 pass per thread count ({cores} core(s)) ==");
    let (points, rows) = run_jobs_sweep(apps, budget, &jobs_list);
    println!("{:>6} {:>12} {:>12}", "jobs", "wall T(s)", "speedup");
    let baseline = points.iter().find(|p| p.jobs == 1).map_or(points[0].wall, |p| p.wall);
    for p in &points {
        println!("{:>6} {:>12.2} {:>11.2}x", p.jobs, p.wall.as_secs_f64(), p.speedup_vs(baseline));
    }
    if cores == 1 {
        eprintln!(
            "WARNING: this host reports a single CPU. Every jobs>1 point above measures \
             scheduler contention, NOT parallel scaling; the sweep will NOT be \
             snapshotted (no jobs_sweep section is written). Scaling assertion {}.",
            if assert_scaling { "SKIPPED" } else { "not applicable" },
        );
    } else if assert_scaling {
        let top = points.iter().max_by_key(|p| p.jobs).expect("non-empty sweep");
        if top.speedup_vs(baseline) < 1.0 {
            eprintln!(
                "FAIL: jobs={} pass was slower than the sequential pass ({:.2}s vs {:.2}s)",
                top.jobs,
                top.wall.as_secs_f64(),
                baseline.as_secs_f64(),
            );
            std::process::exit(1);
        }
    }
    (admissible_jobs_sweep(cores, points), rows)
}

/// Runs the points-to solver comparison and prints it as a table. With
/// `assert_gate`, exits non-zero unless the delta solver performed
/// strictly fewer propagations than the reference on the scaled corpus.
fn pta_bench(scale: usize, assert_gate: bool) -> Vec<PtaBenchPoint> {
    println!("== points-to solver: delta propagation vs full-set reference (scale {scale}) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "Program", "solver", "T(s)", "nodes", "props", "deltas", "sccs"
    );
    let points = run_pta_bench(scale);
    for p in &points {
        println!(
            "{:<14} {:>10} {:>10.4} {:>8} {:>12} {:>12} {:>8}",
            p.program,
            p.solver.name(),
            p.solve_s,
            p.nodes,
            p.propagations,
            p.deltas_pushed,
            p.sccs_collapsed,
        );
    }
    let scaled_name = format!("scaled-{scale}");
    let find = |solver: pta::SolverKind| {
        points.iter().find(|p| p.program == scaled_name && p.solver == solver)
    };
    if let (Some(d), Some(r)) = (find(pta::SolverKind::Delta), find(pta::SolverKind::Reference)) {
        let pct = 100.0 * d.propagations as f64 / (r.propagations as f64).max(1.0);
        println!(
            "scaled corpus: delta {} vs reference {} propagations ({pct:.1}% of reference)",
            d.propagations, r.propagations
        );
        if assert_gate && d.propagations >= r.propagations {
            eprintln!(
                "FAIL: delta solver did not perform fewer propagations than the reference \
                 ({} >= {})",
                d.propagations, r.propagations
            );
            std::process::exit(1);
        }
    }

    // Wall-time crossover scan: propagation counts favour the delta
    // solver everywhere, but its bookkeeping has a constant cost — find
    // the corpus size where wall time starts favouring it too.
    let scales: Vec<usize> =
        [1, 2, 4, 8, 16, 32].iter().copied().filter(|s| *s <= scale.max(16)).collect();
    let (samples, crossover) = pta_walltime_crossover(&scales);
    println!("wall-time crossover scan (best of 3 per point):");
    println!("{:>8} {:>12} {:>14}", "scale", "delta (us)", "reference (us)");
    for s in &samples {
        println!("{:>8} {:>12.0} {:>14.0}", s.scale, s.delta_s * 1e6, s.reference_s * 1e6);
    }
    match crossover {
        Some(s) => println!("wall-time crossover: delta overtakes reference at scale {s}"),
        None => println!(
            "wall-time crossover: not reached up to scale {} (delta wins on propagations only)",
            scales.last().copied().unwrap_or(0)
        ),
    }
    points
}

/// Runs the incremental edit benchmark and prints it as a table. The
/// reference oracle is always a gate (any divergence exits non-zero);
/// with `assert_ratio`, edit-solve propagations on the scaled corpus must
/// additionally total ≤ 25% of the from-scratch propagations.
fn edits_bench(scale: usize, max_edits: usize, assert_ratio: bool) -> Vec<EditBenchPoint> {
    println!(
        "== incremental edits: single-statement edit re-analysis vs from-scratch \
         (scale {scale}, {max_edits} batches/program) =="
    );
    println!(
        "{:<14} {:>6} {:>10} {:>12} {:>8} {:>8} {:>9} {:>9} {:>12} {:>7}",
        "Program",
        "edits",
        "rebuilds",
        "edit props",
        "scratch",
        "ratio",
        "p50(us)",
        "p99(us)",
        "scr p50(us)",
        "oracle"
    );
    let points = run_edit_bench(scale, max_edits);
    let mut oracle_ok = true;
    for p in &points {
        oracle_ok &= p.oracle_ok;
        println!(
            "{:<14} {:>6} {:>10} {:>12} {:>8} {:>7.1}% {:>9} {:>9} {:>12} {:>7}",
            p.program,
            p.edits,
            p.rebuilds,
            p.edit_propagations,
            p.scratch_propagations,
            100.0 * p.propagation_ratio(),
            p.p50_us,
            p.p99_us,
            p.scratch_p50_us,
            if p.oracle_ok { "ok" } else { "FAIL" },
        );
    }
    if !oracle_ok {
        eprintln!(
            "FAIL: incremental state diverged from a from-scratch reference solve after an edit"
        );
        std::process::exit(1);
    }
    let scaled_name = format!("scaled-{scale}");
    if let Some(p) = points.iter().find(|p| p.program == scaled_name) {
        let pct = 100.0 * p.propagation_ratio();
        println!(
            "scaled corpus: edit-solve {} vs from-scratch {} propagations ({pct:.1}% of scratch)",
            p.edit_propagations, p.scratch_propagations
        );
        if assert_ratio && p.propagation_ratio() > 0.25 {
            eprintln!(
                "FAIL: edit-solve propagations exceeded 25% of from-scratch on the scaled \
                 corpus ({pct:.1}%)"
            );
            std::process::exit(1);
        }
    }
    points
}

/// Runs the null-dereference client benchmark and prints it as a table.
/// With `assert_no_drift`, any ground-truth mismatch or jobs-4 report
/// divergence exits non-zero.
fn null_bench(scale: usize, assert_no_drift: bool) -> Vec<NullBenchPoint> {
    println!("== null client: full refutation stack per may-null dereference (scale {scale}) ==");
    println!(
        "{:<16} {:>6} {:>8} {:>7} {:>6} {:>8} {:>7} {:>6} {:>10}",
        "Program", "sites", "refuted", "alarms", "want", "ref.edg", "budget", "drift", "T(us)"
    );
    let points = run_null_bench(scale);
    let mut drift_total = 0;
    for p in &points {
        drift_total += p.drift;
        println!(
            "{:<16} {:>6} {:>8} {:>7} {:>6} {:>8} {:>7} {:>6} {:>10}",
            p.program,
            p.candidate_sites,
            p.refuted_sites,
            p.alarms,
            p.expected_alarms.map_or_else(|| "-".to_owned(), |e| e.to_string()),
            p.edges_refuted,
            p.edge_timeouts,
            p.drift,
            p.time_us,
        );
    }
    if drift_total > 0 {
        println!(
            "drift: {drift_total} point(s) missed ground truth or answered \
             differently under --jobs 4"
        );
        if assert_no_drift {
            eprintln!("FAIL: null-client answers drifted");
            std::process::exit(1);
        }
    } else {
        println!(
            "drift: 0 (every report byte-identical across schedulers, every scaled \
             alarm count exactly the generator's ground truth)"
        );
    }
    points
}

/// Runs the persistent-cache cold/warm comparison and gate over every
/// selected app. Each app gets its own subdirectory of `root` so a stale
/// store can never warm another app's cold run.
fn incremental(apps: &[BenchApp], budget: u64, root: &std::path::Path) -> bool {
    println!("== incremental: persistent refutation cache, cold vs warm ==");
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>10} {:>6} {:>7} {:>11} {:>6}",
        "Benchmark",
        "cold T(s)",
        "warm T(s)",
        "speedup",
        "decisions",
        "hits",
        "misses",
        "fresh paths",
        "gate"
    );
    let mut ok = true;
    for app in apps {
        let dir = root.join(app.name);
        // A fresh directory per invocation: the first run must be cold.
        if dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                eprintln!("warning: cannot clear {}: {e}", dir.display());
            }
        }
        let cfg = SymexConfig::default().with_budget(budget);
        let p = bench::run_incremental(app, &dir, cfg);
        let pure = p.warm_is_pure();
        ok &= pure;
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>8.1}x {:>10} {:>6} {:>7} {:>11} {:>6}",
            p.name,
            p.cold.as_secs_f64(),
            p.warm.as_secs_f64(),
            p.speedup(),
            p.decisions,
            p.warm_hits,
            p.warm_misses,
            p.warm_fresh_paths,
            if pure { "ok" } else { "FAIL" },
        );
        if !pure {
            eprintln!(
                "FAIL: {}: warm run was not served purely from the cache \
                 (hits={} misses={} invalidated={} fresh_paths={} decisions={} agree={})",
                p.name,
                p.warm_hits,
                p.warm_misses,
                p.warm_invalidated,
                p.warm_fresh_paths,
                p.decisions,
                p.reports_agree,
            );
        }
    }
    ok
}

/// Measures what the resident daemon buys: the same load + leak-analysis
/// script run against a *fresh* in-process daemon every round (cold —
/// parse, points-to, and mod/ref paid per round) versus one daemon that
/// loads each program once and answers `analyze` from residency. Both
/// sides run the identical serve code path with identical budgets, so
/// the comparison isolates residency itself; the gate fails the process
/// if any request errors or any resident answer drifts from its cold
/// counterpart.
fn serve_bench(apps: &[BenchApp], rounds: usize) -> (bool, Vec<ServeLatencyPoint>) {
    use obs::json::{parse as parse_json, Value};
    use thresher::serve::{Daemon, ServeConfig};

    println!("== serve: resident daemon vs cold per-request pipeline ({rounds} round(s)) ==");
    println!(
        "{:<14} {:>10} {:>12} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "Benchmark",
        "cold T(s)",
        "resident T(s)",
        "speedup",
        "alarms",
        "refuted",
        "p50(us)",
        "p99(us)"
    );
    let config = || ServeConfig {
        workers: 1,
        jobs: 1,
        queue_cap: 4096,
        rate_per_sec: 1e9,
        burst: 1e9,
        ..ServeConfig::default()
    };
    let request = |id: u64, method: &str, params: Vec<(String, Value)>| {
        Value::Obj(vec![
            ("id".to_owned(), Value::uint(id)),
            ("method".to_owned(), Value::str(method)),
            ("params".to_owned(), Value::Obj(params)),
        ])
        .to_json()
    };
    let analyze_body = |line: &str| -> Option<(u64, u64)> {
        let ok = parse_json(line).ok()?.get("ok").cloned()?;
        Some((ok.get("num_alarms")?.as_u64()?, ok.get("num_refuted")?.as_u64()?))
    };
    // (wall, parse, pta, symex, cache) out of an ok response's cost block.
    let cost_sample = |line: &str| -> Option<(u64, u64, u64, u64, u64)> {
        let ok = parse_json(line).ok()?.get("ok").cloned()?;
        let cost = ok.get("cost")?.clone();
        let phases = cost.get("phases")?.clone();
        let p = |k: &str| phases.get(k).and_then(Value::as_u64).unwrap_or(0);
        Some((
            cost.get("wall_us")?.as_u64()?,
            p("parse_us"),
            p("pta_us"),
            p("symex_us"),
            p("cache_us"),
        ))
    };

    let mut all_ok = true;
    let mut points = Vec::new();
    for app in apps {
        let source = tir::print_program(&app.program);
        let load = request(
            1,
            "load_program",
            vec![
                ("name".to_owned(), Value::str(app.name)),
                ("source".to_owned(), Value::str(source)),
            ],
        );
        let analyze = request(2, "analyze", vec![("program".to_owned(), Value::str(app.name))]);

        // Cold: a fresh daemon per round pays parse + points-to each time.
        let cold_script = format!("{load}\n{analyze}\n");
        let t0 = std::time::Instant::now();
        let mut cold_answer = None;
        for _ in 0..rounds {
            let (lines, summary) = Daemon::new(config()).run_script(&cold_script);
            let answer = lines.iter().find_map(|l| analyze_body(l));
            if answer.is_none() {
                for l in &lines {
                    eprintln!("{}: unexpected response: {l}", app.name);
                }
            }
            all_ok &= summary.completed == 2 && answer.is_some();
            cold_answer = answer;
        }
        let cold = t0.elapsed();

        // Resident: one daemon, one load, `rounds` analyses from residency.
        let mut script = format!("{load}\n");
        for _ in 0..rounds {
            script.push_str(&analyze);
            script.push('\n');
        }
        let t1 = std::time::Instant::now();
        let (lines, summary) = Daemon::new(config()).run_script(&script);
        let resident = t1.elapsed();
        let answers: Vec<_> = lines.iter().filter_map(|l| analyze_body(l)).collect();
        let agree = answers.len() == rounds && answers.iter().all(|a| Some(*a) == cold_answer);
        all_ok &= summary.completed == 1 + rounds as u64 && agree;

        // Latency quantiles + phase splits of the resident analyses, from
        // the cost blocks the daemon attaches to every response (the load
        // is excluded: it is paid once, not per request).
        let samples: Vec<_> = lines
            .iter()
            .filter(|l| {
                parse_json(l).ok().and_then(|v| v.get("id").and_then(Value::as_u64)) != Some(1)
            })
            .filter_map(|l| cost_sample(l))
            .collect();
        all_ok &= samples.len() == rounds;
        let point = ServeLatencyPoint::from_samples(app.name, &samples);

        let (alarms, refuted) = cold_answer.unwrap_or((0, 0));
        println!(
            "{:<14} {:>10.3} {:>12.3} {:>8.2}x {:>8} {:>9} {:>9} {:>9}{}",
            app.name,
            cold.as_secs_f64(),
            resident.as_secs_f64(),
            cold.as_secs_f64() / resident.as_secs_f64().max(1e-9),
            alarms,
            refuted,
            point.p50_us,
            point.p99_us,
            if agree { "" } else { "  ANSWER DRIFT" },
        );
        points.push(point);
    }
    if !all_ok {
        eprintln!("FAIL: a serve request errored or a resident answer drifted from cold");
    }
    (all_ok, points)
}

fn table2(apps: &[BenchApp], budget: u64) {
    println!("== Table 2: fully symbolic representation vs mixed ==");
    println!(
        "{:<14} {:^4} {:>12} {:>12} {:>10} {:>8} {:>14}",
        "Benchmark", "Ann?", "mixed T(s)", "symb T(s)", "slowdown", "TO(+)", "refuted m/s"
    );
    for app in apps {
        for annotated in [false, true] {
            let cfg = SymexConfig::default().with_budget(budget);
            let cmp = run_repr_comparison(app, annotated, Representation::FullySymbolic, cfg);
            println!(
                "{:<14} {:^4} {:>12.2} {:>12.2} {:>9.1}X {:>+8} {:>7}/{}",
                cmp.name,
                if annotated { "Y" } else { "N" },
                cmp.mixed_time.as_secs_f64(),
                cmp.other_time.as_secs_f64(),
                cmp.slowdown(),
                cmp.added_timeouts(),
                cmp.mixed_refuted,
                cmp.other_refuted,
            );
        }
    }
}

fn simplification(apps: &[BenchApp], budget: u64) {
    println!("== Hypothesis 2: disabling query simplification (Ann?=Y) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "with T(s)", "without T(s)", "slowdown", "TO(+)"
    );
    for app in apps {
        let cfg = SymexConfig::default().with_budget(budget);
        let abl = run_simplification_ablation(app, cfg);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.1}X {:>+10}",
            abl.name,
            abl.with_time.as_secs_f64(),
            abl.without_time.as_secs_f64(),
            abl.slowdown(),
            abl.without_timeouts as isize - abl.with_timeouts as isize,
        );
    }
}

fn stats(apps: &[BenchApp]) {
    println!("== Refutation-reason breakdown (Ann?=Y, §3.2's three tools) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "Benchmark", "fromEmpty", "separation", "pure", "allocation", "entry"
    );
    for app in apps {
        let b = bench::run_reason_breakdown(app, true);
        println!(
            "{:<14} {:>10} {:>10} {:>8} {:>10} {:>8}",
            b.name, b.empty_region, b.separation, b.pure, b.allocation, b.entry
        );
    }
}

fn loops() {
    println!("== Hypothesis 3: loop invariant inference vs drop-all ==");
    let abl = run_loop_ablation();
    println!(
        "multi-container micro benchmark: full inference refutes CLEAN~>secret0: {}",
        abl.infer_refutes
    );
    println!(
        "multi-container micro benchmark: drop-all refutes CLEAN~>secret0:      {}",
        abl.drop_all_refutes
    );
    println!(
        "=> {}",
        if abl.infer_refutes && !abl.drop_all_refutes {
            "CONFIRMS hypothesis 3: inference is required to distinguish containers"
        } else {
            "UNEXPECTED: see EXPERIMENTS.md"
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("all");
    let budget = parse_budget(&args);
    let apps = selected_apps(&args);
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    match mode {
        "table1" => {
            let rows = table1(&apps, budget);
            println!();
            let points = pta_bench(scale, false);
            write_snapshot(&args, &rows, budget, &[], &points, &[], &[], &[]);
        }
        "table2" => table2(&apps, budget),
        "simplification" => simplification(&apps, budget),
        "stats" => stats(&apps),
        "loops" => loops(),
        "jobs" => {
            let gate = args.iter().any(|a| a == "--assert-scaling");
            let (points, rows) = jobs_sweep(&apps, budget, gate);
            write_snapshot(&args, &rows, budget, &points, &[], &[], &[], &[]);
        }
        "serve" => {
            let rounds = args
                .iter()
                .position(|a| a == "--rounds")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(3);
            let (ok, points) = serve_bench(&apps, rounds);
            write_snapshot(&args, &[], budget, &[], &[], &points, &[], &[]);
            if !ok {
                std::process::exit(1);
            }
        }
        "pta" => {
            let gate = args.iter().any(|a| a == "--assert-fewer-propagations");
            let points = pta_bench(scale, gate);
            write_snapshot(&args, &[], budget, &[], &points, &[], &[], &[]);
        }
        "edits" => {
            let max_edits = args
                .iter()
                .position(|a| a == "--edits")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(16);
            let gate = args.iter().any(|a| a == "--assert-edit-ratio");
            let points = edits_bench(scale, max_edits, gate);
            write_snapshot(&args, &[], budget, &[], &[], &[], &points, &[]);
        }
        "null" => {
            let no_drift = args.iter().any(|a| a == "--assert-no-drift");
            let points = null_bench(scale, no_drift);
            write_snapshot(&args, &[], budget, &[], &[], &[], &[], &points);
        }
        "incremental" => {
            let root = args
                .iter()
                .position(|a| a == "--cache-dir")
                .and_then(|i| args.get(i + 1))
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    std::env::temp_dir()
                        .join(format!("thresher-incremental-{}", std::process::id()))
                });
            if !incremental(&apps, budget, &root) {
                std::process::exit(1);
            }
        }
        "all" => {
            let rows = table1(&apps, budget);
            println!();
            table2(&apps, budget);
            println!();
            simplification(&apps, budget);
            println!();
            stats(&apps);
            println!();
            loops();
            println!();
            let points = pta_bench(scale, false);
            write_snapshot(&args, &rows, budget, &[], &points, &[], &[], &[]);
        }
        other => {
            eprintln!(
                "unknown mode {other}; use \
                 table1|table2|simplification|stats|loops|jobs|pta|edits|null|incremental|serve|all"
            );
            std::process::exit(2);
        }
    }
}
