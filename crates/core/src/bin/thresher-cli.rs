//! Command-line front end: analyze a `.tir` program file.
//!
//! ```text
//! thresher-cli <program.tir> [options]
//! thresher-cli --diff-reports <a.json> <b.json>
//!
//! options:
//!   --dump-pta                 print the flow-insensitive points-to graph
//!   --query <GLOBAL> <LOC>     refined reachability from a global to an
//!                              abstract location (repeatable)
//!   --leaks                    run the Android Activity-leak client
//!                              (requires the Android model classes)
//!   --client null              run the null-dereference refutation
//!                              client: sentinel-tier candidate
//!                              enumeration plus a refutation query per
//!                              dereference site (exit 1 on surviving
//!                              alarms, like --leaks)
//!   --jobs <N>                 refutation worker threads (default: all
//!                              cores; 1 = sequential; reported numbers are
//!                              identical for every setting)
//!   --budget <N>               path-program budget per edge (default 10000)
//!   --representation <mixed|symbolic|explicit>
//!   --loops <infer|drop-all>
//!   --no-simplification
//!   --pta-stats                print points-to solver counters (nodes,
//!                              instances, propagations, deltas pushed,
//!                              SCCs collapsed) after the analysis
//!   --report-out <path>        write a machine-readable RunReport JSON
//!   --trace-out <path>         write a Chrome trace-event JSON
//!                              (Perfetto / chrome://tracing)
//!   --cache-dir <DIR>          persistent refutation cache directory:
//!                              edge decisions are fingerprinted and
//!                              warm-started across runs; editing a method
//!                              invalidates exactly the decisions whose
//!                              call-graph slice contains it
//!   --cache <read-write|read>  cache mode (default read-write; no cache
//!                              without --cache-dir)
//!
//! --diff-reports compares two RunReport JSON files modulo timing: the
//! meta block, *_ns/*_us histograms, dropped_trace_events, and
//! trace_threads are excluded. `cache_*` counters are also excluded —
//! they report cache effectiveness (cold vs warm), never analysis
//! results, and the incremental gate compares cold and warm reports.
//! Exits 0 when equivalent, 1 when not — the CI determinism gate for
//! `--jobs`.
//!
//! Exit codes follow the contract in `thresher::exit`, shared with
//! `thresher-serve`: 0 = completed with nothing reachable, 1 = completed
//! with findings (a reachable query or surviving leak), 2 = completed
//! without findings but with aborted (deadline/budget) searches, 64 =
//! usage error, 65 = parse error, 66 = unreadable input, 74 = output or
//! cache I/O error (a closed or failing standard output included).
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use thresher::exit;
use thresher::obs::json::{self, Value};
use thresher::obs::{self, Counter, MemRecorder, RingCapacity, SpanKind};
use thresher::{CacheMode, LoopMode, ReachabilityAnswer, Representation, SymexConfig, Thresher};

struct Options {
    path: String,
    dump_pta: bool,
    queries: Vec<(String, String)>,
    leaks: bool,
    client_null: bool,
    jobs: usize,
    config: SymexConfig,
    pta_stats: bool,
    report_out: Option<String>,
    trace_out: Option<String>,
    cache_dir: Option<String>,
    cache_mode: CacheMode,
}

enum Mode {
    Analyze(Box<Options>),
    DiffReports(String, String),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut path = None;
    let mut dump_pta = false;
    let mut queries = Vec::new();
    let mut leaks = false;
    let mut client_null = false;
    let mut jobs = thresher::default_jobs();
    let mut config = SymexConfig::default();
    let mut pta_stats = false;
    let mut report_out = None;
    let mut trace_out = None;
    let mut cache_dir = None;
    let mut cache_mode = CacheMode::ReadWrite;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--diff-reports" => {
                let a = args.next().ok_or("--diff-reports needs <a.json> <b.json>")?;
                let b = args.next().ok_or("--diff-reports needs <a.json> <b.json>")?;
                return Ok(Mode::DiffReports(a, b));
            }
            "--dump-pta" => dump_pta = true,
            "--leaks" => leaks = true,
            "--client" => match args.next().as_deref() {
                Some("null") => client_null = true,
                other => return Err(format!("bad client {other:?} (expected: null)")),
            },
            "--no-simplification" => config.simplification = false,
            "--query" => {
                let g = args.next().ok_or("--query needs <GLOBAL> <LOC>")?;
                let l = args.next().ok_or("--query needs <GLOBAL> <LOC>")?;
                queries.push((g, l));
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs needs a number")?;
                jobs = n.parse::<usize>().map_err(|_| format!("bad jobs {n}"))?.max(1);
            }
            "--budget" => {
                let n = args.next().ok_or("--budget needs a number")?;
                config.budget = n.parse().map_err(|_| format!("bad budget {n}"))?;
            }
            "--representation" => {
                config.representation = match args.next().as_deref() {
                    Some("mixed") => Representation::Mixed,
                    Some("symbolic") => Representation::FullySymbolic,
                    Some("explicit") => Representation::FullyExplicit,
                    other => return Err(format!("bad representation {other:?}")),
                };
            }
            "--loops" => {
                config.loop_mode = match args.next().as_deref() {
                    Some("infer") => LoopMode::Infer,
                    Some("drop-all") => LoopMode::DropAll,
                    other => return Err(format!("bad loop mode {other:?}")),
                };
            }
            "--pta-stats" => pta_stats = true,
            "--report-out" => {
                report_out = Some(args.next().ok_or("--report-out needs a path")?);
            }
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--cache-dir" => {
                cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?);
            }
            "--cache" => {
                let m = args.next().ok_or("--cache needs <read-write|read>")?;
                cache_mode = m.parse()?;
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Mode::Analyze(Box::new(Options {
        path: path.ok_or("usage: thresher-cli <program.tir> [options]")?,
        dump_pta,
        queries,
        leaks,
        client_null,
        jobs,
        config,
        pta_stats,
        report_out,
        trace_out,
        cache_dir,
        cache_mode,
    })))
}

fn main() -> ExitCode {
    // Every report line goes through this one writer: a closed or failing
    // standard output ends the run with exit 74 instead of a panic.
    let mut out = io::stdout().lock();
    let opts = match parse_args() {
        Ok(Mode::Analyze(o)) => *o,
        Ok(Mode::DiffReports(a, b)) => {
            let diffs = match diff_reports(&a, &b) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(exit::NOINPUT);
                }
            };
            return match print_diffs(&mut out, &a, &b, &diffs) {
                Ok(()) if diffs.is_empty() => ExitCode::SUCCESS,
                Ok(()) => ExitCode::from(1),
                Err(e) => stdout_failed(&e),
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exit::USAGE);
        }
    };
    // Install the recorder before any analysis so the run span covers
    // everything. The recorder is deliberately static (obs install leaks).
    // --pta-stats also needs it: the solver counters only accumulate when
    // a recorder is installed.
    let recorder = if opts.report_out.is_some() || opts.trace_out.is_some() || opts.pta_stats {
        Some(MemRecorder::install_static(RingCapacity::default()))
    } else {
        None
    };
    let src = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::from(exit::NOINPUT);
        }
    };
    let program = match tir::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: parse error: {e}", opts.path);
            return ExitCode::from(exit::DATAERR);
        }
    };

    let code = {
        let _run = obs::span_with(SpanKind::Run, || opts.path.clone());
        analyze(&opts, &program, &mut out)
    };
    let code = match code {
        Ok(c) => c,
        Err(e) => return stdout_failed(&e),
    };

    if let Some(rec) = recorder {
        if opts.pta_stats {
            if let Err(e) = print_pta_stats(&mut out, rec) {
                return stdout_failed(&e);
            }
        }
        if let Err(e) = write_outputs(&opts, rec) {
            eprintln!("error: {e}");
            return ExitCode::from(exit::IOERR);
        }
    }
    if let Err(e) = out.flush() {
        return stdout_failed(&e);
    }
    code
}

/// Standard output failed (a reader that closed the pipe, a full disk).
fn stdout_failed(e: &io::Error) -> ExitCode {
    eprintln!("error: cannot write to standard output: {e}");
    ExitCode::from(exit::IOERR)
}

/// Prints the points-to solver counters accumulated in the obs registry.
fn print_pta_stats(out: &mut impl Write, rec: &MemRecorder) -> io::Result<()> {
    writeln!(out, "== pta stats ==")?;
    for (label, counter) in [
        ("nodes", Counter::PtaNodes),
        ("method instances", Counter::PtaInstances),
        ("propagations", Counter::PtaPropagations),
        ("deltas pushed", Counter::PtaDeltasPushed),
        ("sccs collapsed", Counter::PtaSccsCollapsed),
    ] {
        writeln!(out, "  {label}: {}", rec.counter(counter))?;
    }
    Ok(())
}

/// The whole analysis, separated out so the `Run` span closes (and is
/// recorded) before the trace/report files are written. Returns the exit
/// code, or the error that writing to `out` hit.
fn analyze(opts: &Options, program: &tir::Program, out: &mut impl Write) -> io::Result<ExitCode> {
    let mut thresher =
        Thresher::with_setup(program, thresher::PointsToPolicy::Insensitive, opts.config.clone())
            .with_jobs(opts.jobs);
    if let Some(dir) = &opts.cache_dir {
        thresher = match thresher.with_cache(std::path::Path::new(dir), opts.cache_mode) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot open cache {dir}: {e}");
                return Ok(ExitCode::from(exit::IOERR));
            }
        };
    }

    if opts.dump_pta {
        writeln!(out, "== points-to graph ==")?;
        write!(out, "{}", thresher.points_to().dump(program))?;
    }

    let mut outcome = exit::Outcome::new();
    for (g, l) in &opts.queries {
        let Some(global) = program.global_by_name(g) else {
            eprintln!("error: no global named {g}");
            return Ok(ExitCode::from(exit::USAGE));
        };
        let Some(target) = thresher.resolve_loc(l) else {
            eprintln!("error: no abstract location named {l}");
            return Ok(ExitCode::from(exit::USAGE));
        };
        let (answer, tally) = thresher.query_reachable_loc_tally(global, target);
        outcome.record_aborts(tally.edge_timeouts > 0);
        match answer {
            ReachabilityAnswer::Reachable { path, .. } => {
                outcome.record_findings(true);
                writeln!(out, "{g} ~> {l}: REACHABLE")?;
                for e in &path {
                    writeln!(out, "    {}", e.describe(program, thresher.points_to()))?;
                }
            }
            ReachabilityAnswer::Refuted { refuted_edges } => {
                writeln!(out, "{g} ~> {l}: REFUTED ({} edge(s) severed)", refuted_edges.len())?;
            }
        }
    }

    if opts.client_null {
        let report = thresher.check_null_derefs();
        write!(out, "{}", report.describe(program))?;
        outcome.record_findings(!report.is_null_safe());
        outcome.record_aborts(report.edge_timeouts > 0);
    }

    if opts.leaks {
        let report = thresher.check_activity_leaks();
        writeln!(
            out,
            "== activity leaks: {} alarm(s), {} refuted ==",
            report.num_alarms(),
            report.num_refuted()
        )?;
        for (alarm, result) in &report.alarms {
            let verdict = if result.is_refuted() { "filtered" } else { "LEAK" };
            writeln!(out, "  {verdict}: {}", program.global(alarm.field).name)?;
            outcome.record_findings(!result.is_refuted());
        }
        outcome.record_aborts(report.stats.edge_timeouts > 0);
    }

    Ok(ExitCode::from(outcome.code()))
}

fn write_outputs(opts: &Options, rec: &MemRecorder) -> Result<(), String> {
    if let Some(path) = &opts.report_out {
        let report = rec.run_report(&[("program", &opts.path), ("tool", "thresher-cli")]);
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report {path}: {e}"))?;
        eprintln!(
            "report: {} trace event(s) recorded, {} dropped, {} thread(s) -> {path}",
            rec.events().len(),
            rec.dropped_events(),
            rec.trace_threads(),
        );
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, rec.chrome_trace())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    Ok(())
}

/// Compares two run-report JSON files modulo timing-dependent data.
///
/// Excluded from the comparison: the `meta` object (paths/config strings),
/// any histogram whose name ends in `_ns` or `_us` (wall-clock
/// observations), `dropped_trace_events`, and `trace_threads` (both are
/// functions of trace volume and thread count, not of analysis results),
/// and `cache_*` counters (cold/warm cache effectiveness, never results —
/// the incremental gate compares cold and warm reports directly).
/// Everything else — every counter and every deterministic histogram — must
/// match exactly. Returns one line per difference (none when equivalent).
fn diff_reports(path_a: &str, path_b: &str) -> Result<Vec<String>, String> {
    let load = |path: &str| -> Result<Value, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&src).map_err(|e| format!("{path}: bad JSON: {e:?}"))
    };
    let a = load(path_a)?;
    let b = load(path_b)?;
    let mut diffs = Vec::new();
    let mut differ = |what: &str, va: String, vb: String| {
        diffs.push(format!("differs: {what}: {va} ({path_a}) vs {vb} ({path_b})"));
    };

    let schema_of = |v: &Value| v.get("schema").and_then(Value::as_str).unwrap_or("?").to_owned();
    if schema_of(&a) != schema_of(&b) {
        differ("schema", schema_of(&a), schema_of(&b));
    }

    // Counters: compare the union of keys so a missing counter is a
    // difference, not a silent skip.
    let obj_keys = |v: &Value, section: &str| -> Vec<String> {
        match v.get(section) {
            Some(Value::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    };
    let mut counter_keys = obj_keys(&a, "counters");
    for k in obj_keys(&b, "counters") {
        if !counter_keys.contains(&k) {
            counter_keys.push(k);
        }
    }
    for key in &counter_keys {
        if key.starts_with("cache_") {
            continue; // cache-effectiveness metric (cold vs warm): differs by design
        }
        let get = |v: &Value| {
            v.get("counters")
                .and_then(|c| c.get(key))
                .and_then(Value::as_u64)
                .map_or_else(|| "<missing>".to_owned(), |n| n.to_string())
        };
        let (va, vb) = (get(&a), get(&b));
        if va != vb {
            differ(&format!("counter {key}"), va, vb);
        }
    }

    let mut hist_keys = obj_keys(&a, "histograms");
    for k in obj_keys(&b, "histograms") {
        if !hist_keys.contains(&k) {
            hist_keys.push(k);
        }
    }
    for key in &hist_keys {
        if key.ends_with("_ns") || key.ends_with("_us") {
            continue; // wall-clock histogram: timing-dependent by design
        }
        let get = |v: &Value| {
            v.get("histograms")
                .and_then(|h| h.get(key))
                .map_or_else(|| "<missing>".to_owned(), Value::to_json)
        };
        let (va, vb) = (get(&a), get(&b));
        if va != vb {
            differ(&format!("histogram {key}"), va, vb);
        }
    }

    Ok(diffs)
}

/// Prints [`diff_reports`]' differences, or the equivalence line.
fn print_diffs(
    out: &mut impl Write,
    path_a: &str,
    path_b: &str,
    diffs: &[String],
) -> io::Result<()> {
    for d in diffs {
        writeln!(out, "{d}")?;
    }
    if diffs.is_empty() {
        writeln!(out, "reports are equivalent (modulo timing): {path_a} == {path_b}")?;
    }
    out.flush()
}
