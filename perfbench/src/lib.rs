//! # perfbench — the repository benchmark
//!
//! One command per workload generates the inputs from a seed, runs them
//! in a fresh process, checks every answer against ground truth, and
//! prints the end-to-end metrics ([`report::END_TO_END`]); a traced run of
//! the same workload prints the per-layer metrics ([`report::PER_LAYER`])
//! and writes its span ledger. See `README.md` for why each workload
//! exists and which metric each layer should move.
//!
//! | Workload | Module | Stresses |
//! |---|---|---|
//! | `leak-corpus` | [`leak`] | search, solver, degradation ladder |
//! | `null-scaled` | [`null`] | parse and points-to set-up, per-query overhead |
//! | `serve-edit` | [`serve`] | daemon, incremental points-to, decision store |

#![warn(missing_docs)]

pub mod leak;
pub mod ledger;
pub mod null;
pub mod report;
pub mod serve;
pub mod speed;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use obs::{Counter, Hist, MemRecorder};

use crate::ledger::Tracer;
use crate::report::Report;
use crate::speed::Speedometer;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["leak-corpus", "null-scaled", "serve-edit"];

/// Options of one measuring run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Input seed (inputs are a pure function of it).
    pub seed: u64,
    /// Measuring time: whole passes are repeated until their total
    /// reaches it (at least one pass).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Directory holding the generated inputs.
    pub inputs: PathBuf,
    /// Directory for run outputs (traced-run ledgers, daemon stores).
    pub out: PathBuf,
    /// The `thresher-serve` executable (serve-edit only).
    pub serve_bin: PathBuf,
}

/// A snapshot of the program's obs registry: every counter, and every
/// histogram's sum and count, so a traced run can take deltas around
/// each call.
#[derive(Clone, Debug)]
pub struct Counts {
    counters: Vec<u64>,
    hist_sums: Vec<u64>,
    hist_counts: Vec<u64>,
}

impl Counts {
    /// Reads the benchmark process's recorder.
    pub fn take(rec: &MemRecorder) -> Counts {
        let hists: Vec<_> = Hist::ALL.iter().map(|&h| rec.histogram(h)).collect();
        Counts {
            counters: Counter::ALL.iter().map(|&c| rec.counter(c)).collect(),
            hist_sums: hists.iter().map(|h| h.sum).collect(),
            hist_counts: hists.iter().map(|h| h.count).collect(),
        }
    }

    /// Reads a daemon's Prometheus exposition: `thresher_<counter>_total`
    /// samples and `thresher_<histogram>_sum` / `_count` samples.
    pub fn from_exposition(text: &str) -> Result<Counts, String> {
        let mut counts = Counts {
            counters: vec![0; Counter::COUNT],
            hist_sums: vec![0; Hist::COUNT],
            hist_counts: vec![0; Hist::COUNT],
        };
        for s in obs::prom::parse(text)? {
            let Some(name) = s.name.strip_prefix("thresher_") else { continue };
            let value = s.value as u64;
            if let Some(c) = name.strip_suffix("_total").and_then(Counter::from_name) {
                counts.counters[c.index()] = value;
            } else if let Some(h) = name.strip_suffix("_sum").and_then(Hist::from_name) {
                counts.hist_sums[h.index()] = value;
            } else if let Some(h) = name.strip_suffix("_count").and_then(Hist::from_name) {
                counts.hist_counts[h.index()] = value;
            }
        }
        Ok(counts)
    }

    /// Solver time recorded so far by `rec`, microseconds: read before
    /// and after one call to charge its solver time to the solver layer.
    pub fn solver_us(rec: &MemRecorder) -> f64 {
        rec.histogram(Hist::SolverNanos).sum as f64 / 1e3
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let minus = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect();
        Counts {
            counters: minus(&self.counters, &earlier.counters),
            hist_sums: minus(&self.hist_sums, &earlier.hist_sums),
            hist_counts: minus(&self.hist_counts, &earlier.hist_counts),
        }
    }

    /// Value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Mean observation of histogram `h`, or 0 without observations.
    pub fn mean(&self, h: Hist) -> f64 {
        let n = self.hist_counts[h.index()];
        if n == 0 {
            0.0
        } else {
            self.hist_sums[h.index()] as f64 / n as f64
        }
    }

    /// Contained engine faults: panics, wall-clock deadlines and solver
    /// failures, each caught and answered soundly instead of decided.
    pub fn faults(&self) -> u64 {
        self.get(Counter::AbortPanic)
            + self.get(Counter::AbortWallClock)
            + self.get(Counter::AbortSolverFailure)
    }

    /// Summed solver-call time, milliseconds.
    pub fn solver_ms(&self) -> f64 {
        self.hist_sums[Hist::SolverNanos.index()] as f64 / 1e6
    }
}

/// Sets the search, ladder and solver per-layer metrics of `passes`
/// traced passes from their registry delta `d` and the `edge_ms` spent in
/// edge-deciding calls (triages, site verdicts, daemon symex phases).
pub fn set_search_layers(report: &mut Report, d: &Counts, edge_ms: f64, passes: f64) {
    let per_pass = |c: Counter| d.get(c) as f64 / passes;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.set("symex.search_ms", (edge_ms - d.solver_ms()) / passes);
    report.set(
        "symex.edges",
        per_pass(Counter::EdgesRefuted)
            + per_pass(Counter::EdgesWitnessed)
            + per_pass(Counter::EdgesAborted),
    );
    report.set("symex.path_programs", per_pass(Counter::PathPrograms));
    report.set("symex.cmds_executed", per_pass(Counter::CmdsExecuted));
    report.set("symex.subsumed", per_pass(Counter::Subsumed));
    report.set("symex.loop_fixpoints", per_pass(Counter::LoopFixpoints));
    let path_programs = d.get(Counter::PathPrograms);
    report.set(
        "symex.us_per_path_program",
        if path_programs == 0 { 0.0 } else { edge_ms * 1e3 / path_programs as f64 },
    );
    report.set("symex.fork_budget_aborts", per_pass(Counter::AbortForkBudget));
    report.set("symex.ladder_retries", per_pass(Counter::DegradedRetries));
    report.set(
        "symex.ladder_rescue_ratio",
        ratio(d.get(Counter::DegradedDecisions), d.get(Counter::DegradedRetries)),
    );
    report.set("solver.calls", per_pass(Counter::SolverCalls));
    report.set("solver.ms", d.solver_ms() / passes);
    report.set("solver.sat_frac", ratio(d.get(Counter::SolverSat), d.get(Counter::SolverCalls)));
}

/// One pass of an in-process client workload.
#[derive(Default)]
pub struct Pass<A> {
    /// What the pass decided: every pass of a run must decide the same.
    pub answers: A,
    /// Wall time of each verdict, nanoseconds.
    pub verdict_ns: Vec<u64>,
    /// Verdicts asked for.
    pub attempted: u64,
    /// Verdicts that failed: contained faults (panics, deadlines, solver
    /// failures; their sound answer stands) and wrong answers.
    pub failed: u64,
    /// The wrong answers, described.
    pub wrong: Vec<String>,
}

/// An in-process client workload (`leak-corpus`, `null-scaled`), driven by
/// [`run_client`].
pub trait Client {
    /// The analyzed input a pass runs on.
    type Input;
    /// What a pass decides.
    type Answers: PartialEq + std::fmt::Debug;
    /// Name of the benchmark span around each verdict call.
    const VERDICT_SPAN: &'static str;

    /// Reads, parses and analyzes the input — the workload's set-up —
    /// with `tir::parse`, `pta::analyze_with` and `ModRef::compute` each
    /// in a span of that name.
    fn set_up(&self, tracer: &mut Tracer) -> Result<Self::Input, String>;

    /// Commands in the parsed input.
    fn cmds(input: &Self::Input) -> usize;

    /// One pass over `input`, its root span of layer [`ledger::UNATTRIBUTED`]
    /// and each verdict in a [`Client::VERDICT_SPAN`] span, `speed` ticked
    /// before each. `rec` is the installed recorder of a traced pass;
    /// solver time read from it is charged to the solver layer.
    fn pass(
        &self,
        input: &Self::Input,
        tracer: &mut Tracer,
        speed: &mut Speedometer,
        rec: Option<&MemRecorder>,
    ) -> Pass<Self::Answers>;

    /// Sets the client layer's per-layer metrics of `passes` traced passes.
    fn set_client_layers(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        first: &Self::Answers,
        passes: f64,
    );
}

/// Before every untraced pass the set-up is repeated until this long has
/// gone by (at least once; leak-corpus sets up in milliseconds).
/// `setup_s` is the median of all repetitions, which thereby spread over
/// the whole run instead of sampling one stretch of machine noise.
const SETUP_SECONDS_PER_PASS: f64 = 0.25;

/// Runs an in-process client workload: untraced passes for
/// `opts.seconds` (half of it when traced), each after
/// [`SETUP_SECONDS_PER_PASS`] of repeated set-ups; then, when traced, one
/// traced set-up and traced passes for the other half. Counts every
/// pass's operations into `report`, checks that all passes decided alike
/// and sets the end-to-end metrics other than the two fractions, or the
/// per-layer metrics when traced. End-to-end times are taken to the
/// reference host speed ([`speed`]): each block of set-ups and each pass
/// is an interval of one [`Speedometer`]. Returns what the first pass
/// decided, for the workload's ground-truth checks.
pub fn run_client<C: Client>(
    opts: &RunOpts,
    workload: &str,
    client: &C,
    report: &mut Report,
) -> Result<C::Answers, String> {
    let budget = if opts.traced { opts.seconds / 2.0 } else { opts.seconds };
    let mut speed = Speedometer::new();
    let mut setup_s = Vec::new();
    let mut untraced = Vec::new();
    let mut raw_pass_s = Vec::new();
    let mut input = None;
    let mut peak_rss_mb = None;
    while untraced.is_empty() || raw_pass_s.iter().sum::<f64>() < budget {
        let start = Instant::now();
        let mark = speed.start();
        let mut block = Vec::new();
        loop {
            drop(input.take()); // release the previous set-up first
            speed.tick();
            let t0 = Instant::now();
            input = Some(client.set_up(&mut Tracer::off())?);
            block.push(t0.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_SECONDS_PER_PASS {
                break;
            }
        }
        let scale = speed.finish(mark).scale;
        setup_s.extend(block.iter().map(|s| s * scale));
        let input = input.as_ref().expect("set up");
        let mark = speed.start();
        let mut pass = client.pass(input, &mut Tracer::off(), &mut speed, None);
        let interval = speed.finish(mark);
        pass.verdict_ns.iter_mut().for_each(|ns| *ns = interval.scale_ns(*ns));
        raw_pass_s.push(interval.wall_s);
        untraced.push((pass, interval.secs()));
        // The peak of one set-up and pass. Later repetitions re-use that
        // memory, but how the allocator fragments over dozens of them
        // moved the final VmHWM of null-scaled by up to 15 %.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(report::peak_rss_mb("self").ok_or("cannot read VmHWM")?);
        }
    }
    let input = input.expect("at least one set-up");
    let pass_times: Vec<f64> = untraced.iter().map(|(_, s)| *s).collect();
    let untraced_pass_s = stats::median(&pass_times);

    let mut traced = Vec::new();
    if opts.traced {
        let rec: &'static MemRecorder =
            Box::leak(Box::new(MemRecorder::coarse(obs::RingCapacity::default())));
        obs::install(rec);
        let mut tracer = Tracer::new();
        let c0 = Counts::take(rec);
        let traced_input = client.set_up(&mut tracer)?;
        let d = Counts::take(rec).since(&c0);
        report.set("tir.parse_ms", tracer.named_us("tir::parse") / 1e3);
        report.set("tir.cmds", C::cmds(&traced_input) as f64);
        report.set("pta.solve_ms", tracer.named_us("pta::analyze_with") / 1e3);
        report.set("pta.modref_ms", tracer.named_us("ModRef::compute") / 1e3);
        report.set("pta.propagations", d.get(Counter::PtaPropagations) as f64);
        report.set("pta.nodes", d.get(Counter::PtaNodes) as f64);
        drop(traced_input);

        let mut tracer = Tracer::new();
        let mut speed = Speedometer::at_bounds();
        let mut traced_pass_s = Vec::new();
        let c0 = Counts::take(rec);
        traced = repeat_passes(budget, || {
            let mark = speed.start();
            let pass = client.pass(&input, &mut tracer, &mut speed, Some(rec));
            let interval = speed.finish(mark);
            traced_pass_s.push(interval.secs());
            (pass, interval.wall_s)
        });
        let d = Counts::take(rec).since(&c0);
        obs::uninstall();
        let n = traced.len() as f64;
        client.set_client_layers(report, &tracer, &traced[0].0.answers, n);
        set_search_layers(report, &d, tracer.named_us(C::VERDICT_SPAN) / 1e3, n);
        let overhead = stats::median(&traced_pass_s) / untraced_pass_s - 1.0;
        let ledger = set_ledger(report, &tracer, n, overhead);
        write_trace(opts, workload, &tracer, &ledger, n)?;
    }

    let mut passes = untraced.iter().chain(&traced).map(|(p, _)| p);
    let first = passes.next().expect("at least one pass");
    for p in std::iter::once(first).chain(passes) {
        report.attempted += p.attempted;
        report.failed += p.failed;
        report.check_failures.extend(p.wrong.iter().cloned());
        report.check(p.answers == first.answers, || {
            format!("passes disagree: {:?} vs {:?}", p.answers, first.answers)
        });
    }
    let reps: Vec<Vec<u64>> = untraced.iter().map(|(p, _)| p.verdict_ns.clone()).collect();
    let verdicts = stats::per_operation_medians(&reps);
    report.set("setup_s", stats::median(&setup_s));
    report.set("pass_s", untraced_pass_s);
    report.passes_s = pass_times;
    report.raw_passes_s = raw_pass_s;
    report.probes_ns = speed.samples().to_vec();
    report.set_percentile("verdict_ms_p50", &verdicts, 0.5);
    report.set_percentile("verdict_ms_p90", &verdicts, 0.9);
    report.set("peak_rss_mb", peak_rss_mb.expect("at least one pass"));
    report.peaks_mb = peak_rss_mb.into_iter().collect();
    let (first, _) = untraced.swap_remove(0);
    Ok(first.answers)
}

/// Ticks `speed`, then times one verdict call inside a
/// [`Client::VERDICT_SPAN`]-style span, appending its wall time to
/// `verdict_ns` and charging the solver time `rec` saw during it to the
/// solver layer.
pub fn timed_verdict<R>(
    tracer: &mut Tracer,
    span_name: &str,
    speed: &mut Speedometer,
    rec: Option<&MemRecorder>,
    verdict_ns: &mut Vec<u64>,
    call: impl FnOnce() -> R,
) -> R {
    speed.tick();
    let solver0 = rec.map(Counts::solver_us);
    let span = tracer.enter("symex", span_name);
    let t = Instant::now();
    let r = call();
    verdict_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    tracer.exit(span);
    if let (Some(rec), Some(us)) = (rec, solver0) {
        tracer.attribute(span, "solver", Counts::solver_us(rec) - us);
    }
    r
}

/// Sets the ledger metrics of a traced run: the unattributed share of the
/// traced pass time, and `overhead`, the traced pass time over the
/// untraced one minus 1 (both at the reference host speed). Returns the
/// ledger (layer → self ms per pass) for the trace file.
pub fn set_ledger(
    report: &mut Report,
    tracer: &ledger::Tracer,
    passes: f64,
    overhead: f64,
) -> Vec<(String, f64)> {
    let pass_ms = tracer.root_us(ledger::UNATTRIBUTED) / 1e3 / passes;
    let rows: Vec<(String, f64)> = tracer
        .self_times_us()
        .into_iter()
        .map(|(layer, us)| (layer.to_owned(), us / 1e3 / passes))
        .collect();
    let unattributed =
        rows.iter().find(|(l, _)| l == ledger::UNATTRIBUTED).map_or(0.0, |(_, ms)| *ms);
    report.set("obs.unattributed_frac", unattributed / pass_ms);
    report.set("obs.trace_overhead_frac", overhead);
    rows
}

/// Writes a traced run's output — ledger rows, per-pass time and the
/// spans as Chrome trace events — to `<out>/trace-<workload>.json`.
pub fn write_trace(
    opts: &RunOpts,
    workload: &str,
    tracer: &ledger::Tracer,
    ledger: &[(String, f64)],
    passes: f64,
) -> Result<PathBuf, String> {
    use obs::json::Value;
    let pass_ms = tracer.root_us(ledger::UNATTRIBUTED) / 1e3 / passes;
    let rows = ledger.iter().map(|(l, ms)| (l.clone(), Value::Float(*ms))).collect();
    let doc = Value::Obj(vec![
        ("workload".to_owned(), Value::str(workload)),
        ("seed".to_owned(), Value::uint(opts.seed)),
        ("traced_passes".to_owned(), Value::Float(passes)),
        ("pass_ms".to_owned(), Value::Float(pass_ms)),
        ("self_ms_per_pass".to_owned(), Value::Obj(rows)),
        ("traceEvents".to_owned(), tracer.to_value()),
    ]);
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = opts.out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut minicheck::Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Repeats `pass` until the measured passes add up to `seconds` (at
/// least one pass), returning each pass's result and wall time.
pub fn repeat_passes<P>(seconds: f64, mut pass: impl FnMut() -> (P, f64)) -> Vec<(P, f64)> {
    let mut out = Vec::new();
    let mut total = 0.0;
    while out.is_empty() || total < seconds {
        let (p, secs) = pass();
        total += secs;
        out.push((p, secs));
    }
    out
}
