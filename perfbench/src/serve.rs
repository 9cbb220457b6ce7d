//! `serve-edit`: `thresher-serve` at its defaults — decision-store byte cap
//! included — with a fresh `--cache-dir`, except the per-client token
//! bucket (`--rate`/`--burst`, a deployment setting), raised so the one
//! closed-loop client is never shed. All seven corpus programs are
//! resident. A seeded stream round-robins over the programs; each step
//! removes one statement, asks `query_edge` about an alarm of that
//! program, restores the statement and asks again. A run sets up
//! [`DAEMONS`] daemons one after another and sends each the stream once.
//!
//! It is the only workload with writes (incremental points-to edits and
//! fingerprint refresh) beside reads served through the persistent
//! decision store. Every read is checked against a fresh in-process
//! [`Thresher`] query on the same program text, computed once per
//! distinct program state while the inputs are generated.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use obs::json::Value;
use obs::{Counter, Hist};
use thresher::Thresher;

use crate::ledger::{Tracer, UNATTRIBUTED};
use crate::report::Report;
use crate::speed::{Interval, Speedometer};
use crate::stats::percentile;
use crate::{Counts, RunOpts};

/// The resident programs, each loaded from `corpus/<name>.tir`.
pub const PROGRAMS: [&str; 7] = crate::leak::APPS;
/// Stream steps per program (each step is two edits and two reads): 112
/// reads and 112 edits per pass, enough for a p90 over the requests.
pub const STEPS_PER_PROGRAM: usize = 8;
/// Daemons per run, each set up and then sent the stream once. Set-up
/// time and pass time are medians over them, peak RSS their mean, and
/// each request's latency is its median over them.
const DAEMONS: usize = 3;
const STREAM_FILE: &str = "serve-edit.ndjson";

/// One step of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Resident program name.
    pub program: String,
    /// Method holding the removed statement.
    pub method: String,
    /// Command ordinal of the removed statement.
    pub at: usize,
    /// The statement's text, re-added to restore it.
    pub text: String,
    /// Alarm source (static field).
    pub global: String,
    /// Alarm sink (Activity abstract location).
    pub loc: String,
    /// Oracle answer with the statement removed.
    pub removed_reachable: bool,
    /// Oracle answer after the statement is restored.
    pub restored_reachable: bool,
}

impl Step {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("program".to_owned(), Value::str(self.program.clone())),
            ("method".to_owned(), Value::str(self.method.clone())),
            ("at".to_owned(), Value::uint(self.at as u64)),
            ("text".to_owned(), Value::str(self.text.clone())),
            ("global".to_owned(), Value::str(self.global.clone())),
            ("loc".to_owned(), Value::str(self.loc.clone())),
            ("removed_reachable".to_owned(), Value::Bool(self.removed_reachable)),
            ("restored_reachable".to_owned(), Value::Bool(self.restored_reachable)),
        ])
    }

    fn from_value(v: &Value) -> Option<Step> {
        let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
        let b = |k: &str| match v.get(k) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        Some(Step {
            program: s("program")?,
            method: s("method")?,
            at: v.get("at").and_then(Value::as_u64)? as usize,
            text: s("text")?,
            global: s("global")?,
            loc: s("loc")?,
            removed_reachable: b("removed_reachable")?,
            restored_reachable: b("restored_reachable")?,
        })
    }

    fn remove_op(&self) -> Value {
        Value::Obj(vec![
            ("op".to_owned(), Value::str("remove_stmt")),
            ("method".to_owned(), Value::str(self.method.clone())),
            ("at".to_owned(), Value::uint(self.at as u64)),
        ])
    }

    fn restore_op(&self) -> Value {
        Value::Obj(vec![
            ("op".to_owned(), Value::str("add_stmt")),
            ("method".to_owned(), Value::str(self.method.clone())),
            ("at".to_owned(), Value::uint(self.at as u64)),
            ("text".to_owned(), Value::str(self.text.clone())),
        ])
    }
}

/// Statements that can be removed and re-added from their printed text
/// (allocation statements excluded: a removed site's name stays
/// reserved), as `(method, ordinal, text)` in program order.
fn edit_candidates(program: &tir::Program) -> Vec<(String, usize, String)> {
    let mut methods: Vec<tir::MethodId> =
        program.methods_by_name().values().flatten().copied().collect();
    methods.sort_by_key(|m| m.index());
    let mut out = Vec::new();
    for m in methods {
        let name = program.method_name(m);
        for (at, &cid) in program.method_cmds(m).iter().enumerate() {
            let text = format!("{};", tir::print_cmd(program, program.cmd(cid)));
            if text.contains('@') {
                continue;
            }
            let mut probe = program.clone();
            let remove = tir::EditOp::RemoveStmt { method: name.clone(), at };
            let add = tir::EditOp::AddStmt { method: name.clone(), at, text: text.clone() };
            if tir::apply_edits(&mut probe, &[remove]).is_ok()
                && tir::apply_edits(&mut probe, &[add]).is_ok()
            {
                out.push((name.clone(), at, text));
            }
        }
    }
    out
}

/// The program text after removing `method`'s `at`-th statement.
fn removed_text(program: &tir::Program, method: &str, at: usize) -> Result<String, String> {
    let mut edited = program.clone();
    tir::apply_edits(&mut edited, &[tir::EditOp::RemoveStmt { method: method.to_owned(), at }])
        .map_err(|e| e.to_string())?;
    Ok(tir::print_program(&edited))
}

/// Oracle: fresh parse, points-to and query of `(global, loc)` on `text`.
/// `None` when the names do not resolve in that program state.
fn oracle(text: &str, global: &str, loc: &str) -> Option<bool> {
    let program = tir::parse(text).ok()?;
    let t = Thresher::new(&program);
    Some(t.try_query_reachable(global, loc)?.is_reachable())
}

/// Seed of the fixed step set (statements and alarms). Read costs range
/// from microseconds to seconds with the alarm, with what the removed
/// statement invalidates, and with what the per-program store's byte
/// cap has kept from earlier requests to that program. A step set or a
/// per-program order drawn per run seed would make the pass time and the
/// latency percentiles a property of the draw; so every run seed sends
/// each program the same requests in the same order, and the seed only
/// interleaves the programs (the stores are per program, so the
/// interleaving changes no request's work).
const STEP_SET_SEED: u64 = 0;

/// Generates the stream over the corpus programs, with oracle answers:
/// `steps_per_program` steps per program, round-robin over the programs
/// in an order drawn from `seed`. Deterministic in its arguments.
pub fn generate(corpus: &Path, seed: u64, steps_per_program: usize) -> Result<Vec<Step>, String> {
    let mut pick = minicheck::Rng::new(STEP_SET_SEED);
    let mut per_program = Vec::new();
    for name in PROGRAMS {
        let path = corpus.join(format!("{name}.tir"));
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let program = tir::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = tir::print_program(&program);
        let t = Thresher::new(&program);
        let client = android::LeakClient::new(
            &program,
            t.points_to(),
            t.modref(),
            symex::SymexConfig::default(),
        );
        let alarms: Vec<(String, String)> = client
            .find_alarms()
            .into_iter()
            .map(|a| {
                (program.global(a.field).name.clone(), t.points_to().loc_name(&program, a.activity))
            })
            .collect();
        let candidates = edit_candidates(&program);
        let mut steps = Vec::new();
        for k in 0..steps_per_program {
            // Alarms evenly spaced through the alarm list.
            let (global, loc) = alarms[k * alarms.len() / steps_per_program].clone();
            // A removal may drop the alarm's sink from the points-to graph;
            // draw again until both names still resolve, so no request of
            // the stream can fail by construction.
            let (method, at, stmt, removed) = loop {
                let (method, at, stmt) = candidates[pick.below(candidates.len())].clone();
                let removed = removed_text(&program, &method, at)?;
                let edited = tir::parse(&removed).map_err(|e| e.to_string())?;
                if edited.global_by_name(&global).is_some()
                    && Thresher::new(&edited).resolve_loc(&loc).is_some()
                {
                    break (method, at, stmt, removed);
                }
            };
            let step = Step {
                program: name.to_owned(),
                method,
                at,
                text: stmt,
                global,
                loc,
                removed_reachable: false,
                restored_reachable: false,
            };
            steps.push((text.clone(), removed, step));
        }
        per_program.push(steps);
    }
    let mut programs: Vec<usize> = (0..PROGRAMS.len()).collect();
    crate::shuffle(&mut minicheck::Rng::new(seed), &mut programs);
    let mut stream: Vec<_> = (0..steps_per_program)
        .flat_map(|k| programs.iter().map(move |&p| (p, k)))
        .map(|(p, k)| per_program[p][k].clone())
        .collect();
    answer(&mut stream)?;
    Ok(stream.into_iter().map(|(_, _, s)| s).collect())
}

/// Fills in the oracle answers, one query per distinct (program state,
/// alarm), spread over two threads.
fn answer(stream: &mut [(String, String, Step)]) -> Result<(), String> {
    let mut jobs: Vec<(String, String, String)> = Vec::new();
    for (original, removed, s) in stream.iter() {
        for text in [removed, original] {
            let job = (text.clone(), s.global.clone(), s.loc.clone());
            if !jobs.contains(&job) {
                jobs.push(job);
            }
        }
    }
    let (even, odd): (Vec<_>, Vec<_>) = jobs.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let run = |part: Vec<(usize, &(String, String, String))>| {
        part.into_iter()
            .map(|(_, (t, g, l))| ((t.clone(), g.clone(), l.clone()), oracle(t, g, l)))
            .collect::<Vec<_>>()
    };
    let answers: HashMap<(String, String, String), Option<bool>> = std::thread::scope(|s| {
        let a = s.spawn(|| run(even));
        let b = run(odd);
        let mut all = a.join().expect("oracle thread");
        all.extend(b);
        all.into_iter().collect()
    });
    for (original, removed, s) in stream.iter_mut() {
        let get = |text: &String| {
            answers[&(text.clone(), s.global.clone(), s.loc.clone())]
                .ok_or_else(|| format!("{}: {} ~> {} does not resolve", s.program, s.global, s.loc))
        };
        s.removed_reachable = get(removed)?;
        s.restored_reachable = get(original)?;
    }
    Ok(())
}

/// Writes the generated stream into `dir`.
pub fn write_inputs(dir: &Path, seed: u64, steps_per_program: usize) -> Result<(), String> {
    let stream = generate(Path::new("corpus"), seed, steps_per_program)?;
    let mut text = String::new();
    for s in &stream {
        text.push_str(&s.to_value().to_json());
        text.push('\n');
    }
    std::fs::write(dir.join(STREAM_FILE), text).map_err(|e| e.to_string())
}

fn read_stream(dir: &Path) -> Result<Vec<Step>, String> {
    let path = dir.join(STREAM_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            obs::json::parse(l)
                .ok()
                .as_ref()
                .and_then(Step::from_value)
                .ok_or_else(|| format!("{}: bad step {l}", path.display()))
        })
        .collect()
}

/// A running daemon driven over stdio by one closed-loop client.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
}

impl Daemon {
    fn spawn(bin: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let mut child = Command::new(bin)
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(["--rate", "1000000", "--burst", "1000000"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Daemon { child, stdin, stdout, next_id: 0 })
    }

    /// One request round trip: the response object and its time in ns.
    fn call(&mut self, method: &str, params: Value) -> Result<(Value, u64), String> {
        self.next_id += 1;
        let line = Value::Obj(vec![
            ("id".to_owned(), Value::uint(self.next_id)),
            ("method".to_owned(), Value::str(method)),
            ("params".to_owned(), params),
        ])
        .to_json();
        let t0 = Instant::now();
        let stdin = self.stdin.as_mut().expect("daemon stdin open");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon write: {e}"))?;
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).map_err(|e| format!("daemon read: {e}"))?;
        let rtt_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if resp.is_empty() {
            return Err(format!("daemon exited during {method}"));
        }
        let v = obs::json::parse(resp.trim_end()).map_err(|e| format!("daemon response: {e}"))?;
        if v.get("id").and_then(Value::as_u64) != Some(self.next_id) {
            return Err(format!("out-of-order response to {method}: {resp}"));
        }
        Ok((v, rtt_ns))
    }

    /// The daemon's counters, via its `metrics` exposition.
    fn counts(&mut self) -> Result<Counts, String> {
        let (v, _) = self.call("metrics", Value::Obj(vec![]))?;
        let text = v.get("ok").and_then(|o| o.get("exposition")).and_then(Value::as_str);
        Counts::from_exposition(text.ok_or("metrics response without exposition")?)
    }

    /// Closes stdin (the daemon drains and exits) and waits for it.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("thresher-serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `cost` block of an `ok` response; times in microseconds.
#[derive(Clone, Debug, Default)]
struct Cost {
    wall_us: f64,
    parse_us: f64,
    pta_us: f64,
    edit_us: f64,
    symex_us: f64,
    cache_us: f64,
    solver_us: f64,
    cache_hits: u64,
    cache_lookups: u64,
    edges_decided: u64,
    edges: u64,
}

impl Cost {
    fn from_response(v: &Value) -> Option<Cost> {
        let c = v.get("ok")?.get("cost")?;
        let n = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
        let phase = |k: &str| {
            c.get("phases").and_then(|p| p.get(k)).and_then(Value::as_u64).unwrap_or(0) as f64
        };
        let decided = n("edges_refuted") + n("edges_witnessed");
        Some(Cost {
            wall_us: n("wall_us") as f64,
            parse_us: phase("parse_us"),
            pta_us: phase("pta_us"),
            edit_us: phase("edit_us"),
            symex_us: phase("symex_us"),
            cache_us: phase("cache_us"),
            solver_us: n("solver_ns") as f64 / 1e3,
            cache_hits: n("cache_hits"),
            cache_lookups: n("cache_hits") + n("cache_misses") + n("cache_invalidated"),
            edges_decided: decided,
            edges: decided + n("edges_aborted"),
        })
    }
}

/// One request of a pass; one that failed has no `cost` and no answer.
struct Sample {
    edit: bool,
    rtt_ns: u64,
    /// The request's span in the pass's tracer.
    span: usize,
    cost: Option<Cost>,
    edit_propagations: u64,
    refuted: Option<bool>,
}

struct Ready {
    daemon: Daemon,
    /// Set-up time at the reference host speed, seconds.
    secs: f64,
    /// Summed load cost (parse and points-to phases), for the ledger.
    load: Cost,
    /// The daemon's counters once set up.
    counts: Counts,
}

/// Spawns a daemon, loads every program and analyzes each once, then
/// reads the daemon's counters (after the timed set-up) and counts its
/// contained faults as failed operations. `speed` is ticked between
/// requests and watches the daemon from then on.
fn set_up(
    opts: &RunOpts,
    cache_dir: &Path,
    speed: &mut Speedometer,
    report: &mut Report,
) -> Result<Ready, String> {
    let mark = speed.start();
    let mut daemon = Daemon::spawn(&opts.serve_bin, cache_dir)?;
    speed.watch(Some(daemon.child.id()));
    let mut load = Cost::default();
    for name in PROGRAMS {
        let params = Value::Obj(vec![
            ("name".to_owned(), Value::str(name)),
            ("path".to_owned(), Value::str(format!("corpus/{name}.tir"))),
        ]);
        speed.tick();
        let (v, _) = daemon.call("load_program", params)?;
        report.attempted += 1;
        match Cost::from_response(&v) {
            Some(c) => {
                load.parse_us += c.parse_us;
                load.pta_us += c.pta_us;
            }
            None => report.failed += 1,
        }
    }
    for name in PROGRAMS {
        speed.tick();
        let (v, _) =
            daemon.call("analyze", Value::Obj(vec![("program".to_owned(), Value::str(name))]))?;
        report.attempted += 1;
        report.failed += u64::from(v.get("ok").is_none());
    }
    let secs = speed.finish(mark).secs();
    let counts = daemon.counts()?;
    report.failed += counts.faults();
    Ok(Ready { daemon, secs, load, counts })
}

fn program_param(name: &str) -> (String, Value) {
    ("program".to_owned(), Value::str(name))
}

/// Drives the stream through `daemon`, one request at a time, ticking
/// `speed` before each. Returns every request, in stream order, and the
/// pass's interval.
fn pass(
    daemon: &mut Daemon,
    stream: &[Step],
    tracer: &mut Tracer,
    speed: &mut Speedometer,
    report: &mut Report,
) -> Result<(Vec<Sample>, Interval), String> {
    let mark = speed.start();
    let root = tracer.enter(UNATTRIBUTED, "serve-edit pass");
    let mut samples = Vec::new();
    for step in stream {
        let query = Value::Obj(vec![
            program_param(&step.program),
            ("global".to_owned(), Value::str(step.global.clone())),
            ("loc".to_owned(), Value::str(step.loc.clone())),
        ]);
        let requests = [
            (
                "edit",
                Value::Obj(vec![
                    program_param(&step.program),
                    ("edits".to_owned(), Value::Arr(vec![step.remove_op()])),
                ]),
                None,
            ),
            ("query_edge", query.clone(), Some(step.removed_reachable)),
            (
                "edit",
                Value::Obj(vec![
                    program_param(&step.program),
                    ("edits".to_owned(), Value::Arr(vec![step.restore_op()])),
                ]),
                None,
            ),
            ("query_edge", query, Some(step.restored_reachable)),
        ];
        for (method, params, expected) in requests {
            speed.tick();
            let span = tracer.enter("serve.transport", format!("{method} {}", step.program));
            let (v, rtt_ns) = daemon.call(method, params)?;
            tracer.exit(span);
            report.attempted += 1;
            let Some(ok) = v.get("ok") else {
                report.failed += 1;
                let edit = expected.is_none();
                let (cost, edit_propagations, refuted) = (None, 0, None);
                samples.push(Sample { edit, rtt_ns, span, cost, edit_propagations, refuted });
                continue;
            };
            let cost = Cost::from_response(&v);
            if let Some(c) = &cost {
                let phases = c.parse_us + c.pta_us + c.edit_us + c.symex_us + c.cache_us;
                for (layer, us) in [
                    ("serve.daemon", c.wall_us - phases),
                    ("tir", c.parse_us),
                    ("pta", c.pta_us),
                    ("pta.edit", c.edit_us),
                    ("symex", c.symex_us - c.solver_us),
                    ("solver", c.solver_us),
                    ("persist", c.cache_us),
                ] {
                    tracer.attribute(span, layer, us);
                }
            }
            let refuted = match (expected, ok.get("reachable")) {
                (Some(want), Some(Value::Bool(got))) => {
                    if *got != want {
                        report.failed += 1;
                        report.check_failures.push(format!(
                            "{}: {} ~> {} answered reachable={got}, oracle {want}",
                            step.program, step.global, step.loc
                        ));
                    }
                    Some(!got)
                }
                (Some(_), _) => {
                    report.failed += 1;
                    None
                }
                (None, _) => None,
            };
            samples.push(Sample {
                edit: expected.is_none(),
                rtt_ns,
                span,
                cost,
                edit_propagations: ok.get("propagations").and_then(Value::as_u64).unwrap_or(0),
                refuted,
            });
        }
    }
    tracer.exit(root);
    Ok((samples, speed.finish(mark)))
}

/// `(refuted reads, reads, decided edges, edges)` of a pass.
fn answers(samples: &[Sample]) -> (usize, usize, u64, u64) {
    let reads: Vec<&Sample> = samples.iter().filter(|s| !s.edit).collect();
    let refuted = reads.iter().filter(|s| s.refuted == Some(true)).count();
    let decided = reads.iter().filter_map(|s| s.cost.as_ref()).map(|c| c.edges_decided).sum();
    let edges = reads.iter().filter_map(|s| s.cost.as_ref()).map(|c| c.edges).sum();
    (refuted, reads.len(), decided, edges)
}

/// Runs `serve-edit` against the daemon binary in `opts.serve_bin`.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let stream = read_stream(&opts.inputs)?;
    let mut report = Report::default();
    let cache_root = opts.out.join(format!("serve-cache-{}", std::process::id()));
    let result = run_in(opts, &stream, &cache_root, &mut report);
    let _ = std::fs::remove_dir_all(&cache_root);
    result.map(|()| report)
}

fn run_in(
    opts: &RunOpts,
    stream: &[Step],
    cache_root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let cache_dir = |i: usize| -> PathBuf { cache_root.join(i.to_string()) };
    let (mut setup_s, mut pass_s, mut peak_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut wall_pass_s = Vec::new();
    let mut samples = Vec::new();
    // Per daemon, the round trips of its reads and of its edits in stream
    // order.
    let (mut reads, mut edits): (Vec<Vec<u64>>, Vec<Vec<u64>>) = (Vec::new(), Vec::new());
    let mut speed = Speedometer::new();
    for i in 0..DAEMONS {
        let mut r = set_up(opts, &cache_dir(i), &mut speed, report)?;
        let (mut pass_samples, interval) =
            pass(&mut r.daemon, stream, &mut Tracer::off(), &mut speed, report)?;
        pass_samples.iter_mut().for_each(|s| s.rtt_ns = interval.scale_ns(s.rtt_ns));
        report.failed += r.daemon.counts()?.since(&r.counts).faults();
        let peak = crate::report::peak_rss_mb(&r.daemon.child.id().to_string())
            .ok_or("cannot read daemon VmHWM")?;
        r.daemon.finish()?;
        speed.watch(None);
        setup_s.push(r.secs);
        pass_s.push(interval.secs());
        wall_pass_s.push(interval.wall_s);
        peak_mb.push(peak);
        let rtts =
            |edit: bool| pass_samples.iter().filter(|s| s.edit == edit).map(|s| s.rtt_ns).collect();
        reads.push(rtts(false));
        edits.push(rtts(true));
        samples.extend(pass_samples);
    }
    let untraced_pass_s = crate::stats::median(&pass_s);

    if opts.traced {
        let mut speed = Speedometer::at_bounds();
        let mut t = set_up(opts, &cache_dir(DAEMONS), &mut speed, report)?;
        let mut tracer = Tracer::new();
        let (traced, interval) = pass(&mut t.daemon, stream, &mut tracer, &mut speed, report)?;
        let c1 = t.daemon.counts()?;
        let (health, _) = t.daemon.call("health", Value::Obj(vec![]))?;
        t.daemon.finish()?;
        let d = c1.since(&t.counts);
        report.failed += d.faults();
        // Each request waited in the daemon's queue before its cost block's
        // wall clock started; the exposition has the waits in µs (the cost
        // block only in whole ms), so each request is charged the mean.
        let queue_wait_us = d.mean(Hist::QueueWaitMicros);
        for s in &traced {
            tracer.attribute(s.span, "serve.queue_wait", queue_wait_us);
        }
        let cmds = program_cmds(Path::new("corpus"))?;
        set_serve_layers(
            report,
            &t.load,
            &t.counts,
            cmds,
            &d,
            &c1,
            &traced,
            &health,
            queue_wait_us,
        );
        let edits = crate::stats::per_operation_medians(&edits);
        report.set_percentile("serve.edit_ms_p50", &edits, 0.5);
        report.set_percentile("serve.edit_ms_p90", &edits, 0.9);
        let overhead = interval.secs() / untraced_pass_s - 1.0;
        let ledger = crate::set_ledger(report, &tracer, 1.0, overhead);
        crate::write_trace(opts, "serve-edit", &tracer, &ledger, 1.0)?;
    }

    let reads = crate::stats::per_operation_medians(&reads);
    let (refuted, n_reads, decided, edges) = answers(&samples);
    report.set("setup_s", crate::stats::median(&setup_s));
    report.set("pass_s", untraced_pass_s);
    report.passes_s = pass_s;
    report.raw_passes_s = wall_pass_s;
    report.probes_ns = speed.samples().to_vec();
    report.probes_voided = speed.voided();
    report.set_percentile("verdict_ms_p50", &reads, 0.5);
    report.set_percentile("verdict_ms_p90", &reads, 0.9);
    report.set("refuted_frac", refuted as f64 / n_reads.max(1) as f64);
    report.set("decided_frac", if edges == 0 { 1.0 } else { decided as f64 / edges as f64 });
    // One daemon's peak spreads evenly over tens of MiB with the workers'
    // race (see README.md); the mean of such values is steadier than
    // their median.
    report.set("peak_rss_mb", peak_mb.iter().sum::<f64>() / peak_mb.len() as f64);
    report.peaks_mb = peak_mb;
    Ok(())
}

/// Commands over all resident programs (an input size, not a timing).
fn program_cmds(corpus: &Path) -> Result<usize, String> {
    PROGRAMS
        .iter()
        .map(|name| {
            let path = corpus.join(format!("{name}.tir"));
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(tir::parse(&src).map_err(|e| e.to_string())?.num_cmds())
        })
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn set_serve_layers(
    report: &mut Report,
    load: &Cost,
    // The daemon's counters once set up, their change over the pass, and
    // their lifetime value.
    setup: &Counts,
    cmds: usize,
    d: &Counts,
    lifetime: &Counts,
    samples: &[Sample],
    health: &Value,
    queue_wait_us: f64,
) {
    let costs: Vec<(&Sample, &Cost)> =
        samples.iter().filter_map(|s| s.cost.as_ref().map(|c| (s, c))).collect();
    let sum_ms = |f: &dyn Fn(&Cost) -> f64| costs.iter().map(|(_, c)| f(c)).sum::<f64>() / 1e3;
    let p50_ms = |ns: Vec<u64>| percentile(&ns, 0.5).unwrap_or(0) as f64 / 1e6;
    report.set("tir.parse_ms", load.parse_us / 1e3);
    report.set("tir.cmds", cmds as f64);
    report.set("pta.solve_ms", load.pta_us / 1e3);
    report.set("pta.propagations", setup.get(Counter::PtaPropagations) as f64);
    report.set("pta.nodes", setup.get(Counter::PtaNodes) as f64);
    report.set(
        "pta.edit_propagations",
        samples.iter().map(|s| s.edit_propagations).sum::<u64>() as f64,
    );
    report.set("serve.phase_edit_ms", sum_ms(&|c| c.edit_us));
    report.set("serve.phase_pta_ms", sum_ms(&|c| c.pta_us));
    report.set("serve.phase_symex_ms", sum_ms(&|c| c.symex_us));
    report.set("serve.phase_cache_ms", sum_ms(&|c| c.cache_us));
    crate::set_search_layers(report, d, sum_ms(&|c| c.symex_us), 1.0);
    let (hits, lookups) = costs
        .iter()
        .filter(|(s, _)| !s.edit)
        .fold((0, 0), |(h, l), (_, c)| (h + c.cache_hits, l + c.cache_lookups));
    report.set("persist.hit_ratio", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 });
    report.set(
        "persist.store_bytes",
        health.get("ok").and_then(|o| o.get("store_bytes")).and_then(Value::as_u64).unwrap_or(0)
            as f64,
    );
    report.set("persist.records_dropped", lifetime.get(Counter::CacheRecordsDropped) as f64);
    let wall_ns = |c: &Cost| (c.wall_us * 1e3) as u64;
    report.set("serve.daemon_ms_p50", p50_ms(costs.iter().map(|(_, c)| wall_ns(c)).collect()));
    report.set(
        "serve.transport_ms_p50",
        p50_ms(costs.iter().map(|(s, c)| s.rtt_ns.saturating_sub(wall_ns(c))).collect())
            - queue_wait_us / 1e3,
    );
    report.set("serve.queue_wait_ms_mean", queue_wait_us / 1e3);
}
