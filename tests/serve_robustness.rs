//! Robustness guarantees of the resident daemon (`thresher::serve`):
//!
//! - the fault-injection suite: a panicking, stalling, or cache-corrupting
//!   request fails alone, with a structured StopReason-tagged error, while
//!   the daemon keeps serving and untouched requests answer byte-identically;
//! - per-request reports are equivalent (`--diff-reports`) to a one-shot
//!   `thresher-cli` run of the same work;
//! - a soak run holds residency under the LRU cap and every decision store
//!   under its byte cap (compaction observed via counters) with zero answer
//!   changes;
//! - process lifecycle: EOF and SIGTERM drain to exit 0, and a daemon
//!   killed with SIGKILL leaves a store the next daemon self-heals.
//!
//! Tests that install the process-global recorder serialize on
//! `obs::test_lock()` (same discipline as tests/observability.rs).

use std::fs;
use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use thresher::obs::json::Value;
use thresher::obs::{self, Counter, MemRecorder, RingCapacity};
use thresher::serve::{Daemon, ServeConfig};

const PROGRAM: &str = r#"
class Box { field item: Object; }
global CACHE: Box;
fn main() {
  var b: Box;
  var secret: Object;
  var s: Object;
  b = new Box @box0;
  secret = new Object @secret0;
  s = new Object @str0;
  b.item = s;
  $CACHE = b;
}
entry main;
"#;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thresher-serve-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One shared static recorder for this test binary (installs leak, so
/// cycling one per test would grow without bound).
fn recorder() -> &'static MemRecorder {
    use std::sync::OnceLock;
    static REC: OnceLock<&'static MemRecorder> = OnceLock::new();
    let rec = *REC.get_or_init(|| MemRecorder::install_static(RingCapacity::default()));
    obs::install(rec);
    rec
}

fn request(id: u64, method: &str, params: &[(&str, Value)]) -> String {
    let params = Value::Obj(params.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect());
    Value::Obj(vec![
        ("id".to_owned(), Value::uint(id)),
        ("method".to_owned(), Value::str(method)),
        ("params".to_owned(), params),
    ])
    .to_json()
}

fn load_req(id: u64, name: &str) -> String {
    request(id, "load_program", &[("name", Value::str(name)), ("source", Value::str(PROGRAM))])
}

fn query_req(id: u64, program: &str, loc: &str, extra: &[(&str, Value)]) -> String {
    let mut params = vec![
        ("program", Value::str(program)),
        ("global", Value::str("CACHE")),
        ("loc", Value::str(loc)),
    ];
    params.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    request(id, "query_edge", &params)
}

fn response_for(lines: &[String], id: u64) -> Value {
    lines
        .iter()
        .find_map(|l| {
            let v = obs::json::parse(l).ok()?;
            (v.get("id").and_then(Value::as_u64) == Some(id)).then_some(v)
        })
        .unwrap_or_else(|| panic!("no response with id {id} in {lines:#?}"))
}

/// Serializes an `ok` body with the `cost` block removed: cost carries
/// wall-clock phase timings (answer-invariant but not byte-stable), so
/// byte-identity comparisons exclude it, exactly like `--diff-reports`
/// excludes `_ns`/`_us` histograms.
fn strip_cost(body: &Value) -> String {
    match body {
        Value::Obj(fields) => {
            Value::Obj(fields.iter().filter(|(k, _)| k != "cost").cloned().collect::<Vec<_>>())
                .to_json()
        }
        other => other.to_json(),
    }
}

fn ok_body(lines: &[String], id: u64) -> String {
    strip_cost(
        response_for(lines, id).get("ok").unwrap_or_else(|| {
            panic!("id {id} is not ok: {:?}", response_for(lines, id).to_json())
        }),
    )
}

fn err_code(lines: &[String], id: u64) -> String {
    response_for(lines, id)
        .get("err")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("id {id} is not err: {:?}", response_for(lines, id).to_json()))
        .to_owned()
}

/// The full fault matrix: panic, stall, cache corruption, torn write. The
/// daemon survives all four; only the targeted request fails, with a
/// structured error; the same untouched query answers byte-identically
/// before, between, and after the faults — including after an evict +
/// reload over the damaged store.
#[test]
fn fault_suite_daemon_survives_and_isolates() {
    let cache = tmp("faults");
    let config =
        ServeConfig { inject: true, cache_root: Some(cache.clone()), ..ServeConfig::default() };
    let daemon = Daemon::new(config);
    let script = [
        load_req(1, "boxy"),
        query_req(2, "boxy", "str0", &[]),
        query_req(3, "boxy", "str0", &[("inject", Value::str("panic"))]),
        query_req(4, "boxy", "str0", &[]),
        query_req(
            5,
            "boxy",
            "str0",
            &[("inject", Value::str("stall")), ("deadline_ms", Value::uint(150))],
        ),
        query_req(6, "boxy", "str0", &[]),
        query_req(7, "boxy", "str0", &[("inject", Value::str("corrupt-cache"))]),
        query_req(8, "boxy", "str0", &[]),
        query_req(9, "boxy", "secret0", &[("inject", Value::str("torn-write"))]),
        request(10, "evict", &[("program", Value::str("boxy"))]),
        load_req(11, "boxy"),
        query_req(12, "boxy", "str0", &[]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);

    // The targeted requests fail with structured, provenance-tagged errors.
    let panic_err = response_for(&lines, 3);
    assert_eq!(err_code(&lines, 3), "panic");
    assert_eq!(
        panic_err.get("err").and_then(|e| e.get("stop_reason")).and_then(Value::as_str),
        Some("panic")
    );
    let stall_err = response_for(&lines, 5);
    assert_eq!(err_code(&lines, 5), "deadline");
    assert_eq!(
        stall_err.get("err").and_then(|e| e.get("stop_reason")).and_then(Value::as_str),
        Some("wall-clock")
    );

    // The cache-damaging requests themselves still answer.
    assert!(ok_body(&lines, 7).contains("\"reachable\":true"));
    assert!(ok_body(&lines, 9).contains("\"reachable\":false"));

    // Untouched requests are byte-identical throughout — including id 12,
    // served after evicting and reloading over the damaged store.
    let baseline = ok_body(&lines, 2);
    for id in [4, 6, 8, 12] {
        assert_eq!(ok_body(&lines, id), baseline, "answer changed at id {id}");
    }
    // The reload reopened the damaged store read-write (corrupt and torn
    // lines are skipped, not fatal).
    assert!(ok_body(&lines, 11).contains("\"cache\":\"read-write\""));

    assert_eq!(summary.panicked, 1);
    assert_eq!(summary.timed_out, 1);
    assert_eq!(summary.admitted, 12);
    let _ = fs::remove_dir_all(&cache);
}

/// A source with a duplicate declaration is a bad request, answered like
/// any other parse error; no handler panics.
#[test]
fn duplicate_global_load_is_a_bad_request() {
    let daemon = Daemon::new(ServeConfig::default());
    let source = PROGRAM.replace("global CACHE: Box;", "global CACHE: Box;\nglobal CACHE: Box;");
    let script = [
        request(1, "load_program", &[("name", Value::str("dup")), ("source", Value::str(source))]),
        load_req(2, "boxy"),
        query_req(3, "boxy", "str0", &[]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    assert_eq!(err_code(&lines, 1), "bad-request");
    let message = response_for(&lines, 1).get("err").and_then(|e| e.get("message")).cloned();
    assert_eq!(message, Some(Value::str("parse error: line 4: duplicate global CACHE")));
    assert!(ok_body(&lines, 3).contains("\"reachable\":true"));
    assert_eq!(summary.panicked, 0);
}

/// A per-request report (params `report: true`) from the daemon is
/// `--diff-reports`-equivalent to a one-shot `thresher-cli` run of the
/// same load + query.
#[test]
fn per_request_report_matches_one_shot_cli() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let dir = tmp("identity");
    let tir_path = dir.join("boxy.tir");
    fs::write(&tir_path, PROGRAM).expect("write program");

    let daemon = Daemon::new(ServeConfig::default());
    let script = [
        request(
            1,
            "load_program",
            &[("name", Value::str("boxy")), ("path", Value::str(tir_path.to_str().unwrap()))],
        ),
        query_req(2, "boxy", "secret0", &[("report", Value::Bool(true))]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    obs::uninstall();
    assert_eq!(summary.completed, 2, "daemon run failed: {lines:#?}");
    let report = response_for(&lines, 2)
        .get("ok")
        .and_then(|o| o.get("report"))
        .expect("ok.report present")
        .to_json();
    let serve_report = dir.join("serve-report.json");
    fs::write(&serve_report, report).expect("write serve report");

    let cli_report = dir.join("cli-report.json");
    let status = Command::new(env!("CARGO_BIN_EXE_thresher-cli"))
        .args([
            tir_path.to_str().unwrap(),
            "--query",
            "CACHE",
            "secret0",
            "--jobs",
            "1",
            "--report-out",
            cli_report.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run thresher-cli");
    // secret0 is refuted: completed with no findings.
    assert_eq!(status.code(), Some(0));

    let diff = Command::new(env!("CARGO_BIN_EXE_thresher-cli"))
        .args(["--diff-reports", serve_report.to_str().unwrap(), cli_report.to_str().unwrap()])
        .output()
        .expect("run --diff-reports");
    assert_eq!(
        diff.status.code(),
        Some(0),
        "daemon and CLI reports differ:\n{}",
        String::from_utf8_lossy(&diff.stdout)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A program with `n` globals, each holding its own box/object pair, so
/// one round of queries decides ~2n distinct edges (enough decision-store
/// records to trip a small byte cap).
fn soak_source(globals: usize) -> String {
    let mut s = String::from("class Box { field item: Object; }\n");
    for i in 0..globals {
        s.push_str(&format!("global G{i}: Box;\n"));
    }
    s.push_str("fn main() {\n");
    for i in 0..globals {
        s.push_str(&format!(
            "  var b{i}: Box;\n  var o{i}: Object;\n  b{i} = new Box @box{i};\n  \
             o{i} = new Object @obj{i};\n  b{i}.item = o{i};\n  $G{i} = b{i};\n"
        ));
    }
    s.push_str("}\nentry main;\n");
    s
}

/// Soak: >1000 requests over 20 programs through a daemon with a small
/// residency cap and tiny per-program cache caps. Residency stays bounded
/// (evictions observed), every store file stays under its byte cap with
/// compaction observed via counters, and every repeated request answers
/// identically across all rounds.
#[test]
fn soak_bounded_residency_and_caches_zero_answer_changes() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    const PROGRAMS: usize = 20;
    const GLOBALS: usize = 10;
    const ROUNDS: usize = 3;
    const CACHE_CAP: u64 = 1400;
    let cache = tmp("soak");
    let config = ServeConfig {
        max_resident: 4,
        queue_cap: 4096,
        rate_per_sec: 1e9,
        burst: 1e9,
        cache_root: Some(cache.clone()),
        cache_bytes_cap: CACHE_CAP,
        ..ServeConfig::default()
    };
    let daemon = Daemon::new(config);

    let source = soak_source(GLOBALS);
    let mut script = Vec::new();
    let mut id = 0u64;
    // (query key -> ids that issued it) for the zero-answer-change check.
    let mut issued: Vec<(String, u64)> = Vec::new();
    for _round in 0..ROUNDS {
        for p in 0..PROGRAMS {
            let name = format!("soak{p}");
            id += 1;
            script.push(request(
                id,
                "load_program",
                &[("name", Value::str(name.clone())), ("source", Value::str(source.clone()))],
            ));
            for g in 0..GLOBALS {
                for (tag, loc) in
                    [("hit", format!("obj{g}")), ("miss", format!("obj{}", (g + 1) % GLOBALS))]
                {
                    id += 1;
                    script.push(request(
                        id,
                        "query_edge",
                        &[
                            ("program", Value::str(name.clone())),
                            ("global", Value::str(format!("G{g}"))),
                            ("loc", Value::str(loc.clone())),
                        ],
                    ));
                    issued.push((format!("{name}/G{g}/{tag}"), id));
                }
            }
        }
    }
    assert!(id >= 1000, "soak must issue >= 1000 requests, issued {id}");
    let (lines, summary) = daemon.run_script(&script.join("\n"));
    obs::uninstall();

    assert_eq!(
        summary.completed, id,
        "soak had failures: shed={} panicked={}",
        summary.shed, summary.panicked
    );
    assert_eq!(summary.shed, 0);
    assert_eq!(summary.panicked, 0);

    // Residency stayed bounded; pressure evictions happened and were
    // counted.
    assert!(daemon.resident_count() <= 4);
    assert_eq!(summary.evicted, (PROGRAMS * ROUNDS - 4) as u64);
    assert_eq!(rec.counter(Counter::ProgramsEvicted), summary.evicted);

    // Every store file is at (or under) its byte cap and compaction was
    // observed via counters, with records actually dropped.
    assert!(rec.counter(Counter::CacheCompactions) > 0, "no compaction in soak");
    assert!(rec.counter(Counter::CacheRecordsDropped) > 0);
    for p in 0..PROGRAMS {
        let file = cache.join(format!("soak{p}")).join("decisions.jsonl");
        let bytes = fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        assert!(
            bytes <= CACHE_CAP + 512,
            "store for soak{p} grew to {bytes} bytes (cap {CACHE_CAP})"
        );
    }

    // Zero answer changes: every repeat of the same query — across rounds,
    // evictions, reloads, and compactions — answered byte-identically.
    let mut answers: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for (key, id) in issued {
        let body = ok_body(&lines, id);
        match answers.get(&key) {
            None => {
                answers.insert(key, body);
            }
            Some(first) => assert_eq!(&body, first, "answer changed for {key}"),
        }
    }
    let _ = fs::remove_dir_all(&cache);
}

/// Two different clients issuing the same request back-to-back get
/// equivalent reports (`--diff-reports`: identical modulo timing) — no
/// cross-request state leaks into reports.
#[test]
fn two_clients_get_identical_reports() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let dir = tmp("two-clients");
    let daemon = Daemon::new(ServeConfig::default());
    let q = |id: u64, client: &str| {
        let mut v =
            obs::json::parse(&query_req(id, "boxy", "secret0", &[("report", Value::Bool(true))]))
                .unwrap();
        if let Value::Obj(fields) = &mut v {
            fields.push(("client".to_owned(), Value::str(client)));
        }
        v.to_json()
    };
    let script = [load_req(1, "boxy"), q(2, "alice"), q(3, "bob")].join("\n");
    let (lines, summary) = daemon.run_script(&script);
    obs::uninstall();
    assert_eq!(summary.completed, 3);
    let report_path = |id: u64| {
        let json = response_for(&lines, id)
            .get("ok")
            .and_then(|o| o.get("report"))
            .expect("report present")
            .to_json();
        let path = dir.join(format!("client-{id}.json"));
        fs::write(&path, json).expect("write report");
        path
    };
    let (a, b) = (report_path(2), report_path(3));
    let diff = Command::new(env!("CARGO_BIN_EXE_thresher-cli"))
        .args(["--diff-reports", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run --diff-reports");
    assert_eq!(
        diff.status.code(),
        Some(0),
        "two clients got different reports:\n{}",
        String::from_utf8_lossy(&diff.stdout)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A default daemon runs its queue in arrival order: in a pipelined
/// script of `load_program` → `query_edge` pairs no query overtakes the
/// load before it. Each load parses and solves K9Mail, long enough that
/// a second worker would start the query first and answer `not-loaded`.
#[test]
fn pipelined_loads_and_queries_answer_in_order() {
    let app = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/k9mail.tir");
    let path = Value::str(app.to_str().unwrap());
    let daemon = Daemon::new(ServeConfig::default());
    let mut script = Vec::new();
    for i in 0..20u64 {
        let name = Value::str(format!("k9-{i}"));
        script.push(request(
            2 * i + 1,
            "load_program",
            &[("name", name.clone()), ("path", path.clone())],
        ));
        script.push(request(
            2 * i + 2,
            "query_edge",
            &[
                ("program", name),
                ("global", Value::str("K9.sHolderCompose")),
                ("loc", Value::str("MessageCompose_inst")),
            ],
        ));
    }
    let (lines, summary) = daemon.run_script(&script.join("\n"));
    let ids: Vec<u64> = lines
        .iter()
        .map(|l| {
            let v = obs::json::parse(l).unwrap();
            assert!(v.get("ok").is_some(), "not ok: {l}");
            v.get("id").and_then(Value::as_u64).unwrap()
        })
        .collect();
    assert_eq!(ids, (1..=40).collect::<Vec<u64>>(), "responses out of arrival order");
    assert_eq!(summary.completed, 40);
}

/// With a recorder installed (as in `thresher-serve`), a second `analyze`
/// of an unchanged corpus app takes every decision from the store at the
/// daemon's default byte cap: each record carries its captured metrics as
/// bucketed histograms, so the records fit and none is compacted away.
#[test]
fn reanalyze_at_default_store_cap_hits_every_decision() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let cache = tmp("reanalyze");
    let app = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/opensudoku.tir");
    let daemon =
        Daemon::new(ServeConfig { cache_root: Some(cache.clone()), ..ServeConfig::default() });
    let analyze = |id: u64| request(id, "analyze", &[("program", Value::str("sudoku"))]);
    let script = [
        request(
            1,
            "load_program",
            &[("name", Value::str("sudoku")), ("path", Value::str(app.to_str().unwrap()))],
        ),
        analyze(2),
        analyze(3),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    obs::uninstall();
    assert_eq!(summary.completed, 3, "daemon run failed: {lines:#?}");

    let cost = |id: u64, key: &str| {
        response_for(&lines, id)
            .get("ok")
            .and_then(|o| o.get("cost"))
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("id {id} has no cost.{key}"))
    };
    assert_eq!((cost(2, "cache_hits"), cost(2, "cache_misses")), (0, 17));
    assert_eq!((cost(3, "cache_hits"), cost(3, "cache_misses")), (17, 0));
    assert_eq!(rec.counter(Counter::CacheRecordsDropped), 0);
    assert_eq!(ok_body(&lines, 3), ok_body(&lines, 2), "warm analyze changed the alarms");
    let _ = fs::remove_dir_all(&cache);
}

/// A program with two null-deref candidates: `t.item` (reachable null —
/// one alarm) and the guarded `u.item` (refuted). Used by the null-client
/// serve tests.
const NULLY: &str = r#"class Box { field item: Object; }
fn main() {
  var b: Box;
  var t: Box;
  var u: Box;
  var o: Object;
  var flag: int;
  flag = 0;
  b = new Box @box0;
  o = new Object @obj0;
  t = null;
  if (flag == 1) {
    t = new Box @box1;
  }
  b.item = o;
  t.item = o;
  u = null;
  if (flag == 1) {
    u = new Box @box2;
  }
  if (u != null) {
    u.item = o;
  }
}
entry main;
"#;

fn load_src_req(id: u64, name: &str, source: &str) -> String {
    request(id, "load_program", &[("name", Value::str(name)), ("source", Value::str(source))])
}

fn analyze_null_req(id: u64, program: &str, extra: &[(&str, Value)]) -> String {
    let mut params = vec![("program", Value::str(program)), ("client", Value::str("null"))];
    params.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    request(id, "analyze", &params)
}

/// The null client through the resident daemon: `analyze` with
/// `"client": "null"` answers with the stable `NullReport` rendering, a
/// panicking null query is contained to its own request, and the
/// resident escape-client state (a `query_edge` answer decided before
/// the panic) is untouched afterwards.
#[test]
fn null_client_analyze_isolates_faults_from_escape_state() {
    let daemon = Daemon::new(ServeConfig { inject: true, ..ServeConfig::default() });
    let script = [
        load_req(1, "boxy"),
        load_src_req(2, "nully", NULLY),
        // Escape-client baseline on the resident boxy analysis.
        query_req(3, "boxy", "str0", &[]),
        analyze_null_req(4, "nully", &[]),
        // A null query that panics mid-flight...
        analyze_null_req(5, "nully", &[("inject", Value::str("panic"))]),
        // ...must leave both residents answering byte-identically.
        query_req(6, "boxy", "str0", &[]),
        analyze_null_req(7, "nully", &[]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    assert_eq!(summary.admitted, 7);
    assert_eq!(summary.panicked, 1);

    let null_body = ok_body(&lines, 4);
    assert!(null_body.contains("\"candidate_sites\":2"), "wrong candidates: {null_body}");
    assert!(null_body.contains("\"refuted_sites\":1"), "guarded deref not refuted: {null_body}");
    assert!(null_body.contains("null? t at"), "missing t.item alarm: {null_body}");

    assert_eq!(err_code(&lines, 5), "panic");
    assert_eq!(ok_body(&lines, 6), ok_body(&lines, 3), "escape-client answer changed");
    assert_eq!(ok_body(&lines, 7), null_body, "null report changed after the panic");
}

/// The same null analyze over the TCP transport answers identically to
/// stdio.
#[test]
fn null_client_analyze_over_tcp_matches_stdio() {
    let stdio_daemon = Daemon::new(ServeConfig::default());
    let script = [load_src_req(1, "nully", NULLY), analyze_null_req(2, "nully", &[])].join("\n");
    let (stdio_lines, summary) = stdio_daemon.run_script(&script);
    assert_eq!(summary.completed, 2);
    let expected = ok_body(&stdio_lines, 2);

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let daemon = Arc::new(Daemon::new(ServeConfig::default()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    daemon.start_listener(listener).expect("start listener");

    // Hold stdio open (no data) until the TCP exchange finishes, then
    // report EOF so the daemon drains — same shape as the tcp drain test.
    struct Gate(Arc<AtomicBool>);
    impl std::io::Read for Gate {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            while !self.0.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(0)
        }
    }
    let gate = Arc::new(AtomicBool::new(false));
    let (d, g) = (daemon.clone(), gate.clone());
    let runner = std::thread::spawn(move || d.run(BufReader::new(Gate(g)), std::io::sink()));

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    writeln!(conn, "{}", load_src_req(1, "nully", NULLY)).unwrap();
    writeln!(conn, "{}", analyze_null_req(2, "nully", &[])).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        lines.push(line.trim().to_owned());
    }
    drop(conn);
    assert_eq!(ok_body(&lines, 2), expected, "TCP null report differs from stdio");
    gate.store(true, Ordering::Relaxed);
    let _ = runner.join().expect("runner join");
}

// ---- process lifecycle (spawned thresher-serve binary) ----

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_thresher-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn thresher-serve")
}

fn wait_with_timeout(child: &mut Child, what: &str) -> i32 {
    for _ in 0..600 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code().unwrap_or(-1);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    panic!("{what}: daemon did not exit within 30s");
}

/// EOF on stdin drains queued work and exits 0, with every admitted
/// request answered.
#[test]
fn eof_drains_and_exits_zero() {
    let mut child = spawn_serve(&[]);
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{}", load_req(1, "boxy")).unwrap();
        writeln!(stdin, "{}", query_req(2, "boxy", "str0", &[])).unwrap();
    }
    drop(child.stdin.take()); // EOF
    let stdout = child.stdout.take().unwrap();
    let code = wait_with_timeout(&mut child, "eof drain");
    assert_eq!(code, 0);
    let lines: Vec<String> = BufReader::new(stdout).lines().map(|l| l.unwrap()).collect();
    assert!(ok_body(&lines, 1).contains("\"program\":\"boxy\""));
    assert!(ok_body(&lines, 2).contains("\"reachable\":true"));
}

/// SIGTERM requests a drain; the daemon finishes in-flight work and exits
/// 0 (the blocked stdin read is noticed at the next line under
/// SA_RESTART, so the test nudges it with a health request).
#[test]
#[cfg(unix)]
fn sigterm_drains_and_exits_zero() {
    let mut child = spawn_serve(&[]);
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{}", load_req(1, "boxy")).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    // Wake the reader so it sees the drain flag; keep stdin open to prove
    // the exit is SIGTERM-driven, not EOF-driven.
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{{\"id\": 9, \"method\": \"health\"}}").unwrap();
    }
    let code = wait_with_timeout(&mut child, "sigterm drain");
    assert_eq!(code, 0);
    drop(child.stdin.take());
}

/// SIGKILL mid-session leaves a decision store (plus its advisory lock,
/// naming a now-dead pid) that the next daemon steals, reads — skipping
/// any torn tail — and reopens read-write, answering identically.
#[test]
#[cfg(unix)]
fn sigkill_leaves_store_next_daemon_self_heals() {
    let cache = tmp("kill9");
    let tir_dir = tmp("kill9-src");
    let tir_path = tir_dir.join("boxy.tir");
    fs::write(&tir_path, PROGRAM).expect("write program");

    let mut child = spawn_serve(&["--cache-dir", cache.to_str().unwrap()]);
    let mut first_answer = String::new();
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(
            stdin,
            "{}",
            request(
                1,
                "load_program",
                &[("name", Value::str("boxy")), ("path", Value::str(tir_path.to_str().unwrap()))],
            )
        )
        .unwrap();
        writeln!(stdin, "{}", query_req(2, "boxy", "str0", &[])).unwrap();
        // Read both responses so the store is definitely populated before
        // the kill.
        let mut reader = BufReader::new(child.stdout.as_mut().unwrap());
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Ok(v) = obs::json::parse(&line) {
                if v.get("id").and_then(Value::as_u64) == Some(2) {
                    first_answer = strip_cost(v.get("ok").expect("query ok"));
                }
            }
        }
    }
    assert!(!first_answer.is_empty());
    let killed =
        Command::new("kill").args(["-9", &child.id().to_string()]).status().expect("send SIGKILL");
    assert!(killed.success());
    let _ = child.wait();

    // The dead daemon left its advisory lock behind.
    let store_dir = cache.join("boxy");
    assert!(store_dir.join("decisions.lock").exists(), "lock file should be left behind");
    // Simulate a write torn by the kill.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(store_dir.join("decisions.jsonl"))
            .expect("open store file");
        f.write_all(b"{\"v\":1,\"fp\":\"99999\",\"edge\":\"torn-by-k").unwrap();
    }

    // The next daemon steals the stale lock, skips the torn tail, and
    // answers identically.
    let daemon =
        Daemon::new(ServeConfig { cache_root: Some(cache.clone()), ..ServeConfig::default() });
    let script = [
        request(
            1,
            "load_program",
            &[("name", Value::str("boxy")), ("path", Value::str(tir_path.to_str().unwrap()))],
        ),
        query_req(2, "boxy", "str0", &[]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    assert_eq!(summary.completed, 2, "self-heal run failed: {lines:#?}");
    assert!(
        ok_body(&lines, 1).contains("\"cache\":\"read-write\""),
        "stale lock not stolen: {}",
        ok_body(&lines, 1)
    );
    assert_eq!(ok_body(&lines, 2), first_answer);
    let _ = fs::remove_dir_all(&cache);
    let _ = fs::remove_dir_all(&tir_dir);
}

/// The TCP listener serves the same protocol as stdio and winds down on
/// drain.
#[test]
fn tcp_listener_serves_and_drains() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let daemon = Arc::new(Daemon::new(ServeConfig::default()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    daemon.start_listener(listener).expect("start listener");

    // A stdio transport that stays open (without data) until the test
    // releases it, then reports EOF so the daemon drains.
    struct Gate(Arc<AtomicBool>);
    impl std::io::Read for Gate {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            while !self.0.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(0)
        }
    }
    let gate = Arc::new(AtomicBool::new(false));
    let d = daemon.clone();
    let g = gate.clone();
    let runner = std::thread::spawn(move || d.run(BufReader::new(Gate(g)), std::io::sink()));

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    writeln!(conn, "{}", load_req(1, "boxy")).unwrap();
    writeln!(conn, "{}", query_req(2, "boxy", "secret0", &[])).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        lines.push(line.trim().to_owned());
    }
    assert!(ok_body(&lines, 2).contains("\"reachable\":false"));
    gate.store(true, Ordering::Relaxed);
    let summary = runner.join().expect("runner join");
    assert_eq!(summary.completed, 2);
}
