//! The live telemetry plane of the resident daemon (`thresher::serve`):
//!
//! - every queued request answers with a `cost` block whose counts
//!   reconcile *exactly* with the daemon's internal telemetry registry, as
//!   read back through the `metrics` method (Prometheus text exposition);
//! - the counts inside `cost` are jobs-invariant (only wall-clock fields
//!   may differ across `--jobs N`), so answer identity under
//!   `--diff-reports` is preserved;
//! - slow-request forensics: with the threshold at zero every request
//!   lands in the bounded JSONL slow log, the `slowlog` method reads it
//!   back, and the file self-truncates under its byte cap;
//! - shed responses carry a `queue_wait_ms` hint next to `retry_after_ms`
//!   once the daemon has seen queue traffic;
//! - `health` exposes store sizes and uptime;
//! - the `--metrics-addr` HTTP listener serves a parseable exposition.
//!
//! Tests that install the process-global recorder serialize on
//! `obs::test_lock()` (same discipline as tests/serve_robustness.rs).

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use thresher::obs::json::Value;
use thresher::obs::{self, prom, MemRecorder, RingCapacity};
use thresher::serve::{Daemon, ServeConfig};

/// The integer guard around the store gives the search a path condition
/// to decide, so query cost blocks carry decision-procedure runs.
const PROGRAM: &str = r#"
class Box { field item: Object; }
global CACHE: Box;
fn main() {
  var b: Box;
  var secret: Object;
  var s: Object;
  var n: int;
  b = new Box @box0;
  secret = new Object @secret0;
  s = new Object @str0;
  n = 1;
  if (n > 0) {
    b.item = s;
  }
  $CACHE = b;
}
entry main;
"#;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thresher-telem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
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

fn query_req(id: u64, program: &str, loc: &str) -> String {
    request(
        id,
        "query_edge",
        &[
            ("program", Value::str(program)),
            ("global", Value::str("CACHE")),
            ("loc", Value::str(loc)),
        ],
    )
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

fn ok_body(lines: &[String], id: u64) -> Value {
    response_for(lines, id)
        .get("ok")
        .unwrap_or_else(|| panic!("id {id} is not ok: {:?}", response_for(lines, id).to_json()))
        .clone()
}

fn cost_of(lines: &[String], id: u64) -> Value {
    ok_body(lines, id).get("cost").unwrap_or_else(|| panic!("id {id} has no cost block")).clone()
}

fn cost_u64(cost: &Value, field: &str) -> u64 {
    cost.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("cost field {field} missing in {}", cost.to_json()))
}

/// The value of counter `name` (wire name, no prefix) in a parsed
/// exposition, i.e. the `thresher_<name>_total` sample.
fn expo_counter(samples: &[prom::Sample], name: &str) -> u64 {
    let full = format!("thresher_{name}_total");
    samples.iter().find(|s| s.name == full).unwrap_or_else(|| panic!("no sample {full}")).value
        as u64
}

/// Every queued request answers with a full cost block, and summing the
/// delta-derived counts across all responses reproduces the daemon's own
/// telemetry registry exactly — the reconciliation invariant: the
/// exposition inside the final `metrics` response covers precisely the
/// requests completed before it (everything, since the queue runs in
/// order and `metrics` is last), and `requests_admitted` additionally
/// includes the `metrics`
/// request itself because admission is tallied before the queue push.
#[test]
fn cost_blocks_reconcile_with_exposition() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let daemon = Daemon::new(ServeConfig::default());
    let script = [
        load_req(1, "boxy"),
        query_req(2, "boxy", "str0"),
        query_req(3, "boxy", "secret0"),
        query_req(4, "boxy", "str0"),
        request(5, "metrics", &[]),
    ]
    .join("\n");
    let (lines, summary) = daemon.run_script(&script);
    obs::uninstall();
    assert_eq!(summary.completed, 5, "run failed: {lines:#?}");

    // Every queued response carries the full cost block.
    for id in 1..=5 {
        let cost = cost_of(&lines, id);
        for field in [
            "wall_us",
            "queue_wait_ms",
            "path_programs",
            "cache_fresh_path_programs",
            "solver_calls",
            "solver_ns",
            "cache_hits",
            "cache_misses",
            "cache_invalidated",
            "edges_refuted",
            "edges_witnessed",
            "edges_aborted",
        ] {
            let _ = cost_u64(&cost, field);
        }
        let phases = cost.get("phases").expect("cost.phases");
        for p in ["parse_us", "pta_us", "symex_us", "cache_us"] {
            assert!(phases.get(p).and_then(Value::as_u64).is_some(), "missing phase {p}");
        }
    }
    // Analysis phases land where expected: parse+pta on the load, symex on
    // a query; queries carry the budget they ran with.
    let load_phases = cost_of(&lines, 1).get("phases").unwrap().clone();
    assert!(load_phases.get("parse_us").and_then(Value::as_u64).is_some());
    assert_eq!(cost_of(&lines, 2).get("budget").and_then(Value::as_u64), Some(10_000));
    assert!(cost_u64(&cost_of(&lines, 2), "path_programs") > 0);
    assert!(cost_u64(&cost_of(&lines, 2), "solver_calls") > 0);

    // Reconciliation: the exposition's engine counters equal the sum of
    // the cost blocks (the `metrics` request contributes zeros — building
    // an exposition consumes no engine work).
    let body = ok_body(&lines, 5);
    assert_eq!(body.get("format").and_then(Value::as_str), Some("prometheus-text-0.0.4"));
    let text = body.get("exposition").and_then(Value::as_str).expect("exposition").to_owned();
    let samples = prom::parse(&text).expect("exposition parses");
    for name in [
        "path_programs",
        "cache_fresh_path_programs",
        "solver_calls",
        "cache_hits",
        "cache_misses",
        "cache_invalidated",
        "edges_refuted",
        "edges_witnessed",
        "edges_aborted",
    ] {
        let summed: u64 = (1..=5).map(|id| cost_u64(&cost_of(&lines, id), name)).sum();
        assert_eq!(expo_counter(&samples, name), summed, "counter {name} does not reconcile");
    }
    // Serve-plane counters: admission is tallied before the queue push, so
    // the metrics request sees itself admitted but not yet completed.
    assert_eq!(expo_counter(&samples, "requests_admitted"), 5);
    assert_eq!(expo_counter(&samples, "requests_completed"), 4);
    // Gauges and window quantiles are present.
    assert!(text.contains("thresher_serve_resident_programs 1"));
    assert!(text.contains("thresher_serve_uptime_seconds"));
    assert!(text.contains("thresher_serve_window_request_us"));
    // The request-latency histogram made it into the exposition with
    // cumulative buckets.
    assert!(text.contains("thresher_serve_request_us_bucket"));
    assert!(text.contains("le=\"+Inf\""));
}

/// The counts inside `cost` are delta-derived and therefore identical at
/// any `--jobs N`; only wall-clock fields may differ. This is the same
/// invariant `--diff-reports` enforces for per-request reports.
#[test]
fn cost_counts_are_jobs_invariant() {
    let _serial = obs::test_lock();
    let rec = recorder();
    rec.reset();

    let strip_wall = |cost: &Value| -> Vec<(String, u64)> {
        let Value::Obj(fields) = cost else { panic!("cost is not an object") };
        let mut counts: Vec<(String, u64)> = fields
            .iter()
            .filter(|(k, _)| {
                !matches!(k.as_str(), "wall_us" | "queue_wait_ms" | "solver_ns" | "phases")
            })
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
            .collect();
        counts.sort();
        counts
    };

    let run = |jobs: usize| {
        let daemon = Daemon::new(ServeConfig { jobs, ..ServeConfig::default() });
        let script =
            [load_req(1, "boxy"), query_req(2, "boxy", "str0"), query_req(3, "boxy", "secret0")]
                .join("\n");
        let (lines, summary) = daemon.run_script(&script);
        assert_eq!(summary.completed, 3, "run failed: {lines:#?}");
        (1..=3).map(|id| strip_wall(&cost_of(&lines, id))).collect::<Vec<_>>()
    };

    let one = run(1);
    let four = run(4);
    obs::uninstall();
    assert_eq!(one, four, "cost counts changed across --jobs");
}

/// With the threshold at zero every executed request lands in the slow
/// log with spans + cost; `slowlog` reads the newest entries back; the
/// file self-truncates under its byte cap; `requests_slow` counts them.
#[test]
fn slow_log_captures_spans_and_truncates() {
    let dir = tmp("slowlog");
    let log_path = dir.join("slow.jsonl");
    const CAP: u64 = 4096;
    let daemon = Daemon::new(ServeConfig {
        slow_log: Some(log_path.clone()),
        slow_threshold: Duration::ZERO,
        slow_log_bytes_cap: CAP,
        ..ServeConfig::default()
    });

    let mut script = vec![load_req(1, "boxy")];
    for id in 2..=40 {
        script.push(query_req(id, "boxy", "str0"));
    }
    script.push(request(41, "slowlog", &[("limit", Value::uint(8))]));
    let (lines, summary) = daemon.run_script(&script.join("\n"));
    assert_eq!(summary.completed, 41, "run failed: {lines:#?}");

    let body = ok_body(&lines, 41);
    assert!(matches!(body.get("enabled"), Some(Value::Bool(true))));
    assert!(body.get("path").and_then(Value::as_str).is_some());
    let Some(Value::Arr(entries)) = body.get("entries") else { panic!("entries missing") };
    assert!(!entries.is_empty() && entries.len() <= 8, "got {} entries", entries.len());
    for e in entries {
        assert_eq!(e.get("outcome").and_then(Value::as_str), Some("ok"));
        assert!(e.get("method").and_then(Value::as_str).is_some());
        assert!(e.get("cost").is_some(), "slow entry lacks cost: {}", e.to_json());
        let Some(Value::Arr(spans)) = e.get("spans") else { panic!("spans missing") };
        for s in spans {
            assert!(s.get("name").and_then(Value::as_str).is_some());
            assert!(s.get("dur_us").and_then(Value::as_u64).is_some());
        }
    }
    // Entries are oldest-first by timestamp.
    let ts: Vec<u64> =
        entries.iter().filter_map(|e| e.get("ts_us").and_then(Value::as_u64)).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "entries out of order: {ts:?}");

    // 40 entries of ~400 bytes each overflow a 4 KiB cap several times —
    // the log must have truncated itself and stayed bounded.
    let bytes = std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0);
    assert!(bytes > 0 && bytes <= CAP, "slow log is {bytes} bytes (cap {CAP})");

    // Every executed request counted as slow (threshold 0), including the
    // slowlog read itself minus the one in flight while it rendered: the
    // exposition is read after drain, so here all 41 are visible.
    let samples = prom::parse(&daemon.exposition()).expect("exposition parses");
    assert_eq!(expo_counter(&samples, "requests_slow"), 41);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A shed response carries the recent queue-wait estimate next to
/// `retry_after_ms`, once the window has samples. The input is gated so
/// the rate-limited request is only submitted after two requests have
/// demonstrably completed (their queue waits recorded).
#[test]
fn shed_responses_carry_queue_wait_hint() {
    // stdin side: yields scripted chunks, blocking between them until the
    // test observes the preceding responses.
    struct GatedInput {
        rx: mpsc::Receiver<Option<Vec<u8>>>,
        buf: Vec<u8>,
    }
    impl std::io::Read for GatedInput {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.buf.is_empty() {
                match self.rx.recv() {
                    Ok(Some(chunk)) => self.buf = chunk,
                    Ok(None) | Err(_) => return Ok(0),
                }
            }
            let n = out.len().min(self.buf.len());
            out[..n].copy_from_slice(&self.buf[..n]);
            self.buf.drain(..n);
            Ok(n)
        }
    }
    // stdout side: forwards each complete response line to the test.
    #[derive(Clone)]
    struct LineTx {
        tx: mpsc::Sender<String>,
        buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    }
    impl std::io::Write for LineTx {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            let mut buf = self.buf.lock().unwrap();
            buf.extend_from_slice(data);
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let _ = self.tx.send(String::from_utf8_lossy(&line).trim().to_owned());
            }
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let (in_tx, in_rx) = mpsc::channel::<Option<Vec<u8>>>();
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let daemon = std::sync::Arc::new(Daemon::new(ServeConfig {
        // Two requests pass the bucket, the third is rate-limited.
        rate_per_sec: 0.0,
        burst: 2.0,
        ..ServeConfig::default()
    }));

    let d = daemon.clone();
    let writer = LineTx { tx: out_tx, buf: std::sync::Arc::default() };
    let runner = std::thread::spawn(move || {
        d.run(std::io::BufReader::new(GatedInput { rx: in_rx, buf: Vec::new() }), writer)
    });

    let chunk = format!("{}\n{}\n", load_req(1, "boxy"), query_req(2, "boxy", "str0"));
    in_tx.send(Some(chunk.into_bytes())).unwrap();
    let mut lines = Vec::new();
    while lines.len() < 2 {
        lines.push(out_rx.recv_timeout(Duration::from_secs(30)).expect("responses 1 and 2"));
    }
    // Both completed: the queue-wait window now has two samples, so the
    // next shed carries the hint.
    in_tx.send(Some(format!("{}\n", query_req(3, "boxy", "str0")).into_bytes())).unwrap();
    lines.push(out_rx.recv_timeout(Duration::from_secs(30)).expect("response 3"));
    in_tx.send(None).unwrap();
    let summary = runner.join().expect("daemon thread");

    assert_eq!(summary.completed, 2);
    assert_eq!(summary.shed, 1);
    let shed = response_for(&lines, 3);
    let err = shed.get("err").expect("id 3 shed");
    assert_eq!(err.get("code").and_then(Value::as_str), Some("rate-limited"));
    assert!(err.get("retry_after_ms").and_then(Value::as_u64).is_some());
    assert!(
        err.get("queue_wait_ms").and_then(Value::as_u64).is_some(),
        "shed response lacks queue_wait_ms: {}",
        shed.to_json()
    );
}

/// `health` exposes per-store byte sizes and uptime alongside the
/// original residency fields.
#[test]
fn health_reports_stores_and_uptime() {
    let cache = tmp("health");
    let daemon =
        Daemon::new(ServeConfig { cache_root: Some(cache.clone()), ..ServeConfig::default() });
    // `health` answers inline on the transport thread; a gated read is not
    // needed because run_script only returns after the drain, and we only
    // assert on the final in-script health snapshot being well-formed.
    let script =
        [load_req(1, "boxy"), query_req(2, "boxy", "str0"), request(3, "health", &[])].join("\n");
    let (lines, summary) = daemon.run_script(&script);
    assert_eq!(summary.completed, 2, "run failed: {lines:#?}");

    let health = ok_body(&lines, 3);
    for field in ["programs", "stores", "store_bytes", "queue_depth", "active", "uptime_ms"] {
        assert!(health.get(field).is_some(), "health lacks {field}: {}", health.to_json());
    }
    assert!(health.get("uptime_s").and_then(Value::as_u64).is_some());
    assert!(matches!(health.get("draining"), Some(Value::Bool(false))));
    // One worker runs the queue, so `active` is at most 1.
    assert!(health.get("active").and_then(Value::as_u64).unwrap_or(99) <= 1);
    let _ = std::fs::remove_dir_all(&cache);
}

/// The `--metrics-addr` HTTP listener answers a GET with a well-formed,
/// parseable exposition and closes the connection.
#[test]
fn metrics_http_listener_serves_exposition() {
    let daemon = Daemon::new(ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    daemon.start_metrics_listener(listener).expect("start metrics listener");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "bad status: {response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    let samples = prom::parse(body).expect("exposition parses");
    assert!(samples.iter().any(|s| s.name == "thresher_serve_uptime_seconds"));
    assert!(samples.iter().any(|s| s.name == "thresher_serve_queue_depth"));
    assert_eq!(expo_counter(&samples, "requests_admitted"), 0);

    // An empty script drains the daemon, which also winds down (and joins)
    // the metrics accept loop.
    let (_, summary) = daemon.run_script("");
    assert_eq!(summary.admitted, 0);
}
