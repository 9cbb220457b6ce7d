//! The daemon's live telemetry plane: per-request cost attribution,
//! windowed latency aggregation, Prometheus exposition state, and the
//! slow-request forensics log.
//!
//! Three invariants tie this module to the rest of the daemon:
//!
//! 1. **Cost blocks are delta-derived.** Every count in a response's
//!    `cost` object comes from the request's [`MetricsDelta`] — the same
//!    buffered capture that feeds per-request reports — so the counts are
//!    jobs-invariant (PR 3's guarantee) and sum exactly to the daemon's
//!    global counters. Only the wall-clock fields (`wall_us`, the phase
//!    splits, `queue_wait_ms`) vary run to run, which is why the whole
//!    block is excluded from `--diff-reports` answer identity.
//! 2. **The telemetry registry shadows the global recorder.** The daemon
//!    binary always installs a global recorder: [`obs::capture`] only
//!    buffers while one is live, and cost blocks, the exposition and the
//!    slow log are all carved out of captured deltas. The `metrics` method
//!    still renders from [`Telemetry::registry`], not the global registry;
//!    it receives every successful request's delta (via `replay_into`) and
//!    every daemon-level tally (`Shared::tally` writes both sinks). Both
//!    sinks are live, and their counter totals agree, modulo the
//!    in-flight scrape itself (`requests_completed` lags by the request
//!    executing when the exposition is rendered).
//! 3. **Slow-log entries are bounded.** The JSONL slow log self-truncates:
//!    when an append pushes the file past its byte cap, the oldest lines
//!    are dropped until the newest ones fit in half the cap (so appends
//!    between truncations stay cheap).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use obs::json::Value;
use obs::{Counter, Hist, MetricsDelta, Registry, SlidingWindow};

/// Samples kept by each sliding window (per-method latency, queue wait,
/// queue depth) behind the `metrics` quantiles.
const WINDOW: usize = 512;

/// Live aggregation state shared by the worker and every transport thread.
pub(super) struct Telemetry {
    /// Daemon-lifetime counters/histograms, independent of the global
    /// recorder (see module docs).
    pub(super) registry: Registry,
    /// Per-method latency rings (request wall time, microseconds).
    pub(super) latency: Mutex<BTreeMap<String, SlidingWindow>>,
    /// Queue-wait ring (admission → dequeue, microseconds), all methods.
    pub(super) queue_wait: Mutex<SlidingWindow>,
    /// Queue-depth ring, sampled at each admission.
    pub(super) queue_depth: Mutex<SlidingWindow>,
    /// Slow-request log, when configured.
    pub(super) slow: Option<SlowLog>,
}

impl Telemetry {
    pub(super) fn new(slow: Option<SlowLog>) -> Self {
        Telemetry {
            registry: Registry::new(),
            latency: Mutex::new(BTreeMap::new()),
            queue_wait: Mutex::new(SlidingWindow::new(WINDOW)),
            queue_depth: Mutex::new(SlidingWindow::new(WINDOW)),
            slow,
        }
    }

    /// Records one executed request's wall time into its method's ring.
    pub(super) fn record_latency(&self, method: &str, wall_us: u64) {
        let mut windows = self.latency.lock().unwrap();
        windows
            .entry(method.to_owned())
            .or_insert_with(|| SlidingWindow::new(WINDOW))
            .push(wall_us);
    }

    /// Records one dequeued request's queue wait.
    pub(super) fn record_queue_wait(&self, wait_us: u64) {
        self.queue_wait.lock().unwrap().push(wait_us);
    }

    /// Records the queue depth seen at one admission.
    pub(super) fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.lock().unwrap().push(depth);
    }

    /// A recent queue-wait estimate (window p90, milliseconds) for shed
    /// responses: lets a client distinguish "the daemon is backed up"
    /// from "my request would be slow".
    pub(super) fn queue_wait_hint_ms(&self) -> Option<u64> {
        self.queue_wait.lock().unwrap().quantile(0.9).map(|us| us / 1000)
    }

    /// Appends the per-method and queue window quantiles to an exposition
    /// document as labeled gauge families.
    pub(super) fn windows_into(&self, p: &mut obs::prom::PromText) {
        const QS: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];
        p.family(
            "thresher_serve_window_request_us",
            "request wall time quantiles over the recent window, by method",
            "gauge",
        );
        for (method, w) in self.latency.lock().unwrap().iter() {
            for (q, label) in QS {
                if let Some(v) = w.quantile(q) {
                    p.sample(
                        "thresher_serve_window_request_us",
                        &[("method", method), ("quantile", label)],
                        v as f64,
                    );
                }
            }
        }
        p.family(
            "thresher_serve_window_queue_wait_us",
            "queue wait quantiles over the recent window",
            "gauge",
        );
        for (q, label) in QS {
            if let Some(v) = self.queue_wait.lock().unwrap().quantile(q) {
                p.sample("thresher_serve_window_queue_wait_us", &[("quantile", label)], v as f64);
            }
        }
        p.family(
            "thresher_serve_window_queue_depth",
            "queue depth quantiles over recent admissions",
            "gauge",
        );
        for (q, label) in QS {
            if let Some(v) = self.queue_depth.lock().unwrap().quantile(q) {
                p.sample("thresher_serve_window_queue_depth", &[("quantile", label)], v as f64);
            }
        }
    }
}

/// Wall-clock phase attribution for one request, built by the handler as
/// it runs. Doubles as the request's span list in slow-log entries: each
/// entry is `(phase name, start offset µs, duration µs)` relative to the
/// moment the worker picked the request up.
pub(super) struct Phases {
    t0: Instant,
    entries: Vec<(&'static str, u64, u64)>,
    budget: Option<u64>,
}

impl Phases {
    pub(super) fn start() -> Self {
        Phases { t0: Instant::now(), entries: Vec::new(), budget: None }
    }

    /// Times `f` as one `name` phase.
    pub(super) fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.elapsed_us();
        let r = f();
        let dur = self.elapsed_us().saturating_sub(start);
        self.entries.push((name, start, dur));
        r
    }

    /// Records the path-program budget the handler actually ran with.
    pub(super) fn note_budget(&mut self, budget: u64) {
        self.budget = Some(budget);
    }

    /// Microseconds since the worker picked the request up.
    pub(super) fn elapsed_us(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Total microseconds attributed to phase `name`.
    fn total(&self, name: &str) -> u64 {
        self.entries.iter().filter(|(n, _, _)| *n == name).map(|(_, _, d)| d).sum()
    }

    /// The span list for slow-log entries.
    pub(super) fn spans_value(&self) -> Value {
        Value::Arr(
            self.entries
                .iter()
                .map(|(name, start, dur)| {
                    Value::Obj(vec![
                        ("name".to_owned(), Value::str(*name)),
                        ("start_us".to_owned(), Value::uint(*start)),
                        ("dur_us".to_owned(), Value::uint(*dur)),
                    ])
                })
                .collect(),
        )
    }
}

/// Builds the `cost` block attached to every queued-method `ok` response.
/// Counts come from `delta` (jobs-invariant); times from `phases` and the
/// caller's clocks. Excluded from answer identity — strip `cost` before
/// comparing responses byte-for-byte.
pub(super) fn cost_value(
    delta: &MetricsDelta,
    phases: &Phases,
    wall_us: u64,
    queue_wait_us: u64,
) -> Value {
    let phase_obj = Value::Obj(
        ["parse", "pta", "edit", "symex", "cache"]
            .iter()
            .map(|&n| (format!("{n}_us"), Value::uint(phases.total(n))))
            .collect(),
    );
    Value::Obj(vec![
        ("wall_us".to_owned(), Value::uint(wall_us)),
        ("queue_wait_ms".to_owned(), Value::uint(queue_wait_us / 1000)),
        ("phases".to_owned(), phase_obj),
        ("path_programs".to_owned(), Value::uint(delta.counter(Counter::PathPrograms))),
        (
            "cache_fresh_path_programs".to_owned(),
            Value::uint(delta.counter(Counter::CacheFreshPathPrograms)),
        ),
        ("budget".to_owned(), phases.budget.map_or(Value::Null, Value::uint)),
        ("solver_calls".to_owned(), Value::uint(delta.counter(Counter::SolverCalls))),
        ("solver_ns".to_owned(), Value::uint(delta.histogram(Hist::SolverNanos).sum)),
        ("cache_hits".to_owned(), Value::uint(delta.counter(Counter::CacheHits))),
        ("cache_misses".to_owned(), Value::uint(delta.counter(Counter::CacheMisses))),
        ("cache_invalidated".to_owned(), Value::uint(delta.counter(Counter::CacheInvalidated))),
        ("edges_refuted".to_owned(), Value::uint(delta.counter(Counter::EdgesRefuted))),
        ("edges_witnessed".to_owned(), Value::uint(delta.counter(Counter::EdgesWitnessed))),
        ("edges_aborted".to_owned(), Value::uint(delta.counter(Counter::EdgesAborted))),
    ])
}

/// A bounded, self-truncating JSONL log of slow requests.
pub(super) struct SlowLog {
    path: PathBuf,
    bytes_cap: u64,
    // Serializes append/truncate/read; file I/O is cheap at slow-request
    // rates.
    lock: Mutex<()>,
}

impl SlowLog {
    pub(super) fn new(path: PathBuf, bytes_cap: u64) -> Self {
        SlowLog { path, bytes_cap: bytes_cap.max(1024), lock: Mutex::new(()) }
    }

    pub(super) fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Appends one entry; on overflow, rewrites the file keeping the
    /// newest entries that fit in half the cap. I/O errors are swallowed —
    /// forensics must never fail a request.
    pub(super) fn append(&self, entry: &Value) {
        let _g = self.lock.lock().unwrap();
        let line = entry.to_json();
        let _ = std::fs::OpenOptions::new().create(true).append(true).open(&self.path).and_then(
            |mut f| {
                use std::io::Write;
                writeln!(f, "{line}")
            },
        );
        let len = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if len > self.bytes_cap {
            self.truncate_locked();
        }
    }

    fn truncate_locked(&self) {
        let Ok(text) = std::fs::read_to_string(&self.path) else { return };
        let keep_budget = self.bytes_cap / 2;
        let mut kept: Vec<&str> = Vec::new();
        let mut bytes = 0u64;
        for line in text.lines().rev() {
            let cost = line.len() as u64 + 1;
            if bytes + cost > keep_budget && !kept.is_empty() {
                break;
            }
            kept.push(line);
            bytes += cost;
        }
        kept.reverse();
        let mut out = kept.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = std::fs::write(&self.path, out);
    }

    /// The newest `limit` entries (oldest first), skipping unparsable
    /// lines (a torn tail after a crash must not fail the read).
    pub(super) fn read(&self, limit: usize) -> Vec<Value> {
        let _g = self.lock.lock().unwrap();
        let Ok(text) = std::fs::read_to_string(&self.path) else { return Vec::new() };
        let mut entries: Vec<Value> =
            text.lines().filter_map(|l| obs::json::parse(l).ok()).collect();
        if entries.len() > limit {
            entries.drain(..entries.len() - limit);
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_attribute_and_render() {
        let mut p = Phases::start();
        let v = p.time("pta", || 41 + 1);
        assert_eq!(v, 42);
        p.time("symex", || std::thread::sleep(std::time::Duration::from_millis(2)));
        p.note_budget(500);
        assert!(p.total("symex") >= 2000);
        assert_eq!(p.total("parse"), 0);
        let spans = p.spans_value();
        let arr = spans.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("pta"));
        assert!(arr[1].get("dur_us").and_then(Value::as_u64).unwrap() >= 2000);
    }

    #[test]
    fn cost_block_pulls_counts_from_delta() {
        let _serial = obs::test_lock();
        let rec = obs::MemRecorder::install_static(obs::RingCapacity::default());
        rec.reset();
        let ((), delta) = obs::capture(|| {
            obs::add(Counter::PathPrograms, 7);
            obs::add(Counter::CacheFreshPathPrograms, 5);
            obs::add(Counter::SolverCalls, 3);
            obs::add(Counter::CacheHits, 2);
            obs::observe(Hist::SolverNanos, 1000);
            obs::observe(Hist::SolverNanos, 500);
        });
        obs::uninstall();
        let mut phases = Phases::start();
        phases.note_budget(1234);
        let cost = cost_value(&delta, &phases, 9000, 2500);
        assert_eq!(cost.get("wall_us").and_then(Value::as_u64), Some(9000));
        assert_eq!(cost.get("queue_wait_ms").and_then(Value::as_u64), Some(2));
        assert_eq!(cost.get("path_programs").and_then(Value::as_u64), Some(7));
        assert_eq!(cost.get("cache_fresh_path_programs").and_then(Value::as_u64), Some(5));
        assert_eq!(cost.get("budget").and_then(Value::as_u64), Some(1234));
        assert_eq!(cost.get("solver_calls").and_then(Value::as_u64), Some(3));
        assert_eq!(cost.get("solver_ns").and_then(Value::as_u64), Some(1500));
        assert_eq!(cost.get("cache_hits").and_then(Value::as_u64), Some(2));
        let phases_v = cost.get("phases").unwrap();
        assert_eq!(phases_v.get("parse_us").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn slow_log_appends_reads_and_truncates() {
        let dir = std::env::temp_dir().join(format!("thresher-slowlog-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = SlowLog::new(path.clone(), 2048);
        for i in 0..100u64 {
            let entry = Value::Obj(vec![
                ("seq".to_owned(), Value::uint(i)),
                ("pad".to_owned(), Value::str("x".repeat(64))),
            ]);
            log.append(&entry);
            // The file never stays over cap after an append returns.
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            assert!(len <= 2048, "slow log {len} bytes exceeds cap after append {i}");
        }
        let entries = log.read(10);
        assert_eq!(entries.len(), 10);
        // Newest entries survive truncation, oldest-first within the read.
        let seqs: Vec<u64> =
            entries.iter().map(|e| e.get("seq").and_then(Value::as_u64).unwrap()).collect();
        assert_eq!(seqs, (90..100).collect::<Vec<u64>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_windows_and_hints() {
        let t = Telemetry::new(None);
        assert_eq!(t.queue_wait_hint_ms(), None);
        for _ in 0..10 {
            t.record_queue_wait(30_000);
        }
        assert_eq!(t.queue_wait_hint_ms(), Some(30));
        t.record_latency("analyze", 100);
        t.record_latency("analyze", 200);
        t.record_queue_depth(3);
        let mut p = obs::prom::PromText::new();
        t.windows_into(&mut p);
        let samples = obs::prom::parse(&p.finish()).unwrap();
        let s = samples
            .iter()
            .find(|s| {
                s.name == "thresher_serve_window_request_us" && s.label("quantile") == Some("0.5")
            })
            .expect("latency window sample");
        assert_eq!(s.label("method"), Some("analyze"));
        assert_eq!(s.value, 100.0);
    }
}
