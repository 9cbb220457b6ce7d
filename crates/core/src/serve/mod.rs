//! `thresher-serve`: a fault-isolated resident analysis daemon.
//!
//! The one-shot CLI pays the whole pipeline — parse, points-to, mod/ref —
//! on every invocation. The daemon keeps those results *resident* and
//! answers a stream of requests over newline-delimited JSON (stdin/stdout,
//! and optionally a TCP listener), with three robustness guarantees the
//! CLI never needed:
//!
//! 1. **Fault isolation.** Every request runs under [`obs::capture`] +
//!    `catch_unwind` with its own deadline and path-program budget. A
//!    panicking or runaway request produces a structured error (tagged
//!    with [`StopReason`](symex::StopReason) provenance) while the daemon
//!    keeps serving, and its metrics delta is never committed
//!    half-applied to the global recorder.
//! 2. **Admission control.** A bounded pending queue sheds load with a
//!    `retry_after_ms` hint instead of queueing unboundedly; per-client
//!    token buckets stop one chatty client from starving the rest; a
//!    drain signal (shutdown request, stdin EOF, or SIGTERM via
//!    [`request_drain`]) finishes in-flight work and then exits cleanly.
//! 3. **Bounded residency.** At most [`ServeConfig::max_resident`]
//!    programs stay loaded (least-recently-used eviction, counted in
//!    `programs_evicted`), and each program's persistent
//!    [`DecisionStore`] carries a byte cap that triggers generation-based
//!    compaction (see `symex::persist`).
//!
//! One request worker executes the queue in arrival order, so a script's
//! `load_program` always precedes the queries that follow it; `--jobs`
//! parallelises the refutation inside each request, where answers cannot
//! move. Request metrics are buffered per request and replayed into the
//! global recorder only after the request completes, so a per-request
//! [`obs::RunReport`] (params `"report": true`) is
//! byte-comparable — modulo timing — with a one-shot `thresher-cli` run of
//! the same work (`--diff-reports`).
//!
//! See [`protocol`] for the wire format and [`faults`] for the injection
//! hooks behind `--inject`.

pub mod faults;
pub mod protocol;

mod telemetry;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::json::Value;
use obs::{Counter, Hist, MetricsDelta, Registry, RunReport};
use pta::{BitSet, ContextPolicy, HeapGraphView, IncrementalPta, ModRef, PtaOptions, PtaResult};
use symex::{
    CacheMode, DecisionStore, Fingerprinter, JobVerdict, MethodHashCache, ReachJob,
    RefutationScheduler, StoreLimits, SymexConfig,
};
use tir::{EditOp, Program};

use faults::Fault;
use protocol::{err_response, ok_response, parse_request, ErrorCode, Request, ServeError};
use telemetry::{cost_value, Phases, SlowLog, Telemetry};

/// Process-global drain flag, set by [`request_drain`] (safe to call from a
/// signal handler: it is a single relaxed atomic store).
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Asks every running daemon in this process to drain and exit: in-flight
/// and already-queued requests finish, new ones are rejected. This is the
/// SIGTERM hook — it only touches one atomic, so it is async-signal-safe.
pub fn request_drain() {
    DRAIN.store(true, Ordering::Relaxed);
}

/// True once [`request_drain`] has been called.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::Relaxed)
}

/// Daemon tuning knobs. The defaults suit an interactive local daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Refutation-scheduler threads *per request* (1 = sequential; every
    /// reported number is identical for every setting).
    pub jobs: usize,
    /// Pending-queue bound; requests beyond it are shed with
    /// `retry_after_ms`.
    pub queue_cap: usize,
    /// Resident-program bound (least-recently-used eviction beyond it).
    pub max_resident: usize,
    /// Default per-request deadline (params `deadline_ms` overrides).
    pub request_deadline: Duration,
    /// Token-bucket refill rate per client, requests/second.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity per client.
    pub burst: f64,
    /// Root directory for per-program persistent decision stores; `None`
    /// disables caching.
    pub cache_root: Option<PathBuf>,
    /// Per-program decision-store byte cap (compaction threshold).
    pub cache_bytes_cap: u64,
    /// Honor the `"inject"` request parameter (see [`faults`]).
    pub inject: bool,
    /// Slow-request JSONL log path; `None` disables slow-request
    /// forensics.
    pub slow_log: Option<PathBuf>,
    /// Requests whose wall time reaches this threshold are appended to
    /// the slow log (when one is configured).
    pub slow_threshold: Duration,
    /// Slow-log byte cap; past it the oldest entries are dropped.
    pub slow_log_bytes_cap: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 1,
            queue_cap: 64,
            max_resident: 8,
            request_deadline: Duration::from_secs(60),
            rate_per_sec: 100.0,
            burst: 200.0,
            cache_root: None,
            cache_bytes_cap: 4 * 1024 * 1024,
            inject: false,
            slow_log: None,
            slow_threshold: Duration::from_secs(1),
            slow_log_bytes_cap: 1024 * 1024,
        }
    }
}

/// The most path programs one request may ask for (`params.budget`); a
/// request that names none runs the one-shot CLI's default budget.
const MAX_REQUEST_BUDGET: u64 = 20_000;

/// End-of-run accounting, read from the daemon's [`obs`] counters
/// (`requests_admitted`, `requests_completed`, `requests_shed`,
/// `requests_panicked`, `requests_timed_out`, `programs_evicted`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Requests accepted into the pending queue.
    pub admitted: u64,
    /// Requests that produced an `ok` response.
    pub completed: u64,
    /// Requests shed at admission (queue full, rate-limited, draining).
    pub shed: u64,
    /// Requests whose handler panicked (contained).
    pub panicked: u64,
    /// Requests whose deadline expired (in queue or while running).
    pub timed_out: u64,
    /// Programs evicted by residency pressure.
    pub evicted: u64,
}

/// One resident program: parsed TIR plus the points-to and mod/ref results
/// every request reuses, the per-program decision store, and the metrics
/// delta of the load itself (replayed into per-request reports so they
/// match a one-shot run that did its own loading).
struct Resident {
    program: Program,
    pta: PtaResult,
    modref: ModRef,
    store: Option<Arc<DecisionStore>>,
    store_dir: Option<PathBuf>,
    /// Resident delta solver for the `edit` method, built lazily on the
    /// first edit (one extra full solve) and carried across edits so each
    /// subsequent batch costs only its delta.
    incr: Mutex<Option<IncrementalPta>>,
    /// Cross-edit per-method fingerprint hashes: refreshed with the
    /// changed-method set at each edit, so attaching the decision store to
    /// a later request re-hashes nothing.
    hashes: Mutex<MethodHashCache>,
    load_obs: Mutex<MetricsDelta>,
    last_used: AtomicU64,
}

struct Residency {
    map: HashMap<String, Arc<Resident>>,
    tick: u64,
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

type Out = Arc<Mutex<Box<dyn Write + Send>>>;

struct Job {
    req: Request,
    deadline: Instant,
    queued_at: Instant,
    out: Out,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Shutdown,
}

struct Shared {
    config: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    residency: Mutex<Residency>,
    buckets: Mutex<HashMap<String, Bucket>>,
    draining: AtomicBool,
    active: AtomicUsize,
    started: Instant,
    telemetry: Telemetry,
}

/// The resident analysis daemon. Construct with [`Daemon::new`], then call
/// [`Daemon::run`] with the primary transport (stdin/stdout in the
/// `thresher-serve` binary; in-memory buffers in tests), optionally after
/// [`Daemon::start_listener`] for TCP clients.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: Mutex<Option<JoinHandle<()>>>,
    metrics_listener: Mutex<Option<JoinHandle<()>>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// A daemon with the given configuration (not yet serving).
    pub fn new(config: ServeConfig) -> Self {
        let slow =
            config.slow_log.clone().map(|path| SlowLog::new(path, config.slow_log_bytes_cap));
        let telemetry = Telemetry::new(slow);
        Daemon {
            shared: Arc::new(Shared {
                config,
                queue: Mutex::new(VecDeque::new()),
                cond: Condvar::new(),
                residency: Mutex::new(Residency { map: HashMap::new(), tick: 0 }),
                buckets: Mutex::new(HashMap::new()),
                draining: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                started: Instant::now(),
                telemetry,
            }),
            listener: Mutex::new(None),
            metrics_listener: Mutex::new(None),
            conns: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Serves requests from `input` until EOF, a `shutdown` request, or
    /// [`request_drain`]; then drains — queued and in-flight requests
    /// finish, the worker exits — and returns the run's accounting.
    pub fn run<R: BufRead, W: Write + Send + 'static>(
        &self,
        mut input: R,
        output: W,
    ) -> RunSummary {
        let out: Out = Arc::new(Mutex::new(Box::new(output)));
        let worker = {
            let shared = self.shared.clone();
            std::thread::spawn(move || worker_loop(&shared))
        };

        let mut buf = String::new();
        loop {
            if self.shared.is_draining() {
                break;
            }
            buf.clear();
            match input.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let line = buf.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if self.shared.handle_line(line, "stdio", &out) == Flow::Shutdown {
                        break;
                    }
                }
            }
        }

        self.shared.begin_drain();
        let _ = worker.join();
        if let Some(h) = self.listener.lock().unwrap().take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_listener.lock().unwrap().take() {
            let _ = h.join();
        }
        for h in self.conns.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        if let Ok(mut o) = out.lock() {
            let _ = o.flush();
        }
        self.shared.summary()
    }

    /// Runs a newline-delimited request script through an in-memory
    /// transport and returns the response lines (test/bench convenience).
    pub fn run_script(&self, script: &str) -> (Vec<String>, RunSummary) {
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let summary = self.run(std::io::Cursor::new(script.to_owned()), buf.clone());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf-8 responses");
        (text.lines().map(str::to_owned).collect(), summary)
    }

    /// Number of currently resident programs (always at most
    /// [`ServeConfig::max_resident`]).
    pub fn resident_count(&self) -> usize {
        self.shared.residency.lock().unwrap().map.len()
    }

    /// Additionally accepts TCP clients on `listener` (one thread per
    /// connection, each line handled exactly like a stdin line; the
    /// client's token-bucket identity defaults to its peer address). The
    /// accept loop and every connection wind down when the daemon drains.
    pub fn start_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let shared = self.shared.clone();
        let conns = self.conns.clone();
        let handle = std::thread::spawn(move || loop {
            if shared.is_draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    let Ok(write_half) = stream.try_clone() else { continue };
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                    let out: Out = Arc::new(Mutex::new(Box::new(write_half)));
                    let shared = shared.clone();
                    let h = std::thread::spawn(move || {
                        conn_loop(&shared, stream, &format!("tcp:{peer}"), &out);
                    });
                    conns.lock().unwrap().push(h);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => break,
            }
        });
        self.listener.lock().unwrap().replace(handle);
        Ok(())
    }

    /// Additionally serves the Prometheus text exposition over HTTP on
    /// `listener` (the `--metrics-addr` flag). Each connection gets one
    /// minimal HTTP/1.0 response with the current exposition and is then
    /// closed — enough for `curl` and any Prometheus scraper, with zero
    /// dependencies. Winds down when the daemon drains.
    pub fn start_metrics_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let shared = self.shared.clone();
        let handle = std::thread::spawn(move || loop {
            if shared.is_draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => serve_metrics_conn(&shared, stream),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => break,
            }
        });
        self.metrics_listener.lock().unwrap().replace(handle);
        Ok(())
    }

    /// The current Prometheus exposition (what the `metrics` method and
    /// the `--metrics-addr` endpoint serve), for embedding callers.
    pub fn exposition(&self) -> String {
        self.shared.exposition()
    }
}

/// One metrics-endpoint connection: swallow the request head, answer with
/// the exposition, close.
fn serve_metrics_conn(shared: &Arc<Shared>, stream: std::net::TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    {
        let mut reader = std::io::BufReader::new(&stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line.trim().is_empty() => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    let body = shared.exposition();
    let mut stream = stream;
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.flush();
}

/// One TCP connection: lines in, responses out, until EOF or drain. Reads
/// run under a 100ms timeout so drain is noticed promptly.
fn conn_loop(shared: &Arc<Shared>, stream: std::net::TcpStream, client: &str, out: &Out) {
    let mut reader = std::io::BufReader::new(stream);
    let mut buf = String::new();
    loop {
        if shared.is_draining() {
            break;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with('\n') => {
                let line = buf.trim().to_owned();
                buf.clear();
                if line.is_empty() {
                    continue;
                }
                if shared.handle_line(&line, client, out) == Flow::Shutdown {
                    break;
                }
            }
            // Timeout with a partial line buffered: keep accumulating.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || drain_requested()
    }

    /// Bumps a daemon-level counter on BOTH sinks: the global recorder
    /// (daemon-lifetime `--report-out` report) and the internal telemetry
    /// registry (the `metrics` exposition and [`RunSummary`]). Keeping
    /// every daemon-level emission behind this helper is what makes the
    /// two totals provably equal. The recorder is written directly, past
    /// any enclosing [`obs::capture`]: an eviction is tallied inside the
    /// handler that caused it, and a request's delta is replayed into the
    /// registry as well, so a buffered tally would count there twice.
    fn tally(&self, c: Counter, n: u64) {
        if let Some(r) = obs::installed() {
            r.add(c, n);
        }
        self.telemetry.registry.add(c, n);
    }

    /// Histogram twin of [`Self::tally`].
    fn sample(&self, h: Hist, v: u64) {
        if let Some(r) = obs::installed() {
            r.observe(h, v);
        }
        self.telemetry.registry.observe(h, v);
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.cond.notify_all();
    }

    fn summary(&self) -> RunSummary {
        let count = |c| self.telemetry.registry.counter(c);
        RunSummary {
            admitted: count(Counter::RequestsAdmitted),
            completed: count(Counter::RequestsCompleted),
            shed: count(Counter::RequestsShed),
            panicked: count(Counter::RequestsPanicked),
            timed_out: count(Counter::RequestsTimedOut),
            evicted: count(Counter::ProgramsEvicted),
        }
    }

    /// Dispatches one request line: cheap methods answer inline on the
    /// transport thread; analysis methods go through admission control into
    /// the pending queue.
    fn handle_line(self: &Arc<Self>, line: &str, default_client: &str, out: &Out) -> Flow {
        let req = match parse_request(line, default_client) {
            Ok(r) => r,
            Err(e) => {
                write_line(out, &err_response(&Value::Null, &e));
                return Flow::Continue;
            }
        };
        match req.method.as_str() {
            "health" => {
                let body = self.health_body();
                write_line(out, &ok_response(&req.id, body));
                Flow::Continue
            }
            "shutdown" => {
                self.begin_drain();
                write_line(
                    out,
                    &ok_response(
                        &req.id,
                        Value::Obj(vec![("draining".to_owned(), Value::Bool(true))]),
                    ),
                );
                Flow::Shutdown
            }
            // `evict` goes through the queue (not inline) so it stays FIFO
            // with the analysis requests that precede it.
            "load_program" | "edit" | "analyze" | "query_edge" | "evict" => {
                self.admit(req, out, false);
                Flow::Continue
            }
            // The observability plane also stays FIFO with analysis
            // requests (a `metrics` response reflects everything admitted
            // before it) but is *privileged*: it bypasses the token bucket
            // and the queue cap, because the telemetry that explains an
            // overload must stay readable during one.
            "metrics" | "slowlog" => {
                self.admit(req, out, true);
                Flow::Continue
            }
            other => {
                let e = ServeError::bad_request(format!("unknown method {other:?}"));
                write_line(out, &err_response(&req.id, &e));
                Flow::Continue
            }
        }
    }

    /// Per-resident decision-store sizes, name-sorted, plus their total.
    fn store_sizes(&self) -> (Vec<(String, u64)>, u64) {
        let residency = self.residency.lock().unwrap();
        let mut sizes: Vec<(String, u64)> = residency
            .map
            .iter()
            .map(|(n, r)| (n.clone(), r.store.as_ref().map_or(0, |s| s.file_bytes())))
            .collect();
        sizes.sort();
        let total = sizes.iter().map(|(_, b)| b).sum();
        (sizes, total)
    }

    fn health_body(&self) -> Value {
        let (sizes, store_bytes) = self.store_sizes();
        let programs = Value::Arr(sizes.iter().map(|(n, _)| Value::str(n.clone())).collect());
        let stores = Value::Obj(sizes.into_iter().map(|(n, b)| (n, Value::uint(b))).collect());
        let depth = self.queue.lock().unwrap().len();
        let uptime = self.started.elapsed();
        Value::Obj(vec![
            ("programs".to_owned(), programs),
            ("stores".to_owned(), stores),
            ("store_bytes".to_owned(), Value::uint(store_bytes)),
            ("queue_depth".to_owned(), Value::uint(depth as u64)),
            ("active".to_owned(), Value::uint(self.active.load(Ordering::Relaxed) as u64)),
            ("draining".to_owned(), Value::Bool(self.is_draining())),
            ("uptime_ms".to_owned(), Value::uint(uptime.as_millis() as u64)),
            ("uptime_s".to_owned(), Value::uint(uptime.as_secs())),
        ])
    }

    /// The Prometheus text exposition: daemon gauges, recent-window
    /// quantiles, and every counter/histogram in the telemetry registry.
    fn exposition(&self) -> String {
        let mut p = obs::prom::PromText::new();
        let (_, store_bytes) = self.store_sizes();
        let resident = self.residency.lock().unwrap().map.len();
        p.gauge("thresher_serve_resident_programs", "programs currently resident", resident as f64);
        p.gauge(
            "thresher_serve_store_bytes",
            "total bytes of resident decision stores",
            store_bytes as f64,
        );
        p.gauge(
            "thresher_serve_queue_depth",
            "pending requests in the queue",
            self.queue.lock().unwrap().len() as f64,
        );
        p.gauge(
            "thresher_serve_active_requests",
            "requests currently executing",
            self.active.load(Ordering::Relaxed) as f64,
        );
        p.gauge(
            "thresher_serve_uptime_seconds",
            "seconds since the daemon started",
            self.started.elapsed().as_secs_f64(),
        );
        p.gauge(
            "thresher_serve_draining",
            "1 while the daemon is draining",
            u64::from(self.is_draining()) as f64,
        );
        self.telemetry.windows_into(&mut p);
        p.registry("thresher_", &self.telemetry.registry);
        p.finish()
    }

    /// Admission control: drain check, per-client token bucket, bounded
    /// queue. Shed requests get an immediate structured error with a
    /// backoff hint plus the recent queue-wait estimate; admitted requests
    /// are queued for the worker. Privileged (observability) requests skip
    /// the bucket and the queue cap — see [`Self::handle_line`].
    fn admit(self: &Arc<Self>, req: Request, out: &Out, privileged: bool) {
        if self.is_draining() {
            self.shed(&req, out, ServeError::draining());
            return;
        }
        if !privileged && !self.bucket_allow(&req.client) {
            self.shed(&req, out, ServeError::rate_limited(100));
            return;
        }
        let deadline_ms = req.params.get("deadline_ms").and_then(Value::as_u64);
        let deadline = Instant::now()
            + deadline_ms.map_or(self.config.request_deadline, Duration::from_millis);
        let mut queue = self.queue.lock().unwrap();
        if !privileged && queue.len() >= self.config.queue_cap {
            drop(queue);
            self.shed(&req, out, ServeError::overloaded(100));
            return;
        }
        // Tally BEFORE the push (still under the queue lock): the worker
        // that pops this job and renders the exposition must already see
        // it counted, so `requests_admitted` in a `metrics` response
        // deterministically includes the scrape itself.
        let depth = queue.len() as u64 + 1;
        self.tally(Counter::RequestsAdmitted, 1);
        self.sample(Hist::QueueDepth, depth);
        self.telemetry.record_queue_depth(depth);
        queue.push_back(Job { req, deadline, queued_at: Instant::now(), out: out.clone() });
        drop(queue);
        self.cond.notify_one();
    }

    fn shed(&self, req: &Request, out: &Out, e: ServeError) {
        // Shed responses carry the recent queue-wait estimate so a client
        // can tell a backed-up daemon (large) from a rate-limit blip
        // (small) without another round trip.
        let e = e.with_queue_wait(self.telemetry.queue_wait_hint_ms());
        self.tally(Counter::RequestsShed, 1);
        write_line(out, &err_response(&req.id, &e));
    }

    /// Takes one token from `client`'s bucket (refilled at
    /// [`ServeConfig::rate_per_sec`] up to [`ServeConfig::burst`]).
    fn bucket_allow(&self, client: &str) -> bool {
        let mut buckets = self.buckets.lock().unwrap();
        let now = Instant::now();
        let bucket = buckets
            .entry(client.to_owned())
            .or_insert_with(|| Bucket { tokens: self.config.burst, refilled: now });
        let elapsed = now.duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.config.rate_per_sec).min(self.config.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Looks up a resident program and touches its LRU stamp.
    fn resident(&self, name: &str) -> Result<Arc<Resident>, ServeError> {
        let mut residency = self.residency.lock().unwrap();
        residency.tick += 1;
        let tick = residency.tick;
        match residency.map.get(name) {
            Some(r) => {
                r.last_used.store(tick, Ordering::Relaxed);
                Ok(r.clone())
            }
            None => Err(ServeError::not_loaded(name)),
        }
    }

    /// Inserts (or replaces) a resident program, then enforces the
    /// residency bound by evicting least-recently-used entries.
    fn insert_resident(&self, name: &str, resident: Arc<Resident>) {
        let mut residency = self.residency.lock().unwrap();
        residency.tick += 1;
        let tick = residency.tick;
        resident.last_used.store(tick, Ordering::Relaxed);
        residency.map.insert(name.to_owned(), resident);
        while residency.map.len() > self.config.max_resident.max(1) {
            let victim = residency
                .map
                .iter()
                .min_by_key(|(_, r)| r.last_used.load(Ordering::Relaxed))
                .map(|(n, _)| n.clone());
            match victim {
                Some(n) => {
                    residency.map.remove(&n);
                    self.tally(Counter::ProgramsEvicted, 1);
                }
                None => break,
            }
        }
    }

    /// The engine configuration for one request: the default one-shot
    /// CLI configuration with the request's `budget`, clamped to
    /// [`MAX_REQUEST_BUDGET`]. Deliberately does NOT set
    /// `total_deadline`: the deadline duration is part of the decision
    /// fingerprint (`symex::persist`), so a per-request remaining-time value
    /// would give every request a unique fingerprint and starve the
    /// resident cache. Deadlines are enforced at the daemon level instead
    /// (queue-expiry pre-check, post-completion check) and the path-program
    /// budget bounds engine work; a request without `budget` runs exactly
    /// the default one-shot CLI configuration, so stores warm-start across
    /// both.
    fn engine_config(req: &Request) -> SymexConfig {
        let defaults = SymexConfig::default();
        let requested = req.params.get("budget").and_then(Value::as_u64);
        let budget = requested.unwrap_or(defaults.budget).min(MAX_REQUEST_BUDGET);
        SymexConfig { budget, ..defaults }
    }

    // ---- request handlers (run on a worker, inside capture+catch_unwind) ----

    fn execute(
        &self,
        req: &Request,
        deadline: Instant,
        phases: &mut Phases,
    ) -> Result<Value, ServeError> {
        match req.method.as_str() {
            "load_program" => self.do_load(req, phases),
            "edit" => self.do_edit(req, phases),
            "analyze" => self.do_analyze(req, deadline, phases),
            "query_edge" => self.do_query(req, deadline, phases),
            "evict" => {
                let name = param_str(req, "program")?;
                // Dropping the resident releases the points-to result and
                // the cross-edit fingerprint hashes; the response itemizes
                // what went with it.
                let removed = self.residency.lock().unwrap().map.remove(name);
                let (evicted, hashes_dropped) = match &removed {
                    Some(r) => (true, r.hashes.lock().unwrap().len() as u64),
                    None => (false, 0),
                };
                Ok(Value::Obj(vec![
                    ("evicted".to_owned(), Value::Bool(evicted)),
                    ("hashes_dropped".to_owned(), Value::uint(hashes_dropped)),
                ]))
            }
            "metrics" => Ok(Value::Obj(vec![
                ("format".to_owned(), Value::str("prometheus-text-0.0.4")),
                ("exposition".to_owned(), Value::str(self.exposition())),
            ])),
            "slowlog" => {
                let limit = req.params.get("limit").and_then(Value::as_u64).unwrap_or(32) as usize;
                let (enabled, path, entries) = match &self.telemetry.slow {
                    Some(log) => {
                        (true, Value::str(log.path().display().to_string()), log.read(limit.max(1)))
                    }
                    None => (false, Value::Null, Vec::new()),
                };
                Ok(Value::Obj(vec![
                    ("enabled".to_owned(), Value::Bool(enabled)),
                    ("path".to_owned(), path),
                    ("entries".to_owned(), Value::Arr(entries)),
                ]))
            }
            other => Err(ServeError::bad_request(format!("unknown method {other:?}"))),
        }
    }

    fn do_load(&self, req: &Request, phases: &mut Phases) -> Result<Value, ServeError> {
        let name = req
            .params
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::bad_request("load_program needs params.name"))?;
        let src = if let Some(s) = req.params.get("source").and_then(Value::as_str) {
            s.to_owned()
        } else if let Some(path) = req.params.get("path").and_then(Value::as_str) {
            std::fs::read_to_string(path)
                .map_err(|e| ServeError::internal(format!("cannot read {path}: {e}")))?
        } else {
            return Err(ServeError::bad_request("load_program needs params.source or params.path"));
        };
        let program = phases
            .time("parse", || tir::parse(&src))
            .map_err(|e| ServeError::bad_request(format!("parse error: {e}")))?;
        let (pta, modref) = phases.time("pta", || {
            let pta =
                pta::analyze_with(&program, ContextPolicy::Insensitive, &PtaOptions::default());
            let modref = ModRef::compute(&program, &pta);
            (pta, modref)
        });

        let (store, store_dir, cache) = phases.time("cache", || match &self.config.cache_root {
            Some(root) => {
                let dir = root.join(sanitize(name));
                match DecisionStore::open_with_limits(
                    &dir,
                    CacheMode::ReadWrite,
                    &program,
                    StoreLimits::with_max_bytes(self.config.cache_bytes_cap),
                ) {
                    Ok(s) => {
                        let desc = if s.lock_contended() { "read-only" } else { "read-write" };
                        (Some(Arc::new(s)), Some(dir), desc)
                    }
                    // A broken cache degrades the program to cold; it never
                    // fails the load.
                    Err(_) => (None, None, "off"),
                }
            }
            None => (None, None, "off"),
        });

        let locs = pta.locs().ids().count() as u64;
        let resident = Arc::new(Resident {
            program,
            pta,
            modref,
            store,
            store_dir,
            incr: Mutex::new(None),
            hashes: Mutex::new(MethodHashCache::new()),
            load_obs: Mutex::new(MetricsDelta::default()),
            last_used: AtomicU64::new(0),
        });
        self.insert_resident(name, resident);
        Ok(Value::Obj(vec![
            ("program".to_owned(), Value::str(name)),
            ("locs".to_owned(), Value::uint(locs)),
            ("cache".to_owned(), Value::str(cache)),
        ]))
    }

    /// Applies an edit batch to a resident program through the delta
    /// solver: the program is re-parsed *nowhere* — the batch mutates the
    /// resident TIR in place (transactionally), the incremental solver
    /// incorporates exactly the delta, mod/ref is computed afresh, and the
    /// fingerprint cache is refreshed so surviving refutations keep
    /// warm-hitting the decision store.
    fn do_edit(&self, req: &Request, phases: &mut Phases) -> Result<Value, ServeError> {
        let name = param_str(req, "program")?;
        let res = self.resident(name)?;
        let ops = parse_edit_ops(req)?;

        // Take (or lazily build) the resident delta solver. It moves from
        // the old resident to the new one; should this request fail
        // midway, the next edit rebuilds it with one full solve.
        let mut inc = match res.incr.lock().unwrap().take() {
            Some(inc) => inc,
            None => phases.time("pta", || {
                IncrementalPta::new(
                    &res.program,
                    ContextPolicy::Insensitive,
                    &PtaOptions::default(),
                )
            }),
        };

        // The batch's one copy of the program: `apply_edits` edits it in
        // place and rolls it back itself on failure.
        let mut program = res.program.clone();
        let applied = match phases.time("edit", || tir::apply_edits(&mut program, &ops)) {
            Ok(applied) => applied,
            Err(e) => {
                // The batch was rejected atomically; hand the solver back.
                *res.incr.lock().unwrap() = Some(inc);
                return Err(ServeError::bad_request(format!("edit rejected: {e}")));
            }
        };
        let stats = phases.time("edit", || inc.apply_edits(&program, &applied));
        let (pta, modref, hashes) = phases.time("pta", || {
            let pta = inc.result(&program);
            let modref = ModRef::compute(&program, &pta);
            // Refresh the fingerprint hash cache against the new state so
            // later requests attach the store without re-hashing anything.
            let mut hashes = std::mem::take(&mut *res.hashes.lock().unwrap());
            let config = SymexConfig::default();
            let _ = Fingerprinter::with_cache(
                &program,
                &pta,
                &config,
                &mut hashes,
                &stats.changed_methods,
            );
            (pta, modref, hashes)
        });

        let changed: Vec<Value> =
            stats.changed_methods.iter().map(|&m| Value::str(program.method_name(m))).collect();
        let body = Value::Obj(vec![
            ("program".to_owned(), Value::str(name)),
            ("applied".to_owned(), Value::uint(applied.len() as u64)),
            ("rebuilt".to_owned(), Value::Bool(stats.rebuilt)),
            ("propagations".to_owned(), Value::uint(stats.propagations)),
            ("dirty_nodes".to_owned(), Value::uint(stats.dirty_nodes as u64)),
            ("total_nodes".to_owned(), Value::uint(stats.total_nodes as u64)),
            ("changed_methods".to_owned(), Value::Arr(changed)),
            (
                "fingerprints".to_owned(),
                Value::Obj(vec![
                    ("hits".to_owned(), Value::uint(hashes.hits())),
                    ("recomputed".to_owned(), Value::uint(hashes.recomputed())),
                ]),
            ),
        ]);

        // Replace-on-edit: the new resident inherits the store (same
        // program name, fingerprints invalidate stale records), the delta
        // solver, and the refreshed hash cache.
        let resident = Arc::new(Resident {
            program,
            pta,
            modref,
            store: res.store.clone(),
            store_dir: res.store_dir.clone(),
            incr: Mutex::new(Some(inc)),
            hashes: Mutex::new(hashes),
            load_obs: Mutex::new(res.load_obs.lock().unwrap().clone()),
            last_used: AtomicU64::new(0),
        });
        self.insert_resident(name, resident);
        Ok(body)
    }

    fn do_query(
        &self,
        req: &Request,
        deadline: Instant,
        phases: &mut Phases,
    ) -> Result<Value, ServeError> {
        let name = param_str(req, "program")?;
        let res = self.resident(name)?;
        self.maybe_fault(req, &res, deadline)?;
        let global_name = param_str(req, "global")?;
        let loc_name = param_str(req, "loc")?;
        let global = res
            .program
            .global_by_name(global_name)
            .ok_or_else(|| ServeError::bad_request(format!("no global named {global_name}")))?;
        let target = res
            .pta
            .locs()
            .ids()
            .find(|&l| res.pta.loc_name(&res.program, l) == loc_name)
            .ok_or_else(|| {
                ServeError::bad_request(format!("no abstract location named {loc_name}"))
            })?;

        let config = Self::engine_config(req);
        phases.note_budget(config.budget);
        let mut sched =
            RefutationScheduler::new(&res.program, &res.pta, &res.modref, config, self.config.jobs);
        if let Some(store) = &res.store {
            // Attach through the cross-edit hash cache: after the first
            // request (or an edit) every per-method hash is a lookup.
            phases.time("cache", || {
                let mut hashes = res.hashes.lock().unwrap();
                sched.set_store_cached(store.clone(), &mut hashes, &[]);
            });
        }
        let mut view = HeapGraphView::new(&res.pta);
        let job = ReachJob { source: global, targets: BitSet::singleton(target.index()) };
        let outcome = phases.time("symex", || sched.run(&mut view, std::slice::from_ref(&job)));
        let verdict = outcome.verdicts.into_iter().next().expect("one verdict per job");
        let mut body = match verdict {
            JobVerdict::Refuted { refuted_edges } => vec![
                ("reachable".to_owned(), Value::Bool(false)),
                ("refuted_edges".to_owned(), Value::uint(refuted_edges.len() as u64)),
            ],
            JobVerdict::Witnessed { path, .. } => {
                let edges =
                    path.iter().map(|e| Value::str(e.describe(&res.program, &res.pta))).collect();
                vec![
                    ("reachable".to_owned(), Value::Bool(true)),
                    ("path".to_owned(), Value::Arr(edges)),
                ]
            }
        };
        body.push(("edge_timeouts".to_owned(), Value::uint(outcome.tally.edge_timeouts)));
        Ok(Value::Obj(body))
    }

    fn do_analyze(
        &self,
        req: &Request,
        deadline: Instant,
        phases: &mut Phases,
    ) -> Result<Value, ServeError> {
        let name = param_str(req, "program")?;
        let res = self.resident(name)?;
        self.maybe_fault(req, &res, deadline)?;
        // `"client": "null"` selects the null-dereference client; the
        // default remains the Activity-leak client (which needs the
        // Android model). Any other value is a usage error.
        match req.params.get("client").and_then(Value::as_str) {
            Some("null") => return self.do_analyze_null(req, &res, phases),
            Some("leaks") | None => {}
            Some(other) => {
                return Err(ServeError::bad_request(format!(
                    "unknown client {other:?} (expected: null or leaks)"
                )));
            }
        }
        if res.program.class_by_name("Activity").is_none() {
            return Err(ServeError::bad_request(format!(
                "program {name:?} has no Android library model (no class Activity); \
                 analyze needs one"
            )));
        }
        let config = Self::engine_config(req);
        phases.note_budget(config.budget);
        let mut client = android::LeakClient::new(&res.program, &res.pta, &res.modref, config)
            .with_jobs(self.config.jobs);
        if let Some(store) = &res.store {
            client = client.with_store(store.clone());
        }
        let report = phases.time("symex", || client.run());
        let alarms = report
            .alarms
            .iter()
            .map(|(alarm, result)| {
                Value::Obj(vec![
                    ("field".to_owned(), Value::str(res.program.global(alarm.field).name.clone())),
                    ("refuted".to_owned(), Value::Bool(result.is_refuted())),
                ])
            })
            .collect();
        Ok(Value::Obj(vec![
            ("alarms".to_owned(), Value::Arr(alarms)),
            ("num_alarms".to_owned(), Value::uint(report.num_alarms() as u64)),
            ("num_refuted".to_owned(), Value::uint(report.num_refuted() as u64)),
            ("edges_refuted".to_owned(), Value::uint(report.stats.edges_refuted as u64)),
            ("edges_witnessed".to_owned(), Value::uint(report.stats.edges_witnessed as u64)),
            ("edge_timeouts".to_owned(), Value::uint(report.stats.edge_timeouts as u64)),
        ]))
    }

    /// The `analyze` variant for `"client": "null"`: runs the
    /// null-dereference client against the resident analysis. The
    /// response body is [`crate::null::NullReport::to_value`] — stable
    /// across jobs/cache/solver — and the request's cost block reports
    /// the refutation time under `symex` like every other analyze.
    fn do_analyze_null(
        &self,
        req: &Request,
        res: &Resident,
        phases: &mut Phases,
    ) -> Result<Value, ServeError> {
        let config = Self::engine_config(req);
        phases.note_budget(config.budget);
        let mut client = crate::null::NullClient::new(&res.program, &res.pta, &res.modref, config)
            .with_jobs(self.config.jobs);
        if let Some(store) = &res.store {
            client = client.with_store(store.clone());
        }
        let report = phases.time("symex", || client.run());
        Ok(report.to_value(&res.program))
    }

    /// Honors a request's `"inject"` parameter (only with
    /// [`ServeConfig::inject`]; see [`faults`]).
    fn maybe_fault(
        &self,
        req: &Request,
        res: &Resident,
        deadline: Instant,
    ) -> Result<(), ServeError> {
        let Some(name) = req.params.get("inject").and_then(Value::as_str) else {
            return Ok(());
        };
        if !self.config.inject {
            return Err(ServeError::bad_request(
                "fault injection is disabled (start the daemon with --inject)",
            ));
        }
        let fault: Fault = name.parse().map_err(ServeError::bad_request)?;
        match fault {
            Fault::Panic => panic!("injected fault: panic"),
            Fault::Stall => {
                // A runaway request: blow through the deadline, then let the
                // post-completion check turn the answer into a deadline
                // error.
                let stop = deadline + Duration::from_millis(50);
                while Instant::now() < stop {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(())
            }
            Fault::CorruptCache | Fault::TornWrite => {
                let dir = res.store_dir.as_deref().ok_or_else(|| {
                    ServeError::bad_request("cache faults need a daemon cache (--cache-dir)")
                })?;
                let damage = match fault {
                    Fault::CorruptCache => faults::corrupt_store(dir),
                    _ => faults::tear_store(dir),
                };
                damage.map_err(|e| ServeError::internal(format!("fault injection failed: {e}")))
            }
        }
    }

    /// Builds the optional per-request [`RunReport`]: the program's load
    /// delta (so the report covers the same work as a one-shot run) plus
    /// this request's own delta, replayed into a fresh registry.
    fn request_report(&self, req: &Request, delta: &MetricsDelta) -> Value {
        let registry = Registry::new();
        if req.method != "load_program" {
            if let Some(name) = req.params.get("program").and_then(Value::as_str) {
                if let Some(res) = self.residency.lock().unwrap().map.get(name).cloned() {
                    res.load_obs.lock().unwrap().replay_into(&registry);
                }
            }
        }
        delta.replay_into(&registry);
        RunReport::from_registry(&registry, &[("tool", "thresher-serve")], 0, 0).to_value()
    }
}

/// The request-handler thread: pop, check the deadline, run the handler
/// inside capture + `catch_unwind`, commit the metrics delta, attach the
/// cost block, respond — and feed the telemetry plane (latency windows,
/// queue-wait samples, slow log) along the way.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(j) = queue.pop_front() {
                    break Some(j);
                }
                if shared.is_draining() {
                    break None;
                }
                let (q, _) = shared.cond.wait_timeout(queue, Duration::from_millis(100)).unwrap();
                queue = q;
            }
        };
        let Some(job) = job else { return };

        let queue_wait_us = u64::try_from(job.queued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared.sample(Hist::QueueWaitMicros, queue_wait_us);
        shared.telemetry.record_queue_wait(queue_wait_us);

        if Instant::now() >= job.deadline {
            shared.tally(Counter::RequestsTimedOut, 1);
            let e = ServeError::deadline("deadline expired while queued");
            write_line(&job.out, &err_response(&job.req.id, &e));
            continue;
        }

        shared.active.fetch_add(1, Ordering::Relaxed);
        let mut phases = Phases::start();
        // catch_unwind sits INSIDE the capture closure so a panicking
        // handler still yields its (discarded) delta instead of unwinding
        // through the capture machinery; the daemon-level serve counters
        // below are bumped outside the capture so they land on the global
        // recorder (and the telemetry registry), never in a per-request
        // report.
        let (result, delta) = obs::capture(|| {
            catch_unwind(AssertUnwindSafe(|| shared.execute(&job.req, job.deadline, &mut phases)))
        });
        shared.active.fetch_sub(1, Ordering::Relaxed);

        let wall_us = phases.elapsed_us();
        shared.sample(Hist::RequestMicros, wall_us);
        shared.telemetry.record_latency(&job.req.method, wall_us);

        let (line, outcome) = match result {
            Err(payload) => {
                shared.tally(Counter::RequestsPanicked, 1);
                let e = ServeError::panic(panic_message(payload.as_ref()));
                (err_response(&job.req.id, &e), "panic".to_owned())
            }
            Ok(Err(e)) => {
                if e.code == ErrorCode::Deadline {
                    shared.tally(Counter::RequestsTimedOut, 1);
                }
                (err_response(&job.req.id, &e), format!("err:{}", e.code.as_str()))
            }
            Ok(Ok(body)) => {
                if Instant::now() > job.deadline {
                    shared.tally(Counter::RequestsTimedOut, 1);
                    let e = ServeError::deadline("request completed after its deadline");
                    (err_response(&job.req.id, &e), "err:deadline".to_owned())
                } else {
                    // A successful request commits its buffered metrics to
                    // the global recorder AND the telemetry registry;
                    // failed requests discard theirs, so a contained panic
                    // can't half-apply. Both sinks see the same deltas,
                    // which is why exposition totals match report totals.
                    delta.replay();
                    delta.replay_into(&shared.telemetry.registry);
                    if job.req.method == "load_program" {
                        if let Some(name) = job.req.params.get("name").and_then(Value::as_str) {
                            if let Ok(res) = shared.resident(name) {
                                *res.load_obs.lock().unwrap() = delta.clone();
                            }
                        }
                    }
                    shared.tally(Counter::RequestsCompleted, 1);
                    let mut body = body;
                    if let Value::Obj(fields) = &mut body {
                        // Every queued method answers with its cost block;
                        // strip it before byte-comparing answers (it holds
                        // wall-clock times). The counts inside are delta-
                        // derived and jobs-invariant.
                        fields.push((
                            "cost".to_owned(),
                            cost_value(&delta, &phases, wall_us, queue_wait_us),
                        ));
                        if wants_report(&job.req) {
                            fields.push((
                                "report".to_owned(),
                                shared.request_report(&job.req, &delta),
                            ));
                        }
                    }
                    (ok_response(&job.req.id, body), "ok".to_owned())
                }
            }
        };

        // Slow-request forensics: any executed request (ok, error, or
        // contained panic) past the threshold leaves its span list + cost
        // block in the bounded JSONL log.
        if let Some(slow) = &shared.telemetry.slow {
            let threshold_us =
                u64::try_from(shared.config.slow_threshold.as_micros()).unwrap_or(u64::MAX);
            if wall_us >= threshold_us {
                let entry = Value::Obj(vec![
                    ("ts_us".to_owned(), Value::uint(obs::now_us())),
                    ("id".to_owned(), job.req.id.clone()),
                    ("method".to_owned(), Value::str(job.req.method.clone())),
                    ("client".to_owned(), Value::str(job.req.client.clone())),
                    ("outcome".to_owned(), Value::str(outcome)),
                    ("queue_wait_us".to_owned(), Value::uint(queue_wait_us)),
                    ("spans".to_owned(), phases.spans_value()),
                    ("cost".to_owned(), cost_value(&delta, &phases, wall_us, queue_wait_us)),
                ]);
                slow.append(&entry);
                shared.tally(Counter::RequestsSlow, 1);
            }
        }

        write_line(&job.out, &line);
    }
}

fn wants_report(req: &Request) -> bool {
    matches!(req.params.get("report"), Some(Value::Bool(true)))
}

/// Decodes `params.edits`: an array of `{op, ...}` objects mirroring
/// [`tir::EditOp`] — `add_stmt`/`replace_stmt` (`method`, `at`, `text`),
/// `remove_stmt` (`method`, `at`), `add_method` (`text`, optional
/// `class`), `remove_method` (`method`).
fn parse_edit_ops(req: &Request) -> Result<Vec<EditOp>, ServeError> {
    let arr = req
        .params
        .get("edits")
        .and_then(Value::as_arr)
        .ok_or_else(|| ServeError::bad_request("edit needs params.edits (array)"))?;
    if arr.is_empty() {
        return Err(ServeError::bad_request("edit needs a non-empty params.edits"));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            protocol::edit_op_from_value(v)
                .map_err(|e| ServeError::bad_request(format!("edits[{i}]: {e}")))
        })
        .collect()
}

fn param_str<'r>(req: &'r Request, key: &str) -> Result<&'r str, ServeError> {
    req.params
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::bad_request(format!("{} needs params.{key}", req.method)))
}

fn write_line(out: &Out, line: &str) {
    if let Ok(mut o) = out.lock() {
        let _ = writeln!(o, "{line}");
        let _ = o.flush();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Maps a program name onto a filesystem-safe cache-directory name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn load_line(id: u64) -> String {
        let params = Value::Obj(vec![
            ("name".to_owned(), Value::str("boxy")),
            ("source".to_owned(), Value::str(PROGRAM)),
        ]);
        Value::Obj(vec![
            ("id".to_owned(), Value::uint(id)),
            ("method".to_owned(), Value::str("load_program")),
            ("params".to_owned(), params),
        ])
        .to_json()
    }

    fn response_for(lines: &[String], id: u64) -> &str {
        lines
            .iter()
            .find(|l| {
                obs::json::parse(l).ok().and_then(|v| v.get("id").and_then(Value::as_u64))
                    == Some(id)
            })
            .unwrap_or_else(|| panic!("no response with id {id} in {lines:?}"))
    }

    #[test]
    fn load_query_health_shutdown() {
        let daemon = Daemon::new(ServeConfig::default());
        let script = format!(
            "{}\n\
             {{\"id\": 2, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"secret0\"}}}}\n\
             {{\"id\": 3, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"str0\"}}}}\n\
             {{\"id\": 4, \"method\": \"health\"}}\n\
             {{\"id\": 5, \"method\": \"shutdown\"}}\n",
            load_line(1)
        );
        let (lines, summary) = daemon.run_script(&script);
        let ok = |id| {
            obs::json::parse(response_for(&lines, id))
                .unwrap()
                .get("ok")
                .cloned()
                .unwrap_or_else(|| panic!("id {id} not ok: {lines:?}"))
        };
        assert_eq!(ok(1).get("program").and_then(Value::as_str), Some("boxy"));
        assert!(matches!(ok(2).get("reachable"), Some(Value::Bool(false))));
        assert!(matches!(ok(3).get("reachable"), Some(Value::Bool(true))));
        let health = ok(4);
        assert!(matches!(health.get("draining"), Some(Value::Bool(false))));
        assert!(matches!(ok(5).get("draining"), Some(Value::Bool(true))));
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.panicked, 0);
    }

    #[test]
    fn edit_updates_resident_analysis() {
        let daemon = Daemon::new(ServeConfig::default());
        // `b.item = secret;` lands before `$CACHE = b;` (ordinal 4), making
        // the previously-refuted CACHE → secret0 path witnessable.
        let script = format!(
            "{}\n\
             {{\"id\": 2, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"secret0\"}}}}\n\
             {{\"id\": 3, \"method\": \"edit\", \"params\": {{\"program\": \"boxy\", \"edits\": [{{\"op\": \"add_stmt\", \"method\": \"main\", \"at\": 4, \"text\": \"b.item = secret;\"}}]}}}}\n\
             {{\"id\": 4, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"secret0\"}}}}\n\
             {{\"id\": 5, \"method\": \"edit\", \"params\": {{\"program\": \"boxy\", \"edits\": [{{\"op\": \"remove_stmt\", \"method\": \"main\", \"at\": 4}}]}}}}\n\
             {{\"id\": 6, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"secret0\"}}}}\n\
             {{\"id\": 7, \"method\": \"edit\", \"params\": {{\"program\": \"boxy\", \"edits\": [{{\"op\": \"remove_stmt\", \"method\": \"main\", \"at\": 99}}]}}}}\n",
            load_line(1)
        );
        let (lines, summary) = daemon.run_script(&script);
        let parsed = |id| obs::json::parse(response_for(&lines, id)).unwrap();
        let ok = |id: u64| {
            parsed(id).get("ok").cloned().unwrap_or_else(|| panic!("id {id} not ok: {lines:?}"))
        };
        assert!(matches!(ok(2).get("reachable"), Some(Value::Bool(false))));
        let edit = ok(3);
        assert_eq!(edit.get("applied").and_then(Value::as_u64), Some(1));
        assert!(matches!(edit.get("rebuilt"), Some(Value::Bool(false))));
        assert!(matches!(ok(4).get("reachable"), Some(Value::Bool(true))));
        let edit = ok(5);
        assert!(matches!(edit.get("rebuilt"), Some(Value::Bool(true))));
        assert!(matches!(ok(6).get("reachable"), Some(Value::Bool(false))));
        // An invalid batch is rejected atomically and leaves the resident
        // program untouched.
        let err = parsed(7).get("err").cloned().expect("invalid edit errs");
        assert_eq!(err.get("code").and_then(Value::as_str), Some("bad-request"));
        assert_eq!(summary.completed, 6);
        assert_eq!(summary.panicked, 0);
    }

    #[test]
    fn unknown_method_and_bad_json_answer_inline() {
        let daemon = Daemon::new(ServeConfig::default());
        let (lines, summary) =
            daemon.run_script("{\"id\": 1, \"method\": \"transmogrify\"}\nnot json at all\n");
        assert_eq!(lines.len(), 2);
        assert!(response_for(&lines, 1).contains("bad-request"));
        assert!(lines.iter().any(|l| l.contains("invalid JSON")));
        assert_eq!(summary.admitted, 0);
    }

    #[test]
    fn rate_limit_sheds_with_hint() {
        let config = ServeConfig { rate_per_sec: 0.0, burst: 1.0, ..ServeConfig::default() };
        let daemon = Daemon::new(config);
        // Both name a program that is not loaded: the first is admitted and
        // fails with not-loaded, the second never gets a token.
        let (lines, summary) = daemon.run_script(
            "{\"id\": 1, \"method\": \"query_edge\", \"params\": {\"program\": \"ghost\", \"global\": \"G\", \"loc\": \"l\"}}\n\
             {\"id\": 2, \"method\": \"query_edge\", \"params\": {\"program\": \"ghost\", \"global\": \"G\", \"loc\": \"l\"}}\n",
        );
        assert!(response_for(&lines, 1).contains("not-loaded"));
        let shed = obs::json::parse(response_for(&lines, 2)).unwrap();
        let err = shed.get("err").expect("err");
        assert_eq!(err.get("code").and_then(Value::as_str), Some("rate-limited"));
        assert!(err.get("retry_after_ms").and_then(Value::as_u64).is_some());
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.shed, 1);
    }

    #[test]
    fn eviction_enforces_residency_bound() {
        let config = ServeConfig { max_resident: 2, ..ServeConfig::default() };
        let daemon = Daemon::new(config);
        let mut script = String::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let params = Value::Obj(vec![
                ("name".to_owned(), Value::str(*name)),
                ("source".to_owned(), Value::str(PROGRAM)),
            ]);
            let line = Value::Obj(vec![
                ("id".to_owned(), Value::uint(i as u64 + 1)),
                ("method".to_owned(), Value::str("load_program")),
                ("params".to_owned(), params),
            ])
            .to_json();
            script.push_str(&line);
            script.push('\n');
        }
        script.push_str("{\"id\": 9, \"method\": \"health\"}\n");
        // The health snapshot races the queued loads, so check the summary
        // instead of the inline response.
        let (_lines, summary) = daemon.run_script(&script);
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.evicted, 1);
    }

    #[test]
    fn injection_requires_opt_in() {
        let daemon = Daemon::new(ServeConfig::default());
        let script = format!(
            "{}\n\
             {{\"id\": 2, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"str0\", \"inject\": \"panic\"}}}}\n",
            load_line(1)
        );
        let (lines, summary) = daemon.run_script(&script);
        let v = obs::json::parse(response_for(&lines, 2)).unwrap();
        let err = v.get("err").expect("err");
        assert_eq!(err.get("code").and_then(Value::as_str), Some("bad-request"));
        assert_eq!(summary.panicked, 0);
    }

    #[test]
    fn contained_panic_keeps_serving() {
        let config = ServeConfig { inject: true, ..ServeConfig::default() };
        let daemon = Daemon::new(config);
        let script = format!(
            "{}\n\
             {{\"id\": 2, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"str0\", \"inject\": \"panic\"}}}}\n\
             {{\"id\": 3, \"method\": \"query_edge\", \"params\": {{\"program\": \"boxy\", \"global\": \"CACHE\", \"loc\": \"str0\"}}}}\n",
            load_line(1)
        );
        let (lines, summary) = daemon.run_script(&script);
        let v = obs::json::parse(response_for(&lines, 2)).unwrap();
        let err = v.get("err").expect("panicked request errs");
        assert_eq!(err.get("code").and_then(Value::as_str), Some("panic"));
        assert_eq!(err.get("stop_reason").and_then(Value::as_str), Some("panic"));
        let v = obs::json::parse(response_for(&lines, 3)).unwrap();
        assert!(matches!(v.get("ok").and_then(|o| o.get("reachable")), Some(Value::Bool(true))));
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.completed, 2);
    }
}
