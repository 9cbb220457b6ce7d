//! `thresher-serve` — the resident analysis daemon (see `thresher::serve`).
//!
//! ```text
//! thresher-serve [options]
//!
//! options:
//!   --listen <addr:port>       additionally accept TCP clients (newline-
//!                              delimited JSON, same protocol as stdio)
//!   --jobs <N>                 refutation threads per request (default 1)
//!   --queue-cap <N>            pending-queue bound; beyond it requests are
//!                              shed with retry_after_ms (default 64)
//!   --max-resident <N>         resident-program bound, LRU eviction
//!                              (default 8)
//!   --deadline-ms <N>          default per-request deadline (default 60000;
//!                              params.deadline_ms overrides per request)
//!   --rate <N>                 per-client token-bucket refill, requests/s
//!                              (default 100)
//!   --burst <N>                per-client token-bucket capacity
//!                              (default 200)
//!   --cache-dir <DIR>          root for per-program persistent decision
//!                              stores (default: no cache)
//!   --cache-bytes <N>          per-program store byte cap; past it the
//!                              store compacts, keeping recently hit
//!                              records (default 4194304)
//!   --inject                   honor the "inject" request parameter
//!                              (fault injection; dev/test only)
//!   --report-out <path>        write the daemon-lifetime RunReport JSON on
//!                              exit
//!   --metrics-addr <addr:port> serve Prometheus text exposition
//!                              (counters, gauges, histogram buckets,
//!                              sliding-window quantiles) over HTTP GET
//!   --slow-log <path>          append span tree + cost block of slow
//!                              requests to a bounded JSONL file
//!   --slow-threshold-ms <N>    requests at or above this wall time go to
//!                              the slow log (default 1000)
//!   --slow-log-bytes <N>       slow-log size cap; past it the oldest half
//!                              is truncated away (default 1048576)
//!
//! The daemon serves requests from stdin and answers on stdout, one JSON
//! object per line (see thresher::serve::protocol). One worker executes
//! queued requests in arrival order; a request's path-program budget is
//! params.budget (default 10000, at most 20000). It exits — after
//! finishing queued and in-flight work — on stdin EOF, a "shutdown"
//! request, or SIGTERM, with exit code 0; startup errors use the exit
//! contract in thresher::exit (64 usage, 74 I/O).
//! ```

use std::process::ExitCode;

use thresher::exit;
use thresher::obs::{MemRecorder, RingCapacity};
use thresher::serve::{request_drain, Daemon, ServeConfig};

struct Options {
    config: ServeConfig,
    listen: Option<String>,
    metrics_addr: Option<String>,
    report_out: Option<String>,
}

fn next_num(args: &mut impl Iterator<Item = String>, what: &str) -> Result<u64, String> {
    let n = args.next().ok_or(format!("{what} needs a number"))?;
    n.parse().map_err(|_| format!("bad {what} value {n}"))
}

fn parse_args() -> Result<Options, String> {
    let mut config = ServeConfig::default();
    let mut listen = None;
    let mut metrics_addr = None;
    let mut report_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => {
                listen = Some(args.next().ok_or("--listen needs <addr:port>")?);
            }
            "--jobs" => config.jobs = next_num(&mut args, "--jobs")?.max(1) as usize,
            "--queue-cap" => config.queue_cap = next_num(&mut args, "--queue-cap")? as usize,
            "--max-resident" => {
                config.max_resident = next_num(&mut args, "--max-resident")?.max(1) as usize;
            }
            "--deadline-ms" => {
                config.request_deadline =
                    std::time::Duration::from_millis(next_num(&mut args, "--deadline-ms")?);
            }
            "--rate" => config.rate_per_sec = next_num(&mut args, "--rate")? as f64,
            "--burst" => config.burst = next_num(&mut args, "--burst")?.max(1) as f64,
            "--cache-dir" => {
                config.cache_root =
                    Some(args.next().ok_or("--cache-dir needs a directory")?.into());
            }
            "--cache-bytes" => config.cache_bytes_cap = next_num(&mut args, "--cache-bytes")?,
            "--inject" => config.inject = true,
            "--report-out" => {
                report_out = Some(args.next().ok_or("--report-out needs a path")?);
            }
            "--metrics-addr" => {
                metrics_addr = Some(args.next().ok_or("--metrics-addr needs <addr:port>")?);
            }
            "--slow-log" => {
                config.slow_log = Some(args.next().ok_or("--slow-log needs a path")?.into());
            }
            "--slow-threshold-ms" => {
                config.slow_threshold =
                    std::time::Duration::from_millis(next_num(&mut args, "--slow-threshold-ms")?);
            }
            "--slow-log-bytes" => {
                config.slow_log_bytes_cap = next_num(&mut args, "--slow-log-bytes")?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options { config, listen, metrics_addr, report_out })
}

/// Routes SIGTERM to the drain flag. `signal(2)` with a plain function
/// pointer is the one installation path that needs no libc binding beyond
/// the symbol itself, and the handler body is a single atomic store —
/// async-signal-safe. glibc's `signal` applies SA_RESTART, so a blocked
/// stdin read continues; the drain takes effect at the next line or EOF.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        request_drain();
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exit::USAGE);
        }
    };

    // The recorder is always installed, not just under --report-out:
    // per-request cost blocks, the metrics exposition, and the slow log are
    // all carved out of captured deltas, and obs::capture only buffers
    // while a recorder is live.
    let recorder = MemRecorder::install_static(RingCapacity::default());

    install_sigterm_handler();

    let daemon = Daemon::new(opts.config);
    if let Some(addr) = &opts.listen {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                return ExitCode::from(exit::IOERR);
            }
        };
        if let Err(e) = daemon.start_listener(listener) {
            eprintln!("error: cannot start listener on {addr}: {e}");
            return ExitCode::from(exit::IOERR);
        }
        eprintln!("thresher-serve: listening on {addr}");
    }
    if let Some(addr) = &opts.metrics_addr {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                return ExitCode::from(exit::IOERR);
            }
        };
        if let Err(e) = daemon.start_metrics_listener(listener) {
            eprintln!("error: cannot start metrics listener on {addr}: {e}");
            return ExitCode::from(exit::IOERR);
        }
        eprintln!("thresher-serve: metrics on {addr}");
    }

    let stdin = std::io::stdin();
    let summary = daemon.run(stdin.lock(), std::io::stdout());
    // Resident programs (and their decision stores, flushing appends and
    // releasing advisory locks) drop here, before the final report.
    drop(daemon);

    eprintln!(
        "thresher-serve: drained; {} admitted, {} completed, {} shed, {} panicked, \
         {} timed out, {} evicted",
        summary.admitted,
        summary.completed,
        summary.shed,
        summary.panicked,
        summary.timed_out,
        summary.evicted,
    );

    if let Some(path) = &opts.report_out {
        let report = recorder.run_report(&[("tool", "thresher-serve")]);
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write report {path}: {e}");
            return ExitCode::from(exit::IOERR);
        }
        eprintln!("thresher-serve: report -> {path}");
    }
    ExitCode::from(exit::OK)
}
