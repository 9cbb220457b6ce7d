//! # obs — tracing, metrics, and machine-readable run reports
//!
//! A zero-dependency observability layer for the refutation pipeline. It
//! provides three cooperating pieces:
//!
//! - **hierarchical spans** ([`span`]/[`SpanGuard`]) with monotonic
//!   timestamps taken from one process-wide epoch, recorded into a bounded
//!   in-memory ring buffer and exportable as Chrome trace-event JSON
//!   (loadable in Perfetto or `chrome://tracing`);
//! - **typed counters and log-scale histograms** ([`Counter`], [`Hist`])
//!   aggregated into a versioned machine-readable [`RunReport`];
//! - one process-global [`MemRecorder`], absent by default, so every
//!   instrumented hot path costs exactly one relaxed atomic load and one
//!   branch — and performs **no allocation** — when no recorder is
//!   installed.
//!
//! ## Design
//!
//! The recorder is process-global, like the `log` crate's logger: library
//! crates emit events unconditionally and the binary decides whether to
//! record them. [`install`] takes a `'static` recorder and stores a plain
//! pointer to it, which keeps the hot-path read a single atomic pointer
//! load with no reference counting; [`uninstall`] merely flips the enabled
//! flag.
//!
//! Spans are recorded as *complete* events (start + duration) when the
//! guard drops, so the ring buffer sees one entry per span and balance is
//! structural rather than enforced. Nesting is carried both implicitly
//! (timestamp containment per thread) and explicitly (a per-thread depth
//! counter stored in each event).
//!
//! ```
//! use obs::{Counter, Hist, MemRecorder, SpanKind};
//!
//! let _serial = obs::test_lock(); // tests share the global recorder
//! let rec = MemRecorder::install_static(obs::RingCapacity::default());
//! {
//!     let _run = obs::span(SpanKind::Run, "demo");
//!     obs::add(Counter::EdgesRefuted, 2);
//!     obs::observe(Hist::HeapCells, 7);
//! }
//! assert_eq!(rec.counter(Counter::EdgesRefuted), 2);
//! let report = rec.run_report(&[("program", "demo.tir")]);
//! assert_eq!(report.counter("edges_refuted"), Some(2));
//! obs::uninstall();
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod prom;

mod delta;
mod event;
mod mem;
mod metrics;
mod report;
mod trace;
mod window;

pub use delta::{capture, MetricsDelta};
pub use event::{SpanKind, TraceEvent};
pub use mem::{MemRecorder, RingCapacity};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Hist, HistSnapshot, Registry,
};
pub use report::RunReport;
pub use trace::chrome_trace_json;
pub use window::SlidingWindow;

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed recorder; only ever set from a `&'static MemRecorder`.
static RECORDER: AtomicPtr<MemRecorder> = AtomicPtr::new(ptr::null_mut());

/// Installs `recorder` as the process-global sink.
pub fn install(recorder: &'static MemRecorder) {
    RECORDER.store(ptr::from_ref(recorder).cast_mut(), Ordering::Release);
    ENABLED.store(true, Ordering::Release);
}

/// Disables recording. The previously installed recorder stays reachable
/// to in-flight callers (it is never freed), so this is race-free.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
}

/// True when a recorder is installed and enabled. This is the one branch
/// every disabled-path instrumentation site pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed recorder, if recording is enabled.
#[inline]
pub fn installed() -> Option<&'static MemRecorder> {
    if !enabled() {
        return None;
    }
    // SAFETY: a non-null `RECORDER` was stored by `install` from a
    // `&'static MemRecorder`, so it is valid for the rest of the process
    // lifetime and is only ever read through shared references.
    unsafe { RECORDER.load(Ordering::Acquire).as_ref() }
}

/// Adds `n` to counter `c` on the installed recorder, if any. Inside an
/// active [`capture`] on this thread, the add is buffered into the capture's
/// [`MetricsDelta`] instead.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    if delta::buffered_add(c, n) {
        return;
    }
    if let Some(r) = installed() {
        r.add(c, n);
    }
}

/// Records observation `v` into histogram `h` on the installed recorder.
/// Inside an active [`capture`] on this thread, the observation is buffered
/// into the capture's [`MetricsDelta`] instead.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if !enabled() {
        return;
    }
    if delta::buffered_observe(h, v) {
        return;
    }
    if let Some(r) = installed() {
        r.observe(h, v);
    }
}

/// Starts a timer iff recording is enabled (so the disabled path never
/// reads the clock). Pair with [`observe_elapsed_ns`]/[`observe_elapsed_us`].
#[inline]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records the nanoseconds elapsed since [`timer`] into `h`.
#[inline]
pub fn observe_elapsed_ns(h: Hist, t: Option<Instant>) {
    if let Some(t0) = t {
        observe(h, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Records the microseconds elapsed since [`timer`] into `h`.
#[inline]
pub fn observe_elapsed_us(h: Hist, t: Option<Instant>) {
    if let Some(t0) = t {
        observe(h, u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
}

// ---------------------------------------------------------------------
// Timestamps and per-thread state
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide epoch (the first call wins the
/// epoch). Monotonic across all threads.
pub fn now_us() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// A small dense id for the current thread (stable for the thread's
/// lifetime), used as the Chrome trace `tid`.
pub fn thread_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// RAII guard for one span: records a complete trace event (start time +
/// duration) when dropped. Inert (and allocation-free) when no recorder is
/// installed.
#[must_use = "a span ends when the guard drops; binding it to _ ends it immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    kind: SpanKind,
    label: String,
    start_us: u64,
    depth: u16,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if let Some(r) = installed() {
            r.event(TraceEvent {
                kind: a.kind,
                label: a.label,
                ts_us: a.start_us,
                dur_us: now_us().saturating_sub(a.start_us),
                tid: thread_tid(),
                depth: a.depth,
                instant: false,
            });
        }
    }
}

/// Starts a span with a static label. See [`span_with`] for computed
/// labels.
#[inline]
pub fn span(kind: SpanKind, label: &str) -> SpanGuard {
    span_with(kind, || label.to_owned())
}

/// Starts a span whose label is computed only when a recorder is installed
/// and accepts spans of this `kind` — the disabled path never runs `label`.
#[inline]
pub fn span_with(kind: SpanKind, label: impl FnOnce() -> String) -> SpanGuard {
    let Some(r) = installed() else { return SpanGuard(None) };
    if !r.span_enabled(kind) {
        return SpanGuard(None);
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v.saturating_add(1));
        v
    });
    SpanGuard(Some(ActiveSpan { kind, label: label(), start_us: now_us(), depth }))
}

/// Records an instant (zero-duration) event, e.g. a diagnostic message.
/// The label closure only runs when a recorder accepts the event.
#[inline]
pub fn instant_with(kind: SpanKind, label: impl FnOnce() -> String) {
    let Some(r) = installed() else { return };
    if !r.span_enabled(kind) {
        return;
    }
    r.event(TraceEvent {
        kind,
        label: label(),
        ts_us: now_us(),
        dur_us: 0,
        tid: thread_tid(),
        depth: DEPTH.with(|d| d.get()),
        instant: true,
    });
}

// ---------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests that install a global recorder. Every test touching
/// [`install`]/[`uninstall`] must hold this guard for its whole body, or
/// concurrently running tests will observe each other's events.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_inert() {
        let _serial = test_lock();
        uninstall();
        assert!(!enabled());
        assert!(installed().is_none());
        add(Counter::EdgesRefuted, 1);
        observe(Hist::HeapCells, 3);
        assert!(timer().is_none());
        observe_elapsed_ns(Hist::SolverNanos, None);
        let g = span(SpanKind::Edge, "nope");
        drop(g);
        instant_with(SpanKind::Message, || unreachable!("label must not be computed"));
    }

    #[test]
    fn span_with_skips_label_when_disabled() {
        let _serial = test_lock();
        uninstall();
        let g = span_with(SpanKind::Edge, || unreachable!("label must not be computed"));
        drop(g);
    }

    #[test]
    fn thread_ids_are_nonzero_and_stable() {
        let a = thread_tid();
        let b = thread_tid();
        assert_ne!(a, 0);
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(other, a);
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
