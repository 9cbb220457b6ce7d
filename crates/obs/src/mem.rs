//! The in-memory recorder: a metric registry plus a bounded event ring.

use crate::{Counter, Hist, HistSnapshot, MetricsDelta, Registry, RunReport, SpanKind, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the [`MemRecorder`] event ring, in events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingCapacity(pub usize);

impl Default for RingCapacity {
    /// 64k events — enough for every corpus program at full span
    /// granularity, ~6 MiB worst case.
    fn default() -> Self {
        RingCapacity(64 * 1024)
    }
}

/// The recorder: metrics land in an atomic [`Registry`],
/// trace events in a bounded ring that keeps the *oldest* events (the run
/// skeleton — outer spans complete last but start first, and dropping the
/// newest keeps the drop set contiguous). Dropped events are counted so the
/// exporter can say so.
pub struct MemRecorder {
    registry: Registry,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    /// When false, fine-grained span kinds are skipped at the source.
    record_fine: bool,
}

struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Distinct thread ids that emitted events (dropped ones included).
    tids: std::collections::HashSet<u32>,
}

impl MemRecorder {
    /// Creates a recorder with the given ring capacity, recording all span
    /// kinds.
    pub fn new(capacity: RingCapacity) -> Self {
        MemRecorder {
            registry: Registry::new(),
            ring: Mutex::new(Ring {
                events: Vec::new(),
                capacity: capacity.0,
                tids: std::collections::HashSet::new(),
            }),
            dropped: AtomicU64::new(0),
            record_fine: true,
        }
    }

    /// Creates a recorder that skips fine-grained span kinds
    /// ([`SpanKind::is_fine_grained`]); metrics are unaffected.
    pub fn coarse(capacity: RingCapacity) -> Self {
        MemRecorder { record_fine: false, ..MemRecorder::new(capacity) }
    }

    /// Leaks a fresh recorder, installs it globally, and returns it — the
    /// one-line setup for binaries and tests. Callers that cycle recorders
    /// (tests) must hold [`crate::test_lock`].
    pub fn install_static(capacity: RingCapacity) -> &'static MemRecorder {
        let rec: &'static MemRecorder = Box::leak(Box::new(MemRecorder::new(capacity)));
        crate::install(rec);
        rec
    }

    /// The metric registry (shared with any other readers).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.registry.counter(c)
    }

    /// Snapshot of histogram `h`.
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        self.registry.histogram(h)
    }

    /// A copy of the recorded events, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).events.clone()
    }

    /// Events discarded because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Distinct threads that emitted trace events (dropped events count the
    /// thread too) — with worker pools this tells whether trace truncation
    /// hit a run that fanned out.
    pub fn trace_threads(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).tids.len() as u64
    }

    /// Builds a versioned [`RunReport`] from the current metrics. `meta`
    /// carries free-form run identification (program name, client, config).
    pub fn run_report(&self, meta: &[(&str, &str)]) -> RunReport {
        RunReport::from_registry(&self.registry, meta, self.dropped_events(), self.trace_threads())
    }

    /// Serializes the recorded events as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        crate::chrome_trace_json(&self.events())
    }

    /// Zeroes metrics, the ring, and the dropped-event count.
    pub fn reset(&self) {
        self.registry.reset();
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.events.clear();
        ring.tids.clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.registry.add(c, n);
    }

    /// Records one observation `v` into histogram `h`.
    pub fn observe(&self, h: Hist, v: u64) {
        self.registry.observe(h, v);
    }

    /// Applies a captured batch of counter totals and histogram state
    /// ([`MetricsDelta::replay`]), as if its original calls were recorded
    /// here.
    pub(crate) fn merge(&self, delta: &MetricsDelta) {
        self.registry.merge(delta);
    }

    /// Records one completed span or instant event.
    pub(crate) fn event(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.tids.insert(ev.tid);
        if ring.events.len() < ring.capacity {
            ring.events.push(ev);
        } else {
            drop(ring);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether spans of `kind` should be materialized at all; `false`
    /// skips label formatting for high-frequency kinds.
    pub(crate) fn span_enabled(&self, kind: SpanKind) -> bool {
        self.record_fine || !kind.is_fine_grained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &str, ts_us: u64) -> TraceEvent {
        TraceEvent {
            kind: SpanKind::Edge,
            label: label.to_owned(),
            ts_us,
            dur_us: 1,
            tid: 1,
            depth: 0,
            instant: false,
        }
    }

    #[test]
    fn ring_keeps_oldest_and_counts_drops() {
        let rec = MemRecorder::new(RingCapacity(2));
        rec.event(ev("a", 0));
        rec.event(ev("b", 1));
        rec.event(ev("c", 2));
        let kept: Vec<String> = rec.events().into_iter().map(|e| e.label).collect();
        assert_eq!(kept, ["a", "b"]);
        assert_eq!(rec.dropped_events(), 1);
        rec.reset();
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn coarse_recorder_skips_fine_kinds() {
        let rec = MemRecorder::coarse(RingCapacity::default());
        assert!(rec.span_enabled(SpanKind::Edge));
        assert!(!rec.span_enabled(SpanKind::SolverCall));
        let full = MemRecorder::new(RingCapacity::default());
        assert!(full.span_enabled(SpanKind::SolverCall));
    }

    #[test]
    fn metrics_flow_through_recorder() {
        let rec = MemRecorder::new(RingCapacity::default());
        rec.add(Counter::SolverCalls, 3);
        rec.observe(Hist::SolverNanos, 100);
        assert_eq!(rec.counter(Counter::SolverCalls), 3);
        assert_eq!(rec.histogram(Hist::SolverNanos).count, 1);
    }
}
