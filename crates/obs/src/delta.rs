//! Captured metric deltas for deferred, deterministic accounting.
//!
//! The parallel refutation scheduler computes edge decisions speculatively
//! on worker threads, but only *commits* them — in the canonical sequential
//! order — on the coordinator. To keep report totals byte-identical across
//! thread counts, the metrics a speculative computation emits must not hit
//! the global recorder immediately: [`capture`] runs a closure with a
//! thread-local buffer installed, collecting every
//! [`add`](crate::add)/[`observe`](crate::observe) into a [`MetricsDelta`],
//! and [`MetricsDelta::replay`] applies the batch to the global recorder at
//! commit time. Trace events (spans, instants) are *not* buffered — they
//! pass straight to the ring and are excluded from determinism guarantees.
//!
//! A delta keeps what the [`Registry`] keeps: one total per counter and,
//! per histogram, log₂ bucket counts plus count, saturating sum and max.
//! Its size is therefore fixed — a few KB, allocated at the first
//! observation — however long the captured computation ran, and merging it
//! into a registry or an enclosing capture leaves exactly the state that
//! observing each value there would have. [`MetricsDelta::to_value`] and
//! [`MetricsDelta::from_value`] give it a JSON form, so a delta can be
//! stored and replayed by a later process (the persistent refutation
//! cache does this).

use std::cell::RefCell;

use crate::json::Value;
use crate::metrics::HistCounts;
use crate::{Counter, Hist, HistSnapshot, Registry};

/// A batch of counter increments and histogram observations, captured on
/// one thread and replayable later. Replaying the delta produces exactly
/// the same registry state as recording the original calls directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsDelta {
    counters: [u64; Counter::COUNT],
    /// Per-histogram state indexed by [`Hist::index`]; empty until the
    /// first observation, so a capture that observes nothing never
    /// allocates it.
    hists: Vec<HistCounts>,
}

impl Default for MetricsDelta {
    fn default() -> Self {
        MetricsDelta { counters: [0; Counter::COUNT], hists: Vec::new() }
    }
}

impl MetricsDelta {
    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none() && self.hists().next().is_none()
    }

    /// Captured total for counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Captured state of histogram `h`, in the registry's snapshot form.
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        self.hists.get(h.index()).map(HistCounts::snapshot).unwrap_or_default()
    }

    /// Adds `n` to counter `c` in this delta (saturating).
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] = self.counters[c.index()].saturating_add(n);
    }

    /// Records observation `v` into histogram `h` in this delta.
    pub fn observe(&mut self, h: Hist, v: u64) {
        self.hist_mut(h).observe(v);
    }

    fn hist_mut(&mut self, h: Hist) -> &mut HistCounts {
        if self.hists.is_empty() {
            self.hists = vec![HistCounts::ZERO; Hist::COUNT];
        }
        &mut self.hists[h.index()]
    }

    /// Non-zero counter totals, in declaration order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.counter(c))).filter(|&(_, n)| n > 0)
    }

    /// Histograms with at least one observation, in declaration order.
    pub(crate) fn hists(&self) -> impl Iterator<Item = (Hist, &HistCounts)> + '_ {
        Hist::ALL.iter().copied().zip(&self.hists).filter(|(_, counts)| counts.count > 0)
    }

    fn merge(&mut self, other: &MetricsDelta) {
        for (c, n) in other.counters() {
            self.add(c, n);
        }
        for (h, counts) in other.hists() {
            self.hist_mut(h).merge(counts);
        }
    }

    /// Applies the batch to the recording pipeline (a no-op when recording
    /// is disabled). A [`capture`] active on the calling thread absorbs it
    /// like any other emission — exactly once — so a higher-level consumer
    /// (e.g. a per-request report in `thresher-serve`) sees everything the
    /// scheduler commits beneath it. With no capture active, the batch goes
    /// to the installed recorder.
    pub fn replay(&self) {
        if !crate::enabled() {
            return;
        }
        if buffered(|d| d.merge(self)) {
            return;
        }
        if let Some(r) = crate::installed() {
            r.merge(self);
        }
    }

    /// Applies the batch to an explicit registry, independent of the
    /// global recorder or any capture — the rendering step for building a
    /// standalone [`RunReport`](crate::RunReport) out of captured deltas.
    pub fn replay_into(&self, registry: &Registry) {
        registry.merge(self);
    }

    /// The delta as JSON: non-zero counters by name, and each observed
    /// histogram by name as `{"sum","max","buckets":[[index, n], …]}` with
    /// only non-empty log₂ buckets listed (the count is their total).
    pub fn to_value(&self) -> Value {
        let counters = self.counters().map(|(c, n)| (c.name().to_owned(), Value::uint(n)));
        let hists = self.hists().map(|(h, counts)| (h.name().to_owned(), counts.to_value()));
        Value::Obj(vec![
            ("counters".to_owned(), Value::Obj(counters.collect())),
            ("hists".to_owned(), Value::Obj(hists.collect())),
        ])
    }

    /// Inverse of [`Self::to_value`]: `None` for an unknown counter or
    /// histogram name, a missing field, a non-`u64` number, a bucket index
    /// past the last bucket, or bucket counts whose total overflows.
    pub fn from_value(v: &Value) -> Option<MetricsDelta> {
        let mut d = MetricsDelta::default();
        for (name, n) in v.get("counters")?.as_obj()? {
            d.add(Counter::from_name(name)?, n.as_u64()?);
        }
        for (name, hv) in v.get("hists")?.as_obj()? {
            let h = Hist::from_name(name)?;
            let counts = HistCounts::from_value(hv)?;
            if counts.count > 0 {
                d.hist_mut(h).merge(&counts);
            }
        }
        Some(d)
    }
}

thread_local! {
    static CAPTURE: RefCell<Option<Box<MetricsDelta>>> = const { RefCell::new(None) };
}

/// Applies `f` to the active capture buffer, if any. Returns `true` when
/// one was active (the caller must then skip the recorder).
#[inline]
fn buffered(f: impl FnOnce(&mut MetricsDelta)) -> bool {
    CAPTURE.with(|cell| cell.borrow_mut().as_mut().map(|d| f(d)).is_some())
}

/// Routes `add` into the active capture buffer, if any.
#[inline]
pub(crate) fn buffered_add(c: Counter, n: u64) -> bool {
    buffered(|d| d.add(c, n))
}

/// Routes `observe` into the active capture buffer, if any.
#[inline]
pub(crate) fn buffered_observe(h: Hist, v: u64) -> bool {
    buffered(|d| d.observe(h, v))
}

/// Runs `f` with metric capture active on this thread: every counter add
/// and histogram observation `f` emits lands in the returned
/// [`MetricsDelta`] instead of the global recorder. Captures nest (the
/// innermost buffer wins). When recording is disabled, `f` runs without any
/// buffering and the delta is empty — the delta only matters for what the
/// recorder would have seen.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, MetricsDelta) {
    if !crate::enabled() {
        return (f(), MetricsDelta::default());
    }
    let prev = CAPTURE.with(|c| c.borrow_mut().replace(Box::default()));
    // Restore the previous buffer even if `f` unwinds, or every later
    // metric on this thread would be swallowed by a leaked buffer.
    struct Restore(Option<Box<MetricsDelta>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPTURE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let restore = Restore(prev);
    let r = f();
    let delta = CAPTURE.with(|c| c.borrow_mut().take()).map(|b| *b).unwrap_or_default();
    drop(restore);
    (r, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRecorder, RingCapacity};

    #[test]
    fn capture_buffers_and_replay_applies() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), delta) = capture(|| {
            crate::add(Counter::EdgesRefuted, 2);
            crate::observe(Hist::HeapCells, 5);
        });
        // Nothing reached the recorder yet.
        assert_eq!(rec.counter(Counter::EdgesRefuted), 0);
        assert_eq!(rec.histogram(Hist::HeapCells).count, 0);
        assert_eq!(delta.counter(Counter::EdgesRefuted), 2);
        assert_eq!(
            delta.histogram(Hist::HeapCells),
            HistSnapshot { count: 1, sum: 5, max: 5, buckets: vec![(4, 1)] }
        );
        assert!(!delta.is_empty());

        delta.replay();
        assert_eq!(rec.counter(Counter::EdgesRefuted), 2);
        assert_eq!(rec.histogram(Hist::HeapCells).count, 1);
        assert_eq!(rec.histogram(Hist::HeapCells).sum, 5);
        crate::uninstall();
    }

    #[test]
    fn captures_nest_and_restore() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), outer) = capture(|| {
            crate::add(Counter::SolverCalls, 1);
            let ((), inner) = capture(|| crate::add(Counter::SolverCalls, 10));
            assert_eq!(inner.counter(Counter::SolverCalls), 10);
            crate::add(Counter::SolverCalls, 2);
        });
        assert_eq!(outer.counter(Counter::SolverCalls), 3);
        assert_eq!(rec.counter(Counter::SolverCalls), 0);

        // After capture ends, metrics flow to the recorder again.
        crate::add(Counter::SolverCalls, 7);
        assert_eq!(rec.counter(Counter::SolverCalls), 7);
        crate::uninstall();
    }

    #[test]
    fn replay_respects_active_capture() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), inner) = capture(|| {
            crate::add(Counter::EdgesRefuted, 4);
            crate::observe(Hist::HeapCells, 9);
        });
        // Replaying inside an outer capture buffers instead of committing,
        // so a per-request capture sees scheduler-committed metrics.
        let ((), outer) = capture(|| inner.replay());
        assert_eq!(rec.counter(Counter::EdgesRefuted), 0);
        assert_eq!(outer.counter(Counter::EdgesRefuted), 4);
        assert_eq!(outer, inner);

        outer.replay();
        assert_eq!(rec.counter(Counter::EdgesRefuted), 4);
        crate::uninstall();
    }

    #[test]
    fn replay_into_targets_explicit_registry() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();
        let ((), delta) = capture(|| {
            crate::add(Counter::SolverCalls, 3);
            crate::observe(Hist::HeapCells, 2);
        });
        let reg = crate::Registry::new();
        delta.replay_into(&reg);
        assert_eq!(reg.counter(Counter::SolverCalls), 3);
        assert_eq!(reg.histogram(Hist::HeapCells).count, 1);
        // The global recorder stays untouched.
        assert_eq!(rec.counter(Counter::SolverCalls), 0);
        crate::uninstall();
    }

    /// A random observation stream over several histograms, biased toward
    /// the edges: zeros, `u64::MAX`, and values large enough that a few of
    /// them saturate the sum.
    fn random_observations(rng: &mut minicheck::Rng) -> Vec<(Hist, u64)> {
        const HISTS: [Hist; 4] =
            [Hist::SolverNanos, Hist::EdgeMicros, Hist::HeapCells, Hist::WitnessTraceLen];
        let n = rng.usize_in(0, 200);
        (0..n)
            .map(|_| {
                let h = HISTS[rng.below(HISTS.len())];
                let v = match rng.below(5) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::MAX / 3 + rng.next_u64() % 1024,
                    3 => rng.next_u64() % 5000,
                    _ => rng.next_u64(),
                };
                (h, v)
            })
            .collect()
    }

    fn assert_same_state(got: &Registry, want: &Registry, what: &str) {
        for &h in Hist::ALL {
            assert_eq!(got.histogram(h), want.histogram(h), "{what}: {}", h.name());
        }
        for &c in Counter::ALL {
            assert_eq!(got.counter(c), want.counter(c), "{what}: {}", c.name());
        }
    }

    #[test]
    fn merged_deltas_equal_direct_observation() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        minicheck::run_cases(200, |rng| {
            let obs = random_observations(rng);
            let emit = |chunk: &[(Hist, u64)]| {
                for &(h, v) in chunk {
                    crate::observe(h, v);
                    crate::add(Counter::SolverCalls, 1);
                }
            };
            let direct = Registry::new();
            for &(h, v) in &obs {
                direct.observe(h, v);
                direct.add(Counter::SolverCalls, 1);
            }

            // capture -> replay_into.
            let ((), delta) = capture(|| emit(&obs));
            let via_delta = Registry::new();
            delta.replay_into(&via_delta);
            assert_same_state(&via_delta, &direct, "capture/replay_into");

            // Inner captures over arbitrary splits, replayed inside an
            // outer capture: delta-into-delta merges stay exact too.
            let cut = rng.usize_in(0, obs.len());
            let ((), outer) = capture(|| {
                let ((), a) = capture(|| emit(&obs[..cut]));
                let ((), b) = capture(|| emit(&obs[cut..]));
                a.replay();
                b.replay();
            });
            let via_outer = Registry::new();
            outer.replay_into(&via_outer);
            assert_same_state(&via_outer, &direct, "nested replay");
            assert_eq!(outer, delta);

            // replay with no capture active reaches the recorder's merge.
            rec.reset();
            delta.replay();
            assert_same_state(rec.registry(), &direct, "replay to recorder");

            // The JSON form round-trips exactly.
            assert_eq!(MetricsDelta::from_value(&delta.to_value()), Some(delta.clone()));
        });
        crate::uninstall();
    }

    #[test]
    fn histogram_storage_is_allocated_at_first_observation() {
        let _serial = crate::test_lock();
        assert_eq!(MetricsDelta::default().hists.capacity(), 0);
        crate::uninstall();
        let ((), off) = capture(|| crate::observe(Hist::HeapCells, 1));
        assert_eq!(off.hists.capacity(), 0, "a capture with no recorder must not allocate");

        let _rec = MemRecorder::install_static(RingCapacity::default());
        let ((), counters_only) = capture(|| crate::add(Counter::SolverCalls, 3));
        assert_eq!(counters_only.hists.capacity(), 0);
        let ((), nested) = capture(|| counters_only.replay());
        assert_eq!(nested.hists.capacity(), 0, "merging a counters-only delta must not allocate");
        let ((), observed) = capture(|| crate::observe(Hist::HeapCells, 1));
        assert_eq!(observed.hists.len(), Hist::COUNT);
        crate::uninstall();
    }

    #[test]
    fn from_value_rejects_malformed_histograms() {
        let parse = |s: &str| MetricsDelta::from_value(&crate::json::parse(s).unwrap());
        let ok = r#"{"counters":{"solver_calls":2},
                     "hists":{"query_heap_cells":{"sum":5,"max":4,"buckets":[[1,1],[3,1]]}}}"#;
        let d = parse(ok).expect("well-formed delta parses");
        assert_eq!(d.counter(Counter::SolverCalls), 2);
        assert_eq!(
            d.histogram(Hist::HeapCells),
            HistSnapshot { count: 2, sum: 5, max: 4, buckets: vec![(1, 1), (4, 1)] }
        );
        for bad in [
            ok.replace("query_heap_cells", "no_such_hist"),
            ok.replace("solver_calls", "no_such_counter"),
            ok.replace("[3,1]", "[65,1]"),
            ok.replace("[3,1]", "[3,\"1\"]"),
            ok.replace("[3,1]", "[3,-1]"),
            ok.replace("[3,1]", "[3,18446744073709551615]"),
            ok.replace("\"sum\":5,", ""),
            ok.replace("\"hists\"", "\"histograms\""),
        ] {
            assert_eq!(parse(&bad), None, "accepted {bad}");
        }
    }

    #[test]
    fn capture_disabled_is_passthrough() {
        let _serial = crate::test_lock();
        crate::uninstall();
        let (v, delta) = capture(|| {
            crate::add(Counter::SolverCalls, 1);
            42
        });
        assert_eq!(v, 42);
        assert!(delta.is_empty());
    }
}
