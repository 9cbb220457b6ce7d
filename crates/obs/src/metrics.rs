//! Typed counters, log-scale histograms, and the atomic registry backing
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Value;
use crate::MetricsDelta;

macro_rules! metric_enum {
    ($(#[$meta:meta])* $vis:vis enum $enum_name:ident {
        $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $enum_name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $enum_name {
            /// Every variant, in declaration (and report) order.
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $enum_name::ALL.len();

            /// Stable snake_case name used in the [`RunReport`] schema.
            ///
            /// [`RunReport`]: crate::RunReport
            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name,)+
                }
            }

            /// Dense index of the variant.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Inverse of [`Self::name`]: resolves a stable snake_case
            /// name back to its variant (for deserializing persisted
            /// metric records).
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some($enum_name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

metric_enum! {
    /// Every counter the pipeline maintains. Adding a variant extends the
    /// report schema; renaming one is a schema break (bump the report
    /// version).
    pub enum Counter {
        // --- edge decisions (driver level) ---
        /// Edges proven infeasible.
        EdgesRefuted => "edges_refuted",
        /// Edges with a surviving path-program witness.
        EdgesWitnessed => "edges_witnessed",
        /// Edges whose search gave up (any [`StopReason`]).
        ///
        /// [`StopReason`]: https://docs.rs/thresher
        EdgesAborted => "edges_aborted",
        /// Path edges descheduled because an earlier edge of their path was
        /// already refuted (the path died before they were needed).
        EdgesDescheduled => "edges_descheduled",
        /// Aborts: fork budget exhausted.
        AbortForkBudget => "aborts_fork_budget",
        /// Aborts: work budget exhausted.
        AbortWorkBudget => "aborts_work_budget",
        /// Aborts: wall-clock deadline.
        AbortWallClock => "aborts_wall_clock",
        /// Aborts: caller depth cap.
        AbortCallerDepth => "aborts_caller_depth",
        /// Aborts: contained panic.
        AbortPanic => "aborts_panic",
        /// Aborts: solver failure.
        AbortSolverFailure => "aborts_solver_failure",
        /// Coarse retries after an aborted strict attempt.
        DegradedRetries => "degraded_retries",
        /// Edges decided only by a coarsened retry.
        DegradedDecisions => "degraded_decisions",
        // --- search internals (engine level) ---
        /// Path programs (query forks) explored.
        PathPrograms => "path_programs",
        /// Backwards command transfers applied.
        CmdsExecuted => "cmds_executed",
        /// Queries dropped by history subsumption.
        Subsumed => "subsumed",
        /// Loop-invariant fixed points run.
        LoopFixpoints => "loop_fixpoints",
        /// Loop widenings (pure constraints dropped past the iteration cap).
        LoopWidenings => "loop_widenings",
        /// Loop drop-all fallbacks (far past the iteration cap).
        LoopDropAllFallbacks => "loop_drop_all_fallbacks",
        /// Calls skipped via the frame rule (irrelevant mod/ref).
        CallsSkippedIrrelevant => "calls_skipped_irrelevant",
        /// Calls skipped for exceeding the stack bound.
        CallsSkippedDepth => "calls_skipped_depth",
        /// Refutations: empty `from` region.
        RefutedEmptyRegion => "refuted_empty_region",
        /// Refutations: separation contradiction.
        RefutedSeparation => "refuted_separation",
        /// Refutations: pure-constraint contradiction.
        RefutedPure => "refuted_pure",
        /// Refutations: pre-allocation contradiction.
        RefutedAllocation => "refuted_allocation",
        /// Refutations: contradiction at program entry.
        RefutedEntry => "refuted_entry",
        // --- decision procedure ---
        /// Satisfiability/entailment queries answered.
        SolverCalls => "solver_calls",
        /// Satisfiable verdicts.
        SolverSat => "solver_sat",
        /// Unsatisfiable verdicts.
        SolverUnsat => "solver_unsat",
        /// Solver failures (overflow, oversized sets).
        SolverFailures => "solver_failures",
        // --- points-to analysis ---
        /// Worklist propagation rounds.
        PtaPropagations => "pta_propagations",
        /// Constraint-graph nodes created.
        PtaNodes => "pta_nodes",
        /// Method instances analyzed (method × context).
        PtaInstances => "pta_instances",
        /// Delta pushes along copy edges that added at least one location.
        PtaDeltasPushed => "pta_deltas_pushed",
        /// Copy-graph strongly connected components collapsed online.
        PtaSccsCollapsed => "pta_sccs_collapsed",
        // --- persistent refutation cache ---
        /// Disk-cache decisions reused verbatim (committed by the
        /// coordinator from a valid, current-fingerprint record).
        CacheHits => "cache_hits",
        /// Edge decisions computed live because no disk record existed.
        CacheMisses => "cache_misses",
        /// Edge decisions recomputed because the stored fingerprint no
        /// longer matched the program slice (stale after an edit).
        CacheInvalidated => "cache_invalidated",
        /// Cache records or files skipped as corrupt, truncated, or
        /// version-mismatched (each skip degrades that lookup to cold).
        CacheSkippedCorrupt => "cache_skipped_corrupt",
        /// Read-write store opens that lost the advisory lock to another
        /// process and degraded to read-only.
        CacheLockContended => "cache_lock_contended",
        /// Store compactions run because the JSONL exceeded its size cap.
        CacheCompactions => "cache_compactions",
        /// Records dropped (least-recently-hit first) by compactions.
        CacheRecordsDropped => "cache_records_dropped",
        /// Path programs of the decisions computed live at commit, never of
        /// a store hit (whose replayed `path_programs` counts a search
        /// that did not run here): 0 on a fully warm run.
        CacheFreshPathPrograms => "cache_fresh_path_programs",
        // --- clients ---
        /// Alarms reported by the flow-insensitive analysis.
        AlarmsFound => "alarms_found",
        /// Alarms fully refuted.
        AlarmsRefuted => "alarms_refuted",
        /// Alarms with a surviving witnessed path.
        AlarmsWitnessed => "alarms_witnessed",
        // --- resident service (thresher-serve) ---
        /// Requests accepted into the daemon's pending queue.
        RequestsAdmitted => "requests_admitted",
        /// Admitted requests that completed with an `ok` response.
        RequestsCompleted => "requests_completed",
        /// Requests rejected by admission control (queue full, rate
        /// limited, or draining).
        RequestsShed => "requests_shed",
        /// Requests whose handler panicked; the panic was contained and
        /// answered with a structured error.
        RequestsPanicked => "requests_panicked",
        /// Requests rejected or failed because their deadline expired.
        RequestsTimedOut => "requests_timed_out",
        /// Resident programs evicted by the LRU residency cap.
        ProgramsEvicted => "programs_evicted",
        /// Requests whose wall time crossed the daemon's slow-request
        /// threshold and were appended to the slow log.
        RequestsSlow => "requests_slow",
    }
}

metric_enum! {
    /// Every histogram the pipeline maintains. Buckets are powers of two
    /// (see [`bucket_index`]).
    pub enum Hist {
        /// Latency of one decision-procedure call, nanoseconds.
        SolverNanos => "solver_call_ns",
        /// Latency of one full edge refutation (all attempts), microseconds.
        EdgeMicros => "edge_refutation_us",
        /// Exact heap cells held by a query at each command transfer.
        HeapCells => "query_heap_cells",
        /// Points-to worklist length at each propagation round.
        PtaWorklist => "pta_worklist_len",
        /// Delta-set size drained at each difference-propagation round.
        PtaDeltaLen => "pta_delta_size",
        /// Path-program witness trace length at discharge.
        WitnessTraceLen => "witness_trace_len",
        /// Daemon pending-queue depth sampled at each admission.
        QueueDepth => "serve_queue_depth",
        /// Daemon request wall time from dequeue to response, microseconds.
        /// (The `_us` suffix keeps it out of `--diff-reports` identity.)
        RequestMicros => "serve_request_us",
        /// Daemon time spent queued before a worker picked the request up,
        /// microseconds.
        QueueWaitMicros => "serve_queue_wait_us",
    }
}

/// Number of log₂ buckets: one for zero plus one per bit of `u64`.
pub const NUM_BUCKETS: usize = 65;

/// The bucket an observation lands in: `0 → 0`, otherwise
/// `⌊log₂ v⌋ + 1` — so bucket `i ≥ 1` covers `[2^(i-1), 2^i)` and
/// `u64::MAX` lands in bucket 64.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0, else `2^(i-1)`).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of the bucket whose lower bound is `lb`: 0 for
/// the zero bucket, `u64::MAX` for the top bucket, otherwise `2·lb − 1`.
#[inline]
pub fn bucket_upper_bound(lb: u64) -> u64 {
    if lb == 0 {
        0
    } else if lb >= 1u64 << 63 {
        u64::MAX
    } else {
        2 * lb - 1
    }
}

/// One histogram's state as plain integers: what [`HistCells`] holds
/// atomically, and what a [`MetricsDelta`] buffers per histogram. Merging
/// two of them gives exactly the state that observing both value sequences
/// into one would (counts wrap like the registry's `fetch_add`, the sum
/// saturates, the max is the max).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct HistCounts {
    pub(crate) buckets: [u64; NUM_BUCKETS],
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) max: u64,
}

impl HistCounts {
    pub(crate) const ZERO: HistCounts =
        HistCounts { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, max: 0 };

    pub(crate) fn observe(&mut self, v: u64) {
        let b = &mut self.buckets[bucket_index(v)];
        *b = b.wrapping_add(1);
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn merge(&mut self, other: &HistCounts) {
        for (b, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.wrapping_add(n);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    fn nonempty_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate().filter(|&(_, n)| n > 0)
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self.nonempty_buckets().map(|(i, n)| (bucket_lower_bound(i), n)).collect(),
        }
    }

    /// `{"sum":…,"max":…,"buckets":[[index, n], …]}`: non-empty buckets
    /// only, keyed by bucket index (not lower bound, unlike the run report)
    /// so a parser can bounds-check it. The count is the buckets' total.
    pub(crate) fn to_value(&self) -> Value {
        let buckets = self
            .nonempty_buckets()
            .map(|(i, n)| Value::Arr(vec![Value::uint(i as u64), Value::uint(n)]))
            .collect();
        Value::Obj(vec![
            ("sum".to_owned(), Value::uint(self.sum)),
            ("max".to_owned(), Value::uint(self.max)),
            ("buckets".to_owned(), Value::Arr(buckets)),
        ])
    }

    /// Inverse of [`Self::to_value`]. `None` when a field is missing or not
    /// a `u64`, a bucket index is out of range, or the count overflows.
    pub(crate) fn from_value(v: &Value) -> Option<HistCounts> {
        let mut h = HistCounts::ZERO;
        h.sum = v.get("sum")?.as_u64()?;
        h.max = v.get("max")?.as_u64()?;
        for pair in v.get("buckets")?.as_arr()? {
            let [i, n] = pair.as_arr()? else { return None };
            let i = usize::try_from(i.as_u64()?).ok().filter(|&i| i < NUM_BUCKETS)?;
            let n = n.as_u64()?;
            h.buckets[i] = h.buckets[i].checked_add(n)?;
            h.count = h.count.checked_add(n)?;
        }
        Some(h)
    }
}

struct HistCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn merge(&self, h: &HistCounts) {
        for (b, &n) in self.buckets.iter().zip(&h.buckets) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(h.count, Ordering::Relaxed);
        self.add_sum(h.sum);
        self.max.fetch_max(h.max, Ordering::Relaxed);
    }

    /// Saturating: the sum is diagnostic, wrap-around would mislead.
    fn add_sum(&self, v: u64) {
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(v)));
    }

    fn snapshot(&self) -> HistSnapshot {
        HistCounts {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
        .snapshot()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// `(bucket lower bound, count)` pairs for non-empty buckets, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) of the
    /// recorded distribution, or `None` when nothing was observed.
    ///
    /// The estimate is the nearest-rank order statistic resolved to bucket
    /// precision: the rank's log₂ bucket is found exactly, then the value
    /// is linearly interpolated across the bucket by rank.
    ///
    /// **Error bound.** The true nearest-rank quantile and the returned
    /// estimate always lie in the same bucket `[2^(i−1), 2^i)`, so the
    /// estimate is within a factor of two of the truth (`est/true` in
    /// `(1/2, 2)`), and the *additive* error is below the bucket width
    /// `2^(i−1)`. Exact cases: a quantile landing in the zero bucket
    /// returns exactly 0, the last rank returns the exact recorded
    /// maximum (so `quantile(1.0) == max`), and no estimate ever exceeds
    /// the maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based: the smallest r with r ≥ q·count.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for &(lb, n) in &self.buckets {
            seen += n;
            if seen < target {
                continue;
            }
            if lb == 0 {
                return Some(0);
            }
            let ub = bucket_upper_bound(lb);
            // Spread the bucket's n ranks evenly across [lb, ub].
            let rank_in_bucket = target - (seen - n); // 1-based
            let frac = (rank_in_bucket - 1) as f64 / n as f64;
            let est = lb as f64 + frac * (ub - lb) as f64;
            return Some((est as u64).min(self.max));
        }
        Some(self.max)
    }
}

/// Atomic storage for every [`Counter`] and [`Hist`]. Thread-safe; all
/// operations are relaxed atomics (per-metric totals are exact, cross-
/// metric consistency is not promised mid-run).
pub struct Registry {
    counters: [AtomicU64; Counter::COUNT],
    hists: Vec<HistCells>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: (0..Hist::COUNT).map(|_| HistCells::new()).collect(),
        }
    }

    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `v` into `h`.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        self.hists[h.index()].observe(v);
    }

    /// Adds every counter total and histogram of `delta`, leaving the
    /// state that recording its original calls here would have.
    pub(crate) fn merge(&self, delta: &MetricsDelta) {
        for (c, n) in delta.counters() {
            self.add(c, n);
        }
        for (h, counts) in delta.hists() {
            self.hists[h.index()].merge(counts);
        }
    }

    /// Current value of `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of `h`.
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        self.hists[h.index()].snapshot()
    }

    /// Zeroes every metric.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        let mut hnames: Vec<&str> = Hist::ALL.iter().map(|h| h.name()).collect();
        hnames.sort_unstable();
        hnames.dedup();
        assert_eq!(hnames.len(), Hist::COUNT);
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for &c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for &h in Hist::ALL {
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
        assert_eq!(Hist::from_name("no_such_hist"), None);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(64), 1u64 << 63);
        // Every value lands in the bucket whose range covers it.
        for v in [0u64, 1, 2, 3, 5, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v >= bucket_lower_bound(i), "{v} below bucket {i}");
            if i < 64 {
                assert!(v < bucket_lower_bound(i + 1), "{v} above bucket {i}");
            }
        }
    }

    #[test]
    fn quantile_exact_on_synthetic_distributions() {
        // Empty histogram: no quantile.
        assert_eq!(HistSnapshot::default().quantile(0.5), None);

        // All zeros: every quantile is exactly 0.
        let r = Registry::new();
        for _ in 0..10 {
            r.observe(Hist::HeapCells, 0);
        }
        let s = r.histogram(Hist::HeapCells);
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(0.5), Some(0));
        assert_eq!(s.quantile(1.0), Some(0));

        // One observation per power of two: each bucket holds one rank, so
        // interpolation puts every rank at its bucket's lower bound.
        let r = Registry::new();
        for i in 0..8u32 {
            r.observe(Hist::HeapCells, 1 << i); // 1, 2, 4, ..., 128
        }
        let s = r.histogram(Hist::HeapCells);
        assert_eq!(s.quantile(1.0 / 8.0), Some(1));
        assert_eq!(s.quantile(0.5), Some(8));
        assert_eq!(s.quantile(1.0), Some(128)); // exact max

        // A single value repeated: every quantile collapses onto it. Low
        // ranks interpolate inside [4096, 8191] (where 5000 lives) and the
        // max clamp caps everything at the true value.
        let r = Registry::new();
        for _ in 0..100 {
            r.observe(Hist::SolverNanos, 5000);
        }
        let s = r.histogram(Hist::SolverNanos);
        assert_eq!(s.quantile(0.01), Some(4096)); // rank 1, bucket floor
        assert_eq!(s.quantile(0.5), Some(5000)); // interpolates past max, clamped
        assert_eq!(s.quantile(0.99), Some(5000));
        assert_eq!(s.quantile(1.0), Some(5000));
    }

    #[test]
    fn quantile_error_bound_property() {
        // For random distributions, the estimate must share a log₂ bucket
        // with the true nearest-rank order statistic (factor-2 bound).
        minicheck::run_cases(200, |rng| {
            let r = Registry::new();
            let n = rng.usize_in(1, 400);
            let mut vals: Vec<u64> = (0..n)
                .map(|_| match rng.below(3) {
                    0 => rng.next_u64() % 16,      // small values, zero bucket
                    1 => rng.next_u64() % 100_000, // mid range
                    _ => rng.next_u64(),           // full u64 range
                })
                .collect();
            for &v in &vals {
                r.observe(Hist::HeapCells, v);
            }
            vals.sort_unstable();
            let s = r.histogram(Hist::HeapCells);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let est = s.quantile(q).expect("non-empty");
                let target = ((q * n as f64).ceil() as usize).clamp(1, n);
                let truth = vals[target - 1];
                assert_eq!(
                    bucket_index(est),
                    bucket_index(truth),
                    "q={q} est={est} truth={truth} (n={n})"
                );
                if truth > 0 {
                    let ratio = est as f64 / truth as f64;
                    assert!(ratio > 0.5 && ratio < 2.0, "q={q} ratio={ratio}");
                } else {
                    assert_eq!(est, 0);
                }
            }
            assert_eq!(s.quantile(1.0), Some(*vals.last().unwrap()));
        });
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let r = Registry::new();
        r.add(Counter::SolverCalls, 2);
        r.add(Counter::SolverCalls, 3);
        assert_eq!(r.counter(Counter::SolverCalls), 5);
        assert_eq!(r.counter(Counter::SolverSat), 0);

        r.observe(Hist::HeapCells, 0);
        r.observe(Hist::HeapCells, 1);
        r.observe(Hist::HeapCells, 7);
        r.observe(Hist::HeapCells, u64::MAX);
        let s = r.histogram(Hist::HeapCells);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, u64::MAX);
        // 0 + 1 + 7 + MAX saturates.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (4, 1), (1u64 << 63, 1)]);

        r.reset();
        assert_eq!(r.counter(Counter::SolverCalls), 0);
        assert_eq!(r.histogram(Hist::HeapCells).count, 0);
    }
}
