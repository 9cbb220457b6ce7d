//! Parallel edge-refutation scheduling with a shared decision cache.
//!
//! Heap-reachability drivers (the leak client, the escape checker, the
//! facade's `query_reachable`) all run the same loop: find a heap path,
//! refute its edges in order, delete refuted edges, repeat. Edge decisions
//! dominate the wall clock and are independent of one another — each is a
//! pure function of `(edge, config)`, because [`Engine::refute_edge`]
//! resets all per-edge state on entry and never consults the deletion
//! overlay. That makes them the natural unit of parallelism.
//!
//! # Design: sequential coordinator, speculative workers
//!
//! The naive parallelization (decide all edges of all paths concurrently,
//! then merge) does not reproduce the sequential run: the sequential loop
//! never decides the edges *after* the first refuted edge of a path, and a
//! later job's paths depend on which edges earlier jobs deleted. Since the
//! scheduler must produce byte-identical reports for every `--jobs`
//! setting, the coordinator thread runs exactly the historical sequential
//! loop and remains the only place where decisions are *committed* —
//! worker threads merely warm a shared cache:
//!
//! - **Workers** pull speculative hints (edges of paths the coordinator has
//!   seen or is about to see), claim them in the lock-striped cache
//!   (vacant → in-flight), compute the decision on their own [`Engine`],
//!   and publish the result. All metrics emitted during the computation are
//!   buffered into an [`obs::MetricsDelta`] instead of the global registry.
//! - The **coordinator** demands edges in path order: a cached decision is
//!   used as-is, an in-flight one is awaited, a vacant one is computed
//!   inline. At first demand the decision is committed: its buffered
//!   metrics are replayed into the registry, its [`SearchStats`] delta is
//!   merged, and the driver tally is bumped. Speculative results that are
//!   never demanded are never accounted, so totals are independent of the
//!   worker count.
//! - When a path dies (an edge is refuted), its pending hints are
//!   **descheduled** via a shared cancellation token and counted under
//!   [`obs::Counter::EdgesDescheduled`] — distinct from aborted searches.
//!
//! With `jobs = 1` no threads are spawned and no hints are queued: the
//! run *is* the historical sequential loop.
//!
//! # Determinism caveat
//!
//! A decision is a pure function of `(edge, config)` except for wall-clock
//! deadlines ([`SymexConfig::edge_deadline`]/`total_deadline`): under a
//! deadline, a speculative worker may time out where the sequential run
//! would have decided the edge (or vice versa). Runs that need bit-exact
//! reproducibility across `--jobs` settings should not set deadlines; the
//! budget-based limits are deterministic.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pta::{BitSet, HeapEdge, HeapGraphView, ModRef, PtaResult};
use tir::{GlobalId, Program};

use crate::engine::{EdgeDecision, Engine};
use crate::key::{DerefSite, RefKey};
use crate::persist::{DecisionStore, Fingerprinter, PersistedDecision};
use crate::stats::{AbortCounts, SearchOutcome, SearchStats, StopReason, Witness};
use crate::SymexConfig;

/// Lock stripes in the shared edge-decision cache. Edges hash to stripes,
/// so contention is spread without a global lock.
const STRIPES: usize = 16;

/// The scheduler parallelism to use when the caller asks for "all cores".
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// One reachability job: sever every heap path from `source` to any
/// location in `targets`, or witness one.
#[derive(Clone, Debug)]
pub struct ReachJob {
    /// The global variable at the path source.
    pub source: GlobalId,
    /// The abstract locations at the path sink.
    pub targets: BitSet,
}

/// The verdict for one [`ReachJob`].
#[derive(Clone, Debug)]
pub enum JobVerdict {
    /// Every candidate path was severed by sound edge refutations.
    Refuted {
        /// The edges this job refuted (in refutation order).
        refuted_edges: Vec<HeapEdge>,
    },
    /// A path survived with every edge witnessed (or aborted, which is
    /// soundly treated as not-refuted).
    Witnessed {
        /// The surviving path.
        path: Vec<HeapEdge>,
        /// A witness for one of the path's edges, when a fresh decision
        /// produced one.
        witness: Option<Witness>,
    },
}

impl JobVerdict {
    /// True if reachability was refuted.
    pub fn is_refuted(&self) -> bool {
        matches!(self, JobVerdict::Refuted { .. })
    }
}

/// Driver-level accounting for the decisions committed by one scheduler
/// call. Every count is bumped exactly once, at commit time on the
/// coordinator, so tallies are identical for every worker count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Edges refuted.
    pub edges_refuted: u64,
    /// Edges witnessed.
    pub edges_witnessed: u64,
    /// Edges whose search aborted (soundly treated as not-refuted).
    pub edge_timeouts: u64,
    /// `edge_timeouts` broken down by reason.
    pub aborts: AbortCounts,
    /// Extra (degraded) refutation attempts beyond the strict first pass.
    pub retries: u64,
    /// Edges decided only by a coarsened retry.
    pub degraded_decisions: u64,
    /// Pending path edges descheduled because an earlier edge of their path
    /// was refuted (the path died before they were needed).
    pub edges_descheduled: u64,
    /// Committed decisions reused verbatim from the persistent store
    /// (zero when no store is attached).
    pub cache_hits: u64,
    /// Committed decisions computed live because the store had no record
    /// for their fingerprint (zero when no store is attached).
    pub cache_misses: u64,
    /// Committed decisions recomputed because the store's record for the
    /// same edge carried a stale fingerprint — i.e. an edit invalidated
    /// it (zero when no store is attached).
    pub cache_invalidated: u64,
    /// Path programs explored by live (non-disk) computations committed
    /// this run. Zero proves a fully warm run performed no symex path
    /// exploration at all, even though the replayed report counters are
    /// byte-identical to the cold run's.
    pub fresh_path_programs: u64,
    /// Sum of per-edge decision times (compute time, not wall clock — under
    /// parallel execution the wall clock is smaller). Disk hits contribute
    /// the *original* computation's time, keeping warm tallies comparable.
    pub symex_time: Duration,
}

/// The result of one [`RefutationScheduler::run`] call.
#[derive(Debug)]
pub struct SchedulerOutcome {
    /// One verdict per input job, in job order.
    pub verdicts: Vec<JobVerdict>,
    /// Accounting for the decisions this call committed.
    pub tally: Tally,
}

/// The answer [`RefutationScheduler::decide_edge`] gives for one edge.
#[derive(Debug)]
pub enum EdgeAnswer {
    /// The edge is refuted.
    Refuted,
    /// The edge is witnessed; carries the witness on the committing (first)
    /// demand, `None` on later cache hits.
    Witnessed(Option<Witness>),
    /// The search gave up for the stated reason; not refuted.
    Aborted(StopReason),
}

/// Everything one edge computation produced, parked in the cache until the
/// coordinator demands (and thereby accounts) it.
#[derive(Clone)]
struct CacheEntry {
    decision: EdgeDecision,
    stats: SearchStats,
    obs: obs::MetricsDelta,
    elapsed: Duration,
    /// True when the entry was loaded from the persistent store rather
    /// than computed in this process. Provenance is a function of the
    /// disk state alone — never of the thread count — so the cache
    /// counters derived from it at commit time are jobs-invariant.
    from_disk: bool,
}

/// The persistent warm-start tier below the in-memory striped cache: the
/// shared on-disk store plus the fingerprinter mapping edges to content
/// keys. Shared read-only between the coordinator and every worker.
struct DiskTier<'a> {
    program: &'a Program,
    store: Arc<DecisionStore>,
    fpr: Fingerprinter<'a>,
}

/// Looks `key` up in the persistent store. A hit yields a committable
/// entry flagged `from_disk`; any miss (no record, stale fingerprint —
/// stale records key under the old fingerprint, so they simply fail the
/// lookup) falls through to a live computation.
fn consult_disk(disk: &DiskTier<'_>, key: &RefKey) -> Option<CacheEntry> {
    let d = disk.store.lookup(disk.fpr.fingerprint_key(key))?;
    Some(CacheEntry {
        decision: d.decision,
        stats: d.stats,
        obs: d.obs,
        elapsed: d.elapsed,
        from_disk: true,
    })
}

enum Slot {
    /// Claimed by some thread; the result will appear as `Done`.
    InFlight,
    /// Computed, possibly not yet accounted.
    Done(Box<CacheEntry>),
}

struct Stripe {
    map: Mutex<HashMap<RefKey, Slot>>,
    /// Signalled when an in-flight entry of this stripe becomes done.
    ready: Condvar,
}

struct CacheStripes {
    stripes: Vec<Stripe>,
}

impl CacheStripes {
    fn new() -> Self {
        let stripes = (0..STRIPES)
            .map(|_| Stripe { map: Mutex::new(HashMap::new()), ready: Condvar::new() })
            .collect();
        CacheStripes { stripes }
    }

    fn stripe(&self, key: &RefKey) -> &Stripe {
        let h = match key {
            RefKey::Edge(HeapEdge::Global { global, target }) => {
                global.index() ^ (target.index() << 3)
            }
            RefKey::Edge(HeapEdge::Field { base, field, target }) => {
                base.index() ^ (field.index() << 2) ^ (target.index() << 5)
            }
            RefKey::Deref(DerefSite { cmd, base }) => cmd.index() ^ (base.index() << 4),
        };
        &self.stripes[h % STRIPES]
    }
}

/// A speculative work item: decide `key` unless its path died first.
struct Hint {
    key: RefKey,
    cancel: Arc<AtomicBool>,
}

/// The per-run speculation queue shared between coordinator and workers.
struct RunQueue {
    queue: Mutex<VecDeque<Hint>>,
    ready: Condvar,
    done: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl RunQueue {
    fn new() -> Self {
        RunQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    fn push(&self, hints: Vec<Hint>) {
        if hints.is_empty() {
            return;
        }
        let mut q = lock(&self.queue);
        q.extend(hints);
        drop(q);
        self.ready.notify_all();
    }

    /// Blocks for the next hint; `None` once the run is over (any backlog
    /// is abandoned — its results would never be demanded).
    fn pop(&self) -> Option<Hint> {
        let mut q = lock(&self.queue);
        loop {
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            if let Some(h) = q.pop_front() {
                return Some(h);
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self) {
        self.done.store(true, Ordering::Release);
        // Take the lock so no worker can be between its done-check and its
        // wait when the wakeup fires.
        drop(lock(&self.queue));
        self.ready.notify_all();
    }
}

/// Runs one refutation with all metric emission buffered, and packages
/// the result for deferred accounting.
fn compute(engine: &mut Engine<'_>, key: &RefKey) -> CacheEntry {
    let before = engine.stats.clone();
    let t0 = Instant::now();
    let (decision, delta) = obs::capture(|| engine.refute_key_resilient(key));
    CacheEntry {
        decision,
        stats: engine.stats.delta_since(&before),
        obs: delta,
        elapsed: t0.elapsed(),
        from_disk: false,
    }
}

/// The worker loop: claim speculative hints and publish their decisions,
/// consulting the persistent tier before computing.
fn worker(
    queue: &RunQueue,
    cache: &CacheStripes,
    disk: Option<&DiskTier<'_>>,
    mut engine: Engine<'_>,
) {
    while let Some(hint) = queue.pop() {
        if hint.cancel.load(Ordering::Relaxed) {
            continue;
        }
        let stripe = cache.stripe(&hint.key);
        {
            let mut map = lock(&stripe.map);
            if map.contains_key(&hint.key) {
                continue;
            }
            map.insert(hint.key, Slot::InFlight);
        }
        let entry = disk
            .and_then(|d| consult_disk(d, &hint.key))
            .unwrap_or_else(|| compute(&mut engine, &hint.key));
        let mut map = lock(&stripe.map);
        map.insert(hint.key, Slot::Done(Box::new(entry)));
        drop(map);
        stripe.ready.notify_all();
    }
}

/// The coordinator's half of a [`RefutationScheduler`]: the tiers it
/// shares with the workers, plus the state only it mutates — its engine,
/// the committed decisions and the merged statistics. Borrowed field by
/// field, so workers can hold the shared tiers at the same time.
struct Coordinator<'s, 'a> {
    program: &'a Program,
    cache: &'s CacheStripes,
    disk: Option<&'s DiskTier<'a>>,
    engine: &'s mut Engine<'a>,
    committed: &'s mut HashMap<RefKey, EdgeDecision>,
    stats: &'s mut SearchStats,
}

impl Coordinator<'_, '_> {
    /// Speculation hints for the not-yet-committed `keys`, deduplicated,
    /// all sharing one cancellation token.
    fn hints(&self, keys: impl IntoIterator<Item = RefKey>) -> Vec<Hint> {
        let cancel = Arc::new(AtomicBool::new(false));
        let mut seen = HashSet::new();
        keys.into_iter()
            .filter(|key| !self.committed.contains_key(key) && seen.insert(*key))
            .map(|key| Hint { key, cancel: cancel.clone() })
            .collect()
    }

    /// Demand for one key: cache hit, await, or compute inline; commit
    /// (account) the decision on first demand.
    fn demand(&mut self, key: RefKey, tally: &mut Tally) -> EdgeAnswer {
        if let Some(d) = self.committed.get(&key) {
            // Already accounted: answer from the committed decision; no
            // witness on cache hits (mirrors the historical per-client
            // caches).
            return match &d.outcome {
                SearchOutcome::Refuted => EdgeAnswer::Refuted,
                SearchOutcome::Witnessed(_) => EdgeAnswer::Witnessed(None),
                SearchOutcome::Aborted(r) => EdgeAnswer::Aborted(r.clone()),
            };
        }
        let stripe = self.cache.stripe(&key);
        let entry: CacheEntry = 'get: {
            let mut map = lock(&stripe.map);
            loop {
                match map.get(&key) {
                    Some(Slot::Done(e)) => break 'get (**e).clone(),
                    Some(Slot::InFlight) => {
                        map = stripe.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        map.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
            drop(map);
            let entry = self
                .disk
                .and_then(|d| consult_disk(d, &key))
                .unwrap_or_else(|| compute(self.engine, &key));
            let mut map = lock(&stripe.map);
            map.insert(key, Slot::Done(Box::new(entry.clone())));
            drop(map);
            stripe.ready.notify_all();
            entry
        };
        // Commit: this is the only place buffered metrics reach the
        // registry and the only recording site for the per-reason abort
        // counters, so totals are identical for every worker count. The
        // cache counters follow the same discipline: provenance travels on
        // the entry, and only demanded (committed) decisions are counted.
        entry.obs.replay();
        self.stats.merge(&entry.stats);
        if let Some(d) = self.disk {
            let fp = d.fpr.fingerprint_key(&key);
            let key_str = d.fpr.key_string(&key);
            if entry.from_disk {
                tally.cache_hits += 1;
                obs::add(obs::Counter::CacheHits, 1);
            } else {
                if d.store.has_stale(&key_str, fp) {
                    tally.cache_invalidated += 1;
                    obs::add(obs::Counter::CacheInvalidated, 1);
                } else {
                    tally.cache_misses += 1;
                    obs::add(obs::Counter::CacheMisses, 1);
                }
                d.store.record(
                    d.program,
                    fp,
                    &key_str,
                    &PersistedDecision {
                        decision: entry.decision.clone(),
                        stats: entry.stats.clone(),
                        obs: entry.obs.clone(),
                        elapsed: entry.elapsed,
                    },
                );
            }
        }
        if !entry.from_disk {
            // Outside the replayed delta, so a stored record never carries
            // it and a hit never counts it.
            tally.fresh_path_programs += entry.stats.path_programs;
            obs::add(obs::Counter::CacheFreshPathPrograms, entry.stats.path_programs);
        }
        tally.symex_time += entry.elapsed;
        tally.retries += u64::from(entry.decision.attempts.saturating_sub(1));
        if entry.decision.degraded {
            tally.degraded_decisions += 1;
        }
        let answer = match &entry.decision.outcome {
            SearchOutcome::Refuted => {
                tally.edges_refuted += 1;
                EdgeAnswer::Refuted
            }
            SearchOutcome::Witnessed(w) => {
                tally.edges_witnessed += 1;
                EdgeAnswer::Witnessed(Some(w.clone()))
            }
            SearchOutcome::Aborted(r) => {
                tally.edge_timeouts += 1;
                tally.aborts.record(r);
                EdgeAnswer::Aborted(r.clone())
            }
        };
        self.committed.insert(key, entry.decision);
        answer
    }

    /// The sequential refute-and-reroute loop for one job, demanding edge
    /// decisions through the shared cache.
    fn run_job(
        &mut self,
        view: &mut HeapGraphView<'_>,
        job: &ReachJob,
        queue: Option<&RunQueue>,
        tally: &mut Tally,
    ) -> JobVerdict {
        let mut refuted_edges = Vec::new();
        'paths: loop {
            let Some(path) = view.find_path(self.program, job.source, &job.targets) else {
                return JobVerdict::Refuted { refuted_edges };
            };
            let cancel = Arc::new(AtomicBool::new(false));
            if let Some(q) = queue {
                q.push(
                    path.iter()
                        .filter(|&&e| !self.committed.contains_key(&RefKey::Edge(e)))
                        .map(|&edge| Hint { key: RefKey::Edge(edge), cancel: cancel.clone() })
                        .collect(),
                );
            }
            let mut last_witness = None;
            for (i, &edge) in path.iter().enumerate() {
                match self.demand(RefKey::Edge(edge), tally) {
                    EdgeAnswer::Refuted => {
                        view.delete(edge);
                        refuted_edges.push(edge);
                        // The rest of this path is moot: deschedule its
                        // pending edges. The count only looks at
                        // coordinator-committed state, so it is identical
                        // for every worker count.
                        cancel.store(true, Ordering::Relaxed);
                        let descheduled = path[i + 1..]
                            .iter()
                            .filter(|&&e| !self.committed.contains_key(&RefKey::Edge(e)))
                            .count() as u64;
                        if descheduled > 0 {
                            tally.edges_descheduled += descheduled;
                            obs::add(obs::Counter::EdgesDescheduled, descheduled);
                        }
                        continue 'paths;
                    }
                    EdgeAnswer::Witnessed(w) => last_witness = w.or(last_witness),
                    // An abort is soundly treated as not-refuted.
                    EdgeAnswer::Aborted(_) => {}
                }
            }
            return JobVerdict::Witnessed { path, witness: last_witness };
        }
    }
}

/// A parallel refutation scheduler over one analyzed program. Owns the
/// shared edge-decision cache, the committed-decision log, and the merged
/// engine statistics; these persist across [`RefutationScheduler::run`]
/// calls, so repeated calls (e.g. triaging alarms one at a time) share
/// decisions exactly like the historical per-client caches did.
pub struct RefutationScheduler<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    modref: &'a ModRef,
    config: SymexConfig,
    jobs: usize,
    /// One absolute cutoff shared by the coordinator and every worker
    /// engine — a per-engine `total_deadline` would multiply the allowance
    /// by the worker count.
    deadline_at: Option<Instant>,
    engine: Engine<'a>,
    cache: CacheStripes,
    /// The optional persistent warm-start tier below the striped cache.
    disk: Option<DiskTier<'a>>,
    committed: HashMap<RefKey, EdgeDecision>,
    stats: SearchStats,
}

impl<'a> RefutationScheduler<'a> {
    /// Creates a scheduler. `jobs` is the total thread count (coordinator
    /// included); `1` means fully sequential, values are clamped to at
    /// least 1.
    pub fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        modref: &'a ModRef,
        config: SymexConfig,
        jobs: usize,
    ) -> Self {
        let deadline_at = config.total_deadline.map(|d| Instant::now() + d);
        let mut engine = Engine::new(program, pta, modref, config.clone());
        engine.set_deadline_at(deadline_at);
        RefutationScheduler {
            program,
            pta,
            modref,
            config,
            jobs: jobs.max(1),
            deadline_at,
            engine,
            cache: CacheStripes::new(),
            disk: None,
            committed: HashMap::new(),
            stats: SearchStats::default(),
        }
    }

    /// Attaches a persistent [`DecisionStore`] as the warm-start tier
    /// below the in-memory striped cache: workers and the coordinator
    /// consult it before computing, and the coordinator writes every
    /// live-computed decision through at commit (in read-write mode).
    /// Fingerprints are derived from this scheduler's program, points-to
    /// result, and configuration.
    pub fn with_store(mut self, store: Arc<DecisionStore>) -> Self {
        self.set_store(store);
        self
    }

    /// Setter form of [`RefutationScheduler::with_store`].
    pub fn set_store(&mut self, store: Arc<DecisionStore>) {
        self.disk = Some(DiskTier {
            program: self.program,
            fpr: Fingerprinter::new(self.program, self.pta, &self.config),
            store,
        });
    }

    /// Like [`RefutationScheduler::set_store`], but builds the
    /// fingerprinter through a cross-edit [`MethodHashCache`](crate::MethodHashCache): only
    /// methods named in `changed` (plus methods new to the cache) are
    /// re-hashed, so attaching the store after an edit-delta solve costs
    /// proportional to the edit, not the program.
    pub fn set_store_cached(
        &mut self,
        store: Arc<DecisionStore>,
        method_hashes: &mut crate::persist::MethodHashCache,
        changed: &[tir::MethodId],
    ) {
        self.disk = Some(DiskTier {
            program: self.program,
            fpr: Fingerprinter::with_cache(
                self.program,
                self.pta,
                &self.config,
                method_hashes,
                changed,
            ),
            store,
        });
    }

    /// The configured thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Overrides the thread count (clamped to at least 1).
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The merged engine statistics of every decision committed so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Every committed edge decision, in canonical edge order — independent
    /// of thread count and commit order. Deref decisions are reported
    /// separately by [`RefutationScheduler::deref_decisions`].
    pub fn decisions(&self) -> Vec<(HeapEdge, EdgeDecision)> {
        let mut v: Vec<_> = self
            .committed
            .iter()
            .filter_map(|(k, d)| k.as_edge().map(|e| (*e, d.clone())))
            .collect();
        v.sort_by_key(|&(e, _)| e);
        v
    }

    /// Every committed deref decision, in canonical site order —
    /// independent of thread count and commit order.
    pub fn deref_decisions(&self) -> Vec<(DerefSite, EdgeDecision)> {
        let mut v: Vec<_> = self
            .committed
            .iter()
            .filter_map(|(k, d)| k.as_deref().map(|s| (*s, d.clone())))
            .collect();
        v.sort_by_key(|&(s, _)| s);
        v
    }

    /// Decides a single edge through the shared cache, committing it on
    /// first demand (sequentially, on the calling thread). Accounting goes
    /// into `tally`.
    pub fn decide_edge(&mut self, edge: HeapEdge, tally: &mut Tally) -> EdgeAnswer {
        self.decide_key(RefKey::Edge(edge), tally)
    }

    /// Decides a single null-dereference candidate through the shared
    /// cache, committing it on first demand.
    pub fn decide_deref(&mut self, site: DerefSite, tally: &mut Tally) -> EdgeAnswer {
        self.decide_key(RefKey::Deref(site), tally)
    }

    fn decide_key(&mut self, key: RefKey, tally: &mut Tally) -> EdgeAnswer {
        self.coordinator().demand(key, tally)
    }

    fn coordinator(&mut self) -> Coordinator<'_, 'a> {
        Coordinator {
            program: self.program,
            cache: &self.cache,
            disk: self.disk.as_ref(),
            engine: &mut self.engine,
            committed: &mut self.committed,
            stats: &mut self.stats,
        }
    }

    /// Runs `coordinate` on the calling thread. With `jobs > 1` it runs
    /// beside `jobs - 1` scoped speculation workers — one engine each, all
    /// under the shared deadline — and gets their queue; the queue is
    /// finished when `coordinate` returns, so the workers exit. With
    /// `jobs = 1` no thread is spawned and `coordinate` gets no queue.
    fn with_workers<R>(
        &mut self,
        coordinate: impl FnOnce(Option<&RunQueue>, Coordinator<'_, 'a>) -> R,
    ) -> R {
        let workers = self.jobs - 1;
        if workers == 0 {
            return coordinate(None, self.coordinator());
        }
        let (pta, modref, deadline_at) = (self.pta, self.modref, self.deadline_at);
        let config = self.config.clone();
        let c = self.coordinator();
        let (program, cache, disk) = (c.program, c.cache, c.disk);
        let queue = RunQueue::new();
        std::thread::scope(|s| {
            for i in 0..workers {
                let (cfg, queue) = (config.clone(), &queue);
                std::thread::Builder::new()
                    .name(format!("refute-{i}"))
                    .spawn_scoped(s, move || {
                        let mut e = Engine::new(program, pta, modref, cfg);
                        e.set_deadline_at(deadline_at);
                        worker(queue, cache, disk, e);
                    })
                    .expect("spawn refutation worker");
            }
            let out = coordinate(Some(&queue), c);
            queue.finish();
            out
        })
    }

    /// Decides every candidate dereference in `sites`, in order, through
    /// the shared cache. With `jobs > 1`, worker threads speculatively warm
    /// the cache over the whole batch while the coordinator demands (and
    /// commits) the sites in input order — answers, tallies, and report
    /// metrics are identical for every `jobs` setting.
    pub fn run_derefs(
        &mut self,
        sites: &[DerefSite],
        tally: &mut Tally,
    ) -> Vec<(DerefSite, EdgeAnswer)> {
        self.with_workers(|queue, mut c| {
            if let Some(queue) = queue {
                // Seed the whole batch; sites are independent, so nothing
                // is ever descheduled.
                queue.push(c.hints(sites.iter().map(|&site| RefKey::Deref(site))));
            }
            sites.iter().map(|&site| (site, c.demand(RefKey::Deref(site), tally))).collect()
        })
    }

    /// Runs the given jobs in order over `view`. The verdicts, committed
    /// decisions, statistics, and report metrics are identical for every
    /// `jobs` setting (see the module docs for the deadline caveat); the
    /// wall clock is not.
    pub fn run(&mut self, view: &mut HeapGraphView<'_>, work: &[ReachJob]) -> SchedulerOutcome {
        let mut tally = Tally::default();
        let verdicts = self.with_workers(|queue, mut c| {
            if let Some(queue) = queue {
                // Pre-seed speculation with every job's initial path so
                // workers chew on later jobs while the coordinator walks
                // earlier ones. Later deletions may invalidate these paths;
                // that only wastes speculative work, never correctness.
                let paths =
                    work.iter().filter_map(|j| view.find_path(c.program, j.source, &j.targets));
                queue.push(c.hints(paths.flatten().map(RefKey::Edge)));
            }
            work.iter().map(|job| c.run_job(view, job, queue, &mut tally)).collect()
        });
        SchedulerOutcome { verdicts, tally }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta::ContextPolicy;

    fn setup(src: &str) -> (Program, PtaResult, ModRef) {
        let p = tir::parse(src).expect("parse");
        let r = pta::analyze(&p, ContextPolicy::Insensitive);
        let m = ModRef::compute(&p, &r);
        (p, r, m)
    }

    const SRC: &str = r#"
class Box { field item: Object; field spare: Object; }
global CACHE: Box;
global OTHER: Box;
fn main() {
  var b: Box;
  var c: Box;
  var secret: Object;
  var s: Object;
  var flag: int;
  b = new Box @box0;
  c = new Box @box1;
  secret = new Object @secret0;
  s = new Object @str0;
  flag = 0;
  if (flag == 1) {
    b.item = secret;
  }
  b.item = s;
  c.spare = s;
  $CACHE = b;
  $OTHER = c;
}
entry main;
"#;

    fn jobs_for(p: &Program, pta: &PtaResult, names: &[(&str, &str)]) -> Vec<ReachJob> {
        names
            .iter()
            .map(|(g, l)| {
                let source = p.global_by_name(g).unwrap();
                let target = pta.locs().ids().find(|&loc| pta.loc_name(p, loc) == *l).unwrap();
                ReachJob { source, targets: BitSet::singleton(target.index()) }
            })
            .collect()
    }

    fn run_with(jobs: usize) -> (Vec<bool>, Tally, SearchStats, Vec<(HeapEdge, EdgeDecision)>) {
        let (p, r, m) = setup(SRC);
        let work = jobs_for(
            &p,
            &r,
            &[("CACHE", "secret0"), ("CACHE", "str0"), ("OTHER", "str0"), ("OTHER", "secret0")],
        );
        let mut sched = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), jobs);
        let mut view = HeapGraphView::new(&r);
        let out = sched.run(&mut view, &work);
        let refuted: Vec<bool> = out.verdicts.iter().map(JobVerdict::is_refuted).collect();
        (refuted, out.tally, sched.stats().clone(), sched.decisions())
    }

    #[test]
    fn verdicts_match_expectations() {
        let (refuted, tally, stats, _) = run_with(1);
        assert_eq!(refuted, [true, false, false, true]);
        assert!(tally.edges_refuted > 0);
        assert!(tally.edges_witnessed > 0);
        assert!(stats.cmds_executed > 0);
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let seq = run_with(1);
        for jobs in [2, 4, 8] {
            let par = run_with(jobs);
            assert_eq!(seq.0, par.0, "verdicts differ at jobs={jobs}");
            // Compare tallies minus the timing field.
            let mut a = seq.1.clone();
            let mut b = par.1.clone();
            a.symex_time = Duration::ZERO;
            b.symex_time = Duration::ZERO;
            assert_eq!(a, b, "tally differs at jobs={jobs}");
            assert_eq!(seq.2, par.2, "search stats differ at jobs={jobs}");
            let key = |d: &[(HeapEdge, EdgeDecision)]| {
                d.iter()
                    .map(|(e, d)| (*e, d.outcome.is_refuted(), d.attempts, d.degraded))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&seq.3), key(&par.3), "decisions differ at jobs={jobs}");
        }
    }

    #[test]
    fn cache_persists_across_run_calls() {
        let (p, r, m) = setup(SRC);
        let work = jobs_for(&p, &r, &[("CACHE", "str0"), ("OTHER", "str0")]);
        let mut sched = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), 1);
        let mut view = HeapGraphView::new(&r);
        let first = sched.run(&mut view, &work[..1]);
        let decided =
            first.tally.edges_refuted + first.tally.edges_witnessed + first.tally.edge_timeouts;
        assert!(decided > 0);
        // Re-running the same job hits only committed decisions.
        let again = sched.run(&mut view, &work[..1]);
        assert_eq!(again.tally, Tally::default());
    }

    #[test]
    fn disk_tier_warm_starts_schedulers() {
        use crate::persist::CacheMode;
        let dir = std::env::temp_dir().join("thresher-parallel-disk-tier");
        let _ = std::fs::remove_dir_all(&dir);
        let (p, r, m) = setup(SRC);
        let work = jobs_for(&p, &r, &[("CACHE", "secret0"), ("CACHE", "str0"), ("OTHER", "str0")]);

        let cold_store =
            Arc::new(DecisionStore::open(&dir, CacheMode::ReadWrite, &p).expect("open"));
        let mut cold = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), 1)
            .with_store(cold_store.clone());
        let mut view = HeapGraphView::new(&r);
        let cold_out = cold.run(&mut view, &work);
        let decided = cold_out.tally.cache_misses + cold_out.tally.cache_invalidated;
        assert!(decided > 0);
        assert_eq!(cold_out.tally.cache_hits, 0, "first run must be all misses");
        assert_eq!(cold_out.tally.cache_invalidated, 0);
        assert!(cold_out.tally.fresh_path_programs > 0);
        assert_eq!(cold_store.len() as u64, decided, "write-through persists each decision");

        for jobs in [1, 4] {
            let store = Arc::new(DecisionStore::open(&dir, CacheMode::Read, &p).expect("reopen"));
            let mut warm = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), jobs)
                .with_store(store);
            let mut view = HeapGraphView::new(&r);
            let warm_out = warm.run(&mut view, &work);
            let warm_refuted: Vec<bool> =
                warm_out.verdicts.iter().map(JobVerdict::is_refuted).collect();
            let cold_refuted: Vec<bool> =
                cold_out.verdicts.iter().map(JobVerdict::is_refuted).collect();
            assert_eq!(warm_refuted, cold_refuted, "jobs={jobs}");
            assert_eq!(warm_out.tally.cache_hits, decided, "jobs={jobs}");
            assert_eq!(warm_out.tally.cache_misses, 0, "jobs={jobs}");
            assert_eq!(warm_out.tally.cache_invalidated, 0, "jobs={jobs}");
            assert_eq!(
                warm_out.tally.fresh_path_programs, 0,
                "warm run must perform zero live path explorations (jobs={jobs})"
            );
            // Replayed deltas reproduce the cold run's merged stats.
            assert_eq!(warm.stats(), cold.stats(), "jobs={jobs}");
        }

        // A different config must not reuse the records.
        let store = Arc::new(DecisionStore::open(&dir, CacheMode::Read, &p).expect("reopen"));
        let cfg = SymexConfig::default().with_budget(9_999);
        let mut other = RefutationScheduler::new(&p, &r, &m, cfg, 1).with_store(store);
        let mut view = HeapGraphView::new(&r);
        let other_out = other.run(&mut view, &work);
        assert_eq!(other_out.tally.cache_hits, 0, "config change must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `cache_fresh_path_programs` counts only searches that ran: a cold
    /// run's equals its tally's `fresh_path_programs`, and a warm rerun
    /// replays the cold run's `path_programs` but adds nothing to it.
    #[test]
    fn fresh_path_programs_counter_skips_store_hits() {
        use crate::persist::CacheMode;
        use obs::Counter;
        let _serial = obs::test_lock();
        // `obs::capture` only buffers while a recorder is installed.
        obs::MemRecorder::install_static(obs::RingCapacity::default());
        let (p, r, m) = setup(SRC);
        let work = jobs_for(&p, &r, &[("CACHE", "secret0"), ("CACHE", "str0"), ("OTHER", "str0")]);
        for jobs in [1, 4] {
            let dir = std::env::temp_dir().join(format!("thresher-parallel-fresh-j{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let pass = |mode| {
                let store = Arc::new(DecisionStore::open(&dir, mode, &p).expect("open"));
                let mut sched = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), jobs)
                    .with_store(store);
                let mut view = HeapGraphView::new(&r);
                obs::capture(|| sched.run(&mut view, &work).tally)
            };
            let (cold, cold_obs) = pass(CacheMode::ReadWrite);
            let fresh = cold_obs.counter(Counter::CacheFreshPathPrograms);
            assert!(cold.fresh_path_programs > 0, "jobs={jobs}");
            assert_eq!(fresh, cold.fresh_path_programs, "jobs={jobs}");
            let (warm, warm_obs) = pass(CacheMode::Read);
            assert_eq!(warm.cache_hits, cold.cache_misses, "jobs={jobs}");
            assert_eq!(warm_obs.counter(Counter::CacheFreshPathPrograms), 0, "jobs={jobs}");
            assert_eq!(
                warm_obs.counter(Counter::PathPrograms),
                cold_obs.counter(Counter::PathPrograms),
                "jobs={jobs}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        obs::uninstall();
    }

    /// `b` is null unless the guarded allocation ran; `c` is always
    /// allocated. The read through `b` is a real null dereference, the
    /// write through `c` is refutable.
    const NULL_SRC: &str = r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var c: Box;
  var o: Object;
  var flag: int;
  flag = 0;
  c = new Box @box1;
  if (flag == 1) {
    b = new Box @box0;
  }
  o = b.item;
  c.item = o;
}
entry main;
"#;

    fn read_site(p: &Program, base: &str) -> DerefSite {
        (0..p.num_cmds())
            .map(tir::CmdId::from_index)
            .find_map(|c| match p.cmd(c) {
                tir::Command::ReadField { obj, .. } if p.var(*obj).name == base => {
                    Some(DerefSite { cmd: c, base: *obj })
                }
                _ => None,
            })
            .expect("no field read through that base")
    }

    fn write_site(p: &Program, base: &str) -> DerefSite {
        (0..p.num_cmds())
            .map(tir::CmdId::from_index)
            .find_map(|c| match p.cmd(c) {
                tir::Command::WriteField { obj, .. } if p.var(*obj).name == base => {
                    Some(DerefSite { cmd: c, base: *obj })
                }
                _ => None,
            })
            .expect("no field write through that base")
    }

    #[test]
    fn deref_answers_split_by_null_flow() {
        let (p, r, m) = setup(NULL_SRC);
        let mut sched = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), 1);
        let mut tally = Tally::default();
        let nullable = sched.decide_deref(read_site(&p, "b"), &mut tally);
        assert!(matches!(nullable, EdgeAnswer::Witnessed(Some(_))), "{nullable:?}");
        let safe = sched.decide_deref(write_site(&p, "c"), &mut tally);
        assert!(matches!(safe, EdgeAnswer::Refuted), "{safe:?}");
        assert_eq!(tally.edges_witnessed, 1);
        assert_eq!(tally.edges_refuted, 1);
        // Second demand is a cache hit: committed, no witness, no re-count.
        let again = sched.decide_deref(read_site(&p, "b"), &mut tally);
        assert!(matches!(again, EdgeAnswer::Witnessed(None)));
        assert_eq!(tally.edges_witnessed, 1);
        assert_eq!(sched.deref_decisions().len(), 2);
        assert!(sched.decisions().is_empty(), "no edge decisions were made");
    }

    #[test]
    fn run_derefs_is_jobs_invariant_and_disk_warmable() {
        use crate::persist::CacheMode;
        let dir = std::env::temp_dir().join("thresher-parallel-deref-disk");
        let _ = std::fs::remove_dir_all(&dir);
        let (p, r, m) = setup(NULL_SRC);
        let sites = [read_site(&p, "b"), write_site(&p, "c")];

        let store = Arc::new(DecisionStore::open(&dir, CacheMode::ReadWrite, &p).expect("open"));
        let mut cold = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), 1)
            .with_store(store.clone());
        let mut cold_tally = Tally::default();
        let cold_out = cold.run_derefs(&sites, &mut cold_tally);
        assert_eq!(cold_tally.cache_misses, 2);
        assert_eq!(cold_tally.cache_hits, 0);
        assert_eq!(store.len(), 2, "write-through persists deref decisions");

        for jobs in [1, 4] {
            let store = Arc::new(DecisionStore::open(&dir, CacheMode::Read, &p).expect("reopen"));
            let mut warm = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), jobs)
                .with_store(store);
            let mut tally = Tally::default();
            let out = warm.run_derefs(&sites, &mut tally);
            let shape = |v: &[(DerefSite, EdgeAnswer)]| {
                v.iter().map(|(s, a)| (*s, matches!(a, EdgeAnswer::Refuted))).collect::<Vec<_>>()
            };
            assert_eq!(shape(&out), shape(&cold_out), "jobs={jobs}");
            assert_eq!(tally.cache_hits, 2, "jobs={jobs}");
            assert_eq!(tally.fresh_path_programs, 0, "jobs={jobs}");
            assert_eq!(warm.stats(), cold.stats(), "jobs={jobs}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The must-not-null strong update: `b != null` pins `b` non-null, so
    /// a null reaching the guarded dereference *through the heap* (here a
    /// global) is refuted only when `track_null_guards` is on.
    #[test]
    fn null_guard_strong_update_is_gated() {
        const SRC: &str = r#"
class Box { field item: Object; }
global G: Box;
fn main() {
  var b: Box;
  var t: Box;
  var o: Object;
  var flag: int;
  flag = 0;
  if (flag == 1) {
    b = new Box @box0;
  }
  $G = b;
  if (b != null) {
    t = $G;
    o = t.item;
  }
}
entry main;
"#;
        let (p, r, m) = setup(SRC);
        let site = read_site(&p, "t");
        let mut engine = Engine::new(&p, &r, &m, SymexConfig::default());
        assert!(
            engine.refute_deref(&site).is_witnessed(),
            "without guard tracking the heap-routed null survives"
        );
        let mut engine = Engine::new(&p, &r, &m, SymexConfig::default().with_null_guards(true));
        assert!(
            engine.refute_deref(&site).is_refuted(),
            "guard tracking refutes the heap-routed null flow"
        );
    }

    #[test]
    fn decide_edge_commits_once() {
        let (p, r, m) = setup(SRC);
        let g = p.global_by_name("CACHE").unwrap();
        let target = r.locs().ids().find(|&l| r.loc_name(&p, l) == "box0").unwrap();
        let edge = HeapEdge::Global { global: g, target };
        let mut sched = RefutationScheduler::new(&p, &r, &m, SymexConfig::default(), 1);
        let mut tally = Tally::default();
        let first = sched.decide_edge(edge, &mut tally);
        assert!(matches!(first, EdgeAnswer::Witnessed(Some(_))));
        assert_eq!(tally.edges_witnessed, 1);
        let second = sched.decide_edge(edge, &mut tally);
        assert!(matches!(second, EdgeAnswer::Witnessed(None)));
        assert_eq!(tally.edges_witnessed, 1, "cache hit must not re-account");
    }
}
