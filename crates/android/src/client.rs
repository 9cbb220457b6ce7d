//! The Activity-leak client (§2 "Formulate Queries", §4).
//!
//! An *alarm* is a pair (static field, Activity abstract location) connected
//! in the flow-insensitive points-to graph. The client asks the
//! witness-refutation engine about each edge of a connecting heap path; a
//! refuted edge is deleted and an alternative path is sought. The alarm is
//! *filtered* when source and sink become disconnected, and *reported* when
//! every edge of some path is witnessed (or times out, which is soundly
//! treated as witnessed).
//!
//! Edge decisions are delegated to the [`RefutationScheduler`], which owns
//! the shared edge-decision cache and can fan independent decisions over
//! worker threads ([`LeakClient::with_jobs`]) without changing any reported
//! number.

use std::collections::HashMap;

use pta::{BitSet, HeapEdge, HeapGraphView, LocId, ModRef, PtaResult};
use symex::{AbortCounts, JobVerdict, ReachJob, RefutationScheduler, SymexConfig, Tally, Witness};
use tir::{GlobalId, Program};

// Annotations are applied at the points-to level (see
// [`crate::annotations`]); the client consumes the already-annotated
// analysis result.

/// One (static field, Activity location) pair reported by the
/// flow-insensitive analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Alarm {
    /// The static field (global) at the path source.
    pub field: GlobalId,
    /// The Activity instance location at the path sink.
    pub activity: LocId,
}

/// Outcome of triaging one alarm.
#[derive(Clone, Debug)]
pub enum AlarmResult {
    /// Every heap path was severed: the alarm is a proven false positive.
    Refuted,
    /// A path survived with all edges witnessed: a real (or at least
    /// unrefuted) leak, with one witness per edge.
    Witnessed {
        /// The surviving path.
        path: Vec<HeapEdge>,
        /// A representative witness for the last edge decided.
        witness: Option<Witness>,
    },
}

impl AlarmResult {
    /// True if the alarm was filtered out.
    pub fn is_refuted(&self) -> bool {
        matches!(self, AlarmResult::Refuted)
    }
}

/// Per-run counters matching the Table 1 column groups, extended with
/// abort/degradation provenance.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Edges refuted (`RefEdg`).
    pub edges_refuted: usize,
    /// Edges witnessed (`WitEdg`).
    pub edges_witnessed: usize,
    /// Edge timeouts (`TO`): edges whose search aborted for any reason.
    pub edge_timeouts: usize,
    /// Abort counts by reason (`edge_timeouts` broken down).
    pub aborts: AbortCounts,
    /// Extra (degraded) refutation attempts beyond the strict first pass.
    pub retries: usize,
    /// Edges decided only by a coarsened retry.
    pub degraded_decisions: usize,
    /// Pending path edges descheduled because an earlier edge of their path
    /// was refuted (never searched — distinct from aborted).
    pub edges_descheduled: usize,
    /// Committed decisions reused from the persistent cache (zero without
    /// an attached store).
    pub cache_hits: usize,
    /// Committed decisions computed live for lack of a cache record.
    pub cache_misses: usize,
    /// Committed decisions recomputed because an edit invalidated their
    /// cache record.
    pub cache_invalidated: usize,
    /// Path programs explored by live (non-cache) computation; zero on a
    /// fully warm run.
    pub fresh_path_programs: u64,
    /// Total symbolic-execution compute time (summed per edge; under
    /// `--jobs N` the wall clock is smaller).
    pub symex_time: std::time::Duration,
}

impl ClientStats {
    /// Folds one scheduler [`Tally`] into these counters.
    fn absorb(&mut self, t: &Tally) {
        self.edges_refuted += t.edges_refuted as usize;
        self.edges_witnessed += t.edges_witnessed as usize;
        self.edge_timeouts += t.edge_timeouts as usize;
        self.aborts.merge(&t.aborts);
        self.retries += t.retries as usize;
        self.degraded_decisions += t.degraded_decisions as usize;
        self.edges_descheduled += t.edges_descheduled as usize;
        self.cache_hits += t.cache_hits as usize;
        self.cache_misses += t.cache_misses as usize;
        self.cache_invalidated += t.cache_invalidated as usize;
        self.fresh_path_programs += t.fresh_path_programs;
        self.symex_time += t.symex_time;
    }
}

/// The full leak report for one app/configuration.
#[derive(Debug)]
pub struct LeakReport {
    /// Each alarm with its outcome, in discovery order.
    pub alarms: Vec<(Alarm, AlarmResult)>,
    /// Edge/time counters.
    pub stats: ClientStats,
}

impl LeakReport {
    /// Number of alarms reported by the flow-insensitive analysis
    /// (`Alarms`).
    pub fn num_alarms(&self) -> usize {
        self.alarms.len()
    }

    /// Number of refuted alarms (`RefA`).
    pub fn num_refuted(&self) -> usize {
        self.alarms.iter().filter(|(_, r)| r.is_refuted()).count()
    }

    /// Number of surviving alarms.
    pub fn num_witnessed(&self) -> usize {
        self.num_alarms() - self.num_refuted()
    }

    /// Distinct leaky fields reported by the points-to analysis (`Flds`).
    pub fn num_fields(&self) -> usize {
        let mut fields: Vec<GlobalId> = self.alarms.iter().map(|(a, _)| a.field).collect();
        fields.sort();
        fields.dedup();
        fields.len()
    }

    /// Fields whose every alarm was refuted (`RefFlds`): proven to never
    /// point to any Activity.
    pub fn num_refuted_fields(&self) -> usize {
        let mut by_field: HashMap<GlobalId, bool> = HashMap::new();
        for (a, r) in &self.alarms {
            let e = by_field.entry(a.field).or_insert(true);
            *e &= r.is_refuted();
        }
        by_field.values().filter(|&&all| all).count()
    }
}

/// The leak-detection client. Owns the deletion overlay and the refutation
/// scheduler (and through it the shared edge-decision cache); borrows the
/// analysis results.
pub struct LeakClient<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    view: HeapGraphView<'a>,
    sched: RefutationScheduler<'a>,
    activity_locs: BitSet,
}

impl<'a> LeakClient<'a> {
    /// Creates a client over an (optionally annotation-aware) analysis
    /// result. Runs sequentially by default; see [`LeakClient::with_jobs`].
    pub fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        modref: &'a ModRef,
        config: SymexConfig,
    ) -> Self {
        let view = HeapGraphView::new(pta);
        let activity_class =
            program.class_by_name("Activity").expect("Android library model not installed");
        let activity_locs = pta.locs_of_class(program, activity_class);
        LeakClient {
            program,
            pta,
            view,
            sched: RefutationScheduler::new(program, pta, modref, config, 1),
            activity_locs,
        }
    }

    /// Sets the scheduler thread count (1 = sequential; reported numbers
    /// are identical for every setting).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.sched.set_jobs(jobs);
        self
    }

    /// Attaches a persistent decision store: decisions are warm-started
    /// from disk when their fingerprint matches and (in read-write mode)
    /// written through on commit.
    pub fn with_store(mut self, store: std::sync::Arc<symex::DecisionStore>) -> Self {
        self.sched.set_store(store);
        self
    }

    /// Read access to the merged engine statistics (across all decisions
    /// committed so far, whichever thread computed them).
    pub fn engine_stats(&self) -> &symex::SearchStats {
        self.sched.stats()
    }

    /// Enumerates the (field, Activity) alarms of the annotated points-to
    /// graph.
    pub fn find_alarms(&self) -> Vec<Alarm> {
        let mut out = Vec::new();
        for g in self.program.global_ids() {
            for target in self.activity_locs.iter() {
                let t: BitSet = BitSet::singleton(target);
                if self.view.is_reachable(self.program, g, &t) {
                    out.push(Alarm { field: g, activity: LocId(target as u32) });
                }
            }
        }
        out
    }

    /// Triages one alarm: refute edges along paths until the alarm's
    /// endpoints are disconnected, or some path is fully witnessed.
    pub fn triage(&mut self, alarm: Alarm, stats: &mut ClientStats) -> AlarmResult {
        let _span = obs::span_with(obs::SpanKind::Alarm, || self.describe_alarm(&alarm));
        let job =
            ReachJob { source: alarm.field, targets: BitSet::singleton(alarm.activity.index()) };
        let outcome = self.sched.run(&mut self.view, std::slice::from_ref(&job));
        stats.absorb(&outcome.tally);
        match outcome.verdicts.into_iter().next().expect("one verdict per job") {
            JobVerdict::Refuted { .. } => AlarmResult::Refuted,
            JobVerdict::Witnessed { path, witness } => AlarmResult::Witnessed { path, witness },
        }
    }

    /// Runs the full pipeline: enumerate alarms, triage all of them in one
    /// scheduler batch (so worker threads can speculate across alarms),
    /// aggregate.
    pub fn run(mut self) -> LeakReport {
        let _span = obs::span(obs::SpanKind::Client, "activity-leak");
        let alarms = self.find_alarms();
        obs::add(obs::Counter::AlarmsFound, alarms.len() as u64);
        let jobs: Vec<ReachJob> = alarms
            .iter()
            .map(|a| ReachJob { source: a.field, targets: BitSet::singleton(a.activity.index()) })
            .collect();
        let outcome = self.sched.run(&mut self.view, &jobs);
        let mut stats = ClientStats::default();
        stats.absorb(&outcome.tally);
        let mut results = Vec::new();
        for (alarm, verdict) in alarms.into_iter().zip(outcome.verdicts) {
            let r = match verdict {
                JobVerdict::Refuted { .. } => AlarmResult::Refuted,
                JobVerdict::Witnessed { path, witness } => AlarmResult::Witnessed { path, witness },
            };
            obs::add(
                if r.is_refuted() {
                    obs::Counter::AlarmsRefuted
                } else {
                    obs::Counter::AlarmsWitnessed
                },
                1,
            );
            results.push((alarm, r));
        }
        LeakReport { alarms: results, stats }
    }

    /// Renders an alarm for diagnostics.
    pub fn describe_alarm(&self, alarm: &Alarm) -> String {
        format!(
            "{} ~> {}",
            self.program.global(alarm.field).name,
            self.pta.loc_name(self.program, alarm.activity)
        )
    }
}
