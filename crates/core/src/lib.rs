//! # thresher — precise refutations for heap reachability
//!
//! A from-scratch Rust reproduction of *Thresher: Precise Refutations for
//! Heap Reachability* (Blackshear, Chang, Sridharan — PLDI 2013).
//!
//! Thresher answers heap-reachability queries — "can this object be reached
//! from that variable or object via pointer dereferences?" — with flow-,
//! context-, and path-sensitivity, by *refining* the result of a cheap
//! flow-insensitive points-to analysis: every may edge involved in a client
//! alarm is subjected to a backwards, goal-directed witness search, and a
//! failed search soundly deletes the edge.
//!
//! ## Pipeline
//!
//! 1. [`tir`] — the analyzed language (a small Java-like IR);
//! 2. [`pta`] — Andersen-style points-to analysis, call graph, mod/ref;
//! 3. [`symex`] — the witness-refutation engine with mixed
//!    symbolic-explicit queries (the paper's core contribution);
//! 4. [`android`] — the Activity-leak client and Android library model;
//! 5. [`Thresher`] (this crate) — one façade over the pipeline.
//!
//! ## Quick start
//!
//! ```
//! use thresher::Thresher;
//!
//! let program = tir::parse(r#"
//! class Box { field item: Object; }
//! global CACHE: Box;
//! fn main() {
//!   var b: Box;
//!   var secret: Object;
//!   var s: Object;
//!   b = new Box @box0;
//!   secret = new Object @secret0;
//!   s = new Object @str0;
//!   b.item = s;
//!   $CACHE = b;
//! }
//! entry main;
//! "#)?;
//!
//! let thresher = Thresher::new(&program);
//! // str0 really is stored in the cached box...
//! assert!(thresher.query_reachable("CACHE", "str0").is_reachable());
//! // ...and secret0 never is (not even an edge in the graph).
//! assert!(!thresher.query_reachable("CACHE", "secret0").is_reachable());
//! # Ok::<(), tir::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod clients;
pub mod exit;
pub mod null;
pub mod serve;

use std::path::Path;
use std::sync::Arc;

use pta::{BitSet, ContextPolicy, HeapEdge, HeapGraphView, LocId, ModRef, PtaResult};
use symex::Engine;
use tir::Program;

pub use android::{
    paper_annotations, ActivityLeakChecker, Alarm, AlarmResult, Annotation, ClientStats, LeakReport,
};
pub use clients::{Escape, EscapeChecker, EscapeReport};
pub use null::{NullClient, NullDeref, NullReport};
pub use obs;
pub use pta::ContextPolicy as PointsToPolicy;
pub use pta::PtaOptions;
pub use symex::{
    default_jobs, AbortCounts, CacheMode, DecisionStore, DerefSite, EdgeAnswer, EdgeDecision,
    JobVerdict, LoopMode, ReachJob, RefKey, RefutationScheduler, Representation, SchedulerOutcome,
    SearchOutcome, SearchStats, StopReason, StoreLimits, SymexConfig, Tally, Witness,
};

/// The outcome of a refined heap-reachability query.
#[derive(Debug)]
pub enum ReachabilityAnswer {
    /// Reachability was refuted: every candidate heap path was severed by
    /// sound refutations.
    Refuted {
        /// Edges individually refuted during the search.
        refuted_edges: Vec<HeapEdge>,
    },
    /// A heap path survived; each of its edges is witnessed (or timed out,
    /// which is conservatively treated as witnessed).
    Reachable {
        /// The surviving path.
        path: Vec<HeapEdge>,
        /// A witness for one of the path's edges, if available.
        witness: Option<Witness>,
    },
}

impl ReachabilityAnswer {
    /// True if a path survived refutation.
    pub fn is_reachable(&self) -> bool {
        matches!(self, ReachabilityAnswer::Reachable { .. })
    }
}

/// One-stop façade: owns the analysis results for a program and answers
/// refined reachability queries.
pub struct Thresher<'p> {
    program: &'p Program,
    config: SymexConfig,
    pta: PtaResult,
    modref: ModRef,
    jobs: usize,
    cache: Option<Arc<DecisionStore>>,
}

impl<'p> Thresher<'p> {
    /// Analyzes `program` with the default configuration
    /// (context-insensitive points-to analysis, paper-default engine).
    pub fn new(program: &'p Program) -> Self {
        Self::with_setup(program, ContextPolicy::Insensitive, SymexConfig::default())
    }

    /// Analyzes `program` with an explicit points-to policy and engine
    /// configuration.
    pub fn with_setup(program: &'p Program, policy: ContextPolicy, config: SymexConfig) -> Self {
        Self::with_options(program, policy, config, &PtaOptions::default())
    }

    /// Full-control constructor, including points-to annotations.
    pub fn with_options(
        program: &'p Program,
        policy: ContextPolicy,
        config: SymexConfig,
        options: &PtaOptions,
    ) -> Self {
        let _span = obs::span(obs::SpanKind::Setup, "points-to + mod/ref");
        let pta = pta::analyze_with(program, policy, options);
        let modref = ModRef::compute(program, &pta);
        Thresher { program, config, pta, modref, jobs: 1, cache: None }
    }

    /// Sets the refutation-scheduler thread count used by the query and
    /// client entry points (1 = sequential, the default; every reported
    /// number is identical for every setting). See [`default_jobs`] for the
    /// all-cores value.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent, content-addressed refutation cache rooted at
    /// `dir` (see `symex::persist`). Decisions whose fingerprint — edge,
    /// producer statements, engine configuration, and the canonical text of
    /// every method in the edge's call-graph slice — matches a stored record
    /// are warm-started without any symbolic execution; in
    /// [`CacheMode::ReadWrite`] fresh decisions are written through. A
    /// façade without this call is cache-free (no I/O at all).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or opening the store. A
    /// *corrupt* store is not an error: damaged lines are skipped (counted
    /// in `cache_skipped_corrupt`) and the run degrades to cold.
    pub fn with_cache(mut self, dir: &Path, mode: CacheMode) -> std::io::Result<Self> {
        self.cache = Some(Arc::new(DecisionStore::open(dir, mode, self.program)?));
        Ok(self)
    }

    /// Attaches an already-open decision store (shared with other
    /// consumers). See [`Thresher::with_cache`].
    pub fn with_store(mut self, store: Arc<DecisionStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// The attached decision store, if any.
    pub fn cache(&self) -> Option<&Arc<DecisionStore>> {
        self.cache.as_ref()
    }

    /// The underlying points-to result.
    pub fn points_to(&self) -> &PtaResult {
        &self.pta
    }

    /// The underlying mod/ref summaries.
    pub fn modref(&self) -> &ModRef {
        &self.modref
    }

    /// The analyzed program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Attempts to refute a single may points-to edge. This is the
    /// paper's core operation: a [`SearchOutcome::Refuted`] answer is a
    /// sound proof that no execution produces the edge.
    pub fn refute_edge(&self, edge: &HeapEdge) -> (SearchOutcome, SearchStats) {
        let mut engine = Engine::new(self.program, &self.pta, &self.modref, self.config.clone());
        let out = engine.refute_edge(edge);
        (out, engine.stats)
    }

    /// Refined heap reachability from global `global_name` to the abstract
    /// location named `loc_name` (e.g. an allocation-site name like
    /// `act0`): edges are refuted and deleted until the endpoints
    /// disconnect or a path is fully witnessed.
    ///
    /// # Panics
    ///
    /// Panics if the global or location name does not exist.
    pub fn query_reachable(&self, global_name: &str, loc_name: &str) -> ReachabilityAnswer {
        let global = self
            .program
            .global_by_name(global_name)
            .unwrap_or_else(|| panic!("no global named {global_name}"));
        let target = self
            .pta
            .locs()
            .ids()
            .find(|&l| self.pta.loc_name(self.program, l) == loc_name)
            .unwrap_or_else(|| panic!("no abstract location named {loc_name}"));
        self.query_reachable_loc(global, target)
    }

    /// Resolves an abstract location by its display name (e.g. `act0` or
    /// `vec0.vec_grown`).
    pub fn resolve_loc(&self, name: &str) -> Option<LocId> {
        self.pta.locs().ids().find(|&l| self.pta.loc_name(self.program, l) == name)
    }

    /// Fallible form of [`Thresher::query_reachable`]: returns `None` when
    /// the global or location name does not exist (instead of panicking).
    pub fn try_query_reachable(
        &self,
        global_name: &str,
        loc_name: &str,
    ) -> Option<ReachabilityAnswer> {
        let global = self.program.global_by_name(global_name)?;
        let target = self.resolve_loc(loc_name)?;
        Some(self.query_reachable_loc(global, target))
    }

    /// [`Thresher::query_reachable`] with resolved ids. Edge decisions go
    /// through a [`RefutationScheduler`], so repeated edges are decided
    /// once per query and, with [`Thresher::with_jobs`], independent edges
    /// are decided in parallel.
    pub fn query_reachable_loc(&self, global: tir::GlobalId, target: LocId) -> ReachabilityAnswer {
        self.query_reachable_loc_tally(global, target).0
    }

    /// [`Thresher::query_reachable_loc`], additionally returning the
    /// scheduler's decision [`Tally`] — the abort provenance callers need
    /// to distinguish a complete refutation from a degraded one (see the
    /// [`exit`] contract).
    pub fn query_reachable_loc_tally(
        &self,
        global: tir::GlobalId,
        target: LocId,
    ) -> (ReachabilityAnswer, Tally) {
        let _span = obs::span_with(obs::SpanKind::Query, || {
            format!(
                "{} ~> {}",
                self.program.global(global).name,
                self.pta.loc_name(self.program, target)
            )
        });
        let mut sched = RefutationScheduler::new(
            self.program,
            &self.pta,
            &self.modref,
            self.config.clone(),
            self.jobs,
        );
        if let Some(store) = &self.cache {
            sched.set_store(store.clone());
        }
        let mut view = HeapGraphView::new(&self.pta);
        let job = ReachJob { source: global, targets: BitSet::singleton(target.index()) };
        let outcome = sched.run(&mut view, std::slice::from_ref(&job));
        let answer = match outcome.verdicts.into_iter().next().expect("one verdict per job") {
            JobVerdict::Refuted { refuted_edges } => ReachabilityAnswer::Refuted { refuted_edges },
            JobVerdict::Witnessed { path, witness } => {
                ReachabilityAnswer::Reachable { path, witness }
            }
        };
        (answer, outcome.tally)
    }

    /// Creates an [`EscapeChecker`] over this analysis (the §1
    /// encapsulation/escape client).
    pub fn escape_checker(&self) -> EscapeChecker<'_> {
        let mut checker =
            EscapeChecker::new(self.program, &self.pta, &self.modref, self.config.clone())
                .with_jobs(self.jobs);
        if let Some(store) = &self.cache {
            checker = checker.with_store(store.clone());
        }
        checker
    }

    /// Creates a [`NullClient`] over this analysis (the null-dereference
    /// refutation client; see [`null`]). The client forces
    /// [`SymexConfig::track_null_guards`] on for its own searches.
    pub fn null_client(&self) -> NullClient<'_> {
        let mut client =
            NullClient::new(self.program, &self.pta, &self.modref, self.config.clone())
                .with_jobs(self.jobs);
        if let Some(store) = &self.cache {
            client = client.with_store(store.clone());
        }
        client
    }

    /// Runs the null-dereference client end to end: sentinel-tier
    /// candidate enumeration plus refutation of every candidate site.
    pub fn check_null_derefs(&self) -> NullReport {
        self.null_client().run()
    }

    /// Runs the Android Activity-leak client over this program (requires
    /// the [`android::library`] model to be installed in the program).
    pub fn check_activity_leaks(&self) -> LeakReport {
        let mut client =
            android::LeakClient::new(self.program, &self.pta, &self.modref, self.config.clone())
                .with_jobs(self.jobs);
        if let Some(store) = &self.cache {
            client = client.with_store(store.clone());
        }
        client.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        tir::parse(
            r#"
class Box { field item: Object; }
global CACHE: Box;
global FLAG: int;
fn main() {
  var b: Box;
  var secret: Object;
  var s: Object;
  var f: int;
  b = new Box @box0;
  secret = new Object @secret0;
  s = new Object @str0;
  $FLAG = 0;
  f = $FLAG;
  if (f == 1) {
    b.item = secret;
  }
  b.item = s;
  $CACHE = b;
}
entry main;
"#,
        )
        .expect("parse")
    }

    #[test]
    fn facade_reachability() {
        let p = program();
        let t = Thresher::new(&p);
        assert!(t.query_reachable("CACHE", "str0").is_reachable());
        // The secret store is dead code: refuted.
        let answer = t.query_reachable("CACHE", "secret0");
        match answer {
            ReachabilityAnswer::Refuted { refuted_edges } => {
                assert!(!refuted_edges.is_empty());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn refute_edge_exposes_stats() {
        let p = program();
        let t = Thresher::new(&p);
        let box0 =
            t.points_to().locs().ids().find(|&l| t.points_to().loc_name(&p, l) == "box0").unwrap();
        let secret = t
            .points_to()
            .locs()
            .ids()
            .find(|&l| t.points_to().loc_name(&p, l) == "secret0")
            .unwrap();
        let c = p.class_by_name("Box").unwrap();
        let f = p.resolve_field(c, "item").unwrap();
        let (out, stats) = t.refute_edge(&HeapEdge::Field { base: box0, field: f, target: secret });
        assert!(out.is_refuted());
        assert!(stats.cmds_executed > 0);
    }
}
