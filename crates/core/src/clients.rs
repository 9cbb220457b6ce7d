//! Additional heap-reachability clients (§1 of the paper motivates these:
//! "a heap reachability checker would also enable a developer to write
//! statically checkable assertions about, for example, object lifetimes,
//! encapsulation of fields, or immutability of objects").
//!
//! [`EscapeChecker`] decides, with refutation-backed precision, whether
//! instances of a class (or of one allocation site) can *escape* to a
//! static field — the generalization of the Activity-leak client to any
//! type.

use std::sync::Arc;

use pta::{BitSet, HeapEdge, HeapGraphView, LocId, ModRef, PtaResult};
use symex::{AbortCounts, DecisionStore, JobVerdict, ReachJob, RefutationScheduler, SymexConfig};
use tir::{ClassId, GlobalId, Program};

/// One escaping-object finding.
#[derive(Clone, Debug)]
pub struct Escape {
    /// The static field the object escapes through.
    pub global: GlobalId,
    /// The escaping instance's abstract location.
    pub target: LocId,
    /// The surviving heap path.
    pub path: Vec<HeapEdge>,
}

/// Result of an escape check.
#[derive(Debug)]
pub struct EscapeReport {
    /// Surviving (unrefuted) escapes.
    pub escapes: Vec<Escape>,
    /// (global, target) pairs claimed by the points-to graph but refuted.
    pub refuted_pairs: usize,
    /// Edges refuted along the way.
    pub edges_refuted: usize,
    /// Edge timeouts (treated as escapes, soundly): total aborted edges.
    pub edge_timeouts: usize,
    /// Abort counts by reason (`edge_timeouts` broken down).
    pub aborts: AbortCounts,
    /// Extra (degraded) refutation attempts beyond the strict first pass.
    pub retries: usize,
    /// Edges decided only by a coarsened retry.
    pub degraded_decisions: usize,
}

impl EscapeReport {
    /// True if no instance escapes — the encapsulation assertion holds.
    pub fn is_encapsulated(&self) -> bool {
        self.escapes.is_empty()
    }
}

/// Refutation-backed escape analysis over one analyzed program.
pub struct EscapeChecker<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    modref: &'a ModRef,
    config: SymexConfig,
    jobs: usize,
    store: Option<Arc<DecisionStore>>,
}

impl<'a> EscapeChecker<'a> {
    /// Creates a checker over existing analysis results (sequential
    /// refutation; see [`EscapeChecker::with_jobs`]).
    pub fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        modref: &'a ModRef,
        config: SymexConfig,
    ) -> Self {
        EscapeChecker { program, pta, modref, config, jobs: 1, store: None }
    }

    /// Sets the refutation-scheduler thread count (1 = sequential; the
    /// report is identical for every setting).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent decision store: every check warm-starts
    /// from it and (in read-write mode) writes decisions through.
    pub fn with_store(mut self, store: Arc<DecisionStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Checks whether any instance of `class` (or a subclass) can be
    /// reached from any static field.
    pub fn check_class(&self, class: ClassId) -> EscapeReport {
        self.check_targets(self.pta.locs_of_class(self.program, class))
    }

    /// Checks whether any instance allocated at the site named
    /// `alloc_name` can be reached from any static field.
    ///
    /// # Panics
    ///
    /// Panics if no abstract location carries that name.
    pub fn check_site(&self, alloc_name: &str) -> EscapeReport {
        let targets: BitSet = self
            .pta
            .locs()
            .ids()
            .filter(|&l| self.pta.loc_name(self.program, l) == alloc_name)
            .map(|l| l.index())
            .collect();
        assert!(!targets.is_empty(), "no abstract location named {alloc_name}");
        self.check_targets(targets)
    }

    /// The general form: refute reachability from every global to every
    /// location in `targets` that the points-to graph connects it to,
    /// sharing the edge-decision cache across pairs (and, with `jobs > 1`,
    /// deciding independent edges in parallel).
    pub fn check_targets(&self, targets: BitSet) -> EscapeReport {
        let _span = obs::span(obs::SpanKind::Client, "escape-checker");
        let mut sched = RefutationScheduler::new(
            self.program,
            self.pta,
            self.modref,
            self.config.clone(),
            self.jobs,
        );
        if let Some(store) = &self.store {
            sched.set_store(store.clone());
        }
        let mut view = HeapGraphView::new(self.pta);
        let mut pairs = Vec::new();
        let mut jobs = Vec::new();
        for global in self.program.global_ids() {
            for t in targets.iter() {
                let target = BitSet::singleton(t);
                if view.is_reachable(self.program, global, &target) {
                    pairs.push((global, LocId(t as u32)));
                    jobs.push(ReachJob { source: global, targets: target });
                }
            }
        }
        let outcome = sched.run(&mut view, &jobs);
        let t = &outcome.tally;
        let mut report = EscapeReport {
            escapes: Vec::new(),
            refuted_pairs: 0,
            edges_refuted: t.edges_refuted as usize,
            edge_timeouts: t.edge_timeouts as usize,
            aborts: t.aborts.clone(),
            retries: t.retries as usize,
            degraded_decisions: t.degraded_decisions as usize,
        };
        for ((global, target), verdict) in pairs.into_iter().zip(outcome.verdicts) {
            match verdict {
                JobVerdict::Refuted { .. } => report.refuted_pairs += 1,
                JobVerdict::Witnessed { path, .. } => {
                    report.escapes.push(Escape { global, target, path });
                }
            }
        }
        report
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
class Secret { }
class Public { }
class Box { field item: Object; }
global SHARED: Box;
fn main() {
  var b: Box;
  var s: Secret;
  var pu: Public;
  var flag: int;
  b = new Box @box0;
  s = new Secret @secret0;
  pu = new Public @public0;
  flag = 0;
  if (flag == 1) {
    b.item = s;
  }
  b.item = pu;
  $SHARED = b;
}
entry main;
"#;

    #[test]
    fn secret_is_encapsulated_public_escapes() {
        let (p, r, m) = setup(SRC);
        let checker = EscapeChecker::new(&p, &r, &m, SymexConfig::default());

        let secret = p.class_by_name("Secret").unwrap();
        let report = checker.check_class(secret);
        assert!(report.is_encapsulated(), "{report:?}");
        assert!(report.edges_refuted > 0);

        let public = p.class_by_name("Public").unwrap();
        let report = checker.check_class(public);
        assert!(!report.is_encapsulated());
        assert_eq!(report.escapes.len(), 1);
        assert_eq!(report.escapes[0].path.len(), 2);
    }

    #[test]
    fn check_site_by_name() {
        let (p, r, m) = setup(SRC);
        let checker = EscapeChecker::new(&p, &r, &m, SymexConfig::default());
        assert!(checker.check_site("secret0").is_encapsulated());
        assert!(!checker.check_site("public0").is_encapsulated());
        assert!(checker.check_site("box0").escapes.len() == 1);
    }

    /// Only `SHARED` may reach `secret0` in the points-to graph, and that
    /// edge is refuted: one refuted pair, not one per global.
    #[test]
    fn refuted_pairs_count_only_claimed_pairs() {
        let (p, r, m) = setup(
            r#"
class Secret { }
class Box { field item: Object; }
global SHARED: Box;
global OTHER: Box;
global UNUSED: Box;
fn main() {
  var b: Box;
  var o: Box;
  var s: Secret;
  var flag: int;
  b = new Box @box0;
  o = new Box @box1;
  s = new Secret @secret0;
  flag = 0;
  if (flag == 1) {
    b.item = s;
  }
  $SHARED = b;
  $OTHER = o;
}
entry main;
"#,
        );
        let report = EscapeChecker::new(&p, &r, &m, SymexConfig::default()).check_site("secret0");
        assert!(report.is_encapsulated(), "{report:?}");
        assert_eq!(report.refuted_pairs, 1, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "no abstract location named nope")]
    fn unknown_site_panics() {
        let (p, r, m) = setup(SRC);
        EscapeChecker::new(&p, &r, &m, SymexConfig::default()).check_site("nope");
    }
}
