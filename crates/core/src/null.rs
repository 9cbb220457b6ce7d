//! Null-dereference refutation client.
//!
//! The classic refinement client the paper's §1 gestures at: a cheap
//! over-approximate front end proposes *candidate* null dereferences, and
//! the backwards witness search either refutes each one (a sound proof the
//! base is non-null on every path reaching the site) or produces a path
//! program witnessing the flow of `null` into the dereferenced local.
//!
//! ## The null-sentinel tier
//!
//! The flow-insensitive points-to analysis ([`pta`]) tracks only proper
//! allocation sites; `null` is represented by *absence*. This client adds
//! the missing sentinel as a client-side lattice over the same graph: a
//! fixpoint marks every variable, field cell `(loc, field)`, global, and
//! method return whose may-value set contains the sentinel, seeded by
//!
//! - explicit `null` operands (assignments, field/global writes, call
//!   arguments, returns),
//! - globals never written on any path (statics are null at program
//!   entry), and never-written field cells (fields are null at birth),
//! - array `contents` cells unconditionally (elements are null at birth
//!   and proving full initialization is exactly the path-sensitive
//!   engine's job — the paper's Figure 1 motif).
//!
//! and propagated through assignments, heap reads, call parameter binding
//! (excluding receivers: a null receiver faults *at the call*, which is
//! its own dereference site, and therefore never reaches a callee's
//! `this`), and returns along the points-to call graph.
//!
//! A *candidate site* is any field read/write, array access, or virtual
//! call whose base local carries the sentinel. Each candidate becomes a
//! [`DerefSite`] query — "can `null` flow into `base` at this command?" —
//! decided by the full refutation stack: the parallel
//! [`RefutationScheduler`], the persistent decision cache, and
//! [`SymexConfig::track_null_guards`] strong updates (forced on for this
//! client; null-comparison guards are the idiomatic defense).
//!
//! ## Known blind spot (front end, not engine)
//!
//! The sentinel tier is flow-insensitive, so a field or global that *is*
//! written a non-null value somewhere is only marked when the written
//! value itself may be null — a read that precedes the sole initializing
//! write is missed (no candidate is proposed; nothing unsound is ever
//! *reported*). Array contents are exempt: they are always sentinel-
//! bearing, which is why the Figure 1 vector motif is caught. See
//! DESIGN.md §19.
//!
//! [`SymexConfig::track_null_guards`]: symex::SymexConfig

use std::sync::Arc;

use obs::json::Value;
use pta::{BitSet, ModRef, PtaResult};
use symex::{
    AbortCounts, DecisionStore, DerefSite, EdgeAnswer, RefutationScheduler, SymexConfig, Tally,
    Witness,
};
use tir::{Callee, CmdId, Command, Operand, Program};

/// One candidate null dereference and its refutation verdict.
#[derive(Clone, Debug)]
pub struct NullDeref {
    /// The dereference site (command + base local).
    pub site: DerefSite,
    /// The path-program witness, when the committing search produced one
    /// (`None` for aborted sites and warm cache hits).
    pub witness: Option<Witness>,
    /// True if the search gave up (budget/deadline) rather than finding a
    /// witness; the site is soundly reported, not proven.
    pub aborted: bool,
}

impl NullDeref {
    /// Human-readable rendering using program names.
    pub fn describe(&self, program: &Program) -> String {
        let tag = if self.aborted { "POSSIBLE (aborted)" } else { "NULL DEREF" };
        format!("{tag}: {}", self.site.describe(program))
    }
}

/// Result of a whole-program null-dereference check.
#[derive(Debug)]
pub struct NullReport {
    /// Surviving (witnessed or aborted) dereferences, in site order.
    pub alarms: Vec<NullDeref>,
    /// Candidate sites proposed by the sentinel tier.
    pub candidate_sites: usize,
    /// Candidates refuted — proven non-null on every path.
    pub refuted_sites: usize,
    /// Deref/edge keys refuted along the way (scheduler tally).
    pub edges_refuted: usize,
    /// Aborted searches (treated as alarms, soundly).
    pub edge_timeouts: usize,
    /// `edge_timeouts` broken down by reason.
    pub aborts: AbortCounts,
    /// Extra (degraded) refutation attempts beyond the strict first pass.
    pub retries: usize,
    /// Sites decided only by a coarsened retry.
    pub degraded_decisions: usize,
}

impl NullReport {
    /// True if every candidate dereference was refuted.
    pub fn is_null_safe(&self) -> bool {
        self.alarms.is_empty()
    }

    /// Number of surviving alarms.
    pub fn num_alarms(&self) -> usize {
        self.alarms.len()
    }

    /// Deterministic multi-line rendering (no timings, no ids — stable
    /// across `--jobs`, cache state, and points-to solver strategy).
    pub fn describe(&self, program: &Program) -> String {
        let mut out = format!(
            "null derefs: {} alarm(s), {} refuted, {} candidate(s)\n",
            self.num_alarms(),
            self.refuted_sites,
            self.candidate_sites
        );
        for a in &self.alarms {
            out.push_str("  ");
            out.push_str(&a.describe(program));
            out.push('\n');
        }
        out
    }

    /// Machine-readable rendering with the same stability contract as
    /// [`NullReport::describe`].
    pub fn to_value(&self, program: &Program) -> Value {
        let alarms = self
            .alarms
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("site".to_owned(), Value::str(a.site.describe(program))),
                    ("aborted".to_owned(), Value::Bool(a.aborted)),
                ];
                if let Some(w) = &a.witness {
                    let steps = w.steps(program).into_iter().map(Value::Str).collect::<Vec<_>>();
                    fields.push(("witness".to_owned(), Value::Arr(steps)));
                }
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            ("alarms".to_owned(), Value::Arr(alarms)),
            ("candidate_sites".to_owned(), Value::uint(self.candidate_sites as u64)),
            ("refuted_sites".to_owned(), Value::uint(self.refuted_sites as u64)),
            ("edges_refuted".to_owned(), Value::uint(self.edges_refuted as u64)),
            ("edge_timeouts".to_owned(), Value::uint(self.edge_timeouts as u64)),
        ])
    }
}

/// Refutation-backed null-dereference analysis over one analyzed program.
pub struct NullClient<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    modref: &'a ModRef,
    config: SymexConfig,
    jobs: usize,
    store: Option<Arc<DecisionStore>>,
}

/// The sentinel lattice: which nodes may hold `null`, each keyed by its
/// dense id.
#[derive(Default)]
struct Sentinel {
    vars: BitSet,
    /// Per field, the locations whose cell of that field was written a
    /// may-null value.
    cells: Vec<BitSet>,
    globals: BitSet,
    rets: BitSet,
}

impl Sentinel {
    fn op_may_null(&self, op: &Operand) -> bool {
        match op {
            Operand::Null => true,
            Operand::Var(v) => self.vars.contains(v.index()),
            Operand::Int(_) => false,
        }
    }
}

impl<'a> NullClient<'a> {
    /// Creates a client over existing analysis results (sequential
    /// refutation; see [`NullClient::with_jobs`]).
    pub fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        modref: &'a ModRef,
        config: SymexConfig,
    ) -> Self {
        NullClient { program, pta, modref, config, jobs: 1, store: None }
    }

    /// Sets the refutation-scheduler thread count (1 = sequential; the
    /// report is identical for every setting).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent decision store: every check warm-starts from
    /// it and (in read-write mode) writes decisions through.
    pub fn with_store(mut self, store: Arc<DecisionStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Commands of every pta-reached method, in deterministic
    /// (method id, body) order.
    fn reached_cmds(&self) -> Vec<CmdId> {
        let mut out = Vec::new();
        for m in self.program.method_ids() {
            if self.pta.is_reached(m) {
                out.extend(self.program.method_cmds(m));
            }
        }
        out
    }

    /// The candidate dereference sites: every field/array access or
    /// virtual call whose base local carries the null sentinel.
    pub fn candidate_sites(&self) -> Vec<DerefSite> {
        let cmds = self.reached_cmds();
        let sentinel = self.sentinel(&cmds);
        let mut sites: Vec<DerefSite> = cmds
            .iter()
            .filter_map(|&cmd| {
                let base = match self.program.cmd(cmd) {
                    Command::ReadField { obj, .. } | Command::WriteField { obj, .. } => *obj,
                    Command::ReadArray { arr, .. }
                    | Command::WriteArray { arr, .. }
                    | Command::ArrayLen { arr, .. } => *arr,
                    Command::Call { callee: Callee::Virtual { receiver, .. }, .. } => *receiver,
                    _ => return None,
                };
                sentinel.vars.contains(base.index()).then_some(DerefSite { cmd, base })
            })
            .collect();
        sites.sort();
        sites
    }

    /// Runs the sentinel fixpoint over the reached commands.
    fn sentinel(&self, cmds: &[CmdId]) -> Sentinel {
        let (program, pta) = (self.program, self.pta);
        let fields = program.field_ids().count();
        // Written cells (per field, the written locations) and globals, for
        // the null-at-birth/entry seeds: a cell no write ever targets
        // yields null on every read.
        let mut written_cells = vec![BitSet::new(); fields];
        let mut written_globals = BitSet::new();
        for &cmd in cmds {
            match program.cmd(cmd) {
                Command::WriteField { obj, field, .. } => {
                    written_cells[field.index()].union_with(pta.pt_var(*obj));
                }
                Command::WriteGlobal { global, .. } => {
                    written_globals.insert(global.index());
                }
                _ => {}
            }
        }

        let mut s = Sentinel { cells: vec![BitSet::new(); fields], ..Sentinel::default() };
        // The seeds no round changes: reads of array elements (null at
        // birth, unconditionally), of a global never written, and of a
        // field whose base may be a location with that cell never written.
        for &cmd in cmds {
            match program.cmd(cmd) {
                Command::ReadField { dst, obj, field }
                    if *field == program.contents_field
                        || !pta.pt_var(*obj).is_subset(&written_cells[field.index()]) =>
                {
                    s.vars.insert(dst.index());
                }
                Command::ReadGlobal { dst, global }
                    if !written_globals.contains(global.index()) =>
                {
                    s.vars.insert(dst.index());
                }
                Command::ReadArray { dst, .. } => {
                    s.vars.insert(dst.index());
                }
                _ => {}
            }
        }
        loop {
            let mut changed = false;
            for &cmd in cmds {
                match program.cmd(cmd) {
                    Command::Assign { dst, src } if s.op_may_null(src) => {
                        changed |= s.vars.insert(dst.index());
                    }
                    Command::ReadField { dst, obj, field }
                        if !pta.pt_var(*obj).is_disjoint(&s.cells[field.index()]) =>
                    {
                        changed |= s.vars.insert(dst.index());
                    }
                    Command::ReadGlobal { dst, global } if s.globals.contains(global.index()) => {
                        changed |= s.vars.insert(dst.index());
                    }
                    Command::WriteField { obj, field, src } if s.op_may_null(src) => {
                        changed |= s.cells[field.index()].union_with(pta.pt_var(*obj));
                    }
                    Command::WriteGlobal { global, src } if s.op_may_null(src) => {
                        changed |= s.globals.insert(global.index());
                    }
                    Command::Call { dst, callee, args } => {
                        let offset = usize::from(matches!(callee, Callee::Virtual { .. }));
                        for m in pta.call_targets(cmd) {
                            let params = &program.method(*m).params;
                            for (i, a) in args.iter().enumerate() {
                                if s.op_may_null(a) {
                                    if let Some(&p) = params.get(i + offset) {
                                        changed |= s.vars.insert(p.index());
                                    }
                                }
                            }
                            if let (Some(d), true) = (dst, s.rets.contains(m.index())) {
                                changed |= s.vars.insert(d.index());
                            }
                        }
                    }
                    Command::Return { val: Some(op) } if s.op_may_null(op) => {
                        changed |= s.rets.insert(program.cmd_method(cmd).index());
                    }
                    _ => {}
                }
            }
            if !changed {
                return s;
            }
        }
    }

    /// Proposes candidates and decides each one through the refutation
    /// stack. The report is deterministic: identical for every `jobs`
    /// setting, cache state, and points-to solver strategy.
    pub fn run(&self) -> NullReport {
        let _span = obs::span(obs::SpanKind::Client, "null-client");
        let sites = self.candidate_sites();
        // Null-comparison guards are the idiomatic defense against the
        // exact flows this client traces; the must-not-null strong update
        // is forced on (it is sound, and off by default only to keep the
        // historical path behavior of the other clients).
        let config = self.config.clone().with_null_guards(true);
        let mut sched =
            RefutationScheduler::new(self.program, self.pta, self.modref, config, self.jobs);
        if let Some(store) = &self.store {
            sched.set_store(store.clone());
        }
        let mut tally = Tally::default();
        let answers = sched.run_derefs(&sites, &mut tally);
        let mut report = NullReport {
            alarms: Vec::new(),
            candidate_sites: sites.len(),
            refuted_sites: 0,
            edges_refuted: tally.edges_refuted as usize,
            edge_timeouts: tally.edge_timeouts as usize,
            aborts: tally.aborts.clone(),
            retries: tally.retries as usize,
            degraded_decisions: tally.degraded_decisions as usize,
        };
        for (site, answer) in answers {
            match answer {
                EdgeAnswer::Refuted => report.refuted_sites += 1,
                EdgeAnswer::Witnessed(w) => {
                    report.alarms.push(NullDeref { site, witness: w, aborted: false });
                }
                EdgeAnswer::Aborted(_) => {
                    report.alarms.push(NullDeref { site, witness: None, aborted: true });
                }
            }
        }
        report
    }
}

/// Internal helper for tests and the sentinel doc claims: maps var names
/// to may-null verdicts (used nowhere in production paths).
#[cfg(test)]
fn may_null_vars(client: &NullClient<'_>) -> std::collections::HashMap<String, bool> {
    let cmds = client.reached_cmds();
    let s = client.sentinel(&cmds);
    let mut out = std::collections::HashMap::new();
    for m in client.program.method_ids() {
        for &v in &client.program.method(m).locals {
            out.insert(client.program.var(v).name.clone(), s.vars.contains(v.index()));
        }
    }
    out
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
fn main() {
  var b: Box;
  var c: Box;
  var o: Object;
  var p: Object;
  var q: Object;
  var flag: int;
  b = new Box @box0;
  c = new Box @box1;
  o = new Object @obj0;
  flag = 0;
  if (flag == 1) {
    o = null;
  }
  b.item = o;
  p = b.item;
  c.item = p;
  q = c.spare;
  c.item = q;
}
entry main;
"#;

    #[test]
    fn sentinel_marks_null_flows_and_unwritten_fields() {
        let (p, r, m) = setup(SRC);
        let client = NullClient::new(&p, &r, &m, SymexConfig::default());
        let nulls = may_null_vars(&client);
        assert!(nulls["o"], "explicit null assignment");
        assert!(nulls["p"], "read of a cell written a may-null value");
        assert!(nulls["q"], "read of a never-written field");
        assert!(!nulls["b"], "allocation result is non-null");
        assert!(!nulls["c"], "allocation result is non-null");
        assert!(!nulls["flag"], "integers never carry the sentinel");
    }

    #[test]
    fn report_separates_dead_null_from_live_null() {
        let (p, r, m) = setup(SRC);
        let report = NullClient::new(&p, &r, &m, SymexConfig::default()).run();
        // Candidates: none through b/c (non-null allocations); the sites
        // are exactly the derefs the sentinel can reach — here none,
        // because every base is a fresh allocation.
        assert_eq!(report.candidate_sites, 0);
        assert!(report.is_null_safe());
    }

    const DEREF_SRC: &str = r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var t: Box;
  var o: Object;
  var flag: int;
  flag = 0;
  b = new Box @box0;
  o = new Object @obj0;
  t = null;
  if (flag == 1) {
    t = new Box @box1;
  }
  b.item = o;
  t.item = o;
}
entry main;
"#;

    #[test]
    fn null_flow_into_deref_is_not_refuted() {
        // `b.item = o` dereferences the fresh b (no candidate);
        // `t.item = o` dereferences the null-carrying t: witnessed on the
        // flag == 0 path, where the guarded re-allocation is skipped.
        let (p, r, m) = setup(DEREF_SRC);
        let report = NullClient::new(&p, &r, &m, SymexConfig::default()).run();
        assert_eq!(report.candidate_sites, 1, "{report:?}");
        assert_eq!(report.num_alarms(), 1, "{report:?}");
        assert!(!report.alarms[0].aborted);
        assert!(report.alarms[0].witness.is_some());
    }

    #[test]
    fn guarded_deref_is_refuted() {
        let src = DEREF_SRC.replace("t.item = o;", "if (t != null) {\n    t.item = o;\n  }");
        let (p, r, m) = setup(&src);
        let report = NullClient::new(&p, &r, &m, SymexConfig::default()).run();
        assert_eq!(report.candidate_sites, 1, "{report:?}");
        assert!(report.is_null_safe(), "{report:?}");
        assert_eq!(report.refuted_sites, 1);
    }

    #[test]
    fn jobs_and_store_do_not_change_the_report() {
        let (p, r, m) = setup(DEREF_SRC);
        let dir = std::env::temp_dir().join(format!("thresher-null-client-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            DecisionStore::open(&dir, symex::CacheMode::ReadWrite, &p).expect("open store"),
        );
        let cold =
            NullClient::new(&p, &r, &m, SymexConfig::default()).with_store(store.clone()).run();
        let warm = NullClient::new(&p, &r, &m, SymexConfig::default())
            .with_jobs(4)
            .with_store(store)
            .run();
        assert_eq!(cold.describe(&p), warm.describe(&p));
        assert_eq!(cold.to_value(&p).to_json(), warm.to_value(&p).to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
