//! The witness-refutation search driver (§3.2).
//!
//! The search is a backwards, path-program by path-program symbolic
//! execution: starting from a statement that may produce the queried heap
//! edge, it walks the structured statement tree in reverse, forking at
//! branches and calls, inferring loop invariants at loops, and propagating
//! queries from method entries to all call sites. A query is *refuted* when
//! a transfer derives a contradiction; it is *witnessed* when all of its
//! memory constraints are discharged (the query becomes `any`) or it
//! survives, satisfiable, to the program entry.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pta::{BitSet, HeapEdge, LocId, ModRef, PtaResult};
use tir::{Callee, CmdId, Command, MethodId, Operand, Program, Stmt, Ty, VarId};

use crate::config::{LoopMode, Representation, SymexConfig, MAX_CALL_DEPTH};
use crate::key::{DerefSite, RefKey};
use crate::query::{Query, Refuted};
use crate::region::Region;
use crate::simplify::History;
use crate::stats::{SearchOutcome, SearchStats, StopReason, Witness};
use crate::value::Val;

/// Terminates a search early: a witness was found, or the search must give
/// up for the stated reason.
#[derive(Clone, Debug)]
pub(crate) enum Stop {
    Witnessed(Witness),
    Aborted(StopReason),
}

/// The result of pushing queries backwards: the surviving sub-queries, or an
/// early stop.
pub(crate) type Flow = Result<Vec<Query>, Stop>;

/// Hard cap on upward caller-propagation depth; exceeding it aborts the
/// search (sound: the edge is simply not refuted).
const CALLER_DEPTH_CAP: usize = 40;

/// Deadline polls happen on every `DEADLINE_STRIDE`-th budget charge (plus
/// the very first one), keeping `Instant::now()` off the hot path.
const DEADLINE_STRIDE: u32 = 64;

/// Command-transfer allowance per unit of path-program budget: bounds the
/// straight-line work a search may do between forks, so the per-edge budget
/// is a hard runtime bound even on fork-free divergence.
const CMDS_PER_PATH_PROGRAM: u64 = 256;

/// The witness-refutation engine. One engine holds the analysis inputs and
/// accumulates [`SearchStats`] across searches.
pub struct Engine<'a> {
    pub(crate) program: &'a Program,
    pub(crate) pta: &'a PtaResult,
    pub(crate) modref: &'a ModRef,
    /// Engine configuration. May be adjusted between searches; the
    /// deadline fields are snapshotted at construction time.
    pub config: SymexConfig,
    /// Statistics accumulated across all searches run by this engine.
    pub stats: SearchStats,
    pub(crate) history: History,
    budget_left: u64,
    cmd_budget_left: u64,
    call_chain: Vec<MethodId>,
    caller_depth: usize,
    /// Wall-clock cutoff for the edge currently being refuted (the tighter
    /// of `edge_deadline` and the remaining `total_deadline`).
    deadline: Option<Instant>,
    /// Wall-clock cutoff for everything this engine does, from
    /// [`SymexConfig::total_deadline`] at construction time.
    engine_deadline: Option<Instant>,
    /// Charge counter used to amortize deadline polls.
    ticks: u32,
}

impl<'a> Engine<'a> {
    /// Creates an engine over the analyzed program.
    pub fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        modref: &'a ModRef,
        config: SymexConfig,
    ) -> Self {
        let budget = config.budget;
        let engine_deadline = config.total_deadline.map(|d| Instant::now() + d);
        Engine {
            program,
            pta,
            modref,
            config,
            stats: SearchStats::default(),
            history: History::new(),
            budget_left: budget,
            cmd_budget_left: budget.saturating_mul(CMDS_PER_PATH_PROGRAM),
            call_chain: Vec::new(),
            caller_depth: 0,
            deadline: None,
            engine_deadline,
            ticks: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SymexConfig {
        &self.config
    }

    /// Resets the per-search state (budgets, history, deadline) at the top
    /// of every [`Engine::refute_edge`] / [`Engine::refute_deref`] call.
    fn begin_search(&mut self) {
        self.budget_left = self.config.budget;
        self.cmd_budget_left = self.config.budget.saturating_mul(CMDS_PER_PATH_PROGRAM);
        self.history.clear();
        self.ticks = 0;
        self.deadline =
            match (self.config.edge_deadline.map(|d| Instant::now() + d), self.engine_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
    }

    /// Attempts to refute `edge`: runs one witness search per producing
    /// statement. The edge is refuted only if every search is refuted.
    pub fn refute_edge(&mut self, edge: &HeapEdge) -> SearchOutcome {
        self.begin_search();
        let pta = self.pta;
        let producers = pta.producers(edge);
        if producers.is_empty() {
            // Nothing can produce the edge: it is vacuously refuted. (This
            // happens when an annotation removed the only producers.)
            return SearchOutcome::Refuted;
        }
        for &cmd in producers {
            let q0 = match self.initial_query(edge) {
                Ok(q) => q,
                Err(r) => {
                    self.stats.count_refutation(r);
                    continue;
                }
            };
            match self.search_from(cmd, q0, true) {
                Ok(()) => {}
                Err(Stop::Witnessed(w)) => return SearchOutcome::Witnessed(w),
                Err(Stop::Aborted(reason)) => return SearchOutcome::Aborted(reason),
            }
        }
        SearchOutcome::Refuted
    }

    /// Attempts to refute the null-dereference candidate `site`: searches
    /// backwards from the dereferencing command for a path program along
    /// which its base local holds `null`. `Refuted` is a proof that the
    /// base is non-null on every path reaching the dereference.
    ///
    /// The dereferencing command itself is *not* executed backwards — the
    /// question is the state just before it runs.
    pub fn refute_deref(&mut self, site: &DerefSite) -> SearchOutcome {
        self.begin_search();
        let q0 = match self.initial_deref_query(site) {
            Ok(q) => q,
            Err(r) => {
                self.stats.count_refutation(r);
                return SearchOutcome::Refuted;
            }
        };
        match self.search_from(site.cmd, q0, false) {
            Ok(()) => SearchOutcome::Refuted,
            Err(Stop::Witnessed(w)) => SearchOutcome::Witnessed(w),
            Err(Stop::Aborted(reason)) => SearchOutcome::Aborted(reason),
        }
    }

    /// Attempts to refute a [`RefKey`] of either kind.
    pub fn refute_key(&mut self, key: &RefKey) -> SearchOutcome {
        match key {
            RefKey::Edge(e) => self.refute_edge(e),
            RefKey::Deref(s) => self.refute_deref(s),
        }
    }

    /// Fault-contained [`Engine::refute_edge`]: a panic anywhere in the
    /// search (transfer functions, solver, query bookkeeping) is caught and
    /// converted into the sound `Aborted(Panic)` outcome instead of
    /// unwinding into the caller. The engine stays usable afterwards —
    /// `refute_edge` re-initializes all per-edge state on entry.
    pub fn refute_edge_contained(&mut self, edge: &HeapEdge) -> SearchOutcome {
        self.refute_key_contained(&RefKey::Edge(*edge))
    }

    /// Fault-contained [`Engine::refute_key`] (see
    /// [`Engine::refute_edge_contained`]).
    pub fn refute_key_contained(&mut self, key: &RefKey) -> SearchOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| self.refute_key(key)));
        match result {
            Ok(out) => out,
            Err(payload) => {
                SearchOutcome::Aborted(StopReason::Panic(panic_message(payload.as_ref())))
            }
        }
    }

    /// Fault-contained refutation with one coarse retry: if the search
    /// aborts under the configured precision, it is retried once with
    /// loop-invariant inference dropped ([`LoopMode::DropAll`], a coarser
    /// but still sound configuration) unless the base configuration already
    /// drops loops or the engine deadline has passed. A coarse refutation is
    /// still a refutation, so the retry can only *add* refutations relative
    /// to a single strict pass.
    pub fn refute_edge_resilient(&mut self, edge: &HeapEdge) -> EdgeDecision {
        self.refute_key_resilient(&RefKey::Edge(*edge))
    }

    /// [`Engine::refute_edge_resilient`] generalized over [`RefKey`]. This
    /// is the *only* site bumping the edge-outcome and retry counters, so
    /// report totals match the scheduler's tallies exactly.
    pub fn refute_key_resilient(&mut self, key: &RefKey) -> EdgeDecision {
        let timer = obs::timer();
        let _span = obs::span_with(obs::SpanKind::Edge, || key.describe(self.program, self.pta));
        let decision = self.refute_key_resilient_inner(key);
        if obs::enabled() {
            let outcome = match &decision.outcome {
                SearchOutcome::Refuted => obs::Counter::EdgesRefuted,
                SearchOutcome::Witnessed(_) => obs::Counter::EdgesWitnessed,
                SearchOutcome::Aborted(_) => obs::Counter::EdgesAborted,
            };
            obs::add(outcome, 1);
            obs::add(obs::Counter::DegradedRetries, u64::from(decision.attempts.saturating_sub(1)));
            if decision.degraded {
                obs::add(obs::Counter::DegradedDecisions, 1);
            }
            if let SearchOutcome::Witnessed(w) = &decision.outcome {
                obs::observe(obs::Hist::WitnessTraceLen, w.trace.len() as u64);
            }
            obs::observe_elapsed_us(obs::Hist::EdgeMicros, timer);
        }
        decision
    }

    fn refute_key_resilient_inner(&mut self, key: &RefKey) -> EdgeDecision {
        let first = {
            let _attempt = obs::span(obs::SpanKind::Attempt, "strict");
            self.refute_key_contained(key)
        };
        if !first.is_aborted()
            || self.config.loop_mode == LoopMode::DropAll
            || self.past_engine_deadline()
        {
            return EdgeDecision { outcome: first, attempts: 1, degraded: false };
        }
        // The injected fault is a test hook, not a precision setting: the
        // retry runs without it.
        let coarse = SymexConfig {
            loop_mode: LoopMode::DropAll,
            inject_panic_on_new: None,
            ..self.config.clone()
        };
        let saved = std::mem::replace(&mut self.config, coarse);
        let retry = {
            let _attempt = obs::span(obs::SpanKind::Attempt, "coarse");
            self.refute_key_contained(key)
        };
        self.config = saved;
        match retry {
            SearchOutcome::Aborted(_) => {
                EdgeDecision { outcome: first, attempts: 2, degraded: false }
            }
            // Refuted or Witnessed: the coarse pass decided the edge. Both
            // are sound to report (a coarse witness only means "not
            // refuted", same as the abort it replaces).
            decided => EdgeDecision { outcome: decided, attempts: 2, degraded: true },
        }
    }

    /// True once the engine-wide deadline (from
    /// [`SymexConfig::total_deadline`]) has expired.
    pub fn past_engine_deadline(&self) -> bool {
        self.engine_deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Overrides the engine-wide deadline with an absolute instant. The
    /// parallel scheduler uses this to share one global cutoff across all
    /// worker engines — each engine otherwise snapshots its own
    /// `total_deadline` at construction time, which would multiply the
    /// allowance by the number of workers.
    pub fn set_deadline_at(&mut self, deadline: Option<Instant>) {
        self.engine_deadline = deadline;
    }

    /// Builds the initial query asserting that `edge` holds, e.g.
    /// `v̂1·f ↦ v̂2 ∧ v̂1 from {base} ∧ v̂2 from {target}` (§3.1).
    pub fn initial_query(&self, edge: &HeapEdge) -> Result<Query, Refuted> {
        let mut q = Query::new();
        match edge {
            HeapEdge::Global { global, target } => {
                let v = q.fresh_sym(Region::singleton(target.index()));
                q.statics.insert(*global, Val::Sym(v));
            }
            HeapEdge::Field { base, field, target } => {
                let o = q.fresh_sym(Region::singleton(base.index()));
                let v = q.fresh_sym(Region::singleton(target.index()));
                let idx = if *field == self.program.contents_field {
                    Some(Val::Sym(q.fresh_sym(Region::Data)))
                } else {
                    None
                };
                q.heap.push(crate::query::HeapCell {
                    obj: o,
                    field: *field,
                    val: Val::Sym(v),
                    idx,
                });
            }
        }
        Ok(q)
    }

    /// Builds the initial query for a null-dereference candidate: the base
    /// local holds `null` in the state just before the dereferencing
    /// command (§3.1 generalized to the null client).
    pub fn initial_deref_query(&self, site: &DerefSite) -> Result<Query, Refuted> {
        let mut q = Query::new();
        q.locals.insert(site.base, Val::Null);
        // The dereference itself anchors the witness trace even though it
        // is not executed backwards.
        q.record(site.cmd);
        Ok(q)
    }

    /// Runs one witness search from statement `start` with post-query `q0`;
    /// the command at `start` is applied iff `include_cmd`. `Ok(())` means
    /// every path program was refuted.
    pub(crate) fn search_from(
        &mut self,
        start: CmdId,
        q0: Query,
        include_cmd: bool,
    ) -> Result<(), Stop> {
        let _span = obs::span_with(obs::SpanKind::Path, || self.program.describe_cmd(start));
        self.charge(1)?;
        let method = self.program.cmd_method(start);
        let path = self
            .program
            .method(method)
            .body
            .path_to(start)
            .expect("command not found in its own method body");
        self.call_chain.clear();
        self.caller_depth = 0;
        // Borrow the body straight out of the shared program (lifetime 'a,
        // decoupled from `self`) instead of cloning the statement tree.
        let program = self.program;
        let body = &program.method(method).body;
        let qs = self.back_pos(body, &path, q0, include_cmd)?;
        for q in qs {
            self.propagate_up(method, q)?;
        }
        Ok(())
    }

    /// Charges `n` path programs against the budget.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), Stop> {
        self.stats.add_path_programs(n);
        self.poll_deadline()?;
        if self.budget_left < n {
            self.budget_left = 0;
            return Err(Stop::Aborted(StopReason::ForkBudget));
        }
        self.budget_left -= n;
        Ok(())
    }

    /// Charges one command transfer against the work allowance.
    pub(crate) fn charge_cmd(&mut self) -> Result<(), Stop> {
        self.poll_deadline()?;
        if self.cmd_budget_left == 0 {
            return Err(Stop::Aborted(StopReason::WorkBudget));
        }
        self.cmd_budget_left -= 1;
        Ok(())
    }

    /// Amortized cooperative deadline check: reads the clock on the first
    /// charge after [`Engine::refute_edge`] and then once every
    /// [`DEADLINE_STRIDE`] charges. Free when no deadline is configured.
    #[inline]
    fn poll_deadline(&mut self) -> Result<(), Stop> {
        let Some(dl) = self.deadline else { return Ok(()) };
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks % DEADLINE_STRIDE == 1 && Instant::now() >= dl {
            return Err(Stop::Aborted(StopReason::WallClock));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Backwards statement walking
    // ------------------------------------------------------------------

    /// Executes backwards from the position `path` inside `stmt` (the
    /// command at that position is applied iff `include_cmd`), returning
    /// the queries at the entry of `stmt`.
    pub(crate) fn back_pos(
        &mut self,
        stmt: &Stmt,
        path: &[usize],
        q: Query,
        include_cmd: bool,
    ) -> Flow {
        match stmt {
            Stmt::Cmd(c) => {
                debug_assert!(path.is_empty());
                if include_cmd {
                    self.exec_cmd_back(*c, q)
                } else {
                    Ok(vec![q])
                }
            }
            Stmt::Skip => Ok(vec![q]),
            Stmt::Seq(ss) => {
                let i = path[0];
                let mut qs = self.back_pos(&ss[i], &path[1..], q, include_cmd)?;
                for child in ss[..i].iter().rev() {
                    qs = self.exec_many(child, qs)?;
                }
                Ok(qs)
            }
            Stmt::If { cond, then_br, else_br } => {
                let branch = path[0];
                let child = if branch == 0 { then_br } else { else_br };
                let qs = self.back_pos(child, &path[1..], q, include_cmd)?;
                let guard = if branch == 0 { cond.clone() } else { cond.negate() };
                let mut out = Vec::new();
                for q in qs {
                    match self.apply_cond(&guard, q) {
                        Ok(Some(q2)) => out.push(q2),
                        Ok(None) => {}
                        Err(stop) => return Err(stop),
                    }
                }
                Ok(out)
            }
            Stmt::Choice(a, b) => {
                let branch = path[0];
                let child = if branch == 0 { a } else { b };
                self.back_pos(child, &path[1..], q, include_cmd)
            }
            Stmt::While { cond, body } => {
                // Starting inside the body: walk back to the body entry,
                // then account for any number of preceding full iterations.
                let seed = self.back_pos(body, &path[1..], q, include_cmd)?;
                self.loop_fixpoint(Some(cond), body, seed)
            }
            Stmt::Loop(body) => {
                let seed = self.back_pos(body, &path[1..], q, include_cmd)?;
                self.loop_fixpoint(None, body, seed)
            }
        }
    }

    /// Executes `stmt` backwards for every query in `qs`.
    pub(crate) fn exec_many(&mut self, stmt: &Stmt, qs: Vec<Query>) -> Flow {
        let mut out = Vec::new();
        for q in qs {
            out.extend(self.exec_stmt_back(stmt, q)?);
        }
        Ok(out)
    }

    /// Executes one whole statement backwards: given the post-query `q`,
    /// returns the surviving pre-queries.
    pub(crate) fn exec_stmt_back(&mut self, stmt: &Stmt, q: Query) -> Flow {
        match stmt {
            Stmt::Skip => Ok(vec![q]),
            Stmt::Cmd(c) => self.exec_cmd_back(*c, q),
            Stmt::Seq(ss) => {
                let mut qs = vec![q];
                for child in ss.iter().rev() {
                    qs = self.exec_many(child, qs)?;
                    if qs.is_empty() {
                        break;
                    }
                }
                Ok(qs)
            }
            Stmt::If { cond, then_br, else_br } => {
                self.charge(1)?; // the extra branch is a fork
                let then_qs = self.exec_stmt_back(then_br, q.clone())?;
                let else_qs = self.exec_stmt_back(else_br, q.clone())?;
                // If neither branch touched the query, the guard is
                // irrelevant path-sensitivity: keep one copy, no constraint
                // (§3.2, following ESP/PSE).
                let untouched = |qs: &[Query]| qs.len() == 1 && qs[0].same_constraints(&q);
                if untouched(&then_qs) && untouched(&else_qs) {
                    return Ok(then_qs);
                }
                let mut out = Vec::new();
                for tq in then_qs {
                    match self.apply_cond(cond, tq) {
                        Ok(Some(q2)) => out.push(q2),
                        Ok(None) => {}
                        Err(stop) => return Err(stop),
                    }
                }
                let neg = cond.negate();
                for eq in else_qs {
                    match self.apply_cond(&neg, eq) {
                        Ok(Some(q2)) => out.push(q2),
                        Ok(None) => {}
                        Err(stop) => return Err(stop),
                    }
                }
                Ok(out)
            }
            Stmt::Choice(a, b) => {
                self.charge(1)?;
                let mut out = self.exec_stmt_back(a, q.clone())?;
                out.extend(self.exec_stmt_back(b, q)?);
                Ok(out)
            }
            Stmt::While { cond, body } => {
                // Zero or more iterations; after the loop ¬cond holds.
                let mut seed = Vec::new();
                match self.apply_cond(&cond.negate(), q) {
                    Ok(Some(q2)) => seed.push(q2),
                    Ok(None) => return Ok(Vec::new()),
                    Err(stop) => return Err(stop),
                }
                self.loop_fixpoint(Some(cond), body, seed)
            }
            Stmt::Loop(body) => self.loop_fixpoint(None, body, vec![q]),
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Backwards transfer for a call command.
    pub(crate) fn exec_call_back(&mut self, cmd_id: CmdId, q: Query) -> Flow {
        let Command::Call { dst, callee: _, .. } = self.program.cmd(cmd_id) else {
            unreachable!("exec_call_back on non-call");
        };
        let pta = self.pta;
        let targets = pta.call_targets(cmd_id);

        // Frame rule: skip the call outright if it cannot affect the query.
        // Relevance is checked per cell at location granularity: a callee
        // that writes `contents` of map arrays cannot affect a query cell
        // over a vec array, even though the field matches.
        let dst_relevant = dst.map(|d| q.locals.contains_key(&d)).unwrap_or(false);
        let globals = q.global_footprint();
        let mods_relevant = targets.iter().any(|&t| {
            !self.modref.mod_globals(t).is_disjoint(&globals)
                || q.heap.iter().any(|cell| self.cell_may_be_written(t, cell, &q))
        });
        if !dst_relevant && !mods_relevant {
            self.stats.add_call_skipped_irrelevant();
            return Ok(vec![q]);
        }

        // Depth bound / recursion / unresolved targets: skip soundly by
        // dropping everything the callee might produce.
        let too_deep = self.call_chain.len() >= MAX_CALL_DEPTH;
        let recursive = targets.iter().any(|t| self.call_chain.contains(t));
        if too_deep || recursive || targets.is_empty() {
            self.stats.add_call_skipped_depth();
            return Ok(vec![self.skip_call(cmd_id, targets, q)]);
        }

        if targets.len() > 1 {
            self.charge(targets.len() as u64 - 1)?;
        }
        let mut out = Vec::new();
        for &t in targets {
            let mut qt = q.clone();
            // Receiver narrowing: only locations that dispatch to `t` are
            // compatible with taking this target.
            if let Some(recv_var) = self.call_receiver(cmd_id) {
                if let Some(&Val::Sym(s)) = qt.locals.get(&recv_var) {
                    let dl = self.dispatch_locs(cmd_id, t);
                    if self.config.representation != Representation::FullySymbolic {
                        match qt.narrow(s, &dl) {
                            Ok(()) => {}
                            Err(r) => {
                                self.stats.count_refutation(r);
                                continue;
                            }
                        }
                    } else if qt.region(s).as_locs().map(|l| l.is_disjoint(&dl)).unwrap_or(true) {
                        // PSE-style oracle check without narrowing.
                        self.stats.count_refutation(Refuted::EmptyRegion);
                        continue;
                    }
                } else if let Some(&Val::Null) = qt.locals.get(&recv_var) {
                    // Call on null receiver: path impossible.
                    self.stats.count_refutation(Refuted::Separation);
                    continue;
                }
            }
            // Pending return value: consumed by the callee's trailing
            // return.
            debug_assert!(qt.ret_slot.is_none());
            if let Some(d) = dst {
                qt.ret_slot = q.locals.get(d).copied();
                qt.locals.remove(d);
            }
            self.call_chain.push(t);
            let program = self.program;
            let body = &program.method(t).body;
            let entry_qs = self.exec_stmt_back(body, qt);
            self.call_chain.pop();
            for mut qe in entry_qs? {
                // A pending return that was never consumed means the callee
                // cannot produce the required value along this path — but
                // dropping the constraint is the sound over-approximation.
                qe.ret_slot = None;
                match self.bind_params(cmd_id, t, qe) {
                    Ok(Some(q2)) => out.push(q2),
                    Ok(None) => {}
                    Err(stop) => return Err(stop),
                }
            }
        }
        Ok(out)
    }

    /// The receiver variable of a call, if it is an instance-method call.
    fn call_receiver(&self, cmd_id: CmdId) -> Option<VarId> {
        match self.program.cmd(cmd_id) {
            Command::Call { callee: Callee::Virtual { receiver, .. }, .. } => Some(*receiver),
            Command::Call { callee: Callee::Static { method }, args, .. } => {
                if self.program.method(*method).class.is_some() {
                    match args.first() {
                        Some(Operand::Var(v)) => Some(*v),
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Receiver locations (among `pt(receiver)`) that dispatch to `target`.
    fn dispatch_locs(&self, cmd_id: CmdId, target: MethodId) -> BitSet {
        let Command::Call { callee, .. } = self.program.cmd(cmd_id) else {
            unreachable!();
        };
        let recv = self.call_receiver(cmd_id);
        let recv_pt = match recv {
            Some(r) => self.pta.pt_var(r).clone(),
            None => return BitSet::new(),
        };
        let mut out = BitSet::new();
        for l in recv_pt.iter() {
            let class = self.pta.class_of(LocId(l as u32));
            let ok = match callee {
                Callee::Virtual { method, .. } => {
                    self.program.resolve_method(class, method) == Some(target)
                }
                Callee::Static { method } => {
                    let tc = self.program.method(*method).class.expect("instance method");
                    self.program.is_subclass(class, tc)
                }
            };
            if ok {
                out.insert(l);
            }
        }
        out
    }

    /// True if method `t` may write the concrete cell described by `cell`
    /// (field match plus owner-region overlap with the callee's
    /// location-sensitive write summary).
    fn cell_may_be_written(&self, t: MethodId, cell: &crate::query::HeapCell, q: &Query) -> bool {
        match q.region(cell.obj).as_locs() {
            Some(locs) => self.modref.may_write_cell(t, cell.field, locs),
            // Data-region owner cannot occur; be conservative.
            None => !self.modref.mod_fields(t).is_disjoint(&BitSet::singleton(cell.field.index())),
        }
    }

    /// Sound skip of a call: drop the destination binding and every
    /// constraint the callee's mod summary may cover (cell-granular).
    fn skip_call(&mut self, cmd_id: CmdId, targets: &[MethodId], mut q: Query) -> Query {
        let Command::Call { dst, .. } = self.program.cmd(cmd_id) else { unreachable!() };
        if let Some(d) = dst {
            q.locals.remove(d);
        }
        let mut mod_globals = BitSet::new();
        for &t in targets {
            mod_globals.union_with(self.modref.mod_globals(t));
        }
        if targets.is_empty() {
            // No resolved targets (should not happen for reached code):
            // drop everything heap-related to stay sound.
            q.heap.clear();
            q.statics.clear();
        } else {
            let cells: Vec<crate::query::HeapCell> = q.heap.clone();
            let keep: Vec<bool> = cells
                .iter()
                .map(|cell| !targets.iter().any(|&t| self.cell_may_be_written(t, cell, &q)))
                .collect();
            let mut it = keep.iter();
            q.heap.retain(|_| *it.next().expect("keep flag"));
            q.statics.retain(|g, _| !mod_globals.contains(g.index()));
        }
        q.gc();
        q
    }

    /// Binds callee parameters to the actuals of call site `cmd_id`,
    /// producing the query just before the call in the caller. `Ok(None)`
    /// means the binding refuted the query.
    pub(crate) fn bind_params(
        &mut self,
        cmd_id: CmdId,
        callee: MethodId,
        mut q: Query,
    ) -> Result<Option<Query>, Stop> {
        // Borrow the call command and callee signature out of the shared
        // program (lifetime 'a) instead of cloning them per binding.
        let program = self.program;
        let Command::Call { callee: ckind, args, .. } = program.cmd(cmd_id) else {
            unreachable!("bind_params on non-call");
        };
        // The call site is part of the path program; record it so witness
        // traces stay connected through upward propagation.
        q.record(cmd_id);
        let callee_m = program.method(callee);
        let is_instance = callee_m.class.is_some();
        // Assemble (param, actual) pairs including the receiver.
        let mut pairs: Vec<(VarId, Operand)> = Vec::new();
        match (ckind, is_instance) {
            (Callee::Virtual { receiver, .. }, true) => {
                pairs.push((callee_m.params[0], Operand::Var(*receiver)));
                for (p, a) in callee_m.params[1..].iter().zip(args.iter()) {
                    pairs.push((*p, *a));
                }
            }
            (Callee::Static { .. }, true) => {
                for (p, a) in callee_m.params.iter().zip(args.iter()) {
                    pairs.push((*p, *a));
                }
            }
            (_, false) => {
                for (p, a) in callee_m.params.iter().zip(args.iter()) {
                    pairs.push((*p, *a));
                }
            }
        }
        for (param, actual) in pairs {
            let Some(v) = q.locals.remove(&param) else { continue };
            let res = self.bind_value_to_operand(&mut q, v, actual);
            match res {
                Ok(()) => {}
                Err(r) => {
                    self.stats.count_refutation(r);
                    return Ok(None);
                }
            }
        }
        // Receiver/argument narrowing may have shrunk owner regions;
        // re-establish graph consistency across the boundary.
        if let Err(r) = self.normalize_cells(&mut q) {
            self.stats.count_refutation(r);
            return Ok(None);
        }
        // The receiver of a virtual call additionally narrows to locations
        // dispatching to this callee (handled in exec_call_back when
        // entering; on upward propagation do it here).
        if let (Callee::Virtual { receiver, .. }, true) = (ckind, is_instance) {
            if let Some(&Val::Sym(s)) = q.locals.get(receiver) {
                if self.config.representation != Representation::FullySymbolic {
                    let dl = self.dispatch_locs(cmd_id, callee);
                    if let Err(r) = q.narrow(s, &dl) {
                        self.stats.count_refutation(r);
                        return Ok(None);
                    }
                }
            }
        }
        Ok(Some(q))
    }

    /// Unifies a required value `v` with an actual operand in the caller
    /// frame: `x := operand` in reverse.
    pub(crate) fn bind_value_to_operand(
        &mut self,
        q: &mut Query,
        v: Val,
        operand: Operand,
    ) -> Result<(), Refuted> {
        match operand {
            Operand::Int(c) => q.unify(v, Val::Int(c)),
            Operand::Null => q.unify(v, Val::Null),
            Operand::Var(y) => {
                if let Val::Sym(s) = v {
                    if self.config.representation != Representation::FullySymbolic
                        && self.program.var(y).ty.is_ref()
                    {
                        q.narrow(s, self.pta.pt_var(y))?;
                    }
                }
                match q.locals.get(&y).copied() {
                    Some(w) => q.unify(v, w),
                    None => {
                        q.locals.insert(y, v);
                        Ok(())
                    }
                }
            }
        }
    }

    /// Gets the value bound to `var`, creating a fresh symbolic value (with
    /// its `from` region seeded from the points-to set) if unbound.
    pub(crate) fn get_or_bind(&mut self, q: &mut Query, var: VarId) -> Result<Val, Refuted> {
        if let Some(&v) = q.locals.get(&var) {
            return Ok(v);
        }
        let v = match self.program.var(var).ty {
            Ty::Int => Val::Sym(q.fresh_sym(Region::Data)),
            Ty::Ref(_) => {
                let pt = self.pta.pt_var(var);
                if pt.is_empty() {
                    // The variable can never hold an instance.
                    return Err(Refuted::EmptyRegion);
                }
                Val::Sym(q.fresh_sym(Region::locs(pt.clone())))
            }
        };
        q.locals.insert(var, v);
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Upward propagation
    // ------------------------------------------------------------------

    /// Propagates a query that reached the entry of `method` to every call
    /// site of `method`; at the program entry the query is decided.
    /// `Ok(())` means all upward paths were refuted.
    pub(crate) fn propagate_up(&mut self, method: MethodId, mut q: Query) -> Result<(), Stop> {
        // Heap-consistency narrowing at the procedure boundary.
        if let Err(r) = self.normalize_cells(&mut q) {
            self.stats.count_refutation(r);
            return Ok(());
        }
        q.gc();
        // Query-history subsumption at the procedure boundary (§3.3).
        if self.config.simplification {
            let strict = self.config.representation == Representation::FullySymbolic;
            if self.history.subsumes_at(crate::simplify::Point::MethodEntry(method), &q, strict) {
                self.stats.add_subsumed();
                return Ok(());
            }
            self.history.insert(crate::simplify::Point::MethodEntry(method), q.clone());
        }

        if Some(method) == self.program.entry_opt() {
            return match q.check_at_entry() {
                Ok(()) => Err(Stop::Witnessed(self.make_witness(&q))),
                Err(r) => {
                    self.stats.count_refutation(r);
                    Ok(())
                }
            };
        }

        let pta = self.pta;
        let callers = pta.callers(method);
        if callers.is_empty() {
            // Unreachable code cannot witness anything.
            self.stats.count_refutation(Refuted::Entry);
            return Ok(());
        }
        if self.caller_depth >= CALLER_DEPTH_CAP {
            return Err(Stop::Aborted(StopReason::CallerDepth));
        }
        if callers.len() > 1 {
            self.charge(callers.len() as u64 - 1)?;
        }
        for &c in callers {
            let caller_m = self.program.cmd_method(c);
            let Some(q2) = self.bind_params(c, method, q.clone())? else { continue };
            let program = self.program;
            let body = &program.method(caller_m).body;
            let path = body.path_to(c).expect("call site in caller body");
            self.caller_depth += 1;
            let saved_chain = std::mem::take(&mut self.call_chain);
            let qs = self.back_pos(body, &path, q2, false);
            self.call_chain = saved_chain;
            let qs = match qs {
                Ok(qs) => qs,
                Err(stop) => {
                    self.caller_depth -= 1;
                    return Err(stop);
                }
            };
            for q3 in qs {
                if let Err(stop) = self.propagate_up(caller_m, q3) {
                    self.caller_depth -= 1;
                    return Err(stop);
                }
            }
            self.caller_depth -= 1;
        }
        Ok(())
    }

    /// Builds a witness record from a discharged or entry-satisfiable query.
    pub(crate) fn make_witness(&self, q: &Query) -> Witness {
        Witness { trace: q.trace.clone(), final_query: q.describe(self.program) }
    }
}

/// Outcome of [`Engine::refute_edge_resilient`], with retry provenance.
#[derive(Clone, Debug)]
pub struct EdgeDecision {
    /// The final outcome for the edge.
    pub outcome: SearchOutcome,
    /// Refutation attempts: 1 for the strict pass alone, 2 when the coarse
    /// retry ran.
    pub attempts: u32,
    /// True when the outcome came from the coarse (degraded) retry rather
    /// than the originally configured precision.
    pub degraded: bool,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
