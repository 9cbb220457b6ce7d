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
use std::sync::Arc;
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

/// The result of pushing queries backwards: the surviving sub-queries are
/// appended to a caller-supplied vector, or the search stops early.
pub(crate) type Flow = Result<(), Stop>;

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
    /// Empty query vectors kept for reuse, so walking statements allocates
    /// no result vectors.
    spare: Vec<Vec<Query>>,
    /// Memoized statement paths (see [`Engine::cmd_path`]): per method, the
    /// paths of all its commands back to back in one buffer.
    method_paths: Vec<Option<Arc<[usize]>>>,
    /// Per command, the range of its path in its method's buffer.
    path_spans: Vec<Option<(u32, u32)>>,
    /// Reused buffer a method's paths are collected in.
    path_buf: Vec<usize>,
    /// Reused location set for narrowing targets computed per transfer.
    pub(crate) scratch: BitSet,
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
            spare: Vec::new(),
            method_paths: Vec::new(),
            path_spans: Vec::new(),
            path_buf: Vec::new(),
            scratch: BitSet::new(),
        }
    }

    /// An empty query vector, reused when one is spare.
    pub(crate) fn take_buf(&mut self) -> Vec<Query> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns an emptied query vector for reuse.
    pub(crate) fn put_buf(&mut self, mut buf: Vec<Query>) {
        buf.clear();
        self.spare.push(buf);
    }

    /// The position of command `cmd` in its method body, as
    /// [`Stmt::path_to`] finds it. The first lookup into a method walks its
    /// body once and records the path of every command in it, so a search
    /// costs the same in a large method as in a small one.
    pub(crate) fn cmd_path(&mut self, cmd: CmdId) -> CmdPath {
        let program = self.program;
        if self.method_paths.is_empty() {
            self.method_paths.resize(program.method_ids().count(), None);
            self.path_spans.resize(program.num_cmds(), None);
        }
        let method = program.cmd_method(cmd);
        let paths = match &self.method_paths[method.index()] {
            Some(paths) => paths.clone(),
            None => {
                let (buf, spans) = (&mut self.path_buf, &mut self.path_spans);
                let offset =
                    |n: usize| u32::try_from(n).expect("one method's paths fit in u32 offsets");
                buf.clear();
                program.method(method).body.for_each_cmd_path(&mut |c, path| {
                    let start = offset(buf.len());
                    buf.extend_from_slice(path);
                    spans[c.index()] = Some((start, offset(buf.len())));
                });
                let paths: Arc<[usize]> = buf[..].into();
                self.method_paths[method.index()] = Some(paths.clone());
                paths
            }
        };
        let (start, end) =
            self.path_spans[cmd.index()].expect("command not found in its own method body");
        CmdPath { paths, start, end }
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
        let path = self.cmd_path(start);
        self.call_chain.clear();
        self.caller_depth = 0;
        // Borrow the body straight out of the shared program (lifetime 'a,
        // decoupled from `self`) instead of cloning the statement tree.
        let program = self.program;
        let body = &program.method(method).body;
        let mut qs = self.take_buf();
        self.back_pos(body, &path, q0, include_cmd, &mut qs)?;
        for q in qs.drain(..) {
            self.propagate_up(method, q)?;
        }
        self.put_buf(qs);
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
    /// command at that position is applied iff `include_cmd`), appending
    /// the queries at the entry of `stmt` to `out`.
    pub(crate) fn back_pos(
        &mut self,
        stmt: &Stmt,
        path: &[usize],
        q: Query,
        include_cmd: bool,
        out: &mut Vec<Query>,
    ) -> Flow {
        match stmt {
            Stmt::Cmd(c) => {
                debug_assert!(path.is_empty());
                if include_cmd {
                    self.exec_cmd_back(*c, q, out)
                } else {
                    out.push(q);
                    Ok(())
                }
            }
            Stmt::Skip => {
                out.push(q);
                Ok(())
            }
            Stmt::Seq(ss) => {
                let i = path[0];
                let mut qs = self.take_buf();
                self.back_pos(&ss[i], &path[1..], q, include_cmd, &mut qs)?;
                // Once no query survives, the earlier statements cannot
                // revive one: stop walking.
                for child in ss[..i].iter().rev() {
                    if qs.is_empty() {
                        break;
                    }
                    self.exec_many(child, &mut qs)?;
                }
                out.append(&mut qs);
                self.put_buf(qs);
                Ok(())
            }
            Stmt::If { cond, then_br, else_br } => {
                let branch = path[0];
                let child = if branch == 0 { then_br } else { else_br };
                let mut qs = self.take_buf();
                self.back_pos(child, &path[1..], q, include_cmd, &mut qs)?;
                let guard = if branch == 0 { cond.clone() } else { cond.negate() };
                for q in qs.drain(..) {
                    out.extend(self.apply_cond(&guard, q)?);
                }
                self.put_buf(qs);
                Ok(())
            }
            Stmt::Choice(a, b) => {
                let branch = path[0];
                let child = if branch == 0 { a } else { b };
                self.back_pos(child, &path[1..], q, include_cmd, out)
            }
            Stmt::While { cond, body } => {
                // Starting inside the body: walk back to the body entry,
                // then account for any number of preceding full iterations.
                let mut seed = self.take_buf();
                self.back_pos(body, &path[1..], q, include_cmd, &mut seed)?;
                self.loop_fixpoint(Some(cond), body, &mut seed)?;
                out.append(&mut seed);
                self.put_buf(seed);
                Ok(())
            }
            Stmt::Loop(body) => {
                let mut seed = self.take_buf();
                self.back_pos(body, &path[1..], q, include_cmd, &mut seed)?;
                self.loop_fixpoint(None, body, &mut seed)?;
                out.append(&mut seed);
                self.put_buf(seed);
                Ok(())
            }
        }
    }

    /// Executes `stmt` backwards for every query in `qs`, replacing them
    /// with the surviving pre-queries.
    pub(crate) fn exec_many(&mut self, stmt: &Stmt, qs: &mut Vec<Query>) -> Flow {
        let mut next = self.take_buf();
        for q in qs.drain(..) {
            self.exec_stmt_back(stmt, q, &mut next)?;
        }
        std::mem::swap(qs, &mut next);
        self.put_buf(next);
        Ok(())
    }

    /// Executes one whole statement backwards: given the post-query `q`,
    /// appends the surviving pre-queries to `out`.
    pub(crate) fn exec_stmt_back(&mut self, stmt: &Stmt, q: Query, out: &mut Vec<Query>) -> Flow {
        match stmt {
            Stmt::Skip => {
                out.push(q);
                Ok(())
            }
            Stmt::Cmd(c) => self.exec_cmd_back(*c, q, out),
            Stmt::Seq(ss) => {
                let mut qs = self.take_buf();
                qs.push(q);
                for child in ss.iter().rev() {
                    self.exec_many(child, &mut qs)?;
                    if qs.is_empty() {
                        break;
                    }
                }
                out.append(&mut qs);
                self.put_buf(qs);
                Ok(())
            }
            Stmt::If { cond, then_br, else_br } => {
                self.charge(1)?; // the extra branch is a fork
                let mut then_qs = self.take_buf();
                self.exec_stmt_back(then_br, q.clone(), &mut then_qs)?;
                // The else branch takes `q` itself: when the then branch
                // left its query untouched, that query stands in for `q`.
                let then_untouched = then_qs.len() == 1 && then_qs[0].same_constraints(&q);
                let mut else_qs = self.take_buf();
                self.exec_stmt_back(else_br, q, &mut else_qs)?;
                // If neither branch touched the query, the guard is
                // irrelevant path-sensitivity: keep one copy, no constraint
                // (§3.2, following ESP/PSE).
                if then_untouched && else_qs.len() == 1 && else_qs[0].same_constraints(&then_qs[0])
                {
                    out.append(&mut then_qs);
                } else {
                    for tq in then_qs.drain(..) {
                        out.extend(self.apply_cond(cond, tq)?);
                    }
                    let neg = cond.negate();
                    for eq in else_qs.drain(..) {
                        out.extend(self.apply_cond(&neg, eq)?);
                    }
                }
                self.put_buf(then_qs);
                self.put_buf(else_qs);
                Ok(())
            }
            Stmt::Choice(a, b) => {
                self.charge(1)?;
                self.exec_stmt_back(a, q.clone(), out)?;
                self.exec_stmt_back(b, q, out)
            }
            Stmt::While { cond, body } => {
                // Zero or more iterations; after the loop ¬cond holds.
                let Some(q2) = self.apply_cond(&cond.negate(), q)? else { return Ok(()) };
                let mut set = self.take_buf();
                set.push(q2);
                self.loop_fixpoint(Some(cond), body, &mut set)?;
                out.append(&mut set);
                self.put_buf(set);
                Ok(())
            }
            Stmt::Loop(body) => {
                let mut set = self.take_buf();
                set.push(q);
                self.loop_fixpoint(None, body, &mut set)?;
                out.append(&mut set);
                self.put_buf(set);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Backwards transfer for a call command.
    pub(crate) fn exec_call_back(&mut self, cmd_id: CmdId, q: Query, out: &mut Vec<Query>) -> Flow {
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
        let mods_relevant = targets.iter().any(|&t| {
            q.statics.keys().any(|g| self.modref.mod_globals(t).contains(g.index()))
                || q.heap.iter().any(|cell| self.cell_may_be_written(t, cell, &q))
        });
        if !dst_relevant && !mods_relevant {
            self.stats.add_call_skipped_irrelevant();
            out.push(q);
            return Ok(());
        }

        // Depth bound / recursion / unresolved targets: skip soundly by
        // dropping everything the callee might produce.
        let too_deep = self.call_chain.len() >= MAX_CALL_DEPTH;
        let recursive = targets.iter().any(|t| self.call_chain.contains(t));
        if too_deep || recursive || targets.is_empty() {
            self.stats.add_call_skipped_depth();
            out.push(self.skip_call(cmd_id, targets, q));
            return Ok(());
        }

        if targets.len() > 1 {
            self.charge(targets.len() as u64 - 1)?;
        }
        let mut entry_qs = self.take_buf();
        let mut q = Some(q);
        for (k, &t) in targets.iter().enumerate() {
            // The last target takes the query itself.
            let qt = if k + 1 == targets.len() { q.take() } else { q.clone() };
            let mut qt = qt.expect("only the last target takes the query");
            // Receiver narrowing: only locations that dispatch to `t` are
            // compatible with taking this target.
            if let Some(recv_var) = self.call_receiver(cmd_id) {
                if let Some(&Val::Sym(s)) = qt.locals.get(&recv_var) {
                    let mut dl = std::mem::take(&mut self.scratch);
                    self.dispatch_locs(cmd_id, t, &mut dl);
                    let ok = if self.config.representation != Representation::FullySymbolic {
                        match qt.narrow(s, &dl) {
                            Ok(()) => true,
                            Err(r) => {
                                self.stats.count_refutation(r);
                                false
                            }
                        }
                    } else if qt.region(s).as_locs().is_none_or(|l| l.is_disjoint(&dl)) {
                        // PSE-style oracle check without narrowing.
                        self.stats.count_refutation(Refuted::EmptyRegion);
                        false
                    } else {
                        true
                    };
                    self.scratch = dl;
                    if !ok {
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
                qt.ret_slot = qt.locals.remove(d);
            }
            self.call_chain.push(t);
            let program = self.program;
            let body = &program.method(t).body;
            let entered = self.exec_stmt_back(body, qt, &mut entry_qs);
            self.call_chain.pop();
            entered?;
            for mut qe in entry_qs.drain(..) {
                // A pending return that was never consumed means the callee
                // cannot produce the required value along this path — but
                // dropping the constraint is the sound over-approximation.
                qe.ret_slot = None;
                out.extend(self.bind_params(cmd_id, t, qe)?);
            }
        }
        self.put_buf(entry_qs);
        Ok(())
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

    /// Receiver locations (among `pt(receiver)`) that dispatch to `target`,
    /// written to `out`.
    fn dispatch_locs(&self, cmd_id: CmdId, target: MethodId, out: &mut BitSet) {
        let Command::Call { callee, .. } = self.program.cmd(cmd_id) else {
            unreachable!();
        };
        out.clear();
        let Some(recv) = self.call_receiver(cmd_id) else { return };
        for l in self.pta.pt_var(recv).iter() {
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
    }

    /// True if method `t` may write the concrete cell described by `cell`
    /// (field match plus owner-region overlap with the callee's
    /// location-sensitive write summary).
    fn cell_may_be_written(&self, t: MethodId, cell: &crate::query::HeapCell, q: &Query) -> bool {
        match q.region(cell.obj).as_locs() {
            Some(locs) => {
                self.modref.mod_cell_locs(t, cell.field).is_some_and(|w| !locs.is_disjoint(w))
            }
            // Data-region owner cannot occur; be conservative.
            None => self.modref.mod_fields(t).contains(cell.field.index()),
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
            let mut i = 0;
            while i < q.heap.len() {
                let cell = q.heap[i];
                if targets.iter().any(|&t| self.cell_may_be_written(t, &cell, &q)) {
                    q.heap.remove(i);
                } else {
                    i += 1;
                }
            }
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
        // The (param, actual) pairs, including the receiver of a virtual
        // call.
        let receiver = match (ckind, is_instance) {
            (Callee::Virtual { receiver, .. }, true) => {
                Some((callee_m.params[0], Operand::Var(*receiver)))
            }
            _ => None,
        };
        let params = &callee_m.params[usize::from(receiver.is_some())..];
        let pairs = receiver.into_iter().chain(params.iter().copied().zip(args.iter().copied()));
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
                    let mut dl = std::mem::take(&mut self.scratch);
                    self.dispatch_locs(cmd_id, callee, &mut dl);
                    let narrowed = q.narrow(s, &dl);
                    self.scratch = dl;
                    if let Err(r) = narrowed {
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
                Val::Sym(q.fresh_sym_in(pt))
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
        let mut q = Some(q);
        for (k, &c) in callers.iter().enumerate() {
            let caller_m = self.program.cmd_method(c);
            // The last caller takes the query itself.
            let qc = if k + 1 == callers.len() { q.take() } else { q.clone() };
            let qc = qc.expect("only the last caller takes the query");
            let Some(q2) = self.bind_params(c, method, qc)? else { continue };
            let program = self.program;
            let body = &program.method(caller_m).body;
            let path = self.cmd_path(c);
            self.caller_depth += 1;
            let saved_chain = std::mem::take(&mut self.call_chain);
            let mut qs = self.take_buf();
            let walked = self.back_pos(body, &path, q2, false, &mut qs);
            self.call_chain = saved_chain;
            let mut result = walked;
            if result.is_ok() {
                for q3 in qs.drain(..) {
                    result = self.propagate_up(caller_m, q3);
                    if result.is_err() {
                        break;
                    }
                }
            }
            self.caller_depth -= 1;
            self.put_buf(qs);
            result?;
        }
        Ok(())
    }

    /// Builds a witness record from a discharged or entry-satisfiable query.
    pub(crate) fn make_witness(&self, q: &Query) -> Witness {
        Witness { trace: q.trace(), final_query: q.describe(self.program) }
    }
}

/// A command's statement path (see [`Engine::cmd_path`]): its range of the
/// path buffer shared by every command of its method.
pub(crate) struct CmdPath {
    paths: Arc<[usize]>,
    start: u32,
    end: u32,
}

impl std::ops::Deref for CmdPath {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.paths[self.start as usize..self.end as usize]
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

#[cfg(test)]
mod tests {
    use super::*;
    use pta::ContextPolicy;
    use tir::ProgramBuilder;

    fn engine_for<'a>(program: &'a Program, pta: &'a PtaResult, modref: &'a ModRef) -> Engine<'a> {
        Engine::new(program, pta, modref, SymexConfig::default())
    }

    /// Every command's memoized path is `Stmt::path_to`'s answer and leads
    /// back to the command through `Stmt::child`; returns which of `If`,
    /// `Choice` and `While` some command is nested under.
    fn check_memoized_paths(name: &str, program: &Program) -> [bool; 3] {
        let pta = pta::analyze(program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(program, &pta);
        let mut engine = engine_for(program, &pta, &modref);
        let mut under = [false; 3];
        for i in 0..program.num_cmds() {
            let cmd = CmdId::from_index(i);
            let body = &program.method(program.cmd_method(cmd)).body;
            let expected = body.path_to(cmd).expect("every command sits in its method body");
            // The first lookup into a method walks it, later ones hit the
            // memo; both must be `path_to`'s answer.
            assert_eq!(*engine.cmd_path(cmd), expected[..], "{name}: cmd {i}");
            assert_eq!(*engine.cmd_path(cmd), expected[..], "{name}: cmd {i}");
            let mut s = body;
            for &k in &expected {
                match s {
                    Stmt::If { .. } => under[0] = true,
                    Stmt::Choice(..) => under[1] = true,
                    Stmt::While { .. } => under[2] = true,
                    _ => {}
                }
                s = s.child(k);
            }
            assert!(matches!(s, Stmt::Cmd(c) if *c == cmd), "{name}: cmd {i}");
        }
        under
    }

    #[test]
    fn memoized_paths_match_path_to_on_every_corpus_command() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus directory")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "tir"))
            .collect();
        files.sort();
        assert!(files.len() >= 7, "corpus files missing: {files:?}");
        let mut programs: Vec<_> = files
            .iter()
            .map(|file| {
                let src = std::fs::read_to_string(file).expect("read corpus file");
                (file.display().to_string(), tir::parse(&src).expect("corpus file parses"))
            })
            .collect();
        // The null motifs nest dereferences under choice fans and guards.
        let groups = apps::scale::scaled_null_groups(4);
        programs.push(("null motifs".into(), apps::null_motifs::build_null_program(&groups)));
        let mut under = [false; 3];
        for (name, program) in &programs {
            let nested = check_memoized_paths(name, program);
            under = std::array::from_fn(|k| under[k] || nested[k]);
        }
        assert_eq!(under, [true; 3], "commands nested under If, Choice and While");
    }

    /// The first lookup into a method records the path of every command
    /// in it, in one buffer; no other method is walked.
    #[test]
    fn one_cmd_path_miss_memoizes_its_whole_method() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../corpus/fig1_vec_null_object.tir"
        ))
        .expect("read corpus file");
        let program = tir::parse(&src).expect("corpus file parses");
        let pta = pta::analyze(&program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&program, &pta);
        let mut engine = engine_for(&program, &pta, &modref);
        let main = program.entry();
        let cmds = program.method_cmds(main);
        assert!(cmds.len() > 1, "main has several commands");
        let first = engine.cmd_path(cmds[cmds.len() / 2]);
        for m in program.method_ids() {
            assert_eq!(engine.method_paths[m.index()].is_some(), m == main, "method {m:?}");
        }
        for i in 0..program.num_cmds() {
            let cmd = CmdId::from_index(i);
            let in_main = program.cmd_method(cmd) == main;
            assert_eq!(engine.path_spans[i].is_some(), in_main, "cmd {i}");
        }
        for &cmd in &cmds {
            assert!(
                Arc::ptr_eq(&engine.cmd_path(cmd).paths, &first.paths),
                "one buffer per method"
            );
        }
    }

    /// A query refuted by the last statement of a long sequence ends the
    /// walk: none of the 2,000 earlier statements runs.
    #[test]
    fn search_stops_walking_a_seq_once_no_query_survives() {
        let mut b = ProgramBuilder::new();
        let mut last = None;
        let main = b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", Ty::Int);
            let y = mb.var("y", Ty::Int);
            for _ in 0..2000 {
                mb.assign(y, x);
            }
            last = Some((mb.assign(x, 2), x));
        });
        b.set_entry(main);
        let program = b.finish();
        let (last, x) = last.expect("builder ran");
        let pta = pta::analyze(&program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&program, &pta);
        let mut engine = engine_for(&program, &pta, &modref);
        // `x = 5` after `x = 2` cannot hold.
        let mut q0 = Query::new();
        q0.locals.insert(x, Val::Int(5));
        assert!(engine.search_from(last, q0, true).is_ok(), "the path program is refuted");
        assert_eq!(engine.stats.cmds_executed, 1);
    }
}
