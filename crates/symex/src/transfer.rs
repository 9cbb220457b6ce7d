//! Backwards transfer functions for atomic commands — the rules of
//! Figure 4 (`WitNew`, `WitAssign`, `WitRead`, `WitWrite`, `WitAssume`)
//! plus globals, arrays, arithmetic, calls, and returns.

use pta::BitSet;
use solver::{Atom, Term};
use tir::{BinOp, CmdId, CmpOp, Command, Cond, FieldId, GlobalId, Operand, VarId};

use crate::config::{Representation, MAX_HEAP_CELLS, MAX_PATH_ATOMS};
use crate::engine::{Engine, Flow, Stop};
use crate::query::{HeapCell, Query, Refuted};
use crate::region::RegionRef;
use crate::stats::StopReason;
use crate::value::Val;

/// Whether per-command trace messages are requested (`SYMEX_TRACE`). The
/// environment is consulted once — this runs on every command transfer.
fn trace_cmds() -> bool {
    static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("SYMEX_TRACE").is_some())
}

impl Engine<'_> {
    /// Applies the backwards transfer of one command, appending the
    /// surviving pre-queries to `out` (none when every case was refuted).
    pub(crate) fn exec_cmd_back(
        &mut self,
        cmd_id: CmdId,
        mut q: Query,
        out: &mut Vec<Query>,
    ) -> Flow {
        self.charge_cmd()?;
        self.stats.add_cmd_executed();
        obs::observe(obs::Hist::HeapCells, q.heap.len() as u64);
        if self.stats.cmds_executed.is_multiple_of(50_000) {
            obs::instant_with(obs::SpanKind::Message, || {
                format!(
                    "progress: cmds={} paths={} heap_cells_now={}",
                    self.stats.cmds_executed,
                    self.stats.path_programs,
                    q.heap.len()
                )
            });
        }
        q.record(cmd_id);
        if trace_cmds() {
            obs::instant_with(obs::SpanKind::Message, || {
                format!(
                    "[{}] {} || {}",
                    self.program.describe_cmd(cmd_id),
                    tir::print_cmd(self.program, self.program.cmd(cmd_id)),
                    q.describe(self.program)
                )
            });
        }
        let program = self.program;
        let cmd = program.cmd(cmd_id);
        let mark = out.len();
        // Calls, writes, and guards manage their own forking/stopping.
        match cmd {
            Command::Call { .. } => self.exec_call_back(cmd_id, q, out)?,
            Command::WriteField { obj, field, src } => {
                self.exec_write_back(q, *obj, *field, None, *src, out)?
            }
            Command::WriteArray { arr, idx, src } => {
                self.exec_write_back(q, *arr, program.contents_field, Some(*idx), *src, out)?
            }
            Command::Assume { cond } => out.extend(self.apply_cond(cond, q)?),
            other => {
                let res = match other {
                    Command::Assign { dst, src } => self.exec_assign_back(q, *dst, *src),
                    Command::BinOp { dst, op, lhs, rhs } => {
                        self.exec_binop_back(q, *dst, *op, *lhs, *rhs)
                    }
                    Command::ReadField { dst, obj, field } => {
                        self.exec_read_back(q, *dst, *obj, *field, None)
                    }
                    Command::ReadArray { dst, arr, idx } => {
                        self.exec_read_back(q, *dst, *arr, program.contents_field, Some(*idx))
                    }
                    Command::ArrayLen { dst, arr } => {
                        self.exec_read_back(q, *dst, *arr, program.len_field, None)
                    }
                    Command::ReadGlobal { dst, global } => {
                        self.exec_read_global_back(q, *dst, *global)
                    }
                    Command::WriteGlobal { global, src } => {
                        self.exec_write_global_back(q, *global, *src)
                    }
                    Command::New { dst, alloc, .. } => self.exec_new_back(q, *dst, *alloc, None),
                    Command::NewArray { dst, alloc, len } => {
                        self.exec_new_back(q, *dst, *alloc, Some(*len))
                    }
                    Command::Return { val } => self.exec_return_back(q, *val),
                    _ => unreachable!("handled above"),
                };
                match res {
                    Ok(q) => out.push(q),
                    Err(r) => self.stats.count_refutation(r),
                }
            }
        }
        self.finish(out, mark)
    }

    /// Post-processing of the queries `out[mark..]` that one transfer
    /// produced: heap-consistency normalization, explicit-mode explosion,
    /// and the full-witness check (a discharged satisfiable query is `any`).
    fn finish(&mut self, out: &mut Vec<Query>, mark: usize) -> Flow {
        for q in &mut out[mark..] {
            // Bound query size (sound weakening; keeps transfers and
            // entailment cheap).
            q.truncate_heap(MAX_HEAP_CELLS);
        }
        if self.config.representation == Representation::FullyExplicit {
            let mut capped = self.take_buf();
            capped.extend(out.drain(mark..));
            for q in capped.drain(..) {
                self.explode(q, out)?;
            }
            self.put_buf(capped);
        }
        let produced = out.len() - mark;
        if produced > 1 {
            self.charge(produced as u64 - 1)?;
        }
        for q in &out[mark..] {
            if q.is_discharged() && q.ret_slot.is_none() {
                // A solver failure means we cannot show the discharged
                // query inconsistent, but reporting it as a witness would
                // hide the failure — abort with provenance instead (equally
                // sound: the edge stays unrefuted either way).
                match q.try_pure_sat() {
                    Ok(true) => return Err(Stop::Witnessed(self.make_witness(q))),
                    Ok(false) => {}
                    Err(_) => return Err(Stop::Aborted(StopReason::SolverFailure)),
                }
            }
        }
        Ok(())
    }

    /// Heap-consistency narrowing: for every exact cell `ô·f ↦ v̂`, the
    /// soundness of the up-front analysis guarantees that some `l` in the
    /// owner's region has `pt(l.f)` intersecting the value's region. Both
    /// regions are narrowed accordingly, to a fixed point. This extends the
    /// per-rule `from` narrowing of Figure 4 across unifications (e.g. a
    /// receiver narrowed at a call site propagates into the cells it owns).
    ///
    /// Run at procedure boundaries and loop heads (not per transfer — the
    /// per-rule narrowing of Figure 4 covers straight-line flow).
    ///
    /// Disabled in the fully-symbolic ablation (no flow narrowing).
    pub(crate) fn normalize_cells(&mut self, q: &mut Query) -> Result<(), Refuted> {
        if self.config.representation == Representation::FullySymbolic {
            return Ok(());
        }
        // Single pass per transfer: narrowing cascades are picked up by the
        // next transfer's pass, keeping per-transfer cost linear.
        let mut allowed = std::mem::take(&mut self.scratch);
        let mut owners = BitSet::new();
        let mut result = Ok(());
        for i in 0..q.heap.len() {
            let HeapCell { obj, field, val, .. } = q.heap[i];
            let Val::Sym(vs) = val else { continue };
            let Some(val_locs) = q.region(vs).as_locs() else { continue };
            let Some(owner_locs) = q.region(obj).as_locs() else { continue };
            // Forward: the value must lie in the union of the owners' field
            // points-to sets. Backward: the owner must be a location whose
            // field may reach the value's region. Both are read off the
            // regions before either is narrowed.
            allowed.clear();
            owners.clear();
            for l in owner_locs.iter() {
                let pt = self.pta.pt_field(pta::LocId(l as u32), field);
                allowed.union_with(pt);
                if !val_locs.is_disjoint(pt) {
                    owners.insert(l);
                }
            }
            let narrow_val = !val_locs.is_subset(&allowed);
            let narrow_owner = !owner_locs.is_subset(&owners);
            if narrow_val {
                if let Err(r) = q.narrow(vs, &allowed) {
                    result = Err(r);
                    break;
                }
            }
            if narrow_owner {
                if let Err(r) = q.narrow(obj, &owners) {
                    result = Err(r);
                    break;
                }
            }
        }
        self.scratch = allowed;
        result
    }

    /// Fully-explicit representation (§2.2): case-split every symbolic value
    /// whose region holds more than one abstract location.
    fn explode(&mut self, q: Query, out: &mut Vec<Query>) -> Result<(), Stop> {
        let split = q.regions().find_map(|(s, r)| {
            r.as_locs().and_then(|l| if l.len() > 1 { Some((s, l.to_bitset())) } else { None })
        });
        match split {
            None => {
                out.push(q);
                Ok(())
            }
            Some((s, locs)) => {
                self.charge(locs.len() as u64 - 1)?;
                for l in locs.iter() {
                    let mut q2 = q.clone();
                    q2.narrow(s, &BitSet::singleton(l)).expect("singleton narrow");
                    self.explode(q2, out)?;
                }
                Ok(())
            }
        }
    }

    /// `WitAssign` — `x := src` produced `x ↦ v` iff `src` evaluates to `v`,
    /// with the region narrowed by `pt(src)` (boxed condition of Fig. 4).
    fn exec_assign_back(
        &mut self,
        mut q: Query,
        dst: VarId,
        src: Operand,
    ) -> Result<Query, Refuted> {
        let Some(v) = q.locals.remove(&dst) else { return Ok(q) };
        self.bind_value_to_operand(&mut q, v, src)?;
        Ok(q)
    }

    /// Backwards integer arithmetic: `x := lhs op rhs`. Addition and
    /// subtraction by a constant stay in the solver's fragment; anything
    /// else soundly drops the constraint on `x`.
    fn exec_binop_back(
        &mut self,
        mut q: Query,
        dst: VarId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    ) -> Result<Query, Refuted> {
        let Some(v) = q.locals.remove(&dst) else { return Ok(q) };
        let v_term = match v {
            Val::Int(c) => Term::int(c),
            Val::Sym(s) => Term::sym(s.0),
            Val::Null => return Err(Refuted::Pure),
        };
        match (op, lhs, rhs) {
            (_, Operand::Int(a), Operand::Int(b)) => {
                // Checked arithmetic: an overflowing constant fold would
                // either panic (debug) or silently disagree with the
                // concrete wrapping semantics (release). Dropping the
                // constraint instead is a sound weakening.
                let r = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                };
                let Some(r) = r else { return Ok(q) };
                q.add_pure(CmpOp::Eq, v_term, Term::int(r))?;
            }
            (BinOp::Add, Operand::Var(y), Operand::Int(c))
            | (BinOp::Add, Operand::Int(c), Operand::Var(y)) => {
                let w = self.int_term(&mut q, y)?;
                let Some(t) = offset(w, c) else { return Ok(q) };
                q.add_pure(CmpOp::Eq, v_term, t)?;
            }
            (BinOp::Sub, Operand::Var(y), Operand::Int(c)) => {
                let w = self.int_term(&mut q, y)?;
                let Some(t) = c.checked_neg().and_then(|nc| offset(w, nc)) else {
                    return Ok(q);
                };
                q.add_pure(CmpOp::Eq, v_term, t)?;
            }
            _ => {
                // Multiplication or var-var arithmetic: outside the solver
                // fragment; drop the constraint (sound weakening).
                return Ok(q);
            }
        }
        Ok(q)
    }

    /// The solver term for integer variable `y`, binding it if needed.
    fn int_term(&mut self, q: &mut Query, y: VarId) -> Result<Term, Refuted> {
        match self.get_or_bind(q, y)? {
            Val::Int(c) => Ok(Term::int(c)),
            Val::Sym(s) => Ok(Term::sym(s.0)),
            Val::Null => Err(Refuted::Pure),
        }
    }

    /// The value of an integer operand, binding variables as needed.
    fn int_operand(&mut self, q: &mut Query, o: Operand) -> Result<Val, Refuted> {
        match o {
            Operand::Int(c) => Ok(Val::Int(c)),
            Operand::Null => Err(Refuted::Pure),
            Operand::Var(y) => self.get_or_bind(q, y),
        }
    }

    /// `WitRead` — `x := obj.field` (also arrays via `contents` and `len`):
    /// materializes the base instance `û from pt(obj)`, narrows
    /// `v from pt(obj.field)`, and records the cell `û·field ↦ v`.
    fn exec_read_back(
        &mut self,
        mut q: Query,
        dst: VarId,
        obj: VarId,
        field: FieldId,
        idx: Option<Operand>,
    ) -> Result<Query, Refuted> {
        let Some(v) = q.locals.remove(&dst) else { return Ok(q) };
        if self.config.representation != Representation::FullySymbolic {
            if let Val::Sym(s) = v {
                if self.program.field(field).ty.is_ref() {
                    let mut pt = std::mem::take(&mut self.scratch);
                    self.pta.pt_var_field_into(obj, field, &mut pt);
                    let narrowed = q.narrow(s, &pt);
                    self.scratch = pt;
                    narrowed?;
                }
            }
        }
        let base = self.get_or_bind(&mut q, obj)?;
        let Val::Sym(base_sym) = base else {
            // Reading a field of null: the path cannot execute.
            return Err(Refuted::Separation);
        };
        let idx_val = match idx {
            Some(op) => Some(self.int_operand(&mut q, op)?),
            None => None,
        };
        self.add_cell(&mut q, base_sym, field, v, idx_val)?;
        Ok(q)
    }

    /// Inserts a heap cell, unifying with an existing cell for the same
    /// concrete memory cell (same owner and field; for arrays also a
    /// syntactically equal index).
    fn add_cell(
        &mut self,
        q: &mut Query,
        obj: crate::value::SymId,
        field: FieldId,
        val: Val,
        idx: Option<Val>,
    ) -> Result<(), Refuted> {
        for cell in &q.heap {
            if cell.obj == obj && cell.field == field && cell.idx == idx {
                let existing = cell.val;
                return q.unify(existing, val);
            }
        }
        q.heap.push(HeapCell { obj, field, val, idx });
        Ok(())
    }

    /// `WitWrite` — `obj.field := src` (also arrays): one disjunct where the
    /// write produced each matching cell (restricting the owner by `pt(obj)`
    /// and the value by `pt(src)`), plus one where it produced none of them.
    fn exec_write_back(
        &mut self,
        q: Query,
        obj: VarId,
        field: FieldId,
        idx: Option<Operand>,
        src: Operand,
        out: &mut Vec<Query>,
    ) -> Flow {
        let Some(last) = q.heap.iter().rposition(|c| c.field == field) else {
            out.push(q);
            return Ok(());
        };
        self.charge(q.heap.iter().filter(|c| c.field == field).count() as u64)?;

        // Disjunct: the write did not produce any of the cells.
        match self.write_not_produced(q.clone(), obj, field, &idx) {
            Ok(q_not) => out.push(q_not),
            Err(r) => self.stats.count_refutation(r),
        }

        // Disjuncts: the write produced cell `i`; the last one takes `q`
        // itself.
        for i in 0..last {
            if q.heap[i].field == field {
                match self.write_produced(q.clone(), i, obj, &idx, src) {
                    Ok(q_i) => out.push(q_i),
                    Err(r) => self.stats.count_refutation(r),
                }
            }
        }
        match self.write_produced(q, last, obj, &idx, src) {
            Ok(q_i) => out.push(q_i),
            Err(r) => self.stats.count_refutation(r),
        }
        Ok(())
    }

    /// The "not produced" case of `WitWrite`: the written cell is separate
    /// from every queried cell. The disequality is checked locally against
    /// unified owners and then dropped (§3.3 "Query Simplification with
    /// Disaliasing").
    fn write_not_produced(
        &mut self,
        mut q: Query,
        obj: VarId,
        field: FieldId,
        idx: &Option<Operand>,
    ) -> Result<Query, Refuted> {
        let base = self.get_or_bind(&mut q, obj)?;
        let Val::Sym(base_sym) = base else { return Err(Refuted::Separation) };
        if self.config.representation != Representation::FullySymbolic {
            q.narrow(base_sym, self.pta.pt_var(obj))?;
        }
        let idx_val = match idx {
            Some(op) => Some(self.int_operand(&mut q, *op)?),
            None => None,
        };
        for i in 0..q.heap.len() {
            let HeapCell { obj: cell_obj, field: cell_field, idx: cell_idx, .. } = q.heap[i];
            if cell_field != field || cell_obj != base_sym {
                // Distinct symbols: possibly disaliased; the disequality is
                // dropped (kept implicitly via separation and `from`).
                continue;
            }
            match (&idx_val, &cell_idx) {
                (Some(wi), Some(ci)) => {
                    // Same array object: the indices must differ.
                    let wt = val_term(*wi)?;
                    let ct = val_term(*ci)?;
                    q.add_pure(CmpOp::Ne, wt, ct).map_err(|_| Refuted::Separation)?;
                }
                _ => return Err(Refuted::Separation),
            }
        }
        Ok(q)
    }

    /// The "produced cell `i`" case of `WitWrite`.
    fn write_produced(
        &mut self,
        mut q: Query,
        i: usize,
        obj: VarId,
        idx: &Option<Operand>,
        src: Operand,
    ) -> Result<Query, Refuted> {
        let cell = q.heap.remove(i);
        if self.config.representation != Representation::FullySymbolic {
            q.narrow(cell.obj, self.pta.pt_var(obj))?;
        } else {
            // PSE-style aliasing oracle: prune if the owner cannot be pt(obj).
            if let Some(locs) = q.region(cell.obj).as_locs() {
                if locs.is_disjoint(self.pta.pt_var(obj)) {
                    return Err(Refuted::EmptyRegion);
                }
            }
        }
        let base = self.get_or_bind(&mut q, obj)?;
        q.unify(base, Val::Sym(cell.obj))?;
        self.bind_value_to_operand(&mut q, cell.val, src)?;
        if let (Some(op), Some(ci)) = (idx, &cell.idx) {
            let wi = self.int_operand(&mut q, *op)?;
            q.unify(wi, *ci)?;
        }
        Ok(q)
    }

    /// Backwards `x := $G`: globals are single concrete cells.
    fn exec_read_global_back(
        &mut self,
        mut q: Query,
        dst: VarId,
        global: GlobalId,
    ) -> Result<Query, Refuted> {
        let Some(v) = q.locals.remove(&dst) else { return Ok(q) };
        if self.config.representation != Representation::FullySymbolic {
            if let Val::Sym(s) = v {
                if self.program.global(global).ty.is_ref() {
                    q.narrow(s, self.pta.pt_global(global))?;
                }
            }
        }
        match q.statics.get(&global).copied() {
            Some(w) => q.unify(v, w)?,
            None => {
                q.statics.insert(global, v);
            }
        }
        Ok(q)
    }

    /// Backwards `$G := src`: a strong update — the single cell `$G` was
    /// definitely produced by this write.
    fn exec_write_global_back(
        &mut self,
        mut q: Query,
        global: GlobalId,
        src: Operand,
    ) -> Result<Query, Refuted> {
        let Some(v) = q.statics.remove(&global) else { return Ok(q) };
        self.bind_value_to_operand(&mut q, v, src)?;
        Ok(q)
    }

    /// `WitNew` — `x := new @alloc` (and `newarray`): the bound instance
    /// must come from this allocation site, its fields are default-valued
    /// at birth, and it cannot occur in any earlier constraint.
    fn exec_new_back(
        &mut self,
        mut q: Query,
        dst: VarId,
        alloc: tir::AllocId,
        array_len: Option<Operand>,
    ) -> Result<Query, Refuted> {
        if let Some(victim) = &self.config.inject_panic_on_new {
            if self.program.alloc(alloc).name == *victim {
                panic!("injected fault at allocation site {victim}");
            }
        }
        let Some(v) = q.locals.remove(&dst) else { return Ok(q) };
        let s = match v {
            Val::Sym(s) => s,
            // `new` yields a non-null reference.
            Val::Null => return Err(Refuted::Separation),
            Val::Int(_) => return Err(Refuted::Pure),
        };
        let locs = self.pta.alloc_locs(alloc);
        match q.region(s).as_locs() {
            Some(r) if !r.is_disjoint(locs) => {}
            _ => return Err(Refuted::Allocation),
        }
        // Fields are null/zero at birth; array length is initialized.
        let own_cells: Vec<usize> =
            q.heap.iter().enumerate().filter(|(_, c)| c.obj == s).map(|(i, _)| i).collect();
        for i in own_cells.into_iter().rev() {
            let cell = q.heap.remove(i);
            if cell.field == self.program.len_field {
                if let Some(len_op) = array_len {
                    let len_val = self.int_operand(&mut q, len_op)?;
                    q.unify(cell.val, len_val)?;
                    continue;
                }
            }
            match cell.val {
                Val::Null | Val::Int(0) => {}
                Val::Int(_) => return Err(Refuted::Allocation),
                Val::Sym(vs) => match q.region(vs) {
                    // An integer field is zero at birth.
                    RegionRef::Data => q.unify(Val::Sym(vs), Val::Int(0))?,
                    // A reference field cannot hold an instance at birth.
                    RegionRef::Locs(_) => return Err(Refuted::Allocation),
                },
            }
        }
        // The instance cannot be referenced before its allocation.
        let occurs_elsewhere = q.locals.values().any(|&w| w == Val::Sym(s))
            || q.statics.values().any(|&w| w == Val::Sym(s))
            || q.heap
                .iter()
                .any(|c| c.obj == s || c.val == Val::Sym(s) || c.idx == Some(Val::Sym(s)))
            || q.ret_slot == Some(Val::Sym(s));
        if occurs_elsewhere {
            return Err(Refuted::Allocation);
        }
        q.gc();
        Ok(q)
    }

    /// Backwards `return val`: consumes the pending return binding pushed
    /// by the caller's call transfer.
    fn exec_return_back(&mut self, mut q: Query, val: Option<Operand>) -> Result<Query, Refuted> {
        if let Some(v) = q.ret_slot.take() {
            match val {
                Some(op) => self.bind_value_to_operand(&mut q, v, op)?,
                None => {
                    // A void return cannot produce the awaited value;
                    // validation prevents this pairing.
                    return Err(Refuted::Pure);
                }
            }
        }
        Ok(q)
    }

    /// `WitAssume` — guard conditions. Path constraints are added only when
    /// the guard mentions a value the query is already tracking ("only when
    /// the queries on each side of the branch are different", §3.2), and the
    /// path-constraint set is capped (§4).
    pub(crate) fn apply_cond(&mut self, cond: &Cond, mut q: Query) -> Result<Option<Query>, Stop> {
        let Cond::Cmp { op, lhs, rhs } = cond else { return Ok(Some(q)) };
        let is_ref_operand = |o: &Operand| match o {
            Operand::Null => true,
            Operand::Var(v) => self.program.var(*v).ty.is_ref(),
            Operand::Int(_) => false,
        };
        if is_ref_operand(lhs) || is_ref_operand(rhs) {
            return Ok(self.apply_ref_cond(*op, *lhs, *rhs, q));
        }
        // Integer comparison. Unbound variables are bound to fresh data
        // symbols: field reads feeding the guard then unify those symbols
        // with the queried heap cells, which is how the `sz < cap` path
        // constraint of Figure 1 connects to the constructor's stores.
        let t1 = match self.cond_term(&mut q, lhs) {
            Ok(t) => t,
            Err(r) => {
                self.stats.count_refutation(r);
                return Ok(None);
            }
        };
        let t2 = match self.cond_term(&mut q, rhs) {
            Ok(t) => t,
            Err(r) => {
                self.stats.count_refutation(r);
                return Ok(None);
            }
        };
        match q.add_path_atom(Atom::new(*op, t1, t2), MAX_PATH_ATOMS) {
            Ok(()) => Ok(Some(q)),
            Err(r) => {
                self.stats.count_refutation(r);
                Ok(None)
            }
        }
    }

    /// The solver term for a guard operand, binding integer variables.
    fn cond_term(&mut self, q: &mut Query, o: &Operand) -> Result<Term, Refuted> {
        match o {
            Operand::Int(c) => Ok(Term::int(*c)),
            Operand::Null => Err(Refuted::Pure),
            Operand::Var(v) => match self.get_or_bind(q, *v)? {
                Val::Int(c) => Ok(Term::int(c)),
                Val::Sym(s) => Ok(Term::sym(s.0)),
                Val::Null => Err(Refuted::Pure),
            },
        }
    }

    /// Reference equality/disequality guards.
    fn apply_ref_cond(
        &mut self,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
        mut q: Query,
    ) -> Option<Query> {
        let val_of = |o: &Operand, q: &Query| -> Option<Val> {
            match o {
                Operand::Null => Some(Val::Null),
                Operand::Var(v) => q.locals.get(v).copied(),
                Operand::Int(c) => Some(Val::Int(*c)),
            }
        };
        let a = val_of(&lhs, &q);
        let b = val_of(&rhs, &q);
        match op {
            CmpOp::Eq => match (a, b) {
                (Some(x), Some(y)) => match q.unify(x, y) {
                    Ok(()) => Some(q),
                    Err(r) => {
                        self.stats.count_refutation(r);
                        None
                    }
                },
                (Some(x), None) => {
                    if let Operand::Var(y) = rhs {
                        q.locals.insert(y, x);
                    }
                    Some(q)
                }
                (None, Some(y)) => {
                    if let Operand::Var(x) = lhs {
                        q.locals.insert(x, y);
                    }
                    Some(q)
                }
                (None, None) => Some(q),
            },
            CmpOp::Ne => match (a, b) {
                (Some(Val::Sym(x)), Some(Val::Sym(y))) if x == y => {
                    self.stats.count_refutation(Refuted::Separation);
                    None
                }
                (Some(Val::Null), Some(Val::Null)) => {
                    self.stats.count_refutation(Refuted::Separation);
                    None
                }
                // Must-not-null strong update (null client): `x != null`
                // with `x` unbound pins `x` to a fresh instance symbol —
                // symbolic values are never null — so a null flowing into
                // `x` earlier in the path refutes at the unification. An
                // empty points-to set means `x` can only ever hold null,
                // making the guarded branch infeasible outright.
                (None, Some(Val::Null)) | (Some(Val::Null), None)
                    if self.config.track_null_guards =>
                {
                    let var = match (&lhs, &rhs) {
                        (Operand::Var(v), _) if a.is_none() => *v,
                        (_, Operand::Var(v)) => *v,
                        _ => return Some(q),
                    };
                    match self.get_or_bind(&mut q, var) {
                        Ok(_) => Some(q),
                        Err(r) => {
                            self.stats.count_refutation(r);
                            None
                        }
                    }
                }
                // Distinct symbols / sym-vs-null: consistent (symbols denote
                // instances). The disaliasing fact is dropped (§3.3).
                _ => Some(q),
            },
            // Ordered comparison on references is not generated by the
            // front-end; keep the query unchanged.
            _ => Some(q),
        }
    }
}

/// The solver term for a value known to be an integer.
fn val_term(v: Val) -> Result<Term, Refuted> {
    match v {
        Val::Int(c) => Ok(Term::int(c)),
        Val::Sym(s) => Ok(Term::sym(s.0)),
        Val::Null => Err(Refuted::Pure),
    }
}

/// `base + c` as a term; `None` when folding the offsets would overflow
/// (callers drop the constraint — a sound weakening).
fn offset(base: Term, c: i64) -> Option<Term> {
    match base {
        Term::Sym(s) => Some(Term::sym_plus(s, c)),
        Term::SymPlus(s, k) => k.checked_add(c).map(|kc| Term::sym_plus(s, kc)),
        Term::Const(k) => k.checked_add(c).map(Term::int),
    }
}
