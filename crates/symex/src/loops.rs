//! On-the-fly loop invariant inference (§3.3).
//!
//! For each individual query reaching a loop (backwards), the engine
//! saturates the set of loop-head queries by repeatedly applying the body's
//! backwards transfer, with three convergence devices mirrored from the
//! paper:
//!
//! 1. **Subsumption**: a new query entailed by one already in the set is
//!    dropped (refuting the weaker query refutes it too).
//! 2. **Materialization bound**: the number of heap cells per field may grow
//!    by at most `MATERIALIZATION_BOUND` (1) over the seed — the paper's
//!    "static bound on the number of instances of each abstract location"
//!    (bound 1 in the evaluation).
//! 3. **Widening**: after `LOOP_ITER_CAP` (3) rounds, path
//!    constraints are dropped ("a trivial widening that drops pure
//!    constraints that may be modified by the loop"); if the set still
//!    grows, the remaining queries fall back to drop-all weakening.
//!
//! All three devices only ever *weaken* queries, preserving refutation
//! soundness (Theorem 1).

use pta::BitSet;
use tir::{Cond, FieldId, Stmt};

use crate::config::{LoopMode, Representation, LOOP_ITER_CAP, MATERIALIZATION_BOUND};
use crate::engine::{Engine, Flow};
use crate::query::Query;

impl Engine<'_> {
    /// Computes the loop-head query set for a loop with optional guard
    /// `cond` and body `body`, seeded by the queries in `qs` (already at
    /// the loop head). Replaces them with the queries that flow out of the
    /// loop backwards (to the program point before the loop).
    pub(crate) fn loop_fixpoint(
        &mut self,
        cond: Option<&Cond>,
        body: &Stmt,
        qs: &mut Vec<Query>,
    ) -> Flow {
        if qs.is_empty() {
            return Ok(());
        }
        self.stats.add_loop_fixpoint();
        let _span = obs::span_with(obs::SpanKind::LoopFixpoint, || format!("seed={}", qs.len()));
        if self.config.loop_mode == LoopMode::DropAll {
            for q in qs.iter_mut() {
                self.drop_loop_affected(body, q);
            }
            return Ok(());
        }

        // Per-field materialization budget relative to the seed: the
        // largest number of cells any seed holds for the field.
        let mut cell_cap: Vec<(FieldId, usize)> = Vec::new();
        for q in qs.iter() {
            for c in &q.heap {
                let n = q.heap.iter().filter(|d| d.field == c.field).count();
                match cell_cap.iter_mut().find(|(f, _)| *f == c.field) {
                    Some((_, cap)) => *cap = (*cap).max(n),
                    None => cell_cap.push((c.field, n)),
                }
            }
        }
        let strict = self.config.representation == Representation::FullySymbolic;

        let mut set = self.take_buf();
        let mut work: Vec<(Query, usize)> = Vec::new();
        // Widening discards constraints over values first materialized
        // inside the loop analysis; constraints over loop-invariant values
        // survive (the paper drops only "pure constraints that may be
        // modified by the loop").
        let mut mark = None;
        for mut q in qs.drain(..) {
            if let Err(r) = self.normalize_cells(&mut q) {
                self.stats.count_refutation(r);
                continue;
            }
            q.gc();
            if !subsumed_by(&set, &q, strict) {
                mark = Some(mark.unwrap_or(u32::MAX).min(q.sym_mark()));
                set.push(q.clone());
                work.push((q, 0));
            }
        }
        let mark = mark.unwrap_or(0);
        let mut stepped = self.take_buf();
        while let Some((q, round)) = work.pop() {
            // One more backwards pass over (assume cond; body).
            self.exec_stmt_back(body, q, &mut stepped)?;
            for mut q2 in stepped.drain(..) {
                if let Some(c) = cond {
                    match self.apply_cond(c, q2)? {
                        Some(next) => q2 = next,
                        None => continue,
                    }
                }
                // Materialization bound: trim per-field cell growth.
                enforce_cell_cap(&mut q2, &cell_cap);
                // Widening: past the iteration cap, drop loop-derived pure
                // constraints.
                if round + 1 >= LOOP_ITER_CAP {
                    obs::add(obs::Counter::LoopWidenings, 1);
                    q2.drop_atoms_since(mark);
                }
                // Fallback: far past the cap, weaken to the drop-all state.
                if round + 1 >= 3 * LOOP_ITER_CAP {
                    obs::add(obs::Counter::LoopDropAllFallbacks, 1);
                    self.drop_loop_affected(body, &mut q2);
                }
                q2.gc();
                if !subsumed_by(&set, &q2, strict) {
                    if self.config.simplification {
                        // With simplification the set is kept minimal:
                        // remove entries stronger than the newcomer.
                        set.retain(|old| !old.entails(&q2, strict));
                    }
                    self.charge(1)?;
                    set.push(q2.clone());
                    work.push((q2, round + 1));
                }
            }
        }
        self.put_buf(stepped);
        std::mem::swap(qs, &mut set);
        self.put_buf(set);
        Ok(())
    }

    /// The drop-all weakening (hypothesis-3 ablation, also the widening
    /// fallback): removes every constraint the loop body may modify —
    /// bindings of assigned locals, heap cells of written fields, written
    /// globals — then garbage-collects dangling pure constraints.
    pub(crate) fn drop_loop_affected(&mut self, body: &Stmt, q: &mut Query) {
        let mut mod_fields = std::mem::take(&mut self.scratch);
        mod_fields.clear();
        let mut mod_globals = BitSet::new();
        let program = self.program;
        body.for_each_cmd(&mut |c| {
            let cmd = program.cmd(c);
            if let Some(d) = cmd.def() {
                q.locals.remove(&d);
            }
            match cmd {
                tir::Command::WriteField { field, .. } => {
                    mod_fields.insert(field.index());
                }
                tir::Command::WriteArray { .. } => {
                    mod_fields.insert(program.contents_field.index());
                }
                tir::Command::WriteGlobal { global, .. } => {
                    mod_globals.insert(global.index());
                }
                tir::Command::Call { .. } => {
                    for &t in self.pta.call_targets(c) {
                        mod_fields.union_with(self.modref.mod_fields(t));
                        mod_globals.union_with(self.modref.mod_globals(t));
                    }
                }
                _ => {}
            }
        });
        q.heap.retain(|c| !mod_fields.contains(c.field.index()));
        q.statics.retain(|g, _| !mod_globals.contains(g.index()));
        q.clear_path();
        q.gc();
        self.scratch = mod_fields;
    }
}

/// Trims heap cells of `q` so no field exceeds its seed count in
/// `cell_cap` plus the materialization bound. Newest cells (appended last)
/// are dropped first — a sound weakening.
fn enforce_cell_cap(q: &mut Query, cell_cap: &[(FieldId, usize)]) {
    let mut i = 0;
    while i < q.heap.len() {
        let f = q.heap[i].field;
        let seed = cell_cap.iter().find(|(g, _)| *g == f).map_or(0, |&(_, n)| n);
        if q.heap[..i].iter().filter(|c| c.field == f).count() >= seed + MATERIALIZATION_BOUND {
            q.heap.remove(i);
        } else {
            i += 1;
        }
    }
}

/// True if `q` is entailed-covered by a member of `set`: there is a weaker
/// query already scheduled, so refuting it refutes `q` too.
fn subsumed_by(set: &[Query], q: &Query, strict: bool) -> bool {
    set.iter().any(|old| q.entails(old, strict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SymexConfig;
    use crate::query::HeapCell;
    use crate::region::Region;
    use crate::value::Val;
    use pta::{ContextPolicy, HeapEdge, LocId, ModRef, PtaResult};
    use solver::{Atom, Term};
    use tir::{AllocId, BinOp, CmpOp, GlobalId, Program, ProgramBuilder, Ty, VarId};

    /// A hand-built loop program:
    ///
    /// ```text
    /// n = new Node @n0; o = new Object @o0; i = 0; n.next = n;
    /// while (i < 10) { n.val = o; i = i + 1; }
    /// $OUT = o;
    /// ```
    struct LoopProg {
        program: Program,
        n: VarId,
        i: VarId,
        next_f: FieldId,
        val_f: FieldId,
        out_g: GlobalId,
        n0: AllocId,
        o0: AllocId,
    }

    fn loop_program() -> LoopProg {
        let mut b = ProgramBuilder::new();
        let object = b.object_class();
        let node = b.class("Node", None);
        let next_f = b.field(node, "next", Ty::Ref(node));
        let val_f = b.field(node, "val", Ty::Ref(object));
        let out_g = b.global("OUT", Ty::Ref(object));
        let mut ids = None;
        let main = b.method(None, "main", &[], None, |mb| {
            let n = mb.var("n", Ty::Ref(node));
            let o = mb.var("o", Ty::Ref(object));
            let i = mb.var("i", Ty::Int);
            let n0 = mb.new_obj(n, node, "n0");
            let o0 = mb.new_obj(o, object, "o0");
            mb.assign(i, 0);
            mb.write_field(n, next_f, n);
            mb.while_(Cond::cmp(CmpOp::Lt, i, 10), |mb| {
                mb.write_field(n, val_f, o);
                mb.binop(i, BinOp::Add, i, 1);
            });
            mb.write_global(out_g, o);
            ids = Some((n, i, n0, o0));
        });
        b.set_entry(main);
        let (n, i, n0, o0) = ids.expect("builder ran");
        LoopProg { program: b.finish(), n, i, next_f, val_f, out_g, n0, o0 }
    }

    fn loc_of(pta: &PtaResult, a: AllocId) -> LocId {
        LocId(pta.alloc_locs(a).iter().next().expect("allocated") as u32)
    }

    /// Finds the (unique) `while` statement of `main`.
    fn find_while(stmt: &Stmt) -> Option<(&Cond, &Stmt)> {
        match stmt {
            Stmt::While { cond, body } => Some((cond, body)),
            Stmt::Seq(ss) => ss.iter().find_map(find_while),
            Stmt::If { then_br, else_br, .. } => {
                find_while(then_br).or_else(|| find_while(else_br))
            }
            Stmt::Loop(b) => find_while(b),
            Stmt::Choice(a, b) => find_while(a).or_else(|| find_while(b)),
            _ => None,
        }
    }

    /// A loop-head query constraining the loop-written field, the
    /// loop-assigned counter, a loop-invariant field, and a global, with a
    /// pure path atom — one representative of everything the convergence
    /// devices may touch.
    fn seed_query(lp: &LoopProg, pta: &PtaResult) -> Query {
        let mut q = Query::new();
        let sn = q.fresh_sym(Region::singleton(loc_of(pta, lp.n0).index()));
        let so = q.fresh_sym(Region::singleton(loc_of(pta, lp.o0).index()));
        q.locals.insert(lp.n, Val::Sym(sn));
        q.locals.insert(lp.i, Val::Int(3));
        q.heap.push(HeapCell { obj: sn, field: lp.val_f, val: Val::Sym(so), idx: None });
        q.heap.push(HeapCell { obj: sn, field: lp.next_f, val: Val::Sym(sn), idx: None });
        q.statics.insert(lp.out_g, Val::Sym(so));
        q.add_path_atom(Atom::new(CmpOp::Ne, Term::sym(so.0), Term::int(0)), 2).unwrap();
        q
    }

    #[test]
    fn hand_built_loop_reaches_fixpoint_and_witnesses() {
        let lp = loop_program();
        let pta = pta::analyze(&lp.program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&lp.program, &pta);
        let mut engine = Engine::new(&lp.program, &pta, &modref, SymexConfig::default());
        // Both concrete edges flow backwards through the loop: the field
        // store is produced inside it, the global store sits after it.
        let field_edge = HeapEdge::Field {
            base: loc_of(&pta, lp.n0),
            field: lp.val_f,
            target: loc_of(&pta, lp.o0),
        };
        let global_edge = HeapEdge::Global { global: lp.out_g, target: loc_of(&pta, lp.o0) };
        assert!(!engine.refute_edge(&field_edge).is_refuted(), "loop store is concrete");
        assert!(!engine.refute_edge(&global_edge).is_refuted(), "post-loop store is concrete");
        assert!(engine.stats.loop_fixpoints >= 1, "no loop fixpoint was ever computed");
    }

    #[test]
    fn fixpoint_covers_its_seed() {
        let lp = loop_program();
        let pta = pta::analyze(&lp.program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&lp.program, &pta);
        let mut engine = Engine::new(&lp.program, &pta, &modref, SymexConfig::default());
        let main = lp.program.method(lp.program.entry());
        let (cond, body) = find_while(&main.body).expect("main has a while loop");
        let seed = seed_query(&lp, &pta);
        let mut out = vec![seed.clone()];
        engine
            .loop_fixpoint(Some(cond), body, &mut out)
            .expect("fixpoint terminates within the default budget");
        assert!(!out.is_empty(), "the saturated set lost the seed");
        // Soundness shape of the fixed point: some member is weaker than
        // (entailed by) the seed, so refuting the set refutes the seed.
        assert!(
            out.iter().any(|w| seed.entails(w, false)),
            "no member of the fixed point covers the seed query"
        );
    }

    #[test]
    fn drop_all_weakening_drops_loop_touched_constraints_only() {
        let lp = loop_program();
        let pta = pta::analyze(&lp.program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&lp.program, &pta);
        let mut engine = Engine::new(&lp.program, &pta, &modref, SymexConfig::default());
        let main = lp.program.method(lp.program.entry());
        let (_, body) = find_while(&main.body).expect("main has a while loop");
        let mut q = seed_query(&lp, &pta);
        engine.drop_loop_affected(body, &mut q);
        // Loop-modified state is gone...
        assert!(!q.locals.contains_key(&lp.i), "binding of the loop counter survived");
        assert!(
            q.heap.iter().all(|c| c.field != lp.val_f),
            "cell of the loop-written field survived"
        );
        assert!(q.path().is_empty(), "pure path constraints must be dropped");
        // ...while loop-invariant state survives.
        assert!(q.locals.contains_key(&lp.n), "binding of an untouched local was lost");
        assert!(
            q.heap.iter().any(|c| c.field == lp.next_f),
            "cell of a field the loop never writes was lost"
        );
        assert!(q.statics.contains_key(&lp.out_g), "a global the loop never writes was lost");
    }

    #[test]
    fn drop_all_loop_mode_weakens_every_seed() {
        let lp = loop_program();
        let pta = pta::analyze(&lp.program, ContextPolicy::Insensitive);
        let modref = ModRef::compute(&lp.program, &pta);
        let cfg = SymexConfig::default().with_loop_mode(LoopMode::DropAll);
        let mut engine = Engine::new(&lp.program, &pta, &modref, cfg);
        let main = lp.program.method(lp.program.entry());
        let (cond, body) = find_while(&main.body).expect("main has a while loop");
        let mut out = vec![seed_query(&lp, &pta)];
        engine.loop_fixpoint(Some(cond), body, &mut out).expect("no fixpoint needed");
        assert_eq!(out.len(), 1, "drop-all maps each seed to exactly one weakening");
        assert!(out[0].heap.iter().all(|c| c.field != lp.val_f));
        assert!(out[0].path().is_empty());
    }

    #[test]
    fn materialization_bound_one_trims_newest_cells_only() {
        let lp = loop_program();
        let pta = pta::analyze(&lp.program, ContextPolicy::Insensitive);
        let n_loc = loc_of(&pta, lp.n0).index();
        let o_loc = loc_of(&pta, lp.o0).index();

        let mut q = Query::new();
        let owners: Vec<_> = (0..4).map(|_| q.fresh_sym(Region::singleton(n_loc))).collect();
        let val = q.fresh_sym(Region::singleton(o_loc));
        for &obj in &owners {
            q.heap.push(HeapCell { obj, field: lp.val_f, val: Val::Sym(val), idx: None });
        }
        q.heap.push(HeapCell {
            obj: owners[0],
            field: lp.next_f,
            val: Val::Sym(owners[1]),
            idx: None,
        });

        // Seed had one `val` cell; with the paper's bound of 1 the loop may
        // materialize at most one more. The two *newest* cells go.
        enforce_cell_cap(&mut q, &[(lp.val_f, 1)]);
        let val_cells: Vec<_> = q.heap.iter().filter(|c| c.field == lp.val_f).collect();
        assert_eq!(val_cells.len(), 2, "bound 1 allows seed + 1 materialized cell");
        assert_eq!(val_cells[0].obj, owners[0], "oldest cell must survive");
        assert_eq!(val_cells[1].obj, owners[1], "second-oldest cell must survive");
        assert!(
            q.heap.iter().any(|c| c.field == lp.next_f),
            "an un-capped field must not be trimmed"
        );
    }
}
