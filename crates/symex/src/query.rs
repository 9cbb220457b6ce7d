//! Mixed symbolic-explicit queries (§2.1, §3.1).
//!
//! A [`Query`] is one conjunctive candidate witness: exact points-to
//! constraints on locals, globals, and heap cells (a bounded separation-logic
//! fragment — distinct cells are separated by `*`), `from` instance
//! constraints tying each symbolic value to a points-to region, and pure
//! integer constraints split into *internal* equalities and capped *path*
//! conditions.

use std::collections::BTreeMap;

use pta::BitSet;
use solver::{Atom, ConstraintSet, Term};
use tir::{CmdId, FieldId, GlobalId, VarId};

use crate::config::TRACE_CAP;
use crate::region::Region;
use crate::value::{SymId, Val};

/// Raised when a query transfer discovers a contradiction; the enclosing
/// path program is pruned. The variants drive the refutation statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Refuted {
    /// A `from` region became empty (axiom 1 of §3.2).
    EmptyRegion,
    /// Separation: one memory cell would need two distinct values.
    Separation,
    /// The pure/path constraints became unsatisfiable.
    Pure,
    /// A constraint mentioned an instance before its allocation site.
    Allocation,
    /// Constraints survived to the program entry, where the heap is empty.
    Entry,
}

impl std::fmt::Display for Refuted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Refuted::EmptyRegion => "empty instance region",
            Refuted::Separation => "separation contradiction",
            Refuted::Pure => "unsatisfiable pure constraints",
            Refuted::Allocation => "instance constrained before allocation",
            Refuted::Entry => "constraints unsatisfiable at program entry",
        };
        f.write_str(s)
    }
}

/// One exact heap points-to constraint `v̂·f ↦ û` (with an optional symbolic
/// array index for `contents` cells).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapCell {
    /// The owning instance.
    pub obj: SymId,
    /// The field.
    pub field: FieldId,
    /// The stored value.
    pub val: Val,
    /// For array `contents` cells: the element index.
    pub idx: Option<Val>,
}

/// A conjunctive candidate witness (see the module-level documentation).
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Exact points-to constraints on locals: `x ↦ v`.
    pub locals: BTreeMap<VarId, Val>,
    /// Exact points-to constraints on globals: `$G ↦ v`.
    pub statics: BTreeMap<GlobalId, Val>,
    /// Exact heap constraints, implicitly `*`-separated.
    pub heap: Vec<HeapCell>,
    /// `from` instance constraints per symbolic value.
    regions: BTreeMap<SymId, Region>,
    /// Internal pure constraints (value equalities, array index relations).
    pub pure: ConstraintSet,
    /// Path conditions gathered from guards; capped by the engine.
    pub path: ConstraintSet,
    /// Pending return-value constraint while entering a callee backwards:
    /// consumed by the callee's trailing `return` transfer.
    pub ret_slot: Option<Val>,
    next_sym: u32,
    /// Commands traversed by this path program, most recent first.
    pub trace: Vec<CmdId>,
}

impl Query {
    /// An empty query (the `any` memory — trivially witnessed).
    pub fn new() -> Query {
        Query::default()
    }

    /// Allocates a fresh symbolic value constrained to `region`.
    pub fn fresh_sym(&mut self, region: Region) -> SymId {
        let id = SymId(self.next_sym);
        self.next_sym += 1;
        self.regions.insert(id, region);
        id
    }

    /// A watermark: all symbolic values created after this call have ids
    /// `>=` the returned mark (unification keeps the smaller id as the
    /// representative, so merged values stay below their original marks).
    pub fn sym_mark(&self) -> u32 {
        self.next_sym
    }

    /// Drops pure and path atoms that mention any symbolic value created at
    /// or after `mark` — the loop-widening weakening: constraints derived
    /// during loop analysis are discarded, constraints about loop-invariant
    /// values survive.
    pub fn drop_atoms_since(&mut self, mark: u32) {
        let keep = |a: &Atom| a.syms().all(|s| s < mark);
        self.pure.retain(keep);
        self.path.retain(keep);
    }

    /// The `from` region of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is unknown to this query.
    pub fn region(&self, s: SymId) -> &Region {
        self.regions.get(&s).expect("unknown symbolic value")
    }

    /// All symbolic values with their regions.
    pub fn regions(&self) -> impl Iterator<Item = (SymId, &Region)> {
        self.regions.iter().map(|(&s, r)| (s, r))
    }

    /// Narrows the region of `s` by intersection with `locs`.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::EmptyRegion`] if the intersection is empty — the
    /// eager contradiction at the heart of the mixed representation (§2.2).
    pub fn narrow(&mut self, s: SymId, locs: &BitSet) -> Result<(), Refuted> {
        let r = self.regions.get_mut(&s).expect("unknown symbolic value");
        // Fast path: already at least as narrow (no allocation).
        if let Region::Locs(cur) = r {
            if cur.is_subset(locs) {
                return if cur.is_empty() { Err(Refuted::EmptyRegion) } else { Ok(()) };
            }
        }
        let narrowed = r.intersect_locs(locs);
        if narrowed.is_empty() {
            return Err(Refuted::EmptyRegion);
        }
        *r = narrowed;
        Ok(())
    }

    /// Unifies two values, merging symbolic variables (intersecting their
    /// regions) and substituting throughout the query.
    ///
    /// # Errors
    ///
    /// Returns a [`Refuted`] reason when the values cannot be equal: a
    /// symbolic instance against `null`, clashing constants, disjoint
    /// regions, or a resulting separation/pure contradiction.
    pub fn unify(&mut self, a: Val, b: Val) -> Result<(), Refuted> {
        match (a, b) {
            (Val::Null, Val::Null) => Ok(()),
            (Val::Int(x), Val::Int(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(Refuted::Pure)
                }
            }
            (Val::Null, Val::Int(_)) | (Val::Int(_), Val::Null) => Err(Refuted::Pure),
            (Val::Sym(s), Val::Null) | (Val::Null, Val::Sym(s)) => {
                // A symbolic value denotes a concrete instance or integer —
                // never null.
                let _ = s;
                Err(Refuted::Separation)
            }
            (Val::Sym(s), Val::Int(c)) | (Val::Int(c), Val::Sym(s)) => {
                match self.region(s) {
                    Region::Data => {}
                    Region::Locs(_) => return Err(Refuted::EmptyRegion),
                }
                self.add_pure(tir::CmpOp::Eq, Term::sym(s.0), Term::int(c))
            }
            (Val::Sym(s1), Val::Sym(s2)) => {
                if s1 == s2 {
                    return Ok(());
                }
                let (rep, gone) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                let r1 = self.regions.remove(&gone).expect("unknown symbolic value");
                let r0 = self.regions.get_mut(&rep).expect("unknown symbolic value");
                let merged = r0.intersect(&r1);
                if merged.is_empty() {
                    return Err(Refuted::EmptyRegion);
                }
                *r0 = merged;
                self.substitute(gone, rep)?;
                Ok(())
            }
        }
    }

    /// Replaces every occurrence of `gone` with `rep`, then re-establishes
    /// the one-value-per-cell invariant of the heap.
    fn substitute(&mut self, gone: SymId, rep: SymId) -> Result<(), Refuted> {
        let subst = |v: Val| v.map_sym(|s| if s == gone { rep } else { s });
        if let Some(r) = self.ret_slot {
            self.ret_slot = Some(subst(r));
        }
        for v in self.locals.values_mut() {
            *v = subst(*v);
        }
        for v in self.statics.values_mut() {
            *v = subst(*v);
        }
        for cell in &mut self.heap {
            if cell.obj == gone {
                cell.obj = rep;
            }
            cell.val = subst(cell.val);
            cell.idx = cell.idx.map(subst);
        }
        let map_atom = |a: &Atom| Atom {
            op: a.op,
            lhs: a.lhs.map_sym(|s| if s == gone.0 { rep.0 } else { s }),
            rhs: a.rhs.map_sym(|s| if s == gone.0 { rep.0 } else { s }),
        };
        self.pure = self.pure.atoms().iter().map(map_atom).collect();
        self.path = self.path.atoms().iter().map(map_atom).collect();
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        self.dedupe_cells()
    }

    /// Merges heap cells that now name the same memory cell. Two non-array
    /// cells with the same `(obj, field)` are one concrete cell, so their
    /// values unify; array cells are merged only when their indices are
    /// syntactically equal (otherwise they may address distinct elements).
    fn dedupe_cells(&mut self) -> Result<(), Refuted> {
        loop {
            let mut pair: Option<(usize, usize)> = None;
            'outer: for i in 0..self.heap.len() {
                for j in (i + 1)..self.heap.len() {
                    let (a, b) = (&self.heap[i], &self.heap[j]);
                    if a.obj == b.obj && a.field == b.field {
                        match (&a.idx, &b.idx) {
                            (None, None) => {
                                pair = Some((i, j));
                                break 'outer;
                            }
                            (Some(x), Some(y)) if x == y => {
                                pair = Some((i, j));
                                break 'outer;
                            }
                            _ => {}
                        }
                    }
                }
            }
            let Some((i, j)) = pair else { return Ok(()) };
            let b = self.heap.remove(j);
            let a_val = self.heap[i].val;
            self.unify(a_val, b.val)?;
        }
    }

    /// True if the pure and path constraints are jointly satisfiable.
    /// Solver failures are absorbed as "satisfiable" (refutation-sound);
    /// use [`Query::try_pure_sat`] to surface them.
    pub fn pure_sat(&self) -> bool {
        self.try_pure_sat().unwrap_or(true)
    }

    /// True if the pure and path constraints are jointly satisfiable,
    /// reporting solver failures (overflow, oversized sets) to the caller.
    pub fn try_pure_sat(&self) -> Result<bool, solver::SolverError> {
        if self.path.is_empty() {
            return self.pure.try_is_sat();
        }
        let mut all = self.pure.clone();
        for a in self.path.atoms() {
            all.add_atom(*a);
        }
        all.try_is_sat()
    }

    /// The combined pure+path constraint set.
    pub fn all_pure(&self) -> ConstraintSet {
        let mut all = self.pure.clone();
        for a in self.path.atoms() {
            all.add_atom(*a);
        }
        all
    }

    /// Adds an internal pure atom (value equality, index relation),
    /// evicting the oldest atoms beyond a fixed cap — a sound weakening
    /// that keeps the solver's constraint graphs small.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_pure(&mut self, op: tir::CmpOp, lhs: Term, rhs: Term) -> Result<(), Refuted> {
        const INTERNAL_PURE_CAP: usize = 32;
        self.pure.add(op, lhs, rhs);
        while self.pure.len() > INTERNAL_PURE_CAP {
            let atoms: Vec<Atom> = self.pure.atoms()[1..].to_vec();
            self.pure = atoms.into_iter().collect();
        }
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        Ok(())
    }

    /// Adds a path-condition atom, evicting atoms beyond `cap` (a sound
    /// weakening; §4 caps the set at two). Eviction prefers atoms whose
    /// symbols are not tied to any heap or static constraint — transient
    /// guard conditions — keeping memory-anchored conditions like the
    /// `sz < cap` constraint of Figure 1 alive longest.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_path_atom(&mut self, atom: Atom, cap: usize) -> Result<(), Refuted> {
        self.path.add_atom(atom);
        while self.path.len() > cap {
            // Symbols anchored in memory constraints.
            let mut anchored: BitSet = BitSet::new();
            for c in &self.heap {
                anchored.insert(c.obj.index());
                if let Val::Sym(s) = c.val {
                    anchored.insert(s.index());
                }
                if let Some(Val::Sym(s)) = c.idx {
                    anchored.insert(s.index());
                }
            }
            for v in self.statics.values() {
                if let Val::Sym(s) = v {
                    anchored.insert(s.index());
                }
            }
            let atoms: Vec<Atom> = self.path.atoms().to_vec();
            // Never evict the just-added atom (its symbols become anchored
            // only once the reads feeding the guard are processed).
            let victim = atoms[..atoms.len() - 1]
                .iter()
                .position(|a| a.syms().all(|s| !anchored.contains(s as usize)))
                .unwrap_or(0);
            let remaining: Vec<Atom> = atoms
                .into_iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, a)| a)
                .collect();
            self.path = remaining.into_iter().collect();
        }
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        Ok(())
    }

    /// Record a traversed command in the path-program trace (at most
    /// `TRACE_CAP` commands are kept).
    pub fn record(&mut self, cmd: CmdId) {
        if self.trace.len() < TRACE_CAP {
            self.trace.push(cmd);
        }
    }

    /// Drops the newest heap cells beyond `cap` (a sound weakening: the
    /// remaining query describes more states, never fewer).
    pub fn truncate_heap(&mut self, cap: usize) {
        self.heap.truncate(cap);
    }

    /// Fields mentioned by heap constraints (query footprint, for mod/ref
    /// relevance checks).
    pub fn field_footprint(&self) -> BitSet {
        self.heap.iter().map(|c| c.field.index()).collect()
    }

    /// Globals mentioned by static constraints.
    pub fn global_footprint(&self) -> BitSet {
        self.statics.keys().map(|g| g.index()).collect()
    }

    /// True if no memory constraints remain — the query is the `any` memory
    /// and the path program is a *full witness*, provided the pure
    /// constraints are satisfiable.
    pub fn is_discharged(&self) -> bool {
        self.locals.is_empty() && self.statics.is_empty() && self.heap.is_empty()
    }

    /// Checks the query against the initial program state (empty heap, all
    /// globals null, locals zero-initialized).
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Entry`] if any constraint demands a non-default
    /// value at entry: no object exists yet (so every heap cell and every
    /// binding to a location-region symbol is contradictory), and all
    /// integer values are zero.
    pub fn check_at_entry(&self) -> Result<(), Refuted> {
        if !self.heap.is_empty() {
            return Err(Refuted::Entry);
        }
        let mut pure = self.all_pure();
        let mut check_default = |v: &Val, regions: &BTreeMap<SymId, Region>| match v {
            Val::Null | Val::Int(0) => Ok(()),
            Val::Int(_) => Err(Refuted::Entry),
            Val::Sym(s) => match regions.get(s) {
                Some(Region::Data) => {
                    pure.add(tir::CmpOp::Eq, Term::sym(s.0), Term::int(0));
                    Ok(())
                }
                _ => Err(Refuted::Entry),
            },
        };
        for v in self.locals.values() {
            check_default(v, &self.regions)?;
        }
        for v in self.statics.values() {
            check_default(v, &self.regions)?;
        }
        let _ = &check_default;
        if !pure.is_sat() {
            return Err(Refuted::Entry);
        }
        Ok(())
    }

    /// Drops pure/path atoms that mention no symbolic value reachable from
    /// the structural constraints (a sound weakening that keeps queries
    /// comparable), and garbage-collects unused regions.
    pub fn gc(&mut self) {
        let mut live: BitSet = BitSet::new();
        let mut mark = |v: &Val| {
            if let Val::Sym(s) = v {
                live.insert(s.index());
            }
        };
        for v in self.locals.values() {
            mark(v);
        }
        if let Some(r) = &self.ret_slot {
            mark(r);
        }
        for v in self.statics.values() {
            mark(v);
        }
        for c in &self.heap {
            mark(&Val::Sym(c.obj));
            mark(&c.val);
            if let Some(i) = &c.idx {
                mark(i);
            }
        }
        let _ = &mark;
        // Close over pure atoms: an atom linking a live sym keeps its other
        // sym live.
        let all_atoms: Vec<Atom> =
            self.pure.atoms().iter().chain(self.path.atoms()).copied().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for a in &all_atoms {
                let syms: Vec<u32> = a.syms().collect();
                if syms.iter().any(|&s| live.contains(s as usize)) {
                    for &s in &syms {
                        changed |= live.insert(s as usize);
                    }
                }
            }
        }
        let keep = |a: &Atom| {
            let syms: Vec<u32> = a.syms().collect();
            syms.is_empty() || syms.iter().any(|&s| live.contains(s as usize))
        };
        self.pure.retain(keep);
        self.path.retain(keep);

        // Vacuous-definition elimination: an atom containing a symbol that
        // is not structural and occurs in no other atom is existentially
        // trivial (the symbol can always be chosen to satisfy it — the
        // integers are unbounded), so it constrains nothing. Dropping it is
        // a no-loss weakening that keeps queries canonical for subsumption.
        let mut structural: BitSet = BitSet::new();
        let mut mark2 = |v: &Val| {
            if let Val::Sym(s) = v {
                structural.insert(s.index());
            }
        };
        for v in self.locals.values() {
            mark2(v);
        }
        if let Some(r) = &self.ret_slot {
            mark2(r);
        }
        for v in self.statics.values() {
            mark2(v);
        }
        for c in &self.heap {
            mark2(&Val::Sym(c.obj));
            mark2(&c.val);
            if let Some(i) = &c.idx {
                mark2(i);
            }
        }
        let _ = &mark2;
        loop {
            let mut occurrences: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for a in self.pure.atoms().iter().chain(self.path.atoms()) {
                for s in a.syms() {
                    *occurrences.entry(s).or_insert(0) += 1;
                }
            }
            let vacuous = |a: &Atom| {
                a.syms()
                    .any(|s| !structural.contains(s as usize) && occurrences.get(&s) == Some(&1))
            };
            let before = self.pure.len() + self.path.len();
            self.pure.retain(|a| !vacuous(a));
            self.path.retain(|a| !vacuous(a));
            if self.pure.len() + self.path.len() == before {
                break;
            }
        }
        let mut final_live = structural;
        for a in self.pure.atoms().iter().chain(self.path.atoms()) {
            for s in a.syms() {
                final_live.insert(s as usize);
            }
        }
        self.regions.retain(|s, _| final_live.contains(s.index()));
    }

    /// True if both queries carry exactly the same constraints (ignoring
    /// the recorded trace). Used to detect branches that did not touch the
    /// query, in which case guard constraints are skipped (§3.2: path
    /// constraints are added "only when the queries on each side of the
    /// branch are different").
    pub fn same_constraints(&self, other: &Query) -> bool {
        self.locals == other.locals
            && self.statics == other.statics
            && self.heap == other.heap
            && self.regions == other.regions
            && self.pure == other.pure
            && self.path == other.path
            && self.ret_slot == other.ret_slot
    }

    /// Structural entailment `self |= other` (self is stronger): used for
    /// query-history subsumption (§3.3). With `strict_regions` (the
    /// fully-symbolic ablation) region comparison requires equality instead
    /// of the Equation (§) subset check.
    ///
    /// Conservative: may return `false` for semantically entailed queries,
    /// never `true` for non-entailed ones.
    pub fn entails(&self, other: &Query, strict_regions: bool) -> bool {
        // Histories are only consulted at points where no return binding is
        // pending; bail out conservatively otherwise.
        if self.ret_slot.is_some() || other.ret_slot.is_some() {
            return false;
        }
        let mut map: BTreeMap<SymId, SymId> = BTreeMap::new();
        let match_val =
            |q: &Query, map: &mut BTreeMap<SymId, SymId>, mine: Val, theirs: Val| -> bool {
                match (mine, theirs) {
                    (Val::Sym(a), Val::Sym(b)) => {
                        if let Some(&m) = map.get(&b) {
                            return m == a;
                        }
                        let ok = if strict_regions {
                            q.region(a) == other.region(b)
                        } else {
                            q.region(a).is_subset(other.region(b))
                        };
                        if ok {
                            map.insert(b, a);
                        }
                        ok
                    }
                    (Val::Null, Val::Null) => true,
                    (Val::Int(x), Val::Int(y)) => x == y,
                    _ => false,
                }
            };

        for (var, &theirs) in &other.locals {
            let Some(&mine) = self.locals.get(var) else { return false };
            if !match_val(self, &mut map, mine, theirs) {
                return false;
            }
        }
        for (g, &theirs) in &other.statics {
            let Some(&mine) = self.statics.get(g) else { return false };
            if !match_val(self, &mut map, mine, theirs) {
                return false;
            }
        }
        // Greedy cell matching with used-set (cells are few).
        let mut used = vec![false; self.heap.len()];
        for cell in &other.heap {
            let mut found = false;
            for (i, mine) in self.heap.iter().enumerate() {
                if used[i] || mine.field != cell.field {
                    continue;
                }
                let mut trial = map.clone();
                if !match_val(self, &mut trial, Val::Sym(mine.obj), Val::Sym(cell.obj)) {
                    continue;
                }
                if !match_val(self, &mut trial, mine.val, cell.val) {
                    continue;
                }
                match (&mine.idx, &cell.idx) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        if !match_val(self, &mut trial, *a, *b) {
                            continue;
                        }
                    }
                    _ => continue,
                }
                map = trial;
                used[i] = true;
                found = true;
                break;
            }
            if !found {
                return false;
            }
        }
        // Pure entailment on mapped atoms (sets built lazily: most queries
        // carry no pure atoms at subsumption points).
        if other.pure.is_empty() && other.path.is_empty() {
            return true;
        }
        let mine_all = self.all_pure();
        for atom in other.pure.atoms().iter().chain(other.path.atoms()) {
            let mut unmapped = false;
            let mapped = Atom {
                op: atom.op,
                lhs: atom.lhs.map_sym(|s| match map.get(&SymId(s)) {
                    Some(m) => m.0,
                    None => {
                        unmapped = true;
                        s
                    }
                }),
                rhs: atom.rhs.map_sym(|s| match map.get(&SymId(s)) {
                    Some(m) => m.0,
                    None => {
                        unmapped = true;
                        s
                    }
                }),
            };
            if unmapped || !mine_all.implies(&mapped) {
                return false;
            }
        }
        true
    }

    /// Renders the query for diagnostics, e.g.
    /// `x -> v0 * v0.f -> v1 . v0 from {3} . v1 from {5}`.
    pub fn describe(&self, program: &tir::Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let val = |v: &Val| match v {
            Val::Sym(s) => format!("{s}"),
            Val::Null => "null".to_owned(),
            Val::Int(i) => i.to_string(),
        };
        for (x, v) in &self.locals {
            let _ = write!(out, "{} -> {} * ", program.var(*x).name, val(v));
        }
        for (g, v) in &self.statics {
            let _ = write!(out, "${} -> {} * ", program.global(*g).name, val(v));
        }
        for c in &self.heap {
            match &c.idx {
                Some(i) => {
                    let _ = write!(
                        out,
                        "{}.{}[{}] -> {} * ",
                        c.obj,
                        program.field(c.field).name,
                        val(i),
                        val(&c.val)
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{}.{} -> {} * ",
                        c.obj,
                        program.field(c.field).name,
                        val(&c.val)
                    );
                }
            }
        }
        if out.ends_with(" * ") {
            out.truncate(out.len() - 3);
        }
        if out.is_empty() {
            out.push_str("any");
        }
        for (s, r) in &self.regions {
            match r {
                Region::Locs(set) => {
                    let _ = write!(out, " . {s} from {set:?}");
                }
                Region::Data => {
                    let _ = write!(out, " . {s} from data");
                }
            }
        }
        for a in self.pure.atoms().iter().chain(self.path.atoms()) {
            let _ = write!(out, " . {:?} {} {:?}", a.lhs, a.op.symbol(), a.rhs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::CmpOp;

    fn locs(bits: &[usize]) -> Region {
        Region::locs(bits.iter().copied().collect())
    }

    #[test]
    fn narrow_refutes_on_empty() {
        let mut q = Query::new();
        let s = q.fresh_sym(locs(&[1, 2]));
        assert!(q.narrow(s, &[2, 3].into_iter().collect()).is_ok());
        assert_eq!(q.narrow(s, &[4].into_iter().collect()), Err(Refuted::EmptyRegion));
    }

    #[test]
    fn unify_merges_regions() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1, 2]));
        let b = q.fresh_sym(locs(&[2, 3]));
        q.unify(Val::Sym(a), Val::Sym(b)).expect("unify");
        assert_eq!(q.region(a).as_locs().unwrap().iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn unify_disjoint_regions_refutes() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1]));
        let b = q.fresh_sym(locs(&[2]));
        assert_eq!(q.unify(Val::Sym(a), Val::Sym(b)), Err(Refuted::EmptyRegion));
    }

    #[test]
    fn unify_sym_with_null_refutes() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1]));
        assert_eq!(q.unify(Val::Sym(a), Val::Null), Err(Refuted::Separation));
    }

    #[test]
    fn unify_substitutes_in_heap_and_dedupes() {
        let mut q = Query::new();
        let o1 = q.fresh_sym(locs(&[1, 2]));
        let o2 = q.fresh_sym(locs(&[2, 3]));
        let v1 = q.fresh_sym(locs(&[5]));
        let v2 = q.fresh_sym(locs(&[5, 6]));
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o1, field: f, val: Val::Sym(v1), idx: None });
        q.heap.push(HeapCell { obj: o2, field: f, val: Val::Sym(v2), idx: None });
        // Unifying the owners forces the cell values to unify too.
        q.unify(Val::Sym(o1), Val::Sym(o2)).expect("unify");
        assert_eq!(q.heap.len(), 1);
        let cell = &q.heap[0];
        assert_eq!(q.region(cell.val.sym().unwrap()).as_locs().unwrap().len(), 1);
    }

    #[test]
    fn unify_separation_via_cell_values() {
        let mut q = Query::new();
        let o1 = q.fresh_sym(locs(&[1, 2]));
        let o2 = q.fresh_sym(locs(&[2, 3]));
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o1, field: f, val: Val::Null, idx: None });
        let v = q.fresh_sym(locs(&[5]));
        q.heap.push(HeapCell { obj: o2, field: f, val: Val::Sym(v), idx: None });
        // Same cell cannot hold both null and an instance.
        assert!(q.unify(Val::Sym(o1), Val::Sym(o2)).is_err());
    }

    #[test]
    fn array_cells_with_distinct_indices_coexist() {
        let mut q = Query::new();
        let o = q.fresh_sym(locs(&[1]));
        let i1 = q.fresh_sym(Region::Data);
        let i2 = q.fresh_sym(Region::Data);
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o, field: f, val: Val::Null, idx: Some(Val::Sym(i1)) });
        let v = q.fresh_sym(locs(&[5]));
        q.heap.push(HeapCell { obj: o, field: f, val: Val::Sym(v), idx: Some(Val::Sym(i2)) });
        assert!(q.dedupe_cells().is_ok());
        assert_eq!(q.heap.len(), 2);
    }

    #[test]
    fn int_unification_constrains_data_syms() {
        let mut q = Query::new();
        let s = q.fresh_sym(Region::Data);
        q.unify(Val::Sym(s), Val::Int(3)).expect("unify");
        assert!(q.pure_sat());
        assert_eq!(q.unify(Val::Sym(s), Val::Int(4)), Err(Refuted::Pure));
    }

    #[test]
    fn path_atom_cap_evicts_oldest() {
        let mut q = Query::new();
        let a = q.fresh_sym(Region::Data);
        let b = q.fresh_sym(Region::Data);
        let c = q.fresh_sym(Region::Data);
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(a.0), Term::int(0)), 2).unwrap();
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(b.0), Term::int(0)), 2).unwrap();
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(c.0), Term::int(0)), 2).unwrap();
        assert_eq!(q.path.len(), 2);
        // The oldest (about `a`) was dropped.
        assert!(q.path.atoms().iter().all(|at| at.syms().all(|s| s != a.0)));
    }

    #[test]
    fn entry_check_accepts_defaults_only() {
        let mut q = Query::new();
        assert!(q.check_at_entry().is_ok());
        q.locals.insert(VarId(0), Val::Null);
        q.locals.insert(VarId(1), Val::Int(0));
        assert!(q.check_at_entry().is_ok());
        let s = q.fresh_sym(locs(&[1]));
        q.locals.insert(VarId(2), Val::Sym(s));
        assert_eq!(q.check_at_entry(), Err(Refuted::Entry));
    }

    #[test]
    fn entry_check_rejects_heap() {
        let mut q = Query::new();
        let o = q.fresh_sym(locs(&[1]));
        q.heap.push(HeapCell { obj: o, field: FieldId(0), val: Val::Null, idx: None });
        assert_eq!(q.check_at_entry(), Err(Refuted::Entry));
    }

    #[test]
    fn gc_drops_unreachable_atoms() {
        let mut q = Query::new();
        let live = q.fresh_sym(locs(&[1]));
        q.locals.insert(VarId(0), Val::Sym(live));
        let dead = q.fresh_sym(Region::Data);
        let chained = q.fresh_sym(Region::Data);
        q.pure.add(CmpOp::Eq, Term::sym(dead.0), Term::sym(chained.0));
        q.gc();
        assert!(q.pure.is_empty());
        assert!(!q.regions.contains_key(&dead));
        assert!(q.regions.contains_key(&live));
    }

    #[test]
    fn gc_keeps_atom_chains_reaching_structure() {
        let mut q = Query::new();
        let live = q.fresh_sym(Region::Data);
        let o = q.fresh_sym(locs(&[1]));
        q.heap.push(HeapCell { obj: o, field: FieldId(0), val: Val::Sym(live), idx: None });
        let mid = q.fresh_sym(Region::Data);
        q.pure.add(CmpOp::Eq, Term::sym(live.0), Term::sym(mid.0));
        q.pure.add(CmpOp::Eq, Term::sym(mid.0), Term::int(5));
        q.gc();
        assert_eq!(q.pure.len(), 2);
    }

    #[test]
    fn entails_weaker_query() {
        // stronger: x -> v{1} * v.f -> u{5}; weaker: x -> v{1,2}
        let mut strong = Query::new();
        let v = strong.fresh_sym(locs(&[1]));
        let u = strong.fresh_sym(locs(&[5]));
        strong.locals.insert(VarId(0), Val::Sym(v));
        strong.heap.push(HeapCell { obj: v, field: FieldId(0), val: Val::Sym(u), idx: None });

        let mut weak = Query::new();
        let w = weak.fresh_sym(locs(&[1, 2]));
        weak.locals.insert(VarId(0), Val::Sym(w));

        assert!(strong.entails(&weak, false));
        assert!(!weak.entails(&strong, false));
        // Strict regions (fully symbolic): subset no longer suffices.
        assert!(!strong.entails(&weak, true));
    }

    #[test]
    fn entails_requires_matching_pure() {
        let mut a = Query::new();
        let s = a.fresh_sym(Region::Data);
        a.locals.insert(VarId(0), Val::Sym(s));
        a.pure.add(CmpOp::Eq, Term::sym(s.0), Term::int(3));

        let mut b = Query::new();
        let t = b.fresh_sym(Region::Data);
        b.locals.insert(VarId(0), Val::Sym(t));
        b.pure.add(CmpOp::Le, Term::sym(t.0), Term::int(5));

        assert!(a.entails(&b, false)); // s = 3 implies s <= 5
        assert!(!b.entails(&a, false));
    }

    #[test]
    fn describe_mentions_constraints() {
        let mut b = tir::ProgramBuilder::new();
        let main = b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", tir::Ty::Ref(mb.program_builder().object_class()));
            let _ = x;
            mb.ret_void();
        });
        b.set_entry(main);
        let p = b.finish();
        let mut q = Query::new();
        assert_eq!(q.describe(&p), "any");
        let v = q.fresh_sym(locs(&[1]));
        let x = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "x").unwrap();
        q.locals.insert(x, Val::Sym(v));
        let d = q.describe(&p);
        assert!(d.contains("x -> v0"), "{d}");
        assert!(d.contains("from"), "{d}");
    }
}
