//! Mixed symbolic-explicit queries (§2.1, §3.1).
//!
//! A [`Query`] is one conjunctive candidate witness: exact points-to
//! constraints on locals, globals, and heap cells (a bounded separation-logic
//! fragment — distinct cells are separated by `*`), `from` instance
//! constraints tying each symbolic value to a points-to region, and pure
//! integer constraints split into *internal* equalities and capped *path*
//! conditions.
//!
//! The search forks a query at every branch, call and field write, so a
//! query is kept flat: locals, statics and `from` regions are vectors
//! sorted by key (the iteration order of a `BTreeMap`), every region's
//! location set lives in one word pool owned by the query, and the witness
//! trace is a chunked persistent list whose full chunks are shared between
//! forks. A clone copies a handful of flat vectors and bumps one reference
//! count.
//!
//! The pure and path atoms sit behind methods that keep a
//! *known-satisfiable* bit. It is set when the decision procedure answers
//! `Ok(true)`, cleared when an atom is added or renamed, and kept when
//! atoms are only removed: the check is monotone, so a subset of a set
//! decided `Ok(true)` also decides `Ok(true)`. The solver therefore runs
//! only when an atom was added or renamed.

use std::sync::Arc;

use pta::BitSet;
use solver::{Atom, Term};
use tir::{CmdId, FieldId, GlobalId, VarId};

use crate::config::TRACE_CAP;
use crate::region::{LocSet, Region, RegionRef};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// A map kept as a vector sorted by key: a clone is one flat copy, and it
/// iterates in key order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap { entries: Vec::new() }
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(e, _)| e.cmp(k))
    }

    /// The value bound to `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.entries[i].1)
    }

    /// True if `k` is bound.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Binds `k` to `v`, returning the previous value.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// Unbinds `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|i| self.entries.remove(i).1)
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// The bindings in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keeps only the bindings satisfying `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Unbinds everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Commands per shared trace chunk.
const TRACE_CHUNK: usize = 16;

/// A full run of trace commands, linked to the older runs. Immutable once
/// built, so forks share it.
#[derive(Debug)]
struct TraceChunk {
    older: Option<Arc<TraceChunk>>,
    cmds: [CmdId; TRACE_CHUNK],
}

/// The witness trace as a chunked persistent list: full chunks are shared
/// between forks, and only the partly filled newest chunk is copied.
#[derive(Clone, Debug)]
struct Trace {
    full: Option<Arc<TraceChunk>>,
    tail: [CmdId; TRACE_CHUNK],
    tail_len: usize,
    len: usize,
}

impl Trace {
    fn new() -> Trace {
        Trace { full: None, tail: [CmdId(0); TRACE_CHUNK], tail_len: 0, len: 0 }
    }

    /// Appends `cmd` unless the trace already holds `TRACE_CAP` commands.
    fn push(&mut self, cmd: CmdId) {
        if self.len >= TRACE_CAP {
            return;
        }
        self.tail[self.tail_len] = cmd;
        self.tail_len += 1;
        self.len += 1;
        if self.tail_len == TRACE_CHUNK {
            self.full = Some(Arc::new(TraceChunk { older: self.full.take(), cmds: self.tail }));
            self.tail_len = 0;
        }
    }

    /// The commands in recording order.
    fn to_vec(&self) -> Vec<CmdId> {
        let mut out = vec![CmdId(0); self.len];
        let mut end = self.len - self.tail_len;
        out[end..].copy_from_slice(&self.tail[..self.tail_len]);
        let mut chunk = self.full.as_deref();
        while let Some(c) = chunk {
            out[end - TRACE_CHUNK..end].copy_from_slice(&c.cmds);
            end -= TRACE_CHUNK;
            chunk = c.older.as_deref();
        }
        out
    }
}

/// The `from` region of one symbolic value: `data`, or the location set
/// stored as `words[start..start + len]` of the query's word pool.
#[derive(Clone, Copy, Debug)]
struct Slot {
    sym: SymId,
    data: bool,
    start: usize,
    len: usize,
    /// Scratch flag of [`Query::gc`]; false outside it.
    mark: bool,
}

/// Cap on internal pure atoms; the oldest are evicted beyond it (a sound
/// weakening that keeps the solver's constraint graphs small).
const INTERNAL_PURE_CAP: usize = 32;

/// Upper bound on any path-atom cap, so a query never holds more than 64
/// atoms in all.
const PATH_CAP_LIMIT: usize = 32;

/// A conjunctive candidate witness (see the module-level documentation).
#[derive(Clone, Debug)]
pub struct Query {
    /// Exact points-to constraints on locals: `x ↦ v`.
    pub locals: FlatMap<VarId, Val>,
    /// Exact points-to constraints on globals: `$G ↦ v`.
    pub statics: FlatMap<GlobalId, Val>,
    /// Exact heap constraints, implicitly `*`-separated.
    pub heap: Vec<HeapCell>,
    /// `from` instance constraints, sorted by symbol. Symbols are created
    /// in increasing order and their words appended to `words`, so the
    /// slots' word ranges are increasing too.
    slots: Vec<Slot>,
    /// The word pool of the location regions.
    words: Vec<u64>,
    /// The internal pure atoms (`atoms[..n_pure]`), then the path
    /// conditions gathered from guards.
    atoms: Vec<Atom>,
    n_pure: usize,
    /// True when `atoms` is known to decide `Ok(true)`.
    known_sat: bool,
    /// Pending return-value constraint while entering a callee backwards:
    /// consumed by the callee's trailing `return` transfer.
    pub ret_slot: Option<Val>,
    next_sym: u32,
    /// Commands traversed by this path program, in the order traversed.
    trace: Trace,
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

impl Query {
    /// An empty query (the `any` memory — trivially witnessed).
    pub fn new() -> Query {
        Query {
            locals: FlatMap::default(),
            statics: FlatMap::default(),
            heap: Vec::new(),
            slots: Vec::new(),
            words: Vec::new(),
            atoms: Vec::new(),
            n_pure: 0,
            known_sat: true,
            ret_slot: None,
            next_sym: 0,
            trace: Trace::new(),
        }
    }

    /// Allocates a fresh symbolic value constrained to `region`.
    pub fn fresh_sym(&mut self, region: Region) -> SymId {
        match region {
            Region::Locs(set) => self.fresh_sym_in(&set),
            Region::Data => self.push_slot(true, self.words.len()),
        }
    }

    /// Allocates a fresh symbolic value drawn from `locs`.
    pub(crate) fn fresh_sym_in(&mut self, locs: &BitSet) -> SymId {
        let start = self.words.len();
        self.words.extend_from_slice(locs.words());
        self.push_slot(false, start)
    }

    fn push_slot(&mut self, data: bool, start: usize) -> SymId {
        let sym = SymId(self.next_sym);
        self.next_sym += 1;
        let len = self.words.len() - start;
        self.slots.push(Slot { sym, data, start, len, mark: false });
        sym
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
        self.retain_atoms(|_, a| a.syms().all(|s| s < mark));
    }

    fn slot_index(&self, s: SymId) -> Option<usize> {
        self.slots.binary_search_by(|slot| slot.sym.cmp(&s)).ok()
    }

    fn view(&self, slot: &Slot) -> RegionRef<'_> {
        if slot.data {
            RegionRef::Data
        } else {
            RegionRef::Locs(LocSet(&self.words[slot.start..slot.start + slot.len]))
        }
    }

    /// The `from` region of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is unknown to this query.
    pub fn region(&self, s: SymId) -> RegionRef<'_> {
        let i = self.slot_index(s).expect("unknown symbolic value");
        self.view(&self.slots[i])
    }

    /// All symbolic values with their regions, in symbol order.
    pub fn regions(&self) -> impl Iterator<Item = (SymId, RegionRef<'_>)> {
        self.slots.iter().map(|slot| (slot.sym, self.view(slot)))
    }

    /// Narrows the region of `s` by intersection with `locs`.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::EmptyRegion`] if the intersection is empty — the
    /// eager contradiction at the heart of the mixed representation (§2.2).
    pub fn narrow(&mut self, s: SymId, locs: &BitSet) -> Result<(), Refuted> {
        let slot = self.slots[self.slot_index(s).expect("unknown symbolic value")];
        if slot.data {
            return Err(Refuted::EmptyRegion);
        }
        let cur = &mut self.words[slot.start..slot.start + slot.len];
        let other = |k: usize| locs.words().get(k).copied().unwrap_or(0);
        if cur.iter().enumerate().all(|(k, &w)| w & other(k) == 0) {
            return Err(Refuted::EmptyRegion);
        }
        for (k, w) in cur.iter_mut().enumerate() {
            *w &= other(k);
        }
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
            // A symbolic value denotes a concrete instance or integer —
            // never null.
            (Val::Sym(_), Val::Null) | (Val::Null, Val::Sym(_)) => Err(Refuted::Separation),
            (Val::Sym(s), Val::Int(c)) | (Val::Int(c), Val::Sym(s)) => {
                if let RegionRef::Locs(_) = self.region(s) {
                    return Err(Refuted::EmptyRegion);
                }
                self.add_pure(tir::CmpOp::Eq, Term::sym(s.0), Term::int(c))
            }
            (Val::Sym(s1), Val::Sym(s2)) => {
                if s1 == s2 {
                    return Ok(());
                }
                let (rep, gone) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                let g = self.slots.remove(self.slot_index(gone).expect("unknown symbolic value"));
                let r = self.slots[self.slot_index(rep).expect("unknown symbolic value")];
                match (r.data, g.data) {
                    (true, true) => {}
                    (false, false) => {
                        let mut any = false;
                        for k in 0..r.len {
                            let gw = if k < g.len { self.words[g.start + k] } else { 0 };
                            let w = &mut self.words[r.start + k];
                            *w &= gw;
                            any |= *w != 0;
                        }
                        if !any {
                            return Err(Refuted::EmptyRegion);
                        }
                    }
                    _ => return Err(Refuted::EmptyRegion),
                }
                self.substitute(gone, rep)
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
        if self.atoms.iter().any(|a| a.syms().any(|s| s == gone.0)) {
            let rename = |s: u32| if s == gone.0 { rep.0 } else { s };
            for a in &mut self.atoms {
                a.lhs = a.lhs.map_sym(rename);
                a.rhs = a.rhs.map_sym(rename);
            }
            self.dedup_atoms();
            self.known_sat = false;
        }
        self.check_sat()?;
        self.dedupe_cells()
    }

    /// Drops repeated atoms within the pure and within the path atoms,
    /// keeping first occurrences (renaming can make two atoms equal).
    fn dedup_atoms(&mut self) {
        let mut i = 1;
        while i < self.atoms.len() {
            let lo = if i < self.n_pure { 0 } else { self.n_pure };
            if self.atoms[lo..i].contains(&self.atoms[i]) {
                self.atoms.remove(i);
                if i < self.n_pure {
                    self.n_pure -= 1;
                }
            } else {
                i += 1;
            }
        }
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

    /// The internal pure atoms (value equalities, index relations).
    pub fn pure(&self) -> &[Atom] {
        &self.atoms[..self.n_pure]
    }

    /// The path conditions gathered from guards.
    pub fn path(&self) -> &[Atom] {
        &self.atoms[self.n_pure..]
    }

    /// Drops every path condition (a sound weakening).
    pub fn clear_path(&mut self) {
        self.atoms.truncate(self.n_pure);
    }

    /// Keeps the atoms for which `keep(index, atom)` holds. Removing atoms
    /// keeps a known-satisfiable set satisfiable.
    fn retain_atoms(&mut self, mut keep: impl FnMut(usize, &Atom) -> bool) {
        let (mut kept, mut kept_pure) = (0, 0);
        for i in 0..self.atoms.len() {
            if keep(i, &self.atoms[i]) {
                self.atoms.swap(kept, i);
                kept += 1;
                if i < self.n_pure {
                    kept_pure += 1;
                }
            }
        }
        self.atoms.truncate(kept);
        self.n_pure = kept_pure;
    }

    /// Runs the solver unless the atoms are known satisfiable.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the atoms are unsatisfiable. A solver
    /// failure counts as satisfiable (refutation-sound) but leaves the set
    /// unknown.
    fn check_sat(&mut self) -> Result<(), Refuted> {
        if self.known_sat {
            return Ok(());
        }
        match solver::try_is_sat_slice(&self.atoms) {
            Ok(true) => {
                self.known_sat = true;
                Ok(())
            }
            Ok(false) => Err(Refuted::Pure),
            Err(_) => Ok(()),
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
    /// A set known to be satisfiable is answered without a solver run.
    pub fn try_pure_sat(&self) -> Result<bool, solver::SolverError> {
        if self.known_sat {
            return Ok(true);
        }
        solver::try_is_sat_slice(&self.atoms)
    }

    /// Adds an internal pure atom (value equality, index relation),
    /// evicting the oldest atoms beyond a fixed cap — a sound weakening
    /// that keeps the solver's constraint graphs small.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_pure(&mut self, op: tir::CmpOp, lhs: Term, rhs: Term) -> Result<(), Refuted> {
        let atom = Atom { op, lhs, rhs };
        if !self.pure().contains(&atom) {
            self.atoms.insert(self.n_pure, atom);
            self.n_pure += 1;
            if self.n_pure > INTERNAL_PURE_CAP {
                self.atoms.remove(0);
                self.n_pure -= 1;
            }
            self.known_sat = false;
        }
        self.check_sat()
    }

    /// Adds a path-condition atom, evicting atoms beyond `cap` (a sound
    /// weakening; §4 caps the set at two, and no cap exceeds 32). Eviction
    /// prefers atoms whose symbols are not tied to any heap or static
    /// constraint — transient guard conditions — keeping memory-anchored
    /// conditions like the `sz < cap` constraint of Figure 1 alive longest.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_path_atom(&mut self, atom: Atom, cap: usize) -> Result<(), Refuted> {
        let cap = cap.min(PATH_CAP_LIMIT);
        if !self.path().contains(&atom) {
            self.atoms.push(atom);
            self.known_sat = false;
        }
        while self.path().len() > cap {
            // Never evict the just-added atom (its symbols become anchored
            // only once the reads feeding the guard are processed).
            let path = self.path();
            let victim = path[..path.len() - 1]
                .iter()
                .position(|a| a.syms().all(|s| !self.anchored(s)))
                .unwrap_or(0);
            self.atoms.remove(self.n_pure + victim);
        }
        self.check_sat()
    }

    /// True if symbol `s` occurs in a heap or static constraint.
    fn anchored(&self, s: u32) -> bool {
        let hit = |v: &Val| matches!(v, Val::Sym(x) if x.0 == s);
        self.heap.iter().any(|c| c.obj.0 == s || hit(&c.val) || c.idx.as_ref().is_some_and(hit))
            || self.statics.values().any(hit)
    }

    /// Record a traversed command in the path-program trace (at most
    /// `TRACE_CAP` commands are kept).
    pub fn record(&mut self, cmd: CmdId) {
        self.trace.push(cmd);
    }

    /// The recorded trace, in the order the commands were traversed.
    pub fn trace(&self) -> Vec<CmdId> {
        self.trace.to_vec()
    }

    /// Drops the newest heap cells beyond `cap` (a sound weakening: the
    /// remaining query describes more states, never fewer).
    pub fn truncate_heap(&mut self, cap: usize) {
        self.heap.truncate(cap);
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
        let mut zeros: Vec<Atom> = Vec::new();
        for v in self.locals.values().chain(self.statics.values()) {
            match v {
                Val::Null | Val::Int(0) => {}
                Val::Int(_) => return Err(Refuted::Entry),
                Val::Sym(s) => match self.slot_index(*s).map(|i| self.slots[i].data) {
                    Some(true) => {
                        let zero = Atom::new(tir::CmpOp::Eq, Term::sym(s.0), Term::int(0));
                        if !self.atoms.contains(&zero) && !zeros.contains(&zero) {
                            zeros.push(zero);
                        }
                    }
                    _ => return Err(Refuted::Entry),
                },
            }
        }
        if zeros.is_empty() && self.known_sat {
            return Ok(());
        }
        let mut all = self.atoms.clone();
        all.extend(zeros);
        if !solver::try_is_sat_slice(&all).unwrap_or(true) {
            return Err(Refuted::Entry);
        }
        Ok(())
    }

    /// Drops pure/path atoms that mention no symbolic value reachable from
    /// the structural constraints (a sound weakening that keeps queries
    /// comparable), and garbage-collects unused regions.
    pub fn gc(&mut self) {
        let n = self.atoms.len();
        debug_assert!(n <= 64, "the atom caps bound a query to 64 atoms");
        let bit = |i: usize| 1u64 << i;
        // Structural symbols — those of locals, the pending return, statics
        // and heap cells — are flagged on their region slots.
        self.mark_structural();
        let is_structural =
            |q: &Query, s: u32| q.slot_index(SymId(s)).is_some_and(|i| q.slots[i].mark);
        // Close over atoms: an atom linking a structural symbol, or a
        // symbol of an atom kept this way, is kept.
        let mut live: u64 = 0;
        loop {
            let mut changed = false;
            for i in 0..n {
                if live & bit(i) != 0 {
                    continue;
                }
                let reaches = self.atoms[i].syms().any(|s| {
                    is_structural(self, s)
                        || (0..n)
                            .any(|j| live & bit(j) != 0 && self.atoms[j].syms().any(|t| t == s))
                });
                if reaches {
                    live |= bit(i);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.retain_atoms(|i, a| a.syms().next().is_none() || live & bit(i) != 0);

        // Vacuous-definition elimination: an atom containing a symbol that
        // is not structural and occurs in no other atom is existentially
        // trivial (the symbol can always be chosen to satisfy it — the
        // integers are unbounded), so it constrains nothing. Dropping it is
        // a no-loss weakening that keeps queries canonical for subsumption.
        loop {
            let occurrences =
                |s: u32| self.atoms.iter().flat_map(|a| a.syms()).filter(|&t| t == s).count();
            let mut vacuous: u64 = 0;
            for (i, a) in self.atoms.iter().enumerate() {
                if a.syms().any(|s| !is_structural(self, s) && occurrences(s) == 1) {
                    vacuous |= bit(i);
                }
            }
            if vacuous == 0 {
                break;
            }
            self.retain_atoms(|i, _| vacuous & bit(i) == 0);
        }

        // Keep the regions of structural symbols and of symbols an atom
        // still mentions, then compact the word pool.
        let atoms = &self.atoms;
        self.slots
            .retain(|slot| slot.mark || atoms.iter().any(|a| a.syms().any(|s| s == slot.sym.0)));
        let mut end = 0;
        for slot in &mut self.slots {
            slot.mark = false;
            if !slot.data {
                let (start, len) = (slot.start, slot.len);
                self.words.copy_within(start..start + len, end);
                slot.start = end;
                end += len;
            }
        }
        self.words.truncate(end);
    }

    /// Sets the `mark` flag on the slot of every structural symbol.
    fn mark_structural(&mut self) {
        let flag = |slots: &mut Vec<Slot>, v: Val| {
            if let Val::Sym(s) = v {
                if let Ok(i) = slots.binary_search_by(|slot| slot.sym.cmp(&s)) {
                    slots[i].mark = true;
                }
            }
        };
        for &v in self.locals.values().chain(self.ret_slot.iter()).chain(self.statics.values()) {
            flag(&mut self.slots, v);
        }
        for c in &self.heap {
            flag(&mut self.slots, Val::Sym(c.obj));
            flag(&mut self.slots, c.val);
            if let Some(i) = c.idx {
                flag(&mut self.slots, i);
            }
        }
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
            && self.slots.len() == other.slots.len()
            && self.regions().zip(other.regions()).all(|(a, b)| a == b)
            && self.n_pure == other.n_pure
            && self.atoms == other.atoms
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
        // pending; bail out conservatively otherwise. Cell matching tracks
        // used cells in one word; the heap-cell cap keeps queries far below.
        if self.ret_slot.is_some() || other.ret_slot.is_some() || self.heap.len() > 64 {
            return false;
        }
        // Their symbol -> my symbol. Matching only ever extends the map, so
        // a failed cell trial is undone by truncation.
        let mut map: Vec<(SymId, SymId)> = Vec::new();
        let match_val = |map: &mut Vec<(SymId, SymId)>, mine: Val, theirs: Val| -> bool {
            match (mine, theirs) {
                (Val::Sym(a), Val::Sym(b)) => {
                    if let Some(&(_, m)) = map.iter().find(|(t, _)| *t == b) {
                        return m == a;
                    }
                    let ok = if strict_regions {
                        self.region(a) == other.region(b)
                    } else {
                        self.region(a).is_subset(other.region(b))
                    };
                    if ok {
                        map.push((b, a));
                    }
                    ok
                }
                (Val::Null, Val::Null) => true,
                (Val::Int(x), Val::Int(y)) => x == y,
                _ => false,
            }
        };

        for (var, &theirs) in other.locals.iter() {
            let Some(&mine) = self.locals.get(var) else { return false };
            if !match_val(&mut map, mine, theirs) {
                return false;
            }
        }
        for (g, &theirs) in other.statics.iter() {
            let Some(&mine) = self.statics.get(g) else { return false };
            if !match_val(&mut map, mine, theirs) {
                return false;
            }
        }
        // Greedy cell matching with a used set (cells are few).
        let mut used: u64 = 0;
        for cell in &other.heap {
            let mut found = false;
            for (i, mine) in self.heap.iter().enumerate() {
                if used & (1 << i) != 0 || mine.field != cell.field {
                    continue;
                }
                let trial = map.len();
                let ok = match_val(&mut map, Val::Sym(mine.obj), Val::Sym(cell.obj))
                    && match_val(&mut map, mine.val, cell.val)
                    && match (&mine.idx, &cell.idx) {
                        (None, None) => true,
                        (Some(a), Some(b)) => match_val(&mut map, *a, *b),
                        _ => false,
                    };
                if !ok {
                    map.truncate(trial);
                    continue;
                }
                used |= 1 << i;
                found = true;
                break;
            }
            if !found {
                return false;
            }
        }
        // Pure entailment on mapped atoms.
        for atom in &other.atoms {
            let mut unmapped = false;
            let mut lookup = |s: u32| match map.iter().find(|(t, _)| t.0 == s) {
                Some(&(_, m)) => m.0,
                None => {
                    unmapped = true;
                    s
                }
            };
            let mapped = Atom {
                op: atom.op,
                lhs: atom.lhs.map_sym(&mut lookup),
                rhs: atom.rhs.map_sym(&mut lookup),
            };
            if unmapped || !solver::try_implies_slice(&self.atoms, &mapped).unwrap_or(false) {
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
        for (x, v) in self.locals.iter() {
            let _ = write!(out, "{} -> {} * ", program.var(*x).name, val(v));
        }
        for (g, v) in self.statics.iter() {
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
        for (s, r) in self.regions() {
            match r {
                RegionRef::Locs(set) => {
                    let _ = write!(out, " . {s} from {set:?}");
                }
                RegionRef::Data => {
                    let _ = write!(out, " . {s} from data");
                }
            }
        }
        for a in &self.atoms {
            let _ = write!(out, " . {:?} {} {:?}", a.lhs, a.op.symbol(), a.rhs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_PATH_ATOMS;
    use solver::ConstraintSet;
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
        assert_eq!(q.path().len(), 2);
        // The oldest (about `a`) was dropped.
        assert!(q.path().iter().all(|at| at.syms().all(|s| s != a.0)));
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
        q.add_pure(CmpOp::Eq, Term::sym(dead.0), Term::sym(chained.0)).unwrap();
        q.gc();
        assert!(q.pure().is_empty());
        assert!(q.regions().all(|(s, _)| s != dead));
        assert!(q.regions().any(|(s, _)| s == live));
    }

    #[test]
    fn gc_keeps_atom_chains_reaching_structure() {
        let mut q = Query::new();
        let live = q.fresh_sym(Region::Data);
        let o = q.fresh_sym(locs(&[1]));
        q.heap.push(HeapCell { obj: o, field: FieldId(0), val: Val::Sym(live), idx: None });
        let mid = q.fresh_sym(Region::Data);
        q.add_pure(CmpOp::Eq, Term::sym(live.0), Term::sym(mid.0)).unwrap();
        q.add_pure(CmpOp::Eq, Term::sym(mid.0), Term::int(5)).unwrap();
        q.gc();
        assert_eq!(q.pure().len(), 2);
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
        a.add_pure(CmpOp::Eq, Term::sym(s.0), Term::int(3)).unwrap();

        let mut b = Query::new();
        let t = b.fresh_sym(Region::Data);
        b.locals.insert(VarId(0), Val::Sym(t));
        b.add_pure(CmpOp::Le, Term::sym(t.0), Term::int(5)).unwrap();

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

    /// Runs `f` and returns how many decision-procedure runs it made.
    fn solver_runs(f: impl FnOnce()) -> u64 {
        let ((), delta) = obs::capture(f);
        delta.counter(obs::Counter::SolverCalls)
    }

    #[test]
    fn unification_runs_the_solver_only_when_it_renames_an_atom() {
        let _serial = obs::test_lock();
        // `obs::capture` only buffers while a recorder is installed.
        obs::MemRecorder::install_static(obs::RingCapacity::default());
        let mut q = Query::new();
        let a = q.fresh_sym(Region::Data);
        let b = q.fresh_sym(Region::Data);
        let c = q.fresh_sym(Region::Data);
        let d = q.fresh_sym(Region::Data);
        let added = solver_runs(|| q.add_pure(CmpOp::Lt, Term::sym(a.0), Term::sym(d.0)).unwrap());
        assert_eq!(added, 1, "an added atom is decided");
        // No atom mentions `c`, the value unification renames away.
        assert_eq!(solver_runs(|| q.unify(Val::Sym(b), Val::Sym(c)).unwrap()), 0);
        // `d` becomes `b` in `a < d`: the renamed set is decided again.
        assert_eq!(solver_runs(|| q.unify(Val::Sym(b), Val::Sym(d)).unwrap()), 1);
        assert_eq!(q.pure(), [Atom::new(CmpOp::Lt, Term::sym(a.0), Term::sym(b.0))]);
        obs::uninstall();
    }

    /// A term over the query's data symbols, now and then with an offset
    /// large enough to overflow the solver's normalization.
    fn arb_term(rng: &mut minicheck::Rng, data: &[SymId]) -> Term {
        let sym = |rng: &mut minicheck::Rng| data[rng.below(data.len())].0;
        match rng.below(8) {
            0 | 1 if !data.is_empty() => Term::sym(sym(rng)),
            2 | 3 if !data.is_empty() => Term::sym_plus(sym(rng), rng.i64_in(-2, 2)),
            4 if !data.is_empty() => Term::sym_plus(sym(rng), i64::MAX - rng.i64_in(0, 1)),
            5 => Term::int(i64::MIN),
            _ => Term::int(rng.i64_in(-3, 3)),
        }
    }

    /// Random sequences of atom additions, unifications, weakenings and
    /// forks: whenever the query would skip the solver, a fresh decision of
    /// its pure and path atoms answers `Ok(true)`.
    #[test]
    fn known_satisfiable_bit_is_exact() {
        const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        minicheck::run_cases(500, |rng| {
            let mut q = Query::new();
            // Two structural values (bound to locals) and three free ones.
            for v in 0..5u32 {
                let s = q.fresh_sym(Region::Data);
                if v < 2 {
                    q.locals.insert(VarId(v), Val::Sym(s));
                }
            }
            for _ in 0..40 {
                let data: Vec<SymId> =
                    q.regions().filter(|(_, r)| *r == RegionRef::Data).map(|(s, _)| s).collect();
                let op = OPS[rng.below(OPS.len())];
                let alive = match rng.below(7) {
                    0 | 1 => {
                        let (l, r) = (arb_term(rng, &data), arb_term(rng, &data));
                        q.add_pure(op, l, r).is_ok()
                    }
                    2 => {
                        let atom = Atom::new(op, arb_term(rng, &data), arb_term(rng, &data));
                        q.add_path_atom(atom, MAX_PATH_ATOMS).is_ok()
                    }
                    3 if !data.is_empty() => {
                        let a = data[rng.below(data.len())];
                        let b = if rng.bool() {
                            Val::Sym(data[rng.below(data.len())])
                        } else {
                            Val::Int(rng.i64_in(-3, 3))
                        };
                        q.unify(Val::Sym(a), b).is_ok()
                    }
                    4 => {
                        q.gc();
                        true
                    }
                    5 => {
                        q.drop_atoms_since(rng.below(q.sym_mark() as usize + 1) as u32);
                        true
                    }
                    _ => {
                        q = q.clone();
                        true
                    }
                };
                if !alive {
                    break;
                }
                if q.known_sat {
                    let all: ConstraintSet = q.pure().iter().chain(q.path()).copied().collect();
                    assert_eq!(all.try_is_sat(), Ok(true), "skipped solver on {:?}", q.atoms);
                }
            }
        });
    }
}
