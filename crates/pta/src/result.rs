//! The points-to analysis result consumed by clients and by the
//! witness-refutation engine.

use std::collections::HashMap;

use tir::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, Program, Ty, VarId};

use crate::bitset::BitSet;
use crate::loc::{LocId, LocTable};

/// A may points-to edge of the heap abstraction (a `⇒` edge of Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeapEdge {
    /// `global ⇒ target`
    Global {
        /// The source global.
        global: GlobalId,
        /// The pointed-to location.
        target: LocId,
    },
    /// `base.field ⇒ target`
    Field {
        /// The source object location.
        base: LocId,
        /// The traversed field.
        field: FieldId,
        /// The pointed-to location.
        target: LocId,
    },
}

impl HeapEdge {
    /// The destination location of the edge.
    pub fn target(&self) -> LocId {
        match self {
            HeapEdge::Global { target, .. } | HeapEdge::Field { target, .. } => *target,
        }
    }

    /// Renders the edge with human-readable location names.
    pub fn describe(&self, program: &Program, result: &PtaResult) -> String {
        match self {
            HeapEdge::Global { global, target } => {
                format!("{} => {}", program.global(*global).name, result.loc_name(program, *target))
            }
            HeapEdge::Field { base, field, target } => format!(
                "{}.{} => {}",
                result.loc_name(program, *base),
                program.field(*field).name,
                result.loc_name(program, *target)
            ),
        }
    }
}

/// The immutable output of [`crate::analyze`].
#[derive(Debug)]
pub struct PtaResult {
    locs: LocTable,
    var_pt: HashMap<VarId, BitSet>,
    global_pt: Vec<BitSet>,
    heap: HashMap<(LocId, FieldId), BitSet>,
    producers: HashMap<HeapEdge, Vec<CmdId>>,
    call_targets: HashMap<CmdId, Vec<MethodId>>,
    callers: HashMap<MethodId, Vec<CmdId>>,
    reached: BitSet,
    loc_class: Vec<ClassId>,
    alloc_locs: HashMap<AllocId, BitSet>,
    empty: BitSet,
}

impl PtaResult {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        locs: LocTable,
        var_pt: HashMap<VarId, BitSet>,
        global_pt: Vec<BitSet>,
        heap: HashMap<(LocId, FieldId), BitSet>,
        producers: HashMap<HeapEdge, Vec<CmdId>>,
        call_targets: HashMap<CmdId, Vec<MethodId>>,
        callers: HashMap<MethodId, Vec<CmdId>>,
        reached: BitSet,
        loc_class: Vec<ClassId>,
        alloc_locs: HashMap<AllocId, BitSet>,
    ) -> Self {
        PtaResult {
            locs,
            var_pt,
            global_pt,
            heap,
            producers,
            call_targets,
            callers,
            reached,
            loc_class,
            alloc_locs,
            empty: BitSet::new(),
        }
    }

    /// The abstract-location table.
    pub fn locs(&self) -> &LocTable {
        &self.locs
    }

    /// Total number of abstract locations.
    pub fn num_locs(&self) -> usize {
        self.locs.len()
    }

    /// Points-to set of a local variable, conflated over calling contexts
    /// (the `pt_Ĝ(x)` of the paper).
    pub fn pt_var(&self, v: VarId) -> &BitSet {
        self.var_pt.get(&v).unwrap_or(&self.empty)
    }

    /// Points-to set of a global.
    pub fn pt_global(&self, g: GlobalId) -> &BitSet {
        self.global_pt.get(g.index()).unwrap_or(&self.empty)
    }

    /// Points-to set of field `f` of location `base`.
    pub fn pt_field(&self, base: LocId, f: FieldId) -> &BitSet {
        self.heap.get(&(base, f)).unwrap_or(&self.empty)
    }

    /// Points-to set of `y.f` — union of `pt_field(l, f)` over `l ∈ pt(y)`
    /// (the `pt_Ĝ(y.f)` of the paper) — written into `out` (cleared first),
    /// so the search can reuse one allocation across transfers.
    pub fn pt_var_field_into(&self, y: VarId, f: FieldId, out: &mut BitSet) {
        out.clear();
        for l in self.pt_var(y).iter() {
            out.union_with(self.pt_field(LocId(l as u32), f));
        }
    }

    /// All heap field edges, as (base, field, targets) triples.
    pub fn heap_entries(&self) -> impl Iterator<Item = (LocId, FieldId, &BitSet)> {
        self.heap.iter().map(|(&(l, f), t)| (l, f, t))
    }

    /// Number of may points-to edges in the heap abstraction (including
    /// global edges).
    pub fn num_heap_edges(&self) -> usize {
        self.heap.values().map(BitSet::len).sum::<usize>()
            + self.global_pt.iter().map(BitSet::len).sum::<usize>()
    }

    /// Commands that may produce `edge` (the statements a witness search for
    /// that edge starts from).
    pub fn producers(&self, edge: &HeapEdge) -> &[CmdId] {
        self.producers.get(edge).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Possible callees of a call command, conflated over contexts.
    pub fn call_targets(&self, cmd: CmdId) -> &[MethodId] {
        self.call_targets.get(&cmd).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Call commands that may invoke `m`.
    pub fn callers(&self, m: MethodId) -> &[CmdId] {
        self.callers.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if `m` is reachable from the entry method.
    pub fn is_reached(&self, m: MethodId) -> bool {
        self.reached.contains(m.index())
    }

    /// The class of objects abstracted by `l`.
    pub fn class_of(&self, l: LocId) -> ClassId {
        self.loc_class[l.index()]
    }

    /// All locations whose class is `base` or a subclass of it.
    pub fn locs_of_class(&self, program: &Program, base: ClassId) -> BitSet {
        let mut out = BitSet::new();
        for l in self.locs.ids() {
            if program.is_subclass(self.class_of(l), base) {
                out.insert(l.index());
            }
        }
        out
    }

    /// All (possibly context-qualified) locations born at allocation site
    /// `a`.
    pub fn alloc_locs(&self, a: AllocId) -> &BitSet {
        self.alloc_locs.get(&a).unwrap_or(&self.empty)
    }

    /// Human-readable location name (e.g. `vec0.arr1`).
    pub fn loc_name(&self, program: &Program, l: LocId) -> String {
        self.locs.name(l, program)
    }

    /// Debug sanity check: every location in a variable's points-to set must
    /// be class-compatible with the variable's declared type.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on a type-incompatible points-to fact, which
    /// would indicate a solver bug.
    pub fn check_types(&self, program: &Program) {
        if cfg!(debug_assertions) {
            for (&v, pt) in &self.var_pt {
                let Ty::Ref(declared) = program.var(v).ty else { continue };
                for l in pt.iter() {
                    let class = self.class_of(LocId(l as u32));
                    debug_assert!(
                        program.is_subclass(class, declared)
                            || program.is_subclass(declared, class),
                        "points-to type mismatch: {} : {} ∋ {}",
                        program.var(v).name,
                        program.class(declared).name,
                        program.class(class).name,
                    );
                }
            }
        }
    }

    /// Renders the points-to graph in GraphViz dot format (globals as
    /// boxes, abstract locations as ellipses, labelled field edges) — the
    /// Figure 2 visualization.
    pub fn to_dot(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph points_to {\n  rankdir=LR;\n");
        for g in program.global_ids() {
            if self.pt_global(g).is_empty() {
                continue;
            }
            let _ = writeln!(out, "  \"${}\" [shape=box];", program.global(g).name);
            for t in self.pt_global(g).iter() {
                let _ = writeln!(
                    out,
                    "  \"${}\" -> \"{}\";",
                    program.global(g).name,
                    self.loc_name(program, LocId(t as u32))
                );
            }
        }
        let mut entries: Vec<_> = self.heap.iter().collect();
        entries.sort_by_key(|((l, f), _)| (l.index(), f.index()));
        for ((l, f), ts) in entries {
            for t in ts.iter() {
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\" [label=\"{}\"];",
                    self.loc_name(program, *l),
                    self.loc_name(program, LocId(t as u32)),
                    program.field(*f).name
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the whole points-to graph for debugging.
    pub fn dump(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for g in program.global_ids() {
            for t in self.pt_global(g).iter() {
                let _ = writeln!(
                    out,
                    "{} => {}",
                    program.global(g).name,
                    self.loc_name(program, LocId(t as u32))
                );
            }
        }
        let mut entries: Vec<_> = self.heap.iter().collect();
        entries.sort_by_key(|((l, f), _)| (l.index(), f.index()));
        for ((l, f), ts) in entries {
            for t in ts.iter() {
                let _ = writeln!(
                    out,
                    "{}.{} => {}",
                    self.loc_name(program, *l),
                    program.field(*f).name,
                    self.loc_name(program, LocId(t as u32))
                );
            }
        }
        out
    }
}

/// Serializes every client-observable part of a result into one canonical
/// string. Points-to sets arrive via [`PtaResult::dump`] (which renders
/// canonical location names in canonical numbering order); the call graph,
/// reached set, producer map, and allocation-site map are rendered by
/// iterating the *program* (ids are program-derived, not solver-derived).
/// Two equal results serialize identically no matter which fixpoint
/// strategy — or incremental edit history — produced them, which makes
/// this the byte-for-byte comparison key for differential and
/// incremental-oracle testing.
pub fn canonical_text(program: &Program, r: &PtaResult) -> String {
    let mut out = r.dump(program);
    for m in program.method_ids() {
        if r.is_reached(m) {
            out.push_str(&format!("reached {}\n", program.method_name(m)));
        }
        let callers = r.callers(m);
        if !callers.is_empty() {
            let ids: Vec<String> = callers.iter().map(|c| c.index().to_string()).collect();
            out.push_str(&format!("callers {} <- {}\n", program.method_name(m), ids.join(",")));
        }
        for cmd in program.method_cmds(m) {
            let targets = r.call_targets(cmd);
            if !targets.is_empty() {
                let names: Vec<String> = targets.iter().map(|&t| program.method_name(t)).collect();
                out.push_str(&format!("call {} -> {}\n", cmd.index(), names.join(",")));
            }
        }
    }
    let mut edges: Vec<HeapEdge> = Vec::new();
    for g in program.global_ids() {
        for t in r.pt_global(g).iter() {
            edges.push(HeapEdge::Global { global: g, target: LocId(t as u32) });
        }
    }
    let mut entries: Vec<_> = r.heap_entries().collect();
    entries.sort_by_key(|(l, f, _)| (l.index(), f.index()));
    for (base, field, targets) in entries {
        for t in targets.iter() {
            edges.push(HeapEdge::Field { base, field, target: LocId(t as u32) });
        }
    }
    edges.sort();
    for edge in edges {
        let prods: Vec<String> = r.producers(&edge).iter().map(|c| c.index().to_string()).collect();
        out.push_str(&format!("producers {} : {}\n", edge.describe(program, r), prods.join(",")));
    }
    for a in program.alloc_ids() {
        let locs: Vec<String> =
            r.alloc_locs(a).iter().map(|l| r.loc_name(program, LocId(l as u32))).collect();
        out.push_str(&format!("alloc {} : {}\n", program.alloc(a).name, locs.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze;
    use crate::context::ContextPolicy;

    #[test]
    fn to_dot_renders_nodes_and_edges() {
        let p = tir::parse(
            r#"
class Box { field item: Object; }
global ROOT: Box;
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = new Object @obj0;
  b.item = o;
  $ROOT = b;
}
entry main;
"#,
        )
        .expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let dot = r.to_dot(&p);
        assert!(dot.starts_with("digraph points_to {"), "{dot}");
        assert!(dot.contains("\"$ROOT\" -> \"box0\""), "{dot}");
        assert!(dot.contains("\"box0\" -> \"obj0\" [label=\"item\"]"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }
}
