//! Transitive mod/ref analysis over the call graph.
//!
//! Used by the symbolic engine to (a) skip calls that cannot affect the
//! current query (frame rule) and (b) soundly drop query constraints when a
//! callee beyond the call-stack bound is skipped (§4: "we soundly skipped
//! callees by dropping constraints that executing the call might produce").
//!
//! [`ModRef::compute`] scans every method's own commands once, then closes
//! the summaries over the call graph. After a program edit the caller
//! computes them afresh (DESIGN.md §17 has the measurement that retired a
//! per-method incremental layer).

use std::collections::HashMap;

use tir::{Command, FieldId, MethodId, Program};

use crate::bitset::BitSet;
use crate::result::PtaResult;

/// Per-method summaries of fields/globals that may be written or read,
/// including transitive callees.
#[derive(Clone, Debug)]
pub struct ModRef {
    mod_fields: Vec<BitSet>,
    mod_globals: Vec<BitSet>,
    ref_fields: Vec<BitSet>,
    ref_globals: Vec<BitSet>,
    /// Location-sensitive write summaries: for each method and field, the
    /// abstract locations whose cells the method may write.
    mod_cells: Vec<HashMap<FieldId, BitSet>>,
    /// Whether the method allocates.
    allocates: Vec<bool>,
}

impl ModRef {
    /// Computes mod/ref summaries for every method of `program`, using the
    /// call graph from `pta`.
    pub fn compute(program: &Program, pta: &PtaResult) -> ModRef {
        let n = program.method_ids().count();
        let mut mr = ModRef {
            mod_fields: vec![BitSet::new(); n],
            mod_globals: vec![BitSet::new(); n],
            ref_fields: vec![BitSet::new(); n],
            ref_globals: vec![BitSet::new(); n],
            mod_cells: vec![HashMap::new(); n],
            allocates: vec![false; n],
        };
        for m in program.method_ids() {
            mr.scan_direct(program, pta, m);
        }
        mr.close_over_calls(program, pta);
        mr
    }

    /// One linear scan of `m`'s own commands.
    fn scan_direct(&mut self, program: &Program, pta: &PtaResult, m: MethodId) {
        let i = m.index();
        for c in program.method_cmds(m) {
            match program.cmd(c) {
                Command::WriteField { obj, field, .. } => {
                    self.mod_fields[i].insert(field.index());
                    self.mod_cells[i].entry(*field).or_default().union_with(pta.pt_var(*obj));
                }
                Command::WriteArray { arr, .. } => {
                    self.mod_fields[i].insert(program.contents_field.index());
                    self.mod_cells[i]
                        .entry(program.contents_field)
                        .or_default()
                        .union_with(pta.pt_var(*arr));
                }
                Command::WriteGlobal { global, .. } => {
                    self.mod_globals[i].insert(global.index());
                }
                Command::ReadField { field, .. } => {
                    self.ref_fields[i].insert(field.index());
                }
                Command::ReadArray { .. } => {
                    self.ref_fields[i].insert(program.contents_field.index());
                }
                Command::ArrayLen { .. } => {
                    self.ref_fields[i].insert(program.len_field.index());
                }
                Command::ReadGlobal { global, .. } => {
                    self.ref_globals[i].insert(global.index());
                }
                Command::New { .. } => {
                    self.allocates[i] = true;
                }
                Command::NewArray { .. } => {
                    self.allocates[i] = true;
                    // Array allocation initializes `len`.
                    self.mod_fields[i].insert(program.len_field.index());
                }
                _ => {}
            }
        }
    }

    /// Closes the direct effects over the call graph (iterate to fixpoint;
    /// the graph is small).
    fn close_over_calls(&mut self, program: &Program, pta: &PtaResult) {
        let mut changed = true;
        while changed {
            changed = false;
            for m in program.method_ids() {
                for c in program.method_cmds(m) {
                    for &callee in pta.call_targets(c) {
                        if callee == m {
                            continue;
                        }
                        let (cf, cg, rf, rg, cc, al) = (
                            self.mod_fields[callee.index()].clone(),
                            self.mod_globals[callee.index()].clone(),
                            self.ref_fields[callee.index()].clone(),
                            self.ref_globals[callee.index()].clone(),
                            self.mod_cells[callee.index()].clone(),
                            self.allocates[callee.index()],
                        );
                        changed |= self.mod_fields[m.index()].union_with(&cf);
                        changed |= self.mod_globals[m.index()].union_with(&cg);
                        changed |= self.ref_fields[m.index()].union_with(&rf);
                        changed |= self.ref_globals[m.index()].union_with(&rg);
                        for (f, locs) in cc {
                            changed |=
                                self.mod_cells[m.index()].entry(f).or_default().union_with(&locs);
                        }
                        if al && !self.allocates[m.index()] {
                            self.allocates[m.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    /// Fields (by index) that `m` may transitively write.
    pub fn mod_fields(&self, m: MethodId) -> &BitSet {
        &self.mod_fields[m.index()]
    }

    /// Locations whose `field` cells `m` may transitively write.
    pub fn mod_cell_locs(&self, m: MethodId, field: FieldId) -> Option<&BitSet> {
        self.mod_cells[m.index()].get(&field)
    }

    /// True if `m` may write `field` of an object abstracted by a location
    /// in `locs`.
    pub fn may_write_cell(&self, m: MethodId, field: FieldId, locs: &BitSet) -> bool {
        self.mod_cell_locs(m, field).map(|w| !w.is_disjoint(locs)).unwrap_or(false)
    }

    /// Suppress the `field`-cell summary locations in `blocked` for every
    /// method (used to mirror empty-contents annotations).
    pub fn block_cells(&mut self, field: FieldId, blocked: &BitSet) {
        for per in &mut self.mod_cells {
            if let Some(locs) = per.get_mut(&field) {
                locs.subtract(blocked);
            }
        }
    }

    /// Globals (by index) that `m` may transitively write.
    pub fn mod_globals(&self, m: MethodId) -> &BitSet {
        &self.mod_globals[m.index()]
    }

    /// Fields (by index) that `m` may transitively read.
    pub fn ref_fields(&self, m: MethodId) -> &BitSet {
        &self.ref_fields[m.index()]
    }

    /// Globals (by index) that `m` may transitively read.
    pub fn ref_globals(&self, m: MethodId) -> &BitSet {
        &self.ref_globals[m.index()]
    }

    /// True if `m` may transitively allocate.
    pub fn allocates(&self, m: MethodId) -> bool {
        self.allocates[m.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::context::ContextPolicy;
    use tir::parse;

    #[test]
    fn direct_and_transitive_mods() {
        let p = parse(
            r#"
class Box { field item: Object; field other: Object; }
global G: Object;
fn leaf(b: Box, o: Object) {
  b.item = o;
}
fn mid(b: Box, o: Object) {
  call leaf(b, o);
}
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = new Object @obj0;
  call mid(b, o);
  $G = o;
}
entry main;
"#,
        )
        .expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let mr = ModRef::compute(&p, &r);
        let box_cls = p.class_by_name("Box").unwrap();
        let item = p.resolve_field(box_cls, "item").unwrap();
        let other = p.resolve_field(box_cls, "other").unwrap();
        let g = p.global_by_name("G").unwrap();

        let leaf = p.free_function("leaf").unwrap();
        let mid = p.free_function("mid").unwrap();
        let main = p.entry();

        assert!(mr.mod_fields(leaf).contains(item.index()));
        assert!(!mr.mod_fields(leaf).contains(other.index()));
        // Transitive: mid inherits leaf's mods.
        assert!(mr.mod_fields(mid).contains(item.index()));
        assert!(!mr.allocates(mid));
        assert!(mr.allocates(main));
        assert!(mr.mod_globals(main).contains(g.index()));
        assert!(!mr.mod_globals(mid).contains(g.index()));
    }

    #[test]
    fn refs_tracked_separately() {
        let p = parse(
            r#"
class Box { field item: Object; }
fn reader(b: Box): Object {
  var o: Object;
  o = b.item;
  return o;
}
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = call reader(b);
}
entry main;
"#,
        )
        .expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let mr = ModRef::compute(&p, &r);
        let box_cls = p.class_by_name("Box").unwrap();
        let item = p.resolve_field(box_cls, "item").unwrap();
        let reader = p.free_function("reader").unwrap();
        assert!(mr.ref_fields(reader).contains(item.index()));
        assert!(mr.mod_fields(reader).is_empty());
    }

    #[test]
    fn recursion_terminates() {
        let p = parse(
            r#"
global G: Object;
fn rec(o: Object) {
  $G = o;
  call rec(o);
}
fn main() {
  var o: Object;
  o = new Object @o0;
  call rec(o);
}
entry main;
"#,
        )
        .expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let mr = ModRef::compute(&p, &r);
        let rec = p.free_function("rec").unwrap();
        let g = p.global_by_name("G").unwrap();
        assert!(mr.mod_globals(rec).contains(g.index()));
    }
}
