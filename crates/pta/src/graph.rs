//! A mutable view over the points-to graph supporting edge deletion and
//! heap-path search.
//!
//! The refutation loop of the leak client works on this view: when the
//! symbolic engine refutes an edge, the edge is deleted here and the client
//! re-searches for an alternative path from the source global to the target
//! location (§2 "Formulate Queries").

use std::collections::{HashMap, HashSet, VecDeque};

use tir::{FieldId, GlobalId, Program};

use crate::bitset::BitSet;
use crate::loc::LocId;
use crate::result::{HeapEdge, PtaResult};

/// A deletion overlay over a [`PtaResult`]'s heap graph.
#[derive(Debug)]
pub struct HeapGraphView<'a> {
    result: &'a PtaResult,
    deleted: HashSet<HeapEdge>,
}

impl<'a> HeapGraphView<'a> {
    /// Creates a view with no deletions.
    pub fn new(result: &'a PtaResult) -> Self {
        HeapGraphView { result, deleted: HashSet::new() }
    }

    /// The underlying analysis result.
    pub fn result(&self) -> &'a PtaResult {
        self.result
    }

    /// Marks `edge` as refuted/deleted.
    pub fn delete(&mut self, edge: HeapEdge) {
        self.deleted.insert(edge);
    }

    /// True if `edge` has been deleted.
    pub fn is_deleted(&self, edge: &HeapEdge) -> bool {
        self.deleted.contains(edge)
    }

    /// Number of deleted edges.
    pub fn num_deleted(&self) -> usize {
        self.deleted.len()
    }

    /// Finds a shortest path of surviving edges from `global` to any
    /// location in `targets`, as a sequence of edges source-to-sink.
    pub fn find_path(
        &self,
        program: &Program,
        global: GlobalId,
        targets: &BitSet,
    ) -> Option<Vec<HeapEdge>> {
        let _ = program;
        // Successor index in canonical (base, field) order: the underlying
        // heap map iterates in hash order, which varies across processes, and
        // the BFS tie-break (which shortest path wins) must not.
        let mut succ: HashMap<LocId, Vec<(FieldId, &BitSet)>> = HashMap::new();
        let mut entries: Vec<_> = self.result.heap_entries().collect();
        entries.sort_by_key(|&(base, field, _)| (base.index(), field.index()));
        for (base, field, targets) in entries {
            succ.entry(base).or_default().push((field, targets));
        }
        // BFS over locations; parent pointers reconstruct the edge path.
        let mut parent: HashMap<LocId, HeapEdge> = HashMap::new();
        let mut queue: VecDeque<LocId> = VecDeque::new();
        let mut seen: HashSet<LocId> = HashSet::new();

        let mut found: Option<LocId> = None;
        for t in self.result.pt_global(global).iter() {
            let loc = LocId(t as u32);
            let edge = HeapEdge::Global { global, target: loc };
            if self.is_deleted(&edge) {
                continue;
            }
            if seen.insert(loc) {
                parent.insert(loc, edge);
                if targets.contains(loc.index()) {
                    found = Some(loc);
                    break;
                }
                queue.push_back(loc);
            }
        }
        while found.is_none() {
            let Some(cur) = queue.pop_front() else { break };
            // Expand all field edges out of `cur`, in (field, target) order.
            for &(field, succs) in succ.get(&cur).map(Vec::as_slice).unwrap_or(&[]) {
                for t in succs.iter() {
                    let loc = LocId(t as u32);
                    let edge = HeapEdge::Field { base: cur, field, target: loc };
                    if self.is_deleted(&edge) || seen.contains(&loc) {
                        continue;
                    }
                    seen.insert(loc);
                    parent.insert(loc, edge);
                    if targets.contains(loc.index()) {
                        found = Some(loc);
                        break;
                    }
                    queue.push_back(loc);
                }
                if found.is_some() {
                    break;
                }
            }
        }
        let mut cur = found?;
        let mut path = Vec::new();
        loop {
            let edge = parent[&cur];
            path.push(edge);
            match edge {
                HeapEdge::Global { .. } => break,
                HeapEdge::Field { base, .. } => cur = base,
            }
        }
        path.reverse();
        Some(path)
    }

    /// True if some surviving path connects `global` to a location in
    /// `targets`.
    pub fn is_reachable(&self, program: &Program, global: GlobalId, targets: &BitSet) -> bool {
        self.find_path(program, global, targets).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::context::ContextPolicy;
    use tir::parse;

    const CHAIN: &str = r#"
class Mid { field next: Object; }
global ROOT: Mid;
fn main() {
  var m: Mid;
  var o: Object;
  m = new Mid @mid0;
  o = new Object @leaf0;
  m.next = o;
  $ROOT = m;
}
entry main;
"#;

    #[test]
    fn finds_two_edge_path() {
        let p = parse(CHAIN).expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let view = HeapGraphView::new(&r);
        let root = p.global_by_name("ROOT").unwrap();
        let leaf: BitSet =
            r.locs().ids().filter(|&l| r.loc_name(&p, l) == "leaf0").map(|l| l.index()).collect();
        let path = view.find_path(&p, root, &leaf).expect("path");
        assert_eq!(path.len(), 2);
        assert!(matches!(path[0], HeapEdge::Global { .. }));
        assert!(matches!(path[1], HeapEdge::Field { .. }));
    }

    #[test]
    fn deleting_an_edge_disconnects() {
        let p = parse(CHAIN).expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let mut view = HeapGraphView::new(&r);
        let root = p.global_by_name("ROOT").unwrap();
        let leaf: BitSet =
            r.locs().ids().filter(|&l| r.loc_name(&p, l) == "leaf0").map(|l| l.index()).collect();
        let path = view.find_path(&p, root, &leaf).expect("path");
        view.delete(path[1]);
        assert!(!view.is_reachable(&p, root, &leaf));
        assert_eq!(view.num_deleted(), 1);
    }

    #[test]
    fn reroutes_around_deleted_edge() {
        let p = parse(
            r#"
class Mid { field a: Object; field b: Object; }
global ROOT: Mid;
fn main() {
  var m: Mid;
  var o: Object;
  m = new Mid @mid0;
  o = new Object @leaf0;
  m.a = o;
  m.b = o;
  $ROOT = m;
}
entry main;
"#,
        )
        .expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        let mut view = HeapGraphView::new(&r);
        let root = p.global_by_name("ROOT").unwrap();
        let leaf: BitSet =
            r.locs().ids().filter(|&l| r.loc_name(&p, l) == "leaf0").map(|l| l.index()).collect();
        let path1 = view.find_path(&p, root, &leaf).expect("path 1");
        view.delete(path1[1]);
        let path2 = view.find_path(&p, root, &leaf).expect("path 2");
        assert_ne!(path1[1], path2[1]);
        view.delete(path2[1]);
        assert!(!view.is_reachable(&p, root, &leaf));
    }
}
