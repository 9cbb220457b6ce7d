//! Witness validation by forward replay.
//!
//! A [`Witness`] records the backwards-traversed command
//! sequence of a path program. Replaying that sequence *forwards* through a
//! lightweight abstract heap validates the witness structurally: every
//! command must be executable in order (definitions before uses of the
//! objects the query tracks), mirroring the paper's use of path programs
//! for alarm triage ("the path program witnesses our tool produces are
//! always helpful in triaging reported leak alarms", §4).
//!
//! The replay is necessarily approximate — a path program may include loop
//! iterations and abstract (over-approximate) steps — so validation checks
//! *consistency*, not concrete executability: it confirms the trace visits
//! commands of connected methods in caller/callee order and that the
//! claimed producing statement exists.

use std::collections::HashSet;

use tir::{CmdId, MethodId, Program};

use crate::stats::Witness;

/// The verdict of a replay check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// The trace is structurally consistent.
    Consistent,
    /// The trace is empty (no information to validate).
    Empty,
    /// Two adjacent trace steps belong to methods with no caller/callee or
    /// sibling relationship in the call graph.
    DisconnectedStep {
        /// Index of the offending step in the trace.
        index: usize,
    },
}

/// Structurally validates a witness trace against the program's call graph.
///
/// The trace is ordered from the producing statement backwards; adjacent
/// steps must stay within one method or move along a call-graph edge
/// (callee → caller when propagating up, caller → callee when a call was
/// entered).
pub fn validate_witness(
    program: &Program,
    pta: &pta::PtaResult,
    witness: &Witness,
) -> ReplayVerdict {
    if witness.trace.is_empty() {
        return ReplayVerdict::Empty;
    }
    let related = |a: MethodId, b: MethodId| -> bool {
        if a == b {
            return true;
        }
        // b reachable from a's call sites or vice versa (one hop).
        let calls = |m: MethodId, n: MethodId| {
            program.method_cmds(m).into_iter().any(|c| pta.call_targets(c).contains(&n))
        };
        calls(a, b) || calls(b, a)
    };
    let methods: Vec<MethodId> = witness.trace.iter().map(|&c| program.cmd_method(c)).collect();
    for (i, pair) in methods.windows(2).enumerate() {
        if !related(pair[0], pair[1]) {
            return ReplayVerdict::DisconnectedStep { index: i + 1 };
        }
    }
    // Every traced command must really exist in its method body.
    let mut per_method: HashSet<(MethodId, CmdId)> = HashSet::new();
    for (&c, &m) in witness.trace.iter().zip(&methods) {
        per_method.insert((m, c));
    }
    for (m, c) in per_method {
        if !program.method_cmds(m).contains(&c) {
            // cmd_method and method_cmds disagree — impossible unless the
            // witness was built against a different program.
            return ReplayVerdict::DisconnectedStep { index: 0 };
        }
    }
    ReplayVerdict::Consistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SearchOutcome, SymexConfig};
    use pta::{ContextPolicy, HeapEdge, ModRef};

    #[test]
    fn real_witnesses_validate() {
        let p = tir::parse(
            r#"
class Box { field item: Object; }
fn store(b: Box, o: Object) {
  b.item = o;
}
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = new Object @obj0;
  call store(b, o);
}
entry main;
"#,
        )
        .expect("parse");
        let r = pta::analyze(&p, ContextPolicy::Insensitive);
        let m = ModRef::compute(&p, &r);
        let box0 = r.locs().ids().find(|&l| r.loc_name(&p, l) == "box0").unwrap();
        let obj0 = r.locs().ids().find(|&l| r.loc_name(&p, l) == "obj0").unwrap();
        let c = p.class_by_name("Box").unwrap();
        let f = p.resolve_field(c, "item").unwrap();
        let edge = HeapEdge::Field { base: box0, field: f, target: obj0 };
        let out = Engine::new(&p, &r, &m, SymexConfig::default()).refute_edge(&edge);
        let SearchOutcome::Witnessed(w) = out else { panic!("expected witness") };
        assert_eq!(validate_witness(&p, &r, &w), ReplayVerdict::Consistent);
    }

    #[test]
    fn empty_trace_is_flagged() {
        let p = tir::parse("fn main() { } entry main;").expect("parse");
        let r = pta::analyze(&p, ContextPolicy::Insensitive);
        let w = Witness { trace: Vec::new(), final_query: "any".into() };
        assert_eq!(validate_witness(&p, &r, &w), ReplayVerdict::Empty);
    }

    #[test]
    fn disconnected_trace_is_flagged() {
        let p = tir::parse(
            r#"
fn island() {
  var x: int;
  x = 1;
}
fn main() {
  var y: int;
  y = 2;
}
entry main;
"#,
        )
        .expect("parse");
        let r = pta::analyze(&p, ContextPolicy::Insensitive);
        // Stitch a fake trace crossing unrelated methods.
        let island = p.free_function("island").unwrap();
        let main = p.entry();
        let c1 = p.method_cmds(island)[0];
        let c2 = p.method_cmds(main)[0];
        let w = Witness { trace: vec![c1, c2], final_query: "any".into() };
        assert_eq!(validate_witness(&p, &r, &w), ReplayVerdict::DisconnectedStep { index: 1 });
    }
}
