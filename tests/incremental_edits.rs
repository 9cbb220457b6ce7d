//! Property tests for edit-delta incremental points-to analysis.
//!
//! Properties:
//!
//! - **reference equivalence**: for random base programs and random edit
//!   sequences, the canonicalized incremental state equals a from-scratch
//!   reference solve after *every* applied edit batch, under every context
//!   policy;
//! - **refutation soundness across edits**: after each edit, heap edges
//!   produced by concretely interpreting the edited program are never
//!   refuted by the symbolic engine running over the incrementally
//!   maintained points-to result;
//! - **corpus edits stay exact and cheap**: statement removals and
//!   restorations on every suite app and the scaled corpus match the
//!   reference after every batch, and on the scaled corpus cost at most a
//!   quarter of the from-scratch solves' propagations.

use minicheck::{run_cases, Rng};
use pta::{analyze_reference, canonical_text, ContextPolicy, IncrementalPta, ModRef, PtaOptions};
use symex::{Engine, Fingerprinter, MethodHashCache, SymexConfig};
use tir::interp::{Interp, Oracle};
use tir::{apply_edits, EditOp, Program};

// ------------------------------------------------------------ base programs

/// A base program with enough surface area for interesting edits: a class
/// hierarchy with an override, fields, globals, getters/setters, and a main
/// that exercises all of them. All object variables are initialized so
/// statement-level edits rarely produce null dereferences.
fn base_source(rng: &mut Rng) -> String {
    let extra_global = rng.bool();
    let extra_call = rng.bool();
    let mut s = String::from(
        r#"class Cell {
  field f0: Object;
  field f1: Object;
  method get(this: Cell): Object {
    var r: Object;
    r = this.f0;
    return r;
  }
  method set(this: Cell, v: Object) {
    this.f0 = v;
    return;
  }
}
class CellSub extends Cell {
  method get(this: CellSub): Object {
    var o: Object;
    o = new Object @subobj;
    return o;
  }
}
global G0: Object;
global G1: Object;
"#,
    );
    if extra_global {
        s.push_str("global G2: Object;\n");
    }
    s.push_str(
        r#"fn main() {
  var c0: Cell;
  var c1: Cell;
  var o0: Object;
  var o1: Object;
  var r: Object;
  c0 = new Cell @c0a;
  c1 = new CellSub @c1a;
  o0 = new Object @o0a;
  o1 = new Object @o1a;
  call c0.set(o0);
  call c1.set(o1);
  r = call c0.get();
  $G0 = o0;
  $G1 = r;
"#,
    );
    if extra_call {
        s.push_str("  r = call c1.get();\n");
    }
    s.push_str("  return;\n}\nentry main;\n");
    s
}

// ------------------------------------------------------------ edit menu

/// Names usable in generated statement texts. Matches `base_source`.
const CELL_VARS: &[&str] = &["c0", "c1"];
const OBJ_VARS: &[&str] = &["o0", "o1", "r"];
const FIELDS: &[&str] = &["f0", "f1"];
const GLOBALS: &[&str] = &["G0", "G1"];

/// One random statement over the fixed name menu. `fresh` makes allocation
/// site names unique across the whole edit history of one case (site names
/// are globally unique in tir, including removed ones).
fn random_stmt(rng: &mut Rng, fresh: &mut usize) -> String {
    let c = |rng: &mut Rng| CELL_VARS[rng.below(CELL_VARS.len())];
    let o = |rng: &mut Rng| OBJ_VARS[rng.below(OBJ_VARS.len())];
    let f = |rng: &mut Rng| FIELDS[rng.below(FIELDS.len())];
    let g = |rng: &mut Rng| GLOBALS[rng.below(GLOBALS.len())];
    match rng.weighted(&[2, 2, 2, 2, 2, 2, 1, 1]) {
        0 => {
            *fresh += 1;
            let class = if rng.bool() { "Cell" } else { "CellSub" };
            format!("{} = new {} @e{};", c(rng), class, *fresh)
        }
        1 => {
            *fresh += 1;
            format!("{} = new Object @e{};", o(rng), *fresh)
        }
        2 => format!("{}.{} = {};", c(rng), f(rng), o(rng)),
        3 => format!("{} = {}.{};", o(rng), c(rng), f(rng)),
        4 => format!("${} = {};", g(rng), o(rng)),
        5 => format!("{} = ${};", o(rng), g(rng)),
        6 => format!("call {}.set({});", c(rng), o(rng)),
        _ => format!("{} = call {}.get();", o(rng), c(rng)),
    }
}

/// One random edit op against the current program. May be invalid (e.g.
/// removing a statement another command depends on); `apply_edits` is
/// transactional, so invalid ops are simply skipped by the caller.
fn random_edit(rng: &mut Rng, program: &Program, fresh: &mut usize) -> EditOp {
    let main_cmds = program.method_cmds(program.entry()).len();
    match rng.weighted(&[4, 3, 3, 1, 1]) {
        0 => EditOp::AddStmt {
            method: "main".into(),
            at: rng.below(main_cmds + 1),
            text: random_stmt(rng, fresh),
        },
        1 => EditOp::ReplaceStmt {
            method: "main".into(),
            at: rng.below(main_cmds),
            text: random_stmt(rng, fresh),
        },
        2 => EditOp::RemoveStmt { method: "main".into(), at: rng.below(main_cmds) },
        3 => {
            *fresh += 1;
            EditOp::AddMethod {
                class: Some("CellSub".into()),
                text: "method set(this: CellSub, v: Object) {\n  this.f1 = v;\n  $G0 = v;\n  return;\n}"
                    .to_string(),
            }
        }
        _ => EditOp::RemoveMethod { method: "CellSub.get".into() },
    }
}

/// Object sensitivity: container sensitivity over every class of
/// `program`, so every instance method gets receiver contexts.
fn every_class(program: &Program) -> ContextPolicy {
    let names: Vec<&str> = program.class_ids().map(|c| program.class(c).name.as_str()).collect();
    ContextPolicy::containers_named(program, &names)
}

fn reference_text(program: &Program, policy: &ContextPolicy) -> String {
    canonical_text(program, &analyze_reference(program, policy.clone(), &PtaOptions::default()))
}

// ------------------------------------------------------------ property 1

/// Random edit sequences: after every applied batch, the canonicalized
/// incremental state must match a from-scratch reference solve.
#[test]
fn random_edit_sequences_match_reference() {
    run_cases(48, |rng| {
        let which = rng.below(3);
        let mut program = tir::parse(&base_source(rng)).expect("base program parses");
        let policy = match which {
            0 => ContextPolicy::Insensitive,
            1 => ContextPolicy::containers_named(&program, &["Cell"]),
            _ => every_class(&program),
        };
        let mut inc = IncrementalPta::new(&program, policy.clone(), &PtaOptions::default());
        assert_eq!(
            canonical_text(&program, &inc.result(&program)),
            reference_text(&program, &policy),
            "initial solve disagrees with reference"
        );

        let mut fresh = 0usize;
        let steps = rng.usize_in(3, 6);
        let mut applied_batches = 0usize;
        for _ in 0..steps {
            let ops: Vec<EditOp> =
                (0..rng.usize_in(1, 2)).map(|_| random_edit(rng, &program, &mut fresh)).collect();
            // Invalid batches (dangling uses, duplicate methods, …) are
            // rejected transactionally; skip them.
            let Ok(applied) = apply_edits(&mut program, &ops) else { continue };
            applied_batches += 1;
            let stats = inc.apply_edits(&program, &applied);
            assert_eq!(
                canonical_text(&program, &inc.result(&program)),
                reference_text(&program, &policy),
                "incremental state diverged after {ops:?} (stats: {stats:?})\nprogram:\n{}",
                tir::print_program(&program)
            );
        }
        // The menu is built from the base program's own names, so most
        // random batches apply; a case where nothing applied exercises
        // nothing and would hide generator rot.
        assert!(
            steps == 0 || applied_batches > 0 || steps < 3,
            "no batch applied in {steps} steps"
        );
    });
}

// ------------------------------------------------------------ corpus edits

/// Statements eligible as single-statement edit subjects: every command
/// whose printed text round-trips through the edit parser (validated on a
/// throwaway clone, so allocation-site uniqueness and control-flow
/// restrictions are enforced by the edit layer itself, not re-encoded
/// here). Sorted by (method, ordinal) for determinism.
fn edit_candidates(program: &Program) -> Vec<(String, usize, String)> {
    let mut methods: Vec<tir::MethodId> =
        program.methods_by_name().values().flatten().copied().collect();
    methods.sort_by_key(|m| m.index());
    let mut out = Vec::new();
    for m in methods {
        let name = program.method_name(m);
        for (at, cid) in program.method_cmds(m).iter().enumerate() {
            let text = format!("{};", tir::print_cmd(program, program.cmd(*cid)));
            // Allocation sites stay reserved after removal, so a `new`
            // can never be re-added under its original name.
            if text.contains('@') {
                continue;
            }
            let mut probe = program.clone();
            let remove = EditOp::RemoveStmt { method: name.clone(), at };
            let add = EditOp::AddStmt { method: name.clone(), at, text: text.clone() };
            if apply_edits(&mut probe, std::slice::from_ref(&remove)).is_ok()
                && apply_edits(&mut probe, std::slice::from_ref(&add)).is_ok()
            {
                out.push((name.clone(), at, text));
            }
        }
    }
    out
}

/// Drives 16 single-statement edit batches (8 statements, each removed
/// then restored) through one long-lived [`IncrementalPta`], checking the
/// reference oracle after every batch. The statements are stride-sampled
/// across the whole program so the batches cover many methods. Returns
/// the summed edit-solve propagations and the summed propagations of a
/// from-scratch solve of each edited program.
fn replay_remove_restore(name: &str, program: &Program, policy: &ContextPolicy) -> (u64, u64) {
    const STATEMENTS: usize = 8;
    let mut program = program.clone();
    let all = edit_candidates(&program);
    let step = (all.len() / STATEMENTS).max(1);
    let picked: Vec<_> = all.into_iter().step_by(step).take(STATEMENTS).collect();
    assert_eq!(picked.len(), STATEMENTS, "{name}: too few edit candidates");

    let options = PtaOptions::default();
    let mut inc = IncrementalPta::new(&program, policy.clone(), &options);
    let (mut edit_props, mut scratch_props) = (0, 0);
    for (method, at, text) in picked {
        let batches = [
            EditOp::RemoveStmt { method: method.clone(), at },
            EditOp::AddStmt { method, at, text },
        ];
        for op in batches {
            // A restore returns the program to its pristine text, so every
            // candidate validated on the pristine program still applies.
            let applied = apply_edits(&mut program, std::slice::from_ref(&op))
                .unwrap_or_else(|e| panic!("{name}: {op:?} no longer applies: {e}"));
            edit_props += inc.apply_edits(&program, &applied).propagations;
            scratch_props += IncrementalPta::new(&program, policy.clone(), &options).propagations();
            assert_eq!(
                canonical_text(&program, &inc.result(&program)),
                reference_text(&program, policy),
                "{name}: incremental state diverged from the reference after {op:?}"
            );
        }
    }
    (edit_props, scratch_props)
}

/// Statement edits on real programs: every suite app and the scaled
/// corpus at 16 stay byte-identical to a from-scratch reference solve
/// after every batch, and on the scaled corpus the edit solves cost at
/// most 25% of the from-scratch propagations (1,085 against 8,305).
#[test]
fn corpus_edits_match_reference_and_cost_a_fraction() {
    for app in apps::suite::all_apps() {
        replay_remove_restore(app.name, &app.program, &apps::builder::container_policy(&app));
    }
    let scaled = apps::scale::scaled_program(16);
    let (edit, scratch) = replay_remove_restore("scaled-16", &scaled, &ContextPolicy::Insensitive);
    assert!(
        edit * 4 <= scratch,
        "edit solves on scaled-16 took {edit} propagations, over 25% of from-scratch {scratch}"
    );
}

// ------------------------------------------------------------ property 2

/// The abstract image of a concrete trace under the incremental result.
fn concrete_edges(pta: &pta::PtaResult, trace: &tir::interp::Trace) -> Vec<pta::HeapEdge> {
    let loc_of = |alloc: tir::AllocId| {
        pta::LocId(
            pta.alloc_locs(alloc).iter().next().expect("reached allocation has a location") as u32
        )
    };
    let mut edges = Vec::new();
    for (owner, field, value) in &trace.field_edges {
        edges.push(pta::HeapEdge::Field {
            base: loc_of(*owner),
            field: *field,
            target: loc_of(*value),
        });
    }
    for (global, value) in &trace.global_edges {
        edges.push(pta::HeapEdge::Global { global: *global, target: loc_of(*value) });
    }
    edges.sort();
    edges.dedup();
    edges
}

/// Refutations computed over the incrementally maintained points-to result
/// must stay sound after every edit: no edge the concrete interpreter
/// actually produces may be refuted.
#[test]
fn surviving_refutations_stay_sound_across_edits() {
    run_cases(24, |rng| {
        let mut program = tir::parse(&base_source(rng)).expect("base program parses");
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());

        let mut fresh = 1000usize;
        for _ in 0..rng.usize_in(2, 4) {
            let op = random_edit(rng, &program, &mut fresh);
            let Ok(applied) = apply_edits(&mut program, &[op]) else { continue };
            inc.apply_edits(&program, &applied);

            let pta = inc.result(&program);
            let modref = ModRef::compute(&program, &pta);
            // Edits can introduce null dereferences (e.g. a call through a
            // variable overwritten by an unwritten field read); such traces
            // fault and yield no edges to check.
            let Ok(trace) = Interp::new(&program, Oracle::always_first(), 100_000).run() else {
                continue;
            };
            let mut engine = Engine::new(&program, &pta, &modref, SymexConfig::default());
            for edge in concrete_edges(&pta, &trace) {
                let out = engine.refute_edge(&edge);
                assert!(
                    !out.is_refuted(),
                    "UNSOUND after edit: concretely-produced edge {} was refuted\nprogram:\n{}",
                    edge.describe(&program, &pta),
                    tir::print_program(&program)
                );
            }
        }
    });
}

// ------------------------------------------------------------ property 3

/// Every may edge of the points-to result, in canonical order.
fn all_edges(program: &Program, pta: &pta::PtaResult) -> Vec<pta::HeapEdge> {
    let mut edges = Vec::new();
    for (base, field, targets) in pta.heap_entries() {
        for t in targets.iter() {
            edges.push(pta::HeapEdge::Field { base, field, target: pta::LocId(t as u32) });
        }
    }
    for global in program.global_ids() {
        for t in pta.pt_global(global).iter() {
            edges.push(pta::HeapEdge::Global { global, target: pta::LocId(t as u32) });
        }
    }
    edges.sort();
    edges
}

/// Fingerprint fusion: a fingerprinter that reuses cached method hashes
/// for everything outside `EditSolveStats::changed_methods` must produce
/// the same fingerprint for every edge as one built from scratch. If the
/// delta solver ever under-reports a changed method, the cached and fresh
/// fingerprints diverge here.
#[test]
fn cached_fingerprints_match_fresh_after_edits() {
    run_cases(24, |rng| {
        let mut program = tir::parse(&base_source(rng)).expect("base program parses");
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());
        let config = SymexConfig::default();
        let mut cache = MethodHashCache::new();
        {
            let pta = inc.result(&program);
            let _ = Fingerprinter::with_cache(&program, &pta, &config, &mut cache, &[]);
        }

        let mut fresh_sites = 3000usize;
        let mut applied_any = false;
        for _ in 0..rng.usize_in(2, 4) {
            let op = random_edit(rng, &program, &mut fresh_sites);
            let Ok(applied) = apply_edits(&mut program, &[op]) else { continue };
            applied_any = true;
            let stats = inc.apply_edits(&program, &applied);
            let pta = inc.result(&program);
            let fresh = Fingerprinter::new(&program, &pta, &config);
            let cached = Fingerprinter::with_cache(
                &program,
                &pta,
                &config,
                &mut cache,
                &stats.changed_methods,
            );
            for edge in all_edges(&program, &pta) {
                assert_eq!(
                    fresh.fingerprint(&edge),
                    cached.fingerprint(&edge),
                    "cached fingerprint diverged for {} after edit (changed: {:?})\nprogram:\n{}",
                    fresh.edge_key(&edge),
                    stats
                        .changed_methods
                        .iter()
                        .map(|&m| program.method_name(m))
                        .collect::<Vec<_>>(),
                    tir::print_program(&program)
                );
            }
        }
        if applied_any {
            assert!(cache.hits() > 0, "fingerprint cache never hit across an edit sequence");
        }
    });
}

// ------------------------------------------------------------ property 4

/// The null-dereference client over the incrementally maintained points-to
/// state must answer exactly like a from-scratch run (reference solver)
/// after every edit — byte-identical in both report renderings. The base
/// program's `f1` field is nullable (only random edits ever write it), so
/// edit scripts routinely create, move, and kill candidate sites.
#[test]
fn null_report_matches_from_scratch_after_edits() {
    run_cases(24, |rng| {
        let mut program = tir::parse(&base_source(rng)).expect("base program parses");
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());

        let report = |program: &Program, pta: &pta::PtaResult| {
            let modref = ModRef::compute(program, pta);
            thresher::NullClient::new(program, pta, &modref, SymexConfig::default()).run()
        };

        let mut fresh = 4000usize;
        for _ in 0..rng.usize_in(2, 4) {
            let op = random_edit(rng, &program, &mut fresh);
            let Ok(applied) = apply_edits(&mut program, std::slice::from_ref(&op)) else {
                continue;
            };
            inc.apply_edits(&program, &applied);

            let incremental = report(&program, &inc.result(&program));
            let options = PtaOptions::default();
            let scratch = report(
                &program,
                &analyze_reference(&program, ContextPolicy::Insensitive, &options),
            );
            assert_eq!(
                incremental.describe(&program),
                scratch.describe(&program),
                "null report diverged from scratch after {op:?}\nprogram:\n{}",
                tir::print_program(&program)
            );
            assert_eq!(
                incremental.to_value(&program).to_json(),
                scratch.to_value(&program).to_json(),
                "null report JSON diverged from scratch after an edit"
            );
        }
    });
}

// ------------------------------------------------------------ determinism

/// Replaying the same edit sequence on two independent incremental solvers
/// yields byte-identical canonical states (no hidden iteration-order
/// dependence in the delta pipeline).
#[test]
fn edit_replay_is_deterministic() {
    run_cases(16, |rng| {
        let src = base_source(rng);
        let mut fresh = 2000usize;
        let probe = tir::parse(&src).expect("base program parses");
        let mut probe = probe;
        let mut ops_log: Vec<Vec<EditOp>> = Vec::new();
        for _ in 0..3 {
            let ops = vec![random_edit(rng, &probe, &mut fresh)];
            if apply_edits(&mut probe, &ops).is_ok() {
                ops_log.push(ops);
            }
        }

        let run = || {
            let mut program = tir::parse(&src).expect("base program parses");
            let mut inc =
                IncrementalPta::new(&program, every_class(&program), &PtaOptions::default());
            for ops in &ops_log {
                let applied = apply_edits(&mut program, ops).expect("pre-validated batch");
                inc.apply_edits(&program, &applied);
            }
            canonical_text(&program, &inc.result(&program))
        };
        assert_eq!(run(), run(), "same edit sequence produced different canonical states");
    });
}
