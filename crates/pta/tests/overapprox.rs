//! Points-to over-approximation property test: every heap edge produced by
//! a concrete execution of a random straight-line program appears in the
//! flow-insensitive points-to graph.

use minicheck::{run_cases, Rng};
use std::collections::HashMap;

use pta::{BitSet, ContextPolicy};
use tir::{FieldId, GlobalId, Operand, Program, ProgramBuilder, Ty, VarId};

#[derive(Clone, Debug)]
enum Op {
    New(usize),
    Copy(usize, usize),
    Write(usize, usize, usize),
    Read(usize, usize, usize),
    GWrite(usize, usize),
    GRead(usize, usize),
}

const NV: usize = 4;
const NF: usize = 2;
const NG: usize = 2;

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.usize_in(1, 19);
    (0..len)
        .map(|_| match rng.below(6) {
            0 => Op::New(rng.below(NV)),
            1 => Op::Copy(rng.below(NV), rng.below(NV)),
            2 => Op::Write(rng.below(NV), rng.below(NF), rng.below(NV)),
            3 => Op::Read(rng.below(NV), rng.below(NV), rng.below(NF)),
            4 => Op::GWrite(rng.below(NG), rng.below(NV)),
            _ => Op::GRead(rng.below(NV), rng.below(NG)),
        })
        .collect()
}

struct Built {
    program: Program,
    fields: Vec<FieldId>,
    globals: Vec<GlobalId>,
}

fn build(ops: &[Op]) -> Built {
    let mut b = ProgramBuilder::new();
    let object = b.object_class();
    let cell = b.class("Cell", None);
    let fields: Vec<FieldId> =
        (0..NF).map(|i| b.field(cell, &format!("f{i}"), Ty::Ref(object))).collect();
    let globals: Vec<GlobalId> =
        (0..NG).map(|i| b.global(&format!("G{i}"), Ty::Ref(object))).collect();
    let f2 = fields.clone();
    let g2 = globals.clone();
    let main = b.method(None, "main", &[], None, |mb| {
        let vars: Vec<VarId> = (0..NV).map(|i| mb.var(&format!("v{i}"), Ty::Ref(cell))).collect();
        for (i, &v) in vars.iter().enumerate() {
            mb.new_obj(v, cell, &format!("init{i}"));
        }
        for (n, op) in ops.iter().enumerate() {
            match op {
                Op::New(a) => {
                    mb.new_obj(vars[*a], cell, &format!("s{n}"));
                }
                Op::Copy(a, b2) => {
                    mb.assign(vars[*a], Operand::Var(vars[*b2]));
                }
                Op::Write(a, f, b2) => {
                    mb.write_field(vars[*a], f2[*f], vars[*b2]);
                }
                Op::Read(a, b2, f) => {
                    mb.read_field(vars[*a], vars[*b2], f2[*f]);
                }
                Op::GWrite(g, a) => {
                    mb.write_global(g2[*g], vars[*a]);
                }
                Op::GRead(a, g) => {
                    mb.read_global(vars[*a], g2[*g]);
                }
            }
        }
    });
    b.set_entry(main);
    Built { program: b.finish(), fields, globals }
}

/// (owner alloc-name, field, value alloc-name) edges and
/// (global, value alloc-name) edges.
type ConcreteEdges = (Vec<(String, FieldId, String)>, Vec<(GlobalId, String)>);

/// Concrete execution collecting the produced edges.
fn run_concrete(built: &Built, ops: &[Op]) -> ConcreteEdges {
    // Objects are numbered in allocation order; names follow the builder.
    let mut names: Vec<String> = Vec::new();
    let mut vars: Vec<Option<usize>> = vec![None; NV];
    let mut heap: HashMap<(usize, FieldId), Option<usize>> = HashMap::new();
    let mut globals: Vec<Option<usize>> = vec![None; NG];
    let mut field_edges = Vec::new();
    let mut global_edges = Vec::new();

    for (i, var) in vars.iter_mut().enumerate() {
        names.push(format!("init{i}"));
        *var = Some(names.len() - 1);
    }
    for (n, op) in ops.iter().enumerate() {
        match op {
            Op::New(a) => {
                names.push(format!("s{n}"));
                vars[*a] = Some(names.len() - 1);
            }
            Op::Copy(a, b) => vars[*a] = vars[*b],
            Op::Write(a, f, b) => {
                if let Some(o) = vars[*a] {
                    heap.insert((o, built.fields[*f]), vars[*b]);
                    if let Some(val) = vars[*b] {
                        field_edges.push((names[o].clone(), built.fields[*f], names[val].clone()));
                    }
                }
            }
            Op::Read(a, b, f) => {
                vars[*a] =
                    vars[*b].and_then(|o| heap.get(&(o, built.fields[*f])).copied()).flatten();
            }
            Op::GWrite(g, a) => {
                globals[*g] = vars[*a];
                if let Some(val) = vars[*a] {
                    global_edges.push((built.globals[*g], names[val].clone()));
                }
            }
            Op::GRead(a, g) => vars[*a] = globals[*g],
        }
    }
    (field_edges, global_edges)
}

#[test]
fn pta_over_approximates_concrete_edges() {
    run_cases(256, |rng| {
        let ops = arb_ops(rng);
        let built = build(&ops);
        let (field_edges, global_edges) = run_concrete(&built, &ops);
        let r = pta::analyze(&built.program, ContextPolicy::Insensitive);
        let loc_by_name = |name: &str| {
            r.locs()
                .ids()
                .find(|&l| r.loc_name(&built.program, l) == name)
                .unwrap_or_else(|| panic!("missing loc {name}"))
        };
        for (owner, f, value) in &field_edges {
            let lo = loc_by_name(owner);
            let lv = loc_by_name(value);
            assert!(
                r.pt_field(lo, *f).contains(lv.index()),
                "missing pta edge {owner}.{f:?} -> {value}\n{}",
                r.dump(&built.program)
            );
            // The producer map must name at least one statement for the
            // edge (the witness search needs a starting point).
            let edge = pta::HeapEdge::Field { base: lo, field: *f, target: lv };
            assert!(!r.producers(&edge).is_empty(), "no producers for real edge");
        }
        for (g, value) in &global_edges {
            let lv = loc_by_name(value);
            assert!(r.pt_global(*g).contains(lv.index()), "missing pta global edge -> {value}");
        }
    });
}

/// Context-sensitive runs only ever shrink points-to sets relative to
/// the insensitive baseline (for this call-free fragment they must be
/// identical; the property guards the conflation code path).
#[test]
fn object_sensitivity_never_adds_edges() {
    run_cases(256, |rng| {
        let ops = arb_ops(rng);
        let built = build(&ops);
        let base = pta::analyze(&built.program, ContextPolicy::Insensitive);
        let classes: Vec<&str> =
            built.program.class_ids().map(|c| built.program.class(c).name.as_str()).collect();
        let obj =
            pta::analyze(&built.program, ContextPolicy::containers_named(&built.program, &classes));
        for g in built.program.global_ids() {
            let base_names: BitSet = base.pt_global(g).clone();
            let obj_names: BitSet = obj.pt_global(g).clone();
            // Straight-line main has no receivers, so locations coincide.
            assert_eq!(base_names.iter().count(), obj_names.iter().count());
        }
    });
}
