//! Differential testing of the two points-to fixpoint strategies.
//!
//! The delta-propagation solver (with online cycle collapsing) and the
//! full-set reference solver must agree on *everything a client can
//! observe* from a [`pta::PtaResult`]: the canonically numbered points-to
//! sets, the heap graph, the producer map, the call graph, and the set of
//! reached methods. The comparison runs over the whole benchmark suite,
//! the paper's figure programs, generated `apps::scale` corpora, and
//! minicheck-seeded random programs — each under multiple context
//! policies. One more test pins what the delta solver is for: fewer
//! propagations than the reference on the scaled corpus.

use minicheck::{run_cases, Rng};
use pta::{analyze_reference, analyze_with, canonical_text, ContextPolicy, PtaOptions, PtaResult};
use tir::{Operand, Program, ProgramBuilder, Ty};

/// Solves `program` with both strategies and asserts byte-identical
/// canonical serializations.
#[track_caller]
fn assert_solvers_agree(name: &str, program: &Program, policy: ContextPolicy) {
    let delta = analyze_with(program, policy.clone(), &PtaOptions::default());
    let reference = analyze_reference(program, policy.clone(), &PtaOptions::default());
    let (a, b) = (canonical_text(program, &delta), canonical_text(program, &reference));
    assert_eq!(a, b, "delta and reference solvers disagree on {name} under {policy:?}");
}

/// Object sensitivity: container sensitivity over every class of
/// `program`, so every instance method gets receiver contexts.
fn every_class(program: &Program) -> ContextPolicy {
    let names: Vec<&str> = program.class_ids().map(|c| program.class(c).name.as_str()).collect();
    ContextPolicy::containers_named(program, &names)
}

fn policies(program: &Program) -> Vec<ContextPolicy> {
    vec![
        ContextPolicy::Insensitive,
        ContextPolicy::containers_named(program, &["AVec", "AHashMap"]),
        every_class(program),
    ]
}

#[test]
fn solvers_agree_on_suite_apps() {
    for app in apps::suite::all_apps() {
        for policy in policies(&app.program) {
            assert_solvers_agree(app.name, &app.program, policy);
        }
    }
}

#[test]
fn solvers_agree_on_figures() {
    for (name, program) in [
        ("fig1", apps::figures::fig1()),
        ("fig3", apps::figures::fig3()),
        ("multi_map", apps::figures::multi_map()),
    ] {
        for policy in policies(&program) {
            assert_solvers_agree(name, &program, policy);
        }
    }
}

#[test]
fn solvers_agree_on_scaled_corpora() {
    for scale in [1, 2, 8, 16] {
        let program = apps::scale::scaled_program(scale);
        for policy in policies(&program) {
            assert_solvers_agree(&format!("scaled-{scale}"), &program, policy);
        }
    }
}

type Solve = fn(&Program, ContextPolicy, &PtaOptions) -> PtaResult;

/// Propagations one solve of `program` performs, counted on this thread
/// only, so solves running in other tests do not leak into the count.
fn propagations(program: &Program, solve: Solve) -> u64 {
    let options = PtaOptions::default();
    let (_, metrics) = obs::capture(|| solve(program, ContextPolicy::Insensitive, &options));
    metrics.counter(obs::Counter::PtaPropagations)
}

/// The point of difference propagation: on the scaled corpus the delta
/// solver pops strictly fewer worklist entries than the full-set
/// reference (519 against 5,049 at scale 16).
#[test]
fn delta_solver_propagates_less_on_scaled_corpus() {
    // `obs::capture` only buffers while a recorder is installed.
    obs::MemRecorder::install_static(obs::RingCapacity::default());
    let program = apps::scale::scaled_program(16);
    let delta = propagations(&program, analyze_with);
    let reference = propagations(&program, analyze_reference);
    assert!(delta > 0, "no propagations were counted");
    assert!(
        delta < reference,
        "delta solver did not propagate less than the reference on scaled-16 \
         ({delta} >= {reference})"
    );
}

/// Builds a random program: a handful of classes with reference fields, a
/// few globals, and call-connected methods whose bodies mix allocations,
/// copies, field traffic, global traffic, virtual dispatch, and
/// nondeterministic control flow. Everything the two solvers treat
/// differently (copy edges, complex constraints, dispatch) appears.
fn random_program(rng: &mut Rng) -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.object_class();
    let obj = Ty::Ref(object);
    let num_classes = rng.usize_in(1, 3);
    let classes: Vec<_> = (0..num_classes)
        .map(|i| {
            let base = b.class(&format!("C{i}"), None);
            let sub = b.class(&format!("C{i}Sub"), Some(base));
            let field = b.field(base, &format!("f{i}"), obj);
            (base, sub, field)
        })
        .collect();
    let globals: Vec<_> =
        (0..rng.usize_in(1, 3)).map(|i| b.global(&format!("GLB{i}"), obj)).collect();
    // `get` on each base/sub pair so virtual dispatch has two targets.
    for (i, &(base, sub, field)) in classes.iter().enumerate() {
        for (tag, class) in [("b", base), ("s", sub)] {
            b.method(Some(class), "get", &[("p", obj)], Some(obj), |mb| {
                let this = mb.this();
                let p = mb.param(0);
                let q = mb.var("q", obj);
                mb.write_field(this, field, p);
                mb.read_field(q, this, field);
                if tag == "s" {
                    mb.new_obj(q, mb.program_builder().object_class(), &format!("gs{i}"));
                }
                mb.ret(q);
            });
        }
    }
    // A chain of free functions, each maybe-calling the next (the last
    // maybe-calls the first: a program-wide copy ring).
    let num_fns = rng.usize_in(2, 4);
    let fns: Vec<_> = (0..num_fns)
        .map(|i| b.declare_method(None, &format!("h{i}"), &[("x", obj)], Some(obj)))
        .collect();
    for i in 0..num_fns {
        let succ = fns[(i + 1) % num_fns];
        let steps = rng.usize_in(1, 5);
        let choices: Vec<usize> = (0..steps).map(|_| rng.below(6)).collect();
        let seeds: Vec<(usize, usize, bool)> = (0..steps)
            .map(|_| (rng.below(num_classes), rng.below(globals.len()), rng.bool()))
            .collect();
        b.define_method(fns[i], |mb| {
            let x = mb.param(0);
            let r = mb.var("r", obj);
            mb.assign(r, x);
            for (s, (&which, &(ci, gi, flip))) in choices.iter().zip(seeds.iter()).enumerate() {
                let (base, sub, field) = classes[ci];
                match which {
                    0 => {
                        let o = mb.var(&format!("o{s}"), Ty::Ref(sub));
                        mb.new_obj(o, sub, &format!("a{i}_{s}"));
                        mb.write_field(o, field, r);
                    }
                    1 => {
                        mb.write_global(globals[gi], r);
                    }
                    2 => {
                        mb.read_global(r, globals[gi]);
                    }
                    3 => {
                        let recv = mb.var(&format!("v{s}"), Ty::Ref(base));
                        mb.new_obj(recv, if flip { base } else { sub }, &format!("r{i}_{s}"));
                        mb.call_virtual(Some(r), recv, "get", &[Operand::Var(x)]);
                    }
                    4 => {
                        mb.maybe(|mb| {
                            mb.call_static(Some(r), succ, &[Operand::Var(r)]);
                        });
                    }
                    _ => {
                        let o = mb.var(&format!("w{s}"), Ty::Ref(sub));
                        mb.new_obj(o, sub, &format!("w{i}_{s}"));
                        mb.write_field(o, field, r);
                        mb.read_field(r, o, field);
                    }
                }
            }
            mb.ret(r);
        });
    }
    let entry = b.method(None, "main", &[], None, |mb| {
        let o = mb.var("o", obj);
        mb.new_obj(o, object, "seed");
        let out = mb.var("out", obj);
        mb.call_static(Some(out), fns[0], &[Operand::Var(o)]);
        mb.write_global(globals[0], out);
        mb.ret_void();
    });
    b.set_entry(entry);
    b.finish()
}

#[test]
fn solvers_agree_on_random_programs() {
    run_cases(60, |rng| {
        let program = random_program(rng);
        let policy = match rng.below(3) {
            0 => ContextPolicy::Insensitive,
            1 => ContextPolicy::containers_named(&program, &["C0"]),
            _ => every_class(&program),
        };
        assert_solvers_agree("random", &program, policy);
    });
}
