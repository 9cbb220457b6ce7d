//! Null-dereference motifs: Figure 1's `AVec` pattern generalized.
//!
//! The paper's running example (§2, Figure 1) is a growable vector whose
//! backing array holds *default* contents until pushed — exactly the
//! shape that makes naive null reporting noisy and refutation valuable.
//! This module turns that example into a reusable vocabulary for the
//! null-dereference client ([`thresher::NullClient`]-compatible
//! programs; the `core` crate depends on `apps` only in tests, so the
//! coupling is by construction, not by import):
//!
//! - [`NullMotif::VecGet`] — the Figure 1 generalization: `get` on a
//!   slot the straight-line pushes may or may not have written;
//! - [`NullMotif::DeepChain`] — null flows (or provably fails to flow)
//!   through a deep static call chain before the dereference, so every
//!   refutation drags a long call-graph slice into its fingerprint;
//! - [`NullMotif::WideDispatch`] — virtual dispatch over a wide subclass
//!   fan whose overrides read a nullable field; one arm may return
//!   `null` outright;
//! - [`NullMotif::GuardedDeref`] — a satisfiable null flow defused by an
//!   explicit `!= null` guard (the idiomatic defense; refuted by the
//!   engine's null-guard handling, not by the front end).
//!
//! Every builder is a pure function of its arguments — byte-identical
//! programs across calls — because the differential suites compare
//! reports across solvers, job counts, and cache states.

use tir::{CmpOp, Cond, MethodId, Operand, Program, ProgramBuilder, Ty};

/// One null-dereference code pattern. [`NullMotif::expect_alarm`] is the
/// per-motif ground truth the tests pin.
#[derive(Clone, Debug)]
pub enum NullMotif {
    /// Figure 1 generalized: push `pushes` elements into a fresh vector,
    /// then dereference the element read back from slot `read_at`. The
    /// slot is null (never written) iff `read_at >= pushes`.
    VecGet {
        /// Elements pushed (slots `0..pushes` are written).
        pushes: usize,
        /// Slot read back and dereferenced.
        read_at: usize,
    },
    /// A dereference fed through a two-level static call chain (the
    /// deepest value flow the engine's call-depth bound of 3 (the
    /// paper's) resolves without soundly havocking the return), under which
    /// hangs a `depth`-long chain of side-effect-local "noise" calls.
    /// The noise never touches the query — the frame rule skips it —
    /// but every noise function lands in the decision's call-graph
    /// slice, so the cache fingerprint grows with `depth`. With
    /// `null_source`, a non-deterministic choice may leave the source
    /// null (a real alarm); without it, the null assignment is
    /// overwritten by an allocation before the chain, so the backward
    /// walk refutes by separation (`WitNew`: a fresh instance is never
    /// null) while the flow-insensitive front end still flags the site.
    DeepChain {
        /// Length of the noise call chain under the value chain.
        depth: usize,
        /// True: null reaches the chain on a satisfiable path.
        null_source: bool,
    },
    /// Virtual dispatch over `width` subclasses whose `get` overrides
    /// read a nullable `slot` field. With `null_arm = Some(k)`, subclass
    /// `k` returns `null` outright (a real alarm on the dispatch path
    /// that picks it); with `None`, the slot's only null write is behind
    /// a provably-false flag (refutable).
    WideDispatch {
        /// Number of subclasses in the dispatch fan.
        width: usize,
        /// Index of the override that returns `null`, if any.
        null_arm: Option<usize>,
    },
    /// A satisfiable null flow whose dereference is wrapped in
    /// `if (x != null)`: always refutable, never an alarm.
    GuardedDeref,
}

impl NullMotif {
    /// True if the motif contains a reachable null dereference (the
    /// client must report exactly these).
    pub fn expect_alarm(&self) -> bool {
        match self {
            NullMotif::VecGet { pushes, read_at } => read_at >= pushes,
            NullMotif::DeepChain { null_source, .. } => *null_source,
            NullMotif::WideDispatch { null_arm, .. } => null_arm.is_some(),
            NullMotif::GuardedDeref => false,
        }
    }
}

/// Number of alarms the null client must report on
/// [`build_null_program`]`(groups)`.
pub fn expected_alarms(groups: &[(String, Vec<NullMotif>)]) -> usize {
    groups.iter().flat_map(|(_, ms)| ms).filter(|m| m.expect_alarm()).count()
}

/// Per-group shared declarations: one element class and one Figure 1
/// vector (class + free init/push/get) per tag, so distinct groups share
/// nothing — every dereference in group `A` has a call-graph slice
/// disjoint from group `B`'s, the cache-hostile shape.
struct Group {
    elem: tir::ClassId,
    tag_f: tir::FieldId,
    nvec: tir::ClassId,
    tbl_f: tir::FieldId,
    init: MethodId,
}

fn declare_group(b: &mut ProgramBuilder, tag: &str) -> Group {
    let object = b.object_class();
    let array = b.array_class();
    let elem = b.class(&format!("Elem{tag}"), None);
    let tag_f = b.field(elem, &format!("tag{tag}"), Ty::Ref(object));
    let nvec = b.class(&format!("NVec{tag}"), None);
    let tbl_f = b.field(nvec, &format!("tbl{tag}"), Ty::Ref(array));
    let sz_f = b.field(nvec, &format!("sz{tag}"), Ty::Int);
    let init = b.method(
        None,
        &format!("nv_init{tag}"),
        &[("v", Ty::Ref(nvec)), ("cap", Ty::Int)],
        None,
        |mb| {
            let v = mb.param(0);
            let cap = mb.param(1);
            let e = mb.var("e", Ty::Ref(array));
            mb.new_array(e, &format!("nvtbl{tag}"), cap);
            mb.write_field(v, tbl_f, e);
            mb.write_field(v, sz_f, 0);
        },
    );
    // The slot index is a parameter rather than the `sz` field: recovering
    // `sz`'s value backwards through repeated pushes needs arithmetic over
    // unified heap cells the pure solver deliberately approximates, so an
    // index-from-sz push makes *written* slots unrefutable (a false alarm
    // the interp oracle would reject). With the index explicit, the
    // written/unwritten split is exactly the engine's index-disequality
    // reasoning — the precision Figure 1's refutation actually exercises.
    b.method(
        None,
        &format!("nv_push{tag}"),
        &[("v", Ty::Ref(nvec)), ("i", Ty::Int), ("x", Ty::Ref(elem))],
        None,
        |mb| {
            let v = mb.param(0);
            let i = mb.param(1);
            let x = mb.param(2);
            let t = mb.var("t", Ty::Ref(array));
            let s = mb.var("s", Ty::Int);
            let s2 = mb.var("s2", Ty::Int);
            mb.read_field(t, v, tbl_f);
            mb.write_array(t, i, x);
            mb.read_field(s, v, sz_f);
            mb.binop(s2, tir::BinOp::Add, s, 1);
            mb.write_field(v, sz_f, s2);
        },
    );
    b.method(
        None,
        &format!("nv_get{tag}"),
        &[("v", Ty::Ref(nvec)), ("i", Ty::Int)],
        Some(Ty::Ref(elem)),
        |mb| {
            let v = mb.param(0);
            let i = mb.param(1);
            let t = mb.var("t", Ty::Ref(array));
            let r = mb.var("r", Ty::Ref(elem));
            mb.read_field(t, v, tbl_f);
            mb.read_array(r, t, i);
            mb.ret(r);
        },
    );
    Group { elem, tag_f, nvec, tbl_f, init }
}

/// A balanced binary `choice` tree executing `mk(i)` on arm `i` of `n`.
fn choice_fan(
    mb: &mut tir::MethodBuilder,
    n: usize,
    base: usize,
    mk: &mut dyn FnMut(&mut tir::MethodBuilder, usize),
) {
    if n == 1 {
        mk(mb, base);
    } else {
        let half = n / 2;
        mb.begin_block();
        choice_fan(mb, half, base, mk);
        let left = mb.end_block();
        mb.begin_block();
        choice_fan(mb, n - half, base + half, mk);
        let right = mb.end_block();
        mb.push_choice(left, right);
    }
}

/// Builds one program containing every motif of every group, groups
/// fully isolated from each other (see [`Group`]). Group tags must be
/// distinct; `("", motifs)` gives the undecorated class names.
pub fn build_null_program(groups: &[(String, Vec<NullMotif>)]) -> Program {
    build_impl(groups, false)
}

/// [`build_null_program`] with every motif body wrapped in a
/// non-deterministic `maybe` gate. The static verdict per site is
/// unchanged (the gate adds a path on which the motif simply does not
/// run), but a scripted interpreter oracle can now execute any single
/// motif in isolation — without the gates, the first faulting motif
/// would shadow every later alarm, and no schedule could concretely
/// replay them. [`gated_schedule`] computes the bits.
pub fn build_null_program_gated(groups: &[(String, Vec<NullMotif>)]) -> Program {
    build_impl(groups, true)
}

/// Oracle choice bits driving [`build_null_program_gated`]`(groups)`
/// through exactly one motif (all other gates closed): the `target`
/// `(group index, motif index)` runs on its alarming path when it has
/// one — the null `maybe` taken, the dispatch fan steered to the null
/// arm — and on its most adversarial safe path otherwise. With
/// `target = None` every gate is closed and the program runs to
/// completion touching nothing.
pub fn gated_schedule(
    groups: &[(String, Vec<NullMotif>)],
    target: Option<(usize, usize)>,
) -> Vec<bool> {
    // `Stmt::Choice(a, b)` executes `b` on `true`, `a` on `false`; a
    // `maybe` body is the *first* arm, so `false` opens a gate.
    let mut bits = Vec::new();
    for (gi, (_, motifs)) in groups.iter().enumerate() {
        for (ki, motif) in motifs.iter().enumerate() {
            if target != Some((gi, ki)) {
                bits.push(true); // gate closed: skip this motif
                continue;
            }
            bits.push(false); // gate open
            match motif {
                NullMotif::VecGet { .. } => {}
                NullMotif::DeepChain { null_source, .. } => {
                    if *null_source {
                        bits.push(false); // take the `src := null` arm
                    }
                }
                NullMotif::WideDispatch { width, null_arm } => {
                    // Navigate the balanced fan (`choice_fan`) to the null
                    // arm, or arm 0 for the clean variant.
                    let arm = null_arm.unwrap_or(0);
                    let (mut n, mut base) = (*width, 0usize);
                    while n > 1 {
                        let half = n / 2;
                        if arm < base + half {
                            bits.push(false);
                            n = half;
                        } else {
                            bits.push(true);
                            base += half;
                            n -= half;
                        }
                    }
                }
                NullMotif::GuardedDeref => {
                    bits.push(false); // leave `t` null: the guard must hold
                }
            }
        }
    }
    bits
}

fn build_impl(groups: &[(String, Vec<NullMotif>)], gated: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.object_class();
    let array = b.array_class();

    // Pass 1: shared group declarations + per-motif helpers that must
    // exist before `main` is built.
    struct Plan {
        group: Group,
        /// Per-DeepChain entry method (outermost link).
        chains: Vec<Option<MethodId>>,
        /// Per-WideDispatch base class, nullable slot field, subclasses.
        fans: Vec<Option<(tir::ClassId, tir::FieldId, Vec<tir::ClassId>)>>,
    }
    let mut plans: Vec<Plan> = Vec::new();
    for (tag, motifs) in groups {
        let group = declare_group(&mut b, tag);
        let mut chains = Vec::new();
        let mut fans = Vec::new();
        for (k, motif) in motifs.iter().enumerate() {
            match motif {
                NullMotif::DeepChain { depth, .. } => {
                    let elem = group.elem;
                    // Noise chain: each link allocates and stirs its own
                    // pad object, then calls the next link. Irrelevant to
                    // any null query (no global writes, no Elem writes),
                    // but every link is in main's call-graph slice.
                    let pad = b.class(&format!("Pad{tag}_{k}"), None);
                    let pad_f = b.field(pad, &format!("pad{tag}_{k}"), Ty::Ref(pad));
                    let mut noise: Option<MethodId> = None;
                    for d in 0..=*depth {
                        let inner = noise;
                        let name = format!("noise{tag}_{k}_{d}");
                        let site = name.clone();
                        noise = Some(b.method(None, &name, &[], None, move |mb| {
                            let n = mb.var("n", Ty::Ref(pad));
                            mb.new_obj(n, pad, &site);
                            mb.write_field(n, pad_f, n);
                            if let Some(inner) = inner {
                                mb.call_static(None, inner, &[]);
                            }
                        }));
                    }
                    let noise = noise.expect("at least one noise link");
                    // Two-level value chain: the innermost link hangs the
                    // noise chain off to the side and passes `e` through.
                    let chain0 = b.method(
                        None,
                        &format!("chain{tag}_{k}_0"),
                        &[("e", Ty::Ref(elem))],
                        Some(Ty::Ref(elem)),
                        move |mb| {
                            let e = mb.param(0);
                            mb.call_static(None, noise, &[]);
                            mb.ret(e);
                        },
                    );
                    let chain1 = b.method(
                        None,
                        &format!("chain{tag}_{k}_1"),
                        &[("e", Ty::Ref(elem))],
                        Some(Ty::Ref(elem)),
                        move |mb| {
                            let e = mb.param(0);
                            let r = mb.var("r", Ty::Ref(elem));
                            mb.call_static(Some(r), chain0, &[Operand::Var(e)]);
                            mb.ret(r);
                        },
                    );
                    chains.push(Some(chain1));
                    fans.push(None);
                }
                NullMotif::WideDispatch { width, null_arm } => {
                    let elem = group.elem;
                    let dbase = b.class(&format!("DBase{tag}_{k}"), None);
                    let slot_f = b.field(dbase, &format!("dslot{tag}_{k}"), Ty::Ref(elem));
                    b.method(Some(dbase), "get", &[], Some(Ty::Ref(elem)), |mb| {
                        let r = mb.var("r", Ty::Ref(elem));
                        mb.read_field(r, mb.this(), slot_f);
                        mb.ret(r);
                    });
                    let subs: Vec<tir::ClassId> = (0..*width)
                        .map(|i| {
                            let sub = b.class(&format!("DSub{tag}_{k}_{i}"), Some(dbase));
                            if *null_arm == Some(i) {
                                b.method(Some(sub), "get", &[], Some(Ty::Ref(elem)), |mb| {
                                    mb.ret(Operand::Null);
                                });
                            } else {
                                b.method(Some(sub), "get", &[], Some(Ty::Ref(elem)), |mb| {
                                    let r = mb.var("r", Ty::Ref(elem));
                                    mb.read_field(r, mb.this(), slot_f);
                                    mb.ret(r);
                                });
                            }
                            sub
                        })
                        .collect();
                    chains.push(None);
                    fans.push(Some((dbase, slot_f, subs)));
                }
                _ => {
                    chains.push(None);
                    fans.push(None);
                }
            }
        }
        plans.push(Plan { group, chains, fans });
    }

    // Pass 2: main body, one motif instance at a time.
    let main = b.method(None, "main", &[], None, |mb| {
        for (plan, (tag, motifs)) in plans.iter().zip(groups) {
            let g = &plan.group;
            for (k, motif) in motifs.iter().enumerate() {
                let u = format!("{tag}_{k}");
                let sink = mb.var(&format!("sink_{u}"), Ty::Ref(object));
                if gated {
                    mb.begin_block();
                }
                match motif {
                    NullMotif::VecGet { pushes, read_at } => {
                        // Writes and read go through ONE table local: the
                        // engine's §3.3 disaliasing drops index
                        // disequalities between *distinct* base symbols,
                        // so a written-slot read is only refutable when
                        // the write's base is already the queried cell's
                        // owner — i.e. the same local, no call boundary
                        // in between. (`nv_push`/`nv_get` stay in the
                        // program as the call-shaped variants of the same
                        // accesses; their slots are never read here.)
                        let v = mb.var(&format!("v_{u}"), Ty::Ref(g.nvec));
                        let t = mb.var(&format!("t_{u}"), Ty::Ref(array));
                        let e = mb.var(&format!("e_{u}"), Ty::Ref(g.elem));
                        mb.new_obj(v, g.nvec, &format!("nv_{u}"));
                        let cap = (pushes.max(read_at) + 1) as i64;
                        mb.call_static(None, g.init, &[Operand::Var(v), Operand::Int(cap)]);
                        mb.read_field(t, v, g.tbl_f);
                        for i in 0..*pushes {
                            let el = mb.var(&format!("el_{u}_{i}"), Ty::Ref(g.elem));
                            mb.new_obj(el, g.elem, &format!("el_{u}_{i}"));
                            mb.write_array(t, i as i64, el);
                        }
                        mb.read_array(e, t, *read_at as i64);
                        mb.read_field(sink, e, g.tag_f);
                    }
                    NullMotif::DeepChain { null_source, .. } => {
                        let entry = plan.chains[k].expect("declared");
                        let src = mb.var(&format!("src_{u}"), Ty::Ref(g.elem));
                        let e = mb.var(&format!("ce_{u}"), Ty::Ref(g.elem));
                        if *null_source {
                            mb.new_obj(src, g.elem, &format!("src_{u}"));
                            mb.maybe(|mb| {
                                mb.assign_null(src);
                            });
                        } else {
                            // The null is dead by *separation*, not by an
                            // infeasible path: the allocation overwrites it
                            // before the chain, and a discharged backward
                            // query would otherwise be witnessed the moment
                            // the guarded `src := null` consumed its last
                            // constraint — before any enclosing guard is
                            // applied (witnesses are may-witnesses).
                            mb.assign_null(src);
                            mb.new_obj(src, g.elem, &format!("src_{u}"));
                        }
                        mb.call_static(Some(e), entry, &[Operand::Var(src)]);
                        mb.read_field(sink, e, g.tag_f);
                    }
                    NullMotif::WideDispatch { width, null_arm } => {
                        let (dbase, slot_f, subs) = plan.fans[k].as_ref().expect("declared");
                        let slot_f = *slot_f;
                        let h = mb.var(&format!("h_{u}"), Ty::Ref(*dbase));
                        let el = mb.var(&format!("del_{u}"), Ty::Ref(g.elem));
                        let e = mb.var(&format!("de_{u}"), Ty::Ref(g.elem));
                        let subs = subs.clone();
                        let u2 = u.clone();
                        choice_fan(mb, *width, 0, &mut |mb, i| {
                            mb.new_obj(h, subs[i], &format!("disp_{u2}_{i}"));
                        });
                        mb.new_obj(el, g.elem, &format!("del_{u}"));
                        mb.write_field(h, slot_f, el);
                        if null_arm.is_none() {
                            // A provably-dead null write keeps the slot
                            // nullable for the front end; the engine
                            // refutes the path.
                            let f = mb.var(&format!("df_{u}"), Ty::Int);
                            mb.assign(f, 0);
                            mb.if_then(Cond::cmp(CmpOp::Eq, f, 1), |mb| {
                                mb.write_field(h, slot_f, Operand::Null);
                            });
                        }
                        mb.call_virtual(Some(e), h, "get", &[]);
                        mb.read_field(sink, e, g.tag_f);
                    }
                    NullMotif::GuardedDeref => {
                        let t = mb.var(&format!("t_{u}"), Ty::Ref(g.elem));
                        mb.new_obj(t, g.elem, &format!("gd_{u}"));
                        mb.maybe(|mb| {
                            mb.assign_null(t);
                        });
                        mb.if_then(Cond::cmp(CmpOp::Ne, t, Operand::Null), |mb| {
                            mb.read_field(sink, t, g.tag_f);
                        });
                    }
                }
                if gated {
                    let body = mb.end_block();
                    mb.push_choice(body, tir::Stmt::Skip);
                }
            }
        }
    });
    b.set_entry(main);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_of_each_builds_and_counts() {
        let groups = vec![(
            String::new(),
            vec![
                NullMotif::VecGet { pushes: 1, read_at: 2 },
                NullMotif::DeepChain { depth: 3, null_source: false },
                NullMotif::WideDispatch { width: 3, null_arm: Some(1) },
                NullMotif::GuardedDeref,
            ],
        )];
        let p = build_null_program(&groups);
        assert!(p.class_by_name("NVec").is_some());
        assert!(p.num_cmds() > 0);
        assert_eq!(expected_alarms(&groups), 2);
        // Determinism: two builds print identically.
        assert_eq!(tir::print_program(&p), tir::print_program(&build_null_program(&groups)));
    }
}
