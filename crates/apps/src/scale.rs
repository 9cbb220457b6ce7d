//! Deterministic scalable corpus for solver benchmarking.
//!
//! [`scaled_program`] replicates the suite's structural motifs — copy rings
//! through mutual recursion, field load/store chains, virtual dispatch
//! fans, global hand-offs — across `scale` *modules*, each with its own
//! classes, fields, globals, and allocation sites. Module `m`'s recursion
//! ring feeds module `(m + 1) % scale`'s, so the copy edges of the whole
//! program close into one large cycle: exactly the shape where online
//! cycle collapsing pays off and naive full-set propagation churns.
//!
//! The generator is a pure function of `scale` (no randomness, no
//! iteration-order dependence), so two calls build byte-identical
//! programs — a requirement for the differential tests and the
//! propagation-count regression gate in CI.

use tir::{MethodId, Operand, Program, ProgramBuilder, Ty};

/// Number of functions in each module's mutual-recursion ring.
const RING_LEN: usize = 3;

/// Builds a deterministic benchmark program with `scale` modules.
///
/// Each module contributes: a linked-list class `Data{m}` (fields
/// `next{m}`, `payload{m}`), a dispatch hierarchy `Base{m}` /
/// `SubA{m}` / `SubB{m}` with a virtual `get`, globals `G{m}` and
/// `H{m}`, a [`RING_LEN`]-function copy ring (`ring{m}_i`), and a driver
/// `drive{m}` invoked from `main`.
///
/// # Panics
///
/// Panics if `scale` is zero.
pub fn scaled_program(scale: usize) -> Program {
    assert!(scale > 0, "scale must be at least 1");
    let mut b = ProgramBuilder::new();
    let object = b.object_class();

    // Pass 1: declare every class, field, global, and method signature so
    // ring bodies can reference their successors (including the wrap-around
    // link into the next module) before those are defined.
    let mut data = Vec::new();
    let mut next_f = Vec::new();
    let mut payload_f = Vec::new();
    let mut base = Vec::new();
    let mut slot_f = Vec::new();
    let mut sub_a = Vec::new();
    let mut sub_b = Vec::new();
    let mut g_glob = Vec::new();
    let mut h_glob = Vec::new();
    let mut x_glob = Vec::new();
    for m in 0..scale {
        let d = b.class(&format!("Data{m}"), None);
        data.push(d);
        next_f.push(b.field(d, &format!("next{m}"), Ty::Ref(d)));
        payload_f.push(b.field(d, &format!("payload{m}"), Ty::Ref(object)));
        let bs = b.class(&format!("Base{m}"), None);
        base.push(bs);
        slot_f.push(b.field(bs, &format!("slot{m}"), Ty::Ref(object)));
        sub_a.push(b.class(&format!("SubA{m}"), Some(bs)));
        sub_b.push(b.class(&format!("SubB{m}"), Some(bs)));
        g_glob.push(b.global(&format!("G{m}"), Ty::Ref(object)));
        h_glob.push(b.global(&format!("H{m}"), Ty::Ref(d)));
        x_glob.push(b.global(&format!("X{m}"), Ty::Ref(object)));
    }
    let obj = Ty::Ref(object);
    let mut rings: Vec<Vec<MethodId>> = Vec::new();
    for m in 0..scale {
        rings.push(
            (0..RING_LEN)
                .map(|i| b.declare_method(None, &format!("ring{m}_{i}"), &[("x", obj)], Some(obj)))
                .collect(),
        );
    }
    let drives: Vec<MethodId> =
        (0..scale).map(|m| b.declare_method(None, &format!("drive{m}"), &[], None)).collect();

    // Pass 2: bodies.
    for m in 0..scale {
        // Copy ring: `r = x; maybe { r = ring_next(r) }; return r`. The
        // call edges arg -> param and ret -> r close copy cycles across
        // the ring, and ring{m}_0 additionally feeds ring{m+1}_0 so every
        // module's ring joins one program-wide cycle.
        for i in 0..RING_LEN {
            let succ = rings[m][(i + 1) % RING_LEN];
            let cross = (i == 0).then(|| rings[(m + 1) % scale][0]);
            b.define_method(rings[m][i], |mb| {
                let x = mb.param(0);
                let r = mb.var("r", obj);
                mb.assign(r, x);
                mb.maybe(|mb| {
                    mb.call_static(Some(r), succ, &[Operand::Var(x)]);
                });
                if let Some(cross) = cross {
                    mb.maybe(|mb| {
                        mb.call_static(Some(r), cross, &[Operand::Var(r)]);
                    });
                }
                mb.ret(r);
            });
        }

        // Virtual dispatch: `get` bounces its argument through `slot{m}`.
        // `SubA` also publishes to the module's global; `SubB` returns a
        // fresh allocation alongside, so the two overrides diverge.
        b.method(Some(base[m]), "get", &[("p", obj)], Some(obj), |mb| {
            let this = mb.this();
            let p = mb.param(0);
            let q = mb.var("q", obj);
            mb.write_field(this, slot_f[m], p);
            mb.read_field(q, this, slot_f[m]);
            mb.ret(q);
        });
        b.method(Some(sub_a[m]), "get", &[("p", obj)], Some(obj), |mb| {
            let this = mb.this();
            let p = mb.param(0);
            let q = mb.var("q", obj);
            mb.write_field(this, slot_f[m], p);
            mb.read_field(q, this, slot_f[m]);
            mb.write_global(g_glob[m], q);
            mb.ret(q);
        });
        b.method(Some(sub_b[m]), "get", &[("p", obj)], Some(obj), |mb| {
            let this = mb.this();
            let p = mb.param(0);
            let q = mb.var("q", obj);
            mb.write_field(this, slot_f[m], p);
            mb.read_field(q, this, slot_f[m]);
            mb.maybe(|mb| {
                mb.new_obj(q, mb.program_builder().object_class(), &format!("extra{m}"));
            });
            mb.ret(q);
        });

        let drive = drives[m];
        b.define_method(drive, |mb| {
            // Seed the ring with a module-distinct allocation and publish
            // the (cyclically smeared) result.
            let o = mb.var("o", obj);
            mb.new_obj(o, object, &format!("seed{m}"));
            let out = mb.var("out", obj);
            mb.call_static(Some(out), rings[m][0], &[Operand::Var(o)]);
            mb.write_global(g_glob[m], out);

            // Field chain: build a nondeterministically long `Data{m}`
            // list, stash the ring output in its head, read it back out
            // through the `next{m}` spine.
            let d = Ty::Ref(data[m]);
            let h = mb.var("h", d);
            mb.new_obj(h, data[m], &format!("head{m}"));
            let cur = mb.var("cur", d);
            mb.assign(cur, h);
            mb.loop_(|mb| {
                let n = mb.var("n", d);
                mb.new_obj(n, data[m], &format!("node{m}"));
                mb.write_field(n, next_f[m], cur);
                mb.assign(cur, n);
            });
            mb.write_field(cur, payload_f[m], out);
            mb.write_global(h_glob[m], cur);
            let t = mb.var("t", d);
            mb.read_field(t, cur, next_f[m]);
            let p2 = mb.var("p2", obj);
            mb.read_field(p2, t, payload_f[m]);
            mb.write_global(g_glob[m], p2);

            // Dispatch fan: the receiver is one of two subclasses, so the
            // on-the-fly call graph must resolve both `get` overrides.
            let recv = mb.var("recv", Ty::Ref(base[m]));
            mb.choice(
                |mb| {
                    mb.new_obj(recv, sub_a[m], &format!("suba{m}"));
                },
                |mb| {
                    mb.new_obj(recv, sub_b[m], &format!("subb{m}"));
                },
            );
            let got = mb.var("got", obj);
            mb.call_virtual(Some(got), recv, "get", &[Operand::Var(out)]);
            mb.write_global(g_glob[m], got);

            // Copy-cycle motif: three locals assigned in a ring form an
            // immediate var-level copy cycle (Andersen is flow-insensitive,
            // so `u = w` closes it without any loop), and the module reads
            // its predecessor's `X` global while publishing its own, so the
            // per-module cycles chain through X{0..scale} into one
            // program-wide SCC — the shape the online collapser (and the
            // incremental SCC-split path) must handle at every scale.
            let u = mb.var("u", obj);
            let v = mb.var("v", obj);
            let w = mb.var("w", obj);
            mb.new_obj(u, object, &format!("cyc{m}"));
            mb.assign(v, u);
            mb.assign(w, v);
            mb.assign(u, w);
            mb.read_global(u, x_glob[(m + scale - 1) % scale]);
            mb.write_global(x_glob[m], w);
            mb.ret_void();
        });
    }

    let main = b.method(None, "main", &[], None, |mb| {
        for &drive in &drives {
            mb.call_static(None, drive, &[]);
        }
        mb.ret_void();
    });
    b.set_entry(main);
    b.finish()
}

/// The motif mix [`scaled_null_program`] builds: one isolated group per
/// module, parameters varied deterministically by module index so every
/// scale mixes safe and alarming instances of all four
/// [`crate::null_motifs::NullMotif`] shapes.
pub fn scaled_null_groups(scale: usize) -> Vec<(String, Vec<crate::null_motifs::NullMotif>)> {
    use crate::null_motifs::NullMotif;
    assert!(scale > 0, "scale must be at least 1");
    (0..scale)
        .map(|m| {
            let motifs = vec![
                NullMotif::VecGet { pushes: 1 + m % 3, read_at: m % 4 },
                NullMotif::DeepChain { depth: 2 + m % 3, null_source: m % 2 == 1 },
                NullMotif::WideDispatch {
                    width: 2 + m % 3,
                    null_arm: if m % 4 == 1 { Some(m % 2) } else { None },
                },
                NullMotif::GuardedDeref,
            ];
            (format!("N{m}"), motifs)
        })
        .collect()
}

/// Deterministic null-dereference corpus with `scale` isolated modules.
///
/// The cache-hostile counterpart of [`scaled_program`] for the null
/// client: deep static call chains and wide dispatch fans over nullable
/// fields mean each dereference query drags a large, mostly-disjoint
/// slice into its cache fingerprint. Pure function of `scale`, like
/// every generator here.
///
/// # Panics
///
/// Panics if `scale` is zero.
pub fn scaled_null_program(scale: usize) -> Program {
    crate::null_motifs::build_null_program(&scaled_null_groups(scale))
}

/// Ground-truth alarm count for [`scaled_null_program`]`(scale)`.
pub fn expected_null_alarms(scale: usize) -> usize {
    crate::null_motifs::expected_alarms(&scaled_null_groups(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = tir::print_program(&scaled_program(4));
        let b = tir::print_program(&scaled_program(4));
        assert_eq!(a, b);
    }

    #[test]
    fn scales_the_program() {
        let small = scaled_program(1);
        let big = scaled_program(8);
        assert!(big.method_ids().count() > small.method_ids().count());
        assert!(tir::print_program(&big).len() > 4 * tir::print_program(&small).len());
    }

    #[test]
    fn solvers_agree_on_scaled_corpus() {
        use pta::{analyze_reference, analyze_with, ContextPolicy, PtaOptions};
        let p = scaled_program(3);
        let delta = analyze_with(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let reference = analyze_reference(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        assert_eq!(delta.dump(&p), reference.dump(&p));
        // The ring smears every module's seed into every module's global.
        let g0 = p.global_by_name("G0").unwrap();
        assert!(delta.pt_global(g0).len() >= 3);
    }

    /// A hand-built three-variable assignment ring must be detected and
    /// collapsed by the delta solver's lazy cycle detection — the unit
    /// the scaled corpus's copy-cycle motif exercises in bulk.
    #[test]
    fn hand_built_copy_cycle_collapses() {
        use pta::{analyze_reference, analyze_with, ContextPolicy, PtaOptions};
        let mut b = ProgramBuilder::new();
        let object = b.object_class();
        let obj = Ty::Ref(object);
        let main = b.method(None, "main", &[], None, |mb| {
            let a = mb.var("a", obj);
            let x = mb.var("x", obj);
            let y = mb.var("y", obj);
            mb.new_obj(a, object, "seed");
            mb.assign(x, a);
            mb.assign(y, x);
            mb.assign(a, y);
            mb.ret_void();
        });
        b.set_entry(main);
        let p = b.finish();

        let _serial = obs::test_lock();
        let rec = obs::MemRecorder::install_static(obs::RingCapacity::default());
        rec.reset();
        let delta = analyze_with(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        assert!(
            rec.counter(obs::Counter::PtaSccsCollapsed) >= 1,
            "three-variable assignment ring was not collapsed"
        );
        let reference = analyze_reference(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        assert_eq!(delta.dump(&p), reference.dump(&p));
    }

    /// The multi-module copy-cycle motif must give the collapser real work
    /// at every scale, and collapsing must never change the answer.
    #[test]
    fn copy_cycle_motif_collapses_at_several_scales() {
        use pta::{analyze_reference, analyze_with, ContextPolicy, PtaOptions};
        let _serial = obs::test_lock();
        let rec = obs::MemRecorder::install_static(obs::RingCapacity::default());
        for scale in [2, 4, 8] {
            let p = scaled_program(scale);
            rec.reset();
            let delta = analyze_with(&p, ContextPolicy::Insensitive, &PtaOptions::default());
            let collapsed = rec.counter(obs::Counter::PtaSccsCollapsed);
            assert!(collapsed >= 1, "no SCC collapsed at scale {scale}");
            let reference =
                analyze_reference(&p, ContextPolicy::Insensitive, &PtaOptions::default());
            assert_eq!(delta.dump(&p), reference.dump(&p), "solvers disagree at scale {scale}");
        }
    }
}
