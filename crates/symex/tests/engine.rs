//! End-to-end witness-refutation tests, including the paper's running
//! example (Figure 1) and the `from`-constraint narrowing example
//! (Figure 3).

use pta::{analyze, ContextPolicy, HeapEdge, LocId, ModRef, PtaResult};
use solver::{Atom, Term};
use symex::{Engine, LoopMode, Query, Region, Representation, SearchOutcome, SymexConfig};
use tir::{CmpOp, Program};

struct Setup {
    program: Program,
    pta: PtaResult,
    modref: ModRef,
}

fn setup(src: &str, policy: ContextPolicy) -> Setup {
    let program = tir::parse(src).expect("parse");
    let pta = analyze(&program, policy);
    let modref = ModRef::compute(&program, &pta);
    Setup { program, pta, modref }
}

impl Setup {
    fn engine(&self, config: SymexConfig) -> Engine<'_> {
        Engine::new(&self.program, &self.pta, &self.modref, config)
    }

    fn loc(&self, name: &str) -> LocId {
        self.pta
            .locs()
            .ids()
            .find(|&l| self.pta.loc_name(&self.program, l) == name)
            .unwrap_or_else(|| panic!("no abstract location named {name}"))
    }

    fn field_edge(&self, base: &str, class: &str, field: &str, target: &str) -> HeapEdge {
        let c = self.program.class_by_name(class).expect("class");
        let f = self.program.resolve_field(c, field).expect("field");
        HeapEdge::Field { base: self.loc(base), field: f, target: self.loc(target) }
    }

    fn array_edge(&self, base: &str, target: &str) -> HeapEdge {
        HeapEdge::Field {
            base: self.loc(base),
            field: self.program.contents_field,
            target: self.loc(target),
        }
    }

    fn global_edge(&self, global: &str, target: &str) -> HeapEdge {
        HeapEdge::Global {
            global: self.program.global_by_name(global).expect("global"),
            target: self.loc(target),
        }
    }

    fn refute(&self, edge: &HeapEdge) -> SearchOutcome {
        self.engine(SymexConfig::default()).refute_edge(edge)
    }
}

// ---------------------------------------------------------------------
// Basic witnessed / refuted cases
// ---------------------------------------------------------------------

#[test]
fn direct_global_write_is_witnessed() {
    let s = setup(
        r#"
global G: Object;
fn main() {
  var o: Object;
  o = new Object @obj0;
  $G = o;
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    let out = s.refute(&s.global_edge("G", "obj0"));
    assert!(out.is_witnessed(), "{out:?}");
}

#[test]
fn dead_branch_write_is_refuted() {
    // The guard can never hold, so the global write cannot execute with x
    // pointing at obj0... the points-to analysis still reports the edge.
    let s = setup(
        r#"
global G: Object;
fn main() {
  var o: Object;
  var flag: int;
  o = new Object @obj0;
  flag = 0;
  if (flag == 1) {
    $G = o;
  }
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    let out = s.refute(&s.global_edge("G", "obj0"));
    assert!(out.is_refuted(), "{out:?}");
}

#[test]
fn overwritten_global_still_witnessed_flow_insensitively() {
    // The leak property is flow-insensitive: the edge holds at SOME point,
    // even though it is overwritten later.
    let s = setup(
        r#"
global G: Object;
fn main() {
  var o: Object;
  o = new Object @obj0;
  $G = o;
  $G = null;
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    let out = s.refute(&s.global_edge("G", "obj0"));
    assert!(out.is_witnessed(), "{out:?}");
}

#[test]
fn field_write_witnessed_through_call() {
    let s = setup(
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
        ContextPolicy::Insensitive,
    );
    let out = s.refute(&s.field_edge("box0", "Box", "item", "obj0"));
    assert!(out.is_witnessed(), "{out:?}");
}

#[test]
fn argument_type_mismatch_refutes_call_path() {
    // store() is called once with a String-ish object and once targeting a
    // different box; box0.item -> obj0 requires the (box0, obj0) pairing,
    // which never happens.
    let s = setup(
        r#"
class Box { field item: Object; }
fn store(b: Box, o: Object) {
  b.item = o;
}
fn main() {
  var b1: Box;
  var b2: Box;
  var o: Object;
  var str: Object;
  b1 = new Box @box0;
  b2 = new Box @box1;
  o = new Object @obj0;
  str = new Object @str0;
  call store(b1, str);
  call store(b2, o);
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    // The flow-insensitive analysis conflates both calls and reports all
    // four edges; path-sensitive refutation kills the mismatched pairings.
    assert!(s.refute(&s.field_edge("box0", "Box", "item", "str0")).is_witnessed());
    assert!(s.refute(&s.field_edge("box1", "Box", "item", "obj0")).is_witnessed());
    assert!(s.refute(&s.field_edge("box0", "Box", "item", "obj0")).is_refuted());
    assert!(s.refute(&s.field_edge("box1", "Box", "item", "str0")).is_refuted());
}

#[test]
fn guarded_flag_leak_is_refuted() {
    // The StandupTimer pattern (§4): a latent leak behind a flag that is
    // provably never set.
    let s = setup(
        r#"
global CACHE: Object;
global ENABLED: int;
fn stash(o: Object) {
  var e: int;
  e = $ENABLED;
  if (e == 1) {
    $CACHE = o;
  }
}
fn main() {
  var o: Object;
  $ENABLED = 0;
  o = new Object @act0;
  call stash(o);
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    let out = s.refute(&s.global_edge("CACHE", "act0"));
    assert!(out.is_refuted(), "{out:?}");
}

// ---------------------------------------------------------------------
// Figure 1: the Vec null-object example
// ---------------------------------------------------------------------

const FIG1: &str = r#"
class Activity { }
class Act extends Activity {
  method onCreate(this: Act) {
    var acts: Vec;
    var hello: Object;
    var objs: Vec;
    acts = new Vec @vec1;
    call Vec::init(acts);
    call acts.push(this);
    hello = new Object @hello0;
    objs = $OBJS;
    call objs.push(hello);
  }
}
class Vec {
  field sz: int;
  field cap: int;
  field tbl: array;
  method init(this: Vec) {
    var e: array;
    this.sz = 0;
    this.cap = -1;
    e = $EMPTY;
    this.tbl = e;
  }
  method push(this: Vec, val: Object) {
    var oldtbl: array;
    var sz: int;
    var cap: int;
    var t: int;
    var t2: int;
    var newtbl: array;
    var i: int;
    var x: Object;
    var tbl2: array;
    var sz3: int;
    oldtbl = this.tbl;
    sz = this.sz;
    cap = this.cap;
    if (sz >= cap) {
      t = len(oldtbl);
      t2 = t * 2;
      this.cap = t2;
      newtbl = newarray @arr1 [t2];
      this.tbl = newtbl;
      i = 0;
      while (i < sz) {
        x = oldtbl[i];
        newtbl[i] = x;
        i = i + 1;
      }
    }
    tbl2 = this.tbl;
    sz = this.sz;
    tbl2[sz] = val;
    sz3 = sz + 1;
    this.sz = sz3;
  }
}
global EMPTY: array;
global OBJS: Vec;
fn main() {
  var a: Act;
  var e: array;
  var v: Vec;
  e = newarray @arr0 [1];
  $EMPTY = e;
  v = new Vec @vec0;
  call Vec::init(v);
  $OBJS = v;
  a = new Act @act0;
  call a.onCreate();
}
entry main;
"#;

fn fig1() -> Setup {
    let s = setup(FIG1, ContextPolicy::Insensitive);
    // Sanity: the flow-insensitive analysis IS polluted — it believes the
    // shared EMPTY array may contain the Activity (the false alarm).
    let arr0 = s.loc("arr0");
    let act0 = s.loc("act0");
    assert!(
        s.pta.pt_field(arr0, s.program.contents_field).contains(act0.index()),
        "expected the points-to graph to conflate EMPTY contents:\n{}",
        s.pta.dump(&s.program)
    );
    s
}

#[test]
fn fig1_empty_array_edge_is_refuted() {
    // The headline refutation of §2: arr0.contents -> act0 is unrealizable.
    let s = fig1();
    let out = s.refute(&s.array_edge("arr0", "act0"));
    assert!(out.is_refuted(), "{out:?}");
}

#[test]
fn fig1_empty_array_never_holds_anything() {
    // Nothing is ever written into the shared EMPTY array.
    let s = fig1();
    let out = s.refute(&s.array_edge("arr0", "hello0"));
    assert!(out.is_refuted(), "{out:?}");
}

#[test]
fn fig1_grown_array_edges_are_witnessed() {
    // The real stores land in the grown arr1 arrays.
    let s = fig1();
    assert!(s.refute(&s.array_edge("arr1", "act0")).is_witnessed());
    assert!(s.refute(&s.array_edge("arr1", "hello0")).is_witnessed());
}

#[test]
fn fig1_refutation_needs_path_constraints() {
    // The EMPTY edge falls to the path constraint `sz < cap`, which the
    // constructor's `sz = 0`, `cap = 0` contradicts. Under the engine's cap
    // of two path atoms the query keeps the guard and refutes; with the
    // path-constraint set capped at zero the guard is dropped, so the
    // query survives — dropping path atoms weakens, never refutes.
    let s = fig1();
    assert!(s
        .engine(SymexConfig::default())
        .refute_edge(&s.array_edge("arr0", "act0"))
        .is_refuted());
    for (cap, refuted) in [(2, true), (0, false)] {
        let mut q = Query::new();
        let sz = q.fresh_sym(Region::Data);
        let size = q.fresh_sym(Region::Data);
        q.add_pure(CmpOp::Eq, Term::sym(sz.0), Term::int(0)).unwrap();
        q.add_pure(CmpOp::Eq, Term::sym(size.0), Term::int(0)).unwrap();
        let out = q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(sz.0), Term::sym(size.0)), cap);
        assert_eq!(out.is_err(), refuted, "cap {cap}: {out:?}");
    }
}

#[test]
fn fig1_refuted_under_all_representations() {
    let s = fig1();
    for repr in
        [Representation::Mixed, Representation::FullySymbolic, Representation::FullyExplicit]
    {
        let cfg = SymexConfig::default().with_representation(repr);
        let out = s.engine(cfg).refute_edge(&s.array_edge("arr0", "act0"));
        assert!(out.is_refuted(), "{repr:?}: {out:?}");
    }
}

#[test]
fn fig1_mixed_explores_fewer_paths_than_fully_symbolic() {
    let s = fig1();
    let edge = s.array_edge("arr0", "act0");
    let mut mixed = s.engine(SymexConfig::default());
    mixed.refute_edge(&edge);
    let mut symbolic =
        s.engine(SymexConfig::default().with_representation(Representation::FullySymbolic));
    symbolic.refute_edge(&edge);
    assert!(
        mixed.stats.path_programs <= symbolic.stats.path_programs,
        "mixed {} vs fully symbolic {}",
        mixed.stats.path_programs,
        symbolic.stats.path_programs
    );
}

// ---------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------

#[test]
fn loop_with_irrelevant_body_is_transparent() {
    let s = setup(
        r#"
global G: Object;
fn main() {
  var o: Object;
  var i: int;
  o = new Object @obj0;
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  $G = o;
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.global_edge("G", "obj0")).is_witnessed());
}

#[test]
fn loop_body_write_is_witnessed() {
    let s = setup(
        r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var o: Object;
  var i: int;
  b = new Box @box0;
  o = new Object @obj0;
  i = 0;
  while (i < 3) {
    b.item = o;
    i = i + 1;
  }
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.field_edge("box0", "Box", "item", "obj0")).is_witnessed());
}

#[test]
fn loop_preserved_invariant_refutes() {
    // The loop repeatedly stores into box1, never into box0; full loop
    // invariant inference keeps the boxes separate.
    let s = setup(
        r#"
class Box { field item: Object; }
fn main() {
  var b0: Box;
  var b1: Box;
  var o: Object;
  var i: int;
  b0 = new Box @box0;
  b1 = new Box @box1;
  o = new Object @obj0;
  i = 0;
  while (i < 3) {
    b1.item = o;
    i = i + 1;
  }
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.field_edge("box0", "Box", "item", "obj0")).is_refuted());
    assert!(s.refute(&s.field_edge("box1", "Box", "item", "obj0")).is_witnessed());
}

#[test]
fn drop_all_loop_mode_stays_sound_but_weaker() {
    // Hypothesis 3 (§4): naive loop handling must never unsoundly refute;
    // witnessed edges stay witnessed.
    let s = setup(
        r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var o: Object;
  var i: int;
  b = new Box @box0;
  o = new Object @obj0;
  i = 0;
  while (i < 3) {
    b.item = o;
    i = i + 1;
  }
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    let cfg = SymexConfig::default().with_loop_mode(LoopMode::DropAll);
    let out = s.engine(cfg).refute_edge(&s.field_edge("box0", "Box", "item", "obj0"));
    assert!(!out.is_refuted(), "{out:?}");
}

// ---------------------------------------------------------------------
// Figure 3: narrowing through reads and writes
// ---------------------------------------------------------------------

#[test]
fn fig3_flow_narrowing_refutes_impossible_source() {
    // z = y.f where y.f can only hold b0-objects; asking whether z can be
    // the a0 object is refuted purely by from-constraint narrowing.
    let s = setup(
        r#"
class N { field f: Object; }
global OUT: Object;
fn main() {
  var y: N;
  var a: Object;
  var b: Object;
  var z: Object;
  y = new N @n0;
  a = new Object @a0;
  b = new Object @b0;
  y.f = b;
  z = y.f;
  $OUT = z;
  $OUT = a;
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    // OUT -> a0 witnessed via the direct store; OUT -> b0 witnessed via the
    // read; and the heap edge n0.f -> a0 is not even in the graph.
    assert!(s.refute(&s.global_edge("OUT", "a0")).is_witnessed());
    assert!(s.refute(&s.global_edge("OUT", "b0")).is_witnessed());
    let c = s.program.class_by_name("N").unwrap();
    let f = s.program.resolve_field(c, "f").unwrap();
    assert!(!s.pta.pt_field(s.loc("n0"), f).contains(s.loc("a0").index()));
}

#[test]
fn write_case_split_prunes_disaliased_base() {
    // Two boxes; only box1 is written through the alias. The produced-case
    // narrowing (v_i from pt(x)) refutes box0 immediately.
    let s = setup(
        r#"
class Box { field item: Object; }
fn main() {
  var b0: Box;
  var b1: Box;
  var alias: Box;
  var o: Object;
  b0 = new Box @box0;
  b1 = new Box @box1;
  alias = b1;
  o = new Object @obj0;
  alias.item = o;
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.field_edge("box1", "Box", "item", "obj0")).is_witnessed());
    // pt(alias) = {box1}: the box0 pairing is never reported at all.
    let c = s.program.class_by_name("Box").unwrap();
    let f = s.program.resolve_field(c, "item").unwrap();
    assert!(s.pta.pt_field(s.loc("box0"), f).is_empty());
}

// ---------------------------------------------------------------------
// Interprocedural behaviours
// ---------------------------------------------------------------------

#[test]
fn virtual_dispatch_narrows_receivers() {
    // Only the B override stores into the global; calling through an A
    // reference pointing to an A instance cannot produce the edge.
    let s = setup(
        r#"
class A {
  method go(this: A, o: Object) { return; }
}
class B extends A {
  method go(this: B, o: Object) {
    $SINK = o;
  }
}
global SINK: Object;
fn main() {
  var x: A;
  var o: Object;
  o = new Object @obj0;
  x = new A @a0;
  call x.go(o);
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    // B::go is unreachable: the producer set is empty → vacuous refutation.
    let out = s.refute(&s.global_edge("SINK", "obj0"));
    assert!(out.is_refuted(), "{out:?}");
}

#[test]
fn deep_call_chain_within_bound_is_witnessed() {
    let s = setup(
        r#"
global G: Object;
fn f3(o: Object) { $G = o; }
fn f2(o: Object) { call f3(o); }
fn f1(o: Object) { call f2(o); }
fn main() {
  var o: Object;
  o = new Object @obj0;
  call f1(o);
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.global_edge("G", "obj0")).is_witnessed());
}

#[test]
fn recursion_is_skipped_soundly() {
    let s = setup(
        r#"
global G: Object;
fn rec(o: Object, n: int) {
  var m: int;
  if (n > 0) {
    m = n - 1;
    call rec(o, m);
  }
  $G = o;
}
fn main() {
  var o: Object;
  o = new Object @obj0;
  call rec(o, 3);
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    // Must terminate and must not unsoundly refute.
    let out = s.refute(&s.global_edge("G", "obj0"));
    assert!(!out.is_refuted(), "{out:?}");
}

#[test]
fn budget_exhaustion_reports_timeout() {
    let s = fig1();
    let cfg = SymexConfig::default().with_budget(3);
    let out = s.engine(cfg).refute_edge(&s.array_edge("arr0", "act0"));
    assert!(out.is_timeout(), "{out:?}");
}

#[test]
fn nondeterministic_choice_explores_both_sides() {
    let s = setup(
        r#"
global G: Object;
fn main() {
  var o: Object;
  var p: Object;
  o = new Object @obj0;
  p = new Object @obj1;
  choice {
    $G = o;
  } or {
    $G = p;
  }
}
entry main;
"#,
        ContextPolicy::Insensitive,
    );
    assert!(s.refute(&s.global_edge("G", "obj0")).is_witnessed());
    assert!(s.refute(&s.global_edge("G", "obj1")).is_witnessed());
}

#[test]
fn stats_accumulate() {
    let s = fig1();
    let mut engine = s.engine(SymexConfig::default());
    engine.refute_edge(&s.array_edge("arr0", "act0"));
    assert!(engine.stats.cmds_executed > 0);
    assert!(engine.stats.path_programs > 0);
    assert!(engine.stats.total_refutations() > 0);
}
