//! Virtual-dispatch corner cases for the call-graph construction.

use pta::{analyze, ContextPolicy};
use tir::{parse, Program};

/// Object sensitivity: container sensitivity over every class of
/// `program`.
fn every_class(program: &Program) -> ContextPolicy {
    let names: Vec<&str> = program.class_ids().map(|c| program.class(c).name.as_str()).collect();
    ContextPolicy::containers_named(program, &names)
}

#[test]
fn three_level_override_chain() {
    let p = parse(
        r#"
class A {
  method mk(this: A): Object {
    var o: Object;
    o = new Object @fromA;
    return o;
  }
}
class B extends A { }
class C extends B {
  method mk(this: C): Object {
    var o: Object;
    o = new Object @fromC;
    return o;
  }
}
global OUT: Object;
fn main() {
  var x: A;
  var got: Object;
  choice { x = new B @b0; } or { x = new C @c0; }
  got = call x.mk();
  $OUT = got;
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, ContextPolicy::Insensitive);
    let g = p.global_by_name("OUT").unwrap();
    let names: Vec<String> =
        r.pt_global(g).iter().map(|l| r.loc_name(&p, pta::LocId(l as u32))).collect();
    // B inherits A::mk; C overrides: both results flow.
    assert!(names.contains(&"fromA".to_owned()), "{names:?}");
    assert!(names.contains(&"fromC".to_owned()), "{names:?}");
}

#[test]
fn dispatch_target_set_tracks_receiver_classes() {
    let p = parse(
        r#"
class A {
  method go(this: A) { return; }
}
class B extends A {
  method go(this: B) { return; }
}
fn main() {
  var x: A;
  x = new A @a0;
  call x.go();
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, ContextPolicy::Insensitive);
    let a = p.class_by_name("A").unwrap();
    let b = p.class_by_name("B").unwrap();
    let a_go = p.method_on(a, "go").unwrap();
    let b_go = p.method_on(b, "go").unwrap();
    assert!(r.is_reached(a_go));
    assert!(!r.is_reached(b_go), "B::go has no receiver instances");

    // The call site's target set matches.
    let main = p.entry();
    let call_cmd = p
        .method_cmds(main)
        .into_iter()
        .find(|&c| matches!(p.cmd(c), tir::Command::Call { .. }))
        .unwrap();
    assert_eq!(r.call_targets(call_cmd), &[a_go]);
}

#[test]
fn constructor_style_call_dispatches_to_subclass_receivers_only() {
    let p = parse(
        r#"
class Base {
  field tag: Object;
  method init(this: Base, o: Object) {
    this.tag = o;
  }
}
class Sub extends Base { }
class Unrelated { }
fn main() {
  var s: Sub;
  var u: Unrelated;
  var o: Object;
  s = new Sub @sub0;
  u = new Unrelated @un0;
  o = new Object @obj0;
  call Base::init(s, o);
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, ContextPolicy::Insensitive);
    let base = p.class_by_name("Base").unwrap();
    let tag = p.resolve_field(base, "tag").unwrap();
    let sub0 = r.locs().ids().find(|&l| r.loc_name(&p, l) == "sub0").unwrap();
    let un0 = r.locs().ids().find(|&l| r.loc_name(&p, l) == "un0").unwrap();
    assert!(!r.pt_field(sub0, tag).is_empty());
    assert!(r.pt_field(un0, tag).is_empty());
}

#[test]
fn unreachable_methods_contribute_no_producers() {
    let p = parse(
        r#"
class Box { field item: Object; }
fn never_called(b: Box, o: Object) {
  b.item = o;
}
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = new Object @obj0;
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, ContextPolicy::Insensitive);
    let never = p.free_function("never_called").unwrap();
    assert!(!r.is_reached(never));
    // No heap edge at all since the writer never runs.
    let box_cls = p.class_by_name("Box").unwrap();
    let item = p.resolve_field(box_cls, "item").unwrap();
    let box0 = r.locs().ids().find(|&l| r.loc_name(&p, l) == "box0").unwrap();
    assert!(r.pt_field(box0, item).is_empty());
}

#[test]
fn recursive_virtual_calls_terminate() {
    let p = parse(
        r#"
class Node {
  field next: Node;
  method last(this: Node): Node {
    var n: Node;
    var out: Node;
    n = this.next;
    out = this;
    if (n != null) {
      out = call n.last();
    }
    return out;
  }
}
global TAIL: Node;
fn main() {
  var a: Node;
  var b: Node;
  var t: Node;
  a = new Node @n_a;
  b = new Node @n_b;
  a.next = b;
  t = call a.last();
  $TAIL = t;
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, ContextPolicy::Insensitive);
    let g = p.global_by_name("TAIL").unwrap();
    // Both nodes may be the tail, flow-insensitively.
    assert_eq!(r.pt_global(g).len(), 2);
}

#[test]
fn object_sensitive_receiver_contexts_bound_depth() {
    // Nested containers: Outer holds Inner holds payload. Depth-limited
    // object sensitivity must terminate and still resolve flows.
    let p = parse(
        r#"
class Inner {
  field item: Object;
  method set(this: Inner, o: Object) {
    this.item = o;
  }
}
class Outer {
  field inner: Inner;
  method fill(this: Outer, o: Object) {
    var i: Inner;
    i = new Inner @inner_alloc;
    this.inner = i;
    call i.set(o);
  }
}
global OUT: Object;
fn main() {
  var a: Outer;
  var b: Outer;
  var p1: Object;
  var p2: Object;
  var got: Inner;
  var v: Object;
  a = new Outer @outer_a;
  b = new Outer @outer_b;
  p1 = new Object @pay1;
  p2 = new Object @pay2;
  call a.fill(p1);
  call b.fill(p2);
  got = a.inner;
  v = got.item;
  $OUT = v;
}
entry main;
"#,
    )
    .expect("parse");
    let insens = analyze(&p, ContextPolicy::Insensitive);
    let objsens = analyze(&p, every_class(&p));
    let g = p.global_by_name("OUT").unwrap();
    // Insensitive conflates the two payloads.
    assert_eq!(insens.pt_global(g).len(), 2);
    // Object sensitivity splits the Inner allocations per Outer receiver,
    // so a.inner.item is just pay1.
    let names: Vec<String> =
        objsens.pt_global(g).iter().map(|l| objsens.loc_name(&p, pta::LocId(l as u32))).collect();
    assert_eq!(names, vec!["pay1"], "{}", objsens.dump(&p));
}

#[test]
fn free_function_returns_stay_conflated() {
    // id() called from two sites with different objects: free functions
    // get one context-insensitive instance under every policy, so both
    // globals may hold both objects even with object sensitivity.
    let p = parse(
        r#"
fn id(o: Object): Object {
  return o;
}
global A: Object;
global B: Object;
fn main() {
  var x: Object;
  var y: Object;
  var rx: Object;
  var ry: Object;
  x = new Object @ox;
  y = new Object @oy;
  rx = call id(x);
  ry = call id(y);
  $A = rx;
  $B = ry;
}
entry main;
"#,
    )
    .expect("parse");
    let a = p.global_by_name("A").unwrap();
    let b = p.global_by_name("B").unwrap();
    for policy in [ContextPolicy::Insensitive, every_class(&p)] {
        let r = analyze(&p, policy.clone());
        assert_eq!(r.pt_global(a).len(), 2, "{policy:?}\n{}", r.dump(&p));
        assert_eq!(r.pt_global(b).len(), 2, "{policy:?}");
    }
}

#[test]
fn receiver_recursion_stops_at_depth_bound() {
    // Every grow() allocates the next receiver and recurses on it, so
    // receiver contexts would nest forever. A receiver already qualified
    // three deep dispatches to the unqualified instance, whose `node`
    // starts the chain once more, so the location set is finite.
    let p = parse(
        r#"
class Node {
  field next: Node;
  method grow(this: Node) {
    var n: Node;
    n = new Node @node;
    this.next = n;
    call n.grow();
  }
}
global ROOT: Node;
fn main() {
  var r: Node;
  r = new Node @root;
  call r.grow();
  $ROOT = r;
}
entry main;
"#,
    )
    .expect("parse");
    let r = analyze(&p, every_class(&p));
    let mut names: Vec<String> = r.locs().ids().map(|l| r.loc_name(&p, l)).collect();
    names.sort();
    assert_eq!(
        names,
        [
            "node",
            "node.node",
            "node.node.node",
            "node.node.node.node",
            "root",
            "root.node",
            "root.node.node",
            "root.node.node.node"
        ]
    );
}
