//! Programmatic construction of [`Program`]s.
//!
//! [`ProgramBuilder`] owns the [`Program`] while building and declares
//! through the same lowering as [`crate::parse`]; [`MethodBuilder`] is a
//! statement-level DSL handed to method-body closures:
//!
//! ```
//! use tir::{ProgramBuilder, Ty, CmpOp, Cond, Operand};
//!
//! let mut b = ProgramBuilder::new();
//! let cell = b.class("Cell", None);
//! let val = b.field(cell, "val", Ty::Int);
//! let main = b.method(None, "main", &[], None, |mb| {
//!     let c = mb.var("c", Ty::Ref(cell));
//!     mb.new_obj(c, cell, "cell0");
//!     mb.write_field(c, val, 41);
//!     mb.ret_void();
//! });
//! b.set_entry(main);
//! let program = b.finish();
//! assert_eq!(program.entry(), main);
//! ```

use crate::ids::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, VarId};
use crate::lower::Scope;
use crate::program::{Program, Ty};
use crate::stmt::{BinOp, Callee, CmpOp, Command, Cond, Operand, Stmt};

/// Builds a [`Program`] incrementally (see the module-level documentation).
///
/// Declarations follow [`crate::parse`]'s rules; a duplicate name panics.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    alloc_counter: usize,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Unwraps a declaration; a broken declaration rule is a bug in the caller.
fn declared<T>(declaration: Result<T, String>) -> T {
    declaration.unwrap_or_else(|message| panic!("{message}"))
}

impl ProgramBuilder {
    /// Creates a builder pre-populated with the builtin `Object` and `Array`
    /// classes.
    pub fn new() -> Self {
        ProgramBuilder { program: Program::with_builtins(), alloc_counter: 0 }
    }

    /// The builtin root class.
    pub fn object_class(&self) -> ClassId {
        self.program.object_class
    }

    /// The builtin array class.
    pub fn array_class(&self) -> ClassId {
        self.program.array_class
    }

    /// The synthetic array `contents` field.
    pub fn contents_field(&self) -> FieldId {
        self.program.contents_field
    }

    /// The synthetic array `len` field.
    pub fn len_field(&self) -> FieldId {
        self.program.len_field
    }

    /// Declares a class. `superclass = None` makes it derive from `Object`.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name already exists.
    pub fn class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        let superclass = superclass.unwrap_or(self.program.object_class);
        declared(self.program.declare_class(name, Some(superclass)))
    }

    /// Declares an instance field on `class`; panics if `class` already
    /// declares one of that name.
    pub fn field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        declared(self.program.declare_field(class, name, ty))
    }

    /// Declares a global variable (static field).
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name already exists.
    pub fn global(&mut self, name: &str, ty: Ty) -> GlobalId {
        declared(self.program.declare_global(name, ty))
    }

    /// Declares a method without a body (for mutual recursion). Define the
    /// body later with [`ProgramBuilder::define_method`].
    ///
    /// For instance methods (`class = Some(..)`), a `this` parameter is
    /// created implicitly as `params[0]`. Panics on a name the class (or,
    /// for a free function, the program) already has, or on two parameters
    /// of one name.
    pub fn declare_method(
        &mut self,
        class: Option<ClassId>,
        name: &str,
        params: &[(&str, Ty)],
        ret_ty: Option<Ty>,
    ) -> MethodId {
        declared(self.program.declare_method(class, name, params, ret_ty))
    }

    /// Defines the body of a previously declared method.
    pub fn define_method(&mut self, id: MethodId, f: impl FnOnce(&mut MethodBuilder)) {
        let scope = Scope::of(&self.program, id);
        let mut mb = MethodBuilder { pb: self, scope, current: Vec::new(), outer: Vec::new() };
        f(&mut mb);
        assert!(mb.outer.is_empty(), "unbalanced control-flow nesting");
        let body = Stmt::Seq(mb.current);
        self.program.methods[id.index()].body = body;
    }

    /// Declares and defines a method in one step.
    pub fn method(
        &mut self,
        class: Option<ClassId>,
        name: &str,
        params: &[(&str, Ty)],
        ret_ty: Option<Ty>,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> MethodId {
        let id = self.declare_method(class, name, params, ret_ty);
        self.define_method(id, f);
        id
    }

    /// Sets the entry method (the harness `main`).
    pub fn set_entry(&mut self, m: MethodId) {
        self.program.entry = Some(m);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (see [`crate::validate`]).
    pub fn finish(self) -> Program {
        match self.try_finish() {
            Ok(p) => p,
            Err(e) => panic!("invalid program: {e}"),
        }
    }

    /// Finalizes the program, returning validation failures as errors.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::validate::ValidateError`] found.
    pub fn try_finish(self) -> Result<Program, crate::validate::ValidateError> {
        crate::validate::validate(&self.program)?;
        Ok(self.program)
    }
}

/// Statement-level DSL for one method body. Obtained from
/// [`ProgramBuilder::method`] / [`ProgramBuilder::define_method`].
#[derive(Debug)]
pub struct MethodBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    scope: Scope,
    /// The statement frame currently receiving commands. Representing the
    /// innermost frame as a plain field (instead of the top of a stack)
    /// makes "no open frame" unrepresentable, so the builder never panics
    /// on frame access.
    current: Vec<Stmt>,
    /// Enclosing frames suspended by open nested blocks, outermost first.
    outer: Vec<Vec<Stmt>>,
}

impl<'a> MethodBuilder<'a> {
    /// The method being built.
    pub fn method_id(&self) -> MethodId {
        self.scope.method
    }

    /// The implicit `this` parameter.
    ///
    /// # Panics
    ///
    /// Panics if the method is not an instance method.
    pub fn this(&self) -> VarId {
        let m = self.pb.program.method(self.method_id());
        assert!(m.class.is_some(), "free function has no `this`");
        m.params[0]
    }

    /// The `i`-th declared parameter (0-based, *excluding* `this`).
    pub fn param(&self, i: usize) -> VarId {
        let m = self.pb.program.method(self.method_id());
        let off = usize::from(m.class.is_some());
        m.params[off + i]
    }

    /// Read-only access to the underlying program builder.
    pub fn program_builder(&self) -> &ProgramBuilder {
        self.pb
    }

    /// Declares a fresh local variable; panics if the method already has a
    /// local or parameter of that name.
    pub fn var(&mut self, name: &str, ty: Ty) -> VarId {
        declared(self.scope.declare(&mut self.pb.program, name, ty))
    }

    fn push_cmd(&mut self, cmd: Command) -> CmdId {
        let id = self.pb.program.push_cmd(self.scope.method, cmd);
        self.current.push(Stmt::Cmd(id));
        id
    }

    /// `dst = src`
    pub fn assign(&mut self, dst: VarId, src: impl Into<Operand>) -> CmdId {
        self.push_cmd(Command::Assign { dst, src: src.into() })
    }

    /// `dst = null`
    pub fn assign_null(&mut self, dst: VarId) -> CmdId {
        self.push_cmd(Command::Assign { dst, src: Operand::Null })
    }

    /// `dst = lhs op rhs`
    pub fn binop(
        &mut self,
        dst: VarId,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> CmdId {
        self.push_cmd(Command::BinOp { dst, op, lhs: lhs.into(), rhs: rhs.into() })
    }

    /// `dst = obj.field`
    pub fn read_field(&mut self, dst: VarId, obj: VarId, field: FieldId) -> CmdId {
        self.push_cmd(Command::ReadField { dst, obj, field })
    }

    /// `obj.field = src`
    pub fn write_field(&mut self, obj: VarId, field: FieldId, src: impl Into<Operand>) -> CmdId {
        self.push_cmd(Command::WriteField { obj, field, src: src.into() })
    }

    /// `dst = $global`
    pub fn read_global(&mut self, dst: VarId, global: GlobalId) -> CmdId {
        self.push_cmd(Command::ReadGlobal { dst, global })
    }

    /// `$global = src`
    pub fn write_global(&mut self, global: GlobalId, src: impl Into<Operand>) -> CmdId {
        self.push_cmd(Command::WriteGlobal { global, src: src.into() })
    }

    /// `dst = arr[idx]`
    pub fn read_array(&mut self, dst: VarId, arr: VarId, idx: impl Into<Operand>) -> CmdId {
        self.push_cmd(Command::ReadArray { dst, arr, idx: idx.into() })
    }

    /// `arr[idx] = src`
    pub fn write_array(
        &mut self,
        arr: VarId,
        idx: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> CmdId {
        self.push_cmd(Command::WriteArray { arr, idx: idx.into(), src: src.into() })
    }

    /// `dst = len(arr)`
    pub fn array_len(&mut self, dst: VarId, arr: VarId) -> CmdId {
        self.push_cmd(Command::ArrayLen { dst, arr })
    }

    fn fresh_alloc(&mut self, name: &str, class: ClassId) -> AllocId {
        let name = if name.is_empty() {
            self.pb.alloc_counter += 1;
            let class = self.pb.program.class(class).name.to_lowercase();
            format!("{class}{}", self.pb.alloc_counter - 1)
        } else {
            name.to_owned()
        };
        declared(self.pb.program.declare_site(self.scope.method, &name, class))
    }

    /// `dst = new class @site`. Pass an empty `site` name to auto-generate
    /// one. Returns the allocation site id; panics if the program already
    /// has a site of that name.
    pub fn new_obj(&mut self, dst: VarId, class: ClassId, site: &str) -> AllocId {
        let alloc = self.fresh_alloc(site, class);
        self.push_cmd(Command::New { dst, class, alloc });
        alloc
    }

    /// `dst = newarray @site [len]`. Returns the allocation site id; panics
    /// if the program already has a site of that name.
    pub fn new_array(&mut self, dst: VarId, site: &str, len: impl Into<Operand>) -> AllocId {
        let class = self.pb.program.array_class;
        let alloc = self.fresh_alloc(site, class);
        self.push_cmd(Command::NewArray { dst, alloc, len: len.into() });
        alloc
    }

    /// `dst = call receiver.method(args)` (virtual dispatch).
    pub fn call_virtual(
        &mut self,
        dst: Option<VarId>,
        receiver: VarId,
        method: &str,
        args: &[Operand],
    ) -> CmdId {
        self.push_cmd(Command::Call {
            dst,
            callee: Callee::Virtual { receiver, method: method.to_owned() },
            args: args.to_vec(),
        })
    }

    /// `dst = call method(args)` (direct call).
    pub fn call_static(&mut self, dst: Option<VarId>, method: MethodId, args: &[Operand]) -> CmdId {
        self.push_cmd(Command::Call { dst, callee: Callee::Static { method }, args: args.to_vec() })
    }

    /// `return val`
    pub fn ret(&mut self, val: impl Into<Operand>) -> CmdId {
        self.push_cmd(Command::Return { val: Some(val.into()) })
    }

    /// `return` (void)
    pub fn ret_void(&mut self) -> CmdId {
        self.push_cmd(Command::Return { val: None })
    }

    /// `assume cond`
    pub fn assume(&mut self, cond: Cond) -> CmdId {
        self.push_cmd(Command::Assume { cond })
    }

    /// Shorthand for `assume lhs op rhs`.
    pub fn assume_cmp(
        &mut self,
        op: CmpOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> CmdId {
        self.assume(Cond::cmp(op, lhs, rhs))
    }

    fn nested(&mut self, f: impl FnOnce(&mut MethodBuilder)) -> Stmt {
        self.begin_block();
        f(self);
        self.end_block()
    }

    /// `if (cond) { then } else { else }`
    pub fn if_else(
        &mut self,
        cond: Cond,
        then_f: impl FnOnce(&mut MethodBuilder),
        else_f: impl FnOnce(&mut MethodBuilder),
    ) {
        let then_br = self.nested(then_f);
        let else_br = self.nested(else_f);
        self.push_if(cond, then_br, else_br);
    }

    /// `if (cond) { then }`
    pub fn if_then(&mut self, cond: Cond, then_f: impl FnOnce(&mut MethodBuilder)) {
        self.if_else(cond, then_f, |_| {});
    }

    /// `while (cond) { body }`
    pub fn while_(&mut self, cond: Cond, body_f: impl FnOnce(&mut MethodBuilder)) {
        let body = self.nested(body_f);
        self.push_while(cond, body);
    }

    /// Non-deterministic loop: run the body zero or more times.
    pub fn loop_(&mut self, body_f: impl FnOnce(&mut MethodBuilder)) {
        let body = self.nested(body_f);
        self.push_loop(body);
    }

    /// Non-deterministic branch.
    pub fn choice(
        &mut self,
        left_f: impl FnOnce(&mut MethodBuilder),
        right_f: impl FnOnce(&mut MethodBuilder),
    ) {
        let left = self.nested(left_f);
        let right = self.nested(right_f);
        self.push_choice(left, right);
    }

    /// Non-deterministically run `f` or skip it.
    pub fn maybe(&mut self, f: impl FnOnce(&mut MethodBuilder)) {
        self.choice(f, |_| {});
    }

    // ------------------------------------------------------------------
    // Explicit block primitives. These allow building nested control flow
    // without closures (for generators that thread mutable state through
    // both arms of a branch). Every `begin_block` must be paired with an
    // `end_block`, and the returned statement passed to one of the
    // `push_*` methods.
    // ------------------------------------------------------------------

    /// Opens a nested statement block.
    pub fn begin_block(&mut self) {
        self.outer.push(std::mem::take(&mut self.current));
    }

    /// Closes the innermost block opened by [`MethodBuilder::begin_block`]
    /// and returns it as a statement. Calling it with no open block simply
    /// drains the method-level frame (the closure-based combinators always
    /// keep begin/end balanced).
    pub fn end_block(&mut self) -> Stmt {
        let enclosing = self.outer.pop().unwrap_or_default();
        Stmt::Seq(std::mem::replace(&mut self.current, enclosing))
    }

    /// Appends `if (cond) then_br else else_br` built from explicit blocks.
    pub fn push_if(&mut self, cond: Cond, then_br: Stmt, else_br: Stmt) {
        self.current.push(Stmt::If {
            cond,
            then_br: Box::new(then_br),
            else_br: Box::new(else_br),
        });
    }

    /// Appends `while (cond) body` built from an explicit block.
    pub fn push_while(&mut self, cond: Cond, body: Stmt) {
        self.current.push(Stmt::While { cond, body: Box::new(body) });
    }

    /// Appends a non-deterministic loop built from an explicit block.
    pub fn push_loop(&mut self, body: Stmt) {
        self.current.push(Stmt::Loop(Box::new(body)));
    }

    /// Appends a non-deterministic choice built from explicit blocks.
    pub fn push_choice(&mut self, left: Stmt, right: Stmt) {
        self.current.push(Stmt::Choice(Box::new(left), Box::new(right)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Stmt;

    #[test]
    fn builds_nested_control_flow() {
        let mut b = ProgramBuilder::new();
        let main = b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", Ty::Int);
            mb.assign(x, 0);
            mb.while_(Cond::cmp(CmpOp::Lt, x, 10), |mb| {
                mb.binop(x, BinOp::Add, x, 1);
            });
            mb.if_else(
                Cond::cmp(CmpOp::Eq, x, 10),
                |mb| {
                    mb.assign(x, 1);
                },
                |mb| {
                    mb.assign(x, 2);
                },
            );
            mb.ret_void();
        });
        b.set_entry(main);
        let p = b.finish();
        let body = &p.method(main).body;
        match body {
            Stmt::Seq(ss) => assert_eq!(ss.len(), 4),
            other => panic!("expected seq, got {other:?}"),
        }
        assert_eq!(p.method_cmds(main).len(), 5);
    }

    #[test]
    fn this_param_created_for_instance_methods() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        let m = b.method(Some(c), "id", &[("x", Ty::Int)], Some(Ty::Int), |mb| {
            let this = mb.this();
            assert_eq!(mb.pb.program.var(this).name, "this");
            let x = mb.param(0);
            mb.ret(x);
        });
        let p = b.finish();
        assert_eq!(p.method(m).params.len(), 2);
    }

    #[test]
    fn auto_alloc_names_are_unique() {
        let mut b = ProgramBuilder::new();
        let c = b.class("Widget", None);
        b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", Ty::Ref(c));
            let a0 = mb.new_obj(x, c, "");
            let a1 = mb.new_obj(x, c, "");
            assert_ne!(a0, a1);
            mb.ret_void();
        });
        let p = b.finish();
        let names: Vec<_> = p.alloc_ids().map(|a| p.alloc(a).name.clone()).collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate class C")]
    fn duplicate_class_panics() {
        let mut b = ProgramBuilder::new();
        b.class("C", None);
        b.class("C", None);
    }
}
