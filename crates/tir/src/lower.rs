//! The one lowering from the surface syntax into a [`Program`]'s arenas.
//!
//! [`crate::parse`], the statement and method ops of [`crate::apply_edits`]
//! and [`crate::ProgramBuilder`] declare every name and append every
//! command through this module, so the crate's declaration rules hold
//! whichever way a program was made. [`Names`] indexes the program-wide
//! scopes, a class's own member lists index its scope, and a [`Scope`]
//! indexes one method's locals, so no declaration or lookup scans a whole
//! arena.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use crate::ids::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, VarId};
use crate::parser::{
    ParseError, SCall, SCond, SLvalue, SMethod, SOperand, SProgram, SRvalue, SStmt, STy,
};
use crate::program::{AllocSite, Class, Field, Global, Method, Program, Ty, VarInfo};
use crate::stmt::{Callee, Command, Cond, Operand, Stmt};

/// The program-wide name index: classes, globals, live free functions and
/// every allocation site ever declared. A [`Program`] shares it behind an
/// [`Arc`] with its clones and with an edit batch's rollback record, and
/// copies it on the first declaration.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    pub(crate) classes: HashMap<String, ClassId>,
    pub(crate) globals: HashMap<String, GlobalId>,
    pub(crate) functions: HashMap<String, MethodId>,
    sites: HashMap<String, AllocId>,
}

/// Binds `name` to `id` unless `name` is taken; false if it was.
fn claim<I>(names: &mut HashMap<String, I>, name: &str, id: I) -> bool {
    match names.entry(name.to_owned()) {
        Entry::Occupied(_) => false,
        Entry::Vacant(slot) => {
            slot.insert(id);
            true
        }
    }
}

impl Program {
    /// A program holding only the builtins: `Object`, `Array` and the
    /// array's `contents` and `len` fields.
    pub(crate) fn with_builtins() -> Program {
        let mut p = Program {
            classes: Vec::new(),
            fields: Vec::new(),
            globals: Vec::new(),
            methods: Vec::new(),
            vars: Vec::new(),
            allocs: Vec::new(),
            cmds: Vec::new(),
            cmd_method: Vec::new(),
            entry: None,
            object_class: ClassId(0),
            array_class: ClassId(0),
            contents_field: FieldId(0),
            len_field: FieldId(0),
            names: Arc::default(),
        };
        let object = p.declare_class("Object", None).expect("a fresh program");
        let array = p.declare_class("Array", Some(object)).expect("a fresh program");
        p.contents_field =
            p.declare_field(array, "contents", Ty::Ref(object)).expect("a fresh program");
        p.len_field = p.declare_field(array, "len", Ty::Int).expect("a fresh program");
        p.object_class = object;
        p.array_class = array;
        p
    }

    fn names_mut(&mut self) -> &mut Names {
        Arc::make_mut(&mut self.names)
    }

    /// Declares a class; `superclass` is `None` only for `Object`.
    pub(crate) fn declare_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
    ) -> Result<ClassId, String> {
        let id = ClassId::from_index(self.classes.len());
        if !claim(&mut self.names_mut().classes, name, id) {
            return Err(format!("duplicate class {name}"));
        }
        self.classes.push(Class {
            name: name.to_owned(),
            superclass,
            fields: Vec::new(),
            methods: Vec::new(),
        });
        Ok(id)
    }

    /// Re-points `class` at the superclass named `name`.
    fn extend(&mut self, class: ClassId, name: &str) -> Result<(), String> {
        let sup = self.class_by_name(name).ok_or_else(|| format!("unknown superclass {name}"))?;
        if self.is_subclass(sup, class) {
            let class = &self.class(class).name;
            return Err(format!("class {class} cannot extend {name}: {name} derives from {class}"));
        }
        self.classes[class.index()].superclass = Some(sup);
        Ok(())
    }

    /// Declares an instance field on `class`.
    pub(crate) fn declare_field(
        &mut self,
        class: ClassId,
        name: &str,
        ty: Ty,
    ) -> Result<FieldId, String> {
        if self.class(class).fields.iter().any(|&f| self.field(f).name == name) {
            return Err(format!("duplicate field {name} on class {}", self.class(class).name));
        }
        let id = FieldId::from_index(self.fields.len());
        self.fields.push(Field { name: name.to_owned(), owner: class, ty });
        self.classes[class.index()].fields.push(id);
        Ok(id)
    }

    /// Declares a global variable.
    pub(crate) fn declare_global(&mut self, name: &str, ty: Ty) -> Result<GlobalId, String> {
        let id = GlobalId::from_index(self.globals.len());
        if !claim(&mut self.names_mut().globals, name, id) {
            return Err(format!("duplicate global {name}"));
        }
        self.globals.push(Global { name: name.to_owned(), ty });
        Ok(id)
    }

    /// Declares a method with an empty body: on `class`, or a free function
    /// if `None`. An instance method gets the implicit `this` as
    /// `params[0]`, ahead of `params`.
    pub(crate) fn declare_method(
        &mut self,
        class: Option<ClassId>,
        name: &str,
        params: &[(&str, Ty)],
        ret_ty: Option<Ty>,
    ) -> Result<MethodId, String> {
        let id = MethodId::from_index(self.methods.len());
        match class {
            Some(c) if self.method_on(c, name).is_some() => {
                return Err(format!("duplicate method {name} on class {}", self.class(c).name));
            }
            Some(c) => self.classes[c.index()].methods.push(id),
            None if !claim(&mut self.names_mut().functions, name, id) => {
                return Err(format!("duplicate function {name}"));
            }
            None => {}
        }
        self.methods.push(Method {
            name: name.to_owned(),
            class,
            params: Vec::new(),
            locals: Vec::new(),
            ret_ty,
            body: Stmt::Skip,
            removed: false,
        });
        let mut scope = Scope::of(self, id);
        let this = class.map(|c| ("this", Ty::Ref(c)));
        for (param, ty) in this.into_iter().chain(params.iter().copied()) {
            let v = scope.declare(self, param, ty)?;
            self.methods[id.index()].params.push(v);
        }
        Ok(id)
    }

    /// Marks `m` removed and takes it out of name lookup. Its allocation
    /// sites keep their names.
    pub(crate) fn remove_method(&mut self, m: MethodId) {
        self.methods[m.index()].removed = true;
        match self.methods[m.index()].class {
            Some(c) => self.classes[c.index()].methods.retain(|&x| x != m),
            None => {
                let name = &self.methods[m.index()].name;
                Arc::make_mut(&mut self.names).functions.remove(name);
            }
        }
    }

    /// Declares an allocation site of `class` in `method`.
    pub(crate) fn declare_site(
        &mut self,
        method: MethodId,
        name: &str,
        class: ClassId,
    ) -> Result<AllocId, String> {
        let id = AllocId::from_index(self.allocs.len());
        if !claim(&mut self.names_mut().sites, name, id) {
            return Err(format!("duplicate allocation site @{name}"));
        }
        self.allocs.push(AllocSite { name: name.to_owned(), class, method });
        Ok(id)
    }

    /// Appends `cmd` to the command arena as a command of `method`.
    pub(crate) fn push_cmd(&mut self, method: MethodId, cmd: Command) -> CmdId {
        let id = CmdId::from_index(self.cmds.len());
        self.cmds.push(cmd);
        self.cmd_method.push(method);
        id
    }

    /// The live method `name` declared on the class named `class`, or the
    /// free function `name`.
    pub(crate) fn method_named(&self, class: Option<&str>, name: &str) -> Result<MethodId, String> {
        match class {
            Some(cname) => {
                let c =
                    self.class_by_name(cname).ok_or_else(|| format!("unknown class {cname}"))?;
                self.method_on(c, name).ok_or_else(|| format!("no method {name} on class {cname}"))
            }
            None => self.free_function(name).ok_or_else(|| format!("unknown function {name}")),
        }
    }

    fn ty(&self, t: &STy) -> Result<Ty, String> {
        Ok(match t {
            STy::Int => Ty::Int,
            STy::Array => Ty::Ref(self.array_class),
            STy::Class(name) => {
                Ty::Ref(self.class_by_name(name).ok_or_else(|| format!("unknown class {name}"))?)
            }
        })
    }
}

/// One method's locals and parameters by name.
#[derive(Debug)]
pub(crate) struct Scope {
    pub(crate) method: MethodId,
    vars: HashMap<String, VarId>,
}

impl Scope {
    /// The scope of `method` as declared so far.
    pub(crate) fn of(p: &Program, method: MethodId) -> Scope {
        let vars = p.method(method).locals.iter().map(|&v| (p.var(v).name.clone(), v)).collect();
        Scope { method, vars }
    }

    /// Declares a local of the scope's method.
    pub(crate) fn declare(&mut self, p: &mut Program, name: &str, ty: Ty) -> Result<VarId, String> {
        let v = VarId::from_index(p.vars.len());
        if !claim(&mut self.vars, name, v) {
            return Err(format!("duplicate variable {name} in {}", p.method_name(self.method)));
        }
        p.vars.push(VarInfo { name: name.to_owned(), ty, method: self.method });
        p.methods[self.method.index()].locals.push(v);
        Ok(v)
    }
}

/// Attaches a source line to a lowering message.
fn at(line: usize) -> impl Fn(String) -> ParseError {
    move |message| ParseError { line, column: 0, message }
}

/// Lowers a parsed program and validates it. Classes come first, each
/// deriving from `Object`, so `extends` and types may name a class declared
/// later; then superclasses, fields, globals and every signature, so a body
/// may call any method; then the bodies.
pub(crate) fn program(sp: &SProgram) -> Result<Program, ParseError> {
    let mut p = Program::with_builtins();
    let mut classes = Vec::with_capacity(sp.classes.len());
    for sc in &sp.classes {
        let object = p.object_class;
        classes.push(p.declare_class(&sc.name, Some(object)).map_err(at(sc.line))?);
    }
    for (sc, &c) in sp.classes.iter().zip(&classes) {
        if let Some(sup) = &sc.superclass {
            p.extend(c, sup).map_err(at(sc.line))?;
        }
    }
    for (sc, &c) in sp.classes.iter().zip(&classes) {
        for (name, ty, line) in &sc.fields {
            let ty = p.ty(ty).map_err(at(*line))?;
            p.declare_field(c, name, ty).map_err(at(*line))?;
        }
    }
    for (name, ty, line) in &sp.globals {
        let ty = p.ty(ty).map_err(at(*line))?;
        p.declare_global(name, ty).map_err(at(*line))?;
    }
    let mut bodies = Vec::new();
    for (sc, &c) in sp.classes.iter().zip(&classes) {
        for sm in &sc.methods {
            bodies.push((signature(&mut p, Some(c), sm)?, &sm.body));
        }
    }
    for sm in &sp.fns {
        bodies.push((signature(&mut p, None, sm)?, &sm.body));
    }
    for (m, stmts) in bodies {
        body(&mut p, m, stmts)?;
    }
    if let Some((name, line)) = &sp.entry {
        let entry = p.free_function(name);
        p.entry = Some(entry.ok_or_else(|| at(*line)(format!("unknown entry function {name}")))?);
    }
    crate::validate::validate(&p).map_err(|e| at(0)(e.message))?;
    Ok(p)
}

/// Declares the signature of `sm`: on `class`, or a free function if
/// `None`. An instance method's source lists `this` first, which stands for
/// the implicit `this`.
pub(crate) fn signature(
    p: &mut Program,
    class: Option<ClassId>,
    sm: &SMethod,
) -> Result<MethodId, ParseError> {
    let err = at(sm.line);
    let mut params = sm.params.as_slice();
    if class.is_some() {
        if let Some(((first, _), rest)) = params.split_first() {
            if first != "this" {
                return Err(err(format!("first parameter of method {} must be `this`", sm.name)));
            }
            params = rest;
        }
    }
    let params = params
        .iter()
        .map(|(name, ty)| Ok((name.as_str(), p.ty(ty)?)))
        .collect::<Result<Vec<_>, String>>()
        .map_err(&err)?;
    let ret = sm.ret.as_ref().map(|t| p.ty(t)).transpose().map_err(&err)?;
    p.declare_method(class, &sm.name, &params, ret).map_err(err)
}

/// Lowers `stmts` as the body of the declared method `m`.
pub(crate) fn body(p: &mut Program, m: MethodId, stmts: &[SStmt]) -> Result<(), ParseError> {
    let body = Body::new(p, m).block(stmts)?;
    p.methods[m.index()].body = body;
    Ok(())
}

/// What one lowered statement added to its method.
pub(crate) enum Lowered {
    /// A declared local; no command.
    Var(VarId),
    /// One command, appended to the arena but not yet placed in a body.
    Cmd(CmdId),
    /// A control-flow statement over commands appended to the arena.
    Stmt(Stmt),
}

/// Lowers statements into one method.
pub(crate) struct Body<'p> {
    p: &'p mut Program,
    scope: Scope,
}

impl<'p> Body<'p> {
    /// Lowers into `m` as declared so far.
    pub(crate) fn new(p: &'p mut Program, m: MethodId) -> Self {
        let scope = Scope::of(p, m);
        Body { p, scope }
    }

    fn block(&mut self, stmts: &[SStmt]) -> Result<Stmt, ParseError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match self.stmt(s)? {
                Lowered::Var(_) => {}
                Lowered::Cmd(c) => out.push(Stmt::Cmd(c)),
                Lowered::Stmt(s) => out.push(s),
            }
        }
        Ok(Stmt::Seq(out))
    }

    /// Lowers one statement.
    pub(crate) fn stmt(&mut self, s: &SStmt) -> Result<Lowered, ParseError> {
        let cmd = match s {
            SStmt::VarDecl { name, ty, line } => {
                let ty = self.p.ty(ty).map_err(at(*line))?;
                return self.scope.declare(self.p, name, ty).map(Lowered::Var).map_err(at(*line));
            }
            SStmt::If { cond, then_br, else_br, line } => {
                let cond = self.cond(cond).map_err(at(*line))?;
                let then_br = Box::new(self.block(then_br)?);
                let else_br = Box::new(self.block(else_br)?);
                return Ok(Lowered::Stmt(Stmt::If { cond, then_br, else_br }));
            }
            SStmt::While { cond, body, line } => {
                let cond = self.cond(cond).map_err(at(*line))?;
                return Ok(Lowered::Stmt(Stmt::While { cond, body: Box::new(self.block(body)?) }));
            }
            SStmt::Loop { body } => {
                return Ok(Lowered::Stmt(Stmt::Loop(Box::new(self.block(body)?))))
            }
            SStmt::Choice { left, right } => {
                let left = Box::new(self.block(left)?);
                return Ok(Lowered::Stmt(Stmt::Choice(left, Box::new(self.block(right)?))));
            }
            SStmt::Return { val, line } => {
                let val = val.as_ref().map(|v| self.operand(v)).transpose().map_err(at(*line))?;
                Command::Return { val }
            }
            SStmt::Assume { cond, line } => {
                Command::Assume { cond: self.cond(cond).map_err(at(*line))? }
            }
            SStmt::CallStmt { dst, call, line } => {
                self.call(dst.as_deref(), call).map_err(at(*line))?
            }
            SStmt::Assign { lhs, rhs, line } => self.assign(lhs, rhs).map_err(at(*line))?,
        };
        Ok(Lowered::Cmd(self.p.push_cmd(self.scope.method, cmd)))
    }

    fn var(&self, name: &str) -> Result<VarId, String> {
        self.scope.vars.get(name).copied().ok_or_else(|| {
            format!("unknown variable {name} in {}", self.p.method_name(self.scope.method))
        })
    }

    fn global(&self, name: &str) -> Result<GlobalId, String> {
        self.p.global_by_name(name).ok_or_else(|| format!("unknown global {name}"))
    }

    fn operand(&self, o: &SOperand) -> Result<Operand, String> {
        Ok(match o {
            SOperand::Var(name) => Operand::Var(self.var(name)?),
            SOperand::Int(n) => Operand::Int(*n),
            SOperand::Null => Operand::Null,
        })
    }

    /// The right-hand side of a heap or global write: a plain operand.
    fn plain(&self, rhs: &SRvalue) -> Result<Operand, String> {
        match rhs {
            SRvalue::Operand(o) => self.operand(o),
            _ => Err("compound right-hand side not allowed here; use a temporary".to_owned()),
        }
    }

    fn cond(&self, c: &SCond) -> Result<Cond, String> {
        Ok(match c {
            SCond::Nondet => Cond::Nondet,
            SCond::True => Cond::True,
            SCond::Cmp(op, l, r) => {
                Cond::Cmp { op: *op, lhs: self.operand(l)?, rhs: self.operand(r)? }
            }
        })
    }

    /// The field `name` visible on the class of `obj`.
    fn field_of(&self, obj: VarId, name: &str) -> Result<FieldId, String> {
        let var = self.p.var(obj);
        let Ty::Ref(class) = var.ty else {
            return Err(format!("field access on integer variable {}", var.name));
        };
        self.p
            .resolve_field(class, name)
            .ok_or_else(|| format!("no field {name} on class of {}", var.name))
    }

    fn call(&self, dst: Option<&str>, call: &SCall) -> Result<Command, String> {
        let dst = dst.map(|d| self.var(d)).transpose()?;
        let (callee, args) = match call {
            SCall::Virtual { receiver, method, args } => {
                (Callee::Virtual { receiver: self.var(receiver)?, method: method.clone() }, args)
            }
            SCall::Static { class, method, args } => {
                (Callee::Static { method: self.p.method_named(class.as_deref(), method)? }, args)
            }
        };
        let args = args.iter().map(|a| self.operand(a)).collect::<Result<_, _>>()?;
        Ok(Command::Call { dst, callee, args })
    }

    fn assign(&mut self, lhs: &SLvalue, rhs: &SRvalue) -> Result<Command, String> {
        Ok(match lhs {
            SLvalue::Var(name) => {
                let dst = self.var(name)?;
                match rhs {
                    SRvalue::Operand(o) => Command::Assign { dst, src: self.operand(o)? },
                    SRvalue::BinOp(op, l, r) => Command::BinOp {
                        dst,
                        op: *op,
                        lhs: self.operand(l)?,
                        rhs: self.operand(r)?,
                    },
                    SRvalue::Field(base, f) => {
                        let obj = self.var(base)?;
                        Command::ReadField { dst, obj, field: self.field_of(obj, f)? }
                    }
                    SRvalue::Index(base, idx) => {
                        Command::ReadArray { dst, arr: self.var(base)?, idx: self.operand(idx)? }
                    }
                    SRvalue::Global(g) => Command::ReadGlobal { dst, global: self.global(g)? },
                    SRvalue::New { class, site } => {
                        let class = self
                            .p
                            .class_by_name(class)
                            .ok_or_else(|| format!("unknown class {class}"))?;
                        let alloc = self.p.declare_site(self.scope.method, site, class)?;
                        Command::New { dst, class, alloc }
                    }
                    SRvalue::NewArray { site, len } => {
                        let len = self.operand(len)?;
                        let array = self.p.array_class;
                        let alloc = self.p.declare_site(self.scope.method, site, array)?;
                        Command::NewArray { dst, alloc, len }
                    }
                    SRvalue::Len(arr) => Command::ArrayLen { dst, arr: self.var(arr)? },
                }
            }
            SLvalue::Field(base, f) => {
                let obj = self.var(base)?;
                let field = self.field_of(obj, f)?;
                Command::WriteField { obj, field, src: self.plain(rhs)? }
            }
            SLvalue::Index(base, idx) => Command::WriteArray {
                arr: self.var(base)?,
                idx: self.operand(idx)?,
                src: self.plain(rhs)?,
            },
            SLvalue::Global(g) => {
                Command::WriteGlobal { global: self.global(g)?, src: self.plain(rhs)? }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{apply_edits, parse, print_program, EditOp};

    const MAIN: &str = "fn main() { }\nentry main;\n";

    /// Every kind of name the parser declares, declared twice: the text,
    /// the line of the second declaration and the error's message.
    const PARSED: &[(&str, &str, usize, &str)] = &[
        ("class", "class C { }\nclass C { }\n", 2, "duplicate class C"),
        ("builtin class", "class Object { }\n", 1, "duplicate class Object"),
        (
            "field",
            "class C {\n  field f: int;\n  field f: Object;\n}\n",
            3,
            "duplicate field f on class C",
        ),
        ("global", "global G: Object;\nglobal G: int;\n", 2, "duplicate global G"),
        (
            "method",
            "class C {\n  method m(this: C) { }\n  method m(this: C) { }\n}\n",
            3,
            "duplicate method m on class C",
        ),
        ("free function", "fn f() { }\nfn f() { }\n", 2, "duplicate function f"),
        ("parameter", "fn f(x: int, x: int) { }\n", 1, "duplicate variable x in f"),
        (
            "`this`",
            "class C {\n  method m(this: C, this: C) { }\n}\n",
            2,
            "duplicate variable this in C.m",
        ),
        ("local", "fn f() {\n  var x: int;\n  var x: int;\n}\n", 3, "duplicate variable x in f"),
        ("local over a parameter", "fn f(x: int) {\n  var x: int;\n}\n", 2, "duplicate variable x in f"),
        (
            "allocation site",
            "fn f() {\n  var a: Object;\n  a = new Object @o;\n  a = new Object @o;\n}\n",
            4,
            "duplicate allocation site @o",
        ),
        (
            "allocation site in another method",
            "fn f() {\n  var a: array;\n  a = newarray @o [1];\n}\nfn g() {\n  var a: Object;\n  a = new Object @o;\n}\n",
            7,
            "duplicate allocation site @o",
        ),
    ];

    const BASE: &str = r#"
class Cell {
  field val: int;
  method get(this: Cell): int {
    var v: int;
    v = this.val;
    return v;
  }
}
fn main() {
  var c: Cell;
  var n: int;
  c = new Cell @cell0;
  n = call c.get();
  return;
}
entry main;
"#;

    fn add_method(class: Option<&str>, text: &str) -> EditOp {
        EditOp::AddMethod { class: class.map(str::to_owned), text: text.to_owned() }
    }

    fn add_stmt(at: usize, text: &str) -> EditOp {
        EditOp::AddStmt { method: "main".to_owned(), at, text: text.to_owned() }
    }

    #[test]
    fn every_duplicate_declaration_is_an_error() {
        for (kind, text, line, message) in PARSED {
            let e = parse(&format!("{text}{MAIN}")).expect_err(kind);
            assert_eq!((e.line, e.message.as_str()), (*line, *message), "{kind}");
        }

        // Every kind of name an edit declares, against `BASE`; each batch
        // fails whole and leaves the program as it was.
        let edits: &[(&str, Vec<EditOp>, &str)] = &[
            ("free function", vec![add_method(None, "fn main() { }")], "duplicate function main"),
            (
                "method",
                vec![add_method(Some("Cell"), "method get(this: Cell): int { return 1; }")],
                "duplicate method get on class Cell",
            ),
            (
                "parameter",
                vec![add_method(None, "fn h(x: int, x: int) { }")],
                "duplicate variable x in h",
            ),
            ("local", vec![add_stmt(0, "var n: int;")], "duplicate variable n in main"),
            (
                "local of an added method",
                vec![add_method(None, "fn h(x: int) {\n  var x: int;\n}")],
                "duplicate variable x in h",
            ),
            (
                "allocation site",
                vec![add_stmt(0, "c = new Cell @cell0;")],
                "duplicate allocation site @cell0",
            ),
            (
                "replacing allocation site",
                vec![EditOp::ReplaceStmt {
                    method: "main".to_owned(),
                    at: 1,
                    text: "c = new Cell @cell0;".to_owned(),
                }],
                "duplicate allocation site @cell0",
            ),
            (
                "allocation site of a removed statement",
                vec![
                    EditOp::RemoveStmt { method: "main".to_owned(), at: 0 },
                    add_stmt(0, "c = new Cell @cell0;"),
                ],
                "duplicate allocation site @cell0",
            ),
            (
                "allocation site in an added method",
                vec![add_method(None, "fn h() {\n  var c: Cell;\n  c = new Cell @cell0;\n}")],
                "duplicate allocation site @cell0",
            ),
        ];
        for (kind, ops, message) in edits {
            let mut p = parse(BASE).expect("base parses");
            let before = print_program(&p);
            let e = apply_edits(&mut p, ops).expect_err(kind);
            assert!(e.message.ends_with(message), "{kind}: {e}");
            assert_eq!(print_program(&p), before, "{kind}");
        }
    }

    /// Two sites named `@o`: only the second reaches `G`, yet both `G => o`
    /// edges render to one fingerprint key, so a decision store replayed
    /// the first site's refutation for the second's feasible edge. The
    /// program is rejected where the ambiguity starts.
    #[test]
    fn two_sites_named_o_are_rejected() {
        let src = r#"global G: Object;
fn main() {
  var a: Object;
  var b: Object;
  var x: Object;
  var n: int;
  a = new Object @o;
  b = new Object @o;
  n = 0;
  x = a;
  if (n == 1) {
    $G = x;
  }
  $G = b;
}
entry main;
"#;
        let e = parse(src).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (8, "duplicate allocation site @o"));
    }

    #[test]
    fn a_class_cannot_extend_its_own_subclass() {
        for (text, line) in
            [("class A extends A { }\n", 1), ("class A extends B { }\nclass B extends A { }\n", 2)]
        {
            let e = parse(&format!("{text}{MAIN}")).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.starts_with("class "), "{e}");
        }
    }
}
