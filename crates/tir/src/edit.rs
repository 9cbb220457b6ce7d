//! Program edits: a statement/method-level mutation protocol for resident
//! [`Program`]s.
//!
//! An [`EditOp`] names its target symbolically (method names, command
//! ordinals, statement text in the surface syntax), so edit scripts survive
//! re-parses and can be shipped over the daemon protocol. [`apply_edits`]
//! applies a batch transactionally: either every op lands and the edited
//! program re-validates, or the program is left untouched.
//!
//! Arenas are append-only: removing a statement or method orphans its
//! commands in the arena (their [`CmdId`]s stay readable) rather than
//! renumbering live ones. This is what lets incremental analyses carry
//! state across edits keyed by stable ids.

use std::fmt;
use std::sync::Arc;

use crate::ids::{ClassId, CmdId, MethodId, VarId};
use crate::lower::{self, Body, Lowered, Names};
use crate::parser::{lex, ParseError, Parser, SMethod, Tok};
use crate::program::{Class, Method, Program};
use crate::stmt::{Command, Stmt};
use crate::validate;

/// One program edit. Statement ops address commands by their ordinal in
/// [`Program::method_cmds`] order (`at`); statement and method bodies are
/// given in the textual IR syntax of [`crate::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Insert a single statement before the `at`-th command of `method`
    /// (`at == num_cmds` appends at the end, before a trailing `return`).
    /// `text` is one statement, e.g. `"x = new Cell @c9;"` or
    /// `"var t: int;"`. Control flow is not allowed here.
    AddStmt {
        /// Target method, `"Class.name"` or a free function name.
        method: String,
        /// Command ordinal to insert before (0-based).
        at: usize,
        /// Statement text in the surface syntax.
        text: String,
    },
    /// Replace the `at`-th command of `method` with a new statement.
    ReplaceStmt {
        /// Target method.
        method: String,
        /// Command ordinal to replace (0-based).
        at: usize,
        /// Replacement statement text (must lower to a single command).
        text: String,
    },
    /// Remove the `at`-th command of `method`.
    RemoveStmt {
        /// Target method.
        method: String,
        /// Command ordinal to remove (0-based).
        at: usize,
    },
    /// Add a whole method. `text` is a `fn`/`method` item in the surface
    /// syntax; `class` names the declaring class for instance methods.
    AddMethod {
        /// Declaring class, or `None` for a free function.
        class: Option<String>,
        /// Full method text, e.g. `"fn helper(x: int): int { return x; }"`.
        text: String,
    },
    /// Remove a method. The method must not be the entry point and must not
    /// be statically called from surviving code.
    RemoveMethod {
        /// Target method, `"Class.name"` or a free function name.
        method: String,
    },
}

impl EditOp {
    /// Short tag naming the op kind (used in telemetry and bench output).
    pub fn kind(&self) -> &'static str {
        match self {
            EditOp::AddStmt { .. } => "add_stmt",
            EditOp::ReplaceStmt { .. } => "replace_stmt",
            EditOp::RemoveStmt { .. } => "remove_stmt",
            EditOp::AddMethod { .. } => "add_method",
            EditOp::RemoveMethod { .. } => "remove_method",
        }
    }
}

/// An edit that could not be applied. The whole batch is rolled back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EditError {}

fn err<T>(message: impl Into<String>) -> Result<T, EditError> {
    Err(EditError { message: message.into() })
}

/// The arena-level effect of one applied [`EditOp`], in terms of stable ids.
/// Incremental analyses consume this to seed their worklists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppliedEdit {
    /// A command was appended to the arena and spliced into `method`.
    AddedCmd {
        /// Owning method.
        method: MethodId,
        /// The new command.
        cmd: CmdId,
    },
    /// `old` was unlinked from `method`'s body and `new` spliced in its
    /// place (`old` stays in the arena, orphaned).
    ReplacedCmd {
        /// Owning method.
        method: MethodId,
        /// The unlinked command.
        old: CmdId,
        /// The replacement command.
        new: CmdId,
    },
    /// `cmd` was unlinked from `method`'s body.
    RemovedCmd {
        /// Owning method.
        method: MethodId,
        /// The unlinked command.
        cmd: CmdId,
    },
    /// A local variable declaration was added (no command involved).
    AddedVar {
        /// Owning method.
        method: MethodId,
        /// The new local.
        var: VarId,
    },
    /// A whole method was added; `cmds` lists its body commands.
    AddedMethod {
        /// The new method.
        method: MethodId,
        /// Its body commands in program order.
        cmds: Vec<CmdId>,
    },
    /// A whole method was marked removed; `cmds` lists its (now orphaned)
    /// body commands.
    RemovedMethod {
        /// The removed method.
        method: MethodId,
        /// Its former body commands.
        cmds: Vec<CmdId>,
    },
}

/// Applies an edit batch to `program` transactionally.
///
/// On success the program is mutated in place and the per-op arena effects
/// are returned in order. On failure the program is left byte-identical to
/// its pre-call state.
///
/// # Errors
///
/// Returns an [`EditError`] if any op fails to parse, resolve, or lower, or
/// if the edited program fails [`validate::validate`].
pub fn apply_edits(program: &mut Program, ops: &[EditOp]) -> Result<Vec<AppliedEdit>, EditError> {
    let mut undo = Undo::mark(program);
    let result = apply_all(program, ops, &mut undo);
    if result.is_err() {
        undo.roll_back(program);
    }
    result
}

fn apply_all(
    p: &mut Program,
    ops: &[EditOp],
    undo: &mut Undo,
) -> Result<Vec<AppliedEdit>, EditError> {
    let mut applied = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        applied.push(
            apply_one(p, op, undo)
                .map_err(|e| EditError { message: format!("edit {i} ({}): {e}", op.kind()) })?,
        );
    }
    validate::validate(p)
        .map_err(|e| EditError { message: format!("edit batch produces invalid program: {e}") })?;
    Ok(applied)
}

fn apply_one(p: &mut Program, op: &EditOp, undo: &mut Undo) -> Result<AppliedEdit, EditError> {
    match op {
        EditOp::AddStmt { method, at, text } => add_stmt(p, undo, method, *at, text),
        EditOp::ReplaceStmt { method, at, text } => replace_stmt(p, undo, method, *at, text),
        EditOp::RemoveStmt { method, at } => remove_stmt(p, undo, method, *at),
        EditOp::AddMethod { class, text } => add_method(p, undo, class.as_deref(), text),
        EditOp::RemoveMethod { method } => remove_method(p, undo, method),
    }
}

// ----------------------------------------------------------- rollback

/// What a failed batch restores, so a batch edits its program in place
/// instead of a copy. Arenas only grow, and an edit declares no class,
/// field or global, so truncating the method, variable, allocation-site
/// and command arenas to their lengths at the start drops everything the
/// batch declared. The name index, and each existing method and class an
/// op changes, are kept as they were before their first change.
struct Undo {
    methods: usize,
    vars: usize,
    allocs: usize,
    cmds: usize,
    names: Arc<Names>,
    saved_methods: Vec<(MethodId, Method)>,
    saved_classes: Vec<(ClassId, Class)>,
}

impl Undo {
    fn mark(p: &Program) -> Undo {
        Undo {
            methods: p.methods.len(),
            vars: p.vars.len(),
            allocs: p.allocs.len(),
            cmds: p.cmds.len(),
            names: p.names.clone(),
            saved_methods: Vec::new(),
            saved_classes: Vec::new(),
        }
    }

    /// Keeps method `m` as it is now, unless it is kept already or new in
    /// this batch.
    fn save_method(&mut self, p: &Program, m: MethodId) {
        if m.index() < self.methods && self.saved_methods.iter().all(|&(x, _)| x != m) {
            self.saved_methods.push((m, p.method(m).clone()));
        }
    }

    /// Keeps class `c` (its method list) as it is now.
    fn save_class(&mut self, p: &Program, c: ClassId) {
        if self.saved_classes.iter().all(|&(x, _)| x != c) {
            self.saved_classes.push((c, p.class(c).clone()));
        }
    }

    fn roll_back(self, p: &mut Program) {
        p.methods.truncate(self.methods);
        p.vars.truncate(self.vars);
        p.allocs.truncate(self.allocs);
        p.cmds.truncate(self.cmds);
        p.cmd_method.truncate(self.cmds);
        for (m, method) in self.saved_methods {
            p.methods[m.index()] = method;
        }
        for (c, class) in self.saved_classes {
            p.classes[c.index()] = class;
        }
        p.names = self.names;
    }
}

// ------------------------------------------------------------ resolution

/// Resolves `"Class.name"` or a bare free-function name to a live method.
fn find_method(p: &Program, spec: &str) -> Result<MethodId, EditError> {
    let (class, name) = match spec.split_once('.') {
        Some((class, name)) => (Some(class), name),
        None => (None, spec),
    };
    p.method_named(class, name).map_err(|message| EditError { message })
}

/// A lowering error inside edit text; the op names the location.
fn lowering(e: ParseError) -> EditError {
    EditError { message: e.message }
}

const NO_CONTROL_FLOW: &str =
    "control flow is not allowed in statement edits; add a method instead";

/// Parses and lowers the one statement of a statement edit into `m`.
fn lower_stmt(p: &mut Program, m: MethodId, text: &str) -> Result<Lowered, EditError> {
    let s = parse_text(text, "statement", Parser::parse_stmt)?;
    Body::new(p, m).stmt(&s).map_err(lowering)
}

// ------------------------------------------------------------ snippets

/// Parses edit text holding exactly one `what`, read by `item`.
fn parse_text<T>(
    text: &str,
    what: &str,
    item: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
) -> Result<T, EditError> {
    let syntax = |e: ParseError| EditError { message: format!("{what} parse error: {e}") };
    let mut parser = Parser { toks: lex(text).map_err(syntax)?, pos: 0 };
    let parsed = item(&mut parser).map_err(syntax)?;
    if !matches!(parser.peek(), Tok::Eof) {
        return err(format!("trailing input after {what}"));
    }
    Ok(parsed)
}

/// Parses method text: `method ...` onto a class, `fn ...` otherwise.
fn parse_method_text(text: &str, class: Option<&str>) -> Result<SMethod, EditError> {
    let (kw, kind) =
        if class.is_some() { ("method", "instance method") } else { ("fn", "free function") };
    parse_text(text, "method", |parser| {
        let line = parser.line();
        if !parser.eat_kw(kw) {
            let message = format!("{kind} text must start with `{kw}`");
            return Err(ParseError { line, column: 1, message });
        }
        parser.parse_method(line)
    })
}

// ---------------------------------------------------------- body surgery

/// Inserts `new` immediately before the leaf `Stmt::Cmd(target)`.
fn insert_before(s: &mut Stmt, target: CmdId, new: CmdId) -> bool {
    fn in_child(child: &mut Stmt, target: CmdId, new: CmdId) -> bool {
        if matches!(child, Stmt::Cmd(c) if *c == target) {
            let old = std::mem::replace(child, Stmt::Skip);
            *child = Stmt::Seq(vec![Stmt::Cmd(new), old]);
            true
        } else {
            insert_before(child, target, new)
        }
    }
    match s {
        Stmt::Seq(ss) => {
            if let Some(i) = ss.iter().position(|c| matches!(c, Stmt::Cmd(x) if *x == target)) {
                ss.insert(i, Stmt::Cmd(new));
                return true;
            }
            ss.iter_mut().any(|c| insert_before(c, target, new))
        }
        Stmt::If { then_br, else_br, .. } => {
            in_child(then_br, target, new) || in_child(else_br, target, new)
        }
        Stmt::While { body, .. } | Stmt::Loop(body) => in_child(body, target, new),
        Stmt::Choice(a, b) => in_child(a, target, new) || in_child(b, target, new),
        Stmt::Skip | Stmt::Cmd(_) => false,
    }
}

/// Appends `new` at the end of a (top-level) body, before a trailing
/// `return` if one is present.
fn append_cmd(p: &Program, body: &mut Stmt, new: CmdId) {
    match body {
        Stmt::Seq(ss) => {
            if let Some(Stmt::Cmd(last)) = ss.last() {
                if matches!(p.cmd(*last), Command::Return { .. }) {
                    let i = ss.len() - 1;
                    ss.insert(i, Stmt::Cmd(new));
                    return;
                }
            }
            ss.push(Stmt::Cmd(new));
        }
        other => {
            let old = std::mem::replace(other, Stmt::Skip);
            *other = Stmt::Seq(vec![old, Stmt::Cmd(new)]);
        }
    }
}

/// Unlinks the leaf `Stmt::Cmd(target)` from the tree.
fn remove_leaf(s: &mut Stmt, target: CmdId) -> bool {
    fn in_child(child: &mut Stmt, target: CmdId) -> bool {
        if matches!(child, Stmt::Cmd(c) if *c == target) {
            *child = Stmt::Skip;
            true
        } else {
            remove_leaf(child, target)
        }
    }
    match s {
        Stmt::Seq(ss) => {
            if let Some(i) = ss.iter().position(|c| matches!(c, Stmt::Cmd(x) if *x == target)) {
                ss.remove(i);
                return true;
            }
            ss.iter_mut().any(|c| remove_leaf(c, target))
        }
        Stmt::If { then_br, else_br, .. } => in_child(then_br, target) || in_child(else_br, target),
        Stmt::While { body, .. } | Stmt::Loop(body) => in_child(body, target),
        Stmt::Choice(a, b) => in_child(a, target) || in_child(b, target),
        Stmt::Skip | Stmt::Cmd(_) => false,
    }
}

/// Rewrites the leaf `Stmt::Cmd(old)` to `Stmt::Cmd(new)`.
fn replace_leaf(s: &mut Stmt, old: CmdId, new: CmdId) -> bool {
    match s {
        Stmt::Seq(ss) => ss.iter_mut().any(|c| replace_leaf(c, old, new)),
        Stmt::If { then_br, else_br, .. } => {
            replace_leaf(then_br, old, new) || replace_leaf(else_br, old, new)
        }
        Stmt::While { body, .. } | Stmt::Loop(body) => replace_leaf(body, old, new),
        Stmt::Choice(a, b) => replace_leaf(a, old, new) || replace_leaf(b, old, new),
        Stmt::Skip => false,
        Stmt::Cmd(c) => {
            if *c == old {
                *c = new;
                true
            } else {
                false
            }
        }
    }
}

// ------------------------------------------------------------------- ops

/// Resolves a statement op's `method` and its commands in program order,
/// with `at` in range: at most one past the end for an insertion, on a
/// command otherwise.
fn target(
    p: &Program,
    method: &str,
    at: usize,
    insert: bool,
) -> Result<(MethodId, Vec<CmdId>), EditError> {
    let m = find_method(p, method)?;
    let cmds = p.method_cmds(m);
    if at > cmds.len() || (at == cmds.len() && !insert) {
        let what = if insert { "insert position" } else { "command ordinal" };
        let (name, n) = (p.method_name(m), cmds.len());
        return err(format!("{what} {at} out of range for {name} ({n} commands)"));
    }
    Ok((m, cmds))
}

/// Rewrites `m`'s body with `surgery`, which reports whether it found the
/// `at`-th command.
fn splice(
    p: &mut Program,
    m: MethodId,
    at: usize,
    surgery: impl FnOnce(&Program, &mut Stmt) -> bool,
) -> Result<(), EditError> {
    let mut body = std::mem::replace(&mut p.methods[m.index()].body, Stmt::Skip);
    let found = surgery(p, &mut body);
    p.methods[m.index()].body = body;
    if !found {
        return err(format!("command ordinal {at} not found in body"));
    }
    Ok(())
}

fn add_stmt(
    p: &mut Program,
    undo: &mut Undo,
    method: &str,
    at: usize,
    text: &str,
) -> Result<AppliedEdit, EditError> {
    let (m, cmds) = target(p, method, at, true)?;
    undo.save_method(p, m);
    let id = match lower_stmt(p, m, text)? {
        Lowered::Var(var) => return Ok(AppliedEdit::AddedVar { method: m, var }),
        Lowered::Cmd(id) => id,
        Lowered::Stmt(_) => return err(NO_CONTROL_FLOW),
    };
    splice(p, m, at, |p, body| match cmds.get(at) {
        Some(&before) => insert_before(body, before, id),
        None => {
            append_cmd(p, body, id);
            true
        }
    })?;
    Ok(AppliedEdit::AddedCmd { method: m, cmd: id })
}

fn replace_stmt(
    p: &mut Program,
    undo: &mut Undo,
    method: &str,
    at: usize,
    text: &str,
) -> Result<AppliedEdit, EditError> {
    let (m, cmds) = target(p, method, at, false)?;
    undo.save_method(p, m);
    let new = match lower_stmt(p, m, text)? {
        Lowered::Cmd(new) => new,
        Lowered::Var(_) => return err("replacement must be a command, not a declaration"),
        Lowered::Stmt(_) => return err(NO_CONTROL_FLOW),
    };
    let old = cmds[at];
    splice(p, m, at, |_, body| replace_leaf(body, old, new))?;
    Ok(AppliedEdit::ReplacedCmd { method: m, old, new })
}

fn remove_stmt(
    p: &mut Program,
    undo: &mut Undo,
    method: &str,
    at: usize,
) -> Result<AppliedEdit, EditError> {
    let (m, cmds) = target(p, method, at, false)?;
    undo.save_method(p, m);
    let cmd = cmds[at];
    splice(p, m, at, |_, body| {
        if matches!(body, Stmt::Cmd(c) if *c == cmd) {
            *body = Stmt::Skip;
            return true;
        }
        remove_leaf(body, cmd)
    })?;
    Ok(AppliedEdit::RemovedCmd { method: m, cmd })
}

fn add_method(
    p: &mut Program,
    undo: &mut Undo,
    class: Option<&str>,
    text: &str,
) -> Result<AppliedEdit, EditError> {
    let cid = match class {
        Some(cname) => Some(
            p.class_by_name(cname)
                .ok_or_else(|| EditError { message: format!("unknown class {cname}") })?,
        ),
        None => None,
    };
    if let Some(c) = cid {
        undo.save_class(p, c);
    }
    let sm = parse_method_text(text, class)?;
    let id = lower::signature(p, cid, &sm).map_err(lowering)?;
    lower::body(p, id, &sm.body).map_err(lowering)?;
    Ok(AppliedEdit::AddedMethod { method: id, cmds: p.method_cmds(id) })
}

fn remove_method(p: &mut Program, undo: &mut Undo, spec: &str) -> Result<AppliedEdit, EditError> {
    let m = find_method(p, spec)?;
    if p.entry == Some(m) {
        return err(format!("cannot remove entry method {}", p.method_name(m)));
    }
    undo.save_method(p, m);
    if let Some(c) = p.method(m).class {
        undo.save_class(p, c);
    }
    let cmds = p.method_cmds(m);
    p.remove_method(m);
    Ok(AppliedEdit::RemovedMethod { method: m, cmds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::printer::print_program;

    const BASE: &str = r#"
class Cell {
  field val: int;
  field next: Cell;
  method get(this: Cell): int {
    var v: int;
    v = this.val;
    return v;
  }
}
global ROOT: Cell;
fn main() {
  var c: Cell;
  var n: int;
  c = new Cell @cell0;
  $ROOT = c;
  n = call c.get();
  return;
}
entry main;
"#;

    fn base() -> Program {
        parse(BASE).expect("parse base")
    }

    /// Edited programs must round-trip through the printer/parser, proving
    /// the in-place mutation is equivalent to a from-source program.
    fn assert_roundtrips(p: &Program) {
        let text = print_program(p);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("edited program reparses: {e}\n{text}"));
        assert_eq!(text, print_program(&p2));
    }

    #[test]
    fn add_stmt_appends_before_trailing_return() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        let n_before = p.method_cmds(main).len();
        let applied = apply_edits(
            &mut p,
            &[EditOp::AddStmt { method: "main".into(), at: n_before, text: "n = n + 1;".into() }],
        )
        .expect("apply");
        assert_eq!(applied.len(), 1);
        let cmds = p.method_cmds(main);
        assert_eq!(cmds.len(), n_before + 1);
        // Inserted second-to-last: the trailing return stays final.
        assert!(matches!(p.cmd(*cmds.last().unwrap()), Command::Return { .. }));
        assert_roundtrips(&p);
    }

    #[test]
    fn add_stmt_at_ordinal_inserts_before() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        apply_edits(
            &mut p,
            &[EditOp::AddStmt { method: "main".into(), at: 1, text: "n = 7;".into() }],
        )
        .expect("apply");
        let cmds = p.method_cmds(main);
        assert!(matches!(p.cmd(cmds[1]), Command::Assign { .. }));
        assert_roundtrips(&p);
    }

    #[test]
    fn add_stmt_with_new_allocation_site() {
        let mut p = base();
        let allocs_before = p.alloc_ids().count();
        apply_edits(
            &mut p,
            &[EditOp::AddStmt {
                method: "main".into(),
                at: 0,
                text: "c = new Cell @cell9;".into(),
            }],
        )
        .expect("apply");
        assert_eq!(p.alloc_ids().count(), allocs_before + 1);
        assert_roundtrips(&p);
    }

    #[test]
    fn duplicate_alloc_site_rejected() {
        let mut p = base();
        let e = apply_edits(
            &mut p,
            &[EditOp::AddStmt {
                method: "main".into(),
                at: 0,
                text: "c = new Cell @cell0;".into(),
            }],
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate allocation site @cell0"), "{e}");
    }

    #[test]
    fn var_decl_adds_local_without_command() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        let cmds_before = p.method_cmds(main).len();
        let applied = apply_edits(
            &mut p,
            &[
                EditOp::AddStmt { method: "main".into(), at: 0, text: "var t: int;".into() },
                EditOp::AddStmt { method: "main".into(), at: 0, text: "t = 3;".into() },
            ],
        )
        .expect("apply");
        assert!(matches!(applied[0], AppliedEdit::AddedVar { .. }));
        assert!(matches!(applied[1], AppliedEdit::AddedCmd { .. }));
        assert_eq!(p.method_cmds(main).len(), cmds_before + 1);
        assert_roundtrips(&p);
    }

    #[test]
    fn replace_stmt_swaps_command() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        let old = p.method_cmds(main)[1];
        let applied = apply_edits(
            &mut p,
            &[EditOp::ReplaceStmt { method: "main".into(), at: 1, text: "$ROOT = null;".into() }],
        )
        .expect("apply");
        let AppliedEdit::ReplacedCmd { old: o, new, .. } = &applied[0] else {
            panic!("expected ReplacedCmd")
        };
        assert_eq!(*o, old);
        assert!(matches!(p.cmd(*new), Command::WriteGlobal { .. }));
        // Old command is orphaned but still readable.
        let _ = p.cmd(old);
        assert_roundtrips(&p);
    }

    #[test]
    fn remove_stmt_unlinks_command() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        let n_before = p.method_cmds(main).len();
        apply_edits(&mut p, &[EditOp::RemoveStmt { method: "main".into(), at: 1 }]).expect("apply");
        assert_eq!(p.method_cmds(main).len(), n_before - 1);
        assert_roundtrips(&p);
    }

    #[test]
    fn add_method_with_control_flow_and_call_it() {
        let mut p = base();
        apply_edits(
            &mut p,
            &[
                EditOp::AddMethod {
                    class: None,
                    text:
                        "fn clamp(x: int): int {\n  if (x > 10) {\n    x = 10;\n  }\n  return x;\n}"
                            .into(),
                },
                EditOp::AddStmt { method: "main".into(), at: 2, text: "n = call clamp(n);".into() },
            ],
        )
        .expect("apply");
        assert!(p.free_function("clamp").is_some());
        assert_roundtrips(&p);
    }

    #[test]
    fn add_instance_method_dispatches() {
        let mut p = base();
        apply_edits(
            &mut p,
            &[
                EditOp::AddMethod {
                    class: Some("Cell".into()),
                    text: "method bump(this: Cell) {\n  var v: int;\n  v = this.val;\n  v = v + 1;\n  this.val = v;\n  return;\n}".into(),
                },
                EditOp::AddStmt { method: "main".into(), at: 2, text: "call c.bump();".into() },
            ],
        )
        .expect("apply");
        let cell = p.class_by_name("Cell").unwrap();
        assert!(p.method_on(cell, "bump").is_some());
        assert_roundtrips(&p);
    }

    #[test]
    fn remove_method_rejects_surviving_callers() {
        let mut p = base();
        // main virtually calls get; removing get leaves the call targetless.
        let e =
            apply_edits(&mut p, &[EditOp::RemoveMethod { method: "Cell.get".into() }]).unwrap_err();
        assert!(e.message.contains("invalid program"), "{e}");
        // Transaction rolled back: get is still there.
        let cell = p.class_by_name("Cell").unwrap();
        assert!(p.method_on(cell, "get").is_some());
    }

    #[test]
    fn remove_method_after_removing_call() {
        let mut p = base();
        apply_edits(
            &mut p,
            &[
                EditOp::RemoveStmt { method: "main".into(), at: 2 },
                EditOp::RemoveMethod { method: "Cell.get".into() },
            ],
        )
        .expect("apply");
        let cell = p.class_by_name("Cell").unwrap();
        assert!(p.method_on(cell, "get").is_none());
        assert_roundtrips(&p);
    }

    #[test]
    fn remove_entry_rejected() {
        let mut p = base();
        let e = apply_edits(&mut p, &[EditOp::RemoveMethod { method: "main".into() }]).unwrap_err();
        assert!(e.message.contains("entry"), "{e}");
    }

    #[test]
    fn failed_batch_rolls_back_everything() {
        let mut p = base();
        let before = print_program(&p);
        let e = apply_edits(
            &mut p,
            &[
                EditOp::AddStmt { method: "main".into(), at: 0, text: "n = 1;".into() },
                EditOp::AddStmt { method: "main".into(), at: 0, text: "bogus = 1;".into() },
            ],
        )
        .unwrap_err();
        assert!(e.message.contains("unknown variable"), "{e}");
        assert_eq!(print_program(&p), before);
    }

    /// A failed batch of any op kinds leaves the arenas `{:?}`-identical
    /// and frees every name it declared: the batch without its failing op
    /// then applies exactly as it does on a fresh program.
    #[test]
    fn failed_batches_restore_arenas_and_names() {
        let add = |method: &str, at: usize, text: &str| EditOp::AddStmt {
            method: method.into(),
            at,
            text: text.into(),
        };
        let remove = |method: &str, at: usize| EditOp::RemoveStmt { method: method.into(), at };
        let replace = EditOp::ReplaceStmt {
            method: "main".into(),
            at: 0,
            text: "c = new Cell @cell8;".into(),
        };
        let helper = EditOp::AddMethod {
            class: None,
            text:
                "fn helper(x: int): int {\n  var o: Cell;\n  o = new Cell @cell7;\n  return x;\n}"
                    .into(),
        };
        let put = EditOp::AddMethod {
            class: Some("Cell".into()),
            text: "method put(this: Cell, v: int) {\n  this.val = v;\n  return;\n}".into(),
        };
        let remove_get = EditOp::RemoveMethod { method: "Cell.get".into() };
        let bogus = add("main", 0, "bogus = 1;");
        let cases: Vec<(Vec<EditOp>, EditOp)> = vec![
            (
                vec![add("main", 0, "var t: Cell;"), add("main", 0, "t = new Cell @cell9;")],
                bogus.clone(),
            ),
            (vec![replace], bogus.clone()),
            (vec![remove("main", 1)], bogus.clone()),
            (vec![helper, add("helper", 0, "x = 2;")], bogus.clone()),
            (vec![put, add("Cell.put", 0, "v = 2;"), add("Cell.get", 0, "v = 3;")], bogus.clone()),
            (vec![remove("main", 2), remove_get.clone()], bogus),
            // Fails validation: main still calls get.
            (vec![], remove_get),
        ];
        for (ok, fail) in cases {
            let mut p = base();
            let before = format!("{p:?}");
            let batch: Vec<EditOp> = ok.iter().cloned().chain([fail]).collect();
            apply_edits(&mut p, &batch).unwrap_err();
            assert_eq!(format!("{p:?}"), before, "{batch:?}");
            let mut fresh = base();
            let applied = apply_edits(&mut p, &ok).expect("the names are free again");
            assert_eq!(applied, apply_edits(&mut fresh, &ok).expect("apply"), "{ok:?}");
            assert_eq!(format!("{p:?}"), format!("{fresh:?}"), "{ok:?}");
            assert_eq!(print_program(&p), print_program(&fresh), "{ok:?}");
        }
    }

    #[test]
    fn control_flow_stmt_rejected() {
        let mut p = base();
        let e = apply_edits(
            &mut p,
            &[EditOp::AddStmt {
                method: "main".into(),
                at: 0,
                text: "if (n > 0) { n = 1; }".into(),
            }],
        )
        .unwrap_err();
        assert!(e.message.contains("control flow"), "{e}");
    }

    #[test]
    fn edits_preserve_existing_cmd_ids() {
        let mut p = base();
        let main = p.free_function("main").unwrap();
        let before = p.method_cmds(main);
        apply_edits(
            &mut p,
            &[EditOp::AddStmt { method: "main".into(), at: 1, text: "n = 5;".into() }],
        )
        .expect("apply");
        let after = p.method_cmds(main);
        // All pre-edit ids survive, in order, with one insertion.
        let surviving: Vec<_> = after.iter().copied().filter(|c| before.contains(c)).collect();
        assert_eq!(surviving, before);
    }
}
