//! Textual front-end for the IR: the lexer, the parser and the surface AST
//! it builds, which the one lowering (`lower.rs`) turns into a [`Program`].
//! Statement and method edits ([`crate::apply_edits`]) parse and lower
//! their text through the same code.
//!
//! The grammar (emitted by [`crate::print_program`]):
//!
//! ```text
//! program   := item*
//! item      := class | global | fn | entry
//! class     := "class" IDENT ("extends" IDENT)? "{" member* "}"
//! member    := "field" IDENT ":" ty ";" | method
//! method    := "method" IDENT "(" params ")" (":" ty)? block
//! fn        := "fn" IDENT "(" params ")" (":" ty)? block
//! global    := "global" IDENT ":" ty ";"
//! entry     := "entry" IDENT ";"
//! ty        := "int" | "array" | IDENT
//! block     := "{" stmt* "}"
//! stmt      := "var" IDENT ":" ty ";"
//!            | "if" "(" cond ")" block ("else" block)?
//!            | "while" "(" cond ")" block
//!            | "loop" block
//!            | "choice" block "or" block
//!            | "return" operand? ";"
//!            | "assume" cond ";"
//!            | "call" callexpr ";"
//!            | lvalue "=" rvalue ";"
//! lvalue    := IDENT | IDENT "." IDENT | IDENT "[" operand "]" | "$" IDENT
//! rvalue    := "null" | INT | "new" IDENT "@" IDENT
//!            | "newarray" "@" IDENT "[" operand "]"
//!            | "call" callexpr | "len" "(" IDENT ")" | "$" IDENT
//!            | IDENT "." IDENT | IDENT "[" operand "]"
//!            | operand (("+"|"-"|"*") operand)?
//! callexpr  := IDENT "." IDENT "(" operands ")"          (virtual)
//!            | (IDENT "::")? IDENT "(" operands ")"       (static)
//! cond      := "*" | "true" | operand cmpop operand
//! operand   := IDENT | INT | "-" INT | "null"
//! ```
//!
//! Names are unique per scope: class, global and free function per
//! program; field and method per class; local and parameter per method
//! (an instance method's `this` included). Allocation-site names are
//! unique per program. A duplicate is a [`ParseError`] on the line of the
//! declaration lowered second (class members before free functions), and
//! a class may not extend one of its own subclasses.

use std::fmt;

use crate::program::Program;
use crate::stmt::{BinOp, CmpOp};

/// A parse or name-resolution error, with a 1-based source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// 1-based column where the error was detected; 0 when the error has no
    /// precise column (e.g. name-resolution errors reported per line).
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.column > 0 {
            write!(f, "line {}:{}: {}", self.line, self.column, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

// ---------------------------------------------------------------- lexer

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Eof,
}

#[derive(Clone, Debug)]
pub(crate) struct SpannedTok {
    pub(crate) tok: Tok,
    line: usize,
    column: usize,
}

pub(crate) fn lex(src: &str) -> PResult<Vec<SpannedTok>> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut line_start = 0usize;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let column = i - line_start + 1;
        match c {
            '\n' => {
                line += 1;
                line_start = i + 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_')
                {
                    i += 1;
                }
                out.push(SpannedTok { tok: Tok::Ident(src[start..i].to_owned()), line, column });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|_| ParseError {
                    line,
                    column,
                    message: format!("integer literal out of range: {}", &src[start..i]),
                })?;
                out.push(SpannedTok { tok: Tok::Int(n), line, column });
            }
            _ => {
                let two = if i + 1 < bytes.len() { &src[i..i + 2] } else { "" };
                let p2: Option<&'static str> = match two {
                    "==" => Some("=="),
                    "!=" => Some("!="),
                    "<=" => Some("<="),
                    ">=" => Some(">="),
                    "::" => Some("::"),
                    _ => None,
                };
                if let Some(p) = p2 {
                    out.push(SpannedTok { tok: Tok::Punct(p), line, column });
                    i += 2;
                    continue;
                }
                let p1: Option<&'static str> = match c {
                    '{' => Some("{"),
                    '}' => Some("}"),
                    '(' => Some("("),
                    ')' => Some(")"),
                    '[' => Some("["),
                    ']' => Some("]"),
                    ';' => Some(";"),
                    ':' => Some(":"),
                    ',' => Some(","),
                    '.' => Some("."),
                    '=' => Some("="),
                    '<' => Some("<"),
                    '>' => Some(">"),
                    '+' => Some("+"),
                    '-' => Some("-"),
                    '*' => Some("*"),
                    '@' => Some("@"),
                    '$' => Some("$"),
                    _ => None,
                };
                match p1 {
                    Some(p) => {
                        out.push(SpannedTok { tok: Tok::Punct(p), line, column });
                        i += 1;
                    }
                    None => {
                        return Err(ParseError {
                            line,
                            column,
                            message: format!("unexpected character {c:?}"),
                        })
                    }
                }
            }
        }
    }
    out.push(SpannedTok { tok: Tok::Eof, line, column: bytes.len() - line_start + 1 });
    Ok(out)
}

// ---------------------------------------------------------- surface AST

#[derive(Debug)]
pub(crate) struct SProgram {
    pub(crate) classes: Vec<SClass>,
    pub(crate) globals: Vec<(String, STy, usize)>,
    pub(crate) fns: Vec<SMethod>,
    pub(crate) entry: Option<(String, usize)>,
}

#[derive(Debug)]
pub(crate) struct SClass {
    pub(crate) name: String,
    pub(crate) superclass: Option<String>,
    pub(crate) fields: Vec<(String, STy, usize)>,
    pub(crate) methods: Vec<SMethod>,
    pub(crate) line: usize,
}

#[derive(Debug)]
pub(crate) struct SMethod {
    pub(crate) name: String,
    pub(crate) params: Vec<(String, STy)>,
    pub(crate) ret: Option<STy>,
    pub(crate) body: Vec<SStmt>,
    pub(crate) line: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum STy {
    Int,
    Array,
    Class(String),
}

#[derive(Debug)]
pub(crate) enum SStmt {
    VarDecl { name: String, ty: STy, line: usize },
    If { cond: SCond, then_br: Vec<SStmt>, else_br: Vec<SStmt>, line: usize },
    While { cond: SCond, body: Vec<SStmt>, line: usize },
    Loop { body: Vec<SStmt> },
    Choice { left: Vec<SStmt>, right: Vec<SStmt> },
    Return { val: Option<SOperand>, line: usize },
    Assume { cond: SCond, line: usize },
    CallStmt { dst: Option<String>, call: SCall, line: usize },
    Assign { lhs: SLvalue, rhs: SRvalue, line: usize },
}

#[derive(Debug)]
pub(crate) enum SLvalue {
    Var(String),
    Field(String, String),
    Index(String, SOperand),
    Global(String),
}

#[derive(Debug)]
pub(crate) enum SRvalue {
    Operand(SOperand),
    BinOp(BinOp, SOperand, SOperand),
    Field(String, String),
    Index(String, SOperand),
    Global(String),
    New { class: String, site: String },
    NewArray { site: String, len: SOperand },
    Len(String),
}

#[derive(Debug)]
pub(crate) enum SCall {
    Virtual { receiver: String, method: String, args: Vec<SOperand> },
    Static { class: Option<String>, method: String, args: Vec<SOperand> },
}

#[derive(Clone, Debug)]
pub(crate) enum SOperand {
    Var(String),
    Int(i64),
    Null,
}

#[derive(Debug)]
pub(crate) enum SCond {
    Nondet,
    True,
    Cmp(CmpOp, SOperand, SOperand),
}

// --------------------------------------------------------------- parser

pub(crate) struct Parser {
    pub(crate) toks: Vec<SpannedTok>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    pub(crate) fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn column(&self) -> usize {
        self.toks[self.pos].column
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError { line: self.line(), column: self.column(), message: message.into() })
    }

    fn expect_punct(&mut self, p: &'static str) -> PResult<()> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
                message: format!("expected `{p}`, found {other:?}"),
            }),
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: self.toks[self.pos.saturating_sub(1)].column,
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    /// Parses `IDENT ('.' IDENT)*` — global names may be dotted
    /// (`Class.field` convention).
    fn dotted_ident(&mut self) -> PResult<String> {
        let mut name = self.ident()?;
        while matches!(self.peek(), Tok::Punct(".")) {
            self.bump();
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn parse_program(&mut self) -> PResult<SProgram> {
        let mut p =
            SProgram { classes: Vec::new(), globals: Vec::new(), fns: Vec::new(), entry: None };
        loop {
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            let line = self.line();
            if self.eat_kw("class") {
                p.classes.push(self.parse_class(line)?);
            } else if self.eat_kw("global") {
                let name = self.dotted_ident()?;
                self.expect_punct(":")?;
                let ty = self.parse_ty()?;
                self.expect_punct(";")?;
                p.globals.push((name, ty, line));
            } else if self.eat_kw("fn") {
                p.fns.push(self.parse_method(line)?);
            } else if self.eat_kw("entry") {
                let name = self.ident()?;
                self.expect_punct(";")?;
                p.entry = Some((name, line));
            } else {
                return self.err(format!("expected item, found {:?}", self.peek()));
            }
        }
        Ok(p)
    }

    fn parse_class(&mut self, line: usize) -> PResult<SClass> {
        let name = self.ident()?;
        let superclass = if self.eat_kw("extends") { Some(self.ident()?) } else { None };
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        loop {
            let line = self.line();
            if self.eat_punct("}") {
                break;
            } else if self.eat_kw("field") {
                let fname = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.parse_ty()?;
                self.expect_punct(";")?;
                fields.push((fname, ty, line));
            } else if self.eat_kw("method") {
                methods.push(self.parse_method(line)?);
            } else {
                return self.err(format!("expected class member, found {:?}", self.peek()));
            }
        }
        Ok(SClass { name, superclass, fields, methods, line })
    }

    fn parse_ty(&mut self) -> PResult<STy> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "int" => STy::Int,
            "array" => STy::Array,
            _ => STy::Class(name),
        })
    }

    pub(crate) fn parse_method(&mut self, line: usize) -> PResult<SMethod> {
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pname = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.parse_ty()?;
                params.push((pname, ty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let ret = if self.eat_punct(":") { Some(self.parse_ty()?) } else { None };
        let body = self.parse_block()?;
        Ok(SMethod { name, params, ret, body, line })
    }

    fn parse_block(&mut self) -> PResult<Vec<SStmt>> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    pub(crate) fn parse_stmt(&mut self) -> PResult<SStmt> {
        let line = self.line();
        if self.eat_kw("var") {
            let name = self.ident()?;
            self.expect_punct(":")?;
            let ty = self.parse_ty()?;
            self.expect_punct(";")?;
            return Ok(SStmt::VarDecl { name, ty, line });
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.parse_cond()?;
            self.expect_punct(")")?;
            let then_br = self.parse_block()?;
            let else_br = if self.eat_kw("else") { self.parse_block()? } else { Vec::new() };
            return Ok(SStmt::If { cond, then_br, else_br, line });
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.parse_cond()?;
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(SStmt::While { cond, body, line });
        }
        if self.eat_kw("loop") {
            let body = self.parse_block()?;
            return Ok(SStmt::Loop { body });
        }
        if self.eat_kw("choice") {
            let left = self.parse_block()?;
            if !self.eat_kw("or") {
                return self.err("expected `or` after choice block");
            }
            let right = self.parse_block()?;
            return Ok(SStmt::Choice { left, right });
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(SStmt::Return { val: None, line });
            }
            let val = self.parse_operand()?;
            self.expect_punct(";")?;
            return Ok(SStmt::Return { val: Some(val), line });
        }
        if self.eat_kw("assume") {
            let cond = self.parse_cond()?;
            self.expect_punct(";")?;
            return Ok(SStmt::Assume { cond, line });
        }
        if self.eat_kw("call") {
            let call = self.parse_callexpr()?;
            self.expect_punct(";")?;
            return Ok(SStmt::CallStmt { dst: None, call, line });
        }
        // Assignment forms.
        if self.eat_punct("$") {
            let g = self.dotted_ident()?;
            self.expect_punct("=")?;
            let rhs = self.parse_rvalue()?;
            self.expect_punct(";")?;
            return Ok(SStmt::Assign { lhs: SLvalue::Global(g), rhs, line });
        }
        let name = self.ident()?;
        if self.eat_punct(".") {
            let f = self.ident()?;
            self.expect_punct("=")?;
            let rhs = self.parse_rvalue()?;
            self.expect_punct(";")?;
            return Ok(SStmt::Assign { lhs: SLvalue::Field(name, f), rhs, line });
        }
        if self.eat_punct("[") {
            let idx = self.parse_operand()?;
            self.expect_punct("]")?;
            self.expect_punct("=")?;
            let rhs = self.parse_rvalue()?;
            self.expect_punct(";")?;
            return Ok(SStmt::Assign { lhs: SLvalue::Index(name, idx), rhs, line });
        }
        self.expect_punct("=")?;
        if self.eat_kw("call") {
            let call = self.parse_callexpr()?;
            self.expect_punct(";")?;
            return Ok(SStmt::CallStmt { dst: Some(name), call, line });
        }
        let rhs = self.parse_rvalue()?;
        self.expect_punct(";")?;
        Ok(SStmt::Assign { lhs: SLvalue::Var(name), rhs, line })
    }

    fn parse_callexpr(&mut self) -> PResult<SCall> {
        let first = self.ident()?;
        if self.eat_punct(".") {
            let method = self.ident()?;
            let args = self.parse_args()?;
            return Ok(SCall::Virtual { receiver: first, method, args });
        }
        if self.eat_punct("::") {
            let method = self.ident()?;
            let args = self.parse_args()?;
            return Ok(SCall::Static { class: Some(first), method, args });
        }
        let args = self.parse_args()?;
        Ok(SCall::Static { class: None, method: first, args })
    }

    fn parse_args(&mut self) -> PResult<Vec<SOperand>> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.parse_operand()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(args)
    }

    fn parse_rvalue(&mut self) -> PResult<SRvalue> {
        if self.eat_kw("null") {
            return Ok(SRvalue::Operand(SOperand::Null));
        }
        if self.eat_kw("new") {
            let class = self.ident()?;
            self.expect_punct("@")?;
            let site = self.ident()?;
            return Ok(SRvalue::New { class, site });
        }
        if self.eat_kw("newarray") {
            self.expect_punct("@")?;
            let site = self.ident()?;
            self.expect_punct("[")?;
            let len = self.parse_operand()?;
            self.expect_punct("]")?;
            return Ok(SRvalue::NewArray { site, len });
        }
        if self.eat_kw("len") {
            self.expect_punct("(")?;
            let arr = self.ident()?;
            self.expect_punct(")")?;
            return Ok(SRvalue::Len(arr));
        }
        if self.eat_punct("$") {
            let g = self.dotted_ident()?;
            return Ok(SRvalue::Global(g));
        }
        // operand-led forms
        if matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Punct(".")) {
            let base = self.ident()?;
            self.expect_punct(".")?;
            let f = self.ident()?;
            return Ok(SRvalue::Field(base, f));
        }
        if matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Punct("[")) {
            let base = self.ident()?;
            self.expect_punct("[")?;
            let idx = self.parse_operand()?;
            self.expect_punct("]")?;
            return Ok(SRvalue::Index(base, idx));
        }
        let lhs = self.parse_operand()?;
        let op = match self.peek() {
            Tok::Punct("+") => Some(BinOp::Add),
            Tok::Punct("-") => Some(BinOp::Sub),
            Tok::Punct("*") => Some(BinOp::Mul),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_operand()?;
            return Ok(SRvalue::BinOp(op, lhs, rhs));
        }
        Ok(SRvalue::Operand(lhs))
    }

    fn parse_operand(&mut self) -> PResult<SOperand> {
        match self.bump() {
            Tok::Ident(s) if s == "null" => Ok(SOperand::Null),
            Tok::Ident(s) => Ok(SOperand::Var(s)),
            Tok::Int(n) => Ok(SOperand::Int(n)),
            Tok::Punct("-") => match self.bump() {
                Tok::Int(n) => Ok(SOperand::Int(-n)),
                other => Err(ParseError {
                    line: self.toks[self.pos.saturating_sub(1)].line,
                    column: 0,
                    message: format!("expected integer after `-`, found {other:?}"),
                }),
            },
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                column: 0,
                message: format!("expected operand, found {other:?}"),
            }),
        }
    }

    fn parse_cond(&mut self) -> PResult<SCond> {
        if self.eat_punct("*") {
            return Ok(SCond::Nondet);
        }
        if matches!(self.peek(), Tok::Ident(s) if s == "true") {
            self.bump();
            return Ok(SCond::True);
        }
        let lhs = self.parse_operand()?;
        let op = match self.bump() {
            Tok::Punct("==") => CmpOp::Eq,
            Tok::Punct("!=") => CmpOp::Ne,
            Tok::Punct("<") => CmpOp::Lt,
            Tok::Punct("<=") => CmpOp::Le,
            Tok::Punct(">") => CmpOp::Gt,
            Tok::Punct(">=") => CmpOp::Ge,
            other => {
                return Err(ParseError {
                    line: self.toks[self.pos.saturating_sub(1)].line,
                    column: 0,
                    message: format!("expected comparison operator, found {other:?}"),
                })
            }
        };
        let rhs = self.parse_operand()?;
        Ok(SCond::Cmp(op, lhs, rhs))
    }
}

/// Parses the textual IR syntax into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical, syntactic, name-resolution or
/// declaration failures, and on validation failures (reported at line 0).
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser { toks: lex(src)?, pos: 0 };
    let program = parser.parse_program()?;
    crate::lower::program(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_program;

    const SAMPLE: &str = r#"
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
  c.val = 3;
  $ROOT = c;
  n = call c.get();
  assume n < 10;
  if (n == 3) {
    n = n + 1;
  } else {
    n = 0;
  }
  while (n < 5) {
    n = n + 1;
  }
  return;
}
entry main;
"#;

    #[test]
    fn parses_sample_program() {
        let p = parse(SAMPLE).expect("parse");
        assert!(p.class_by_name("Cell").is_some());
        assert!(p.global_by_name("ROOT").is_some());
        assert_eq!(p.method(p.entry()).name, "main");
    }

    #[test]
    fn print_parse_roundtrip_is_stable() {
        let p1 = parse(SAMPLE).expect("parse 1");
        let text1 = print_program(&p1);
        let p2 = parse(&text1).expect("parse 2");
        let text2 = print_program(&p2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn reports_unknown_variable_with_line() {
        let err = parse("fn main() { x = 3; } entry main;").unwrap_err();
        assert!(err.message.contains("unknown variable x"), "{err}");
    }

    #[test]
    fn reports_unknown_class() {
        let err = parse("fn main() { var x: Nope; } entry main;").unwrap_err();
        assert!(err.message.contains("unknown class Nope"), "{err}");
    }

    #[test]
    fn parses_choice_and_loop() {
        let src = r#"
fn main() {
  var n: int;
  n = 0;
  choice {
    n = 1;
  } or {
    n = 2;
  }
  loop {
    n = n + 1;
  }
}
entry main;
"#;
        let p = parse(src).expect("parse");
        let cmds = p.method_cmds(p.entry());
        assert_eq!(cmds.len(), 4);
    }

    #[test]
    fn parses_arrays_and_len() {
        let src = r#"
fn main() {
  var a: array;
  var x: Object;
  var n: int;
  a = newarray @arr0 [10];
  n = len(a);
  a[0] = null;
  x = a[n];
}
entry main;
"#;
        let p = parse(src).expect("parse");
        assert_eq!(p.alloc_ids().count(), 1);
    }

    #[test]
    fn rejects_compound_rhs_in_field_write() {
        let src = r#"
class C { field f: int; }
fn main() {
  var c: C;
  c = new C @c0;
  c.f = 1 + 2;
}
entry main;
"#;
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("use a temporary"), "{err}");
    }

    #[test]
    fn virtual_dispatch_call_parses() {
        let src = r#"
class A {
  method go(this: A): int { return 1; }
}
class B extends A {
  method go(this: B): int { return 2; }
}
fn main() {
  var a: A;
  var r: int;
  choice { a = new A @a0; } or { a = new B @b0; }
  r = call a.go();
}
entry main;
"#;
        let p = parse(src).expect("parse");
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        assert!(p.is_subclass(b, a));
    }
}
