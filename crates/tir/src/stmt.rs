//! Statements, commands, operands, and conditions of the IR.
//!
//! The statement language mirrors the formal language of the Thresher paper
//! (§3): atomic commands plus sequencing, (non-)deterministic branching, and
//! looping. `if`/`while` keep their guards structurally (rather than being
//! pre-lowered to `assume`) so the backwards analysis can decide per-query
//! whether a guard is relevant.

use crate::ids::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, VarId};

/// A value operand: a local variable, an integer literal, or `null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A local variable or parameter.
    Var(VarId),
    /// An integer constant (booleans are encoded as 0/1).
    Int(i64),
    /// The null reference.
    Null,
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Int(v)
    }
}

/// Comparison operators usable in conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator describing the negation of `self` (e.g. `<` ↦ `>=`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its arguments swapped (e.g. `<` ↦ `>`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on two concrete integers.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// Symbol for pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Integer binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl BinOp {
    /// Symbol for pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
        }
    }
}

/// A branch/loop condition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always true (used for `loop` desugaring and trivial guards).
    True,
    /// Non-deterministic choice; neither branch carries a constraint.
    Nondet,
    /// A comparison between two operands.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
}

impl Cond {
    /// Convenience constructor for a comparison condition.
    pub fn cmp(op: CmpOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Cond {
        Cond::Cmp { op, lhs: lhs.into(), rhs: rhs.into() }
    }

    /// The negation of this condition. `Nondet` negates to itself.
    pub fn negate(&self) -> Cond {
        match self {
            Cond::True => Cond::Cmp { op: CmpOp::Ne, lhs: Operand::Int(0), rhs: Operand::Int(0) },
            Cond::Nondet => Cond::Nondet,
            Cond::Cmp { op, lhs, rhs } => Cond::Cmp { op: op.negate(), lhs: *lhs, rhs: *rhs },
        }
    }

    /// Variables read by this condition.
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            Cond::True | Cond::Nondet => Vec::new(),
            Cond::Cmp { lhs, rhs, .. } => {
                let mut out = Vec::new();
                if let Operand::Var(v) = lhs {
                    out.push(*v);
                }
                if let Operand::Var(v) = rhs {
                    out.push(*v);
                }
                out
            }
        }
    }
}

/// The callee of a [`Command::Call`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Virtual dispatch on the dynamic class of `receiver`.
    Virtual {
        /// Receiver variable; bound to the callee's `this` parameter.
        receiver: VarId,
        /// Simple method name resolved against the receiver's class chain.
        method: String,
    },
    /// A direct call to a known method (static methods, constructors).
    Static {
        /// The callee.
        method: MethodId,
    },
}

/// An atomic command.
///
/// Commands are stored in the program-wide command arena; statements refer to
/// them by [`CmdId`], which doubles as the program-point name used by
/// analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `dst = src`
    Assign {
        /// Destination local.
        dst: VarId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs` (integer arithmetic)
    BinOp {
        /// Destination local.
        dst: VarId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = obj.field`
    ReadField {
        /// Destination local.
        dst: VarId,
        /// Base object.
        obj: VarId,
        /// Field read.
        field: FieldId,
    },
    /// `obj.field = src`
    WriteField {
        /// Base object.
        obj: VarId,
        /// Field written.
        field: FieldId,
        /// Stored value.
        src: Operand,
    },
    /// `dst = $global`
    ReadGlobal {
        /// Destination local.
        dst: VarId,
        /// Global read.
        global: GlobalId,
    },
    /// `$global = src`
    WriteGlobal {
        /// Global written.
        global: GlobalId,
        /// Stored value.
        src: Operand,
    },
    /// `dst = arr[idx]`
    ReadArray {
        /// Destination local.
        dst: VarId,
        /// Array object.
        arr: VarId,
        /// Index operand.
        idx: Operand,
    },
    /// `arr[idx] = src`
    WriteArray {
        /// Array object.
        arr: VarId,
        /// Index operand.
        idx: Operand,
        /// Stored value.
        src: Operand,
    },
    /// `dst = len(arr)`
    ArrayLen {
        /// Destination local.
        dst: VarId,
        /// Array object.
        arr: VarId,
    },
    /// `dst = new C @site`
    New {
        /// Destination local.
        dst: VarId,
        /// Allocated class.
        class: ClassId,
        /// Allocation site.
        alloc: AllocId,
    },
    /// `dst = newarray @site [len]`
    NewArray {
        /// Destination local.
        dst: VarId,
        /// Allocation site.
        alloc: AllocId,
        /// Array length.
        len: Operand,
    },
    /// `dst = call callee(args)` — `dst` optional.
    Call {
        /// Destination local for the return value, if any.
        dst: Option<VarId>,
        /// Call target.
        callee: Callee,
        /// Actual arguments (excluding the receiver for virtual calls).
        args: Vec<Operand>,
    },
    /// `return val` — must be the final command of a method body.
    Return {
        /// Returned value, if any.
        val: Option<Operand>,
    },
    /// `assume cond` — prunes executions where `cond` is false.
    Assume {
        /// The assumed condition.
        cond: Cond,
    },
}

impl Command {
    /// The local variable defined (written) by this command, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Command::Assign { dst, .. }
            | Command::BinOp { dst, .. }
            | Command::ReadField { dst, .. }
            | Command::ReadGlobal { dst, .. }
            | Command::ReadArray { dst, .. }
            | Command::ArrayLen { dst, .. }
            | Command::New { dst, .. }
            | Command::NewArray { dst, .. } => Some(*dst),
            Command::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The local variables read by this command.
    pub fn uses(&self) -> Vec<VarId> {
        fn op(out: &mut Vec<VarId>, o: &Operand) {
            if let Operand::Var(v) = o {
                out.push(*v);
            }
        }
        let mut out = Vec::new();
        match self {
            Command::Assign { src, .. } => op(&mut out, src),
            Command::BinOp { lhs, rhs, .. } => {
                op(&mut out, lhs);
                op(&mut out, rhs);
            }
            Command::ReadField { obj, .. } => out.push(*obj),
            Command::WriteField { obj, src, .. } => {
                out.push(*obj);
                op(&mut out, src);
            }
            Command::ReadGlobal { .. } => {}
            Command::WriteGlobal { src, .. } => op(&mut out, src),
            Command::ReadArray { arr, idx, .. } => {
                out.push(*arr);
                op(&mut out, idx);
            }
            Command::WriteArray { arr, idx, src } => {
                out.push(*arr);
                op(&mut out, idx);
                op(&mut out, src);
            }
            Command::ArrayLen { arr, .. } => out.push(*arr),
            Command::New { .. } => {}
            Command::NewArray { len, .. } => op(&mut out, len),
            Command::Call { callee, args, .. } => {
                if let Callee::Virtual { receiver, .. } = callee {
                    out.push(*receiver);
                }
                for a in args {
                    op(&mut out, a);
                }
            }
            Command::Return { val } => {
                if let Some(v) = val {
                    op(&mut out, v);
                }
            }
            Command::Assume { cond } => out.extend(cond.vars()),
        }
        out
    }
}

/// A structured statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// Deterministic branch on `cond`.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken when `cond` holds.
        then_br: Box<Stmt>,
        /// Taken when `cond` fails.
        else_br: Box<Stmt>,
    },
    /// Loop while `cond` holds.
    While {
        /// Loop guard.
        cond: Cond,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Non-deterministic loop: execute the body zero or more times.
    Loop(Box<Stmt>),
    /// Non-deterministic branch.
    Choice(Box<Stmt>, Box<Stmt>),
    /// No-op.
    Skip,
    /// An atomic command, by reference into the program command arena.
    Cmd(CmdId),
}

impl Stmt {
    /// Iterates over every command id in this statement tree, in program
    /// order, invoking `f` on each.
    pub fn for_each_cmd(&self, f: &mut impl FnMut(CmdId)) {
        match self {
            Stmt::Seq(ss) => {
                for s in ss {
                    s.for_each_cmd(f);
                }
            }
            Stmt::If { then_br, else_br, .. } => {
                then_br.for_each_cmd(f);
                else_br.for_each_cmd(f);
            }
            Stmt::While { body, .. } | Stmt::Loop(body) => body.for_each_cmd(f),
            Stmt::Choice(a, b) => {
                a.for_each_cmd(f);
                b.for_each_cmd(f);
            }
            Stmt::Skip => {}
            Stmt::Cmd(c) => f(*c),
        }
    }

    /// Iterates over every command id in this statement tree, in program
    /// order, invoking `f` on each with its tree path (sequence of child
    /// indices) in one walk.
    ///
    /// Child indices: `Seq` children are numbered positionally; `If` and
    /// `Choice` use 0 for then/left and 1 for else/right; `While`/`Loop`
    /// bodies are child 0.
    pub fn for_each_cmd_path(&self, f: &mut impl FnMut(CmdId, &[usize])) {
        fn go(s: &Stmt, path: &mut Vec<usize>, f: &mut impl FnMut(CmdId, &[usize])) {
            let mut child = |i: usize, c: &Stmt, path: &mut Vec<usize>| {
                path.push(i);
                go(c, path, f);
                path.pop();
            };
            match s {
                Stmt::Seq(ss) => {
                    for (i, c) in ss.iter().enumerate() {
                        child(i, c, path);
                    }
                }
                Stmt::If { then_br: a, else_br: b, .. } | Stmt::Choice(a, b) => {
                    child(0, a, path);
                    child(1, b, path);
                }
                Stmt::While { body, .. } | Stmt::Loop(body) => child(0, body, path),
                Stmt::Skip => {}
                Stmt::Cmd(c) => f(*c, path),
            }
        }
        go(self, &mut Vec::new(), f);
    }

    /// Finds the tree path leading to `target` (see
    /// [`Stmt::for_each_cmd_path`] numbering).
    pub fn path_to(&self, target: CmdId) -> Option<Vec<usize>> {
        let mut found = None;
        self.for_each_cmd_path(&mut |c, path| {
            if c == target && found.is_none() {
                found = Some(path.to_vec());
            }
        });
        found
    }

    /// The child statement at index `i` (see [`Stmt::for_each_cmd_path`]
    /// numbering).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for this node kind.
    pub fn child(&self, i: usize) -> &Stmt {
        match self {
            Stmt::Seq(ss) => &ss[i],
            Stmt::If { then_br, else_br, .. } => match i {
                0 => then_br,
                1 => else_br,
                _ => panic!("if has two children, asked for {i}"),
            },
            Stmt::While { body, .. } | Stmt::Loop(body) => {
                assert_eq!(i, 0, "loop has one child");
                body
            }
            Stmt::Choice(a, b) => match i {
                0 => a,
                1 => b,
                _ => panic!("choice has two children, asked for {i}"),
            },
            Stmt::Skip | Stmt::Cmd(_) => panic!("leaf statement has no children"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negate_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negate().negate(), op);
            // negation must invert evaluation on all sample pairs
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-3, 3)] {
                assert_ne!(op.eval(a, b), op.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn cmp_flip_matches_swapped_eval() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-3, 3)] {
                assert_eq!(op.eval(a, b), op.flip().eval(b, a));
            }
        }
    }

    #[test]
    fn cond_vars_collects_operands() {
        let c = Cond::cmp(CmpOp::Lt, VarId(1), VarId(2));
        assert_eq!(c.vars(), vec![VarId(1), VarId(2)]);
        let c = Cond::cmp(CmpOp::Eq, VarId(3), Operand::Null);
        assert_eq!(c.vars(), vec![VarId(3)]);
        assert!(Cond::Nondet.vars().is_empty());
    }

    #[test]
    fn command_def_and_uses() {
        let c =
            Command::WriteField { obj: VarId(0), field: FieldId(0), src: Operand::Var(VarId(1)) };
        assert_eq!(c.def(), None);
        assert_eq!(c.uses(), vec![VarId(0), VarId(1)]);

        let c = Command::ReadField { dst: VarId(2), obj: VarId(0), field: FieldId(0) };
        assert_eq!(c.def(), Some(VarId(2)));
        assert_eq!(c.uses(), vec![VarId(0)]);
    }

    #[test]
    fn path_to_finds_nested_command() {
        let s = Stmt::Seq(vec![
            Stmt::Cmd(CmdId(0)),
            Stmt::If {
                cond: Cond::Nondet,
                then_br: Box::new(Stmt::Cmd(CmdId(1))),
                else_br: Box::new(Stmt::Seq(vec![Stmt::Skip, Stmt::Cmd(CmdId(2))])),
            },
        ]);
        assert_eq!(s.path_to(CmdId(0)), Some(vec![0]));
        assert_eq!(s.path_to(CmdId(1)), Some(vec![1, 0]));
        assert_eq!(s.path_to(CmdId(2)), Some(vec![1, 1, 1]));
        assert_eq!(s.path_to(CmdId(9)), None);
    }

    #[test]
    fn for_each_cmd_path_numbers_every_node_kind() {
        let s = Stmt::Seq(vec![
            Stmt::Choice(Box::new(Stmt::Cmd(CmdId(0))), Box::new(Stmt::Cmd(CmdId(1)))),
            Stmt::While { cond: Cond::True, body: Box::new(Stmt::Cmd(CmdId(2))) },
            Stmt::Loop(Box::new(Stmt::Seq(vec![Stmt::Skip, Stmt::Cmd(CmdId(3))]))),
        ]);
        let mut seen = Vec::new();
        s.for_each_cmd_path(&mut |c, path| seen.push((c, path.to_vec())));
        let expected = [(0, vec![0, 0]), (1, vec![0, 1]), (2, vec![1, 0]), (3, vec![2, 0, 1])];
        assert_eq!(seen, expected.map(|(c, p)| (CmdId(c), p)));
        for (c, path) in &seen {
            let leaf = path.iter().fold(&s, |s, &i| s.child(i));
            assert_eq!(leaf, &Stmt::Cmd(*c), "child follows the same numbering");
        }
    }

    #[test]
    fn for_each_cmd_visits_in_order() {
        let s = Stmt::Seq(vec![
            Stmt::Cmd(CmdId(3)),
            Stmt::While { cond: Cond::True, body: Box::new(Stmt::Cmd(CmdId(4))) },
        ]);
        let mut seen = Vec::new();
        s.for_each_cmd(&mut |c| seen.push(c));
        assert_eq!(seen, vec![CmdId(3), CmdId(4)]);
    }
}
