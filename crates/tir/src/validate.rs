//! Well-formedness checks run by [`ProgramBuilder::finish`](crate::ProgramBuilder::finish)
//! and [`crate::parse`].

use std::fmt;

use crate::ids::{MethodId, VarId};
use crate::program::{Program, Ty};
use crate::stmt::{Callee, Command, Operand, Stmt};

/// A program well-formedness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidateError {}

fn err<T>(message: impl Into<String>) -> Result<T, ValidateError> {
    Err(ValidateError { message: message.into() })
}

/// Validates `program`, returning the first violation found.
///
/// Checked properties:
/// - `Return` appears only as the final statement of a method body (the
///   backwards executor relies on this);
/// - every variable referenced by a method's commands is owned by that
///   method;
/// - returned values are present exactly when the method declares a return
///   type;
/// - the entry method, if set, takes no parameters;
/// - reference-typed operations are applied to reference-typed variables.
pub fn validate(program: &Program) -> Result<(), ValidateError> {
    for m in program.method_ids() {
        if program.method(m).removed {
            continue;
        }
        validate_method(program, m)?;
    }
    if let Some(entry) = program.entry_opt() {
        if program.method(entry).removed {
            return err(format!("entry method {} is removed", program.method_name(entry)));
        }
        if !program.method(entry).params.is_empty() {
            return err(format!(
                "entry method {} must take no parameters",
                program.method_name(entry)
            ));
        }
    }
    Ok(())
}

fn validate_method(program: &Program, m: MethodId) -> Result<(), ValidateError> {
    let method = program.method(m);
    let name = program.method_name(m);

    // Return placement: only allowed as the last top-level statement.
    let cmds = program.method_cmds(m);
    for (i, &c) in cmds.iter().enumerate() {
        if matches!(program.cmd(c), Command::Return { .. }) && i + 1 != cmds.len() {
            return err(format!("{name}: return is not the final command"));
        }
    }
    if let Some(&last) = cmds.last() {
        if let Command::Return { val } = program.cmd(last) {
            match (val, method.ret_ty) {
                (Some(_), None) => {
                    return err(format!("{name}: returns a value but declares none"))
                }
                (None, Some(_)) => {
                    return err(format!("{name}: declares a return type but returns nothing"))
                }
                _ => {}
            }
        }
        // Return must also be a *top-level* statement, not nested in a branch.
        if let Stmt::Seq(ss) = &method.body {
            let mut nested_ret = false;
            for (i, s) in ss.iter().enumerate() {
                let top_level_last = i + 1 == ss.len() && matches!(s, Stmt::Cmd(_));
                if !top_level_last {
                    s.for_each_cmd(&mut |c| {
                        if matches!(program.cmd(c), Command::Return { .. }) {
                            nested_ret = true;
                        }
                    });
                }
            }
            if nested_ret {
                return err(format!("{name}: return nested inside control flow"));
            }
        }
    }

    let check_var = |v: VarId| -> Result<(), ValidateError> {
        if program.var(v).method != m {
            return err(format!(
                "{name}: variable {} belongs to another method",
                program.var(v).name
            ));
        }
        Ok(())
    };
    let check_ref = |v: VarId, what: &str| -> Result<(), ValidateError> {
        if !program.var(v).ty.is_ref() {
            return err(format!(
                "{name}: {what} requires a reference, got {}",
                program.var(v).name
            ));
        }
        Ok(())
    };

    for &c in &cmds {
        let cmd = program.cmd(c);
        if let Some(d) = cmd.def() {
            check_var(d)?;
        }
        for u in cmd.uses() {
            check_var(u)?;
        }
        match cmd {
            Command::ReadField { obj, .. } => check_ref(*obj, "field read")?,
            Command::WriteField { obj, .. } => check_ref(*obj, "field write")?,
            Command::ReadArray { arr, .. } => check_ref(*arr, "array read")?,
            Command::WriteArray { arr, .. } => check_ref(*arr, "array write")?,
            Command::ArrayLen { arr, .. } => check_ref(*arr, "array length")?,
            Command::New { dst, .. } | Command::NewArray { dst, .. } => {
                check_ref(*dst, "allocation")?
            }
            Command::Call { callee, args, .. } => match callee {
                Callee::Virtual { receiver, method } => {
                    check_ref(*receiver, "virtual call")?;
                    let recv_class = match program.var(*receiver).ty {
                        Ty::Ref(c) => c,
                        Ty::Int => unreachable!("checked by check_ref"),
                    };
                    // At least one class in the cone must define the method;
                    // the receiver's own class, checked first, usually does.
                    if program.resolve_method(recv_class, method).is_none()
                        && !program
                            .subclasses(recv_class)
                            .iter()
                            .any(|&c| program.resolve_method(c, method).is_some())
                    {
                        return err(format!("{name}: no target for virtual call {method}"));
                    }
                }
                Callee::Static { method } => {
                    let callee_m = program.method(*method);
                    if callee_m.removed {
                        return err(format!(
                            "{name}: call to removed method {}",
                            program.method_name(*method)
                        ));
                    }
                    let expected = callee_m.params.len() - usize::from(callee_m.class.is_some());
                    // Instance methods called statically (constructors) pass
                    // the receiver as the first explicit argument.
                    let given = args.len() - usize::from(callee_m.class.is_some());
                    if expected != given {
                        return err(format!(
                            "{name}: call to {} passes {} args, expects {}",
                            program.method_name(*method),
                            given,
                            expected
                        ));
                    }
                }
            },
            _ => {}
        }
        for op in operands_of(cmd) {
            if let Operand::Var(v) = op {
                check_var(v)?;
            }
        }
    }
    Ok(())
}

fn operands_of(cmd: &Command) -> Vec<Operand> {
    match cmd {
        Command::Assign { src, .. } => vec![*src],
        Command::BinOp { lhs, rhs, .. } => vec![*lhs, *rhs],
        Command::WriteField { src, .. } => vec![*src],
        Command::WriteGlobal { src, .. } => vec![*src],
        Command::ReadArray { idx, .. } => vec![*idx],
        Command::WriteArray { idx, src, .. } => vec![*idx, *src],
        Command::NewArray { len, .. } => vec![*len],
        Command::Call { args, .. } => args.clone(),
        Command::Return { val } => val.iter().copied().collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::program::Ty;

    #[test]
    fn accepts_wellformed_program() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        let main = b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", Ty::Ref(c));
            mb.new_obj(x, c, "c0");
            mb.ret_void();
        });
        b.set_entry(main);
        let _ = b.finish(); // no panic
    }

    #[test]
    #[should_panic(expected = "return is not the final command")]
    fn rejects_mid_body_return() {
        let mut b = ProgramBuilder::new();
        b.method(None, "f", &[], None, |mb| {
            let x = mb.var("x", Ty::Int);
            mb.ret_void();
            mb.assign(x, 1);
        });
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "nested inside control flow")]
    fn rejects_nested_return() {
        let mut b = ProgramBuilder::new();
        b.method(None, "f", &[], None, |mb| {
            mb.if_then(crate::stmt::Cond::Nondet, |mb| {
                mb.ret_void();
            });
        });
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "declares a return type but returns nothing")]
    fn rejects_missing_return_value() {
        let mut b = ProgramBuilder::new();
        b.method(None, "f", &[], Some(Ty::Int), |mb| {
            mb.ret_void();
        });
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "must take no parameters")]
    fn rejects_entry_with_params() {
        let mut b = ProgramBuilder::new();
        let m = b.method(None, "main", &[("x", Ty::Int)], None, |mb| {
            mb.ret_void();
        });
        b.set_entry(m);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "no target for virtual call")]
    fn rejects_unresolvable_virtual_call() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", Ty::Ref(c));
            mb.new_obj(x, c, "c0");
            mb.call_virtual(None, x, "nope", &[]);
            mb.ret_void();
        });
        let _ = b.finish();
    }
}
