//! # tir — the Thresher intermediate representation
//!
//! A small Java-like object-oriented language serving as the analysis
//! substrate for the Thresher reproduction. It mirrors the formal language
//! of the paper (§3): classes with instance fields, methods with virtual
//! dispatch, globals (Java static fields), structured statements (`seq`,
//! `if`, `while`, non-deterministic `choice`/`loop`), and atomic commands
//! (assignment, field/array/global reads and writes, allocation, calls,
//! `assume`, `return`).
//!
//! Programs are built either programmatically via [`ProgramBuilder`]:
//!
//! ```
//! use tir::{ProgramBuilder, Ty};
//!
//! let mut b = ProgramBuilder::new();
//! let cell = b.class("Cell", None);
//! let main = b.method(None, "main", &[], None, |mb| {
//!     let c = mb.var("c", Ty::Ref(cell));
//!     mb.new_obj(c, cell, "cell0");
//!     mb.ret_void();
//! });
//! b.set_entry(main);
//! let program = b.finish();
//! assert_eq!(program.num_cmds(), 2);
//! ```
//!
//! or from the textual syntax via [`parse`]:
//!
//! ```
//! let program = tir::parse(r#"
//! fn main() {
//!   var x: Object;
//!   x = new Object @o0;
//! }
//! entry main;
//! "#)?;
//! assert_eq!(program.alloc_ids().count(), 1);
//! # Ok::<(), tir::ParseError>(())
//! ```
//!
//! The pretty-printer [`print_program`] emits the same syntax, and
//! round-trips through [`parse`].
//!
//! Both ways in, and the statement and method edits of [`apply_edits`],
//! go through one lowering into the program's arenas, with one set of
//! declaration rules. Names are unique per scope: class, global and free
//! function per program; field and method per class; local and parameter
//! per method. Allocation-site names are unique per program, removed sites
//! included, because analyses key facts by site name. A duplicate is a
//! [`ParseError`] from [`parse`], an [`EditError`] from [`apply_edits`] and
//! a panic in [`ProgramBuilder`].

#![warn(missing_docs)]

mod builder;
pub mod edit;
mod ids;
pub mod interp;
mod lower;
mod parser;
mod printer;
mod program;
mod stmt;
pub mod validate;

pub use builder::{MethodBuilder, ProgramBuilder};
pub use edit::{apply_edits, AppliedEdit, EditError, EditOp};
pub use ids::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, VarId};
pub use parser::{parse, ParseError};
pub use printer::{print_cmd, print_method_text, print_program};
pub use program::{AllocSite, Class, Field, Global, Method, Program, Ty, VarInfo};
pub use stmt::{BinOp, Callee, CmpOp, Command, Cond, Operand, Stmt};
