//! # pta — flow-insensitive points-to analysis
//!
//! An Andersen-style, field-sensitive, flow-insensitive points-to analysis
//! for [`tir`] programs, with on-the-fly call-graph construction and
//! selectable context sensitivity (the paper uses WALA's 0-1-Container-CFA;
//! see [`ContextPolicy`]).
//!
//! Outputs, all consumed by the Thresher refutation engine:
//! - the points-to graph ([`PtaResult`]): `pt(x)`, `pt(global)`,
//!   `pt(loc.field)`;
//! - the *producer map*: for each may heap edge, the write commands that may
//!   produce it (where witness searches start);
//! - the call graph (forward targets and reverse callers);
//! - mod/ref summaries ([`ModRef`]);
//! - a deletable graph view ([`HeapGraphView`]) used by clients to remove
//!   refuted edges and re-query reachability.
//!
//! ```
//! use pta::{analyze, ContextPolicy};
//!
//! let program = tir::parse(r#"
//! global G: Object;
//! fn main() {
//!   var o: Object;
//!   o = new Object @o0;
//!   $G = o;
//! }
//! entry main;
//! "#)?;
//! let result = analyze(&program, ContextPolicy::Insensitive);
//! let g = program.global_by_name("G").unwrap();
//! assert_eq!(result.pt_global(g).len(), 1);
//! # Ok::<(), tir::ParseError>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod bitset;
mod context;
mod graph;
mod incremental;
mod loc;
mod modref;
mod result;

pub use analysis::{analyze, analyze_reference, analyze_with, PtaOptions};
pub use bitset::BitSet;
pub use context::ContextPolicy;
pub use graph::HeapGraphView;
pub use incremental::{EditSolveStats, IncrementalPta};
pub use loc::{AbsLoc, LocId, LocTable};
pub use modref::ModRef;
pub use result::{canonical_text, HeapEdge, PtaResult};
