//! Refutation query keys.
//!
//! The scheduler, decision cache, and daemon originally spoke only in heap
//! edges. The null-dereference client asks a second question — "can `null`
//! flow into the value dereferenced here?" — so the unit of refutation work
//! is generalized to a [`RefKey`]: either a points-to edge or a
//! [`DerefSite`]. Both kinds run through the same engine, parallel
//! scheduler, and persistent store.

use pta::{HeapEdge, PtaResult};
use tir::{CmdId, Program, VarId};

/// A candidate null dereference: command `cmd` dereferences the value of
/// local `base` (a field access, array access, or virtual call receiver).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DerefSite {
    /// The dereferencing command.
    pub cmd: CmdId,
    /// The local whose value is dereferenced by `cmd`.
    pub base: VarId,
}

impl DerefSite {
    /// Human-readable rendering, e.g. `null? b at obj.f = b.item`.
    pub fn describe(&self, program: &Program) -> String {
        format!("null? {} at {}", program.var(self.base).name, program.describe_cmd(self.cmd))
    }
}

/// The unit of refutation work: a heap edge (escape/leak clients) or a null
/// dereference site (null client).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RefKey {
    /// A flow-insensitive points-to edge to refute.
    Edge(HeapEdge),
    /// A candidate null dereference to refute.
    Deref(DerefSite),
}

impl RefKey {
    /// The heap edge, when this key is an edge query.
    pub fn as_edge(&self) -> Option<&HeapEdge> {
        match self {
            RefKey::Edge(e) => Some(e),
            RefKey::Deref(_) => None,
        }
    }

    /// The dereference site, when this key is a deref query.
    pub fn as_deref(&self) -> Option<&DerefSite> {
        match self {
            RefKey::Edge(_) => None,
            RefKey::Deref(s) => Some(s),
        }
    }

    /// Human-readable rendering for spans and logs.
    pub fn describe(&self, program: &Program, pta: &PtaResult) -> String {
        match self {
            RefKey::Edge(e) => e.describe(program, pta),
            RefKey::Deref(s) => s.describe(program),
        }
    }
}

impl From<HeapEdge> for RefKey {
    fn from(e: HeapEdge) -> Self {
        RefKey::Edge(e)
    }
}

impl From<DerefSite> for RefKey {
    fn from(s: DerefSite) -> Self {
        RefKey::Deref(s)
    }
}
