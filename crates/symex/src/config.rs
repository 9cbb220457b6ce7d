//! Engine configuration, including the ablation switches evaluated in §4
//! and the robustness knobs (deadlines, fault injection). The one coarse
//! retry of [`Engine::refute_edge_resilient`] has no knob: it derives its
//! configuration from the base one by dropping loop-invariant inference.
//!
//! The search limits §4 fixes are constants, not fields: call-stack depth
//! 3, two path-constraint atoms, materialization bound 1, plus the loop
//! widening round, witness-trace and heap-cell caps below.
//!
//! [`Engine::refute_edge_resilient`]: crate::Engine::refute_edge_resilient

use std::time::Duration;

/// Call-stack depth beyond which callees are skipped by dropping the
/// constraints they may produce (mod/ref). Paper: 3.
pub(crate) const MAX_CALL_DEPTH: usize = 3;

/// Maximum number of path-condition atoms kept per query (older atoms are
/// dropped — a sound weakening). Paper: 2.
pub(crate) const MAX_PATH_ATOMS: usize = 2;

/// Maximum backwards passes over a loop body before widening kicks in.
pub(crate) const LOOP_ITER_CAP: usize = 3;

/// Maximum instances materialized per abstract location during loop
/// invariant inference. Paper: 1.
pub(crate) const MATERIALIZATION_BOUND: usize = 1;

/// Maximum recorded trace steps per witness.
pub(crate) const TRACE_CAP: usize = 512;

/// Cap on exact heap cells per query; excess (newest) cells are dropped —
/// a sound weakening bounding per-transfer cost on deep searches.
pub(crate) const MAX_HEAP_CELLS: usize = 24;

/// Query representation (§2.2, Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// The paper's contribution: symbolic variables carrying `from`
    /// instance constraints that are narrowed at every flow step, enabling
    /// early refutations without case splits.
    Mixed,
    /// Ablation: points-to facts are used only as a PSE-style aliasing
    /// oracle (pruning the aliased case of field writes) and to check
    /// allocation sites at `new`; `from` sets are never narrowed by flow and
    /// region subset checks are disabled during subsumption.
    FullySymbolic,
    /// Ablation: `from` constraints are expanded eagerly — every symbolic
    /// variable is case-split into one query per abstract location in its
    /// region (a backwards analogue of lazy initialization over locations,
    /// §2.2).
    FullyExplicit,
}

/// Loop handling (§3.3, hypothesis 3 of §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopMode {
    /// On-the-fly loop invariant inference: per-query fixed point over heap
    /// constraints with a materialization bound, dropping only pure
    /// constraints that fail to stabilize.
    Infer,
    /// Ablation: drop every constraint the loop body may modify.
    DropAll,
}

/// Tuning knobs for the witness-refutation search. Defaults reproduce the
/// configuration of the paper's evaluation (§4).
#[derive(Clone, Debug)]
pub struct SymexConfig {
    /// Query representation.
    pub representation: Representation,
    /// Loop handling.
    pub loop_mode: LoopMode,
    /// Enable query-history subsumption at loop heads and procedure
    /// boundaries (hypothesis 2 ablation when disabled).
    pub simplification: bool,
    /// Exploration budget: maximum number of path programs (query forks)
    /// per edge before declaring a timeout. Paper: 10,000.
    pub budget: u64,
    /// Cooperative wall-clock deadline per refuted edge. Checked amortized
    /// inside the engine's budget charging, so hot loops pay ~zero cost.
    /// `None` (the default) disables the check.
    pub edge_deadline: Option<Duration>,
    /// Cooperative wall-clock deadline for everything one engine does
    /// across all its edges (measured from engine construction). Edges
    /// started after it expires abort immediately with
    /// [`StopReason::WallClock`].
    ///
    /// [`StopReason::WallClock`]: crate::StopReason::WallClock
    pub total_deadline: Option<Duration>,
    /// Enables must-not-null strong updates from branch guards: an
    /// `assume x != null` on an unbound reference local pins `x` to a fresh
    /// symbolic instance (symbolic values denote concrete instances, never
    /// null), so a pending `x ↦ null` constraint in a sibling disjunct
    /// refutes instead of surviving the guard. Sound for the null client's
    /// "can null reach this dereference" queries; off by default so the
    /// escape/leak clients keep their historical path behavior.
    pub track_null_guards: bool,
    /// Fault-injection hook for tests: panic inside the backwards `new`
    /// transfer when the allocation site carries this name. Exercises the
    /// drivers' panic containment; never set in production configs.
    #[doc(hidden)]
    pub inject_panic_on_new: Option<String>,
}

impl Default for SymexConfig {
    fn default() -> Self {
        SymexConfig {
            representation: Representation::Mixed,
            loop_mode: LoopMode::Infer,
            simplification: true,
            budget: 10_000,
            edge_deadline: None,
            total_deadline: None,
            track_null_guards: false,
            inject_panic_on_new: None,
        }
    }
}

impl SymexConfig {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the representation (builder style).
    pub fn with_representation(mut self, r: Representation) -> Self {
        self.representation = r;
        self
    }

    /// Sets the loop mode (builder style).
    pub fn with_loop_mode(mut self, m: LoopMode) -> Self {
        self.loop_mode = m;
        self
    }

    /// Enables/disables query simplification (builder style).
    pub fn with_simplification(mut self, on: bool) -> Self {
        self.simplification = on;
        self
    }

    /// Sets the per-edge path-program budget (builder style).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the per-edge wall-clock deadline (builder style).
    pub fn with_edge_deadline(mut self, d: Duration) -> Self {
        self.edge_deadline = Some(d);
        self
    }

    /// Sets the whole-engine wall-clock deadline (builder style).
    pub fn with_total_deadline(mut self, d: Duration) -> Self {
        self.total_deadline = Some(d);
        self
    }

    /// Enables/disables must-not-null guard tracking (builder style).
    pub fn with_null_guards(mut self, on: bool) -> Self {
        self.track_null_guards = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SymexConfig::default();
        assert_eq!(c.budget, 10_000);
        assert_eq!(MAX_CALL_DEPTH, 3);
        assert_eq!(MAX_PATH_ATOMS, 2);
        assert_eq!(MATERIALIZATION_BOUND, 1);
        assert_eq!(c.representation, Representation::Mixed);
        assert!(c.simplification);
        assert_eq!(c.edge_deadline, None);
        assert_eq!(c.total_deadline, None);
        assert!(!c.track_null_guards);
        assert!(c.inject_panic_on_new.is_none());
    }

    #[test]
    fn builder_chains() {
        let c = SymexConfig::new()
            .with_representation(Representation::FullySymbolic)
            .with_simplification(false)
            .with_budget(5);
        assert_eq!(c.representation, Representation::FullySymbolic);
        assert!(!c.simplification);
        assert_eq!(c.budget, 5);
    }
}
