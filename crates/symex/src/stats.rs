//! Search outcomes, abort provenance, witnesses, and statistics.

use tir::{CmdId, Program};

use crate::query::Refuted;

/// A path program witnessing a query: the reverse-order trace of commands
/// the backwards search traversed from the producing statement to the point
/// where the query was discharged.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Commands traversed, most recent (closest to discharge) last.
    pub trace: Vec<CmdId>,
    /// Rendering of the final (discharged or entry) query.
    pub final_query: String,
}

impl Witness {
    /// The rendered trace steps, most recent last — the single source both
    /// [`Witness::describe`] and [`Witness::to_value`] draw from, so the
    /// human and machine renderings cannot diverge.
    pub fn steps(&self, program: &Program) -> Vec<String> {
        self.trace.iter().map(|&c| program.describe_cmd(c)).collect()
    }

    /// Renders the witness trace using program names.
    pub fn describe(&self, program: &Program) -> String {
        format!("[{}] final: {}", self.steps(program).join(" <- "), self.final_query)
    }

    /// A structured JSON view of the witness (`steps` + `final_query`),
    /// suitable for embedding in machine-readable output.
    pub fn to_value(&self, program: &Program) -> obs::json::Value {
        use obs::json::Value;
        Value::Obj(vec![
            (
                "steps".to_owned(),
                Value::Arr(self.steps(program).into_iter().map(Value::str).collect()),
            ),
            ("final_query".to_owned(), Value::str(self.final_query.clone())),
        ])
    }
}

/// Why a search gave up without an answer. Every variant is *sound to
/// ignore*: an aborted edge is treated exactly like a witnessed one (not
/// refuted), so the only cost of an abort is precision, never soundness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The path-program (fork) budget was exhausted.
    ForkBudget,
    /// The straight-line command-transfer allowance was exhausted.
    WorkBudget,
    /// A cooperative wall-clock deadline expired
    /// ([`SymexConfig::edge_deadline`] / [`SymexConfig::total_deadline`]).
    ///
    /// [`SymexConfig::edge_deadline`]: crate::SymexConfig::edge_deadline
    /// [`SymexConfig::total_deadline`]: crate::SymexConfig::total_deadline
    WallClock,
    /// Upward caller propagation exceeded the hard depth cap.
    CallerDepth,
    /// A panic inside the search was caught and contained; the payload
    /// message is preserved for diagnosis.
    Panic(String),
    /// The constraint solver could not decide a query (e.g. arithmetic
    /// overflow while normalizing); treated as satisfiable, i.e. the path
    /// stays alive and the edge is not refuted.
    SolverFailure,
}

impl StopReason {
    /// Stable kebab-case key for this reason — the label used by
    /// [`AbortCounts::describe`] and parseable back via [`FromStr`]. The
    /// panic payload is not part of the key.
    ///
    /// [`FromStr`]: std::str::FromStr
    pub fn key(&self) -> &'static str {
        match self {
            StopReason::ForkBudget => "fork-budget",
            StopReason::WorkBudget => "work-budget",
            StopReason::WallClock => "wall-clock",
            StopReason::CallerDepth => "caller-depth",
            StopReason::Panic(_) => "panic",
            StopReason::SolverFailure => "solver-failure",
        }
    }

    /// The obs counter tallying aborts with this reason.
    pub fn counter(&self) -> obs::Counter {
        match self {
            StopReason::ForkBudget => obs::Counter::AbortForkBudget,
            StopReason::WorkBudget => obs::Counter::AbortWorkBudget,
            StopReason::WallClock => obs::Counter::AbortWallClock,
            StopReason::CallerDepth => obs::Counter::AbortCallerDepth,
            StopReason::Panic(_) => obs::Counter::AbortPanic,
            StopReason::SolverFailure => obs::Counter::AbortSolverFailure,
        }
    }

    /// Every reason once (panic with an empty payload), in key order.
    pub fn all() -> [StopReason; 6] {
        [
            StopReason::ForkBudget,
            StopReason::WorkBudget,
            StopReason::WallClock,
            StopReason::CallerDepth,
            StopReason::Panic(String::new()),
            StopReason::SolverFailure,
        ]
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::ForkBudget => write!(f, "fork budget exhausted"),
            StopReason::WorkBudget => write!(f, "work budget exhausted"),
            StopReason::WallClock => write!(f, "wall-clock deadline"),
            StopReason::CallerDepth => write!(f, "caller depth cap"),
            StopReason::Panic(msg) => write!(f, "contained panic: {msg}"),
            StopReason::SolverFailure => write!(f, "solver failure"),
        }
    }
}

/// A [`StopReason`] rendering that could not be parsed back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseStopReasonError(String);

impl std::fmt::Display for ParseStopReasonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown stop reason {:?}", self.0)
    }
}

impl std::error::Error for ParseStopReasonError {}

impl std::str::FromStr for StopReason {
    type Err = ParseStopReasonError;

    /// Parses either the stable [`StopReason::key`] or the [`Display`]
    /// rendering, so both forms round-trip. A panic's payload survives the
    /// Display round-trip ("contained panic: msg") but not the key form.
    ///
    /// [`Display`]: std::fmt::Display
    fn from_str(s: &str) -> Result<StopReason, ParseStopReasonError> {
        if let Some(msg) = s.strip_prefix("contained panic: ") {
            return Ok(StopReason::Panic(msg.to_owned()));
        }
        Ok(match s {
            "fork-budget" | "fork budget exhausted" => StopReason::ForkBudget,
            "work-budget" | "work budget exhausted" => StopReason::WorkBudget,
            "wall-clock" | "wall-clock deadline" => StopReason::WallClock,
            "caller-depth" | "caller depth cap" => StopReason::CallerDepth,
            "panic" => StopReason::Panic(String::new()),
            "solver-failure" | "solver failure" => StopReason::SolverFailure,
            _ => return Err(ParseStopReasonError(s.to_owned())),
        })
    }
}

/// Result of one witness-refutation search.
#[derive(Clone, Debug)]
pub enum SearchOutcome {
    /// Every path program producing the query was refuted.
    Refuted,
    /// A full (over-approximate) path-program witness was found.
    Witnessed(Witness),
    /// The search gave up for the stated reason; soundly treated as
    /// not-refuted (exactly like a witnessed edge).
    Aborted(StopReason),
}

impl SearchOutcome {
    /// True for [`SearchOutcome::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, SearchOutcome::Refuted)
    }

    /// True for [`SearchOutcome::Witnessed`].
    pub fn is_witnessed(&self) -> bool {
        matches!(self, SearchOutcome::Witnessed(_))
    }

    /// True for [`SearchOutcome::Aborted`] (historical name: every abort is
    /// treated like the paper's timeout).
    pub fn is_timeout(&self) -> bool {
        self.is_aborted()
    }

    /// True for [`SearchOutcome::Aborted`].
    pub fn is_aborted(&self) -> bool {
        matches!(self, SearchOutcome::Aborted(_))
    }

    /// The abort reason, if this outcome is an abort.
    pub fn abort_reason(&self) -> Option<&StopReason> {
        match self {
            SearchOutcome::Aborted(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-reason abort counters, aggregated by drivers across edges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts {
    /// Aborts from fork-budget exhaustion.
    pub fork_budget: u64,
    /// Aborts from work-budget exhaustion.
    pub work_budget: u64,
    /// Aborts from wall-clock deadlines.
    pub wall_clock: u64,
    /// Aborts from the caller-depth cap.
    pub caller_depth: u64,
    /// Aborts from contained panics.
    pub panic: u64,
    /// Aborts from solver failures.
    pub solver_failure: u64,
}

impl AbortCounts {
    /// Records one abort by reason. This is the *only* place the per-reason
    /// obs abort counters are bumped, so driver-level [`AbortCounts`] and
    /// the [`obs`] registry agree exactly by construction.
    pub fn record(&mut self, reason: &StopReason) {
        match reason {
            StopReason::ForkBudget => self.fork_budget += 1,
            StopReason::WorkBudget => self.work_budget += 1,
            StopReason::WallClock => self.wall_clock += 1,
            StopReason::CallerDepth => self.caller_depth += 1,
            StopReason::Panic(_) => self.panic += 1,
            StopReason::SolverFailure => self.solver_failure += 1,
        }
        obs::add(reason.counter(), 1);
    }

    /// Adds `other`'s counts field-wise, *without* touching the obs
    /// registry — the obs adds happened at the original [`AbortCounts::record`]
    /// call, and merging already-recorded tallies must not repeat them.
    pub fn merge(&mut self, other: &AbortCounts) {
        self.fork_budget += other.fork_budget;
        self.work_budget += other.work_budget;
        self.wall_clock += other.wall_clock;
        self.caller_depth += other.caller_depth;
        self.panic += other.panic;
        self.solver_failure += other.solver_failure;
    }

    /// `(stable key, count)` pairs in [`StopReason::all`] order.
    pub fn by_key(&self) -> [(&'static str, u64); 6] {
        [
            ("fork-budget", self.fork_budget),
            ("work-budget", self.work_budget),
            ("wall-clock", self.wall_clock),
            ("caller-depth", self.caller_depth),
            ("panic", self.panic),
            ("solver-failure", self.solver_failure),
        ]
    }

    /// Total aborts across reasons.
    pub fn total(&self) -> u64 {
        self.fork_budget
            + self.work_budget
            + self.wall_clock
            + self.caller_depth
            + self.panic
            + self.solver_failure
    }

    /// A compact single-line rendering of the non-zero counters. Labels are
    /// the stable [`StopReason::key`] strings, so each `label=count` part
    /// parses back to its reason.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for (label, n) in self.by_key() {
            if n > 0 {
                parts.push(format!("{label}={n}"));
            }
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Counters accumulated across searches by one engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Path programs (query forks) explored.
    pub path_programs: u64,
    /// Backwards command transfers applied.
    pub cmds_executed: u64,
    /// Refutations by reason.
    pub refutations: RefutationCounts,
    /// Queries dropped by history subsumption.
    pub subsumed: u64,
    /// Loop-invariant fixed points run.
    pub loop_fixpoints: u64,
    /// Calls skipped via the frame rule (irrelevant mod/ref).
    pub calls_skipped_irrelevant: u64,
    /// Calls skipped for exceeding the stack bound (constraints dropped).
    pub calls_skipped_depth: u64,
}

/// Per-reason refutation counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefutationCounts {
    /// Empty `from` region.
    pub empty_region: u64,
    /// Separation contradictions.
    pub separation: u64,
    /// Pure-constraint contradictions.
    pub pure: u64,
    /// Pre-allocation contradictions.
    pub allocation: u64,
    /// Contradictions at program entry.
    pub entry: u64,
}

impl SearchStats {
    /// Records one refutation. Like every `SearchStats` mutator, this is
    /// the single recording site for its metric: the per-engine field and
    /// the global [`obs`] counter move together, so report totals match
    /// engine stats exactly.
    pub fn count_refutation(&mut self, r: Refuted) {
        let counter = match r {
            Refuted::EmptyRegion => {
                self.refutations.empty_region += 1;
                obs::Counter::RefutedEmptyRegion
            }
            Refuted::Separation => {
                self.refutations.separation += 1;
                obs::Counter::RefutedSeparation
            }
            Refuted::Pure => {
                self.refutations.pure += 1;
                obs::Counter::RefutedPure
            }
            Refuted::Allocation => {
                self.refutations.allocation += 1;
                obs::Counter::RefutedAllocation
            }
            Refuted::Entry => {
                self.refutations.entry += 1;
                obs::Counter::RefutedEntry
            }
        };
        obs::add(counter, 1);
    }

    /// Records `n` explored path programs (query forks).
    pub fn add_path_programs(&mut self, n: u64) {
        self.path_programs += n;
        obs::add(obs::Counter::PathPrograms, n);
    }

    /// Records one backwards command transfer.
    pub fn add_cmd_executed(&mut self) {
        self.cmds_executed += 1;
        obs::add(obs::Counter::CmdsExecuted, 1);
    }

    /// Records one query dropped by history subsumption.
    pub fn add_subsumed(&mut self) {
        self.subsumed += 1;
        obs::add(obs::Counter::Subsumed, 1);
    }

    /// Records one loop-invariant fixed point.
    pub fn add_loop_fixpoint(&mut self) {
        self.loop_fixpoints += 1;
        obs::add(obs::Counter::LoopFixpoints, 1);
    }

    /// Records one call skipped via the frame rule.
    pub fn add_call_skipped_irrelevant(&mut self) {
        self.calls_skipped_irrelevant += 1;
        obs::add(obs::Counter::CallsSkippedIrrelevant, 1);
    }

    /// Records one call skipped for exceeding the stack bound.
    pub fn add_call_skipped_depth(&mut self) {
        self.calls_skipped_depth += 1;
        obs::add(obs::Counter::CallsSkippedDepth, 1);
    }

    /// Total refutations across reasons.
    pub fn total_refutations(&self) -> u64 {
        let r = &self.refutations;
        r.empty_region + r.separation + r.pure + r.allocation + r.entry
    }

    /// The field-wise difference `self - before`. Used by the parallel
    /// scheduler to extract what one edge decision contributed to a worker
    /// engine's running totals. `before` must be an earlier snapshot of the
    /// same engine's stats (every field monotonically non-decreasing).
    pub fn delta_since(&self, before: &SearchStats) -> SearchStats {
        SearchStats {
            path_programs: self.path_programs - before.path_programs,
            cmds_executed: self.cmds_executed - before.cmds_executed,
            refutations: RefutationCounts {
                empty_region: self.refutations.empty_region - before.refutations.empty_region,
                separation: self.refutations.separation - before.refutations.separation,
                pure: self.refutations.pure - before.refutations.pure,
                allocation: self.refutations.allocation - before.refutations.allocation,
                entry: self.refutations.entry - before.refutations.entry,
            },
            subsumed: self.subsumed - before.subsumed,
            loop_fixpoints: self.loop_fixpoints - before.loop_fixpoints,
            calls_skipped_irrelevant: self.calls_skipped_irrelevant
                - before.calls_skipped_irrelevant,
            calls_skipped_depth: self.calls_skipped_depth - before.calls_skipped_depth,
        }
    }

    /// Adds `other`'s counts into `self` field-wise, *without* touching the
    /// obs registry — merging accounts numbers that were already recorded
    /// (or captured) once; double-recording them would break the
    /// single-recording-site discipline.
    pub fn merge(&mut self, other: &SearchStats) {
        self.path_programs += other.path_programs;
        self.cmds_executed += other.cmds_executed;
        self.refutations.empty_region += other.refutations.empty_region;
        self.refutations.separation += other.refutations.separation;
        self.refutations.pure += other.refutations.pure;
        self.refutations.allocation += other.refutations.allocation;
        self.refutations.entry += other.refutations.entry;
        self.subsumed += other.subsumed;
        self.loop_fixpoints += other.loop_fixpoints;
        self.calls_skipped_irrelevant += other.calls_skipped_irrelevant;
        self.calls_skipped_depth += other.calls_skipped_depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(SearchOutcome::Refuted.is_refuted());
        let a = SearchOutcome::Aborted(StopReason::ForkBudget);
        assert!(a.is_aborted());
        assert!(a.is_timeout());
        assert_eq!(a.abort_reason(), Some(&StopReason::ForkBudget));
        let w = SearchOutcome::Witnessed(Witness { trace: Vec::new(), final_query: "any".into() });
        assert!(w.is_witnessed());
        assert!(!w.is_refuted());
        assert!(w.abort_reason().is_none());
    }

    #[test]
    fn refutation_counting() {
        let mut s = SearchStats::default();
        s.count_refutation(Refuted::Pure);
        s.count_refutation(Refuted::Pure);
        s.count_refutation(Refuted::EmptyRegion);
        assert_eq!(s.refutations.pure, 2);
        assert_eq!(s.total_refutations(), 3);
    }

    #[test]
    fn abort_counts_record_and_describe() {
        let mut a = AbortCounts::default();
        assert_eq!(a.describe(), "none");
        a.record(&StopReason::ForkBudget);
        a.record(&StopReason::ForkBudget);
        a.record(&StopReason::Panic("boom".into()));
        assert_eq!(a.fork_budget, 2);
        assert_eq!(a.panic, 1);
        assert_eq!(a.total(), 3);
        assert_eq!(a.describe(), "fork-budget=2 panic=1");
        a.record(&StopReason::SolverFailure);
        assert_eq!(a.describe(), "fork-budget=2 panic=1 solver-failure=1");
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::WallClock.to_string(), "wall-clock deadline");
        assert_eq!(
            StopReason::Panic("index out of bounds".into()).to_string(),
            "contained panic: index out of bounds"
        );
    }

    #[test]
    fn stop_reason_round_trips() {
        for reason in StopReason::all() {
            // Key form round-trips every variant (panic loses its payload).
            assert_eq!(reason.key().parse::<StopReason>().as_ref(), Ok(&reason), "{reason:?}");
            // Display form round-trips too, payload included.
            assert_eq!(reason.to_string().parse::<StopReason>().as_ref(), Ok(&reason));
        }
        let p = StopReason::Panic("boom: nested".into());
        assert_eq!(p.to_string().parse::<StopReason>(), Ok(p.clone()));
        assert_eq!(p.key().parse::<StopReason>(), Ok(StopReason::Panic(String::new())));
        assert!("never heard of it".parse::<StopReason>().is_err());
        // Describe labels are exactly the parseable keys.
        let a = AbortCounts { solver_failure: 1, ..AbortCounts::default() };
        for part in a.describe().split(' ') {
            let (label, _) = part.split_once('=').expect("label=count");
            assert!(label.parse::<StopReason>().is_ok(), "{label}");
        }
    }

    #[test]
    fn abort_keys_match_stop_reasons() {
        let a = AbortCounts::default();
        for ((label, _), reason) in a.by_key().iter().zip(StopReason::all()) {
            assert_eq!(*label, reason.key());
        }
    }

    #[test]
    fn witness_describe_and_value_agree() {
        let p: Program = tir::parse(
            r#"
fn main() {
  var o: Object;
  o = new Object @obj0;
}
entry main;
"#,
        )
        .expect("parse");
        let cmd = p.method_ids().flat_map(|m| p.method_cmds(m)).next().expect("a command");
        let w = Witness { trace: vec![cmd], final_query: "final state".into() };
        let described = w.describe(&p);
        let v = w.to_value(&p);
        let steps = v.get("steps").and_then(obs::json::Value::as_arr).expect("steps");
        assert_eq!(steps.len(), 1);
        // Every structured step appears verbatim in the human rendering.
        for s in steps {
            assert!(described.contains(s.as_str().unwrap()), "{described}");
        }
        assert_eq!(v.get("final_query").and_then(obs::json::Value::as_str), Some("final state"));
        assert!(described.ends_with("final: final state"));
    }
}
