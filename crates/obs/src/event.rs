//! Trace events and the span taxonomy.

/// The span taxonomy, ordered roughly from coarse to fine. The hierarchy
/// on a healthy run is:
///
/// ```text
/// run > setup | client > alarm | query > edge > attempt > path >
///     loop-fixpoint | solver-call
/// ```
///
/// `message` is not a span: it is the kind used for instant diagnostic
/// events (the replacement for ad-hoc `eprintln!` sites).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole tool invocation.
    Run,
    /// Up-front analyses (points-to, mod/ref).
    Setup,
    /// The flow-insensitive points-to constraint solve.
    Pta,
    /// One client run (leak client, escape checker).
    Client,
    /// Triage of one alarm.
    Alarm,
    /// One refined reachability query.
    Query,
    /// Refutation of one heap edge (all attempts).
    Edge,
    /// One refutation attempt at a fixed precision (the strict pass or the
    /// coarse retry).
    Attempt,
    /// One witness search from one producing statement.
    Path,
    /// One loop-invariant fixed point.
    LoopFixpoint,
    /// One decision-procedure call.
    SolverCall,
    /// An instant diagnostic message.
    Message,
}

impl SpanKind {
    /// Stable kebab-case name, used as the Chrome trace category.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Setup => "setup",
            SpanKind::Pta => "pta",
            SpanKind::Client => "client",
            SpanKind::Alarm => "alarm",
            SpanKind::Query => "query",
            SpanKind::Edge => "edge",
            SpanKind::Attempt => "attempt",
            SpanKind::Path => "path",
            SpanKind::LoopFixpoint => "loop-fixpoint",
            SpanKind::SolverCall => "solver-call",
            SpanKind::Message => "message",
        }
    }

    /// Kinds fine enough that a coarse recorder may want to skip them.
    pub fn is_fine_grained(self) -> bool {
        matches!(
            self,
            SpanKind::Path | SpanKind::LoopFixpoint | SpanKind::SolverCall | SpanKind::Message
        )
    }
}

/// One recorded event: a completed span (`dur_us` > 0 possible) or an
/// instant message (`instant` set, `dur_us` = 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span taxonomy kind (Chrome trace category).
    pub kind: SpanKind,
    /// Human-readable label (Chrome trace name).
    pub label: String,
    /// Start time, microseconds since the process epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Dense per-process thread id.
    pub tid: u32,
    /// Nesting depth at the time the span started (0 = top level).
    pub depth: u16,
    /// True for instant events.
    pub instant: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let all = [
            SpanKind::Run,
            SpanKind::Setup,
            SpanKind::Pta,
            SpanKind::Client,
            SpanKind::Alarm,
            SpanKind::Query,
            SpanKind::Edge,
            SpanKind::Attempt,
            SpanKind::Path,
            SpanKind::LoopFixpoint,
            SpanKind::SolverCall,
            SpanKind::Message,
        ];
        let mut names: Vec<&str> = all.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn fine_grained_partition() {
        assert!(SpanKind::SolverCall.is_fine_grained());
        assert!(!SpanKind::Edge.is_fine_grained());
    }
}
