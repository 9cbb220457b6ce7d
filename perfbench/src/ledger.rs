//! Benchmark-side spans and the per-layer time ledger of a traced run.
//!
//! Spans are taken here, in the benchmark, around calls into each layer's
//! public entry points; nothing inside the program is instrumented for
//! the benchmark. A span's *self time* is its duration minus the
//! durations of its children. Time a call spends in a lower layer that
//! only the program's own registry can see (solver time inside a triage,
//! the phases inside a daemon request) is attached as a synthetic child
//! span of the measured length, so it leaves the caller's self time and
//! lands in the lower layer.
//!
//! Every traced pass has one root span of layer [`UNATTRIBUTED`]: its self
//! time is the part of the pass no layer claimed (the benchmark's own
//! loop), so the self times of all layers add up to the pass exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::json::Value;

/// Layer of the root span of a pass: time between the measured calls.
pub const UNATTRIBUTED: &str = "unattributed";

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (module) the span's self time is charged to.
    pub layer: &'static str,
    /// Entry point or request that was called.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder; written out once, when the run ends. A
/// tracer made with [`Tracer::off`] records nothing, so untraced runs
/// take the same code path without paying for spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recording tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { on: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { on: false, ..Tracer::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, layer: &'static str, name: impl Into<String>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_us: self.now_us(),
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].dur_us = self.now_us() - self.spans[idx].start_us;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(layer, name);
        let r = f();
        self.exit(idx);
        r
    }

    /// Charges `dur_us` of span `parent` to `layer`: a synthetic child
    /// covering time the registry or a daemon cost block attributes to a
    /// lower layer.
    pub fn attribute(&mut self, parent: usize, layer: &'static str, dur_us: f64) {
        if !self.on {
            return;
        }
        let start_us = self.spans[parent].start_us;
        self.spans.push(Span {
            layer,
            name: layer.to_owned(),
            start_us,
            dur_us,
            parent: Some(parent),
        });
    }

    /// Self time per layer, in microseconds, over every span recorded.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_us - c;
        }
        out
    }

    /// Total duration of the root spans of `layer` (the traced passes).
    pub fn root_us(&self, layer: &str) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none() && s.layer == layer).map(|s| s.dur_us).sum()
    }

    /// Total duration of spans named `name` (e.g. one entry point).
    pub fn named_us(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum()
    }

    /// The spans as Chrome trace events (`ph: "X"`, one track per layer).
    pub fn to_value(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::str(s.name.clone())),
                    ("cat".to_owned(), Value::str(s.layer)),
                    ("ph".to_owned(), Value::str("X")),
                    ("ts".to_owned(), Value::Float(s.start_us)),
                    ("dur".to_owned(), Value::Float(s.dur_us)),
                    ("pid".to_owned(), Value::uint(1)),
                    ("tid".to_owned(), Value::uint(1)),
                ])
            })
            .collect();
        Value::Arr(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        let root = t.enter(UNATTRIBUTED, "pass");
        let call = t.enter("symex", "triage");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(call);
        t.attribute(call, "solver", 500.0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit(root);
        let selfs = t.self_times_us();
        let total: f64 = selfs.values().sum();
        assert!((total - t.root_us(UNATTRIBUTED)).abs() < 1e-6, "{selfs:?}");
        assert!((selfs["solver"] - 500.0).abs() < 1e-9);
        assert!(selfs["symex"] > 0.0);
        assert!(selfs[UNATTRIBUTED] >= 1000.0);
        assert!(t.named_us("triage") >= 2000.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.enter(UNATTRIBUTED, "pass");
        t.span("symex", "triage", || ());
        t.attribute(root, "solver", 1.0);
        t.exit(root);
        assert!(t.self_times_us().is_empty());
    }
}
