//! # android — the Android substrate model and Activity-leak client
//!
//! The paper's evaluation targets Activity leaks in Android apps: an
//! `Activity` reachable from a static field outlives its lifecycle and can
//! never be garbage-collected (§4). This crate provides everything that the
//! real evaluation took from the Android platform:
//!
//! - [`library`]: model library classes — the `Activity`/`Adapter`/`View`
//!   hierarchy (adapters hold `mContext` back-pointers, the root cause of
//!   the Figure 5 leak), plus `AVec` and `AHashMap` collections implemented
//!   with the null-object pattern that pollutes flow-insensitive analyses
//!   (§2, footnote 1);
//! - [`harness`]: event-handler harness generation (every handler invoked
//!   at most once, mirroring §4 "Implementation");
//! - [`annotations`]: the `EMPTY_TABLE` annotation of the `Ann?=Y`
//!   configuration;
//! - [`client`]: alarm enumeration and the edge-by-edge witness-refutation
//!   loop producing a [`LeakReport`] with the Table 1 counters.
//!
//! ```
//! use android::{harness::ActivitySpec, ActivityLeakChecker};
//! use tir::{ProgramBuilder, Ty};
//!
//! let mut b = ProgramBuilder::new();
//! let lib = android::library::install(&mut b);
//! let act = b.class("MainActivity", Some(lib.activity));
//! let sink = b.global("SINK", Ty::Ref(lib.activity));
//! b.method(Some(act), "onCreate", &[], None, |mb| {
//!     let this = mb.this();
//!     mb.write_global(sink, this);  // a blatant leak
//! });
//! android::harness::generate_main(&mut b, &lib, &[ActivitySpec::new(act, "main0")]);
//! let program = b.finish();
//!
//! let report = ActivityLeakChecker::new(&program).check();
//! assert_eq!(report.num_alarms(), 1);
//! assert_eq!(report.num_refuted(), 0); // the leak is real: witnessed
//! ```

#![warn(missing_docs)]

pub mod annotations;
pub mod client;
pub mod harness;
pub mod library;

pub use annotations::{map_only_annotations, paper_annotations, to_pta_options, Annotation};
pub use client::{Alarm, AlarmResult, ClientStats, LeakClient, LeakReport};

use std::path::PathBuf;
use std::sync::Arc;

use pta::{ContextPolicy, ModRef, PtaResult};
use symex::{CacheMode, DecisionStore, SymexConfig};
use tir::Program;

/// Convenience front door: run the points-to analysis, mod/ref, and the
/// leak client with a given configuration in one call.
///
/// For repeated runs over the same program (e.g. ablations), build the
/// analyses once and use [`LeakClient`] directly.
pub struct ActivityLeakChecker<'a> {
    program: &'a Program,
    policy: ContextPolicy,
    config: SymexConfig,
    annotations: Vec<Annotation>,
    jobs: usize,
    cache: Option<(PathBuf, CacheMode)>,
}

impl<'a> ActivityLeakChecker<'a> {
    /// Creates a checker with the paper's default configuration
    /// (container-sensitive points-to analysis, mixed representation,
    /// un-annotated library, sequential refutation).
    pub fn new(program: &'a Program) -> Self {
        ActivityLeakChecker {
            program,
            policy: ContextPolicy::containers_named(program, library::CONTAINER_CLASSES),
            config: SymexConfig::default(),
            annotations: Vec::new(),
            jobs: 1,
            cache: None,
        }
    }

    /// Overrides the points-to context policy.
    pub fn with_policy(mut self, policy: ContextPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the refutation-scheduler thread count (1 = sequential; the
    /// report is identical for every setting).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the engine configuration.
    pub fn with_config(mut self, config: SymexConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds library annotations (the `Ann?=Y` configuration).
    pub fn with_annotations(mut self, annotations: Vec<Annotation>) -> Self {
        self.annotations = annotations;
        self
    }

    /// Attaches a persistent refutation cache rooted at `dir` (see
    /// `symex::persist`): decisions whose fingerprint matches a stored
    /// record are warm-started without symbolic execution. An unopenable
    /// store degrades to a cold (cache-free) run with a warning — it never
    /// fails the check. A checker without this call is cache-free.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        self.cache = Some((dir.into(), mode));
        self
    }

    /// Runs the full pipeline and returns the leak report.
    pub fn check(self) -> LeakReport {
        let (report, _, _) = self.check_with_analyses();
        report
    }

    /// Runs the pipeline, also returning the underlying analyses for
    /// clients that need the points-to graph (e.g. benchmark tables).
    pub fn check_with_analyses(self) -> (LeakReport, PtaResult, ModRef) {
        let opts = annotations::to_pta_options(&self.annotations);
        let pta = pta::analyze_with(self.program, self.policy, &opts);
        let modref = ModRef::compute(self.program, &pta);
        let report = {
            let mut client = LeakClient::new(self.program, &pta, &modref, self.config.clone())
                .with_jobs(self.jobs);
            if let Some((dir, mode)) = &self.cache {
                match DecisionStore::open(dir, *mode, self.program) {
                    Ok(store) => client = client.with_store(Arc::new(store)),
                    Err(e) => {
                        eprintln!(
                            "warning: cannot open cache {}: {e}; running cold",
                            dir.display()
                        );
                    }
                }
            }
            client.run()
        };
        (report, pta, modref)
    }
}
