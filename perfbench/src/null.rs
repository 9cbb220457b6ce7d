//! `null-scaled`: the null-dereference client over one large generated
//! program — [`MODULES`] isolated modules built with
//! [`apps::null_motifs::build_null_program`], motif parameters drawn from
//! the seed within the ranges [`apps::scale::scaled_null_groups`] uses,
//! written out as text and parsed back. Ground truth is
//! [`apps::null_motifs::expected_alarms`].
//!
//! Thousands of short searches on one large program: parse and points-to
//! dominate set-up, per-query overhead dominates the pass, and there is
//! no degradation ladder and no decision store. The pass is one
//! closed-loop client asking for one site verdict at a time —
//! [`NullClient::candidate_sites`], then [`RefutationScheduler::decide_deref`]
//! per site on one scheduler, which is exactly the sequential path of
//! [`NullClient::run`] with each verdict timed.

use std::path::{Path, PathBuf};

use apps::null_motifs::NullMotif;
use obs::MemRecorder;
use pta::{ModRef, PtaResult};
use symex::{EdgeAnswer, RefutationScheduler, SymexConfig, Tally};
use thresher::NullClient;
use tir::Program;

use crate::ledger::{Tracer, UNATTRIBUTED};
use crate::report::Report;
use crate::speed::Speedometer;
use crate::{Client, Pass, RunOpts};

/// Modules in the generated program (4 motifs, hence 4 candidate sites,
/// each).
pub const MODULES: usize = 1024;

const PROGRAM_FILE: &str = "null-scaled.tir";
const EXPECTED_FILE: &str = "null-scaled.expected";

/// The seeded motif mix. Each motif shape has a parameter grid spanning
/// the ranges of `scaled_null_groups`; the grid is repeated to one entry
/// per module and shuffled by the seed, and module `m` takes the `m`-th
/// entry of every shape. The multiset of motifs — hence the ground-truth
/// alarm count and the work — is the same for every seed; the seed only
/// decides which module gets which instance.
pub fn groups(seed: u64, modules: usize) -> Vec<(String, Vec<NullMotif>)> {
    let mut rng = minicheck::Rng::new(seed);
    let mut column = |grid: Vec<NullMotif>| {
        let mut col: Vec<NullMotif> = grid.iter().cycle().take(modules).cloned().collect();
        crate::shuffle(&mut rng, &mut col);
        col
    };
    let vec_get = column(
        (1..=3)
            .flat_map(|pushes| (0..=3).map(move |read_at| NullMotif::VecGet { pushes, read_at }))
            .collect(),
    );
    let deep_chain = column(
        (2..=4)
            .flat_map(|depth| {
                [false, true].map(|null_source| NullMotif::DeepChain { depth, null_source })
            })
            .collect(),
    );
    let wide_dispatch = column(
        (2..=4)
            .flat_map(|width| {
                [None, Some(0), Some(1)].map(|null_arm| NullMotif::WideDispatch { width, null_arm })
            })
            .collect(),
    );
    (0..modules)
        .map(|m| {
            let motifs = vec![
                vec_get[m].clone(),
                deep_chain[m].clone(),
                wide_dispatch[m].clone(),
                NullMotif::GuardedDeref,
            ];
            (format!("N{m}"), motifs)
        })
        .collect()
}

/// The generated input: program text and its ground-truth alarm count.
pub fn generate(seed: u64, modules: usize) -> (String, usize) {
    let groups = groups(seed, modules);
    let text = tir::print_program(&apps::null_motifs::build_null_program(&groups));
    (text, apps::null_motifs::expected_alarms(&groups))
}

/// Writes the generated input of `modules` modules into `dir`.
pub fn write_inputs(dir: &Path, seed: u64, modules: usize) -> Result<(), String> {
    let (text, expected) = generate(seed, modules);
    std::fs::write(dir.join(PROGRAM_FILE), text).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(EXPECTED_FILE), expected.to_string()).map_err(|e| e.to_string())
}

struct Analyzed {
    program: Program,
    pta: PtaResult,
    modref: ModRef,
}

/// What one pass decided.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Answers {
    sites: usize,
    refuted: usize,
    /// Sites whose search aborted (reported soundly, not decided).
    aborted: usize,
    /// Sites reported (witnessed or aborted).
    alarms: usize,
}

struct NullScaled {
    path: PathBuf,
}

impl Client for NullScaled {
    type Input = Analyzed;
    type Answers = Answers;
    const VERDICT_SPAN: &'static str = "RefutationScheduler::decide_deref";

    fn set_up(&self, tracer: &mut Tracer) -> Result<Analyzed, String> {
        let path = &self.path;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let program = tracer
            .span("tir", "tir::parse", || tir::parse(&src))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let pta = tracer.span("pta", "pta::analyze_with", || {
            pta::analyze_with(
                &program,
                pta::ContextPolicy::Insensitive,
                &pta::PtaOptions::default(),
            )
        });
        let modref = tracer.span("pta", "ModRef::compute", || ModRef::compute(&program, &pta));
        Ok(Analyzed { program, pta, modref })
    }

    fn cmds(a: &Analyzed) -> usize {
        a.program.num_cmds()
    }

    fn pass(
        &self,
        a: &Analyzed,
        tracer: &mut Tracer,
        speed: &mut Speedometer,
        rec: Option<&MemRecorder>,
    ) -> Pass<Answers> {
        let root = tracer.enter(UNATTRIBUTED, "null-scaled pass");
        let client = NullClient::new(&a.program, &a.pta, &a.modref, SymexConfig::default());
        let sites = tracer.span("null", "NullClient::candidate_sites", || client.candidate_sites());
        // `NullClient::run` forces the must-not-null strong update on.
        let config = SymexConfig::default().with_null_guards(true);
        let mut sched = RefutationScheduler::new(&a.program, &a.pta, &a.modref, config, 1);
        let mut tally = Tally::default();
        let mut out = Pass::<Answers>::default();
        out.answers.sites = sites.len();
        for site in sites {
            let answer = crate::timed_verdict(
                tracer,
                Self::VERDICT_SPAN,
                speed,
                rec,
                &mut out.verdict_ns,
                || sched.decide_deref(site, &mut tally),
            );
            out.attempted += 1;
            match answer {
                EdgeAnswer::Refuted => out.answers.refuted += 1,
                EdgeAnswer::Witnessed(_) => out.answers.alarms += 1,
                EdgeAnswer::Aborted(_) => {
                    out.answers.alarms += 1;
                    out.answers.aborted += 1;
                }
            }
        }
        out.failed = tally.aborts.panic + tally.aborts.wall_clock + tally.aborts.solver_failure;
        tracer.exit(root);
        out
    }

    fn set_client_layers(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        first: &Answers,
        passes: f64,
    ) {
        report.set(
            "null.candidate_sites_ms",
            tracer.named_us("NullClient::candidate_sites") / 1e3 / passes,
        );
        report.set("null.sites", first.sites as f64);
    }
}

/// Runs `null-scaled` on the inputs in `opts.inputs` and checks the alarm
/// count against ground truth.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let expected: usize = std::fs::read_to_string(opts.inputs.join(EXPECTED_FILE))
        .map_err(|e| format!("{EXPECTED_FILE}: {e}"))?
        .trim()
        .parse()
        .map_err(|e| format!("{EXPECTED_FILE}: {e}"))?;
    let workload = NullScaled { path: opts.inputs.join(PROGRAM_FILE) };
    let mut report = Report::default();
    let first = crate::run_client(opts, "null-scaled", &workload, &mut report)?;
    report.check(first.alarms == expected, || {
        format!("{} alarms, ground truth {expected}", first.alarms)
    });
    report.set("refuted_frac", first.refuted as f64 / first.sites as f64);
    report.set("decided_frac", 1.0 - first.aborted as f64 / first.sites as f64);
    Ok(report)
}
