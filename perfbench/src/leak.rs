//! `leak-corpus`: the Activity-leak client over the seven committed corpus
//! apps in the Table 1 `Ann?=N` configuration — container-sensitive
//! points-to ([`android::library::CONTAINER_CLASSES`]),
//! [`SymexConfig::default`], cold, no decision store — with the alarms
//! triaged one [`LeakClient::triage`] call at a time.
//!
//! It is the paper's own experiment and search-bound: nearly all of a
//! pass is edge refutation, so search, solver and ladder changes show
//! here, while points-to and decision-store changes must not.

use std::collections::HashMap;
use std::path::Path;

use android::{ClientStats, LeakClient};
use obs::MemRecorder;
use pta::{ModRef, PtaResult};
use symex::SymexConfig;
use tir::Program;

use crate::ledger::{Tracer, UNATTRIBUTED};
use crate::report::Report;
use crate::speed::Speedometer;
use crate::{Client, Pass, RunOpts};

/// The Table 1 apps; each is read from `corpus/<name>.tir`.
pub const APPS: [&str; 7] =
    ["pulsepoint", "standuptimer", "droidlife", "opensudoku", "smspopup", "ametro", "k9mail"];

/// Table 1 (`Ann?=N`, EXPERIMENTS.md): alarms over the seven apps.
const TABLE1_ALARMS: usize = 163;
/// Table 1 (`Ann?=N`, EXPERIMENTS.md): alarms refuted.
const TABLE1_REFUTED: usize = 43;

/// The seeded part of the input: the order in which the apps are set up
/// and triaged. Every app has its own client, so the order changes no
/// answer.
pub fn app_order(seed: u64) -> Vec<&'static str> {
    let mut order = APPS.to_vec();
    crate::shuffle(&mut minicheck::Rng::new(seed), &mut order);
    order
}

/// Ground truth: per app, the globals that really leak an Activity.
fn true_leaks() -> HashMap<String, Vec<String>> {
    apps::suite::all_apps()
        .into_iter()
        .map(|app| (app.name.to_lowercase(), app.true_leak_fields))
        .collect()
}

struct App {
    name: &'static str,
    program: Program,
    pta: PtaResult,
    modref: ModRef,
}

/// What one pass decided.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Answers {
    alarms: usize,
    refuted: usize,
    /// Edge decisions committed (refuted + witnessed + aborted).
    decisions: usize,
    /// Edge decisions not aborted.
    decided: usize,
}

/// Faults a triage may contain instead of answering: counted as failed
/// operations even though the (sound) answer stands.
fn faults(stats: &ClientStats) -> u64 {
    stats.aborts.panic + stats.aborts.wall_clock + stats.aborts.solver_failure
}

struct LeakCorpus {
    corpus: &'static Path,
    order: Vec<&'static str>,
    truth: HashMap<String, Vec<String>>,
}

impl Client for LeakCorpus {
    type Input = Vec<App>;
    type Answers = Answers;
    const VERDICT_SPAN: &'static str = "LeakClient::triage";

    fn set_up(&self, tracer: &mut Tracer) -> Result<Vec<App>, String> {
        self.order
            .iter()
            .map(|&name| {
                let path = self.corpus.join(format!("{name}.tir"));
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let program = tracer
                    .span("tir", "tir::parse", || tir::parse(&src))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let policy = pta::ContextPolicy::containers_named(
                    &program,
                    android::library::CONTAINER_CLASSES,
                );
                let pta = tracer.span("pta", "pta::analyze_with", || {
                    pta::analyze_with(&program, policy, &pta::PtaOptions::default())
                });
                let modref =
                    tracer.span("pta", "ModRef::compute", || ModRef::compute(&program, &pta));
                Ok(App { name, program, pta, modref })
            })
            .collect()
    }

    fn cmds(apps: &Vec<App>) -> usize {
        apps.iter().map(|a| a.program.num_cmds()).sum()
    }

    fn pass(
        &self,
        apps: &Vec<App>,
        tracer: &mut Tracer,
        speed: &mut Speedometer,
        rec: Option<&MemRecorder>,
    ) -> Pass<Answers> {
        let root = tracer.enter(UNATTRIBUTED, "leak-corpus pass");
        let mut out = Pass::<Answers>::default();
        for app in apps {
            let mut client = tracer.span("android", "LeakClient::new", || {
                LeakClient::new(&app.program, &app.pta, &app.modref, SymexConfig::default())
            });
            let alarms = tracer.span("android", "LeakClient::find_alarms", || client.find_alarms());
            let leaks = &self.truth[app.name];
            let mut stats = ClientStats::default();
            for alarm in alarms {
                let faults_before = faults(&stats);
                let result = crate::timed_verdict(
                    tracer,
                    Self::VERDICT_SPAN,
                    speed,
                    rec,
                    &mut out.verdict_ns,
                    || client.triage(alarm, &mut stats),
                );
                out.attempted += 1;
                out.failed += u64::from(faults(&stats) > faults_before);
                out.answers.alarms += 1;
                if result.is_refuted() {
                    out.answers.refuted += 1;
                    let field = &app.program.global(alarm.field).name;
                    if leaks.contains(field) {
                        out.failed += 1;
                        out.wrong.push(format!("{}: true leak {field} refuted", app.name));
                    }
                }
            }
            out.answers.decided += stats.edges_refuted + stats.edges_witnessed;
            out.answers.decisions +=
                stats.edges_refuted + stats.edges_witnessed + stats.edge_timeouts;
        }
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
            "android.find_alarms_ms",
            tracer.named_us("LeakClient::find_alarms") / 1e3 / passes,
        );
        report.set("android.alarms", first.alarms as f64);
    }
}

/// Runs `leak-corpus` and checks it against Table 1 ground truth.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let workload = LeakCorpus {
        corpus: Path::new("corpus"),
        order: app_order(opts.seed),
        truth: true_leaks(),
    };
    let mut report = Report::default();
    let first = crate::run_client(opts, "leak-corpus", &workload, &mut report)?;
    report.check(first.alarms == TABLE1_ALARMS && first.refuted == TABLE1_REFUTED, || {
        format!(
            "Table 1 totals: {} alarms, {} refuted (expected {TABLE1_ALARMS}, {TABLE1_REFUTED})",
            first.alarms, first.refuted
        )
    });
    report.set("refuted_frac", first.refuted as f64 / first.alarms as f64);
    report.set("decided_frac", first.decided as f64 / first.decisions as f64);
    Ok(report)
}
