//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! reproduce table1 [--budget N] [--apps a,b,c]   # Table 1
//! reproduce table2 [--budget N] [--apps a,b,c]   # Table 2 (fully symbolic vs mixed;
//!                                                # median ms of 5 runs each)
//! reproduce simplification [--budget N] [--apps a,b,c]
//!                                                # §4 hypothesis 2
//! reproduce stats [--budget N] [--apps a,b,c]    # §3.2 refutation reasons
//! reproduce loops                                # §4 hypothesis 3 (takes no flags)
//! reproduce [all] [--budget N] [--apps a,b,c]    # everything
//! ```
//!
//! `--budget` is the per-edge path-program budget (default 10000, the
//! paper's); `--apps` names suite apps, case-insensitively. An unknown
//! mode or flag, a non-numeric budget or an unknown app name exits 2 with
//! the usage line before any analysis runs.
//!
//! Absolute times are hardware-dependent; the *shape* (who wins, by what
//! factor, where timeouts fall) is the reproduction target — see
//! EXPERIMENTS.md. Performance is measured by the repository benchmark
//! (`BENCHMARK.json`, `perfbench/README.md`), not here.

use apps::BenchApp;
use bench::{
    format_table1_row, run_loop_ablation, run_repr_comparison, run_simplification_ablation,
    run_table1_row, table1_header,
};
use symex::{Representation, SymexConfig};

const USAGE: &str =
    "usage: reproduce [table1|table2|simplification|stats|loops|all] [--budget N] [--apps a,b,c]";

const MODES: [&str; 6] = ["table1", "table2", "simplification", "stats", "loops", "all"];

/// A validated command line.
struct Options {
    mode: String,
    budget: u64,
    apps: Vec<BenchApp>,
}

/// Parses the whole command line up front, so a typo fails before an
/// analysis runs instead of being silently ignored.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut rest = args.iter().peekable();
    let mode = match rest.next_if(|a| !a.starts_with("--")) {
        Some(m) if MODES.contains(&m.as_str()) => m.clone(),
        Some(m) => return Err(format!("unknown mode {m}")),
        None => "all".to_owned(),
    };
    let mut budget = None;
    let mut apps = None;
    while let Some(flag) = rest.next() {
        let value = rest.next();
        match (flag.as_str(), value) {
            ("--budget", Some(v)) => {
                budget = Some(v.parse().map_err(|_| format!("bad --budget value {v}"))?);
            }
            ("--apps", Some(v)) => apps = Some(select_apps(v)?),
            ("--budget" | "--apps", None) => return Err(format!("{flag} needs a value")),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if mode == "loops" && (budget.is_some() || apps.is_some()) {
        return Err("loops takes no flags".to_owned());
    }
    Ok(Options {
        mode,
        budget: budget.unwrap_or(10_000),
        apps: apps.unwrap_or_else(apps::suite::all_apps),
    })
}

/// The suite apps named in `list` (comma-separated, case-insensitive), in
/// suite order. Every name must match an app.
fn select_apps(list: &str) -> Result<Vec<BenchApp>, String> {
    let names: Vec<String> = list.split(',').map(str::to_lowercase).collect();
    let all = apps::suite::all_apps();
    if let Some(unknown) = names.iter().find(|n| !all.iter().any(|a| a.name.to_lowercase() == **n))
    {
        return Err(format!("unknown app {unknown:?} in --apps"));
    }
    Ok(all.into_iter().filter(|a| names.contains(&a.name.to_lowercase())).collect())
}

fn table1(apps: &[BenchApp], budget: u64) {
    println!("== Table 1: filtering effectiveness and computational effort ==");
    println!("{}", table1_header());
    let mut totals = [0usize; 8];
    for app in apps {
        for annotated in [false, true] {
            let cfg = SymexConfig::default().with_budget(budget);
            let row = run_table1_row(app, annotated, cfg);
            println!("{}", format_table1_row(&row));
            let idx = usize::from(annotated) * 4;
            totals[idx] += row.alarms;
            totals[idx + 1] += row.refuted_alarms;
            totals[idx + 2] += row.true_alarms;
            totals[idx + 3] += row.false_alarms;
        }
    }
    println!(
        "Total  Ann?=N: alarms={} refuted={} true={} false={}",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!(
        "Total  Ann?=Y: alarms={} refuted={} true={} false={}",
        totals[4], totals[5], totals[6], totals[7]
    );
}

fn table2(apps: &[BenchApp], budget: u64) {
    println!("== Table 2: fully symbolic representation vs mixed ==");
    println!(
        "{:<14} {:^4} {:>12} {:>12} {:>10} {:>8} {:>14}",
        "Benchmark", "Ann?", "mixed T(ms)", "symb T(ms)", "slowdown", "TO(+)", "refuted m/s"
    );
    for app in apps {
        for annotated in [false, true] {
            let cfg = SymexConfig::default().with_budget(budget);
            let cmp = run_repr_comparison(app, annotated, Representation::FullySymbolic, cfg);
            println!(
                "{:<14} {:^4} {:>12.1} {:>12.1} {:>9.1}X {:>+8} {:>7}/{}",
                cmp.name,
                if annotated { "Y" } else { "N" },
                cmp.mixed_time.as_secs_f64() * 1e3,
                cmp.other_time.as_secs_f64() * 1e3,
                cmp.slowdown(),
                cmp.added_timeouts(),
                cmp.mixed_refuted,
                cmp.other_refuted,
            );
        }
    }
}

fn simplification(apps: &[BenchApp], budget: u64) {
    println!("== Hypothesis 2: disabling query simplification (Ann?=Y) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "Benchmark", "with T(s)", "without T(s)", "slowdown", "TO(+)"
    );
    for app in apps {
        let cfg = SymexConfig::default().with_budget(budget);
        let abl = run_simplification_ablation(app, cfg);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.1}X {:>+10}",
            abl.name,
            abl.with_time.as_secs_f64(),
            abl.without_time.as_secs_f64(),
            abl.slowdown(),
            abl.without_timeouts as isize - abl.with_timeouts as isize,
        );
    }
}

fn stats(apps: &[BenchApp], budget: u64) {
    println!("== Refutation-reason breakdown (Ann?=Y, §3.2's three tools) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "Benchmark", "fromEmpty", "separation", "pure", "allocation", "entry"
    );
    for app in apps {
        let cfg = SymexConfig::default().with_budget(budget);
        let b = bench::run_reason_breakdown(app, true, cfg);
        println!(
            "{:<14} {:>10} {:>10} {:>8} {:>10} {:>8}",
            b.name, b.empty_region, b.separation, b.pure, b.allocation, b.entry
        );
    }
}

fn loops() {
    println!("== Hypothesis 3: loop invariant inference vs drop-all ==");
    let abl = run_loop_ablation();
    println!(
        "multi-container micro benchmark: full inference refutes CLEAN~>secret0: {}",
        abl.infer_refutes
    );
    println!(
        "multi-container micro benchmark: drop-all refutes CLEAN~>secret0:      {}",
        abl.drop_all_refutes
    );
    println!(
        "=> {}",
        if abl.infer_refutes && !abl.drop_all_refutes {
            "CONFIRMS hypothesis 3: inference is required to distinguish containers"
        } else {
            "UNEXPECTED: see EXPERIMENTS.md"
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options { mode, budget, apps } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match mode.as_str() {
        "table1" => table1(&apps, budget),
        "table2" => table2(&apps, budget),
        "simplification" => simplification(&apps, budget),
        "stats" => stats(&apps, budget),
        "loops" => loops(),
        // "all": every table, in the paper's order.
        _ => {
            table1(&apps, budget);
            println!();
            table2(&apps, budget);
            println!();
            simplification(&apps, budget);
            println!();
            stats(&apps, budget);
            println!();
            loops();
        }
    }
}
