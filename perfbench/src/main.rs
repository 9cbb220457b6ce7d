//! `perfbench` — generate a workload's inputs, or run and measure it.
//!
//! ```text
//! perfbench gen --workload <name> --seed <n> --inputs <dir>
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --inputs <dir> --out <dir> --serve-bin <path>
//! ```
//!
//! `run` prints a detail line (percentile sample counts, failed checks)
//! and then the result line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Paths such as `corpus/` are relative to the
//! repository root, the working directory. `run.py` drives both steps.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{leak, null, serve, RunOpts, WORKLOADS};

fn parse(args: &[String]) -> Result<(String, String, RunOpts), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("expected a subcommand: gen or run")?.clone();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        traced: false,
        inputs: PathBuf::from(".bench_out/inputs"),
        out: PathBuf::from(".bench_out"),
        serve_bin: PathBuf::from("thresher-serve"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} value {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => opts.traced = value.as_str() == "1",
            "--inputs" => opts.inputs = value.into(),
            "--out" => opts.out = value.into(),
            "--serve-bin" => opts.serve_bin = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?})"));
    }
    Ok((cmd, workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(cmd, workload, opts)| match cmd.as_str() {
        "gen" => {
            std::fs::create_dir_all(&opts.inputs).map_err(|e| e.to_string())?;
            match workload.as_str() {
                "null-scaled" => null::write_inputs(&opts.inputs, opts.seed, null::MODULES),
                "serve-edit" => {
                    serve::write_inputs(&opts.inputs, opts.seed, serve::STEPS_PER_PROGRAM)
                }
                _ => Ok(()), // leak-corpus reads the committed corpus
            }
        }
        "run" => {
            let report = match workload.as_str() {
                "leak-corpus" => leak::run(&opts),
                "null-scaled" => null::run(&opts),
                _ => serve::run(&opts),
            }?;
            println!("{}", report.detail_line());
            println!("{}", report.result_line(opts.traced));
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
