//! The repository benchmark. See README.md for the workloads, metrics
//! and findings, and `run.py` for the entry point that builds and runs
//! this program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --slb <path> --work-dir <dir>
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`).

mod check;
mod cold;
mod inputs;
mod metrics;
mod replay;
mod serve;
mod trace;

use std::path::{Path, PathBuf};

use inputs::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

struct Args {
    run: Run,
    slb: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        run: Run {
            workload: Workload::from_name(value("--workload")?)?,
            seed: number("--seed")?,
            seconds,
            trace,
        },
        slb: PathBuf::from(value("--slb")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

fn execute(args: &Args, work: &Path) -> Result<metrics::RunResult, String> {
    let run = &args.run;
    let trace_out = args.work_dir.join("traces").join(format!(
        "{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    ));
    match (run.workload, run.trace) {
        (Workload::ServeHot, false) => serve::run(run, &args.slb, work),
        (Workload::ServeHot, true) => serve::run_traced(run, &args.slb, work, &trace_out),
        (_, false) => cold::run(run, work),
        (_, true) => cold::run_traced(run, work, &trace_out),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Temporary stores live in a per-process directory, removed at exit.
    let work = args.work_dir.join(format!(
        "{}-{}",
        args.run.workload.name(),
        std::process::id()
    ));
    let result = execute(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(result) => {
            let catalog: &[(&str, &str)] = if args.run.trace {
                &metrics::PER_LAYER
            } else {
                &metrics::END_TO_END
            };
            println!("{}", result.render(catalog));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
