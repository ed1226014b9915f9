//! `slb` — command-line interface to the finite-regime randomized
//! load-balancing toolkit.
//!
//! ```text
//! slb bounds    --n 3 --d 2 --rho 0.7 --t 3        mean-delay bounds at one point
//! slb sweep     experiments/fig10.toml --smoke     declarative scenario sweep
//! slb query     --kind capacity --lambda 40 ...    one typed query (local or --addr)
//! slb serve     --addr 127.0.0.1:7077              capacity-planning service
//! slb dist      --n 3 --d 2 --rho 0.7 --t 3        delay percentile bounds
//! slb simulate  --n 3 --d 2 --rho 0.7 --jobs 1e6   discrete-event simulation
//! slb sigma     --law erlang --k 2 --rho 0.7       Theorem-2 decay root σ
//! slb meanfield --d 2 --rho 0.9                    N = ∞ fixed point + relaxation
//! slb burst     --n 3 --d 2 --rho 0.7 --t 3 ...    bounds under MMPP arrivals
//! ```
//!
//! Every subcommand prints an aligned table; `--csv <path>` additionally
//! writes it as CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
slb — finite-regime randomized load balancing (ICDCS 2016 reproduction)

USAGE: slb <COMMAND> [FLAGS]

COMMANDS:
  bounds     Lower/upper mean-delay bounds, asymptotic and brute force at one point
             --n <servers> --d <choices> --rho <utilization> --t <threshold>
  sweep      Run a declarative scenario sweep (cached, multithreaded)
             <spec.toml> [--smoke] [--threads N (alias --jobs)]
             [--out file.csv|file.json] [--check] [--no-cache]
             [--cache-dir dir]  (simulation budget comes from the spec;
             the Figure-10 panels are experiments/fig10.toml)
  query      Answer one typed query: bounds, service percentiles, or the
             smallest N meeting a delay SLO (capacity planning)
             --kind bounds|service|capacity, then per kind:
               bounds:   --n --d --rho --t
               service:  --policy sqd|jsq --n --d --rho
               capacity: --policy --lambda --d --metric mean|p50|p90|p99
                         --slo --n-max
             [--jobs N --replications R --seed S] simulation budget
             [--addr host:port] ask a running server instead of solving
             [--retries N] retry connect failures/503s with backoff (default 2)
             [--cache-dir dir] [--json] [--check]
  serve      Long-running capacity-planning service (HTTP/1.1 on std::net)
             [--addr 127.0.0.1:7077] [--threads N] [--cache-dir dir]
             [--max-inflight N] admitted connections (default 4x threads)
             [--deadline-ms MS] total per-request wall budget (default 10000)
             [--index-cap N] in-process index bound (default 4096)
             Endpoints: GET /healthz, GET /stats, POST /v1/query,
             POST /v1/shutdown; SIGINT/SIGTERM drain and exit
             Overload sheds /v1/query with 503 + Retry-After; /healthz
             and /stats keep answering. SLB_FAULTS/SLB_FAULT_SEED arm
             deterministic fault injection (chaos testing)
  dist       Delay percentile bounds (median/p90/p99 by default)
             --n --d --rho --t [--percentiles 0.5,0.9,0.99]
  simulate   Discrete-event simulation of a dispatch policy
             --n --rho [--policy sqd|random|jsq|rr|jiq|sqd-mem] [--d 2]
             [--jobs 1000000] [--warmup jobs/10] [--seed 1]
  sigma      Theorem-2 decay root σ for renewal arrivals
             --law <poisson|erlang|deterministic|hyperexp> --rho <ρ>
             [--k 2] [--p 0.5] [--r1 0.5] [--r2 2.0]
  meanfield  Mean-field (N = ∞) fixed point and relaxation time
             --d --rho [--kmax 8]
  burst      Bounds under 2-phase MMPP arrivals (MAP extension)
             --n --d --rho --t [--r01 0.5] [--r10 0.5] [--l0 0.5] [--l1 1.5]

GLOBAL FLAGS:
  --csv <path>   also write the table as CSV
  --help         this message
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = match cmd {
        "bounds" => commands::bounds(rest),
        "sweep" => commands::sweep(rest),
        "query" => commands::query(rest),
        "serve" => commands::serve(rest),
        "dist" => commands::dist(rest),
        "simulate" => commands::simulate(rest),
        "sigma" => commands::sigma(rest),
        "meanfield" => commands::meanfield(rest),
        "burst" => commands::burst(rest),
        other => {
            eprintln!("error: unknown command '{other}'\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
