//! Subcommand implementations. Each takes the flag slice after the
//! command word, prints an aligned table, and optionally writes CSV.

use slb_bench::{arg_parse, arg_value, f4, Table};
use slb_core::brute::BruteForce;
use slb_core::meanfield::MeanField;
use slb_core::sigma::{solve_sigma, Interarrival};
use slb_core::{asymptotic, BoundKind, Sqd};
use slb_exp::json::Json;
use slb_mapph::MapSqd;
use slb_markov::Map;
use slb_sim::{Policy, SimConfig};

type CmdResult = Result<(), String>;

fn finish(table: &Table, args: &[String]) -> CmdResult {
    print!("{}", table.to_aligned());
    if let Some(path) = arg_value(args, "--csv") {
        table
            .write_csv(&path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn parse_percentiles(args: &[String]) -> Result<Vec<f64>, String> {
    let raw = arg_value(args, "--percentiles").unwrap_or_else(|| "0.5,0.9,0.99".into());
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad percentile '{s}'"))
        })
        .collect()
}

/// `slb bounds` — one-point bounds with the exact (brute-force) value.
pub fn bounds(args: &[String]) -> CmdResult {
    let n: usize = arg_parse(args, "--n", 3);
    let d: usize = arg_parse(args, "--d", 2);
    let rho: f64 = arg_parse(args, "--rho", 0.7);
    let t: u32 = arg_parse(args, "--t", 3);
    let sqd = Sqd::new(n, d, rho).map_err(|e| e.to_string())?;

    let lb = sqd.lower_bound(t).map_err(|e| e.to_string())?;
    let ub = sqd.upper_bound(t).map(|r| f4(r.delay));
    let asym = sqd.asymptotic_delay();
    // Brute force only where the state space stays small.
    let exact = if n <= 5 {
        let cap = if rho > 0.9 { 60 } else { 35 };
        BruteForce::solve(n, d, rho, cap)
            .map(|b| f4(b.mean_delay()))
            .unwrap_or_else(|_| "-".into())
    } else {
        "-".into()
    };

    println!("SQ({d}) mean delay, N = {n}, rho = {rho}, T = {t}\n");
    let mut table = Table::new(["metric", "value"]);
    table.push(["lower bound", &f4(lb.delay)]);
    table.push(["exact (brute force)", &exact]);
    table.push([
        "upper bound",
        &ub.unwrap_or_else(|_| "unstable (raise --t)".into()),
    ]);
    table.push(["asymptotic (Eq. 16)", &f4(asym)]);
    table.push(["level states", &lb.level_states.to_string()]);
    finish(&table, args)
}

const SWEEP_USAGE: &str =
    "usage: slb sweep <spec.toml> [FLAGS] (the Figure-10 panels are experiments/fig10.toml)";

/// `slb sweep <spec.toml>` — the declarative engine. A spec path is
/// required; the Figure-10 panels are `experiments/fig10.toml`.
pub fn sweep(args: &[String]) -> CmdResult {
    match args.first() {
        Some(first) if !first.starts_with("--") => sweep_spec(first, &args[1..]),
        _ => Err(SWEEP_USAGE.into()),
    }
}

/// `slb sweep <spec.toml>` — run a committed scenario file through the
/// cached, multithreaded sweep engine (`slb-exp`).
fn sweep_spec(path: &str, args: &[String]) -> CmdResult {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = slb_exp::ScenarioSpec::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let defaults = slb_exp::SweepOptions::default();
    // `--jobs` here is the *worker-thread* count (the deleted figure
    // binaries used the same flag for the simulation budget, which now
    // lives in the spec's `jobs` parameter) — reject values that only
    // make sense as a budget instead of silently clamping them.
    let threads = arg_parse(
        args,
        "--threads",
        arg_parse(args, "--jobs", defaults.threads),
    );
    if threads == 0 || threads > 1024 {
        return Err(format!(
            "--jobs/--threads {threads} is the worker-thread count (1..=1024); the \
             simulation budget per grid point is the spec's 'jobs' parameter"
        ));
    }
    let opts = slb_exp::SweepOptions {
        threads,
        smoke: args.iter().any(|a| a == "--smoke"),
        cache: !args.iter().any(|a| a == "--no-cache"),
        cache_dir: arg_value(args, "--cache-dir").map(std::path::PathBuf::from),
        check: args.iter().any(|a| a == "--check"),
        resume: args.iter().any(|a| a == "--resume"),
        cancel: None,
        // Ctrl-C cancels the run gracefully: in-flight solves abort at
        // their next budget poll, completed points are checkpointed,
        // and the error names `--resume` as the way to continue.
        watch_sigint: true,
    };
    // Chaos harness opt-in (SLB_FAULTS / SLB_FAULT_SEED), as in
    // `slb serve`: a no-op unless the environment arms fail points.
    slb_fault::arm_from_env();
    sigint::install();

    let started = std::time::Instant::now();
    let report = slb_exp::run_sweep(&spec, &opts)?;
    let elapsed = started.elapsed();

    print!(
        "{}",
        slb_exp::output::to_aligned(&report.columns, &report.rows)
    );
    if report.resumed > 0 {
        println!(
            "\nresumed: {} of {} points were checkpointed by an interrupted run",
            report.resumed, report.jobs
        );
    }
    println!(
        "\n{}{}: {} rows from {} grid points ({} cached, {} computed) in {:.2}s",
        spec.name,
        if opts.smoke { " [smoke]" } else { "" },
        report.rows.len(),
        report.jobs,
        report.cache_hits,
        report.computed,
        elapsed.as_secs_f64()
    );
    if opts.check {
        println!(
            "sandwich check: lower <= sim/exact <= upper holds on {} rows",
            report.checked_rows
        );
    }

    let out = arg_value(args, "--out").unwrap_or_else(|| format!("{}.csv", spec.name));
    let body = if out.ends_with(".json") {
        slb_exp::output::to_json(&report.columns, &report.rows)
    } else {
        slb_exp::output::to_csv(&report.columns, &report.rows)
    };
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&out, body).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// `slb serve` — run the long-running capacity-planning service until
/// SIGINT/SIGTERM or a `POST /v1/shutdown`.
pub fn serve(args: &[String]) -> CmdResult {
    let defaults = slb_cli::ServeOptions::default();
    let opts = slb_cli::ServeOptions {
        addr: arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".into()),
        threads: arg_parse(args, "--threads", defaults.threads),
        cache_dir: arg_value(args, "--cache-dir").map(std::path::PathBuf::from),
        // 0 = "4x threads" / "default cap" sentinels, as in ServeOptions.
        max_inflight: arg_parse(args, "--max-inflight", defaults.max_inflight),
        deadline_ms: arg_parse(args, "--deadline-ms", defaults.deadline_ms),
        index_cap: arg_parse(args, "--index-cap", defaults.index_cap),
    };
    if opts.threads == 0 || opts.threads > 1024 {
        return Err(format!(
            "--threads {} is the pool worker count (1..=1024)",
            opts.threads
        ));
    }
    if opts.deadline_ms == 0 {
        return Err("--deadline-ms must be at least 1".into());
    }
    // Chaos harness opt-in: arm named fail points from SLB_FAULTS /
    // SLB_FAULT_SEED (a no-op in normal operation).
    slb_fault::arm_from_env();
    sigint::install();
    let server = slb_cli::Server::bind(&opts)?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("slb serve: listening on http://{addr}");
    println!("slb serve: cache root {}", server.cache_root().display());
    // The port line is how scripts (and the integration tests) find an
    // ephemeral-port server: make sure it is out before blocking.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.run()?;
    println!("slb serve: drained and shut down");
    Ok(())
}

/// Builds a [`slb_exp::Query`] from `slb query` flags by assembling the
/// same JSON document the wire protocol uses — one parser, one set of
/// defaults, identical validation everywhere.
fn build_query(args: &[String]) -> Result<slb_exp::Query, String> {
    let mut fields = vec![(
        "kind".to_string(),
        Json::Str(arg_value(args, "--kind").unwrap_or_else(|| "bounds".into())),
    )];
    for (flag, key) in [
        ("--n", "n"),
        ("--d", "d"),
        ("--rho", "rho"),
        ("--t", "t"),
        ("--lambda", "lambda"),
        ("--slo", "slo"),
        ("--n-max", "n_max"),
        ("--jobs", "jobs"),
        ("--replications", "replications"),
        ("--seed", "seed"),
    ] {
        if let Some(raw) = arg_value(args, flag) {
            let value: f64 = raw
                .parse()
                .map_err(|_| format!("{flag} expects a number, got '{raw}'"))?;
            fields.push((key.to_string(), Json::Num(value)));
        }
    }
    for (flag, key) in [("--policy", "policy"), ("--metric", "metric")] {
        if let Some(raw) = arg_value(args, flag) {
            fields.push((key.to_string(), Json::Str(raw)));
        }
    }
    slb_exp::Query::from_json(&Json::Obj(fields))
}

/// `slb query` — answer one typed query, either locally (sharing the
/// sweep cache) or against a running `slb serve` (`--addr`).
pub fn query(args: &[String]) -> CmdResult {
    let q = build_query(args)?;
    let answer = match arg_value(args, "--addr") {
        Some(addr) => {
            let policy =
                slb_cli::client::RetryPolicy::with_retries(arg_parse(args, "--retries", 2));
            slb_cli::client::post_query_with_retries(&addr, &q, &policy)?
        }
        None => {
            let store = match arg_value(args, "--cache-dir") {
                Some(dir) => slb_exp::CacheStore::open(dir),
                None => slb_exp::CacheStore::open_default(),
            };
            slb_exp::answer(&q, &store)?
        }
    };

    if args.iter().any(|a| a == "--json") {
        println!("{}", answer.to_json().render());
        return Ok(());
    }

    print!(
        "{}",
        slb_exp::output::to_aligned(&answer.columns, &answer.rows)
    );
    println!(
        "\n{} query: {} cached evaluation(s), {} computed",
        answer.kind, answer.cache_hits, answer.computed
    );
    if let Some(cap) = &answer.capacity {
        match (cap.n_required, cap.achieved) {
            (Some(n), Some(achieved)) => {
                if let slb_exp::Query::Capacity {
                    lambda,
                    metric,
                    slo,
                    ..
                } = &q
                {
                    println!(
                        "capacity: N = {n} serves lambda = {lambda} with {} = {} (slo {slo}), \
                         {} probe(s)",
                        metric.as_str(),
                        f4(achieved),
                        cap.evaluations.len()
                    );
                }
            }
            _ => println!(
                "capacity: infeasible within the search ceiling ({} probe(s))",
                cap.evaluations.len()
            ),
        }
    }
    match &answer.sandwich {
        Some(Ok(rows)) => println!("sandwich check: lower <= sim <= upper holds on {rows} row(s)"),
        Some(Err(e)) => {
            println!("sandwich check FAILED: {e}");
            if args.iter().any(|a| a == "--check") {
                return Err(format!("sandwich violated: {e}"));
            }
        }
        None => {}
    }
    Ok(())
}

/// `slb dist` — percentile bounds from the delay distributions.
pub fn dist(args: &[String]) -> CmdResult {
    let n: usize = arg_parse(args, "--n", 3);
    let d: usize = arg_parse(args, "--d", 2);
    let rho: f64 = arg_parse(args, "--rho", 0.7);
    let t: u32 = arg_parse(args, "--t", 3);
    let ps = parse_percentiles(args)?;
    let sqd = Sqd::new(n, d, rho).map_err(|e| e.to_string())?;

    let lo = sqd
        .delay_distribution(BoundKind::Lower, t)
        .map_err(|e| e.to_string())?;
    let hi = sqd.delay_distribution(BoundKind::Upper, t).ok();

    println!("SQ({d}) delay percentiles, N = {n}, rho = {rho}, T = {t}\n");
    let mut table = Table::new(["p", "lower", "upper"]);
    for &p in &ps {
        let ql = lo.quantile(p).map_err(|e| e.to_string())?;
        let qh = hi
            .as_ref()
            .map(|h| h.quantile(p).map(f4).map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or_else(|| "unstable".into());
        table.push([format!("{p}"), f4(ql), qh]);
    }
    println!(
        "mean: lower {} / upper {}\n",
        f4(lo.mean()),
        hi.map_or("unstable".into(), |h| f4(h.mean()))
    );
    finish(&table, args)
}

fn parse_policy(args: &[String], d: usize) -> Result<Policy, String> {
    let raw = arg_value(args, "--policy").unwrap_or_else(|| "sqd".into());
    match raw.as_str() {
        "sqd" => Ok(Policy::SqD { d }),
        "sqd-replace" => Ok(Policy::SqDReplace { d }),
        "sqd-mem" => Ok(Policy::SqDMemory { d }),
        "random" => Ok(Policy::Random),
        "jsq" => Ok(Policy::Jsq),
        "rr" => Ok(Policy::RoundRobin),
        "jiq" => Ok(Policy::Jiq),
        other => Err(format!(
            "unknown policy '{other}' (try sqd, sqd-replace, sqd-mem, random, jsq, rr, jiq)"
        )),
    }
}

/// `slb simulate` — one simulation run with percentile readouts.
pub fn simulate(args: &[String]) -> CmdResult {
    let n: usize = arg_parse(args, "--n", 3);
    let d: usize = arg_parse(args, "--d", 2);
    let rho: f64 = arg_parse(args, "--rho", 0.7);
    let jobs: u64 = arg_parse(args, "--jobs", 1_000_000);
    let warmup: u64 = arg_parse(args, "--warmup", jobs / 10);
    let seed: u64 = arg_parse(args, "--seed", 1);
    let policy = parse_policy(args, d)?;

    let res = SimConfig::new(n, rho)
        .map_err(|e| e.to_string())?
        .policy(policy)
        .jobs(jobs)
        .warmup(warmup)
        .seed(seed)
        .run()
        .map_err(|e| e.to_string())?;

    println!(
        "{policy:?}, N = {n}, rho = {rho}: {} jobs measured\n",
        res.jobs_measured
    );
    let mut table = Table::new(["metric", "value"]);
    table.push(["mean delay", &f4(res.mean_delay)]);
    table.push(["95% CI halfwidth", &f4(res.ci_halfwidth)]);
    table.push(["mean jobs in system", &f4(res.mean_jobs_in_system)]);
    for &p in &parse_percentiles(args)? {
        let q = res
            .delay_quantile(p)
            .ok_or_else(|| "no jobs measured".to_string())?;
        table.push([format!("p{:02.0} delay", p * 100.0), f4(q)]);
    }
    table.push(["max queue length", &res.max_queue_len.to_string()]);
    finish(&table, args)
}

/// `slb sigma` — the Theorem-2 root for a renewal interarrival law.
pub fn sigma(args: &[String]) -> CmdResult {
    let rho: f64 = arg_parse(args, "--rho", 0.7);
    if !(rho > 0.0 && rho < 1.0) {
        return Err(format!("need 0 < rho < 1, got {rho}"));
    }
    let law = arg_value(args, "--law").unwrap_or_else(|| "poisson".into());
    // Laws are normalized to mean interarrival 1/ρ (unit service rate,
    // single-server scaling as in Theorem 2).
    let inter = match law.as_str() {
        "poisson" => Interarrival::Exponential { rate: rho },
        "erlang" => {
            let k: u32 = arg_parse(args, "--k", 2);
            Interarrival::Erlang {
                k,
                rate: f64::from(k) * rho,
            }
        }
        "deterministic" => Interarrival::Deterministic { gap: 1.0 / rho },
        "hyperexp" => {
            let p: f64 = arg_parse(args, "--p", 0.5);
            let r1: f64 = arg_parse(args, "--r1", 0.5);
            let r2: f64 = arg_parse(args, "--r2", 2.0);
            // Rescale both rates so the mean becomes 1/ρ.
            let mean = p / r1 + (1.0 - p) / r2;
            let c = mean * rho;
            Interarrival::HyperExp {
                p,
                rate1: r1 * c,
                rate2: r2 * c,
            }
        }
        other => {
            return Err(format!(
                "unknown law '{other}' (try poisson, erlang, deterministic, hyperexp)"
            ))
        }
    };
    let sigma = solve_sigma(&inter, 1.0).map_err(|e| e.to_string())?;

    println!("Theorem-2 decay root for {law} arrivals at rho = {rho}\n");
    let mut table = Table::new(["metric", "value"]);
    table.push(["sigma", &format!("{sigma:.10}")]);
    table.push(["rho (Poisson reference)", &format!("{rho:.10}")]);
    table.push(["GI/M/1 mean delay 1/(1-sigma)", &f4(1.0 / (1.0 - sigma))]);
    finish(&table, args)
}

/// `slb meanfield` — fixed point and relaxation of the fluid limit.
pub fn meanfield(args: &[String]) -> CmdResult {
    let d: usize = arg_parse(args, "--d", 2);
    let rho: f64 = arg_parse(args, "--rho", 0.9);
    let k_max: usize = arg_parse(args, "--kmax", 8);

    let mut mf = MeanField::new(rho, d).map_err(|e| e.to_string())?;
    let relax = mf
        .run_to_equilibrium(1e-8, 0.05, 1_000_000.0)
        .map_err(|e| e.to_string())?;

    println!("Mean-field SQ({d}) at rho = {rho} (empty start)\n");
    let mut table = Table::new(["k", "s_k (ODE)", "s_k (Eq. 16)"]);
    for k in 1..=k_max {
        let ode = mf.tail_fractions().get(k - 1).copied().unwrap_or(0.0);
        let closed = asymptotic::tail_fraction(rho, d, k as u32);
        table.push([k.to_string(), format!("{ode:.8}"), format!("{closed:.8}")]);
    }
    println!(
        "relaxation time to 1e-8 residual: {}\nmean delay: {} (Eq. 16: {})\n",
        f4(relax),
        f4(mf.mean_delay()),
        f4(asymptotic::mean_delay(rho, d))
    );
    finish(&table, args)
}

/// `slb burst` — MAP-modulated bounds (2-phase MMPP).
pub fn burst(args: &[String]) -> CmdResult {
    let n: usize = arg_parse(args, "--n", 3);
    let d: usize = arg_parse(args, "--d", 2);
    let rho: f64 = arg_parse(args, "--rho", 0.7);
    let t: u32 = arg_parse(args, "--t", 3);
    let r01: f64 = arg_parse(args, "--r01", 0.5);
    let r10: f64 = arg_parse(args, "--r10", 0.5);
    let l0: f64 = arg_parse(args, "--l0", 0.5);
    let l1: f64 = arg_parse(args, "--l1", 1.5);

    let map = Map::mmpp2(r01, r10, l0, l1).map_err(|e| e.to_string())?;
    let scv = map.interarrival_scv().map_err(|e| e.to_string())?;
    let model = MapSqd::with_utilization(n, d, &map, rho).map_err(|e| e.to_string())?;
    let lb = model.lower_bound(t).map_err(|e| e.to_string())?;
    let ub = model.upper_bound(t);
    let poisson = Sqd::new(n, d, rho)
        .and_then(|s| s.lower_bound(t))
        .map_err(|e| e.to_string())?;

    println!("SQ({d}) under MMPP({r01}, {r10}, {l0}, {l1}) at rho = {rho}, N = {n}, T = {t}\n");
    let mut table = Table::new(["metric", "value"]);
    table.push(["interarrival SCV", &f4(scv)]);
    table.push(["lower bound", &f4(lb.delay)]);
    table.push([
        "upper bound",
        &ub.map_or("unstable (raise --t)".into(), |r| f4(r.delay)),
    ]);
    table.push(["tail decay sp(R)", &f4(lb.tail_decay)]);
    table.push(["Poisson lower bound (reference)", &f4(poisson.delay)]);
    finish(&table, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn all_commands_run_on_defaults() {
        assert_eq!(bounds(&argv("--n 3 --d 2 --rho 0.6 --t 2")), Ok(()));
        assert_eq!(dist(&argv("--rho 0.6 --t 2")), Ok(()));
        assert_eq!(
            simulate(&argv("--jobs 20000 --warmup 2000 --rho 0.6")),
            Ok(())
        );
        assert_eq!(sigma(&argv("--law erlang --k 2 --rho 0.7")), Ok(()));
        assert_eq!(meanfield(&argv("--d 2 --rho 0.7 --kmax 4")), Ok(()));
        assert_eq!(burst(&argv("--rho 0.5 --t 2")), Ok(()));
    }

    #[test]
    fn spec_sweep_runs_and_writes_output() {
        let dir = std::env::temp_dir().join(format!("slb-cli-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("mini.toml");
        std::fs::write(
            &spec_path,
            "[scenario]\nname = \"mini\"\nfamily = \"theorem3\"\n\
             [axes]\nn = [3]\nd = [2]\nrho = [0.7]\nt = [2]\nzip = [\"n\", \"d\", \"rho\", \"t\"]\n",
        )
        .unwrap();
        let out = dir.join("mini.json");
        let args: Vec<String> = vec![
            spec_path.to_string_lossy().into_owned(),
            "--jobs".into(),
            "2".into(),
            "--no-cache".into(),
            "--check".into(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ];
        assert_eq!(sweep(&args), Ok(()));
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.trim_start().starts_with('['), "json output: {body}");
        assert!(sweep(&argv("no-such-spec.toml")).is_err());
        // A simulation-budget-sized --jobs is the old binaries' flag
        // misapplied: reject loudly instead of clamping.
        let mut budget_args = args.clone();
        budget_args[2] = "2000000".into();
        let err = sweep(&budget_args).unwrap_err();
        assert!(err.contains("worker-thread count"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_inputs_reported_not_panicked() {
        assert!(bounds(&argv("--rho 1.5")).is_err());
        // The flag-only form is gone: a spec path is required.
        let err = sweep(&argv("--points 3 --t 2")).unwrap_err();
        assert!(err.contains("experiments/fig10.toml"), "{err}");
        assert!(sweep(&[]).is_err());
        assert!(sigma(&argv("--law weird")).is_err());
        assert!(sigma(&argv("--rho 1.2")).is_err());
        assert!(simulate(&argv("--policy nope")).is_err());
        assert!(meanfield(&argv("--rho 0.0")).is_err());
    }

    #[test]
    fn percentile_parsing() {
        let args = argv("--percentiles 0.1,0.5,0.999");
        assert_eq!(parse_percentiles(&args).unwrap(), vec![0.1, 0.5, 0.999]);
        let bad = argv("--percentiles a,b");
        assert!(parse_percentiles(&bad).is_err());
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy(&argv("--policy jsq"), 2).unwrap(), Policy::Jsq);
        assert_eq!(
            parse_policy(&argv("--policy sqd-mem"), 3).unwrap(),
            Policy::SqDMemory { d: 3 }
        );
        assert_eq!(parse_policy(&argv(""), 2).unwrap(), Policy::SqD { d: 2 });
        assert!(parse_policy(&argv("--policy x"), 2).is_err());
    }

    #[test]
    fn sigma_laws_ordering() {
        // Smoother arrivals (Erlang, deterministic) ⇒ smaller σ than
        // Poisson; burstier (hyperexp) ⇒ larger.
        let rho = 0.7;
        let sig = |inter: &Interarrival| solve_sigma(inter, 1.0).unwrap();
        let poisson = sig(&Interarrival::Exponential { rate: rho });
        assert!((poisson - rho).abs() < 1e-10); // Theorem 3
        let erlang = sig(&Interarrival::Erlang {
            k: 4,
            rate: 4.0 * rho,
        });
        let det = sig(&Interarrival::Deterministic { gap: 1.0 / rho });
        assert!(det < erlang && erlang < poisson);
    }
}
