//! CI bench-regression gate: compares a fresh criterion-shim JSON
//! record (the bench-smoke artifact) against the committed `BENCH_*.json`
//! trajectory and fails on a large slowdown.
//!
//! ```text
//! cargo run -p slb-bench --bin bench_gate -- \
//!     --baseline BENCH_pr7.json --current bench-smoke.json \
//!     [--threshold 3.0] [--kernel-threshold 1.3]
//! ```
//!
//! Two threshold classes:
//!
//! * **Kernel benches** (`logred/…`, `cr/…`, `stationary_solve/…`,
//!   `matmul/…`, since PR 7 the serial simulator benches
//!   `sim_serial/…`, `sim_jsq/…`, the occupancy-lumped solver benches
//!   `lumped_*`, and the Theorem-3 ablation `theorem3/…`) are tight,
//!   single-threaded loops whose medians are reproducible to a few
//!   percent, so they get the strict
//!   `--kernel-threshold` (default 1.3×) — the PR 5 → PR 6 trajectory
//!   showed a phantom "regression" on `logred/m64` that was pure
//!   recording-run noise, and a 3× tripwire would never catch the real
//!   thing (an accidentally de-optimized kernel is typically 1.5–3×).
//! * Everything else — multi-threaded simulator and serve benches, which
//!   schedule threads and sockets on shared CI runners — keeps the loose
//!   `--threshold` (default 3×) where only order-of-magnitude breakage
//!   should trip, not scheduler noise.
//!
//! A third, *relative* class gates parallel scaling: every
//! `sim_par_*_t4/…` bench in the current run is compared against its own
//! `…_t1/…` twin **within the same file** — a machine-relative ratio,
//! immune to absolute-speed drift between runners. When the current run
//! was recorded with ≥ 4 CPUs available (the shim stamps `cpus` into
//! every record), 4 worker threads must at least halve the wall time
//! (`--par-ratio`, default 0.5×). On narrower machines real scaling is
//! physically unmeasurable, so the gate falls back to a no-harm bound
//! (`--par-no-harm`, default 1.25×): threads may not make the run
//! slower.
//!
//! Sub-microsecond baselines are pure timer noise at CI sample counts,
//! so the comparison floor (`--floor-ns`, default 1000) clamps the
//! baseline: a 100 ns benchmark only fails once it exceeds
//! `threshold × 1 µs`. For each benchmark the *latest* record per file
//! wins (trajectory files accumulate phases); benchmarks present in
//! only one file are reported but never fail the gate.

use slb_bench::{arg_parse, arg_value, f4, Table};
use slb_exp::Json;

/// Bench-name prefixes of the tight single-threaded loops held to the
/// strict threshold.
const KERNEL_PREFIXES: [&str; 8] = [
    "logred/",
    "cr/",
    "stationary_solve/",
    "matmul/",
    "sim_serial/",
    "sim_jsq/",
    "lumped_",
    "theorem3/",
];

fn is_kernel(bench: &str) -> bool {
    KERNEL_PREFIXES.iter().any(|p| bench.starts_with(p))
}

/// `bench name → median_ns of its latest record` from a criterion-shim
/// JSON report, plus the CPU count the latest records were taken on
/// (1 when the file predates the `cpus` field).
fn load_medians(path: &str) -> Result<(Vec<(String, f64)>, usize), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&src).map_err(|e| format!("parsing {path}: {e}"))?;
    let records = doc
        .as_arr()
        .ok_or_else(|| format!("{path}: expected a JSON array of records"))?;
    let mut medians: Vec<(String, f64)> = Vec::new();
    let mut cpus = 1usize;
    for rec in records {
        let (Some(bench), Some(median)) = (
            rec.get("bench").and_then(Json::as_str),
            rec.get("median_ns").and_then(Json::as_f64),
        ) else {
            return Err(format!("{path}: record missing bench/median_ns: {rec:?}"));
        };
        if let Some(c) = rec.get("cpus").and_then(Json::as_f64) {
            cpus = c as usize;
        }
        // Later records override earlier ones: the trajectory's newest
        // phase is the comparison point.
        if let Some(slot) = medians.iter_mut().find(|(b, _)| b == bench) {
            slot.1 = median;
        } else {
            medians.push((bench.to_string(), median));
        }
    }
    if medians.is_empty() {
        return Err(format!("{path}: no benchmark records"));
    }
    Ok((medians, cpus))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_pr7.json".into());
    let current_path = arg_value(&args, "--current").unwrap_or_else(|| "bench-smoke.json".into());
    let threshold: f64 = arg_parse(&args, "--threshold", 3.0);
    let kernel_threshold: f64 = arg_parse(&args, "--kernel-threshold", 1.3);
    let floor_ns: f64 = arg_parse(&args, "--floor-ns", 1000.0);
    let par_ratio: f64 = arg_parse(&args, "--par-ratio", 0.5);
    let par_no_harm: f64 = arg_parse(&args, "--par-no-harm", 1.25);

    let ((baseline, _), (current, cur_cpus)) =
        match (load_medians(&baseline_path), load_medians(&current_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (b, c) => {
                for r in [b.err(), c.err()].into_iter().flatten() {
                    eprintln!("error: {r}");
                }
                std::process::exit(2);
            }
        };

    println!(
        "Bench gate: {current_path} vs {baseline_path} \
         (fail above {kernel_threshold}x kernels, {threshold}x elsewhere)\n"
    );
    let mut table = Table::new([
        "bench",
        "class",
        "baseline_ns",
        "current_ns",
        "ratio",
        "verdict",
    ]);
    let mut failures = 0usize;
    for (bench, cur) in &current {
        let (class, limit) = if is_kernel(bench) {
            ("kernel", kernel_threshold)
        } else {
            ("other", threshold)
        };
        let Some((_, base)) = baseline.iter().find(|(b, _)| b == bench) else {
            table.push([
                bench.as_str(),
                class,
                "-",
                &f4(*cur),
                "-",
                "new (no baseline)",
            ]);
            continue;
        };
        let ratio = cur / base;
        let verdict = if *cur > limit * base.max(floor_ns) {
            failures += 1;
            "REGRESSION"
        } else if ratio > limit {
            "ok (below floor)"
        } else {
            "ok"
        };
        table.push([
            bench.clone(),
            class.to_string(),
            f4(*base),
            f4(*cur),
            format!("{ratio:.2}x"),
            verdict.to_string(),
        ]);
    }
    for (bench, _) in &baseline {
        if !current.iter().any(|(b, _)| b == bench) {
            table.push([bench.as_str(), "-", "?", "-", "-", "missing from current"]);
        }
    }
    print!("{}", table.to_aligned());

    // Parallel-scaling ratio class: t4 against its own t1 twin within
    // the current file. Machine-relative, so absolute-speed drift
    // between runners cannot trip it — but the bound itself depends on
    // whether the recording machine could physically scale.
    let pairs: Vec<(String, f64, String, f64)> = current
        .iter()
        .filter_map(|(bench, t4)| {
            let twin = bench.replace("_t4/", "_t1/");
            if twin == *bench {
                return None;
            }
            let (_, t1) = current.iter().find(|(b, _)| *b == twin)?;
            Some((bench.clone(), *t4, twin, *t1))
        })
        .collect();
    if !pairs.is_empty() {
        let (limit, bound) = if cur_cpus >= 4 {
            (par_ratio, "scaling")
        } else {
            (par_no_harm, "no-harm")
        };
        println!(
            "\nParallel-scaling gate ({cur_cpus} CPU(s) on the recording machine \
             => {bound} bound: t4 <= {limit}x t1)"
        );
        if cur_cpus < 4 {
            println!(
                "note: fewer than 4 CPUs — multi-core speedup is unmeasurable here, \
                 enforcing only that threads do not hurt"
            );
        }
        let mut ratio_table = Table::new(["pair", "t1_ns", "t4_ns", "t4/t1", "verdict"]);
        for (t4_name, t4, _twin, t1) in &pairs {
            let ratio = t4 / t1;
            let verdict = if ratio <= limit {
                "ok"
            } else {
                failures += 1;
                "SCALING REGRESSION"
            };
            ratio_table.push([
                t4_name.clone(),
                f4(*t1),
                f4(*t4),
                format!("{ratio:.2}x"),
                verdict.to_string(),
            ]);
        }
        print!("{}", ratio_table.to_aligned());
    }

    if failures > 0 {
        eprintln!(
            "\n{failures} benchmark(s) regressed beyond their class threshold \
             ({kernel_threshold}x kernels, {threshold}x elsewhere, \
             parallel-scaling ratio bound)"
        );
        std::process::exit(1);
    }
    println!(
        "\nall compared benchmarks within their class thresholds \
         ({kernel_threshold}x kernels, {threshold}x elsewhere, \
         parallel-scaling ratio bound)"
    );
}
