//! The metric catalog (it must match `BENCHMARK.json`), order
//! statistics, and the result line the benchmark prints last.

use crate::trace::Trace;

/// End-to-end metrics, reported by every run with `--trace 0`:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every run with `--trace 1`. A layer a
/// workload never calls reads 0. Times and counts are medians over
/// operations of the per-operation total, unless noted in README.md.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("cli.connect_ms", "ms"),
    ("cli.ttfb_ms", "ms"),
    ("cli.handler_ms", "ms"),
    ("cli.accept_wait_ms", "ms"),
    ("cli.stats.rejected", "count"),
    ("cli.stats.failed", "count"),
    ("exp.query.evals_per_op", "count"),
    ("exp.query.parse_us", "us"),
    ("exp.query.encode_us", "us"),
    ("exp.query.self_ms", "ms"),
    ("exp.store.hit_ratio", "ratio"),
    ("exp.store.lookup_us", "us"),
    ("exp.store.publish_ms", "ms"),
    ("core.occupancy.build_ms", "ms"),
    ("core.occupancy.assemble_ms", "ms"),
    ("core.occupancy.block_len", "count"),
    ("core.occupancy.nnz", "count"),
    ("qbd.lumped.lower_ms", "ms"),
    ("qbd.lumped.upper_ms", "ms"),
    ("qbd.lumped.upper_sweeps", "count"),
    ("qbd.lumped.upper_levels", "count"),
    ("core.bounds.assemble_ms", "ms"),
    ("core.bounds.lower_ms", "ms"),
    ("core.bounds.upper_ms", "ms"),
    ("qbd.logred.g_iterations", "count"),
    ("core.bounds.level_states", "count"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_job", "ns"),
    ("sim.jobs_per_op", "count"),
    ("trace.op_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// The `q`-quantile (`0 < q ≤ 1`) by the nearest-rank rule; `None` for
/// an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest rank); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Every [`PER_LAYER`] metric computed from a traced run whose
/// operations are the spans called `root`. Layers the trace never
/// entered read 0.
pub fn per_layer(trace: &Trace, root: &str) -> Vec<(&'static str, f64)> {
    let ms = |name: &str| median(&trace.per_op_ms(name));
    let count = |name: &str| median(&trace.per_op_count(name));
    let total = |v: Vec<f64>| v.iter().sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let evals = total(trace.per_op_count("exp.query.evals"));
    let sim_ns = total(trace.per_op_ms("sim.run")) * 1e6;
    let sim_jobs = total(trace.per_op_count("sim.jobs"));
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "cli.connect_ms" => ms("cli.connect"),
                "cli.ttfb_ms" => ms("cli.ttfb"),
                "cli.handler_ms" => ms("cli.handler"),
                "cli.accept_wait_ms" => median(&trace.per_op_self_ms("cli.ttfb")),
                "cli.stats.rejected" => count("cli.stats.rejected"),
                "cli.stats.failed" => count("cli.stats.failed"),
                "exp.query.evals_per_op" => count("exp.query.evals"),
                "exp.query.parse_us" => ms("exp.query.parse") * 1e3,
                "exp.query.encode_us" => ms("exp.query.encode") * 1e3,
                "exp.query.self_ms" => median(&trace.per_op_self_ms("exp.query.answer")),
                "exp.store.hit_ratio" => ratio(total(trace.per_op_count("exp.store.hits")), evals),
                "exp.store.lookup_us" => ms("exp.store.lookup") * 1e3,
                "exp.store.publish_ms" => ms("exp.store.publish"),
                "core.occupancy.build_ms" => ms("core.occupancy.build"),
                "core.occupancy.assemble_ms" => ms("core.occupancy.assemble"),
                "core.occupancy.block_len" => count("core.occupancy.block_len"),
                "core.occupancy.nnz" => count("core.occupancy.nnz"),
                "qbd.lumped.lower_ms" => ms("qbd.lumped.lower"),
                "qbd.lumped.upper_ms" => ms("qbd.lumped.upper"),
                "qbd.lumped.upper_sweeps" => count("qbd.lumped.upper_sweeps"),
                "qbd.lumped.upper_levels" => count("qbd.lumped.upper_levels"),
                "core.bounds.assemble_ms" => ms("core.bounds.assemble"),
                "core.bounds.lower_ms" => ms("core.bounds.lower"),
                "core.bounds.upper_ms" => ms("core.bounds.upper"),
                "qbd.logred.g_iterations" => count("qbd.logred.g_iterations"),
                "core.bounds.level_states" => count("core.bounds.level_states"),
                "sim.run_ms" => ms("sim.run"),
                "sim.ns_per_job" => ratio(sim_ns, sim_jobs),
                "sim.jobs_per_op" => count("sim.jobs"),
                "trace.op_ms" => ms(root),
                "trace.coverage" => median(&trace.per_op_coverage(root)),
                other => unreachable!("per-layer metric {other} has no definition"),
            };
            (name, value)
        })
        .collect()
}

/// Reads this process's peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of a timed closed loop.
pub fn end_to_end(
    setup_s: &[f64],
    latencies_ms: &[f64],
    succeeded: usize,
    wall_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let q = |p| quantile(latencies_ms, p).unwrap_or(0.0);
    eprintln!("set-up repetitions (s): {setup_s:?}");
    vec![
        ("setup_s", median(setup_s)),
        ("throughput_ops_s", succeeded as f64 / wall_s),
        ("latency_p50_ms", q(0.5)),
        ("latency_p90_ms", q(0.9)),
        ("latency_p95_ms", q(0.95)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Timed operations attempted.
    pub attempted: usize,
    /// Timed operations that errored or failed their output check.
    pub failed: usize,
    /// `(name, value)` for every metric of the run's catalog.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Renders the result line: `correct`, `attempted`, `failed` and
    /// every metric with its unit. `catalog` is [`END_TO_END`] or
    /// [`PER_LAYER`]; a catalog metric the run did not report is a bug.
    pub fn render(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find_map(|(n, v)| (n == name).then_some(*v))
                    .unwrap_or_else(|| panic!("metric {name} was not reported"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_exp::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        out.sort();
        out
    }

    fn catalog(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), catalog(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalog(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let names: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn rendered_line_carries_every_metric_with_its_unit() {
        for catalog in [&END_TO_END[..], &PER_LAYER[..]] {
            let result = RunResult {
                attempted: 3,
                failed: 0,
                metrics: catalog.iter().map(|(n, _)| (*n, 1.25)).collect(),
            };
            let doc = Json::parse(&result.render(catalog)).expect("result line is JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            for (name, unit) in catalog {
                let m = doc.get("metrics").and_then(|m| m.get(name)).expect(name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
