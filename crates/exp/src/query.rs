//! Typed point queries: the `Query → Answer` API behind `slb query`
//! and `slb serve`.
//!
//! PR 4/5 could only evaluate a grid point through a TOML spec file;
//! this module exposes the same per-point evaluation as a typed API —
//! no spec required — while keeping the *identical* execution path: a
//! query builds the same [`Job`], with the same canonical cache key,
//! that a sweep over the same parameters would build, and answers it
//! through the shared [`CacheStore`]. Sweep results and query/serve
//! results are therefore byte-identical for identical keys, and repeat
//! queries answer from the store in microseconds.
//!
//! Three query kinds:
//!
//! - [`Query::Bounds`] — the QBD lower/upper mean-delay bounds, the
//!   simulation estimate, and the asymptotic (Eq. 16) value at one
//!   `(N, d, ρ, T)` (the `bounds` family row).
//! - [`Query::Service`] — the simulated mean delay plus p50/p90/p99
//!   sojourn percentiles at one `(policy, N, d, ρ)`, sandwiched by the
//!   O(1) mean-field / M/M/1 references (the `service` family row).
//! - [`Query::Capacity`] — the capacity planner: the smallest `N` that
//!   serves total arrival rate `λ` with a delay metric (mean or a
//!   percentile) at or below an SLO. Answered by exponential search +
//!   bisection over `N`, each probe a cached `service` evaluation, so
//!   repeated and overlapping capacity queries reuse each other's
//!   probes.
//!
//! Every answer carries a sandwich verdict where the family has bound
//! columns (the paper's Theorem-1 invariant, checked on the served
//! rows exactly as `slb sweep --check` checks swept rows).

use crate::check::check_sandwich;
use crate::json::Json;
use crate::runner::{run_job, Family, Row};
use crate::spec::Job;
use crate::store::{CacheStore, Source};
use crate::value::Value;
use slb_linalg::Budget;

/// Simulation budget of one query: total jobs split over replications,
/// plus the base seed. Defaults match the sweep engine's injected
/// defaults ([`crate::spec`]'s `SIM_KEYS`), so an unqualified query
/// shares cache entries with an unqualified spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBudget {
    /// Total simulated jobs across all replications.
    pub jobs: u64,
    /// Independent replications merged into the estimate.
    pub replications: usize,
    /// Base RNG seed (per-point streams derive from it).
    pub seed: u64,
}

impl Default for SimBudget {
    fn default() -> Self {
        SimBudget {
            jobs: 1_000_000,
            replications: 4,
            seed: 1,
        }
    }
}

/// The delay metric a capacity query compares against its SLO — the
/// mean or one of the percentile columns of the `service` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean sojourn time.
    Mean,
    /// Median sojourn time.
    P50,
    /// 90th-percentile sojourn time.
    P90,
    /// 99th-percentile sojourn time.
    P99,
}

impl Metric {
    /// Parses a metric name (`mean`, `p50`, `p90`, `p99`).
    ///
    /// # Errors
    ///
    /// Lists the valid names when the input matches none.
    pub fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(Metric::Mean),
            "p50" => Ok(Metric::P50),
            "p90" => Ok(Metric::P90),
            "p99" => Ok(Metric::P99),
            other => Err(format!(
                "unknown metric '{other}' (expected mean, p50, p90 or p99)"
            )),
        }
    }

    /// The metric's name (also its wire encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Metric::Mean => "mean",
            Metric::P50 => "p50",
            Metric::P90 => "p90",
            Metric::P99 => "p99",
        }
    }

    /// The `service`-family column holding this metric.
    fn column(self) -> &'static str {
        match self {
            Metric::Mean => "sim",
            Metric::P50 => "p50",
            Metric::P90 => "p90",
            Metric::P99 => "p99",
        }
    }
}

/// Hard default ceiling for the capacity search: beyond this the
/// request is reported infeasible rather than simulated unboundedly.
pub const DEFAULT_N_MAX: usize = 65_536;

/// A typed point query. See the module docs for the three kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// QBD bounds + simulation + asymptotics at one `(N, d, ρ, T)`.
    Bounds {
        /// Number of servers.
        n: usize,
        /// Choices sampled per arrival.
        d: usize,
        /// Per-server utilization.
        rho: f64,
        /// QBD truncation threshold.
        t: u32,
        /// Simulation budget.
        budget: SimBudget,
    },
    /// Mean + percentiles at one `(policy, N, d, ρ)`.
    Service {
        /// Dispatch policy (`sqd` or `jsq`).
        policy: String,
        /// Number of servers.
        n: usize,
        /// Choices sampled per arrival (ignored by `jsq`).
        d: usize,
        /// Per-server utilization.
        rho: f64,
        /// Simulation budget.
        budget: SimBudget,
    },
    /// Smallest `N` meeting a delay SLO at total arrival rate `λ`.
    Capacity {
        /// Dispatch policy (`sqd` or `jsq`).
        policy: String,
        /// Total arrival rate (jobs per unit service time).
        lambda: f64,
        /// Choices sampled per arrival (ignored by `jsq`).
        d: usize,
        /// Delay metric compared against `slo`.
        metric: Metric,
        /// The delay target in unit service times.
        slo: f64,
        /// Search ceiling on `N`.
        n_max: usize,
        /// Simulation budget per probe.
        budget: SimBudget,
    },
}

/// The capacity-planner part of an [`Answer`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityAnswer {
    /// Smallest probed `N` meeting the SLO; `None` when even `n_max`
    /// misses it (infeasible within the ceiling).
    pub n_required: Option<usize>,
    /// The metric value achieved at `n_required`.
    pub achieved: Option<f64>,
    /// Every probe of the search, in probe order: `(N, metric value)`.
    pub evaluations: Vec<(usize, f64)>,
}

/// The sandwich verdict attached to answers whose family carries bound
/// columns: `Ok(checked_rows)` or the violation report.
pub type SandwichVerdict = Result<usize, String>;

/// The result of answering one [`Query`].
#[derive(Debug, Clone)]
pub struct Answer {
    /// Wire name of the query kind (`bounds` / `service` / `capacity`).
    pub kind: &'static str,
    /// Column names of `rows`.
    pub columns: Vec<&'static str>,
    /// The result rows — byte-identical to the rows an `slb sweep`
    /// over the same parameters emits. For capacity queries: the
    /// service row at the answering `N` (empty when infeasible).
    pub rows: Vec<Row>,
    /// Evaluations answered from the store (memory, disk, or joined
    /// with a concurrent identical request).
    pub cache_hits: usize,
    /// Evaluations that ran the solver/simulator.
    pub computed: usize,
    /// Theorem-1 sandwich verdict on `rows` (`None` when the family
    /// carries no bound columns).
    pub sandwich: Option<SandwichVerdict>,
    /// Capacity-search report (capacity queries only).
    pub capacity: Option<CapacityAnswer>,
}

impl Query {
    /// Wire name of the query kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Bounds { .. } => "bounds",
            Query::Service { .. } => "service",
            Query::Capacity { .. } => "capacity",
        }
    }

    /// The budget shared by every evaluation this query makes.
    pub fn budget(&self) -> SimBudget {
        match self {
            Query::Bounds { budget, .. }
            | Query::Service { budget, .. }
            | Query::Capacity { budget, .. } => *budget,
        }
    }

    /// Decodes a query from its JSON wire form (the body of a
    /// `POST /v1/query`). Unknown kinds and missing/mistyped fields
    /// produce descriptive errors (the server's 400 bodies).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(doc: &Json) -> Result<Query, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("query needs a string 'kind' field")?;
        let budget = SimBudget {
            jobs: get_u64(doc, "jobs")?.unwrap_or(SimBudget::default().jobs),
            replications: get_usize(doc, "replications")?
                .unwrap_or(SimBudget::default().replications),
            seed: get_u64(doc, "seed")?.unwrap_or(SimBudget::default().seed),
        };
        match kind {
            "bounds" => Ok(Query::Bounds {
                n: req_usize(doc, "n")?,
                d: req_usize(doc, "d")?,
                rho: req_f64(doc, "rho")?,
                t: u32::try_from(req_usize(doc, "t")?).map_err(|_| "field 't' out of range")?,
                budget,
            }),
            "service" => Ok(Query::Service {
                policy: get_policy(doc)?,
                n: req_usize(doc, "n")?,
                d: req_usize(doc, "d")?,
                rho: req_f64(doc, "rho")?,
                budget,
            }),
            "capacity" => Ok(Query::Capacity {
                policy: get_policy(doc)?,
                lambda: req_f64(doc, "lambda")?,
                d: get_usize(doc, "d")?.unwrap_or(2),
                metric: Metric::from_name(
                    doc.get("metric").and_then(Json::as_str).unwrap_or("p99"),
                )?,
                slo: req_f64(doc, "slo")?,
                n_max: get_usize(doc, "n_max")?.unwrap_or(DEFAULT_N_MAX),
                budget,
            }),
            other => Err(format!(
                "unknown query kind '{other}' (expected bounds, service or capacity)"
            )),
        }
    }

    /// Encodes the query in its JSON wire form (what `slb query --addr`
    /// sends). Round-trips through [`Query::from_json`].
    pub fn to_json(&self) -> Json {
        let budget = self.budget();
        let mut fields = vec![("kind".to_string(), Json::Str(self.kind().to_string()))];
        match self {
            Query::Bounds { n, d, rho, t, .. } => {
                fields.push(("n".into(), Json::Num(*n as f64)));
                fields.push(("d".into(), Json::Num(*d as f64)));
                fields.push(("rho".into(), Json::Num(*rho)));
                fields.push(("t".into(), Json::Num(f64::from(*t))));
            }
            Query::Service {
                policy, n, d, rho, ..
            } => {
                fields.push(("policy".into(), Json::Str(policy.clone())));
                fields.push(("n".into(), Json::Num(*n as f64)));
                fields.push(("d".into(), Json::Num(*d as f64)));
                fields.push(("rho".into(), Json::Num(*rho)));
            }
            Query::Capacity {
                policy,
                lambda,
                d,
                metric,
                slo,
                n_max,
                ..
            } => {
                fields.push(("policy".into(), Json::Str(policy.clone())));
                fields.push(("lambda".into(), Json::Num(*lambda)));
                fields.push(("d".into(), Json::Num(*d as f64)));
                fields.push(("metric".into(), Json::Str(metric.as_str().to_string())));
                fields.push(("slo".into(), Json::Num(*slo)));
                fields.push(("n_max".into(), Json::Num(*n_max as f64)));
            }
        }
        fields.push(("jobs".into(), Json::Num(budget.jobs as f64)));
        fields.push(("replications".into(), Json::Num(budget.replications as f64)));
        fields.push(("seed".into(), Json::Num(budget.seed as f64)));
        Json::Obj(fields)
    }

    /// The family whose rows answer this query.
    pub fn family(&self) -> Family {
        match self {
            Query::Bounds { .. } => Family::Bounds,
            Query::Service { .. } | Query::Capacity { .. } => Family::Service,
        }
    }
}

/// The `policy` field, defaulting to `sqd`; an unknown name is a
/// decode error (answered 400), not a failure of the solve.
fn get_policy(doc: &Json) -> Result<String, String> {
    let name = match doc.get("policy") {
        None => return Ok("sqd".to_string()),
        Some(v) => v
            .as_str()
            .ok_or_else(|| "field 'policy' must be a string".to_string())?,
    };
    crate::runner::check_policy(name)?;
    Ok(name.to_string())
}

fn get_num(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a number")),
    }
}

fn get_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match get_num(doc, key)? {
        None => Ok(None),
        Some(x) if x.fract() == 0.0 && (0.0..9.0e15).contains(&x) => Ok(Some(x as u64)),
        Some(_) => Err(format!("field '{key}' must be a non-negative integer")),
    }
}

fn get_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    Ok(get_u64(doc, key)?.map(|x| x as usize))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    get_num(doc, key)?.ok_or_else(|| format!("missing required field '{key}'"))
}

fn req_usize(doc: &Json, key: &str) -> Result<usize, String> {
    get_usize(doc, key)?.ok_or_else(|| format!("missing required field '{key}'"))
}

/// Builds the [`Job`] a point evaluation runs — with exactly the
/// parameter set a sweep over the same values would expand to, so the
/// canonical cache key (and therefore the cached rows) coincide.
fn point_job(family: Family, params: Vec<(String, Value)>, budget: SimBudget) -> Job {
    let mut params = params;
    params.push(("jobs".into(), Value::Int(budget.jobs as i64)));
    params.push((
        "replications".into(),
        Value::Int(budget.replications.max(1) as i64),
    ));
    params.push(("seed".into(), Value::Int(budget.seed as i64)));
    Job::new(family, 0, params)
}

/// A `service`-family job at one `(policy, n, d, ρ)`.
fn service_job(policy: &str, n: usize, d: usize, rho: f64, budget: SimBudget) -> Job {
    point_job(
        Family::Service,
        vec![
            ("policy".into(), Value::Str(policy.to_string())),
            ("n".into(), Value::Int(n as i64)),
            ("d".into(), Value::Int(d as i64)),
            ("rho".into(), Value::Float(rho)),
        ],
        budget,
    )
}

/// Evaluates one job through the store, tallying hit/computed counts.
/// The budget only gates the *compute* path — a cache hit answers even
/// an already-expired budget (the work is in hand; nothing to abort).
fn eval(
    store: &CacheStore,
    job: &Job,
    budget: &Budget,
    hits: &mut usize,
    computed: &mut usize,
) -> Result<std::sync::Arc<Vec<Row>>, String> {
    let (rows, source) = store.get_or_compute(&job.canonical_key(), || run_job(job, budget))?;
    if source.is_hit() {
        *hits += 1;
    } else {
        *computed += 1;
    }
    let _ = Source::Memory; // (exhaustive use; sources are aggregated)
    Ok(rows)
}

/// Answers a query through the shared store. This is the single
/// evaluation path behind `slb query`, `slb serve` and (point-wise)
/// `slb sweep`.
///
/// # Errors
///
/// Returns a message when a parameter is invalid or an evaluation
/// fails; capacity infeasibility is *not* an error (see
/// [`CapacityAnswer::n_required`]).
pub fn answer(query: &Query, store: &CacheStore) -> Result<Answer, String> {
    answer_with_budget(query, store, &Budget::unlimited())
}

/// [`answer`] under a cooperative [`Budget`] — what `slb serve` calls
/// with the request deadline so an over-budget solve aborts
/// mid-iteration (freeing the worker) instead of completing work whose
/// answer will be discarded. An interrupted evaluation surfaces as an
/// `interrupted: ...` error and is never cached.
///
/// # Errors
///
/// As [`answer`], plus `interrupted: ...` messages on budget trips.
pub fn answer_with_budget(
    query: &Query,
    store: &CacheStore,
    budget: &Budget,
) -> Result<Answer, String> {
    let mut hits = 0usize;
    let mut computed = 0usize;
    let family = query.family();
    let (rows, capacity) = match query {
        Query::Bounds {
            n,
            d,
            rho,
            t,
            budget: sim_budget,
        } => {
            let job = point_job(
                Family::Bounds,
                vec![
                    ("n".into(), Value::Int(*n as i64)),
                    ("d".into(), Value::Int(*d as i64)),
                    ("rho".into(), Value::Float(*rho)),
                    ("t".into(), Value::Int(i64::from(*t))),
                ],
                *sim_budget,
            );
            let rows = eval(store, &job, budget, &mut hits, &mut computed)?;
            (rows.as_ref().clone(), None)
        }
        Query::Service {
            policy,
            n,
            d,
            rho,
            budget: sim_budget,
        } => {
            let job = service_job(policy, *n, *d, *rho, *sim_budget);
            let rows = eval(store, &job, budget, &mut hits, &mut computed)?;
            if rows.is_empty() {
                return Err(format!(
                    "infeasible point: policy '{policy}' with d = {d} needs at least d servers \
                     (n = {n})"
                ));
            }
            (rows.as_ref().clone(), None)
        }
        Query::Capacity {
            policy,
            lambda,
            d,
            metric,
            slo,
            n_max,
            budget: sim_budget,
        } => capacity_search(
            store,
            policy,
            *lambda,
            *d,
            *metric,
            *slo,
            *n_max,
            *sim_budget,
            budget,
            &mut hits,
            &mut computed,
        )?,
    };

    let sandwich = (family.columns().contains(&"lower"))
        .then(|| check_sandwich(family, family.columns(), &rows));
    Ok(Answer {
        kind: query.kind(),
        columns: family.columns().to_vec(),
        rows,
        cache_hits: hits,
        computed,
        sandwich,
        capacity,
    })
}

/// The capacity planner: exponential search upward from the stability
/// floor until the SLO holds, then bisection on the bracket. The delay
/// metric is decreasing in `N` at fixed `λ` (utilization `ρ = λ/N`
/// falls), so bisection is sound up to simulation noise; every probe is
/// a cached `service` evaluation at `ρ = λ/N`.
#[allow(clippy::too_many_arguments)]
fn capacity_search(
    store: &CacheStore,
    policy: &str,
    lambda: f64,
    d: usize,
    metric: Metric,
    slo: f64,
    n_max: usize,
    sim_budget: SimBudget,
    budget: &Budget,
    hits: &mut usize,
    computed: &mut usize,
) -> Result<(Vec<Row>, Option<CapacityAnswer>), String> {
    if !(lambda > 0.0 && lambda.is_finite()) {
        return Err(format!("lambda must be positive and finite, got {lambda}"));
    }
    if !(slo > 0.0 && slo.is_finite()) {
        return Err(format!("slo must be positive and finite, got {slo}"));
    }
    // Stability floor: ρ = λ/N < 1, and SQ(d) needs at least d servers.
    let n_floor = ((lambda.floor() as usize) + 1).max(if policy == "sqd" { d } else { 1 });
    if n_floor > n_max {
        return Err(format!(
            "stability needs at least N = {n_floor} servers but n_max = {n_max}"
        ));
    }

    let metric_col = Family::Service
        .columns()
        .iter()
        .position(|c| *c == metric.column())
        .expect("service family carries every metric column");
    let mut evaluations: Vec<(usize, f64)> = Vec::new();
    let mut probe = |n: usize,
                     hits: &mut usize,
                     computed: &mut usize|
     -> Result<(f64, std::sync::Arc<Vec<Row>>), String> {
        let rho = lambda / n as f64;
        let job = service_job(policy, n, d, rho, sim_budget);
        let rows = eval(store, &job, budget, hits, computed)?;
        let row = rows
            .first()
            .ok_or_else(|| format!("capacity probe at N = {n}: infeasible point"))?;
        let value: f64 = row
            .get(metric_col)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("capacity probe at N = {n}: unreadable metric cell"))?;
        evaluations.push((n, value));
        Ok((value, rows))
    };

    // Exponential phase: double until the SLO holds or the cap is hit.
    let (mut val, mut rows) = probe(n_floor, hits, computed)?;
    let mut hi = n_floor;
    let mut lo = None; // largest N known to miss the SLO
    while val > slo {
        if hi >= n_max {
            // Infeasible within the ceiling: report, don't error.
            return Ok((
                Vec::new(),
                Some(CapacityAnswer {
                    n_required: None,
                    achieved: None,
                    evaluations,
                }),
            ));
        }
        lo = Some(hi);
        hi = (hi * 2).min(n_max);
        (val, rows) = probe(hi, hits, computed)?;
    }

    // Bisection on (lo, hi]: metric(hi) ≤ slo throughout.
    if let Some(mut lo) = lo {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (mid_val, mid_rows) = probe(mid, hits, computed)?;
            if mid_val <= slo {
                hi = mid;
                val = mid_val;
                rows = mid_rows;
            } else {
                lo = mid;
            }
        }
    }

    Ok((
        rows.as_ref().clone(),
        Some(CapacityAnswer {
            n_required: Some(hi),
            achieved: Some(val),
            evaluations,
        }),
    ))
}

impl Answer {
    /// Encodes the answer in its JSON wire form (the server's 200
    /// bodies; also `slb query --json`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".to_string(), Json::Str(self.kind.to_string())),
            (
                "columns".to_string(),
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| Json::Str((*c).to_string()))
                        .collect(),
                ),
            ),
            (
                "rows".to_string(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(|c| Json::Str(c.clone())).collect()))
                        .collect(),
                ),
            ),
            ("cache_hits".to_string(), Json::Num(self.cache_hits as f64)),
            ("computed".to_string(), Json::Num(self.computed as f64)),
        ];
        if let Some(verdict) = &self.sandwich {
            let obj = match verdict {
                Ok(checked) => vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("checked".to_string(), Json::Num(*checked as f64)),
                ],
                Err(msg) => vec![
                    ("ok".to_string(), Json::Bool(false)),
                    ("error".to_string(), Json::Str(msg.clone())),
                ],
            };
            fields.push(("sandwich".to_string(), Json::Obj(obj)));
        }
        if let Some(cap) = &self.capacity {
            let mut obj = vec![("feasible".to_string(), Json::Bool(cap.n_required.is_some()))];
            if let Some(n) = cap.n_required {
                obj.push(("n_required".to_string(), Json::Num(n as f64)));
            }
            if let Some(a) = cap.achieved {
                obj.push(("achieved".to_string(), Json::Num(a)));
            }
            obj.push((
                "evaluations".to_string(),
                Json::Arr(
                    cap.evaluations
                        .iter()
                        .map(|(n, v)| Json::Arr(vec![Json::Num(*n as f64), Json::Num(*v)]))
                        .collect(),
                ),
            ));
            fields.push(("capacity".to_string(), Json::Obj(obj)));
        }
        Json::Obj(fields)
    }

    /// Decodes an answer from its JSON wire form (what `slb query
    /// --addr` reads back). Tolerant of extra fields.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(doc: &Json) -> Result<Answer, String> {
        let kind = match doc.get("kind").and_then(Json::as_str) {
            Some("bounds") => "bounds",
            Some("service") => "service",
            Some("capacity") => "capacity",
            other => return Err(format!("answer has unknown kind {other:?}")),
        };
        let family = match kind {
            "bounds" => Family::Bounds,
            _ => Family::Service,
        };
        let mut rows = Vec::new();
        for row in doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("answer needs a 'rows' array")?
        {
            let cells: Option<Vec<String>> = row
                .as_arr()
                .ok_or("answer rows must be arrays")?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect();
            rows.push(cells.ok_or("answer cells must be strings")?);
        }
        let sandwich = doc.get("sandwich").map(|s| {
            if s.get("ok") == Some(&Json::Bool(true)) {
                Ok(s.get("checked").and_then(Json::as_f64).unwrap_or(0.0) as usize)
            } else {
                Err(s
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("sandwich violated")
                    .to_string())
            }
        });
        let capacity = doc.get("capacity").map(|c| {
            let evaluations = c
                .get("evaluations")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|pair| {
                            let pair = pair.as_arr()?;
                            Some((pair.first()?.as_f64()? as usize, pair.get(1)?.as_f64()?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            CapacityAnswer {
                n_required: c
                    .get("n_required")
                    .and_then(Json::as_f64)
                    .map(|x| x as usize),
                achieved: c.get("achieved").and_then(Json::as_f64),
                evaluations,
            }
        });
        Ok(Answer {
            kind,
            columns: family.columns().to_vec(),
            rows,
            cache_hits: doc.get("cache_hits").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            computed: doc.get("computed").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            sandwich,
            capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CacheStore {
        let dir = std::env::temp_dir().join(format!("slb-query-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheStore::open(dir)
    }

    fn small_budget() -> SimBudget {
        SimBudget {
            jobs: 40_000,
            replications: 2,
            seed: 3,
        }
    }

    #[test]
    fn query_json_roundtrip() {
        let queries = [
            Query::Bounds {
                n: 3,
                d: 2,
                rho: 0.7,
                t: 3,
                budget: small_budget(),
            },
            Query::Service {
                policy: "jsq".into(),
                n: 64,
                d: 2,
                rho: 0.85,
                budget: SimBudget::default(),
            },
            Query::Capacity {
                policy: "sqd".into(),
                lambda: 40.0,
                d: 2,
                metric: Metric::P99,
                slo: 2.5,
                n_max: 512,
                budget: small_budget(),
            },
        ];
        for q in queries {
            let encoded = q.to_json().render();
            let decoded = Query::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, q, "{encoded}");
        }
    }

    #[test]
    fn from_json_defaults_and_errors() {
        let q =
            Query::from_json(&Json::parse(r#"{"kind":"capacity","lambda":10,"slo":3.0}"#).unwrap())
                .unwrap();
        match q {
            Query::Capacity {
                d, metric, n_max, ..
            } => {
                assert_eq!(d, 2);
                assert_eq!(metric, Metric::P99);
                assert_eq!(n_max, DEFAULT_N_MAX);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        for (body, needle) in [
            (r#"{"n":3}"#, "kind"),
            (r#"{"kind":"teleport"}"#, "unknown query kind"),
            (r#"{"kind":"bounds","n":3,"d":2,"t":3}"#, "rho"),
            (r#"{"kind":"service","n":3,"rho":"x","d":2}"#, "number"),
            (
                r#"{"kind":"capacity","lambda":10,"slo":3,"metric":"p47"}"#,
                "unknown metric",
            ),
            (
                r#"{"kind":"service","n":3,"d":2,"rho":0.5,"jobs":1.5}"#,
                "integer",
            ),
            (
                r#"{"kind":"service","policy":"interrupted","n":3,"d":2,"rho":0.5}"#,
                "unknown policy",
            ),
            (
                r#"{"kind":"capacity","policy":"rr","lambda":10,"slo":3}"#,
                "unknown policy",
            ),
        ] {
            let err = Query::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn service_answer_matches_equivalent_sweep_rows() {
        let store = temp_store("svc");
        let q = Query::Service {
            policy: "sqd".into(),
            n: 8,
            d: 2,
            rho: 0.6,
            budget: small_budget(),
        };
        let a = answer(&q, &store).unwrap();
        assert_eq!(a.rows.len(), 1);
        assert_eq!(a.computed, 1);
        assert!(a.sandwich.as_ref().unwrap().is_ok());

        // The same point through a spec-driven sweep replays the stored
        // entry byte-identically (same canonical key, same store).
        let spec = crate::ScenarioSpec::parse(
            "[scenario]\nname = \"svc\"\nfamily = \"service\"\npolicy = \"sqd\"\nd = 2\n\
             jobs = 40000\nreplications = 2\nseed = 3\n[axes]\nn = [8]\nrho = [0.6]\n",
        )
        .unwrap();
        let report = crate::run_sweep(
            &spec,
            &crate::SweepOptions {
                threads: 1,
                cache_dir: Some(store.root().to_path_buf()),
                ..crate::SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.rows, a.rows);
        assert_eq!(report.cache_hits, 1, "sweep must replay the query's entry");

        // Repeat query: answered from memory, zero computes.
        let again = answer(&q, &store).unwrap();
        assert_eq!(again.rows, a.rows);
        assert_eq!(again.computed, 0);
        assert_eq!(again.cache_hits, 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn capacity_search_finds_minimal_n() {
        let store = temp_store("cap");
        let q = Query::Capacity {
            policy: "sqd".into(),
            lambda: 6.0,
            d: 2,
            metric: Metric::Mean,
            slo: 1.6,
            n_max: 256,
            budget: small_budget(),
        };
        let a = answer(&q, &store).unwrap();
        let cap = a.capacity.clone().unwrap();
        let n = cap.n_required.expect("feasible");
        assert!(n >= 7, "stability needs n > lambda, got {n}");
        assert!(cap.achieved.unwrap() <= 1.6);
        assert_eq!(a.rows.len(), 1, "answer carries the service row at N*");
        // The probes bracket the answer: some N misses the SLO unless
        // the floor itself already met it.
        assert!(cap.evaluations.iter().any(|(en, _)| *en == n));

        // Re-asking reuses every probe from the store.
        let again = answer(&q, &store).unwrap();
        assert_eq!(again.computed, 0);
        assert_eq!(again.capacity.unwrap().n_required, Some(n));
        assert_eq!(again.rows, a.rows);

        // Answer JSON round-trips the capacity block.
        let parsed = Answer::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed.capacity.unwrap().n_required, Some(n));
        assert_eq!(parsed.rows, a.rows);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn capacity_reports_infeasible_within_ceiling() {
        let store = temp_store("infeasible");
        // An SLO below the bare service time is unreachable at any N.
        let q = Query::Capacity {
            policy: "sqd".into(),
            lambda: 3.0,
            d: 2,
            metric: Metric::Mean,
            slo: 0.5,
            n_max: 16,
            budget: SimBudget {
                jobs: 20_000,
                replications: 1,
                seed: 1,
            },
        };
        let a = answer(&q, &store).unwrap();
        let cap = a.capacity.unwrap();
        assert_eq!(cap.n_required, None);
        assert!(a.rows.is_empty());
        assert!(!cap.evaluations.is_empty());
        // Nonsense inputs are errors, not searches.
        for (lambda, slo, n_max) in [(-1.0, 1.0, 64), (3.0, -0.5, 64), (1000.0, 2.0, 4)] {
            let q = Query::Capacity {
                policy: "sqd".into(),
                lambda,
                d: 2,
                metric: Metric::Mean,
                slo,
                n_max,
                budget: small_budget(),
            };
            assert!(answer(&q, &store).is_err(), "lambda={lambda} slo={slo}");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
