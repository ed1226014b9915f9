//! The traced run's per-layer breakdown of one answered query: each
//! layer that `answer` runs internally is timed by calling that layer's
//! public function again on the same inputs, with the same parameters
//! the query layer derives (cache key, simulation configuration, solver
//! options). Every replay must reproduce the cells of the answered row,
//! which shows the breakdown timed the work the answer did.

use std::sync::Arc;

use slb_core::{BoundKind, BoundModel, CoreError, LumpedModel, Sqd};
use slb_exp::runner::Family;
use slb_exp::{Answer, Budget, CacheStore, Job, Query, SimBudget, Value};
use slb_qbd::{SparseQbdBlocks, SparseSolveOptions};
use slb_sim::{Policy, SimConfig, SimResult};

use crate::trace::Trace;

/// The largest `N` the `bounds` family answers on the dense path.
pub const DENSE_N_MAX: usize = 12;

fn budget_params(mut params: Vec<(String, Value)>, budget: SimBudget) -> Vec<(String, Value)> {
    params.push(("jobs".into(), Value::Int(budget.jobs as i64)));
    params.push((
        "replications".into(),
        Value::Int(budget.replications.max(1) as i64),
    ));
    params.push(("seed".into(), Value::Int(budget.seed as i64)));
    params
}

/// The `bounds` job a query at `(n, d, ρ, t)` evaluates.
pub fn bounds_job(n: usize, d: usize, rho: f64, t: u32, budget: SimBudget) -> Job {
    let params = vec![
        ("n".into(), Value::Int(n as i64)),
        ("d".into(), Value::Int(d as i64)),
        ("rho".into(), Value::Float(rho)),
        ("t".into(), Value::Int(i64::from(t))),
    ];
    Job::new(Family::Bounds, 0, budget_params(params, budget))
}

/// The `service` job a query at `(policy, n, d, ρ)` evaluates.
pub fn service_job(policy: &str, n: usize, d: usize, rho: f64, budget: SimBudget) -> Job {
    let params = vec![
        ("policy".into(), Value::Str(policy.to_string())),
        ("n".into(), Value::Int(n as i64)),
        ("d".into(), Value::Int(d as i64)),
        ("rho".into(), Value::Float(rho)),
    ];
    Job::new(Family::Service, 0, budget_params(params, budget))
}

/// The table precision of every numeric cell.
fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Runs the simulator exactly as the query layer does for `job`:
/// replications run serially, the job budget split across them.
fn simulate(tr: &mut Trace, op: usize, parent: usize, job: &Job) -> Result<SimResult, String> {
    let (n, d, rho) = (job.usize("n")?, job.usize("d")?, job.f64("rho")?);
    let reps = job.usize("replications")?.max(1);
    let per_rep = (job.u64("jobs")? / reps as u64).max(10);
    let mut cfg = SimConfig::new(n, rho).map_err(|e| e.to_string())?;
    cfg.policy(Policy::SqD { d })
        .jobs(per_rep)
        .warmup(per_rep / 10)
        .seed(job.derived_seed());
    let (sim, _) = tr.time(op, Some(parent), "sim.run", || {
        cfg.run_parallel_budgeted(reps, 1, &Budget::unlimited())
    });
    tr.count(op, "sim.jobs", (per_rep * reps as u64) as f64);
    sim.map_err(|e| e.to_string())
}

/// Looks `key` up in the replay store, which must not hold it yet.
fn lookup_miss(
    tr: &mut Trace,
    op: usize,
    parent: usize,
    store: &CacheStore,
    key: &str,
) -> Result<(), String> {
    let (hit, _) = tr.time(op, Some(parent), "exp.store.lookup", || store.lookup(key));
    match hit {
        None => Ok(()),
        Some(_) => Err("replay store already held a timed key".into()),
    }
}

fn publish(tr: &mut Trace, op: usize, parent: usize, store: &CacheStore, key: &str, a: &Answer) {
    let rows = Arc::new(a.rows.clone());
    tr.time(op, Some(parent), "exp.store.publish", || {
        store.publish(key, rows)
    });
}

fn nnz(blocks: &SparseQbdBlocks) -> usize {
    [
        blocks.r00(),
        blocks.r01(),
        blocks.r10(),
        blocks.a0(),
        blocks.a1(),
        blocks.a2(),
    ]
    .iter()
    .map(|m| m.nnz())
    .sum()
}

/// The upper-bound cell as the `bounds` family prints it.
fn upper_cell(upper: Result<f64, CoreError>) -> Result<String, String> {
    match upper {
        Ok(delay) => Ok(f4(delay)),
        Err(CoreError::UpperBoundUnstable { .. }) => Ok("inf".into()),
        Err(e) => Err(format!("upper bound: {e}")),
    }
}

/// Dense path: `Sqd::lower_bound` / `Sqd::upper_bound`, each with the
/// model assembly (`BoundModel::new` + `qbd_blocks`) it runs as a child.
fn dense_bounds(
    tr: &mut Trace,
    op: usize,
    parent: usize,
    sqd: Sqd,
    t: u32,
) -> Result<(String, String), String> {
    let assemble = |kind| BoundModel::new(sqd, kind, t).and_then(|m| m.qbd_blocks());
    let (lower, id) = tr.time(op, Some(parent), "core.bounds.lower", || sqd.lower_bound(t));
    tr.time(op, Some(id), "core.bounds.assemble", || {
        assemble(BoundKind::Lower)
    })
    .0
    .map_err(|e| e.to_string())?;
    let lower = lower.map_err(|e| format!("lower bound: {e}"))?;
    tr.count(op, "core.bounds.level_states", lower.level_states as f64);

    let (upper, id) = tr.time(op, Some(parent), "core.bounds.upper", || sqd.upper_bound(t));
    tr.time(op, Some(id), "core.bounds.assemble", || {
        assemble(BoundKind::Upper)
    })
    .0
    .map_err(|e| e.to_string())?;
    if let Ok(r) = &upper {
        tr.count(op, "qbd.logred.g_iterations", r.g_iterations as f64);
    }
    Ok((f4(lower.delay), upper_cell(upper.map(|r| r.delay))?))
}

/// Lumped path: `Sqd::lower_bound_lumped_with` /
/// `Sqd::upper_bound_lumped_with`, each with its occupancy enumeration
/// (`LumpedModel::new`) and assembly (`qbd_blocks`) as children; the
/// upper side also with its truncation-doubling solve
/// (`SparseQbdBlocks::solve_decay_tail`).
fn lumped_bounds(
    tr: &mut Trace,
    op: usize,
    parent: usize,
    sqd: Sqd,
    t: u32,
) -> Result<(String, String), String> {
    let opts = SparseSolveOptions::default();
    let model_blocks = |tr: &mut Trace, id: usize, kind| -> Result<SparseQbdBlocks, String> {
        let (model, _) = tr.time(op, Some(id), "core.occupancy.build", || {
            LumpedModel::new(sqd, kind, t)
        });
        let model = model.map_err(|e| e.to_string())?;
        let (blocks, _) = tr.time(op, Some(id), "core.occupancy.assemble", || {
            model.qbd_blocks()
        });
        let blocks = blocks.map_err(|e| e.to_string())?;
        tr.count(op, "core.occupancy.nnz", nnz(&blocks) as f64);
        if kind == BoundKind::Upper {
            tr.count(
                op,
                "core.occupancy.block_len",
                model.space().block_len() as f64,
            );
        }
        Ok(blocks)
    };

    let (lower, id) = tr.time(op, Some(parent), "qbd.lumped.lower", || {
        sqd.lower_bound_lumped_with(t, &opts)
    });
    model_blocks(tr, id, BoundKind::Lower)?;
    let lower = lower.map_err(|e| format!("lumped lower bound: {e}"))?;

    let (upper, id) = tr.time(op, Some(parent), "qbd.lumped.upper", || {
        sqd.upper_bound_lumped_with(t, &opts)
    });
    let blocks = model_blocks(tr, id, BoundKind::Upper)?;
    let (tail, _) = tr.time(op, Some(id), "qbd.lumped.solve_decay_tail", || {
        blocks.solve_decay_tail(&opts)
    });
    if let Ok(tail) = tail {
        tr.count(op, "qbd.lumped.upper_sweeps", tail.sweeps() as f64);
        tr.count(op, "qbd.lumped.upper_levels", tail.levels().len() as f64);
    }
    Ok((f4(lower.delay), upper_cell(upper.map(|r| r.delay))?))
}

/// Replays a `bounds` answer layer by layer under span `parent`.
pub fn bounds(
    tr: &mut Trace,
    op: usize,
    parent: usize,
    query: &Query,
    answer: &Answer,
    store: &CacheStore,
) -> Result<(), String> {
    let Query::Bounds {
        n,
        d,
        rho,
        t,
        budget,
    } = *query
    else {
        return Err("not a bounds query".into());
    };
    let job = bounds_job(n, d, rho, t, budget);
    let key = job.canonical_key();
    lookup_miss(tr, op, parent, store, &key)?;
    let sqd = Sqd::new(n, d, rho).map_err(|e| e.to_string())?;
    let (lower, upper) = if n <= DENSE_N_MAX {
        dense_bounds(tr, op, parent, sqd, t)?
    } else {
        lumped_bounds(tr, op, parent, sqd, t)?
    };
    let sim = simulate(tr, op, parent, &job)?;
    publish(tr, op, parent, store, &key, answer);

    let col = |name: &str| {
        let i = answer.columns.iter().position(|c| *c == name);
        i.and_then(|i| answer.rows.first().map(|r| r[i].clone()))
    };
    let replayed = [
        ("lower", lower),
        ("sim", f4(sim.mean_delay)),
        ("upper", upper),
    ];
    for (name, cell) in replayed {
        if col(name).as_deref() != Some(cell.as_str()) {
            return Err(format!(
                "replayed {name} cell {cell} differs from the answer's {:?}",
                col(name)
            ));
        }
    }
    Ok(())
}
