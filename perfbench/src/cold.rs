//! The in-process workloads (`bounds-dense`, `bounds-lumped`): a closed
//! loop of one cold `slb_exp::answer` call
//! at a time on one thread, against a fresh `CacheStore` in a temporary
//! directory.

use std::path::Path;
use std::time::{Duration, Instant};

use slb_exp::{answer, Answer, CacheStore, Query};

use crate::check::check_answer;
use crate::inputs::{warmup_query, ColdOps, Workload};
use crate::metrics::{self, RunResult};
use crate::trace::Trace;
use crate::{replay, Run, SETUP_REPS};

/// A store in a fresh directory under `work`.
fn fresh_store(work: &Path, name: &str) -> Result<CacheStore, String> {
    let dir = work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(CacheStore::open(dir))
}

/// Set-up: a fresh store, the input stream, and one untimed warm-up
/// query outside the timed key set. Repeated [`SETUP_REPS`] times; the
/// last repetition's store and inputs are used.
fn setup(run: &Run, work: &Path) -> Result<(Vec<f64>, CacheStore, ColdOps), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let store = fresh_store(work, &format!("store-{rep}"))?;
        let ops = ColdOps::new(run.workload, run.seed);
        let warm = warmup_query(run.workload, run.seed, rep);
        let warm_answer = answer(&warm, &store).map_err(|e| format!("warm-up query: {e}"))?;
        check_answer(&warm, &warm_answer).map_err(|e| format!("warm-up query: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        last = Some((store, ops));
    }
    let (store, ops) = last.expect("at least one set-up repetition");
    Ok((times, store, ops))
}

/// Checks every answered query after the timed loop; returns whether
/// each one failed, reporting the first few failures on stderr.
fn failures(workload: Workload, done: &[(Query, Result<Answer, String>)]) -> Vec<bool> {
    let mut reported = 0;
    done.iter()
        .map(|(query, result)| {
            let verdict = result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|a| check_answer(query, a));
            if let Err(e) = &verdict {
                reported += 1;
                if reported <= 5 {
                    eprintln!("{}: failed operation {query:?}: {e}", workload.name());
                }
            }
            verdict.is_err()
        })
        .collect()
}

/// Runs a cold workload with tracing off and reports its end-to-end
/// metrics.
pub fn run(run: &Run, work: &Path) -> Result<RunResult, String> {
    let (setup_s, store, mut ops) = setup(run, work)?;
    let mut done = Vec::new();
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(run.seconds) {
        let query = ops.next().expect("the input stream is endless");
        let t0 = Instant::now();
        let result = answer(&query, &store);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        done.push((query, result));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let failed = failures(run.workload, &done).iter().filter(|f| **f).count();
    Ok(RunResult {
        attempted: done.len(),
        failed,
        metrics: metrics::end_to_end(
            &setup_s,
            &latencies_ms,
            done.len() - failed,
            wall_s,
            metrics::peak_rss_mb(None)?,
        ),
    })
}

/// Runs a cold workload with tracing on: each query's `answer` call is
/// the operation span, and [`replay`] times its layers on the same
/// inputs against a second fresh store.
pub fn run_traced(run: &Run, work: &Path, trace_out: &Path) -> Result<RunResult, String> {
    let (_, store, mut ops) = setup(run, work)?;
    let replay_store = fresh_store(work, "replay")?;
    let mut tr = Trace::new();
    let mut done = Vec::new();
    let mut replay_failed = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(run.seconds) {
        let op = done.len();
        let query = ops.next().expect("the input stream is endless");
        let (result, root) = tr.time(op, None, "exp.query.answer", || answer(&query, &store));
        if let Ok(a) = &result {
            tr.count(op, "exp.query.evals", (a.cache_hits + a.computed) as f64);
            tr.count(op, "exp.store.hits", a.cache_hits as f64);
            if let Err(e) = replay::bounds(&mut tr, op, root, &query, a, &replay_store) {
                replay_failed.push(op);
                eprintln!("{}: replay of {query:?} failed: {e}", run.workload.name());
            }
        }
        done.push((query, result));
    }
    tr.write_jsonl(trace_out)
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    eprintln!("trace written to {}", trace_out.display());
    let mut failed = failures(run.workload, &done);
    for op in replay_failed {
        failed[op] = true;
    }
    Ok(RunResult {
        attempted: done.len(),
        failed: failed.iter().filter(|f| **f).count(),
        metrics: metrics::per_layer(&tr, "exp.query.answer"),
    })
}
