//! The sweep executor: cached, multithreaded, deterministic.
//!
//! Since PR 6 the executor is a thin batch driver over the two shared
//! service layers: jobs are scheduled onto a [`WorkPool`] (the same
//! long-lived work-stealing pool `slb serve` answers requests on) and
//! every evaluation goes through a [`CacheStore`]
//! ([`CacheStore::get_or_compute`]), so a sweep, a one-shot `slb query`
//! and a served request produce — and replay — byte-identical rows for
//! identical canonical keys.
//!
//! Determinism: runners are pure functions of the job parameters, every
//! result lands in the slot of its job index, and rows are concatenated
//! in job order after the batch drains — so the output is byte-identical
//! for any thread count and any steal interleaving (the same discipline
//! as `slb-sim`'s `run_parallel`). The cache layer reuses that purity:
//! a hit replays the stored rows, which are the same bytes a cold run
//! would produce.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cache;
use crate::check::check_sandwich;
use crate::manifest::RunManifest;
use crate::runner::{run_job, Row};
use crate::spec::{Job, ScenarioSpec};
use crate::store::CacheStore;
use slb_linalg::{Budget, CancelToken};
use slb_pool::WorkPool;

/// Options for one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker-thread count (clamped to at least 1; jobs fewer than
    /// threads leave the surplus workers idle).
    pub threads: usize,
    /// Apply the spec's `[smoke]` overrides (reduced CI grids).
    pub smoke: bool,
    /// Consult and populate the result cache.
    pub cache: bool,
    /// Cache directory override; defaults to
    /// `<workspace-root>/target/sweep-cache`.
    pub cache_dir: Option<PathBuf>,
    /// Verify the bound sandwich (`lower ≤ sim/exact ≤ upper`) on every
    /// row that carries those columns; violations fail the sweep.
    pub check: bool,
    /// Resume an interrupted run: seed the checkpoint manifest with the
    /// previous run's completed set (the results themselves replay from
    /// the cache regardless).
    pub resume: bool,
    /// External cancellation: when this token fires, in-flight jobs
    /// abort at their next budget poll, queued jobs are skipped, the
    /// checkpoint is flushed, and the sweep returns an `interrupted`
    /// error.
    pub cancel: Option<CancelToken>,
    /// Also treat a delivered SIGINT/SIGTERM (`sigint::triggered()`) as
    /// cancellation — the graceful ctrl-C path of `slb sweep`. Off for
    /// embedded runs (`slb serve`), whose sweeps must not be cancelled
    /// by the daemon's own shutdown signal handling.
    pub watch_sigint: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            smoke: false,
            cache: true,
            cache_dir: None,
            check: false,
            resume: false,
            cancel: None,
            watch_sigint: false,
        }
    }
}

/// The outcome of a sweep: the full table plus execution counters.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Column names (fixed per family).
    pub columns: Vec<&'static str>,
    /// All rows in job order — independent of thread count.
    pub rows: Vec<Row>,
    /// Expanded grid size.
    pub jobs: usize,
    /// Jobs answered from the cache (memory, disk, or joined with an
    /// identical in-flight evaluation).
    pub cache_hits: usize,
    /// Jobs that actually ran a solver/simulator (`jobs − cache_hits`;
    /// a pure replay reports 0).
    pub computed: usize,
    /// Points the `--resume` checkpoint recorded as completed by a
    /// previous interrupted run (0 without `--resume`).
    pub resumed: usize,
    /// Rows that passed the sandwich check (0 when unchecked or the
    /// family carries no bound columns).
    pub checked_rows: usize,
}

/// One job's outcome: its rows plus whether the store answered it (a
/// cache hit), or the runner's error message.
type JobOutcome = Result<(Vec<Row>, bool), String>;

/// One batch's completion state: result slots plus a drained counter
/// the submitting thread waits on.
struct Batch {
    /// Filled exactly once per job by whichever worker ran it.
    slots: Vec<Mutex<Option<JobOutcome>>>,
    finished: Mutex<usize>,
    drained: Condvar,
}

/// Expands a spec and runs (or replays) every job on a pool owned by
/// this call.
///
/// # Errors
///
/// Returns a message when expansion fails, any job's runner fails, or
/// the sandwich check finds a violating row.
pub fn run_sweep(spec: &ScenarioSpec, opts: &SweepOptions) -> Result<SweepReport, String> {
    let store = opts.cache.then(|| {
        Arc::new(CacheStore::open(
            opts.cache_dir
                .clone()
                .unwrap_or_else(cache::default_cache_dir),
        ))
    });
    let pool = WorkPool::new(opts.threads.max(1));
    let report = run_sweep_on(spec, opts, &pool, store.as_ref());
    pool.shutdown();
    report
}

/// [`run_sweep`] on a caller-owned pool and store — the entry point a
/// long-running process (`slb serve`) uses so sweeps share its workers
/// and its warm index. `opts.threads` is ignored (the pool is already
/// sized); `opts.cache`/`opts.cache_dir` are ignored when `store` is
/// given.
///
/// # Errors
///
/// As [`run_sweep`].
pub fn run_sweep_on(
    spec: &ScenarioSpec,
    opts: &SweepOptions,
    pool: &WorkPool,
    store: Option<&Arc<CacheStore>>,
) -> Result<SweepReport, String> {
    let jobs: Arc<Vec<Job>> = Arc::new(spec.expand(opts.smoke)?);
    let total = jobs.len();

    // The run's checkpoint identity: a hash over every expanded
    // canonical key, so any parameter/axis/smoke change — which also
    // changes the cache keys — starts a fresh checkpoint.
    let spec_hash = cache::fnv64(
        &jobs
            .iter()
            .map(Job::canonical_key)
            .collect::<Vec<_>>()
            .join("\n"),
    );
    // Checkpointing needs the durable store (resume replays from it);
    // with the cache disabled there is nothing a manifest could resume.
    let (manifest, resumed) = match store {
        Some(store) => {
            let (m, resumed) = RunManifest::open(
                store.root(),
                spec_hash,
                &spec.name,
                opts.smoke,
                total,
                opts.resume,
            );
            (Some(Arc::new(m)), resumed)
        }
        None => (None, 0),
    };

    // One cancel token for the whole run: tripped by the caller's token
    // or by SIGINT/SIGTERM (when watched). Workers observe it two ways —
    // in-flight solves poll it through the job budget and abort
    // mid-iteration; queued jobs check it before starting and skip.
    let run_cancel = CancelToken::new();
    let budget = Budget::unlimited().cancel_token(run_cancel.clone());
    let externally_cancelled = || {
        (opts.watch_sigint && sigint::triggered())
            || opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    };
    // A cancellation that predates the run must win even if every job
    // would finish inside the first drain-poll interval.
    let mut interrupted = externally_cancelled();
    if interrupted {
        run_cancel.cancel();
    }

    let batch = Arc::new(Batch {
        slots: (0..total).map(|_| Mutex::new(None)).collect(),
        finished: Mutex::new(0),
        drained: Condvar::new(),
    });
    for i in 0..total {
        let jobs = Arc::clone(&jobs);
        let batch = Arc::clone(&batch);
        let store = store.map(Arc::clone);
        let manifest = manifest.clone();
        let cancel = run_cancel.clone();
        let budget = budget.clone();
        pool.spawn(move || {
            let job = &jobs[i];
            let outcome = if cancel.is_cancelled() {
                Err("interrupted: sweep cancelled before this job started".to_string())
            } else {
                match &store {
                    Some(store) => store
                        .get_or_compute(&job.canonical_key(), || run_job(job, &budget))
                        .map(|(rows, source)| (rows.as_ref().clone(), source.is_hit())),
                    None => run_job(job, &budget).map(|rows| (rows, false)),
                }
            };
            if outcome.is_ok() {
                // The rows are published (store) by the time we record
                // the index, so a checkpointed index is always
                // replayable.
                if let Some(m) = &manifest {
                    m.complete(i);
                }
            }
            *batch.slots[i].lock().expect("slot lock") = Some(outcome);
            let mut finished = batch.finished.lock().expect("batch lock");
            *finished += 1;
            batch.drained.notify_all();
        });
    }

    // Drain, watching for cancellation: on SIGINT (or the caller's
    // token) trip the shared token once, then keep waiting — in-flight
    // jobs abort at their next budget poll and queued jobs skip, so the
    // drain completes promptly instead of after minutes of doomed
    // solving.
    {
        let mut finished = batch.finished.lock().expect("batch lock");
        while *finished < total {
            let (f, _) = batch
                .drained
                .wait_timeout(finished, Duration::from_millis(50))
                .expect("batch wait");
            finished = f;
            if !interrupted && externally_cancelled() {
                interrupted = true;
                run_cancel.cancel();
            }
        }
    }

    if interrupted {
        // Completed points are all in the store and checkpointed; the
        // error tells the operator how to pick the run back up.
        let done = manifest.as_ref().map_or_else(
            || {
                (0..total)
                    .filter(|&i| matches!(&*batch.slots[i].lock().expect("slot lock"), Some(Ok(_))))
                    .count()
            },
            |m| {
                m.flush();
                m.completed()
            },
        );
        return Err(format!(
            "interrupted after {done} of {total} points; completed points are checkpointed — \
             re-run with --resume to continue"
        ));
    }

    // Collect in job order; the first (by job order) failure names its
    // grid point. Successful siblings were already published to the
    // store, so a retry after fixing one bad point replays the rest.
    let mut rows = Vec::new();
    let mut cache_hits = 0usize;
    for (i, slot) in batch.slots.iter().enumerate() {
        let outcome = slot
            .lock()
            .expect("slot lock")
            .take()
            .unwrap_or_else(|| Err("job was never executed (executor bug)".into()));
        match outcome {
            Ok((job_rows, hit)) => {
                cache_hits += usize::from(hit);
                rows.extend(job_rows);
            }
            Err(e) => {
                return Err(format!(
                    "job {} of {} ({}): {e}",
                    i + 1,
                    total,
                    describe(&jobs[i])
                ));
            }
        }
    }

    let checked_rows = if opts.check {
        check_sandwich(spec.family, spec.family.columns(), &rows)?
    } else {
        0
    };

    // Every point landed: the run needs no resume checkpoint any more.
    if let Some(m) = &manifest {
        m.finish();
    }

    Ok(SweepReport {
        columns: spec.family.columns().to_vec(),
        rows,
        jobs: total,
        cache_hits,
        computed: total - cache_hits,
        resumed,
        checked_rows,
    })
}

/// Short human description of a job for error messages: the varying
/// parameters only (axis values), which is what identifies a grid point.
fn describe(job: &crate::spec::Job) -> String {
    for key in ["rho", "n"] {
        if let Some(v) = job.get(key) {
            return format!("{key}={v}, ...");
        }
    }
    String::from("job")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("slb-exp-exec-{tag}-{}", std::process::id()))
    }

    const SPEC: &str = r#"
[scenario]
name = "exec-test"
family = "logred-iters"
d = 2

[axes]
n   = [3, 3]
t   = [2, 3]
rho = [0.5, 0.75, 0.9]
kind = ["lower", "upper"]
zip = ["n", "t"]
"#;

    #[test]
    fn thread_count_does_not_change_output() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let base = SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        };
        let serial = run_sweep(&spec, &base).unwrap();
        assert_eq!(serial.jobs, 12);
        assert_eq!(serial.rows.len(), 12);
        for threads in [2, 8] {
            let par = run_sweep(
                &spec,
                &SweepOptions {
                    threads,
                    ..base.clone()
                },
            )
            .unwrap();
            assert_eq!(par.rows, serial.rows, "threads = {threads}");
        }
    }

    #[test]
    fn cache_replays_identical_rows() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let dir = temp_dir("replay");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            threads: 4,
            cache: true,
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let cold = run_sweep(&spec, &opts).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = run_sweep(&spec, &opts).unwrap();
        assert_eq!(warm.cache_hits, warm.jobs);
        assert_eq!(warm.rows, cold.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_pool_and_store_match_owned_run() {
        // The serve path (caller-owned pool + store) must produce the
        // same bytes as a plain sweep, and the second run over the same
        // warm store must be all hits.
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let dir = temp_dir("shared");
        let _ = std::fs::remove_dir_all(&dir);
        let owned = run_sweep(
            &spec,
            &SweepOptions {
                threads: 2,
                cache: false,
                ..SweepOptions::default()
            },
        )
        .unwrap();

        let pool = WorkPool::new(3);
        let store = Arc::new(CacheStore::open(dir.clone()));
        let opts = SweepOptions::default();
        let first = run_sweep_on(&spec, &opts, &pool, Some(&store)).unwrap();
        assert_eq!(first.rows, owned.rows);
        assert_eq!(first.cache_hits, 0);
        let second = run_sweep_on(&spec, &opts, &pool, Some(&store)).unwrap();
        assert_eq!(second.rows, owned.rows);
        assert_eq!(second.cache_hits, second.jobs);
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_sweep_reports_interrupted_then_resumes_cleanly() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let dir = temp_dir("cancel");
        let _ = std::fs::remove_dir_all(&dir);
        let token = CancelToken::new();
        token.cancel(); // cancelled before any job starts: nothing may run
        let err = run_sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                cache: true,
                cache_dir: Some(dir.clone()),
                cancel: Some(token),
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("interrupted after 0 of 12"), "{err}");
        assert!(err.contains("--resume"), "{err}");

        // The interrupted run left a checkpoint; resuming without the
        // cancel token completes the grid and retires it.
        let resume_opts = SweepOptions {
            threads: 4,
            cache: true,
            cache_dir: Some(dir.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec, &resume_opts).unwrap();
        assert_eq!(report.computed, 12);
        assert_eq!(report.resumed, 0, "nothing had completed before cancel");
        // A further resume replays everything from the cache — the CI
        // "0 computed" invariant — and finds no checkpoint left behind.
        let replay = run_sweep(&spec, &resume_opts).unwrap();
        assert_eq!(replay.computed, 0);
        assert_eq!(replay.resumed, 0, "a finished run retired its manifest");
        assert_eq!(replay.rows, report.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_counts_previously_completed_points() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let dir = temp_dir("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            threads: 2,
            cache: true,
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let cold = run_sweep(&spec, &opts).unwrap();

        // Fabricate the checkpoint an interruption after 5 points would
        // have left (the executor deletes its own on success).
        let jobs = spec.expand(false).unwrap();
        let spec_hash = cache::fnv64(
            &jobs
                .iter()
                .map(Job::canonical_key)
                .collect::<Vec<_>>()
                .join("\n"),
        );
        let (m, _) = RunManifest::open(&dir, spec_hash, &spec.name, false, jobs.len(), false);
        for i in 0..5 {
            m.complete(i);
        }
        m.flush();

        let resumed_run = run_sweep(
            &spec,
            &SweepOptions {
                resume: true,
                ..opts.clone()
            },
        )
        .unwrap();
        assert_eq!(resumed_run.resumed, 5);
        assert_eq!(
            resumed_run.cache_hits, 12,
            "all points replay from the store"
        );
        assert_eq!(resumed_run.rows, cold.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_name_the_failing_point() {
        // rho = 1.5 is invalid for the model: the sweep must fail with a
        // located message, not panic.
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"bad\"\nfamily = \"logred-iters\"\nd = 2\n\
             [axes]\nn = [3]\nt = [2]\nrho = [1.5]\nkind = [\"lower\"]\n",
        )
        .unwrap();
        let err = run_sweep(
            &spec,
            &SweepOptions {
                cache: false,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("rho=1.5"), "{err}");
    }
}
