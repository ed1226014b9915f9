//! The `slb serve` daemon: a long-running capacity-planning service.
//!
//! One process owns a [`CacheStore`] (warm in-process index over the
//! shared on-disk sweep cache) and a [`WorkPool`] (the PR 4
//! work-stealing discipline, long-lived); the accept loop hands each
//! connection to the pool, where it is parsed, answered through
//! [`slb_exp::query::answer`] — the *same* evaluation path `slb query`
//! and `slb sweep` use — and written back. Identical queries therefore
//! return byte-identical rows whether they were first computed by a
//! sweep, a one-shot query, or an earlier request.
//!
//! Endpoints:
//!
//! | method | path           | response                                   |
//! |--------|----------------|--------------------------------------------|
//! | GET    | `/healthz`     | `{"ok":true}`                              |
//! | GET    | `/stats`       | request/hit counters, index size, uptime   |
//! | POST   | `/v1/query`    | a [`slb_exp::Answer`] for the body's query |
//! | POST   | `/v1/shutdown` | `{"ok":true}`, then graceful shutdown      |
//!
//! Malformed requests get 400, unknown paths 404, wrong methods 405,
//! evaluation failures 422, handler panics a clean 500, and overload /
//! missed deadlines 503. Shutdown — via `/v1/shutdown`, SIGINT or
//! SIGTERM — stops accepting, drains every in-flight request through
//! [`WorkPool::shutdown`], and returns from [`Server::run`].
//!
//! The accept loop blocks in `accept` on a blocking listener, so a
//! request costs what its handler costs. Shutdown wakes the loop by
//! connecting once to the listener's own address (loopback for a
//! wildcard bind); `/v1/shutdown` makes that connection itself, and a
//! watcher thread makes it when it sees SIGINT/SIGTERM. The loop drops
//! the wake connection without admitting it, so it never shows in
//! `in_flight`, `/stats` or the pool.
//!
//! # Overload safety
//!
//! Three mechanisms keep a saturated or hostile client from taking the
//! daemon down:
//!
//! * **Admission control**: at most `max_inflight` connections (default
//!   4× the worker count) are admitted to the pool. Beyond that,
//!   connections are handled by a small capped set of shed threads that
//!   still answer `/healthz`, `/stats` and `/v1/shutdown` — liveness
//!   and observability survive overload — but answer `/v1/query` with
//!   `503` + `Retry-After` instead of queueing unbounded work.
//! * **Request deadline**: one total wall-clock budget (`deadline_ms`)
//!   covers read + solve + write per request, enforced across reads by
//!   [`http::DeadlineStream`] — a slow-loris client dripping bytes
//!   cannot hold a worker past the deadline — and *inside the solve* by
//!   a [`slb_exp::Budget`] threaded into every iterative loop: a query
//!   whose solve outlives the deadline aborts mid-iteration (counted in
//!   `/stats` as `solve_aborted`) instead of holding the worker for the
//!   full solve and discarding the answer. Exceeded → `503`, close.
//! * **Panic isolation**: a panic inside request handling is caught and
//!   answered as a `500`; the worker, the pool and every other
//!   connection are unaffected.

use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use slb_exp::json::Json;
use slb_exp::{CacheStore, Query, WorkPool};

use crate::http;

/// Hard backstop on concurrently running shed threads: connections
/// arriving past admission *and* past this cap are dropped outright.
const MAX_SHED_THREADS: usize = 32;

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Pool worker count.
    pub threads: usize,
    /// Cache root override; defaults to the shared workspace cache
    /// (`target/sweep-cache`) every sweep reads and writes.
    pub cache_dir: Option<PathBuf>,
    /// Admission limit: connections concurrently admitted to the pool.
    /// `0` (the default) means 4× the worker count.
    pub max_inflight: usize,
    /// Total wall-clock budget per request in milliseconds, covering
    /// read + solve + write.
    pub deadline_ms: u64,
    /// Bound on the store's in-process index; `0` (the default) uses
    /// [`slb_exp::store::DEFAULT_INDEX_CAP`].
    pub index_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_dir: None,
            max_inflight: 0,
            deadline_ms: 10_000,
            index_cap: 0,
        }
    }
}

/// Shared mutable state of a running server.
struct ServerState {
    store: CacheStore,
    /// The worker pool, behind a lock so `/stats` can read its gauges
    /// and shutdown can take it out; `None` once draining has begun.
    pool: Mutex<Option<WorkPool>>,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    computed: AtomicU64,
    failed: AtomicU64,
    /// Queries shed (or dropped) by admission control.
    rejected: AtomicU64,
    /// Solves aborted mid-iteration by the request deadline budget (the
    /// worker was freed early instead of finishing a doomed solve).
    solve_aborted: AtomicU64,
    /// Handler panics caught and answered as 500s.
    panics: AtomicU64,
    /// Connections currently admitted (accept → response written).
    in_flight: AtomicUsize,
    /// Shed threads currently running.
    shed: AtomicUsize,
    shutdown: AtomicBool,
    /// Where a connect wakes the accept loop out of its blocking
    /// `accept` (see [`wake_address`]); `None` in unit tests that route
    /// without a listener.
    wake: Option<SocketAddr>,
    started: Instant,
    threads: usize,
    max_inflight: usize,
    deadline: Duration,
}

/// Poison-recovering lock on the pool slot: a panic elsewhere must not
/// take `/stats` (or shutdown) down with it.
fn lock_pool(state: &ServerState) -> MutexGuard<'_, Option<WorkPool>> {
    state
        .pool
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Decrements the admission gauge when an admitted connection finishes,
/// however it finishes (including by panic).
struct InflightGuard(Arc<ServerState>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A bound (but not yet running) server. Splitting bind from run lets
/// callers learn the ephemeral port — and hand the run loop to a thread
/// — before any request arrives.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the store and pool.
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound.
    pub fn bind(opts: &ServeOptions) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| format!("binding {}: {e}", opts.addr))?;
        let wake = listener
            .local_addr()
            .map_err(|e| format!("local addr of {}: {e}", opts.addr))?;
        let root = opts
            .cache_dir
            .clone()
            .unwrap_or_else(slb_exp::cache::default_cache_dir);
        let store = match opts.index_cap {
            0 => CacheStore::open(root),
            cap => CacheStore::open_with_cap(root, cap),
        };
        let threads = opts.threads.max(1);
        let max_inflight = if opts.max_inflight == 0 {
            threads * 4
        } else {
            opts.max_inflight
        };
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                store,
                pool: Mutex::new(Some(WorkPool::new(threads))),
                requests: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                computed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                solve_aborted: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
                shed: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                wake: Some(wake_address(wake)),
                started: Instant::now(),
                threads,
                max_inflight,
                deadline: Duration::from_millis(opts.deadline_ms.max(1)),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the (rare) socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The cache root this server answers from.
    pub fn cache_root(&self) -> &std::path::Path {
        self.state.store.root()
    }

    /// Runs the accept loop until `/v1/shutdown`, SIGINT or SIGTERM,
    /// then drains in-flight requests and returns. Admitted connections
    /// are handled on the pool; connections beyond `max_inflight` go to
    /// capped shed threads (see the module docs).
    ///
    /// The loop blocks in `accept` and is woken for shutdown as the
    /// module docs describe. The watcher thread that wakes it for
    /// SIGINT/SIGTERM is started and joined here. It polls the signal
    /// flag every 50 ms because a signal never ends a blocked `accept`
    /// (glibc's `signal(2)` sets `SA_RESTART`, and std retries `EINTR`).
    ///
    /// # Errors
    ///
    /// Returns a message when the watcher thread cannot be spawned.
    pub fn run(self) -> Result<(), String> {
        let stopped = Arc::new(AtomicBool::new(false));
        let watcher = {
            let stopped = Arc::clone(&stopped);
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("slb-sigwatch".into())
                .spawn(move || watch_signals(&state, &stopped))
                .map_err(|e| format!("spawning the signal watcher: {e}"))?
        };
        for conn in self.listener.incoming() {
            // Re-checked after every accept: the connection that woke
            // the loop for shutdown is dropped here, never admitted.
            if self.state.shutdown.load(Ordering::SeqCst) || sigint::triggered() {
                break;
            }
            match conn {
                Ok(stream) => admit_or_shed(stream, &self.state),
                Err(e) => {
                    // Transient accept failures (e.g. EMFILE) should not
                    // kill the daemon; back off and keep serving.
                    eprintln!("warning: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        stopped.store(true, Ordering::SeqCst);
        watcher.thread().unpark();
        let _ = watcher.join();
        let pool = lock_pool(&self.state).take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
        Ok(())
    }
}

/// How often the watcher thread checks for SIGINT/SIGTERM. It bounds
/// how long a signalled idle daemon takes to start draining; requests
/// never wait on it.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// The signal watcher: once SIGINT/SIGTERM has arrived (or the shutdown
/// flag is set, in case the `/v1/shutdown` wake-up was lost), wakes the
/// accept loop every [`SIGNAL_POLL`] until [`Server::run`] reports the
/// loop `stopped` and unparks this thread.
fn watch_signals(state: &ServerState, stopped: &AtomicBool) {
    while !stopped.load(Ordering::SeqCst) {
        if state.shutdown.load(Ordering::SeqCst) || sigint::triggered() {
            if let Some(addr) = state.wake {
                wake(addr);
            }
        }
        std::thread::park_timeout(SIGNAL_POLL);
    }
}

/// The address that reaches a listener bound to `bound`: itself, or
/// loopback on the same port for a wildcard bind (`0.0.0.0`, `::`),
/// which is not a connectable destination everywhere.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Unblocks the accept loop with one connection to `addr`, closed at
/// once. A failure is ignored: the loop also stops at the next real
/// connection, and the signal watcher keeps waking it.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Admission control at the accept boundary: under the limit, the
/// connection runs on the pool; over it, a capped shed thread keeps
/// liveness endpoints answering while queries get 503.
fn admit_or_shed(stream: TcpStream, state: &Arc<ServerState>) {
    if state.in_flight.load(Ordering::Relaxed) >= state.max_inflight {
        shed_connection(stream, Arc::clone(state));
        return;
    }
    // Count *before* the task runs, so a burst of accepts cannot all
    // pass the check ahead of the pool getting to any of them.
    state.in_flight.fetch_add(1, Ordering::Relaxed);
    let task_state = Arc::clone(state);
    let pool = lock_pool(state);
    match pool.as_ref() {
        Some(pool) => pool.spawn(move || {
            let guard = InflightGuard(task_state);
            handle_connection(stream, &guard.0);
        }),
        // Draining: the listener is about to close anyway.
        None => {
            state.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Runs an over-admission connection on a dedicated thread (up to
/// [`MAX_SHED_THREADS`]; beyond that the connection is dropped — the
/// hard backstop against thread exhaustion).
fn shed_connection(stream: TcpStream, state: Arc<ServerState>) {
    if state.shed.fetch_add(1, Ordering::Relaxed) >= MAX_SHED_THREADS {
        state.shed.fetch_sub(1, Ordering::Relaxed);
        state.rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let spawned = std::thread::Builder::new()
        .name("slb-shed".into())
        .spawn(move || {
            handle_overloaded(stream, &state);
            state.shed.fetch_sub(1, Ordering::Relaxed);
        });
    if let Err(e) = spawned {
        // Builder::spawn reports resource exhaustion instead of
        // panicking; the connection is dropped, the daemon lives. The
        // closure owns `state` now, so only log here.
        eprintln!("warning: cannot spawn shed thread: {e}");
    }
}

/// The shed path: `/healthz`, `/stats` and `/v1/shutdown` answer
/// normally (observability and shutdown must survive overload), but
/// `/v1/query` is refused with `503` + `Retry-After` instead of adding
/// load.
fn handle_overloaded(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Shed reads get a short fixed budget: an overloaded server should
    // spend no time waiting on slow clients.
    let deadline = Instant::now() + state.deadline.min(Duration::from_secs(2));
    let request = {
        let mut reader = BufReader::new(http::DeadlineStream::new(&stream, deadline));
        http::read_request(&mut reader)
    };
    let mut stream = stream;
    let (status, body) = match request {
        Ok(Some(request)) => {
            let path = request.path.split('?').next().unwrap_or("");
            if (request.method.as_str(), path) == ("POST", "/v1/query") {
                state.rejected.fetch_add(1, Ordering::Relaxed);
                (503, error_body("overloaded"))
            } else {
                route(&request, state, deadline)
            }
        }
        Ok(None) => return,
        Err(_) => return, // a slow or malformed client gets no budget here
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    if status >= 400 {
        state.failed.fetch_add(1, Ordering::Relaxed);
    }
    let extra: &[(&str, &str)] = if status == 503 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let _ = http::write_response_extra(&mut stream, status, extra, &body);
}

/// Reads one request off `stream` under the wall deadline, routes it
/// with panic isolation, writes the response.
fn handle_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Chaos harness: an armed `server.slow_read` simulates a slow client
    // occupying this worker for half the deadline budget.
    if slb_fault::fires("server.slow_read") {
        std::thread::sleep(state.deadline / 2);
    }
    let deadline = Instant::now() + state.deadline;
    let request = {
        let mut reader = BufReader::new(http::DeadlineStream::new(&stream, deadline));
        http::read_request(&mut reader)
    };
    let mut stream = stream;
    let (status, body) = match request {
        Ok(Some(request)) => {
            // Panic isolation: a panicking handler answers 500 and the
            // worker lives. `route` only touches atomics and the
            // poison-recovering store/pool locks, so observing its
            // state after a panic is sound.
            match catch_unwind(AssertUnwindSafe(|| route(&request, state, deadline))) {
                // Solved, but too late (a non-iterative code path the
                // budget cannot poll): the client was promised the
                // deadline, not a stale answer. An existing 503 — the
                // budget already aborted the solve — keeps its more
                // specific `interrupted` body.
                Ok((status, _)) if status != 503 && Instant::now() >= deadline => {
                    (503, error_body("request deadline exceeded"))
                }
                Ok(answer) => answer,
                Err(_) => {
                    state.panics.fetch_add(1, Ordering::Relaxed);
                    (500, error_body("internal error: request handler panicked"))
                }
            }
        }
        Ok(None) => return, // client connected and left; nothing to answer
        Err(http::ReadError::Deadline) => (503, error_body("request deadline exceeded")),
        Err(http::ReadError::Malformed(e)) => (400, error_body(&e)),
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    if status >= 400 {
        state.failed.fetch_add(1, Ordering::Relaxed);
    }
    if http::write_response(&mut stream, status, &body).is_err() {
        // The client hung up before the answer; nothing to do.
    }
    let _ = stream.flush();
}

/// Dispatches one parsed request to its endpoint. `deadline` is the
/// request's total wall-clock budget; query solves poll it and abort.
fn route(request: &http::Request, state: &ServerState, deadline: Instant) -> (u16, String) {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_string()),
        ("GET", "/stats") => (200, stats_body(state)),
        ("POST", "/v1/query") => answer_query(&request.body, state, deadline),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            if let Some(addr) = state.wake {
                wake(addr);
            }
            (200, "{\"ok\":true,\"shutting_down\":true}".to_string())
        }
        (_, "/healthz" | "/stats" | "/v1/query" | "/v1/shutdown") => (
            405,
            error_body(&format!("method {} not allowed here", request.method)),
        ),
        (_, other) => (404, error_body(&format!("no such endpoint '{other}'"))),
    }
}

/// `POST /v1/query`: decode → evaluate through the shared store → encode.
///
/// The request deadline becomes the solve's [`slb_exp::Budget`]: an
/// over-budget solve aborts at its next iteration poll, the worker is
/// freed, and the client gets `503` *within* the deadline (plus one
/// poll interval) instead of a completed-then-discarded answer. Cache
/// hits still answer — replaying stored rows costs no solve time.
fn answer_query(body: &str, state: &ServerState, deadline: Instant) -> (u16, String) {
    // Chaos harness: an armed `server.answer_panic` exercises the
    // panic-isolation path end to end (500 answer, worker survives).
    if slb_fault::fires("server.answer_panic") {
        panic!("injected: server.answer_panic");
    }
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(&format!("request body is not JSON: {e}"))),
    };
    let query = match Query::from_json(&doc) {
        Ok(query) => query,
        Err(e) => return (400, error_body(&e)),
    };
    let budget = slb_exp::Budget::with_deadline_at(deadline);
    match slb_exp::answer_with_budget(&query, &state.store, &budget) {
        Ok(answer) => {
            state
                .cache_hits
                .fetch_add(answer.cache_hits as u64, Ordering::Relaxed);
            state
                .computed
                .fetch_add(answer.computed as u64, Ordering::Relaxed);
            (200, answer.to_json().render())
        }
        // The solve outlived the request deadline and aborted at an
        // iteration poll: overload semantics (503), not a client error.
        Err(e) if e.contains("interrupted") => {
            state.solve_aborted.fetch_add(1, Ordering::Relaxed);
            (503, error_body(&e))
        }
        // Well-formed but unanswerable (bad model parameters, solver
        // failure): the request, not the server, is at fault.
        Err(e) => (422, error_body(&e)),
    }
}

fn stats_body(state: &ServerState) -> String {
    // Pool gauges read through the lock; all zero once draining began.
    let (queue_depth, workers_alive, pool_panics) = match lock_pool(state).as_ref() {
        Some(pool) => (pool.queue_depth(), pool.workers_alive(), pool.panics()),
        None => (0, 0, 0),
    };
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "requests".into(),
            Json::Num(state.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "cache_hits".into(),
            Json::Num(state.cache_hits.load(Ordering::Relaxed) as f64),
        ),
        (
            "computed".into(),
            Json::Num(state.computed.load(Ordering::Relaxed) as f64),
        ),
        (
            "failed".into(),
            Json::Num(state.failed.load(Ordering::Relaxed) as f64),
        ),
        (
            "rejected".into(),
            Json::Num(state.rejected.load(Ordering::Relaxed) as f64),
        ),
        (
            "solve_aborted".into(),
            Json::Num(state.solve_aborted.load(Ordering::Relaxed) as f64),
        ),
        (
            "panics".into(),
            Json::Num((state.panics.load(Ordering::Relaxed) + pool_panics) as f64),
        ),
        (
            "in_flight".into(),
            Json::Num(state.in_flight.load(Ordering::Relaxed) as f64),
        ),
        ("queue_depth".into(), Json::Num(queue_depth as f64)),
        ("workers_alive".into(), Json::Num(workers_alive as f64)),
        ("indexed".into(), Json::Num(state.store.indexed() as f64)),
        ("evicted".into(), Json::Num(state.store.evicted() as f64)),
        ("threads".into(), Json::Num(state.threads as f64)),
        ("max_inflight".into(), Json::Num(state.max_inflight as f64)),
        (
            "uptime_ms".into(),
            Json::Num(state.started.elapsed().as_millis() as f64),
        ),
    ])
    .render()
}

/// The uniform error payload: `{"error":"..."}`.
fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::Str(message.to_string()))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(tag: &str) -> ServerState {
        let dir = std::env::temp_dir().join(format!("slb-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServerState {
            store: CacheStore::open(dir),
            pool: Mutex::new(None),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            solve_aborted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake: None,
            started: Instant::now(),
            threads: 1,
            max_inflight: 4,
            deadline: Duration::from_secs(10),
        }
    }

    fn req(method: &str, path: &str, body: &str) -> http::Request {
        http::Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
        }
    }

    /// A generous deadline for tests that must *not* trip the budget.
    fn far(state: &ServerState) -> Instant {
        Instant::now() + state.deadline
    }

    #[test]
    fn routing_table() {
        let state = test_state("route");
        let d = far(&state);
        assert_eq!(route(&req("GET", "/healthz", ""), &state, d).0, 200);
        assert_eq!(route(&req("GET", "/stats", ""), &state, d).0, 200);
        assert_eq!(route(&req("POST", "/healthz", ""), &state, d).0, 405);
        assert_eq!(route(&req("GET", "/v1/query", ""), &state, d).0, 405);
        assert_eq!(route(&req("GET", "/nope", ""), &state, d).0, 404);
        assert_eq!(
            route(&req("POST", "/v1/query", "not json"), &state, d).0,
            400
        );
        assert_eq!(
            route(
                &req("POST", "/v1/query", "{\"kind\":\"teleport\"}"),
                &state,
                d
            )
            .0,
            400
        );
        // Well-formed but unanswerable: rho >= 1 is a model error.
        let (status, body) = route(
            &req(
                "POST",
                "/v1/query",
                "{\"kind\":\"bounds\",\"n\":3,\"d\":2,\"rho\":1.5,\"t\":2}",
            ),
            &state,
            d,
        );
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("error"));
        let (status, _) = route(&req("POST", "/v1/shutdown", ""), &state, d);
        assert_eq!(status, 200);
        assert!(state.shutdown.load(Ordering::SeqCst));
        let _ = std::fs::remove_dir_all(state.store.root());
    }

    #[test]
    fn wildcard_binds_are_woken_through_loopback() {
        let wake = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7077"), "127.0.0.1:7077");
        assert_eq!(wake("[::]:7077"), "[::1]:7077");
        assert_eq!(wake("127.0.0.1:7077"), "127.0.0.1:7077");
        assert_eq!(wake("192.0.2.5:80"), "192.0.2.5:80");
    }

    #[test]
    fn query_endpoint_counts_hits() {
        let state = test_state("hits");
        let body = "{\"kind\":\"bounds\",\"n\":3,\"d\":2,\"rho\":0.6,\"t\":2,\
                    \"jobs\":20000,\"replications\":1,\"seed\":7}";
        let (status, cold) = route(&req("POST", "/v1/query", body), &state, far(&state));
        assert_eq!(status, 200, "{cold}");
        assert_eq!(state.computed.load(Ordering::Relaxed), 1);
        let (status, warm) = route(&req("POST", "/v1/query", body), &state, far(&state));
        assert_eq!(status, 200);
        assert_eq!(state.cache_hits.load(Ordering::Relaxed), 1);
        // Byte-identical rows on replay.
        let rows = |s: &str| Json::parse(s).unwrap().get("rows").unwrap().render();
        assert_eq!(rows(&cold), rows(&warm));
        let _ = std::fs::remove_dir_all(state.store.root());
    }

    #[test]
    fn expired_deadline_aborts_solve_as_503() {
        let state = test_state("abort");
        // N = 64 routes through the lumped iterative solvers, which
        // poll the budget; an already-expired deadline aborts at the
        // first poll instead of finishing a doomed solve.
        let body = "{\"kind\":\"bounds\",\"n\":64,\"d\":2,\"rho\":0.9,\"t\":4,\
                    \"jobs\":20000,\"replications\":1,\"seed\":7}";
        let started = Instant::now();
        let (status, answer) = route(&req("POST", "/v1/query", body), &state, started);
        assert_eq!(status, 503, "{answer}");
        assert!(answer.contains("interrupted"), "{answer}");
        assert_eq!(state.solve_aborted.load(Ordering::Relaxed), 1);
        // The abort must be immediate (poll latency), not solve-sized.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "abort took {:?}",
            started.elapsed()
        );
        // Nothing partial was published to the cache: an interrupted
        // solve leaves no entry a later query could replay.
        assert_eq!(state.store.indexed(), 0);
        assert_eq!(state.computed.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(state.store.root());
    }
}
