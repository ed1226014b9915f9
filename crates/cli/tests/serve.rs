//! End-to-end test of `slb serve`: spawns the real binary on an
//! ephemeral port, speaks the wire protocol over real sockets, checks
//! that served answers match direct (in-process) `slb query` answers
//! byte-for-byte, and exercises graceful shutdown both ways (the
//! `/v1/shutdown` endpoint and SIGINT).

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use slb_cli::client;
use slb_exp::{answer, CacheStore, Json, Metric, Query, SimBudget};

/// A spawned `slb serve` child plus the address it reported.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for Daemon {
    /// A test that fails before shutting its daemon down must not leave
    /// the process running.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn start_daemon(cache_dir: &std::path::Path) -> Daemon {
    start_daemon_with(cache_dir, &[], None)
}

/// [`start_daemon`] with extra `slb serve` flags and, optionally, a
/// fault spec armed through `SLB_FAULTS`.
fn start_daemon_with(cache_dir: &std::path::Path, extra: &[&str], faults: Option<&str>) -> Daemon {
    start_daemon_at("127.0.0.1:0", cache_dir, extra, faults)
}

/// [`start_daemon_with`] bound to `addr` instead of loopback.
fn start_daemon_at(
    addr: &str,
    cache_dir: &std::path::Path,
    extra: &[&str],
    faults: Option<&str>,
) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_slb"));
    cmd.args([
        "serve",
        "--addr",
        addr,
        "--threads",
        "2",
        "--cache-dir",
        &cache_dir.to_string_lossy(),
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    if let Some(spec) = faults {
        cmd.env("SLB_FAULTS", spec);
    }
    let mut child = cmd.spawn().expect("spawn slb serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    // The first line reports the resolved ephemeral port.
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("listening line names the address")
        .to_string();
    assert!(
        line.contains("listening"),
        "unexpected first line: {line:?}"
    );
    Daemon {
        child,
        addr,
        stdout,
    }
}

fn wait_exit(daemon: Daemon) -> (std::process::ExitStatus, String) {
    wait_exit_within(daemon, Duration::from_secs(30))
}

/// [`wait_exit`] with its own limit on how long the exit may take.
fn wait_exit_within(mut daemon: Daemon, limit: Duration) -> (std::process::ExitStatus, String) {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = daemon.child.try_wait().expect("try_wait") {
            let mut rest = String::new();
            let _ = daemon.stdout.read_to_string(&mut rest);
            return (status, rest);
        }
        assert!(Instant::now() < deadline, "server did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn tiny_budget() -> SimBudget {
    SimBudget {
        jobs: 20_000,
        replications: 1,
        seed: 11,
    }
}

#[test]
fn serves_queries_matching_direct_evaluation() {
    let base = std::env::temp_dir().join(format!("slb-serve-e2e-{}", std::process::id()));
    let served_cache = base.join("served");
    let local_cache = base.join("local");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&served_cache).unwrap();
    let daemon = start_daemon(&served_cache);
    let addr = daemon.addr.clone();

    // Liveness and stats.
    let (status, body) = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    let (status, body) = client::request(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "{body}");

    // A served service query answers with exactly the rows a direct
    // in-process evaluation (fresh cache, same parameters) produces.
    let service = Query::Service {
        policy: "sqd".into(),
        n: 6,
        d: 2,
        rho: 0.6,
        budget: tiny_budget(),
    };
    let served = client::post_query(&addr, &service).unwrap();
    assert_eq!(served.computed, 1);
    let direct = answer(&service, &CacheStore::open(&local_cache)).unwrap();
    assert_eq!(
        served.rows, direct.rows,
        "served rows must be byte-identical"
    );

    // Replay: the second ask is a pure cache hit.
    let replay = client::post_query(&addr, &service).unwrap();
    assert_eq!(replay.computed, 0);
    assert_eq!(replay.cache_hits, 1);
    assert_eq!(replay.rows, direct.rows);

    // A capacity query over the socket matches the local planner.
    let capacity = Query::Capacity {
        policy: "sqd".into(),
        lambda: 3.0,
        d: 2,
        metric: Metric::Mean,
        slo: 1.8,
        n_max: 64,
        budget: tiny_budget(),
    };
    let served_cap = client::post_query(&addr, &capacity).unwrap();
    let direct_cap = answer(&capacity, &CacheStore::open(&local_cache)).unwrap();
    let served_n = served_cap.capacity.as_ref().unwrap().n_required;
    assert_eq!(served_n, direct_cap.capacity.as_ref().unwrap().n_required);
    assert!(served_n.is_some(), "this SLO is feasible");
    assert_eq!(served_cap.rows, direct_cap.rows);

    // Error paths over the real socket.
    let (status, body) = client::request(&addr, "POST", "/v1/query", Some("not json")).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"));
    let (status, _) =
        client::request(&addr, "POST", "/v1/query", Some("{\"kind\":\"teleport\"}")).unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::request(
        &addr,
        "POST",
        "/v1/query",
        Some("{\"kind\":\"bounds\",\"n\":3,\"d\":2,\"rho\":1.5,\"t\":2}"),
    )
    .unwrap();
    assert_eq!(status, 422, "well-formed but unanswerable");
    let (status, _) = client::request(&addr, "GET", "/no/such/path", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);

    // Raw protocol garbage gets a 400, not a hang or a crash.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"BLARGH\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    BufReader::new(&mut raw).read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");

    // Stats reflect the traffic, then graceful endpoint shutdown.
    let (_, stats) = client::request(&addr, "GET", "/stats", None).unwrap();
    let doc = Json::parse(&stats).unwrap();
    let stat = |name: &str| {
        doc.get(name)
            .unwrap_or_else(|| panic!("/stats missing '{name}': {stats}"))
            .as_f64()
            .unwrap()
    };
    assert!(stat("requests") >= 8.0, "{stats}");
    assert!(stat("cache_hits") >= 1.0, "{stats}");
    // Robustness gauges: present, and quiet under normal traffic.
    assert_eq!(stat("rejected"), 0.0, "{stats}");
    assert_eq!(stat("panics"), 0.0, "{stats}");
    assert_eq!(stat("workers_alive"), 2.0, "{stats}");
    assert_eq!(stat("max_inflight"), 8.0, "4x the 2 threads: {stats}");
    assert_eq!(stat("evicted"), 0.0, "{stats}");
    let in_flight = stat("in_flight");
    assert!(
        (1.0..=8.0).contains(&in_flight),
        "the /stats request itself is admitted: {stats}"
    );
    assert!(stat("queue_depth") <= 8.0, "{stats}");
    client::post_shutdown(&addr).unwrap();
    let (status, rest) = wait_exit(daemon);
    assert!(status.success(), "server exit: {status:?}");
    assert!(rest.contains("drained and shut down"), "{rest:?}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn over_deadline_solve_aborts_mid_iteration_and_frees_the_worker() {
    let base = std::env::temp_dir().join(format!("slb-serve-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // A short deadline the N = 24 lumped solve cannot possibly meet
    // in a debug build. (CI's release-build cancel-smoke job runs the
    // same check at the production N = 64.)
    let daemon = start_daemon_with(&base, &["--deadline-ms", "250"], None);
    let addr = daemon.addr.clone();

    // A query worth seconds of solve against a 250 ms budget. The
    // budget threaded into the solve must abort it mid-iteration and
    // answer 503 promptly — not after the full solve.
    let big = "{\"kind\":\"bounds\",\"n\":24,\"d\":2,\"rho\":0.9,\"t\":4,\
               \"jobs\":20000,\"replications\":1,\"seed\":7}";
    let started = Instant::now();
    let (status, body) = client::request(&addr, "POST", "/v1/query", Some(big)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("interrupted"), "{body}");
    assert!(
        elapsed < Duration::from_millis(250 + 1500),
        "503 must arrive within deadline + poll latency, took {elapsed:?}"
    );

    // The worker was freed, not wedged: the abort is counted, every
    // worker is alive, and a small query still answers immediately.
    let (_, stats) = client::request(&addr, "GET", "/stats", None).unwrap();
    let doc = Json::parse(&stats).unwrap();
    let stat = |name: &str| doc.get(name).unwrap().as_f64().unwrap();
    assert!(stat("solve_aborted") >= 1.0, "{stats}");
    assert_eq!(stat("workers_alive"), 2.0, "{stats}");
    let small = Query::Bounds {
        n: 3,
        d: 2,
        rho: 0.6,
        t: 2,
        budget: tiny_budget(),
    };
    let answered = client::post_query(&addr, &small).unwrap();
    assert_eq!(answered.computed, 1, "worker must still answer queries");

    client::post_shutdown(&addr).unwrap();
    let (status, _) = wait_exit(daemon);
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn small_n_bounds_solve_obeys_the_deadline() {
    let base = std::env::temp_dir().join(format!("slb-serve-small-n-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // N ≤ 12 bounds queries go through the same budgeted solver as large
    // N: stretched by a 1 ms stall per budget poll, the N = 12, T = 4
    // solve must stop at its 250 ms deadline, not run to completion.
    let daemon = start_daemon_with(&base, &["--deadline-ms", "250"], Some("solver.slow_iter=1"));
    let addr = daemon.addr.clone();
    let query = "{\"kind\":\"bounds\",\"n\":12,\"d\":2,\"t\":4,\"rho\":0.5,\
                 \"jobs\":20000,\"replications\":1,\"seed\":7}";
    let started = Instant::now();
    let (status, body) = client::request(&addr, "POST", "/v1/query", Some(query)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("interrupted"), "{body}");
    assert!(
        elapsed < Duration::from_millis(250 + 1500),
        "503 must arrive within deadline + poll latency, took {elapsed:?}"
    );
    let (_, stats) = client::request(&addr, "GET", "/stats", None).unwrap();
    let doc = Json::parse(&stats).unwrap();
    assert!(
        doc.get("solve_aborted").unwrap().as_f64().unwrap() >= 1.0,
        "{stats}"
    );

    client::post_shutdown(&addr).unwrap();
    let (status, _) = wait_exit(daemon);
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn unknown_policy_is_a_client_error() {
    // A policy name that happens to contain "interrupted" must be
    // rejected at decode (400), not read as an aborted solve (503 +
    // Retry-After, counted in `solve_aborted`, retried by clients).
    let base = std::env::temp_dir().join(format!("slb-serve-policy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let daemon = start_daemon(&base);
    let body = "{\"kind\":\"service\",\"policy\":\"interrupted\",\"n\":3,\"d\":2,\
                \"rho\":0.5,\"jobs\":20000,\"replications\":1,\"seed\":7}";
    let (status, answer) = client::request(&daemon.addr, "POST", "/v1/query", Some(body)).unwrap();
    assert_eq!(status, 400, "{answer}");
    assert!(answer.contains("unknown policy"), "{answer}");
    let (_, stats) = client::request(&daemon.addr, "GET", "/stats", None).unwrap();
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(
        doc.get("solve_aborted").unwrap().as_f64(),
        Some(0.0),
        "{stats}"
    );

    client::post_shutdown(&daemon.addr).unwrap();
    let (status, _) = wait_exit(daemon);
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigint_shuts_down_gracefully() {
    let base = std::env::temp_dir().join(format!("slb-serve-sig-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let daemon = start_daemon(&base);
    let (status, _) = client::request(&daemon.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    let kill = Command::new("kill")
        .args(["-INT", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let (status, rest) = wait_exit(daemon);
    assert!(status.success(), "SIGINT exit: {status:?}");
    assert!(rest.contains("drained and shut down"), "{rest:?}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sequential_requests_are_not_paced_by_the_accept_loop() {
    // One connection per request, as `slb query --addr` makes them: each
    // must be picked up when it connects, not when a poll next looks.
    // An accept loop that sleeps 10 ms between empty polls needs about
    // 500 ms for these 50.
    let base = std::env::temp_dir().join(format!("slb-serve-pace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let daemon = start_daemon(&base);
    let (status, _) = client::request(&daemon.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    let started = Instant::now();
    for _ in 0..50 {
        let (status, body) = client::request(&daemon.addr, "GET", "/healthz", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 sequential /healthz requests took {elapsed:?}"
    );

    client::post_shutdown(&daemon.addr).unwrap();
    let (status, _) = wait_exit(daemon);
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigint_while_idle_exits_promptly() {
    // No request follows the signal: only the signal watcher can wake
    // the accept loop out of its blocking `accept`.
    let base = std::env::temp_dir().join(format!("slb-serve-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let daemon = start_daemon(&base);
    // Let the daemon get past its banner and block in `accept`.
    std::thread::sleep(Duration::from_millis(200));

    let kill = Command::new("kill")
        .args(["-INT", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let (status, rest) = wait_exit_within(daemon, Duration::from_secs(2));
    assert!(status.success(), "SIGINT exit: {status:?}");
    assert!(rest.contains("drained and shut down"), "{rest:?}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shutdown_wakes_a_wildcard_bound_daemon() {
    // Bound to 0.0.0.0, the daemon wakes its accept loop through
    // loopback on the same port.
    let base = std::env::temp_dir().join(format!("slb-serve-wild-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let daemon = start_daemon_at("0.0.0.0:0", &base, &[], None);
    let port = daemon.addr.rsplit(':').next().unwrap().to_string();
    let local = format!("127.0.0.1:{port}");
    let (status, _) = client::request(&local, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    client::post_shutdown(&local).unwrap();
    let (status, rest) = wait_exit_within(daemon, Duration::from_secs(2));
    assert!(status.success(), "shutdown exit: {status:?}");
    assert!(rest.contains("drained and shut down"), "{rest:?}");
    let _ = std::fs::remove_dir_all(&base);
}
