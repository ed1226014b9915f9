//! The `serve-hot` workload: a real `slb serve --threads 2` process,
//! filled with 64 distinct `service` keys, then replayed by two
//! closed-loop client threads, one connection per request (as
//! `slb query --addr` does). Every timed request is a memory hit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use slb_exp::json::Json;
use slb_exp::{answer, CacheStore, Query};

use crate::inputs::{serve_hot_keys, warmup_query, wire_round_trip, Passes, Workload};
use crate::metrics::{self, RunResult};
use crate::replay::service_job;
use crate::trace::Trace;
use crate::{Run, SETUP_REPS};

/// Closed-loop client threads (matching the daemon's two workers and
/// the two CPUs the benchmark was designed on).
const CLIENTS: u64 = 2;

/// A running `slb serve` child process. Dropping it kills and reaps the
/// process if [`Daemon::stop`] did not.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `slb serve` on an ephemeral local port with its cache
    /// under `cache_dir`, and waits until `/healthz` answers.
    pub fn start(slb: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(slb)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--cache-dir",
            ])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", slb.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        while daemon.addr.is_empty() {
            line.clear();
            let read = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if read == 0 {
                return Err("slb serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("slb serve: listening on http://") {
                daemon.addr = addr.to_string();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(daemon.get("/healthz"), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("slb serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn get(&self, path: &str) -> Result<(u16, Vec<u8>), String> {
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        let ex = exchange(&self.addr, request.as_bytes()).map_err(|e| e.to_string())?;
        Ok((ex.status, ex.body))
    }

    /// Posts one query; returns the status and body.
    fn post(&self, query: &Query) -> Result<(u16, Vec<u8>), String> {
        let ex =
            exchange(&self.addr, &query_request(&self.addr, query)).map_err(|e| e.to_string())?;
        Ok((ex.status, ex.body))
    }

    /// A counter from `/stats`.
    fn stat(&self, name: &str) -> Result<f64, String> {
        let (_, body) = self.get("/stats")?;
        let doc = Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
        doc.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("/stats has no '{name}'"))
    }

    /// Shuts the daemon down through `/v1/shutdown` and reaps it.
    pub fn stop(&mut self) -> Result<(), String> {
        let request = format!(
            "POST /v1/shutdown HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            self.addr
        );
        exchange(&self.addr, request.as_bytes()).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => return Err("slb serve did not stop".into()),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        // The daemon has exited, so its remaining output ends at EOF.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if status.success() {
            Ok(())
        } else {
            Err(format!("slb serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The request bytes of `POST /v1/query` for `query`.
fn query_request(addr: &str, query: &Query) -> Vec<u8> {
    let body = query.to_json().render();
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One HTTP exchange on its own connection, with its timestamps.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    start: Instant,
    connected: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

fn exchange(addr: &str, request: &[u8]) -> std::io::Result<Exchange> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    let written = Instant::now();
    let mut response = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    if n == 0 {
        return Err(bad("connection closed before a response"));
    }
    response.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut response)?;
    let done = Instant::now();

    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header end"))?;
    let head = String::from_utf8_lossy(&response[..head_end]).to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status"))?;
    let body = response[head_end + 4..].to_vec();
    let length = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })
        .and_then(|v| v.parse::<usize>().ok());
    if length != Some(body.len()) {
        return Err(bad("body length differs from Content-Length"));
    }
    Ok(Exchange {
        status,
        body,
        start,
        connected,
        written,
        first_byte,
        done,
    })
}

/// Everything set-up leaves for the timed phase.
struct Ready {
    daemon: Daemon,
    keys: Vec<Query>,
    requests: Vec<Vec<u8>>,
    /// The in-process `answer` body for each key on a warm store: the
    /// exact bytes every timed response must carry (a memory hit, so
    /// `cache_hits` 1 and `computed` 0).
    expected: Vec<Vec<u8>>,
    /// The in-process warm store the traced handler replay answers from.
    local: CacheStore,
}

/// Set-up: start the daemon, fill the key set through it, compute the
/// in-process reference answers, and send one warm-up query outside the
/// key set. Repeated [`SETUP_REPS`] times; the last daemon is kept.
fn setup(run: &Run, slb: &Path, work: &Path) -> Result<(Vec<f64>, Ready), String> {
    let mut times = Vec::new();
    let mut ready: Option<Ready> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut previous) = ready.take() {
            previous.daemon.stop()?;
        }
        let start = Instant::now();
        let daemon = Daemon::start(slb, &work.join(format!("daemon-{rep}")))?;
        let local_dir = work.join(format!("local-{rep}"));
        std::fs::create_dir_all(&local_dir).map_err(|e| e.to_string())?;
        let local = CacheStore::open(local_dir);
        let keys = serve_hot_keys(run.seed);
        let mut expected = Vec::with_capacity(keys.len());
        for key in &keys {
            answer(key, &local)?;
            expected.push(answer(key, &local)?.to_json().render().into_bytes());
            match daemon.post(key)? {
                (200, _) => {}
                (status, body) => {
                    return Err(format!(
                        "filling {key:?}: {status} {}",
                        String::from_utf8_lossy(&body)
                    ))
                }
            }
        }
        let warm = wire_round_trip(&warmup_query(Workload::ServeHot, run.seed, rep));
        if daemon.post(&warm)?.0 != 200 {
            return Err("warm-up query failed".into());
        }
        let requests = keys
            .iter()
            .map(|k| query_request(&daemon.addr, k))
            .collect();
        times.push(start.elapsed().as_secs_f64());
        ready = Some(Ready {
            daemon,
            keys,
            requests,
            expected,
            local,
        });
    }
    Ok((times, ready.expect("at least one set-up repetition")))
}

/// One timed request as a client saw it.
struct Sample {
    key: usize,
    ok: bool,
    start: Instant,
    connected: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

/// Runs the two closed-loop clients until `seconds` have passed;
/// returns every sample and the wall time.
fn drive(run: &Run, ready: &Ready) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let until = start + Duration::from_secs(run.seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut order = Passes::for_client(run.seed, client, ready.keys.len());
                    while Instant::now() < until {
                        let key = order.next().expect("the key order is endless");
                        let sample = match exchange(&ready.daemon.addr, &ready.requests[key]) {
                            Ok(ex) => Sample {
                                key,
                                ok: ex.status == 200 && ex.body == ready.expected[key],
                                start: ex.start,
                                connected: ex.connected,
                                written: ex.written,
                                first_byte: ex.first_byte,
                                done: ex.done,
                            },
                            Err(e) => {
                                eprintln!("serve-hot: request failed: {e}");
                                let now = Instant::now();
                                Sample {
                                    key,
                                    ok: false,
                                    start: now,
                                    connected: now,
                                    written: now,
                                    first_byte: now,
                                    done: now,
                                }
                            }
                        };
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    let end = samples.iter().map(|s| s.done).max().unwrap_or(start);
    (samples, end.duration_since(start).as_secs_f64())
}

fn report_failures(samples: &[Sample], ready: &Ready) -> usize {
    let failed: Vec<&Sample> = samples.iter().filter(|s| !s.ok).collect();
    for s in failed.iter().take(5) {
        eprintln!(
            "serve-hot: response for {:?} is not the expected memory-hit body",
            ready.keys[s.key]
        );
    }
    failed.len()
}

/// Runs `serve-hot` with tracing off and reports its end-to-end
/// metrics; `peak_rss_mb` is the daemon's.
pub fn run(run: &Run, slb: &Path, work: &Path) -> Result<RunResult, String> {
    let (setup_s, mut ready) = setup(run, slb, work)?;
    let (samples, wall_s) = drive(run, &ready);
    let rss = metrics::peak_rss_mb(Some(ready.daemon.child.id()))?;
    ready.daemon.stop()?;
    let failed = report_failures(&samples, &ready);
    let latencies: Vec<f64> = samples
        .iter()
        .map(|s| s.done.duration_since(s.start).as_secs_f64() * 1e3)
        .collect();
    Ok(RunResult {
        attempted: samples.len(),
        failed,
        metrics: metrics::end_to_end(&setup_s, &latencies, samples.len() - failed, wall_s, rss),
    })
}

/// Runs `serve-hot` with tracing on. Each request is an operation span
/// with its connect and time-to-first-byte as children; the handler
/// (`Query::from_json` + `answer` on a warm store + `Answer::to_json`)
/// is then replayed in process for every request and recorded under
/// its time-to-first-byte, whose self time is the accept wait.
pub fn run_traced(
    run: &Run,
    slb: &Path,
    work: &Path,
    trace_out: &Path,
) -> Result<RunResult, String> {
    let mut tr = Trace::new();
    let (_, mut ready) = setup(run, slb, work)?;
    let (samples, _) = drive(run, &ready);
    let rejected = ready.daemon.stat("rejected")?;
    let stats_failed = ready.daemon.stat("failed")?;
    ready.daemon.stop()?;
    let mut failed = report_failures(&samples, &ready);

    let bodies: Vec<String> = ready.keys.iter().map(|k| k.to_json().render()).collect();
    tr.count(0, "cli.stats.rejected", rejected);
    tr.count(0, "cli.stats.failed", stats_failed);
    for (op, s) in samples.iter().enumerate() {
        let root = tr.record(op, None, "cli.request", s.start, s.done);
        tr.record(op, Some(root), "cli.connect", s.start, s.connected);
        let ttfb = tr.record(op, Some(root), "cli.ttfb", s.written, s.first_byte);

        let handler_start = Instant::now();
        let (query, parse) = tr.time(op, None, "exp.query.parse", || {
            Json::parse(&bodies[s.key]).and_then(|doc| Query::from_json(&doc))
        });
        let (answered, answer_id) = tr.time(op, None, "exp.query.answer", || {
            query
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|q| answer(q, &ready.local))
        });
        let (encoded, encode) = tr.time(op, None, "exp.query.encode", || {
            answered.as_ref().map(|a| a.to_json().render())
        });
        let handler = tr.record(op, Some(ttfb), "cli.handler", handler_start, Instant::now());
        for child in [parse, answer_id, encode] {
            tr.reparent(child, handler);
        }
        let replay_ok = match (&query, &answered, &encoded) {
            (
                Ok(Query::Service {
                    policy,
                    n,
                    d,
                    rho,
                    budget,
                }),
                Ok(a),
                Ok(body),
            ) => {
                tr.count(op, "exp.query.evals", (a.cache_hits + a.computed) as f64);
                tr.count(op, "exp.store.hits", a.cache_hits as f64);
                let key = service_job(policy, *n, *d, *rho, *budget).canonical_key();
                let (hit, _) = tr.time(op, Some(answer_id), "exp.store.lookup", || {
                    ready.local.lookup(&key)
                });
                hit.is_some() && body.as_bytes() == ready.expected[s.key].as_slice()
            }
            _ => false,
        };
        if s.ok && !replay_ok {
            failed += 1;
            eprintln!(
                "serve-hot: handler replay of {:?} diverged",
                ready.keys[s.key]
            );
        }
    }
    tr.write_jsonl(trace_out)
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    eprintln!("trace written to {}", trace_out.display());
    Ok(RunResult {
        attempted: samples.len(),
        failed,
        metrics: metrics::per_layer(&tr, "cli.request"),
    })
}
