//! Crash-resume determinism for `slb sweep`: a real sweep process is
//! interrupted with SIGINT mid-run, resumed with `--resume`, and must
//! recompute only the unpublished points while producing byte-identical
//! output — at any worker-thread count — to an uninterrupted run.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A scaling-family grid whose points route through the occupancy-lumped
/// solvers: every solve polls its budget, so the armed
/// `solver.slow_iter` fault (1 ms sleep per poll) stretches each point
/// to many polls. The SIGINT is sent as soon as the first point is
/// published to the cache, so it lands mid-grid however fast the
/// solvers are.
const SPEC: &str = r#"
[scenario]
name = "resume-grid"
family = "scaling"
d = 2
rho = 0.85
t = 2
jobs = 20000
seed = 5

[axes]
policy = ["sqd"]
n = [14, 15, 16, 17, 18, 19]
"#;

fn sweep_cmd(spec: &Path, cache: &Path, out: &Path, jobs: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_slb"));
    cmd.args(["sweep", &spec.to_string_lossy()])
        .args(["--cache-dir", &cache.to_string_lossy()])
        .args(["--out", &out.to_string_lossy()])
        .args(["--jobs", jobs]);
    cmd
}

fn wait_with_timeout(mut child: Child) -> (std::process::ExitStatus, String, String) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "sweep did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut s) = child.stdout.take() {
        let _ = s.read_to_string(&mut stdout);
    }
    if let Some(mut s) = child.stderr.take() {
        let _ = s.read_to_string(&mut stderr);
    }
    (status, stdout, stderr)
}

/// Polls `cache` every 10 ms (for at most 60 s) until it holds a
/// published entry, `<16 hex digits>.json` — not the `*.run.json`
/// manifest and not a temporary file.
fn wait_for_first_entry(cache: &Path) {
    let published = |name: &str| {
        name.strip_suffix(".json")
            .is_some_and(|stem| stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let found = std::fs::read_dir(cache)
            .expect("read cache dir")
            .filter_map(|e| e.ok())
            .any(|e| published(&e.file_name().to_string_lossy()));
        if found {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no cache entry published in 60 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigint_mid_sweep_then_resume_is_byte_identical_at_any_thread_count() {
    let base = std::env::temp_dir().join(format!("slb-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let spec = base.join("resume.toml");
    std::fs::write(&spec, SPEC).unwrap();
    let out1 = base.join("run.csv");
    let out2 = base.join("replay.csv");

    // Run 1: slowed solves, SIGINT mid-run. The process must drain
    // gracefully (in-flight solves abort at their next budget poll),
    // checkpoint the completed points, and name --resume in the error.
    let child = sweep_cmd(&spec, &cache, &out1, "1")
        .env("SLB_FAULTS", "solver.slow_iter=1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slb sweep");
    wait_for_first_entry(&cache);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let (status, _, stderr) = wait_with_timeout(child);
    assert!(!status.success(), "interrupted sweep must fail: {stderr}");
    assert!(stderr.contains("interrupted after"), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");
    // How many points the interrupted run banked (the signal follows the
    // first published entry, so normally at least one).
    let done: usize = stderr
        .split("interrupted after ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable interrupt message: {stderr}"));
    assert!(done < 6, "SIGINT landed after the whole grid: {stderr}");

    // Run 2: --resume recomputes only the unpublished points.
    let child = sweep_cmd(&spec, &cache, &out1, "1")
        .arg("--resume")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn resume sweep");
    let (status, stdout, stderr) = wait_with_timeout(child);
    assert!(status.success(), "{stderr}");
    assert!(
        stdout.contains(&format!("({done} cached, {} computed)", 6 - done)),
        "expected {done} replayed / {} recomputed: {stdout}",
        6 - done
    );
    if done > 0 {
        assert!(
            stdout.contains(&format!("resumed: {done} of 6 points")),
            "{stdout}"
        );
    }
    let resumed_csv = std::fs::read_to_string(&out1).unwrap();

    // Run 3: a fresh run over the warm cache at a different thread
    // count replays everything ("0 computed") byte-identically.
    let child = sweep_cmd(&spec, &cache, &out2, "8")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay sweep");
    let (status, stdout, stderr) = wait_with_timeout(child);
    assert!(status.success(), "{stderr}");
    assert!(stdout.contains("(6 cached, 0 computed)"), "{stdout}");
    assert_eq!(
        std::fs::read_to_string(&out2).unwrap(),
        resumed_csv,
        "resumed and replayed outputs must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&base);
}
