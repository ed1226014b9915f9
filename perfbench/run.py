#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `slb` binary and the benchmark
program (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload in its own process group, and relays
its output: the last line of standard output is the result as one JSON
object. With `--workload all` it runs every workload, each in its own
process, and prints every metric by name with its unit. Build logs and
diagnostics go to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["bounds-dense", "bounds-lumped", "serve-hot"]
# A timed run is at most 60 s plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        print(f"perfbench: no repository sources under {root}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    for manifest, extra in [
        (root / "Cargo.toml", ["--bin", "slb"]),
        (root / "perfbench" / "Cargo.toml", []),
    ]:
        build = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", str(manifest), *extra]
        if subprocess.run(build, env=env, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3

    if args.workload != "all":
        out, code = run_workload(args.workload, args, root, target)
        sys.stdout.write(out)
        return code
    for workload in WORKLOADS:
        out, code = run_workload(workload, args, root, target)
        if code != 0:
            return code
        result = json.loads(out.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    return 0


def run_workload(workload, args, root, target):
    """Runs one workload; returns its standard output and exit code."""
    release = target / "release"
    command = [
        str(release / "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--slb", str(release / "slb"),
        "--work-dir", str(target / "perfbench-work"),
    ]
    # Its own process group, so that the daemon `serve-hot` starts is
    # stopped with it whatever happens.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=root,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        out, code = "", 4
    else:
        code = child.returncode
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    return out, code


if __name__ == "__main__":
    sys.exit(main())
