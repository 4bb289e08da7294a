#!/usr/bin/env python3
"""One-command serving benchmark for the osdiv workspace.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload hot_read --seed 7 --seconds 30 --trace 1

Builds `osdiv` (the system under test) and the `osdiv-perfbench` runner
from source into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
runner once per workload. The runner's last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit status is
non-zero on a build failure, a wrong answer or a tripped run guard.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["hot_read", "query_mix", "tenant_churn"]
# A run that has not finished after this many seconds is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_id():
    """The commit, or a digest of the sources when not in a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_runner(command, env):
    """Runs the runner in its own process group, so a timeout also stops
    the server it started."""
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return fail(f"{command[3]} did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile("perfbench/Cargo.toml")):
        return fail("run from the repository root: Cargo.toml, crates/ and perfbench/ are needed")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "-p", "osdiv-bench", "--bin", "osdiv"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for build in builds:
        # Cargo's own output goes to stderr: stdout carries only results.
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            return fail("build failed: " + " ".join(build))

    env["PERFBENCH_COMMIT"] = source_id()
    env["PERFBENCH_RUSTC"] = rustc_version()
    release = os.path.join(target, "release")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [
            os.path.join(release, "osdiv-perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--osdiv", os.path.join(release, "osdiv"),
        ]
        sys.stdout.flush()
        status = max(status, run_runner(command, env))
    return status


if __name__ == "__main__":
    sys.exit(main())
