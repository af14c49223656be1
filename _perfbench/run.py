#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 _perfbench/run.py --workload synth-or --seed 1 --seconds 20 --trace 0
    python3 _perfbench/run.py --selftest

The script builds the benchmark (a Go module of its own in this
directory) and the mcs-serve server from the checkout's sources into
.bench_build/, with every Go cache and temporary directory inside the
checkout, then runs one workload. The last line of standard output is
the benchmark's JSON result. See README.md for the workloads and metrics.

--selftest runs every workload at a tiny size twice with one seed, checks
that every metric BENCHMARK.json names is printed with its unit, and
that the exact counts repeat exactly.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "bin"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
GROUP_WAIT_S = 5

# Metrics that are exact functions of the seed: a second run with the
# same seed must print the same value.
EXACT = [
    "opt.evaluations",
    "opt.schedulable_share",
    "opt.s_total_mean",
    "delta.config_hit_rate",
    "delta.stage_hit_rate",
    "dse.hypervolume",
    "dse.evaluations",
    "store.appends_per_job",
    "core.mcs_iterations",
    "core.unconverged_share",
]


def go_env():
    """Environment that keeps every Go cache and scratch file in the checkout."""
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "tmp", "config"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        TMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
    )
    return env


def build(env):
    """Build mcs-serve and the benchmark; exit non-zero on failure."""
    BIN.mkdir(parents=True, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", str(BIN / "mcs-serve"), "./cmd/mcs-serve"]),
        (HERE, ["go", "build", "-o", str(BIN / "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"run.py: {' '.join(cmd)}: {err}")
        if proc.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)} (in {cwd})")


def run(env, workload, seed, seconds, trace, tiny=False, capture=False):
    """Run one workload; return (exit code, stdout text)."""
    work = BUILD / "work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    cmd = [str(BIN / "perfbench"), "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-server-bin", str(BIN / "mcs-serve"), "-work-dir", str(work)]
    if tiny:
        cmd.append("-tiny")
    # The benchmark and the server child it starts share a process group
    # of their own, so every process of the run can be stopped and waited
    # for on every way out.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        out, code = None, 1
    finally:
        stop_group(proc)
    return code, out.decode() if out else ""


def stop_group(proc):
    """Kill what is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + GROUP_WAIT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    print("run.py: processes of the run outlived it", file=sys.stderr)


def selftest(env):
    """Tiny runs, twice per seed: metric presence, units and exact counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            results = []
            for attempt in range(2):
                code, out = run(env, w["name"], 1, 2, trace, tiny=True, capture=True)
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    problems.append(f"{w['name']} trace={trace} run {attempt}: exit {code}")
                    continue
                results.append(json.loads(lines[-1]))
            if len(results) < 2:
                continue
            for m in listed:
                got = results[0]["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w['name']} trace={trace}: {m['name']} missing or unit {got}")
            extra = set(results[0]["metrics"]) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{w['name']} trace={trace}: unlisted metrics {sorted(extra)}")
            for name in EXACT if trace else []:
                a = results[0]["metrics"].get(name, {}).get("value")
                b = results[1]["metrics"].get(name, {}).get("value")
                if a != b:
                    problems.append(f"{w['name']}: {name} not exact: {a} then {b}")
            print(f"selftest {w['name']} trace={trace}: "
                  f"{len(results[0]['metrics'])} metrics, exact counts compared", flush=True)
    for p in problems:
        print("selftest FAILED:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    env = go_env()
    build(env)
    if args.selftest:
        sys.exit(selftest(env))
    if not args.workload:
        ap.error("--workload is required")
    code, _ = run(env, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
