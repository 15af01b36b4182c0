#!/usr/bin/env python3
"""The repository benchmark: build perfbench, make the workload's inputs from
the seed, run it, and print every metric with its unit.

    python3 perfbench/run.py --workload pipeline_rib --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics": {name: {value,
unit}}}.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
the program runs twice, untraced and then traced, and the metrics are the
per-layer ones plus the tracing overhead on each end-to-end metric.

Exit codes: 0 ok; 1 an output check failed, an operation failed, the build
is not Release, or the library sources are missing; 2 usage error.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FIXTURES = os.path.join(ROOT, ".bench_build", "fixtures")
WORK = os.path.join(ROOT, ".bench_build", "work")

WORKLOADS = ("pipeline_rib", "serve_zipf_mix", "ingest_live")
# Seconds the fixture and measuring children may take together, after the
# build; keeps a whole run inside three minutes.
RUN_BUDGET = 170.0


def metric_units(section):
    """{name: unit} of one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Run a child to completion (killed and waited for on timeout)."""
    return subprocess.run(cmd, timeout=timeout, **kwargs)


def build():
    """Configure (once) and build the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under", os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, 300, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    built = run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs], 840,
                stdout=sys.stderr)
    return built.returncode == 0 and os.path.isfile(BINARY)


def fixture(workload, seed, deadline):
    """Inputs for (workload, seed), made once per checkout and reused."""
    path = os.path.join(FIXTURES, workload, str(seed))
    if os.path.isdir(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.dirname(path), prefix=".tmp-")
    made = run([BINARY, "fixture", "--workload", workload, "--seed", str(seed), "--out", tmp],
               remaining(deadline), stdout=sys.stderr)
    if made.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError("fixture generation failed")
    os.rename(tmp, path)
    return path


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def measure(workload, seed, seconds, trace, fixtures, deadline):
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    spans = os.path.join(ROOT, ".bench_build", "spans-%s-%d.tsv" % (workload, seed))
    proc = run([BINARY, "run", "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", "1" if trace else "0",
                "--fixtures", fixtures, "--work", work, "--spans", spans],
               remaining(deadline), stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError("perfbench run failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if trace:
        result["stamp"]["spans"] = os.path.relpath(spans, ROOT)
    return result


def tree_hash():
    """Content hash of the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 10, capture_output=True, text=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    try:
        end_to_end = metric_units("end_to_end")
        per_layer = metric_units("per_layer")
    except (OSError, ValueError, KeyError) as e:
        log("cannot read the metric lists of BENCHMARK.json:", e)
        return 1
    if not build():
        log("build failed")
        return 1
    deadline = time.monotonic() + RUN_BUDGET
    try:
        fixtures = fixture(args.workload, args.seed, deadline)
        plain = measure(args.workload, args.seed, args.seconds, False, fixtures, deadline)
        traced = (measure(args.workload, args.seed, args.seconds, True, fixtures, deadline)
                  if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(e)
        return 1

    runs = [plain] + ([traced] if traced else [])
    stamp = dict(plain["stamp"])
    stamp["git_sha"] = git_sha()
    stamp["tree_sha256"] = tree_hash()
    correct = all(r["correct"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if failed:
        # A healthy run fails nothing; a failed request also reads as +inf
        # latency in its slot, so it can never pass for a speed-up.
        correct = False
        errors.append("%d of %d operations failed" % (failed, attempted))
    if stamp.get("build_type") != "Release":
        correct = False
        errors.append("not a Release build: " + stamp.get("build_type", "?"))

    missing = [name for name in end_to_end if not plain["metrics"].get(name)]
    if missing:
        correct = False
        errors.append("end-to-end metrics missing or zero: " + ", ".join(missing))
    if traced:
        # A layer a workload never calls reads 0 there: the "stays flat on"
        # half of the prediction in README.md.
        values = {name: traced["metrics"].get(name, 0.0) for name in per_layer}
        for name in end_to_end:
            base = plain["metrics"].get(name, 0.0)
            values["obs.trace_overhead_pct." + name] = (
                100.0 * (traced["metrics"].get(name, 0.0) - base) / base if base else 0.0)
        units = per_layer
    else:
        values = {name: plain["metrics"].get(name, 0.0) for name in end_to_end}
        units = end_to_end

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name in units:
        print("%-36s %18.6f %s" % (name, values[name], units[name]))
    for error in errors:
        print("CHECK FAILED: " + error)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
