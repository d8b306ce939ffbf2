#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The first call configures and builds the C++
program (perfbench/perfbench.cpp plus the library sources in src/) with CMake in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset.  The program's report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics.  Before printing that
line, the metric names and units are checked against BENCHMARK.json and the
workload parameters the program used against perfbench/spec.json.

Exit status: 0 when the run's checks passed, 1 when a check failed, 2 when the
benchmark could not be built or run.  Build output goes to stderr.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
BUILD_JOBS = "2"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", BUILD_JOBS,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def validate(result, params, spec, workload, trace):
    """Returns a list of ways the result departs from BENCHMARK.json."""
    problems = []
    bench = load_json(ROOT / "BENCHMARK.json")
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if params != spec["workloads"][workload]["params"]:
        problems.append("workload parameters differ from spec.json: "
                        + json.dumps(params, sort_keys=True))
    return problems


def main():
    spec = load_json(HERE / "spec.json")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float,
                    default=load_json(ROOT / "BENCHMARK.json")["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(bdir / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"program did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"program exited with {proc.returncode} and printed no result")
    result = json.loads(lines[-1])
    params = {}
    for line in lines[:-1]:
        if line.startswith("params "):
            params = json.loads(line[len("params "):])
        print(line)
    problems = validate(result, params, spec, args.workload, args.trace == 1)
    for p in problems:
        print(f"  FAIL result format: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or problems or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
