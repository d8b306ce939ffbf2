#!/usr/bin/env python3
"""Runs perfbench over several seeds and reports each metric's median and spread.

    python3 perfbench/sweep.py [--workloads W ...] [--seeds N ...] [--runs K]
                               [--seconds S] [--trace] [--record FILE]
                               [--values]

Run from the repository root.  Each (workload, seed) pair is one run of
perfbench/run.py.  For every metric the table gives the median, the first and
third quartiles (statistics.quantiles with n=4) and the spread, the distance
between the quartiles as a share of the median.  End-to-end metrics are also
compared with their BENCHMARK.json bound: a spread above a third of the bound
is flagged "noisy", above the bound "FAIL" (setup_s is exempt from the spread
rule, as in the acceptance check).  Any failed run makes the exit status 1.

With --runs 1 this is the one command that prints every end-to-end metric of
every workload and runs all the correctness checks.  --record FILE appends the
results as one trajectory entry (host, compiler, commit, medians, spreads) to
the JSON list in FILE.
"""
import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout)
        print(f"FAIL {workload} seed {seed}: exit {proc.returncode}")
        return None
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def host_info():
    cpu = platform.processor()
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cxx = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True,
                                stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": cxx,
            "build_type": "Release", "commit": commit or "unknown",
            "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%MZ")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--runs", type=int, default=10,
                    help="seeds 1..K when --seeds is not given")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record")
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    seeds = args.seeds or list(range(1, args.runs + 1))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    ok = True
    table = {}
    for w in args.workloads:
        values = {}
        for seed in seeds:
            result = run_once(w, seed, args.seconds, args.trace)
            if result is None:
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table[w] = {name: summarize(v) for name, v in values.items()}
        print(f"{w}  ({len(seeds)} seeds, trace {int(args.trace)})")
        for name, s in table[w].items():
            flag = ""
            bound = bounds.get(name)
            if bound is not None and name != "setup_s" and len(seeds) > 1:
                flag = ("FAIL" if s["spread"] > bound
                        else "noisy" if s["spread"] > bound / 3 else "")
            print(f"  {name:34s} {s['median']:>16.6g} {units.get(name, ''):12s}"
                  f" spread {s['spread']:.4f} {flag}")
            if args.values:
                print("      " + " ".join(f"{x:.6g}" for x in values[name]))
        sys.stdout.flush()

    if args.record:
        path = pathlib.Path(args.record)
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({"host": host_info(), "seeds": seeds,
                        "seconds": args.seconds, "trace": args.trace,
                        "workloads": table})
        path.write_text(json.dumps(entries, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
