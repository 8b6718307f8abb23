"""Run the edmb benchmark and print its metrics.

    python3 perfbench/run.py --workload infer-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, 20 s each

Run from the repository root. Each workload runs in its own child process
(workload.py) with the BLAS thread count capped at the number of usable
CPUs and EDMB_THREADS unset. Every metric is printed as ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1). Full results, and the spans of a
traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("train-demo", "infer-default", "eval-bsds")
RUN_TIMEOUT_S = 170
SETUP_RUNS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), nproc)) if cur.isdigit() and int(cur) > 0 else str(nproc)
    env.pop("EDMB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(name, seed, seconds, trace, deadline, setup_only=False):
    """Run workload.py once; return the JSON it wrote."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}"
                       + ("-setup" if setup_only else "") + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out] + (["--setup-only"] if setup_only else [])
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"workload {name} failed with exit code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace):
    """Run one workload; return its result dict.

    Set-up is timed in SETUP_RUNS fresh processes, each from its start to
    its first timed operation: SETUP_RUNS - 1 that only set up, then the
    one that measures. ``setup_s`` is their median.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [run_child(name, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    result = run_child(name, seed, seconds, trace, deadline)
    setups.append(result["bench"]["setup_s"])
    setup_s = statistics.median(setups)
    result["setup"]["setup_s"] = setups
    result["bench"]["setup_s"] = setup_s
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s", "n": len(setups)}
    return result


def bench_metrics(result, names, trace):
    """The BENCHMARK.json metrics of one result, in its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        source = result["layers"] if trace else result["bench"]
        value = source[m["name"]]["value"] if trace else source[m["name"]]
        if value is None:
            raise RuntimeError(f"{result['workload']}: no value for {m['name']}")
        out[names(m["name"])] = {"value": value, "unit": m["unit"]}
    return out


def print_result(result):
    print(f"== {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}")
    env = result["env"]
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        extra = f" n={m['n']}" + (f" failed={m['failed']}" if "failed" in m else "")
        note = f" ({m['note']})" if "note" in m else ""
        print(f"{name} {value} {m['unit']}{extra}{note}")
    for name, m in result.get("layers", {}).items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"   INCORRECT: {problem}")
    if result["failures"]:
        print(f"   failed operations: {result['failed']} of {result['attempted']}, "
              f"first: {result['failures'][0]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print_result(result)
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update(
                bench_metrics(result, lambda n: prefix + n, args.trace))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
