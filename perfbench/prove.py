"""Measure the baseline: repeated runs per workload, written to baseline.json.

    python3 perfbench/prove.py [--runs 10] [--seconds S] [--out perfbench/baseline.json]

For each workload (by default those in BENCHMARK.json), runs
``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json (or
``--seconds``) once per seed 0..runs-1 and
reports each end-to-end metric's median, quartiles and spread (distance
between the quartiles over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them).  Then one ``--trace 1``
run per workload at seed 0 gives the per-layer metrics and the kernel
rates derived from them.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": run.THREADS, "commit": _commit()}


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0 and res["correct"] and res["failed"] == 0
    return ok, res


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _kernels(layers):
    out = {}
    for k in range(4):
        pre = f"jets.RJet.__mul__.o{k}"
        calls = layers[f"{pre}.calls"]
        if not calls:
            continue
        out[f"o{k}"] = {
            "mean_batch": layers[f"{pre}.elems"] / calls,
            "ns_per_pair": layers[f"{pre}.ns_per_pair"],
            "pairs_per_byte_computed": (layers[f"{pre}.pairs"]
                                        / layers[f"{pre}.bytes"])}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--workloads", default=",".join(run.GATED),
                    help="comma list; default: the workloads BENCHMARK.json "
                         "lists")
    args = ap.parse_args(argv)
    doc = {"environment": environment(), "run_seconds": args.seconds,
           "end_to_end": {}, "per_layer": {}, "kernel_rates": {}}
    failures = 0
    for wl in args.workloads.split(","):
        vals = {}
        for seed in range(args.runs):
            ok, res = _run(wl, seed, args.seconds, 0)
            failures += not ok
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            print(wl, seed, "ok" if ok else "FAILED",
                  {k: round(v[-1], 4) for k, v in vals.items()}, flush=True)
        doc["end_to_end"][wl] = {k: _summary(v) for k, v in vals.items()}
        ok, res = _run(wl, 0, args.seconds, 1)
        failures += not ok
        layers = {k: m["value"] for k, m in res["metrics"].items()}
        doc["per_layer"][wl] = layers
        doc["kernel_rates"][wl] = _kernels(layers)
        for k, s in doc["end_to_end"][wl].items():
            print(f"  {wl} {k}: median {s['median']:.5g} "
                  f"spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
