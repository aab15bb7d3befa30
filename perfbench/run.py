"""Benchmark of quatreg: quadrature, pointwise and single-point workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quadrature --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process generates the load as a closed loop: each pass of the
workload starts when the previous one ends, until ``--seconds`` have
passed (and at least ``MIN_PASSES`` passes ran).  A first, untimed pass
warms caches and lazy set-up.  Every pass is checked against the seed-0
reference in ``ref/`` (see workloads.py for the rule).

``--trace 0`` reports the end-to-end metrics: ``wall_per_ref`` is the
median over measured passes of the pass's wall time over that of the
reference kernel (workloads.Reference) run just before and after it,
``setup_s`` the median of ``SETUP_PROBES`` fresh-process set-ups spread
over the run, each over the reference kernel run just before it, in
seconds at the kernel's nominal speed (``Reference.NOMINAL_S``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics listed in ``layers.json`` for the fastest traced pass,
plus ``trace.overhead_ratio``; it fails when a layer the map says fires
on this workload reads zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every operation was correct, 1 when any failed, 2 when the
benchmark cannot run (no quatreg sources next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("quadrature", "pointwise", "single_point")
#: The workloads BENCHMARK.json lists.  single_point is left out: it is bound
#: by interpreter speed, which on a shared host swings by half between
#: phases lasting minutes, so its times are not steady from run to run.
GATED = ("quadrature", "pointwise")

#: BLAS threads, pinned through quatreg's QUATREG_THREADS.  One thread keeps
#: runs steady on a small shared machine; it never exceeds nproc.
THREADS = 1
SETUP_PROBES = 9
MIN_PASSES = 3

END_TO_END = (("wall_per_ref", "1"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _pin_environment():
    """quatreg's sources on the path and BLAS threads pinned, for this
    process and the set-up probes it starts."""
    for key in _BLAS_VARS:
        os.environ.pop(key, None)
    os.environ["QUATREG_THREADS"] = str(THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)


def _probe_setup(workload, seed):
    """Set-up time of a fresh process: import quatreg, build the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _load_layers():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def _layer_value(name, agg):
    span, qty = name.rsplit(".", 1)
    if qty == "self_s":
        return sum(row["s"] for nm, row in agg.items()
                   if nm.startswith(span + "."))
    row = agg.get(span, {})
    if qty == "ns_per_pair":
        return 1e9 * row["s"] / row["pairs"] if row.get("pairs") else 0.0
    return float(row.get(qty, 0.0))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args):
        import quatreg
        import workloads
        from spans import Tracer

        self.args = args
        self.wl = workloads
        self.inputs = workloads.build(args.workload, args.seed)
        self.ref = None if args.write_ref else workloads.load_ref(
            args.workload)
        self.tracer = Tracer(quatreg)
        self.reference = workloads.Reference()
        self.attempted = self.failed = 0
        self.first_error = ""
        self.records = self.not_ok = 0

    def one_pass(self, traced=False):
        """Run, time and check one pass; returns (seconds, lines, spans)."""
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            outs = self.wl.run_pass(self.inputs)
            dt = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        agg = self.tracer.collect() if traced else None
        lines = self.wl.table(self.inputs, outs)
        if self.ref is not None:
            att, bad, not_ok, first = self.wl.check(self.inputs, lines,
                                                    self.ref)
            self.attempted += att
            self.failed += bad
            self.records, self.not_ok = att, not_ok
            self.first_error = self.first_error or first
        return dt, lines, agg

    def measure(self):
        """Warm-up, then passes until the time is up; returns the metrics
        (None after writing the reference)."""
        args = self.args
        _, lines, _ = self.one_pass()              # warm-up
        if args.write_ref:
            self.wl.write_ref(args.workload, lines)
            print(f"wrote {self.wl.ref_path(args.workload)} "
                  f"({len(lines)} lines)")
            return None
        units = self.wl.work_units(self.inputs, lines)
        deadline = time.perf_counter() + args.seconds
        plain, traced, setup = [], [], []
        refs = [] if args.trace else [self.reference.run()]
        while (time.perf_counter() < deadline
               or len(plain) < (2 if args.trace else MIN_PASSES)
               or len(traced) < (2 if args.trace else 0)):
            plain.append(self.one_pass()[0])
            if args.trace:
                dt, _, agg = self.one_pass(traced=True)
                traced.append((dt, agg))
                continue
            refs.append(self.reference.run())
            if len(setup) < SETUP_PROBES:
                setup.append(self._probe_over_ref(refs[-1]))
        wall = min(plain)
        median = statistics.median(plain)
        print(f"passes {len(plain)}, fastest pass {wall:.6g} s, median pass "
              f"{median:.6g} s, work_per_s {units / median:.6g} units/s")
        if args.trace:
            traced_wall, agg = min(traced, key=lambda pass_: pass_[0])
            return self._layers(agg, traced_wall, wall)
        setup += [self._probe_over_ref(self.reference.run())
                  for _ in range(SETUP_PROBES - len(setup))]
        # A phase of the shared host slows a pass and the kernel runs beside
        # it alike, so their ratio holds where either time alone swings by a
        # third between runs.
        ratios = [dt / ((before + after) / 2)
                  for dt, before, after in zip(plain, refs, refs[1:])]
        print(f"reference kernel median {statistics.median(refs):.6g} s, "
              f"pass over reference " + " ".join(f"{r:.4g}" for r in ratios))
        return {"wall_per_ref": statistics.median(ratios),
                "setup_s": self.wl.Reference.NOMINAL_S
                * statistics.median(setup),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def _probe_over_ref(self, ref):
        """One fresh-process set-up over the reference kernel time ``ref``
        taken just before it; the kernel tracks the host's phases in
        set-up as it does in passes."""
        probe = _probe_setup(self.args.workload, self.args.seed)
        print(f"set-up probe {probe:.6g} s, reference kernel {ref:.6g} s")
        return probe / ref

    def _layers(self, agg, traced_wall, wall):
        """Per-layer metrics of the fastest traced pass, and the coverage
        check."""
        extra = {"cli.records": self.records,
                 "cli.records_not_ok": self.not_ok,
                 "trace.overhead_ratio": traced_wall / wall,
                 "trace.traced_wall_s": traced_wall,
                 "trace.untraced_wall_s": wall}
        out = {}
        for spec in _load_layers():
            name = spec["name"]
            val = extra[name] if name in extra else _layer_value(name, agg)
            out[name] = val
            if self.args.workload in spec["fires_on"] and not val > 0:
                self.failed += 1
                self.first_error = (self.first_error or
                                    f"layer metric {name} reads zero on "
                                    f"{self.args.workload}")
        return out


def _units():
    units = dict(END_TO_END)
    units.update((m["name"], m["unit"]) for m in _load_layers())
    return units


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "quatreg", "__init__.py")):
        print(f"error: no quatreg sources at {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    import quatreg  # noqa: F401  (first, so the thread pin reaches numpy)

    run = Run(args)
    metrics = run.measure()
    if metrics is None:
        return 0
    units = _units()
    attempted = max(run.attempted, 1)
    correct = run.failed == 0
    for name, val in metrics.items():
        print(f"{name} {val:.6g} {units[name]}")
    print(f"failed_ratio {run.failed / attempted:.6g} 1 "
          f"({run.failed} of {attempted} operations)")
    print(f"blas_threads {os.environ.get('OPENBLAS_NUM_THREADS')}")
    if run.first_error:
        print(f"first failure: {run.first_error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in turn, each in its own process; one table."""
    code = 0
    for wl in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{wl}: no result (exit {proc.returncode})\n{proc.stderr}")
            code = 1
            continue
        for name, m in res["metrics"].items():
            print(f"{wl:13s} {name:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{wl:13s} {'failed_ratio':40s} "
              f"{res['failed'] / res['attempted']:14.6g} 1")
        if proc.returncode != 0 or not res["correct"]:
            sys.stderr.write(proc.stderr)
            code = 1
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-ref", action="store_true",
                    help="write the seed-0 reference records and exit")
    args = ap.parse_args(argv)
    if args.write_ref and (args.seed != 0 or args.workload == "all"):
        ap.error("--write-ref needs one workload and --seed 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
