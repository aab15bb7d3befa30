"""Batch verification front-end.

Subcommands:
    run <config-file>    execute the configured suites, write a report
    list                 one line per catalog member
    check <suite> <fid>  single suite/function, report to stdout

Config files are flat key=value text (see SuiteConfig); a serialized
config parses back unchanged.  Reports are line-oriented: '#' lines carry
metadata (timestamps, wall times) and every other line is one record

    suite|backend|function|anchor|stats|status|expected|outcome

where stats is a semicolon-joined key=value list, status is pass/fail/
error from the measured residuals, expected follows from the member's one
claim, expected_regular (controls are expected to fail), and outcome is
ok unless status and expectation disagree; an info row is ok unless its
status is error.  Two runs with one config and seed produce
byte-identical record lines; only '#' lines differ.

The four pointwise suites share one runner, _run_pointwise, driven by the
_POINTWISE table: per suite, its tolerance keys, the expected status of a
member, a batch function computing residual arrays at sampled points and
the rows made from them.  The integral suites have runners of their own.

Exit status: 0 when every record's outcome is ok (controls failing count
as ok), 1 when any record misbehaves, 2 for configuration errors, a
non-finite number and a surface that meets the real axis among them.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from . import catalog, integral, regularity
from .errors import (RUNTIME_ERRORS, BadParams, ConfigError, EmptyDomain,
                     TouchesRealAxis, UnknownFunction, residual_status)
from .operators import fueter_laplacian
from .quaternion import Quaternion, SampleDomain

SUITES = ("theorem1", "lemma1", "hyperholomorphy", "fueter_theorem",
          "integral", "generalized")


# -- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple = SUITES
    functions: tuple = ()
    t_min: float = -1.5
    t_max: float = 1.5
    r_min: float = 0.5
    r_max: float = 2.0
    s_min: float = 0.1
    samples: int = 200
    seed: int = 0
    backend: str = "jets"
    resolution: int = 16
    surfaces: tuple = ()
    tol_theorem1: float = 1e-8
    tol_theorem1_fd: float = 1e-4
    tol_lemma1: float = 1e-9
    tol_lemma1_fd: float = 1e-4
    tol_hyperholo: float = 1e-8
    tol_fueter: float = 1e-6
    tol_integral: float = 1e-3
    tol_generalized: float = 1e-3
    output: str = "-"

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in ("suites", "functions"):
                v = ",".join(v)
            elif f.name == "surfaces":
                v = ";".join(v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SuiteConfig":
        convert = {
            "suites": _split_commas, "functions": catalog.split_ids,
            "surfaces": lambda s: tuple(
                tok.strip() for tok in s.split(";") if tok.strip()),
            "samples": int, "seed": int, "resolution": int,
            "backend": str, "output": str,
        }
        known = {f.name for f in fields(cls)}
        vals = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, "
                                  f"got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in vals:
                raise ConfigError(f"line {lineno}: key {key!r} given twice")
            try:
                vals[key] = convert.get(key, float)(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for "
                                  f"{key!r}: {exc}") from None
        cfg = cls(**vals)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v!r}")
            if f.name.startswith("tol_") and v <= 0:
                raise ConfigError(f"{f.name} must be positive")
        if not self.suites:
            raise ConfigError("suites must name at least one suite")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; "
                                  f"choose from {','.join(SUITES)}")
        if self.backend not in ("jets", "fd", "both"):
            raise ConfigError(f"backend must be jets, fd or both, "
                              f"got {self.backend!r}")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if not (self.t_min <= self.t_max):
            raise ConfigError("t_min must not exceed t_max")
        if not (0.0 < self.r_min <= self.r_max):
            raise ConfigError("need 0 < r_min <= r_max")
        if not (0.0 < self.s_min <= 1.0):
            raise ConfigError("s_min must lie in (0, 1]")
        if self.resolution < 2:
            raise ConfigError("resolution must be at least 2")

    def base_domain(self) -> SampleDomain:
        return SampleDomain(t_range=(self.t_min, self.t_max),
                            r_range=(self.r_min, self.r_max),
                            s_min=self.s_min)


def _split_commas(s: str) -> tuple:
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


# -- report records --------------------------------------------------------

@dataclass
class Row:
    suite: str
    backend: str
    function: str
    anchor: str
    stats: dict
    status: str            # pass / fail / error
    expected: str          # pass / fail / info

    @property
    def outcome(self) -> str:
        # An info row proves nothing either way, unless it measured nothing.
        if self.expected == "info":
            return "FAIL" if self.status == "error" else "ok"
        return "ok" if self.status == self.expected else "FAIL"

    def render(self) -> str:
        parts = []
        for key, val in self.stats.items():
            if isinstance(val, (int, np.integer)):
                txt = str(int(val))
            elif isinstance(val, float):
                txt = f"{val:.6e}"
            else:
                txt = str(val)
            parts.append(f"{key}={txt}")
        return "|".join([self.suite, self.backend, self.function,
                         self.anchor, ";".join(parts),
                         self.status, self.expected, self.outcome])


def _mix_seed(seed: int, *labels) -> int:
    h = zlib.crc32("|".join(labels).encode("utf-8"))
    return (seed * 1000003 + h) % (2 ** 32)


def _robust(batch_fn, pts):
    """Evaluate batched; a batch that raises a runtime error is halved, down
    to single points, and the points that still raise are skipped.  Returns
    (dict of arrays over the surviving points, in index order, or None;
    skipped count; first error; surviving sample indices).  A 0-d result,
    such as the norm of a structural zero, holds for every point of its
    batch; any other result must have one entry per point (ValueError)."""
    n = int(np.size(pts.t))
    outs, kept, first = [], [], None
    todo = [(0, n)]
    while todo:
        lo, hi = todo.pop()
        try:
            outs.append((hi - lo, batch_fn(pts[lo:hi])))
        except RUNTIME_ERRORS as exc:
            first = first or exc
            if hi > lo + 1:
                todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
            continue
        kept.extend(range(lo, hi))
    if not outs:
        return None, n, first, np.zeros(0, dtype=int)
    joined = {k: np.concatenate([_per_point(out[k], size, k)
                                 for size, out in outs]) for k in outs[0][1]}
    return joined, n - len(kept), first, np.asarray(kept, dtype=int)


def _per_point(arr, size, key):
    """arr as one float per point of a batch of size points."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0:
        return np.full(size, arr)
    if arr.size != size:
        raise ValueError(f"{key}: {arr.size} values for {size} points")
    return arr.reshape(-1)


def _worst_point(pts, kept, arr) -> str:
    """The sample point of the largest residual, as t+xi+yj+zk."""
    p = pts[int(kept[int(np.argmax(arr))])]
    return (f"{float(p.t):.3g}{float(p.x):+.3g}i"
            f"{float(p.y):+.3g}j{float(p.z):+.3g}k")


def _error_row(suite, backend, f, anchor, exc, expected) -> Row:
    return Row(suite, backend, f.fid, anchor,
               {"error": f"{type(exc).__name__}: {exc}"}, "error", expected)


# -- suite runners ---------------------------------------------------------

def _head(arr) -> dict:
    return {"n": arr.size, "max": float(np.max(arr)),
            "mean": float(np.mean(arr))}


def _by_anchor(data):
    return [(anchor, _head(arr), arr) for anchor, arr in data.items()]


@dataclass(frozen=True)
class _Pointwise:
    """One pointwise suite.  tol_keys names the jets tolerance, then the
    fd one where the suite has an fd backend; anchor heads an error row.
    batch(f, p, backend) returns the residual arrays at the points p, by
    default one per row keyed by its anchor; records(stacked arrays)
    returns an (anchor, head stats, residual array) triple per row."""

    tol_keys: tuple
    anchor: str
    expected: Callable
    batch: Callable
    records: Callable = _by_anchor


_ITEM_ANCHORS = ("Theorem 1 item 1 (Cullen operator)", "Theorem 1 item 2",
                 "Theorem 1 item 3a", "Theorem 1 item 3b",
                 "Theorem 1 item 4a", "Theorem 1 item 4b")
_HYPERHOLO_ANCHOR = "Equations (1)-(2) with Cullen regularity"
_FUETER_ANCHOR = "Fueter's theorem (D_l Delta f = 0)"


def _hyperholo_batch(f, p, backend):
    rep = regularity.hyperholomorphy_report(f, p)
    return {"eq1": np.asarray(rep.eq1.norm()),
            "eq2": np.asarray(rep.eq2.norm()),
            "cullen": np.asarray(rep.cullen.norm()),
            "uv_imag": np.maximum(np.asarray(rep.u.imag_norm()),
                                  np.asarray(rep.v.imag_norm()))}


def _hyperholo_records(data):
    eqs = np.maximum(data["eq1"], data["eq2"])
    head = {"n": data["eq1"].size, "eq_max": float(np.max(eqs)),
            "cullen_max": float(np.max(data["cullen"])),
            "uv_imag_max": float(np.max(data["uv_imag"]))}
    return [(_HYPERHOLO_ANCHOR, head, np.maximum(eqs, data["cullen"]))]


_POINTWISE = {
    "theorem1": _Pointwise(
        ("tol_theorem1", "tol_theorem1_fd"), "Theorem 1",
        lambda f: "pass" if f.expected_regular else "fail",
        lambda f, p, backend: dict(zip(_ITEM_ANCHORS, (
            regularity.theorem1_residuals(f, p, backend=backend)
            .items().values())))),
    # Lemma 1 needs no regularity: every member must pass.
    "lemma1": _Pointwise(
        ("tol_lemma1", "tol_lemma1_fd"), "Lemma 1", lambda f: "pass",
        lambda f, p, backend: {"Lemma 1": np.asarray(
            regularity.lemma1_residual(f, p, backend=backend))}),
    "hyperholomorphy": _Pointwise(
        ("tol_hyperholo",), _HYPERHOLO_ANCHOR,
        lambda f: "pass" if f.expected_regular else "fail",
        _hyperholo_batch, _hyperholo_records),
    # Fueter's theorem claims nothing for a member that is not regular
    # (for linear controls D_l Delta f vanishes trivially): an info row.
    "fueter_theorem": _Pointwise(
        ("tol_fueter",), _FUETER_ANCHOR,
        lambda f: "pass" if f.expected_regular else "info",
        lambda f, p, backend: {
            _FUETER_ANCHOR: np.asarray(fueter_laplacian(f, p).norm())}),
}


def _run_pointwise(suite: str, cfg: SuiteConfig, members):
    spec = _POINTWISE[suite]
    # A suite without an fd backend runs on jets whatever cfg says.
    backends = [(backend, getattr(cfg, tol_key)) for backend, tol_key
                in zip(("jets", "fd"), spec.tol_keys)
                if len(spec.tol_keys) == 1 or cfg.backend in (backend, "both")]
    by_backend = {backend: [] for backend, _ in backends}
    points = 0
    base = cfg.base_domain()
    for f in members:
        # One sample per member, shared by its backends.
        expected = spec.expected(f)
        pts = base.merge(f.domain).sample(
            cfg.samples, seed=_mix_seed(cfg.seed, suite, f.fid))
        for backend, tol in backends:
            points += int(np.size(pts.t))
            data, skipped, exc, kept = _robust(
                lambda p: spec.batch(f, p, backend), pts)
            if data is None:
                by_backend[backend].append(_error_row(
                    suite, backend, f, spec.anchor, exc, expected))
                continue
            for anchor, stats, arr in spec.records(data):
                stats["worst"] = _worst_point(pts, kept, arr)
                stats["tol"] = tol
                if skipped:
                    stats["skipped"] = skipped
                    # The class only: a message may contain ';'.
                    stats["skip"] = type(exc).__name__
                by_backend[backend].append(Row(
                    suite, backend, f.fid, anchor, stats,
                    residual_status(arr, tol), expected))
    # The jets rows of every member, then the fd rows.
    rows = [row for block in by_backend.values() for row in block]
    return rows, {"points": points}


def _surfaces(cfg: SuiteConfig, default):
    """The configured surfaces, else default(cfg.resolution).  A descriptor
    that does not parse, or a sphere that meets the real axis, is a
    configuration error."""
    if not cfg.surfaces:
        return default(cfg.resolution)
    try:
        return [integral.parse_surface(s) for s in cfg.surfaces]
    except (BadParams, TouchesRealAxis) as exc:
        raise ConfigError(str(exc)) from None


def _integral_default(resolution: int):
    return [integral.sphere3(Quaternion(0.0, 2.0, 0.0, 0.0), 1.0, resolution),
            integral.sphere3(Quaternion(1.0, 0.0, 2.0, 0.0), 0.8, resolution)]


def _run_integral(cfg: SuiteConfig, members):
    rows = []
    anchor = "Integral Theorem"
    surfaces = _surfaces(cfg, _integral_default)
    nodes = len(members) * sum(K.node_count + K.interior_count
                               for K in surfaces)
    for f in members:
        expected = "pass" if f.expected_regular else "fail"
        for K in surfaces:
            try:
                rep = integral.theorem2_report(f, K)
            except RUNTIME_ERRORS as exc:
                rows.append(_error_row("integral", "jets", f,
                                       f"{anchor} on {K.name}", exc,
                                       expected))
                continue
            stats = {"surface": K.name, "nodes": K.node_count,
                     "lhs_norm": float(rep.lhs.norm()),
                     "rhs_norm": float(rep.rhs.norm()),
                     "residual": rep.residual, "scale": rep.scale,
                     "rel": rep.residual / rep.scale, "tol": cfg.tol_integral}
            rows.append(Row("integral", "jets", f.fid,
                            f"{anchor} on {K.name}", stats,
                            rep.status(cfg.tol_integral), expected))
    return rows, {"nodes": nodes}


def _run_generalized(cfg: SuiteConfig, members):
    rows = []
    anchor = "Generalized Cullen-regularity (Integral Theorem family)"
    family = _surfaces(cfg, integral.standard_family)
    verdicts, nodes = integral._generalized_sweep(members, family,
                                                  cfg.tol_generalized)
    for f, verdict in zip(members, verdicts):
        expected = "pass" if f.expected_regular else "fail"
        if isinstance(verdict, Exception):
            rows.append(_error_row("generalized", "jets", f, anchor,
                                   verdict, expected))
            continue
        worst_f, worst_if = verdict.worst_rel()
        stats = {"surfaces": len(verdict.rows), "worst_rel_f": worst_f,
                 "worst_rel_iota_f": worst_if, "tol": cfg.tol_generalized}
        rows.append(Row("generalized", "jets", f.fid, anchor, stats,
                        verdict.status, expected))
    return rows, {"nodes": nodes}


# A runner returns its rows and its work, points sampled or quadrature nodes
# evaluated, for the suite's timing line.
_RUNNERS = {suite: partial(_run_pointwise, suite) for suite in _POINTWISE}
_RUNNERS.update(integral=_run_integral, generalized=_run_generalized)

_DEFAULT_INTEGRAL_IDS = ("power:1", "power:2", "power:3", "iota", "conj")


def _members_for(suite: str, cfg: SuiteConfig):
    if cfg.functions:
        try:
            return [catalog.from_string(s) for s in cfg.functions]
        except (UnknownFunction, BadParams) as exc:
            raise ConfigError(str(exc)) from None
    inventory = catalog.default_inventory()
    if suite == "fueter_theorem":
        return [f for f in inventory if f.expected_regular]
    if suite == "integral":
        return [catalog.from_string(s) for s in _DEFAULT_INTEGRAL_IDS]
    return list(inventory)


# -- report assembly -------------------------------------------------------

def _sized_by(suite: str, cfg: SuiteConfig) -> str:
    """The config entry that sizes suite's arrays, as key=value."""
    if suite not in ("integral", "generalized"):
        return f"samples={cfg.samples}"
    if cfg.surfaces:
        return "surfaces=" + ";".join(cfg.surfaces)
    return f"resolution={cfg.resolution}"


def run_suite(cfg: SuiteConfig):
    """Execute every configured suite; return (report text, exit code)."""
    cfg.validate()
    t0 = time.time()
    rows, timing = [], []
    for suite in cfg.suites:
        start = time.perf_counter()
        members = _members_for(suite, cfg)
        try:
            found, work = _RUNNERS[suite](cfg, members)
        except EmptyDomain as exc:
            raise ConfigError(f"{suite}: {exc}") from None
        except MemoryError as exc:
            # numpy refuses an array larger than memory at once, so no
            # fixed ceiling on samples or resolution is needed.
            size = str(exc).split(" for an array")[0]   # not an inner shape
            detail = f" ({size})" if size else ""
            raise ConfigError(f"{suite}: {_sized_by(suite, cfg)} needs "
                              f"more memory than there is{detail}") from None
        rows.extend(found)
        timing.append(f"# timing: suite={suite} wall_s="
                      f"{time.perf_counter() - start:.3f} "
                      f"rows={len(found)} " + " ".join(
                          f"{key}={n}" for key, n in work.items()))
    wall = time.time() - t0
    failures = sum(1 for r in rows if r.outcome != "ok")
    header = [
        "# quatreg verification report",
        f"# created: {datetime.datetime.now().isoformat(timespec='seconds')}",
        f"# wall_seconds: {wall:.2f}",
        "# schema: suite|backend|function|anchor|stats|status|expected|outcome",
    ]
    header.extend(f"# config: {line}"
                  for line in cfg.to_text().strip().splitlines())
    header.extend(timing)
    body = [row.render() for row in rows]
    body.append(f"summary|all|all|totals|rows={len(rows)};"
                f"failures={failures}|"
                f"{'pass' if failures == 0 else 'fail'}|pass|"
                f"{'ok' if failures == 0 else 'FAIL'}")
    text = "\n".join(header + body) + "\n"
    return text, (0 if failures == 0 else 1)


def list_catalog() -> str:
    lines = []
    for f in catalog.default_inventory():
        claim = ("expected-regular expected-hyperholomorphic"
                 if f.expected_regular else "control")
        lines.append(f"{f.fid} {claim} | {f.domain.describe()}")
    return "\n".join(lines) + "\n"


def _check_writable(dest: str) -> None:
    """Refuse a report path that cannot be written before any suite runs,
    without creating or truncating the file."""
    if dest == "-":
        return
    if os.path.exists(dest):
        ok = not os.path.isdir(dest) and os.access(dest, os.W_OK)
    else:
        parent = os.path.dirname(dest) or "."
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise ConfigError(f"cannot write report: {dest!r} is not writable")


def _write_report(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from None


_CHECK_TOL_KEYS = {suite: spec.tol_keys for suite, spec in _POINTWISE.items()}
_CHECK_TOL_KEYS.update(integral=("tol_integral",),
                       generalized=("tol_generalized",))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quatreg",
        description="Numerical verification suites for Cullen-regular "
                    "quaternionic functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run suites from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--output", default=None,
                       help="report destination; '-' for stdout")
    sub.add_parser("list", help="list the catalog members")
    p_chk = sub.add_parser("check",
                           help="run a single suite for a single function")
    p_chk.add_argument("suite", help="one of " + ",".join(SUITES))
    p_chk.add_argument("function_id", help="catalog id, e.g. power:2")
    p_chk.add_argument("--tol", type=float, default=None)
    p_chk.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_chk.add_argument("--res", type=int, default=SuiteConfig.resolution)
    p_chk.add_argument("--backend", default=SuiteConfig.backend,
                       choices=("jets", "fd", "both"))
    p_chk.add_argument("--samples", type=int, default=SuiteConfig.samples)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = SuiteConfig.from_text(fh.read())
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            if args.output is not None:
                cfg = replace(cfg, output=args.output)
            _check_writable(cfg.output)
            text, code = run_suite(cfg)
            _write_report(text, cfg.output)
            return code
        if args.command == "list":
            sys.stdout.write(list_catalog())
            return 0
        cfg = SuiteConfig(suites=(args.suite,),
                          functions=(args.function_id,),
                          seed=args.seed, resolution=args.res,
                          backend=args.backend, samples=args.samples)
        if args.tol is not None:
            for key in _CHECK_TOL_KEYS.get(args.suite, ()):
                cfg = replace(cfg, **{key: args.tol})
        text, code = run_suite(cfg)
        sys.stdout.write(text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
