"""Batch verification front-end.

Subcommands:
    run <config-file>    execute the configured suites, write a report
    list                 one line per catalog member
    check <suite> <fid>  single suite/function, report to stdout

Config files are flat key=value text (see SuiteConfig); a serialized
config parses back unchanged.  Reports are line-oriented: '#' lines carry
metadata (timestamps, wall time) and every other line is one record

    suite|backend|function|anchor|stats|status|expected|outcome

where stats is a semicolon-joined key=value list, status is pass/fail/
error from the measured residuals, expected encodes the member's flags
(controls are expected to fail), and outcome is ok unless status and
expectation disagree.  Two runs with one config and seed produce
byte-identical record lines; only '#' lines differ.

Exit status: 0 when every record's outcome is ok (controls failing count
as ok), 1 when any record misbehaves, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import catalog, integral, regularity
from .errors import (BadParams, ConfigError, DegenerateChart, DomainError,
                     EmptyDomain, OnRealAxis, TouchesRealAxis, UnknownFunction,
                     ZeroDivisor, residual_status)
from .operators import cullen_left, fueter_laplacian
from .quaternion import Quaternion, SampleDomain

SUITES = ("theorem1", "lemma1", "hyperholomorphy", "fueter_theorem",
          "integral", "generalized")

_RUNTIME_ERRORS = (DomainError, OnRealAxis, DegenerateChart, ZeroDivisor,
                   TouchesRealAxis)


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
            "suites": _split_commas, "functions": _split_commas,
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
            try:
                vals[key] = convert.get(key, float)(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for "
                                  f"{key!r}: {exc}") from None
        cfg = cls(**vals)
        cfg.validate()
        return cfg

    def validate(self) -> None:
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
        for name in ("tol_theorem1", "tol_theorem1_fd", "tol_lemma1",
                     "tol_lemma1_fd", "tol_hyperholo", "tol_fueter",
                     "tol_integral", "tol_generalized"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

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
        if self.expected == "info":
            return "ok"
        return "ok" if self.status == self.expected else "FAIL"

    def render(self) -> str:
        parts = []
        for key, val in self.stats.items():
            if isinstance(val, bool):
                txt = "yes" if val else "no"
            elif isinstance(val, (int, np.integer)):
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
    """Evaluate batched; on a runtime error, fall back point by point.

    Returns (dict of stacked arrays or None, skipped count, first message,
    surviving sample indices).
    """
    n = int(np.size(pts.t))
    try:
        return batch_fn(pts), 0, "", np.arange(n)
    except _RUNTIME_ERRORS as exc:
        first = f"{type(exc).__name__}: {exc}"
    acc = None
    kept = []
    skipped = 0
    for i in range(n):
        try:
            out = batch_fn(pts[i])
        except _RUNTIME_ERRORS:
            skipped += 1
            continue
        if acc is None:
            acc = {k: [] for k in out}
        kept.append(i)
        for k, val in out.items():
            acc[k].append(np.asarray(val, dtype=float).reshape(()))
    if acc is None:
        return None, skipped, first, np.zeros(0, dtype=int)
    stacked = {k: np.stack(v) for k, v in acc.items()}
    return stacked, skipped, first, np.asarray(kept, dtype=int)


def _fmt_point(p) -> str:
    return (f"{float(p.t):.3g}{float(p.x):+.3g}i"
            f"{float(p.y):+.3g}j{float(p.z):+.3g}k")


def _worst_point(pts, kept, arr) -> str:
    return _fmt_point(pts[int(kept[int(np.argmax(arr))])])


def _error_row(suite, backend, f, anchor, msg, expected) -> Row:
    return Row(suite, backend, f.fid, anchor, {"error": msg},
               "error", expected)


# -- suite runners ---------------------------------------------------------

_ITEM_ANCHORS = (
    ("item1", "Theorem 1 item 1 (Cullen operator)"),
    ("item2", "Theorem 1 item 2"),
    ("item3a", "Theorem 1 item 3a"),
    ("item3b", "Theorem 1 item 3b"),
    ("item4a", "Theorem 1 item 4a"),
    ("item4b", "Theorem 1 item 4b"),
)


def _backends_for(cfg: SuiteConfig, tol_jets: float, tol_fd: float):
    if cfg.backend == "jets":
        return (("jets", tol_jets),)
    if cfg.backend == "fd":
        return (("fd", tol_fd),)
    return (("jets", tol_jets), ("fd", tol_fd))


def _run_theorem1(cfg: SuiteConfig, members) -> list:
    rows = []
    base = cfg.base_domain()
    for backend, tol in _backends_for(cfg, cfg.tol_theorem1,
                                      cfg.tol_theorem1_fd):
        for f in members:
            expected = "pass" if f.expected_regular else "fail"
            pts = base.merge(f.domain).sample(
                cfg.samples, seed=_mix_seed(cfg.seed, "theorem1", f.fid))

            def batch(p, f=f, backend=backend):
                return regularity.theorem1_residuals(
                    f, p, backend=backend).items()

            data, skipped, msg, kept = _robust(batch, pts)
            if data is None:
                rows.append(_error_row("theorem1", backend, f,
                                       "Theorem 1", msg, expected))
                continue
            for key, anchor in _ITEM_ANCHORS:
                arr = data[key]
                stats = {"n": arr.size, "max": float(np.max(arr)),
                         "mean": float(np.mean(arr)),
                         "worst": _worst_point(pts, kept, arr), "tol": tol}
                if skipped:
                    stats["skipped"] = skipped
                status = residual_status(arr, tol)
                rows.append(Row("theorem1", backend, f.fid, anchor,
                                stats, status, expected))
    return rows


def _run_lemma1(cfg: SuiteConfig, members) -> list:
    rows = []
    base = cfg.base_domain()
    for backend, tol in _backends_for(cfg, cfg.tol_lemma1, cfg.tol_lemma1_fd):
        for f in members:
            pts = base.merge(f.domain).sample(
                cfg.samples, seed=_mix_seed(cfg.seed, "lemma1", f.fid))

            def batch(p, f=f, backend=backend):
                return {"residual": np.asarray(
                    regularity.lemma1_residual(f, p, backend=backend))}

            data, skipped, msg, kept = _robust(batch, pts)
            if data is None:
                rows.append(_error_row("lemma1", backend, f, "Lemma 1",
                                       msg, "pass"))
                continue
            arr = data["residual"]
            stats = {"n": arr.size, "max": float(np.max(arr)),
                     "mean": float(np.mean(arr)),
                     "worst": _worst_point(pts, kept, arr), "tol": tol}
            if skipped:
                stats["skipped"] = skipped
            status = residual_status(arr, tol)
            # Lemma 1 needs no regularity: every member must pass.
            rows.append(Row("lemma1", backend, f.fid, "Lemma 1", stats,
                            status, "pass"))
    return rows


def _run_hyperholomorphy(cfg: SuiteConfig, members) -> list:
    rows = []
    base = cfg.base_domain()
    anchor = "Equations (1)-(2) with Cullen regularity"
    for f in members:
        expected = "pass" if f.expected_hyperholomorphic else "fail"
        pts = base.merge(f.domain).sample(
            cfg.samples, seed=_mix_seed(cfg.seed, "hyperholomorphy", f.fid))

        def batch(p, f=f):
            rep = regularity.hyperholomorphy_report(f, p)
            return {"eq1": np.asarray(rep.eq1.norm()),
                    "eq2": np.asarray(rep.eq2.norm()),
                    "cullen": np.asarray(cullen_left(f, p).norm()),
                    "uv_imag": np.maximum(np.asarray(rep.u.imag_norm()),
                                          np.asarray(rep.v.imag_norm()))}

        data, skipped, msg, kept = _robust(batch, pts)
        if data is None:
            rows.append(_error_row("hyperholomorphy", "jets", f, anchor,
                                   msg, expected))
            continue
        eqs = np.maximum(data["eq1"], data["eq2"])
        eq_max = float(np.max(eqs))
        cullen_max = float(np.max(data["cullen"]))
        combined = np.maximum(eqs, data["cullen"])
        stats = {"n": data["eq1"].size, "eq_max": eq_max,
                 "cullen_max": cullen_max,
                 "uv_imag_max": float(np.max(data["uv_imag"])),
                 "worst": _worst_point(pts, kept, combined),
                 "tol": cfg.tol_hyperholo}
        if skipped:
            stats["skipped"] = skipped
        status = residual_status(combined, cfg.tol_hyperholo)
        rows.append(Row("hyperholomorphy", "jets", f.fid, anchor, stats,
                        status, expected))
    return rows


def _run_fueter(cfg: SuiteConfig, members) -> list:
    rows = []
    base = cfg.base_domain()
    anchor = "Fueter's theorem (D_l Delta f = 0)"
    for f in members:
        # For linear controls D_l Delta f vanishes trivially, so they
        # prove nothing either way; report them as informational.
        expected = "info" if f.control else "pass"
        pts = base.merge(f.domain).sample(
            cfg.samples, seed=_mix_seed(cfg.seed, "fueter_theorem", f.fid))

        def batch(p, f=f):
            return {"residual": np.asarray(fueter_laplacian(f, p).norm())}

        data, skipped, msg, kept = _robust(batch, pts)
        if data is None:
            rows.append(_error_row("fueter_theorem", "jets", f, anchor,
                                   msg, expected))
            continue
        arr = data["residual"]
        stats = {"n": arr.size, "max": float(np.max(arr)),
                 "mean": float(np.mean(arr)),
                 "worst": _worst_point(pts, kept, arr), "tol": cfg.tol_fueter}
        if skipped:
            stats["skipped"] = skipped
        status = residual_status(arr, cfg.tol_fueter)
        rows.append(Row("fueter_theorem", "jets", f.fid, anchor, stats,
                        status, expected))
    return rows


def _integral_surfaces(cfg: SuiteConfig):
    if cfg.surfaces:
        return [integral.parse_surface(s) for s in cfg.surfaces]
    return [integral.sphere3(Quaternion(0.0, 2.0, 0.0, 0.0), 1.0,
                             cfg.resolution),
            integral.sphere3(Quaternion(1.0, 0.0, 2.0, 0.0), 0.8,
                             cfg.resolution)]


def _run_integral(cfg: SuiteConfig, members) -> list:
    rows = []
    anchor = "Integral Theorem"
    surfaces = _integral_surfaces(cfg)
    for f in members:
        expected = "fail" if f.control else "pass"
        for K in surfaces:
            try:
                rep = integral.theorem2_report(f, K)
            except _RUNTIME_ERRORS as exc:
                rows.append(_error_row("integral", "jets", f,
                                       f"{anchor} on {K.name}",
                                       f"{type(exc).__name__}: {exc}",
                                       expected))
                continue
            rel = rep.residual / rep.scale
            stats = {"surface": K.name, "nodes": K.node_count,
                     "lhs_norm": float(rep.lhs.norm()),
                     "rhs_norm": float(rep.rhs.norm()),
                     "residual": rep.residual, "scale": rep.scale,
                     "rel": rel, "tol": cfg.tol_integral}
            status = rep.status(cfg.tol_integral)
            rows.append(Row("integral", "jets", f.fid,
                            f"{anchor} on {K.name}", stats, status,
                            expected))
    return rows


def _run_generalized(cfg: SuiteConfig, members) -> list:
    rows = []
    anchor = "Generalized Cullen-regularity (Integral Theorem family)"
    if cfg.surfaces:
        family = [integral.parse_surface(s) for s in cfg.surfaces]
    else:
        family = integral.standard_family(cfg.resolution)
    for f in members:
        expected = "pass" if f.expected_regular else "fail"
        try:
            verdict = integral.generalized_regularity_test(
                f, family, cfg.tol_generalized)
        except _RUNTIME_ERRORS as exc:
            rows.append(_error_row("generalized", "jets", f, anchor,
                                   f"{type(exc).__name__}: {exc}", expected))
            continue
        worst_f = max(r[1] / r[2] for r in verdict.rows)
        worst_if = max(r[3] / r[4] for r in verdict.rows)
        stats = {"surfaces": len(verdict.rows), "worst_rel_f": worst_f,
                 "worst_rel_iota_f": worst_if, "tol": cfg.tol_generalized}
        status = verdict.status
        rows.append(Row("generalized", "jets", f.fid, anchor, stats,
                        status, expected))
    return rows


_RUNNERS = {
    "theorem1": _run_theorem1,
    "lemma1": _run_lemma1,
    "hyperholomorphy": _run_hyperholomorphy,
    "fueter_theorem": _run_fueter,
    "integral": _run_integral,
    "generalized": _run_generalized,
}

_DEFAULT_INTEGRAL_IDS = ("power:1", "power:2", "power:3", "iota", "conj")


def _members_for(suite: str, cfg: SuiteConfig):
    if cfg.functions:
        try:
            return [catalog.from_string(s) for s in cfg.functions]
        except (UnknownFunction, BadParams) as exc:
            raise ConfigError(str(exc)) from None
    inventory = catalog.default_inventory()
    if suite == "hyperholomorphy":
        return [f for f in inventory
                if f.expected_hyperholomorphic or f.control]
    if suite == "fueter_theorem":
        return [f for f in inventory if f.expected_regular]
    if suite == "integral":
        return [catalog.from_string(s) for s in _DEFAULT_INTEGRAL_IDS]
    return list(inventory)


# -- report assembly -------------------------------------------------------

def run_suite(cfg: SuiteConfig):
    """Execute every configured suite; return (report text, exit code)."""
    cfg.validate()
    t0 = time.time()
    rows = []
    for suite in cfg.suites:
        members = _members_for(suite, cfg)
        if suite in ("integral", "generalized") and cfg.surfaces:
            # Surface parse errors are configuration errors, not runtime.
            try:
                for s in cfg.surfaces:
                    integral.parse_surface(s)
            except BadParams as exc:
                raise ConfigError(str(exc)) from None
        try:
            rows.extend(_RUNNERS[suite](cfg, members))
        except EmptyDomain as exc:
            raise ConfigError(f"{suite}: {exc}") from None
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
        flags = []
        if f.control:
            flags.append("control")
        if f.expected_regular:
            flags.append("expected-regular")
        if f.expected_hyperholomorphic:
            flags.append("expected-hyperholomorphic")
        lines.append(f"{f.fid} {' '.join(flags)} | {f.domain.describe()}")
    return "\n".join(lines) + "\n"


def _write_report(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


_CHECK_TOL_KEYS = {
    "theorem1": ("tol_theorem1", "tol_theorem1_fd"),
    "lemma1": ("tol_lemma1", "tol_lemma1_fd"),
    "hyperholomorphy": ("tol_hyperholo",),
    "fueter_theorem": ("tol_fueter",),
    "integral": ("tol_integral",),
    "generalized": ("tol_generalized",),
}


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
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--res", type=int, default=16)
    p_chk.add_argument("--backend", default="jets",
                       choices=("jets", "fd", "both"))
    p_chk.add_argument("--samples", type=int, default=200)
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
