"""Quadrature over closed 3-hypersurfaces in 4-space and their interiors.

The one surface is the round 3-sphere, so closedness and smoothness hold
by construction, and Hypersurface owns its whole rule, built from center,
radius and resolution.  Nodes use a product rule: Gauss-Legendre in the
two non-periodic angles, a uniform (trapezoid) rule in the periodic angle,
and radial Gauss-Legendre shells for the interior.  For a 3-sphere of
radius R the weights sum to the known measures 2*pi^2*R^3 (surface) and
pi^2*R^4/2 (interior), which the self-tests pin.

The divergence identity over a closed hypersurface K with interior K*,

    int_K (f0 n0 + f1 n1 + f2 n2 + f3 n3) dS
        = int_K* (df0/dt + df1/dx + df2/dy + df3/dz) dV,

specializes with f_i = e_i f (e0..e3 = 1, i, j, k) to

    int_K n(p) f(p) dS = int_K* D_l f dV,

where n(p) = n0 + n1 i + n2 j + n3 k multiplies from the left.  For
left-Cullen-regular f the integrand equals -2v/r, giving the integral
theorem this module verifies.  The -2v/r integrand is evaluated through
the chart-free identity

    -2v/r = D_l f - (df/dt + iota df/dr),

which follows from the spherical form D_l = d/dt + iota d/dr
- (1/r) d/d_l(iota) and v = (1/2) d/d_l(iota) f; it needs only a
Cartesian jet and one radial directional derivative, so interior nodes on
the plane t + z*k (where the angular chart degenerates) are no obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import iota_of, parse_quaternion_literal
from .errors import (RUNTIME_ERRORS, BadParams, TouchesRealAxis,
                     residual_status)
from .jets import QJet
from .operators import fueter_of_jet
from .quaternion import Quaternion


class Hypersurface:
    """A round 3-sphere about `center` with radius R, and the one owner of
    the sphere rule: surface nodes, normals (point - center)/R, weights and
    the interior shells of volume_nodes, which hold for this sphere only.

    Needs a finite center (a real number t is t + 0i + 0j + 0k), a positive
    finite radius and a resolution of at least 2 (BadParams).  A ball that
    meets the real axis, where iota is undefined, is refused before any
    node is built (TouchesRealAxis), so every surface meets the integral
    theorem's precondition."""

    def __init__(self, center, radius, resolution):
        if not isinstance(center, Quaternion):
            center = Quaternion(float(center), 0.0, 0.0, 0.0)
        if not np.all(np.isfinite(center.components())):
            raise BadParams("sphere center must be finite")
        if not (0 < radius < math.inf):
            raise BadParams("sphere radius must be positive and finite")
        if resolution < 2:
            raise BadParams("sphere resolution must be at least 2")
        if float(center.imag_norm()) <= radius:
            raise TouchesRealAxis(
                f"ball around ({float(center.t):g},{float(center.x):g},"
                f"{float(center.y):g},{float(center.z):g}) with radius "
                f"{radius:g} meets the real axis")
        # chi and theta share one Gauss-Legendre rule on [0, pi].
        nodes, w = _gl_nodes(resolution, 0.0, math.pi)
        nphi = max(4, 2 * int(resolution))
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        wphi = 2.0 * math.pi / nphi
        chi, theta, phi = np.meshgrid(nodes, nodes, phi, indexing="ij")
        wgrid = w[:, None, None] * w[None, :, None] * wphi
        schi, stheta = np.sin(chi), np.sin(theta)
        n0 = np.cos(chi)
        n1 = schi * np.cos(theta)
        n2 = schi * stheta * np.cos(phi)
        n3 = schi * stheta * np.sin(phi)
        flat = lambda a: a.reshape(-1)
        self.normals = Quaternion(flat(n0), flat(n1), flat(n2), flat(n3))
        self.points = Quaternion(flat(center.t + radius * n0),
                                 flat(center.x + radius * n1),
                                 flat(center.y + radius * n2),
                                 flat(center.z + radius * n3))
        self.weights = flat(radius ** 3 * schi ** 2 * stheta * wgrid)
        self.name = f"sphere(r={radius:g},res={int(resolution)})"
        self.center = center
        self.radius = float(radius)
        self._radial_nodes = max(3, int(resolution) // 2)

    @property
    def node_count(self) -> int:
        return int(self.weights.size)

    @property
    def interior_count(self) -> int:
        """The number of interior nodes, without building them."""
        return self._radial_nodes * self.node_count

    def area(self) -> float:
        return float(np.sum(self.weights))

    def volume_nodes(self):
        """Interior nodes (points, weights), built anew on each call."""
        rho, wrho = _gl_nodes(self._radial_nodes, 0.0, 1.0)
        shell = self.points - self.center       # radius * unit normal
        pts = Quaternion(self.center.t + shell.t * rho[:, None],
                         self.center.x + shell.x * rho[:, None],
                         self.center.y + shell.y * rho[:, None],
                         self.center.z + shell.z * rho[:, None])
        # dV = (rho R)^3 drho/R * dS/R^3 * R ... collapses to
        # rho^3 * R * wrho * surface weight.
        w = (rho ** 3 * wrho)[:, None] * self.weights[None, :] * self.radius
        flat = lambda a: a.reshape(-1)
        return (Quaternion(flat(pts.t), flat(pts.x), flat(pts.y),
                           flat(pts.z)), flat(w))

    def volume(self) -> float:
        return float(np.sum(self.volume_nodes()[1]))


def _gl_nodes(n, lo, hi):
    xs, ws = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (hi - lo)
    return lo + (xs + 1.0) * half, ws * half


def sphere3(center: Quaternion, radius: float,
            resolution: int) -> Hypersurface:
    """The round 3-sphere of that center, radius and resolution; the rule
    and its checks are Hypersurface's."""
    return Hypersurface(center, radius, resolution)


def _wsum(q: Quaternion, w) -> Quaternion:
    return Quaternion(float(np.sum(q.t * w)), float(np.sum(q.x * w)),
                      float(np.sum(q.y * w)), float(np.sum(q.z * w)))


def _flux(vals: Quaternion, K: Hypersurface) -> Quaternion:
    """int_K n(p) f(p) dS from the values of f at K's surface nodes."""
    return _wsum(K.normals * vals, K.weights)


def surface_integral_left(f, K: Hypersurface) -> Quaternion:
    """int_K n(p) f(p) dS with n(p) multiplying from the left."""
    return _flux(f.eval_point(K.points), K)


def volume_integral(g, K: Hypersurface) -> Quaternion:
    """Weighted sum of a pointwise map g over the interior nodes."""
    pts, w = K.volume_nodes()
    return _wsum(g(pts), w)


def divergence(fs, pts: Quaternion) -> Quaternion:
    """df0/dt + df1/dx + df2/dy + df3/dz via one Cartesian jet seed."""
    seed = QJet.seed_cartesian(pts, 1)
    total = None
    for var, f in enumerate(fs):
        d = f.eval_jet(seed).first_partials()[var]
        total = d if total is None else total + d
    return total


def gauss_report(f0, f1, f2, f3, K: Hypersurface):
    fs = (f0, f1, f2, f3)
    n = K.normals
    vals = [f.eval_point(K.points) for f in fs]
    flux = (vals[0] * n.t + vals[1] * n.x + vals[2] * n.y + vals[3] * n.z)
    lhs = _wsum(flux, K.weights)
    rhs = volume_integral(lambda pts: divergence(fs, pts), K)
    rep = _report(K, lhs, rhs)
    return lhs, rhs, rep.residual, rep.scale


def _minus_two_v_over_r_of(g: QJet, pts: Quaternion, inv_r,
                           iota: Quaternion) -> Quaternion:
    """-2v/r at pts from g, an order-1 Cartesian jet of f there, with
    inv_r = 1/r and iota = iota_of(pts) at the same points."""
    dt, dx, dy, dz = g.first_partials()
    dr = (dx * pts.x + dy * pts.y + dz * pts.z) * inv_r
    return fueter_of_jet(g) - (dt + iota * dr)


def minus_two_v_over_r(f):
    """The integral theorem's interior integrand -2v/r as a pointwise map.

    Uses -2v/r = D_l f - (df/dt + iota df/dr), valid at every off-axis
    point, with df/dr the radial directional derivative.
    """
    def integrand(pts: Quaternion) -> Quaternion:
        g = f.eval_jet(QJet.seed_cartesian(pts, 1))
        return _minus_two_v_over_r_of(g, pts, 1.0 / pts.imag_norm(),
                                      iota_of(pts))
    return integrand


@dataclass(frozen=True)
class TheoremTwoReport:
    surface: str
    lhs: Quaternion
    rhs: Quaternion
    residual: float
    scale: float

    def status(self, tol: float) -> str:
        """pass/fail against tol relative to scale; error if not finite."""
        return residual_status(self.residual, tol * self.scale)

    def passes(self, tol: float) -> bool:
        return self.status(tol) == "pass"


def _report(K: Hypersurface, lhs: Quaternion,
            rhs: Quaternion) -> TheoremTwoReport:
    residual = float((lhs - rhs).norm())
    scale = float(lhs.norm() + rhs.norm() + 1.0)
    return TheoremTwoReport(K.name, lhs, rhs, residual, scale)


def theorem2_report(f, K: Hypersurface) -> TheoremTwoReport:
    return _report(K, surface_integral_left(f, K),
                   volume_integral(minus_two_v_over_r(f), K))


class _SphereJets:
    """What the integral-theorem reports of every member on one sphere K
    share, built once: the interior nodes and weights, the order-1
    Cartesian seed jet there, 1/r, and iota (the one iota_of) at the
    interior and at the surface nodes."""

    def __init__(self, K: Hypersurface):
        self.K = K
        self.pts, self.w = K.volume_nodes()
        self.seed = QJet.seed_cartesian(self.pts, 1)
        self.inv_r = 1.0 / self.pts.imag_norm()
        self.iota = iota_of(self.pts)
        self.iota_surface = iota_of(K.points)

    def reports(self, f):
        """theorem2_report of f and of iota_times(f) on K from one
        evaluation of f: its values at the surface nodes and one order-1
        Cartesian jet at the interior nodes.  iota*f's surface values are
        iota times f's, as in iota_times(f); its integrand is f's
        -2u/r = -2f/r - iota (-2v/r) by Lemma 1, with no jet of iota*f."""
        K = self.K
        vals, g = f.eval_point(K.points), f.eval_jet(self.seed)
        mv_f = _minus_two_v_over_r_of(g, self.pts, self.inv_r, self.iota)
        mv_iota_f = g.value * (-2.0 * self.inv_r) - self.iota * mv_f
        return (_report(K, _flux(vals, K), _wsum(mv_f, self.w)),
                _report(K, _flux(self.iota_surface * vals, K),
                        _wsum(mv_iota_f, self.w)))


@dataclass(frozen=True)
class GeneralizedVerdict:
    rows: tuple        # (surface, residual_f, scale_f, residual_iota_f, scale_iota_f)
    status: str        # pass / fail / error (a residual is not finite)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def worst_rel(self) -> tuple:
        """The largest relative residual over the rows, of f and of
        iota*f; NaN when any of them is NaN."""
        rel = np.array([(r[1] / r[2], r[3] / r[4]) for r in self.rows])
        return tuple(float(v) for v in np.max(rel, axis=0))


def _verdict(reports, tol: float) -> GeneralizedVerdict:
    """The verdict on f from its (f, iota*f) report pair per surface."""
    rows = tuple((rep_f.surface, rep_f.residual, rep_f.scale,
                  rep_i.residual, rep_i.scale) for rep_f, rep_i in reports)
    every = [rep for pair in reports for rep in pair]
    status = residual_status([rep.residual for rep in every],
                             [tol * rep.scale for rep in every])
    return GeneralizedVerdict(rows, status)


def _without_locals(exc: Exception) -> Exception:
    """exc with the locals of its traceback's frames cleared, its lines
    kept: a kept error then keeps no sphere's jets alive."""
    # Imported here, on the error path only: at import time it would add
    # 0.1 MB to the resident memory of every process.
    import traceback
    traceback.clear_frames(exc.__traceback__)
    return exc


def _generalized_sweep(members, family, tol: float):
    """Per member, its GeneralizedVerdict over family or the first runtime
    error it raised; and the surface plus interior nodes of every
    (member, sphere) pair evaluated.

    The family is visited one sphere at a time: what the members' reports
    share on a sphere is built once, every member still without an error
    is evaluated on it, and it is dropped before the next sphere's is
    built.  A member that raised is skipped on later spheres."""
    found = [[] for _ in members]   # per member: its report pairs, or error
    nodes = 0
    for K in family:
        live = [i for i, out in enumerate(found) if isinstance(out, list)]
        if not live:
            break
        nodes += len(live) * (K.node_count + K.interior_count)
        sphere = _SphereJets(K)
        for i in live:
            try:
                found[i].append(sphere.reports(members[i]))
            except RUNTIME_ERRORS as exc:
                found[i] = _without_locals(exc)
        del sphere      # else held while the next sphere's jets are built
    return [_verdict(out, tol) if isinstance(out, list) else out
            for out in found], nodes


def generalized_regularity_test(f, family, tol: float) -> GeneralizedVerdict:
    """Integral-theorem conformance for f and iota*f over a surface family."""
    family = tuple(family)
    if not family:
        raise BadParams("an empty surface family would pass any function")
    (verdict,), _ = _generalized_sweep([f], family, tol)
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


# -- surface descriptors ---------------------------------------------------

def parse_surface(text: str) -> Hypersurface:
    """Parse descriptors like 'sphere:center=0+2i+0j+0k,r=1,res=32'."""
    text = text.strip()
    if ":" not in text:
        raise BadParams(f"surface descriptor needs name:params, got {text!r}")
    name, params = text.split(":", 1)
    if name.strip() != "sphere":
        raise BadParams(f"unknown surface family {name.strip()!r}")
    fields = {}
    for tok in params.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise BadParams(f"surface parameter {tok!r} is not key=value")
        key, val = tok.split("=", 1)
        fields[key.strip()] = val.strip()
    try:
        center = parse_quaternion_literal(fields.pop("center"))
        radius = float(fields.pop("r"))
        res = int(fields.pop("res"))
    except KeyError as missing:
        raise BadParams(f"surface descriptor missing {missing}") from None
    except ValueError as exc:
        raise BadParams(f"bad number in surface descriptor {text!r}: "
                        f"{exc}") from None
    if fields:
        raise BadParams(f"unknown surface parameters {sorted(fields)}")
    return sphere3(center, radius, res)


def standard_family(resolution: int = 12) -> tuple:
    """Five axis-avoiding spheres clear of every catalog cut locus.

    Centers keep all three imaginary coordinates at least 1.2 in magnitude
    and radii at most 0.7, so on each ball |x|, |y|, |z| stay above 0.5 and
    every arctanh argument stays below the 0.95 sampling margin.
    """
    specs = (
        (Quaternion(0.0, 1.3, 1.3, 1.3), 0.6),
        (Quaternion(0.4, -1.4, 1.2, 1.3), 0.7),
        (Quaternion(-0.3, 1.2, -1.3, 1.4), 0.5),
        (Quaternion(0.2, 1.45, 1.25, -1.35), 0.7),
        (Quaternion(-0.5, -1.25, -1.4, -1.3), 0.65),
    )
    return tuple(sphere3(c, r, resolution) for c, r in specs)
