"""Slice decomposition f = u + iota*v and the regularity residual checkers.

The decomposition uses the canonical choices

    u = (1/2) d/d_l(iota) (iota f),      v = (1/2) d/d_l(iota) (f),

which by the angular identity (lemma1_residual checks it)

    d/d_l(iota)(iota f) + iota d/d_l(iota)(f) = 2 f

reconstruct f for ANY function differentiable in alpha and beta, regular or
not.  For left-Cullen-regular f the four equivalent characterizations all
hold; theorem1_residuals evaluates their six residual norms at a point:

    item 1:   (d/dt + iota d/dr) f
    item 2:   D_l(iota f) + iota D_l f + 2 f / r
    item 3a:  D_l f + 2 v / r
    item 3b:  D_l(iota f) + 2 u / r
    item 4a:  D_l(f / r^2) + 2 iota u / r^3
    item 4b:  D_l(iota f / r^2) - 2 iota v / r^3

The sign in item 4b follows from item 3 by the product rule
D_l(g / r^2) = (D_l g) / r^2 - 2 iota g / r^3: substituting g = iota f
gives D_l(iota f / r^2) = +2 iota v / r^3.  (Check it on f = p, where
u = t and v = r: the left side is 2 iota / r^2.)

A single order-1 spherical-frame jet evaluation of f powers all six.  The
hyperholomorphy equations, componentwise as 4-vectors,

    (1)  dv/dalpha (sin beta)^-1 + du/dbeta = 0
    (2)  du/dalpha (sin beta)^-1 - dv/dbeta = 0

need one extra order since u and v are themselves first derivatives.

Each quantity has one code path: ``_uv`` gives the jets of u and v from
a chart-frame jet of f to every checker, together with the angular jets
they halve, which theorem1_residuals hands on to D_l f and D_l(iota f).
``_theorem1_report`` holds the six item formulas, which the jets backend
and the finite-difference oracle feed with their own derivatives.  The
oracle evaluates f once per partial, on the stencil of its four shifts,
and forms iota f, f/r^2 and iota f/r^2 from that value.  Its stencils
run alpha, beta, Cartesian, then Cullen's t and r: that order fixes which
error a batch reports first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import QFunction, inv_r2, iota_of
from .errors import residual_status
from .jets import QJet, RJet
from .operators import (SphericalFrame, _fd, angular_derivative, angular_jet,
                        cullen_left, cullen_of_jet, fueter_left,
                        spherical_frame, spherical_fueter_of_jet)
from .quaternion import Quaternion

ITEM_NAMES = ("item1", "item2", "item3a", "item3b", "item4a", "item4b")


@dataclass(frozen=True)
class SliceParts:
    u: Quaternion
    v: Quaternion
    reconstruction: Quaternion


def _uv(frame: SphericalFrame, g: QJet, ig: QJet | None = None):
    """u and v of a chart-frame jet g of f, as jets one order lower, then
    the angular jets d/d_l(iota)(iota g) and d/d_l(iota)(g) they halve;
    ig is iota*g when the caller has it already."""
    if ig is None:
        ig = frame.iota * g
    a_ig, a_g = angular_jet(frame, ig), angular_jet(frame, g)
    return a_ig * 0.5, a_g * 0.5, a_ig, a_g


def slice_parts(f, p: Quaternion) -> SliceParts:
    frame = spherical_frame(p, 1)
    uj, vj, _, _ = _uv(frame, f.eval_jet(frame.seed))
    u, v = uj.value, vj.value
    return SliceParts(u, v, u + frame.iota.value * v)


def _stacked(f, *scales) -> QFunction:
    """(f, iota f), then (s f, s iota f) for each real scale s(q) passed,
    from one evaluation of f per point, as rows of a new leading axis."""
    def body(q):
        fv = f.eval_point(q)
        ifv = iota_of(q) * fv
        rows = [fv, ifv]
        for scale in scales:
            s = scale(q)
            rows += [fv * s, ifv * s]
        comps = [c for row in rows for c in row.components()]
        out = np.empty((4, len(rows))
                       + np.broadcast_shapes(*map(np.shape, comps)))
        for n, c in enumerate(comps):
            out[n % 4, n // 4] = c
        return Quaternion(*out)
    return QFunction(f"stacked({f.fid})", body)


def lemma1_residual(f, p: Quaternion, backend: str = "jets"):
    """Norm of d/d_l(iota)(iota f) + iota d/d_l(iota)(f) - 2 f(p).

    On jets this is 2 (u + iota v - f), which scaling by two leaves
    exact."""
    if _fd(backend):
        a = angular_derivative(_stacked(f), p, backend="fd")
        return (a[1] + iota_of(p) * a[0] - f.eval_point(p) * 2.0).norm()
    frame = spherical_frame(p, 1)
    g = f.eval_jet(frame.seed)
    u, v, _, _ = _uv(frame, g)
    return ((u.value + frame.iota.value * v.value - g.value) * 2.0).norm()


@dataclass(frozen=True)
class TheoremOneReport:
    item1: np.ndarray
    item2: np.ndarray
    item3a: np.ndarray
    item3b: np.ndarray
    item4a: np.ndarray
    item4b: np.ndarray

    def items(self) -> dict:
        return {name: getattr(self, name) for name in ITEM_NAMES}

    def max_residual(self) -> float:
        """The largest item residual; NaN when any of them is NaN."""
        return float(np.max([np.max(res) for res in self.items().values()]))

    def passes(self, tol: float) -> bool:
        return residual_status(self.max_residual(), tol) == "pass"


def _theorem1_report(iota0, r0, fval, u, v, cullen, dlf, dlif,
                     dl4a, dl4b) -> TheoremOneReport:
    """The six item residuals from f(p), u, v, the Cullen value and D_l of
    f, iota f, f/r^2 and iota f/r^2, as either backend computed them."""
    items = (cullen,
             dlif + iota0 * dlf + fval * (2.0 / r0),
             dlf + v * (2.0 / r0),
             dlif + u * (2.0 / r0),
             dl4a + iota0 * u * (2.0 / np.power(r0, 3)),
             dl4b - iota0 * v * (2.0 / np.power(r0, 3)))
    return TheoremOneReport(*(np.asarray(q.norm()) for q in items))


def theorem1_residuals(f, p: Quaternion,
                       backend: str = "jets") -> TheoremOneReport:
    if _fd(backend):
        # Independent oracle; the order of evaluation fixes which error
        # a point outside the domain reports first.
        iota0, fval = iota_of(p), f.eval_point(p)
        a = angular_derivative(_stacked(f), p, backend="fd")
        d = fueter_left(_stacked(f, inv_r2), p, backend="fd")
        return _theorem1_report(
            iota0, p.imag_norm(), fval, a[1] * 0.5, a[0] * 0.5,
            cullen_left(f, p, backend="fd"), d[0], d[1], d[2], d[3])
    frame = spherical_frame(p, 1)
    g = f.eval_jet(frame.seed)
    ig = frame.iota * g
    r0 = frame.chart.r
    rj = RJet.seed(r0, 1, 1)
    r2_inv = (rj * rj).recip()
    iota0 = frame.iota.value
    u, v, a_ig, a_g = _uv(frame, g, ig)
    g4a, g4b = g * r2_inv, ig * r2_inv
    return _theorem1_report(
        iota0, r0, g.value, u.value, v.value, cullen_of_jet(g, iota0),
        spherical_fueter_of_jet(frame, g, a_g),
        spherical_fueter_of_jet(frame, ig, a_ig),
        spherical_fueter_of_jet(frame, g4a, angular_jet(frame, g4a)),
        spherical_fueter_of_jet(frame, g4b, angular_jet(frame, g4b)))


@dataclass(frozen=True)
class HyperholoReport:
    eq1: Quaternion
    eq2: Quaternion
    u: Quaternion
    v: Quaternion
    cullen: Quaternion

    def max_uv_imag(self) -> float:
        """The larger imaginary norm of u and v; NaN when either has one."""
        return float(np.max([np.max(self.u.imag_norm()),
                             np.max(self.v.imag_norm())]))


def hyperholomorphy_report(f, p: Quaternion) -> HyperholoReport:
    """Residuals of equations (1) and (2), u, v and the Cullen value at p."""
    frame = spherical_frame(p, 2)
    g = f.eval_jet(frame.seed)
    uj, vj, _, _ = _uv(frame, g)
    sb_inv = 1.0 / frame.sin_beta
    _, _, du_da, du_db = uj.first_partials()
    _, _, dv_da, dv_db = vj.first_partials()
    eq1 = dv_da * sb_inv + du_db
    eq2 = du_da * sb_inv - dv_db
    # iota_of(p), not frame.iota.value: the Cullen value is then the
    # one cullen_left gives, bit for bit.
    return HyperholoReport(eq1, eq2, uj.value, vj.value,
                           cullen_of_jet(g, iota_of(p)))

