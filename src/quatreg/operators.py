"""Differential operators on quaternionic functions, evaluated pointwise.

The left Fueter operator in Cartesian coordinates is

    D_l f = df/dt + i df/dx + j df/dy + k df/dz

with the units multiplying from the left.  Off the plane t + z*k it has the
spherical form

    D_l = d/dt + iota d/dr - (1/r) d/d_l(iota),

where the angular part is

    d/d_l(iota) = (iota_alpha)^-1 d/dalpha + (iota_beta)^-1 d/dbeta,

iota_alpha and iota_beta being the alpha- and beta-derivatives of iota and
the inverses full quaternionic inverses applied by left multiplication.
The Cullen operator d/dt + iota d/dr annihilates Cullen-regular functions.

Every operator takes a function exposing eval_jet/eval_point (see
catalog.QFunction) plus a point, which may be batched.  Two backends are
available: "jets" (exact truncated-Taylor propagation, the primary) and
"fd" (Richardson-refined central differences, the independent oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DegenerateChart, IndexTooDeep, OnRealAxis
from .jets import (_DERIV, _NCOEF, _POS, MAX_ORDER, QJet, RJet, _check_order,
                   _sin_cos_derivs)
from .catalog import iota_of
from .quaternion import (_HAMILTON, Quaternion, SphericalPoint,
                         from_spherical, to_spherical)

#: Fixed guards: the spherical chart is refused at r <= R_MIN and at
#: sin(beta) <= S_MIN.
R_MIN = 1e-6
S_MIN = 1e-6

#: Central-difference base steps (first derivatives / second derivatives).
FD_STEP1 = 1e-5
FD_STEP2 = 1e-3


# -- chart frames ----------------------------------------------------------

@dataclass(frozen=True)
class SphericalFrame:
    """Jets of the chart variables (t, r, alpha, beta) at a base point,
    with the Cartesian components and iota expressed through them."""

    chart: SphericalPoint
    seed: QJet            # (t, x, y, z) as jets of the chart variables
    iota: QJet
    sin_beta: np.ndarray | float
    # The inverses the angular operator applies, one order lower than the
    # frame; spherical_frame builds them after its guards.
    iota_alpha_inv: QJet
    iota_beta_inv: QJet


def _chart(p: Quaternion) -> SphericalPoint:
    """The chart of p, refused within R_MIN of the real axis."""
    sp = to_spherical(p)
    if np.any(sp.r <= R_MIN):
        raise OnRealAxis(f"imaginary radius below {R_MIN:g}")
    return sp


def _chart_rows(order: int) -> tuple:
    """Row positions of a jet of order >= 1 in (t, r, alpha, beta): the
    rows alpha^i beta^j (i + j <= order) with their i and j, the rows
    beta^j, and the rows m of degree below the order among the first with
    the rows m + e_r they shift into."""
    pos = _POS[order]
    ij = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    low = [(i, j) for i, j in ij if i + j < order]
    return (np.array([pos[(0, 0, i, j)] for i, j in ij]),
            np.array([i for i, _ in ij]), np.array([j for _, j in ij]),
            np.array([pos[(0, 0, 0, j)] for j in range(order + 1)]),
            np.array([pos[(0, 0, i, j)] for i, j in low]),
            np.array([pos[(0, 1, i, j)] for i, j in low]))


_CHART_ROWS = {n: _chart_rows(n) for n in range(1, MAX_ORDER + 1)}


def _taylor_rows(angle, order: int, sin=None) -> np.ndarray:
    """The Taylor rows g^(m)(angle) / m!, m = 0..order, of sin and of cos
    about angle, as one (2, order + 1) + batch array; sin, when given, is
    np.sin(angle)."""
    rows = np.array(_sin_cos_derivs(angle, order, sin))
    for m in range(2, order + 1):
        rows[:, m] /= math.factorial(m)
    return rows


def _guarded_chart(p: Quaternion, order: int) -> tuple:
    """The chart of p, sin(beta) and the Taylor rows of sin and cos about
    beta at jet order `order`, all from one sine of beta, after the guards
    of spherical_frame in its order."""
    sp = _chart(p)
    sin_beta = np.sin(sp.beta)
    if np.any(sin_beta <= S_MIN):
        raise DegenerateChart(
            f"sin(beta) below {S_MIN:g}; point too close to the plane t + z*k")
    if order < 1:
        raise IndexTooDeep(f"the chart frame needs jet order >= 1, got {order}")
    _check_order(order)
    return sp, sin_beta, _taylor_rows(sp.beta, order, sin_beta)


def _iota_jet(sp: SphericalPoint, sc_b: np.ndarray, order: int) -> tuple:
    """iota at the chart sp as a jet of the chart variables and its
    coefficient rows, one (3, N) + batch array for (x, y, z) that the
    jet's x, y and z wrap; sc_b is the Taylor rows about beta."""
    ab, i, j, beta, _, _ = _CHART_ROWS[order]
    sc_a = _taylor_rows(sp.alpha, order)
    iota_cm = np.zeros((3, _NCOEF[order]) + np.shape(sp.r))
    # + 0.0 turns an exact -0 into +0, as the products' sums of +-0 do.
    iota_cm[:2, ab] = sc_a[::-1, i] * sc_b[0, j] + 0.0
    iota_cm[2, beta] = sc_b[1]
    iota = QJet(RJet.zero(order), *(RJet._wrap(order, c) for c in iota_cm))
    return iota, iota_cm


def _iota_inverses(iota: QJet) -> tuple:
    """(iota_alpha)^-1 and (iota_beta)^-1, one order below iota."""
    return iota.derivative(2).inverse(), iota.derivative(3).inverse()


def spherical_frame(p: Quaternion, order: int) -> SphericalFrame:
    """The chart frame of p at jet order 1..3; refused at r <= R_MIN
    (OnRealAxis), at sin(beta) <= S_MIN (DegenerateChart), then at order
    < 1 (IndexTooDeep) and order > 3 (OrderTooHigh).

    Every coefficient is written in closed form, with one rounding:
    iota_x[alpha^i beta^j] = cos_alpha[i] * sin_beta[j], iota_y the same
    with sin_alpha[i], iota_z[beta^j] = cos_beta[j], where g[m] is the
    Taylor row g^(m)/m! about alpha or beta.  The seed's x, y and z are
    iota times r on the rows without r, and iota[m] in the row m + e_r.
    Every other row is +0, and so is any product that is an exact zero.
    So each coefficient has the bits the jet algebra gives the seeds of
    t, r, alpha and beta, their sin and cos, the products cos(alpha) *
    sin(beta), sin(alpha) * sin(beta) and r * iota, zero signs included."""
    sp, sin_beta, sc_b = _guarded_chart(p, order)
    jt = RJet.seed(sp.t, 0, order)
    *_, low, up = _CHART_ROWS[order]
    iota, iota_cm = _iota_jet(sp, sc_b, order)
    xyz_cm = iota_cm * sp.r
    xyz_cm[:, up] = iota_cm[:, low]
    seed = QJet(jt, *(RJet._wrap(order, c) for c in xyz_cm))
    return SphericalFrame(sp, seed, iota, sin_beta, *_iota_inverses(iota))


def angular_jet(frame: SphericalFrame, g: QJet) -> QJet:
    """d/d_l(iota) applied to a jet-valued quantity; drops one order."""
    return (frame.iota_alpha_inv * g.derivative(2)
            + frame.iota_beta_inv * g.derivative(3))


def _fueter_sum(dt, dx, dy, dz) -> Quaternion:
    """dt + i dx + j dy + k dz as signed components: with d_0..d_3 =
    dt..dz, component i of e_k d_k is sign * d_k[q] for the term (k, q,
    sign) of _HAMILTON[i], and component i sums those terms left to right,
    with no term skipped."""
    d = [p.components() for p in (dt, dx, dy, dz)]
    comps = []
    for i, ((k, q, _), *rest) in enumerate(_HAMILTON):
        acc = d[k][q]
        for k, q, sign in rest:
            acc = acc + d[k][q] if sign > 0 else acc - d[k][q]
        comps.append(acc)
    return Quaternion(*comps)


def fueter_of_jet(g: QJet) -> Quaternion:
    """D_l from the first-order coefficients of a Cartesian-seeded jet."""
    return _fueter_sum(*g.first_partials())


def cullen_of_jet(g: QJet, iota0: Quaternion) -> Quaternion:
    """(d/dt + iota d/dr) g from a chart-frame jet (order >= 1), with iota0
    the value of iota at the base point."""
    dt, dr, _, _ = g.first_partials()
    return dt + iota0 * dr


def spherical_fueter_of_jet(frame: SphericalFrame, g: QJet,
                            angular: QJet) -> Quaternion:
    """D_l = d/dt + iota d/dr - (1/r) d/d_l(iota) from a jet g of the
    frame's chart variables (order >= 1) and its angular jet
    angular_jet(frame, g)."""
    return (cullen_of_jet(g, frame.iota.value)
            - angular.value * (1.0 / frame.chart.r))


# -- finite-difference helpers --------------------------------------------

#: The four shifts of a Richardson-refined difference, in units of its
#: base step h: +h/2, -h/2, +h, -h.
_FD_SHIFTS = (0.5, -0.5, 1.0, -1.0)


def _shifted(f, coords, var, h, build) -> list:
    """f at the four _FD_SHIFTS of coords[var], as four Quaternions shaped
    like f at coords.  f is called once, on a (4,)+batch stencil whose new
    axis comes just before the batch axes; build makes the point from the
    shifted coordinates."""
    batch = np.broadcast(*coords).shape
    stencil = (4,) + batch
    vals = list(coords)
    vals[var] = vals[var] + np.multiply(_FD_SHIFTS, h).reshape(
        (4,) + (1,) * len(batch))
    # A component of f that ignores coords[var] comes back batch-shaped.
    comps = [np.broadcast_to(c, np.broadcast_shapes(np.shape(c), stencil))
             for c in f.eval_point(build(*vals)).components()]
    tail = (slice(None),) * len(batch)
    return [Quaternion(*(c[(Ellipsis, k) + tail] for c in comps))
            for k in range(4)]


def _fd1(fs) -> Quaternion:
    """The first derivative from f at the four shifts of step FD_STEP1."""
    def central(plus, minus, hh):
        return (plus - minus) * (0.5 / hh)
    return (central(fs[0], fs[1], 0.5 * FD_STEP1) * 4.0
            - central(fs[2], fs[3], FD_STEP1)) * (1.0 / 3.0)


def _fd2(fs, f0: Quaternion, h: float) -> Quaternion:
    """The second derivative from f at the four shifts of step h and f0,
    f at the unshifted point."""
    def second(plus, minus, hh):
        return (plus - f0 * 2.0 + minus) * (1.0 / (hh * hh))
    return (second(fs[0], fs[1], 0.5 * h) * 4.0
            - second(fs[2], fs[3], h)) * (1.0 / 3.0)


def _fd_cart_partial(f, p, var):
    """d f / d(var) at p, var indexing (t, x, y, z); one call of f."""
    return _fd1(_shifted(f, p.components(), var, FD_STEP1, Quaternion))


def _fd_sph_partial(f, sp, var):
    """d f / d(var) at the chart point sp, var indexing (t, r, alpha,
    beta); one call of f."""
    return _fd1(_shifted(f, (sp.t, sp.r, sp.alpha, sp.beta), var, FD_STEP1,
                         lambda *v: from_spherical(SphericalPoint(*v))))


# -- the operators ---------------------------------------------------------

def _fd(backend: str) -> bool:
    """True for the "fd" backend, False for "jets"; any other is refused."""
    if backend not in ("jets", "fd"):
        raise BadParams(f"backend must be jets or fd, got {backend!r}")
    return backend == "fd"


def fueter_left(f, p: Quaternion, backend: str = "jets") -> Quaternion:
    """Cartesian left-Fueter operator D_l f at p."""
    if not _fd(backend):
        return fueter_of_jet(f.eval_jet(QJet.seed_cartesian(p, 1)))
    return _fueter_sum(*(_fd_cart_partial(f, p, v) for v in range(4)))


def fueter_left_spherical(f, p: Quaternion, backend: str = "jets") -> Quaternion:
    """Spherical form of D_l; matches fueter_left off the plane t + z*k."""
    if not _fd(backend):
        frame = spherical_frame(p, 1)
        g = f.eval_jet(frame.seed)
        return spherical_fueter_of_jet(frame, g, angular_jet(frame, g))
    return (cullen_left(f, p, backend="fd")
            - angular_derivative(f, p, backend="fd") * (1.0 / p.imag_norm()))


def cullen_left(f, p: Quaternion, backend: str = "jets") -> Quaternion:
    """Cullen operator (d/dt + iota d/dr) f at p."""
    if not _fd(backend):
        frame = spherical_frame(p, 1)
        return cullen_of_jet(f.eval_jet(frame.seed), iota_of(p))
    sp = _chart(p)
    return _fd_sph_partial(f, sp, 0) + iota_of(p) * _fd_sph_partial(f, sp, 1)


def angular_derivative(f, p: Quaternion, backend: str = "jets") -> Quaternion:
    """The angular operator d/d_l(iota) applied to f at p.  The fd backend
    builds no chart frame: it applies _angular_inverses, the values of the
    order-1 frame's iota inverses, to the alpha and beta differences, the
    inverses checked before f is called."""
    if not _fd(backend):
        frame = spherical_frame(p, 1)
        return angular_jet(frame, f.eval_jet(frame.seed)).value
    sp, ia, ib = _angular_inverses(p)
    return ia * _fd_sph_partial(f, sp, 2) + ib * _fd_sph_partial(f, sp, 3)


def _angular_inverses(p: Quaternion) -> tuple:
    """The chart of p and the values of spherical_frame(p, 1)'s
    iota_alpha_inv and iota_beta_inv, refused as that frame is: the
    frame's order-1 iota and _iota_inverses, with no seed built."""
    sp, _, sc_b = _guarded_chart(p, 1)
    ia, ib = _iota_inverses(_iota_jet(sp, sc_b, 1)[0])
    return sp, ia.value, ib.value


def _laplacian_map(order: int) -> tuple:
    """d^2/dx_v^2, v = 0..3, on a jet of order 2 or 3 as _DERIV's maps for
    d/dx_v composed: row m of the result is (c[src[v, m]] * first[v, m]) *
    second[v, m], the row m + 2 e_v times m_v + 2, then times m_v + 1."""
    src, first, second = [], [], []
    for v in range(4):
        s1, f1 = _DERIV[(order, v)]
        s2, f2 = _DERIV[(order - 1, v)]
        src.append(s1[s2])
        first.append(f1[s2])
        second.append(f2)
    return np.array(src), np.array(first), np.array(second)


_LAPLACIAN = {n: _laplacian_map(n) for n in (2, 3)}


def _laplacian_jet(g: QJet) -> QJet:
    """The Laplacian of a Cartesian-seeded jet of order 2 or 3, two orders
    lower.  Each component reads only the rows of _LAPLACIAN and sums its
    four second derivatives over v = 0..3 in that order: the float
    operations of g.derivative(v).derivative(v) summed, with no jet built
    between them."""
    src, first, second = _LAPLACIAN[g.order]
    order = g.order - 2
    comps = []
    for comp in g.components():
        if comp._mark == "zero":
            comps.append(RJet.zero(order))
            continue
        cm = comp._cm
        unit = (1,) * (cm.ndim - 1)
        rows = cm[src]
        rows *= first.reshape(first.shape + unit)
        rows *= second.reshape(second.shape + unit)
        lap = rows[0] + rows[1]
        lap += rows[2]
        lap += rows[3]
        comps.append(RJet._wrap(order, lap))
    return QJet(*comps)


def laplacian(f, p: Quaternion, backend: str = "jets") -> Quaternion:
    """Four-dimensional Laplacian of f at p."""
    if not _fd(backend):
        return _laplacian_jet(f.eval_jet(QJet.seed_cartesian(p, 2))).value
    f0 = f.eval_point(p)
    out = None
    for v in range(4):
        term = _fd2(_shifted(f, p.components(), v, FD_STEP2, Quaternion),
                    f0, FD_STEP2)
        out = term if out is None else out + term
    return out


def fueter_laplacian(f, p: Quaternion) -> Quaternion:
    """D_l applied to the Laplacian of f (order-3 jets; no FD backend)."""
    g = f.eval_jet(QJet.seed_cartesian(p, 3))
    return fueter_of_jet(_laplacian_jet(g))

