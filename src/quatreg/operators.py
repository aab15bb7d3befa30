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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams, DegenerateChart, OnRealAxis
from .jets import QJet, RJet
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
    # frame; each is computed once, on first use.
    @cached_property
    def iota_alpha_inv(self) -> QJet:
        return self.iota.derivative(2).inverse()

    @cached_property
    def iota_beta_inv(self) -> QJet:
        return self.iota.derivative(3).inverse()


def _chart(p: Quaternion) -> SphericalPoint:
    """The chart of p, refused within R_MIN of the real axis."""
    sp = to_spherical(p)
    if np.any(sp.r <= R_MIN):
        raise OnRealAxis(f"imaginary radius below {R_MIN:g}")
    return sp


def spherical_frame(p: Quaternion, order: int) -> SphericalFrame:
    """The chart frame of p at jet order >= 1; refused at r <= R_MIN
    (OnRealAxis) and at sin(beta) <= S_MIN (DegenerateChart)."""
    sp = _chart(p)
    sin_beta = np.sin(sp.beta)
    if np.any(sin_beta <= S_MIN):
        raise DegenerateChart(
            f"sin(beta) below {S_MIN:g}; point too close to the plane t + z*k")
    jt = RJet.seed(sp.t, 0, order)
    jr = RJet.seed(sp.r, 1, order)
    ja = RJet.seed(sp.alpha, 2, order)
    jb = RJet.seed(sp.beta, 3, order)
    sa, ca = ja.sin(), ja.cos()
    sb, cb = jb.sin(), jb.cos()
    ix, iy, iz = ca * sb, sa * sb, cb
    seed = QJet(jt, jr * ix, jr * iy, jr * iz)
    iota = QJet(RJet.zero(order), ix, iy, iz)
    return SphericalFrame(sp, seed, iota, sin_beta)


def angular_jet(frame: SphericalFrame, g: QJet) -> QJet:
    """d/d_l(iota) applied to a jet-valued quantity; drops one order."""
    return (frame.iota_alpha_inv * g.derivative(2)
            + frame.iota_beta_inv * g.derivative(3))


def _fueter_sum(dt, dx, dy, dz, out=None) -> Quaternion:
    """dt + i dx + j dy + k dz as signed components: with d_0..d_3 =
    dt..dz, component i of e_k d_k is sign * d_k[q] for the term (k, q,
    sign) of _HAMILTON[i], and component i sums those terms left to right,
    with no term skipped.  With out, a (4, n) array, component i is written
    into out[i] and is that row."""
    d = [p.components() for p in (dt, dx, dy, dz)]
    comps = []
    for i, ((k, q, _), *rest) in enumerate(_HAMILTON):
        acc = d[k][q]
        for k, q, sign in rest:
            if out is not None:
                acc = (np.add if sign > 0 else np.subtract)(
                    acc, d[k][q], out=out[i])
            else:
                acc = acc + d[k][q] if sign > 0 else acc - d[k][q]
        comps.append(acc)
    return Quaternion(*comps)


def fueter_of_jet(g: QJet, out=None) -> Quaternion:
    """D_l from the first-order coefficients of a Cartesian-seeded jet,
    written into the rows of out, a (4, n) array, when given."""
    return _fueter_sum(*g.first_partials(), out=out)


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
    """The angular operator d/d_l(iota) applied to f at p."""
    frame = spherical_frame(p, 1)
    if not _fd(backend):
        return angular_jet(frame, f.eval_jet(frame.seed)).value
    sp = frame.chart
    da = _fd_sph_partial(f, sp, 2)
    db = _fd_sph_partial(f, sp, 3)
    return frame.iota_alpha_inv.value * da + frame.iota_beta_inv.value * db


def _laplacian_jet(g: QJet) -> QJet:
    """The Laplacian of a Cartesian-seeded jet, two orders lower."""
    lap = g.derivative(0).derivative(0)
    for v in (1, 2, 3):
        lap = lap + g.derivative(v).derivative(v)
    return lap


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

