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

Both sides are sums that are linear in f's values or in the rows of its
order-1 Cartesian jet, with coefficients that depend only on the node, so
each is a BLAS matrix product (matmul) and no per-node integrand is
formed.  With d_r f = sum_v iota_v d_v f (v = x, y, z) the Cullen part is
d_t f + sum_u e_u sum_v iota_u iota_v d_v f, and by Lemma 1 iota*f's
integrand is -2u/r = -2f/r - iota (-2v/r).  An interior block's sums are
then its coefficient rows w, -2w/r, w iota_u and w iota_u iota_v
(_weight_rows), built once per block and shared by every member,
contracted with one matmul against each component's jet rows.  The
contraction against w is the block's weighted sum of f's jet, whose D_l
(operators.fueter_of_jet) is the sum of D_l f; one fixed table derived
from the Hamilton product signs the rest into the sums of the Cullen
part and of iota*f's integrand (_block_sides, _SIDES).  The surface side
is the 16 sums of w n_k f_q, one matmul, signed the same way
(_flux, _FLUX).  BLAS sums in its own order, so the last bits of these
sums may depend on the BLAS build; the integral suites call the same
functions on arrays of the same shapes, so they agree with each other
bit for bit.

Interior blocks are equal contiguous slices of at most _BLOCK nodes
(_blocks), and volume_integral is the one loop over them: it builds a
block's nodes and weights where the block is used
(Hypersurface.volume_nodes(block)), sums the block there and drops its
nodes before the next block's, so no array spans a sphere's interior and
memory grows with the surface, not the interior.  Both integral suites
take their interior sides from one block evaluator through it,
_SphereJets.interior_sums: the generalized sweep on its members, sphere
by sphere, and theorem2_report on [f].  Each block is seeded once, and
every member is evaluated on that one seed jet, whose inverse and iota
are built on first use and shared by the later members (QJet._once),
and whose powers continue one chain (catalog._ipow).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .catalog import iota_of, parse_quaternion_literal
from .errors import (RUNTIME_ERRORS, BadParams, TouchesRealAxis,
                     residual_status)
from .jets import QJet, RJet, _lift
from .operators import fueter_of_jet
from .quaternion import _HAMILTON, Quaternion, _hamilton


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
        # The interior's radial Gauss-Legendre rule: shell i lies at
        # rho_i R, and its volume weight per unit surface weight is
        # rho_i^3 wrho_i R (dV = (rho R)^3 R drho dS / R^3).
        rho, wrho = _gl_nodes(max(3, int(resolution) // 2), 0.0, 1.0)
        self._shells = rho, rho ** 3 * wrho

    @property
    def node_count(self) -> int:
        return int(self.weights.size)

    @property
    def interior_count(self) -> int:
        """The number of interior nodes, without building them."""
        return self._shells[0].size * self.node_count

    def area(self) -> float:
        return float(np.sum(self.weights))

    def volume_nodes(self, block=None):
        """The interior nodes (points, weights) of block, a contiguous
        slice of the shell-major order (shell by shell, each shell in the
        order of the surface nodes), or of the whole interior without one.
        They are built anew on each call, one shell segment at a time from
        that segment of the surface nodes and weights, into one (5, n)
        array whose rows are the four components and the weights."""
        n = self.node_count
        start, stop = ((0, self.interior_count) if block is None
                       else (block.start, block.stop))
        out = np.empty((5, stop - start))
        rho, rho_w = self._shells
        surface, center = self.points.components(), self.center.components()
        pos = start
        while pos < stop:
            shell, lo = divmod(pos, n)
            hi = min(n, lo + stop - pos)
            seg = out[:, pos - start:pos - start + hi - lo]
            for row, p, c in zip(seg, surface, center):
                np.subtract(p[lo:hi], c, out=row)   # radius * unit normal
                np.multiply(row, rho[shell], out=row)
                np.add(c, row, out=row)
            np.multiply(rho_w[shell], self.weights[lo:hi], out=seg[4])
            seg[4] *= self.radius
            pos += hi - lo
        return Quaternion(*out[:4]), out[4]

    def volume(self) -> float:
        return float(np.sum(self.volume_nodes()[1]))


def _gl_nodes(n, lo, hi):
    n = int(n)
    np.empty((n, n))    # leggauss's n x n matrix, before its n + 1 lists
    xs, ws = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + (xs + 1.0) * half, ws * half


def sphere3(center: Quaternion, radius: float,
            resolution: int) -> Hypersurface:
    """The round 3-sphere of that center, radius and resolution; the rule
    and its checks are Hypersurface's."""
    return Hypersurface(center, radius, resolution)


#: The most interior nodes an integrand is evaluated on at once.
_BLOCK = 8192


def _blocks(n: int) -> list:
    """range(n) as ceil(n / _BLOCK) contiguous slices of equal length (to
    within one node), each at most _BLOCK nodes long."""
    count = -(-n // _BLOCK)
    ends = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _longest_block(n: int) -> int:
    return max(b.stop - b.start for b in _blocks(n))


def _fill(rows, vals: Quaternion):
    """rows with the components of vals written into them, a 0-d or
    structural zero filling its row."""
    for row, comp in zip(rows, vals.components()):
        row[...] = comp
    return rows


def _wsum(vals, w) -> Quaternion:
    """The sums over the nodes of vals * w, vals a Quaternion or a (4, n)
    array of the components, which is overwritten with vals * w: one
    multiply and one sum along axis 1, with the bits of each component's
    product summed alone."""
    if isinstance(vals, Quaternion):
        vals = _fill(np.empty((4, w.size)), vals)
    vals *= w
    return Quaternion(*(float(s) for s in vals.sum(axis=1)))


def _unit_terms(k: int, i: int) -> tuple:
    """(q, sign): component i of e_k x is sign * x_q (_HAMILTON)."""
    (q, sign), = [(q, sign) for kk, q, sign in _HAMILTON[i] if kk == k]
    return q, sign


def _flux_table():
    """The (4, 16) table of signs that takes the 16 surface sums
    S[k, q] = sum w n_k f_q to int_K n f dS: component i of n f sums
    sign * S[k, q] over the terms (k, q, sign) of _HAMILTON[i]."""
    table = np.zeros((4, 4, 4))
    for i, terms in enumerate(_HAMILTON):
        for k, q, sign in terms:
            table[i, k, q] = sign
    return table.reshape(4, 16)


_FLUX = _flux_table()

#: The coefficient rows an interior block's members share: w, -2w/r, the
#: rows 1 + u of w iota_u (u = 1, 2, 3 for x, y, z), and w iota_u iota_v
#: for the pairs of _PAIRS, from row 5 on.
_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_ROWS = 5 + len(_PAIRS)


def _side_table():
    """The (8, 4 * _ROWS * 5) table of signs that takes the contractions
    P[q, a, b] = sum over a block of coefficient row a times row b of
    component q of f's order-1 Cartesian jet (b = 0 the value, 1 + v the
    partial d_v, v = 0..3 for t..z) to the block sums of f's Cullen part
    d_t f + iota d_r f (entries 0-3) and of iota*f's -2u/r (4-7).

    With d_r f = sum_v iota_v d_v f, iota d_r f = sum_u e_u sum_v iota_u
    iota_v d_v f.  By Lemma 1, iota*f's -2u/r = -2f/r - iota (-2v/r),
    and in iota (-2v/r) = iota D_l f - iota (d_t f + iota d_r f) =
    sum_{v,u} iota_v e_v e_u d_u f + d_r f the terms with v = u cancel,
    leaving

        -2u/r = -2f/r - sum_{v != u} e_v e_u iota_v d_u f.

    Every term is one P entry times a sign, for e_u x and e_v e_u x are
    signed components of x."""
    table = np.zeros((8, 4, _ROWS, 5))
    for i in range(4):
        table[i, i, 0, 1] = 1.0
        for u in (1, 2, 3):
            q, sign = _unit_terms(u, i)
            for v in (1, 2, 3):
                pair = _PAIRS.index((min(u, v), max(u, v)))
                table[i, q, 5 + pair, 1 + v] += sign
        table[4 + i, i, 1, 0] = 1.0
        for v, u in itertools.permutations((1, 2, 3), 2):
            # e_v e_u = sign_vu e_s
            (s, sign_vu), = [(s, sign) for s, terms in enumerate(_HAMILTON)
                             for k, q, sign in terms if (k, q) == (v, u)]
            q, sign = _unit_terms(s, i)
            table[4 + i, q, 1 + v, 1 + u] -= sign_vu * sign
    return table.reshape(8, -1)


_SIDES = _side_table()


def _weighted_normals(K: Hypersurface, rows):
    """rows, four rows of K's nodes, holding w n_k, k = 0..3; returned."""
    for row, n in zip(rows, K.normals.components()):
        np.multiply(K.weights, n, out=row)
    return rows


def _flux(rows) -> Quaternion:
    """int_K n(p) f(p) dS from rows, an (8, nodes) array of K's weighted
    normals (_weighted_normals) over f's values at the surface nodes: one
    matmul of the halves gives the 16 sums of w n_k f_q, and _FLUX signs
    them."""
    sums = rows[:4] @ rows[4:8].T
    return Quaternion(*(_FLUX @ sums.reshape(16)).tolist())


def surface_integral_left(f, K: Hypersurface) -> Quaternion:
    """int_K n(p) f(p) dS with n(p) multiplying from the left."""
    vals = f.eval_point(K.points)
    rows = np.empty((8, K.node_count))
    _fill(rows[4:], vals)
    return _flux(_weighted_normals(K, rows))


def volume_integral(g, K: Hypersurface) -> Quaternion:
    """Weighted sum of a pointwise map g over the interior nodes, the one
    loop over a sphere's blocks.  Per block of _blocks the nodes are built,
    g is called on them and its values summed there (_wsum), or, if g
    returns a block contraction (a function of the weights), that forms
    the block's sums (_SphereJets.interior_sums).  The block sums are added
    in block order.  Only _block_sum's call holds a block's nodes, so they
    are dropped before the next block's are built."""
    return reduce(operator.add, (_block_sum(g, *K.volume_nodes(block))
                                 for block in _blocks(K.interior_count)))


def _block_sum(g, pts: Quaternion, w):
    vals = g(pts)
    return vals(w) if callable(vals) else _wsum(vals, w)


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


def _weight_rows(p: Quaternion, w, buf):
    """A block's coefficient rows (see _PAIRS) from its nodes p and
    weights w, written into the start of buf, a flat array, and returned
    as an (_ROWS, n) array."""
    rows = buf[:_ROWS * w.size].reshape(_ROWS, w.size)
    iota = iota_of(p).components()
    rows[0] = w
    np.divide(w, p.imag_norm(), out=rows[1])
    rows[1] *= -2.0
    for u in (1, 2, 3):
        np.multiply(w, iota[u], out=rows[1 + u])
    for row, (u, v) in zip(rows[5:], _PAIRS):
        np.multiply(rows[1 + u], iota[v], out=row)
    return rows


def _block_sides(g: QJet, rows) -> np.ndarray:
    """The block sums of -2v/r and of iota*f's -2u/r from g, f's order-1
    Cartesian jet on the block, and the block's coefficient rows
    (_weight_rows): per component of g that is not a structural zero one
    matmul of the rows against its five jet rows.  The sums against the
    row w are the block's w-weighted sum of g, itself an order-1 jet, so
    fueter_of_jet of it is the block sum of D_l f; -2v/r's sum is that
    less the Cullen part's, -2v/r = D_l f - (d_t f + iota d_r f), and
    _SIDES gives the Cullen part's and iota*f's.  Returned as a (2, 4)
    array, a row of components per sum.  A NaN or infinity anywhere in g
    makes both sums NaN."""
    n = rows.shape[1]
    sums = np.zeros((4, _ROWS, 5))
    for out, comp in zip(sums, g.components()):
        if comp._mark == "zero":
            continue
        cm = comp._cm
        if cm.shape[1:] != (n,):    # a constant without the batch axis
            cm = np.broadcast_to(_lift(cm, 1), (5, n))
        np.matmul(rows, cm.T, out=out)
    d_l = fueter_of_jet(QJet(*(RJet._wrap(1, jet) for jet in sums[:, 0])))
    sides = (_SIDES @ sums.reshape(-1)).reshape(2, 4)
    sides[0] = d_l.components() - sides[0]
    return sides


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
    """The Integral Theorem's two sides for f on K: surface_integral_left,
    and the interior side of _SphereJets' block evaluator on [f], the one
    the generalized sweep uses, which raises f's first error."""
    lhs = surface_integral_left(f, K)
    sums = _SphereJets(K, surface=False).interior_sums([f], [lhs])
    return _report(K, lhs, Quaternion(*sums[0, 0]))


class _SphereJets:
    """What the integral-theorem reports of every member on one sphere K
    share: the buffers every member fills in place, so memory is not handed
    back and faulted in again.  These are the order-1 Cartesian seed jet of
    the longest block of _blocks, whose rows below the value are written
    here and only its value rows per block, and rows, a flat array of
    _ROWS rows as long as that block or, unless surface is false, as the
    surface if that is longer.  The surface sides view its start as nine
    rows of the surface's length: K's weighted normals, a member's values
    and a scratch row.  Each block views it as _ROWS rows of the block's
    length: its coefficient rows, which every member's jet is contracted
    against (_block_sides).  Each view is C-contiguous, so a member's sums
    keep their bits whichever length rows has.  A block's nodes, weights,
    iota (the one iota_of) and 1/r are built when it is visited and
    dropped with it (volume_integral)."""

    def __init__(self, K: Hypersurface, surface: bool = True):
        self.K = K
        longest = _longest_block(K.interior_count)
        self.seed = QJet._seed_buffer(1, longest)
        self.rows = np.empty(_ROWS * max(K.node_count * surface, longest))

    def _surface_sides(self, f, rows, iota: Quaternion) -> tuple:
        """The surface sides of f and of iota*f on K from f's values at the
        surface nodes, with rows the nine surface rows whose first four
        hold K's weighted normals and iota that of K's surface nodes:
        iota*f's values are iota times f's, as in iota_times(f), written
        into rows by the in-place Hamilton walk."""
        vals = f.eval_point(self.K.points)
        _fill(rows[4:8], vals)
        lhs_f = _flux(rows)
        _hamilton(iota.components(), vals.components(), rows[4:8], rows[8])
        return lhs_f, _flux(rows)

    def interior_sums(self, members, found) -> np.ndarray:
        """volume_integral over K of every member whose entry in found is
        not an error, the one block evaluator of both integral suites: per
        block the seed is set at the block's nodes once, its coefficient
        rows are written once (_weight_rows), and each such member's
        order-1 Cartesian jet on it is made and contracted (_block_sides);
        iota*f's sum comes from f's jet by Lemma 1.  Returns a (members, 2,
        4) array: [i, 0] holds the components of member i's sum of -2v/r
        and [i, 1] those of iota*f's -2u/r.  A member that raises has its
        error, its frames' locals not cleared, put in its place in found,
        and is skipped on later blocks; once no member is live that error
        is raised, so no block is built after it."""
        return volume_integral(
            lambda p: partial(self._block, members, found, p), self.K)

    def _block(self, members, found, p: Quaternion, w) -> np.ndarray:
        """One block's sums of interior_sums from its nodes p and weights
        w, 0 for a member whose entry in found is an error."""
        seed = self.seed._seed_at(p)
        rows = _weight_rows(p, w, self.rows)
        sums = np.zeros((len(members), 2, 4))
        for i, f in enumerate(members):
            if not isinstance(found[i], Exception):
                try:
                    sums[i] = _block_sides(f.eval_jet(seed), rows)
                except RUNTIME_ERRORS as exc:
                    found[i] = exc
                    if all(isinstance(out, Exception) for out in found):
                        raise
        return sums

    def reports(self, members) -> list:
        """Per member f, theorem2_report of f and of iota_times(f) on K
        from one evaluation of f, or the first runtime error f raised, its
        frames' locals not cleared.  Every member's surface sides come
        first, so that f's values are dropped before any jet is made; the
        interior sides are interior_sums', and no block is built while no
        member is without an error."""
        K, n = self.K, self.K.node_count
        rows = self.rows[:9 * n].reshape(9, n)
        _weighted_normals(K, rows[:4])
        iota = iota_of(K.points)
        found = []      # per member: its (lhs_f, lhs_iota_f), or error
        for f in members:
            try:
                found.append(self._surface_sides(f, rows, iota))
            except RUNTIME_ERRORS as exc:
                found.append(exc)
        del rows, iota
        try:
            if any(isinstance(out, tuple) for out in found):
                sums = self.interior_sums(members, found)
        except RUNTIME_ERRORS:
            pass    # the last live member's error, already in found
        return [out if isinstance(out, Exception) else
                tuple(_report(K, lhs, Quaternion(*rhs))
                      for lhs, rhs in zip(out, sums[i]))
                for i, out in enumerate(found)]


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
    """Per member, its GeneralizedVerdict over family (a non-empty
    sequence of surfaces) or the first runtime error it raised; and the
    surface plus interior nodes of every (member, sphere) pair evaluated.

    The family is visited one sphere at a time: what the members' reports
    share on a sphere is built once, every member still without an error
    is evaluated on it, and it is dropped before the next sphere's is
    built.  A member that raised on a block is skipped on later blocks
    and spheres."""
    found = [[] for _ in members]   # per member: its report pairs, or error
    nodes = 0
    for K in family:
        live = [i for i, out in enumerate(found) if isinstance(out, list)]
        if not live:
            break
        nodes += len(live) * (K.node_count + K.interior_count)
        # No name holds the sphere: it is dropped once reports returns, or
        # once the frames of the errors it kept are cleared here.
        outs = _SphereJets(K).reports([members[i] for i in live])
        for i, out in zip(live, outs):
            if isinstance(out, Exception):
                found[i] = _without_locals(out)
            else:
                found[i].append(out)
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
        key, val = (part.strip() for part in tok.split("=", 1))
        if key in fields:
            raise BadParams(f"surface parameter {key!r} given twice")
        fields[key] = val
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
