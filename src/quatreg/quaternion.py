"""Quaternion arithmetic and the (t, r, alpha, beta) spherical chart.

A quaternion is written p = t + x*i + y*j + z*k.  Off the real axis it can
also be written p = t + r*iota, where r = |(x, y, z)| and iota is the unit
imaginary direction

    iota = (cos(alpha) sin(beta)) i + (sin(alpha) sin(beta)) j + cos(beta) k,

with alpha in [0, 2*pi) and beta in [0, pi].  All values here are immutable
and all operations pure, so concurrent evaluation is safe.

Components may be scalars or numpy arrays of broadcastable shapes, mixed
in one Quaternion; with arrays one instance represents a whole batch of
points and every operation broadcasts elementwise.

A component that is the Python float 0.0 (of either sign) is a structural
zero: a zero known when the value is built, as for the real part of iota or
the parts a real number or a literal such as 1k leaves out.  A numpy zero,
even a 0-d one, is data.  A product skips every term with a structural-zero
factor: each skipped term is an exact +-0, so every nonzero result keeps
the bits of the full formula, only an exactly zero result may change its
sign, and 0 * inf is never formed.  An output with no term left is 0.0.

Quaternion and jets.QJet share one QuaternionAlgebra, the operations that
do not depend on how a component is represented, and one ``_HAMILTON``
table, which their products walk under the same skipping rule.  In a jet a
structural zero is ``jets.RJet.zero``.  A Quaternion product is the walk of
``_hamilton``, which can also write the product into given rows in place,
term for term as it forms new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDomain, OnRealAxis, ZeroDivisor

# Relative threshold deciding "numerically zero" for inverses and iota.
EPS = 1e-12

_TWO_PI = 2.0 * math.pi


#: The real scalars every quaternion (and RJet) operation scales by.
SCALARS = (int, float, np.integer, np.floating, np.ndarray)

# Per component (t, x, y, z) of a * b, its terms (k, q, sign) of
# sign * a_k * b_q in the formula's order; every first term is positive.
_HAMILTON = (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
             ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
             ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
             ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)))


def is_structural_zero(c) -> bool:
    """True for the Python float 0.0 of either sign, not for numpy zeros."""
    return type(c) is float and c == 0.0


def _hamilton(a, b, out=None, scratch=None) -> list:
    """The components of the Hamilton product of the components a and b.
    Output i sums the terms sign * a_k * b_q of ``_HAMILTON[i]`` left to
    right and skips each term with a structural-zero factor; an output
    with no term left is 0.0.

    Without out every output is a new value.  With out, four rows such as
    a (4, n) array, output i is written into out[i] and is that row, and
    scratch, one row, holds each later term's product.  An output with no
    term fills its row with zeros and is still returned as 0.0, so a
    product by it skips its terms too."""
    za = [is_structural_zero(c) for c in a]
    zb = [is_structural_zero(c) for c in b]
    comps = []
    for i, terms in enumerate(_HAMILTON):
        acc = None
        for k, q, sign in terms:
            if za[k] or zb[q]:
                continue
            if out is None:
                p = a[k] * b[q]
                if acc is None:
                    acc = p if sign > 0 else -p
                else:
                    acc = acc + p if sign > 0 else acc - p
            elif acc is None:
                acc = np.multiply(a[k], b[q], out=out[i])
                if sign < 0:
                    np.negative(acc, out=acc)
            else:
                p = np.multiply(a[k], b[q], out=scratch)
                (np.add if sign > 0 else np.subtract)(acc, p, out=acc)
        if acc is None:
            acc = 0.0
            if out is not None:
                out[i] = 0.0
        comps.append(acc)
    return comps


class QuaternionAlgebra:
    """The componentwise operations of Quaternion and jets.QJet.  A subclass
    supplies its constructor over (t, x, y, z), ``_coerce`` of another
    operand into its own type (None if it has none), ``_zero``, its
    structural zero component, its Hamilton product ``__mul__``,
    ``inverse`` and, if wider, its ``_scalars``."""

    __slots__ = ()

    # numpy operands on the left defer to the reflected operators instead
    # of broadcasting the quaternion as an object element.
    __array_ufunc__ = None

    _scalars = SCALARS

    def components(self):
        return (self.t, self.x, self.y, self.z)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.t + other.t, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.t - other.t, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return type(self)(-self.t, -self.x, -self.y, -self.z)

    def _scale(self, s):
        return type(self)(self.t * s, self.x * s, self.y * s, self.z * s)

    def __rmul__(self, other):
        # Real scalars commute: scalar * q is the class's own q * scalar.
        if isinstance(other, self._scalars):
            return self.__mul__(other)
        other = self._coerce(other)
        return NotImplemented if other is None else other.__mul__(self)

    def conjugate(self):
        return type(self)(self.t, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z


@dataclass(frozen=True, eq=False)
class Quaternion(QuaternionAlgebra):
    """Element t + x*i + y*j + z*k of the real quaternion algebra."""

    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def _coerce(other):
        """A real scalar s as the quaternion s + 0i + 0j + 0k."""
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, SCALARS):
            return Quaternion(other if np.ndim(other) else float(other))
        return None

    def _zero(self):
        return 0.0

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            # Hamilton product; i*j = k, j*k = i, k*i = j, i*i = -1.
            return Quaternion(*_hamilton(self.components(),
                                         other.components()))
        if isinstance(other, SCALARS):
            return self._scale(other)
        return NotImplemented

    def norm(self):
        return np.sqrt(self.norm_sq())

    def imag_norm(self):
        """Norm r of the imaginary part (x, y, z)."""
        return np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse, conjugate over squared norm."""
        n2 = self.norm_sq()
        check_invertible(n2)
        return self.conjugate() * (1.0 / n2)

    # -- conveniences ------------------------------------------------------

    def is_batch(self) -> bool:
        return any(np.ndim(c) > 0 for c in self.components())

    def __getitem__(self, idx) -> "Quaternion":
        """Select points from a batched quaternion; a structural-zero
        component stays one."""
        comps = self.components()
        data = iter(np.broadcast_arrays(
            *(c for c in comps if not is_structural_zero(c))))
        return Quaternion(*(c if is_structural_zero(c) else next(data)[idx]
                            for c in comps))

    def __repr__(self):
        if self.is_batch():
            return f"Quaternion(batch of {np.broadcast(*self.components()).size})"
        return (f"Quaternion({self.t:.12g}, {self.x:.12g}, "
                f"{self.y:.12g}, {self.z:.12g})")


def check_invertible(n2):
    """Refuse a squared norm n2 = |q|^2 at or below (EPS * (1 + |q|))^2: the
    one rule for inverting a quaternion and a quaternion jet."""
    if np.any(n2 <= (EPS * (1.0 + np.sqrt(n2))) ** 2):
        raise ZeroDivisor("quaternion norm below epsilon; not invertible")


def check_off_axis(r, t):
    """Refuse an imaginary norm r at or below EPS * (1 + |t|): the one rule
    for iota and the spherical chart of a point or a jet's base point."""
    if np.any(r <= EPS * (1.0 + np.abs(t))):
        raise OnRealAxis("point on the real axis: no iota, no spherical chart")


@dataclass(frozen=True)
class SphericalPoint:
    """Chart (t, r, alpha, beta) of a quaternion off the real axis."""

    t: float
    r: float
    alpha: float
    beta: float


def to_spherical(p: Quaternion) -> SphericalPoint:
    """Chart coordinates of p.

    alpha is the principal two-argument arctangent of (y, x) folded into
    [0, 2*pi); beta = arccos(z / r) in [0, pi].  On the degenerate plane
    t + z*k (sin beta == 0) alpha is fixed to 0 by convention.  Points on
    the real axis are rejected.
    """
    r = p.imag_norm()
    check_off_axis(r, p.t)
    beta = np.arccos(np.clip(p.z / r, -1.0, 1.0))
    alpha = np.mod(np.arctan2(p.y, p.x), _TWO_PI)
    # Degenerate slice t + z*k: alpha by convention.
    s = np.hypot(p.x, p.y)
    alpha = np.where(s <= EPS * r, 0.0, alpha)
    return SphericalPoint(p.t, r, alpha, beta)


def from_spherical(s: SphericalPoint) -> Quaternion:
    sb = np.sin(s.beta)
    return Quaternion(
        s.t,
        s.r * np.cos(s.alpha) * sb,
        s.r * np.sin(s.alpha) * sb,
        s.r * np.cos(s.beta),
    )


@dataclass(frozen=True)
class SampleDomain:
    """Rejection sampler for points off the real axis and chart singularities.

    Ranges are intersected under ``merge``, so catalog members can carry open
    constraints (infinite ranges) that become concrete only when combined
    with a suite's base domain.  ``exclusions`` are (label, predicate) pairs;
    a predicate maps a batched Quaternion to a boolean mask of points to
    reject (branch cuts and similar loci).
    """

    t_range: tuple = (-1.5, 1.5)
    r_range: tuple = (0.5, 2.0)
    s_min: float = 0.1
    p_norm_range: tuple = (0.0, math.inf)
    exclusions: tuple = field(default_factory=tuple)

    def merge(self, other: "SampleDomain") -> "SampleDomain":
        return SampleDomain(
            t_range=(max(self.t_range[0], other.t_range[0]),
                     min(self.t_range[1], other.t_range[1])),
            r_range=(max(self.r_range[0], other.r_range[0]),
                     min(self.r_range[1], other.r_range[1])),
            s_min=max(self.s_min, other.s_min),
            p_norm_range=(max(self.p_norm_range[0], other.p_norm_range[0]),
                          min(self.p_norm_range[1], other.p_norm_range[1])),
            exclusions=self.exclusions + other.exclusions,
        )

    def contains(self, p: Quaternion):
        """Boolean mask of points satisfying every constraint."""
        r = p.imag_norm()
        sb = np.where(r > 0, np.sqrt(np.maximum(r * r - p.z * p.z, 0.0)) / np.maximum(r, 1e-300), 0.0)
        ok = ((p.t >= self.t_range[0]) & (p.t <= self.t_range[1])
              & (r >= self.r_range[0]) & (r <= self.r_range[1])
              & (sb >= self.s_min))
        pn = p.norm()
        ok &= (pn >= self.p_norm_range[0]) & (pn <= self.p_norm_range[1])
        for _, pred in self.exclusions:
            ok &= ~np.asarray(pred(p))
        return ok

    def sample(self, n: int, seed: int = 0) -> Quaternion:
        """Draw n admissible points as one batched Quaternion."""
        # rng.uniform needs a finite width; an infinite bound has none.
        if not (self.t_range[0] <= self.t_range[1]
                and 0.0 < self.r_range[0] <= self.r_range[1]
                and 0.0 < self.s_min <= 1.0
                and math.isfinite(self.t_range[1] - self.t_range[0])
                and math.isfinite(self.r_range[1] - self.r_range[0])):
            raise EmptyDomain(f"empty or invalid sample domain: {self}")
        rng = np.random.default_rng(seed)
        beta_lo = math.asin(min(self.s_min, 1.0))
        kept = []
        total = 0
        for _ in range(64):
            m = max(2 * (n - total), 16)
            t = rng.uniform(self.t_range[0], self.t_range[1], m)
            r = rng.uniform(self.r_range[0], self.r_range[1], m)
            alpha = rng.uniform(0.0, _TWO_PI, m)
            beta = rng.uniform(beta_lo, math.pi - beta_lo, m)
            p = from_spherical(SphericalPoint(t, r, alpha, beta))
            mask = self.contains(p)
            if np.any(mask):
                kept.append(p[mask])
                total += int(np.count_nonzero(mask))
            if total >= n:
                break
        else:
            raise EmptyDomain("rejection sampling failed to fill the "
                              "request; domain too restrictive")
        t = np.concatenate([q.t for q in kept])[:n]
        x = np.concatenate([q.x for q in kept])[:n]
        y = np.concatenate([q.y for q in kept])[:n]
        z = np.concatenate([q.z for q in kept])[:n]
        return Quaternion(t, x, y, z)

    def describe(self) -> str:
        bits = [f"t in [{self.t_range[0]:g},{self.t_range[1]:g}]",
                f"r in [{self.r_range[0]:g},{self.r_range[1]:g}]",
                f"sin(beta) >= {self.s_min:g}"]
        if self.p_norm_range != (0.0, math.inf):
            bits.append(f"|p| in [{self.p_norm_range[0]:g},{self.p_norm_range[1]:g}]")
        for label, _ in self.exclusions:
            bits.append(f"excluding {label}")
        return "; ".join(bits)


#: Open domain carried by catalog members with no constraints of their own.
UNRESTRICTED = SampleDomain(t_range=(-math.inf, math.inf),
                            r_range=(1e-300, math.inf), s_min=1e-300)
