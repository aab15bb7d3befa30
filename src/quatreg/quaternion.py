"""Quaternion arithmetic and the (t, r, alpha, beta) spherical chart.

A quaternion is written p = t + x*i + y*j + z*k.  Off the real axis it can
also be written p = t + r*iota, where r = |(x, y, z)| and iota is the unit
imaginary direction

    iota = (cos(alpha) sin(beta)) i + (sin(alpha) sin(beta)) j + cos(beta) k,

with alpha in [0, 2*pi) and beta in [0, pi].  All values here are immutable
and all operations pure, so concurrent evaluation is safe.

Components may be scalars or equally-shaped numpy arrays; in the latter case
one Quaternion instance represents a whole batch of points and every
operation broadcasts elementwise.

Quaternion and jets.QJet share one QuaternionAlgebra: the operations that
do not depend on how a component is represented.
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


class QuaternionAlgebra:
    """The componentwise operations of Quaternion and jets.QJet.  A subclass
    supplies its constructor over (t, x, y, z), ``_coerce`` of another
    operand into its own type (None if it has none), its Hamilton product
    ``__mul__``, ``inverse`` and, if wider, its ``_scalars``."""

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

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            # Hamilton product; i*j = k, j*k = i, k*i = j, i*i = -1.
            return Quaternion(
                a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z,
                a.t * b.x + a.x * b.t + a.y * b.z - a.z * b.y,
                a.t * b.y - a.x * b.z + a.y * b.t + a.z * b.x,
                a.t * b.z + a.x * b.y - a.y * b.x + a.z * b.t,
            )
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
        """Select points from a batched quaternion."""
        t, x, y, z = np.broadcast_arrays(*self.components())
        return Quaternion(t[idx], x[idx], y[idx], z[idx])

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
