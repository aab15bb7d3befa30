"""Truncated Taylor expansions (jets) in 4 real variables, orders 0..3.

An RJet stores the coefficients of a real-valued Taylor polynomial about a
base point, indexed by 4-variable multi-indices of total degree <= order.
A QJet bundles four RJets, one per quaternion component.  Arithmetic
truncates at the jet order, so products of seeded jets carry exact partial
derivatives through every operation: the coefficient at multi-index m is
(d^m f) / m!.

Coefficients may carry batch dimensions; every operation broadcasts over
them, which is what makes whole sample sweeps and quadrature grids cheap.
They are stored coefficient-major, as one C-contiguous array of shape
(N, batch...), so each coefficient is a contiguous row over the batch and
a product runs over long rows rather than short strided ones.  Batch axes
align from the right as in numpy: an operand of lower batch rank gains
unit axes after axis 0.  ``RJet.c`` shows the same coefficients in the
layout (batch..., N) as a view.

A product coefficient sums its pair products a[i] * b[j] left to right, i
outer (Griewank & Walther, *Evaluating Derivatives*, ch. 13); at orders 2
and 3 a step plan takes those sums over whole rows, with no BLAS call.

A QJet product adds the pair products sign * a_k * b_q of ``_HAMILTON``
in place, in the Hamilton formula's order, so it keeps the formula's bits.

sqrt, recip and atanh check their domain once, in the module-level point
function, and the RJet methods take their value rows from it.

Orders above 3 are rejected: third derivatives are the deepest anything
here needs (the Fueter operator applied to a Laplacian).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BasisMismatch, DomainError, IndexTooDeep, OrderTooHigh
from .quaternion import SCALARS, Quaternion, QuaternionAlgebra, check_invertible

MAX_ORDER = 3
NVARS = 4


def _indices_for(order):
    out = []
    for total in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(NVARS), total):
            m = [0, 0, 0, 0]
            for v in combo:
                m[v] += 1
            out.append(tuple(m))
    return tuple(out)


INDICES = {n: _indices_for(n) for n in range(MAX_ORDER + 1)}
_POS = {n: {m: i for i, m in enumerate(INDICES[n])} for n in range(MAX_ORDER + 1)}
_NCOEF = {n: len(INDICES[n]) for n in range(MAX_ORDER + 1)}   # 1, 5, 15, 35


def _mul_plan(order):
    """(steps, unrank): output k sums a[i] * b[j] over its pairs (i, j),
    i outer.  Ranked by pair count, longest first, the outputs with an m-th
    pair form a prefix, so step m is ``acc[:len(ia)] += a[ia] * b[ib]``
    (8 steps at order 3, 4 at order 2); ``acc[unrank]`` is the product."""
    idx = INDICES[order]
    pairs = [[] for _ in idx]
    for i, ma in enumerate(idx):
        for j, mb in enumerate(idx):
            if sum(ma) + sum(mb) <= order:
                k = _POS[order][tuple(x + y for x, y in zip(ma, mb))]
                pairs[k].append((i, j))
    rank = sorted(range(len(idx)), key=lambda k: -len(pairs[k]))
    steps = [tuple(np.array([pairs[k][m] for k in rank
                             if len(pairs[k]) > m]).T)
             for m in range(len(pairs[rank[0]]))]
    # The inverse of rank without np.argsort, whose sort kernels would add
    # 0.4 MB to the resident memory of every process.
    return steps, np.array([rank.index(k) for k in range(len(idx))])


_MUL = {n: _mul_plan(n) for n in (2, 3)}


def _deriv_map(order, var):
    """Positions/factors such that (df/dx_var) coefficients at order-1 are
    c[src] * fac."""
    src, fac = [], []
    for m in INDICES[order - 1]:
        shifted = list(m)
        shifted[var] += 1
        src.append(_POS[order][tuple(shifted)])
        fac.append(m[var] + 1.0)
    return np.array(src), np.array(fac)


_DERIV = {(n, v): _deriv_map(n, v)
          for n in range(1, MAX_ORDER + 1) for v in range(NVARS)}

def _check_order(order):
    if not 0 <= order <= MAX_ORDER:
        raise OrderTooHigh(f"jet order {order} outside 0..{MAX_ORDER}")


def _lift(cm, ndim):
    """Coefficient-major array `cm` viewed with batch rank at least `ndim`,
    by unit axes inserted after axis 0."""
    extra = ndim + 1 - cm.ndim
    if extra <= 0:
        return cm
    return cm.reshape(cm.shape[:1] + (1,) * extra + cm.shape[1:])


def _aligned(a, b):
    """Two coefficient-major arrays lifted to one batch rank."""
    if a.ndim == b.ndim:
        return a, b
    ndim = max(a.ndim, b.ndim) - 1
    return _lift(a, ndim), _lift(b, ndim)


def _product(order, a, b, out=None, tail=None):
    """Product of coefficient-major a and b of one batch rank.  Each output
    sums its pairs left to right, a0*bi first, ai*b0 last: with row slices
    at orders 0 and 1 (at order 1 into out and, for the ai*b0 rows, tail
    when given), in the steps of _mul_plan at orders 2 and 3."""
    if order == 0:
        return a * b
    if order == 1:
        out = np.multiply(a[:1], b, out=out)
        out[1:] += np.multiply(a[1:], b[:1], out=tail)
        return out
    steps, unrank = _MUL[order]
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    # Step 1 pairs a0 with every row of b; the later steps gather into
    # two buffers made once per call and multiply in place.
    (_, ib), *rest = steps
    acc = b.take(ib, axis=0)
    np.multiply(a[:1], acc, out=acc)
    ga, gb = np.empty((2,) + acc.shape)
    for ia, ib in rest:
        x = a.take(ia, axis=0, out=ga[:len(ia)], mode="clip")
        x *= b.take(ib, axis=0, out=gb[:len(ib)], mode="clip")
        acc[:len(ia)] += x
    return acc[unrank]


class RJet:
    """Real-valued truncated Taylor expansion.

    The coefficients live in ``_cm``, shape (N, batch...), C-contiguous:
    coefficient i of every batch element is the row ``_cm[i]``.  ``c`` is
    the (batch..., N) view of it, and the constructor takes that layout.
    """

    __slots__ = ("order", "_cm")

    # numpy operands on the left defer to the reflected jet operators
    # instead of broadcasting the jet as an object element.
    __array_ufunc__ = None

    def __init__(self, order: int, coeffs):
        _check_order(order)
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0 or c.shape[-1] != _NCOEF[order]:
            raise BasisMismatch(
                f"expected {_NCOEF[order]} coefficients for order {order}, "
                f"got shape {c.shape}")
        self.order = order
        self._cm = np.ascontiguousarray(np.moveaxis(c, -1, 0))

    @classmethod
    def _wrap(cls, order: int, cm) -> "RJet":
        """Jet over a coefficient-major array, taken as is."""
        jet = object.__new__(cls)
        jet.order = order
        jet._cm = cm
        return jet

    @property
    def c(self) -> np.ndarray:
        """Coefficients in the layout (batch..., N), a view of ``_cm``."""
        return np.moveaxis(self._cm, 0, -1)

    @classmethod
    def constant(cls, value, order: int) -> "RJet":
        _check_order(order)
        value = np.asarray(value, dtype=float)
        cm = np.zeros((_NCOEF[order],) + value.shape)
        cm[0] = value
        return cls._wrap(order, cm)

    @classmethod
    def seed(cls, value, var: int, order: int) -> "RJet":
        """Constant `value` carrying a unit first-order coefficient in its
        own variable, row 1 + var as first_partials reads it."""
        jet = cls.constant(value, order)
        if order >= 1:
            jet._cm[1 + var] = 1.0
        return jet

    # -- ring operations --------------------------------------------------

    def _binary_check(self, other):
        if other.order != self.order:
            raise BasisMismatch(
                f"jet orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, RJet):
            self._binary_check(other)
            a, b = _aligned(self._cm, other._cm)
            return RJet._wrap(self.order, a + b)
        if isinstance(other, SCALARS):
            a = _lift(self._cm, np.ndim(other))
            out = np.empty(a.shape[:1]
                           + np.broadcast_shapes(np.shape(other), a.shape[1:]))
            out[...] = a
            out[0] += other
            return RJet._wrap(self.order, out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RJet._wrap(self.order, -self._cm)

    def __sub__(self, other):
        if isinstance(other, RJet):
            self._binary_check(other)
            a, b = _aligned(self._cm, other._cm)
            return RJet._wrap(self.order, a - b)
        if isinstance(other, SCALARS):
            return self.__add__(-np.asarray(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, RJet):
            self._binary_check(other)
            return RJet._wrap(self.order, _product(
                self.order, *_aligned(self._cm, other._cm)))
        if isinstance(other, SCALARS):
            return RJet._wrap(self.order,
                              _lift(self._cm, np.ndim(other)) * other)
        return NotImplemented

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    @property
    def value(self):
        return self._cm[0, ...]

    def partial(self, multi) -> np.ndarray | float:
        """Exact partial derivative d^multi f at the base point."""
        multi = tuple(multi)
        if len(multi) != NVARS:
            raise IndexTooDeep(f"multi-index must have {NVARS} entries")
        if sum(multi) > self.order:
            raise IndexTooDeep(
                f"|{multi}| exceeds jet order {self.order}")
        fac = math.prod(math.factorial(e) for e in multi)
        return self._cm[_POS[self.order][multi], ...] * fac

    def derivative(self, var: int) -> "RJet":
        """d/dx_var as a jet of one order lower."""
        if self.order < 1:
            raise IndexTooDeep("cannot differentiate an order-0 jet")
        src, fac = _DERIV[(self.order, var)]
        return RJet._wrap(self.order - 1,
                          self._cm[src] * _lift(fac, self._cm.ndim - 1))

    # -- elementary functions ---------------------------------------------

    def _compose(self, derivs):
        """Taylor composition about the constant term: derivs[m] must hold
        g^(m)(value) for m = 0..order."""
        h = self._cm.copy()
        h[0] = 0.0
        h = RJet._wrap(self.order, h)
        out = RJet.constant(derivs[0], self.order)
        power = None
        fact = 1.0
        for m in range(1, self.order + 1):
            power = h if power is None else power * h
            fact *= m
            out = out + power * (np.asarray(derivs[m]) / fact)
        return out

    def _rows(self, value, *later):
        """[value] and the rows later[:order] make; none past the order."""
        return [value] + [row() for row in later[:self.order]]

    def sin(self):
        a = self.value
        return self._compose(self._rows(np.sin(a), lambda: np.cos(a),
                                        lambda: -np.sin(a), lambda: -np.cos(a)))

    def cos(self):
        a = self.value
        return self._compose(self._rows(np.cos(a), lambda: -np.sin(a),
                                        lambda: -np.cos(a), lambda: np.sin(a)))

    def sqrt(self):
        a = self.value
        s = sqrt(a)
        return self._compose(self._rows(s, lambda: 0.5 / s, lambda: -0.25 / (s * a),
                                        lambda: 0.375 / (s * a * a)))

    def recip(self):
        inv = recip(self.value)
        with np.errstate(over="ignore"):
            derivs = self._rows(inv, lambda: -inv * inv, lambda: 2.0 * np.power(inv, 3),
                                lambda: -6.0 * np.power(inv, 4))
        # Only a finite argument overflows here; a NaN one stays NaN.
        if np.any(np.isinf(derivs[-1])):
            raise DomainError(f"reciprocal overflows at order {self.order}")
        return self._compose(derivs)

    def atan(self):
        a = self.value
        d = 1.0 / (1.0 + a * a)
        return self._compose(self._rows(np.arctan(a), lambda: d, lambda: -2.0 * a * d * d,
                                        lambda: (6.0 * a * a - 2.0) * np.power(d, 3)))

    def atanh(self):
        a = self.value
        w = atanh(a)
        d = 1.0 / (1.0 - a * a)
        return self._compose(self._rows(w, lambda: d, lambda: 2.0 * a * d * d,
                                        lambda: (2.0 + 6.0 * a * a) * np.power(d, 3)))

    def __repr__(self):
        return f"RJet(order={self.order}, c={self.c!r})"


# The elementary functions the catalog bodies call, on jets, floats and
# numpy arrays alike, so one body serves point and jet evaluation.

def sqrt(a):
    if isinstance(a, RJet):
        return a.sqrt()
    if np.any(np.asarray(a) <= 0.0):
        raise DomainError("sqrt needs a strictly positive argument")
    return np.sqrt(a)


def recip(a):
    if isinstance(a, RJet):
        return a.recip()
    a = np.asarray(a)
    if np.any(np.abs(a) < 1e-280):
        raise DomainError("reciprocal needs |argument| >= 1e-280")
    return 1.0 / a


def atan(a):
    return a.atan() if isinstance(a, RJet) else np.arctan(a)


def atanh(a):
    if isinstance(a, RJet):
        return a.atanh()
    if np.any(np.abs(np.asarray(a)) >= 1.0):
        raise DomainError("atanh needs |argument| < 1")
    return np.arctanh(a)


# Per component (t, x, y, z) of a * b, its terms (k, q, sign) of
# sign * a_k * b_q in the formula's order; every first term is positive.
_HAMILTON = (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
             ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
             ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
             ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)))


class QJet(QuaternionAlgebra):
    """Quaternion-valued jet: four RJets sharing order and batch shape; an
    RJet scales it as a real scalar does."""

    __slots__ = ("t", "x", "y", "z")

    _scalars = (RJet,) + SCALARS

    def __init__(self, t, x, y, z):
        parts = (t, x, y, z)
        if not (all(isinstance(p, RJet) for p in parts)
                and t.order == x.order == y.order == z.order):
            raise BasisMismatch("QJet needs four RJet components of one order")
        self.t, self.x, self.y, self.z = parts

    @classmethod
    def from_quaternion(cls, q: Quaternion, order: int) -> "QJet":
        return cls(*(RJet.constant(comp, order) for comp in q.components()))

    @classmethod
    def seed_cartesian(cls, q: Quaternion, order: int) -> "QJet":
        """The identity function's jet: each component is its own variable."""
        return cls(*(RJet.seed(comp, var, order)
                     for var, comp in enumerate(q.components())))

    # -- algebra ---------------------------------------------------------

    def _coerce(self, other):
        """A point as the constant jet of this jet's order."""
        if isinstance(other, QJet):
            return other
        if isinstance(other, Quaternion):
            return QJet.from_quaternion(other, self.order)
        return None

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.components(), other.components()
        a[0]._binary_check(b[0])
        order = a[0].order
        shapes = {c._cm.shape[1:] for c in a + b}
        batch = (shapes.pop() if len(shapes) == 1
                 else np.broadcast_shapes(*shapes))
        full = (_NCOEF[order],) + batch
        x, y = ([_lift(c._cm, len(batch)) for c in s] for s in (a, b))
        # At order 1 every pair product goes into an array made here: four
        # results, a scratch and a tail (fresh ones cost 5 % on quadrature).
        *accs, scratch, tail = ([np.empty(full) for _ in range(5)]
                                + [np.empty((NVARS,) + batch)]
                                if order == 1 else [None] * 6)
        out = []
        for ((k, q, _), *rest), acc in zip(_HAMILTON, accs):
            acc = _product(order, x[k], y[q], acc, tail)
            if acc.shape != full:
                acc = np.broadcast_to(acc, full).copy()
            for k, q, sign in rest:
                p = _product(order, x[k], y[q], scratch, tail)
                (np.add if sign > 0 else np.subtract)(acc, p, out=acc)
                del p       # freed before the next pair's product is made
            out.append(RJet._wrap(order, acc))
        return QJet(*out)

    def inverse(self) -> "QJet":
        n2 = self.norm_sq()
        check_invertible(n2.value)
        return self.conjugate() * n2.recip()

    # -- structure ---------------------------------------------------------

    @property
    def value(self) -> Quaternion:
        return Quaternion(self.t.value, self.x.value, self.y.value, self.z.value)

    @property
    def order(self) -> int:
        return self.t.order

    def partial(self, multi) -> Quaternion:
        return Quaternion(*(comp.partial(multi) for comp in self.components()))

    def derivative(self, var: int) -> "QJet":
        return QJet(*(comp.derivative(var) for comp in self.components()))

    def first_partials(self) -> tuple:
        """(d/dt, d/dx, d/dy, d/dz) of the jet at the base point, as views
        of coefficient rows 1 to 4.  A first-order coefficient carries no
        factorial, so the rows are the partials at every order >= 1; no
        jet is built to read them."""
        if self.order < 1:
            raise IndexTooDeep("an order-0 jet has no first partials")
        rows = [comp._cm for comp in self.components()]
        return tuple(Quaternion(*(cm[1 + var, ...] for cm in rows))
                     for var in range(NVARS))

    def __repr__(self):
        return f"QJet(order={self.order}, value={self.value!r})"
