"""Truncated Taylor expansions (jets) in 4 real variables, orders 0..3.

An RJet stores the coefficients of a real-valued Taylor polynomial about a
base point, indexed by 4-variable multi-indices of total degree <= order.
A QJet bundles four RJets, one per quaternion component.  Arithmetic
truncates at the jet order, so products of seeded jets carry exact partial
derivatives through every operation: the coefficient at multi-index m is
(d^m f) / m!.

Coefficients may carry batch dimensions; every operation broadcasts over
them, which is what makes whole sample sweeps and quadrature grids cheap.
They are stored coefficient-major, as one array of shape (N, batch...),
so each coefficient is a contiguous row over the batch and a product runs
over long rows rather than short strided ones.  The array is C-contiguous
except in the views ``QJet._seed_at`` takes of a reused seed's leading
columns, whose rows lie a full seed row apart.  Batch axes
align from the right as in numpy: an operand of lower batch rank gains
unit axes after axis 0.  ``RJet.c`` shows the same coefficients in the
layout (batch..., N) as a view.  The derivative of an order-1 jet is a
read-only view of one of its rows.

A product coefficient sums its pair products a[i] * b[j] left to right, i
outer (Griewank & Walther, *Evaluating Derivatives*, ch. 13); at orders 2
and 3 a step plan takes those sums over whole rows, with no BLAS call.

A jet made by ``RJet.seed``, ``RJet.constant`` or ``RJet.zero`` is marked
as such, and every other jet is unmarked.  ``RJet.zero`` is the structural
zero of the jet algebra (see quaternion): ``RJet.constant`` of the Python
float 0.0 returns it, so a point's or a real number's structural zeros
stay structural in its constant jet.  zero + a and a - zero are a, zero - a
is -a, and -zero, zero * a and the derivative of zero are zero.  A product
with a seed or constant operand skips the pair products with its 0 and 1
rows.  By a constant c it is the scale ``a * c[0]``; by the seed s of x_v
it is that scale plus a shift, which adds a[m] to the row of m + e_v.

A QJet product adds the pair products sign * a_k * b_q of the one
``quaternion._HAMILTON`` table in place, in the Hamilton formula's order,
and skips the terms with a zero factor, as a Quaternion product does.  All
its pair products go into one set of arrays made per product: four
results, a scratch, at order 1 a tail, and at orders 2 and 3 a plan's
accumulator and its two gather buffers.  At orders 2 and 3 a component
with a pair of unmarked operands sums every term in the plan's ranking (a
seed's or a constant's scale and shift is ranked into it) and is unranked
once, into its result; a component of marked pairs only sums them in
coefficient order.  Ranking moves whole rows, so each coefficient sums the
same terms in the same order either way.

Elementary functions compose about the value: g(a + h) sums
g^(m)(a) h^m / m!, where h = a - a[0] keeps the operand's mark (a seed's h
is that seed at value 0, a constant's h is zero).  An unmarked h has no row
below degree 1 and h^(m-1) none below degree m - 1, so at orders 2 and 3
h^m pairs only the rows that can be nonzero: 16 pair products instead of
45 at order 2, 96 + 40 instead of 330 at order 3 (``_POWERS``).

Every skipped term is an exact +-0 (a[i] * 0.0, 0 * b[j] or a zero
component's product) or an exact a[i] * 1.0, and the nonzero terms keep
their order, so every coefficient keeps the bits of the full pair sums
with two exceptions.  An exactly zero coefficient may change its sign, and
``inf * 0`` is never formed: a non-finite coefficient reaches only the
rows it is scaled into, shifted to or paired into with a row that can be
nonzero, not every row it pairs with.

sqrt, recip and atanh check their domain once, in the module-level point
function, and the RJet methods take their value rows from it.  ``RJet.sin``
and ``RJet.cos`` run on no suite path: ``operators.spherical_frame`` writes
its rows in closed form from the same derivative lists,
``_sin_cos_derivs``, and no catalog body calls them.

Orders above 3 are rejected: third derivatives are the deepest anything
here needs (the Fueter operator applied to a Laplacian).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import BasisMismatch, DomainError, IndexTooDeep, OrderTooHigh
from .quaternion import (_HAMILTON, SCALARS, Quaternion, QuaternionAlgebra,
                         check_invertible, is_structural_zero)

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


# Row r of a product in a plan's ranking is output rank[r]; output k is
# its row unrank[k].
_Plan = namedtuple("_Plan", "steps rank unrank")


def _mul_plan(order, low=(0, 0)):
    """The _Plan for operands a and b with no rows below degrees
    low[0] and low[1]: output k sums a[i] * b[j] over its pairs (i, j) of
    those rows, i outer.  Ranked by pair count, longest first, the outputs
    with an m-th pair form a prefix, so step m is
    ``acc[:len(ia)] += a[ia] * b[ib]`` (8 steps at order 3, 4 at order 2
    for full operands); the outputs with no pair rank last, on zero rows.
    Row r of acc is output rank[r], and ``acc[unrank]`` is the product in
    coefficient order.  The first step of full operands
    pairs a0 with every row: its ia is the row slice a[:1]."""
    idx = INDICES[order]
    deg = [sum(m) for m in idx]
    pairs = [[] for _ in idx]
    for i, ma in enumerate(idx):
        for j, mb in enumerate(idx):
            if deg[i] >= low[0] and low[1] <= deg[j] <= order - deg[i]:
                k = _POS[order][tuple(x + y for x, y in zip(ma, mb))]
                pairs[k].append((i, j))
    rank = sorted(range(len(idx)), key=lambda k: -len(pairs[k]))
    steps = [tuple(np.array([pairs[k][m] for k in rank
                             if len(pairs[k]) > m]).T)
             for m in range(len(pairs[rank[0]]))]
    if low == (0, 0):
        steps[0] = (slice(0, 1), steps[0][1])
    # The inverse of rank without np.argsort, whose sort kernels would add
    # 0.4 MB to the resident memory of every process.
    return _Plan(steps, np.array(rank),
                 np.array([rank.index(k) for k in range(len(idx))]))


_MUL = {n: _mul_plan(n) for n in (2, 3)}

# h^m = h^(m-1) * h in a Taylor composition (RJet._compose), h with no row
# below degree 1 and h^(m-1) none below degree m - 1.
_POWERS = {(n, m): _mul_plan(n, (m - 1, 1))
           for n in (2, 3) for m in range(2, n + 1)}


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

# The rows the seed of x_v shifts the rows of degree below n into: the
# positions _DERIV reads from, one row (a slice) at order 1.
_SHIFT = {(n, v): slice(1 + v, 2 + v) if n == 1 else _DERIV[(n, v)][0]
          for n, v in _DERIV}


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


def _product(order, a, b, marks=(None, None), out=None, tail=None):
    """Product of coefficient-major a and b of one batch rank, whose jets
    carry the marks (see RJet), into out when given.  A constant or seed
    operand makes it a scale or a scale plus a shift.  Otherwise each
    output sums its pairs left to right, a0*bi first, ai*b0 last: with row
    slices at orders 0 and 1 (at order 1 the ai*b0 rows into tail when
    given), in the steps of _mul_plan at orders 2 and 3."""
    if order == 0:
        return np.multiply(a, b, out=out)
    # The marked operand goes to b, a constant before a seed.
    if marks[0] is not None and marks[1] != "constant":
        a, b, marks = b, a, marks[::-1]
    if marks[1] is not None:
        out = np.multiply(a, b[:1], out=out)
        if marks[1] != "constant":
            dst = _SHIFT[(order, marks[1])]
            out[dst] += a[:_NCOEF[order - 1]]
        return out
    if order == 1:
        out = np.multiply(a[:1], b, out=out)
        out[1:] += np.multiply(a[1:], b[:1], out=tail)
        return out
    plan = _MUL[order]
    return _reorder(_plan_product(plan, a, b), plan.unrank, out)


def _plan_product(plan, a, b, acc=None, gather=None):
    """The product of coefficient-major a and b by the steps of a
    _mul_plan, in the plan's ranking (see _Plan).  Step 1 gathers b into
    the live rows of acc and multiplies them by a's rows in place; the
    later steps gather into the two rows of gather.  acc, of the
    product's shape, and gather, two of its live rows, are made here
    unless given; an operand whose shape is not acc's is broadcast to
    it."""
    (ia, ib), *rest = plan.steps
    n = len(ib)
    if acc is None:
        acc = np.empty(a.shape if a.shape == b.shape
                       else np.broadcast_shapes(a.shape, b.shape))
    if a.shape != acc.shape:
        a = np.broadcast_to(a, acc.shape)
    if b.shape != acc.shape:
        b = np.broadcast_to(b, acc.shape)
    acc[n:] = 0.0
    live = b.take(ib, axis=0, out=acc[:n], mode="clip")
    live *= a[ia]
    ga, gb = np.empty((2, n) + acc.shape[1:]) if gather is None else gather
    for ia, ib in rest:
        x = a.take(ia, axis=0, out=ga[:len(ia)], mode="clip")
        x *= b.take(ib, axis=0, out=gb[:len(ib)], mode="clip")
        acc[:len(ia)] += x
    return acc


def _reorder(rows, index, out=None):
    """rows[index] along the coefficient axis, taken into out when given:
    a product from a plan's ranking with its unrank, into it with its
    rank."""
    return np.take(rows, index, axis=0, out=out, mode="clip")


class RJet:
    """Real-valued truncated Taylor expansion.

    The coefficients live in ``_cm``, shape (N, batch...), C-contiguous or
    a reused seed's view with contiguous rows: coefficient i of every batch
    element is the row ``_cm[i]``.  ``c`` is
    the (batch..., N) view of it, and the constructor takes that layout.
    ``_mark`` is the variable v of a jet made by ``seed`` (order >= 1),
    "constant" for one made by ``constant``, "zero" for the structural
    zero ``zero`` and None for any other jet.
    """

    __slots__ = ("order", "_cm", "_mark")

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
        self._mark = None

    @classmethod
    def _wrap(cls, order: int, cm, mark=None) -> "RJet":
        """Jet over a coefficient-major array, taken as is."""
        jet = object.__new__(cls)
        jet.order = order
        jet._cm = cm
        jet._mark = mark
        return jet

    @property
    def c(self) -> np.ndarray:
        """Coefficients in the layout (batch..., N), a view of ``_cm``."""
        return np.moveaxis(self._cm, 0, -1)

    @classmethod
    def zero(cls, order: int) -> "RJet":
        """The structural zero: every coefficient 0, no batch axis."""
        _check_order(order)
        return cls._wrap(order, np.zeros(_NCOEF[order]), "zero")

    @classmethod
    def constant(cls, value, order: int) -> "RJet":
        """The constant jet of value; the zero jet for the Python 0.0."""
        if is_structural_zero(value):
            return cls.zero(order)
        _check_order(order)
        value = np.asarray(value, dtype=float)
        cm = np.zeros((_NCOEF[order],) + value.shape)
        cm[0] = value
        return cls._wrap(order, cm, "constant")

    @classmethod
    def seed(cls, value, var: int, order: int) -> "RJet":
        """Constant `value` carrying a unit first-order coefficient in its
        own variable, row 1 + var as first_partials reads it."""
        jet = cls.constant(value, order)
        return jet._seeded(var) if order >= 1 else jet

    def _seeded(self, var: int) -> "RJet":
        """This jet, of order >= 1 and zero but for its value row, made the
        seed of x_var in place: the one place that writes a seed's unit row
        1 + var and marks it var."""
        self._cm[1 + var] = 1.0
        self._mark = var
        return self

    # -- ring operations --------------------------------------------------

    def _binary_check(self, other):
        if other.order != self.order:
            raise BasisMismatch(
                f"jet orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, RJet):
            self._binary_check(other)
            if other._mark == "zero":
                return self
            if self._mark == "zero":
                return other
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
        if self._mark == "zero":
            return self
        return RJet._wrap(self.order, -self._cm)

    def __sub__(self, other):
        if isinstance(other, RJet):
            self._binary_check(other)
            if other._mark == "zero":
                return self
            if self._mark == "zero":
                return -other
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
            if self._mark == "zero" or other._mark == "zero":
                return self if self._mark == "zero" else other
            return RJet._wrap(self.order, _product(
                self.order, *_aligned(self._cm, other._cm),
                (self._mark, other._mark)))
        if isinstance(other, SCALARS):
            return self if self._mark == "zero" else RJet._wrap(
                self.order, _lift(self._cm, np.ndim(other)) * other)
        return NotImplemented

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    @property
    def value(self):
        """The constant term; the Python 0.0 for the structural zero."""
        return 0.0 if self._mark == "zero" else self._cm[0, ...]

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
        """d/dx_var as a jet of one order lower; of an order-1 jet, a
        read-only view of its row 1 + var, whose factor is 1.0."""
        if self.order < 1:
            raise IndexTooDeep("cannot differentiate an order-0 jet")
        if self._mark == "zero":
            return RJet.zero(self.order - 1)
        if self.order == 1:
            row = self._cm[1 + var:2 + var]
            row.flags.writeable = False
            return RJet._wrap(0, row)
        src, fac = _DERIV[(self.order, var)]
        rows = self._cm[src]
        rows *= _lift(fac, rows.ndim - 1)
        return RJet._wrap(self.order - 1, rows)

    # -- elementary functions ---------------------------------------------

    def _compose(self, derivs):
        """Taylor composition about the constant term: derivs[m] must hold
        g^(m)(value) for m = 0..order.  h keeps this jet's mark; an
        unmarked h^m is formed by the plan of _POWERS."""
        order = self.order
        if self._mark in ("constant", "zero"):
            h = RJet.zero(order)
        else:
            cm = self._cm.copy()
            cm[0] = 0.0
            h = RJet._wrap(order, cm, self._mark)
        out = RJet.constant(derivs[0], order)
        fact = 1.0
        for m in range(1, order + 1):
            if m == 1:
                power = h
            elif h._mark is None:
                plan = _POWERS[(order, m)]
                power = RJet._wrap(order, _reorder(
                    _plan_product(plan, power._cm, h._cm), plan.unrank))
            else:
                power = power * h
            fact *= m
            out = out + power * (np.asarray(derivs[m]) / fact)
        return out

    def _rows(self, value, *later):
        """[value] and the rows later[:order] make; none past the order."""
        return [value] + [row() for row in later[:self.order]]

    def sin(self):
        return self._compose(_sin_cos_derivs(self.value, self.order)[0])

    def cos(self):
        return self._compose(_sin_cos_derivs(self.value, self.order)[1])

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


def _sin_cos_derivs(a, order: int, s=None) -> tuple:
    """The derivatives g^(m)(a), m = 0..order, of g = sin and g = cos: the
    cycles (s, c, -s, -c) and (c, -s, -c, s) cut after the order.  s, when
    given, is np.sin(a), taken by the caller."""
    s, c = np.sin(a) if s is None else s, np.cos(a)
    cycle = [s, c, -s, -c]
    return cycle[:order + 1], (cycle[1:] + cycle[:1])[:order + 1]


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


# The real numbers QJet._coerce lifts to constant jets.  An array is left
# out: a jet takes one only as a scale.
_NUMBERS = (int, float, np.integer, np.floating)


class QJet(QuaternionAlgebra):
    """Quaternion-valued jet: four RJets sharing order and batch shape; an
    RJet scales it as a real scalar does."""

    # _built is set on the seeds of _seed_at only (see _once).
    __slots__ = ("t", "x", "y", "z", "_built")

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

    @classmethod
    def _seed_buffer(cls, order: int, size: int) -> "QJet":
        """The Cartesian seed at order >= 1 over `size` points, its value
        rows left for _seed_at: four views of one (4, N, size) array."""
        cm = np.zeros((NVARS, _NCOEF[order], size))
        return cls(*(RJet._wrap(order, cm[var])._seeded(var)
                     for var in range(NVARS)))

    def _seed_at(self, q: Quaternion) -> "QJet":
        """This seed buffer as the Cartesian seed at the points q, a batch
        of at most its size: q's components are written into the value
        rows of its leading columns, and the jet is views of them with
        this one's marks.  It is valid until the next _seed_at, and what
        _once builds on it lives as long as it does."""
        cols = slice(0, np.size(q.t))
        out = []
        for comp, jet in zip(q.components(), self.components()):
            cm = jet._cm[:, cols]
            cm[0] = comp
            out.append(RJet._wrap(jet.order, cm, jet._mark))
        seed = QJet(*out)
        seed._built = {}
        return seed

    def _once(self, build):
        """build(self).  On a seed of _seed_at it is built at most once,
        on first use, and every later call gets the same jet, so the
        members evaluated on one seed share it; on any other jet it is
        built on each call."""
        built = getattr(self, "_built", None)
        if built is None:
            return build(self)
        if build not in built:
            built[build] = build(self)
        return built[build]

    # -- algebra ---------------------------------------------------------

    def _zero(self):
        return RJet.zero(self.order)

    def _coerce(self, other):
        """A point or a real number as the constant jet of this jet's
        order; an array is not lifted."""
        if isinstance(other, QJet):
            return other
        if isinstance(other, _NUMBERS):
            other = Quaternion(float(other))
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
        # Every pair product goes into arrays made here, once per product:
        # four results, a scratch, at order 1 a tail and at orders 2 and 3
        # the plan's accumulator and gather buffers.  Fresh ones per pair
        # product cost 5 % on quadrature at order 1, and at order 3 would
        # be 1.1 MB per pair product at 1,000 points.
        *accs, scratch = (np.empty(full) for _ in range(5))
        tail = np.empty((NVARS,) + batch) if order == 1 else None
        plan = _MUL.get(order)
        if plan is not None:
            rank_acc, gather = np.empty(full), np.empty((2,) + full)
        out = []
        for terms, buf in zip(_HAMILTON, accs):
            # At orders 2 and 3 a component with an unmarked pair sums its
            # terms in the plan's ranking and is unranked once, into buf.
            # Ranking a component of marked pairs only would copy each of
            # its scales once more: +41 % on an order-3 product of a full
            # jet by the Cartesian seed, as every power p^k makes.
            ranked = plan is not None and any(
                a[k]._mark is None and b[q]._mark is None
                for k, q, _ in terms)
            acc = None
            for k, q, sign in terms:
                marks = (a[k]._mark, b[q]._mark)
                if "zero" in marks:
                    continue
                dst = (scratch if acc is not None
                       else rank_acc if ranked else buf)
                if not ranked:
                    p = _product(order, x[k], y[q], marks, dst, tail)
                elif marks == (None, None):
                    p = _plan_product(plan, x[k], y[q], dst, gather)
                else:
                    # A scale (plus a shift), into the plan's ranking.
                    p = _reorder(_product(order, x[k], y[q], marks,
                                          gather[0]), plan.rank, dst)
                if acc is None:
                    acc = p
                    if sign < 0:
                        np.negative(acc, out=acc)
                else:
                    (np.add if sign > 0 else np.subtract)(acc, p, out=acc)
            if acc is None:
                out.append(RJet.zero(order))
            else:
                out.append(RJet._wrap(order, _reorder(acc, plan.unrank, buf)
                                      if ranked else acc))
        return QJet(*out)

    def inverse(self) -> "QJet":
        return self._once(_inverse)

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
        of coefficient rows 1 to 4, and the Python 0.0 for a structural
        zero component.  A first-order coefficient carries no factorial, so
        the rows are the partials at every order >= 1; no jet is built to
        read them."""
        if self.order < 1:
            raise IndexTooDeep("an order-0 jet has no first partials")
        rows = [None if comp._mark == "zero" else comp._cm
                for comp in self.components()]
        return tuple(Quaternion(*(0.0 if cm is None else cm[1 + var, ...]
                                  for cm in rows))
                     for var in range(NVARS))


def _inverse(g: QJet) -> QJet:
    """The inverse of the jet g, conj(g) / |g|^2."""
    n2 = g.norm_sq()
    check_invertible(n2.value)
    return g.conjugate() * n2.recip()
