"""Truncated Taylor jet tests.

The Taylor coefficients a jet carries are checked against hand-computed
derivatives of elementary functions, and the quaternion jet layer is
checked for exactness on integer data.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (BasisMismatch, DomainError, IndexTooDeep, OrderTooHigh,
                     Quaternion, QJet, RJet, SampleDomain, ZeroDivisor,
                     default_inventory)
from quatreg import jets
from conftest import assert_close, q

coef = st.floats(min_value=-3.0, max_value=3.0,
                 allow_nan=False, allow_infinity=False)


def seeded(value, var=0, order=3):
    return RJet.seed(value, var, order)


class TestRJetBasics:
    def test_seed_coefficients(self):
        j = seeded(2.0, var=1, order=2)
        assert j.partial((0, 0, 0, 0)) == 2.0
        assert j.partial((0, 1, 0, 0)) == 1.0
        assert j.partial((0, 0, 1, 0)) == 0.0
        assert j.partial((0, 2, 0, 0)) == 0.0

    def test_polynomial_partials(self):
        # f = t^2 * x at (3, 5): value 45, df/dt 30, df/dx 9,
        # d2f/dt2 10, d2f/dtdx 6, d3f/dt2dx 2.
        t = seeded(3.0, var=0)
        x = seeded(5.0, var=1)
        f = t * t * x
        assert f.partial((0, 0, 0, 0)) == 45.0
        assert f.partial((1, 0, 0, 0)) == 30.0
        assert f.partial((0, 1, 0, 0)) == 9.0
        assert f.partial((2, 0, 0, 0)) == 10.0
        assert f.partial((1, 1, 0, 0)) == 6.0
        assert f.partial((2, 1, 0, 0)) == 2.0

    def test_derivative_drops_order(self):
        t = seeded(3.0, var=0)
        d = (t * t * t).derivative(0)
        assert d.order == 2
        assert d.value == 27.0
        assert d.partial((1, 0, 0, 0)) == 18.0
        with pytest.raises(IndexTooDeep):
            RJet.constant(1.0, 0).derivative(0)

    def test_partial_index_guards(self):
        j = seeded(1.0)
        with pytest.raises(IndexTooDeep):
            j.partial((1, 1, 1, 1))
        with pytest.raises(IndexTooDeep):
            j.partial((1, 1, 1))
        with pytest.raises(OrderTooHigh):
            RJet.constant(0.0, 4)

    def test_batch_seed(self):
        vals = np.array([1.0, 2.0, 3.0])
        j = RJet.seed(vals, 2, 2)
        sq = j * j
        assert np.allclose(sq.value, vals ** 2)
        assert np.allclose(sq.partial((0, 0, 1, 0)), 2 * vals)
        assert np.allclose(sq.partial((0, 0, 2, 0)), 2.0)


class TestElementary:
    def test_sin_cos_taylor(self):
        a = 0.7
        j = seeded(a).sin()
        assert abs(j.value - math.sin(a)) < 1e-15
        assert abs(j.partial((1, 0, 0, 0)) - math.cos(a)) < 1e-15
        assert abs(j.partial((2, 0, 0, 0)) - (-math.sin(a))) < 1e-15
        assert abs(j.partial((3, 0, 0, 0)) - (-math.cos(a))) < 1e-15
        k = seeded(a).cos()
        assert abs(k.partial((1, 0, 0, 0)) + math.sin(a)) < 1e-15

    def test_sqrt_taylor(self):
        a = 2.0
        j = jets.sqrt(seeded(a))
        s = math.sqrt(a)
        assert abs(j.value - s) < 1e-15
        assert abs(j.partial((1, 0, 0, 0)) - 0.5 / s) < 1e-15
        assert abs(j.partial((2, 0, 0, 0)) + 0.25 / s ** 3) < 1e-15
        assert abs(j.partial((3, 0, 0, 0)) - 0.375 / s ** 5) < 1e-15

    def test_recip_taylor(self):
        a = 1.6
        j = jets.recip(seeded(a))
        assert abs(j.value - 1 / a) < 1e-15
        assert abs(j.partial((1, 0, 0, 0)) + 1 / a ** 2) < 1e-15
        assert abs(j.partial((2, 0, 0, 0)) - 2 / a ** 3) < 1e-15
        assert abs(j.partial((3, 0, 0, 0)) + 6 / a ** 4) < 1e-14

    def test_atan_taylor(self):
        a = 0.5
        j = jets.atan(seeded(a))
        d = 1 + a * a
        assert abs(j.value - math.atan(a)) < 1e-15
        assert abs(j.partial((1, 0, 0, 0)) - 1 / d) < 1e-15
        assert abs(j.partial((2, 0, 0, 0)) + 2 * a / d ** 2) < 1e-15
        # third derivative of atan: (6 a^2 - 2) / (1 + a^2)^3
        assert abs(j.partial((3, 0, 0, 0))
                   - (6 * a * a - 2) / d ** 3) < 1e-14

    def test_atanh_taylor(self):
        a = 0.3
        j = jets.atanh(seeded(a))
        d = 1 - a * a
        assert abs(j.value - math.atanh(a)) < 1e-15
        assert abs(j.partial((1, 0, 0, 0)) - 1 / d) < 1e-15
        assert abs(j.partial((2, 0, 0, 0)) - 2 * a / d ** 2) < 1e-15

    def test_domain_guards(self):
        # Each guard refuses the same argument on a jet and on a point.
        for guard, bad in ((jets.sqrt, -1.0), (jets.recip, 0.0),
                           (jets.recip, 1e-290), (jets.atanh, 1.0)):
            for arg in (seeded(bad), bad):
                with pytest.raises(DomainError):
                    guard(arg)

    def test_recip_overflow(self):
        # An infinite top derivative is refused; it would make every
        # coefficient NaN, the value too.
        for bad, order in ((1e-200, 1), (1e-78, 3)):
            with pytest.raises(DomainError):
                jets.recip(seeded(bad, order=order))
        for good, order in ((1e-150, 1), (1e-70, 3)):
            assert np.all(np.isfinite(jets.recip(seeded(good, order=order)).c))

    def test_recip_makes_only_the_rows_it_reads(self):
        # An order-1 jet at 1e-150 reads rows 0 and 1; inv**3 and inv**4
        # would overflow, so they must not be made.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for good, order in ((1e-150, 1), (1e-70, 3)):
                c = jets.recip(seeded(good, order=order)).c
                assert np.all(np.isfinite(c))

    def test_point_is_its_batch(self):
        # A 0-d value gets the coefficients of its one-element batch, bit
        # for bit; numpy's scalar power rounds unlike its array loop.
        values = np.random.default_rng(12).uniform(0.05, 0.95, 60)
        for name in ("recip", "atan", "atanh"):
            for order in (2, 3):
                for a in values:
                    point = getattr(seeded(a, order=order), name)()
                    batch = getattr(seeded([a], order=order), name)()
                    assert point.c.tobytes() == batch.c.tobytes(), (
                        name, order, a)

    def test_scalar_fallbacks(self):
        # Dispatchers accept plain floats too.
        assert jets.atan(0.25) == math.atan(0.25)
        with pytest.raises(DomainError):
            jets.sqrt(-2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.4, 1.4))
    def test_sin_sq_plus_cos_sq(self, a):
        j = seeded(a)
        one = j.sin() * j.sin() + j.cos() * j.cos()
        assert abs(one.value - 1.0) < 1e-14
        for multi in ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)):
            assert abs(one.partial(multi)) < 1e-13


class TestQJet:
    def test_seed_and_value(self):
        p = q(1, 2, 3, 4)
        g = QJet.seed_cartesian(p, 2)
        assert_close(g.value, p)
        # d(p)/dx = i as a quaternion-valued gradient entry
        assert_close(g.derivative(1).value, q(x=1))

    def test_square_partials(self):
        # f = p^2, f(1+i) = 2i; df/dt = 2p; df/dx = i p + p i.
        p = q(1, 1, 0, 0)
        g = QJet.seed_cartesian(p, 2)
        f = g * g
        assert_close(f.value, q(x=2))
        assert_close(f.derivative(0).value, q(2, 2, 0, 0))
        assert_close(f.derivative(1).value, q(-2, 2, 0, 0))
        # mixed second partial of p^2 in (t, x): d/dt(i p + p i) = 2 i
        assert_close(f.partial((1, 1, 0, 0)), q(x=2))

    def test_inverse_jet(self):
        p = q(0.5, -1.2, 0.8, 2.0)
        g = QJet.seed_cartesian(p, 3)
        prod = g * g.inverse()
        assert_close(prod.value, q(t=1), tol=1e-14)
        for v in range(4):
            assert float(prod.derivative(v).value.norm()) < 1e-13
        with pytest.raises(ZeroDivisor):
            QJet.seed_cartesian(q(), 1).inverse()
        # A point and a jet are refused by one relative rule.
        for tiny in (q(1e-13), QJet.seed_cartesian(q(1e-13), 1)):
            with pytest.raises(ZeroDivisor):
                tiny.inverse()

    def test_conjugate_and_norm_sq(self):
        p = q(1, 2, 3, 4)
        g = QJet.seed_cartesian(p, 1)
        n = g.norm_sq()
        assert abs(n.value - 30.0) < 1e-12
        assert abs(n.partial((1, 0, 0, 0)) - 2.0) < 1e-14
        assert abs(n.partial((0, 0, 1, 0)) - 6.0) < 1e-14

    def test_integer_exact_associativity(self):
        # Integer coefficient jets multiply exactly, so association
        # order is bit-identical, not merely close.
        a = QJet.seed_cartesian(q(1, 2, -3, 4), 3)
        b = QJet.seed_cartesian(q(-2, 5, 1, -1), 3)
        c = QJet.seed_cartesian(q(3, -1, 2, 2), 3)
        left = (a * b) * c
        right = a * (b * c)
        for ja, jb in zip(left.components(), right.components()):
            assert np.array_equal(ja.c, jb.c)

    def test_order_zero_matches_point(self):
        pts = Quaternion(np.array([0.3, -1.0]), np.array([1.0, 2.0]),
                         np.array([-0.5, 0.25]), np.array([2.0, -1.5]))
        g = QJet.seed_cartesian(pts, 0)
        f_jet = (g * g * g).value
        f_pt = pts * pts * pts
        # identical arithmetic path, so bit-identical results
        assert np.array_equal(np.stack(f_jet.components()),
                              np.stack(f_pt.components()))

    @settings(max_examples=30, deadline=None)
    @given(coef, coef, coef, coef)
    def test_jet_value_tracks_point(self, t, x, y, z):
        p = Quaternion(t, x, y, z)
        g = QJet.seed_cartesian(p, 2)
        f = g * g + g.conjugate() * 2.0 - g
        want = p * p + p.conjugate() * 2.0 - p
        assert float((f.value - want).norm()) < 1e-12

    @pytest.mark.parametrize("order", (1, 2, 3))
    @pytest.mark.parametrize("batched", (True, False))
    def test_first_partials_are_the_partial_rows(self, order, batched):
        p = (SampleDomain().sample(7, seed=order) if batched
             else q(0.3, 1.1, -0.7, 0.4))
        s = QJet.seed_cartesian(p, order)
        g = s * s * s + s.inverse() * q(0.5, -1, 2, 0.25)

        def bits(quat):
            return np.stack([np.asarray(c, dtype=float)
                             for c in quat.components()]).view(np.int64)

        rows = g.first_partials()
        assert len(rows) == 4
        for var, row in enumerate(rows):
            unit = tuple(int(v == var) for v in range(4))
            assert np.array_equal(bits(row), bits(g.partial(unit)))
            assert np.array_equal(bits(row), bits(g.derivative(var).value))
            assert np.shape(row.t) == np.shape(g.value.t)
            # a view of the jet's coefficients, not a copy
            assert np.shares_memory(row.z, g.z.c)
        with pytest.raises(IndexTooDeep):
            QJet.seed_cartesian(p, 0).first_partials()

    def test_float_jet_near_associativity(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(-2.0, 2.0, size=(3, 4))
        a, b, c = (QJet.seed_cartesian(Quaternion(*v), 3) for v in vals)
        left = (a * b) * c
        right = a * (b * c)
        for ja, jb in zip(left.components(), right.components()):
            scale = float(np.max(np.abs(jb.c))) + 1.0
            assert float(np.max(np.abs(ja.c - jb.c))) <= 1e-13 * scale


# Reference arithmetic in the layout (batch..., N) that RJet.c shows, built
# here rather than from the module's tables; RJet results must equal it bit
# for bit.

def _pairs(order):
    """(i, j, k): a[i] * b[j] adds to product coefficient k, i outer, j
    inner."""
    idx = jets.INDICES[order]
    pos = {m: k for k, m in enumerate(idx)}
    return [(i, j, pos[tuple(x + y for x, y in zip(ma, mb))])
            for i, ma in enumerate(idx) for j, mb in enumerate(idx)
            if sum(ma) + sum(mb) <= order]


def _ref_mul(order, a, b):
    """Each product coefficient summed left to right over its pairs: an
    order no BLAS kernel or batch size can change."""
    out = [None] * len(jets.INDICES[order])
    for i, j, k in _pairs(order):
        term = a[..., i] * b[..., j]
        out[k] = term if out[k] is None else out[k] + term
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def _scatter_mul(order, a, b):
    """The product as a dense 0/1 scatter matmul, (pairs) @ S, as RJet took
    it before its step plan; BLAS picks the order of each sum."""
    ia, ib, ik = np.array(_pairs(order)).T
    scatter = np.zeros((len(ik), len(jets.INDICES[order])))
    scatter[np.arange(len(ik)), ik] = 1.0
    return (a[..., ia] * b[..., ib]) @ scatter


def _ref_add_scalar(c, s):
    out = np.broadcast_to(
        c, np.broadcast_shapes(np.shape(s) + (1,), c.shape)).copy()
    out[..., 0] += s
    return out


def _random_jet(rng, order, batch):
    return RJet(order, rng.uniform(-2.0, 2.0,
                                   batch + (len(jets.INDICES[order]),)))


def _batch_major(jet):
    """True when every coefficient is one contiguous row over the batch."""
    return np.moveaxis(jet.c, -1, 0).flags.c_contiguous


class TestCoefficientMajorLayout:
    BATCH_PAIRS = (((), (3,)), ((3,), (2, 3)), ((), (2, 3)), ((1,), (4,)))

    def test_order1_product_is_a0bi_plus_aib0(self):
        rng = np.random.default_rng(11)
        a, b = (_random_jet(rng, 1, (257,)) for _ in range(2))
        got = (a * b).c
        assert np.array_equal(got[..., 0], a.c[..., 0] * b.c[..., 0])
        for i in range(1, 5):
            want = a.c[..., 0] * b.c[..., i] + a.c[..., i] * b.c[..., 0]
            assert np.array_equal(got[..., i], want)

    @pytest.mark.parametrize("order", range(4))
    def test_jet_ops_across_batch_ranks(self, order):
        rng = np.random.default_rng(order)
        for ba, bb in self.BATCH_PAIRS:
            a, b = _random_jet(rng, order, ba), _random_jet(rng, order, bb)
            for x, y in ((a, b), (b, a)):
                cases = ((x + y, x.c + y.c), (x - y, x.c - y.c),
                         (x * y, _ref_mul(order, x.c, y.c)))
                for got, want in cases:
                    assert got.c.shape == want.shape
                    assert np.array_equal(got.c, want)
                    assert _batch_major(got)

    @pytest.mark.parametrize("order", (2, 3))
    def test_product_sums_pairs_left_to_right(self, order):
        rng = np.random.default_rng(20 + order)
        cases = [(batch, batch)
                 for batch in ((), (1,), (2,), (7,), (300,), (1000,))]
        cases += [((1000,), ()), ((), (1000,))]  # as in fueter_laplacian
        for ba, bb in cases:
            a, b = _random_jet(rng, order, ba), _random_jet(rng, order, bb)
            got, want = (a * b).c, _ref_mul(order, a.c, b.c)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("order", (2, 3))
    def test_product_matches_dense_scatter(self, order):
        # Same sums as the scatter matmul up to their order, which BLAS
        # may choose per row (it does at order 3 on batch tails).
        rng = np.random.default_rng(30 + order)
        for batch in ((), (7,), (300,), (1001,)):
            a, b = _random_jet(rng, order, batch), _random_jet(rng, order,
                                                              batch)
            old = _scatter_mul(order, a.c, b.c)
            scale = _scatter_mul(order, np.abs(a.c), np.abs(b.c))
            assert np.all(np.abs((a * b).c - old) <= 1e-15 * scale)

    @pytest.mark.parametrize("order", range(4))
    def test_scalar_and_array_operands(self, order):
        rng = np.random.default_rng(10 + order)
        for batch in ((), (3,), (2, 3)):
            jet = _random_jet(rng, order, batch)
            for s in (1.7, np.float64(-0.3), 2, rng.uniform(-1, 1, (3,)),
                      rng.uniform(-1, 1, (2, 3))):
                cases = ((jet * s, jet.c * np.asarray(s)[..., None]),
                         (s * jet, jet.c * np.asarray(s)[..., None]),
                         (jet + s, _ref_add_scalar(jet.c, s)),
                         (s + jet, _ref_add_scalar(jet.c, s)),
                         (jet - s, _ref_add_scalar(jet.c, -np.asarray(s))),
                         (s - jet, _ref_add_scalar(-jet.c, s)))
                for got, want in cases:
                    assert got.c.shape == want.shape
                    assert np.array_equal(got.c, want)
                    assert _batch_major(got)

    def test_c_view_layout(self):
        vals = np.arange(6.0).reshape(2, 3)
        for order in range(4):
            jet = RJet.seed(vals, 1, order)
            assert jet.c.shape == (2, 3, len(jets.INDICES[order]))
            assert np.array_equal(jet.c[..., 0], vals)
            assert np.array_equal(jet.value, vals)
            assert _batch_major(jet)
            assert _batch_major(jet.derivative(1) if order else jet)
        assert RJet.seed(2.0, 0, 1).c.shape == (5,)


def _shift(p, var, d):
    comps = list(p.components())
    comps[var] = comps[var] + d
    return Quaternion(*comps)


def _fd_first(f, pts, var, h=1e-5):
    def central(hh):
        return (f.eval_point(_shift(pts, var, hh))
                - f.eval_point(_shift(pts, var, -hh))) * (0.5 / hh)
    return (central(0.5 * h) * 4.0 - central(h)) * (1.0 / 3.0)


def _fd_second(f, pts, va, vb, h=1e-3):
    if va == vb:
        f0 = f.eval_point(pts)

        def stencil(hh):
            return (f.eval_point(_shift(pts, va, hh)) - f0 * 2.0
                    + f.eval_point(_shift(pts, va, -hh))) * (1.0 / (hh * hh))
    else:
        def stencil(hh):
            pp = f.eval_point(_shift(_shift(pts, va, hh), vb, hh))
            pm = f.eval_point(_shift(_shift(pts, va, hh), vb, -hh))
            mp = f.eval_point(_shift(_shift(pts, va, -hh), vb, hh))
            mm = f.eval_point(_shift(_shift(pts, va, -hh), vb, -hh))
            return (pp - pm - mp + mm) * (0.25 / (hh * hh))
    return (stencil(0.5 * h) * 4.0 - stencil(h)) * (1.0 / 3.0)


def _ref_hamilton(a, b):
    """The Hamilton product of two QJets written out over RJet operations,
    left to right."""
    return (a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z,
            a.t * b.x + a.x * b.t + a.y * b.z - a.z * b.y,
            a.t * b.y - a.x * b.z + a.y * b.t + a.z * b.x,
            a.t * b.z + a.x * b.y - a.y * b.x + a.z * b.t)


def _special_qjet(rng, order, batches):
    """A QJet with one batch shape per component, its coefficients random
    apart from a -0.0, an inf and a NaN."""
    comps = []
    for batch in batches:
        c = rng.uniform(-2.0, 2.0, batch + (len(jets.INDICES[order]),))
        flat = c.reshape(-1)
        for pos, v in zip((1, 4, 6), (-0.0, math.inf, math.nan)):
            if flat.size > pos:
                flat[pos] = v
        comps.append(RJet(order, c))
    return QJet(*comps)


class TestHamiltonProduct:
    @staticmethod
    def assert_bits(got, want):
        for g, w in zip(got.components(), want):
            assert g.c.shape == w.c.shape
            assert np.array_equal(g.c.view(np.int64), w.c.view(np.int64))
            assert _batch_major(g)

    @pytest.mark.parametrize("order", range(4))
    def test_product_matches_written_out_formula(self, order):
        rng = np.random.default_rng(40 + order)
        batches = [(), (1,), (7,), (1000,)] + [(10000,)] * (order == 1)
        with np.errstate(invalid="ignore"):
            for batch in batches:
                a = _special_qjet(rng, order, [batch] * 4)
                b = _special_qjet(rng, order, [batch] * 4)
                self.assert_bits(a * b, _ref_hamilton(a, b))
            # components of different batch ranks and shapes
            a = _special_qjet(rng, order, [(), (7,), (1, 7), (7,)])
            b = _special_qjet(rng, order, [(3, 1), (), (7,), (3, 7)])
            self.assert_bits(a * b, _ref_hamilton(a, b))
            self.assert_bits(b * a, _ref_hamilton(b, a))

    @pytest.mark.parametrize("order", range(4))
    def test_constant_times_batched_jet(self, order):
        rng = np.random.default_rng(50 + order)
        g = _special_qjet(rng, order, [(300,)] * 4)
        c = Quaternion(0.5, -0.0, 1.0, -2.0)
        const = QJet.from_quaternion(c, order)
        with np.errstate(invalid="ignore"):
            self.assert_bits(c * g, _ref_hamilton(const, g))
            self.assert_bits(g * c, _ref_hamilton(g, const))

    def test_order_mismatch(self):
        p = q(1, 2, 3, 4)
        with pytest.raises(BasisMismatch):
            QJet.seed_cartesian(p, 1) * QJet.seed_cartesian(p, 2)
        # every component must be a jet: a plain number is not promoted
        g = QJet.seed_cartesian(p, 1)
        with pytest.raises(BasisMismatch):
            QJet(g.t, g.x, g.y, 0.0)


class TestNumpyOperands:
    def test_ndarray_on_the_left_of_a_qjet(self):
        # numpy defers to the jet operators instead of building an object
        # array; without them the operation is a TypeError.
        p = Quaternion(np.ones(3), np.full(3, 2.0), np.ones(3), np.ones(3))
        g = QJet.seed_cartesian(p, 1)
        s = np.array([0.5, -1.0, 2.0])
        prod = s * g
        assert isinstance(prod, QJet)
        for got, want in zip(prod.components(), (g * s).components()):
            assert np.array_equal(got.c, want.c)
        with pytest.raises(TypeError):
            s + g
        with pytest.raises(TypeError):
            g + s

    def test_negation_is_scaling_by_minus_one(self):
        p = Quaternion(np.array([0.3, -1.0]), np.array([1.0, 2.0]),
                       np.array([-0.5, 0.25]), np.array([2.0, -1.5]))
        g = QJet.seed_cartesian(p, 2)
        g = g * g
        neg = -g
        assert isinstance(neg, QJet)
        for got, want in zip(neg.components(), (g * -1.0).components()):
            assert got.c.tobytes() == want.c.tobytes()


class TestJetsAgainstFiniteDifferences:
    def test_catalog_partials_match_fd(self):
        # Every first and second raw partial of every inventory member is
        # cross-checked against Richardson-extrapolated central
        # differences on a shared 100-point sample.
        base = SampleDomain(t_range=(-1.2, 1.2), r_range=(0.6, 1.8),
                            s_min=0.15)
        for f in default_inventory():
            pts = base.merge(f.domain).sample(100, seed=77)
            jet = f.eval_jet(QJet.seed_cartesian(pts, 2))
            for v in range(4):
                want = _fd_first(f, pts, v)
                got = jet.partial(tuple(int(v == m) for m in range(4)))
                gap = float(np.max((got - want).norm()))
                scale = float(np.max(want.norm())) + 1.0
                assert gap <= 1e-5 * scale, (f.fid, "first", v, gap)
            for va in range(4):
                for vb in range(va, 4):
                    want = _fd_second(f, pts, va, vb)
                    multi = tuple(int(va == m) + int(vb == m)
                                  for m in range(4))
                    got = jet.partial(multi)
                    gap = float(np.max((got - want).norm()))
                    scale = float(np.max(want.norm())) + 1.0
                    assert gap <= 1e-5 * scale, (f.fid, "second", va, vb, gap)
