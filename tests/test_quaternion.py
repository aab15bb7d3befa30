"""Quaternion algebra and spherical chart tests.

Hand-worked oracle values are inlined; the hypothesis blocks exercise the
algebraic laws on random batches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (BasisMismatch, DegenerateChart, OnRealAxis, QJet,
                     Quaternion, SampleDomain, ZeroDivisor, from_spherical,
                     iota_of, to_spherical)
from conftest import assert_close, q

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def rand_q(draw):
    return Quaternion(draw(finite), draw(finite), draw(finite), draw(finite))


quat = st.builds(Quaternion, finite, finite, finite, finite)


class TestArithmetic:
    def test_basis_table(self):
        i, j, k = q(x=1), q(y=1), q(z=1)
        one = q(t=1)
        assert_close(i * i, -one)
        assert_close(j * j, -one)
        assert_close(k * k, -one)
        assert_close(i * j, k)
        assert_close(j * i, -k)
        assert_close(j * k, i)
        assert_close(k * j, -i)
        assert_close(k * i, j)
        assert_close(i * k, -j)
        assert_close(i * j * k, -one)

    def test_known_product(self):
        # (1+2i+3j+4k)(5+6i+7j+8k) computed by hand.
        a = q(1, 2, 3, 4)
        b = q(5, 6, 7, 8)
        assert_close(a * b, q(-60, 12, 30, 24))
        assert_close(b * a, q(-60, 20, 14, 32))

    def test_scalar_and_sub(self):
        a = q(1, 2, 3, 4)
        assert_close(a * 2, q(2, 4, 6, 8))
        assert_close(2 * a, q(2, 4, 6, 8))
        assert_close(a - q(1, 1, 1, 1), q(0, 1, 2, 3))
        assert_close(-a, q(-1, -2, -3, -4))

    def test_ndarray_on_the_left_scales(self):
        # numpy defers to the quaternion operators instead of building an
        # object array, so s * a is a * s, bit for bit.
        a = q(0.3, -1.0 / 3.0, 2.5, 0.7)
        for s in (np.ones(3), np.array([0.5, -1.0 / 7.0, 3.0])):
            prod = s * a
            assert isinstance(prod, Quaternion)
            for got, want in zip(prod.components(), (a * s).components()):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_algebra_for_points_and_jets(self):
        # The componentwise operations are written once, for both; each
        # class keeps its own Hamilton product in its own namespace.
        for name in ("components", "__add__", "__radd__", "__sub__",
                     "__neg__", "_scale", "__rmul__", "conjugate",
                     "norm_sq"):
            assert getattr(Quaternion, name) is getattr(QJet, name), name
        assert "__mul__" in vars(Quaternion) and "__mul__" in vars(QJet)

    def test_norm_and_conjugate(self):
        a = q(1, 2, 3, 4)
        assert float(a.norm_sq()) == 30.0
        assert abs(float(a.norm()) - math.sqrt(30.0)) < 1e-15
        assert_close(a * a.conjugate(), q(t=30.0))
        assert abs(float(a.imag_norm()) - math.sqrt(29.0)) < 1e-15

    def test_inverse(self):
        a = q(1, 2, 3, 4)
        assert_close(a * a.inverse(), q(t=1), tol=1e-14)
        assert_close(a.inverse() * a, q(t=1), tol=1e-14)
        with pytest.raises(ZeroDivisor):
            q().inverse()

    def test_inverse_closed_form(self):
        # (1+i+j+k)^-1 = (1-i-j-k)/4 since |1+i+j+k|^2 = 4.
        assert_close(q(1, 1, 1, 1).inverse(), q(0.25, -0.25, -0.25, -0.25),
                     tol=1e-15)

    def test_norm_multiplicative_bulk(self):
        # 10^4 random pairs in one batched call.
        rng = np.random.default_rng(2024)
        comps = rng.uniform(-5.0, 5.0, size=(8, 10_000))
        a = Quaternion(*comps[:4])
        b = Quaternion(*comps[4:])
        lhs = (a * b).norm()
        rhs = a.norm() * b.norm()
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)

    def test_batch_shapes(self):
        t = np.linspace(0, 1, 5)
        a = Quaternion(t, t + 1, t + 2, t + 3)
        b = a * a
        assert b.t.shape == (5,)
        one = a[2]
        assert float(one.t) == t[2]
        assert np.stack(a.components()).shape == (4, 5)

    def test_mixed_batch_raises(self):
        a = Quaternion(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        b = Quaternion(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))
        with pytest.raises((BasisMismatch, ValueError)):
            (a * b).t


class TestHypothesisLaws:
    @settings(max_examples=60, deadline=None)
    @given(quat, quat)
    def test_norm_multiplicative(self, a, b):
        lhs = float((a * b).norm())
        rhs = float(a.norm() * b.norm())
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)

    @settings(max_examples=60, deadline=None)
    @given(quat, quat, quat)
    def test_associative(self, a, b, c):
        scale = float(a.norm() * b.norm() * c.norm()) + 1.0
        gap = float(((a * b) * c - a * (b * c)).norm())
        assert gap <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(quat, quat)
    def test_conjugate_antihomomorphism(self, a, b):
        scale = float(a.norm() * b.norm()) + 1.0
        gap = float(((a * b).conjugate()
                     - b.conjugate() * a.conjugate()).norm())
        assert gap <= 1e-10 * scale


class TestIotaChart:
    def test_iota_unit_square(self):
        p = q(0.3, 1.0, -2.0, 0.5)
        u = iota_of(p)
        assert abs(float(u.norm()) - 1.0) < 1e-14
        assert_close(u * u, q(t=-1), tol=1e-14)

    def test_iota_unit_square_bulk(self):
        pts = SampleDomain().sample(2000, seed=17)
        u = iota_of(pts)
        assert np.all(np.abs(u.norm() - 1.0) < 1e-12)
        sq = u * u
        assert np.all((sq + q(t=1)).norm() < 1e-12)

    def test_slice_reconstruction(self):
        # p = t + r * iota(p) exactly, up to rounding.
        pts = SampleDomain().sample(2000, seed=18)
        rebuilt = q(t=1) * pts.t + iota_of(pts) * pts.imag_norm()
        assert np.all((rebuilt - pts).norm() <= 1e-14 * pts.norm())

    def test_iota_on_axis_raises(self):
        with pytest.raises(OnRealAxis):
            iota_of(q(t=2.0))

    def test_iota_of_a_jet_has_the_point_bits(self):
        pts = SampleDomain().sample(200, seed=19)
        jet = iota_of(QJet.seed_cartesian(pts, 1))
        assert isinstance(jet, QJet)
        for got, want in zip(jet.value.components(),
                             iota_of(pts).components()):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_iota_of_a_jet_on_axis_raises(self):
        with pytest.raises(OnRealAxis):
            iota_of(QJet.seed_cartesian(q(t=2.0), 1))

    def test_chart_known_point(self):
        # p = 1 + i: r = 1, alpha = 0, beta = pi/2.
        s = to_spherical(q(1, 1, 0, 0))
        assert abs(float(s.t) - 1.0) < 1e-15
        assert abs(float(s.r) - 1.0) < 1e-15
        assert abs(float(s.alpha)) < 1e-15
        assert abs(float(s.beta) - math.pi / 2) < 1e-15

    def test_chart_quadrants(self):
        # x < 0, y > 0 puts alpha in (pi/2, pi).
        s = to_spherical(q(0, -1, 1, 0))
        assert abs(float(s.alpha) - 3 * math.pi / 4) < 1e-14
        # y < 0 wraps into (pi, 2 pi) under the mod-2pi convention.
        s2 = to_spherical(q(0, 1, -1, 0))
        assert abs(float(s2.alpha) - 7 * math.pi / 4) < 1e-14

    def test_roundtrip(self):
        dom = SampleDomain()
        pts = dom.sample(64, seed=11)
        back = from_spherical(to_spherical(pts))
        assert_close(back, pts, tol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-3, 3), st.floats(0.1, 3), st.floats(0.0, 6.2),
           st.floats(0.05, math.pi - 0.05))
    def test_roundtrip_from_chart(self, t, r, alpha, beta):
        from quatreg.quaternion import SphericalPoint
        s0 = SphericalPoint(t, r, alpha, beta)
        s1 = to_spherical(from_spherical(s0))
        assert abs(float(s1.t) - t) < 1e-10
        assert abs(float(s1.r) - r) < 1e-10 * (1 + r)
        da = (float(s1.alpha) - alpha) % (2 * math.pi)
        assert min(da, 2 * math.pi - da) < 1e-9
        assert abs(float(s1.beta) - beta) < 1e-9

    def test_degenerate_plane_convention(self):
        # Chart coordinates still exist on the plane t + z*k with the
        # alpha = 0 convention; only frame construction rejects it.
        s = to_spherical(q(1, 0, 0, 1))
        assert float(s.alpha) == 0.0
        assert abs(float(s.beta)) < 1e-15
        from quatreg import spherical_frame
        with pytest.raises(DegenerateChart):
            spherical_frame(q(1, 0, 0, 1), 1)


class TestSampleDomain:
    def test_sample_respects_bounds(self):
        dom = SampleDomain(t_range=(-1, 1), r_range=(0.5, 2.0), s_min=0.2)
        pts = dom.sample(300, seed=3)
        r = pts.imag_norm()
        assert np.all(pts.t >= -1) and np.all(pts.t <= 1)
        assert np.all(r >= 0.5) and np.all(r <= 2.0 + 1e-12)
        sin_beta = np.sqrt(pts.x ** 2 + pts.y ** 2) / r
        assert np.all(sin_beta >= 0.2 - 1e-12)

    def test_sample_deterministic(self):
        dom = SampleDomain()
        a = dom.sample(50, seed=9)
        b = dom.sample(50, seed=9)
        assert np.array_equal(a.components(), b.components())
        c = dom.sample(50, seed=10)
        assert not np.array_equal(a.components(), c.components())

    def test_merge_tightens(self):
        a = SampleDomain(r_range=(0.5, 2.0))
        b = SampleDomain(r_range=(1.0, 3.0), p_norm_range=(1.2, np.inf))
        m = a.merge(b)
        assert m.r_range == (1.0, 2.0)
        pts = m.sample(100, seed=1)
        assert np.all(pts.norm() >= 1.2)

    def test_contains(self):
        dom = SampleDomain(r_range=(0.5, 2.0), s_min=0.1)
        assert bool(np.all(dom.contains(q(0, 1, 0.5, 0))))
        assert not bool(np.all(dom.contains(q(0, 0.1, 0.1, 0))))
