"""Differential operator tests.

Every operator is pinned against hand-derived closed forms first, then the
Cartesian and spherical routes are cross-checked against each other and
against the finite-difference backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (BadParams, DegenerateChart, OnRealAxis, QJet, Quaternion,
                     SampleDomain, angular_derivative, catalog_get,
                     cullen_left, default_inventory, fueter_laplacian,
                     fueter_left, fueter_left_spherical, iota_of, laplacian,
                     lemma1_residual, spherical_frame, theorem1_residuals,
                     to_spherical)
from quatreg import operators
from conftest import FnWrap, assert_close, q

P0 = q(1, 2, 3, 6)          # r = 7, well off the axis and the plane
POWER1 = catalog_get("power", "1")
POWER2 = catalog_get("power", "2")
POWER3 = catalog_get("power", "3")
CONJ = catalog_get("conj")
IOTA = catalog_get("iota")

#: The operators with both a jets and an fd backend.
FD_OPERATORS = (fueter_left, fueter_left_spherical, cullen_left,
                angular_derivative, laplacian)


class TestClosedForms:
    def test_fueter_linear(self):
        # D_l p = 1 + i i + j j + k k = -2; D_l conj(p) = 4.
        assert_close(fueter_left(POWER1, P0), q(t=-2), tol=1e-14)
        assert_close(fueter_left(CONJ, P0), q(t=4), tol=1e-14)

    def test_fueter_iota(self):
        # D_l iota = -2 / r.
        got = fueter_left(IOTA, P0)
        assert_close(got, q(t=-2.0 / 7.0), tol=1e-13)

    def test_cullen_closed_forms(self):
        for f in (POWER1, POWER2, POWER3):
            assert float(cullen_left(f, P0).norm()) < 1e-13
        assert_close(cullen_left(CONJ, P0), q(t=2), tol=1e-13)

    def test_angular_closed_forms(self):
        # On the slice p = t + r iota, f = A + B iota has angular
        # derivative 2 B: iota itself gives 2, p gives 2r, conj -2r.
        assert_close(angular_derivative(IOTA, P0), q(t=2), tol=1e-12)
        assert_close(angular_derivative(POWER1, P0), q(t=14), tol=1e-12)
        assert_close(angular_derivative(CONJ, P0), q(t=-14), tol=1e-12)

    def test_laplacian_closed_forms(self):
        assert_close(laplacian(POWER2, P0), q(t=-4), tol=1e-12)
        # Delta p^3 = -12 t - 4 (x i + y j + z k).
        assert_close(laplacian(POWER3, P0), q(-12, -8, -12, -24), tol=1e-11)
        # Delta iota = -2 iota / r^2.
        want = iota_of(P0) * (-2.0 / 49.0)
        assert_close(laplacian(IOTA, P0), want, tol=1e-13)

    def test_fueter_laplacian(self):
        assert float(fueter_laplacian(POWER3, P0).norm()) < 1e-11
        assert float(fueter_laplacian(catalog_get("power", "-1"),
                                      P0).norm()) < 1e-11
        # D_l Delta conj(p)^3 = -24: a nonlinear function that fails it.
        cube_bar = FnWrap(lambda g: (g * g * g).conjugate())
        assert_close(fueter_laplacian(cube_bar, P0), q(t=-24), tol=1e-10)


class TestCrossChecks:
    def test_spherical_matches_cartesian(self):
        dom = SampleDomain()
        for f in default_inventory():
            pts = dom.merge(f.domain).sample(128, seed=21)
            a = fueter_left(f, pts)
            b = fueter_left_spherical(f, pts)
            scale = 1.0 + float(np.max(a.norm()))
            assert float(np.max((a - b).norm())) < 1e-11 * scale

    def test_fd_matches_jets(self):
        pts = SampleDomain().sample(20, seed=5)
        for op in FD_OPERATORS:
            for f in (POWER2, CONJ):
                a = op(f, pts, backend="jets")
                b = op(f, pts, backend="fd")
                scale = 1.0 + float(np.max(a.norm()))
                gap = float(np.max((a - b).norm()))
                assert gap < 1e-6 * scale, \
                    f"{op.__name__}/{f.fid}: {gap:.2e}"

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2))
    def test_fueter_right_linearity(self, a, b, c, d):
        # D_l is left; multiplying by a constant on the right commutes.
        cst = Quaternion(a, b, c, d)
        combo = FnWrap(lambda g: (g * g) * cst + g * 2.0)
        lhs = fueter_left(combo, P0)
        rhs = fueter_left(POWER2, P0) * cst + fueter_left(POWER1, P0) * 2.0
        assert_close(lhs, rhs, tol=1e-11)

    def test_all_operators_right_linear(self):
        # Every operator acts through left coefficients only, so
        # additivity and right multiplication by a constant commute.
        cst = q(0.5, -1.0, 2.0, 0.25)
        f1 = FnWrap(lambda g: g * g)
        f2 = FnWrap(lambda g: g.conjugate() * g)
        combo = FnWrap(lambda g: (g * g) * cst + g.conjugate() * g)
        for op in FD_OPERATORS:
            lhs = op(combo, P0)
            rhs = op(f1, P0) * cst + op(f2, P0)
            scale = 1.0 + float(np.max(rhs.norm()))
            gap = float(np.max((lhs - rhs).norm()))
            assert gap < 1e-11 * scale, (op.__name__, gap)


def _units_sum(dt, dx, dy, dz):
    """D_l with the units applied by Hamilton products."""
    i, j, k = q(x=1), q(y=1), q(z=1)
    return dt + i * dx + j * dy + k * dz


class TestFueterSum:
    def test_signed_sum_equals_unit_products(self):
        # Through every D_l route on every default member: the jets and
        # fd backends of fueter_left, and fueter_laplacian.
        dom = SampleDomain()
        for f in default_inventory():
            pts = dom.merge(f.domain).sample(200, seed=13)
            partials = QJet.seed_cartesian(pts, 1)
            fd = [operators._fd_cart_partial(f, pts, v) for v in range(4)]
            lap = operators._laplacian_jet(
                f.eval_jet(QJet.seed_cartesian(pts, 3)))
            cases = (
                (fueter_left(f, pts),
                 f.eval_jet(partials).first_partials()),
                (fueter_left(f, pts, backend="fd"), fd),
                (fueter_laplacian(f, pts), lap.first_partials()))
            for got, parts in cases:
                assert np.array_equal(
                    np.stack(operators._fueter_sum(*parts).components()),
                    np.stack(_units_sum(*parts).components())), f.fid
                assert np.array_equal(np.stack(got.components()),
                                      np.stack(_units_sum(*parts)
                                               .components())), f.fid


class TestFdStencils:
    """Each FD partial calls f once, on its four shifts stacked on a new
    axis of length 4 before the point's batch axes."""

    @staticmethod
    def _counted(f):
        shapes = []

        def point(p):
            shapes.append(np.broadcast(*p.components()).shape)
            return f.eval_point(p)
        return FnWrap(point), shapes

    def test_calls_per_operator(self):
        pts = SampleDomain().sample(20, seed=7)
        for op, want in ((fueter_left, 4), (fueter_left_spherical, 4),
                         (cullen_left, 2), (angular_derivative, 2),
                         (laplacian, 5)):
            for p in (pts, pts[0]):
                g, shapes = self._counted(POWER2)
                op(g, p, backend="fd")
                assert len(shapes) == want, op.__name__
                # No call gets more than four times the batch.
                assert all(np.prod(s) <= 4 * np.size(p.t) for s in shapes)

    def test_ignored_shifts(self):
        # coord:x ignores three of the Cartesian shifts, and each conj
        # component ignores three: f returns those batch-shaped, and the
        # partials come back batch-shaped, those of coord:x zero.  The
        # batch is that of all four components: a real t takes it from
        # x, y and z.
        pts = SampleDomain().sample(20, seed=8)
        flat_t = Quaternion(0.5, pts.x, pts.y, pts.z)
        coord_x = catalog_get("coord", "x")
        for f in (coord_x, CONJ):
            for p in (pts, pts[0], flat_t):
                batch = np.broadcast(*p.components()).shape
                sp = to_spherical(p)
                for var in range(4):
                    cart = operators._fd_cart_partial(f, p, var)
                    for d in (cart, operators._fd_sph_partial(f, sp, var)):
                        for c in d.components():
                            assert np.shape(c) == batch, (f.fid, var)
                    if f is coord_x and var != 1:
                        assert not np.any(np.stack(cart.components()))


class TestGuards:
    def test_real_axis(self):
        with pytest.raises(OnRealAxis):
            spherical_frame(q(t=2.0), 1)
        with pytest.raises(OnRealAxis):
            fueter_left_spherical(POWER2, q(t=2.0))

    def test_degenerate_plane(self):
        bad = q(1, 0, 0, 1)
        with pytest.raises(DegenerateChart):
            spherical_frame(bad, 1)
        with pytest.raises(DegenerateChart):
            angular_derivative(IOTA, bad)
        # the Cartesian route does not care about the chart
        assert_close(fueter_left(POWER1, bad), q(t=-2), tol=1e-14)

    @pytest.mark.parametrize("check", FD_OPERATORS + (lemma1_residual,
                                                      theorem1_residuals))
    def test_unknown_backend(self, check):
        # Neither backend stands in for a name that is not one.
        with pytest.raises(BadParams, match="backend"):
            check(POWER2, P0, backend="both")

    def test_frame_fields(self):
        fr = spherical_frame(P0, 2)
        assert fr.seed.order == 2
        assert_close(fr.iota.value, iota_of(P0), tol=1e-14)
        assert abs(float(fr.sin_beta)
                   - np.sqrt(13.0) / 7.0) < 1e-14
        # iota_alpha and iota_beta are tangent: orthogonal to iota
        for tang in (fr.iota.derivative(2), fr.iota.derivative(3)):
            dot = (fr.iota.value.conjugate() * tang.value).t
            assert abs(float(dot)) < 1e-13
