"""Differential operator tests.

Every operator is pinned against hand-derived closed forms first, then the
Cartesian and spherical routes are cross-checked against each other and
against the finite-difference backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (BadParams, DegenerateChart, IndexTooDeep, OnRealAxis,
                     OrderTooHigh, QJet, Quaternion, RJet, SampleDomain,
                     SuiteConfig, angular_derivative, catalog_get,
                     cullen_left, default_inventory, fueter_laplacian,
                     fueter_left, fueter_left_spherical, iota_of, laplacian,
                     lemma1_residual, run_suite, slice_parts, spherical_frame,
                     theorem1_residuals, to_spherical)
from quatreg import operators, regularity
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
        # Neither backend stands in for a name that is not one, and the
        # name is checked before the point's chart.
        for p in (P0, q(t=2.0)):
            with pytest.raises(BadParams, match="backend"):
                check(POWER2, p, backend="both")

    def test_frame_order_guards(self):
        for order in (0, -1):
            with pytest.raises(IndexTooDeep):
                spherical_frame(P0, order)
        with pytest.raises(OrderTooHigh):
            spherical_frame(P0, 4)
        # The chart is refused before either order.
        for order in (0, 4):
            with pytest.raises(OnRealAxis):
                spherical_frame(q(t=2.0), order)
            with pytest.raises(DegenerateChart):
                spherical_frame(q(1, 0, 0, 1), order)
        # Just inside both chart guards the frame builds at every order,
        # its inverses included, and they are finite.
        s = 2.0 * operators.S_MIN
        near = q(0.5, 2.0 * operators.R_MIN * s, 0.0,
                 2.0 * operators.R_MIN * np.sqrt(1.0 - s * s))
        for order in (1, 2, 3):
            fr = spherical_frame(near, order)
            for inv in (fr.iota_alpha_inv, fr.iota_beta_inv):
                assert inv.order == order - 1
                assert all(np.all(np.isfinite(c._cm))
                           for c in inv.components())

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


def _composed_frame(p, order):
    """The chart frame as the jet algebra composes it: the seeds of t, r,
    alpha and beta, their sin and cos, iota's products and r times iota."""
    sp = operators._chart(p)
    sin_beta = np.sin(sp.beta)
    if np.any(sin_beta <= operators.S_MIN):
        raise DegenerateChart("sin(beta) below S_MIN")
    jt, jr, ja, jb = (RJet.seed(v, var, order) for var, v
                      in enumerate((sp.t, sp.r, sp.alpha, sp.beta)))
    sa, ca = ja.sin(), ja.cos()
    sb, cb = jb.sin(), jb.cos()
    ix, iy, iz = ca * sb, sa * sb, cb
    iota = QJet(RJet.zero(order), ix, iy, iz)
    return operators.SphericalFrame(
        sp, QJet(jt, jr * ix, jr * iy, jr * iz), iota, sin_beta,
        iota.derivative(2).inverse(), iota.derivative(3).inverse())


#: Sampled points; a batch with alpha exactly 0 (y = +0 and y = -0) and pi,
#: beta past pi/2, t = 0 and a tiny y; a 0-d point at alpha = 0; and a
#: (3, 4) batch with a 0-d t.
FRAME_POINTS = (
    SampleDomain().sample(600, seed=7),
    Quaternion(np.array([0.0, 1.0, -1.0, 0.5, 0.0, 2.0]),
               np.array([1.0, -2.0, 1.0, 1e-3, 3.0, 0.5]),
               np.array([0.0, 0.0, -0.0, 0.0, 1e-300, -1.0]),
               np.array([-0.5, 1.0, 2.0, -3.0, 0.1, 0.0])),
    q(0.0, 1.0, 0.0, -0.7),
    Quaternion(0.25, *np.random.default_rng(1).uniform(-1.5, 1.5, (3, 3, 4))),
)


class TestClosedFormFrame:
    """spherical_frame writes its rows in closed form; every coefficient
    keeps the bits of the composed frame, and so does every record."""

    @pytest.mark.parametrize("order", (1, 2, 3))
    def test_bits_match_the_composition(self, order):
        for p in FRAME_POINTS:
            got, want = spherical_frame(p, order), _composed_frame(p, order)
            for name in ("seed", "iota", "iota_alpha_inv", "iota_beta_inv"):
                pairs = zip(getattr(got, name).components(),
                            getattr(want, name).components())
                for k, (g, w) in enumerate(pairs):
                    where = f"{name}[{k}] at order {order}"
                    assert g._cm.shape == w._cm.shape, where
                    assert np.array_equal(g._cm.view(np.int64),
                                          w._cm.view(np.int64)), where
                    assert g._mark == w._mark, where
                    assert g._cm.flags.c_contiguous, where
                    assert w._cm.flags.c_contiguous, where

    @pytest.mark.parametrize("seed", (0, 1))
    def test_records_match_the_composition(self, seed, monkeypatch):
        cfg = SuiteConfig(suites=("theorem1", "lemma1", "hyperholomorphy"),
                          backend="both", samples=40, seed=seed)
        members = default_inventory()
        assert len(members) == 16

        def records():
            text, _ = run_suite(cfg)
            body = [ln for ln in text.splitlines() if not ln.startswith("#")]
            parts = []
            for f in members:
                pts = SampleDomain().merge(f.domain).sample(40, seed=seed)
                sp = slice_parts(f, pts)
                parts.append(b"".join(
                    np.asarray(c).tobytes() for part
                    in (sp.u, sp.v, sp.reconstruction)
                    for c in part.components()))
            return body, parts

        closed = records()
        calls = []

        def composed(p, order):
            calls.append(order)
            return _composed_frame(p, order)

        monkeypatch.setattr(operators, "spherical_frame", composed)
        monkeypatch.setattr(regularity, "spherical_frame", composed)
        assert records() == closed
        assert {1, 2} <= set(calls)


def _bits(c):
    return np.asarray(c, dtype=float).view(np.int64)


#: The points of FRAME_POINTS, sin(beta) just above S_MIN at alpha = 0
#: with y = +0 and -0, and a 0-d point at alpha = 0 with y = -0.
_S = 1.5 * operators.S_MIN
ANGULAR_POINTS = FRAME_POINTS + (
    Quaternion(0.5, np.array([_S, _S, -_S, 0.3]), np.array([0.0, -0.0, 0.0, -_S]),
               np.array([np.sqrt(1.0 - _S * _S)] * 3 + [-1.0])),
    q(0.0, 1.0, -0.0, 2.0),
)


class TestAngularInverses:
    """The FD angular operator inverts iota's alpha and beta rows with no
    chart frame built, with the bits of the order-1 frame's inverses."""

    def test_bits_match_the_frame(self):
        for p in ANGULAR_POINTS:
            sp, *got = operators._angular_inverses(p)
            frame = spherical_frame(p, 1)
            assert np.array_equal(_bits(sp.r), _bits(frame.chart.r))
            for inv, jet in zip(got, (frame.iota_alpha_inv,
                                      frame.iota_beta_inv)):
                want = jet.value
                assert type(inv.t) is float and inv.t == 0.0
                assert type(want.t) is float
                for g, w in zip(inv.components()[1:],
                                want.components()[1:]):
                    assert np.shape(g) == np.shape(w)
                    assert np.array_equal(_bits(g), _bits(w))

    def test_guards_in_the_frame_order(self):
        bad = ((q(t=2.0), OnRealAxis), (q(1, 0, 0, 1), DegenerateChart),
               (Quaternion(0.0, np.array([1.0, 0.0]), 0.0,
                           np.array([1.0, 1.0])), DegenerateChart))
        for p, err in bad:
            for check in (lambda: spherical_frame(p, 1),
                          lambda: operators._angular_inverses(p),
                          lambda: angular_derivative(IOTA, p, backend="fd")):
                with pytest.raises(err):
                    check()


def _laplacian_chain(g):
    """The Laplacian as the sum of g.derivative(v).derivative(v)."""
    lap = g.derivative(0).derivative(0)
    for v in (1, 2, 3):
        lap = lap + g.derivative(v).derivative(v)
    return lap


class TestLaplacianRows:
    @pytest.mark.parametrize("order", (2, 3))
    def test_bits_match_the_derivative_chain(self, order):
        rng = np.random.default_rng(130 + order)
        pts = SampleDomain().sample(300, seed=order)
        z = RJet.zero(order)
        n = len(operators._POS[order])
        jets_ = [f.eval_jet(QJet.seed_cartesian(pts, order))
                 for f in default_inventory()]
        jets_.append(QJet(z, RJet(order, rng.uniform(-2, 2, (3, 4, n))),
                          RJet.seed(0.5, 1, order),
                          RJet(order, rng.uniform(-2, 2, n))))
        jets_.append(QJet(RJet.constant(2.0, order), z, z, z))
        for g in jets_:
            got, want = operators._laplacian_jet(g), _laplacian_chain(g)
            assert got.order == order - 2
            for gc, wc in zip(got.components(), want.components()):
                assert gc._mark == wc._mark
                assert gc._cm.shape == wc._cm.shape
                assert np.array_equal(gc._cm.view(np.int64),
                                      wc._cm.view(np.int64))


class TestFramesStayUnchanged:
    """The order-1 derivatives the jet checkers take are views of their
    frame's rows; no checker writes into them."""

    def test_checkers_leave_the_frame_bits(self, monkeypatch):
        frames = []

        def recorded(p, order):
            fr = spherical_frame(p, order)
            frames.append((fr, _frame_bytes(fr)))
            return fr

        monkeypatch.setattr(regularity, "spherical_frame", recorded)
        for f in default_inventory():
            pts = SampleDomain().merge(f.domain).sample(50, seed=5)
            theorem1_residuals(f, pts)
            lemma1_residual(f, pts)
            regularity.hyperholomorphy_report(f, pts)
        assert {fr.seed.order for fr, _ in frames} == {1, 2}
        for fr, before in frames:
            assert _frame_bytes(fr) == before


def _frame_bytes(fr):
    return b"".join(comp._cm.tobytes() for jet in (fr.seed, fr.iota)
                    for comp in jet.components())
