"""Hypersurface quadrature and integral-characterization tests.

Quadrature is pinned against closed forms: the 3-sphere of radius R has
area 2 pi^2 R^3 and encloses volume pi^2 R^4 / 2, the left moment
integral of p over any such sphere is -pi^2 R^4, and flux/divergence
pairs of polynomial fields must balance to rounding.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quatreg import (BadParams, DomainError, QFunction, QJet, Quaternion,
                     SampleDomain, SuiteConfig,
                     TouchesRealAxis, catalog_get, default_inventory,
                     from_string, fueter_left, gauss_report, iota_of,
                     iota_times, generalized_regularity_test,
                     parse_surface, product, run_suite, slice_parts, sphere3,
                     standard_family, surface_integral_left, theorem2_report,
                     volume_integral)
from quatreg.cli import _plan
from quatreg.jets import RJet
from quatreg.operators import fueter_of_jet
from quatreg.integral import (_BLOCK, _FLUX, _SIDES, GeneralizedVerdict,
                              _SphereJets, _blocks, _generalized_sweep,
                              _gl_nodes, _verdict, _wsum)
from conftest import FnWrap, PolyField, assert_close, q

CENTER = q(0, 2, 0, 0)

#: The units i, j and k, each with three structural zeros.
UNITS = (None, q(x=1), q(y=1), q(z=1))


def minus_two_v_over_r(f):
    """The interior integrand -2v/r of f as a pointwise map, written per
    node as the tangential part of f's gradient, sum_u e_u (d_u f - iota_u
    d_r f) with d_r f = sum_u iota_u d_u f, from a Cartesian jet of f at
    the points."""
    def integrand(pts):
        _, *grad = f.eval_jet(QJet.seed_cartesian(pts, 1)).first_partials()
        iota = iota_of(pts).components()[1:]
        d_r = grad[0] * iota[0] + grad[1] * iota[1] + grad[2] * iota[2]
        return (UNITS[1] * (grad[0] - d_r * iota[0])
                + UNITS[2] * (grad[1] - d_r * iota[1])
                + UNITS[3] * (grad[2] - d_r * iota[2]))
    return integrand


def unit_sphere(res=12, radius=1.0):
    return sphere3(CENTER, radius, res)


class TestQuadrature:
    def test_area_closed_form(self):
        for radius in (1.0, 0.7):
            K = sphere3(CENTER, radius, 16)
            want = 2 * math.pi ** 2 * radius ** 3
            assert abs(K.area() - want) < 1e-10 * want

    def test_volume_closed_form(self):
        K = unit_sphere(16)
        want = math.pi ** 2 / 2
        assert abs(K.volume() - want) < 1e-10 * want

    def test_volume_of_constant(self):
        K = unit_sphere(10)
        one = FnWrap(lambda g: g * 0.0 + 1.0)
        got = volume_integral(one, K)
        assert abs(float(got.t) - K.volume()) < 1e-12
        assert float(got.imag_norm()) < 1e-12

    def test_nodes_on_sphere(self):
        K = unit_sphere(8)
        d = (K.points - CENTER).norm()
        assert np.allclose(d, 1.0, atol=1e-12)
        assert np.allclose(K.normals.norm(), 1.0, atol=1e-12)
        assert K.node_count == K.weights.size

    def test_weights_positive(self):
        K = unit_sphere(8)
        assert np.all(K.weights > 0)
        assert np.all(K.volume_nodes()[1] > 0)

    def test_odd_moment_vanishes(self):
        # t is odd about the pure-imaginary centre, so its ball average
        # cancels exactly in the symmetric quadrature.
        K = unit_sphere(10)
        got = volume_integral(lambda pts: Quaternion(pts.t, 0.0 * pts.t,
                                                     0.0 * pts.t,
                                                     0.0 * pts.t), K)
        assert float(got.norm()) < 1e-12 * K.volume()


class TestSurfaceIntegrals:
    def test_normal_integrates_to_zero(self):
        K = unit_sphere(12)
        one = FnWrap(lambda g: g * 0.0 + 1.0)
        got = surface_integral_left(one, K)
        assert float(got.norm()) < 1e-12 * K.area()

    def test_left_moment_of_p(self):
        # integral of n p over a radius-R sphere is -pi^2 R^4 for any
        # center: the n c term averages out and n^2 has mean -1/2.
        for radius in (1.0, 0.8):
            K = sphere3(q(0.3, 0, 2, 0.5), radius, 16)
            got = surface_integral_left(catalog_get("power", "1"), K)
            want = -math.pi ** 2 * radius ** 4
            assert abs(float(got.t) - want) < 1e-9 * abs(want)
            assert float(got.imag_norm()) < 1e-9 * abs(want)

    def test_moment_converges_to_closed_form(self):
        f = catalog_get("power", "1")
        want = q(t=-math.pi ** 2)
        errs = []
        for res in (4, 8, 16):
            got = surface_integral_left(f, unit_sphere(res))
            errs.append(float((got - want).norm()))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-12


class TestAxisGuard:
    def test_sphere_must_clear_axis(self):
        with pytest.raises(TouchesRealAxis):
            sphere3(q(0, 0.5, 0, 0), 1.0, 8)
        # A real center is the point t + 0i + 0j + 0k, on the axis.
        with pytest.raises(TouchesRealAxis):
            sphere3(2.0, 1.0, 8)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            sphere3(CENTER, -1.0, 8)
        with pytest.raises(BadParams):
            sphere3(CENTER, 1.0, 1)


class TestGaussLemma:
    def test_linear_fields(self):
        K = unit_sphere(10)
        fs = [catalog_get("coord", w) for w in ("t", "x", "y", "z")]
        lhs, rhs, residual, scale = gauss_report(*fs, K)
        # flux = R * area once the centre term cancels
        want = 1.0 * K.area()
        assert abs(float(lhs.t) - want) < 1e-10 * want
        assert residual < 1e-11 * scale

    def test_quadratic_fields(self):
        K = sphere3(q(0.4, 0, 0, 2), 0.9, 12)
        fs = [product(catalog_get("coord", w), catalog_get("coord", w))
              for w in ("t", "x", "y", "z")]
        _, _, residual, scale = gauss_report(*fs, K)
        assert residual < 1e-10 * scale

    def test_quaternion_valued_fields(self):
        K = unit_sphere(12)
        fs = (catalog_get("power", "2"), catalog_get("conj"),
              catalog_get("iota"), catalog_get("power", "1"))
        _, _, residual, scale = gauss_report(*fs, K)
        assert residual < 1e-8 * scale

    def test_random_tuples_on_two_surfaces(self):
        surfaces = (unit_sphere(16), sphere3(q(0.4, 0, 0, 2), 0.9, 16))
        worst = 0.0
        for trial in range(10):
            rng = np.random.default_rng(700 + trial)
            fields = [PolyField(rng) for _ in range(4)]
            for K in surfaces:
                _, _, residual, scale = gauss_report(*fields, K)
                worst = max(worst, residual / scale)
        assert worst < 1e-6


class TestChartFreeIntegrand:
    def test_matches_slice_parts(self):
        f = catalog_get("power", "2")
        integrand = minus_two_v_over_r(f)
        pts = SampleDomain().sample(100, seed=61)
        got = integrand(pts)
        sp = slice_parts(f, pts)
        r = pts.imag_norm()
        assert_close(got, sp.v * (-2.0 / r), tol=1e-12)

    def test_defined_on_degenerate_plane(self):
        # the whole point of the chart-free form: interior quadrature
        # nodes may land on the plane t + z k
        f = catalog_get("power", "3")
        integrand = minus_two_v_over_r(f)
        pts = Quaternion(np.array([0.2, -0.5]), np.zeros(2),
                         np.zeros(2), np.array([1.0, 2.0]))
        got = integrand(pts)
        assert np.all(np.isfinite(np.stack(got.components())))

    def test_iota_multiple_by_lemma1(self):
        # Lemma 1 (u = f - iota v, for any C^1 f) makes -2v/r of iota*f,
        # which is -2u/r of f, equal to -2f/r - iota (-2v/r of f).  No
        # regularity is needed, so the controls and a product hold too.
        pts = standard_family(8)[1].volume_nodes()[0]
        r, iota = pts.imag_norm(), iota_of(pts)
        members = default_inventory() + (
            product(from_string("power:2"), from_string("conj")),)
        for f in members:
            got = (f.eval_point(pts) * (-2.0 / r)
                   - iota * minus_two_v_over_r(f)(pts))
            ref = minus_two_v_over_r(iota_times(f))(pts)
            err = np.asarray((got - ref).norm())
            assert np.all(err <= 1e-11 * np.maximum(1.0, ref.norm())), f.fid


class TestIntegralTheorem:
    def test_regular_members(self):
        surfaces = (unit_sphere(16), sphere3(q(1, 0, 2, 0), 0.8, 16))
        for fid in ("power:1", "power:2", "power:3", "iota", "power:-1"):
            f = from_string(fid)
            for K in surfaces:
                rep = theorem2_report(f, K)
                assert rep.residual < 1e-6 * rep.scale, (fid, K.name)
                assert rep.passes(1e-3)

    def test_conj_control_fails(self):
        K = unit_sphere(16)
        rep = theorem2_report(catalog_get("conj"), K)
        assert rep.residual > 0.1 * rep.scale
        assert not rep.passes(1e-3)

    def test_convergence_in_resolution(self):
        f = catalog_get("power", "3")
        errs = []
        for res in (4, 8, 16):
            K = unit_sphere(res)
            rep = theorem2_report(f, K)
            errs.append(rep.residual / rep.scale)
        assert errs[0] > errs[1] > errs[2]

    def test_agrees_with_pointwise_verdict(self):
        K = unit_sphere(12)
        for fid in ("power:2", "conj"):
            text, _ = run_suite(SuiteConfig(suites=("theorem1",),
                                            functions=(fid,), samples=60,
                                            seed=62))
            statuses = {line.split("|")[5] for line in text.splitlines()
                        if line.startswith("theorem1|")}
            integral_pass = theorem2_report(from_string(fid), K).passes(1e-3)
            assert (statuses == {"pass"}) == integral_pass, fid


class TestBridgeIdentity:
    def test_surface_equals_volume_of_fueter(self):
        # Gauss-type bridge: int_K n f dS = int over the ball of D_l f,
        # for any C^1 function, regular or not.  Measured worst relative
        # gap at this resolution is 2.8e-7 (power:-3).
        K = standard_family(12)[0]
        for f in default_inventory():
            lhs = surface_integral_left(f, K)
            rhs = volume_integral(lambda pts: fueter_left(f, pts), K)
            scale = float(lhs.norm() + rhs.norm() + 1.0)
            gap = float((lhs - rhs).norm())
            assert gap < 1e-5 * scale, (f.fid, gap / scale)


class TestGeneralized:
    def test_family_properties(self):
        family = standard_family(8)
        assert len(family) == 5
        assert all(float(K.center.imag_norm()) > K.radius for K in family)

    def test_regular_member_passes(self):
        verdict = generalized_regularity_test(catalog_get("power", "2"),
                                              standard_family(8), 1e-3)
        assert verdict.passed
        assert len(verdict.rows) == 5

    def test_control_fails(self):
        verdict = generalized_regularity_test(catalog_get("conj"),
                                              standard_family(8), 1e-3)
        assert not verdict.passed

    def test_iota_multiple_checked(self):
        # the generalized test also integrates iota * f; a function whose
        # plain integral vanishes but whose iota-multiple does not must
        # fail.  coord:x is such a member on centred spheres.
        verdict = generalized_regularity_test(catalog_get("coord", "x"),
                                              standard_family(8), 1e-3)
        assert not verdict.passed

    def test_rows_equal_theorem2_reports(self):
        # f is evaluated once per sphere and iota*f derived from it.  f's
        # report and both surface sides equal the separate integral-theorem
        # reports bit for bit; iota*f's interior side comes from Lemma 1,
        # so its rhs and residual agree with the jet route to rounding.
        family = standard_family(10)
        members = default_inventory()
        spheres = [_SphereJets(K) for K in family]
        pairs = [[sphere.reports([f])[0] for sphere in spheres]
                 for f in members]
        verdicts, _ = _generalized_sweep(members, family, 1e-3)
        for f, reports, verdict in zip(members, pairs, verdicts):
            assert verdict == _verdict(reports, 1e-3), f.fid
            for K, (got_f, got_i) in zip(family, reports):
                rep_f = theorem2_report(f, K)
                rep_i = theorem2_report(iota_times(f), K)
                for got, rep in ((got_f, rep_f), (got_i, rep_i)):
                    assert got.lhs.components() == rep.lhs.components()
                assert got_f.rhs.components() == rep_f.rhs.components()
                assert (got_f.residual, got_f.scale) == (rep_f.residual,
                                                         rep_f.scale)
                bound = 1e-12 * rep_i.scale
                assert float((got_i.rhs - rep_i.rhs).norm()) <= bound, f.fid
                assert abs(got_i.residual - rep_i.residual) <= bound, f.fid

    def test_agreement_all_members(self):
        # integral verdicts track the pointwise expectation for the
        # whole inventory
        family = standard_family(10)
        for f in default_inventory():
            verdict = generalized_regularity_test(f, family, 1e-3)
            assert verdict.passed == f.expected_regular, f.fid

    def test_empty_family_is_refused(self):
        # Over no surface every residual check would hold vacuously, so
        # even the control conj would read pass.
        with pytest.raises(BadParams):
            generalized_regularity_test(catalog_get("conj"), (), 1e-3)
        with pytest.raises(BadParams):
            generalized_regularity_test(catalog_get("conj"), iter(()), 1e-3)

    def test_worst_keeps_a_nan_on_a_later_row(self):
        # Python's max keeps its first argument against a NaN, so a NaN
        # on any row but the first would print a finite worst value.
        rows = (("K1", 1e-6, 1.0, 2e-6, 1.0),
                ("K2", math.nan, 1.0, 1e-6, 1.0))
        verdict = GeneralizedVerdict(rows, "error")
        worst_f, worst_iota_f = verdict.worst_rel()
        assert math.isnan(worst_f) and worst_iota_f == 2e-6


def _whole_sphere_rhs(f, K):
    """The interior sides of f and of iota*f on K from one evaluation over
    all interior nodes at once, by the per-node Quaternion formulas
    -2v/r = D_l f - (dt + iota dr) and iota*f's -2u/r = -2f/r - iota
    (-2v/r), summed per block of _blocks with the block sums added in
    order."""
    pts, w = K.volume_nodes()
    g = f.eval_jet(QJet.seed_cartesian(pts, 1))
    inv_r, iota = 1.0 / pts.imag_norm(), iota_of(pts)
    dt, dx, dy, dz = g.first_partials()
    dr = (dx * pts.x + dy * pts.y + dz * pts.z) * inv_r
    d_l = Quaternion(dt.t - dx.x - dy.y - dz.z, dt.x + dx.t + dy.z - dz.y,
                     dt.y - dx.z + dy.t + dz.x, dt.z + dx.y - dy.x + dz.t)
    mv_f = d_l - (dt + iota * dr)
    mv_iota_f = g.value * (-2.0 * inv_r) - iota * mv_f
    sides = []
    for mv in (mv_f, mv_iota_f):
        comps = [np.broadcast_to(c, w.shape) for c in mv.components()]
        total = None
        for block in _blocks(w.size):
            part = Quaternion(*(float(np.sum(c[block] * w[block]))
                                for c in comps))
            total = part if total is None else total + part
        sides.append(total)
    return sides


def _whole_sphere_lhs(f, K):
    """The surface sides of f and of iota*f on K by Quaternion products."""
    vals = f.eval_point(K.points)
    return [_wsum(K.normals * v, K.weights)
            for v in (vals, iota_of(K.points) * vals)]


#: The pairs u <= v of the coefficient rows w iota_u iota_v, rows 5-10.
PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _sign_tables():
    """The contraction's two sign tables, derived from Quaternion
    products of basis vectors.  The block table: with P[q, a, b] the sum
    over a block of coefficient row a (w, -2w/r, w iota_u, w iota_u
    iota_v) times row b of jet component q (the value, then d_t..d_z), and
    each P entry the basis vector of its index,

        the Cullen part's sum = P(w, d_t)
                                + sum_u e_u sum_v P(w iota_u iota_v, d_v),
        -2u/r's sum           = P(-2w/r, value)
                                - sum_{v != u} (e_v e_u) P(w iota_v, d_u),

    where P(a, b) is the quaternion of the four components' entries; the
    components of the two sides are the table's rows.  The flux table:
    n f = sum_k e_k (sum_q e_q S[k, q]) with S[k, q] = sum w n_k f_q."""
    basis = np.eye(4 * 11 * 5).reshape(4, 11, 5, -1)

    def P(a, b):
        return Quaternion(*basis[:, a, b])

    cullen, iota_side = P(0, 1), P(1, 0)
    for u, v in itertools.product((1, 2, 3), repeat=2):
        pair = PAIRS.index((min(u, v), max(u, v)))
        cullen = cullen + UNITS[u] * P(5 + pair, 1 + v)
        if v != u:
            iota_side = iota_side - (UNITS[v] * UNITS[u]) * P(1 + v, 1 + u)
    sides = np.stack([np.broadcast_to(c, 220) for c in
                      cullen.components() + iota_side.components()]) + 0.0
    flux_basis = np.eye(16).reshape(4, 4, 16)
    flux = q(1) * Quaternion(*flux_basis[0])
    for k in (1, 2, 3):
        flux = flux + UNITS[k] * Quaternion(*flux_basis[k])
    return sides, np.stack(flux.components()) + 0.0


def _contracted_sides(f, K):
    """The four sides of f and of iota*f on K by a test-local copy of the
    contractions, making the calls the package makes: the surface's 16
    sums of w n_k f_q by one matmul, and per block of _blocks the rows w,
    -2w/r, w iota_u and w iota_u iota_v in one array, one matmul of them
    per jet component, fueter_of_jet of the w-weighted jet and the sign
    tables of _sign_tables, the block sums added in order."""
    sides_table, flux_table = _sign_tables()
    n = K.node_count
    vals = f.eval_point(K.points)
    rows = np.empty((8, n))
    for row, c in zip(rows, K.normals.components()):
        np.multiply(K.weights, c, out=row)
    lhs = []
    for v in (vals, iota_of(K.points) * vals):
        for row, c in zip(rows[4:], v.components()):
            row[...] = c
        sums = (flux_table @ (rows[:4] @ rows[4:].T).reshape(16)).tolist()
        lhs.append(Quaternion(*sums))
    blocks = _blocks(K.interior_count)
    longest = max(b.stop - b.start for b in blocks)
    seed = QJet._seed_buffer(1, longest)
    buf = np.empty(11 * longest)
    rhs = [None, None]
    for block in blocks:
        pts, w = K.volume_nodes(block)
        rows = buf[:11 * w.size].reshape(11, w.size)
        iota = iota_of(pts).components()
        rows[0] = w
        np.divide(w, pts.imag_norm(), out=rows[1])
        rows[1] *= -2.0
        for u in (1, 2, 3):
            np.multiply(w, iota[u], out=rows[1 + u])
        for row, (u, v) in zip(rows[5:], PAIRS):
            np.multiply(rows[1 + u], iota[v], out=row)
        sums = np.zeros((4, 11, 5))
        for out, comp in zip(sums, f.eval_jet(seed._seed_at(pts))
                             .components()):
            if comp._mark != "zero":
                cm = np.broadcast_to(comp._cm.reshape(5, -1), (5, w.size))
                np.matmul(rows, cm.T, out=out)
        d_l = fueter_of_jet(QJet(*(RJet._wrap(1, s) for s in sums[:, 0])))
        parts = (sides_table @ sums.reshape(-1)).tolist()
        for i, part in enumerate((d_l - Quaternion(*parts[:4]),
                                  Quaternion(*parts[4:]))):
            rhs[i] = part if rhs[i] is None else rhs[i] + part
    return lhs, rhs


def _bits(q):
    return np.array(q.components(), dtype=float).tobytes()


class TestBlocks:
    """Interior sides are contracted per block of _blocks, and the block
    sums added in order.  Every float keeps the bits of a test-local copy
    of the contractions, and stays within 1e-12 of the scale of the
    per-node Quaternion formulas summed the same way."""

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 10000, 65536,
                                   5308416])
    def test_blocks_partition_the_nodes(self, n):
        blocks = _blocks(n)
        assert len(blocks) == -(-n // _BLOCK)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = {b.stop - b.start for b in blocks}
        assert max(sizes) <= _BLOCK and max(sizes) - min(sizes) <= 1
        assert all(b.step is None for b in blocks)

    def test_block_counts_at_the_benchmark_and_default_sizes(self):
        # res 10 has 10,000 interior nodes, res 16 65,536; res 8 fits one.
        assert [b.stop - b.start for b in _blocks(10000)] == [5000] * 2
        assert [b.stop - b.start for b in _blocks(65536)] == [8192] * 8
        assert len(_blocks(standard_family(8)[0].interior_count)) == 1

    def test_reports_equal_the_whole_sphere_in_every_float(self):
        # series:1,1i,0.5j has constants with structural zeros, and
        # coord:x a jet and values with three of them.
        K = standard_family(16)[1]
        assert len(_blocks(K.interior_count)) == 8
        sphere = _SphereJets(K)
        for fid in ("power:-3", "laurent:-2=1k", "iota", "conj", "coord:x",
                    "series:1,1i,0.5j"):
            f = from_string(fid)
            (lhs_f, lhs_iota_f), (rhs_f, rhs_iota_f) = _contracted_sides(f, K)
            near_rhs = _whole_sphere_rhs(f, K)
            near_lhs = _whole_sphere_lhs(f, K)
            rep = theorem2_report(f, K)
            got_f, got_iota_f = sphere.reports([f])[0]
            for got, lhs, rhs, side in (
                    (rep, lhs_f, rhs_f, 0), (got_f, lhs_f, rhs_f, 0),
                    (got_iota_f, lhs_iota_f, rhs_iota_f, 1)):
                assert _bits(got.lhs) == _bits(lhs), fid
                assert _bits(got.rhs) == _bits(rhs), fid
                assert got.residual == float((lhs - rhs).norm()), fid
                assert got.scale == float(lhs.norm() + rhs.norm() + 1.0)
                bound = 1e-12 * got.scale
                assert float((got.lhs - near_lhs[side]).norm()) <= bound
                assert float((got.rhs - near_rhs[side]).norm()) <= bound

    @pytest.mark.parametrize("res", [17, 6])
    def test_contractions_equal_the_per_node_formulas(self, res):
        # Res 17: 10 unequal blocks, longer than the surface is not; res 6:
        # one block of 1,296 nodes, longer than the 432 surface nodes.
        # series:2 is a constant with no batch axis, coord:x has three
        # structural-zero components, and the product a control.
        K = standard_family(res)[1]
        members = default_inventory() + (
            from_string("series:2"), from_string("coord:x"),
            product(from_string("power:2"), from_string("conj")))
        for f, pair in zip(members, _SphereJets(K).reports(members)):
            near_lhs, near_rhs = _whole_sphere_lhs(f, K), _whole_sphere_rhs(
                f, K)
            for got, lhs, rhs in zip(pair, near_lhs, near_rhs):
                bound = 1e-12 * got.scale
                assert float((got.lhs - lhs).norm()) <= bound, f.fid
                assert float((got.rhs - rhs).norm()) <= bound, f.fid

    def test_sign_tables_are_the_quaternion_formulas(self):
        sides, flux = _sign_tables()
        assert np.array_equal(_SIDES, sides)
        assert np.array_equal(_FLUX, flux)
        assert set(np.unique(_SIDES)) == {-1.0, 0.0, 1.0}

    def test_a_nan_at_one_node_reads_error(self):
        # The member's jet and value are NaN at the first interior node
        # only, through every row, so both suites' interior sides are NaN.
        K = standard_family(8)[1]
        first = K.volume_nodes(slice(0, 1))[0]

        def body(p):
            at = p.value if isinstance(p, QJet) else p
            hit = np.logical_and.reduce([c == c0 for c, c0 in zip(
                at.components(), first.components())])
            return p * p * np.where(hit, np.nan, 1.0)

        member = QFunction("nan-at-one-node", body)
        rep = theorem2_report(member, K)
        assert np.isfinite(float(rep.lhs.norm()))
        assert np.isnan(rep.residual) and rep.status(1e-3) == "error"
        verdict = generalized_regularity_test(member, (K,), 1e-3)
        assert verdict.status == "error"
        cfg = SuiteConfig(surfaces=(
            "sphere:center=0.4-1.4i+1.2j+1.3k,r=0.7,res=8",))
        for suite in ("integral", "generalized"):
            (row,), _ = _plan(suite, cfg, [member])()
            assert row.render().split("|")[5:] == ["error", "pass", "FAIL"]

    def test_theorem2_report_seeds_one_buffer(self, monkeypatch):
        # Over the 8 blocks of a res-16 sphere theorem2_report calls
        # seed_cartesian 0 times: every seed that reaches eval_jet is a
        # view of one seed buffer, sized to the longest block.
        calls, seeds = [], []
        seed_cartesian, eval_jet = QJet.seed_cartesian, QFunction.eval_jet

        def counted_seed(cls, p, order):
            calls.append(order)
            return seed_cartesian(p, order)

        def recorded_eval_jet(f, g):
            seeds.append(g)
            return eval_jet(f, g)

        monkeypatch.setattr(QJet, "seed_cartesian",
                            classmethod(counted_seed))
        monkeypatch.setattr(QFunction, "eval_jet", recorded_eval_jet)
        theorem2_report(from_string("power:-3"), standard_family(16)[1])
        assert calls == [] and len(seeds) == 8
        buf = seeds[0].t._cm.base
        assert buf.shape == (4, 5, 8192)
        assert all(np.shares_memory(c._cm, buf)
                   for g in seeds for c in g.components())

    def test_unequal_blocks_and_mixed_resolutions_in_every_float(self):
        # res 17 has 78,608 interior nodes in 10 blocks of 7,860 or 7,861,
        # so a sphere's seed is used through views shorter than it is, and
        # its rows, as long as its 9,826 surface nodes, through views
        # shorter still.  The res-6 sphere between the two res-17 ones has
        # one block of 1,296 nodes, longer than its 432 surface nodes, so
        # its rows are as long as the block.
        res17 = standard_family(17)
        family = (res17[0], standard_family(6)[2], res17[1])
        sizes = {b.stop - b.start for b in _blocks(res17[0].interior_count)}
        assert sizes == {7860, 7861}
        assert len(_blocks(res17[0].interior_count)) == 10
        spheres = [_SphereJets(K) for K in family]
        assert spheres[0].seed.t._cm.shape == (5, 7861)
        assert res17[0].node_count == 9826
        assert spheres[0].rows.shape == (11 * 9826,)
        assert spheres[1].rows.shape == (11 * 1296,)
        members = [from_string(fid) for fid in (
            "power:-3", "laurent:-2=1k", "iota", "conj", "coord:x")]
        verdicts, _ = _generalized_sweep(members, family, 1e-3)
        for f, verdict in zip(members, verdicts):
            for K, sphere, row in zip(family, spheres, verdict.rows):
                got, _ = sphere.reports([f])[0]
                want = theorem2_report(f, K)
                assert _bits(got.lhs) == _bits(want.lhs), (f.fid, K.name)
                assert _bits(got.rhs) == _bits(want.rhs), (f.fid, K.name)
                assert (got.residual, got.scale) == (want.residual,
                                                     want.scale)
                assert row[1:3] == (want.residual, want.scale)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 5000,
                                   7861, 65536, 131072])
    def test_wsum_keeps_the_bits_of_each_component_alone(self, n):
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((4, n)) * [[1.0], [1e-8], [1e8], [3.0]]
        w = rng.uniform(0.0, 1.0, n)
        want = [float(np.sum(row * w)) for row in vals]
        wide = np.zeros((4, n + 3))
        wide[:, :n] = vals
        assert _bits(_wsum(wide[:, :n], w)) == _bits(Quaternion(*want))
        assert _bits(_wsum(vals.copy(), w)) == _bits(Quaternion(*want))
        q = Quaternion(vals[0], 0.0, vals[2], np.float64(2.5))
        assert _bits(_wsum(q, w)) == _bits(Quaternion(
            want[0], 0.0, want[2], float(np.sum(2.5 * w))))

    def test_error_on_the_last_block_keeps_its_rows(self):
        # The member's jets raise only beyond 0.95 R from the center: on
        # the outermost shell, which at res 16 is exactly the last block.
        K = standard_family(16)[1]
        radius = 0.95 * K.radius

        def body(p):
            if isinstance(p, QJet) and np.any(
                    (p.value - K.center).norm() > radius):
                raise DomainError("beyond 0.95 R")
            return p * p

        pts, _ = K.volume_nodes()
        beyond = np.asarray((pts - K.center).norm() > radius)
        last = _blocks(beyond.size)[-1]
        assert beyond[last].all() and not beyond[:last.start].any()
        member = QFunction("outer-shell", body)
        descriptor = "sphere:center=0.4-1.4i+1.2j+1.3k,r=0.7,res=16"
        cfg = SuiteConfig(surfaces=(descriptor,))
        (row,), _ = _plan("integral", cfg, [member])()
        assert row.render() == (
            "integral|jets|outer-shell|Integral Theorem on "
            "sphere(r=0.7,res=16)|error=DomainError: beyond 0.95 R|"
            "error|pass|FAIL")
        (row,), _ = _plan("generalized", cfg, [member])()
        assert row.render() == (
            "generalized|jets|outer-shell|Generalized Cullen-regularity "
            "(Integral Theorem family)|error=DomainError: beyond 0.95 R|"
            "error|pass|FAIL")

    def test_block_nodes_equal_the_whole_interior_in_every_float(self):
        # Res 17: 8 shells of 9,826 nodes in 10 blocks of 7,860 or 7,861,
        # so every block but the first starts inside a shell and some
        # span two.  Each block's nodes and weights are the whole
        # interior's at its slice, and the whole interior is the
        # shell-by-surface broadcast the rule is written as.
        K = standard_family(17)[0]
        rho, wrho = _gl_nodes(8, 0.0, 1.0)
        shell = K.points - K.center
        want = np.stack(
            [(c + s * rho[:, None]).reshape(-1) for c, s in
             zip(K.center.components(), shell.components())]
            + [((rho ** 3 * wrho)[:, None] * K.weights[None, :]
                * K.radius).reshape(-1)]).view(np.int64)
        pts, w = K.volume_nodes()
        whole = np.stack([*pts.components(), w]).view(np.int64)
        assert np.array_equal(whole, want)
        blocks = _blocks(K.interior_count)
        assert len(blocks) == 10
        assert {b.stop - b.start for b in blocks} == {7860, 7861}
        for block in blocks:
            pts, w = K.volume_nodes(block)
            got = np.stack([*pts.components(), w]).view(np.int64)
            assert np.array_equal(got, whole[:, block]), block

    def test_memory_does_not_grow_with_the_interior(self):
        # ROADMAP item 2: one member on one res-32 sphere, whose 1,048,576
        # interior nodes are 16 times its 65,536 surface nodes, in 128
        # blocks.  Only the surface's arrays and one block's grow: the
        # budget is 150 B per surface node plus 500 B per node of a full
        # block, 13.9 MB.  The interior's nodes, weights, 1/r, -2/r and
        # iota alone would take 84 MB.
        f = from_string("power:2")
        K = standard_family(32)[1]
        assert K.interior_count == 16 * K.node_count == 1048576
        budget = 150 * K.node_count + 500 * _BLOCK
        tracemalloc.start()
        try:
            theorem2_report(f, K)
            theorem2_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _generalized_sweep([f], (K,), 1e-3)
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theorem2_peak < budget
        assert sweep_peak < budget

    def test_peak_memory_per_interior_node(self):
        # A block's jets are about 800 B per node, but no array grows with
        # the interior: each block's nodes, weights, 1/r, -2/r and iota
        # are built where the block is used, and its integrands summed
        # there (ROADMAP aim 3).  Res 24: 331,776 nodes.
        f = from_string("power:-3")
        family = standard_family(24)
        n = family[1].interior_count
        tracemalloc.start()
        try:
            theorem2_report(f, family[1])
            theorem2_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _generalized_sweep([f], family[:2], 1e-3)
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theorem2_peak < 150 * n
        assert sweep_peak < 150 * n


class TestSurfaceParsing:
    def test_roundtrip(self):
        K = parse_surface("sphere:center=0+2i+0j+0k,r=1,res=8")
        assert abs(K.area() - 2 * math.pi ** 2) < 1e-8 * K.area()
        assert_close(K.center, CENTER, tol=1e-15)
        assert K.radius == 1.0

    def test_rejects(self):
        for bad in ("cube:r=1", "sphere:radius=1", "sphere:center=0,r=1",
                    "sphere:center=0+2i+0j+0k,r=-1,res=8",
                    "sphere:center=0+2i+0j+0k,r=1,res=8,shiny=1",
                    "sphere:center=0+2i+0j+0k,r=1,res=8,axis_clear=0",
                    "sphere", "sphere:center=0+2i+0j+0k,r=1,res=8,flat",
                    "sphere:center=0+2i,r=abc,res=8",
                    "sphere:center=0+2i,r=1,res=1.5",
                    "sphere:center=0+2i,r=1,res=1"):
            with pytest.raises(BadParams):
                parse_surface(bad)

    def test_empty_parameter_tokens_are_skipped(self):
        # A trailing or doubled comma leaves an empty token, not an error.
        ref = parse_surface("sphere:center=0+2i,r=1,res=4")
        for text in ("sphere:center=0+2i,r=1,res=4,",
                     "sphere:center=0+2i, ,r=1,,res=4"):
            K = parse_surface(text)
            assert (K.center.components(), K.radius, K.name) == (
                ref.center.components(), ref.radius, ref.name)

    def test_duplicate_key_rejected(self):
        # The last value does not win silently.
        for bad, key in (("sphere:center=0+2i,r=1,res=4,res=5", "res"),
                         ("sphere:center=0+2i,r=1,r=2,res=4", "r")):
            with pytest.raises(BadParams, match=f"'{key}' given twice"):
                parse_surface(bad)
