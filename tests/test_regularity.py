"""Slice decomposition and structure-theorem residual tests.

The control oracles were worked by hand.  For conj(p) = t - r iota the
slice parts are u = t, v = -r, which gives exact residual magnitudes

    item1 = 2        item2 = 4       item3a = 2
    item3b = 2       item4a = 2/r^2  item4b = 2/r^2

and for f = p the fourth-item combination D_l(iota p / r^2) equals
2 iota / r^2 exactly, which fixes the sign convention of item 4b.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (DomainError, QFunction, Quaternion, SampleDomain,
                     SuiteConfig, ZeroDivisor, angular_derivative,
                     catalog_get, cullen_left, default_inventory, from_string,
                     fueter_left, fueter_left_spherical,
                     hyperholomorphy_report, iota_of, iota_times,
                     lemma1_residual, operators, over_r2, product,
                     regularity, run_suite, slice_parts, spherical_frame,
                     theorem1_residuals)
from quatreg.cli import _RUNNERS
from quatreg.errors import residual_status
from quatreg.operators import angular_jet
from quatreg.regularity import HyperholoReport, TheoremOneReport
from conftest import assert_close, q

P0 = q(1, 2, 3, 6)      # r = 7
DOM = SampleDomain()


def theorem1_statuses(n, seed, *fids) -> dict:
    """{fid: the statuses of its six Theorem 1 rows} from a theorem1 run
    over the members fids, every default member when none is given."""
    text, _ = run_suite(SuiteConfig(suites=("theorem1",), functions=fids,
                                    samples=n, seed=seed))
    out = {}
    for line in text.splitlines():
        if line.startswith("theorem1|"):
            fields = line.split("|")
            out.setdefault(fields[2], []).append(fields[5])
    return out


def cullen_statuses(f, n, seed) -> tuple:
    """The Cullen residual statuses of f and iota*f at tol 1e-8."""
    pts = DOM.merge(f.domain).sample(n, seed=seed)
    return tuple(residual_status(cullen_left(g, pts).norm(), 1e-8)
                 for g in (f, iota_times(f)))


class TestSliceParts:
    def test_iota(self):
        sp = slice_parts(catalog_get("iota"), P0)
        assert_close(sp.u, q(), tol=1e-12)
        assert_close(sp.v, q(t=1), tol=1e-12)

    def test_identity(self):
        sp = slice_parts(catalog_get("power", "1"), P0)
        assert_close(sp.u, q(t=1), tol=1e-12)
        assert_close(sp.v, q(t=7), tol=1e-12)

    def test_conj(self):
        sp = slice_parts(catalog_get("conj"), P0)
        assert_close(sp.u, q(t=1), tol=1e-12)
        assert_close(sp.v, q(t=-7), tol=1e-12)

    def test_square(self):
        # p^2 = (t^2 - r^2) + 2 t r iota
        sp = slice_parts(catalog_get("power", "2"), P0)
        assert_close(sp.u, q(t=1 - 49), tol=1e-11)
        assert_close(sp.v, q(t=14), tol=1e-11)

    def test_reconstruction_all_members(self):
        for f in default_inventory():
            pts = DOM.merge(f.domain).sample(100, seed=41)
            sp = slice_parts(f, pts)
            gap = (sp.reconstruction - f.eval_point(pts)).norm()
            assert float(np.max(gap)) < 1e-9, f.fid

    def test_slice_parts_near_real_for_slice_members(self):
        for fid in ("power:2", "power:-1", "iota", "conj"):
            sp = slice_parts(from_string(fid),
                             DOM.merge(from_string(fid).domain)
                             .sample(50, seed=42))
            assert float(np.max(sp.u.imag_norm())) < 1e-10, fid
            assert float(np.max(sp.v.imag_norm())) < 1e-10, fid


class TestLemmaOne:
    def test_all_members_jets(self):
        # The operator identity behind the slice split holds for every
        # function, controls included.
        for f in default_inventory():
            pts = DOM.merge(f.domain).sample(150, seed=43)
            res = lemma1_residual(f, pts)
            assert float(np.max(res)) < 1e-11, f.fid

    def test_all_members_fd(self):
        for fid in ("power:2", "conj", "arctan_ex:1", "coord:x"):
            f = from_string(fid)
            pts = DOM.merge(f.domain).sample(30, seed=44)
            res = lemma1_residual(f, pts, backend="fd")
            assert float(np.max(res)) < 1e-6, fid


class TestTheoremOneRegular:
    def test_regular_members_all_items(self):
        for f in default_inventory():
            if not f.expected_regular:
                continue
            pts = DOM.merge(f.domain).sample(150, seed=45)
            rep = theorem1_residuals(f, pts)
            for key, vals in rep.items().items():
                assert float(np.max(vals)) < 1e-10, (f.fid, key)

    def test_item4b_sign_pin(self):
        # D_l(iota p / r^2) = 2 iota / r^2 for f = p; the wrong sign in
        # the fourth-item pairing would leave a 4/r^2 residual here.
        f = over_r2(iota_times(catalog_get("power", "1")))
        got = fueter_left(f, P0)
        want = iota_of(P0) * (2.0 / 49.0)
        assert_close(got, want, tol=1e-13)
        rep = theorem1_residuals(catalog_get("power", "1"), P0)
        assert float(rep.item4b) < 1e-13

    def test_report_helpers(self):
        rep = theorem1_residuals(catalog_get("power", "2"), P0)
        assert rep.passes(1e-8)
        assert rep.max_residual() < 1e-12
        assert set(rep.items()) == {"item1", "item2", "item3a",
                                    "item3b", "item4a", "item4b"}


class TestTheoremOneControls:
    def test_conj_pinned_magnitudes(self):
        rep = theorem1_residuals(catalog_get("conj"), P0)
        assert abs(float(rep.item1) - 2.0) < 1e-12
        assert abs(float(rep.item2) - 4.0) < 1e-12
        assert abs(float(rep.item3a) - 2.0) < 1e-12
        assert abs(float(rep.item3b) - 2.0) < 1e-12
        assert abs(float(rep.item4a) - 2.0 / 49.0) < 1e-12
        assert abs(float(rep.item4b) - 2.0 / 49.0) < 1e-12

    def test_conj_cullen_residual_everywhere(self):
        pts = DOM.sample(200, seed=46)
        res = cullen_left(catalog_get("conj"), pts).norm()
        assert float(np.max(np.abs(res - 2.0))) < 1e-10

    def test_coord_control_fails_consistently(self):
        rep = theorem1_residuals(catalog_get("coord", "x"),
                                 DOM.sample(100, seed=47))
        for key, vals in rep.items().items():
            assert float(np.min(vals)) > 1e-3, key


class TestBackendAgreement:
    def test_fd_matches_jets(self):
        for fid in ("power:2", "iota", "arctan_ex:1", "conj"):
            f = from_string(fid)
            pts = DOM.merge(f.domain).sample(25, seed=48)
            a = theorem1_residuals(f, pts, backend="jets")
            b = theorem1_residuals(f, pts, backend="fd")
            for key in a.items():
                gap = np.max(np.abs(a.items()[key] - b.items()[key]))
                assert float(gap) < 1e-5 * (1.0 + np.max(a.items()[key])), \
                    (fid, key)


class TestHyperholomorphy:
    def test_regular_members(self):
        for fid in ("power:2", "power:-1", "iota", "arctan_ex:1"):
            f = from_string(fid)
            pts = DOM.merge(f.domain).sample(80, seed=49)
            rep = hyperholomorphy_report(f, pts)
            assert float(np.max(rep.eq1.norm())) < 1e-9, fid
            assert float(np.max(rep.eq2.norm())) < 1e-9, fid
            assert rep.max_uv_imag() < 1e-9, fid

    def test_conj_needs_cullen_conjunct(self):
        # conj has angle-independent slice parts, so the raw equation
        # residuals vanish; only the Cullen residual flags it.  A
        # hyperholomorphy verdict must therefore test both.
        pts = DOM.sample(80, seed=50)
        rep = hyperholomorphy_report(catalog_get("conj"), pts)
        assert float(np.max(rep.eq1.norm())) < 1e-12
        assert float(np.max(rep.eq2.norm())) < 1e-12
        cull = cullen_left(catalog_get("conj"), pts).norm()
        assert float(np.min(cull)) > 1.9

    def test_coord_control_fails_equations(self):
        pts = DOM.sample(80, seed=51)
        rep = hyperholomorphy_report(catalog_get("coord", "x"), pts)
        worst = np.maximum(rep.eq1.norm(), rep.eq2.norm())
        assert float(np.max(worst)) > 1e-3


class TestVerdicts:
    # The six items are equivalent characterizations: a theorem1 run
    # must give every member six equal statuses.
    def test_regular_verdict(self):
        (statuses,) = theorem1_statuses(100, 52, "power:2").values()
        assert statuses == ["pass"] * 6

    def test_control_verdict(self):
        (statuses,) = theorem1_statuses(100, 53, "conj").values()
        assert statuses == ["fail"] * 6

    def test_iota_compose(self):
        # f and iota*f are Cullen-regular together or fail together.
        assert cullen_statuses(catalog_get("power", "2"), 60, 54) == \
            ("pass", "pass")
        assert cullen_statuses(catalog_get("conj"), 60, 55) == \
            ("fail", "fail")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_power_family_verdicts(self, n):
        (statuses,) = theorem1_statuses(40, 56, f"power:{n}").values()
        assert statuses == ["pass"] * 6

    def test_all_members_consistent(self):
        by_member = theorem1_statuses(80, 57)
        assert len(by_member) == len(default_inventory())
        for f in default_inventory():
            want = "pass" if f.expected_regular else "fail"
            assert by_member[f.fid] == [want] * 6, f.fid

    def test_truncated_exponential_verdict(self):
        # 1 + p + p^2/2 + p^3/6 has real right coefficients, hence is
        # Cullen-regular.
        (statuses,) = theorem1_statuses(
            80, 58, f"series:1,1,0.5,{1.0 / 6.0!r}").values()
        assert statuses == ["pass"] * 6

    def test_product_closure_with_powers(self):
        # f * g stays regular when g is p^2 or p^3, even though the
        # pointwise product of two regular functions generally is not.
        f = catalog_get("arctan_ex", "1")
        for n in ("2", "3"):
            prod = product(f, catalog_get("power", n))
            pts = DOM.merge(prod.domain).sample(80, seed=59)
            rep = theorem1_residuals(prod, pts)
            for key, vals in rep.items().items():
                assert float(np.max(vals)) < 1e-8, (n, key)


def _same_bits(a: Quaternion, b: Quaternion) -> bool:
    return all(np.array_equal(x, y)
               for x, y in zip(a.components(), b.components()))


class TestSharedPaths:
    """Identities between checkers that share one computation."""

    def test_hyperholomorphy_cullen_is_cullen_left(self):
        # The order-2 jet's first-order part gives the order-1 values.
        for f in default_inventory():
            pts = DOM.merge(f.domain).sample(60, seed=70)
            assert _same_bits(hyperholomorphy_report(f, pts).cullen,
                              cullen_left(f, pts)), f.fid

    def test_lemma1_is_twice_the_reconstruction_gap(self):
        # f at the point as the spherical chart rebuilds it, which is
        # where the jets are evaluated.
        for f in default_inventory():
            pts = DOM.merge(f.domain).sample(60, seed=71)
            chart_pts = spherical_frame(pts, 1).seed.value
            gap = slice_parts(f, pts).reconstruction - f.eval_point(chart_pts)
            assert np.array_equal(lemma1_residual(f, pts),
                                  (gap * 2.0).norm()), f.fid

    def test_item3a_is_spherical_fueter_plus_two_v_over_r(self):
        for f in default_inventory():
            pts = DOM.merge(f.domain).sample(60, seed=74)
            for p in (pts, pts[0]):
                r = spherical_frame(p, 1).chart.r
                want = (fueter_left_spherical(f, p)
                        + slice_parts(f, p).v * (2.0 / r)).norm()
                assert np.array_equal(theorem1_residuals(f, p).item3a,
                                      want), f.fid

    def test_angular_jet_calls(self, monkeypatch):
        # u and v reuse the angular jets of f and iota f, and so do
        # D_l f and D_l(iota f); only f/r^2 and iota f/r^2 need their own.
        calls = []

        def counted(frame, g):
            calls.append(1)
            return angular_jet(frame, g)

        for module in (operators, regularity):
            monkeypatch.setattr(module, "angular_jet", counted)
        f = catalog_get("power", "3")
        for check, want in ((theorem1_residuals, 4), (lemma1_residual, 2),
                            (hyperholomorphy_report, 2)):
            calls.clear()
            check(f, P0)
            assert len(calls) == want, check.__name__


def _counted(f):
    """f as a QFunction that counts the calls of f's eval_point."""
    calls = []

    def body(p):
        calls.append(1)
        return f.eval_point(p)
    return QFunction(f.fid, body, f.domain), calls


class TestFdOracle:
    """The FD branches evaluate f once per stencil point and keep the bits
    of the separate derived functions and the order of their errors."""

    FIDS = ("power:-2", "arctan_ex:1", "conj")

    def test_one_evaluation_per_stencil_point(self):
        # f at p, 8 angular points, 16 Cartesian ones, 8 for the Cullen
        # value; lemma1 takes the 8 angular ones and f at p.
        for fid in self.FIDS:
            f = from_string(fid)
            pts = DOM.merge(f.domain).sample(20, seed=75)
            for p in (pts, pts[0]):
                for check, want in ((theorem1_residuals, 33),
                                    (lemma1_residual, 9)):
                    g, calls = _counted(f)
                    check(g, p, backend="fd")
                    assert len(calls) == want, (fid, check.__name__)

    def test_rows_are_the_derived_functions(self):
        for fid in self.FIDS:
            f = from_string(fid)
            fi = iota_times(f)
            pts = DOM.merge(f.domain).sample(20, seed=76)
            for p in (pts, pts[0]):
                ang = angular_derivative(regularity._stacked(f, False), p,
                                         backend="fd")
                dl = fueter_left(regularity._stacked(f, True), p,
                                 backend="fd")
                for i, g in enumerate((f, fi)):
                    assert _same_bits(ang[i], angular_derivative(
                        g, p, backend="fd")), (fid, i)
                for i, g in enumerate((f, fi, over_r2(f), over_r2(fi))):
                    assert _same_bits(dl[i], fueter_left(
                        g, p, backend="fd")), (fid, i)
                # The checkers give what the separate functions give.
                u = angular_derivative(fi, p, backend="fd") * 0.5
                v = angular_derivative(f, p, backend="fd") * 0.5
                want = regularity._theorem1_report(
                    iota_of(p), p.imag_norm(), f.eval_point(p), u, v,
                    cullen_left(f, p, backend="fd"),
                    *(fueter_left(g, p, backend="fd")
                      for g in (f, fi, over_r2(f), over_r2(fi))))
                got = theorem1_residuals(f, p, backend="fd")
                for key, vals in want.items().items():
                    assert np.array_equal(got.items()[key], vals), (fid, key)
                gap = u * 2.0 + iota_of(p) * (v * 2.0) - f.eval_point(p) * 2.0
                assert np.array_equal(lemma1_residual(f, p, backend="fd"),
                                      gap.norm()), fid

    def test_first_error_is_the_alpha_stencils(self):
        # ZeroDivisor where t moved from the sample, DomainError where
        # only x moved: the alpha stencil runs before the Cartesian and
        # Cullen ones, which move t first.
        pts = DOM.sample(40, seed=77)

        def body(p):
            if np.any(p.t != pts.t):
                raise ZeroDivisor("t moved")
            if np.any(p.x != pts.x):
                raise DomainError("x moved")
            return p

        f = QFunction("moved", body)
        for check in (theorem1_residuals, lemma1_residual):
            with pytest.raises(DomainError):
                check(f, pts, backend="fd")


class TestNonFiniteVerdicts:
    # A control is expected to fail; NaN residuals must read as an error,
    # never as a consistent failure.
    NAN_CONTROL = QFunction("nan-control", lambda p: p * math.nan,
                            expected_regular=False, control=True)

    def test_regularity_verdict(self):
        rows, _ = _RUNNERS["theorem1"](
            SuiteConfig(suites=("theorem1",), samples=20, seed=72),
            [self.NAN_CONTROL])
        assert [row.status for row in rows] == ["error"] * 6
        assert all(row.outcome == "FAIL" for row in rows)

    def test_iota_compose(self):
        assert cullen_statuses(self.NAN_CONTROL, 20, 73) == \
            ("error", "error")

    def test_report_maxima_keep_nan(self):
        # A NaN in a later item, or in v alone, must not be dropped.
        zero, nan = np.zeros(3), np.array([0.0, math.nan, 0.0])
        rep = TheoremOneReport(zero, zero, zero, zero, zero, nan)
        assert math.isnan(rep.max_residual())
        assert not rep.passes(1e-8)
        u = Quaternion(zero, zero, zero, zero)
        hh = HyperholoReport(u, u, u, Quaternion(zero, nan, zero, zero), u)
        assert math.isnan(hh.max_uv_imag())
