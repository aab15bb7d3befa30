"""Function catalog tests.

Point values are pinned against hand evaluation, jets are checked for
agreement with point evaluation, and the id grammar is round-tripped.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatreg import (BadParams, DomainError, QJet, Quaternion, SampleDomain,
                     UnknownFunction, catalog_get, cullen_left,
                     default_inventory, from_string, hyperholomorphy_report,
                     iota_of, iota_times, over_r2, parse_quaternion_literal,
                     product)
from quatreg import catalog, jets
from quatreg.catalog import _INVENTORY, split_ids
from conftest import assert_close, q

coef = st.floats(min_value=-2.0, max_value=2.0,
                 allow_nan=False, allow_infinity=False)


# Components from short decimals to full-precision and tiny floats; -0.0
# is folded to 0.0, since a zero component is not written in an id.
component = st.one_of(
    st.sampled_from((0.0, 1.0, -0.5, 2.25, 1e-9)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e-6, 1e-6, allow_nan=False, allow_infinity=False),
).map(lambda v: v + 0.0)
quat_coef = st.builds(Quaternion, component, component, component, component)


def series_text(coeffs):
    """Series id text whose coefficient literals parse back exactly."""
    return ",".join("%.17g%+.17gi%+.17gj%+.17gk" % a.components()
                    for a in coeffs)


class TestPointValues:
    def test_power_positive(self):
        f = catalog_get("power", "2")
        assert_close(f.eval_point(q(1, 1, 0, 0)), q(x=2), tol=1e-15)
        g = catalog_get("power", "3")
        assert_close(g.eval_point(q(1, 1, 0, 0)), q(-2, 2, 0, 0), tol=1e-15)
        assert_close(catalog_get("power", "0").eval_point(q(3, 1, 4, 1)),
                     q(t=1), tol=1e-15)

    def test_power_negative(self):
        f = catalog_get("power", "-1")
        assert_close(f.eval_point(q(0, 1, 0, 0)), q(x=-1), tol=1e-15)
        g = catalog_get("power", "-2")
        assert_close(g.eval_point(q(0, 1, 0, 0)), q(t=-1), tol=1e-15)

    def test_series_right_coefficients(self):
        # f(p) = p * j must give i * j = k at p = i; left coefficients
        # would give j * i = -k, so this pins the convention.
        f = catalog_get("series", series_text((Quaternion(0, 0, 0, 0),
                                               Quaternion(0, 0, 1, 0))))
        assert_close(f.eval_point(q(0, 1, 0, 0)), q(z=1), tol=1e-15)

    def test_series_example(self):
        f = from_string("series:1,1i,0.5j")
        # at p = j: 1 + j i + j^2 (0.5 j) = 1 - 0.5 j - k
        assert_close(f.eval_point(q(0, 0, 1, 0)),
                     q(1, 0, -0.5, -1), tol=1e-15)

    def test_laurent(self):
        f = from_string("laurent:-2=1k")
        # p^-2 k at p = i is -k
        assert_close(f.eval_point(q(0, 1, 0, 0)), q(z=-1), tol=1e-15)

    def test_iota(self):
        f = catalog_get("iota")
        p = q(0.5, 2, 3, 6)
        assert_close(f.eval_point(p), iota_of(p), tol=1e-15)

    def test_arctan_quarter_pi(self):
        # x = y with z = 0 gives atan(1) = pi/4 and vanishing
        # arctanh part.
        f = catalog_get("arctan_ex", "1")
        got = f.eval_point(q(0.3, 1.1, 1.1, 0))
        assert_close(got, q(t=math.pi / 4), tol=1e-15)

    def test_arctan_full_form(self):
        # k = 1: w = atan(x / y), v = atanh(z / r).
        p = q(0.2, 0.6, 1.2, 0.3)
        r = math.sqrt(0.6 ** 2 + 1.2 ** 2 + 0.3 ** 2)
        w = math.atan(0.6 / 1.2)
        v = math.atanh(0.3 / r)
        want = q(t=w) + iota_of(p) * v
        got = catalog_get("arctan_ex", "1").eval_point(p)
        assert_close(got, want, tol=1e-14)

    def test_controls(self):
        p = q(1, 2, 3, 4)
        assert_close(catalog_get("conj").eval_point(p),
                     q(1, -2, -3, -4), tol=1e-15)
        assert_close(catalog_get("coord", "x").eval_point(p),
                     q(t=2), tol=1e-15)


class TestDomainGuards:
    def test_arctan_zero_denominator(self):
        f = catalog_get("arctan_ex", "1")
        with pytest.raises(DomainError):
            f.eval_point(q(0.3, 1.0, 0.0, 0.2))

    def test_arctan_atanh_margin(self):
        f = catalog_get("arctan_ex", "1")
        with pytest.raises(DomainError):
            f.eval_point(q(0.3, 1e-4, 1e-4, 1.0))

    def test_domain_excludes_cut(self):
        from quatreg import SampleDomain
        f = catalog_get("arctan_ex", "1")
        pts = SampleDomain().merge(f.domain).sample(500, seed=2)
        # never within the excluded slab around the denominator cut
        assert np.all(np.abs(pts.y) >= 0.05 - 1e-12)
        vals = f.eval_point(pts)
        assert np.all(np.isfinite(np.stack(vals.components())))

    def test_negative_power_shell(self):
        f = catalog_get("power", "-1")
        tiny = q(0.05, 0.05, 0.05, 0.05)
        assert not bool(np.all(f.domain.contains(tiny)))


class TestJetConsistency:
    def test_order_zero_matches_point(self):
        from quatreg import SampleDomain
        for f in default_inventory() + (from_string("power:0"),):
            pts = SampleDomain().merge(f.domain).sample(200, seed=31)
            seed = QJet.seed_cartesian(pts, 0)
            gap = (f.eval_jet(seed).value - f.eval_point(pts)).norm()
            assert float(np.max(gap)) < 1e-12, f.fid

    def test_order_two_value_matches_point(self):
        from quatreg import SampleDomain
        for f in default_inventory():
            pts = SampleDomain().merge(f.domain).sample(50, seed=32)
            seed = QJet.seed_cartesian(pts, 2)
            gap = (f.eval_jet(seed).value - f.eval_point(pts)).norm()
            assert float(np.max(gap)) < 1e-12, f.fid


def _arctan_hamilton(k, p):
    """arctan_ex:k with iota*v as the Hamilton product of iota and v lifted
    into the algebra of p: the reference form, with 12 zero pairs."""
    comps = (p.x, p.y, p.z)
    num, den, axial = comps[(k - 1) % 3], comps[k % 3], comps[(k + 1) % 3]
    r = jets.sqrt(num * num + den * den + axial * axial)
    w = jets.atan(num * jets.recip(den))
    v = jets.atanh(axial * jets.recip(r))
    return (catalog._real_elem(p, w)
            + catalog.iota_of(p) * catalog._real_elem(p, v))


def _bits(val):
    """The components of a point or jet value as one int64 array."""
    comps = [c.c if isinstance(c, jets.RJet) else c
             for c in val.components()]
    return np.stack(np.broadcast_arrays(*comps)).astype(float).view(np.int64)


class TestArctanBody:
    def test_scaling_iota_keeps_the_hamilton_bits(self):
        # Scaling iota by v skips the Hamilton product's zero pairs and
        # keeps every bit, on points, 0-d points and jets of orders 1-3.
        for k in (1, 2, 3):
            f = catalog_get("arctan_ex", str(k))
            pts = SampleDomain().merge(f.domain).sample(100, seed=40 + k)
            args = [pts, pts[0]] + [QJet.seed_cartesian(pts, n)
                                    for n in (1, 2, 3)]
            for p in args:
                assert np.array_equal(_bits(f.body(p)),
                                      _bits(_arctan_hamilton(k, p))), k


class TestGrammar:
    def test_literal_parsing(self):
        cases = (("1", (1, 0, 0, 0)), ("-2i", (0, -2, 0, 0)),
                 ("0.5j", (0, 0, 0.5, 0)),
                 ("1+2i-3j+0.25k", (1, 2, -3, 0.25)),
                 ("1k", (0, 0, 0, 1)))
        for text, comps in cases:
            assert_close(parse_quaternion_literal(text),
                         Quaternion(*map(float, comps)), tol=0.0 + 1e-15,
                         msg=text)

    def test_literal_rejects(self):
        for bad in ("", "2m", "1++2i", "i+", "one"):
            with pytest.raises(BadParams):
                parse_quaternion_literal(bad)

    def test_ids_roundtrip(self):
        for fid in [f.fid for f in default_inventory()]:
            assert from_string(fid).fid == fid
        # The inventory is built from ids written as their members' fids.
        assert tuple(f.fid for f in default_inventory()) == _INVENTORY

    @settings(max_examples=60, deadline=None)
    @given(st.lists(quat_coef, min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(-3, 3), quat_coef),
                    min_size=1, max_size=4))
    def test_fid_keeps_every_coefficient(self, coeffs, terms):
        # A member's fid names exactly the function it evaluates: its
        # constants parse back bit for bit, and it is its own fid.
        laurent = ",".join(f"{d}={series_text([c])}" for d, c in terms)
        for spec, want in ((f"series:{series_text(coeffs)}", coeffs),
                           (f"laurent:{laurent}", [c for _, c in terms])):
            fid = from_string(spec).fid
            got = [parse_quaternion_literal(tk.split("=")[-1])
                   for tk in fid.split(":", 1)[1].split(",")]
            assert ([c.components() for c in got]
                    == [c.components() for c in want]), fid
            assert from_string(fid).fid == fid

    def test_fid_short_forms(self):
        # %g where it is exact, the shortest round-trip digits otherwise.
        assert (from_string("series:0.1234567,1e-9k").fid
                == "series:0.1234567,1e-09k")
        assert (from_string("laurent:-1=0.5+1.0000000000000002j").fid
                == "laurent:-1=0.5+1.0000000000000002j")

    def test_inventory_contents(self):
        ids = [f.fid for f in default_inventory()]
        assert len(ids) == 16
        for fid in ("power:-3", "power:5", "series:1,1i,0.5j",
                    "laurent:-2=1k", "iota", "arctan_ex:2", "conj",
                    "coord:x"):
            assert fid in ids

    def test_split_ids(self):
        # Commas inside a series or laurent id do not split it; a token
        # with a ':' or a parameterless name starts the next id.
        assert split_ids(",".join(_INVENTORY)) == _INVENTORY
        assert split_ids(" laurent:-2=1k, 1=1i ,iota,conj,series:1,2,"
                         "power:2,, ") == ("laurent:-2=1k,1=1i", "iota",
                                           "conj", "series:1,2", "power:2")
        assert split_ids("series:1,powr:3") == ("series:1", "powr:3")

    def test_unknown_and_bad(self):
        with pytest.raises(UnknownFunction):
            from_string("powr:2")
        with pytest.raises(BadParams):
            from_string("power:two")
        with pytest.raises(BadParams):
            from_string("arctan_ex:5")
        with pytest.raises(BadParams):
            from_string("coord:w")
        with pytest.raises(BadParams):
            catalog_get("iota", "1")
        with pytest.raises(BadParams):
            catalog_get("conj", "x")
        # Parameters are id text, with at least one series or laurent term.
        for bad in ("series:", "series:,", "laurent:", "laurent: , "):
            with pytest.raises(BadParams):
                from_string(bad)
        # The old Python-value forms are refused.
        for name, params in (("series", (Quaternion(1.0),)), ("power", 2)):
            with pytest.raises(BadParams):
                catalog_get(name, params)

    def test_flags(self):
        f = from_string("power:2")
        assert f.expected_regular and f.expected_hyperholomorphic
        assert not f.control
        c = from_string("conj")
        assert c.control and not c.expected_regular


class TestCombinators:
    def test_product_values(self):
        f = product(catalog_get("power", "1"), catalog_get("power", "2"))
        p = q(0.5, 1, -2, 0.25)
        assert_close(f.eval_point(p),
                     catalog_get("power", "3").eval_point(p), tol=1e-13)
        # a product of regular members is not expected to be regular
        assert not f.expected_regular

    def test_iota_times(self):
        base = catalog_get("power", "2")
        f = iota_times(base)
        p = q(1, 2, 3, 6)
        assert_close(f.eval_point(p), iota_of(p) * base.eval_point(p),
                     tol=1e-14)
        assert f.expected_regular == base.expected_regular

    def test_over_r2(self):
        base = catalog_get("power", "1")
        f = over_r2(base)
        p = q(1, 2, 3, 6)
        assert_close(f.eval_point(p), p * (1.0 / 49.0), tol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(coef, coef, coef, coef, coef, coef)
    def test_series_right_linearity(self, a0, a1, b0, b1, t, x):
        # series coefficients enter linearly on the right
        ca = (Quaternion(a0, a1, 0, 0), Quaternion(0, 0, a0, a1))
        cb = (Quaternion(b0, 0, b1, 0), Quaternion(b1, 0, 0, b0))
        csum = tuple(u + v for u, v in zip(ca, cb))
        p = Quaternion(t, x, 0.7, -0.4)
        fa = catalog_get("series", series_text(ca)).eval_point(p)
        fb = catalog_get("series", series_text(cb)).eval_point(p)
        fs = catalog_get("series", series_text(csum)).eval_point(p)
        assert float((fs - (fa + fb)).norm()) < 1e-12

    def test_random_series_stay_regular(self):
        # Right-coefficient polynomials up to degree 6 satisfy the
        # structure equations whatever the coefficients are.
        rng = np.random.default_rng(99)
        dom = SampleDomain()
        for trial in range(3):
            coeffs = tuple(Quaternion(*rng.uniform(-1.0, 1.0, size=4))
                           for _ in range(7))
            f = catalog_get("series", series_text(coeffs))
            pts = dom.sample(60, seed=100 + trial)
            rep = hyperholomorphy_report(f, pts)
            assert float(np.max(rep.eq1.norm())) < 1e-8
            assert float(np.max(rep.eq2.norm())) < 1e-8
            assert float(np.max(cullen_left(f, pts).norm())) < 1e-8
