"""Acceptance criteria for the verification toolkit.

Each test is one numbered criterion with pinned tolerances and prints a
single pass/fail line.  Tolerances here are contractual; do not loosen
them to make a failing build green.
"""

import math
import time

import numpy as np
import pytest

from quatreg import (DegenerateChart, Quaternion, QJet, RJet, SampleDomain,
                     SuiteConfig, angular_derivative, catalog_get,
                     cullen_left, default_inventory, from_string,
                     fueter_laplacian, fueter_left, fueter_left_spherical,
                     gauss_report, generalized_regularity_test,
                     hyperholomorphy_report, laplacian, lemma1_residual,
                     product, run_suite, sphere3, standard_family,
                     surface_integral_left, theorem1_residuals,
                     theorem2_report)
from conftest import PolyField

BASE = SampleDomain(t_range=(-1.5, 1.5), r_range=(0.5, 2.0), s_min=0.1)

REGULAR_IDS = ("power:-3", "power:-2", "power:-1", "power:1", "power:2",
               "power:3", "power:4", "power:5", "series:1,1i,0.5j",
               "laurent:-2=1k", "iota", "arctan_ex:1", "arctan_ex:2",
               "arctan_ex:3")


def _outcome(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _samples(f, n, seed):
    return BASE.merge(f.domain).sample(n, seed=seed)


def test_criterion_01_theorem1_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for fid in REGULAR_IDS:
        f = from_string(fid)
        rep = theorem1_residuals(f, _samples(f, 200, seed=101))
        for key, vals in rep.items().items():
            m = float(np.max(vals))
            assert m < 1e-8, f"{fid} {key} residual {m:.2e}"
            worst = max(worst, m)
    # controls must fail item 1 decisively
    for fid in ("conj", "coord:x"):
        f = from_string(fid)
        item1 = theorem1_residuals(f, _samples(f, 200, seed=102)).item1
        assert float(np.max(item1)) > 0.5, fid
    conj_item1 = theorem1_residuals(
        from_string("conj"), _samples(from_string("conj"), 200, 103)).item1
    conj_gap = float(np.max(np.abs(conj_item1 - 2.0)))
    assert conj_gap < 1e-10, f"conj item1 gap {conj_gap:.2e}"
    wall = time.monotonic() - t0
    ok = worst < 1e-8 and wall < 30.0
    _outcome(1, ok, f"six residuals < 1e-8 on 14 members "
                    f"(worst {worst:.2e}), controls fail item 1, "
                    f"{wall:.1f}s < 30s")


def test_criterion_02_lemma1_identity():
    t0 = time.monotonic()
    worst = 0.0
    for f in default_inventory():
        res = lemma1_residual(f, _samples(f, 200, seed=104))
        worst = max(worst, float(np.max(res)))
    wall = time.monotonic() - t0
    ok = worst < 1e-9 and wall < 10.0
    _outcome(2, ok, f"Lemma 1 residual < 1e-9 on all 16 members "
                    f"(worst {worst:.2e}), {wall:.1f}s < 10s")


def test_criterion_03_spherical_fidelity():
    worst = 0.0
    for f in default_inventory():
        pts = _samples(f, 200, seed=105)
        a = fueter_left(f, pts)
        b = fueter_left_spherical(f, pts)
        rel = float(np.max((a - b).norm() / (1.0 + a.norm())))
        assert rel < 1e-8, f"{f.fid}: {rel:.2e}"
        worst = max(worst, rel)
    with pytest.raises(DegenerateChart):
        fueter_left_spherical(from_string("power:2"),
                              Quaternion(1.0, 0.0, 0.0, 1.0))
    _outcome(3, True, f"Cartesian and spherical Fueter agree to 1e-8 "
                      f"(worst {worst:.2e}); DegenerateChart at 1+k")


def test_criterion_04_fueter_theorem():
    t0 = time.monotonic()
    members = [from_string(fid) for fid in
               ("power:1", "power:2", "power:3", "power:4", "power:5",
                "series:1,1i,0.5j", "arctan_ex:1", "arctan_ex:2",
                "arctan_ex:3")]
    worst = 0.0
    for f in members:
        res = fueter_laplacian(f, _samples(f, 100, seed=106)).norm()
        worst = max(worst, float(np.max(res)))
    wall = time.monotonic() - t0
    ok = worst < 1e-6 and wall < 60.0
    _outcome(4, ok, f"|D_l Delta f| < 1e-6 on 9 members "
                    f"(worst {worst:.2e}), {wall:.1f}s < 60s")


def test_criterion_05_hyperholomorphy():
    worst_eq = 0.0
    worst_imag = 0.0
    for fid in ("arctan_ex:1", "arctan_ex:2", "arctan_ex:3"):
        f = from_string(fid)
        rep = hyperholomorphy_report(f, _samples(f, 200, seed=107))
        worst_eq = max(worst_eq, float(np.max(rep.eq1.norm())),
                       float(np.max(rep.eq2.norm())))
        worst_imag = max(worst_imag, rep.max_uv_imag())
    assert worst_imag < 1e-12, f"u,v imaginary part {worst_imag:.2e}"
    for fid in ("power:-3", "power:-2", "power:-1", "power:1", "power:2",
                "power:3", "power:4", "power:5", "series:1,1i,0.5j"):
        f = from_string(fid)
        rep = hyperholomorphy_report(f, _samples(f, 200, seed=108))
        worst_eq = max(worst_eq, float(np.max(rep.eq1.norm())),
                       float(np.max(rep.eq2.norm())))
    prod = product(catalog_get("arctan_ex", "1"), catalog_get("power", "2"))
    rep = hyperholomorphy_report(prod, _samples(prod, 200, seed=109))
    prod_eq = max(float(np.max(rep.eq1.norm())),
                  float(np.max(rep.eq2.norm())))
    ok = worst_eq < 1e-8 and prod_eq < 1e-8
    _outcome(5, ok, f"Equations (1)-(2) residuals < 1e-8 "
                    f"(worst {worst_eq:.2e}), arctan u,v real to "
                    f"{worst_imag:.2e}, product closure {prod_eq:.2e}")


def test_criterion_06_quadrature_self_tests():
    K = sphere3(Quaternion(0.0, 2.0, 0.0, 0.0), 1.0, 48)
    area_rel = abs(K.area() - 2 * math.pi ** 2) / (2 * math.pi ** 2)
    vol_rel = abs(K.volume() - math.pi ** 2 / 2) / (math.pi ** 2 / 2)
    assert area_rel < 1e-6, f"area {area_rel:.2e}"
    assert vol_rel < 1e-4, f"volume {vol_rel:.2e}"
    Kg = sphere3(Quaternion(0.0, 2.0, 0.0, 0.0), 1.0, 16)
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(600 + trial)
        fields = [PolyField(rng) for _ in range(4)]
        _, _, residual, scale = gauss_report(*fields, Kg)
        worst = max(worst, residual / scale)
    ok = worst < 1e-6
    _outcome(6, ok, f"area rel {area_rel:.2e} < 1e-6, volume rel "
                    f"{vol_rel:.2e} < 1e-4 at res 48; Gauss residual on "
                    f"10 degree<=3 tuples worst {worst:.2e} < 1e-6")


def test_criterion_07_integral_theorem():
    t0 = time.monotonic()
    # resolution 12 leaves the residuals four orders below the 1e-3
    # tolerance while keeping wide headroom under the 120 s cap
    surfaces = (sphere3(Quaternion(0.0, 2.0, 0.0, 0.0), 1.0, 12),
                sphere3(Quaternion(1.0, 0.0, 2.0, 0.0), 0.8, 12))
    worst = 0.0
    for fid in ("power:1", "power:2", "power:3", "iota"):
        f = from_string(fid)
        for K in surfaces:
            rep = theorem2_report(f, K)
            rel = rep.residual / rep.scale
            assert rel < 1e-3, f"{fid} on {K.name}: {rel:.2e}"
            worst = max(worst, rel)
    moment_gap = 0.0
    for K in surfaces:
        got = surface_integral_left(from_string("power:1"), K)
        want = Quaternion(-math.pi ** 2 * K.radius ** 4, 0.0, 0.0, 0.0)
        moment_gap = max(moment_gap,
                         float((got - want).norm() / want.norm()))
    assert moment_gap < 1e-3
    conj_rel = min(theorem2_report(from_string("conj"), K).residual
                   / theorem2_report(from_string("conj"), K).scale
                   for K in surfaces)
    assert conj_rel > 0.1
    wall = time.monotonic() - t0
    ok = wall < 120.0
    _outcome(7, ok, f"Integral Theorem rel residual < 1e-3 on both "
                    f"spheres (worst {worst:.2e}); moment of p within "
                    f"{moment_gap:.2e} of -pi^2 R^4; conj flagged at "
                    f"{conj_rel:.2f}; {wall:.1f}s < 120s")


def test_criterion_08_generalized_conformance():
    family = standard_family(10)
    worst = 0.0
    for f in default_inventory():
        verdict = generalized_regularity_test(f, family, 1e-3)
        if f.expected_regular:
            assert verdict.passed, f.fid
            worst = max(worst, max(r[1] / r[2] for r in verdict.rows),
                        max(r[3] / r[4] for r in verdict.rows))
        else:
            assert not verdict.passed, f.fid
    _outcome(8, True, f"all 14 expected-regular members pass f and "
                      f"iota f at tol 1e-3 (worst rel {worst:.2e}); "
                      f"both controls fail")


def test_criterion_09_backend_cross_check():
    ops = (fueter_left, fueter_left_spherical, cullen_left,
           angular_derivative, laplacian)
    worst = 0.0
    for f in default_inventory():
        pts = _samples(f, 25, seed=110)
        for op in ops:
            a = op(f, pts, backend="jets")
            b = op(f, pts, backend="fd")
            rel = float(np.max((a - b).norm() / (1.0 + a.norm())))
            assert rel < 1e-5, f"{f.fid}/{op.__name__}: {rel:.2e}"
            worst = max(worst, rel)
    _outcome(9, True, f"jets vs finite differences within 1e-5 relative "
                      f"on 5 operators x 16 members (worst {worst:.2e})")


def test_criterion_10_determinism():
    # resolution 12 is the smallest with comfortable quadrature margin
    # for the degree-5 members of the generalized suite
    cfg = SuiteConfig(resolution=12, samples=60, seed=123)
    body_a, code_a = run_suite(cfg)
    body_b, code_b = run_suite(cfg)
    strip = lambda t: "\n".join(l for l in t.splitlines()
                                if not l.startswith("#"))
    same = strip(body_a) == strip(body_b)
    ok = same and code_a == code_b == 0
    _outcome(10, ok, f"two full-suite runs with seed 123 produce "
                     f"byte-identical report bodies "
                     f"({len(strip(body_a).splitlines())} records)")
