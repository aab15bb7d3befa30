"""Command-line front-end tests: config grammar, report shape, exit codes."""

import gc
import math
import os
import pathlib
import subprocess
import sys
import traceback
import weakref
from dataclasses import replace

import numpy as np
import pytest

import quatreg
from quatreg import (ConfigError, DomainError, EmptyDomain, OnRealAxis,
                     QFunction, QJet, Quaternion, SampleDomain, SuiteConfig,
                     from_string, generalized_regularity_test, integral,
                     lemma1_residual, list_catalog, parse_surface, run_suite,
                     theorem2_report)
from quatreg.cli import SUITES, _RUNNERS, _robust, main


def small_cfg(**kw):
    base = dict(suites=("theorem1",), functions=("power:2",), samples=12)
    base.update(kw)
    return SuiteConfig(**base)


class TestConfig:
    def test_roundtrip(self):
        # Series and laurent ids keep the commas inside them.
        for functions in (("power:2", "iota"),
                          ("series:1,1i,0.5j", "laurent:-2=1k,1=1i", "iota",
                           "power:2")):
            cfg = SuiteConfig(suites=("lemma1", "integral"),
                              functions=functions, samples=17,
                              seed=3, backend="both", tol_lemma1=2e-9,
                              surfaces=("sphere:center=0+2i+0j+0k,r=1,res=8",))
            assert SuiteConfig.from_text(cfg.to_text()) == cfg

    def test_defaults_roundtrip(self):
        cfg = SuiteConfig()
        assert SuiteConfig.from_text(cfg.to_text()) == cfg

    def test_comments_and_blanks(self):
        cfg = SuiteConfig.from_text("# comment\n\nsuites=lemma1\nsamples=5\n")
        assert cfg.suites == ("lemma1",)
        assert cfg.samples == 5

    def test_rejects(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("nonsense line\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("shiny=1\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("samples=plenty\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("suites=theorem9\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("backend=symbolic\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("samples=0\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("r_min=-1.0\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_text("tol_fueter=0.0\n")
        for text in ("t_min=1\nt_max=0\n", "s_min=0\n", "s_min=1.5\n",
                     "resolution=1\n"):
            with pytest.raises(ConfigError):
                SuiteConfig.from_text(text)
        for text in ("tol_theorem1=nan\n", "t_min=-inf\nt_max=inf\n",
                     "r_max=inf\n"):
            with pytest.raises(ConfigError, match="finite"):
                SuiteConfig.from_text(text)


class TestReports:
    def test_row_shape_and_anchors(self):
        text, code = run_suite(small_cfg())
        assert code == 0
        records = [l for l in text.splitlines() if not l.startswith("#")]
        assert any(l.startswith("# schema:") for l in text.splitlines())
        for line in records:
            assert len(line.split("|")) == 8
        anchors = [l.split("|")[3] for l in records]
        assert "Theorem 1 item 2" in anchors
        assert "Theorem 1 item 4b" in anchors
        assert all(a.strip() for a in anchors)

    def test_control_rows_invert(self):
        text, code = run_suite(small_cfg(functions=("conj",)))
        assert code == 0
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("summary"):
                continue
            _, _, fid, _, _, status, expected, outcome = line.split("|")
            assert fid == "conj"
            assert status == "fail" and expected == "fail"
            assert outcome == "ok"

    def test_forced_failure_exits_one(self):
        text, code = run_suite(small_cfg(tol_theorem1=1e-30))
        assert code == 1
        assert "FAIL" in text

    def test_fd_backend_rows(self):
        text, code = run_suite(small_cfg(suites=("lemma1",),
                                         backend="both", samples=8))
        assert code == 0
        backends = {l.split("|")[1] for l in text.splitlines()
                    if not l.startswith(("#", "summary"))}
        assert backends == {"jets", "fd"}
        # Points are counted per backend and member.
        assert " points=16" in text

    def test_both_backends_share_one_sample(self, monkeypatch):
        # backend=both draws each member's sample once, and its rows and
        # points are those of jets then fd, each run on its own.
        members = [from_string(fid)
                   for fid in ("power:2", "arctan_ex:1", "conj")]
        draws = []
        sample = SampleDomain.sample

        def counted(dom, n, seed=0):
            draws.append(seed)
            return sample(dom, n, seed)

        for suite in ("theorem1", "lemma1", "hyperholomorphy"):
            cfg = small_cfg(suites=(suite,), samples=10, seed=4)
            want = [_RUNNERS[suite](replace(cfg, backend=b), members)
                    for b in ("jets", "fd")]
            monkeypatch.setattr(SampleDomain, "sample", counted)
            draws.clear()
            rows, work = _RUNNERS[suite](replace(cfg, backend="both"),
                                         members)
            monkeypatch.undo()
            assert len(draws) == len(set(draws)) == len(members), suite
            if suite == "hyperholomorphy":     # jets only, whatever cfg says
                want = want[:1]
            assert rows == [row for got, _ in want for row in got], suite
            assert work["points"] == sum(w["points"] for _, w in want)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(suites=("nope",)))

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(small_cfg(functions=("powr:2",)))

    def test_determinism(self):
        cfg = small_cfg(suites=("theorem1", "lemma1"), seed=5)
        a, _ = run_suite(cfg)
        b, _ = run_suite(cfg)
        strip = lambda t: [l for l in t.splitlines()
                           if not l.startswith("#")]
        assert strip(a) == strip(b)

    def test_one_timing_line_per_suite(self):
        # Timing goes in '#' lines only: the records of a two-suite run are
        # those of its suites run one at a time.
        suites = ("lemma1", "fueter_theorem")
        cfg = small_cfg(suites=suites, functions=("power:2", "conj"))
        text, _ = run_suite(cfg)
        timing = [l.split() for l in text.splitlines()
                  if l.startswith("# timing:")]
        assert [t[2] for t in timing] == [f"suite={s}" for s in suites]
        body = [l for l in text.splitlines() if not l.startswith("#")]
        alone = []
        for suite in suites:
            one, _ = run_suite(replace(cfg, suites=(suite,)))
            alone += [l for l in one.splitlines()
                      if not l.startswith(("#", "summary"))]
        assert body[:-1] == alone and body[-1].startswith("summary|")
        for (_, _, suite, wall, rows, work), name in zip(timing, suites):
            assert float(wall.removeprefix("wall_s=")) >= 0.0
            assert int(rows.removeprefix("rows=")) == sum(
                1 for l in body if l.startswith(name + "|"))
            # Two members of cfg.samples points each.
            assert work == f"points={2 * cfg.samples}"

    def test_stats_formatting(self):
        text, _ = run_suite(small_cfg())
        row = next(l for l in text.splitlines()
                   if not l.startswith(("#", "summary")))
        stats = dict(kv.split("=", 1) for kv in row.split("|")[4].split(";"))
        assert stats["n"] == "12"
        assert "e" in stats["max"]       # scientific notation
        float(stats["mean"])
        assert "i" in stats["worst"] and "k" in stats["worst"]


class TestMain:
    def test_run_and_output_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        out_path = tmp_path / "report.txt"
        cfg_path.write_text(small_cfg(samples=8).to_text())
        code = main(["run", str(cfg_path), "--output", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "Theorem 1 item 1" in text

    def test_exit_two_cases(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("functions=powr:2\nsuites=lemma1\n")
        assert main(["run", str(bad)]) == 2
        assert "powr" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.txt")]) == 2
        badsurf = tmp_path / "surf.txt"
        badsurf.write_text("suites=integral\n"
                           "surfaces=sphere:center=0+2i+0j+0k,r=1\n")
        assert main(["run", str(badsurf)]) == 2
        # Non-finite numbers: a tolerance, the sample box, a sphere.
        capsys.readouterr()
        assert main(["check", "theorem1", "power:2", "--tol", "nan"]) == 2
        # A series without a coefficient, not the zero function.
        for fid in ("series:", "series:,"):
            assert main(["check", "theorem1", fid]) == 2, fid
        for text in ("tol_theorem1=nan", "t_min=-inf\nt_max=inf",
                     "r_max=inf",
                     "suites=integral\nfunctions=power:2\n"
                     "surfaces=sphere:center=0+2i,r=nan,res=6",
                     "suites=integral\nfunctions=power:2\n"
                     "surfaces=sphere:center=0+1e999i,r=1,res=6",
                     # A radius that is not a number.
                     "suites=integral\nfunctions=power:2\n"
                     "surfaces=sphere:center=0+2i,r=abc,res=8",
                     # No suite at all, which would pass vacuously.
                     "suites=\nfunctions=power:2"):
            bad.write_text(text + "\n")
            assert main(["run", str(bad)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("config error:") == 10
        assert "Traceback" not in err

    def test_unwritable_report_exits_two(self, tmp_path, capsys,
                                         monkeypatch):
        # The path is refused before any suite runs: a missing directory,
        # or a directory where the report file should be.
        runs = []
        monkeypatch.setattr(quatreg.cli, "run_suite",
                            lambda cfg: runs.append(cfg) or ("", 0))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_cfg(samples=4).to_text())
        for out_path in (tmp_path / "missing" / "report.txt", tmp_path):
            assert main(["run", str(cfg_path), "--output",
                         str(out_path)]) == 2
            err = capsys.readouterr().err
            assert "config error: cannot write report" in err
            assert "Traceback" not in err
        assert runs == []
        # A writable path, new or existing, still runs the suites.
        out_path = tmp_path / "report.txt"
        for _ in range(2):
            assert main(["run", str(cfg_path), "--output",
                         str(out_path)]) == 0
        assert len(runs) == 2 and out_path.exists()

    def test_functions_list_keeps_series_commas(self, tmp_path, capsys):
        # A default-inventory series id in functions= is one member.
        cfg_path = tmp_path / "series.txt"
        cfg_path.write_text("suites=lemma1\nsamples=10\n"
                            "functions=series:1,1i,0.5j,iota\n")
        out_path = tmp_path / "report.txt"
        assert main(["run", str(cfg_path), "--output", str(out_path)]) == 0
        rows = [ln.split("|")[2] for ln in out_path.read_text().splitlines()
                if ln.startswith("lemma1|")]
        assert rows == ["series:1,1i,0.5j", "iota"]
        cfg_path.write_text("suites=lemma1\nfunctions=series:1,1i,powr:3\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "'powr'" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ("integral", "generalized"))
    def test_surface_meeting_real_axis_exits_two(self, suite, tmp_path,
                                                 capsys):
        cfg_path = tmp_path / "axis.txt"
        cfg_path.write_text(f"suites={suite}\nfunctions=power:2\n"
                            "surfaces=sphere:center=0+0.5i,r=1,res=4\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "real axis" in capsys.readouterr().err

    def test_unfillable_domain_exits_two(self, tmp_path, capsys):
        # |p| <= 0.1 everywhere, below power:-1's 0.2 floor: no point
        # can be drawn, which is a configuration error, not a crash
        cfg_path = tmp_path / "empty.txt"
        cfg_path.write_text("functions=power:-1\nt_min=0\nt_max=0\n"
                            "r_min=0.1\nr_max=0.1\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        with pytest.raises(EmptyDomain):
            SampleDomain(t_range=(1.0, 0.0)).sample(4)
        # An infinite bound leaves no finite width to draw from.
        with pytest.raises(EmptyDomain):
            SampleDomain(r_range=(0.5, math.inf)).sample(3)
        with pytest.raises(EmptyDomain):
            SampleDomain(t_range=(-math.inf, 0.0)).sample(3)

    def test_exit_one(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(small_cfg(tol_theorem1=1e-30,
                                      output="-").to_text())
        out_path = tmp_path / "rep.txt"
        assert main(["run", str(cfg_path),
                     "--output", str(out_path)]) == 1

    def test_python_dash_m(self):
        # python -m quatreg runs the command line without the runpy
        # warning that python -m quatreg.cli prints.
        src = pathlib.Path(quatreg.__file__).parent.parent
        path = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-m", "quatreg", "list"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0
        assert "RuntimeWarning" not in done.stderr
        assert done.stdout == list_catalog()

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "iota expected-regular" in out
        assert "conj control" in out
        assert "arctan_ex:1 expected-regular expected-hyperholomorphic" in out
        assert len(out.strip().splitlines()) == 16

    def test_check(self, capsys):
        assert main(["check", "lemma1", "conj", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out

    def test_check_bad_suite(self, capsys):
        assert main(["check", "theorem7", "power:2"]) == 2

    def test_library_list_matches_cli(self, capsys):
        main(["list"])
        assert capsys.readouterr().out == list_catalog()


class TestNonFiniteResiduals:
    def test_nan_control_is_an_error_in_every_suite(self):
        # A control is expected to fail; a NaN residual must not pass
        # for that failure.
        nan_control = QFunction("nan-control", lambda p: p * math.nan,
                                expected_regular=False, control=True)
        cfg = SuiteConfig(samples=6, resolution=4, backend="both")
        for suite in SUITES:
            rows, _ = _RUNNERS[suite](cfg, [nan_control])
            assert rows, suite
            for row in rows:
                assert row.status == "error", (suite, row.render())
                assert row.outcome == "FAIL", (suite, row.render())


class TestErrorRows:
    def test_every_point_raising_gives_one_error_row(self, tmp_path,
                                                     capsys):
        # Every sample lies within the chart's R_MIN of the real axis.
        cfg_path = tmp_path / "axis.txt"
        cfg_path.write_text("suites=theorem1\nfunctions=power:2\n"
                            "samples=8\nr_min=1e-8\nr_max=1e-7\n")
        assert main(["run", str(cfg_path)]) == 1
        rows = [l for l in capsys.readouterr().out.splitlines()
                if not l.startswith(("#", "summary"))]
        assert len(rows) == 1
        fields = rows[0].split("|")
        assert fields[3] == "Theorem 1"
        assert fields[4].startswith("error=OnRealAxis: ")
        assert fields[5:] == ["error", "pass", "FAIL"]

    def test_integral_member_raising_on_a_surface(self):
        def body(p):
            raise DomainError("outside the member's domain")

        member = QFunction("raises", body)
        rows, _ = _RUNNERS["integral"](small_cfg(resolution=4), [member])
        assert len(rows) == 2       # one per default surface
        for row in rows:
            assert row.anchor.startswith("Integral Theorem on ")
            assert row.stats == {"error": "DomainError: outside the "
                                          "member's domain"}
            assert (row.status, row.outcome) == ("error", "FAIL")


_GENERALIZED_ANCHOR = "Generalized Cullen-regularity (Integral Theorem family)"


class TestGeneralizedSweep:
    """The generalized suite visits its family one sphere at a time."""

    def test_shared_jets_built_once_per_sphere(self, monkeypatch):
        # 3 members on 5 spheres: the interior seed jet is built 5 times,
        # not 15, and iota*f's integrand comes from f's jet by Lemma 1, so
        # no jet of iota is built.
        calls = {"seed": 0, "iota_jet": 0}
        seed_cartesian, iota_of = QJet.seed_cartesian, integral.iota_of

        def counted_seed(cls, p, order):
            calls["seed"] += 1
            return seed_cartesian(p, order)

        def counted_iota(p):
            calls["iota_jet"] += isinstance(p, QJet)
            return iota_of(p)

        monkeypatch.setattr(QJet, "seed_cartesian",
                            classmethod(counted_seed))
        monkeypatch.setattr(integral, "iota_of", counted_iota)
        members = [from_string(s) for s in ("power:2", "power:3", "conj")]
        rows, work = _RUNNERS["generalized"](SuiteConfig(resolution=4),
                                             members)
        assert [row.stats["surfaces"] for row in rows] == [5, 5, 5]
        assert calls == {"seed": 5, "iota_jet": 0}
        family = integral.standard_family(4)
        assert work == {"nodes": 3 * sum(K.node_count + K.interior_count
                                         for K in family)}
        assert all(K.interior_count == K.volume_nodes()[1].size
                   for K in family)

    def test_interior_nodes_live_one_sphere_at_a_time(self, monkeypatch):
        # The surfaces keep no interior nodes: when the sweep builds a
        # sphere's nodes, no earlier sphere's are alive, and after it none
        # are, though the family still is.
        refs, alive_at_build = [], []
        volume_nodes = integral.Hypersurface.volume_nodes

        def recorded(K):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in refs))
            pts, w = volume_nodes(K)
            refs.extend(weakref.ref(a) for a in (*pts.components(), w))
            return pts, w

        monkeypatch.setattr(integral.Hypersurface, "volume_nodes", recorded)
        family = integral.standard_family(4)
        integral._generalized_sweep([from_string("power:2")], family, 1e-3)
        gc.collect()
        assert alive_at_build == [0] * 5
        assert len(refs) == 25 and all(ref() is None for ref in refs)

    def test_error_on_the_second_sphere_only(self):
        # arctan_ex:1 crosses its arctanh margin near the z-axis, which
        # the second sphere's nodes come within 1e-3 of.
        surfaces = ("sphere:center=0+1.3i+1.3j+1.3k,r=0.6,res=8",
                    "sphere:center=0+0i+0j+2k,r=0.01,res=8")
        cfg = SuiteConfig(surfaces=surfaces)
        family = [parse_surface(s) for s in surfaces]
        arctan = from_string("arctan_ex:1")
        assert generalized_regularity_test(arctan, family[:1], 1e-3).passed
        with pytest.raises(DomainError) as on_second:
            theorem2_report(arctan, family[1])
        members = [from_string(s) for s in ("power:2", "arctan_ex:1", "conj")]
        rows, _ = _RUNNERS["generalized"](cfg, members)
        assert rows[1].render() == (
            f"generalized|jets|arctan_ex:1|{_GENERALIZED_ANCHOR}|"
            "error=DomainError: arctanh argument outside the 1 - 1e-6 "
            "safety margin|error|pass|FAIL")
        assert rows[1].stats["error"] == f"DomainError: {on_second.value}"
        # The members around it keep the rows they have on their own.
        for f, row in zip(members[::2], rows[::2]):
            (alone,), _ = _RUNNERS["generalized"](cfg, [f])
            assert row.render() == alone.render()
            assert row.stats["surfaces"] == 2
        with pytest.raises(DomainError, match="arctanh argument"):
            generalized_regularity_test(arctan, family, 1e-3)

    def test_kept_error_holds_no_sphere_jets(self, monkeypatch):
        # A member that fails on the first sphere's interior jets: its
        # kept error must not pin that sphere's jets while later spheres
        # are evaluated.
        def raise_on_jets(p):
            if isinstance(p, QJet):
                raise DomainError("no jets here")
            return p

        f = QFunction("points-only", raise_on_jets, expected_regular=True)
        family = integral.standard_family(4)
        (exc, ok), nodes = integral._generalized_sweep(
            [f, from_string("power:2")], family, 1e-3)
        assert isinstance(exc, DomainError) and len(ok.rows) == 5
        # The member that raised is counted on the first sphere only.
        per_sphere = [K.node_count + K.interior_count for K in family]
        assert nodes == per_sphere[0] + sum(per_sphere)
        assert "raise_on_jets" in "".join(traceback.format_tb(
            exc.__traceback__))
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            assert not any(isinstance(v, (QJet, integral._SphereJets))
                           for v in frame.f_locals.values()), frame
        # Alone, that member stops the sweep after the first sphere.
        builds = []
        volume_nodes = integral.Hypersurface.volume_nodes
        monkeypatch.setattr(integral.Hypersurface, "volume_nodes",
                            lambda K: builds.append(K) or volume_nodes(K))
        (exc,), nodes = integral._generalized_sweep([f], family, 1e-3)
        assert isinstance(exc, DomainError)
        assert builds == [family[0]] and nodes == per_sphere[0]

    def test_nan_on_a_later_sphere_is_the_worst_value(self):
        # NaN on the second standard sphere (x < 0) only; the first lies
        # in x > 0.
        def nan_where_x_negative(p):
            x = p.x.value if isinstance(p, QJet) else p.x
            return p * np.where(np.asarray(x) < 0.0, np.nan, 1.0)

        f = QFunction("nan-later", nan_where_x_negative,
                      expected_regular=True)
        (row,), _ = _RUNNERS["generalized"](SuiteConfig(resolution=4), [f])
        assert row.status == "error"
        assert math.isnan(row.stats["worst_rel_f"])
        assert "worst_rel_f=nan" in row.render()


class TestRobust:
    def test_bisection_keeps_what_point_by_point_keeps(self):
        f = from_string("power:2")
        pts = SampleDomain().sample(256, seed=3)
        t, x, y, z = (np.array(c, dtype=float) for c in pts.components())
        bad = [5, 6, 131, 200]
        x[bad], y[bad], z[bad] = 1e-8, 0.0, 0.0   # below the chart's R_MIN
        pts = Quaternion(t, x, y, z)
        calls = []

        def batch(p):
            calls.append(np.size(p.t))
            return {"res": np.asarray(lemma1_residual(f, p))}

        data, skipped, first, kept = _robust(batch, pts)
        singles = []
        for i in range(256):
            try:
                lemma1_residual(f, pts[i])
            except OnRealAxis:
                continue
            singles.append(i)
        assert kept.tolist() == singles == sorted(set(range(256)) - set(bad))
        assert skipped == 256 - len(singles)
        assert isinstance(first, OnRealAxis)
        assert data["res"].shape == (len(singles),)
        assert len(calls) < 256 // 4

    def test_skip_reason_in_rows(self):
        text, _ = run_suite(small_cfg(suites=("lemma1",), samples=200,
                                      r_min=1e-7, r_max=2e-5))
        rows = [l for l in text.splitlines()
                if not l.startswith(("#", "summary"))]
        assert rows
        for row in rows:
            stats = dict(kv.split("=", 1)
                         for kv in row.split("|")[4].split(";"))
            assert stats["skip"] == "OnRealAxis"
            assert int(stats["skipped"]) > 0
