"""The benchmark's tracer against the package.

perfbench/spans.py wraps quatreg functions and methods by name at every
binding site, and its ``install()`` raises when a name it patches is gone
or bound nowhere.  A change to quatreg that deletes or renames such a
function is caught here, without a benchmark run.
"""

import importlib.util
import json
import pathlib

import quatreg

SPANS = (pathlib.Path(__file__).resolve().parents[1]
         / "perfbench" / "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_has_a_binding_site():
    tracer = load_spans().Tracer(quatreg)
    try:
        tracer.install()
        sites = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert sites
    # Uninstalling leaves every site as it was for the tests that follow.
    for owner, attr, original in sites:
        assert vars(owner)[attr] is original, attr


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  SPANS.with_name("run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quadrature_layers_fire_on_the_integral_suites():
    # The quadrature workload runs the integral and generalized suites,
    # one per config.  Run so on two members at res 6, every layer that
    # perfbench/layers.json requires on quadrature reads above zero, as
    # the traced benchmark run checks; every integral.* span has calls,
    # and nodes where it counts them.  The records and trace.* metrics
    # are the run's own, not spans.
    layers = json.loads((SPANS.parent / "layers.json").read_text())
    required = [layer["name"] for layer in layers["per_layer"]
                if "quadrature" in layer["fires_on"]
                and not layer["name"].startswith(("cli.records", "trace."))]
    assert "integral.volume_integral.s" in required
    tracer = load_spans().Tracer(quatreg)
    tracer.install()
    try:
        for suite in ("integral", "generalized"):
            quatreg.run_suite(quatreg.SuiteConfig(
                suites=(suite,), functions=("power:-1", "iota"),
                resolution=6))
        agg = tracer.collect()
    finally:
        tracer.uninstall()
    layer_value = load_run()._layer_value
    for name in required:
        assert layer_value(name, agg) > 0, name
        span, qty = name.rsplit(".", 1)
        if span.startswith("integral.") and qty != "self_s":
            assert agg[span]["calls"] > 0, name
