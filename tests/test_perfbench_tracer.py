"""The benchmark's tracer against the package.

perfbench/spans.py wraps quatreg functions and methods by name at every
binding site, and its ``install()`` raises when a name it patches is gone
or bound nowhere.  A change to quatreg that deletes or renames such a
function is caught here, without a benchmark run.
"""

import importlib.util
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
