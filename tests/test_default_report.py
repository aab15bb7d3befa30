"""The default run's records against a committed reference.

``default_report.txt`` holds the body of ``quatreg run`` on an empty
config: the report without its '#' lines.  A fresh run must give the same
records by the benchmark's agreement rule, ``_report_record_agrees`` in
perfbench/workloads.py: fields, statuses and outcomes exactly, numbers
within 2e-6 relative or both below 1e-3 of the row's tolerance.  On the
host that wrote the reference the body is byte-identical; other CPUs and
numpy builds may differ in rounding noise, which the rule allows.

After a deliberate change of records, rewrite the reference and review
its diff:

    PYTHONPATH=src python tests/test_default_report.py --write-ref
"""

import importlib.util
import pathlib
import sys

import pytest

from quatreg import SuiteConfig, run_suite

REF = pathlib.Path(__file__).with_name("default_report.txt")
WORKLOADS = (pathlib.Path(__file__).resolve().parents[1]
             / "perfbench" / "workloads.py")


@pytest.fixture(scope="module")
def agrees():
    """perfbench's record agreement rule, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module._report_record_agrees


def default_body():
    """(record lines of a default run, its exit code)."""
    text, code = run_suite(SuiteConfig())
    return [ln for ln in text.splitlines() if not ln.startswith("#")], code


@pytest.fixture(scope="module")
def fresh():
    return default_body()


def test_default_run_exits_zero(fresh):
    _, code = fresh
    assert code == 0


def test_records_agree_with_the_reference(fresh, agrees):
    lines, _ = fresh
    ref = REF.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(ref)
    bad = [(cur, want) for cur, want in zip(lines, ref)
           if not agrees(cur, want)]
    assert not bad, f"{len(bad)} records differ; first: {bad[0]}"


def test_the_rule_rejects_a_changed_status(fresh, agrees):
    lines, _ = fresh
    row = next(ln for ln in lines if ln.split("|")[5] == "pass")
    fields = row.split("|")
    fields[5] = "fail"
    assert agrees(row, row)
    assert not agrees("|".join(fields), row)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-ref"]:
        sys.exit("usage: python tests/test_default_report.py --write-ref")
    body, _ = default_body()
    REF.write_text("\n".join(body) + "\n", encoding="utf-8")
    print(f"wrote {len(body)} records to {REF}")
