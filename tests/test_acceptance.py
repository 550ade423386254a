"""Acceptance suite: one test per criterion, one printed line each.

Criteria 1-7 are the checks of `qubitamp.checks.CHECKS`, which
`qubitamp selftest` runs too; each gets a test named after it. Criterion 8
checks the README, not the program, so it lives here only.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import pathlib

import pytest

from qubitamp import checks


@pytest.fixture(scope="module")
def run():
    """One pass over the registry: the grid is computed once per module."""
    return checks.CheckRun()


def _registry_test(name):
    def test(run):
        ok, line = checks.run_check(name, run)
        print("\n" + line)
        assert ok, line
    test.__name__ = f"test_{name}"
    return test


for _name in checks.CHECKS:
    globals()[f"test_{_name}"] = _registry_test(_name)


def test_criterion_8_declared_out_of_scope():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    declared = all(phrase in text for phrase in
                   ("not reproduced", "count rates", "source brightness"))
    print(f"\n[{'PASS' if declared else 'FAIL'}] "
          "criterion_8_declared_out_of_scope  absolute rates, hardware "
          "efficiencies and measured data points declared out of scope in "
          "README ('What is deliberately not reproduced')")
    assert declared
