"""Acceptance suite: one test per criterion, one printed line each.

Criteria 1-7 are the checks of `qubitamp.checks.CHECKS`, which
`qubitamp selftest` runs too; each gets a test named after it, and
`test_check_fails_on_a_skewed_input` holds their bounds: each check must
fail when a number it reads is moved just past its bound. Criterion 8
checks the README, not the program, so it lives here only.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import functools
import pathlib
from dataclasses import replace

import pytest

from qubitamp import checks
from qubitamp.fock import apply_phase


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


def _more_gain(simulate_scenario):
    """simulate_scenario with the gain 2e-3 higher."""
    def more(*args):
        out = simulate_scenario(*args)
        return replace(out, gain=out.gain + 2e-3)
    return more


def _timebin_limit_off(simulate_scenario):
    """simulate_scenario with the time-bin gain at p_in = 0 and mu < 1
    2e-12 relative higher."""
    def off(scenario, params):
        out = simulate_scenario(scenario, params)
        if scenario == "timebin-hqa" and params.p_in == 0.0 and params.mu < 1:
            return replace(out, gain=out.gain * (1.0 + 2e-12))
        return out
    return off


def _less_fidelity(simulate):
    """simulate with every class's conditional fidelity 2e-9 lower."""
    def less(bundle):
        out = simulate(bundle)
        return replace(out, per_class={
            k: replace(v, fidelity_conditional=v.fidelity_conditional - 2e-9)
            for k, v in out.per_class.items()})
    return less


def _more_p_out(check_run):
    """check_run with every p_out of its grid 2e-12 higher."""
    class Skewed(check_run):
        @functools.cached_property
        def grid(self):
            results, seconds = check_run.grid.func(self)
            return [(*r[:5], r[5] + 2e-12) for r in results], seconds
    return Skewed


def _other_pin_at_one_million(sample_events):
    """sample_events at p_in = 0.25, not 0.2, for the 1M-pulse runs only."""
    return lambda params, n, seed: sample_events(
        replace(params, p_in=0.25) if n == 1_000_000 else params, n, seed)


#: (check, the name in qubitamp.checks that it reads, that name skewed just
#: past the check's bound, or skewed in a way the check must see)
SKEWS = [
    ("criterion_1_gain_formula_equality", "gain_analytic",
     lambda f: lambda *a: f(*a) + 2e-9),
    ("criterion_2_maximum_gain", "simulate_scenario", _more_gain),
    ("criterion_2_maximum_gain", "simulate_scenario", _timebin_limit_off),
    ("criterion_3_output_probability_bound", "CheckRun", _more_p_out),
    *(("criterion_4_fidelity_reproduction", "mu_for_visibility",
       lambda f, off=off: lambda target, params, cls: f(
           target + 4e-9 * (cls == off), params, cls))
      for off in ("psi_plus", "psi_minus")),
    ("criterion_4_fidelity_reproduction", "simulate", _less_fidelity),
    ("criterion_5_hom_visibility", "hom_coincidence_fock",
     lambda f: lambda mu: f(mu) + 2e-12),
    ("criterion_6_detector_model_identity", "loss_identity_residual",
     lambda f: lambda *a: f(*a) + 2e-12),
    # a phase on p1 after the loss changes no click probability, only
    # the conditional state's coherences
    ("criterion_6_detector_model_identity", "apply_loss",
     lambda f: lambda m, path, eta: checks.Mixture([
         replace(b, state=apply_phase(b.state, b.state.path_indices("p1")[0],
                                      0.1)) for b in f(m, path, eta)])),
    ("criterion_7_monte_carlo_consistency", "sample_events",
     _other_pin_at_one_million),
]


@pytest.mark.parametrize("name,target,skew", SKEWS)
def test_check_fails_on_a_skewed_input(monkeypatch, name, target, skew):
    monkeypatch.setattr(checks, target, skew(getattr(checks, target)))
    ok, line = checks.run_check(name, checks.CheckRun())
    print("\n" + line)
    assert not ok, line


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
