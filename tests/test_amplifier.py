import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qubitamp import amplifier
from qubitamp.amplifier import (
    AmplifierParams,
    PRESETS,
    QubitSpec,
    SCENARIOS,
    HeraldClass,
    UndefinedGainError,
    ZeroHeraldError,
    _combine,
    build_scenario,
    build_timebin_hqa,
    compile_scenario,
    fidelity_from_visibility,
    fringe_scan,
    gain_analytic,
    gain_asymptote,
    hom_coincidence,
    hom_coincidence_fock,
    mu_for_visibility,
    simulate,
    simulate_scenario,
    visibility,
)
from qubitamp.checks import GRID
from qubitamp.circuits import run_circuit
from qubitamp.detection import CLICK, NO_CLICK

from exact_fringe import class_rates
from exact_herald import heralded_analysis

BALANCED = QubitSpec.from_phase(0.0)


class TestGainFormula:
    def test_maximum_gain_point(self):
        g = gain_analytic(0.9, 1.0, 1.0, 1e-6)
        assert abs(g - 9.0) <= 1e-3

    def test_unit_input_collapses_to_t(self):
        # p_in = 1, eta = 1, p_a = 1: denominator collapses to p_in
        assert gain_analytic(0.7, 1.0, 1.0, 1.0) == pytest.approx(0.7)

    def test_generic_point(self):
        # derived by direct evaluation of the closed form
        expected = 0.8 * 0.7 / (0.8 * 0.3 * (1 - 0.5 * 0.7) + 0.5)
        g = gain_analytic(0.7, 0.8, 0.7, 0.5)
        assert g == pytest.approx(expected, abs=1e-15)
        assert g == pytest.approx(0.853659, abs=5e-7)

    def test_degenerate_denominator(self):
        with pytest.raises(UndefinedGainError):
            gain_analytic(1.0, 0.5, 1.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gain_analytic(1.2, 0.5, 1.0, 0.1)

    def test_monotone_decreasing_in_pin(self):
        gains = [gain_analytic(0.9, 0.8, 0.7, pin)
                 for pin in np.linspace(0.01, 1.0, 25)]
        assert all(a >= b - 1e-15 for a, b in zip(gains, gains[1:]))

    def test_curve_ordering_in_t(self):
        for pin in np.linspace(0.01, 1.0, 10):
            assert (gain_analytic(0.9, 0.8, 0.7, float(pin))
                    > gain_analytic(0.7, 0.8, 0.7, float(pin)))


class TestAsymptote:
    def test_values(self):
        assert gain_asymptote(0.9) == pytest.approx(9.0)
        assert gain_asymptote(0.5) == pytest.approx(1.0)
        assert gain_asymptote(0.99) == pytest.approx(99.0)

    def test_undefined_at_unit_transmission(self):
        with pytest.raises(ValueError):
            gain_asymptote(1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AmplifierParams(t=1.1, p_in=0.5, p_a=0.5, eta=0.5)
        with pytest.raises(ValueError):
            AmplifierParams(t=0.5, p_in=0.5, p_a=0.5, eta=0.5, mu=2.0)
        with pytest.raises(ValueError):
            AmplifierParams(t=0.5, p_in=0.5, p_a=0.5, eta=0.5,
                            dark_click_prob=1.0)

    def test_presets(self):
        assert PRESETS["paper-solid"]["p_a"] == pytest.approx(0.296)
        assert PRESETS["paper-dashed"]["p_a"] == pytest.approx(0.9)

    def test_qubit_spec(self):
        with pytest.raises(ValueError):
            QubitSpec(1.0, 1.0)
        q = QubitSpec.from_phase(0.3)
        assert abs(q.alpha) ** 2 + abs(q.beta) ** 2 == pytest.approx(1.0)


class TestFockHpaOracle:
    def test_trivial_unit_gain(self):
        out = simulate_scenario(
            "fock-hpa", AmplifierParams(t=1.0, p_in=1.0, p_a=1.0, eta=1.0))
        assert out.gain == pytest.approx(1.0, abs=1e-12)
        assert out.p_out == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_gain(self):
        out = simulate_scenario(
            "fock-hpa", AmplifierParams(t=0.9, p_in=1e-6, p_a=1.0, eta=1.0))
        assert abs(out.gain - 9.0) <= 1e-3

    def test_generic_point_matches_formula(self):
        out = simulate_scenario(
            "fock-hpa", AmplifierParams(t=0.7, p_in=0.5, p_a=0.8, eta=0.7))
        assert out.gain == pytest.approx(gain_analytic(0.7, 0.8, 0.7, 0.5),
                                         abs=1e-9)

    def test_vacuum_weight_complement(self):
        p = AmplifierParams(t=0.9, p_in=0.2, p_a=0.9, eta=0.7)
        out = simulate_scenario("fock-hpa", p)
        assert out.vacuum_weight == pytest.approx(1.0 - out.gain * p.p_in,
                                                  abs=1e-10)
        assert out.multi_weight == pytest.approx(0.0, abs=1e-12)

    def test_output_probability_claim(self):
        out = simulate_scenario(
            "fock-hpa", AmplifierParams(t=0.99, p_in=1.0, p_a=0.9, eta=0.7))
        expected = 0.9 * 0.99 / (0.9 * 0.01 * (1 - 0.7) + 1.0)
        assert out.p_out == pytest.approx(expected, abs=1e-9)
        assert out.p_out > 0.823

    def test_upper_bound(self):
        for t, pa in ((0.7, 0.5), (0.9, 0.9), (0.99, 1.0)):
            out = simulate_scenario(
                "fock-hpa", AmplifierParams(t=t, p_in=0.6, p_a=pa, eta=0.7))
            assert out.p_out <= pa * t + 1e-12

    def test_zero_herald_flagged(self):
        with pytest.raises(ZeroHeraldError):
            simulate_scenario(
                "fock-hpa", AmplifierParams(t=0.9, p_in=0.0, p_a=0.0, eta=0.7))

    def test_outcome_invariants(self):
        out = simulate_scenario(
            "fock-hpa", AmplifierParams(t=0.8, p_in=0.3, p_a=0.7, eta=0.6,
                                        dark_click_prob=0.01))
        total = out.vacuum_weight + out.p_out + out.multi_weight
        assert total == pytest.approx(1.0, abs=1e-10)
        eig = np.linalg.eigvalsh(out.output_qubit_density)
        assert eig.min() >= -1e-10


class TestTimebinOracle:
    def test_gain_matches_formula_sample(self):
        for t, pa, eta, pin in ((0.5, 0.296, 0.5, 0.01), (0.7, 0.8, 0.7, 0.47),
                                (0.9, 0.9, 1.0, 0.2), (0.99, 1.0, 0.7, 1.0)):
            out = simulate_scenario(
                "timebin-hqa", AmplifierParams(t=t, p_in=pin, p_a=pa, eta=eta))
            assert out.gain == pytest.approx(gain_analytic(t, pa, eta, pin),
                                             abs=1e-9)

    def test_gain_independent_of_qubit_amplitudes(self):
        p = AmplifierParams(t=0.9, p_in=0.3, p_a=0.8, eta=0.7)
        gains = []
        for alpha in (1.0, 0.6, 1 / math.sqrt(2), 0.2):
            beta = math.sqrt(1 - alpha ** 2)
            out = simulate(build_timebin_hqa(p, QubitSpec(alpha, beta)))
            gains.append(out.gain)
        assert max(gains) - min(gains) <= 1e-9

    def test_psi_plus_fidelity_unit(self):
        p = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
        for q in (BALANCED, QubitSpec(0.6, 0.8), QubitSpec.from_phase(1.1)):
            out = simulate(build_timebin_hqa(p, q))
            assert abs(out.per_class["psi_plus"].fidelity_conditional - 1.0) <= 1e-9

    def test_psi_minus_needs_correction(self):
        p = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
        q = QubitSpec(0.6, 0.8)
        bundle = build_timebin_hqa(p, q)
        out = simulate(bundle)
        assert abs(out.per_class["psi_minus"].fidelity_conditional - 1.0) <= 1e-9
        # without the correction the overlap drops to |<psi|flipped psi>|^2
        analysis = heralded_analysis(bundle)["psi_minus"]
        rho = analysis.qubit_density
        psi = q.vector()
        raw = float((psi.conj() @ rho @ psi).real) / analysis.single_weight
        expected = (abs(q.alpha) ** 2 - abs(q.beta) ** 2) ** 2
        assert raw == pytest.approx(expected, abs=1e-9)

    def test_fidelity_invariant_under_pin_and_t(self):
        for t, pin in ((0.5, 0.1), (0.7, 0.47), (0.9, 0.9)):
            out = simulate(build_timebin_hqa(
                AmplifierParams(t=t, p_in=pin, p_a=0.8, eta=0.7), BALANCED))
            assert abs(out.fidelity_conditional - 1.0) <= 1e-9

    def test_both_classes_herald_equally_for_balanced_qubit(self):
        out = simulate(build_timebin_hqa(
            AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7), BALANCED))
        probs = [oc.herald_prob for oc in out.per_class.values()]
        assert probs[0] == pytest.approx(probs[1], abs=1e-12)

    def test_build_scenario_dispatch(self):
        p = AmplifierParams(t=0.9, p_in=0.2, p_a=0.9, eta=0.7)
        assert build_scenario("fock-hpa", p).scenario == "fock-hpa"
        assert build_scenario("timebin-hqa", p).scenario == "timebin-hqa"
        with pytest.raises(ValueError):
            build_scenario("bogus", p)


class TestFringes:
    PARAMS = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
    PHIS = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)

    def test_ideal_visibilities(self):
        scan = fringe_scan(self.PARAMS, self.PHIS)
        assert scan.visibility_plus == pytest.approx(1.0, abs=1e-12)
        assert scan.visibility_minus == pytest.approx(1.0, abs=1e-12)

    def test_plus_peaks_minus_dips_at_zero(self):
        scan = fringe_scan(self.PARAMS, self.PHIS)
        assert scan.rate_plus[0] == pytest.approx(max(scan.rate_plus), abs=1e-12)
        assert scan.rate_minus[0] == pytest.approx(min(scan.rate_minus), abs=1e-12)

    def test_half_turn_symmetry(self):
        scan = fringe_scan(self.PARAMS, self.PHIS)
        shifted = np.roll(scan.rate_minus, -8)
        assert np.max(np.abs(scan.rate_plus - shifted)) <= 1e-9

    def test_partial_distinguishability_lowers_visibility(self):
        scan = fringe_scan(replace(self.PARAMS, mu=0.9), self.PHIS)
        assert scan.visibility_plus < 1.0
        assert scan.visibility_plus == pytest.approx(0.81, abs=1e-9)

    def test_two_fidelity_routes_agree(self):
        mu = 0.95
        scan = fringe_scan(replace(self.PARAMS, mu=mu), (0.0, math.pi))
        out = simulate(build_timebin_hqa(replace(self.PARAMS, mu=mu), BALANCED))
        route_visibility = fidelity_from_visibility(scan.visibility_plus)
        route_conditional = out.per_class["psi_plus"].fidelity_conditional
        assert abs(route_visibility - route_conditional) <= 1e-6

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fringe_scan(self.PARAMS, ())
        with pytest.raises(ValueError):  # one phase defines no visibility
            fringe_scan(self.PARAMS, (0.0,))

    def test_mu_calibration(self):
        mu = mu_for_visibility(0.98, self.PARAMS)
        scan = fringe_scan(self.PARAMS, (0.0, math.pi), mu_plus=mu, mu_minus=mu)
        assert scan.visibility_plus == pytest.approx(0.98, abs=1e-9)
        assert mu_for_visibility(1.0, self.PARAMS) == 1.0
        assert mu_for_visibility(0.0, self.PARAMS) == 0.0

    def test_mu_calibration_unknown_class(self):
        with pytest.raises(KeyError):
            mu_for_visibility(0.98, self.PARAMS, "psi_bogus")

    def test_mu_calibration_off_the_acceptance_grid(self):
        # at mu = 1 rounding leaves the fringe minimum here at about -2e-19
        params = AmplifierParams(t=0.683826, p_in=0.405639, p_a=0.619225,
                                 eta=0.621935)
        mu_plus = mu_for_visibility(0.98, params, "psi_plus")
        mu_minus = mu_for_visibility(0.93, params, "psi_minus")
        assert 0.0 <= mu_plus <= 1.0 and 0.0 <= mu_minus <= 1.0
        phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        scan = fringe_scan(params, phis, mu_plus=mu_plus, mu_minus=mu_minus)
        assert scan.fidelity_plus == pytest.approx(0.99, abs=1e-9)
        assert scan.fidelity_minus == pytest.approx(0.965, abs=1e-9)


def bisect_mu_for_visibility(target, params, herald_class):
    """Reference for the closed-form `mu_for_visibility`: bisection on mu
    against an exact two-point (0, pi) fringe, to a bracket of 1e-13."""

    def vis(mu):
        rates = class_rates(replace(params, mu=mu), (0.0, math.pi))
        return visibility(rates[herald_class])

    lo, hi = 0.0, 1.0
    if target >= vis(1.0):
        return 1.0
    if target <= vis(0.0):
        return 0.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if vis(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("t,p_in,p_a,eta", [
    (0.7, 0.47, 0.8, 0.7),  # the acceptance fidelity point
    (0.5, 0.01, 0.296, 0.5),
    (0.9, 0.2, 0.5, 1.0),
    (0.99, 0.7, 0.9, 0.7),
    (0.5, 1.0, 1.0, 1.0),
    (0.683826, 0.405639, 0.619225, 0.621935),  # off the acceptance grid
])
def test_closed_form_mu_matches_bisection(t, p_in, p_a, eta):
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta)
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    for cls, target in (("psi_plus", 0.98), ("psi_minus", 0.93)):
        mu = mu_for_visibility(target, params, cls)
        assert abs(mu - bisect_mu_for_visibility(target, params, cls)) <= 1e-12
        scan = fringe_scan(params, phis, mu_plus=mu, mu_minus=mu)
        got = {"psi_plus": scan.visibility_plus,
               "psi_minus": scan.visibility_minus}[cls]
        assert abs(got - target) <= 1e-12


class TestVisibilityHelpers:
    def test_visibility(self):
        assert visibility([1.0, 0.0]) == pytest.approx(1.0)
        assert visibility([2.0, 2.0]) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            visibility([])
        with pytest.raises(ValueError):
            visibility([0.0, 0.0])
        with pytest.raises(ValueError):
            visibility([1.0, -1e-19])

    def test_fidelity_from_visibility(self):
        assert fidelity_from_visibility(0.98) == pytest.approx(0.99)
        assert fidelity_from_visibility(1.0) == pytest.approx(1.0)
        assert fidelity_from_visibility(0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            fidelity_from_visibility(1.2)


class TestHom:
    def test_closed_form_points(self):
        assert hom_coincidence(1.0) == (pytest.approx(0.0), pytest.approx(1.0))
        assert hom_coincidence(0.0) == (pytest.approx(0.5), pytest.approx(0.0))
        c, v = hom_coincidence(math.sqrt(0.92))
        assert v == pytest.approx(0.92, abs=1e-12)
        assert c == pytest.approx((1 - 0.92) / 2, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 0.959, 1.0])
    def test_fock_route_matches_closed_form(self, mu):
        closed, _ = hom_coincidence(mu)
        assert hom_coincidence_fock(mu) == pytest.approx(closed, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            hom_coincidence(1.5)


def test_oracle_grid_subsample():
    # full 720-point grid runs in the acceptance suite; spot-check both
    # circuits on a small cross section here
    for scenario, (t, pa, eta, pin) in itertools.product(
            ("fock-hpa", "timebin-hqa"),
            ((0.5, 0.5, 0.5, 0.1), (0.9, 0.296, 0.7, 0.47),
             (0.99, 1.0, 1.0, 1.0))):
        out = simulate_scenario(
            scenario, AmplifierParams(t=t, p_in=pin, p_a=pa, eta=eta))
        assert out.gain == pytest.approx(gain_analytic(t, pa, eta, pin),
                                         abs=1e-9)


class TestHeraldClass:
    def test_overlapping_patterns_rejected(self):
        # both patterns match the outcome in which s_a and l_a click
        with pytest.raises(ValueError, match="'overlap'.*mutually exclusive"):
            HeraldClass("overlap", ({"s_a": CLICK}, {"l_a": CLICK}))
        with pytest.raises(ValueError, match="'same'"):
            HeraldClass("same", ({"s_a": CLICK}, {"s_a": CLICK, "l_a": CLICK}))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_builder_and_sampler_classes_accepted(self, scenario):
        bundle = build_scenario(scenario, AmplifierParams(t=0.9, p_in=0.5,
                                                          p_a=0.8, eta=0.7))
        for cls in bundle.herald_classes:
            # the sampler splits each class by the analyzer detector d4,
            # and the two halves together are a class too
            halves = [tuple({**p, "d4": o} for p in cls.patterns)
                      for o in (NO_CLICK, CLICK)]
            for patterns in halves + [halves[0] + halves[1]]:
                HeraldClass(cls.name, patterns)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("eta, dark", [(8.6e-11, 8.6e-11), (1.0, 0.0)])
def test_class_probabilities_keep_relative_precision(scenario, eta, dark):
    # the table weighs its kets with per-pattern products of click_prob and
    # no_click_weight; the full-mixture route expands every click tuple
    params = AmplifierParams(t=0.7, p_in=0.6, p_a=0.8, eta=eta, mu=0.9,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = compile_scenario(scenario, params, qubit).evaluate(
            params.p_in, params.p_a, params.mu)
    ref = heralded_analysis(build_scenario(scenario, params, qubit))
    for name, a in ref.items():
        assert a.prob > 0.0
        assert abs(got.per_class[name].herald_prob - a.prob) <= 1e-12 * a.prob


class TestScenarioTable:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_zero_herald_without_photons(self, scenario):
        table = compile_scenario(
            scenario, AmplifierParams(t=0.9, p_in=0.0, p_a=0.0, eta=0.7))
        with pytest.raises(ZeroHeraldError):
            table.evaluate(0.0, 0.0, 1.0)
        with pytest.raises(ZeroHeraldError):  # one such point spoils a grid
            table.evaluate(np.array([0.0, 0.5]), np.array([0.0, 0.5]), 1.0)

    def test_impossible_class_has_probability_zero(self, monkeypatch):
        # a two-click class on the Fock amplifier needs two distinguishable
        # photons, so it is impossible without the input photon and dark
        # counts
        build = amplifier.build_scenario

        def with_coincidence(*args):
            bundle = build(*args)
            return replace(bundle, herald_classes=bundle.herald_classes + (
                HeraldClass("both", ({"bsm_a": CLICK, "bsm_b": CLICK},)),))

        monkeypatch.setattr(amplifier, "build_scenario", with_coincidence)
        params = AmplifierParams(t=0.7, p_in=0.0, p_a=0.8, eta=0.9, mu=0.5)
        bundle = with_coincidence("fock-hpa", params)
        assert heralded_analysis(bundle)["both"].prob == 0.0
        out = compile_scenario("fock-hpa", params).evaluate(
            np.array([0.0, 0.4]), 0.8, 0.5)
        both = out.per_class["both"]
        assert both.herald_prob[0] == 0.0 and both.herald_prob[1] > 0.01
        for field in (both.p_out, both.vacuum_weight, both.multi_weight):
            assert field[0] == 0.0
        assert not np.any(both.output_qubit_density[0])
        assert np.isnan(both.fidelity_conditional[0])
        herald = out.per_class["herald"]
        assert out.herald_prob[0] == herald.herald_prob[0] > 0.0
        assert out.p_out[0] == pytest.approx(herald.p_out[0], abs=1e-15)

    def test_acceptance_grid_matches_full_mixture_runs(self):
        p_a, p_in = (a.ravel() for a in np.meshgrid(GRID["p_a"], GRID["p_in"],
                                                     indexing="ij"))
        for scenario, t, eta in itertools.product(SCENARIOS, GRID["t"],
                                                  GRID["eta"]):
            params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta)
            out = compile_scenario(scenario, params).evaluate(p_in, p_a, 1.0)
            for k, (a, pin) in enumerate(zip(p_a, p_in)):
                bundle = build_scenario(scenario, replace(params, p_in=pin,
                                                          p_a=a))
                ref = _combine(bundle, heralded_analysis(bundle), pin, a)
                assert abs(out.herald_prob[k] - ref.herald_prob) <= 1e-12
                assert abs(out.p_out[k] - ref.p_out) <= 1e-12
                assert abs(out.gain[k] - ref.gain) <= 1e-12 * ref.gain

    @pytest.mark.parametrize("scenario, photons", [("fock-hpa", 2),
                                                   ("timebin-hqa", 3)])
    def test_one_circuit_run_per_source_photon(self, scenario, photons,
                                               monkeypatch):
        # the circuit acts alike on both internal modes, so the mu = 0 half
        # of the table needs no runs of its own
        calls = []

        def counting(*args):
            calls.append(args)
            return run_circuit(*args)

        monkeypatch.setattr(amplifier, "run_circuit", counting)
        compile_scenario(scenario, AmplifierParams(t=0.7, p_in=0.5, p_a=0.8,
                                                   eta=0.7, mu=0.6))
        assert len(calls) == photons
