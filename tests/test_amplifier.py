import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qubitamp import amplifier, circuits
from qubitamp.amplifier import (
    AmplifierParams,
    PRESETS,
    QubitSpec,
    SCENARIOS,
    HeraldClass,
    UndefinedGainError,
    ZeroHeraldError,
    _outcome,
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
from qubitamp.detection import CLICK, NO_CLICK, DetectorSpec
from qubitamp.fock import apply_two_mode_unitary
from qubitamp.montecarlo import _branch_outcome_table

from exact_fringe import class_rates
from exact_herald import heralded_analysis, heralded_halves

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

    def test_equals_exact_rational_value(self):
        # t / (1 - t) on the shortest decimal form of t, rounded once
        rng = np.random.default_rng(7)
        grid = [0.0, 0.9, 0.99, 0.5, 0.1, 1e-05, 1.5e-05, 5e-324,
                np.finfo(float).tiny, math.nextafter(1.0, 0.0)] + list(
            rng.random(2000)) + list(rng.random(2000) * 10.0 ** -rng.integers(
                0, 320, 2000))
        for t in grid:
            exact = Fraction(repr(float(t)))
            assert gain_asymptote(t) == float(exact / (1 - exact)), t

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
        with pytest.raises(ValueError):  # |.|^2 is 1 + 1e-10
            QubitSpec(1.0, 1e-5)
        for alpha, beta in ((math.nan, 0.0), (1.0, complex(0.0, math.nan))):
            with pytest.raises(ValueError, match="must be normalized"):
                QubitSpec(alpha, beta)
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

    def test_tiny_point_is_refused_or_exact(self):
        # the herald probability is 1.4e-213, but the table's unnormalised
        # prob * single underflows to 0: without the 1e-30 floor the gain
        # read 0.0 against the closed form's 1.2153
        t, p_in, p_a, eta = (0.5486018139195983, 1.8523965903096223e-292,
                             1.132224641229908e-74, 2.7732815715862578e-139)
        try:
            out = simulate_scenario("fock-hpa", AmplifierParams(
                t=t, p_in=p_in, p_a=p_a, eta=eta))
        except ZeroHeraldError:
            return
        want = gain_analytic(t, p_a, eta, p_in)
        assert out.gain == pytest.approx(want, rel=1e-9, abs=0.0)
        assert out.p_out == pytest.approx(want * p_in, rel=1e-9, abs=0.0)

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
        sums, rails = heralded_analysis(bundle)
        k = [cls.name for cls in bundle.herald_classes].index("psi_minus")
        psi = q.vector()
        raw = float((psi.conj() @ rails[k] @ psi).real) / sums[k, 2]
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
        # one phase defines no visibility, though psi_minus's is not all zero
        with pytest.raises(ValueError, match="at least two phases"):
            fringe_scan(replace(self.PARAMS, mu=0.5), (0.0,))

    @pytest.mark.parametrize("key", ["mu_plus", "mu_minus"])
    def test_class_mu_out_of_range(self, key):
        with pytest.raises(ValueError, match="^mu must lie in"):
            fringe_scan(self.PARAMS, self.PHIS, **{key: 1.5})

    def test_mu_calibration(self):
        mu = mu_for_visibility(0.98, self.PARAMS)
        scan = fringe_scan(self.PARAMS, (0.0, math.pi), mu_plus=mu, mu_minus=mu)
        assert scan.visibility_plus == pytest.approx(0.98, abs=1e-9)
        assert mu_for_visibility(1.0, self.PARAMS) == 1.0
        assert mu_for_visibility(0.0, self.PARAMS) == 0.0

    def test_mu_calibration_when_pi_is_the_brighter_phase(self, monkeypatch):
        # the root of |R(0) - R(pi)| = target (R(0) + R(pi)) whichever
        # phase is brighter at mu = 1. Rounding leaves R(0) below R(pi) at
        # t = 0.3391538871359807, p_in = 1, p_a = 0.929251135291168,
        # eta = 1.0766585256240395e-08, dark = 0.5192912133683424, where the
        # ends' visibilities are 0 and 6.4e-17; these ends are exact instead
        ends = np.array([[2.0, 2.0], [1.0, 3.0]])  # [mu, (R(0), R(pi))]
        monkeypatch.setattr(amplifier, "_fringe_ends", lambda params: ends)
        # |R(0) - R(pi)| / (R(0) + R(pi)) is mu^2 / 2
        assert mu_for_visibility(0.25, self.PARAMS) == math.sqrt(0.5)

    @pytest.mark.parametrize("t,p_in,p_a,eta,dark", [
        (0.37, 0.09, 0.66, 0.93, 0.1),  # the root at mu = 1 rounds below 1
        (0.67, 0.95, 0.51, 0.14, 0.3),  # the root at mu = 0 rounds to 1.6e-7
    ])
    def test_mu_calibration_at_the_end_visibilities(self, t, p_in, p_a, eta,
                                                    dark):
        params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta,
                                 dark_click_prob=dark)
        ends = amplifier._fringe_ends(params)
        assert mu_for_visibility(visibility(ends[0]), params) == 0.0
        assert mu_for_visibility(visibility(ends[1]), params) == 1.0

    @pytest.mark.parametrize("target", [1.5, -0.1, math.nan])
    def test_mu_calibration_target_out_of_range(self, target):
        with pytest.raises(ValueError, match="^target visibility must lie"):
            mu_for_visibility(target, self.PARAMS)

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
        for rates in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]):
            with pytest.raises(ValueError, match="non-negative"):
                visibility(rates)

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
        dip = hom_coincidence_fock(mu)
        assert type(dip) is float  # a number in, a number out
        assert dip == pytest.approx(closed, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            hom_coincidence(1.5)
        with pytest.raises(ValueError, match="^mu must lie in"):
            hom_coincidence_fock(1.5)


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
    bundle = build_scenario(scenario, params, qubit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = compile_scenario(bundle).evaluate(
            params.p_in, params.p_a, params.mu)
    sums, _ = heralded_analysis(bundle)
    for cls, prob in zip(bundle.herald_classes, sums[:, 0]):
        assert prob > 0.0
        got_prob = got.per_class[cls.name].herald_prob
        assert abs(got_prob - prob) <= 1e-12 * prob


def with_all_click(bundle):
    """The bundle with one more herald class, "all": every detector
    clicks."""
    return replace(bundle, herald_classes=bundle.herald_classes + (
        HeraldClass("all", ({d.name: CLICK for d in bundle.detectors},)),))


class TestScenarioTable:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_zero_herald_without_photons(self, scenario):
        table = compile_scenario(build_scenario(
            scenario, AmplifierParams(t=0.9, p_in=0.0, p_a=0.0, eta=0.7)))
        with pytest.raises(ZeroHeraldError):
            table.evaluate(0.0, 0.0, 1.0)
        with pytest.raises(ZeroHeraldError):  # one such point spoils a grid
            table.evaluate(np.array([0.0, 0.5]), np.array([0.0, 0.5]), 1.0)

    @pytest.mark.parametrize("point, name", [
        ((1.5, 0.9, 1.0), "p_in"),  # herald_prob 1.047 once
        ((np.array([0.2, -0.1]), 0.9, 1.0), "p_in"),
        ((0.2, -0.5, 1.0), "p_a"),  # gain -2.87 once
        ((0.2, np.array([0.9, math.nan]), 1.0), "p_a"),
        ((0.2, 0.9, 2.0), "mu"),  # mu^2 = 4 extrapolated the mu rows once
        ((0.2, 0.9, math.nan), "mu"),
        ((math.nan, -0.5, 2.0), "p_in"),  # the first bad value is named
    ])
    def test_evaluate_rejects_values_outside_the_unit_interval(self, point,
                                                               name):
        table = compile_scenario(build_scenario(
            "fock-hpa", AmplifierParams(t=0.9, p_in=0.2, p_a=0.9, eta=0.7)))
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            table.evaluate(*point)

    def test_impossible_class_has_probability_zero(self):
        # a two-click class on the Fock amplifier needs two distinguishable
        # photons, so it is impossible without the input photon and dark
        # counts
        params = AmplifierParams(t=0.7, p_in=0.0, p_a=0.8, eta=0.9, mu=0.5)
        bundle = with_all_click(build_scenario("fock-hpa", params))
        assert heralded_analysis(bundle)[0][-1, 0] == 0.0  # "all"
        out = compile_scenario(bundle).evaluate(
            np.array([0.0, 0.4]), 0.8, 0.5)
        both = out.per_class["all"]
        assert both.herald_prob[0] == 0.0 and both.herald_prob[1] > 0.01
        for field in (both.p_out, both.vacuum_weight, both.multi_weight):
            assert field[0] == 0.0
        assert not np.any(both.output_qubit_density[0])
        assert np.isnan(both.fidelity_conditional[0])
        herald = out.per_class["herald"]
        assert out.herald_prob[0] == herald.herald_prob[0] > 0.0
        assert out.p_out[0] == pytest.approx(herald.p_out[0], abs=1e-15)

    def test_subnormal_pin_skips_impossible_classes(self):
        # below the smallest normal p_in the gain keeps full precision on
        # class rows that can herald, and the impossible "all" class reads
        # 0 at a sub-normal p_in as it does at 1e-3
        bundle = with_all_click(build_scenario("fock-hpa", AmplifierParams(
            t=0.9, p_in=0.2, p_a=0.9, eta=0.7)))
        out = compile_scenario(bundle).evaluate(
            np.array([1e-320, 1e-3]), 0.9, 1.0)
        both = out.per_class["all"]
        for field in (both.herald_prob, both.p_out, both.gain):
            assert not np.any(field)
        assert out.per_class["herald"].gain[0] == pytest.approx(
            gain_analytic(0.9, 0.9, 0.7, 1e-320), rel=1e-15, abs=0.0)
        # the default classes keep their sub-normal gains
        for p_in, gain in [(1e-300, 9.0),
                           (1e-320, gain_analytic(0.9, 0.9, 0.7, 1e-320))]:
            assert simulate_scenario("timebin-hqa", AmplifierParams(
                t=0.9, p_in=p_in, p_a=0.9, eta=0.7)).gain == pytest.approx(
                    gain, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scenario, p_out", [("fock-hpa", 0.198),
                                                 ("timebin-hqa", 0.318)])
    def test_detector_dark_counts_hold_at_subnormal_pin(self, scenario,
                                                        p_out):
        # the detectors' dark counts, not the params', send a photon out
        # without the input photon: p_out keeps its p_in = 0 value across
        # the smallest normal double, and the gain is p_out / p_in
        bundle = build_scenario(scenario, AmplifierParams(
            t=0.9, p_in=0.5, p_a=0.9, eta=0.7))
        spec = DetectorSpec(0.7, 0.01)
        table = compile_scenario(replace(bundle, detectors=tuple(
            replace(d, spec=spec) for d in bundle.detectors)))
        limit = table.evaluate(0.0, 0.9, 1.0).p_out
        assert limit == pytest.approx(p_out, rel=1e-3)
        p_in = np.array([2.3e-308, 2.2e-308, 1e-320])
        out = table.evaluate(p_in, 0.9, 1.0)
        assert out.p_out == pytest.approx(limit, rel=1e-15, abs=0.0)
        with np.errstate(over="ignore"):
            ratio = out.p_out / p_in
        assert list(np.isfinite(ratio)) == [True, True, False]
        assert out.gain[:2] == pytest.approx(ratio[:2], rel=1e-15, abs=0.0)
        assert out.gain[2] == math.inf

    def test_input_photon_that_leaves_alone(self):
        # with the slots swapped the input photon enters on "out" and, with
        # a dark count, heralds a photon out without any ancilla: the
        # combination of the input photon alone counts towards b, not a
        bundle = build_scenario("fock-hpa", AmplifierParams(
            t=0.7, p_in=0.3, p_a=0.8, eta=0.6, mu=0.9, dark_click_prob=0.05))
        bundle = replace(bundle, slots=bundle.slots[::-1])
        for p_in in (0.0, 1e-320, 0.3):
            got = compile_scenario(bundle).evaluate(p_in, 0.8, 0.9)
            ref = _outcome(bundle, *heralded_halves(replace(
                bundle, params=replace(bundle.params, p_in=p_in))), p_in)
            assert abs(got.p_out - ref.p_out) <= 1e-12
            assert got.gain == pytest.approx(ref.gain, rel=1e-12)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_simulate_reads_the_bundle_it_is_given(self, scenario):
        # an added herald class and each detector's own efficiency and dark
        # count, against the full-mixture run of the same bundle
        params = AmplifierParams(t=0.7, p_in=0.6, p_a=0.8, eta=0.9, mu=0.8)
        bundle = with_all_click(build_scenario(scenario, params,
                                               QubitSpec.from_phase(0.4)))
        specs = [(0.9, 0.01), (0.6, 0.05), (0.8, 0.0), (0.5, 0.02)]
        bundle = replace(bundle, detectors=tuple(
            replace(d, spec=DetectorSpec(*s))
            for d, s in zip(bundle.detectors, specs)))
        out = simulate(bundle)
        ref = _outcome(bundle, *heralded_halves(bundle), params.p_in)
        assert list(out.per_class) == [c.name for c in bundle.herald_classes]
        for g, r in [(out, ref)] + [(out.per_class[k], ref.per_class[k])
                                    for k in ref.per_class]:
            for field in ("herald_prob", "p_out", "vacuum_weight",
                          "multi_weight"):
                assert abs(getattr(g, field) - getattr(r, field)) <= 1e-12
            assert np.max(np.abs(g.output_qubit_density
                                 - r.output_qubit_density)) <= 1e-12

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_edited_params_give_one_operating_point(self, scenario):
        # the presence probabilities live in params alone: after a replace
        # of params, simulate and the sampler's table (summed over the
        # analyzer click) weigh the photons at the new p_in, p_a and mu,
        # as a bundle built at those params does
        qubit = QubitSpec.from_phase(0.4)
        built = build_scenario(scenario, AmplifierParams(
            t=0.7, p_in=0.9, p_a=0.3, eta=0.7, mu=1.0), qubit)
        params = replace(built.params, p_in=0.2, p_a=0.8, mu=0.6)
        edited = replace(built, params=params)
        fresh = build_scenario(scenario, params, qubit)
        for bundle in (edited, fresh):
            out = simulate(bundle)
            cells = _branch_outcome_table(bundle, 0.3, 0.9).sum(axis=1)
            for k, cls in enumerate(bundle.herald_classes):
                want = out.per_class[cls.name].herald_prob
                assert abs(cells[k] - want) <= 1e-14
                assert abs(want - simulate(fresh).per_class[
                    cls.name].herald_prob) <= 1e-14
        assert simulate(edited).herald_prob != simulate(built).herald_prob

    def test_fidelity_undefined_without_a_photon_out(self):
        # only dark counts herald, and no photon leaves: the fidelity is
        # None at a scalar point and NaN at the points of an array, per
        # class and combined, and the gain is its p_in -> 0 limit, 0, as
        # no photon leaves with the input photon either
        table = compile_scenario(build_scenario("fock-hpa", AmplifierParams(
            t=1.0, p_in=0.0, p_a=0.0, eta=0.7, dark_click_prob=0.2)))
        out = table.evaluate(0.0, 0.0, 1.0)
        for oc in (out, out.per_class["herald"]):
            assert oc.herald_prob > 0.0 and oc.p_out == 0.0
            assert oc.fidelity_conditional is None
            assert oc.gain == 0.0
        out = table.evaluate(np.array([0.0, 0.5]), 0.0, 1.0)
        for oc in (out, out.per_class["herald"]):
            assert np.isnan(oc.fidelity_conditional).all()

    def test_acceptance_grid_matches_full_mixture_runs(self):
        p_a, p_in = (a.ravel() for a in np.meshgrid(GRID["p_a"], GRID["p_in"],
                                                     indexing="ij"))
        for scenario, t, eta in itertools.product(SCENARIOS, GRID["t"],
                                                  GRID["eta"]):
            params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta)
            out = compile_scenario(build_scenario(scenario, params)).evaluate(
                p_in, p_a, 1.0)
            for k, (a, pin) in enumerate(zip(p_a, p_in)):
                bundle = build_scenario(scenario, replace(params, p_in=pin,
                                                          p_a=a))
                ref = _outcome(bundle, *heralded_halves(bundle), pin)
                assert abs(out.herald_prob[k] - ref.herald_prob) <= 1e-12
                assert abs(out.p_out[k] - ref.p_out) <= 1e-12
                assert abs(out.gain[k] - ref.gain) <= 1e-12 * ref.gain

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """The branch count of each amplifier.run_circuit call, each call of
        the Fock expansion (apply_two_mode_unitary) and, for each table pass
        (amplifier._herald_pass), whether it built rail densities, as lists
        filled as they happen."""
        calls = {"runs": [], "expansions": [], "rails": []}
        herald_pass = amplifier._herald_pass

        def counting(m, c):
            calls["runs"].append(len(m))
            return run_circuit(m, c)

        def expanding(*args):
            calls["expansions"].append(args)
            return apply_two_mode_unitary(*args)

        def passing(*args, **kwargs):
            sums, rails = herald_pass(*args, **kwargs)
            calls["rails"].append(rails is not None)
            return sums, rails

        monkeypatch.setattr(amplifier, "run_circuit", counting)
        monkeypatch.setattr(circuits, "apply_two_mode_unitary", expanding)
        monkeypatch.setattr(amplifier, "_herald_pass", passing)
        return calls

    @pytest.mark.parametrize("scenario, photons", [("fock-hpa", 2),
                                                   ("timebin-hqa", 3)])
    def test_one_circuit_run_per_source_photon(self, scenario, photons,
                                               engine_calls):
        # every source photon of a table goes through one circuit run, a
        # branch each, mapped by the transfer matrix: the circuit acts alike
        # on both internal modes, so the mu = 0 half of the table needs no
        # runs of its own, and the sampler's table needs one run too. The
        # sampler reads only the class probabilities, so it builds no rails
        params = AmplifierParams(t=0.7, p_in=0.5, p_a=0.8, eta=0.7, mu=0.6)
        bundle = build_scenario(scenario, params)
        compile_scenario(bundle)
        assert engine_calls["runs"] == [photons]
        assert engine_calls["rails"] == [True]
        _branch_outcome_table(bundle, 0.3, 0.9)
        assert engine_calls["runs"] == [photons, photons]
        assert engine_calls["rails"] == [True, False]
        assert not engine_calls["expansions"]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_one_layout_per_scenario_shape(self, scenario):
        # the pass's layout depends only on which photon amplitudes are
        # nonzero, so one scenario's tables at 20 interior points share one
        # cold build, and so do its sampler tables
        rng = np.random.default_rng(7)
        bundles = [build_scenario(scenario, AmplifierParams(
            *rng.uniform(0.01, 0.99, 5),
            dark_click_prob=rng.uniform(0.01, 0.5)),
            QubitSpec.from_phase(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(20)]
        for build in (compile_scenario, lambda b: _branch_outcome_table(
                b, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.01, 0.99))):
            amplifier._layout.cache_clear()
            for bundle in bundles:
                build(bundle)
            assert amplifier._layout.cache_info().misses == 1

    def test_hom_dip_runs_its_two_photons_once(self, engine_calls):
        # the whole dip comes from one compiled table: one run of two
        # one-photon branches, no Fock expansion of the two-photon state,
        # and one table pass for every mu of the grid
        mu = np.linspace(0.0, 1.0, 101)
        assert hom_coincidence_fock(mu) == pytest.approx(
            hom_coincidence(mu)[0], abs=1e-12)
        assert engine_calls["runs"] == [2]
        assert not engine_calls["expansions"]
        assert engine_calls["rails"] == [True]
