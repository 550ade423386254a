import math

import numpy as np
import pytest

from qubitamp.amplifier import (
    AmplifierParams,
    QubitSpec,
    build_scenario,
    simulate,
    simulate_scenario,
)
from qubitamp.montecarlo import (
    CountsTable,
    ETA_HERALD_DEFAULT,
    EstimateWithError,
    UndefinedEstimateError,
    _branch_outcome_table,
    estimate_gain,
    estimate_pin,
    estimate_pout,
    sample_events,
)

GRID_POINT = AmplifierParams(t=0.9, p_in=0.2, p_a=0.296, eta=0.7)
ANALYZER_POINT = {"t": 0.9, "p_in": 0.47, "p_a": 0.8, "eta": 0.7}


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        a = sample_events(GRID_POINT, n_pulses=50_000, seed=7)
        b = sample_events(GRID_POINT, n_pulses=50_000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_events(GRID_POINT, n_pulses=50_000, seed=7)
        b = sample_events(GRID_POINT, n_pulses=50_000, seed=8)
        assert a != b

    def test_counts_nest(self):
        c = sample_events(GRID_POINT, n_pulses=30_000, seed=1)
        assert c.d1_d2 <= c.d1 <= c.n_pulses
        for cls in c.threefold:
            assert c.fourfold[cls] <= c.threefold[cls] <= c.d1_d2

    def test_everything_fires_in_the_ideal_configuration(self):
        p = AmplifierParams(t=1.0, p_in=1.0, p_a=1.0, eta=1.0)
        c = sample_events(p, n_pulses=5_000, seed=2, eta_herald=1.0)
        assert c.d1 == c.n_pulses
        assert c.d1_d2 == c.n_pulses
        assert c.threefold["herald"] == c.n_pulses
        assert c.fourfold["herald"] == c.n_pulses

    def test_empty_source_only_d1_counts(self):
        p = AmplifierParams(t=0.9, p_in=0.0, p_a=0.0, eta=0.7)
        c = sample_events(p, n_pulses=20_000, seed=3, eta_herald=0.602)
        assert c.d1 > 0
        # binomial 5-sigma band around eta_herald * n
        sigma = math.sqrt(20_000 * 0.602 * 0.398)
        assert abs(c.d1 - 0.602 * 20_000) <= 5 * sigma
        assert c.d1_d2 == 0
        assert c.threefold["herald"] == 0
        assert c.fourfold["herald"] == 0

    def test_empty_herald_arm_gives_no_d1(self):
        p = AmplifierParams(t=0.9, p_in=0.0, p_a=0.0, eta=0.7)
        c = sample_events(p, n_pulses=5_000, seed=4, eta_herald=0.0)
        assert c.d1 == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_events(GRID_POINT, n_pulses=0, seed=1)
        with pytest.raises(ValueError):
            sample_events(GRID_POINT, n_pulses=10, seed=1, eta_herald=1.5)
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            sample_events(GRID_POINT, n_pulses=2**63, seed=1)

    def test_largest_pulse_count_runs(self):
        assert sample_events(GRID_POINT, n_pulses=2**63 - 1,
                             seed=1).n_pulses == 2**63 - 1

    def test_cost_does_not_grow_with_pulses(self):
        n = 10 ** 12
        c = sample_events(GRID_POINT, n_pulses=n, seed=9)
        assert c.n_pulses == n
        assert c.d1_d2 <= c.d1 <= c.n_pulses
        assert c.fourfold["herald"] <= c.threefold["herald"] <= c.d1_d2
        eta = ETA_HERALD_DEFAULT
        sigma = math.sqrt(n * eta * (1.0 - eta))
        assert abs(c.d1 - eta * n) <= 5 * sigma

    def test_counts_table_validates_nesting(self):
        with pytest.raises(ValueError):
            CountsTable(n_pulses=10, d1=5, d1_d2=7, threefold={}, fourfold={})
        with pytest.raises(ValueError):
            CountsTable(n_pulses=10, d1=8, d1_d2=5,
                        threefold={"herald": 6}, fourfold={"herald": 1})


class TestOutcomeTable:
    @pytest.mark.parametrize("scenario,mu", [("fock-hpa", 1.0),
                                             ("timebin-hqa", 0.5),
                                             ("timebin-hqa", 1.0)])
    def test_herald_cells_match_oracle(self, scenario, mu):
        bundle = build_scenario(scenario, AmplifierParams(mu=mu, **ANALYZER_POINT))
        cells = _branch_outcome_table(bundle, 0.0, 1.0)
        oracle = simulate(bundle)
        assert cells.shape == (len(bundle.herald_classes), 2)
        for ci, cls in enumerate(bundle.herald_classes):
            assert abs(cells[ci].sum()
                       - oracle.per_class[cls.name].herald_prob) <= 1e-12


class TestEstimators:
    def test_pin_ratio(self):
        c = CountsTable(n_pulses=20_000, d1=10_000, d1_d2=4_700,
                        threefold={"herald": 100}, fourfold={"herald": 50})
        est = estimate_pin(c)
        assert est.value == pytest.approx(0.47)
        assert est.error == pytest.approx(
            math.sqrt(4_700 * 5_300) / 10_000 ** 1.5)

    def test_pout_saturated_ratio(self):
        c = CountsTable(n_pulses=1_000, d1=900, d1_d2=800,
                        threefold={"herald": 300}, fourfold={"herald": 300})
        est = estimate_pout(c, "herald")
        assert est.value == pytest.approx(1.0)
        assert est.error == pytest.approx(0.0)

    def test_zero_denominators_flagged(self):
        c = CountsTable(n_pulses=10, d1=0, d1_d2=0,
                        threefold={"herald": 0}, fourfold={"herald": 0})
        with pytest.raises(UndefinedEstimateError):
            estimate_pin(c)
        with pytest.raises(UndefinedEstimateError):
            estimate_pout(c, "herald")
        with pytest.raises(UndefinedEstimateError):
            estimate_gain(c, "herald")

    def test_unknown_class(self):
        c = CountsTable(n_pulses=10, d1=5, d1_d2=3,
                        threefold={"herald": 2}, fourfold={"herald": 1})
        with pytest.raises(KeyError):
            estimate_pout(c, "bogus")

    def test_gain_error_combination(self):
        c = CountsTable(n_pulses=10_000, d1=8_000, d1_d2=1_600,
                        threefold={"herald": 400}, fourfold={"herald": 100})
        pin, pout = estimate_pin(c), estimate_pout(c, "herald")
        gain = estimate_gain(c, "herald")
        assert gain.value == pytest.approx(pout.value / pin.value)
        expected = math.sqrt((pout.error / pin.value) ** 2
                             + (pout.value * pin.error / pin.value ** 2) ** 2)
        assert gain.error == pytest.approx(expected)

    def test_estimate_with_error_validation(self):
        with pytest.raises(ValueError):
            EstimateWithError(1.0, -0.1)


class TestConsistency:
    def test_fock_estimates_near_oracle(self):
        oracle = simulate_scenario("fock-hpa", GRID_POINT)
        c = sample_events(GRID_POINT, n_pulses=200_000, seed=0)
        pin = estimate_pin(c)
        pout = estimate_pout(c, "herald")
        gain = estimate_gain(c, "herald")
        assert abs(pin.value - GRID_POINT.p_in) <= 5 * pin.error
        assert abs(pout.value - oracle.p_out) <= 5 * pout.error
        assert abs(gain.value - oracle.gain) <= 5 * gain.error

    def test_timebin_psi_plus_estimates_near_oracle(self):
        p = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
        oracle = simulate_scenario("timebin-hqa", p)
        c = sample_events(p, n_pulses=150_000, seed=5, scenario="timebin-hqa",
                          qubit=QubitSpec.from_phase(0.0), analyzer_phi=0.0)
        gain = estimate_gain(c, "psi_plus")
        target = oracle.per_class["psi_plus"].p_out / p.p_in
        assert abs(gain.value - target) <= 5 * gain.error

    def test_analyzer_phase_suppresses_psi_plus(self):
        p = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
        c = sample_events(p, n_pulses=60_000, seed=6, scenario="timebin-hqa",
                          qubit=QubitSpec.from_phase(0.0),
                          analyzer_phi=math.pi)
        # at a half-turn the psi_plus output is orthogonal to the analyzer
        pout = estimate_pout(c, "psi_plus")
        assert pout.value <= 0.02

    @pytest.mark.parametrize("mu", [0.5, 0.8])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 4])
    def test_timebin_analyzer_matches_coherent_oracle(self, mu, phi):
        p = AmplifierParams(mu=mu, **ANALYZER_POINT)
        qubit = QubitSpec.from_phase(0.0)
        bundle = build_scenario("timebin-hqa", p, qubit)
        oracle = simulate(bundle)
        c = sample_events(p, n_pulses=100_000_000, seed=12, scenario="timebin-hqa",
                          qubit=qubit, analyzer_phi=phi)
        for cls in bundle.herald_classes:
            oc = oracle.per_class[cls.name]
            assert oc.multi_weight <= 1e-12  # single-photon output only
            # the analyzer sees the output before the class correction
            a = np.array([1.0, np.exp(1j * (phi + cls.correction_phase))])
            want = float((a.conj() @ oc.output_qubit_density @ a).real) / 2.0
            pout = estimate_pout(c, cls.name)
            assert abs(pout.value - want) <= 5 * pout.error
