import itertools
import math

import numpy as np
import pytest

from qubitamp.checks import loss_identity_residual, random_two_path_state
from qubitamp.circuits import Mixture
from qubitamp.detection import (
    ANY,
    CLICK,
    Detector,
    DetectorSpec,
    NO_CLICK,
    click_prob,
    measure,
    measure_all,
    no_click_weight,
)
from qubitamp.fock import FockState, mode_labels


def two_path_state(amps):
    return FockState(4, amps, labels=mode_labels(("p0", "p1")))


class TestNoClickWeight:
    def test_vacuum_never_clicks(self):
        assert no_click_weight(0, 0.7) == pytest.approx(1.0)

    def test_single_photon(self):
        assert no_click_weight(1, 0.7) == pytest.approx(0.3)

    def test_two_photons(self):
        assert no_click_weight(2, 0.7) == pytest.approx(0.09)

    def test_dark_scaling(self):
        assert no_click_weight(0, 0.7, dark_click_prob=0.01) == pytest.approx(0.99)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            no_click_weight(-1, 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(1.2)
        with pytest.raises(ValueError):
            DetectorSpec(0.5, dark_click_prob=1.0)


class TestMeasure:
    def test_single_photon_click(self):
        m = Mixture.pure(two_path_state({(1, 0, 0, 0): 1.0}))
        det = [Detector("d", "p0", DetectorSpec(0.7))]
        prob, cond = measure(m, det, {"d": CLICK})
        assert prob == pytest.approx(0.7, abs=1e-12)
        # undetected register is vacuum
        for b in cond:
            assert set(b.state.amplitudes) == {(0, 0)}

    def test_delocalized_photon_projection(self):
        r = 1 / math.sqrt(2)
        m = Mixture.pure(two_path_state({(1, 0, 0, 0): r, (0, 0, 1, 0): r}))
        det = [Detector("d", "p0", DetectorSpec(1.0))]
        prob, cond = measure(m, det, {"d": CLICK})
        assert prob == pytest.approx(0.5, abs=1e-12)
        for b in cond:
            assert set(b.state.amplitudes) == {(0, 0)}

    def test_zero_probability_pattern(self):
        m = Mixture.pure(two_path_state({(0, 0, 0, 0): 1.0}))
        det = [Detector("d", "p0", DetectorSpec(0.9))]
        prob, cond = measure(m, det, {"d": CLICK})
        assert prob == 0.0
        assert len(cond) == 0

    def test_unknown_detector_in_pattern(self):
        m = Mixture.pure(two_path_state({(0, 0, 0, 0): 1.0}))
        det = [Detector("d", "p0", DetectorSpec(0.9))]
        with pytest.raises(ValueError):
            measure(m, det, {"nope": CLICK})

    def test_any_outcome_marginalizes(self):
        rng = np.random.default_rng(5)
        m = Mixture.pure(random_two_path_state(rng))
        det = [Detector("d0", "p0", DetectorSpec(0.6)),
               Detector("d1", "p1", DetectorSpec(0.8))]
        p_any, _ = measure(m, det, {"d0": CLICK, "d1": ANY})
        p_c, _ = measure(m, det, {"d0": CLICK, "d1": CLICK})
        p_n, _ = measure(m, det, {"d0": CLICK, "d1": NO_CLICK})
        assert p_any == pytest.approx(p_c + p_n, abs=1e-12)

    def test_detectors_must_not_share_paths(self):
        m = Mixture.pure(two_path_state({(0, 0, 0, 0): 1.0}))
        det = [Detector("d0", "p0", DetectorSpec(0.6)),
               Detector("d1", "p0", DetectorSpec(0.8))]
        with pytest.raises(ValueError):
            measure_all(m, det)


class TestInvariants:
    def test_completeness_over_all_patterns(self):
        rng = np.random.default_rng(31)
        det = [Detector("d0", "p0", DetectorSpec(0.6, 0.02)),
               Detector("d1", "p1", DetectorSpec(0.8))]
        for _ in range(5):
            m = Mixture.pure(random_two_path_state(rng))
            total = 0.0
            for c0, c1 in itertools.product((CLICK, NO_CLICK), repeat=2):
                p, _ = measure(m, det, {"d0": c0, "d1": c1})
                total += p
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_click_prob_monotone_in_eta_and_dark(self):
        m = Mixture.pure(two_path_state({(1, 0, 1, 0): 1.0}))
        last = -1.0
        for eta in np.linspace(0.0, 1.0, 6):
            p, _ = measure(m, [Detector("d", "p0", DetectorSpec(float(eta)))],
                           {"d": CLICK})
            assert p >= last - 1e-15
            last = p
        last = -1.0
        for dark in np.linspace(0.0, 0.5, 6):
            p, _ = measure(
                m, [Detector("d", "p0", DetectorSpec(0.3, float(dark)))],
                {"d": CLICK})
            assert p >= last - 1e-15
            last = p

    def test_dark_free_vacuum_never_clicks(self):
        m = Mixture.pure(two_path_state({(0, 0, 1, 0): 1.0}))
        p, _ = measure(m, [Detector("d", "p0", DetectorSpec(0.99))],
                       {"d": CLICK})
        assert p == 0.0

    def test_click_prob_helper(self):
        assert click_prob(1, 0.7) == pytest.approx(0.7)
        assert click_prob(0, 0.7, dark_click_prob=0.1) == pytest.approx(0.1)

    def test_click_prob_keeps_relative_precision_at_small_eta(self):
        # 1 - (1 - eta) rounds to 1.0000889e-12 here
        assert click_prob(1, 1e-12) == pytest.approx(1e-12, rel=1e-12, abs=0)
        assert click_prob(3, 1.0, dark_click_prob=0.2) == 1.0
        assert click_prob(0, 1.0, dark_click_prob=0.2) == 0.2


class TestLossEquivalence:
    """Threshold detection at efficiency eta must equal a loss channel of
    transmission eta followed by ideal threshold detection."""

    @pytest.mark.parametrize("eta,dark", [(0.7, 0.0), (0.42, 0.0), (0.7, 0.05)])
    def test_identity_on_random_states(self, eta, dark):
        rng = np.random.default_rng(101)
        for _ in range(20):
            state = random_two_path_state(rng)
            for pattern in (CLICK, NO_CLICK):
                assert loss_identity_residual(state, eta, pattern, dark) <= 1e-12
