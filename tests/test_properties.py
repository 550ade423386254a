"""Invariants of the exact engine as properties over random inputs.

Random Fock states come from `qubitamp.checks.random_two_path_state` with a
drawn seed, so the acceptance checks and these properties share one
generator. Example counts are kept small: each property runs in well under
a second.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qubitamp.amplifier import (
    AmplifierParams,
    QubitSpec,
    SCENARIOS,
    gain_analytic,
    simulate_scenario,
)
from qubitamp.checks import loss_identity_residual, random_two_path_state
from qubitamp.circuits import Branch, Mixture
from qubitamp.detection import (
    CLICK,
    NO_CLICK,
    Detector,
    DetectorSpec,
    measure_all,
)
from qubitamp.fock import (
    apply_phase,
    apply_two_mode_unitary,
    beam_splitter_matrix,
)

seeds = st.integers(0, 2**32 - 1)
unit = st.floats(0.0, 1.0)
angles = st.floats(0.0, 2.0 * math.pi)
#: Bounded away from the edges where the time-bin amplifier cannot herald:
#: no ancilla or input photon at zero, no ancilla reflected at t = 1.
positive = st.floats(0.05, 1.0)
transmission = st.floats(0.0, 0.99)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, t=unit, phi=angles)
def test_splitter_and_phase_preserve_norm(seed, t, phi):
    s = random_two_path_state(np.random.default_rng(seed))
    u = beam_splitter_matrix(t)
    for i, j in zip(s.path_indices("p0"), s.path_indices("p1")):
        s = apply_two_mode_unitary(s, i, j, u)
    s = apply_phase(s, s.path_indices("p1")[0], phi)
    assert abs(s.norm_squared() - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=seeds, weights=st.lists(st.floats(0.01, 1.0), min_size=1,
                                    max_size=3),
       eta0=unit, eta1=unit, dark=st.floats(0.0, 0.5))
def test_outcome_probabilities_sum_to_total_weight(seed, weights, eta0, eta1,
                                                   dark):
    rng = np.random.default_rng(seed)
    m = Mixture([Branch(w, random_two_path_state(rng)) for w in weights])
    detectors = [Detector("d0", "p0", DetectorSpec(eta0, dark)),
                 Detector("d1", "p1", DetectorSpec(eta1))]
    total = sum(p for p, _ in measure_all(m, detectors).values())
    assert abs(total - m.total_weight()) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission, p_in=positive,
       p_a=positive, eta=positive, mu=unit,
       dark=st.floats(0.0, 0.1), delta_phi=angles)
def test_output_density_is_a_state_of_trace_p_out(scenario, t, p_in, p_a, eta,
                                                  mu, dark, delta_phi):
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta, mu=mu,
                             dark_click_prob=dark)
    out = simulate_scenario(scenario, params, QubitSpec.from_phase(delta_phi))
    for oc in [out, *out.per_class.values()]:
        rho = oc.output_qubit_density
        assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert abs(np.trace(rho).real - oc.p_out) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission, p_a=positive,
       eta=positive, p_in=positive)
def test_oracle_gain_equals_closed_form(scenario, t, p_a, eta, p_in):
    out = simulate_scenario(scenario,
                            AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta))
    assert abs(out.gain - gain_analytic(t, p_a, eta, p_in)) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=seeds, eta=st.floats(0.0, 1.0), dark=st.floats(0.0, 0.5),
       pattern=st.sampled_from((CLICK, NO_CLICK)))
def test_detector_efficiency_equals_loss(seed, eta, dark, pattern):
    state = random_two_path_state(np.random.default_rng(seed))
    assert loss_identity_residual(state, eta, pattern, dark) <= 1e-12
