"""Invariants of the exact engine as properties over random inputs.

Random Fock states come from `qubitamp.checks.random_two_path_state` with a
drawn seed, so the acceptance checks and these properties share one
generator. Example counts are kept small: each property runs in a few
seconds at most.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qubitamp.amplifier import (
    AmplifierParams,
    HeraldClass,
    QubitSpec,
    SCENARIOS,
    _combination_kets,
    _combine,
    _herald_cells,
    _photon_outputs,
    build_scenario,
    compile_scenario,
    fringe_scan,
    gain_analytic,
    simulate_scenario,
)
from qubitamp.checks import loss_identity_residual, random_two_path_state
from qubitamp.circuits import Branch, Circuit, Mixture, run_circuit
from qubitamp.detection import (
    CLICK,
    NO_CLICK,
    Detector,
    DetectorSpec,
    measure_all,
)
from qubitamp.fock import (
    DROP_TOLERANCE,
    apply_phase,
    apply_two_mode_unitary,
    beam_splitter_matrix,
)
from qubitamp.montecarlo import _analyzer_setup, _branch_outcome_table

from exact_fringe import class_rates
from exact_herald import branch_outcomes, combinations, heralded_analysis

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
    assert abs(total - sum(weights)) <= 1e-12


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


@settings(max_examples=20, deadline=None)
@given(t=st.floats(0.05, 0.99), p_in=positive, p_a=positive, eta=positive,
       dark=st.floats(0.0, 0.5), mu_plus=unit, mu_minus=unit,
       phis=st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                     min_size=2, max_size=3))
def test_fringe_rates_equal_exact_runs(t, p_in, p_a, eta, dark, mu_plus,
                                       mu_minus, phis):
    # fringe_scan evaluates a +- b cos(phi), affine in mu^2, from one
    # scenario table at input phase 0; class_rates runs the circuit at each
    # phase, each class at its own mu
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta,
                             dark_click_prob=dark)
    scan = fringe_scan(params, phis, mu_plus=mu_plus, mu_minus=mu_minus)
    exact = {name: class_rates(replace(params, mu=mu), phis)[name]
             for name, mu in (("psi_plus", mu_plus), ("psi_minus", mu_minus))}
    scale = max(float(r.max()) for r in exact.values())
    for got, name in ((scan.rate_plus, "psi_plus"),
                      (scan.rate_minus, "psi_minus")):
        assert np.max(np.abs(got - exact[name])) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission,
       # a subnormal p_in leaves p_out, hence the gain, short of double
       # precision on any route
       p_in=st.floats(0.0, 1.0, allow_subnormal=False),
       p_a=positive, eta=positive, dark=st.floats(0.0, 0.3), mu=unit,
       delta_phi=angles)
# the ancilla's transmitted amplitude, 1e-15 * mu, is pruned at mu = 0.5
@example(scenario="fock-hpa", t=1e-30, p_in=0.5, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.5, delta_phi=0.0)
# with dark counts at p_in = 0 the gain is inf, or NaN without a photon out
@example(scenario="timebin-hqa", t=0.5, p_in=0.0, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.5, delta_phi=0.0)
@example(scenario="fock-hpa", t=0.0, p_in=0.0, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.0, delta_phi=0.0)
def test_table_equals_full_mixture_run(scenario, t, p_in, p_a, eta, dark, mu,
                                       delta_phi):
    # the scenario table, contracted at one point, against one run of the
    # full source mixture through the engine
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta, mu=mu,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(delta_phi)
    bundle = build_scenario(scenario, params, qubit)
    ref = _combine(bundle, heralded_analysis(bundle), p_in, p_a)
    got = compile_scenario(scenario, params, qubit).evaluate(p_in, p_a, mu)
    pairs = [(got, ref)] + [(got.per_class[k], ref.per_class[k])
                            for k in ref.per_class]
    for g, r in pairs:
        for field in ("herald_prob", "p_out", "vacuum_weight", "multi_weight"):
            assert abs(getattr(g, field) - getattr(r, field)) <= 1e-12
        assert np.max(np.abs(g.output_qubit_density
                             - r.output_qubit_density)) <= 1e-12
        assert ratios_agree(g.gain, r.gain, p_in)
        assert ratios_agree(g.fidelity_conditional, r.fidelity_conditional,
                            r.p_out)


@settings(max_examples=15, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=unit, mu=unit, eta=unit,
       dark=st.floats(0.0, 0.9), delta_phi=angles)
def test_table_cells_equal_multiphoton_runs(scenario, t, mu, eta, dark,
                                            delta_phi):
    # a passive linear circuit maps each creation operator on its own, so
    # running the photons one at a time gives every combination's output
    # ket; the table runs them at mu = 1 only, relabels the ancillas'
    # internal mode for mu = 0, and reads its cells off the kets without
    # measuring them
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta, mu=mu,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(delta_phi)
    table = compile_scenario(scenario, params, qubit)
    for m, at_mu in enumerate((mu, 0.0, 1.0)):
        bundle = build_scenario(scenario, replace(params, mu=at_mu), qubit)
        runs = run_circuit(Mixture([Branch(1.0, s) for s in combinations(
            bundle.circuit.paths, bundle.slots)]), bundle.circuit)
        cell, occ, amp = _combination_kets(_photon_outputs(bundle)[None])
        for c, run in enumerate(runs):
            got = dict(zip(map(tuple, occ[cell == c].tolist()), amp[cell == c]))
            want = run.state.amplitudes
            for ket in set(got) | set(want):
                assert abs(got.get(ket, 0.0) - want.get(ket, 0.0)) <= 1e-12
            if m == 0:
                continue  # the table holds mu = 0 and mu = 1 only
            ref = heralded_analysis(bundle, Mixture([run]))
            for k, cls in enumerate(bundle.herald_classes):
                a = ref[cls.name]
                cells = a.prob * np.array((1.0, a.vacuum_weight,
                                           a.single_weight, a.multi_weight))
                assert np.max(np.abs(table.cells[m - 1, k, c] - cells)) <= 1e-12
                assert np.max(np.abs(table.rails[m - 1, k, c]
                                     - a.prob * a.qubit_density)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=unit, p_in=unit, p_a=unit,
       eta=unit, dark=st.floats(0.0, 0.5), mu=unit, analyzer_phi=angles,
       eta_out=unit, delta_phi=angles)
# both time-bin ancillas reach the output, the input photon clicks on one
# rail and a dark count on the other: the analyzer sees two photons
@example(scenario="timebin-hqa", t=0.8, p_in=1.0, p_a=1.0, eta=0.9, dark=0.4,
         mu=0.6, analyzer_phi=0.3, eta_out=0.7, delta_phi=1.1)
def test_analyzer_split_equals_full_mixture_run(scenario, t, p_in, p_a, eta,
                                                dark, mu, analyzer_phi,
                                                eta_out, delta_phi):
    # the sampler's (herald class, analyzer click) cells from one
    # photon-by-photon pass through amplifier and analyzer, against each
    # class's conditional output run through the analyzer and measured
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta, mu=mu,
                             dark_click_prob=dark)
    bundle = build_scenario(scenario, params, QubitSpec.from_phase(delta_phi))
    tail, d4 = _analyzer_setup(bundle, analyzer_phi, eta_out)
    got = _branch_outcome_table(bundle, tail, d4)
    assert np.max(np.abs(got - branch_outcomes(bundle, tail, d4))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), probe=st.booleans(), t=unit,
       eta=unit, dark=st.floats(0.0, 0.9), mu=unit, delta_phi=angles,
       analyzer_phi=angles, eta_out=unit)
def test_outcome_classes_partition_every_cell(scenario, probe, t, eta, dark,
                                              mu, delta_phi, analyzer_phi,
                                              eta_out):
    # the production pass with one herald class per click tuple, on the
    # scenario or on the sampler's probe (amplifier, analyzer and d4), with
    # the photons at mu and at mu = 0
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta, mu=mu,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(delta_phi)
    bundle = build_scenario(scenario, params, qubit)
    if probe:
        tail, d4 = _analyzer_setup(bundle, analyzer_phi, eta_out)
        bundle = replace(bundle, circuit=Circuit(
            bundle.circuit.paths, bundle.circuit.elements + tail.elements),
                         detectors=bundle.detectors + (d4,))
    bundle = replace(bundle, herald_classes=tuple(
        HeraldClass(str(o), ({d.name: CLICK if c else NO_CLICK
                              for d, c in zip(bundle.detectors, o)},))
        for o in itertools.product((False, True),
                                   repeat=len(bundle.detectors))))
    at_0 = build_scenario(scenario, replace(params, mu=0.0), qubit).slots
    photons = np.stack((_photon_outputs(bundle),
                        _photon_outputs(replace(bundle, slots=at_0))))
    cells, rails = _herald_cells(bundle, photons)
    # each cell's class probabilities add up to its ket's norm, 1 up to
    # the amplitudes pruned below DROP_TOLERANCE
    cell, _, amp = _combination_kets(photons)
    norms = np.bincount(cell, abs(amp) ** 2).reshape(2, -1)
    assert np.max(np.abs(cells[..., 0].sum(axis=1) - norms)) <= 1e-12
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # and each rail density is Hermitian and positive semidefinite
    assert np.allclose(rails, rails.conj().swapaxes(-1, -2), rtol=0.0,
                       atol=1e-12)
    if rails.size:
        assert np.linalg.eigvalsh(rails).min() >= -1e-12


def ratios_agree(got, want, denom):
    """Two values of a ratio x / denom agree to 1e-12 relative. Amplitudes
    below DROP_TOLERANCE are pruned, at other points on each route (the
    table runs at mu = 0 and 1 only), so x may also differ by the square
    of that; None stands for a ratio undefined at x <= 1e-30. At denom = 0
    (the gain at p_in = 0 with dark counts) the ratio is inf or NaN, and
    both routes must give the same one."""
    floor = DROP_TOLERANCE ** 2
    if got is None or want is None:
        return got is want or denom <= 1e-30 + floor
    if denom == 0.0 and not np.isfinite(want):
        return np.array_equal(got, want, equal_nan=True)
    return abs(got - want) * denom <= 1e-12 * abs(want) * denom + floor
