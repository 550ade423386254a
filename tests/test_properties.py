"""Invariants of the exact engine as properties over random inputs.

Random Fock states come from `qubitamp.checks.random_two_path_state` with a
drawn seed, so the acceptance checks and these properties share one
generator. Example counts are kept small: each property runs in a few
seconds at most.
"""

import functools
import itertools
import math
import operator
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qubitamp import amplifier
from qubitamp.amplifier import (
    AmplifierParams,
    HeraldClass,
    QubitSpec,
    SCENARIOS,
    ScenarioBundle,
    _Layout,
    _at_mu,
    _herald_pass,
    _herald_probs,
    _kets,
    _layout,
    _outcome,
    _photon_outputs,
    _presence_weights,
    build_scenario,
    compile_scenario,
    fringe_scan,
    gain_analytic,
    hom_coincidence,
    hom_coincidence_fock,
    simulate_scenario,
)
from qubitamp.checks import loss_identity_residual, random_two_path_state
from qubitamp.circuits import (BeamSplitter, Branch, Circuit, Mixture,
                               run_circuit)
from qubitamp.detection import (
    CLICK,
    NO_CLICK,
    Detector,
    DetectorSpec,
    click_prob,
    measure_all,
    no_click_weight,
)
from qubitamp.fock import (
    DROP_TOLERANCE,
    MATCHED,
    ORTHOGONAL,
    apply_phase,
    apply_two_mode_unitary,
    beam_splitter_matrix,
    mode_labels,
)
from qubitamp.montecarlo import _branch_outcome_table, _probe

from exact_fringe import class_rates
from exact_herald import (branch_outcomes, combinations, heralded_analysis,
                          heralded_halves)

seeds = st.integers(0, 2**32 - 1)
unit = st.floats(0.0, 1.0)
angles = st.floats(0.0, 2.0 * math.pi)
#: Bounded away from the edges where the time-bin amplifier cannot herald:
#: no ancilla or input photon at zero, no ancilla reflected at t = 1.
positive = st.floats(0.05, 1.0)
transmission = st.floats(0.0, 0.99)


def detector_specs(max_dark):
    """(eta, dark count) for each of up to five detectors: the time-bin
    probe's four heralding detectors and the analyzer's."""
    return st.lists(st.tuples(unit, st.floats(0.0, max_dark)), min_size=5,
                    max_size=5)


def with_specs(bundle, specs):
    """The bundle with detector i at efficiency and dark count specs[i]."""
    return replace(bundle, detectors=tuple(
        replace(d, spec=DetectorSpec(*s)) for d, s in zip(bundle.detectors,
                                                          specs)))


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
    # the combined outcome is the classes' sum, normalised once
    classes = out.per_class.values()
    total = sum(oc.herald_prob for oc in classes)
    assert abs(out.herald_prob - total) <= 1e-12
    mixed = sum(oc.herald_prob * oc.output_qubit_density for oc in classes)
    assert np.max(np.abs(out.output_qubit_density - mixed / total)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission, p_a=positive,
       eta=positive, p_in=positive)
def test_oracle_gain_equals_closed_form(scenario, t, p_a, eta, p_in):
    out = simulate_scenario(scenario,
                            AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta))
    assert abs(out.gain - gain_analytic(t, p_a, eta, p_in)) <= 1e-9


def dip_bundle(mu):
    """The two-photon dip's bundle at overlap mu: a matched photon on path
    a and one on path b of a 50/50 splitter, both present, and one class
    in which both ideal detectors click."""
    return ScenarioBundle(
        "hom", AmplifierParams(t=0.5, p_in=1.0, p_a=1.0, eta=1.0, mu=mu),
        None, Circuit(("a", "b"), (BeamSplitter(0.5, ("a", "b")),)),
        ({("a", MATCHED): 1.0}, {("b", MATCHED): 1.0}),
        tuple(Detector(p, p, DetectorSpec(1.0)) for p in ("a", "b")),
        (HeraldClass("coincidence", ({"a": CLICK, "b": CLICK},)),))


@settings(max_examples=30, deadline=None)
@given(mu=st.lists(unit, max_size=8).flatmap(
    lambda mu: st.permutations([0.0, 1.0] + mu)).map(np.array))
def test_dip_from_one_table_equals_a_pass_per_mu(mu):
    # the dip read off one table at every mu equals a table pass at each
    # mu alone, with the photons put at mu first, and the closed form
    dip = hom_coincidence_fock(mu)
    assert dip.shape == mu.shape
    for m, d in zip(mu.tolist(), dip.tolist()):
        assert abs(d - _herald_probs(dip_bundle(m))[0]) <= 1e-15
    assert np.max(np.abs(dip - hom_coincidence(mu)[0])) <= 1e-15


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
# at mu = 1 and phase 0 no psi_minus herald leaves a photon at the analyzer
@example(t=0.5, p_in=1.0, p_a=1.0, eta=1.0, dark=0.0, mu_plus=0.0,
         mu_minus=1.0, phis=[0.0, 0.0])
# the same, where the reference leaves rounding dust (6.1e-19 of 7.3e-3)
@example(t=0.375, p_in=1.0, p_a=1.0, eta=0.25, dark=0.0, mu_plus=0.0,
         mu_minus=1.0, phis=[0.0, 0.0])
# psi_minus rates tiny but not zero (3.6e-15 of the scale) in both runs
@example(t=0.5, p_in=1.0, p_a=1.0, eta=1.0, dark=0.0, mu_plus=0.0,
         mu_minus=1.0, phis=[0.0, 1.192092896e-07])
def test_fringe_rates_equal_exact_runs(t, p_in, p_a, eta, dark, mu_plus,
                                       mu_minus, phis):
    # fringe_scan evaluates a +- b cos(phi), affine in mu^2, from one
    # scenario table at input phase 0; class_rates runs the circuit at each
    # phase, each class at its own mu
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta,
                             dark_click_prob=dark)
    exact = {name: class_rates(replace(params, mu=mu), phis)[name]
             for name, mu in (("psi_plus", mu_plus), ("psi_minus", mu_minus))}
    scale = max(float(r.max()) for r in exact.values())
    try:
        scan = fringe_scan(params, phis, mu_plus=mu_plus, mu_minus=mu_minus)
    except ValueError as exc:
        # a class without a visibility: its reference rates are zero to the
        # bound that the rates are compared to
        assert "all-zero rates" in str(exc)
        assert any(r.max() <= 1e-12 * scale for r in exact.values())
        return
    for got, name in ((scan.rate_plus, "psi_plus"),
                      (scan.rate_minus, "psi_minus")):
        assert np.max(np.abs(got - exact[name])) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(t=st.just(1.0) | unit, p_in=unit, p_a=unit, eta=unit,
       dark=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
       mu_plus=unit, mu_minus=unit,
       phis=st.lists(st.sampled_from([0.0, math.pi]) | angles, min_size=2,
                     max_size=8))
# no ancilla reaches a heralding detector, so only dark counts herald
@example(t=1.0, p_in=0.5, p_a=0.5, eta=0.5, dark=0.1, mu_plus=1.0,
         mu_minus=1.0, phis=[0.0, math.pi])
def test_fringe_rates_are_never_negative(t, p_in, p_a, eta, dark, mu_plus,
                                         mu_minus, phis):
    # fringe_scan clamps no rate: its ends are >= 0, and so is each
    # a +- b cos(phi) made of them (see its docstring)
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta,
                             dark_click_prob=dark)
    try:
        ends = amplifier._fringe_ends(params)
    except amplifier.ZeroHeraldError:
        return
    assert (ends >= 0.0).all()
    try:
        scan = fringe_scan(params, phis, mu_plus=mu_plus, mu_minus=mu_minus)
    except ValueError as exc:  # raised after the check that none is < 0
        assert "all-zero rates" in str(exc)
        return
    assert (scan.rate_plus >= 0.0).all() and (scan.rate_minus >= 0.0).all()


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission, p_in=unit,
       p_a=positive, eta=positive, dark=st.floats(0.0, 0.3), mu=unit,
       delta_phi=angles)
# the ancilla's transmitted amplitude, 1e-15 * mu, is pruned at mu = 0.5
@example(scenario="fock-hpa", t=1e-30, p_in=0.5, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.5, delta_phi=0.0)
# with dark counts at p_in = 0 the gain is inf, or its p_in -> 0 limit
# without a photon out
@example(scenario="timebin-hqa", t=0.5, p_in=0.0, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.5, delta_phi=0.0)
@example(scenario="fock-hpa", t=0.0, p_in=0.0, p_a=1.0, eta=1.0, dark=0.25,
         mu=0.0, delta_phi=0.0)
# p_out is 1.6 t ~ 5e-29, and the reference prunes 34 kets of the mu = 0.5
# run worth 2.2e-29 of it in all, far above one ket's DROP_TOLERANCE**2
@example(scenario="timebin-hqa", t=3.1273813963679564e-29, p_in=1.0, p_a=1.0,
         eta=1.0, dark=0.0, mu=0.5, delta_phi=0.0)
def test_table_equals_full_mixture_run(scenario, t, p_in, p_a, eta, dark, mu,
                                       delta_phi):
    # the scenario table, contracted at one point, against one run of the
    # full source mixture through the engine
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=eta, mu=mu,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(delta_phi)
    bundle = build_scenario(scenario, params, qubit)
    ref = _outcome(bundle, *heralded_halves(bundle), p_in)
    got = compile_scenario(bundle).evaluate(p_in, p_a, mu)
    pairs = [(got, ref)] + [(got.per_class[k], ref.per_class[k])
                            for k in ref.per_class]
    floor = pruned_weight_bound(bundle)
    for g, r in pairs:
        for field in ("herald_prob", "p_out", "vacuum_weight", "multi_weight"):
            assert abs(getattr(g, field) - getattr(r, field)) <= 1e-12
        assert np.max(np.abs(g.output_qubit_density
                             - r.output_qubit_density)) <= 1e-12
        assert gains_agree(g, r, p_in, dark, floor)
        assert ratios_agree(g.fidelity_conditional, r.fidelity_conditional,
                            r.p_out, floor)


def same_value(got, want) -> bool:
    """Equal to 1e-15 relative to max(1, |want|); NaN matches NaN, and a
    None (a scalar point's undefined fidelity) matches NaN."""
    if want is None or np.isnan(want):
        return bool(np.isnan(got))
    return got == want or abs(got - want) <= 1e-15 * max(1.0, abs(want))


#: Values of [0, 1] with its ends and the subnormal, tiny and
#: next-below-one values where rounding and signed zeros show.
edges = st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16]) | unit


def same_bits(got, want) -> bool:
    """Equal arrays of the same dtype whose zeros have the same signs, in
    the real and the imaginary parts alike."""
    return got.dtype == want.dtype and all(
        np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        for g, w in ((got.real, want.real), (np.imag(got), np.imag(want))))


@settings(max_examples=100, deadline=None)
@given(t=edges, p_in=edges, p_a=edges, eta=edges,
       dark=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True), phi=angles)
def test_weighing_the_table_rows_equals_contracting_at_the_mu_ends(
        t, p_in, p_a, eta, dark, phi):
    # the table's rows are its mu = 0 and mu = 1 ends, so the fringe weighs
    # them without mixing; every bit must match, the signs of zeros too.
    # contract appends two columns to the cells, for p_out and the gain
    table = compile_scenario(build_scenario("timebin-hqa", AmplifierParams(
        t=t, p_in=p_in, p_a=p_a, eta=eta, dark_click_prob=dark),
        QubitSpec.from_phase(phi)))
    got = table.weigh(p_in, p_a, table.cells, table.rails)
    cells, rails = table.contract(p_in, p_a, np.array((0.0, 1.0)))
    assert same_bits(got[0], cells[..., :4]) and same_bits(got[1], rails)


@settings(max_examples=20, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=transmission, eta=positive,
       mu=unit, dark=st.floats(0.0, 0.5), delta_phi=angles,
       p_in=st.lists(unit, min_size=1, max_size=4),
       p_a=st.lists(positive, min_size=1, max_size=3))
def test_array_evaluate_equals_scalar_evaluate(scenario, t, eta, mu, dark,
                                               delta_phi, p_in, p_a):
    # the points of a 2-D broadcast are flattened into one matrix product
    # and reshaped back, so each must read as if evaluated on its own
    table = compile_scenario(build_scenario(scenario, AmplifierParams(
        t=t, p_in=1.0, p_a=1.0, eta=eta, dark_click_prob=dark),
                                            QubitSpec.from_phase(delta_phi)))
    p_in, p_a = np.array(p_in), np.array(p_a)
    grid = table.evaluate(p_in[:, None], p_a[None, :], mu)
    assert grid.herald_prob.shape == (len(p_in), len(p_a))
    for (i, pin), (j, pa) in itertools.product(enumerate(p_in),
                                               enumerate(p_a)):
        point = table.evaluate(float(pin), float(pa), mu)
        for g, s in [(grid, point)] + [(grid.per_class[k], point.per_class[k])
                                       for k in point.per_class]:
            assert g.herald_class == s.herald_class
            for field in ("herald_prob", "p_out", "gain", "vacuum_weight",
                          "multi_weight", "fidelity_conditional"):
                assert same_value(getattr(g, field)[i, j], getattr(s, field))
            assert np.max(np.abs(g.output_qubit_density[i, j]
                                 - s.output_qubit_density)) <= 1e-15


@settings(max_examples=15, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=unit, mu=unit, eta=unit,
       dark=st.floats(0.0, 0.9), delta_phi=angles)
def test_table_cells_equal_multiphoton_runs(scenario, t, mu, eta, dark,
                                            delta_phi):
    # a passive linear circuit maps each creation operator on its own, so
    # running the photons one at a time gives every combination's output
    # ket; the table runs the matched photons once, puts the ancillas at
    # mu = 0 and 1 by one rule, and reads its cells off the kets without
    # measuring them
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta, mu=mu,
                             dark_click_prob=dark)
    qubit = QubitSpec.from_phase(delta_phi)
    table = compile_scenario(build_scenario(scenario, params, qubit))
    for m, at_mu in enumerate((mu, 0.0, 1.0)):
        bundle = build_scenario(scenario, replace(params, mu=at_mu), qubit)
        runs = run_circuit(Mixture([Branch(1.0, s)
                                    for s in combinations(bundle)]),
                           bundle.circuit)
        layout, amp = _kets(bundle,
                            _at_mu(_photon_outputs(bundle), at_mu)[None])
        # the kets' modes, detected first, back in the circuit's order
        labels = mode_labels(bundle.circuit.paths)
        first = [labels.index((d.path, i)) for d in bundle.detectors
                 for i in (MATCHED, ORTHOGONAL)]
        occ = layout.occ[:, np.argsort(first + [
            i for i in range(len(labels)) if i not in first])]
        ends = np.append(layout.cells, len(amp))
        for c, run in enumerate(runs):
            ket = slice(ends[c], ends[c + 1])
            got = dict(zip(map(tuple, occ[ket].tolist()), amp[ket]))
            want = run.state.amplitudes
            for ket in set(got) | set(want):
                assert abs(got.get(ket, 0.0) - want.get(ket, 0.0)) <= 1e-12
            if m == 0:
                continue  # the table holds mu = 0 and mu = 1 only
            sums, rails = heralded_analysis(bundle, Mixture([run]))
            assert np.max(np.abs(table.cells[m - 1, :, c] - sums)) <= 1e-12
            assert np.max(np.abs(table.rails[m - 1, :, c] - rails)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), t=unit, p_in=unit, p_a=unit,
       specs=detector_specs(0.5), mu=unit, analyzer_phi=angles,
       eta_out=unit, delta_phi=angles)
# both time-bin ancillas reach the output, the input photon clicks on one
# rail and a dark count on the other: the analyzer sees two photons
@example(scenario="timebin-hqa", t=0.8, p_in=1.0, p_a=1.0,
         specs=[(0.9, 0.4)] * 5, mu=0.6, analyzer_phi=0.3, eta_out=0.7,
         delta_phi=1.1)
def test_analyzer_split_equals_full_mixture_run(scenario, t, p_in, p_a, specs,
                                                mu, analyzer_phi, eta_out,
                                                delta_phi):
    # the sampler's (herald class, analyzer click) cells from one
    # photon-by-photon pass through amplifier and analyzer, against each
    # class's conditional output run through the analyzer and measured,
    # with each heralding detector's efficiency and dark count drawn
    params = AmplifierParams(t=t, p_in=p_in, p_a=p_a, eta=1.0, mu=mu)
    bundle = with_specs(build_scenario(scenario, params,
                                       QubitSpec.from_phase(delta_phi)), specs)
    got = _branch_outcome_table(bundle, analyzer_phi, eta_out)
    want = branch_outcomes(bundle, _probe(bundle, analyzer_phi, eta_out))
    assert np.max(np.abs(got - want)) <= 1e-12


def reader_layout(support, shape, n_detected, requirements):
    """`_layout` built the plain way: every choice of one option per photon
    (0 leaves it out, 1 + i puts it in mode i), photon 0's slowest, kept in
    a dict keyed on its (cell, occupation), the sorted keys the kets; the
    count patterns a dict keyed on each ket's photon counts at the
    detectors, sorted with the last detector's count slowest."""
    n_sets, n_photons, n_modes = shape
    n_det = n_detected // 2
    nonzero = np.frombuffer(support, bool).reshape(shape)
    choices = {}  # (cell, occupation) -> the options.ravel() index of each
    for s in range(n_sets):
        for choice in itertools.product(*(
                [0] + [1 + i for i in range(n_modes) if nonzero[s, j, i]]
                for j in range(n_photons))):
            cell, occ = s << n_photons, [0] * (n_modes + 1)
            for j, option in enumerate(choice):
                if option:
                    cell += 1 << (n_photons - 1 - j)
                occ[option] += 1
            choices.setdefault((cell, tuple(occ[1:])), []).append(
                [(s * n_photons + j) * (n_modes + 1) + option
                 for j, option in enumerate(choice)])
    kets = sorted(choices)

    def tally(occ):
        return tuple(occ[2 * d] + occ[2 * d + 1] for d in range(n_det))

    patterns = sorted({tally(occ) for _, occ in kets}, key=lambda c: c[::-1])
    number = {c: k for k, c in enumerate(patterns)}
    gather, first, cells, groups, group_cells = [], [], [], [], []
    for k, (cell, occ) in enumerate(kets):
        first.append(len(gather))
        gather += choices[cell, occ]
        new_cell = k == 0 or kets[k - 1][0] != cell
        if new_cell:
            cells.append(k)
            group_cells.append(len(groups))
        if new_cell or kets[k - 1][1][:n_detected] != occ[:n_detected]:
            groups.append(k)
    n_out = [sum(occ[n_detected:]) for _, occ in kets]
    classes = [0]
    for c in requirements[:-1]:
        classes.append(classes[-1] + len(c))
    take = [[[(need * n_det + d) * (n_photons + 1) + c[d] for c in patterns]
             for d, need in enumerate(p)] for cls in requirements for p in cls]
    bins = [(cell * 3 + min(n, 2)) * len(patterns) + number[tally(occ)]
            for (cell, occ), n in zip(kets, n_out)]
    ints = functools.partial(np.array, dtype=int)
    return _Layout(
        ints(gather).T, ints(first),
        np.array([math.prod(math.sqrt(math.factorial(n)) for n in occ)
                  for _, occ in kets]),
        ints([occ for _, occ in kets]), ints(cells), ints(take), ints(classes),
        ints(bins), np.array(n_out) == 1, ints(groups),
        ints([number[tally(kets[g][1])] for g in groups]), ints(group_cells))


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS),
       t=st.sampled_from([0.0, 1.0]) | unit,
       mu=st.sampled_from([0.0, 1.0]) | unit,
       qubit=st.sampled_from([QubitSpec(1.0, 0.0), QubitSpec(0.0, 1.0)])
       | angles.map(QubitSpec.from_phase), analyzer_phi=angles)
def test_layout_equals_a_reader_layout(scenario, t, mu, qubit, analyzer_phi):
    # every layout the pass builds, for the scenario's table, the sampler's
    # herald probabilities and probe, and the dip, equals the plain build
    # field by field with the same dtypes: the merge order too, which the
    # end results alone do not show
    bundle = build_scenario(scenario, AmplifierParams(
        t=t, p_in=0.5, p_a=0.5, eta=0.7, mu=mu), qubit)
    with mock.patch.object(amplifier, "_layout", wraps=_layout) as spy:
        compile_scenario(bundle)
        _herald_probs(bundle)
        _branch_outcome_table(bundle, analyzer_phi, 0.9)
        hom_coincidence_fock(mu)
    assert spy.call_count == 4
    for call in spy.call_args_list:
        got, want = _layout(*call.args), reader_layout(*call.args)
        for field, g, w in zip(_Layout._fields, got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), field


def per_ket_pass(bundle, photons):
    """(sums, rails) of `_herald_pass`, ket by ket: each ket's class
    weights from its photon counts at the detectors, by no_click_weight and
    click_prob, times its |amp|^2, summed per cell (correctly rounded, by
    math.fsum); each coherent group's single-photon amplitudes out, their
    outer product traced over the internal modes, times the weights of the
    group's first ket, summed per cell. The last two steps are array
    operations over all groups, as in the pass, since numpy may fuse a
    complex product's multiply and add and sums a reduction pairwise."""
    layout, amp = _kets(bundle, photons)
    n_det = len(bundle.detectors)
    counts = layout.occ[:, 0:2 * n_det:2] + layout.occ[:, 1:2 * n_det:2]
    out = layout.occ[:, 2 * n_det:]
    factor = {CLICK: click_prob, NO_CLICK: no_click_weight}
    weights = []  # [class, ket]
    for cls in bundle.herald_classes:
        total = 0.0
        for pattern in cls.patterns:
            w = np.ones(len(amp))
            for i, d in enumerate(bundle.detectors):
                if d.name in pattern:
                    w = w * factor[pattern[d.name]](
                        counts[:, i], d.spec.eta, d.spec.dark_click_prob)
            total = total + w
        weights.append(total)
    weights = np.array(weights)
    n_out = np.minimum(out.sum(axis=1), 2)
    ends = np.append(layout.cells, len(amp))
    sums = np.zeros((len(layout.cells), len(weights), 4))
    for c in range(len(layout.cells)):
        ket = slice(ends[c], ends[c + 1])
        for k, terms in enumerate(weights[:, ket] * abs(amp[ket]) ** 2):
            sums[c, k] = [math.fsum(terms)] + [
                math.fsum(terms[n_out[ket] == n]) for n in range(3)]
    groups = np.append(layout.groups, len(amp))
    single = np.zeros((len(layout.groups), out.shape[1]), complex)
    for g, (first, end) in enumerate(zip(groups, groups[1:])):
        for k in range(first, end):
            if n_out[k] == 1:
                single[g, out[k].argmax()] += amp[k]
    single = single.reshape(len(single), -1, 2)  # [group, rail, internal]
    pairs = (single[:, :, None] * single.conj()[:, None]).sum(-1)
    terms = weights[:, layout.groups].T[:, :, None, None] * pairs[:, None]
    return sums, np.add.reduceat(terms, layout.groups.searchsorted(
        layout.cells))


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), probe=st.booleans(),
       t=st.sampled_from([0.0, 1.0]) | unit, eta=st.just(1.0) | unit,
       dark=st.just(0.0) | st.floats(0.0, 0.9), mu=unit, delta_phi=angles,
       analyzer_phi=angles)
def test_pass_equals_a_per_ket_reference(scenario, probe, t, eta, dark, mu,
                                         delta_phi, analyzer_phi):
    # the pass weighs each distinct pattern of photon counts at the
    # detectors once and sums the kets' |amp|^2 per pattern first; ket by
    # ket, the sums agree to rounding (the products of tiny weights and
    # amplitudes may underflow: less than the smallest normal number on
    # top) and the rails are the same bits, on the scenario or on the
    # sampler's probe (amplifier, analyzer and d4)
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=eta, mu=mu,
                             dark_click_prob=dark)
    bundle = build_scenario(scenario, params, QubitSpec.from_phase(delta_phi))
    if probe:
        bundle = _probe(bundle, analyzer_phi, eta)
    at_1 = _photon_outputs(bundle)
    photons = np.stack((_at_mu(at_1, mu), _at_mu(at_1, 0.0)))
    sums, rails = _herald_pass(bundle, photons)
    want_sums, want_rails = per_ket_pass(bundle, photons)
    assert np.all(np.abs(sums - want_sums)
                  <= 1e-15 * want_sums + np.finfo(float).tiny)
    assert np.array_equal(rails, want_rails)


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), probe=st.booleans(), t=unit,
       specs=detector_specs(0.9), mu=unit, delta_phi=angles,
       analyzer_phi=angles)
def test_outcome_classes_partition_every_cell(scenario, probe, t, specs, mu,
                                              delta_phi, analyzer_phi):
    # the production pass with one herald class per click tuple, on the
    # scenario or on the sampler's probe (amplifier, analyzer and d4), with
    # the photons at mu and at mu = 0 and each detector's efficiency and
    # dark count drawn
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=1.0, mu=mu)
    qubit = QubitSpec.from_phase(delta_phi)
    bundle = build_scenario(scenario, params, qubit)
    if probe:  # d4's efficiency is drawn with the others
        bundle = _probe(bundle, analyzer_phi, 1.0)
    bundle = replace(with_specs(bundle, specs), herald_classes=tuple(
        HeraldClass(str(o), ({d.name: CLICK if c else NO_CLICK
                              for d, c in zip(bundle.detectors, o)},))
        for o in itertools.product((False, True),
                                   repeat=len(bundle.detectors))))
    at_1 = _photon_outputs(bundle)
    photons = np.stack((_at_mu(at_1, mu), _at_mu(at_1, 0.0)))
    sums, rails = _herald_pass(bundle, photons, rails=True)
    # each cell's class probabilities add up to its ket's norm, 1 up to
    # the amplitudes pruned below DROP_TOLERANCE
    layout, amp = _kets(bundle, photons)
    norms = np.add.reduceat(abs(amp) ** 2, layout.cells)
    assert np.max(np.abs(sums[..., 0].sum(axis=1) - norms)) <= 1e-12
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # and each rail density is Hermitian and positive semidefinite
    assert np.allclose(rails, rails.conj().swapaxes(-1, -2), rtol=0.0,
                       atol=1e-12)
    if rails.size:
        assert np.linalg.eigvalsh(rails).min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(points=st.lists(st.tuples(
    st.sampled_from(SCENARIOS), st.sampled_from([0.0, 1.0]) | unit, unit,
    unit, st.just(1.0) | unit, st.just(0.0) | st.floats(0.0, 0.9),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), angles),
    min_size=1, max_size=4), order=st.randoms(use_true_random=False))
def test_pass_results_do_not_depend_on_the_layout_cache(points, order):
    # the layout is built once per photon support and cached: tables,
    # herald probabilities, sampler tables and dips from a warm cache equal
    # those built after the cache is cleared, in another order
    jobs = []
    for scenario, t, p_in, p_a, eta, dark, mu, phi in points:
        bundle = build_scenario(scenario, AmplifierParams(
            t=t, p_in=p_in, p_a=p_a, eta=eta, mu=mu, dark_click_prob=dark),
            QubitSpec.from_phase(phi))
        jobs += [lambda b=bundle: operator.attrgetter("cells", "rails")(
                     compile_scenario(b)),
                 lambda b=bundle: (_herald_probs(b),),
                 lambda b=bundle, phi=phi: (_branch_outcome_table(b, phi, 0.9),),
                 lambda mu=mu: (hom_coincidence_fock(mu),)]
    for job in jobs:  # warm the cache
        job()
    warm = [job() for job in jobs]
    _layout.cache_clear()
    cold = {k: jobs[k]() for k in order.sample(range(len(jobs)), len(jobs))}
    for k, want in enumerate(warm):
        assert all(map(np.array_equal, cold[k], want))


def with_loss_in_circuit(bundle):
    """The bundle with each detector's efficiency eta moved into the
    circuit: after its elements, a splitter of transmission eta sends the
    detector's path to a dump path of its own, the detector keeps its dark
    count at efficiency 1, and a detector that no herald pattern names
    watches the dump, so its factor is 1 and the dump is traced out."""
    dumps = tuple(f"dump_{d.name}" for d in bundle.detectors)
    return replace(bundle, circuit=Circuit(
        bundle.circuit.paths + dumps, bundle.circuit.elements + tuple(
            BeamSplitter(d.spec.eta, (d.path, dump))
            for d, dump in zip(bundle.detectors, dumps))),
                   detectors=tuple(
        replace(d, spec=DetectorSpec(1.0, d.spec.dark_click_prob))
        for d in bundle.detectors) + tuple(
            Detector(dump, dump, DetectorSpec(1.0)) for dump in dumps))


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), probe=st.booleans(), t=unit,
       specs=detector_specs(0.9), delta_phi=angles, analyzer_phi=angles)
def test_detector_efficiency_equals_loss_on_the_table_pass(
        scenario, probe, t, specs, delta_phi, analyzer_phi):
    # the production pass's click model at efficiency eta against ideal
    # detectors behind a splitter of transmission eta, per detector, on the
    # scenario or on the sampler's probe (amplifier, analyzer and d4): the
    # two bundles' tables, whose mu = 0 and mu = 1 rows every mu mixes
    params = AmplifierParams(t=t, p_in=1.0, p_a=1.0, eta=1.0)
    bundle = build_scenario(scenario, params, QubitSpec.from_phase(delta_phi))
    if probe:  # d4's efficiency is drawn with the others
        bundle = _probe(bundle, analyzer_phi, 1.0)
    bundle = with_specs(bundle, specs)
    got, want = map(compile_scenario, (bundle, with_loss_in_circuit(bundle)))
    assert np.max(np.abs(got.cells - want.cells)) <= 1e-12
    assert np.max(np.abs(got.rails - want.rails), initial=0.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_slots=st.integers(1, 3))
def test_presence_weights_are_products_of_slot_probabilities(data, n_slots):
    # each slot's probability a number or an array; the arrays broadcast
    probs = []
    for _ in range(n_slots):
        shape = data.draw(st.sampled_from(((), (3,), (2, 1), (2, 3))))
        values = data.draw(st.lists(unit, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))
        probs.append(np.reshape(values, shape) if shape else values[0])
    weights = _presence_weights(probs)
    p = np.broadcast_arrays(*probs)
    assert weights.shape == p[0].shape + (1 << n_slots,)
    for c in range(1 << n_slots):
        # slot 0 is the most significant bit; the product in slot order
        factors = [p_i if c >> (n_slots - 1 - i) & 1 else 1.0 - p_i
                   for i, p_i in enumerate(p)]
        assert (weights[..., c] == functools.reduce(operator.mul,
                                                    factors)).all()
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-15


def pruned_weight_bound(bundle) -> float:
    """Most weight that pruning amplitudes below DROP_TOLERANCE can take
    from a probability of `bundle`, on the table route and the reference
    together.

    A pruned ket has weight below DROP_TOLERANCE**2. A presence
    combination of at most N photons over the circuit's P paths is a state
    of at most K = comb(2P + N - 1, N) kets (N photons in 2P modes; the
    circuit conserves photons). The reference prunes such a state when it
    is built, after each of the two internal modes of each of the E
    elements, and when the detected modes are split off: 2E + 2 times. The
    table prunes only each photon's output, in the photon map's FockState:
    1 more. The combinations' weights add up to at most 1, so pruning
    removes at most (2E + 3) K DROP_TOLERANCE**2 of any probability."""
    paths, photons = len(bundle.circuit.paths), len(bundle.slots)
    kets = math.comb(2 * paths + photons - 1, photons)
    return (2 * len(bundle.circuit.elements) + 3) * kets * DROP_TOLERANCE ** 2


def ratios_agree(got, want, denom, floor):
    """Two values of a ratio x / denom agree to 1e-12 relative. Amplitudes
    below DROP_TOLERANCE are pruned, at other points on each route (the
    table runs at mu = 0 and 1 only), so x may also differ by `floor`, the
    weight pruning can remove (`pruned_weight_bound`); None stands for a
    ratio undefined at x <= 1e-30."""
    if got is None or want is None:
        return got is want or denom <= 1e-30 + floor
    return abs(got - want) * denom <= 1e-12 * abs(want) * denom + floor


def gains_agree(got, want, p_in, dark, floor):
    """The gains (b + a / p_in) / prob of two outcomes agree to 1e-12
    relative plus floor / prob, and with dark counts floor / (p_in * prob)
    more. b, the single-photon weight with the input photon weighed by the
    ancillas alone, is not divided by p_in, and pruning moves it by at most
    `floor` (see `ratios_agree`). a, the one without the input photon, is 0
    on both routes without dark counts; with them it may differ by floor
    too, and below the smallest normal double by its rounding, which is far
    less. At p_in = 0 the gain is inf where a > 0, and p_out * prob is a:
    one route's gain may be inf and the other's not only where a <= floor."""
    prob = want.herald_prob
    if np.isinf(got.gain) or np.isinf(want.gain):
        return (got.gain == want.gain
                or max(got.p_out, want.p_out) * prob <= floor)
    slack = floor + (floor / p_in if dark > 0.0 and p_in > 0.0 else 0.0)
    return (abs(got.gain - want.gain) * prob
            <= 1e-12 * want.gain * prob + slack)
