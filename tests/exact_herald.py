"""Exact full-mixture reference for the herald classes of a scenario.

The source state of each presence combination (`combinations`) is built
here, by a plain loop over every choice of one mode per photon, so it
shares no code with the production ket builder. A bundle holds matched
photons; each ancilla (every slot after the input photon's) is put here at
overlap mu = bundle.params.mu as the coherent wavefunction
mu|matched> + sqrt(1 - mu^2)|orthogonal> (`coherent_slots`), and each
combination's weight is the product over the slots of p or 1 - p, with p
params.p_in for the input photon and params.p_a for each ancilla
(`presence_weights`), so neither shares code with
`amplifier._photon_outputs` or `amplifier._presence_weights`. The whole
source mixture (`source`) runs through the circuit, and one joint
measurement with `measure_all`, conditioned on each herald class with
`detection.condition`, gives each class's conditional output ensemble.
`heralded_analysis` reduces it to each class's photon-number weights and
density over the output rails, times its herald probability.
`heralded_halves` runs the source mixture in two halves, without and with
the input photon (`halves`), for the arrays that `amplifier._outcome`
normalises, corrects and combines, as it does for the table's
contraction. `branch_outcomes` runs the ensemble through
the output analyzer and measures the analyzer click. Every circuit here
is applied element by element (`expand`), the binomial Fock expansion,
also where a mixture holds one photon per ket and `run_circuit` would use
the transfer matrix.
`amplifier.compile_scenario` (behind `hom_coincidence_fock` too, whose
dip is read off one compiled table at every mu) and
`amplifier._herald_probs` (the sampler's, behind
`montecarlo._branch_outcome_table`) instead map the matched source
photons by the transfer matrix, put the ancillas at mu by one rule,
build the output kets of every presence combination as arrays from them
and weight them with per-pattern products of the click model, so the
tests that compare the two check that route.
"""

import itertools
import math

import numpy as np

from qubitamp.circuits import (Branch, Circuit, Mixture, apply_element,
                               mixture_density)
from qubitamp.detection import (CLICK, condition, measure, measure_all,
                                pattern_outcomes)
from qubitamp.fock import MATCHED, ORTHOGONAL, FockState, mode_labels


def expand(mix: Mixture, circuit) -> Mixture:
    """The mixture after the circuit, one element at a time."""
    for e in circuit.elements:
        mix = apply_element(mix, e)
    return mix


def source_state(labels, photons) -> FockState:
    """One photon per wavefunction (a dict mode label -> amplitude) added
    on top of vacuum: each choice of one mode per photon adds the product
    of its amplitudes to the occupation it fills, and each occupation is
    then scaled by sqrt(prod n!)."""
    amplitudes = {}
    for choice in itertools.product(*(wf.items() for wf in photons)):
        occ, amp = [0] * len(labels), 1.0
        for label, a in choice:
            occ[labels.index(label)] += 1
            amp *= a
        amplitudes[tuple(occ)] = amplitudes.get(tuple(occ), 0.0) + amp
    return FockState(len(labels), {
        occ: amp * math.sqrt(math.prod(map(math.factorial, occ)))
        for occ, amp in amplitudes.items()}, labels)


def coherent_slots(bundle):
    """The bundle's slot wavefunctions with each ancilla's matched amplitude
    a split into mu * a matched and sqrt(1 - mu^2) * a orthogonal, at
    mu = bundle.params.mu; the input photon (slot 0) stays as it is."""
    mu = bundle.params.mu
    nu = math.sqrt(1.0 - mu * mu)
    wf_in, *ancillas = bundle.slots
    return [wf_in] + [{(path, mode): c * a for (path, _), a in wf.items()
                       for mode, c in ((MATCHED, mu), (ORTHOGONAL, nu))}
                      for wf in ancillas]


def slot_probabilities(bundle) -> list[float]:
    """Each slot's presence probability: params.p_in for the input photon
    (slot 0), params.p_a for each ancilla."""
    p = bundle.params
    return [p.p_in] + [p.p_a] * (len(bundle.slots) - 1)


def presence_weights(probs) -> list[float]:
    """Weight of each presence combination of independent slots present
    with probabilities `probs`: entry c, whose presence bits, slot 0 first,
    are the binary digits of c, is the product of p or 1 - p per slot."""
    return [math.prod(p if bit else 1.0 - p for p, bit in zip(probs, bits))
            for bits in itertools.product((0, 1), repeat=len(probs))]


def combinations(bundle):
    """Source state of every presence combination of the bundle's photons,
    the ancillas at the bundle's mu (`coherent_slots`). Entry c holds the
    combination whose presence bits, slot 0 first, are the binary digits
    of c."""
    slots = coherent_slots(bundle)
    return [source_state(mode_labels(bundle.circuit.paths),
                         list(itertools.compress(slots, bits)))
            for bits in itertools.product((0, 1), repeat=len(slots))]


def outcomes(cls, detectors) -> set[tuple[bool, ...]]:
    """The click tuples, ordered as `detectors`, that herald class `cls`."""
    return {o for pattern in cls.patterns
            for o in pattern_outcomes(pattern, detectors)}


def source(bundle) -> Mixture:
    """The presence combinations of non-zero weight, as a mixture."""
    weights = presence_weights(slot_probabilities(bundle))
    return Mixture([Branch(float(w), state) for w, state in zip(
        weights, combinations(bundle)) if w > 0])


def halves(bundle) -> list[Mixture]:
    """The source mixture's combinations without the input photon (slot 0)
    at their weights, and those with it weighed by the ancillas alone:
    p_in is left out of the second half's weights, not divided out. Each
    half holds its combinations of non-zero weight."""
    p_in, *ancillas = slot_probabilities(bundle)
    weights = presence_weights(ancillas)
    states = combinations(bundle)
    return [Mixture([Branch(float(f * w), s) for w, s in zip(weights, part)
                     if f * w > 0])
            for f, part in ((1.0 - p_in, states[:len(weights)]),
                            (1.0, states[len(weights):]))]


def conditionals(bundle, mix=None):
    """(class, herald probability, conditional output ensemble) per herald
    class of `mix`, the ensemble leaving the circuit (by default the
    bundle's source mixture run through it). An impossible class has
    probability 0 and an empty ensemble."""
    if mix is None:
        mix = expand(source(bundle), bundle.circuit)
    table = measure_all(mix, list(bundle.detectors))
    return [(cls, *condition(table, outcomes(cls, bundle.detectors)))
            for cls in bundle.herald_classes]


def branch_outcomes(bundle, probe) -> np.ndarray:
    """Probability of each (herald class, analyzer click) pair, indexed
    [class, d4 clicked]: each class's conditional output runs through the
    analyzer of the sampler's `probe` (the elements it adds to the bundle's
    circuit) and its detector d4 (the one it adds) measures it."""
    n = len(bundle.circuit.elements)
    tail = Circuit(probe.circuit.paths, probe.circuit.elements[n:])
    d4 = probe.detectors[-1]
    cells = np.zeros((len(bundle.herald_classes), 2))
    for k, (_, prob, cond) in enumerate(conditionals(bundle)):
        p4, _ = measure(expand(cond, tail), [d4], {d4.name: CLICK})
        cells[k] = (prob * (1.0 - p4), prob * p4)
    return cells


def heralded_analysis(bundle, mix=None) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised outputs of each herald class of `mix` (see
    `conditionals`), in the shape `amplifier._outcome` takes:
    sums[class] = prob * (1, vacuum, single, multi) with the weights of 0,
    1 and 2+ photons out, and rails[class] = prob times the single-photon
    density over the output rails, internal modes traced out."""
    n_rails = len(bundle.circuit.paths) - len(bundle.detectors)
    sums = np.zeros((len(bundle.herald_classes), 4))
    rails = np.zeros((len(bundle.herald_classes), n_rails, n_rails),
                     dtype=complex)
    for k, (_, prob, cond) in enumerate(conditionals(bundle, mix)):
        basis, rho = mixture_density(cond)  # empty for an impossible class
        weights = np.zeros(3)  # 0, 1 and 2+ photons out
        for ia, occ_a in enumerate(basis):
            n_a = sum(occ_a)
            weights[min(n_a, 2)] += rho[ia, ia].real
            if n_a != 1:
                continue
            mode_a = occ_a.index(1)
            for ib, occ_b in enumerate(basis):
                if sum(occ_b) != 1:
                    continue
                mode_b = occ_b.index(1)
                if mode_a % 2 != mode_b % 2:
                    continue  # internal modes are traced out
                rails[k, mode_a // 2, mode_b // 2] += rho[ia, ib]
        sums[k] = prob * np.concatenate(([1.0], weights))
        rails[k] *= prob
    return sums, rails


def heralded_halves(bundle) -> tuple[np.ndarray, np.ndarray]:
    """`heralded_analysis` of each half of the source mixture (`halves`),
    in the shape `amplifier._outcome` takes: sums[class] holds the four
    columns of the whole mixture, the absent half's plus p_in times the
    present half's, then the single-photon weights a of the absent half and
    b of the present half; rails[class] is combined alike."""
    (s0, r0), (s1, r1) = (heralded_analysis(bundle, expand(m, bundle.circuit))
                          for m in halves(bundle))
    p_in = bundle.params.p_in
    return (np.column_stack((s0 + p_in * s1, s0[:, 2], s1[:, 2])),
            r0 + p_in * r1)
