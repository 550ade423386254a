"""Exact full-mixture reference for the herald classes of a scenario.

The whole source mixture (`source`) runs through the circuit, and one joint
measurement with `measure_all`, conditioned on each herald class with
`detection.condition`, gives each class's conditional output ensemble.
`heralded_analysis` reduces it to the conditional density matrix over the
output rails; `branch_outcomes` runs it through the output analyzer and
measures the analyzer click. `amplifier.compile_scenario` and
`montecarlo._branch_outcome_table` instead build the output kets of every
presence combination as arrays from the mapped photons and weight them
with per-pattern products of the click model, so the tests that compare
the two check that route.
"""

import itertools

import numpy as np

from qubitamp.amplifier import ClassAnalysis, _presence_weights, _source_state
from qubitamp.circuits import Branch, Mixture, mixture_density, run_circuit
from qubitamp.detection import (CLICK, condition, measure, measure_all,
                                pattern_outcomes)


def combinations(paths, slots):
    """Source state of every presence combination of the slots' photons.
    Entry c holds the combination whose presence bits, slot 0 first, are
    the binary digits of c."""
    return [_source_state(paths, [wf for _, wf in itertools.compress(slots,
                                                                     bits)])
            for bits in itertools.product((0, 1), repeat=len(slots))]


def outcomes(cls, detectors) -> set[tuple[bool, ...]]:
    """The click tuples, ordered as `detectors`, that herald class `cls`."""
    return {o for pattern in cls.patterns
            for o in pattern_outcomes(pattern, detectors)}


def source(bundle) -> Mixture:
    """The presence combinations of non-zero weight, as a mixture."""
    weights = _presence_weights([p for p, _ in bundle.slots])
    return Mixture([Branch(float(w), state) for w, state in zip(
        weights, combinations(bundle.circuit.paths, bundle.slots)) if w > 0])


def conditionals(bundle, mix=None):
    """(class, herald probability, conditional output ensemble) per herald
    class of `mix`, the ensemble leaving the circuit (by default the
    bundle's source mixture run through it). An impossible class has
    probability 0 and an empty ensemble."""
    if mix is None:
        mix = run_circuit(source(bundle), bundle.circuit)
    table = measure_all(mix, list(bundle.detectors))
    return [(cls, *condition(table, outcomes(cls, bundle.detectors)))
            for cls in bundle.herald_classes]


def branch_outcomes(bundle, tail, d4) -> np.ndarray:
    """Probability of each (herald class, analyzer click) pair, indexed
    [class, d4 clicked]: each class's conditional output runs through the
    analyzer `tail` and d4 measures it."""
    cells = np.zeros((len(bundle.herald_classes), 2))
    for k, (_, prob, cond) in enumerate(conditionals(bundle)):
        p4, _ = measure(run_circuit(cond, tail), [d4], {d4.name: CLICK})
        cells[k] = (prob * (1.0 - p4), prob * p4)
    return cells


def heralded_analysis(bundle, mix=None) -> dict[str, ClassAnalysis]:
    """ClassAnalysis per herald class of `mix` (see `conditionals`)."""
    n_rails = len(bundle.circuit.paths) - len(bundle.detectors)
    result = {}
    for cls, prob, cond in conditionals(bundle, mix):
        basis, rho = mixture_density(cond)  # empty for an impossible class
        vacuum = single = multi = 0.0
        rails = np.zeros((n_rails, n_rails), dtype=complex)
        for ia, occ_a in enumerate(basis):
            n_a = sum(occ_a)
            p_diag = rho[ia, ia].real
            if n_a == 0:
                vacuum += p_diag
            elif n_a == 1:
                single += p_diag
            else:
                multi += p_diag
            if n_a != 1:
                continue
            mode_a = occ_a.index(1)
            for ib, occ_b in enumerate(basis):
                if sum(occ_b) != 1:
                    continue
                mode_b = occ_b.index(1)
                if mode_a % 2 != mode_b % 2:
                    continue  # internal modes are traced out
                rails[mode_a // 2, mode_b // 2] += rho[ia, ib]
        result[cls.name] = ClassAnalysis(prob, vacuum, single, multi, rails)
    return result
