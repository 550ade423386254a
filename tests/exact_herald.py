"""Exact reference for the herald-class analysis of a scenario table.

`heralded_analysis` measures an output ensemble with `measure_all`,
conditions it on each herald class (with `detection.condition`, as
`amplifier.herald_conditionals` does for the sampler) and reduces the
conditional density matrix over the output rails. `amplifier.compile_scenario` instead builds
each presence combination photon by photon and reads the same numbers off
its output kets in one pass, so the tests that compare the two check that
route.
"""

import numpy as np

from qubitamp.amplifier import ClassAnalysis
from qubitamp.circuits import mixture_density, run_circuit
from qubitamp.detection import condition, measure_all


def heralded_analysis(bundle, mix=None) -> dict[str, ClassAnalysis]:
    """ClassAnalysis per herald class of `mix`, the ensemble leaving the
    circuit (by default the bundle's full source mixture run through it)."""
    if mix is None:
        mix = run_circuit(bundle.source, bundle.circuit)
    table = measure_all(mix, list(bundle.detectors))
    n_rails = len(bundle.output_paths)
    result = {}
    for cls in bundle.herald_classes:
        prob, cond = condition(table, cls.outcomes(bundle.detectors))
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
