"""Exact per-phase reference for the time-bin fringe.

`class_rates` splices a phase shifter on in_l in front of the amplifier
circuit and runs the full source mixture through it at every requested
input phase. It uses neither symmetry that `amplifier.fringe_scan` and
`amplifier.mu_for_visibility` rest on, so the tests that compare against
it check those symmetries.
"""

import math
from dataclasses import replace

import numpy as np

from qubitamp.amplifier import QubitSpec, build_timebin_hqa
from qubitamp.circuits import Circuit, PhaseShift

from exact_herald import heralded_analysis

#: Projection onto the zero-phase qubit (|s> + |l>) / sqrt(2).
ANALYZER = np.array([1.0, 1.0]) / math.sqrt(2.0)


def class_rates(params, phis) -> dict[str, np.ndarray]:
    """Analyzer rate per herald class at each input phase: the overlap of
    the raw, uncorrected output rails, times the herald probability, with
    the zero-phase qubit, clamped at 0."""
    bundle = build_timebin_hqa(params, QubitSpec.from_phase(0.0))
    rates = []  # [phase, class]
    for phi in phis:
        circuit = Circuit(bundle.circuit.paths,
                          (PhaseShift(float(phi), "in_l"),)
                          + bundle.circuit.elements)
        _, rails = heralded_analysis(replace(bundle, circuit=circuit))
        rates.append(np.maximum((ANALYZER.conj() @ rails @ ANALYZER).real,
                                0.0))
    return {cls.name: np.array(rates)[:, k]
            for k, cls in enumerate(bundle.herald_classes)}
