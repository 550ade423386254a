"""Coincidence counts of a run of pulses and the ratio estimators.

Pulses are independent and identically distributed, so the count table of
a run is one multinomial draw over the exclusive outcomes of a pulse. Each
pulse falls in exactly one cell:

  no d1         the input-herald detector stays silent;
  d1 only       d1 clicks (an independent Bernoulli(eta_herald)) but the
                transmission-calibration channel does not;
  d1_d2         d1 in coincidence with the calibration channel, an
                interleaved reference measurement that registers the input
                photon surviving the channel (Bernoulli(p_in), independent
                of the amplifier optics so that the ratio estimators stay
                consistent with the exact oracle), split further by the
                herald class and the click of the output analyzer detector,
                or by no herald at all.

The herald and analyzer probabilities come from the exact outcome
distribution of the scenario, so the sampler is unbiased by construction.
Counts mirror the experimental bookkeeping: d1, d1_d2, threefold (d1_d2
plus a herald-class click pattern) and fourfold (threefold plus an analyzer
click).

Poisson counting statistics are propagated to the ratio estimators at first
order over the independent increments of each nested pair (a and b - a for
a ratio a/b), i.e. sigma(a/b) = sqrt(a (b - a) / b^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .amplifier import (AmplifierParams, HeraldClass, QubitSpec,
                        _check_unit_interval, _herald_probs, build_scenario)
from .circuits import BeamSplitter, Circuit, PhaseShift
from .detection import CLICK, NO_CLICK, Detector, DetectorSpec
# Not called here: benchmarks/spans.py wraps montecarlo.run_circuit, measure
# and measure_all by name, so the names stay importable from this module.
from .circuits import run_circuit  # noqa: F401
from .detection import measure, measure_all  # noqa: F401

#: Default input-herald efficiency: source heralding times detector efficiency.
ETA_HERALD_DEFAULT = 0.86 * 0.70


class UndefinedEstimateError(ValueError):
    """A ratio estimator has a zero denominator."""


@dataclass(frozen=True)
class CountsTable:
    """Raw coincidence counts of one sampling run, per herald class."""

    n_pulses: int
    d1: int
    d1_d2: int
    threefold: dict[str, int]
    fourfold: dict[str, int]

    def __post_init__(self):
        if not (0 <= self.d1_d2 <= self.d1 <= self.n_pulses):
            raise ValueError("counts must nest: d1_d2 <= d1 <= n_pulses")
        for cls, three in self.threefold.items():
            four = self.fourfold.get(cls, 0)
            if not (0 <= four <= three <= self.d1_d2):
                raise ValueError(
                    f"counts must nest for class {cls}: "
                    f"{four} <= {three} <= {self.d1_d2}")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    error: float

    def __post_init__(self):
        if self.error < 0.0:
            raise ValueError("standard error must be non-negative")


def _branch_outcome_table(bundle, analyzer_phi: float, eta_out: float):
    """Exact probability of each (herald class, analyzer click) pair, as an
    (n_classes, 2) array indexed by [class, d4 clicked], from one
    photon-by-photon pass over the probe at the bundle's mu (see _probe and
    amplifier._herald_probs); the remaining probability is "no herald"."""
    return _herald_probs(_probe(bundle, analyzer_phi, eta_out)).reshape(-1, 2)


def _probe(bundle, analyzer_phi: float, eta_out: float):
    """The bundle with the output analyzer and its detector d4. For the
    time-bin scenario the two output rails are recombined on a 50/50
    splitter with the long rail rotated so that the qubit
    (|s> + e^{i analyzer_phi} |l>)/sqrt(2) exits entirely on the short
    port, where d4 then projects onto that qubit; the Fock scenario needs
    no recombination. The analyzer is passive and linear too, so it joins
    the amplifier circuit, d4 joins the heralding detectors and each herald
    class splits in two, d4 silent, then d4 clicking."""
    fock = bundle.scenario == "fock-hpa"
    tail = () if fock else (PhaseShift(-analyzer_phi - math.pi / 2.0, "out_l"),
                            BeamSplitter(0.5, ("out_s", "out_l")))
    d4 = Detector("d4", "out" if fock else "out_s", DetectorSpec(eta_out, 0.0))
    return replace(
        bundle,
        circuit=Circuit(bundle.circuit.paths, bundle.circuit.elements + tail),
        detectors=bundle.detectors + (d4,),
        herald_classes=tuple(
            HeraldClass(cls.name, tuple({**p, d4.name: o}
                                        for p in cls.patterns))
            for cls in bundle.herald_classes for o in (NO_CLICK, CLICK)))


def sample_events(params: AmplifierParams, n_pulses: int, seed: int,
                  scenario: str = "fock-hpa",
                  qubit: QubitSpec | None = None,
                  analyzer_phi: float = 0.0,
                  eta_herald: float = ETA_HERALD_DEFAULT,
                  eta_out: float = 1.0) -> CountsTable:
    """Sample n_pulses detection rounds and tally coincidence counts.

    The counts are one multinomial draw over the outcome cells of a pulse,
    equal in distribution to sampling each pulse independently; the cost
    does not grow with n_pulses. Reproducible: a fixed seed yields
    identical counts (counter-based Philox stream).
    """
    if not 0 < n_pulses <= 2**63 - 1:  # the most a multinomial draw takes
        raise ValueError(f"n_pulses must lie in [1, 2**63 - 1], got {n_pulses}")
    if not 0 <= seed <= 2**128 - 1:  # the key range of the Philox stream
        raise ValueError(f"seed must lie in [0, 2**128 - 1], got {seed}")
    _check_unit_interval(eta_herald=eta_herald, eta_out=eta_out)

    bundle = build_scenario(scenario, params, qubit)
    herald = _branch_outcome_table(bundle, analyzer_phi, eta_out)

    p_d1_d2 = eta_herald * params.p_in
    cells = np.concatenate((
        [1.0 - eta_herald, eta_herald - p_d1_d2],
        p_d1_d2 * herald.ravel(),
        [p_d1_d2 * (1.0 - herald.sum())],  # no herald: the remainder
    ))
    # rounding can leave a cell a few ulps outside [0, 1]
    cells = np.clip(cells, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(n_pulses, cells)

    d1_d2 = counts[2:]
    per_class = d1_d2[:-1].reshape(herald.shape)
    names = [cls.name for cls in bundle.herald_classes]
    return CountsTable(
        n_pulses=n_pulses,
        d1=n_pulses - int(counts[0]),
        d1_d2=int(d1_d2.sum()),
        threefold={name: int(per_class[i].sum()) for i, name in enumerate(names)},
        fourfold={name: int(per_class[i, 1]) for i, name in enumerate(names)},
    )


def _ratio(num: int, den: int) -> EstimateWithError:
    if den <= 0:
        raise UndefinedEstimateError("ratio denominator is zero")
    value = num / den
    error = math.sqrt(num * (den - num)) / den ** 1.5
    return EstimateWithError(value, error)


def estimate_pin(counts: CountsTable) -> EstimateWithError:
    """Input-photon probability from the d1_d2 / d1 coincidence ratio."""
    return _ratio(counts.d1_d2, counts.d1)


def estimate_pout(counts: CountsTable, herald_class: str) -> EstimateWithError:
    """Heralded output probability from the fourfold / threefold ratio."""
    if herald_class not in counts.threefold:
        raise KeyError(f"unknown herald class {herald_class!r}")
    return _ratio(counts.fourfold.get(herald_class, 0),
                  counts.threefold[herald_class])


def estimate_gain(counts: CountsTable, herald_class: str) -> EstimateWithError:
    """Gain estimate pout / pin with first-order error combination."""
    pin = estimate_pin(counts)
    pout = estimate_pout(counts, herald_class)
    if pin.value <= 0.0:
        raise UndefinedEstimateError("estimated p_in is zero")
    value = pout.value / pin.value
    error = math.sqrt((pout.error / pin.value) ** 2
                      + (pout.value * pin.error / pin.value ** 2) ** 2)
    return EstimateWithError(value, error)
