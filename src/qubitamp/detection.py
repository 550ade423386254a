"""Threshold (non-photon-number-resolving) detection with efficiency and
optional dark counts.

A detector watches one path (both internal modes) and reports only
click / no-click. On a ket holding n photons in the watched modes the
no-click weight is (1-eta)^n, scaled by (1-dark_click_prob); a dark count
ORs an independent Bernoulli click onto the outcome. Measuring projects the
ensemble onto occupation groups of the detected modes, which are then
discarded, so the returned conditional mixtures live on the surviving
modes only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Branch, Mixture, merge_branches
from .fock import split_by_occupation

CLICK = "click"
NO_CLICK = "no-click"
ANY = "any"

#: Outcome probabilities at or below this are treated as impossible.
MIN_OUTCOME_PROB = 1e-30


@dataclass(frozen=True)
class DetectorSpec:
    eta: float
    dark_click_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise ValueError(
                f"dark click probability must lie in [0, 1), got {self.dark_click_prob}")


@dataclass(frozen=True)
class Detector:
    name: str
    path: str
    spec: DetectorSpec


def _photon_numbers(n) -> np.ndarray:
    n = np.asarray(n)
    if (n < 0).any():
        raise ValueError("photon number must be non-negative")
    return n


def no_click_weight(n, eta, dark_click_prob=0.0):
    """Probability that a threshold detector stays silent on |n>. The
    arguments may be arrays; they broadcast against each other."""
    return ((1.0 - dark_click_prob) * (1.0 - eta) ** _photon_numbers(n))[()]


def click_prob(n, eta, dark_click_prob=0.0):
    """Probability that a threshold detector clicks on |n>, to full relative
    precision also when eta and dark_click_prob are small. The arguments
    may be arrays; they broadcast against each other."""
    n = _photon_numbers(n)
    sure = np.equal(eta, 1.0)
    # eta - sure is 0 where eta is 1, so that no log1p(-1) = -inf (and no
    # 0 * -inf at n = 0) arises; those points click for sure when n > 0
    clicked = -np.expm1(np.log1p(-dark_click_prob)
                        + n * np.log1p(sure - eta))
    return np.where(n == 0, dark_click_prob,
                    np.maximum(clicked, sure))[()]


def click_outcomes(counts, detectors: list[Detector]
                   ) -> list[tuple[tuple[bool, ...], float]]:
    """(click tuple ordered as `detectors`, probability) of each possible
    outcome when each detector sees its entry of `counts` photons."""
    eta, dark = np.array([(d.spec.eta, d.spec.dark_click_prob)
                          for d in detectors]).T
    factors = list(zip(no_click_weight(counts, eta, dark).tolist(),
                       click_prob(counts, eta, dark).tolist()))
    return [(o, p) for o in itertools.product((False, True), repeat=len(counts))
            if (p := math.prod(f[c] for f, c in zip(factors, o))) > 0.0]


def measure_all(m: Mixture, detectors: list[Detector]
                ) -> dict[tuple[bool, ...], tuple[float, Mixture]]:
    """Joint click distribution over every detector, with conditional states.

    Returns a map from click tuple (ordered as `detectors`) to
    (probability, normalized conditional mixture on the undetected modes).
    Outcomes with probability below MIN_OUTCOME_PROB are omitted.
    """
    if not m.branches:
        return {}
    ref = m.branches[0].state
    all_modes = [i for d in detectors for i in ref.path_indices(d.path)]
    if len(set(all_modes)) != len(all_modes):
        raise ValueError("detectors must watch disjoint paths")

    acc: dict[tuple[bool, ...], tuple[float, list[Branch]]] = {}
    for b in m:
        for occ, weight, cond in split_by_occupation(b.state, all_modes):
            # photons seen by each detector under this occupation group
            counts = [occ[2 * i] + occ[2 * i + 1] for i in range(len(detectors))]
            for outcome, p in click_outcomes(counts, detectors):
                w = b.weight * weight * p
                if w <= 0.0:
                    continue
                prob, branches = acc.setdefault(outcome, (0.0, []))
                acc[outcome] = (prob + w, branches)
                branches.append(Branch(w, cond))

    result = {}
    for outcome, (prob, branches) in acc.items():
        if prob < MIN_OUTCOME_PROB:
            continue
        cond = merge_branches(Mixture(branches).scaled(1.0 / prob))
        result[outcome] = (prob, cond)
    return result


def pattern_outcomes(pattern: dict[str, str], detectors: list[Detector]
                     ) -> list[tuple[bool, ...]]:
    """Expand a click pattern into the explicit outcome tuples it covers."""
    names = {d.name for d in detectors}
    unknown = set(pattern) - names
    if unknown:
        raise ValueError(f"pattern references unknown detectors {unknown}")
    options = {CLICK: (True,), NO_CLICK: (False,), ANY: (False, True)}
    reqs = [pattern.get(d.name, ANY) for d in detectors]
    for req in reqs:
        if req not in options:
            raise ValueError(f"bad outcome requirement {req!r}")
    return list(itertools.product(*map(options.get, reqs)))


def condition(table: dict[tuple[bool, ...], tuple[float, Mixture]],
              outcomes) -> tuple[float, Mixture]:
    """Probability of a set of `measure_all` outcomes and the ensemble
    conditioned on it. Branches are not merged.

    An impossible set yields (0.0, empty mixture).
    """
    prob = 0.0
    branches: list[Branch] = []
    for outcome, (p, cond) in table.items():
        if outcome in outcomes:
            prob += p
            branches.extend(Branch(b.weight * p, b.state) for b in cond)
    if prob <= MIN_OUTCOME_PROB:
        return 0.0, Mixture([])
    return prob, Mixture(branches).scaled(1.0 / prob)


def measure(m: Mixture, detectors: list[Detector], pattern: dict[str, str]
            ) -> tuple[float, Mixture]:
    """Probability of a click pattern and the conditional output ensemble.

    A zero-probability pattern yields (0.0, empty mixture).
    """
    prob, cond = condition(measure_all(m, detectors),
                           set(pattern_outcomes(pattern, detectors)))
    return prob, merge_branches(cond)
