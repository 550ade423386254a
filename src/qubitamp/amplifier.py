"""Heralded photonic amplifier scenarios: circuit construction, the exact
scenario table, and the closed-form gain.

Two scenarios are built here. The single-photon (Fock) amplifier couples an
ancilla photon to the output through an unbalanced splitter of transmission
t; the reflected arm meets the input photon on a 50/50 splitter whose two
ports feed threshold detectors, and exactly one click heralds success. The
time-bin qubit amplifier runs one such stage per rail (short/long) and
heralds on one click per rail; the four two-click patterns split into two
herald classes, one of which needs a pi phase correction on the long rail.

Exact outcomes come from a scenario table. Every unnormalised herald-class
output is multilinear in the presence probabilities of the source photons
and, with at most three photons, affine in mu^2. So `compile_scenario`
tabulates each presence combination at mu = 0 and at mu = 1, and any
(p_in, p_a, mu) is a weighted sum over the table; the two-photon dip is
read off one compiled table at every mu. The passive linear circuits map
each photon's creation operator on its own, by the path transfer matrix,
alike on both internal modes: a bundle's matched photons go through one
circuit run, and `_at_mu` puts the mapped ancillas at overlap mu. One
array pass (`_herald_pass`; the sampler's `_herald_probs` builds no rails)
gives each cell's class probabilities and rail densities. A threshold
detector sees only its photon count, so a class weighs each count pattern
(the distinct photon counts at the detectors) once, and the kets' |amp|^2
are summed per cell, count pattern and photons out first. The pass's index
arrays depend only on the photons' support, the detected modes and the
herald classes, so `_layout` builds them once per such key (an LRU cache
of 16), and a call computes only amplitudes, pattern weights and sums.

Every unnormalised class quantity is linear in the table, so evaluation
(`ScenarioTable.contract`) mixes the table's mu rows at mu^2, then weighs
them: it contracts the presence weights of all points with every leading
row in one matrix product (`ScenarioTable.weigh`). The combined outcome
after feed-forward is the sum over classes of their phase-corrected rows,
normalised once like each class row. Two more weighed columns give
p_out = a + p_in * b and the gain b + a / p_in at every p_in, 0 included.

Weighing the table's own rows, its mu = 0 and mu = 1 ends, with no mixing,
fixes the time-bin fringes. Conjugation maps the circuit onto itself (a
splitter has U* = Z U Z; the ancillas are real), so each class's analyzer
rate is even in the input phase: R_k(-phi) = R_k(phi). A pi phase on in_l
swaps l_a and l_b, so R_minus(phi) = R_plus(phi + pi). Hence R_plus,
R_minus = a +- b cos(phi), fixed by the rates at phi = 0.

The closed-form gain

    G = p_a * t / (p_a * (1 - t) * (1 - p_in * eta) + p_in)

is reproduced exactly by the table for indistinguishable photons and no
dark counts; the simulator is the independent cross-check of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuits import BeamSplitter, Branch, Circuit, Mixture, run_circuit
from .detection import (
    ANY,
    CLICK,
    MIN_OUTCOME_PROB,
    NO_CLICK,
    Detector,
    DetectorSpec,
    click_prob,
    no_click_weight,
)
# Not called here: benchmarks/spans.py wraps amplifier.mixture_density and
# amplifier.measure_all by name, so the names stay importable from this module.
from .circuits import mixture_density  # noqa: F401
from .detection import measure_all  # noqa: F401
from .fock import FockState, MATCHED, mode_labels, one_photon_occupations


class UndefinedGainError(ValueError):
    """The gain formula has a degenerate denominator."""


class ZeroHeraldError(RuntimeError):
    """The configuration can never produce a herald."""


@dataclass(frozen=True)
class AmplifierParams:
    """All knobs of one amplifier configuration.

    t is the unbalanced splitter transmission, p_in the probability that the
    lossy channel delivers the input photon, p_a the probability that each
    ancilla photon is present, eta the efficiency of the heralding threshold
    detectors, and mu the internal-mode overlap between each ancilla photon
    and the input photon (1 = fully indistinguishable).
    """

    t: float
    p_in: float
    p_a: float
    eta: float
    mu: float = 1.0
    dark_click_prob: float = 0.0

    def __post_init__(self):
        _check_unit_interval(**{name: getattr(self, name) for name in (
            "t", "p_in", "p_a", "eta", "mu")})
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise ValueError(
                f"dark_click_prob must lie in [0, 1), got {self.dark_click_prob}")


#: Named parameter presets for the two reference gain-curve families:
#: "paper-solid" folds the measured ancilla-path transmission into p_a,
#: "paper-dashed" assumes the best-case ancilla coupling of 0.9.
PRESETS: dict[str, dict[str, float]] = {
    "paper-solid": {"p_a": 0.80 * 0.37, "eta": 0.7},
    "paper-dashed": {"p_a": 0.9, "eta": 0.7},
}


@dataclass(frozen=True)
class QubitSpec:
    """Input qubit amplitudes over the short/long rails."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= 1e-12:  # NaN amplitudes fail too
            raise ValueError(f"qubit amplitudes must be normalized, |.|^2 = {n}")

    @classmethod
    def from_phase(cls, delta_phi: float) -> "QubitSpec":
        """Balanced superposition (|s> + e^{i dphi} |l>) / sqrt(2)."""
        r = 1.0 / math.sqrt(2.0)
        return cls(r, r * np.exp(1j * delta_phi))

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True)
class HeraldClass:
    """Click patterns heralding success: each maps detector names to CLICK
    or NO_CLICK, and a detector it does not name may do either. The class's
    probability is the sum over its patterns of per-detector products of
    the click probability, the no-click probability or 1, so the patterns
    must be mutually exclusive: some detector clicks in one and stays
    silent in the other. correction_phase is the phase to apply to the long
    output rail to recover the input qubit for this class (0 or pi).
    """

    name: str
    patterns: tuple[dict, ...]
    correction_phase: float = 0.0

    def __post_init__(self):
        for a, b in itertools.combinations(self.patterns, 2):
            if not any({a[d], b[d]} == {CLICK, NO_CLICK}
                       for d in a.keys() & b.keys()):
                raise ValueError(f"herald class {self.name!r}: patterns {a} "
                                 f"and {b} are not mutually exclusive")


@dataclass(frozen=True)
class ScenarioBundle:
    """A scenario at params. slots holds each source photon's matched
    wavefunction: slot 0 the input photon, present with probability p_in,
    each later slot an ancilla, present with p_a, at overlap mu with it."""

    scenario: str
    params: AmplifierParams
    qubit: QubitSpec | None
    circuit: Circuit
    slots: tuple[dict, ...]
    detectors: tuple[Detector, ...]
    herald_classes: tuple[HeraldClass, ...]


@dataclass(frozen=True)
class HeraldedOutcome:
    """Conditional description of the amplifier output given a herald."""

    herald_class: str
    herald_prob: float
    p_out: float
    gain: float
    vacuum_weight: float
    multi_weight: float
    output_qubit_density: np.ndarray
    fidelity_conditional: float | None
    per_class: dict[str, "HeraldedOutcome"] | None = None


# -- closed forms ------------------------------------------------------


def _check_unit_interval(**values) -> None:
    """Raise ValueError naming the first value with entries outside [0, 1]."""
    for name, v in values.items():  # numbers or numpy arrays
        inside = (0.0 <= v) & (v <= 1.0)  # NaN is not; a bool for a number
        if not (inside if isinstance(inside, bool) else inside.all()):
            bad = np.asarray(v)[~np.asarray(inside)][0]
            raise ValueError(f"{name} must lie in [0, 1], got {bad}")


def gain_analytic(t: float, p_a, eta: float, p_in):
    """Closed-form heralded gain for threshold detectors of efficiency eta.
    p_a and p_in may be arrays; they broadcast against each other, and so
    does the gain. A range error names the first value outside [0, 1]."""
    _check_unit_interval(t=t, p_a=p_a, eta=eta, p_in=p_in)
    denom = p_a * (1.0 - t) * (1.0 - p_in * eta) + p_in
    if np.any(denom <= 0.0):  # only at p_in = 0 with p_a * (1 - t) = 0
        raise UndefinedGainError(f"gain undefined for t={t}, eta={eta} at "
                                 f"p_in = 0 with p_a * (1 - t) = 0")
    return p_a * t / denom


def gain_asymptote(t: float) -> float:
    """High-loss gain limit t / (1 - t), correctly rounded: m / (10^k - m)
    in ints on the shortest decimal form t = m / 10^k, as floats amplify the
    binary error of a decimal t by 1/(1-t)^2 (0.9 would miss 9 by ~2e-15)."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"asymptote defined for t in [0, 1), got {t}")
    digits, _, exponent = repr(float(t)).partition("e")  # "0.9", "1e-05"
    whole, _, fraction = digits.partition(".")
    m, k = int(whole + fraction), len(fraction) - int(exponent or 0)
    return m / (10 ** k - m)


def visibility(rates) -> float:
    """Fringe visibility (max - min) / (max + min) of finite non-negative
    rates; NaN or infinite rates would give NaN, so they raise."""
    rates = np.asarray(rates, dtype=float)
    hi, lo = ((float(rates.max()), float(rates.min())) if rates.size
              else (math.nan, math.nan))
    if not 0.0 <= lo <= hi < math.inf:  # a NaN fails every comparison
        raise ValueError("rates must be a non-empty collection of finite "
                         "non-negative numbers")
    if hi <= 0.0:
        raise ValueError("cannot compute visibility of all-zero rates")
    return (hi - lo) / (hi + lo)


def fidelity_from_visibility(v: float) -> float:
    _check_unit_interval(visibility=v)
    return (1.0 + v) / 2.0


def hom_coincidence(mu) -> tuple:
    """Two-photon coincidence and dip visibility for internal overlap mu, a
    number or an array, as is each result. Two single photons with mode
    overlap mu meeting on a 50/50 splitter coincide with probability
    (1 - mu^2) / 2; the dip visibility is mu^2.
    """
    _check_unit_interval(mu=mu)
    return (1.0 - mu * mu) / 2.0, mu * mu


def hom_coincidence_fock(mu):
    """Coincidence of two photons at overlap mu, one on each path of a 50/50
    splitter, read off one compiled table at every mu (a number or an array,
    as is the result): both ideal detectors click iff each gets one."""
    table = compile_scenario(ScenarioBundle(
        "hom", AmplifierParams(t=0.5, p_in=1.0, p_a=1.0, eta=1.0), None,
        Circuit(("a", "b"), (BeamSplitter(0.5, ("a", "b")),)),
        ({("a", MATCHED): 1.0}, {("b", MATCHED): 1.0}),
        tuple(Detector(p, p, DetectorSpec(1.0)) for p in ("a", "b")),
        (HeraldClass("coincidence", ({"a": CLICK, "b": CLICK},)),)))
    dip = table.contract(1.0, 1.0, mu)[0][..., 0, 0]  # class 0's probability
    return dip if np.ndim(mu) else float(dip)


# -- source construction ----------------------------------------------


def _presence_weights(probs) -> np.ndarray:
    """Weight of each presence combination of independent slots present
    with probabilities `probs`, on a last axis whose entry c is the
    combination with presence bits, slot 0 first, the binary digits of c.
    Entries of probs may be arrays; they broadcast against each other."""
    p = np.empty((len(probs),) + np.broadcast(*probs).shape + (1,))
    for i, p_i in enumerate(probs):
        p[i, ..., 0] = p_i
    weights, *factors = np.concatenate((1.0 - p, p), -1)  # [slot, ..., 2]
    for f in factors:
        weights = (weights[..., None] * f[..., None, :]).reshape(
            f.shape[:-1] + (-1,))
    return weights


def build_fock_hpa(params: AmplifierParams) -> ScenarioBundle:
    """Single-photon amplifier without post-selection.

    Paths: "in" carries the input photon toward the 50/50 heralding
    splitter; the ancilla is injected on the "out" register so that the
    unbalanced splitter of transmission t leaves it on the output with
    probability t and reflects it into the "anc" register (the heralding
    arm) with probability 1 - t. Herald: exactly one click between the two
    threshold detectors on the 50/50 ports.
    """
    paths = ("in", "anc", "out")
    slots = ({("in", MATCHED): 1.0}, {("out", MATCHED): 1.0})
    circuit = Circuit(paths, (
        BeamSplitter(params.t, ("anc", "out")),
        BeamSplitter(0.5, ("in", "anc")),
    ))
    spec = DetectorSpec(params.eta, params.dark_click_prob)
    detectors = (Detector("bsm_a", "in", spec), Detector("bsm_b", "anc", spec))
    herald = HeraldClass("herald", (
        {"bsm_a": CLICK, "bsm_b": NO_CLICK},
        {"bsm_a": NO_CLICK, "bsm_b": CLICK},
    ))
    return ScenarioBundle("fock-hpa", params, None, circuit, slots,
                          detectors, (herald,))


#: Herald classes of the time-bin amplifier. Clicks on the same port of
#: both heralding splitters pass the qubit unchanged (psi_plus); clicks on
#: opposite ports flip the sign of the long-rail amplitude, undone by a pi
#: phase on the long output rail (psi_minus).
_TIMEBIN_CLASSES = (
    HeraldClass("psi_plus", (
        {"s_a": CLICK, "s_b": NO_CLICK, "l_a": CLICK, "l_b": NO_CLICK},
        {"s_a": NO_CLICK, "s_b": CLICK, "l_a": NO_CLICK, "l_b": CLICK},
    ), 0.0),
    HeraldClass("psi_minus", (
        {"s_a": CLICK, "s_b": NO_CLICK, "l_a": NO_CLICK, "l_b": CLICK},
        {"s_a": NO_CLICK, "s_b": CLICK, "l_a": CLICK, "l_b": NO_CLICK},
    ), math.pi),
)


def build_timebin_hqa(params: AmplifierParams,
                      qubit: QubitSpec) -> ScenarioBundle:
    """Time-bin qubit amplifier: one Fock-amplifier stage per rail.

    The input photon is delocalized over the two rails with the qubit
    amplitudes; each rail holds its own ancilla, unbalanced splitter and
    50/50 heralding splitter. Herald: exactly one click per rail. The four
    patterns form the psi_plus class (no correction) and the psi_minus
    class (pi phase on the long output rail), from the fixed table
    _TIMEBIN_CLASSES; test_psi_plus_fidelity_unit and
    test_psi_minus_needs_correction pin it.
    """
    paths = ("in_s", "in_l", "anc_s", "anc_l", "out_s", "out_l")
    input_wf = {("in_s", MATCHED): qubit.alpha, ("in_l", MATCHED): qubit.beta}
    slots = (input_wf, {("out_s", MATCHED): 1.0}, {("out_l", MATCHED): 1.0})
    circuit = Circuit(paths, (
        BeamSplitter(params.t, ("anc_s", "out_s")),
        BeamSplitter(params.t, ("anc_l", "out_l")),
        BeamSplitter(0.5, ("in_s", "anc_s")),
        BeamSplitter(0.5, ("in_l", "anc_l")),
    ))
    spec = DetectorSpec(params.eta, params.dark_click_prob)
    detectors = (
        Detector("s_a", "in_s", spec), Detector("s_b", "anc_s", spec),
        Detector("l_a", "in_l", spec), Detector("l_b", "anc_l", spec),
    )
    return ScenarioBundle("timebin-hqa", params, qubit, circuit, slots,
                          detectors, _TIMEBIN_CLASSES)


SCENARIOS = ("fock-hpa", "timebin-hqa")


def build_scenario(scenario: str, params: AmplifierParams,
                   qubit: QubitSpec | None = None) -> ScenarioBundle:
    if scenario == "fock-hpa":
        return build_fock_hpa(params)
    if scenario == "timebin-hqa":
        return build_timebin_hqa(params, qubit or QubitSpec.from_phase(0.0))
    raise ValueError(f"unknown scenario {scenario!r}")


# -- exact simulation --------------------------------------------------


@functools.lru_cache(maxsize=16)
def _corrections(phases: tuple[float, ...], n_rails: int, ndim: int):
    """The phase u = exp(1j * phases[class]) on the long rail (index 1) of
    each class, as the factor u_i conj(u_j) on rails[class, ..., r, r]."""
    u = np.exp(1j * np.outer(phases, np.arange(n_rails) == 1))
    return np.expand_dims(u[:, :, None] * u[:, None, :].conj(),
                          tuple(range(1, ndim - 2)))


def _outcome(bundle, sums, rails, p_in) -> HeraldedOutcome:
    """Outcome over the herald classes of `bundle` at p_in from their
    unnormalised sums[class, ..., 6] and rails[class, ..., r, r] (see
    ScenarioTable.contract). A class at or below MIN_OUTCOME_PROB is
    impossible and reads 0. Each class's rails carry its phase correction on
    the long rail, and the combined outcome (the feed-forward-corrected
    amplifier output) is the sum of the corrected classes; every row is then
    normalised alike. Of the last two columns a and b, p_out = a + p_in * b
    and the gain is b + a / p_in (b where a = 0). The fidelity to the input
    qubit (to |1> for the Fock-state amplifier) is None, or NaN at points of
    an array, without a single photon out."""
    keep = sums[..., 0] > MIN_OUTCOME_PROB
    sums = sums * keep[..., None]
    phases = tuple(cls.correction_phase for cls in bundle.herald_classes)
    rails = rails * keep[..., None, None] * _corrections(
        phases, rails.shape[-1], rails.ndim)
    sums = np.concatenate((sums, sums.sum(axis=0, keepdims=True)))
    rails = np.concatenate((rails, rails.sum(axis=0, keepdims=True)))
    prob = sums[..., 0]
    if np.any(prob[-1] <= 1e-30):
        raise ZeroHeraldError(
            f"herald probability vanishes for scenario {bundle.scenario}")
    denom = np.where(prob > MIN_OUTCOME_PROB, prob, 1.0)
    vacuum, single, multi, a, b = (sums[..., i] / denom for i in range(1, 6))
    rho = rails / denom[..., None, None]
    with np.errstate(all="ignore"):  # a / p_in is inf or NaN at p_in = 0
        gain, p_out = b + np.where(a > 0.0, a / p_in, 0.0), a + p_in * b
    # <psi|rho|psi> as one contraction of each rho, whose trace is single
    psi = np.ones(1) if bundle.qubit is None else bundle.qubit.vector()
    overlap = (rho.reshape(rho.shape[:-2] + (-1,))
               @ np.outer(psi.conj(), psi).ravel()).real
    some = single > 1e-30
    fidelity = np.where(some, overlap, np.nan) / np.where(some, single, 1.0)

    def row(k, name, per_class=None):
        f = None if np.ndim(some[k]) == 0 and not some[k] else fidelity[k]
        return HeraldedOutcome(name, prob[k], p_out[k], gain[k], vacuum[k],
                               multi[k], rho[k], f, per_class)

    return row(-1, "combined", {cls.name: row(k, cls.name) for k, cls
                                in enumerate(bundle.herald_classes)})


@dataclass(frozen=True)
class ScenarioTable:
    """Unnormalised herald-class outputs of `bundle`, its circuit, photons,
    detectors and classes (its p_in, p_a and mu are not used).
    cells[m, k, c] holds (prob, prob * vacuum, prob * single, prob * multi)
    of herald class k at mu = m for the presence combination c whose
    presence bits, slot 0 (the input photon) first, are the binary digits
    of c; rails[m, k, c] holds the class's output rail density times prob."""

    bundle: ScenarioBundle
    cells: np.ndarray
    rails: np.ndarray

    def weigh(self, p_in, p_a, cells, rails) -> tuple[np.ndarray, np.ndarray]:
        """cells[..., k, c, j] and rails[..., k, c, r, r] summed over the
        presence combinations c at presence probabilities p_in, p_a, by one
        matrix product over the flattened points; their axes replace c."""
        n_ancillas = cells.shape[-2].bit_length() - 2
        weights = _presence_weights([p_in] + [p_a] * n_ancillas)
        points = weights.reshape(-1, weights.shape[-1])
        n = cells.ndim - 2  # the axes up to the combination
        return tuple((points @ t.reshape(t.shape[:n + 1] + (-1,))).reshape(
            t.shape[:n] + weights.shape[:-1] + t.shape[n + 1:])
            for t in (cells, rails))

    def contract(self, p_in, p_a, mu) -> tuple[np.ndarray, np.ndarray]:
        """cells and rails mixed at mu, their rows at mu = 0 and 1 combined at
        mu^2, then weighed at p_in, p_a (each in [0, 1]); mu's axes lead.
        Two cell columns are added, prob * single where the input photon is
        absent, else 0, and that of the partner with it: weighed, they give
        a and b, as each pair of partners weighs 1 - p_in + p_in = 1."""
        _check_unit_interval(p_in=p_in, p_a=p_a, mu=mu)
        c, half = np.arange(self.cells.shape[-2]), self.cells.shape[-2] // 2
        single = self.cells[..., 2:3]  # half: the input photon's presence bit
        cells = np.concatenate((self.cells, single * (c < half)[:, None],
                                single[..., c | half, :]), -1)
        m = np.square(mu)
        return self.weigh(p_in, p_a, *(
            np.multiply.outer(1.0 - m, t[0]) + np.multiply.outer(m, t[1])
            for t in (cells, self.rails)))

    def evaluate(self, p_in, p_a, mu) -> HeraldedOutcome:
        """Heralded outcome at input and ancilla presence probabilities
        p_in, p_a and overlap mu, each in [0, 1]. p_in and p_a may be arrays:
        they broadcast against each other, and so does every outcome field."""
        return _outcome(self.bundle, *self.contract(p_in, p_a, mu), p_in)


def _photon_outputs(bundle: ScenarioBundle) -> np.ndarray:
    """Mode amplitudes, over the circuit's mode labels, of each of the
    bundle's source photons after the circuit, [slot, mode]: one circuit
    run of a mixture with one branch per photon."""
    labels = mode_labels(bundle.circuit.paths)
    units = one_photon_occupations(len(labels))
    photons = Mixture([Branch(1.0, FockState(len(labels), {
        u: wf[label] for u, label in zip(units, labels) if label in wf},
        labels)) for wf in bundle.slots])
    return np.array([[b.state.amplitudes.get(u, 0.0) for u in units]
                     for b in run_circuit(photons, bundle.circuit)],
                    dtype=complex)


def _at_mu(photons: np.ndarray, mu: float) -> np.ndarray:
    """The map photons[slot, mode] of matched photons with each ancilla
    (slot 1 on) at overlap mu, mu|matched> + sqrt(1 - mu^2)|orthogonal>:
    the circuit maps both internal modes alike."""
    out = photons.copy()
    out[1:, 1::2] = math.sqrt(1.0 - mu * mu) * photons[1:, 0::2]
    out[1:, 0::2] *= mu
    return out


class _Layout(NamedTuple):
    """The pass's index arrays for one photon support (see _layout)."""
    gather: np.ndarray  # [photon, choice] into the options, sorted by ket
    kets: np.ndarray  # each ket's first choice
    fact: np.ndarray  # each ket's sqrt(prod n!)
    occ: np.ndarray  # [ket, mode]: each ket's occupations
    cells: np.ndarray  # each cell's first ket
    take: np.ndarray  # [pattern, detector, count pattern] into the click model
    classes: np.ndarray  # each class's first pattern
    bins: np.ndarray  # each ket's [cell, 0/1/2+ photons out, count pattern]
    single: np.ndarray  # whether each ket has one photon out
    groups: np.ndarray  # each coherent group's first ket
    group_counts: np.ndarray  # each group's count pattern
    group_cells: np.ndarray  # each cell's first group


def _starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of the sorted rows[row, column] starts."""
    return np.flatnonzero(np.insert((rows[1:] != rows[:-1]).any(1), 0, True))


@functools.lru_cache(maxsize=16)
def _layout(support: bytes, shape: tuple, n_detected: int,
            requirements: tuple) -> _Layout:
    """Index arrays of the kets of every presence combination of one-photon
    states photons[set, photon, mode] of nonzero pattern `support` (bool
    bytes): cell s * 2**n_photons + c is set s with presence bits (photon 0
    first) the binary digits of c. Each choice of an option per photon is a
    (cell, occupation) row, and sorted, cell first, each run of equal rows
    is a ket. The first n_detected modes are detected, two per detector; a
    coherent group is a cell's kets alike there. requirements[class][pattern]
    [detector] is 0 (no click), 1 (click) or 2 (either). Count patterns (the
    detectors' photon counts) are numbered with the last detector slowest."""
    n_sets, n_photons, n_modes = shape
    nonzero = np.frombuffer(support, bool).reshape(shape)
    # option 0 leaves a photon out, option 1 + i puts it in mode i: each
    # set's choices of nonzero options, photon 0's slowest
    choices = np.array([(s, *c) for s in range(n_sets) for c in
                        itertools.product(*((0, *1 + m.nonzero()[0])
                                            for m in nonzero[s]))])
    sets, option = choices[:, 0], choices[:, 1:]  # [choice], [choice, photon]
    rows = np.column_stack((  # [choice, cell then each mode's occupation]
        (sets << n_photons) + (option > 0) @ (1 << np.arange(n_photons)[::-1]),
        (option[..., None] == np.arange(1, n_modes + 1)).sum(axis=1)))
    order = np.lexsort(rows.T[::-1])  # stable: a ket's choices keep theirs
    rows = rows[order]
    kets = _starts(rows)
    cell, occ = rows[kets, 0], rows[kets, 1:]
    cells, groups = _starts(cell[:, None]), _starts(rows[kets, :1 + n_detected])
    n_out = occ[:, n_detected:].sum(axis=1)
    tally = occ[:, :n_detected].reshape(len(occ), n_detected // 2, 2).sum(2)
    # np.unique sorts rows first column slowest, so the detectors go reversed
    patterns, counts = np.unique(tally[:, ::-1], axis=0, return_inverse=True)
    need = np.array(sum(requirements, ()))  # [pattern, detector]
    detector = np.arange(need.shape[1])[:, None]
    fact = np.sqrt([math.factorial(n) for n in range(n_photons + 1)])
    return _Layout(
        np.ravel_multi_index((sets, np.arange(n_photons)[:, None], option.T),
                             (n_sets, n_photons, n_modes + 1))[:, order],
        kets, fact[occ].prod(axis=1), occ, cells,
        np.ravel_multi_index((need[..., None], detector, patterns[:, ::-1].T),
                             (3, len(detector), n_photons + 1)),
        np.cumsum([0] + [len(c) for c in requirements[:-1]]),
        np.ravel_multi_index((cell, np.minimum(n_out, 2), counts),
                             (n_sets << n_photons, 3, len(patterns))),
        n_out == 1, groups, counts[groups], groups.searchsorted(cells))


def _kets(bundle: ScenarioBundle, photons) -> tuple[_Layout, np.ndarray]:
    """(layout, amp) of the photon outputs photons[set, photon, mode] of
    `bundle`, each detector's two modes put first: each ket sums the option
    products of its choices, times sqrt(prod n!)."""
    first = {p: 2 * i for i, p in enumerate(bundle.circuit.paths)}
    requirement = {NO_CLICK: 0, CLICK: 1, ANY: 2}
    detected = [first[d.path] + i for d in bundle.detectors for i in (0, 1)]
    photons = photons[..., detected + sorted(
        set(range(photons.shape[-1])).difference(detected))]
    layout = _layout(np.not_equal(photons, 0).tobytes(), photons.shape,
                     len(detected), tuple(tuple(tuple(
                         requirement[p.get(d.name, ANY)]
                         for d in bundle.detectors)
                         for p in c.patterns) for c in bundle.herald_classes))
    options = np.concatenate((np.ones(photons.shape[:2] + (1,)), photons), 2)
    # photon by photon with `*`: np.prod rounds complex products otherwise
    product = functools.reduce(np.multiply, options.ravel()[layout.gather])
    return layout, np.add.reduceat(product, layout.kets) * layout.fact


@functools.lru_cache(maxsize=16)
def _click_model(specs: tuple[DetectorSpec, ...], n_max: int) -> np.ndarray:
    """[requirement, detector, n]: the no-click, click and either weights
    of each detector of spec specs[detector] on n = 0 to n_max photons."""
    n = np.arange(n_max + 1)
    eta, dark = np.array([(s.eta, s.dark_click_prob) for s in specs]).T[..., None]
    return np.array((no_click_weight(n, eta, dark), click_prob(n, eta, dark),
                     np.ones((len(specs), len(n)))))


def _herald_pass(bundle: ScenarioBundle, photons, rails: bool = True):
    """(sums, rails) of the kets of photons (see _kets): each class's
    probability, and that with 0, 1 and 2+ photons out, [cell, class, 4],
    and if `rails` its single-photon density on the undetected paths times
    its probability, [cell, class, rail, rail], else None. A class weighs a
    count pattern by a sum over its patterns of products over the detectors,
    and the kets' |amp|^2 are summed per cell, photons out and count pattern."""
    layout, amp = _kets(bundle, photons)
    model = _click_model(tuple(d.spec for d in bundle.detectors),
                         photons.shape[1])
    weights = np.add.reduceat(model.take(layout.take).prod(axis=1),
                              layout.classes)  # [class, count pattern]
    n_cells, n_counts = len(layout.cells), weights.shape[1]
    by_out = np.einsum("cop,kp->cko", np.bincount(
        layout.bins, abs(amp) ** 2, n_cells * 3 * n_counts).reshape(
        n_cells, 3, n_counts), weights)  # [cell, class, 0/1/2+ photons out]
    sums = np.concatenate((by_out.sum(-1, keepdims=True), by_out), -1)
    if not rails:
        return sums, None
    out, first = layout.occ[:, 2 * len(bundle.detectors):], layout.groups
    # the single photons out of each group, [group, rail, internal mode]
    single = np.add.reduceat(out * (amp * layout.single)[:, None],
                             first).reshape(len(first), -1, 2)
    # summed over the internal modes term by term, not by a strided .sum(-1)
    s, c = single[:, :, None], single.conj()[:, None]
    pairs = (s[..., 0] * c[..., 0] + s[..., 1] * c[..., 1]).reshape(
        len(first), 1, -1)  # [group, 1, rail * rail]
    rails = np.add.reduceat((weights[:, layout.group_counts].T[:, :, None]
                             * pairs).reshape(len(first), -1),
                            layout.group_cells)
    return sums, rails.reshape(sums.shape[:2] + single.shape[1:2] * 2)


def _herald_probs(bundle: ScenarioBundle) -> np.ndarray:
    """Each herald class's probability at the bundle's params: its photons
    at mu, the input photon present with probability p_in, each ancilla p_a."""
    p = bundle.params
    sums, _ = _herald_pass(bundle, _at_mu(_photon_outputs(bundle), p.mu)[None],
                           rails=False)
    return sums[..., 0].T @ _presence_weights(
        [p.p_in] + [p.p_a] * (len(bundle.slots) - 1))


def compile_scenario(bundle: ScenarioBundle) -> ScenarioTable:
    """The table of `bundle` (see ScenarioTable): one circuit run of its
    source photons, then one pass at mu = 0 and 1 (see the module
    docstring), each cell at or below MIN_OUTCOME_PROB zeroed."""
    at_1 = _photon_outputs(bundle)
    sums, rails = _herald_pass(bundle, np.array((_at_mu(at_1, 0.0), at_1)))
    shape = (2, 1 << at_1.shape[0], sums.shape[1])
    cells, rails = (t.reshape(shape + t.shape[2:]).swapaxes(1, 2)
                    for t in (sums, rails))
    impossible = cells[..., 0] <= MIN_OUTCOME_PROB
    cells[impossible], rails[impossible] = 0.0, 0.0
    return ScenarioTable(bundle, cells, rails)


def simulate(bundle: ScenarioBundle) -> HeraldedOutcome:
    """Exact heralded outcome at the bundle's operating point: its table
    (see compile_scenario) evaluated at one point. Per-class outcomes carry
    their class's phase correction."""
    p = bundle.params
    return compile_scenario(bundle).evaluate(p.p_in, p.p_a, p.mu)


def simulate_scenario(scenario: str, params: AmplifierParams,
                      qubit: QubitSpec | None = None) -> HeraldedOutcome:
    return simulate(build_scenario(scenario, params, qubit))


# -- fringe analysis ---------------------------------------------------


@dataclass(frozen=True)
class FringeScan:
    """Heralded analyzer rates versus the input-qubit phase."""

    phis: np.ndarray
    rate_plus: np.ndarray
    rate_minus: np.ndarray
    visibility_plus: float
    visibility_minus: float
    fidelity_plus: float
    fidelity_minus: float


_ANALYZER = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _fringe_ends(params: AmplifierParams) -> np.ndarray:
    """Analyzer rates at input phase 0, indexed [mu in {0, 1}, class]: herald
    probability times the overlap of the uncorrected output with the
    zero-phase qubit, or 0 for a class that cannot herald. The total herald
    probability is affine in mu^2 and the same at every phase."""
    table = compile_scenario(build_scenario("timebin-hqa", params))
    # the table's rows are its mu = 0 and mu = 1 ends: weighed, not mixed
    sums, rails = table.weigh(params.p_in, params.p_a, table.cells, table.rails)
    prob = sums[..., 0]
    if prob.sum(axis=1).max() <= 1e-30:
        raise ZeroHeraldError(
            "herald probability vanishes for scenario timebin-hqa")
    overlap = (_ANALYZER @ rails @ _ANALYZER).real
    # a PSD density has a non-negative overlap; clamp rounding dust
    return np.where(prob > MIN_OUTCOME_PROB, np.maximum(overlap, 0.0), 0.0)


def fringe_scan(params: AmplifierParams, phis,
                mu_plus: float | None = None,
                mu_minus: float | None = None) -> FringeScan:
    """Per-class analyzer rates versus the input-qubit phase.

    Each herald class may use its own indistinguishability mu; both default
    to params.mu. By the module docstring's identities each rate is
    a +- b cos(phi), where a, b = (R_plus(0) +- R_minus(0)) / 2 are affine
    in mu^2, so one scenario table fixes both fringes. Raises
    ZeroHeraldError if no herald can occur. No rate needs a clamp at 0: the
    ends are >= 0, so is their mix at mu^2 <= 1, and as |cos(phi)| <= 1 and
    rounding is monotone, |0.5 (r0 - r_pi) cos(phi)| <= 0.5 (r0 + r_pi).
    """
    phis = np.array(phis if isinstance(phis, np.ndarray) else [*phis], float)
    if phis.size < 2:
        raise ValueError("phase grid needs at least two phases")
    ends = _fringe_ends(params)
    rates = []  # psi_plus, psi_minus
    for k, mu in enumerate((mu_plus, mu_minus)):
        mu = params.mu if mu is None else mu
        _check_unit_interval(mu=mu)
        at_mu = ends[0] + mu * mu * (ends[1] - ends[0])
        r0, r_pi = at_mu[k], at_mu[1 - k]  # R_k(pi) is the other R(0)
        rates.append(0.5 * (r0 + r_pi) + 0.5 * (r0 - r_pi) * np.cos(phis))
    vis = [visibility(r) for r in rates]
    return FringeScan(phis, *rates, *vis, *map(fidelity_from_visibility, vis))


def mu_for_visibility(target: float, params: AmplifierParams,
                      herald_class: str = "psi_plus") -> float:
    """Indistinguishability mu whose two-point (0, pi) fringe visibility
    equals `target`: 1.0 or 0.0 when the target is at least the visibility
    at mu = 1 or at most the one at mu = 0, else the root of
    |R(0) - R(pi)| = target (R(0) + R(pi)), which is linear in mu^2. As
    R_minus(0) = R_plus(pi), both classes share this curve."""
    _check_unit_interval(**{"target visibility": target})
    if herald_class not in {cls.name for cls in _TIMEBIN_CLASSES}:
        raise KeyError(f"unknown herald class {herald_class!r}")
    ends = _fringe_ends(params)  # [mu, (R_plus(0), R_plus(pi))]
    if target >= visibility(ends[1]):
        return 1.0
    if target <= visibility(ends[0]):
        return 0.0
    sign = math.copysign(1.0, ends[1, 0] - ends[1, 1])  # R(0) - R(pi), mu = 1
    d0, d1 = sign * (ends[:, 0] - ends[:, 1])
    s0, s1 = ends[:, 0] + ends[:, 1]
    m = (target * s0 - d0) / (d1 - d0 - target * (s1 - s0))
    return math.sqrt(min(max(m, 0.0), 1.0))
