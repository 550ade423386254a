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
(p_in, p_a, mu) is a weighted sum over the table. The passive linear
circuits map each photon's creation operator on its own and act alike on
both internal modes, so each source photon runs through the circuit once,
at mu = 1; at mu = 0 an ancilla leaves the same way in the orthogonal
mode. The kets of every combination are built as arrays from the mapped
photons, and each herald class weighs them by a sum over its exclusive
click patterns of per-detector click and no-click probabilities.

The same table fixes the time-bin fringes. Conjugation maps the circuit
onto itself (a splitter has U* = Z U Z; the ancillas are real), so each
class's analyzer rate is even in the input phase: R_k(-phi) = R_k(phi). A
pi phase on in_l swaps l_a and l_b, so R_minus(phi) = R_plus(phi + pi).
Hence R_plus, R_minus = a +- b cos(phi), fixed by the rates at phi = 0.

The closed-form gain

    G = p_a * t / (p_a * (1 - t) * (1 - p_in * eta) + p_in)

is reproduced exactly by the table for indistinguishable photons and no
dark counts; the simulator is the independent cross-check of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .circuits import BeamSplitter, Circuit, Mixture, run_circuit
from .detection import (
    ANY,
    CLICK,
    MIN_OUTCOME_PROB,
    NO_CLICK,
    Detector,
    DetectorSpec,
    click_prob,
    measure,
    no_click_weight,
)
# Not called here: benchmarks/spans.py wraps amplifier.mixture_density and
# amplifier.measure_all by name, so the names stay importable from this module.
from .circuits import mixture_density  # noqa: F401
from .detection import measure_all  # noqa: F401
from .fock import DROP_TOLERANCE, FockState, MATCHED, ORTHOGONAL, mode_labels


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
        for name in ("t", "p_in", "p_a", "eta", "mu"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
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
        if abs(n - 1.0) > 1e-12:
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
    scenario: str
    params: AmplifierParams
    qubit: QubitSpec | None
    circuit: Circuit
    #: (presence probability, wavefunction) per source photon, input first
    slots: tuple[tuple[float, dict], ...]
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


def gain_analytic(t: float, p_a: float, eta: float, p_in: float) -> float:
    """Closed-form heralded gain for threshold detectors of efficiency eta."""
    for name, v in (("t", t), ("p_a", p_a), ("eta", eta), ("p_in", p_in)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    denom = p_a * (1.0 - t) * (1.0 - p_in * eta) + p_in
    if denom <= 0.0:
        raise UndefinedGainError(
            f"gain undefined for t={t}, p_a={p_a}, eta={eta}, p_in={p_in}")
    return p_a * t / denom


def gain_asymptote(t: float) -> float:
    """High-loss gain limit t / (1 - t).

    Evaluated in exact rational arithmetic on the shortest decimal form of
    t: the quotient amplifies the binary representation error of a decimal
    transmission by 1/(1-t)^2, so 0.9 would otherwise miss 9 by ~2e-15.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"asymptote defined for t in [0, 1), got {t}")
    exact = Fraction(repr(float(t)))
    return float(exact / (1 - exact))


def visibility(rates) -> float:
    """Fringe visibility (max - min) / (max + min) of non-negative rates."""
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0 or np.any(rates < 0.0):
        raise ValueError("rates must be a non-empty non-negative collection")
    hi, lo = float(rates.max()), float(rates.min())
    if hi <= 0.0:
        raise ValueError("cannot compute visibility of all-zero rates")
    return (hi - lo) / (hi + lo)


def fidelity_from_visibility(v: float) -> float:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return (1.0 + v) / 2.0


def hom_coincidence(mu: float) -> tuple[float, float]:
    """Two-photon coincidence and dip visibility for internal overlap mu.

    Two single photons with mode overlap mu meeting on a 50/50 splitter
    coincide with probability (1 - mu^2) / 2; the dip visibility is mu^2.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return (1.0 - mu * mu) / 2.0, mu * mu


def hom_coincidence_fock(mu: float) -> float:
    """Coincidence probability from the full two-photon Fock simulation."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    paths = ("a", "b")
    state = _source_state(paths, [
        {("a", MATCHED): 1.0},
        {("b", MATCHED): mu, ("b", ORTHOGONAL): math.sqrt(1.0 - mu * mu)},
    ])
    mix = run_circuit(Mixture.pure(state),
                      Circuit(paths, (BeamSplitter(0.5, ("a", "b")),)))
    # two photons: both ideal threshold detectors click iff one each
    ideal = [Detector(p, p, DetectorSpec(1.0)) for p in paths]
    coincidence, _ = measure(mix, ideal, {p: CLICK for p in paths})
    return coincidence


# -- source construction ----------------------------------------------


def _combination_kets(photons: np.ndarray) -> tuple[np.ndarray, ...]:
    """Kets of every presence combination of the one-photon states
    photons[set, photon, mode], as arrays (cell, occupation, amplitude) of
    one row per ket, sorted by cell and then occupation (mode 0 first).
    Cell s * 2**n_photons + c is the combination of set s whose presence
    bits, photon 0 first, are the binary digits of c. Each choice of one
    mode per present photon adds the product of their amplitudes to the
    occupation it fills, times sqrt(prod n!); amplitudes below
    DROP_TOLERANCE are set to 0."""
    n_sets, n_photons, n_modes = photons.shape
    # a row's key: its cell and occupation as digits in base n_photons + 1
    base, scale = n_photons + 1, (n_photons + 1) ** n_modes
    place = base ** np.arange(n_modes - 1, -1, -1)
    # option 0 leaves a photon out, option 1 + i puts it in mode i; every
    # choice of one option per photon spans amp[set, choice], key[set, choice]
    options = np.concatenate((np.ones((n_sets, n_photons, 1)), photons), axis=2)
    amp = np.ones((n_sets, 1))
    key = (np.arange(n_sets)[:, None] << n_photons) * scale
    for j in range(n_photons):
        amp = (amp[:, :, None] * options[:, j, None]).reshape(n_sets, -1)
        key = (key[:, :, None] + np.concatenate((
            [0], place + (scale << n_photons - 1 - j)))).reshape(n_sets, -1)
    at = amp.ravel().nonzero()[0]
    key = key.ravel()[at]
    order = key.argsort(kind="stable")  # merge the choices of one ket
    key = key[order]
    first = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    amp = np.add.reduceat(amp.ravel()[at[order]], first)
    occ = key[first, None] // place % base
    amp *= np.sqrt([math.factorial(n) for n in range(base)])[occ].prod(axis=1)
    amp[abs(amp) < DROP_TOLERANCE] = 0.0
    return key[first] // scale, occ, amp


def _source_state(paths, photons) -> FockState:
    """State with one photon per wavefunction added on top of vacuum."""
    labels = mode_labels(paths)
    cell, occ, amp = _combination_kets(np.array(
        [[wf.get(label, 0.0) for label in labels] for wf in photons],
        dtype=complex).reshape(1, len(photons), len(labels)))
    every = cell == (1 << len(photons)) - 1
    return FockState(len(labels), dict(zip(map(tuple, occ[every].tolist()),
                                           amp[every])), labels)


def _ancilla_wavefunction(params: AmplifierParams, path: str) -> dict:
    """Wavefunction mu|matched> + sqrt(1-mu^2)|orthogonal> of one ancilla
    photon on `path`: a coherent superposition of the internal modes."""
    mu = params.mu
    nu = math.sqrt(max(0.0, 1.0 - mu * mu))
    return {(path, MATCHED): mu, (path, ORTHOGONAL): nu}


def _presence_weights(probs) -> np.ndarray:
    """Weight of each presence combination of independent slots present
    with probabilities `probs`, on a last axis whose entry c is the
    combination with presence bits, slot 0 first, the binary digits of c.
    Entries of probs may be arrays; they broadcast against each other."""
    weights = np.ones(np.broadcast_shapes(*map(np.shape, probs)) + (1,))
    for p in probs:
        p = np.asarray(p, dtype=float)[..., None, None]
        weights = (weights[..., :, None] * np.concatenate((1.0 - p, p), -1)
                   ).reshape(weights.shape[:-1] + (-1,))
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
    slots = [
        (params.p_in, {("in", MATCHED): 1.0}),
        (params.p_a, _ancilla_wavefunction(params, "out")),
    ]
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
    return ScenarioBundle("fock-hpa", params, None, circuit, tuple(slots),
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
    slots = [
        (params.p_in, input_wf),
        (params.p_a, _ancilla_wavefunction(params, "out_s")),
        (params.p_a, _ancilla_wavefunction(params, "out_l")),
    ]
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
    return ScenarioBundle("timebin-hqa", params, qubit, circuit, tuple(slots),
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


@dataclass(frozen=True)
class ClassAnalysis:
    """Conditional analysis of one herald class (no correction applied)."""

    prob: float
    vacuum_weight: float
    single_weight: float
    multi_weight: float
    qubit_density: np.ndarray  # over output rails, trace = single_weight


def _apply_correction(rho: np.ndarray, phase: float) -> np.ndarray:
    if rho.shape[-1] < 2 or phase == 0.0:
        return rho
    u = np.diag([1.0, np.exp(1j * phase)])
    return u @ rho @ u.conj().T


def _qubit_fidelity(rho: np.ndarray, qubit: QubitSpec | None,
                    correction_phase: float):
    """<psi|rho|psi> / tr(rho) of the corrected output and the input qubit
    (1 for the Fock-state qubit, whose single-photon output is |1>); None,
    or NaN at points of an array, without a single photon out."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    psi = np.ones(1) if qubit is None else qubit.vector()
    overlap = (psi.conj() @ _apply_correction(rho, correction_phase) @ psi).real
    some = tr > 1e-30
    fidelity = np.where(some, overlap, np.nan) / np.where(some, tr, 1.0)
    return None if np.ndim(fidelity) == 0 and not some else fidelity


def _gain(spec, p_in, p_a, p_out):
    """(gain, p_out): p_out / p_in and p_out, but below the smallest normal
    p_in without dark counts, the closed form (the p_in -> 0 limit at any mu)
    and gain * p_in. Dark counts herald a photon out at p_in = 0 (gain inf)."""
    p_in, p_a, p_out = np.broadcast_arrays(p_in, p_a, p_out)
    with np.errstate(all="ignore"):
        gain = np.array(p_out / p_in)
    if spec.params.dark_click_prob == 0.0:
        tiny = p_in < np.finfo(float).tiny
        gain[tiny] = [gain_analytic(spec.params.t, a, spec.params.eta, p)
                      for a, p in zip(p_a[tiny], p_in[tiny])]
        p_out = np.where(tiny, gain * p_in, p_out)
    return gain[()], p_out[()]


def _combine(spec, analysis: dict[str, ClassAnalysis], p_in,
             p_a) -> HeraldedOutcome:
    """Outcome over the herald classes of `spec` (a ScenarioBundle or
    ScenarioTable) from their analysis at p_in, p_a. Per-class outcomes
    carry their class's phase correction; the combined outcome mixes the
    corrected classes weighted by herald probability (the
    feed-forward-corrected amplifier output)."""
    total_prob = sum(a.prob for a in analysis.values())
    if np.any(total_prob <= 1e-30):
        raise ZeroHeraldError(
            f"herald probability vanishes for scenario {spec.scenario}")
    per_class = {}
    combined_rho = 0.0
    vacuum = single = multi = 0.0
    for cls in spec.herald_classes:
        a = analysis[cls.name]
        rho_corr = _apply_correction(a.qubit_density, cls.correction_phase)
        gain, p_out = _gain(spec, p_in, p_a, a.single_weight)
        per_class[cls.name] = HeraldedOutcome(
            herald_class=cls.name,
            herald_prob=a.prob,
            p_out=p_out,
            gain=gain,
            vacuum_weight=a.vacuum_weight,
            multi_weight=a.multi_weight,
            output_qubit_density=rho_corr,
            fidelity_conditional=_qubit_fidelity(a.qubit_density, spec.qubit,
                                                 cls.correction_phase),
        )
        share = a.prob / total_prob
        combined_rho += np.expand_dims(share, (-2, -1)) * rho_corr
        vacuum += share * a.vacuum_weight
        single += share * a.single_weight
        multi += share * a.multi_weight
    gain, p_out = _gain(spec, p_in, p_a, single)
    return HeraldedOutcome(
        herald_class="combined",
        herald_prob=total_prob,
        p_out=p_out,
        gain=gain,
        vacuum_weight=vacuum,
        multi_weight=multi,
        output_qubit_density=combined_rho,
        fidelity_conditional=_qubit_fidelity(combined_rho, spec.qubit, 0.0),
        per_class=per_class,
    )


@dataclass(frozen=True)
class ScenarioTable:
    """Unnormalised herald-class outputs of one scenario at fixed t, eta,
    dark count and qubit. cells[m, k, c] holds (prob, prob * vacuum,
    prob * single, prob * multi) of herald class k at mu = m for the
    presence combination c whose presence bits, slot 0 (the input photon)
    first, are the binary digits of c; rails[m, k, c] holds the class's
    output rail density times prob."""

    scenario: str
    params: AmplifierParams  # its p_in, p_a and mu are not used
    qubit: QubitSpec | None
    herald_classes: tuple[HeraldClass, ...]
    cells: np.ndarray
    rails: np.ndarray

    def presence_weights(self, p_in, p_a) -> np.ndarray:
        """Weights of the presence combinations (the cells' last axis)."""
        n_ancillas = self.cells.shape[2].bit_length() - 2
        return _presence_weights([p_in] + [p_a] * n_ancillas)

    def evaluate(self, p_in, p_a, mu: float) -> HeraldedOutcome:
        """Heralded outcome at input and ancilla presence probabilities
        p_in, p_a and overlap mu. p_in and p_a may be arrays: they
        broadcast against each other, and so does every outcome field."""
        m = mu * mu
        weights = self.presence_weights(p_in, p_a)
        analysis = {}
        for cls, cells, rails in zip(
                self.herald_classes,
                (1.0 - m) * self.cells[0] + m * self.cells[1],
                (1.0 - m) * self.rails[0] + m * self.rails[1]):
            prob, *weighted = np.moveaxis(weights @ cells, -1, 0)
            keep = prob > MIN_OUTCOME_PROB  # else the class is impossible
            denom = np.where(keep, prob, 1.0)
            rho = np.einsum("...c,cij->...ij", weights, rails)
            analysis[cls.name] = ClassAnalysis(
                prob * keep, *(w / denom * keep for w in weighted),
                rho / denom[..., None, None] * keep[..., None, None])
        return _combine(self, analysis, p_in, p_a)


def _run_photon(circuit: Circuit, wf: dict) -> np.ndarray:
    """Mode amplitudes, over the circuit's mode labels, of the one photon
    `wf` after the circuit."""
    labels = mode_labels(circuit.paths)
    state = FockState(len(labels), {
        tuple(int(label == m) for m in labels): c for label, c in wf.items()},
        labels)
    out = run_circuit(Mixture.pure(state), circuit).branches[0].state
    vector = np.zeros(out.n_modes, dtype=complex)
    for occ, a in out.amplitudes.items():
        vector[occ.index(1)] = a
    return vector


def _photon_outputs(bundle: ScenarioBundle) -> np.ndarray:
    """Mode amplitudes of each of the bundle's source photons after the
    circuit, [slot, mode], from one circuit run per photon."""
    return np.array([_run_photon(bundle.circuit, wf) for _, wf in bundle.slots])


def _herald_cells(bundle: ScenarioBundle, photons) -> tuple[np.ndarray, ...]:
    """cells and rails (see ScenarioTable) of every presence combination of
    the photon outputs photons[m] (see _combination_kets) in one pass; the
    rails are the paths no detector watches."""
    labels = mode_labels(bundle.circuit.paths)
    detected = [labels.index((d.path, i)) for d in bundle.detectors
                for i in (MATCHED, ORTHOGONAL)]
    kept = [i for i in range(len(labels)) if i not in detected]
    n_det, n_rails = len(bundle.detectors), len(kept) // 2
    n_sets, n_photons = photons.shape[:2]
    base = n_photons + 1  # above any photon count
    # detected modes first: the kets of a cell come grouped by detected
    # occupation, and the kets of one group are coherent
    cell, occ, amp = _combination_kets(photons[..., detected + kept])
    det, out = occ[:, :2 * n_det], occ[:, 2 * n_det:]

    # each class's probability at every vector of photon counts at the
    # detectors, [class, count vector]: the sum over its patterns of the
    # product over detectors of the no-click or click probability, or 1
    eta, dark = np.array([(d.spec.eta, d.spec.dark_click_prob)
                          for d in bundle.detectors]).T[..., None]
    n = np.arange(base)
    model = np.array((no_click_weight(n, eta, dark), click_prob(n, eta, dark),
                      np.ones((n_det, base))))  # [requirement, detector, n]
    choice = {NO_CLICK: 0, CLICK: 1, ANY: 2}
    factors = model[[[choice[p.get(d.name, ANY)] for d in bundle.detectors]
                     for cls in bundle.herald_classes for p in cls.patterns],
                    np.arange(n_det)]  # [pattern, detector, n]
    products = factors[:, 0]
    for d in range(1, n_det):  # detector 0 the most significant digit
        products = (products[:, :, None] * factors[:, d, None]).reshape(
            len(factors), -1)
    starts = list(itertools.accumulate(
        (len(cls.patterns) for cls in bundle.herald_classes[:-1]), initial=0))
    # each ket's class weights, [ket, class, 1]
    weights = np.add.reduceat(products, starts).T[
        det @ (base ** np.arange(n_det - 1, -1, -1)).repeat(2), :, None]
    in_cell = cell == np.arange(n_sets << n_photons)[:, None]

    # the norm, then the norm with 0, 1 and 2+ photons out
    n_out = out.sum(axis=1)
    cells = in_cell @ (weights * abs(amp[:, None, None]) ** 2 * np.array(
        ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)))[np.minimum(n_out, 2), None]
                       ).reshape(len(amp), -1)
    # the single photons out of each group, [group, rail, internal mode]
    group = cell * base ** (2 * n_det) + det @ base ** np.arange(2 * n_det)
    first = np.concatenate(([True], group[1:] != group[:-1])).nonzero()[0]
    single = np.add.reduceat(out * (amp * (n_out == 1))[:, None], first
                             ).reshape(len(first), n_rails, 2)
    shape = (n_sets, 1 << n_photons, len(bundle.herald_classes))
    rails = in_cell[:, first] @ (weights[first] * (
        single @ single.conj().swapaxes(1, 2)).reshape(
            len(first), 1, n_rails ** 2)).reshape(len(first), -1)
    cells = cells.reshape(shape + (4,)).swapaxes(1, 2)
    rails = rails.reshape(shape + (n_rails, n_rails)).swapaxes(1, 2)
    impossible = cells[..., 0] <= MIN_OUTCOME_PROB
    cells[impossible], rails[impossible] = 0.0, 0.0
    return cells, rails


def compile_scenario(scenario: str, params: AmplifierParams,
                     qubit: QubitSpec | None = None) -> ScenarioTable:
    """The scenario table at params' t, eta and dark count: one circuit run
    per source photon at mu = 1, then one pass over the output kets of every
    presence combination at mu = 0 and 1 (see the module docstring)."""
    bundle = build_scenario(scenario, replace(params, mu=1.0), qubit)
    at_1 = _photon_outputs(bundle)
    # the photons at mu = 0, then at mu = 1. The circuit acts alike on both
    # internal modes, so an ancilla at mu = 0 (all orthogonal) leaves as at
    # mu = 1 with its modes relabelled; the input photon (slot 0) does not
    # depend on mu
    photons = np.array((at_1, at_1))
    photons[0, 1:] = 0.0
    photons[0, 1:, 1::2] = at_1[1:, 0::2]
    cells, rails = _herald_cells(bundle, photons)
    return ScenarioTable(scenario, params, bundle.qubit,
                         bundle.herald_classes, cells, rails)


def simulate(bundle: ScenarioBundle) -> HeraldedOutcome:
    """Exact heralded outcome at the bundle's operating point: the table of
    its scenario, params and qubit (see compile_scenario), evaluated at one
    point. Per-class outcomes carry their class's phase correction."""
    p = bundle.params
    return compile_scenario(bundle.scenario, p, bundle.qubit).evaluate(
        p.p_in, p.p_a, p.mu)


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
    table = compile_scenario("timebin-hqa", params)
    weights = table.presence_weights(params.p_in, params.p_a)
    prob = table.cells[..., 0] @ weights
    if prob.sum(axis=1).max() <= 1e-30:
        raise ZeroHeraldError(
            "herald probability vanishes for scenario timebin-hqa")
    overlap = np.einsum("c,mkcij,i,j->mk", weights, table.rails, _ANALYZER,
                        _ANALYZER).real
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
    ZeroHeraldError if no herald can occur.
    """
    phis = np.asarray(list(phis), dtype=float)
    if phis.size < 2:
        raise ValueError("phase grid needs at least two phases")
    ends = _fringe_ends(params)
    rates = []  # psi_plus, psi_minus
    for k, mu in enumerate((mu_plus, mu_minus)):
        # replace() rejects a mu outside [0, 1]
        mu = replace(params, mu=params.mu if mu is None else mu).mu
        at_mu = ends[0] + mu * mu * (ends[1] - ends[0])
        r0, r_pi = at_mu[k], at_mu[1 - k]  # R_k(pi) is the other R(0)
        fringe = 0.5 * (r0 + r_pi) + 0.5 * (r0 - r_pi) * np.cos(phis)
        rates.append(np.maximum(fringe, 0.0))  # clamp rounding dust
    v_plus, v_minus = map(visibility, rates)
    return FringeScan(phis, *rates, v_plus, v_minus,
                      fidelity_from_visibility(v_plus),
                      fidelity_from_visibility(v_minus))


def mu_for_visibility(target: float, params: AmplifierParams,
                      herald_class: str = "psi_plus") -> float:
    """Indistinguishability mu whose two-point (0, pi) fringe visibility
    equals `target`: 1.0 or 0.0 when the target is at least the visibility
    at mu = 1 or at most the one at mu = 0, else the root of
    |R(0) - R(pi)| = target (R(0) + R(pi)), which is linear in mu^2. As
    R_minus(0) = R_plus(pi), both classes share this curve."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target visibility must lie in [0, 1], got {target}")
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
