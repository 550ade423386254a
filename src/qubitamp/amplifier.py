"""Heralded photonic amplifier scenarios: circuit construction, exact
branch-enumeration simulation, and the closed-form gain.

Two scenarios are built here. The single-photon (Fock) amplifier couples an
ancilla photon to the output through an unbalanced splitter of transmission
t; the reflected arm meets the input photon on a 50/50 splitter whose two
ports feed threshold detectors, and exactly one click heralds success. The
time-bin qubit amplifier runs one such stage per rail (short/long) and
heralds on one click per rail; the four two-click patterns split into two
herald classes, one of which needs a pi phase correction on the long rail.

The closed-form gain

    G = p_a * t / (p_a * (1 - t) * (1 - p_in * eta) + p_in)

is reproduced exactly by the enumeration for indistinguishable photons and
no dark counts; the simulator is the independent cross-check of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .circuits import (
    BeamSplitter,
    Branch,
    Circuit,
    Mixture,
    PhaseShift,
    mixture_density,
    run_circuit,
)
from .detection import (
    CLICK,
    NO_CLICK,
    Detector,
    DetectorSpec,
    condition,
    measure,
    measure_all,
    pattern_outcomes,
)
from .fock import FockState, MATCHED, ORTHOGONAL, mode_labels


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
    """A set of mutually exclusive click patterns heralding success.

    correction_phase is the phase to apply to the long output rail to
    recover the input qubit for this class (0 or pi).
    """

    name: str
    patterns: tuple[dict, ...]
    correction_phase: float = 0.0


@dataclass(frozen=True)
class ScenarioBundle:
    scenario: str
    params: AmplifierParams
    qubit: QubitSpec | None
    circuit: Circuit
    source: Mixture
    detectors: tuple[Detector, ...]
    herald_classes: tuple[HeraldClass, ...]
    output_paths: tuple[str, ...]


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


def p_out_analytic(t: float, p_a: float, eta: float, p_in: float) -> float:
    """Closed-form heralded output probability G * p_in."""
    return gain_analytic(t, p_a, eta, p_in) * p_in if p_in > 0.0 else 0.0


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


def _source_state(paths, photons) -> FockState:
    """State with one photon per wavefunction added on top of vacuum."""
    labels = mode_labels(paths)
    state = FockState(len(labels), {(0,) * len(labels): 1.0 + 0.0j}, labels)
    for wf in photons:
        amps: dict[tuple, complex] = {}
        for occ, amp in state.amplitudes.items():
            for label, c in wf.items():
                if abs(c) < 1e-18:
                    continue
                idx = state.mode_index(label)
                new = list(occ)
                new[idx] += 1
                value = amp * c * math.sqrt(new[idx])
                key = tuple(new)
                amps[key] = amps.get(key, 0.0) + value
        state = state.with_amplitudes(amps)
    return state


def _ancilla_wavefunction(params: AmplifierParams, path: str) -> dict:
    """Wavefunction mu|matched> + sqrt(1-mu^2)|orthogonal> of one ancilla
    photon on `path`: a coherent superposition of the internal modes."""
    mu = params.mu
    nu = math.sqrt(max(0.0, 1.0 - mu * mu))
    return {(path, MATCHED): mu, (path, ORTHOGONAL): nu}


def _source(paths, slots) -> Mixture:
    """Mixture over the presence combinations of independent photons.

    slots: list of (probability_present, wavefunction). Branches run with
    the earlier slots varying slowest and "absent" before "present";
    zero-weight combinations are dropped.
    """
    combos = [(1.0, [])]
    for p, wf in slots:
        grown = []
        for w, photons in combos:
            grown.append((w * (1.0 - p), photons))
            grown.append((w * p, photons + [wf]))
        combos = [(w, photons) for w, photons in grown if w > 0.0]
    return Mixture([Branch(w, _source_state(paths, photons))
                    for w, photons in combos])


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
    return ScenarioBundle("fock-hpa", params, None, circuit,
                          _source(paths, slots), detectors, (herald,), ("out",))


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
    return ScenarioBundle("timebin-hqa", params, qubit, circuit,
                          _source(paths, slots), detectors, _TIMEBIN_CLASSES,
                          ("out_s", "out_l"))


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
    """Raw conditional analysis of one herald class (no correction applied)."""

    prob: float
    vacuum_weight: float
    single_weight: float
    multi_weight: float
    qubit_density: np.ndarray  # over output rails, trace = single_weight


def herald_conditionals(bundle: ScenarioBundle
                        ) -> list[tuple[HeraldClass, float, Mixture]]:
    """(class, herald probability, conditional output ensemble) per class,
    from one run of the circuit and one joint measurement. An impossible
    class has probability 0 and an empty ensemble."""
    mix = run_circuit(bundle.source, bundle.circuit)
    table = measure_all(mix, list(bundle.detectors))
    return [(cls, *condition(table, {
                outcome for pattern in cls.patterns
                for outcome in pattern_outcomes(pattern, bundle.detectors)}))
            for cls in bundle.herald_classes]


def _heralded_analysis(bundle: ScenarioBundle) -> dict[str, ClassAnalysis]:
    n_rails = len(bundle.output_paths)
    result = {}
    for cls, prob, cond in herald_conditionals(bundle):
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


def _apply_correction(rho: np.ndarray, phase: float) -> np.ndarray:
    if rho.shape[0] < 2 or phase == 0.0:
        return rho
    u = np.diag([1.0, np.exp(1j * phase)])
    return u @ rho @ u.conj().T


def _qubit_fidelity(rho: np.ndarray, qubit: QubitSpec | None,
                    correction_phase: float) -> float | None:
    tr = float(np.trace(rho).real)
    if tr <= 1e-30:
        return None
    if rho.shape == (1, 1) or qubit is None:
        # Fock-state qubit: the single-photon conditional state is |1>.
        return 1.0
    rho = _apply_correction(rho, correction_phase)
    psi = qubit.vector()
    return float((psi.conj() @ rho @ psi).real / tr)


def _gain_from_p_out(params: AmplifierParams, p_out: float) -> float:
    if params.p_in > 0.0:
        return p_out / params.p_in
    # continuous limit of the closed form at p_in = 0
    return gain_analytic(params.t, params.p_a, params.eta, 0.0)


def simulate(bundle: ScenarioBundle) -> HeraldedOutcome:
    """Exact heralded outcome over all herald classes of the scenario.

    Per-class outcomes carry each class's own phase correction; the
    combined outcome mixes the corrected classes weighted by their herald
    probabilities (the feed-forward-corrected amplifier output).
    """
    analysis = _heralded_analysis(bundle)
    per_class = {}
    total_prob = sum(a.prob for a in analysis.values())
    if total_prob <= 1e-30:
        raise ZeroHeraldError(
            f"herald probability vanishes for scenario {bundle.scenario}")
    combined_rho = np.zeros_like(next(iter(analysis.values())).qubit_density)
    vacuum = single = multi = 0.0
    for cls in bundle.herald_classes:
        a = analysis[cls.name]
        rho_corr = _apply_correction(a.qubit_density, cls.correction_phase)
        per_class[cls.name] = HeraldedOutcome(
            herald_class=cls.name,
            herald_prob=a.prob,
            p_out=a.single_weight,
            gain=_gain_from_p_out(bundle.params, a.single_weight),
            vacuum_weight=a.vacuum_weight,
            multi_weight=a.multi_weight,
            output_qubit_density=rho_corr,
            fidelity_conditional=_qubit_fidelity(a.qubit_density, bundle.qubit,
                                                 cls.correction_phase),
        )
        share = a.prob / total_prob
        combined_rho = combined_rho + share * rho_corr
        vacuum += share * a.vacuum_weight
        single += share * a.single_weight
        multi += share * a.multi_weight
    return HeraldedOutcome(
        herald_class="combined",
        herald_prob=total_prob,
        p_out=single,
        gain=_gain_from_p_out(bundle.params, single),
        vacuum_weight=vacuum,
        multi_weight=multi,
        output_qubit_density=combined_rho,
        fidelity_conditional=_qubit_fidelity(combined_rho, bundle.qubit, 0.0),
        per_class=per_class,
    )


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


def _class_rates(params: AmplifierParams, phis) -> dict[str, np.ndarray]:
    """Analyzer rate per herald class: herald probability times the overlap
    of the raw (uncorrected) conditional output with the zero-phase qubit."""
    bundle = build_timebin_hqa(params, QubitSpec.from_phase(0.0))
    rates = {cls.name: [] for cls in bundle.herald_classes}
    for phi in phis:
        circuit = Circuit(bundle.circuit.paths,
                          (PhaseShift(float(phi), "in_l"),)
                          + bundle.circuit.elements)
        shifted = replace(bundle, circuit=circuit)
        for name, a in _heralded_analysis(shifted).items():
            overlap = float((_ANALYZER.conj() @ a.qubit_density
                             @ _ANALYZER).real)
            # a PSD density has a non-negative overlap; clamp rounding dust
            rates[name].append(max(0.0, a.prob * overlap))
    return {name: np.array(vals) for name, vals in rates.items()}


def fringe_scan(params: AmplifierParams, phis,
                mu_plus: float | None = None,
                mu_minus: float | None = None) -> FringeScan:
    """Scan the input-qubit phase and record per-class analyzer rates.

    Each herald class may use its own indistinguishability mu; both default
    to params.mu.
    """
    phis = np.asarray(list(phis), dtype=float)
    if phis.size < 2:
        raise ValueError("phase grid needs at least two phases")
    mu_plus = params.mu if mu_plus is None else mu_plus
    mu_minus = params.mu if mu_minus is None else mu_minus
    scans = {mu_plus: _class_rates(replace(params, mu=mu_plus), phis)}
    if mu_minus not in scans:
        scans[mu_minus] = _class_rates(replace(params, mu=mu_minus), phis)
    rates_plus = scans[mu_plus]["psi_plus"]
    rates_minus = scans[mu_minus]["psi_minus"]
    v_plus = visibility(rates_plus)
    v_minus = visibility(rates_minus)
    return FringeScan(
        phis=phis,
        rate_plus=rates_plus,
        rate_minus=rates_minus,
        visibility_plus=v_plus,
        visibility_minus=v_minus,
        fidelity_plus=fidelity_from_visibility(v_plus),
        fidelity_minus=fidelity_from_visibility(v_minus),
    )


def mu_for_visibility(target: float, params: AmplifierParams,
                      herald_class: str = "psi_plus") -> float:
    """Indistinguishability mu whose fringe visibility equals `target`.

    Bisection on mu against an exact two-point (0, pi) fringe; the
    visibility grows monotonically with mu.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target visibility must lie in [0, 1], got {target}")

    def vis(mu: float) -> float:
        rates = _class_rates(replace(params, mu=mu), (0.0, math.pi))
        return visibility(rates[herald_class])

    lo, hi = 0.0, 1.0
    if target >= vis(1.0):
        return 1.0
    if target <= vis(0.0):
        return 0.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if vis(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
