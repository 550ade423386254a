"""Acceptance checks: the paper's headline results as one named registry.

Each entry of CHECKS reproduces one acceptance criterion: it takes the
CheckRun of the current pass and returns (ok, detail), detail summing up
the numbers behind the verdict. The test suite (tests/test_acceptance.py)
and `qubitamp selftest` both run CHECKS through `run_check`, so the grids,
bounds and seeds below are their only copy.
"""

import functools
import itertools
import math
import time
from typing import Callable

import numpy as np

from .amplifier import (
    AmplifierParams, QubitSpec, SCENARIOS, build_scenario, build_timebin_hqa,
    compile_scenario, fidelity_from_visibility, fringe_scan, gain_analytic,
    gain_asymptote, hom_coincidence, hom_coincidence_fock, mu_for_visibility,
    simulate, simulate_scenario)
from .circuits import Mixture, apply_loss, mixture_density
from .detection import CLICK, Detector, DetectorSpec, measure
from .fock import FockState, mode_labels
from .montecarlo import estimate_gain, sample_events

#: The acceptance grid: 360 operating points, run on both SCENARIOS.
GRID = {
    "t": (0.5, 0.7, 0.9, 0.99),
    "p_a": (0.296, 0.5, 0.8, 0.9, 1.0),
    "eta": (0.5, 0.7, 1.0),
    "p_in": (0.01, 0.1, 0.2, 0.47, 0.7, 1.0),
}
MC_POINT = AmplifierParams(t=0.9, p_in=0.2, p_a=0.296, eta=0.7)


class CheckRun:
    """What the checks of one pass share: (t, p_a, eta, p_in, gain, p_out)
    over GRID for both scenarios, one scenario table per (scenario, t, eta),
    computed on first use, and the seconds they took."""

    @functools.cached_property
    def grid(self):
        start = time.perf_counter()
        p_a, p_in = np.array(list(itertools.product(GRID["p_a"],
                                                    GRID["p_in"]))).T
        results = []
        for scenario, t, eta in itertools.product(SCENARIOS, GRID["t"],
                                                  GRID["eta"]):
            out = compile_scenario(build_scenario(scenario, AmplifierParams(
                t=t, p_in=1.0, p_a=1.0, eta=eta))).evaluate(p_in, p_a, 1.0)
            results += zip([t] * p_in.size, p_a, [eta] * p_in.size, p_in,
                           out.gain, out.p_out)
        return results, time.perf_counter() - start


def run_check(name: str, run: CheckRun) -> tuple[bool, str]:
    """Run one check; return its verdict and the report line
    `[PASS|FAIL] name  detail (N.Ns)`."""
    start = time.perf_counter()
    ok, detail = CHECKS[name](run)
    seconds = time.perf_counter() - start
    return ok, f"[{'PASS' if ok else 'FAIL'}] {name}  {detail} ({seconds:.1f}s)"


def random_two_path_state(rng) -> FockState:
    """Random normalized state on p0, p1: up to 4 kets of up to 3 photons."""
    amps = {}
    for _ in range(4):
        occ = [0, 0, 0, 0]
        for _ in range(int(rng.integers(0, 4))):
            occ[int(rng.integers(0, 4))] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    return FockState(4, amps, mode_labels(("p0", "p1"))).normalized()


def density_distance(m1: Mixture, m2: Mixture) -> float:
    """Largest entry-wise |difference| of two ensembles' density matrices,
    over the union of their ket bases."""
    (b1, r1), (b2, r2) = mixture_density(m1), mixture_density(m2)
    basis = sorted(set(b1) | set(b2))

    def embed(kets, rho):
        idx = [basis.index(k) for k in kets]
        full = np.zeros((len(basis), len(basis)), dtype=complex)
        full[np.ix_(idx, idx)] = rho
        return full
    return float(np.max(np.abs(embed(b1, r1) - embed(b2, r2)), initial=0.0))


def loss_identity_residual(state: FockState, eta: float,
                           pattern: str = CLICK, dark: float = 0.0) -> float:
    """Distance between threshold detection at efficiency eta on path p0
    and a loss of transmission eta followed by ideal detection: the largest
    |difference| in the pattern's probability and conditional density."""
    m = Mixture.pure(state)
    p1, c1 = measure(m, [Detector("d", "p0", DetectorSpec(eta, dark))],
                     {"d": pattern})
    p2, c2 = measure(apply_loss(m, "p0", eta),
                     [Detector("d", "p0", DetectorSpec(1.0, dark))],
                     {"d": pattern})
    return max(abs(p1 - p2), density_distance(c1, c2) if p1 > 1e-12 else 0.0)


def criterion_1_gain_formula_equality(run):
    results, elapsed = run.grid
    worst = max(abs(gain - gain_analytic(t, pa, eta, pin))
                for t, pa, eta, pin, gain, _ in results)
    return (worst <= 1e-9 and elapsed <= 60.0,
            f"oracle vs closed-form gain on {len(results)} points: "
            f"worst |diff| = {worst:.3e}, grid {elapsed:.1f}s (limit 60s)")


def criterion_2_maximum_gain(run):
    out = simulate_scenario(
        "fock-hpa", AmplifierParams(t=0.9, p_in=1e-6, p_a=1.0, eta=1.0))
    exact = gain_asymptote(0.9)
    points = [(t, 1.0, 1.0, 1.0) for t in GRID["t"]] + [(0.7, 0.8, 0.7, 0.6)]
    worst = max(abs(simulate_scenario(s, AmplifierParams(t, 0.0, *p)).gain
                    / gain_asymptote(t) - 1.0)
                for s in SCENARIOS for t, *p in points)
    return (abs(out.gain - 9.0) <= 1e-3 and exact == 9.0 and worst <= 1e-12,
            f"gain at t = 0.9: oracle = {out.gain:.6f}, asymptote = {exact!r}"
            f", p_in = 0 limit (any p_a, eta, mu): {worst:.1e} relative")


def criterion_3_output_probability_bound(run):
    results, _ = run.grid
    slack = max(p_out - pa * t for t, pa, eta, pin, _, p_out in results)
    best = compile_scenario(build_scenario(
        "fock-hpa", AmplifierParams(t=0.99, p_in=1.0, p_a=0.9, eta=0.7))
    ).evaluate(np.linspace(0.05, 1.0, 20), 0.9, 1.0).p_out.max()
    return (slack <= 1e-12 and best > 0.823,
            f"max p_out - p_a*t = {slack:.3e}, "
            f"best p_out at t = 0.99 = {best:.4f} (> 0.823)")


def criterion_4_fidelity_reproduction(run):
    params = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    mu_plus = mu_for_visibility(0.98, params, "psi_plus")
    mu_minus = mu_for_visibility(0.93, params, "psi_minus")
    scan = fringe_scan(params, phis, mu_plus=mu_plus, mu_minus=mu_minus)
    fid_ok = (
        abs(scan.fidelity_plus
            - fidelity_from_visibility(scan.visibility_plus)) <= 1e-12
        and abs(scan.fidelity_plus - 0.99) <= 1e-9
        and abs(scan.fidelity_minus - 0.965) <= 1e-9)
    ideal = simulate(build_timebin_hqa(params, QubitSpec.from_phase(0.0)))
    unit_ok = all(abs(oc.fidelity_conditional - 1.0) <= 1e-9
                  for oc in ideal.per_class.values())
    ideal_scan = fringe_scan(params, phis)
    symmetry = float(np.max(np.abs(
        ideal_scan.rate_plus - np.roll(ideal_scan.rate_minus, -8))))
    return (fid_ok and unit_ok and symmetry <= 1e-9,
            f"F+ = {scan.fidelity_plus:.12f}, F- = {scan.fidelity_minus:.12f}, "
            f"unit fidelity at mu = 1: {unit_ok}, "
            f"max |R+(phi) - R-(phi+pi)| = {symmetry:.3e}")


def criterion_5_hom_visibility(run):
    _, vis = hom_coincidence(math.sqrt(0.92))
    mus = np.array([0.0, 0.5, 0.959, 1.0])
    worst = np.abs(hom_coincidence(mus)[0] - hom_coincidence_fock(mus)).max()
    return (abs(vis - 0.92) <= 1e-12 and worst <= 1e-12,
            f"dip visibility = {vis:.15f}, "
            f"one table vs closed form: worst |diff| = {worst:.3e}")


def criterion_6_detector_model_identity(run):
    rng = np.random.default_rng(424242)
    worst = max(loss_identity_residual(random_two_path_state(rng), 0.7)
                for _ in range(100))
    return (worst <= 1e-12,
            f"efficiency 0.7 vs loss(0.7) + ideal detection on 100 random "
            f"states: worst |diff| = {worst:.3e}")


def criterion_7_monte_carlo_consistency(run):
    start = time.perf_counter()
    oracle = simulate_scenario("fock-hpa", MC_POINT).gain

    def within(seed, n_pulses, n_sigma):
        est = estimate_gain(sample_events(MC_POINT, n_pulses, seed), "herald")
        return abs(est.value - oracle) <= n_sigma * est.error

    hits = sum(within(seed, 1_000_000, 5.0) for seed in range(30))
    coverage = sum(within(10_000 + seed, 20_000, 1.0)
                   for seed in range(200)) / 200
    elapsed = time.perf_counter() - start
    return (hits >= 29 and 0.60 <= coverage <= 0.75 and elapsed <= 300.0,
            f"{hits}/30 seeds within 5 sigma, 1-sigma coverage = "
            f"{coverage:.1%} (60-75%), {elapsed:.1f}s (limit 300s)")


#: Check name -> check, in criterion order.
CHECKS: dict[str, Callable[[CheckRun], tuple[bool, str]]] = {
    fn.__name__: fn for fn in (
        criterion_1_gain_formula_equality, criterion_2_maximum_gain,
        criterion_3_output_probability_bound,
        criterion_4_fidelity_reproduction, criterion_5_hom_visibility,
        criterion_6_detector_model_identity,
        criterion_7_monte_carlo_consistency)}
