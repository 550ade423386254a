import math

import numpy as np
import pytest

from qubitamp.checks import density_distance
from qubitamp.circuits import (
    BeamSplitter,
    Branch,
    Circuit,
    Mixture,
    PhaseShift,
    apply_element,
    apply_loss,
    merge_branches,
    mixture_density,
    run_circuit,
)
from qubitamp.fock import FockState, MATCHED, basis_state, mode_labels


def single_photon(path_occupations, paths):
    labels = mode_labels(paths)
    occ = [0] * len(labels)
    for path, n in path_occupations.items():
        occ[labels.index((path, MATCHED))] = n
    return basis_state(occ, labels=labels)


def densities_close(m1, m2, tol=1e-12):
    return density_distance(m1, m2) <= tol


class TestElements:
    def test_full_transmission_splitter_is_identity(self):
        m = Mixture.pure(single_photon({"a": 1}, ("a", "b")))
        out = apply_element(m, BeamSplitter(1.0, ("a", "b")))
        assert len(out) == 1
        assert densities_close(m, out)

    def test_lossless_loss_is_identity(self):
        m = Mixture.pure(single_photon({"a": 1}, ("a",)))
        out = apply_loss(m, "a", 1.0)
        assert len(out) == 1
        assert densities_close(m, out)

    def test_loss_splits_single_photon(self):
        m = Mixture.pure(single_photon({"a": 1}, ("a",)))
        out = merge_branches(apply_loss(m, "a", 0.55))
        weights = {}
        for b in out:
            n = max(sum(k) for k in b.state.amplitudes)
            weights[n] = b.weight
        assert weights[1] == pytest.approx(0.55, abs=1e-12)
        assert weights[0] == pytest.approx(0.45, abs=1e-12)

    def test_phase_shift_acts_on_path(self):
        s = single_photon({"a": 1}, ("a", "b"))
        out = apply_element(Mixture.pure(s), PhaseShift(math.pi, "a"))
        amp = next(iter(out)).state.amplitudes
        key = next(iter(s.amplitudes))
        assert amp[key] == pytest.approx(-1.0, abs=1e-14)

    def test_unregistered_path_rejected(self):
        with pytest.raises(ValueError):
            Circuit(("a",), (BeamSplitter(0.5, ("a", "b")),))

    def test_element_parameter_ranges(self):
        with pytest.raises(ValueError):
            BeamSplitter(1.5, ("a", "b"))
        with pytest.raises(ValueError):
            apply_loss(Mixture([]), "a", -0.1)
        with pytest.raises(ValueError):
            BeamSplitter(0.5, ("a", "a"))


class TestLossChannel:
    def test_binomial_law_two_photons(self):
        # independent oracle: binomial thinning of n = 2
        eta = 0.62
        m = Mixture.pure(single_photon({"a": 2}, ("a",)))
        out = merge_branches(apply_loss(m, "a", eta))
        weights = {}
        for b in out:
            n = max(sum(k) for k in b.state.amplitudes)
            weights[n] = weights.get(n, 0.0) + b.weight
        assert weights[2] == pytest.approx(eta ** 2, abs=1e-12)
        assert weights[1] == pytest.approx(2 * eta * (1 - eta), abs=1e-12)
        assert weights[0] == pytest.approx((1 - eta) ** 2, abs=1e-12)

    def test_expected_photon_number_scales(self):
        eta = 0.37
        m = Mixture.pure(single_photon({"a": 3}, ("a",)))
        out = apply_loss(m, "a", eta)
        mean = 0.0
        for b in out:
            for occ, amp in b.state.amplitudes.items():
                mean += b.weight * abs(amp) ** 2 * sum(occ)
        assert mean == pytest.approx(3 * eta, abs=1e-12)

    def test_weights_sum_to_one(self):
        m = Mixture.pure(single_photon({"a": 2, "b": 1}, ("a", "b")))
        out = apply_loss(m, "a", 0.8)
        assert sum(b.weight for b in out) == pytest.approx(1.0, abs=1e-12)

    def test_loss_commutes_with_phase(self):
        s = FockState(2, {(1, 0): math.sqrt(0.4), (2, 0): math.sqrt(0.6)},
                      labels=mode_labels(("a",)))
        m = Mixture.pure(s)
        first = apply_loss(apply_element(m, PhaseShift(0.7, "a")), "a", 0.6)
        second = apply_element(apply_loss(m, "a", 0.6), PhaseShift(0.7, "a"))
        assert densities_close(first, second)

    def test_two_losses_compose(self):
        m = Mixture.pure(single_photon({"a": 2}, ("a",)))
        twice = merge_branches(apply_loss(apply_loss(m, "a", 0.9), "a", 0.7))
        once = merge_branches(apply_loss(m, "a", 0.63))
        assert densities_close(twice, once)

    def test_loss_covers_both_internal_modes(self):
        labels = mode_labels(("a",))
        s = FockState(2, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)},
                      labels=labels)
        out = merge_branches(apply_loss(Mixture.pure(s), "a", 0.5))
        survived = sum(b.weight for b in out
                       if max(sum(k) for k in b.state.amplitudes) == 1)
        assert survived == pytest.approx(0.5, abs=1e-12)


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        m = Mixture.pure(single_photon({"a": 1}, ("a", "b")))
        out = run_circuit(m, Circuit(("a", "b"), ()))
        assert densities_close(m, out)

    def test_splitter_then_inverse_is_identity(self):
        # D(pi) BS(t) D(pi) realizes the inverse of the symmetric splitter
        m = Mixture.pure(single_photon({"a": 1}, ("a", "b")))
        c = Circuit(("a", "b"), (
            BeamSplitter(0.73, ("a", "b")),
            PhaseShift(math.pi, "b"),
            BeamSplitter(0.73, ("a", "b")),
            PhaseShift(math.pi, "b"),
        ))
        out = run_circuit(m, c)
        assert densities_close(m, out)

    def test_amplifier_front_end_routes_ancilla_with_probability_t(self):
        # ancilla injected on the output-side port of the unbalanced splitter
        from qubitamp.amplifier import AmplifierParams, build_fock_hpa

        from exact_herald import source

        t = 0.77
        bundle = build_fock_hpa(AmplifierParams(t=t, p_in=0.0, p_a=1.0, eta=1.0))
        out = run_circuit(source(bundle), bundle.circuit)
        p_out = 0.0
        for b in out:
            im, io = b.state.path_indices("out")
            for occ, amp in b.state.amplitudes.items():
                if occ[im] + occ[io] == 1:
                    p_out += b.weight * abs(amp) ** 2
        assert p_out == pytest.approx(t, abs=1e-12)


class TestMixture:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Mixture([Branch(0.0, basis_state((0,)))])

    def test_merge_combines_equal_states(self):
        s = single_photon({"a": 1}, ("a",))
        phased = s.with_amplitudes(
            {k: v * np.exp(0.3j) for k, v in s.amplitudes.items()})
        merged = merge_branches(Mixture([Branch(0.25, s), Branch(0.35, phased)]))
        assert len(merged) == 1
        assert sum(b.weight for b in merged) == pytest.approx(0.6)

    def test_density_matrix_traces_out_modes(self):
        labels = mode_labels(("a", "b"))
        s = FockState(4, {(1, 0, 0, 0): 1 / math.sqrt(2),
                          (0, 0, 1, 0): 1 / math.sqrt(2)}, labels=labels)
        basis, rho = mixture_density(Mixture.pure(s), modes=(0, 1))
        idx = {k: i for i, k in enumerate(basis)}
        # photon-on-a block keeps no coherence with the traced-out photon-on-b
        assert rho[idx[(1, 0)], idx[(1, 0)]] == pytest.approx(0.5)
        assert rho[idx[(0, 0)], idx[(0, 0)]] == pytest.approx(0.5)
        assert abs(rho[idx[(1, 0)], idx[(0, 0)]]) <= 1e-12
