import itertools
import math

import numpy as np
import pytest

from qubitamp.fock import (
    FockState,
    apply_phase,
    apply_two_mode_unitary,
    basis_state,
    beam_splitter_matrix,
    is_unitary,
    mode_labels,
    split_by_occupation,
    tensor,
)


def random_state(rng, n_modes=3, max_photons=3, kets=4):
    amps = {}
    for _ in range(kets):
        occ = [0] * n_modes
        for _ in range(int(rng.integers(0, max_photons + 1))):
            occ[int(rng.integers(0, n_modes))] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    return FockState(n_modes, amps).normalized()


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def occupation_marginal(state, modes):
    """Probability of each joint occupation of `modes`: the weights of
    split_by_occupation, which detection measures with."""
    return {occ: w for occ, w, _ in split_by_occupation(state, modes)}


def dense_dims(state):
    """Per-mode sizes of a dense grid that holds every ket of the state."""
    return [max(sum(occ) for occ in state.amplitudes) + 1] * state.n_modes


def dense_vector(state):
    """Dense amplitude array over a basis holding every ket (oracle helper)."""
    dims = dense_dims(state)
    vec = np.zeros(dims, dtype=complex)
    for occ, amp in state.amplitudes.items():
        vec[occ] = amp
    return vec


class TestConstruction:
    def test_basis_state(self):
        s = basis_state((1, 0))
        assert s.amplitudes == {(1, 0): 1.0 + 0.0j}
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_negative_occupation(self):
        with pytest.raises(ValueError):
            FockState(2, {(1, -1): 1.0})

    def test_wrong_key_length(self):
        with pytest.raises(ValueError):
            FockState(2, {(1,): 1.0})

    def test_tiny_amplitudes_pruned(self):
        s = FockState(1, {(0,): 1.0, (1,): 1e-16})
        assert (1,) not in s.amplitudes

    def test_labels_must_match_modes(self):
        with pytest.raises(ValueError):
            FockState(1, {(0,): 1.0}, labels=(("a", "matched"), ("a", "orthogonal")))


class TestTensor:
    def test_basis_kets(self):
        s = tensor(basis_state((1,)), basis_state((0,)))
        assert s.amplitudes == {(1, 0): 1.0 + 0.0j}

    def test_distributivity(self):
        plus = FockState(1, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
        s = tensor(plus, basis_state((1,)))
        assert s.amplitudes[(0, 1)] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[(1, 1)] == pytest.approx(1 / math.sqrt(2))

    def test_norm_multiplies(self):
        # oracle: direct summation over the product amplitudes
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_state(rng, n_modes=2, max_photons=2)
            b = random_state(rng, n_modes=1, max_photons=2)
            t = tensor(a, b)
            direct = sum(abs(va * vb) ** 2
                         for va in a.amplitudes.values()
                         for vb in b.amplitudes.values())
            assert t.norm_squared() == pytest.approx(direct, abs=1e-12)
            assert t.norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


class TestTwoModeUnitary:
    def test_identity(self):
        rng = np.random.default_rng(3)
        s = random_state(rng)
        out = apply_two_mode_unitary(s, 0, 1, np.eye(2))
        assert set(out.amplitudes) == set(s.amplitudes)
        for k, v in s.amplitudes.items():
            assert out.amplitudes[k] == pytest.approx(v, abs=1e-14)

    def test_hom_coalescence(self):
        out = apply_two_mode_unitary(basis_state((1, 1)), 0, 1,
                                     beam_splitter_matrix(0.5))
        assert set(out.amplitudes) == {(2, 0), (0, 2)}
        assert abs(out.amplitudes[(2, 0)]) ** 2 == pytest.approx(0.5)

    def test_single_photon_is_matrix(self):
        out = apply_two_mode_unitary(basis_state((1, 0)), 0, 1,
                                     beam_splitter_matrix(0.9))
        assert out.amplitudes[(1, 0)] == pytest.approx(math.sqrt(0.9))
        assert out.amplitudes[(0, 1)] == pytest.approx(1j * math.sqrt(0.1))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_two_mode_unitary(basis_state((1, 0)), 0, 1,
                                   np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("off, accepted", [(2e-12, False),
                                               (5e-13, True)])
    def test_unitarity_tolerance(self, off, accepted):
        # u u^dagger misses the identity by `off`: on the diagonal (a
        # stretched row), then off it (rows that are not orthogonal)
        stretched = beam_splitter_matrix(0.3) * np.array(
            [[math.sqrt(1.0 + off)], [1.0]])
        skewed = np.array([[1.0, 0.0], [off, math.sqrt(1.0 - off * off)]])
        for u in (stretched, skewed):
            assert is_unitary(u) == accepted
            if not accepted:
                with pytest.raises(ValueError, match="not unitary"):
                    apply_two_mode_unitary(basis_state((1, 0)), 0, 1, u)

    def test_malformed_matrix_not_unitary(self):
        assert not is_unitary(np.eye(3))
        assert not is_unitary(np.array([[math.nan, 0.0], [0.0, 1.0]]))
        assert not is_unitary(np.array([[math.inf, 0.0], [0.0, 1.0]]))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            apply_two_mode_unitary(basis_state((1, 0)), 0, 5, np.eye(2))
        with pytest.raises(ValueError):
            apply_two_mode_unitary(basis_state((1, 0)), 1, 1, np.eye(2))

    def test_norm_preserved_over_100_random_elements(self):
        rng = np.random.default_rng(11)
        s = random_state(rng, n_modes=3, max_photons=3)
        for _ in range(100):
            if rng.random() < 0.7:
                i, j = rng.choice(3, size=2, replace=False)
                s = apply_two_mode_unitary(s, int(i), int(j),
                                           random_unitary(rng))
            else:
                s = apply_phase(s, int(rng.integers(0, 3)),
                                float(rng.uniform(0, 2 * math.pi)))
        assert abs(s.norm_squared() - 1.0) <= 1e-12

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(13)
        s = basis_state((2, 1, 0))
        for _ in range(20):
            i, j = rng.choice(3, size=2, replace=False)
            s = apply_two_mode_unitary(s, int(i), int(j), random_unitary(rng))
        assert all(sum(occ) == 3 for occ in s.amplitudes)

    def test_composition(self):
        rng = np.random.default_rng(17)
        s = random_state(rng)
        u, v = random_unitary(rng), random_unitary(rng)
        two_steps = apply_two_mode_unitary(
            apply_two_mode_unitary(s, 0, 2, u), 0, 2, v)
        one_step = apply_two_mode_unitary(s, 0, 2, v @ u)
        keys = set(two_steps.amplitudes) | set(one_step.amplitudes)
        for k in keys:
            assert two_steps.amplitudes.get(k, 0) == pytest.approx(
                one_step.amplitudes.get(k, 0), abs=1e-12)


class TestPhase:
    def test_zero_is_identity(self):
        s = basis_state((1, 2))
        assert apply_phase(s, 0, 0.0).amplitudes == s.amplitudes

    def test_pi_on_single_photon_negates(self):
        out = apply_phase(basis_state((1,)), 0, math.pi)
        assert out.amplitudes[(1,)] == pytest.approx(-1.0, abs=1e-14)

    def test_half_pi_on_two_photons(self):
        out = apply_phase(basis_state((2,)), 0, math.pi / 2)
        assert out.amplitudes[(2,)] == pytest.approx(-1.0, abs=1e-14)

    def test_norm_exactly_preserved(self):
        rng = np.random.default_rng(19)
        s = random_state(rng)
        out = apply_phase(s, 1, 1.234)
        assert out.norm_squared() == pytest.approx(s.norm_squared(), abs=1e-15)


class TestMarginal:
    def test_basis_ket_full_marginal(self):
        s = basis_state((1, 2, 0))
        assert occupation_marginal(s, (0, 1, 2)) == {(1, 2, 0): pytest.approx(1.0)}

    def test_single_mode_marginal(self):
        s = FockState(2, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
        marg = occupation_marginal(s, (0,))
        assert marg[(0,)] == pytest.approx(0.5)
        assert marg[(1,)] == pytest.approx(0.5)

    def test_against_dense_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_state(rng, n_modes=3)
            vec = dense_vector(s)
            marg = occupation_marginal(s, (0, 2))
            dims = dense_dims(s)
            for occ in itertools.product(*[range(d) for d in dims]):
                key = (occ[0], occ[2])
                expected = 0.0
                for n1 in range(dims[1]):
                    expected += abs(vec[occ[0], n1, occ[2]]) ** 2
                if expected > 1e-15 or key in marg:
                    assert marg.get(key, 0.0) == pytest.approx(
                        expected, abs=1e-12)
                break  # one spot check per state is enough with the sum below
            total = sum(marg.values())
            assert total == pytest.approx(s.norm_squared(), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(29)
        s = random_state(rng)
        assert sum(occupation_marginal(s, (0, 1)).values()) == pytest.approx(
            1.0, abs=1e-12)

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            occupation_marginal(basis_state((1, 0)), (0, 0))


class TestSplitByOccupation:
    def test_split_removes_modes_and_weights(self):
        s = FockState(2, {(1, 0): math.sqrt(0.3), (0, 1): math.sqrt(0.7)})
        parts = split_by_occupation(s, (0,))
        assert [occ for occ, _, _ in parts] == [(0,), (1,)]
        weights = {occ: w for occ, w, _ in parts}
        assert weights[(1,)] == pytest.approx(0.3)
        assert weights[(0,)] == pytest.approx(0.7)
        for _, _, cond in parts:
            assert cond.n_modes == 1
            assert cond.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_labels_follow_surviving_modes(self):
        labels = mode_labels(("a", "b"))
        s = basis_state((1, 0, 0, 1), labels=labels)
        parts = split_by_occupation(s, (0, 1))
        _, _, cond = parts[0]
        assert cond.labels == mode_labels(("b",))


def test_vacuum_paths_helper():
    labels = mode_labels(("x", "y"))
    v = basis_state((0,) * 4, labels)
    assert v.path_indices("y") == (2, 3)
