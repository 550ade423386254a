import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubitamp import circuits
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
    transfer_matrix,
)
from qubitamp.fock import (FockState, MATCHED, basis_state,
                           beam_splitter_matrix, mode_labels,
                           one_photon_occupations)

from exact_herald import expand


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

    def test_two_photon_branch_sends_the_mixture_element_by_element(
            self, monkeypatch):
        def no_transfer(c):
            raise AssertionError("a two-photon ket took the transfer matrix")

        paths = ("a", "b", "c")
        c = Circuit(paths, (BeamSplitter(0.3, ("a", "b")),
                            PhaseShift(0.4, "b"),
                            BeamSplitter(0.6, ("b", "c"))))
        m = Mixture([Branch(0.7, single_photon({"a": 1}, paths)),
                     Branch(0.3, single_photon({"a": 1, "c": 1}, paths))])
        monkeypatch.setattr(circuits, "transfer_matrix", no_transfer)
        got = run_circuit(m, c)
        want = expand(m, c)
        assert [b.weight for b in got] == [b.weight for b in want]
        for g, w in zip(got, want):
            assert g.state.amplitudes == w.state.amplitudes


def one_photon_vectors(m, n_modes):
    """[branch, mode] amplitudes of a mixture of one-photon kets; a ket
    that is not in a state (pruned or never there) reads 0."""
    out = np.zeros((len(m), n_modes), dtype=complex)
    for row, b in zip(out, m):
        for occ, a in b.state.amplitudes.items():
            assert sum(occ) == 1
            row[occ.index(1)] = a
    return out


@st.composite
def random_circuits(draw):
    paths = tuple(f"p{i}" for i in range(draw(st.integers(2, 6))))
    pair = st.lists(st.sampled_from(paths), min_size=2, max_size=2,
                    unique=True).map(tuple)
    element = st.one_of(
        st.builds(BeamSplitter, st.floats(0.0, 1.0), pair),
        st.builds(PhaseShift, st.floats(-2.0 * math.pi, 2.0 * math.pi),
                  st.sampled_from(paths)))
    return Circuit(paths, tuple(draw(st.lists(element, max_size=10))))


@settings(max_examples=100, deadline=None)
@given(c=random_circuits(), seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
def test_transfer_matrix_run_equals_element_by_element(c, seed, weights):
    # one-photon kets with amplitudes on both internal modes of random
    # paths, one state per branch
    labels = mode_labels(c.paths)
    n = len(labels)
    rng = np.random.default_rng(seed)
    branches = []
    for w in weights:
        amps = (rng.normal(size=n) + 1j * rng.normal(size=n)) * (
            rng.random(n) < 0.6)
        amps[rng.integers(n)] += 1.0  # at least one ket
        amps /= np.linalg.norm(amps)
        branches.append(Branch(w, FockState(n, {
            u: a for u, a in zip(one_photon_occupations(n), amps) if a},
            labels)))
    m = Mixture(branches)
    got = run_circuit(m, c)
    want = expand(m, c)
    assert [b.weight for b in got] == [b.weight for b in want] == weights
    assert all(b.state.labels == labels for b in got)
    assert np.max(np.abs(one_photon_vectors(got, n)
                         - one_photon_vectors(want, n))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(c=random_circuits())
def test_transfer_matrix_is_the_product_of_splitter_blocks(c):
    # each element as an n_paths x n_paths block, beam_splitter_matrix on
    # a splitter's two paths and exp(1j phi) on a phase's path, multiplied
    # onto U in order by a plain product: each entry is at most two nonzero
    # products, so the result must be the same bits
    index = {p: i for i, p in enumerate(c.paths)}
    n = len(index)
    u = np.eye(n, dtype=complex).tolist()
    for e in c.elements:
        block = np.eye(n, dtype=complex)
        if isinstance(e, BeamSplitter):
            ij = [index[p] for p in e.paths]
            block[np.ix_(ij, ij)] = beam_splitter_matrix(e.t)
        else:
            block[index[e.path], index[e.path]] = cmath.exp(1j * e.phi)
        block = block.tolist()
        u = [[sum(block[i][k] * u[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    assert np.array_equal(transfer_matrix(c), np.array(u, dtype=complex))


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
