"""Circuit elements acting on classical ensembles of pure Fock states.

Non-unitary effects (channel loss, detector inefficiency, probabilistic
sources) are represented as weighted mixtures of pure states rather than
density matrices: every scenario handled here involves at most a few
photons, so exact branch enumeration stays small and conditional states
remain directly inspectable.

Elements address named paths; a beam splitter or phase shifter acts
identically on both internal (matched/orthogonal) modes of its paths, and a
loss channel applies jointly to them. Branch order is fixed by construction
(source order, then occupation order within each split), so equal inputs
give equal outputs bit for bit without any sorting.

A circuit is passive and linear, so it maps each creation operator on its
own: a_p+ -> sum_q U[q, p] a_q+, with U the n_paths x n_paths transfer
matrix of `transfer_matrix` (Reck et al., PRL 73, 58 (1994)), the same on
both internal modes. `run_circuit` maps a mixture of one-photon kets by U in
one step; any other mixture goes element by element through the binomial
Fock expansion, the reference for both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockState,
    apply_phase,
    apply_two_mode_unitary,
    beam_splitter_matrix,
    mode_labels,
    one_photon_occupations,
    split_by_occupation,
    tensor,
)
from . import fock


@dataclass(frozen=True)
class BeamSplitter:
    """Two-path splitter with transmission t (see beam_splitter_matrix)."""
    t: float
    paths: tuple[str, str]

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.t}")
        if self.paths[0] == self.paths[1]:
            raise ValueError("beam splitter paths must be distinct")


@dataclass(frozen=True)
class PhaseShift:
    phi: float
    path: str


Element = BeamSplitter | PhaseShift


@dataclass(frozen=True)
class Circuit:
    paths: tuple[str, ...]
    elements: tuple[Element, ...]

    def __post_init__(self):
        registered = set(self.paths)
        for e in self.elements:
            used = set(e.paths) if isinstance(e, BeamSplitter) else {e.path}
            missing = used - registered
            if missing:
                raise ValueError(f"element {e} references unregistered {missing}")


@dataclass(frozen=True)
class Branch:
    weight: float
    state: FockState


class Mixture:
    """Weighted ensemble of normalized pure states.

    Weights sum to one for any physical ensemble; an empty mixture is the
    result of conditioning on an impossible event. Branches keep the order
    in which they were built.
    """

    def __init__(self, branches):
        self.branches = list(branches)
        for b in self.branches:
            if b.weight <= 0.0:
                raise ValueError("branch weights must be positive")

    @classmethod
    def pure(cls, state: FockState) -> "Mixture":
        return cls([Branch(1.0, state)])

    def __len__(self):
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)

    def scaled(self, factor: float) -> "Mixture":
        return Mixture([Branch(b.weight * factor, b.state)
                        for b in self.branches])


def apply_element(m: Mixture, e: Element) -> Mixture:
    """Apply one element to every branch, keeping the branch order."""
    out = []
    u = beam_splitter_matrix(e.t) if isinstance(e, BeamSplitter) else None
    for b in m:
        s = b.state
        if isinstance(e, BeamSplitter):
            ia = s.path_indices(e.paths[0])
            ib = s.path_indices(e.paths[1])
            for k in (0, 1):  # matched pair, then orthogonal pair
                s = apply_two_mode_unitary(s, ia[k], ib[k], u)
        elif isinstance(e, PhaseShift):
            for idx in s.path_indices(e.path):
                s = apply_phase(s, idx, e.phi)
        else:
            raise TypeError(f"unknown element {e!r}")
        out.append(Branch(b.weight, s))
    return Mixture(out)


def _mode_loss(state: FockState, mode: int, eta_keep: float):
    """Loss on a single mode via an auxiliary vacuum mode.

    The mode is coupled to a fresh vacuum mode by a splitter of transmission
    eta_keep; the auxiliary mode is then measured in the occupation basis
    and discarded, yielding one classical branch per number of lost photons.
    """
    aux_label = (("__loss__", fock.MATCHED),) if state.labels else ()
    joined = tensor(state, FockState(1, {(0,): 1.0}, aux_label))
    joined = apply_two_mode_unitary(joined, mode, state.n_modes,
                                    beam_splitter_matrix(eta_keep))
    return [(weight, cond)
            for _, weight, cond in split_by_occupation(joined, (state.n_modes,))]


def apply_loss(m: Mixture, path: str, eta_keep: float) -> Mixture:
    """Loss channel on a path, acting on both of its internal modes."""
    if not 0.0 <= eta_keep <= 1.0:
        raise ValueError(f"eta_keep must lie in [0, 1], got {eta_keep}")
    out = []
    for b in m:
        partial = [(b.weight, b.state)]
        for idx in b.state.path_indices(path):
            partial = [(w * wk, cond) for w, s in partial
                       for wk, cond in _mode_loss(s, idx, eta_keep)]
        out.extend(Branch(w, s) for w, s in partial)
    return Mixture(out)


def transfer_matrix(c: Circuit) -> np.ndarray:
    """Path transfer matrix U of the circuit, indexed [out path, in path] in
    the order of c.paths: a one-photon wavefunction psi over the paths
    leaves as U @ psi. Each splitter updates the rows of its two paths by
    the entries of beam_splitter_matrix (a_i+ -> tau a_i+ + rho a_j+), each
    phase scales the row of its path."""
    index = {p: i for i, p in enumerate(c.paths)}
    u = np.eye(len(index), dtype=complex).tolist()
    for e in c.elements:
        if isinstance(e, BeamSplitter):
            i, j = index[e.paths[0]], index[e.paths[1]]
            tau, rho = math.sqrt(e.t), 1j * math.sqrt(1.0 - e.t)
            u[i], u[j] = ([tau * x + rho * y for x, y in zip(u[i], u[j])],
                          [rho * x + tau * y for x, y in zip(u[i], u[j])])
        elif isinstance(e, PhaseShift):
            phase = cmath.exp(1j * e.phi)
            u[index[e.path]] = [phase * x for x in u[index[e.path]]]
        else:
            raise TypeError(f"unknown element {e!r}")
    return np.array(u, dtype=complex).reshape(len(index), len(index))


def run_circuit(m: Mixture, c: Circuit) -> Mixture:
    """The mixture after the circuit's elements, in order, with the same
    weights and branch order. If every ket of every branch holds exactly
    one photon over the circuit's mode registry, each branch is mapped by
    the transfer matrix, one FockState per branch; otherwise element by
    element."""
    labels = mode_labels(c.paths)
    if not all(b.state.labels == labels
               and all(sum(occ) == 1 for occ in b.state.amplitudes) for b in m):
        for e in c.elements:
            m = apply_element(m, e)
        return m
    n, units = len(labels), one_photon_occupations(len(labels))
    # [branch, path, internal mode]: U acts on the path axis
    psi = np.array([[b.state.amplitudes.get(u, 0.0) for u in units] for b in m],
                   dtype=complex).reshape(len(m), n // 2, 2)
    out = (transfer_matrix(c) @ psi).reshape(len(m), n).tolist()
    return Mixture([Branch(b.weight, FockState(
        n, {u: a for u, a in zip(units, row) if a}, labels))
        for b, row in zip(m, out)])


def merge_branches(m: Mixture) -> Mixture:
    """Combine branches whose states coincide up to a global phase."""
    reps: list[Branch] = []
    for b in m:
        for k, r in enumerate(reps):
            if b.state.n_modes != r.state.n_modes:
                continue
            if abs(abs(b.state.inner(r.state)) - 1.0) <= 1e-10:
                reps[k] = Branch(r.weight + b.weight, r.state)
                break
        else:
            reps.append(b)
    return Mixture(reps)


def mixture_density(m: Mixture, modes=None):
    """Dense density matrix of the ensemble over an explicit ket basis.

    Returns (basis, rho) where basis is the sorted list of occupations with
    support (restricted to `modes` if given, tracing out the rest) and rho
    the corresponding matrix. Intended for small conditioned registers.
    """
    if not m.branches:
        return [], np.zeros((0, 0), dtype=complex)
    n_modes = m.branches[0].state.n_modes
    modes = tuple(range(n_modes)) if modes is None else tuple(modes)
    traced = tuple(i for i in range(n_modes) if i not in modes)

    # (kept occupation, amplitude) by (branch, traced occupation): coherence
    # survives only within one such group
    by_key: dict = {}
    for bid, b in enumerate(m):
        scale = math.sqrt(b.weight)
        for occ, amp in b.state.amplitudes.items():
            by_key.setdefault((bid, tuple(occ[i] for i in traced)), []).append(
                (tuple(occ[i] for i in modes), amp * scale))
    basis = sorted({kept for entries in by_key.values() for kept, _ in entries})
    index = {occ: i for i, occ in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    for entries in by_key.values():
        for ka, va in entries:
            for kb, vb in entries:
                rho[index[ka], index[kb]] += va * np.conj(vb)
    return basis, rho
