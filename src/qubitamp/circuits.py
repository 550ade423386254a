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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    FockState,
    apply_phase,
    apply_two_mode_unitary,
    beam_splitter_matrix,
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
            grown = []
            for w, s in partial:
                for wk, cond in _mode_loss(s, idx, eta_keep):
                    grown.append((w * wk, cond))
            partial = grown
        out.extend(Branch(w, s) for w, s in partial)
    return Mixture(out)


def run_circuit(m: Mixture, c: Circuit) -> Mixture:
    for e in c.elements:
        m = apply_element(m, e)
    return m


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
    import numpy as np

    if not m.branches:
        return [], np.zeros((0, 0), dtype=complex)
    n_modes = m.branches[0].state.n_modes
    modes = tuple(range(n_modes)) if modes is None else tuple(modes)
    traced = tuple(i for i in range(n_modes) if i not in modes)

    terms = []  # (traced occupation, kept occupation, amplitude, branch id)
    support = set()
    for bid, b in enumerate(m):
        scale = math.sqrt(b.weight)
        for occ, amp in b.state.amplitudes.items():
            kept = tuple(occ[i] for i in modes)
            rest = tuple(occ[i] for i in traced)
            terms.append((rest, kept, amp * scale, bid))
            support.add(kept)
    basis = sorted(support)
    index = {occ: i for i, occ in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    # group by (branch, traced occupation): coherence survives only within
    by_key: dict = {}
    for rest, kept, amp, bid in terms:
        by_key.setdefault((bid, rest), []).append((kept, amp))
    for entries in by_key.values():
        for ka, va in entries:
            for kb, vb in entries:
                rho[index[ka], index[kb]] += va * np.conj(vb)
    return basis, rho
