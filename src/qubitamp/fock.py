"""Sparse pure states in a multimode Fock space.

States are immutable values; every operation returns a new state. Modes are
addressed by integer index, with an ordered registry of labels attached to
each state so that higher layers can speak in terms of named optical paths.
Each path owns two internal modes (``matched`` / ``orthogonal``) used to
model partial spectral distinguishability between photons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MATCHED = "matched"
ORTHOGONAL = "orthogonal"

#: Amplitudes below this magnitude are dropped to keep states sparse.
DROP_TOLERANCE = 1e-15

ModeLabel = tuple[str, str]
Occupation = tuple[int, ...]


def mode_labels(paths) -> tuple[ModeLabel, ...]:
    """Registry for the given paths: two internal modes per path, in order."""
    return tuple((p, i) for p in paths for i in (MATCHED, ORTHOGONAL))


def one_photon_occupations(n_modes: int) -> list[Occupation]:
    """Occupation k holds one photon, in mode k."""
    return [(0,) * k + (1,) + (0,) * (n_modes - 1 - k) for k in range(n_modes)]


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    (a, b), (c, d) = u.tolist()  # entries of u u^dagger - 1; NaN fails
    return all(abs(x) <= 1e-12 for x in (
        abs(a) ** 2 + abs(b) ** 2 - 1.0, abs(c) ** 2 + abs(d) ** 2 - 1.0,
        a * c.conjugate() + b * d.conjugate()))


def beam_splitter_matrix(t: float) -> np.ndarray:
    """Symmetric beam-splitter unitary with transmission t.

    Transmission keeps a photon in its own mode with amplitude sqrt(t);
    reflection carries it to the partner mode with amplitude i*sqrt(1-t).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {t}")
    tau = math.sqrt(t)
    rho = 1j * math.sqrt(1.0 - t)
    return np.array([[tau, rho], [rho, tau]], dtype=complex)


@dataclass(frozen=True, eq=False)
class FockState:
    """Pure multimode bosonic state as a sparse ket-to-amplitude map.

    Invariants enforced at construction: occupation keys have length
    ``n_modes`` and non-negative entries, and amplitudes below
    ``DROP_TOLERANCE`` are pruned.
    """

    n_modes: int
    amplitudes: dict[Occupation, complex]
    labels: tuple[ModeLabel, ...] = field(default=())

    def __post_init__(self):
        if self.labels and len(self.labels) != self.n_modes:
            raise ValueError("mode registry length must match n_modes")
        if self.labels and len(set(self.labels)) != self.n_modes:
            raise ValueError("mode labels must be distinct")
        kept = {}
        for occ, amp in self.amplitudes.items():
            if len(occ) != self.n_modes:
                raise ValueError(f"occupation {occ} has wrong length")
            if min(occ, default=0) < 0:
                raise ValueError(f"occupation {occ} has a negative entry")
            if abs(amp) >= DROP_TOLERANCE:
                kept[occ] = complex(amp)
        object.__setattr__(self, "amplitudes", kept)

    # -- basic queries -------------------------------------------------

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.with_amplitudes({k: a / n for k, a in self.amplitudes.items()})

    def with_amplitudes(self, amps: dict[Occupation, complex]) -> "FockState":
        return FockState(self.n_modes, amps, self.labels)

    def inner(self, other: "FockState") -> complex:
        """<self|other> over the shared ket basis."""
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch")
        small, big = self.amplitudes, other.amplitudes
        if len(big) < len(small):
            return np.conj(other.inner(self))
        return sum(np.conj(a) * big.get(k, 0.0) for k, a in small.items())

    def path_indices(self, path: str) -> tuple[int, int]:
        return (self.labels.index((path, MATCHED)),
                self.labels.index((path, ORTHOGONAL)))


def basis_state(occ, labels=()) -> FockState:
    occ = tuple(int(n) for n in occ)
    return FockState(len(occ), {occ: 1.0 + 0.0j}, tuple(labels))


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; mode registries concatenate, amplitudes multiply."""
    amps = {ka + kb: va * vb for ka, va in a.amplitudes.items()
            for kb, vb in b.amplitudes.items()}
    labels = a.labels + b.labels if (a.labels or b.labels) else ()
    return FockState(a.n_modes + b.n_modes, amps, labels)


def apply_two_mode_unitary(state: FockState, i: int, j: int,
                           u: np.ndarray) -> FockState:
    """Apply a 2x2 unitary to modes i and j.

    The action on creation operators is
    a_i+ -> u00 a_i+ + u10 a_j+  and  a_j+ -> u01 a_i+ + u11 a_j+,
    expanded binomially over every ket in the sparse support.
    """
    if i == j:
        raise ValueError("modes must be distinct")
    for m in (i, j):
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode {m} out of range for {state.n_modes} modes")
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within 1e-12")

    out: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        ni, nj = occ[i], occ[j]
        if ni == 0 and nj == 0:
            out[occ] = out.get(occ, 0.0) + amp
            continue
        base = amp / math.sqrt(math.factorial(ni) * math.factorial(nj))
        for k in range(ni + 1):
            cik = math.comb(ni, k) * u[0, 0] ** k * u[1, 0] ** (ni - k)
            for l in range(nj + 1):
                coeff = (cik * math.comb(nj, l)
                         * u[0, 1] ** l * u[1, 1] ** (nj - l))
                p = k + l
                q = ni + nj - p
                new = list(occ)
                new[i], new[j] = p, q
                value = base * coeff * math.sqrt(
                    math.factorial(p) * math.factorial(q))
                key = tuple(new)
                out[key] = out.get(key, 0.0) + value
    return state.with_amplitudes(out)


def apply_phase(state: FockState, i: int, phi: float) -> FockState:
    """Phase shift on mode i: each ket gains exp(1j * n_i * phi)."""
    if not 0 <= i < state.n_modes:
        raise ValueError(f"mode {i} out of range for {state.n_modes} modes")
    if phi == 0.0:
        return state
    return state.with_amplitudes({
        occ: amp * np.exp(1j * occ[i] * phi)
        for occ, amp in state.amplitudes.items()
    })


def split_by_occupation(state: FockState, modes) -> list[
        tuple[Occupation, float, FockState]]:
    """Measure the given modes in the occupation basis and discard them.

    Returns one entry per observed joint occupation, sorted by occupation:
    (occupation, probability weight, conditional normalized state over the
    remaining modes). A conditional state keeps the phases its amplitudes
    had in `state`.
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("modes must be distinct")
    keep = [m for m in range(state.n_modes) if m not in modes]
    groups: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.amplitudes.items():
        sub = tuple(occ[m] for m in modes)
        rest = tuple(occ[m] for m in keep)
        groups.setdefault(sub, {})[rest] = amp
    labels = (tuple(state.labels[m] for m in keep) if state.labels else ())
    result = []
    for sub in sorted(groups):
        amps = groups[sub]
        weight = sum(abs(a) ** 2 for a in amps.values())
        if weight <= 0.0:
            continue
        scale = 1.0 / math.sqrt(weight)
        cond = FockState(len(keep), {k: a * scale for k, a in amps.items()},
                         labels)
        result.append((sub, weight, cond))
    return result

