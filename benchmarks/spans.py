"""In-memory span recording around qubitamp's layer functions.

A span is recorded for every call of a wrapped function: its name, start
and end (``time.perf_counter`` seconds), the id of the enclosing span (-1
for none), the id of the benchmark operation that caused it, and two work
counts taken from the call's arguments and result. Wrappers are installed
where each caller looks the name up (``from .fock import ...`` copies a
name into the importing module, so every such copy is replaced) and the
originals are put back when the ``installed`` context exits. No file of
the package changes.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from contextlib import contextmanager

from qubitamp import amplifier, circuits, cli, detection, fock, montecarlo

NAME, START, END, PARENT, OP, N_IN, N_OUT = range(7)


def _csv_out_size(args, kwargs, result):
    """cli.main counter: bytes of the CSV written to --out."""
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" not in argv:
        return 0, 0
    try:
        return 0, os.path.getsize(argv[argv.index("--out") + 1])
    except OSError:
        return 0, 0


#: span name -> (places the callers look the function up, work counter).
#: A counter maps (args, kwargs, result) to (work in, work out).
TARGETS = {
    "fock.FockState.__post_init__": ([(fock.FockState, "__post_init__")], None),
    "fock.apply_two_mode_unitary": (
        [(fock, "apply_two_mode_unitary"), (circuits, "apply_two_mode_unitary")],
        lambda a, k, r: (len(a[0].amplitudes), 0)),
    "fock.split_by_occupation": (
        [(fock, "split_by_occupation"), (circuits, "split_by_occupation"),
         (detection, "split_by_occupation")], None),
    "circuits.run_circuit": (
        [(circuits, "run_circuit"), (amplifier, "run_circuit"),
         (montecarlo, "run_circuit")],
        lambda a, k, r: (len(a[0]), len(r))),
    "circuits.merge_branches": (
        [(circuits, "merge_branches"), (detection, "merge_branches")],
        lambda a, k, r: (len(a[0]), len(r))),
    "circuits.mixture_density": (
        [(circuits, "mixture_density"), (amplifier, "mixture_density")],
        lambda a, k, r: (0, len(r[0]))),
    "detection.measure_all": (
        [(detection, "measure_all"), (amplifier, "measure_all"),
         (montecarlo, "measure_all")],
        lambda a, k, r: (0, len(r))),
    "detection.measure": ([(detection, "measure"), (montecarlo, "measure")], None),
    "amplifier.build_scenario": (
        [(amplifier, "build_scenario"), (montecarlo, "build_scenario")], None),
    "amplifier.simulate": ([(amplifier, "simulate")], None),
    "amplifier.fringe_scan": ([(amplifier, "fringe_scan"), (cli, "fringe_scan")],
                              None),
    "amplifier.mu_for_visibility": (
        [(amplifier, "mu_for_visibility"), (cli, "mu_for_visibility")], None),
    "montecarlo.sample_events": (
        [(montecarlo, "sample_events"), (cli, "sample_events")],
        lambda a, k, r: (r.n_pulses, 0)),
    "montecarlo.table_build": ([(montecarlo, "_branch_outcome_table")], None),
    "cli.main": ([(cli, "main")], _csv_out_size),
}


class Recorder:
    """Collects spans in memory; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []
        self._stack = [-1]

    def begin_op(self, label: str) -> None:
        self.ops.append(label)

    def wrap(self, name, fn, counter=None):
        spans, stack, ops, clock = self.spans, self._stack, self.ops, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), 0.0, stack[-1], len(ops) - 1, 0, 0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if counter is not None:
                span[N_IN], span[N_OUT] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target with its recording wrapper; always restore."""
        saved = []
        try:
            for name, (sites, counter) in TARGETS.items():
                owner, attr = sites[0]
                wrapper = self.wrap(name, getattr(owner, attr), counter)
                for owner, attr in sites:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("id,name,start,end,parent,op,n_in,n_out\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{self.ops[s[OP]] if s[OP] >= 0 else ''},"
                         f"{s[N_IN]},{s[N_OUT]}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for sid, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    n_in: dict[str, int] = {}
    n_out: dict[str, int] = {}
    basis_max = 0
    under_mfv = [False] * len(spans)
    circuit_runs = 0
    for sid, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        n_in[name] = n_in.get(name, 0) + s[N_IN]
        n_out[name] = n_out.get(name, 0) + s[N_OUT]
        if name == "circuits.mixture_density":
            basis_max = max(basis_max, s[N_OUT])
        parent = s[PARENT]
        if parent >= 0:
            under_mfv[sid] = (under_mfv[parent] or spans[parent][NAME]
                              == "amplifier.mu_for_visibility")
        if name == "circuits.run_circuit" and under_mfv[sid]:
            circuit_runs += 1
    sampling = [sid for sid, s in enumerate(spans)
                if s[NAME] == "montecarlo.sample_events"]
    table_build_s = sum(spans[sid][END] - spans[sid][START] - own[sid]
                        for sid in sampling)

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    merged_in = n_in.get("circuits.merge_branches", 0)
    m = {
        "fock.FockState.validate_s": t("fock.FockState.__post_init__"),
        "fock.FockState.constructions": c("fock.FockState.__post_init__"),
    }
    for name in ("fock.apply_two_mode_unitary", "fock.split_by_occupation",
                 "circuits.run_circuit", "circuits.merge_branches",
                 "circuits.mixture_density", "detection.measure_all",
                 "detection.measure", "amplifier.build_scenario",
                 "amplifier.simulate", "amplifier.fringe_scan",
                 "amplifier.mu_for_visibility", "montecarlo.sample_events",
                 "cli.main"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = t(name)
    m["fock.apply_two_mode_unitary.kets_in"] = n_in.get(
        "fock.apply_two_mode_unitary", 0)
    m["circuits.run_circuit.branches_out"] = n_out.get("circuits.run_circuit", 0)
    m["circuits.merge_branches.merge_ratio"] = (
        n_out.get("circuits.merge_branches", 0) / merged_in if merged_in else 0.0)
    m["circuits.mixture_density.basis_max"] = basis_max
    m["detection.measure_all.outcomes"] = n_out.get("detection.measure_all", 0)
    m["amplifier.mu_for_visibility.circuit_runs"] = circuit_runs
    m["montecarlo.sample_events.pulses"] = n_in.get("montecarlo.sample_events", 0)
    m["montecarlo.table_build_s"] = table_build_s
    m["cli.main.csv_bytes"] = n_out.get("cli.main", 0)
    return m
