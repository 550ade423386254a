"""The benchmark's workloads: inputs made from a seed, one round of work
through qubitamp's CLI and API, and the checks on each round's outputs.

Every call goes through a module attribute (``cli.main``,
``amplifier.mu_for_visibility``) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import csv
import math
import os
import random
import time

import numpy

from qubitamp import amplifier, cli
from qubitamp.amplifier import AmplifierParams, QubitSpec

SCENARIOS = ("fock-hpa", "timebin-hqa")

#: (p_a, eta) of each CLI preset as documented in the README, restated here
#: so that the closed-form check does not take them from the code under test.
PRESET_VALUES = {"paper-solid": (0.80 * 0.37, 0.7), "paper-dashed": (0.9, 0.7)}

N_SIGMA = 5.0


def _csv_tolerance(x: float, tol: float) -> float:
    """``tol`` plus half a unit in the 9th significant digit the CSV keeps."""
    if x == 0.0:
        return tol
    return tol + 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def _gain_closed_form(t, p_a, eta, p_in):
    return p_a * t / (p_a * (1.0 - t) * (1.0 - p_in * eta) + p_in)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _timed(times, label, fn, *args):
    """Call ``fn`` and append (label, seconds) to ``times``."""
    t0 = time.perf_counter()
    result = fn(*args)
    times.append((label, time.perf_counter() - t0))
    return result


def _main(times, label, argv) -> int:
    return _timed(times, label, cli.main, [str(a) for a in argv])


class Workload:
    """One workload: ``generate`` its inputs, then rounds of work and checks."""

    def __init__(self, inputs):
        self.inputs = inputs

    def prepare(self):
        """Untimed work needed before the first round."""

    #: Why the checks named by ``known_defects`` fail at this commit.
    known_defect_reason = ""

    def known_defects(self) -> set[str]:
        """Names of checks that fail at this commit for a known reason.

        They stay failing in the output; only ``correct`` does not count them.
        """
        return set()


class Sweep(Workload):
    """Gain-curve families: both scenarios x both presets x 3 t, dense p_in."""

    name = "sweep"
    work_unit = "points_per_s"

    @staticmethod
    def generate(rng: random.Random) -> dict:
        ts = [round(0.7 + rng.uniform(-0.05, 0.05), 6),
              round(0.9 + rng.uniform(-0.03, 0.03), 6),
              round(0.99 + rng.uniform(-0.005, 0.004), 6)]
        return {
            "families": [[s, p, t] for s in SCENARIOS for p in PRESET_VALUES
                         for t in ts],
            "pin_from": round(rng.uniform(0.02, 0.06), 6),
            "pin_to": 1.0,
            "pin_steps": 50,
        }

    def work(self) -> int:
        return len(self.inputs["families"]) * self.inputs["pin_steps"]

    def run_round(self, r, out_dir, recorder=None):
        i = self.inputs
        outputs, times = [], []
        for k, (scenario, preset, t) in enumerate(i["families"]):
            label = f"{scenario},{preset},t={t}"
            path = os.path.join(out_dir, f"sweep-{k}.csv")
            if recorder is not None:
                recorder.begin_op(f"r{r}:gain-curve[{label}]")
            code = _main(times, label,
                         ["gain-curve", "--scenario", scenario, "--preset", preset,
                          "--t", repr(t), "--pin-from", repr(i["pin_from"]),
                          "--pin-to", repr(i["pin_to"]),
                          "--pin-steps", i["pin_steps"], "--out", path])
            outputs.append((label, code, path))
        return outputs, times

    def check(self, r, outputs):
        for (label, code, path), (_, preset, t) in zip(outputs,
                                                       self.inputs["families"]):
            p_a, eta = PRESET_VALUES[preset]
            rows = _read_rows(path) if code == 0 else []
            worst = 0.0
            form_ok = bound_ok = code == 0 and len(rows) == self.inputs["pin_steps"]
            # the CSV rounds p_in to 9 digits, so take the exact grid value
            grid = numpy.linspace(self.inputs["pin_from"], self.inputs["pin_to"],
                                  self.inputs["pin_steps"])
            for row, p_in in zip(rows, grid):
                p_in = float(p_in)
                g = _gain_closed_form(t, p_a, eta, p_in)
                for col, want in (("p_in", p_in), ("gain_oracle", g),
                                  ("p_out_oracle", g * p_in)):
                    got = float(row[col])
                    worst = max(worst, abs(got - want))
                    form_ok &= abs(got - want) <= _csv_tolerance(want, 1e-9)
                p_out = float(row["p_out_oracle"])
                bound_ok &= p_out <= p_a * t + _csv_tolerance(p_out, 0.0)
            yield (f"sweep.closed_form[{label}]", form_ok,
                   f"exit {code}, {len(rows)} rows, worst |diff| {worst:.2e}")
            yield f"sweep.p_out_bound[{label}]", bound_ok, "p_out <= p_a*t"


class Calibrate(Workload):
    """Fringe-visibility calibration of mu at a seed-chosen operating point."""

    name = "calibrate"
    work_unit = "calibrations_per_s"
    TARGETS = (("psi_plus", 0.98, 0.99), ("psi_minus", 0.93, 0.965))

    #: Interior values of the acceptance-suite grid: every point has the
    #: same branch structure, hence about the same cost.
    GRID = {"t": (0.5, 0.7, 0.9, 0.99), "p_in": (0.01, 0.1, 0.2, 0.47, 0.7),
            "p_a": (0.296, 0.5, 0.8, 0.9), "eta": (0.5, 0.7)}

    #: An operating point off that grid where mu_for_visibility raises at
    #: this commit. At mu = 1 the fringe minimum is exactly zero, rounding
    #: leaves it at about -1e-19, and visibility() rejects negative rates.
    #: About 1 in 9 uniformly drawn points does this; no grid point does.
    #: It is run by a check, outside the timing, so that a fix shows as PASS.
    OFF_GRID = {"t": 0.683826, "p_in": 0.405639, "p_a": 0.619225, "eta": 0.621935}

    known_defect_reason = ("calibrate.off_grid_point: visibility() rejects the "
                           "-1e-19 fringe minimum left by rounding at mu = 1")

    @classmethod
    def generate(cls, rng: random.Random) -> dict:
        return {"point": {k: rng.choice(v) for k, v in cls.GRID.items()},
                "phi_steps": 64, "off_grid_point": cls.OFF_GRID}

    def work(self) -> int:
        return 1

    def run_round(self, r, out_dir, recorder=None):
        pt = self.inputs["point"]
        if recorder is not None:
            recorder.begin_op(f"r{r}:calibrate")
        params = AmplifierParams(**pt)
        times = []
        mus = [_timed(times, f"mu_for_visibility[{cls}]",
                      amplifier.mu_for_visibility, v, params, cls)
               for cls, v, _ in self.TARGETS]
        path = os.path.join(out_dir, "fringe.csv")
        code = _main(times, "fringe",
                     ["fringe", "--t", repr(pt["t"]), "--pin", repr(pt["p_in"]),
                      "--pa", repr(pt["p_a"]), "--eta", repr(pt["eta"]),
                      "--mu-plus", repr(mus[0]), "--mu-minus", repr(mus[1]),
                      "--phi-steps", self.inputs["phi_steps"], "--out", path])
        return [("point", code, path)], times

    def check(self, r, outputs):
        for label, code, path in outputs:
            rows = _read_rows(path) if code == 0 else []
            for cls, _, fidelity in self.TARGETS:
                col = "fidelity_" + cls.split("_")[1]
                got = float(rows[0][col]) if rows else math.nan
                ok = (len(rows) == self.inputs["phi_steps"]
                      and abs(got - fidelity) <= _csv_tolerance(fidelity, 1e-9))
                yield (f"calibrate.{col}[{label}]", ok,
                       f"exit {code}, F = {got!r}, want {fidelity}")
        try:
            mu = amplifier.mu_for_visibility(
                0.98, AmplifierParams(**self.inputs["off_grid_point"]), "psi_plus")
            ok, detail = 0.0 <= mu <= 1.0, f"mu = {mu!r}"
        except ValueError as exc:
            ok, detail = False, f"ValueError: {exc}"
        yield "calibrate.off_grid_point", ok, detail

    def known_defects(self) -> set[str]:
        return {"calibrate.off_grid_point"}


class Sample(Workload):
    """Monte Carlo estimates: one long fock-hpa run and a time-bin analyzer
    phase scan at mu = 0.8, each checked against the exact coherent oracle."""

    name = "sample"
    work_unit = "pulses_per_s"
    FOCK = {"t": 0.9, "p_a": 0.296, "eta": 0.7, "p_in": 0.2, "pulses": 10_000_000}
    ANALYZER = {"t": 0.9, "p_a": 0.8, "eta": 0.7, "p_in": 0.47, "mu": 0.8,
                "pulses": 2_000_000}
    PHI_STEPS = 8  # analyzer phases k * pi/4

    #: The pulse sampler models each time-bin ancilla's internal state as a
    #: classical mixture, while the exact oracle is coherent, so at mu < 1
    #: the sampled analyzer rate misses the oracle except where both models
    #: agree (phi = pi/2 and 3pi/2).
    known_defect_reason = ("sample.analyzer: ROADMAP item 1, time-bin sampler "
                           "uses split_internals at mu < 1")

    @classmethod
    def generate(cls, rng: random.Random) -> dict:
        return {"fock": cls.FOCK, "analyzer": cls.ANALYZER,
                "phis": [k * math.pi / 4 for k in range(cls.PHI_STEPS)],
                "seed_base": rng.randrange(1, 2 ** 30)}

    def __init__(self, inputs):
        super().__init__(inputs)
        self.oracle: dict = {}

    @staticmethod
    def _params(d):
        return AmplifierParams(t=d["t"], p_in=d["p_in"], p_a=d["p_a"],
                               eta=d["eta"], mu=d.get("mu", 1.0))

    def prepare(self):
        """Exact oracle values, computed once and outside the timed rounds."""
        fock = amplifier.simulate(amplifier.build_scenario(
            "fock-hpa", self._params(self.inputs["fock"])))
        self.oracle["fock"] = {"p_in": self.inputs["fock"]["p_in"],
                               "p_out": fock.p_out, "gain": fock.gain}
        bundle = amplifier.build_scenario(
            "timebin-hqa", self._params(self.inputs["analyzer"]),
            QubitSpec.from_phase(0.0))
        outcome = amplifier.simulate(bundle)
        for cls in bundle.herald_classes:
            oc = outcome.per_class[cls.name]
            if oc.multi_weight > 1e-12:
                raise ValueError("analyzer oracle needs a single-photon output")
            rho = oc.output_qubit_density  # carries the class correction
            for k, phi in enumerate(self.inputs["phis"]):
                # the sampler's analyzer sees the uncorrected output
                a = numpy.array([1.0, numpy.exp(1j * (phi + cls.correction_phase))])
                self.oracle[(k, cls.name)] = float((a.conj() @ rho @ a).real) / 2.0

    def work(self) -> int:
        return (self.inputs["fock"]["pulses"]
                + len(self.inputs["phis"]) * self.inputs["analyzer"]["pulses"])

    def run_round(self, r, out_dir, recorder=None):
        f, a = self.inputs["fock"], self.inputs["analyzer"]
        seed = self.inputs["seed_base"] + r * (1 + len(self.inputs["phis"]))
        outputs, times = [], []
        runs = [("fock", ["--scenario", "fock-hpa", "--t", f["t"], "--pa", f["p_a"],
                          "--eta", f["eta"], "--pin", f["p_in"],
                          "--pulses", f["pulses"]])]
        for k, phi in enumerate(self.inputs["phis"]):
            runs.append((f"analyzer{k}",
                         ["--scenario", "timebin-hqa", "--t", a["t"], "--pa", a["p_a"],
                          "--eta", a["eta"], "--pin", a["p_in"], "--mu", a["mu"],
                          "--analyzer-phi", repr(phi), "--pulses", a["pulses"]]))
        for n, (label, args) in enumerate(runs):
            path = os.path.join(out_dir, f"{label}.csv")
            if recorder is not None:
                recorder.begin_op(f"r{r}:estimate[{label}]")
            code = _main(times, label,
                         ["estimate", *args, "--seed", seed + n, "--out", path])
            outputs.append((label, code, path))
        return outputs, times

    @staticmethod
    def _within(est, err, want):
        return abs(est - want) <= N_SIGMA * err, (
            f"{est:.6g} +- {err:.2g} vs oracle {want:.6g} "
            f"({abs(est - want) / err if err > 0 else math.inf:.1f} sigma)")

    def check(self, r, outputs):
        for label, code, path in outputs:
            rows = {row["herald_class"]: row
                    for row in (_read_rows(path) if code == 0 else [])}
            if label == "fock":
                row = rows.get("herald")
                for q in ("p_in", "p_out", "gain"):
                    ok, detail = (self._within(float(row[f"{q}_est"]),
                                               float(row[f"{q}_err"]),
                                               self.oracle["fock"][q])
                                  if row else (False, f"exit {code}"))
                    yield f"sample.fock.{q}", ok, detail
                continue
            k = int(label[len("analyzer"):])
            for cls in ("psi_plus", "psi_minus"):
                row = rows.get(cls)
                ok, detail = (self._within(float(row["p_out_est"]),
                                           float(row["p_out_err"]),
                                           self.oracle[(k, cls)])
                              if row else (False, f"exit {code}"))
                yield f"sample.analyzer[phi={k}pi/4].{cls}", ok, detail

    def known_defects(self) -> set[str]:
        return {f"sample.analyzer[phi={k}pi/4].{cls}"
                for k in range(len(self.inputs["phis"])) if k % 4 != 2
                for cls in ("psi_plus", "psi_minus")}


WORKLOADS = {w.name: w for w in (Sweep, Calibrate, Sample)}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed always gives the same inputs."""
    return WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"))
