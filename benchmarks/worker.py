"""Run one workload in this (fresh) interpreter and print the result as JSON.

``run.py`` starts this file as a child process, so that peak memory is the
workload's own. With ``--trace 0`` it repeats rounds of the workload until
the next round would end after ``--seconds``, timing each call. Between
rounds, outside the timing, it checks the round's outputs and times the
set-up of fresh interpreters, spread evenly over the run, so that set-up
samples and round times come from the same stretch of time on a machine
whose speed drifts. With
``--trace 1`` it runs round 0 once untraced and once under the span
recorder, compares the CSV bytes of the two, and reports per-layer metrics.

    PYTHONPATH=src python3 benchmarks/worker.py --workload sweep --seed 1 \
        --seconds 10 --trace 0 --out-dir benchmarks/results/tmp
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy

import spans
import workloads
from qubitamp import amplifier
from qubitamp.amplifier import AmplifierParams


def _start_up() -> None:
    """Pay the one-off costs every CLI process pays before its first result,
    including the run-time herald-class probe of the first time-bin build."""
    params = AmplifierParams(t=0.9, p_in=0.2, p_a=0.296, eta=0.7)
    for scenario in workloads.SCENARIOS:
        amplifier.build_scenario(scenario, params)


#: Fresh-interpreter set-ups timed per run, whatever the number of rounds,
#: so that their fastest is taken over the same number on every commit.
SETUP_RUNS = 20

#: Timed in a fresh interpreter: what every CLI invocation pays before work.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import qubitamp
params = qubitamp.AmplifierParams(t=0.9, p_in=0.2, p_a=0.296, eta=0.7)
for scenario in ("fock-hpa", "timebin-hqa"):
    qubitamp.build_scenario(scenario, params)
print(repr(time.perf_counter() - t0))
"""


def setup_time() -> float:
    """Set-up time of one fresh interpreter (same environment as this one)."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


class Checks:
    """Named pass/fail checks, each possibly evaluated once per round."""

    def __init__(self):
        self.table: dict[str, dict] = {}

    def add(self, name: str, ok: bool, detail: str) -> None:
        entry = self.table.setdefault(name, {"run": 0, "failed": 0, "detail": ""})
        entry["run"] += 1
        if not ok:
            entry["failed"] += 1
        if not ok or not entry["detail"]:
            entry["detail"] = detail

    def add_all(self, results) -> None:
        for name, ok, detail in results:
            self.add(name, bool(ok), detail)


def _csv_bytes(outputs) -> list[bytes]:
    out = []
    for _, _, path in outputs:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(wl, seconds: float, out_dir: str, checks: Checks):
    """Round times, peak RSS after each round, and fresh-interpreter set-up
    times, interleaved."""
    walls: list[float] = []
    rss: list[float] = []
    setup: list[float] = []
    op_times: list = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs, times = wl.run_round(len(walls), out_dir)
        walls.append(time.perf_counter() - t0)
        rss.append(peak_rss_mb())
        op_times.append(times)
        checks.add_all(wl.check(len(walls) - 1, outputs))
        due = min(SETUP_RUNS, math.ceil(SETUP_RUNS * (time.perf_counter() - start)
                                        / seconds))
        setup += [setup_time() for _ in range(due - len(setup))]
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    setup += [setup_time() for _ in range(SETUP_RUNS - len(setup))]
    return walls, rss, setup, op_times


def best_round_s(op_times) -> float:
    """One round's time from the fastest time of each of its calls over the run.

    The shared machine alternates between a fast and a slow state on a scale
    of about a second, so a multi-second round mixes both in a proportion
    that varies from run to run; a call's fastest repeat varies less. The
    same holds for set-up, whose fastest sample is taken for ``setup_s``.
    """
    best: dict[str, float] = {}
    for times in op_times:
        for label, seconds in times:
            best[label] = min(seconds, best.get(label, seconds))
    return sum(best.values())


def traced_round(wl, out_dir: str, spans_path: str, checks: Checks) -> dict:
    plain_dir, traced_dir = (os.path.join(out_dir, d) for d in ("plain", "traced"))
    os.makedirs(plain_dir)
    os.makedirs(traced_dir)
    t0 = time.perf_counter()
    plain, _ = wl.run_round(0, plain_dir)
    plain_s = time.perf_counter() - t0

    recorder = spans.Recorder()
    with recorder.installed():
        t0 = time.perf_counter()
        traced, _ = wl.run_round(0, traced_dir, recorder)
        traced_s = time.perf_counter() - t0

    checks.add_all(wl.check(0, plain))
    checks.add_all(wl.check(0, traced))
    same = _csv_bytes(plain) == _csv_bytes(traced)
    checks.add("trace.csv_bytes_equal", same,
               f"{len(plain)} CSV files, traced run "
               + ("byte-identical" if same else "differs"))
    recorder.write(spans_path)
    metrics = spans.layer_metrics(recorder.spans)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return {"layers": metrics, "spans": len(recorder.spans),
            "plain_s": plain_s, "traced_s": traced_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", help="gzipped CSV for the traced run's spans")
    args = ap.parse_args(argv)

    _start_up()
    inputs = workloads.generate(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](inputs)
    wl.prepare()
    checks = Checks()
    os.makedirs(args.out_dir)
    try:
        if args.trace:
            result = traced_round(wl, args.out_dir, args.spans, checks)
        else:
            setup_time()  # fills the bytecode cache, as an installed package has
            walls, rss, setup, op_times = timed_rounds(wl, args.seconds,
                                                       args.out_dir, checks)
            wall_s = best_round_s(op_times)
            # Peak RSS creeps up over later rounds (allocator reuse), so the
            # first round's peak is taken: it does not depend on how many
            # rounds fit in the run, and a CLI process does one round's work.
            result = {"walls": walls, "work": wl.work(), "setup_samples_s": setup,
                      "op_times": op_times, "rss_after_round_mb": rss,
                      "setup_s": min(setup), "peak_rss_mb": rss[0],
                      "wall_s": wall_s, "work_per_s": wl.work() / wall_s}
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)
    result.update({
        "work_unit": wl.work_unit,
        "inputs": inputs,
        "checks": checks.table,
        "known_defects": sorted(wl.known_defects()),
        "known_defect_reason": wl.known_defect_reason,
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
