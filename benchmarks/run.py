"""qubitamp benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` (as the test suite does), not from an installed copy. The command
prints every check by name with PASS/FAIL, every metric with its unit, and
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record of the run, with its provenance
and generated inputs, goes to ``benchmarks/results/``.

``--trace 0``: the workload runs in a fresh interpreter (``worker.py``),
which reports ``wall_s`` (one round, as the sum of each call's fastest time
over the run), the throughput ``work_per_s`` of such a round, its own peak
RSS after the first round, and ``setup_s``: the time to import qubitamp and
build each scenario once, as the fastest of 20 fresh interpreters started
between rounds. Units come from ``BENCHMARK.json``.
``--trace 1``: the worker runs one round untraced and one traced, and the
per-layer metrics come from the traced round (see ``spans.py``).

``attempted`` and ``failed`` count check evaluations. ``correct`` is false
when any check fails that is not a known defect of this commit; known
defects still count in ``failed`` and print as FAIL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"



class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(argv, env, timeout):
    """Run a child interpreter to completion; subprocess.run kills and reaps
    it if the timeout expires."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} exceeded {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_units(root: Path) -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(args, res, metrics, units, attempted, failed, correct) -> None:
    known = set(res["known_defects"])
    print(f"qubitamp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, c in sorted(res["checks"].items()):
        status = "PASS" if c["failed"] == 0 else "FAIL"
        tag = "  [known defect]" if name in known and c["failed"] else ""
        print(f"  [{status}] {name}  {c['run'] - c['failed']}/{c['run']}"
              f"  {c['detail']}{tag}")
    print(f"  checks: {attempted} run, {failed} failed, failed share "
          f"{failed / attempted:.4f}")
    if any(res["checks"][n]["failed"] for n in known if n in res["checks"]):
        print(f"  known defect: {res['known_defect_reason']}")
    print(f"  correct (no failure outside known defects): {correct}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    if not args.trace:
        walls = sorted(res["walls"])
        print(f"  ({res['work_unit']} = work_per_s; {len(walls)} rounds of "
              f"{res['work']} units, round times {walls[0]:.3f}..{walls[-1]:.3f} s, "
              f"median {walls[len(walls) // 2]:.3f} s; setup over "
              f"{len(res['setup_samples_s'])} fresh interpreters)")


def run(args) -> dict:
    if not (ROOT / "src" / "qubitamp" / "__init__.py").is_file():
        raise BenchError(f"no qubitamp sources under {ROOT / 'src'}")
    units = metric_units(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    res = json.loads(_child(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", str(RESULTS / f"tmp-{stem}"),
         "--spans", str(RESULTS / f"{stem}-spans.csv.gz")],
        env, 2 * args.seconds + 60))

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
                   "peak_rss_mb": res["peak_rss_mb"],
                   "work_per_s": res["work_per_s"]}
    known = set(res["known_defects"])
    attempted = sum(c["run"] for c in res["checks"].values())
    failed = sum(c["failed"] for c in res["checks"].values())
    correct = attempted > 0 and not any(
        c["failed"] for n, c in res["checks"].items() if n not in known)
    report(args, res, metrics, units, attempted, failed, correct)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "inputs": res["inputs"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "checks": res["checks"], "known_defects": sorted(known),
        "attempted": attempted, "failed": failed, "correct": correct,
        **{k: res[k] for k in ("walls", "op_times", "work", "setup_samples_s",
                              "rss_after_round_mb", "spans", "plain_s", "traced_s")
           if k in res},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {(RESULTS / f'{stem}.json').relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "calibrate", "sample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
