"""Byte-for-byte regression of the CLI's CSV output.

Each case reruns one CLI command and compares its CSV with the committed
file under tests/golden/. A change that moves a byte updates the file in
the same commit and names the moved rows and the reason in CHANGES.md.
Regenerate every file with `PYTHONPATH=src python tests/test_golden.py`.
"""

import math
import sys
from pathlib import Path

import pytest

from qubitamp.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden")

#: The acceptance-criterion-4 operating point and the off-grid point where
#: the mu calibration once failed.
ACCEPTANCE = ["--t", "0.7", "--pin", "0.47", "--pa", "0.8", "--eta", "0.7"]
OFF_GRID = ["--t", "0.683826", "--pin", "0.405639", "--pa", "0.619225",
            "--eta", "0.621935"]

CASES = {
    "gain-fock-hpa": [
        "gain-curve", "--scenario", "fock-hpa", "--t", "0.9", "--pa", "0.9",
        "--eta", "0.7", "--pin-from", "0.05", "--pin-steps", "50"],
    "gain-timebin-paper-solid": [
        "gain-curve", "--scenario", "timebin-hqa", "--preset", "paper-solid",
        "--t", "0.9", "--pin-from", "0.02", "--pin-steps", "50"],
    "gain-timebin-mu-dark": [
        "gain-curve", "--scenario", "timebin-hqa", "--t", "0.7", "--pa", "0.8",
        "--eta", "0.7", "--mu", "0.95", "--dark", "0.01",
        "--pin-from", "0.05", "--pin-steps", "50"],
    "gain-fock-hpa-from-zero": [
        "gain-curve", "--scenario", "fock-hpa", "--t", "0.9", "--pa", "0.9",
        "--eta", "0.7", "--pin-from", "0", "--pin-steps", "101"],
    "fringe-calibrated": [
        "fringe", *ACCEPTANCE, "--mu-plus", "0.9899494936611666",
        "--mu-minus", "0.9643650760992956", "--phi-steps", "64"],
    "fringe-off-grid": [
        "fringe", *OFF_GRID, "--mu-plus", "0.97", "--mu-minus", "0.95",
        "--phi-steps", "360"],
    "hom": ["hom", "--mu-from", "0", "--mu-to", "1", "--mu-steps", "101"],
    "estimate-fock-hpa": [
        "estimate", "--scenario", "fock-hpa", "--t", "0.9", "--pa", "0.296",
        "--eta", "0.7", "--pin", "0.2", "--pulses", "10000000",
        "--seed", "2024"],
    "estimate-timebin-analyzer": [
        "estimate", "--scenario", "timebin-hqa", *ACCEPTANCE, "--mu", "0.8",
        "--analyzer-phi", repr(math.pi / 4), "--pulses", "2000000",
        "--seed", "2025"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code = main(argv + ["--out", str(GOLDEN / f"{name}.csv")])
        print(f"{name}: exit {code}", file=sys.stderr)
