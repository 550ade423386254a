import contextlib
import errno
import io
import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qubitamp import cli
from qubitamp.amplifier import PRESETS
from qubitamp.checks import CHECKS
from qubitamp.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    parse_config_file,
    parse_flags,
)


def run(args):
    return main(args)


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return text, header, rows


class TestGainCurve:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--t", "0.9", "--preset", "paper-dashed",
                    "--pin-from", "0.1", "--pin-to", "1.0",
                    "--pin-steps", "10", "--out", str(out)])
        assert code == EXIT_OK
        text, header, rows = read_csv(out)
        assert header == ["p_in", "gain_analytic", "gain_oracle",
                          "p_out_analytic", "p_out_oracle"]
        assert len(rows) == 10
        pins = [float(r[0]) for r in rows]
        assert pins == sorted(pins)
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) <= 1e-9
            assert float(r[2]) <= 9.0
        assert "\r" not in text

    def test_pout_claim_at_high_transmission(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--t", "0.99", "--pa", "0.9", "--eta", "0.7",
                    "--pin-from", "0.05", "--pin-to", "1.0",
                    "--pin-steps", "20", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert max(float(r[4]) for r in rows) > 0.823

    def test_empty_grid_writes_nothing(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--pin-steps", "0", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_out_of_range_parameter(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--t", "1.5", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("ends", [["--pin-from", "0.2", "--pin-to", "0.9"],
                                      []])  # the default ends, 0.1 and 1
    def test_one_step_between_unequal_ends_is_validation_error(
            self, tmp_path, capsys, ends):
        # one step wrote one row, at pin_from, and dropped pin_to
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", *ends, "--pin-steps", "1",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert all(key in err for key in ("pin_steps", "pin_from", "pin_to"))
        assert not out.exists()

    def test_ends_out_of_order_are_validation_error(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--pin-from", "0.9", "--pin-to", "0.1",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "pin_from must not exceed pin_to" in capsys.readouterr().err
        assert not out.exists()

    def test_point_that_cannot_herald(self, tmp_path, capsys):
        # without ancillas, p_in = 0 leaves nothing to click
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--pa", "0", "--pin-from", "0",
                    "--pin-steps", "5", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "herald probability vanishes" in capsys.readouterr().err
        assert not out.exists()

    def test_timebin_scenario(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--scenario", "timebin-hqa", "--t", "0.7",
                    "--pa", "0.8", "--pin-steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) <= 1e-9


    @pytest.mark.parametrize("scenario", ["fock-hpa", "timebin-hqa"])
    @pytest.mark.parametrize("pin", ["5e-324", "1e-320"])
    def test_subnormal_pin_gives_closed_form_gain(self, tmp_path, scenario,
                                                  pin):
        # p_out / p_in has no precision below the smallest normal float
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--scenario", scenario, "--t", "0.9",
                    "--pa", "0.9", "--pin-from", pin, "--pin-to", pin,
                    "--pin-steps", "1", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0][1:3] == ["9", "9"]

    @pytest.mark.parametrize("scenario", ["fock-hpa", "timebin-hqa"])
    def test_subnormal_pin_gives_closed_form_pout(self, tmp_path, scenario):
        # p_out_oracle is gain_oracle * p_in there, like p_out_analytic
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--scenario", scenario, "--t", "0.9",
                    "--pa", "0.9", "--pin-from", "5e-324", "--pin-to",
                    "5e-324", "--pin-steps", "1", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0][3:5] == ["4.44659081e-323", "4.44659081e-323"]

    @pytest.mark.parametrize("scenario", ["fock-hpa", "timebin-hqa"])
    def test_dark_counts_keep_oracle_gain_at_tiny_pin(self, tmp_path,
                                                      scenario):
        # dark counts herald a single photon out at p_in = 0, so the gain
        # p_out / p_in diverges there instead of reaching t / (1 - t)
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--scenario", scenario, "--dark", "0.1",
                    "--pin-from", "0", "--pin-to", "1e-300",
                    "--pin-steps", "2", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0][2] == "inf" and float(rows[0][4]) > 0.1
        assert float(rows[1][2]) == pytest.approx(float(rows[1][4]) / 1e-300,
                                                  rel=1e-8)


def unread_key(tmp_path, capsys, command, keys):
    """Exit code and stderr of `command` with the configuration `keys`
    given once by flags and once from a file; both must agree."""
    out = tmp_path / "out.csv"
    flags = [w for k, v in keys.items() for w in (f"--{k.replace('_', '-')}",
                                                  v)]
    code = run([command, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    cfg = tmp_path / "keys.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert run([command, "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == EXIT_OK)
    return code, err


class TestFringe:
    def test_single_phase_rejected(self, tmp_path, capsys):
        out = tmp_path / "fringe.csv"
        code = run(["fringe", "--mu", "0.9", "--phi-steps", "1",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "phi_steps must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--mu-plus", "1.5"),
                                            ("--mu-minus", "-0.1")])
    def test_class_mu_out_of_range(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fringe.csv"
        code = run(["fringe", flag, value, "--phi-steps", "8",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        key = flag[2:].replace("-", "_")  # the key set, not fringe_scan's mu
        assert f"{key} must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--pa", "0"), ("--t", "1.0")])
    def test_cannot_herald(self, tmp_path, capsys, flag, value):
        out = tmp_path / "fringe.csv"
        code = run(["fringe", flag, value, "--phi-steps", "8",
                    "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "herald probability vanishes" in capsys.readouterr().err
        assert not out.exists()

    def test_no_single_photon_output(self, tmp_path, capsys):
        # heralds from the ancillas alone, but no photon reaches the analyzer
        out = tmp_path / "fringe.csv"
        code = run(["fringe", "--pin", "0", "--phi-steps", "8",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "all-zero rates" in capsys.readouterr().err
        assert not out.exists()

    def test_ideal_visibility_columns(self, tmp_path):
        out = tmp_path / "fringe.csv"
        code = run(["fringe", "--t", "0.7", "--pin", "0.47", "--pa", "0.8",
                    "--eta", "0.7", "--phi-steps", "16", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header == ["delta_phi", "rate_psi_plus", "rate_psi_minus",
                          "visibility_plus", "visibility_minus",
                          "fidelity_plus", "fidelity_minus"]
        assert len(rows) == 16
        for r in rows:
            assert float(r[3]) == pytest.approx(1.0, abs=1e-12)
            assert float(r[4]) == pytest.approx(1.0, abs=1e-12)
        # maximum of the psi_plus fringe sits at zero phase
        rates = [float(r[1]) for r in rows]
        assert rates[0] == pytest.approx(max(rates), abs=1e-12)

    def test_calibrated_visibility_fidelity(self, tmp_path):
        out = tmp_path / "fringe.csv"
        mu98 = math.sqrt(0.98)
        code = run(["fringe", "--t", "0.7", "--pin", "0.47", "--pa", "0.8",
                    "--eta", "0.7", "--phi-steps", "8",
                    "--mu-plus", str(mu98), "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(0.98, abs=1e-9)
        assert float(rows[0][5]) == pytest.approx(0.99, abs=1e-9)

    @pytest.mark.parametrize("mu,code", [("0.5", EXIT_VALIDATION),
                                         ("1.0", EXIT_OK)])
    def test_mu_with_both_class_overlaps(self, tmp_path, capsys, mu, code):
        # both classes take their own overlap, so mu is not read: a value
        # other than the default wrote the same bytes as none
        got, err = unread_key(tmp_path, capsys, "fringe", {
            "mu": mu, "mu_plus": "0.9", "mu_minus": "0.8", "phi_steps": "8"})
        assert got == code
        assert ("validation error: mu is not read" in err) == (got != EXIT_OK)

    def test_mu_with_one_class_overlap_is_read(self, tmp_path, capsys):
        code, _ = unread_key(tmp_path, capsys, "fringe", {
            "mu": "0.5", "mu_plus": "0.9", "phi_steps": "8"})
        assert code == EXIT_OK


class TestHom:
    @pytest.mark.parametrize("mu,code", [("0.3", EXIT_VALIDATION),
                                         ("1.0", EXIT_OK)])
    def test_mu_with_a_sweep(self, tmp_path, capsys, mu, code):
        # the sweep's grid replaces mu, so a value other than the default
        # wrote the same bytes as none
        got, err = unread_key(tmp_path, capsys, "hom", {
            "mu": mu, "mu_from": "0", "mu_to": "1", "mu_steps": "2"})
        assert got == code
        assert ("validation error: mu is not read" in err) == (got != EXIT_OK)

    def test_single_point(self, capsys):
        code = run(["hom", "--mu", "0.959"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "mu,coincidence,coincidence_fock,visibility"
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(0.919681, abs=1e-9)
        assert abs(float(row[1]) - float(row[2])) <= 1e-12

    def test_sweep(self, tmp_path):
        out = tmp_path / "hom.csv"
        code = run(["hom", "--mu-from", "0.0", "--mu-to", "1.0",
                    "--mu-steps", "5", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert len(rows) == 5
        assert float(rows[0][1]) == pytest.approx(0.5)
        assert float(rows[-1][1]) == pytest.approx(0.0)

    @pytest.mark.parametrize("ends", [["--mu-from", "0.2", "--mu-to", "1"],
                                      []])  # the default ends, 0 and 1
    def test_one_step_between_unequal_ends_is_validation_error(
            self, tmp_path, capsys, ends):
        # one step wrote one row, at mu_from, and dropped mu_to
        out = tmp_path / "hom.csv"
        code = run(["hom", *ends, "--mu-steps", "1", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert all(key in err for key in ("mu_steps", "mu_from", "mu_to"))
        assert not out.exists()

    def test_one_step_between_equal_ends(self, tmp_path):
        out = tmp_path / "hom.csv"
        assert run(["hom", "--mu-from", "0.5", "--mu-to", "0.5",
                    "--mu-steps", "1", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0.5"]

    @pytest.mark.parametrize("args", [["--mu-from", "0.2", "--mu-to", "0.8"],
                                      ["--mu-to", "0.8"]])
    def test_range_without_steps_is_validation_error(self, tmp_path, capsys,
                                                     args):
        out = tmp_path / "hom.csv"
        assert run(["hom", *args, "--out", str(out)]) == EXIT_VALIDATION
        assert "mu_steps" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command,key,least", [("gain-curve", "pin_steps", 1),
                                               ("hom", "mu_steps", 1),
                                               ("fringe", "phi_steps", 2)])
@pytest.mark.parametrize("value", [cli.MAX_STEPS + 1, 10 ** 20 - 1])
def test_grid_above_maximum_is_validation_error(monkeypatch, tmp_path, capsys,
                                                command, key, least, value):
    # the size is rejected before any grid is made
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was made")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "grid.csv"
    code = run([command, "--" + key.replace("_", "-"), str(value),
                "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"validation error: {key} must be at "
                                       f"least {least}, at most "
                                       f"{cli.MAX_STEPS}\n")
    assert not out.exists()


class TestEstimate:
    def test_byte_identical_for_fixed_seed(self, tmp_path):
        args = ["estimate", "--scenario", "fock-hpa", "--t", "0.9",
                "--pa", "0.296", "--eta", "0.7", "--pin", "0.2",
                "--pulses", "20000", "--seed", "99"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == EXIT_OK
        assert run(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_columns_and_classes(self, tmp_path):
        out = tmp_path / "est.csv"
        code = run(["estimate", "--scenario", "timebin-hqa", "--t", "0.7",
                    "--pa", "0.8", "--pin", "0.47", "--pulses", "20000",
                    "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header[:4] == ["scenario", "herald_class", "n_pulses", "seed"]
        assert sorted(r[1] for r in rows) == ["psi_minus", "psi_plus"]


    @pytest.mark.parametrize("seed", ["-5", str(2**128)])
    def test_seed_out_of_range_is_validation_error(self, capsys, seed):
        code = run(["estimate", "--pulses", "100", "--seed", seed])
        assert code == EXIT_VALIDATION
        assert "seed must lie in [0, 2**128 - 1]" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "est.csv"
        assert run(["estimate", "--pulses", "100", "--seed",
                    str(2**128 - 1), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("flag,message", [
        # no input photon: d1 but no d1_d2, so no threefold coincidence
        ("--pin", "p_out of class herald: no threefold coincidences"),
        # no input-herald click, so no d1 count to divide by
        ("--eta-herald", "p_in: no d1 counts")])
    def test_undefined_estimate_names_it(self, tmp_path, capsys, flag,
                                         message):
        out = tmp_path / "est.csv"
        code = run(["estimate", flag, "0", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["gain-curve", "fringe", "hom",
                                     "estimate"])
def test_unwritable_out_is_validation_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.csv"
    code = run([command, "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: ")
    assert str(out) in err[0]
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_write_failure_is_validation_error(capsys):
    assert run(["hom", "--mu", "0.5", "--out", "/dev/full"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: cannot write /dev/full: "
                   "No space left on device"]


def test_failed_write_leaves_no_old_row(tmp_path, monkeypatch, capsys):
    # the disk fills after part of the new CSV is written over a longer one
    out = tmp_path / "gain.csv"
    assert run(["gain-curve", "--pin-steps", "50", "--out", str(out)]) == EXIT_OK
    real_write = os.write

    def write(fd, data):
        if write.calls:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write.calls += 1
        return real_write(fd, data[:100])
    write.calls = 0
    monkeypatch.setattr(os, "write", write)
    code = run(["gain-curve", "--pin-steps", "10", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"validation error: cannot write {out}: No space left on device\n")
    assert out.read_bytes() == b""


class TestOutFile:
    """An existing --out file is overwritten in place and cut to length."""

    @pytest.mark.parametrize("steps, over", [(50, 10), (10, 50)])
    def test_rewrite_equals_fresh_write(self, tmp_path, steps, over):
        out, fresh = tmp_path / "a.csv", tmp_path / "b.csv"
        for n, path in ((over, out), (steps, out), (steps, fresh)):
            assert run(["gain-curve", "--pin-steps", str(n),
                        "--out", str(path)]) == EXIT_OK
        assert out.read_bytes() == fresh.read_bytes()

    def test_dev_null(self):
        assert run(["hom", "--mu", "0.5", "--out", os.devnull]) == EXIT_OK

    def test_dev_stdout_into_a_pipe(self):
        if not os.path.exists("/dev/stdout"):
            pytest.skip("needs /dev/stdout")
        proc = subprocess.run(
            [sys.executable, "-m", "qubitamp.cli", "hom", "--mu", "0.5",
             "--out", "/dev/stdout"], env=_child_env(), capture_output=True,
            timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == (b"mu,coincidence,coincidence_fock,visibility\n"
                               b"0.5,0.375,0.375,0.25\n")

    def test_new_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "hom.csv"
        umask = os.umask(0o027)
        try:
            assert run(["hom", "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "hom.csv"
        out.write_text("old\n" * 100)
        out.chmod(0o600)
        assert run(["hom", "--out", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_text().startswith("mu,")


#: The float edges where %-formatting and format() could part: signed
#: zeros, infinities, NaN, subnormals and values of 1e16 and above.
FLOAT_EDGES = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
    -2.2250738585072e-308, 1e16, 1.2345678955e17, -9.9999999995e22,
    1.7976931348623157e308])
#: Values of each type the commands write, one strategy per type; text
#: with '%' in it, which a template must not read as a field.
CSV_KINDS = (
    st.floats() | FLOAT_EDGES, (st.floats() | FLOAT_EDGES).map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
    st.text() | st.sampled_from(["%", "%s", "100%", "%%", "%(a)s", "%.9g"]))


@st.composite
def csv_columns(draw):
    """Header names to values: lists, or float arrays, of one type and one
    length, and single values."""
    n_rows, columns = draw(st.integers(0, 6)), {}
    for name in draw(st.lists(st.text(), min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(CSV_KINDS))
        if draw(st.booleans()):
            columns[name] = draw(kind)
        else:
            values = draw(st.lists(kind, min_size=n_rows, max_size=n_rows))
            as_array = kind is CSV_KINDS[0] and draw(st.booleans())
            columns[name] = np.array(values) if as_array else values
    return columns


def csv_cell(value):
    return format(value, ".9g") if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None)
@given(columns=csv_columns())
@example(columns={
    "x": [1.5, -0.0, math.nan], "%s": "100%", "n": np.int64(3),
    "y": np.array([1e16, 5e-324, -math.inf]), "f": np.float32(1.5),
    "b": [True, False, True], "g": np.float64(-0.0), "z": 1.2345678955e17})
def test_write_csv_bytes_equal_reference(columns):
    # a row per entry of the list columns (none without one), each single
    # value repeated on every row; an array as its values' Python numbers
    lists = {name: v.tolist() if isinstance(v, np.ndarray) else v
             for name, v in columns.items()}
    n_rows = min((len(v) for v in lists.values() if isinstance(v, list)),
                 default=0)
    reference = "\n".join([",".join(columns)] + [",".join(
        csv_cell(v[i] if isinstance(v, list) else v) for v in lists.values())
        for i in range(n_rows)]) + "\n"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.write_csv(None, columns)
    assert text.getvalue() == reference


def test_write_csv_columns_of_two_lengths_are_an_error(capsys):
    with pytest.raises(ValueError):
        cli.write_csv(None, {"a": [1.0, 2.0], "b": "x", "c": [1]})
    assert capsys.readouterr().out == ""


def test_out_of_memory_is_numerical_error(monkeypatch, capsys):
    def fringe(cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    monkeypatch.setitem(cli.COMMANDS, "fringe",
                        (fringe, *cli.COMMANDS["fringe"][1:]))
    assert run(["fringe", "--phi-steps", "100000000000"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == ("numerical failure: out of memory: "
                   "Unable to allocate 745. GiB for an array\n")


#: A value below and one above [0, 1] of each command's float keys but the
#: phases, and dark = 1, which must lie in [0, 1)
OUT_OF_RANGE = [(command, key, value)
                for command, (_, _, keys) in cli.COMMANDS.items()
                for key in keys if cli._KEYS[key][0] == "FLOAT"
                and key not in ("analyzer_phi", "delta_phi")
                for value in ("-0.1", "1.5") + ("1",) * (key == "dark")]


class TestConfigHandling:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep setup\nt = 0.7\npa = 0.5  # inline comment\n"
                       "pin_steps = 4\n", encoding="utf-8")
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--config", str(cfg), "--pa", "0.8",
                    "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert len(rows) == 4
        # pa=0.8 from the flag, t=0.7 from the file
        from qubitamp.amplifier import gain_analytic
        assert float(rows[0][1]) == pytest.approx(
            gain_analytic(0.7, 0.8, 0.7, float(rows[0][0])), rel=1e-8)

    def test_preset_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = paper-solid\npin_steps = 2\n")
        out = tmp_path / "gain.csv"
        assert run(["gain-curve", "--config", str(cfg), "--t", "0.9",
                    "--out", str(out)]) == EXIT_OK
        from qubitamp.amplifier import gain_analytic
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(
            gain_analytic(0.9, 0.296, 0.7, float(rows[0][0])), rel=1e-8)

    def test_malformed_line_is_parse_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert run(["gain-curve", "--config", str(cfg)]) == EXIT_PARSE

    def test_unknown_key_is_parse_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("quux = 3\n")
        assert run(["gain-curve", "--config", str(cfg)]) == EXIT_PARSE

    def test_bad_value_type_is_parse_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t = fast\n")
        assert run(["gain-curve", "--config", str(cfg)]) == EXIT_PARSE

    def test_missing_config_file(self):
        assert run(["gain-curve", "--config", "/nonexistent.cfg"]) == EXIT_PARSE

    def test_unknown_flag_is_parse_error(self):
        assert run(["gain-curve", "--bogus", "1"]) == EXIT_PARSE

    def test_unknown_preset_is_validation_error(self, capsys):
        assert run(["gain-curve", "--preset", "nope"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: unknown preset 'nope'; available: "
            f"{sorted(PRESETS)}\n")

    @pytest.mark.parametrize("command", ["gain-curve", "estimate", "hom"])
    def test_unknown_scenario_is_validation_error(self, tmp_path, capsys,
                                                  command):
        # hom reads no scenario, so --scenario is no flag of it; a file
        # may still hold the key, and its value is still checked
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = bogus\n")
        for args in (["--scenario", "bogus"], ["--config", str(cfg)]):
            code = run([command, *args])
            err = capsys.readouterr().err
            if command == "hom" and args[0] == "--scenario":
                assert (code, err) == (
                    EXIT_PARSE, "parse error: --scenario: not a flag of hom\n")
            else:
                assert code == EXIT_VALIDATION
                assert "unknown scenario 'bogus'" in err

    def test_degenerate_gain_is_numerical_error(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--t", "1.0", "--pa", "0.0",
                    "--pin-from", "0.0", "--pin-to", "0.0",
                    "--pin-steps", "1", "--out", str(out)])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("flag,value", [("--analyzer-phi", "inf"),
                                            ("--delta-phi", "nan")])
    def test_non_finite_flag_is_validation_error(self, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "est.csv"
        code = run(["estimate", "--scenario", "timebin-hqa", "--mu", "0.8",
                    flag, value, "--pulses", "1000", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--analyzer-phi", "--delta-phi"])
    def test_timebin_phase_on_fock_scenario_is_validation_error(
            self, tmp_path, capsys, flag):
        # the Fock amplifier has no qubit and no analyzer phase, so a
        # nonzero value wrote the same bytes as none
        out = tmp_path / "est.csv"
        base = ["estimate", "--scenario", "fock-hpa", "--pulses", "1000"]
        assert run(base + [flag, "1", "--out", str(out)]) == EXIT_VALIDATION
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()
        assert run(base + [flag, "0", "--out", str(out)]) == EXIT_OK

    def test_huge_pulse_count_is_validation_error(self, tmp_path, capsys):
        # one check in the CLI, naming the key, bounds both ends
        out = tmp_path / "est.csv"
        for pulses in ("99999999999999999999", "0", "-1"):
            code = run(["estimate", "--pulses", pulses, "--out", str(out)])
            assert code == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("validation error: pulses")
            assert f"[1, 2**63 - 1], got {pulses}" in err
            assert not out.exists()

    def test_negative_value_after_flag(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        base = ["estimate", "--scenario", "timebin-hqa", "--mu", "0.8",
                "--pulses", "1000"]
        assert run(base + ["--analyzer-phi", "-1e-3",
                           "--out", str(spaced)]) == EXIT_OK
        assert run(base + ["--analyzer-phi=-1e-3",
                           "--out", str(joined)]) == EXIT_OK
        assert spaced.read_bytes() == joined.read_bytes()

    def test_negative_infinity_after_flag_is_validation_error(self, tmp_path,
                                                              capsys):
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--pin-from", "-inf", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "pin_from must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_key_is_gone(self, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("cutoff = 4\n")
        assert run(["hom", "--config", str(cfg)]) == EXIT_PARSE
        assert run(["hom", "--cutoff", "4"]) == EXIT_PARSE

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command,key,value", OUT_OF_RANGE)
    def test_value_out_of_range_names_its_key(self, tmp_path, capsys, command,
                                              key, value, source):
        # the message names the key the user set, not the argument it
        # reaches (p_in for pin_from, mu for mu_plus, dark_click_prob)
        out, cfg = tmp_path / "out.csv", tmp_path / "range.cfg"
        cfg.write_text(f"{key} = {value}\n")
        given = (["--" + key.replace("_", "-"), value] if source == "flag"
                 else ["--config", str(cfg)])
        assert run([command, *given, "--out", str(out)]) == EXIT_VALIDATION
        top = ")" if key == "dark" else "]"
        assert capsys.readouterr().err == (
            f"validation error: {key} must lie in [0, 1{top}, got "
            f"{float(value)}\n")
        assert not out.exists()

    def test_non_finite_config_value_is_validation_error(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t = nan\n")
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "t must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_in_a_file_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("config = other.cfg\n")
        assert run(["hom", "--config", str(cfg)]) == EXIT_PARSE
        assert "unknown key 'config'" in capsys.readouterr().err

    def test_file_may_hold_keys_the_command_does_not_read(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        # every key but mu_steps belongs to other commands
        cfg.write_text("scenario = timebin-hqa\nt = 0.5\nseed = 3\n"
                       "phi_steps = 8\nmu_steps = 2\n")
        out = tmp_path / "hom.csv"
        assert run(["hom", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out)[2]) == 2

    @pytest.mark.parametrize("command,args", [
        ("gain-curve", {"pin_steps": "4"}), ("fringe", {"phi_steps": "8"}),
        ("estimate", {"pulses": "1000"})])
    def test_preset_with_every_key_given_is_validation_error(
            self, tmp_path, capsys, command, args):
        # pa and eta both given left the preset nothing to set: it wrote
        # the same bytes as no preset
        code, err = unread_key(tmp_path, capsys, command, {
            "preset": "paper-solid", "pa": "0.5", "eta": "0.6", **args})
        assert (code, err) == (EXIT_VALIDATION, "validation error: preset is "
                               "not read with pa and eta given, got "
                               "paper-solid\n")

    @pytest.mark.parametrize("in_file", [["preset"], ["pa", "eta"], ["pa"]])
    def test_preset_keys_given_by_file_and_flags_together(
            self, tmp_path, capsys, in_file):
        keys = {"preset": "paper-dashed", "pa": "0.5", "eta": "0.6"}
        cfg = tmp_path / "keys.cfg"
        cfg.write_text("".join(f"{k} = {keys[k]}\n" for k in in_file))
        flags = [w for k in keys.keys() - in_file for w in (f"--{k}", keys[k])]
        assert run(["gain-curve", "--config", str(cfg), *flags,
                    "--out", os.devnull]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: preset ")

    @pytest.mark.parametrize("given,left", [
        ({"pa": "0.5"}, {"eta": "0.7"}),
        ({"eta": "0.6"}, {"pa": repr(PRESETS["paper-solid"]["p_a"])})])
    def test_preset_with_a_key_left_to_it_is_read(self, tmp_path, capsys,
                                                  given, left):
        code, _ = unread_key(tmp_path, capsys, "gain-curve", {
            "preset": "paper-solid", **given, "pin_steps": "4"})
        assert code == EXIT_OK
        preset = (tmp_path / "out.csv").read_bytes()
        code, _ = unread_key(tmp_path, capsys, "gain-curve", {
            **given, **left, "pin_steps": "4"})
        assert code == EXIT_OK and (tmp_path / "out.csv").read_bytes() == preset

    def test_parse_config_file_values(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = timebin-hqa\nseed = 7\neta = 0.7\n")
        values = parse_config_file(str(cfg))
        assert values == {"scenario": "timebin-hqa", "seed": 7, "eta": 0.7}


def test_selftest_passes_quickly(capsys):
    start = time.time()
    assert run(["selftest"]) == EXIT_OK
    assert time.time() - start < 20.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "selftest: OK"
    # one line per registered check, in registry order, each timed
    pattern = re.compile(r"\[PASS\] (\S+)  .* \(\d+\.\ds\)")
    names = [pattern.fullmatch(line).group(1) for line in lines[:-1]]
    assert names == list(CHECKS)


#: Each command's flags: the keys it reads, in --help order.
FLAGS = {
    "gain-curve": ["config", "out", "scenario", "preset", "t", "pa", "eta",
                   "mu", "dark", "pin-from", "pin-to", "pin-steps"],
    "fringe": ["config", "out", "preset", "t", "pa", "eta", "mu", "pin",
               "dark", "phi-steps", "mu-plus", "mu-minus"],
    "hom": ["config", "out", "mu", "mu-from", "mu-to", "mu-steps"],
    "estimate": ["config", "out", "scenario", "preset", "t", "pa", "eta",
                 "mu", "pin", "dark", "seed", "pulses", "eta-herald",
                 "eta-out", "analyzer-phi", "delta-phi"],
    "selftest": [],
}
ALL_FLAGS = sorted({flag for flags in FLAGS.values() for flag in flags})


def listed_flags(text):
    """Command -> the flags --help lists under it; None -> any others."""
    listed, command = {}, None
    for line in text.splitlines()[1:]:  # after the usage line
        name = line[2:].split(" ", 1)[0]
        if line.startswith("  ") and name in FLAGS:
            command = name
            listed[command] = []
        elif not line.startswith(" " * 14):
            command = None
        found = re.findall(r"--[a-z][a-z-]*", line)
        if found:
            listed.setdefault(command, []).extend(found)
    return listed


class TestFlagParsing:
    @pytest.mark.parametrize("args", [["--help"], ["-h"], ["hom", "--help"],
                                      ["gain-curve", "--t", "0.5", "-h"]])
    def test_help_exits_ok(self, capsys, args):
        assert run(args) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: qubitamp COMMAND")
        assert listed_flags(out) == {
            command: [f"--{flag}" for flag in flags]
            for command, flags in FLAGS.items()}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_flag_of_a_command_is_accepted(self, command):
        for flag in FLAGS[command]:
            value = "fock-hpa" if flag == "scenario" else "1"
            name, flags = parse_flags([command, f"--{flag}", value])
            assert name == command and list(flags) == [flag.replace("-", "_")]

    @pytest.mark.parametrize("argv", [
        [command, f"--{flag}", "1"] for command in FLAGS for flag in ALL_FLAGS
        if flag not in FLAGS[command]] + [
        # each exited 0 while its command read no value of argv[1]
        ["fringe", "--scenario", "fock-hpa", "--phi-steps", "2"],
        ["hom", "--t", "2"],
        ["gain-curve", "--pin", "7", "--pin-steps", "1"],
        ["selftest", "--out", "/nonexistent/x.csv", "--t", "5"],
    ], ids=" ".join)
    def test_flag_a_command_does_not_read_is_parse_error(self, capsys, argv):
        assert run(argv) == EXIT_PARSE
        assert capsys.readouterr() == (
            "", f"parse error: {argv[1]}: not a flag of {argv[0]}\n")

    @pytest.mark.parametrize("args,named", [
        ([], "expected a command"),
        (["bogus", "--t", "0.5"], "bogus"),
        (["--t", "0.5"], "--t"),
        (["gain-curve", "--phi-steps", "4"], "--phi-steps"),
        (["estimate", "--pin-from", "0.1"], "--pin-from"),
        (["gain-curve", "--pin-steps", "4", "--t"], "--t"),
        (["gain-curve", "--t", "fast"], "--t"),
        (["gain-curve", "--pin-steps=2.5"], "--pin-steps"),
        (["gain-curve", "--pin-f", "0.5"], "--pin-f"),
        (["gain-curve", "--pin_from", "0.5"], "--pin_from"),
        (["gain-curve", "0.5"], "0.5"),
    ])
    def test_parse_error_names_the_flag(self, tmp_path, capsys, args, named):
        out = tmp_path / "out.csv"
        # --out goes first, so that a flag left without a value stays last
        argv = args[:1] + ["--out", str(out)] + args[1:] if args else []
        assert run(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert named in captured.err
        assert not out.exists()

    def test_repeated_flag_last_wins(self, capsys):
        assert run(["hom", "--mu", "0.2", "--mu=0.5",
                    "--mu", "0.959"]) == EXIT_OK
        once = capsys.readouterr().out
        assert run(["hom", "--mu", "0.959"]) == EXIT_OK
        assert once == capsys.readouterr().out

    def test_word_after_a_flag_is_its_value(self):
        assert parse_flags(["fringe", "--out", "--mu-plus",
                            "--mu-minus", "-inf"]) == (
            "fringe", {"out": "--mu-plus", "mu_minus": -math.inf})


#: Values of each kind of key: valid ones kept small, so that nothing big is
#: made (steps at most 64, pulses at most 10**6); edges; NaN and infinities;
#: negatives; huge values, each one that is rejected before it is used;
#: and words that are not numbers.
BAD_WORDS = st.sampled_from(["abc", "", "1,5", "0x10", "--help"])
FLOAT_VALUES = (st.floats(0.0, 1.0).map(repr)
                | st.sampled_from(["0", "1", "-0.0", "5e-324", "1e-300",
                                   repr(1.0 - 1e-16), "nan", "inf", "-inf",
                                   "-1e-300", "-0.5", "1e308", "1e400"])
                | BAD_WORDS)
INT_OTHERS = (st.sampled_from([0, 1, 2, -1, cli.MAX_STEPS + 1, 2**63, 10**20,
                               2**128]).map(str)
              | st.sampled_from(["nan", "inf", "1.5", "1e3"]) | BAD_WORDS)
#: Each key's values; a key not named here is a float
VALUES = {
    "pin_steps": st.integers(1, 64).map(str) | INT_OTHERS,
    "mu_steps": st.integers(1, 64).map(str) | INT_OTHERS,
    "phi_steps": st.integers(1, 64).map(str) | INT_OTHERS,
    "pulses": st.integers(1, 10**6).map(str) | INT_OTHERS,
    "seed": st.integers(0, 2**128 - 1).map(str) | INT_OTHERS,
    "scenario": st.sampled_from(["fock-hpa", "timebin-hqa", "bogus", ""]),
    "preset": st.sampled_from(["paper-solid", "paper-dashed", "bogus"]),
    # an empty file; a path under a file, which cannot be opened
    "config": st.sampled_from([os.devnull, os.path.join(os.devnull, "x")]),
    "out": st.sampled_from([os.devnull, os.path.join(os.devnull, "x.csv")]),
}


@st.composite
def argvs(draw):
    """A command and flags of its keys (selftest: of any key), each given as
    `--key value` or `--key=value`, with values of every kind."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    keys = cli.COMMANDS[command][2] or tuple(cli._KEYS)
    argv = [command]
    for key in draw(st.lists(st.sampled_from(keys), min_size=not
                             cli.COMMANDS[command][2], max_size=5)):
        value = draw(VALUES.get(key, FLOAT_VALUES))
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code_and_one_line(argv):
    # nothing escapes main: every failure is an exit code and one line on
    # stderr, and a success writes nothing there
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_NUMERICAL)
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


#: A valid argv of each command, to which one key at a time is added
BASE_ARGV = {
    # dark counts part the two scenarios, equal at this grid without them
    "gain-curve": ["--pin-steps", "4", "--dark", "0.01"],
    "fringe": ["--phi-steps", "8"],
    "hom": [],
    "estimate": ["--scenario", "timebin-hqa", "--pulses", "100000"],
}
#: Keys that a pair needs as well, so that the command reads its key
PAIR_ARGV = {("hom", "mu_from"): ["--mu-steps", "3"],
             ("hom", "mu_to"): ["--mu-steps", "3"]}
#: Two distinct valid values of each key
TWO_VALUES = {
    "scenario": ("fock-hpa", "timebin-hqa"),
    "preset": ("paper-solid", "paper-dashed"),
    "t": ("0.7", "0.9"), "pa": ("0.5", "0.8"), "eta": ("0.6", "0.9"),
    "mu": ("0.8", "0.9"), "pin": ("0.3", "0.5"), "dark": ("0", "0.01"),
    "seed": ("1", "2"), "pulses": ("1000", "2000"),
    "pin_from": ("0.1", "0.2"), "pin_to": ("0.8", "0.9"),
    "pin_steps": ("3", "4"), "phi_steps": ("4", "8"),
    "mu_plus": ("0.9", "0.95"), "mu_minus": ("0.9", "0.95"),
    "mu_from": ("0", "0.5"), "mu_to": ("0.8", "1"), "mu_steps": ("2", "3"),
    "eta_herald": ("0.5", "0.9"), "eta_out": ("0.5", "1"),
    "analyzer_phi": ("0", "1"), "delta_phi": ("0", "1"),
}
KEY_CASES = [
    (command, key, BASE_ARGV[command] + PAIR_ARGV.get((command, key), []))
    for command, (_, _, keys) in cli.COMMANDS.items()
    for key in keys if key not in ("config", "out")] + [
    # every key of the preset given too, so that it sets nothing
    (command, "preset", BASE_ARGV[command] + ["--pa", "0.5", "--eta", "0.6"])
    for command in ("gain-curve", "fringe", "estimate")]


@pytest.mark.parametrize("command,key,argv", KEY_CASES,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else v)
def test_every_key_changes_the_bytes_or_is_rejected(tmp_path, capsys,
                                                    command, key, argv):
    # two valid values of a key a command reads write different CSVs, or
    # both are a validation error that names the key
    outcomes = []
    for i, value in enumerate(TWO_VALUES[key]):
        out = tmp_path / f"{i}.csv"
        code = run([command, *argv, "--" + key.replace("_", "-"), value,
                    "--out", str(out)])
        err = capsys.readouterr().err
        outcomes.append((code, err, out.exists() and out.read_bytes()))
    (code, err, csv), (code2, err2, csv2) = outcomes
    if EXIT_VALIDATION in (code, code2):
        assert code == code2 == EXIT_VALIDATION
        assert all(e.startswith(f"validation error: {key} ")
                   for e in (err, err2))
    else:
        assert (code, code2) == (EXIT_OK, EXIT_OK) and csv != csv2


def readme_cli_examples():
    """The argv of each `qubitamp` line in the README's CLI block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    return [line.split()[1:] for line in block.split("```")[1].splitlines()
            if line.startswith("qubitamp ")]


@pytest.mark.parametrize("argv", [argv for argv in readme_cli_examples()
                                  if argv[0] != "selftest"],
                         ids=lambda argv: argv[0])
def test_readme_cli_example_runs(tmp_path, argv):
    at = argv.index("--out") + 1
    out = tmp_path / argv[at]
    assert run(argv[:at] + [str(out)] + argv[at + 1:]) == EXIT_OK
    assert read_csv(out)[2]


def _child_env() -> dict:
    """Environment for a child interpreter that imports this qubitamp."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_reads_sys_argv(tmp_path):
    child, here = tmp_path / "child.csv", tmp_path / "here.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qubitamp.cli", "hom", "--mu", "0.5",
         "--out", str(child)], env=_child_env(), capture_output=True,
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert run(["hom", "--mu", "0.5", "--out", str(here)]) == EXIT_OK
    assert child.read_bytes() == here.read_bytes()
