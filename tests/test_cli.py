import math
import re
import time

import pytest

from qubitamp import cli
from qubitamp.checks import CHECKS
from qubitamp.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    parse_config_file,
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
        assert "mu must lie in [0, 1]" in capsys.readouterr().err
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


class TestHom:
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


def test_out_of_memory_is_numerical_error(monkeypatch, capsys):
    def fringe(cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    monkeypatch.setitem(cli.COMMANDS, "fringe", fringe)
    assert run(["fringe", "--phi-steps", "100000000000"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == ("numerical failure: out of memory: "
                   "Unable to allocate 745. GiB for an array\n")


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

    def test_unknown_preset_is_validation_error(self):
        assert run(["gain-curve", "--preset", "nope"]) == EXIT_VALIDATION

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

    def test_huge_pulse_count_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code = run(["estimate", "--pulses", "99999999999999999999",
                    "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "2**63 - 1" in capsys.readouterr().err
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

    def test_non_finite_config_value_is_validation_error(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t = nan\n")
        out = tmp_path / "gain.csv"
        code = run(["gain-curve", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "t must be finite" in capsys.readouterr().err
        assert not out.exists()

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
