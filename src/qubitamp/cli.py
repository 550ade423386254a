"""Command-line front end: parameter sweeps and CSV emission.

Configuration is a flat key=value file with '#' comments; command-line
flags override file values, and a named preset fills in parameter defaults
before either. CSV output uses 9 significant digits, '.' decimals and
bare newline line endings.

Exit codes: 0 success, 2 parse error, 3 validation error (including a
non-finite float value), 4 internal numerical failure (including running
out of memory).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .amplifier import (
    AmplifierParams,
    PRESETS,
    QubitSpec,
    SCENARIOS,
    UndefinedGainError,
    ZeroHeraldError,
    compile_scenario,
    fringe_scan,
    gain_analytic,
    hom_coincidence,
    hom_coincidence_fock,
)
# Not called here: benchmarks/spans.py wraps cli.mu_for_visibility by name,
# so the name stays importable from this module.
from .amplifier import mu_for_visibility  # noqa: F401
from .checks import CHECKS, CheckRun, run_check
from .montecarlo import (
    ETA_HERALD_DEFAULT,
    UndefinedEstimateError,
    estimate_gain,
    estimate_pin,
    estimate_pout,
    sample_events,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_FLOAT_KEYS = ("t", "pa", "eta", "mu", "pin", "dark", "pin_from", "pin_to",
               "mu_plus", "mu_minus", "mu_from", "mu_to", "eta_herald",
               "eta_out", "analyzer_phi", "delta_phi")
_INT_KEYS = ("seed", "pulses", "pin_steps", "phi_steps", "mu_steps")
_STR_KEYS = ("scenario", "preset", "out")

DEFAULTS: dict = {
    "scenario": "fock-hpa",
    "t": 0.9,
    "pa": 1.0,
    "eta": 0.7,
    "mu": 1.0,
    "pin": 0.2,
    "dark": 0.0,
    "seed": 12345,
    "pulses": 100_000,
    "pin_from": 0.1,
    "pin_to": 1.0,
    "pin_steps": 10,
    "phi_steps": 16,
    "eta_herald": ETA_HERALD_DEFAULT,
    "eta_out": 1.0,
    "analyzer_phi": 0.0,
    "delta_phi": 0.0,
}


class ConfigError(Exception):
    """Malformed configuration text or unknown key."""


def parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        values[key] = _parse_value(key, value, where=f"{path}:{lineno}")
    return values


def _parse_value(key: str, value: str, where: str = "flag"):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        if key in _STR_KEYS:
            return value
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc
    raise ConfigError(f"{where}: unknown key {key!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, preset, config file and flags (later wins)."""
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {k: v for k, v in vars(args).items()
                   if k in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS
                   if v is not None}
    for source in (file_values, flag_values):
        for key, value in source.items():
            if key in _FLOAT_KEYS and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
    preset = flag_values.get("preset", file_values.get("preset"))
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"available: {sorted(PRESETS)}")
        for pkey, pval in PRESETS[preset].items():
            cfg[{"p_a": "pa"}.get(pkey, pkey)] = pval
    cfg.update({k: v for k, v in file_values.items() if k != "preset"})
    cfg.update({k: v for k, v in flag_values.items() if k != "preset"})
    return cfg


def params_from_config(cfg: dict, pin: float | None = None) -> AmplifierParams:
    return AmplifierParams(
        t=cfg["t"],
        p_in=cfg["pin"] if pin is None else pin,
        p_a=cfg["pa"],
        eta=cfg["eta"],
        mu=cfg["mu"],
        dark_click_prob=cfg["dark"],
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def write_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    text = "\n".join([",".join(header)]
                     + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- commands ----------------------------------------------------------


def cmd_gain_curve(cfg: dict) -> int:
    if cfg["pin_steps"] < 1:
        raise ValueError("pin_steps must be at least 1")
    if not cfg["pin_from"] <= cfg["pin_to"]:
        raise ValueError("pin_from must not exceed pin_to")
    if cfg["scenario"] not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg['scenario']!r}")
    grid = np.linspace(cfg["pin_from"], cfg["pin_to"], cfg["pin_steps"])
    # AmplifierParams validates every point
    points = [params_from_config(cfg, pin=float(pin)) for pin in grid]
    oracle = compile_scenario(cfg["scenario"], points[0]).evaluate(
        grid, points[0].p_a, points[0].mu)
    rows = []
    for p, gain, p_out in zip(points, oracle.gain, oracle.p_out):
        g_formula = gain_analytic(p.t, p.p_a, p.eta, p.p_in)
        rows.append([p.p_in, g_formula, gain, g_formula * p.p_in, p_out])
    write_csv(cfg.get("out"),
              ["p_in", "gain_analytic", "gain_oracle",
               "p_out_analytic", "p_out_oracle"], rows)
    return EXIT_OK


def cmd_fringe(cfg: dict) -> int:
    if cfg["phi_steps"] < 2:
        raise ValueError("phi_steps must be at least 2")
    params = params_from_config(cfg)
    phis = np.linspace(0.0, 2.0 * math.pi, cfg["phi_steps"], endpoint=False)
    scan = fringe_scan(params, phis,
                       mu_plus=cfg.get("mu_plus"),
                       mu_minus=cfg.get("mu_minus"))
    rows = [[float(phi), float(rp), float(rm),
             scan.visibility_plus, scan.visibility_minus,
             scan.fidelity_plus, scan.fidelity_minus]
            for phi, rp, rm in zip(scan.phis, scan.rate_plus, scan.rate_minus)]
    write_csv(cfg.get("out"),
              ["delta_phi", "rate_psi_plus", "rate_psi_minus",
               "visibility_plus", "visibility_minus",
               "fidelity_plus", "fidelity_minus"], rows)
    return EXIT_OK


def cmd_hom(cfg: dict) -> int:
    if cfg.get("mu_steps") is not None:
        if cfg["mu_steps"] < 1:
            raise ValueError("mu_steps must be at least 1")
        lo = cfg.get("mu_from", 0.0)
        hi = cfg.get("mu_to", 1.0)
        if not lo <= hi:
            raise ValueError("mu_from must not exceed mu_to")
        grid = [float(m) for m in np.linspace(lo, hi, cfg["mu_steps"])]
    else:
        grid = [cfg["mu"]]
    rows = []
    for mu in grid:
        coincidence, vis = hom_coincidence(mu)
        rows.append([mu, coincidence, hom_coincidence_fock(mu), vis])
    write_csv(cfg.get("out"),
              ["mu", "coincidence", "coincidence_fock", "visibility"], rows)
    return EXIT_OK


def cmd_estimate(cfg: dict) -> int:
    if cfg["scenario"] not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg['scenario']!r}")
    if cfg["pulses"] < 1:
        raise ValueError("pulses must be at least 1")
    params = params_from_config(cfg)
    qubit = (QubitSpec.from_phase(cfg["delta_phi"])
             if cfg["scenario"] == "timebin-hqa" else None)
    counts = sample_events(
        params, n_pulses=cfg["pulses"], seed=cfg["seed"],
        scenario=cfg["scenario"], qubit=qubit,
        analyzer_phi=cfg["analyzer_phi"], eta_herald=cfg["eta_herald"],
        eta_out=cfg["eta_out"])
    pin = estimate_pin(counts)
    rows = []
    for cls in sorted(counts.threefold):
        pout = estimate_pout(counts, cls)
        gain = estimate_gain(counts, cls)
        rows.append([cfg["scenario"], cls, counts.n_pulses, cfg["seed"],
                     counts.d1, counts.d1_d2,
                     counts.threefold[cls], counts.fourfold[cls],
                     pin.value, pin.error, pout.value, pout.error,
                     gain.value, gain.error])
    write_csv(cfg.get("out"),
              ["scenario", "herald_class", "n_pulses", "seed", "d1", "d1_d2",
               "threefold", "fourfold", "p_in_est", "p_in_err",
               "p_out_est", "p_out_err", "gain_est", "gain_err"], rows)
    return EXIT_OK


def cmd_selftest(cfg: dict) -> int:
    """Run the acceptance checks of qubitamp.checks; report pass/fail."""
    failures = 0
    run = CheckRun()
    for name in CHECKS:
        ok, line = run_check(name, run)
        print(line, flush=True)
        failures += not ok
    print(f"selftest: {'OK' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    common.add_argument("--scenario", choices=SCENARIOS)
    common.add_argument("--preset", help="named parameter preset")
    common.add_argument("--t", type=float)
    common.add_argument("--pa", type=float)
    common.add_argument("--eta", type=float)
    common.add_argument("--mu", type=float)
    common.add_argument("--pin", type=float)
    common.add_argument("--dark", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--pulses", type=int)

    parser = argparse.ArgumentParser(
        prog="qubitamp",
        description="Heralded photonic qubit amplifier simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gain-curve", parents=[common],
                       help="gain and output probability versus p_in")
    p.add_argument("--pin-from", dest="pin_from", type=float)
    p.add_argument("--pin-to", dest="pin_to", type=float)
    p.add_argument("--pin-steps", dest="pin_steps", type=int)

    p = sub.add_parser("fringe", parents=[common],
                       help="per-class analyzer rates versus input phase")
    p.add_argument("--phi-steps", dest="phi_steps", type=int)
    p.add_argument("--mu-plus", dest="mu_plus", type=float)
    p.add_argument("--mu-minus", dest="mu_minus", type=float)

    p = sub.add_parser("hom", parents=[common],
                       help="two-photon interference dip versus overlap")
    p.add_argument("--mu-from", dest="mu_from", type=float)
    p.add_argument("--mu-to", dest="mu_to", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)

    p = sub.add_parser("estimate", parents=[common],
                       help="Monte Carlo coincidence counts and estimators")
    p.add_argument("--eta-herald", dest="eta_herald", type=float)
    p.add_argument("--eta-out", dest="eta_out", type=float)
    p.add_argument("--analyzer-phi", dest="analyzer_phi", type=float)
    p.add_argument("--delta-phi", dest="delta_phi", type=float)

    sub.add_parser("selftest", parents=[common],
                   help="run the acceptance grid and cross-checks")
    return parser


COMMANDS = {
    "gain-curve": cmd_gain_curve,
    "fringe": cmd_fringe,
    "hom": cmd_hom,
    "estimate": cmd_estimate,
    "selftest": cmd_selftest,
}


def _attach_negative_values(argv) -> list[str]:
    """Join `--flag -1e-3` into `--flag=-1e-3`. argparse takes a word that
    starts with '-' for a flag unless it is a plain negative decimal, so
    `-1e-3` and `-inf` would otherwise lose their flag."""
    out: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UndefinedGainError, UndefinedEstimateError, ZeroHeraldError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
