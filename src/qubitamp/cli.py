"""Command-line front end: parameter sweeps and CSV emission.

Configuration is a flat key=value file with '#' comments; command-line
flags override file values, and a named preset fills in parameter defaults
before either. CSV output uses 9 significant digits, '.' decimals and
bare newline line endings.

Exit codes: 0 success, 2 parse error, 3 validation error (including a
non-finite float value), 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .amplifier import (
    AmplifierParams,
    PRESETS,
    QubitSpec,
    UndefinedGainError,
    ZeroHeraldError,
    fringe_scan,
    gain_analytic,
    hom_coincidence,
    hom_coincidence_fock,
    mu_for_visibility,
    simulate_scenario,
)
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

SCENARIOS = ("fock-hpa", "timebin-hqa")

_FLOAT_KEYS = ("t", "pa", "eta", "mu", "pin", "dark", "pin_from", "pin_to",
               "mu_plus", "mu_minus", "mu_from", "mu_to", "eta_herald",
               "eta_out", "analyzer_phi", "delta_phi")
_INT_KEYS = ("cutoff", "seed", "pulses", "pin_steps", "phi_steps", "mu_steps")
_STR_KEYS = ("scenario", "preset", "out")

DEFAULTS: dict = {
    "scenario": "fock-hpa",
    "t": 0.9,
    "pa": 1.0,
    "eta": 0.7,
    "mu": 1.0,
    "pin": 0.2,
    "dark": 0.0,
    "cutoff": 4,
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
                   if k in DEFAULTS or k in ("preset", "out", "mu_plus",
                                             "mu_minus", "mu_from", "mu_to",
                                             "mu_steps")
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
        cutoff=cfg["cutoff"],
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
    rows = []
    for pin in grid:
        pin = float(pin)
        params = params_from_config(cfg, pin=pin)
        g_formula = gain_analytic(params.t, params.p_a, params.eta, pin)
        outcome = simulate_scenario(cfg["scenario"], params)
        rows.append([pin, g_formula, outcome.gain,
                     g_formula * pin, outcome.p_out])
    write_csv(cfg.get("out"),
              ["p_in", "gain_analytic", "gain_oracle",
               "p_out_analytic", "p_out_oracle"], rows)
    return EXIT_OK


def cmd_fringe(cfg: dict) -> int:
    if cfg["phi_steps"] < 1:
        raise ValueError("phi_steps must be at least 1")
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
        rows.append([mu, coincidence, hom_coincidence_fock(mu, cfg["cutoff"]),
                     vis])
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
    """Run the acceptance grid and key cross-checks; report pass/fail."""
    import itertools
    import time

    from .circuits import Mixture, apply_loss, mixture_density
    from .detection import CLICK, Detector, DetectorSpec, measure

    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures += 1

    t0 = time.time()
    worst = 0.0
    bound_slack = 0.0
    for scenario in SCENARIOS:
        for t, pa, eta, pin in itertools.product(
                (0.5, 0.7, 0.9, 0.99), (0.296, 0.5, 0.8, 0.9, 1.0),
                (0.5, 0.7, 1.0), (0.01, 0.1, 0.2, 0.47, 0.7, 1.0)):
            params = AmplifierParams(t=t, p_in=pin, p_a=pa, eta=eta)
            outcome = simulate_scenario(scenario, params)
            worst = max(worst, abs(outcome.gain - gain_analytic(t, pa, eta, pin)))
            bound_slack = max(bound_slack, outcome.p_out - pa * t)
    report("gain formula equality on 720-point grid", worst <= 1e-9,
           f"worst |diff| = {worst:.3e}, {time.time() - t0:.1f}s")
    report("output probability bounded by p_a * t", bound_slack <= 1e-12,
           f"max slack = {bound_slack:.3e}")

    g_max = simulate_scenario(
        "fock-hpa", AmplifierParams(t=0.9, p_in=1e-6, p_a=1.0, eta=1.0)).gain
    report("maximum gain 9 at t = 0.9", abs(g_max - 9.0) <= 1e-3,
           f"gain = {g_max:.6f}")

    best = max(
        simulate_scenario("fock-hpa",
                          AmplifierParams(t=0.99, p_in=pin, p_a=0.9, eta=0.7)).p_out
        for pin in np.linspace(0.05, 1.0, 20))
    report("p_out exceeds 0.823 at t = 0.99", best > 0.823, f"max = {best:.4f}")

    params = AmplifierParams(t=0.7, p_in=0.47, p_a=0.8, eta=0.7)
    out = simulate_scenario("timebin-hqa", params)
    fid_ok = all(abs(oc.fidelity_conditional - 1.0) <= 1e-9
                 for oc in out.per_class.values())
    report("unit fidelity for both herald classes at mu = 1", fid_ok)

    mu98 = mu_for_visibility(0.98, params)
    mu93 = mu_for_visibility(0.93, params, "psi_minus")
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    scan = fringe_scan(params, phis, mu_plus=mu98, mu_minus=mu93)
    report("calibrated fringe fidelities 0.99 / 0.965",
           abs(scan.fidelity_plus - 0.99) <= 1e-9
           and abs(scan.fidelity_minus - 0.965) <= 1e-9,
           f"F+ = {scan.fidelity_plus:.12f}, F- = {scan.fidelity_minus:.12f}")

    hom_worst = max(abs(hom_coincidence(mu)[0] - hom_coincidence_fock(mu))
                    for mu in (0.0, 0.5, 0.959, 1.0))
    report("two-photon dip closed form vs Fock route", hom_worst <= 1e-12,
           f"worst |diff| = {hom_worst:.3e}")

    rng = np.random.default_rng(20240)
    ident_worst = 0.0
    for _ in range(25):
        state = _random_two_path_state(rng)
        mix = Mixture.pure(state)
        det_eff = [Detector("d", "p0", DetectorSpec(0.7))]
        det_ideal = [Detector("d", "p0", DetectorSpec(1.0))]
        p_a_, cond_a = measure(mix, det_eff, {"d": CLICK})
        p_b_, cond_b = measure(apply_loss(mix, "p0", 0.7), det_ideal,
                               {"d": CLICK})
        ident_worst = max(ident_worst, abs(p_a_ - p_b_))
        if p_a_ > 1e-12:
            _, rho_a = mixture_density(cond_a)
            _, rho_b = mixture_density(cond_b)
            ident_worst = max(ident_worst, float(np.max(np.abs(rho_a - rho_b))))
    report("efficiency equals loss before ideal detection", ident_worst <= 1e-12,
           f"worst |diff| = {ident_worst:.3e}")

    t0 = time.time()
    p_mc = AmplifierParams(t=0.9, p_in=0.2, p_a=0.296, eta=0.7)
    oracle_gain = simulate_scenario("fock-hpa", p_mc).gain
    bad = 0
    for seed in range(5):
        counts = sample_events(p_mc, n_pulses=200_000, seed=seed)
        est = estimate_gain(counts, "herald")
        if abs(est.value - oracle_gain) > 5.0 * est.error:
            bad += 1
    report("sampled gain within 5 sigma of oracle (5 seeds)", bad == 0,
           f"{5 - bad}/5 seeds, {time.time() - t0:.1f}s")

    print(f"selftest: {'OK' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _random_two_path_state(rng):
    from . import fock as fk

    labels = fk.mode_labels(("p0", "p1"))
    amps = {}
    for _ in range(4):
        occ = [0, 0, 0, 0]
        for _ in range(int(rng.integers(0, 4))):
            occ[int(rng.integers(0, 4))] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    state = fk.FockState(4, 4, amps, labels)
    return state.normalized()


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
    common.add_argument("--cutoff", type=int)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError) as exc:
        if isinstance(exc, (UndefinedGainError, UndefinedEstimateError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ZeroHeraldError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
