"""Command-line front end: parameter sweeps and CSV emission.

`qubitamp COMMAND --flag VALUE ...`: a flag is a configuration key with '_'
written as '-', given as `--key value` or `--key=value`, and its value is
read as in a configuration file. COMMANDS lists each command's function,
summary and flags, the keys it reads; any other flag is a parse error, as
are abbreviations. The word after a flag is always its value and the last
repeat wins. `-h` or `--help` lists them, with each key's type from _KEYS.

Configuration is a flat key=value file with '#' comments; it may hold any
command's keys but `config`. Command-line flags override file values, and a
named preset fills in parameter defaults before either, unless they give
all its keys. Each command hands write_csv one dict of its columns, which
it writes with 9 significant digits, '.' decimals and newline line endings.

Exit codes: 0 success, 2 parse error, 3 validation error (including a
non-finite float value or one out of range, named by its key, an unknown
scenario, a grid of over MAX_STEPS points, or an --out path that cannot be
opened or written, such as a full disk), 4 internal numerical failure
(including running out of memory).
"""

from __future__ import annotations

import math
import os
import stat
import sys

import numpy as np

from .amplifier import (
    AmplifierParams,
    PRESETS,
    QubitSpec,
    SCENARIOS,
    UndefinedGainError,
    ZeroHeraldError,
    build_scenario,
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
MAX_STEPS = 100_000  #: most points of pin_steps, mu_steps or phi_steps

#: Every key: key -> (value type, default or None). The type names the
#: value in --help; `config` is a flag only, the path of a file of keys.
_KEYS: dict = {
    "config": ("PATH", None), "out": ("PATH", None),
    "scenario": ("NAME", "fock-hpa"), "preset": ("NAME", None),
    "t": ("FLOAT", 0.9), "pa": ("FLOAT", 1.0), "eta": ("FLOAT", 0.7),
    "mu": ("FLOAT", 1.0), "pin": ("FLOAT", 0.2), "dark": ("FLOAT", 0.0),
    "seed": ("INT", 12345), "pulses": ("INT", 100_000),
    "pin_from": ("FLOAT", 0.1), "pin_to": ("FLOAT", 1.0),
    "pin_steps": ("INT", 10), "phi_steps": ("INT", 16),
    "mu_plus": ("FLOAT", None), "mu_minus": ("FLOAT", None),
    "mu_from": ("FLOAT", None), "mu_to": ("FLOAT", None),
    "mu_steps": ("INT", None), "eta_herald": ("FLOAT", ETA_HERALD_DEFAULT),
    "eta_out": ("FLOAT", 1.0), "analyzer_phi": ("FLOAT", 0.0),
    "delta_phi": ("FLOAT", 0.0),
}


class ConfigError(Exception):
    """Malformed flag or configuration text, unknown key or bad value."""


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
        if key not in _KEYS or key == "config":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value, where=f"{path}:{lineno}")
    return values


def _parse_value(key: str, value: str, where: str):
    try:
        return {"FLOAT": float, "INT": int}.get(_KEYS[key][0], str)(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc


def resolve_config(flags: dict) -> dict:
    """Merge defaults, preset, config file and flags (later wins). Each
    given float is checked first: it must be finite and, but for the
    phases, lie in [0, 1] ([0, 1) for dark); a range error names its key."""
    flag_values = dict(flags)
    path = flag_values.pop("config", None)
    file_values = parse_config_file(path) if path is not None else {}
    for source in (file_values, flag_values):
        for key, value in source.items():
            if _KEYS[key][0] != "FLOAT":
                continue
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            top = ")" if key == "dark" else "]"
            inside = 0.0 <= value < 1.0 if top == ")" else 0.0 <= value <= 1.0
            if key not in ("analyzer_phi", "delta_phi") and not inside:
                raise ValueError(f"{key} must lie in [0, 1{top}, got {value}")
    preset = flag_values.get("preset", file_values.get("preset"))
    cfg = {key: default for key, (_, default) in _KEYS.items()
           if default is not None}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"available: {sorted(PRESETS)}")
        keys = [{"p_a": "pa"}.get(key, key) for key in PRESETS[preset]]
        if {*file_values, *flag_values}.issuperset(keys):
            raise ValueError(f"preset is not read with {' and '.join(keys)}"
                             f" given, got {preset}")
        cfg.update(zip(keys, PRESETS[preset].values()))
    cfg.update({k: v for k, v in file_values.items() if k != "preset"})
    cfg.update({k: v for k, v in flag_values.items() if k != "preset"})
    if cfg["scenario"] not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg['scenario']!r}; "
                         f"available: {list(SCENARIOS)}")
    return cfg


def params_from_config(cfg: dict, pin: float | None = None) -> AmplifierParams:
    return AmplifierParams(t=cfg["t"], p_in=cfg["pin"] if pin is None else pin,
                           p_a=cfg["pa"], eta=cfg["eta"], mu=cfg["mu"],
                           dark_click_prob=cfg["dark"])


def write_csv(out: str | None, columns: dict) -> None:
    """CSV text of `columns` to the file `out`, or to stdout if out is None.

    `columns` maps each header name to a list or 1-D array of one value
    type, one per row, or to one value for every row. A float (or float
    subclass, such as numpy.float64) is written as format(x, ".9g") and any
    other value as str(x), by one % template per call: "%.9g" for a float
    list, "%s" for any other, and each single value put in once, escaped.

    An existing file is overwritten in place and then cut to the new length,
    not truncated to zero first: on ext4 (auto_da_alloc) a truncate to zero
    can make the rewrite of a small file wait on the writeback of the last
    one. A new file gets mode 0o666 less the umask, an existing one keeps
    its mode. Only a regular file is cut, so devices and pipes (/dev/null,
    /dev/stdout) take the bytes as a stream. A write that fails part way
    cuts the file to zero, so it never holds new rows followed by old ones.
    A path that cannot be opened or written is a ValueError that names it."""
    fields, lists = [], []
    for v in columns.values():
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, list):
            lists.append(v)
            fields.append("%.9g" if v and isinstance(v[0], float) else "%s")
        else:
            fields.append((format(v, ".9g") if isinstance(v, float)
                           else str(v)).replace("%", "%%"))
    template = ",".join(fields)
    text = "\n".join([",".join(columns), *(
        template % row for row in zip(*lists, strict=True))]) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                rest = memoryview(data)
                while rest:
                    rest = rest[os.write(fd, rest):]
                if regular:
                    os.ftruncate(fd, len(data))
            except OSError:
                if regular:
                    os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


# -- commands ----------------------------------------------------------


def _grid(cfg: dict, name: str) -> np.ndarray:
    """NAME_steps evenly spaced points from NAME_from to NAME_to (by default
    0 and 1): at least one, the ends in order, and one only at equal ends."""
    lo, hi = cfg.get(f"{name}_from", 0.0), cfg.get(f"{name}_to", 1.0)
    if not 1 <= cfg[f"{name}_steps"] <= MAX_STEPS:
        raise ValueError(f"{name}_steps must be at least 1, at most "
                         f"{MAX_STEPS}")
    if not lo <= hi:
        raise ValueError(f"{name}_from must not exceed {name}_to")
    if cfg[f"{name}_steps"] == 1 and lo != hi:
        raise ValueError(f"{name}_steps = 1 needs {name}_from = {name}_to, "
                         f"got {lo} and {hi}")
    return np.linspace(lo, hi, cfg[f"{name}_steps"])


def _unread(cfg: dict, key: str, why: str) -> None:
    """Reject a key that the command does not read, unless at its default."""
    if cfg[key] != _KEYS[key][1]:
        raise ValueError(f"{key} is not read {why}, got {cfg[key]}")


def cmd_gain_curve(cfg: dict) -> int:
    p = params_from_config(cfg, pin=cfg["pin_from"])
    grid = _grid(cfg, "pin")
    oracle = compile_scenario(build_scenario(cfg["scenario"], p)).evaluate(
        grid, p.p_a, p.mu)
    g_formula = gain_analytic(p.t, p.p_a, p.eta, grid)
    write_csv(cfg.get("out"), {
        "p_in": grid, "gain_analytic": g_formula, "gain_oracle": oracle.gain,
        "p_out_analytic": g_formula * grid, "p_out_oracle": oracle.p_out})
    return EXIT_OK


def cmd_fringe(cfg: dict) -> int:
    if not 2 <= cfg["phi_steps"] <= MAX_STEPS:
        raise ValueError(f"phi_steps must be at least 2, at most {MAX_STEPS}")
    if None not in (cfg.get("mu_plus"), cfg.get("mu_minus")):
        _unread(cfg, "mu", "with mu_plus and mu_minus")
    phis = np.linspace(0.0, 2.0 * math.pi, cfg["phi_steps"], endpoint=False)
    scan = fringe_scan(params_from_config(cfg), phis,
                       mu_plus=cfg.get("mu_plus"), mu_minus=cfg.get("mu_minus"))
    write_csv(cfg.get("out"), {
        "delta_phi": scan.phis, "rate_psi_plus": scan.rate_plus,
        "rate_psi_minus": scan.rate_minus,
        "visibility_plus": scan.visibility_plus,
        "visibility_minus": scan.visibility_minus,
        "fidelity_plus": scan.fidelity_plus,
        "fidelity_minus": scan.fidelity_minus})
    return EXIT_OK


def cmd_hom(cfg: dict) -> int:
    if cfg.get("mu_steps") is not None:
        _unread(cfg, "mu", "with mu_steps")
        grid = _grid(cfg, "mu")
    elif cfg.get("mu_from") is not None or cfg.get("mu_to") is not None:
        raise ValueError("mu_from and mu_to need mu_steps")
    else:
        grid = np.array([cfg["mu"]])
    coincidence, visibility = hom_coincidence(grid)
    write_csv(cfg.get("out"), {
        "mu": grid, "coincidence": coincidence,
        "coincidence_fock": hom_coincidence_fock(grid),
        "visibility": visibility})
    return EXIT_OK


def cmd_estimate(cfg: dict) -> int:
    if not 1 <= cfg["pulses"] <= 2**63 - 1:  # the most one multinomial takes
        raise ValueError(
            f"pulses must lie in [1, 2**63 - 1], got {cfg['pulses']}")
    if cfg["scenario"] == "fock-hpa":  # no qubit and no analyzer
        for key in ("analyzer_phi", "delta_phi"):
            _unread(cfg, key, "with scenario fock-hpa")
    counts = sample_events(
        params_from_config(cfg), n_pulses=cfg["pulses"], seed=cfg["seed"],
        scenario=cfg["scenario"], qubit=QubitSpec.from_phase(cfg["delta_phi"]),
        analyzer_phi=cfg["analyzer_phi"], eta_herald=cfg["eta_herald"],
        eta_out=cfg["eta_out"])
    classes, pin = sorted(counts.threefold), estimate_pin(counts)
    pout = [estimate_pout(counts, cls) for cls in classes]
    gain = [estimate_gain(counts, cls) for cls in classes]
    write_csv(cfg.get("out"), {
        "scenario": cfg["scenario"], "herald_class": classes,
        "n_pulses": counts.n_pulses, "seed": cfg["seed"], "d1": counts.d1,
        "d1_d2": counts.d1_d2,
        "threefold": [counts.threefold[cls] for cls in classes],
        "fourfold": [counts.fourfold[cls] for cls in classes],
        "p_in_est": pin.value, "p_in_err": pin.error,
        "p_out_est": [e.value for e in pout],
        "p_out_err": [e.error for e in pout],
        "gain_est": [e.value for e in gain],
        "gain_err": [e.error for e in gain]})
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


#: command -> (function, summary, the keys it reads, which are its flags)
COMMANDS = {
    "gain-curve": (cmd_gain_curve, "gain and output probability versus p_in",
                   ("config", "out", "scenario", "preset", "t", "pa", "eta",
                    "mu", "dark", "pin_from", "pin_to", "pin_steps")),
    "fringe": (cmd_fringe, "per-class analyzer rates versus input phase",
               ("config", "out", "preset", "t", "pa", "eta", "mu", "pin",
                "dark", "phi_steps", "mu_plus", "mu_minus")),
    "hom": (cmd_hom, "two-photon interference dip versus overlap",
            ("config", "out", "mu", "mu_from", "mu_to", "mu_steps")),
    "estimate": (cmd_estimate, "Monte Carlo coincidence counts and estimators",
                 ("config", "out", "scenario", "preset", "t", "pa", "eta",
                  "mu", "pin", "dark", "seed", "pulses", "eta_herald",
                  "eta_out", "analyzer_phi", "delta_phi")),
    "selftest": (cmd_selftest, "run the acceptance grid and cross-checks", ()),
}


def usage() -> str:
    """Every command and its flags, four to a line, from the key table."""
    lines = ["usage: qubitamp COMMAND [--flag VALUE | --flag=VALUE]...\n",
             "A flag is a configuration key with '_' written as '-'; its "
             "value is read as in\na configuration file. The last repeat "
             "wins.\n", "commands:"]
    for name, (_, summary, keys) in COMMANDS.items():
        flags = [f"--{k.replace('_', '-')} {_KEYS[k][0]}" for k in keys]
        lines += [f"  {name:<12}{summary}"] + [
            f"{'':<14}{'  '.join(flags[i:i + 4])}"
            for i in range(0, len(flags), 4)]
    lines += [f"\nscenarios: {', '.join(SCENARIOS)}",
              f"presets: {', '.join(sorted(PRESETS))}"]
    return "\n".join(lines) + "\n"


def parse_flags(argv: list[str]) -> tuple[str, dict]:
    """Split argv into its command and the values of its flags by key."""
    if not argv or argv[0] not in COMMANDS:
        raise ConfigError(f"expected a command ({', '.join(COMMANDS)}), "
                          f"got {' '.join(argv[:1]) or 'none'}")
    command, words = argv[0], iter(argv[1:])
    allowed = COMMANDS[command][2]
    flags: dict = {}
    for word in words:
        flag, eq, value = word.partition("=")
        key = flag[2:].replace("-", "_")
        if not flag.startswith("--") or "_" in flag or key not in allowed:
            raise ConfigError(f"{flag}: not a flag of {command}")
        if not eq:
            value = next(words, None)
            if value is None:
                raise ConfigError(f"{flag}: expected a value")
        flags[key] = _parse_value(key, value, where=flag)
    return command, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        return EXIT_OK
    try:
        command, flags = parse_flags(argv)
        return COMMANDS[command][0](resolve_config(flags))
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
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
