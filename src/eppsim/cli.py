"""Batch command-line front end.

Each subcommand runs one reproducible computation and writes a CSV or JSON
table plus a run manifest (resolved parameters, seed, tool version, output
paths).  Re-running a manifest reproduces the outputs byte for byte.  CSV
headers are fixed per subcommand and numbers use the dot decimal separator
regardless of locale.

Subcommands: iterate, fixpoint, critical, scan, mc, curve, resources.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    CRITICAL_MAX_ITER,
    DEFAULT_MAX_ITER,
    SCAN_MAX_ITER,
    Regime,
    binary_family,
    find_critical,
    iterate_to_fixpoint,
    regime_of,
    regime_scan,
    white_noise_family,
)
from .montecarlo import MCConfig, _pairs_needed, analytic_trajectory, resource_curve, run as mc_run
from .noisemodels import NOISE_KEYS, NOISE_MODELS, noise_from_config
from .recurrence import (
    COEFF_NAMES,
    BellDiagonalState,
    EnsembleAnnihilated,
    embed,
)

ITERATE_HEADER = ["n", "F", "F_cond", "N_keep", *COEFF_NAMES]
SCAN_HEADER = ["f00", "samples", "frac_high_noise", "frac_intermediate", "frac_security"]
MC_HEADER = ["round", "remaining", "F_hat", "F_cond_hat", *[f"cell_{n}" for n in COEFF_NAMES]]
CURVE_HEADER = ["parameter", "F", "F_cond", "iterations", "regime"]
RESOURCES_HEADER = ["round", "epsilon", "pairs_required"]


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat key=value format; blank lines and # comments are ignored."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(p.read_text(), source=str(path))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _json_text(obj) -> str:
    """Indented, key-sorted JSON; NaN or infinity raises ValueError, since it
    is not valid JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        records = [dict(zip(header, [_coerce(v) for v in row])) for row in rows]
        path.write_text(_json_text(records))
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _coerce(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _write_outputs(args, header: list[str] | None, rows, **resolved) -> None:
    """Write the subcommand's table and the manifest that replays it.

    With a header, ``rows`` go to ``<command>.<format>``; without one,
    ``rows`` is a payload written as ``<command>.json``.  The manifest
    records every parsed flag; ``resolved`` replaces flags left unset with
    the values taken from the config file.  Every JSON text is made before
    its file is written, so a value JSON cannot hold writes no file.
    """
    out = Path(args.out)
    table = out / f"{args.command}.{'json' if header is None else args.format}"
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    params.update(resolved)
    manifest = _json_text(
        {
            "subcommand": args.command,
            "params": {k: _coerce(v) for k, v in params.items()},
            "seed": params.get("seed"),
            "version": __version__,
            "outputs": [table.name],
        }
    )
    if header is None:
        table.write_text(_json_text(rows))
    else:
        _write_table(table, header, rows, args.format)
    (out / f"{args.command}.manifest.json").write_text(manifest)


def replay_manifest(path: str | Path) -> int:
    """Re-run the computation recorded in a manifest (outputs land next to it)."""
    manifest = json.loads(Path(path).read_text())
    argv = [manifest["subcommand"]]
    for key, value in manifest["params"].items():
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(f"--{key.replace('_', '-')}")
            continue
        if isinstance(value, list):
            argv.append(f"--{key.replace('_', '-')}")
            argv.extend(str(v) for v in value)
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    argv.extend(["--out", str(Path(path).parent)])
    return main(argv)


# --- noise resolution -------------------------------------------------------

def _resolve_noise(args, cfg: dict[str, str]):
    """The channel of the config's settings overridden by the noise flags;
    a flag or setting of a model other than the chosen one is a ConfigError."""
    merged = dict(cfg)
    for key in ("model", *NOISE_KEYS):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = str(val)
    if "model" not in merged:
        raise ConfigError("no noise model given (set model= in the config or --model)")
    try:
        return noise_from_config(merged)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _setting(cfg: dict[str, str], key: str, parse: Callable, default: str | None = None):
    """``parse`` of the config's ``key`` (or of ``default``); a value that
    does not parse is a ConfigError that names the key."""
    text = cfg.get(key, default)
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"config {key}={text!r}: {exc}") from exc


def _abcd_state(text: str) -> BellDiagonalState:
    weights = [float(x) for x in text.split(",")]
    if len(weights) != 4:
        raise ValueError(f"expected 4 comma-separated weights A,B,C,D, got {len(weights)}")
    return BellDiagonalState.from_abcd(*weights)


def _resolve_start(args, cfg: dict[str, str]) -> BellDiagonalState:
    """--werner, else the config's werner, else its abcd, else Werner 0.85."""
    if getattr(args, "werner", None) is not None:
        return BellDiagonalState.werner(args.werner)
    if "werner" in cfg:
        return _setting(cfg, "werner", lambda text: BellDiagonalState.werner(float(text)))
    if "abcd" in cfg:
        return _setting(cfg, "abcd", _abcd_state)
    return BellDiagonalState.werner(0.85)


def _resolve_run(args):
    """Config, noise model and start state of a noise-driven subcommand."""
    cfg = _load_config(args.config)
    return cfg, _resolve_noise(args, cfg), _resolve_start(args, cfg)


# --- subcommands -------------------------------------------------------------
# A handler takes the parsed flags, and a noise-driven one also the config,
# noise model and start state; it returns (rows or JSON payload, values
# resolved from the config, exit code).

def _cmd_iterate(args, cfg, noise, start):
    steps = args.steps if args.steps is not None else _setting(cfg, "steps", int, "20")
    if steps < 0:
        raise ConfigError(f"--steps must be at least 0, got {steps}")
    rows = [
        [n, state.fidelity, state.conditional_fidelity, keep, *state.flat]
        for n, (state, keep) in enumerate(analytic_trajectory(noise, start, steps))
    ]
    return rows, {"steps": steps}, 0


def _cmd_fixpoint(args, cfg, noise, start):
    result = iterate_to_fixpoint(embed(start), noise, tol=args.tol, max_iter=args.max_iter)
    if result.failure is not None:
        raise EnsembleAnnihilated(result.failure)
    payload = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "failure": result.failure,
        "F": result.fidelity,
        "F_cond": result.conditional_fidelity,
        "regime": regime_of(result).value,
        "state": result.state.named_coeffs(),
    }
    return payload, {}, 0 if result.converged else 1


_FAMILIES = {"binary-uncorrelated": binary_family, "white-noise": white_noise_family}


def _cmd_critical(args):
    lo, hi = args.bracket
    value = find_critical(
        _FAMILIES[args.family], (lo, hi), halvings=args.halvings, tol=args.tol,
        max_iter=args.max_iter,
    )
    width = math.ldexp(hi - lo, -args.halvings)
    payload = {
        "family": args.family,
        "critical": value,
        "bracket_achieved": [value - width, value + width],
        "halvings": args.halvings,
    }
    return payload, {}, 0


def _cmd_scan(args):
    grid = np.linspace(args.f00_min, args.f00_max, args.points)
    rows = []
    for f00 in grid:
        freq = regime_scan(
            float(f00), args.samples, args.seed, tol=args.tol, max_iter=args.max_iter
        )
        rows.append(
            [
                float(f00),
                args.samples,
                freq[Regime.HIGH_NOISE],
                freq[Regime.INTERMEDIATE],
                freq[Regime.SECURITY],
            ]
        )
    return rows, {}, 0


def _cmd_mc(args, cfg, noise, start):
    pairs = args.pairs if args.pairs is not None else _setting(cfg, "pairs", int, "100000")
    rounds = args.rounds if args.rounds is not None else _setting(cfg, "rounds", int, "8")
    stats = mc_run(MCConfig(pairs, start, noise, rounds, args.seed))
    rows = [
        [s.round, s.pairs_remaining, s.f_hat, s.f_cond_hat, *s.cells.tolist()] for s in stats
    ]
    return rows, {"pairs": pairs, "rounds": rounds}, 0


def _cmd_curve(args):
    """Family sweep: fixpoint observables and convergence cost per parameter."""
    family = _FAMILIES[args.family]
    grid = np.linspace(args.f0_min, args.f0_max, args.points)
    rows = []
    all_converged = True
    for f0 in grid:
        noise_or_map, start = family(float(f0))
        result = iterate_to_fixpoint(start, noise_or_map, tol=args.tol, max_iter=args.max_iter)
        all_converged &= result.converged
        rows.append(
            [
                float(f0),
                result.fidelity,
                result.conditional_fidelity,
                result.iterations,
                regime_of(result).value,
            ]
        )
    return rows, {}, 0 if all_converged else 1


def _cmd_resources(args, cfg, noise, start):
    if args.rounds < 1:
        raise ConfigError(f"--rounds must be at least 1, got {args.rounds}")
    for flag, eps in (("--eps-min", args.eps_min), ("--eps-max", args.eps_max)):
        if not math.isfinite(eps):
            raise ConfigError(f"{flag} must be finite, got {eps}")
    if args.eps_min > args.eps_max:
        raise ConfigError(f"--eps-min must be at most --eps-max, got {args.eps_min} > {args.eps_max}")
    rows = [
        [r, eps, _pairs_needed(r, cost)]
        for r, eps, cost in resource_curve(noise, start, args.rounds)
        if args.eps_min <= eps <= args.eps_max
    ]
    return rows, {}, 0


# --- the subcommand table ----------------------------------------------------

class _Subcommand(NamedTuple):
    """One subcommand; its fields decide which flags it takes, so that it
    takes only the flags it reads."""

    run: Callable
    header: list[str] | None  # table columns, chosen by --format; None writes JSON
    max_iter: int | None  # default --max-iter, with --tol; None where no fixpoint is iterated
    noise: bool  # takes --config and the noise flags, runs on a resolved channel and start
    help: str
    flags: tuple = ()  # the subcommand's own flags: (name, add_argument keywords)


_SEED_FLAG = ("--seed", dict(type=int, default=0, help="RNG seed in [0, 2**64) (default 0)"))


_SUBCOMMANDS = {
    "iterate": _Subcommand(
        _cmd_iterate, ITERATE_HEADER, None, True,
        "analytic trajectory of F, F_cond and the 16 cells",
        (("--steps", dict(type=int, help="number of purification steps (default 20)")),),
    ),
    "fixpoint": _Subcommand(
        _cmd_fixpoint, None, DEFAULT_MAX_ITER, True,
        "iterate to the fixpoint and classify the regime",
    ),
    "critical": _Subcommand(
        _cmd_critical, None, CRITICAL_MAX_ITER, False,
        "solve a noise family for the security boundary",
        (
            ("--family", dict(required=True, choices=sorted(_FAMILIES))),
            ("--bracket", dict(type=float, nargs=2, required=True, metavar=("LO", "HI"))),
            ("--halvings", dict(type=int, default=40)),
        ),
    ),
    "scan": _Subcommand(
        _cmd_scan, SCAN_HEADER, SCAN_MAX_ITER, False,
        "regime frequencies for random channels on an f00 grid",
        (
            ("--f00-min", dict(type=float, default=0.5)),
            ("--f00-max", dict(type=float, default=1.0)),
            ("--points", dict(type=int, default=11)),
            ("--samples", dict(type=int, default=100)),
            _SEED_FLAG,
        ),
    ),
    "mc": _Subcommand(
        _cmd_mc, MC_HEADER, None, True,
        "Monte Carlo distillation run",
        (
            ("--pairs", dict(type=int, help="initial ensemble size")),
            ("--rounds", dict(type=int, help="number of purification rounds")),
            _SEED_FLAG,
        ),
    ),
    "curve": _Subcommand(
        _cmd_curve, CURVE_HEADER, DEFAULT_MAX_ITER, False,
        "family sweep of F, F_cond, iterations and regime vs parameter",
        (
            ("--family", dict(default="white-noise", choices=sorted(_FAMILIES))),
            ("--f0-min", dict(type=float, default=0.88)),
            ("--f0-max", dict(type=float, default=0.95)),
            ("--points", dict(type=int, default=15)),
        ),
    ),
    "resources": _Subcommand(
        _cmd_resources, RESOURCES_HEADER, None, True,
        "pairs needed vs security parameter",
        (
            ("--rounds", dict(type=int, default=60, help="trajectory length")),
            ("--eps-min", dict(type=float, default=1e-4)),
            ("--eps-max", dict(type=float, default=1e-1)),
        ),
    ),
}


# --- argument parsing --------------------------------------------------------

_NOISE_FLAGS = (
    ("--config", dict(help="flat key=value config file")),
    ("--model", dict(choices=tuple(NOISE_MODELS))),
    ("--f0", dict(type=float, help="white-noise / uncorrelated-binary parameter")),
    ("--p1", dict(type=float, help="one-qubit reliability")),
    ("--p2", dict(type=float, help="two-qubit reliability")),
    ("--both-labs", dict(dest="both_labs", action="store_true", default=None)),
    ("--f00", dict(type=float)),
    ("--f01", dict(type=float)),
    ("--f10", dict(type=float)),
    ("--f11", dict(type=float)),
    ("--werner", dict(type=float, help="initial Werner fidelity (default 0.85)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppsim",
        description="Noisy two-way entanglement purification: recurrence maps, "
        "fixpoints, critical noise, and Monte Carlo distillation.",
    )
    parser.add_argument("--version", action="version", version=f"eppsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--out", default=".", help="output directory (default .)")
        if row.header is not None:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if row.max_iter is not None:
            p.add_argument("--tol", type=float, default=1e-12, help="fixpoint tolerance")
            p.add_argument(
                "--max-iter", type=int, default=row.max_iter,
                help="iteration budget (default %(default)s)",
            )
        for flag, kwargs in (_NOISE_FLAGS if row.noise else ()) + row.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _check_loop_flags(args) -> None:
    if getattr(args, "max_iter", 1) < 1:
        raise ConfigError(f"--max-iter must be at least 1, got {args.max_iter}")
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be finite and nonnegative, got {tol}")
    if getattr(args, "samples", 1) < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if getattr(args, "points", 1) < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    row = _SUBCOMMANDS[args.command]
    Path(args.out).mkdir(parents=True, exist_ok=True)
    try:
        _check_loop_flags(args)
        rows, resolved, code = row.run(args, *(_resolve_run(args) if row.noise else ()))
        _write_outputs(args, row.header, rows, **resolved)
    except (ValueError, EnsembleAnnihilated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
