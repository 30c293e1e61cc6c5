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
from .montecarlo import MCConfig, analytic_trajectory, run as mc_run
from .noisemodels import noise_from_config
from .recurrence import (
    COEFF_NAMES,
    BellDiagonalState,
    EnsembleAnnihilated,
    embed,
    generate_map,
    ideal_quadratic_map,
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

_NOISE_KEYS = ("model", "f0", "p1", "p2", "both_labs", "f00", "f01", "f10", "f11")


def _resolve_noise(args, cfg: dict[str, str]):
    merged = dict(cfg)
    for key in _NOISE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = str(val)
    if "model" not in merged:
        raise ConfigError("no noise model given (set model= in the config or --model)")
    if merged["model"] == "ideal":
        return "ideal"
    try:
        return noise_from_config(merged)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_start(args, cfg: dict[str, str]) -> BellDiagonalState:
    werner = getattr(args, "werner", None)
    if werner is None and "werner" in cfg:
        werner = float(cfg["werner"])
    if werner is not None:
        return BellDiagonalState.werner(float(werner))
    if "abcd" in cfg:
        a, b, c, d = (float(x) for x in cfg["abcd"].split(","))
        return BellDiagonalState.from_abcd(a, b, c, d)
    return BellDiagonalState.werner(0.85)


def _resolve_run(args):
    """Config, noise model and start state of a noise-driven subcommand."""
    cfg = _load_config(args.config)
    noise = _resolve_noise(args, cfg)
    if noise == "ideal" and args.command != "iterate":
        raise ConfigError(f"{args.command} needs a noise model (model=ideal is for iterate only)")
    return cfg, noise, _resolve_start(args, cfg)


# --- subcommands -------------------------------------------------------------
# A handler takes the parsed flags, and a noise-driven one also the config,
# noise model and start state; it returns (rows or JSON payload, values
# resolved from the config, exit code).

def _cmd_iterate(args, cfg, noise, start):
    steps = args.steps if args.steps is not None else int(cfg.get("steps", "20"))
    if noise == "ideal":
        qmap, plain, traj = ideal_quadratic_map(), start, [(embed(start), 1.0)]
        for _ in range(steps):
            vec, keep = qmap.apply(plain.coeffs)
            plain = BellDiagonalState(vec)
            traj.append((embed(plain), keep))
    else:
        traj = analytic_trajectory(noise, start, steps)
    rows = [
        [n, state.fidelity, state.conditional_fidelity, keep, *state.flat]
        for n, (state, keep) in enumerate(traj)
    ]
    return rows, {"steps": steps}, 0


def _cmd_fixpoint(args, cfg, noise, start):
    qmap = generate_map(noise)
    result = iterate_to_fixpoint(embed(start), qmap, tol=args.tol, max_iter=args.max_iter)
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
    width = (hi - lo) / 2.0**args.halvings
    payload = {
        "family": args.family,
        "critical": value,
        "bracket_achieved": [value - width / 2.0, value + width / 2.0],
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
    pairs = args.pairs if args.pairs is not None else int(cfg.get("pairs", "100000"))
    rounds = args.rounds if args.rounds is not None else int(cfg.get("rounds", "8"))
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
    traj = analytic_trajectory(noise, start, args.rounds)
    rows = []
    cost = 1.0
    for r in range(1, len(traj)):
        state, keep = traj[r]
        cost *= 2.0 / keep
        eps = 1.0 - state.conditional_fidelity
        if args.eps_min <= eps <= args.eps_max:
            rows.append([r, eps, int(np.ceil(cost))])
    return rows, {}, 0


# --- the subcommand table ----------------------------------------------------

class _Subcommand(NamedTuple):
    run: Callable
    header: list[str] | None  # table columns; None writes the result as JSON
    max_iter: int | None  # default --max-iter; None where no fixpoint is iterated
    noise: bool  # takes the noise flags and runs on a resolved channel and start
    help: str
    flags: tuple = ()  # the subcommand's own flags: (name, add_argument keywords)


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
        "bisect a noise family for the security boundary",
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
        ),
    ),
    "mc": _Subcommand(
        _cmd_mc, MC_HEADER, None, True,
        "Monte Carlo distillation run",
        (
            ("--pairs", dict(type=int, help="initial ensemble size")),
            ("--rounds", dict(type=int, help="number of purification rounds")),
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
    ("--model", dict(choices=("white", "binary", "p1p2", "general", "ideal"))),
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
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tol", type=float, default=1e-12, help="fixpoint tolerance")
        p.add_argument(
            "--max-iter", type=int, default=row.max_iter,
            help="iteration budget (default %(default)s)" if row.max_iter else "not used here",
        )
        for flag, kwargs in (_NOISE_FLAGS if row.noise else ()) + row.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _check_loop_flags(args) -> None:
    if args.max_iter is not None and args.max_iter < 1:
        raise ConfigError(f"--max-iter must be at least 1, got {args.max_iter}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol}")
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
