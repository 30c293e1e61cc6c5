"""Batch command-line front end.

Each subcommand runs one reproducible computation and writes a CSV or JSON
table plus a run manifest (resolved parameters, seed, tool version, output
paths, and the config file's sha256).  Re-running a manifest reproduces the
outputs byte for byte, and refuses a config file that changed.  CSV headers
are fixed per subcommand; ``csv`` and ``json`` write each value as it is, a
float as its repr (dot decimal separator regardless of locale).

Subcommands: iterate, fixpoint, critical, scan, mc, curve, resources.  Each
is a row of ``_SUBCOMMANDS`` whose fields decide the flags it takes.  A
row's integer counts are declared there once, each with its default, least
value and help; a count comes from its flag, else from the config of a
subcommand that takes ``--config``, else from its default, and every count
and ``--max-iter`` is checked by ``noisemodels._checked_int``.  Such a
subcommand reads the config keys ``model``, the noise keys, ``werner``,
``abcd`` and its counts; any other key, or a key given twice, is a usage
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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
    DEFAULT_TOL,
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
from .noisemodels import NOISE_KEYS, NOISE_MODELS, _checked_int, _parsed, noise_from_config
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
    """Flat key=value format; blank lines and # comments are ignored, and a
    key given twice is a ConfigError that names both its lines."""
    cfg: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{source}:{lineno}: key {key!r} repeats line {lines[key]}")
        cfg[key], lines[key] = value.strip(), lineno
    return cfg


def _load_config(args) -> dict[str, str]:
    """The settings of ``--config``, none without one.  Sets ``args.config``
    to the file's absolute path and ``args.config_sha256`` to its digest; a
    replay's ``args`` carry the run's digest, and a file that no longer has
    it is a ConfigError."""
    if args.config is None:
        return {}
    path = Path(args.config).absolute()
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    pinned = getattr(args, "config_sha256", None)
    if pinned is not None and digest != pinned:
        raise ConfigError(f"config file {path} changed since the run: sha256 {digest}")
    args.config, args.config_sha256 = str(path), digest
    return parse_config_text(data.decode(), source=str(path))


def _json_text(obj) -> str:
    """Indented, key-sorted JSON; NaN or infinity raises ValueError, since it
    is not valid JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        path.write_text(_json_text([dict(zip(header, row)) for row in rows]))
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(args, header: list[str] | None, rows) -> None:
    """Write the subcommand's table and the manifest that replays it.

    With a header, ``rows`` go to ``<command>.<format>``; without one,
    ``rows`` is a payload written as ``<command>.json``.  The manifest
    records every attribute of ``args`` as a parameter, the config's
    digest beside them.  Every JSON text is made before its file is
    written, so a value JSON cannot hold writes no file.
    """
    out = Path(args.out)
    table = out / f"{args.command}.{'json' if header is None else args.format}"
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    digest = params.pop("config_sha256", None)
    manifest = _json_text(
        {
            "subcommand": args.command,
            "params": params,
            "seed": params.get("seed"),
            "version": __version__,
            "outputs": [table.name],
            **({"config_sha256": digest} if digest is not None else {}),
        }
    )
    if header is None:
        table.write_text(_json_text(rows))
    else:
        _write_table(table, header, rows, args.format)
    (out / f"{args.command}.manifest.json").write_text(manifest)


def replay_manifest(path: str | Path) -> int:
    """Re-run the computation recorded in a manifest (outputs land next to it);
    a config file that is gone or changed is an error, and writes no file."""
    manifest = json.loads(Path(path).read_text())
    argv = [manifest["subcommand"]]
    for key, value in manifest["params"].items():
        if value is None or value is False:
            continue
        argv.append(f"--{key.replace('_', '-')}")
        if value is not True:  # a store_true flag takes no value
            argv.extend(str(v) for v in (value if isinstance(value, list) else [value]))
    argv.extend(["--out", str(Path(path).parent)])
    args = build_parser().parse_args(argv)
    args.config_sha256 = manifest.get("config_sha256")
    return _run(args)


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


def _abcd_state(text: str) -> BellDiagonalState:
    weights = [float(x) for x in text.split(",")]
    if len(weights) != 4:
        raise ValueError(f"expected 4 comma-separated weights A,B,C,D, got {len(weights)}")
    return BellDiagonalState.from_abcd(*weights)


def _resolve_start(args, cfg: dict[str, str]) -> BellDiagonalState:
    """--werner, else the config's werner or its abcd, else Werner 0.85.
    Both keys set the start state, so a config with both is a ConfigError,
    with the flag or without it."""
    if "werner" in cfg and "abcd" in cfg:
        raise ConfigError("the start state takes werner or abcd, not both")
    if getattr(args, "werner", None) is not None:
        return BellDiagonalState.werner(args.werner)
    if "werner" in cfg:
        return _parsed(cfg, "werner", lambda text: BellDiagonalState.werner(float(text)))
    if "abcd" in cfg:
        return _parsed(cfg, "abcd", _abcd_state)
    return BellDiagonalState.werner(0.85)


# --- subcommands -------------------------------------------------------------
# A handler takes the parsed flags, and a noise-driven one also the noise
# model and start state; it returns (rows or JSON payload, exit code).

def _check_finite(args, *dests):
    """ConfigError for the first flag among ``dests`` whose value is not
    finite, before any work."""
    for dest in dests:
        value = getattr(args, dest)
        if not math.isfinite(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be finite, got {value}")


def _cmd_iterate(args, noise, start):
    rows = [
        [n, state.fidelity, state.conditional_fidelity, keep, *state.flat]
        for n, (state, keep) in enumerate(analytic_trajectory(noise, start, args.steps))
    ]
    return rows, 0


def _cmd_fixpoint(args, noise, start):
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
    return payload, 0 if result.converged else 1


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
    return payload, 0


def _cmd_scan(args):
    _check_finite(args, "f00_min", "f00_max")
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
    return rows, 0


def _cmd_mc(args, noise, start):
    stats = mc_run(MCConfig(args.pairs, start, noise, args.rounds, args.seed))
    rows = [
        [s.round, s.pairs_remaining, s.f_hat, s.f_cond_hat, *s.cells.tolist()] for s in stats
    ]
    return rows, 0


def _cmd_curve(args):
    """Family sweep: fixpoint observables and convergence cost per parameter."""
    _check_finite(args, "f0_min", "f0_max")
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
    return rows, 0 if all_converged else 1


def _cmd_resources(args, noise, start):
    _check_finite(args, "eps_min", "eps_max")
    if args.eps_min > args.eps_max:
        raise ConfigError(f"--eps-min must be at most --eps-max, got {args.eps_min} > {args.eps_max}")
    rows = [
        [r, eps, _pairs_needed(r, cost)]
        for r, eps, cost in resource_curve(noise, start, args.rounds)
        if args.eps_min <= eps <= args.eps_max
    ]
    return rows, 0


# --- the subcommand table ----------------------------------------------------

class _Subcommand(NamedTuple):
    """One subcommand; its fields decide which flags it takes, so that it
    takes only the flags it reads, and which config keys it reads."""

    run: Callable
    header: list[str] | None  # table columns, chosen by --format; None writes JSON
    max_iter: int | None  # default --max-iter, with --tol; None where no fixpoint is iterated
    noise: bool  # takes --config and the noise flags, runs on a resolved channel and start
    help: str
    counts: dict = {}  # integer flags: name -> (default, least value, help)
    flags: tuple = ()  # the subcommand's other flags: (name, add_argument keywords)


_SEED_FLAG = ("--seed", dict(type=int, default=0, help="RNG seed in [0, 2**64) (default 0)"))


_SUBCOMMANDS = {
    "iterate": _Subcommand(
        _cmd_iterate, ITERATE_HEADER, None, True,
        "analytic trajectory of F, F_cond and the 16 cells",
        {"steps": (20, 0, "number of purification steps")},
    ),
    "fixpoint": _Subcommand(
        _cmd_fixpoint, None, DEFAULT_MAX_ITER, True,
        "iterate to the fixpoint and classify the regime",
    ),
    "critical": _Subcommand(
        _cmd_critical, None, CRITICAL_MAX_ITER, False,
        "solve a noise family for the security boundary",
        {"halvings": (40, 0, "bracket halvings that bound only the fallback search "
                              "and set bracket_achieved's width")},
        (
            ("--family", dict(required=True, choices=sorted(_FAMILIES))),
            ("--bracket", dict(type=float, nargs=2, required=True, metavar=("LO", "HI"))),
        ),
    ),
    "scan": _Subcommand(
        _cmd_scan, SCAN_HEADER, SCAN_MAX_ITER, False,
        "regime frequencies for random channels on an f00 grid",
        {"points": (11, 1, "grid points"), "samples": (100, 1, "random channels per point")},
        (
            ("--f00-min", dict(type=float, default=0.5)),
            ("--f00-max", dict(type=float, default=1.0)),
            _SEED_FLAG,
        ),
    ),
    "mc": _Subcommand(
        _cmd_mc, MC_HEADER, None, True,
        "Monte Carlo distillation run",
        {"pairs": (100000, 2, "initial ensemble size"),
         "rounds": (8, 0, "number of purification rounds")},
        (_SEED_FLAG,),
    ),
    "curve": _Subcommand(
        _cmd_curve, CURVE_HEADER, DEFAULT_MAX_ITER, False,
        "family sweep of F, F_cond, iterations and regime vs parameter",
        {"points": (15, 1, "grid points")},
        (
            ("--family", dict(default="white-noise", choices=sorted(_FAMILIES))),
            ("--f0-min", dict(type=float, default=0.88)),
            ("--f0-max", dict(type=float, default=0.95)),
        ),
    ),
    "resources": _Subcommand(
        _cmd_resources, RESOURCES_HEADER, None, True,
        "pairs needed vs security parameter",
        {"rounds": (60, 1, "trajectory length")},
        (
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
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="fixpoint tolerance")
            p.add_argument(
                "--max-iter", type=int, default=row.max_iter,
                help="iteration budget (default %(default)s)",
            )
        for flag, kwargs in (_NOISE_FLAGS if row.noise else ()) + row.flags:
            p.add_argument(flag, **kwargs)
        for name, (default, _, text) in row.counts.items():
            p.add_argument(f"--{name}", type=int, help=f"{text} (default {default})")
    return parser


def _resolve(args, row: _Subcommand) -> tuple:
    """Check the flags and settings of a run before any work, and set each
    count on ``args``: from its flag, else from the config on a noise row,
    else from the row's default, so the manifest records the value that
    ran.  Returns the handler's noise model and start state on a noise row,
    nothing otherwise.  A config key the row does not read is a ConfigError:
    a noise row reads the model, its settings, the start state and its counts."""
    cfg = _load_config(args) if row.noise else {}
    reads = ("model", *NOISE_KEYS, "werner", "abcd", *row.counts)
    unread = [key for key in cfg if key not in reads]
    if unread:
        raise ConfigError(f"subcommand {args.command!r} does not read the config's "
                          f"{', '.join(unread)}")
    if row.max_iter is not None:
        _checked_int("--max-iter", args.max_iter, least=1)
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol}")
    for name, (default, least, _) in row.counts.items():
        value = getattr(args, name)
        if value is None:
            value = _parsed(cfg, name, int) if name in cfg else default
        setattr(args, name, _checked_int(f"--{name}", value, least))
    return (_resolve_noise(args, cfg), _resolve_start(args, cfg)) if row.noise else ()


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


def _run(args) -> int:
    row = _SUBCOMMANDS[args.command]
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        rows, code = row.run(args, *_resolve(args, row))
        _write_outputs(args, row.header, rows)
    except (ValueError, OSError, EnsembleAnnihilated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
