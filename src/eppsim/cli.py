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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
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
    step,
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
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
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

def _cmd_iterate(args) -> int:
    cfg, noise, start = _resolve_run(args)
    steps = args.steps if args.steps is not None else int(cfg.get("steps", "20"))
    rows = []
    if noise == "ideal":
        qmap = ideal_quadratic_map()
        state = embed(start)
        plain = start
        rows.append([0, state.fidelity, state.conditional_fidelity, 1.0, *state.flat])
        for n in range(1, steps + 1):
            vec, keep = qmap.apply(plain.coeffs)
            plain = BellDiagonalState(vec)
            state = embed(plain)
            rows.append([n, state.fidelity, state.conditional_fidelity, keep, *state.flat])
    else:
        qmap = generate_map(noise)
        state = embed(start)
        rows.append([0, state.fidelity, state.conditional_fidelity, 1.0, *state.flat])
        for n in range(1, steps + 1):
            state, keep = step(state, qmap)
            rows.append([n, state.fidelity, state.conditional_fidelity, keep, *state.flat])
    _write_outputs(args, ITERATE_HEADER, rows, steps=steps)
    return 0


def _cmd_fixpoint(args) -> int:
    _, noise, start = _resolve_run(args)
    max_iter = args.max_iter if args.max_iter is not None else 100_000
    qmap = generate_map(noise)
    result = iterate_to_fixpoint(embed(start), qmap, tol=args.tol, max_iter=max_iter)
    if result.failure is not None:
        raise EnsembleAnnihilated(result.failure)
    regime = regime_of(result)
    payload = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "failure": result.failure,
        "F": result.fidelity,
        "F_cond": result.conditional_fidelity,
        "regime": regime.value,
        "state": result.state.named_coeffs(),
    }
    _write_outputs(args, None, payload)
    return 0 if result.converged else 1


_FAMILIES = {"binary-uncorrelated": binary_family, "white-noise": white_noise_family}


def _cmd_critical(args) -> int:
    if args.family not in _FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    lo, hi = args.bracket
    if not lo < hi:
        raise ConfigError(f"bracket must be increasing, got ({lo}, {hi})")
    max_iter = args.max_iter
    if max_iter is None:
        # budget of the subspace iteration and the two end probes; at the
        # binary family's purification threshold (f0 = 3/4, the usual lower
        # end) both converge only algebraically and use it up
        max_iter = 500_000 if args.family == "binary-uncorrelated" else 30_000
    value = find_critical(
        _FAMILIES[args.family], (lo, hi), halvings=args.halvings, tol=args.tol, max_iter=max_iter
    )
    width = (hi - lo) / 2.0**args.halvings
    payload = {
        "family": args.family,
        "critical": value,
        "bracket_achieved": [value - width / 2.0, value + width / 2.0],
        "halvings": args.halvings,
    }
    _write_outputs(args, None, payload)
    return 0


def _cmd_scan(args) -> int:
    grid = np.linspace(args.f00_min, args.f00_max, args.points)
    max_iter = args.max_iter if args.max_iter is not None else 30_000
    rows = []
    for f00 in grid:
        freq = regime_scan(float(f00), args.samples, args.seed, tol=args.tol, max_iter=max_iter)
        rows.append(
            [
                float(f00),
                args.samples,
                freq[Regime.HIGH_NOISE],
                freq[Regime.INTERMEDIATE],
                freq[Regime.SECURITY],
            ]
        )
    _write_outputs(args, SCAN_HEADER, rows)
    return 0


def _cmd_mc(args) -> int:
    cfg, noise, start = _resolve_run(args)
    pairs = args.pairs if args.pairs is not None else int(cfg.get("pairs", "100000"))
    rounds = args.rounds if args.rounds is not None else int(cfg.get("rounds", "8"))
    stats = mc_run(MCConfig(pairs, start, noise, rounds, args.seed))
    rows = [
        [s.round, s.pairs_remaining, s.f_hat, s.f_cond_hat, *s.cells.tolist()] for s in stats
    ]
    _write_outputs(args, MC_HEADER, rows, pairs=pairs, rounds=rounds)
    return 0


def _cmd_curve(args) -> int:
    """Family sweep: fixpoint observables and convergence cost per parameter."""
    if args.family not in _FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    family = _FAMILIES[args.family]
    max_iter = args.max_iter if args.max_iter is not None else 100_000
    grid = np.linspace(args.f0_min, args.f0_max, args.points)
    rows = []
    all_converged = True
    for f0 in grid:
        noise_or_map, start = family(float(f0))
        result = iterate_to_fixpoint(start, noise_or_map, tol=args.tol, max_iter=max_iter)
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
    _write_outputs(args, CURVE_HEADER, rows)
    return 0 if all_converged else 1


def _cmd_resources(args) -> int:
    _, noise, start = _resolve_run(args)
    traj = analytic_trajectory(noise, start, args.rounds)
    rows = []
    cost = 1.0
    for r in range(1, len(traj)):
        state, keep = traj[r]
        cost *= 2.0 / keep
        eps = 1.0 - state.conditional_fidelity
        if args.eps_min <= eps <= args.eps_max:
            rows.append([r, eps, int(np.ceil(cost))])
    _write_outputs(args, RESOURCES_HEADER, rows)
    return 0


# --- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=1e-12, help="fixpoint tolerance")
    p.add_argument(
        "--max-iter",
        type=int,
        default=None,
        help="iteration budget (default depends on the subcommand)",
    )


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("white", "binary", "p1p2", "general", "ideal"))
    p.add_argument("--f0", type=float, help="white-noise / uncorrelated-binary parameter")
    p.add_argument("--p1", type=float, help="one-qubit reliability")
    p.add_argument("--p2", type=float, help="two-qubit reliability")
    p.add_argument("--both-labs", dest="both_labs", action="store_true", default=None)
    p.add_argument("--f00", type=float)
    p.add_argument("--f01", type=float)
    p.add_argument("--f10", type=float)
    p.add_argument("--f11", type=float)
    p.add_argument("--werner", type=float, help="initial Werner fidelity (default 0.85)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppsim",
        description="Noisy two-way entanglement purification: recurrence maps, "
        "fixpoints, critical noise, and Monte Carlo distillation.",
    )
    parser.add_argument("--version", action="version", version=f"eppsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="analytic trajectory of F, F_cond and the 16 cells")
    _add_common(p)
    _add_noise_flags(p)
    p.add_argument("--steps", type=int, help="number of purification steps (default 20)")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("fixpoint", help="iterate to the fixpoint and classify the regime")
    _add_common(p)
    _add_noise_flags(p)
    p.set_defaults(func=_cmd_fixpoint)

    p = sub.add_parser("critical", help="bisect a noise family for the security boundary")
    _add_common(p)
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--halvings", type=int, default=40)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("scan", help="regime frequencies for random channels on an f00 grid")
    _add_common(p)
    p.add_argument("--f00-min", type=float, default=0.5)
    p.add_argument("--f00-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mc", help="Monte Carlo distillation run")
    _add_common(p)
    _add_noise_flags(p)
    p.add_argument("--pairs", type=int, help="initial ensemble size")
    p.add_argument("--rounds", type=int, help="number of purification rounds")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser(
        "curve", help="family sweep of F, F_cond, iterations and regime vs parameter"
    )
    _add_common(p)
    p.add_argument("--family", default="white-noise", choices=sorted(_FAMILIES))
    p.add_argument("--f0-min", type=float, default=0.88)
    p.add_argument("--f0-max", type=float, default=0.95)
    p.add_argument("--points", type=int, default=15)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("resources", help="pairs needed vs security parameter")
    _add_common(p)
    _add_noise_flags(p)
    p.add_argument("--rounds", type=int, default=60, help="trajectory length")
    p.add_argument("--eps-min", type=float, default=1e-4)
    p.add_argument("--eps-max", type=float, default=1e-1)
    p.set_defaults(func=_cmd_resources)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args)
    except (ValueError, EnsembleAnnihilated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
