"""Check the regime verdict against the plain iteration, channel by channel.

``classify_regime`` and ``regime_scan`` solve each channel with
``dynamics._iterate_array``'s hand-off, which may hand a slow trajectory to
Newton's method and keeps Newton's limit only where the plain iteration would
reach the same verdict within its budget, and which settles a trajectory as
high-noise at the first block end where its Bell marginal is separable.  This script replays the
benchmark's golden scan channels (``perfbench/golden_scan.json``: channel
stream ``default_rng([seed, k])`` of scan k, the 21-point f[00] grid over
[0.70, 0.90], 100 draws at each point, budget 30,000).  For every channel it
solves the verdict from the ``NoiseModel``, as ``classify_regime`` does, and
compares its regime and convergence with those of
``regime_of(iterate_to_fixpoint(...))`` on the channel's map, with every
RuntimeWarning raised as an error.  It also checks the regime counts against
the golden record, and prints how often the solve handed off (calls of
``dynamics._newton``), how often Newton's limit was accepted or declined by
the spectral-radius gate (answers of ``dynamics._gate``) or not reached
(Newton gave up: a hand-off with no gate), how many gates a norm bound on the
spectral radius decided (gate_norm) and how many the eigenvalues did
(gate_eig, calls of ``dynamics.spectral_radius``), and how many verdicts the
separable state settled (certified: converged with a residual above tol).

Run from the root of a checkout; pytest does not collect it:

    python3 tests/verdict_sweep.py                     # seeds 0-15, scans 0-13
    python3 tests/verdict_sweep.py --seeds 0 1 --scans 2 --jobs 2

Exits with status 1 if any channel or count differs.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from eppsim import NoiseModel, Regime, dynamics, generate_map  # noqa: E402

GOLDEN_SCAN = os.path.join(HERE, "..", "perfbench", "golden_scan.json")
TOL = 1e-12
TALLIES = ("channels", "differ", "handoffs", "accepted", "declined", "gave_up", "gate_norm",
           "gate_eig", "certified")


def sweep(seed: int, scan: int, grid, samples: int, max_iter: int):
    """The tallies of one scan, its regime counts per grid point, and the
    channels whose verdict differs, as (f00, sample, verdict, plain)."""
    tally = dict.fromkeys(TALLIES, 0)
    newton, gate, radius = dynamics._newton, dynamics._gate, dynamics.spectral_radius

    def counted_newton(*args):
        tally["handoffs"] += 1
        return newton(*args)

    def counted_gate(*args):
        kept = gate(*args)
        tally["accepted" if kept else "declined"] += 1
        return kept

    def counted_radius(m):
        tally["gate_eig"] += 1  # a gate that no norm bound decided
        return radius(m)

    rng = np.random.default_rng([seed, scan])
    counts, differ = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for f00 in grid:
            here = dict.fromkeys(Regime, 0)
            for sample in range(samples):
                f = np.empty(16)
                f[0] = f00
                f[1:] = rng.dirichlet(np.ones(15)) * (1.0 - f00)
                noise = NoiseModel(f.reshape(4, 4))
                dynamics._newton, dynamics._gate = counted_newton, counted_gate
                dynamics.spectral_radius = counted_radius
                try:
                    got = dynamics._solve(dynamics._WERNER_PROBE, noise, TOL, max_iter, handoff=True)
                finally:
                    dynamics._newton, dynamics._gate = newton, gate
                    dynamics.spectral_radius = radius
                want = dynamics.iterate_to_fixpoint(
                    dynamics._WERNER_PROBE, generate_map(noise), TOL, max_iter
                )
                tally["certified"] += got.converged and got.residual > TOL
                verdict = (dynamics.regime_of(got), got.converged)
                plain = (dynamics.regime_of(want), want.converged)
                if verdict != plain:
                    differ.append((f00, sample, verdict, plain))
                here[plain[0]] += 1
            counts.append([here[r] for r in Regime])
    tally["channels"] = len(grid) * samples
    tally["differ"] = len(differ)
    gates = tally["accepted"] + tally["declined"]
    tally["gave_up"] = tally["handoffs"] - gates
    tally["gate_norm"] = gates - tally["gate_eig"]
    return seed, scan, tally, counts, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    parser.add_argument("--scans", type=int, default=14, help="scans 0 .. SCANS-1 of each seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    with open(GOLDEN_SCAN) as fh:
        golden = json.load(fh)
    tasks = [(seed, scan, golden["f00_grid"], golden["samples"], golden["max_iter"])
             for seed in args.seeds for scan in range(args.scans)]
    total, bad_counts = dict.fromkeys(TALLIES, 0), 0
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for seed, scan, tally, counts, differ in pool.starmap(sweep, tasks):
            for key in TALLIES:
                total[key] += tally[key]
            for f00, sample, verdict, plain in differ:
                print(f"DIFFER: seed {seed} scan {scan} f00 {f00:.2f} sample {sample}: "
                      f"verdict {verdict[0].value} (converged {verdict[1]}), "
                      f"plain {plain[0].value} (converged {plain[1]})")
            record = golden["counts"].get(str(seed), [])
            if scan < len(record) and counts != record[scan]:
                bad_counts += 1
                print(f"COUNTS: seed {seed} scan {scan} differ from the golden record")
    print(" ".join(f"{key} {total[key]}" for key in TALLIES), "golden_scans_differ", bad_counts)
    return 1 if total["differ"] or bad_counts else 0


if __name__ == "__main__":
    sys.exit(main())
