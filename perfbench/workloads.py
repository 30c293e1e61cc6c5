"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs *units* of work through
the library's public functions, and checks the outputs of the units it ran.
A unit is the smallest piece of work a user waits for as a whole: one
critical-point search, one full regime scan, one Monte Carlo run.  Unit k of
a scan classifies its own channels, drawn from (seed, k); the other workloads
repeat the same inputs.  An *operation* is the finest step whose latency can be
timed from outside without tracing: the search itself, one channel of the
scan (drawn and classified), the Monte Carlo run itself.  A unit records each
operation's start and end ``perf_counter`` readings, so that the runner can
scale them with ``hostspeed.HostSpeed``.

Sizes and windows below are fixed; only the seed varies the inputs.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from time import perf_counter
from typing import NamedTuple

import numpy as np

from eppsim import (
    BellDiagonalState,
    MCConfig,
    NoiseModel,
    Regime,
    analytic_trajectory,
    binary_family,
    classify_regime,
    dynamics,
    find_critical,
    from_p1_p2,
    white_noise_family,
)
from eppsim.montecarlo import run as mc_run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_SCAN = os.path.join(HERE, "golden_scan.json")


class Unit(NamedTuple):
    ops: list[tuple[float, float]]  # start and end of each operation in the unit
    items: int  # work items completed (critical points, channels, pair-rounds)
    output: object  # what the checks look at


class CriticalSearch:
    """``find_critical`` on one noise family, compared with a fixed window."""

    item = "critical point"

    def __init__(self, calibrate_with, family, bracket, window, **settings):
        self.calibrate_with = calibrate_with
        self.family = family
        self.bracket = bracket
        self.window = window
        self.settings = settings

    def warm(self):
        pass  # nothing lazy: scalar loops and 16-cell arrays

    def unit(self, k: int, tracer=None) -> Unit:
        # white_noise_family keeps its maps between calls; start every search
        # cold, as demo 06 and the CLI do in a fresh process.
        dynamics._WHITE_MAP_CACHE.clear()
        family = self.family if tracer is None else tracer.probed(self.family)
        t0 = perf_counter()
        crit = find_critical(family, self.bracket, **self.settings)
        op = (t0, perf_counter())
        if tracer is not None:
            tracer.end_probes()
        return Unit([op], 1, crit)

    def check(self, outputs) -> tuple[int, list[str]]:
        lo, hi = self.window
        bad = [x for x in outputs if not lo < x < hi]
        notes = [f"critical point {outputs[0]!r}, window ({lo}, {hi})"]
        notes += [f"FAIL: {x!r} outside the window" for x in bad]
        return len(bad), notes


# Acceptance 05's call and window: |crit - 0.77184451| <= 5e-6.
BINARY_CRITICAL = 0.77184451


def critical_binary(seed: int) -> CriticalSearch:
    return CriticalSearch(
        ("python",),
        binary_family,
        (0.75, 0.85),
        (BINARY_CRITICAL - 5e-6, BINARY_CRITICAL + 5e-6),
    )


def critical_white(seed: int) -> CriticalSearch:
    # Demo 06's and the CLI test's settings; window of the white-noise tests.
    return CriticalSearch(
        ("python", "numpy"),
        white_noise_family, (0.88, 0.92), (0.8983, 0.8988), halvings=24, max_iter=30_000
    )


SCAN_GRID = tuple(float(x) for x in np.linspace(0.70, 0.90, 21))
SCAN_SAMPLES = 100
SCAN_MAX_ITER = 30_000  # regime_scan's budget


def classify_channel(rng: np.random.Generator, f00: float) -> Regime:
    """One pass of ``regime_scan``'s loop: draw a channel with fixed f[00], classify it.

    Budget hits are classified as intermediate with a RuntimeWarning, which
    regime_scan silences the same way.
    """
    f = np.empty(16)
    f[0] = f00
    f[1:] = rng.dirichlet(np.ones(15)) * (1.0 - f00)
    noise = NoiseModel(f.reshape(4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return classify_regime(noise, max_iter=SCAN_MAX_ITER)


class Scan:
    """Regime classification of random channels across the regime transition."""

    item = "channel"
    calibrate_with = ("python", "numpy")

    def __init__(self, seed: int):
        self.seed = seed

    def warm(self):
        classify_channel(np.random.default_rng([self.seed, 0]), SCAN_GRID[0])

    def unit(self, k: int, tracer=None) -> Unit:
        rng = np.random.default_rng([self.seed, k])
        ops = []
        counts = []
        for f00 in SCAN_GRID:
            tally = dict.fromkeys(Regime, 0)
            for _ in range(SCAN_SAMPLES):
                t0 = perf_counter()
                regime = classify_channel(rng, f00)
                ops.append((t0, perf_counter()))
                tally[regime] += 1
            counts.append([tally[r] for r in Regime])
        return Unit(ops, len(ops), (k, counts))

    def check(self, outputs) -> tuple[int, list[str]]:
        with open(GOLDEN_SCAN) as fh:
            golden = json.load(fh)["counts"].get(str(self.seed), [])
        failed = 0
        checked = [(k, counts) for k, counts in outputs if k < len(golden)]
        notes = [f"golden regime counts: {len(checked)} of {len(outputs)} scans of seed "
                 f"{self.seed} checked, {len(outputs) - len(checked)} without a record skipped"]
        for k, counts in checked:
            for f00, got, want in zip(SCAN_GRID, counts, golden[k]):
                if got != want:
                    failed += 1
                    notes.append(f"FAIL: scan {k} f00={f00:.2f} counts {got}, golden {want}")
        return failed, notes


MC_PAIRS = 4_000_000
MC_ROUNDS = 10
MC_Z_MAX = 4.0  # acceptance 10's bound


def exact_z(got: float, want: float, n: int) -> float:
    """|z| of a sample fraction against its prediction, from the exact binomial tail.

    The normal approximation overstates |z| when the expected count of the
    rarer outcome is below one, as it is for F_cond in the last rounds; the
    exact two-sided tail, converted to the normal |z| with the same tail,
    agrees with the usual z wherever that approximation holds.
    """
    from scipy.stats import binom, norm

    k = round(got * n)
    tail = min(binom.cdf(k, n, want), binom.sf(k - 1, n, want))
    return float(norm.isf(min(1.0, 2.0 * tail) / 2.0))


class MonteCarlo:
    """Pair-level Monte Carlo of a Werner-0.85 ensemble under p1/p2 noise."""

    item = "pair-round"
    calibrate_with = ("python", "numpy", "memory")

    def __init__(self, seed: int):
        self.config = MCConfig(
            MC_PAIRS, BellDiagonalState.werner(0.85), from_p1_p2(0.96, 0.968), MC_ROUNDS, seed=seed
        )

    def warm(self):
        mc_run(MCConfig(100_000, self.config.initial, self.config.noise, 2, self.config.seed))

    def unit(self, k: int, tracer=None) -> Unit:
        t0 = perf_counter()
        stats = mc_run(self.config)
        op = (t0, perf_counter())
        pair_rounds = sum(st.pairs_remaining for st in stats[:-1])
        return Unit([op], pair_rounds, stats)

    def check(self, outputs) -> tuple[int, list[str]]:
        if len(outputs) < 2:
            outputs = [outputs[0], mc_run(self.config)]
        first = outputs[0]
        failed = 0
        for other in outputs[1:]:
            if len(other) != len(first) or not all(
                np.array_equal(a.cells, b.cells) for a, b in zip(first, other)
            ):
                failed += 1
        traj = analytic_trajectory(self.config.noise, self.config.initial, self.config.rounds)
        worst = 0.0
        for st in first:
            state, _ = traj[st.round]
            for got, want in (
                (st.f_hat, state.fidelity),
                (st.f_cond_hat, state.conditional_fidelity),
            ):
                worst = max(worst, exact_z(got, want, st.pairs_remaining))
        notes = [
            f"same-seed runs with identical cell counts: {len(outputs) - failed}/{len(outputs)}",
            f"worst |z| of F_hat and F_cond_hat vs analytic_trajectory: {worst:.2f} (bound {MC_Z_MAX})",
        ]
        if failed:
            notes.append(f"FAIL: {failed} runs differ from the first")
        if not math.isfinite(worst) or worst > MC_Z_MAX:
            failed += 1
            notes.append("FAIL: Monte Carlo departs from the recurrence")
        return failed, notes


WORKLOADS = {
    "critical-binary": critical_binary,
    "critical-white": critical_white,
    "scan": Scan,
    "mc": MonteCarlo,
}
