"""Pair-level stochastic simulation of the distillation process.

Each pair is stored as one packed uint8 cell, 4 * (Bell index) + (error
flag), the cell layout of the recurrence map.  A round shuffles the
ensemble, splits it into source/target couples, samples one joint Pauli
error per couple, and looks each errored couple up in the fixed circuit
table ``recurrence.CIRCUIT`` (``noisy_circuit``), which gives the kept
source pair's cell or marks the couple discarded when the (simulated)
measurements disagree.  Target pairs are always discarded; an odd leftover
pair is carried into the next round unchanged.

Randomness is counter-based: every round r of a run draws from an
independent generator keyed by (seed, r), so runs are reproducible and the
stream never depends on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bellbits import BellIndex, FlagPair
from .noisemodels import BinaryNoiseModel, NoiseModel
from .recurrence import (
    DISCARDED,
    BellDiagonalState,
    FlaggedEnsembleState,
    cell_parts,
    embed,
    generate_map,
    noisy_circuit,
    step,
)


class MCPair(NamedTuple):
    """View of one simulated pair: its Bell index and its error flag."""

    bell: BellIndex
    flag: FlagPair


class Ensemble:
    """Array-backed sequence of MCPair.

    ``cell`` holds one packed cell per pair, 4 * (Bell index) + (flag), both
    indices packed as 2*phase + amplitude; indexing returns an
    :class:`MCPair` view.
    """

    __slots__ = ("cell",)

    def __init__(self, cell: np.ndarray):
        self.cell = np.asarray(cell, dtype=np.uint8)

    def __len__(self) -> int:
        return self.cell.shape[0]

    def __getitem__(self, k: int) -> MCPair:
        return MCPair(*cell_parts(int(self.cell[k])))


@dataclass(frozen=True)
class MCConfig:
    n_pairs: int
    initial: BellDiagonalState
    noise: NoiseModel | BinaryNoiseModel
    rounds: int
    seed: int

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ValueError(f"need at least 2 pairs, got {self.n_pairs}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be nonnegative, got {self.rounds}")


@dataclass(frozen=True)
class RoundStats:
    round: int
    pairs_remaining: int
    f_hat: float | None  # None for an empty ensemble, which has no estimate
    f_cond_hat: float | None
    cells: np.ndarray = field(repr=False)  # 16 counts, cell = 4*bell + flag

    @classmethod
    def of(cls, round_index: int, ens: Ensemble) -> "RoundStats":
        n = len(ens)
        cells = np.bincount(ens.cell, minlength=16)
        # Phi+ is Bell index 0; the flag equals the Bell index on every fifth cell
        f_hat = float(cells[:4].sum()) / n if n else None
        f_cond_hat = float(cells[::5].sum()) / n if n else None
        return cls(round_index, n, f_hat, f_cond_hat, cells)


def _round_rng(seed: int, label: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(label)])
    return np.random.Generator(np.random.Philox(key=key))


def _noise_table(noise: NoiseModel | BinaryNoiseModel) -> np.ndarray:
    if isinstance(noise, BinaryNoiseModel):
        noise = noise.embed()
    return noise.f


def init_ensemble(cfg: MCConfig) -> Ensemble:
    """Sample the initial ensemble: Bell indices from the post-twirl weights,
    all flags zero, order randomized."""
    rng = _round_rng(cfg.seed, 0)
    bell = rng.choice(4, size=cfg.n_pairs, p=cfg.initial.coeffs).astype(np.uint8)
    rng.shuffle(bell)
    return Ensemble(4 * bell)


def purification_round(
    ens: Ensemble,
    noise: NoiseModel | BinaryNoiseModel,
    rng: np.random.Generator,
) -> Ensemble:
    """One distillation round over the whole ensemble.

    A copy of the pairs is shuffled in place, then coupled in order; an odd
    pair out is kept as it is.  The shuffle draws what ``rng.permutation(n)``
    would, whatever the dtype, so the couples are those of that permutation
    without its n indices.
    """
    n = len(ens)
    if n < 2:
        return ens
    cell = ens.cell.copy()
    rng.shuffle(cell)
    even = n - n % 2

    joint = rng.choice(16, size=even // 2, p=_noise_table(noise).ravel())
    mu, nu = np.divmod(joint.astype(np.uint8), 4)
    out = noisy_circuit(cell[0:even:2], cell[1:even:2], mu, nu)
    return Ensemble(np.concatenate([out[out != DISCARDED], cell[even:]]))


def run(cfg: MCConfig) -> list[RoundStats]:
    """Full distillation run; stats entry 0 describes the initial ensemble."""
    ens = init_ensemble(cfg)
    stats = [RoundStats.of(0, ens)]
    for r in range(1, cfg.rounds + 1):
        if len(ens) < 2:
            break
        ens = purification_round(ens, cfg.noise, _round_rng(cfg.seed, r))
        stats.append(RoundStats.of(r, ens))
    return stats


def resources(
    noise: NoiseModel | BinaryNoiseModel,
    initial: BellDiagonalState,
    target_eps: float,
    max_rounds: int = 200,
) -> tuple[int, int]:
    """Initial pairs needed per surviving pair at a target security parameter.

    Follows the analytic recurrence: each round costs a factor 2 / (keep
    probability), until 1 - F_cond <= target_eps.  Raises ValueError when the
    target is below what the fixpoint reaches within ``max_rounds``.
    """
    if not 0.0 < target_eps < 1.0:
        raise ValueError(f"target_eps = {target_eps} outside (0, 1)")
    qmap = generate_map(noise)
    state: FlaggedEnsembleState = embed(initial)
    cost = 1.0
    for r in range(1, max_rounds + 1):
        state, keep = step(state, qmap)
        cost *= 2.0 / keep
        if 1.0 - state.conditional_fidelity <= target_eps:
            return int(np.ceil(cost)), r
    raise ValueError(
        f"security parameter {target_eps} not reached within {max_rounds} rounds "
        f"(best {1.0 - state.conditional_fidelity})"
    )


def analytic_trajectory(
    noise: NoiseModel | BinaryNoiseModel, initial: BellDiagonalState, rounds: int
) -> list[tuple[FlaggedEnsembleState, float]]:
    """Recurrence prediction matching a Monte Carlo run: (state, keep prob)
    per round, entry 0 being the initial state with keep probability 1."""
    qmap = generate_map(noise)
    state = embed(initial)
    out = [(state, 1.0)]
    for _ in range(rounds):
        state, keep = step(state, qmap)
        out.append((state, keep))
    return out
