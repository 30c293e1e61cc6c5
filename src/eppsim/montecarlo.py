"""Pair-level stochastic simulation of the distillation process.

Each pair carries a physical Bell index and a two-bit error flag, stored as
packed uint8 arrays.  A round shuffles the ensemble, splits it into
source/target couples, samples one joint Pauli error per couple, pushes the
physical bits through the purification circuit and the flags through the
bookkeeping rules, and keeps the source pair when the (simulated)
measurements coincide.  Target pairs are always discarded; an odd leftover
pair is carried into the next round unchanged.

Randomness is counter-based: every round r of a run draws from an
independent generator keyed by (seed, r), so runs are reproducible and the
stream never depends on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bellbits import BellIndex, FlagPair
from .noisemodels import BinaryNoiseModel, NoiseModel
from .recurrence import (
    BellDiagonalState,
    FlaggedEnsembleState,
    embed,
    generate_map,
    step,
)


class MCPair:
    """View of one simulated pair: its Bell index and its error flag."""

    __slots__ = ("bell", "flag")

    def __init__(self, bell: BellIndex, flag: FlagPair):
        self.bell = bell
        self.flag = flag

    def __repr__(self):
        return f"MCPair(bell={tuple(self.bell)}, flag={tuple(self.flag)})"

    def __eq__(self, other):
        return (
            isinstance(other, MCPair) and self.bell == other.bell and self.flag == other.flag
        )


class Ensemble:
    """Array-backed sequence of MCPair.

    ``bell`` and ``flag`` hold packed two-bit indices (2*phase + amplitude);
    indexing returns an :class:`MCPair` view.
    """

    __slots__ = ("bell", "flag")

    def __init__(self, bell: np.ndarray, flag: np.ndarray):
        self.bell = np.asarray(bell, dtype=np.uint8)
        self.flag = np.asarray(flag, dtype=np.uint8)
        if self.bell.shape != self.flag.shape:
            raise ValueError("bell and flag arrays must have equal length")

    def __len__(self) -> int:
        return self.bell.shape[0]

    def __getitem__(self, k: int) -> MCPair:
        return MCPair(
            BellIndex.from_index(int(self.bell[k])), FlagPair.from_index(int(self.flag[k]))
        )


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
        cells = np.bincount(4 * ens.bell.astype(np.int64) + ens.flag, minlength=16)
        f_hat = float(np.count_nonzero(ens.bell == 0)) / n if n else None
        f_cond_hat = float(np.count_nonzero(ens.bell == ens.flag)) / n if n else None
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
    return Ensemble(bell, np.zeros(cfg.n_pairs, dtype=np.uint8))


def purification_round(
    ens: Ensemble,
    noise: NoiseModel | BinaryNoiseModel,
    rng: np.random.Generator,
) -> Ensemble:
    """One distillation round over the whole ensemble."""
    n = len(ens)
    if n < 2:
        return ens
    order = rng.permutation(n)
    leftover = order[-1:] if n % 2 else order[:0]
    order = order[: n - (n % 2)]
    src_idx, tgt_idx = order[0::2], order[1::2]

    joint = rng.choice(16, size=src_idx.shape[0], p=_noise_table(noise).ravel())
    mu = (joint >> 2).astype(np.uint8)
    nu = (joint & 3).astype(np.uint8)

    # error application: packed-index xor is exactly the Pauli bit action
    s = ens.bell[src_idx] ^ mu
    t = ens.bell[tgt_idx] ^ nu
    i, j = s >> 1, s & 1
    i2, j2 = t >> 1, t & 1
    out_src = ((i ^ i2) << 1) | (i ^ j)
    keep = (i2 ^ j2 ^ i ^ j) == 0

    g = ens.flag[src_idx] ^ mu
    h = ens.flag[tgt_idx] ^ nu
    p, a = g >> 1, g & 1
    p2, a2 = h >> 1, h & 1
    correlated = (p2 ^ a2 ^ p ^ a) == 0
    new_flag = np.where(correlated, ((p ^ p2) << 1) | (p ^ a), 0).astype(np.uint8)

    bell = np.concatenate([out_src[keep], ens.bell[leftover]])
    flag = np.concatenate([new_flag[keep], ens.flag[leftover]])
    return Ensemble(bell, flag)


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
