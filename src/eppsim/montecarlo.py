"""Pair-level stochastic simulation of the distillation process.

An ensemble is a uint8 array of packed cells, 4 * (Bell index) + (error
flag), the cell layout of the recurrence map.  A round couples the pairs in
order, source ``cells[0::2]`` with target ``cells[1::2]``, samples one joint
Pauli error per couple, and looks each errored couple up in the fixed
circuit, which gives the kept source pair's cell or marks the couple
discarded when the (simulated) measurements disagree.  Target pairs are
always discarded; an odd pair out is carried into the next round unchanged,
at a uniform slot among the survivors.  The error is drawn from
``noise.f``, which a binary channel gives embedded in the full table.  The
protocol is the two-way recurrence of Deutsch et al., PRL 77, 2818 (1996).

No round shuffles, yet every count has the law of a round that shuffles
the ensemble before coupling.  The initial draws are iid, hence
exchangeable, and the survivors of in-order couples of an exchangeable
ensemble are exchangeable given their number, so a shuffle would leave the
law as it is; the uniform slot of the odd pair out does to it what the next
round's shuffle did.

Every pass over the pairs runs in chunks of ``_CHUNK`` draws, so its
temporaries stay in cache whatever the ensemble's size:

- ``_categorical`` draws what ``rng.choice(len(p), size, p=p)`` draws.
  choice takes one ``rng.random()`` double u per draw and returns the number
  of entries of ``cdf = p.cumsum() / p.cumsum()[-1]`` that are <= u
  (``searchsorted(side="right")``).  The same count is made here over
  chunks of doubles, which continue one stream because each double consumes
  one 64-bit output of the generator, and written as uint8 without choice's
  full-size float64 and int64 arrays.
- ``_NOISY_CIRCUIT`` is ``NOISY_CIRCUIT`` flat: one lookup routes a couple.
- ``RoundStats.of`` counts the cells chunk by chunk.

So a run gives the same stats, bit for bit, as one that draws through
``rng.choice`` and routes through ``noisy_circuit``.

Randomness is counter-based: every round r of a run draws from an
independent generator keyed by (seed, r), so runs are reproducible and the
stream never depends on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .noisemodels import BinaryNoiseModel, NoiseModel
from .recurrence import (
    DISCARDED,
    NOISY_CIRCUIT,
    BellDiagonalState,
    FlaggedEnsembleState,
    embed,
    generate_map,
    step,
)

#: Draws per pass over the pairs: 2**16 doubles are 512 KiB, well inside L2.
_CHUNK = 1 << 16

#: A view of ``NOISY_CIRCUIT``: entry (joint << 8) | (src << 4) | tgt.
_NOISY_CIRCUIT = NOISY_CIRCUIT.ravel()


@dataclass(frozen=True)
class MCConfig:
    n_pairs: int
    initial: BellDiagonalState
    noise: NoiseModel | BinaryNoiseModel
    rounds: int
    seed: int

    def __post_init__(self):
        for name in ("n_pairs", "rounds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.initial, BellDiagonalState):
            raise TypeError(f"initial must be a BellDiagonalState, got {self.initial!r}")
        if not isinstance(self.noise, (NoiseModel, BinaryNoiseModel)):
            raise TypeError(f"noise must be a noise model, got {type(self.noise).__name__}")
        if self.n_pairs < 2:
            raise ValueError(f"need at least 2 pairs, got {self.n_pairs}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be nonnegative, got {self.rounds}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class RoundStats:
    round: int
    pairs_remaining: int
    f_hat: float | None  # None for an empty ensemble, which has no estimate
    f_cond_hat: float | None
    cells: np.ndarray = field(repr=False)  # 16 counts, cell = 4*bell + flag

    @classmethod
    def of(cls, round_index: int, cells: np.ndarray) -> "RoundStats":
        n = len(cells)
        counts = np.zeros(16, dtype=np.intp)
        for start in range(0, n, _CHUNK):
            counts += np.bincount(cells[start:start + _CHUNK], minlength=16)
        # Phi+ is Bell index 0; the flag equals the Bell index on every fifth cell
        f_hat = float(counts[:4].sum()) / n if n else None
        f_cond_hat = float(counts[::5].sum()) / n if n else None
        return cls(round_index, n, f_hat, f_cond_hat, counts)


def _round_rng(seed: int, label: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(label)])
    return np.random.Generator(np.random.Philox(key=key))


def _categorical(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """The draws of ``rng.choice(len(p), size=size, p=p)``, as uint8.

    Each is the number of cdf entries <= its double u; an entry equal to 1
    never counts, as u < 1.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = cdf[cdf < 1.0]
    out = np.zeros(size, dtype=np.uint8)
    for start in range(0, size, _CHUNK):
        chunk = out[start:start + _CHUNK]
        u = rng.random(chunk.size)
        for edge in edges:
            chunk += u >= edge
    return out


def init_ensemble(cfg: MCConfig) -> np.ndarray:
    """Sample the initial ensemble as uint8 cells: iid Bell indices from the
    post-twirl weights, in the order drawn, all flags zero."""
    rng = _round_rng(cfg.seed, 0)
    bell = _categorical(rng, cfg.initial.coeffs, cfg.n_pairs)
    bell <<= 2
    return bell


def _checked_cells(cells) -> np.ndarray:
    """``cells`` as a uint8 array, once every entry is known to be a cell."""
    cells = np.asarray(cells)
    if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(
            f"cells must be a 1-d integer array, got {cells.dtype} of shape {cells.shape}"
        )
    if cells.size and ((cells.dtype.kind == "i" and cells.min() < 0) or cells.max() > 15):
        raise ValueError(
            f"cells must lie in 0..15, got values in [{cells.min()}, {cells.max()}]"
        )
    return cells.astype(np.uint8, copy=False)


def purification_round(
    cells: np.ndarray,
    noise: NoiseModel | BinaryNoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """One distillation round over the whole ensemble.

    ``cells`` must be in random order, as ``init_ensemble`` and this
    function return them; shuffle a sorted ensemble first.  The pairs are
    coupled in order, source ``cells[0::2]`` with target ``cells[1::2]``;
    chunk by chunk, one joint error is drawn per couple, the couples are
    routed and the survivors packed.  An odd pair out then takes the slot
    j = ``rng.integers(kept + 1)`` among the kept survivors, whose pair j
    moves to the end.  The input is only read.  Returns the surviving
    cells as uint8; raises ValueError for anything but 1-d integer cells
    in 0..15.
    """
    cells = _checked_cells(cells)
    n = len(cells)
    if n < 2:
        return cells.copy()
    couples = n // 2
    sources, targets = cells[0:2 * couples:2], cells[1::2]

    out = np.empty(couples + n % 2, dtype=np.uint8)
    kept = 0
    for start in range(0, couples, _CHUNK):
        stop = min(start + _CHUNK, couples)
        joint = _categorical(rng, noise.f.ravel(), stop - start)
        index = np.left_shift(joint, 8, dtype=np.uint16)
        index |= sources[start:stop] << 4
        index |= targets[start:stop]
        routed = _NOISY_CIRCUIT.take(index)
        routed = routed[routed != DISCARDED]
        out[kept:kept + routed.size] = routed
        kept += routed.size
    if n % 2:
        slot = rng.integers(kept + 1)
        out[kept] = out[slot]
        out[slot] = cells[-1]
    return out[: kept + n % 2]


def run(cfg: MCConfig) -> list[RoundStats]:
    """Full distillation run; stats entry 0 describes the initial ensemble."""
    cells = init_ensemble(cfg)
    stats = [RoundStats.of(0, cells)]
    for r in range(1, cfg.rounds + 1):
        if len(cells) < 2:
            break
        cells = purification_round(cells, cfg.noise, _round_rng(cfg.seed, r))
        stats.append(RoundStats.of(r, cells))
    return stats


def _steps(
    noise: NoiseModel | BinaryNoiseModel, initial: BellDiagonalState, rounds: int
) -> Iterator[tuple[FlaggedEnsembleState, float]]:
    """The recurrence from ``embed(initial)``, lazily: (state, keep prob)
    after each of rounds 1 to ``rounds``."""
    qmap = generate_map(noise)
    state = embed(initial)
    for _ in range(rounds):
        state, keep = step(state, qmap)
        yield state, keep


def resource_curve(
    noise: NoiseModel | BinaryNoiseModel, initial: BellDiagonalState, rounds: int
) -> Iterator[tuple[int, float, float]]:
    """The analytic resource ledger: (round, eps, cost) for rounds 1 to
    ``rounds``, computed lazily.

    eps = 1 - F_cond after the round is its security parameter, and cost the
    initial pairs per surviving pair, which each round multiplies by
    2 / (keep probability).
    """
    cost = 1.0
    for r, (state, keep) in enumerate(_steps(noise, initial, rounds), 1):
        cost *= 2.0 / keep
        yield r, 1.0 - state.conditional_fidelity, cost


def _pairs_needed(r: int, cost: float) -> int:
    """Round ``r``'s cost in whole pairs; ValueError once it overflowed."""
    if np.isinf(cost):
        raise ValueError(f"the cost in initial pairs per surviving pair at round {r} overflows")
    return int(np.ceil(cost))


def resources(
    noise: NoiseModel | BinaryNoiseModel,
    initial: BellDiagonalState,
    target_eps: float,
    max_rounds: int = 200,
) -> tuple[int, int]:
    """Initial pairs needed per surviving pair at a target security parameter,
    and the rounds that takes: the first round of ``resource_curve`` with
    eps <= target_eps.  Raises ValueError when the target is below what the
    fixpoint reaches within ``max_rounds``.
    """
    if not 0.0 < target_eps < 1.0:
        raise ValueError(f"target_eps = {target_eps} outside (0, 1)")
    eps = 1.0 - initial.fidelity  # the best when no round runs
    for r, eps, cost in resource_curve(noise, initial, max_rounds):
        if eps <= target_eps:
            return _pairs_needed(r, cost), r
    raise ValueError(
        f"security parameter {target_eps} not reached within {max_rounds} rounds "
        f"(best {eps})"
    )


def analytic_trajectory(
    noise: NoiseModel | BinaryNoiseModel, initial: BellDiagonalState, rounds: int
) -> list[tuple[FlaggedEnsembleState, float]]:
    """Recurrence prediction matching a Monte Carlo run: (state, keep prob)
    per round, entry 0 being the initial state with keep probability 1."""
    return [(embed(initial), 1.0), *_steps(noise, initial, rounds)]
