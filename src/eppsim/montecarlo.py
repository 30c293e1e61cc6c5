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
temporaries stay in cache whatever the ensemble's size, and its draws cost
in proportion to the chunk's errors, not its size.  In the runs of the
demos, the tests and the benchmark, most draws are the law's mode: 85% of
the initial pairs are Phi+ (Werner 0.85), and 91% of the couples draw the
identity (f00 = 0.913).  So, as simulators of rare Pauli noise do (Gidney,
Stim, Quantum 5, 497 (2021)):

- ``_errors`` gives the positions of a chunk's draws that are not the mode,
  by geometric gaps with parameter q, the weight off the mode, each gap by
  inversion from one double; the values at those positions come from
  ``_categorical`` over the other weights.  A chunk of s draws takes about
  2 q s doubles: 0.17 per couple and 0.3 per initial pair above, against
  one per draw when every draw is made.  A law with q = 0 draws nothing.
- The initial ensemble is drawn in blocks of two chunks, each block the
  mode with the rest scattered over it.  ``run`` routes every block
  straight into round 1 and counts round 0 from the draws, so it never
  holds the n-byte initial ensemble; ``init_ensemble`` gathers the blocks.
- A round reads each couple's two cells as one uint16, source | target
  << 8, and routes every couple with one ``take`` from ``_ROUTES``,
  ``NOISY_CIRCUIT`` laid out as (joint << 12) | (target << 8) | source, as
  if it drew the mode; then it routes the errored couples again with their
  own joint errors.  One body, ``_route``, does this block by block in
  every round: over the initial blocks in round 1 of ``run``, else over
  the ``_blocks`` of an array, the one cut of an array into blocks.
- ``RoundStats.of`` counts two cells at a time, with ``bincount`` over the
  same uint16 view of the same blocks (4096 bins), and folds to 16 counts.

The draws have the law of one iid draw per pair through ``rng.choice``;
the stream, and so what a given seed gives, is another.

Every round r of a run draws from its own PCG64 generator, seeded from
child r of ``SeedSequence(seed)``, so runs are reproducible and the stream
never depends on how work is scheduled.  The rounds use PCG64, not a
counter-based generator such as Philox keyed by (seed, r), because PCG64
draws a double in under half the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .noisemodels import BinaryNoiseModel, NoiseModel, _checked_int, _checked_seed
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

#: Two adjacent cells read as one little-endian uint16: first | second << 8.
_TWO_CELLS = np.dtype("<u2")


def _route_table() -> np.ndarray:
    """``NOISY_CIRCUIT`` laid out for a couple's own two bytes: entry
    (joint << 12) | (tgt << 8) | src.  Entries with src > 15 are never read."""
    table = np.full((16, 16, 256), DISCARDED, dtype=np.uint8)
    table[:, :, :16] = NOISY_CIRCUIT.transpose(0, 2, 1)
    table = table.ravel()
    table.setflags(write=False)
    return table


_ROUTES = _route_table()


@dataclass(frozen=True)
class MCConfig:
    n_pairs: int
    initial: BellDiagonalState
    noise: NoiseModel | BinaryNoiseModel
    rounds: int
    seed: int

    def __post_init__(self):
        _checked_int("n_pairs", self.n_pairs, least=2)
        _checked_int("rounds", self.rounds, least=0)
        _checked_seed(self.seed)
        if not isinstance(self.initial, BellDiagonalState):
            raise TypeError(f"initial must be a BellDiagonalState, got {self.initial!r}")
        if not isinstance(self.noise, (NoiseModel, BinaryNoiseModel)):
            raise TypeError(f"noise must be a noise model, got {type(self.noise).__name__}")


@dataclass(frozen=True)
class RoundStats:
    round: int
    pairs_remaining: int
    f_hat: float | None  # None for an empty ensemble, which has no estimate
    f_cond_hat: float | None
    cells: np.ndarray = field(repr=False)  # 16 counts, cell = 4*bell + flag

    @classmethod
    def of(cls, round_index: int, cells: np.ndarray) -> "RoundStats":
        """The stats of ``cells``; raises ValueError, as a round does, for
        anything but 1-d integer cells in 0..15."""
        cells = _checked_cells(cells)
        both = np.zeros(4096, dtype=np.intp)
        for block in _blocks(cells):
            two = block[:block.size - block.size % 2].view(_TWO_CELLS)
            both += np.bincount(two, minlength=4096)
        both = both.reshape(16, 256)[:, :16]  # [second cell, first cell]
        counts = both.sum(axis=0) + both.sum(axis=1)
        if len(cells) % 2:
            counts[cells[-1]] += 1
        return cls._of_counts(round_index, counts)

    @classmethod
    def _of_counts(cls, round_index: int, counts: np.ndarray) -> "RoundStats":
        """The stats of an ensemble given by its 16 cell counts."""
        n = int(counts.sum())
        # Phi+ is Bell index 0; the flag equals the Bell index on every fifth cell
        f_hat = float(counts[:4].sum()) / n if n else None
        f_cond_hat = float(counts[::5].sum()) / n if n else None
        return cls(round_index, n, f_hat, f_cond_hat, counts)


def _round_rng(seed: int, label: int) -> np.random.Generator:
    """Round ``label``'s generator: PCG64 seeded from child ``label`` of
    ``SeedSequence(seed)``, the stream ``SeedSequence(seed).spawn`` gives
    it.  The seed's words are zero-padded to a fixed length before the key
    is appended, so no two (seed, label) pairs share a stream; the entropy
    list of ``default_rng([seed, label])`` has no such padding, and there
    (2**32, 0) gives the stream of (0, 1)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(label,)))


def _edges(p: np.ndarray) -> np.ndarray:
    """The edges ``_categorical`` counts for the weights ``p``: the entries
    of ``cdf = p.cumsum() / p.cumsum()[-1]`` below 1."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf[cdf < 1.0]


def _categorical(rng: np.random.Generator, edges: np.ndarray, size: int) -> np.ndarray:
    """The draws of ``rng.choice(len(p), size=size, p=p)``, as uint8, given
    ``edges = _edges(p)``.

    choice takes one double u per draw and returns the number of entries of
    ``cdf = p.cumsum() / p.cumsum()[-1]`` that are <= u; the same count is
    made here.  An entry equal to 1 never counts, as u < 1.  The callers
    keep ``size`` within a chunk.
    """
    u = rng.random(size)
    out = np.zeros(size, dtype=np.uint8)
    for edge in edges:
        out += u >= edge
    return out


class _Sparse(NamedTuple):
    """A categorical law split for sparse draws: its mode, the weight q of
    everything else, log(1 - q), and the ``_edges`` of the weights with the
    mode's set to 0."""

    mode: int
    q: float
    log_keep: float
    edges: np.ndarray


def _sparse(p: np.ndarray) -> _Sparse:
    p = np.asarray(p, dtype=float)
    mode = int(p.argmax())
    rest = p.copy()
    rest[mode] = 0.0
    q = float(rest.sum() / p.sum())
    edges = _edges(rest) if q else np.zeros(0)  # a law with q = 0 draws nothing
    return _Sparse(mode, q, float(np.log1p(-q)), edges)


def _errors(rng: np.random.Generator, law: _Sparse, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one chunk of ``size`` iid draws from ``law`` that are not
    its mode: their positions, ascending, and their values as uint8.

    The gaps between the positions are geometric with parameter q, each one
    by inversion from one double u: 1 + floor(log(1 - u) / log(1 - q))
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X).  The
    sequence starts afresh at the chunk's start, which memorylessness makes
    exact.  log(1 - u) is clipped to (size + 1) log(1 - q) before the
    division, so a gap is at most size + 2 and a tiny q cannot overflow the
    integer cast; a clipped gap still ends past the chunk.  Each gap drawn
    gets a value from ``_categorical`` over the other weights, dropped with
    its position if that lies past the chunk, so that chunks of one size
    allocate arrays of one size: a process that repeats 4e6-pair runs then
    peaks 0.3-0.5 MB lower.  A law with q = 0 draws nothing, and so does an
    empty chunk.
    """
    if law.q == 0.0 or size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
    mean = size * law.q
    batch = int(mean + 4.0 * np.sqrt(mean)) + 2  # one batch almost always reaches the end
    found, last = [], -1
    while last < size:
        gaps = rng.random(batch)
        np.negative(gaps, out=gaps)
        np.log1p(gaps, out=gaps)
        np.maximum(gaps, (size + 1) * law.log_keep, out=gaps)
        gaps /= law.log_keep
        gaps += 1.0
        positions = gaps.astype(np.int64).cumsum()
        positions += last
        found.append(positions)
        last = int(positions[-1])
    positions = found[0] if len(found) == 1 else np.concatenate(found)
    values = _categorical(rng, law.edges, positions.size)
    inside = positions.searchsorted(size)
    return positions[:inside], values[:inside]


def _initial_blocks(cfg: MCConfig, counts: np.ndarray) -> Iterator[np.ndarray]:
    """The initial ensemble in order, in blocks of two chunks of draws of the
    round-0 generator, so 2 * ``_CHUNK`` cells but for a shorter last block.
    Every block is written into one buffer, which the next block overwrites.
    Adds the ensemble's 16 cell counts to ``counts``: each pair counts as
    the mode's cell until a draw off the mode moves it to its own.
    """
    rng = _round_rng(cfg.seed, 0)
    law = _sparse(cfg.initial.coeffs)
    n = cfg.n_pairs
    counts[law.mode << 2] += n
    buffer = np.empty(2 * _CHUNK, dtype=np.uint8)
    for start in range(0, n, 2 * _CHUNK):
        block = buffer[:min(2 * _CHUNK, n - start)]
        block.fill(law.mode << 2)
        for half in range(0, block.size, _CHUNK):
            chunk = block[half:half + _CHUNK]
            positions, bell = _errors(rng, law, chunk.size)
            bell <<= 2
            chunk[positions] = bell
            counts += np.bincount(bell, minlength=16)
            counts[law.mode << 2] -= bell.size
        yield block


def init_ensemble(cfg: MCConfig) -> np.ndarray:
    """Sample the initial ensemble as uint8 cells: iid Bell indices from the
    post-twirl weights, in the order drawn, all flags zero: the blocks that
    ``run`` routes into round 1, each copied before the next overwrites it."""
    return np.concatenate([b.copy() for b in _initial_blocks(cfg, np.zeros(16, dtype=np.intp))])


def _checked_cells(cells) -> np.ndarray:
    """``cells`` as a contiguous uint8 array, once every entry is known to be
    a cell."""
    cells = np.asarray(cells)
    if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(
            f"cells must be a 1-d integer array, got {cells.dtype} of shape {cells.shape}"
        )
    if cells.size and ((cells.dtype.kind == "i" and cells.min() < 0) or cells.max() > 15):
        raise ValueError(
            f"cells must lie in 0..15, got values in [{cells.min()}, {cells.max()}]"
        )
    return np.ascontiguousarray(cells, dtype=np.uint8)


def _blocks(cells: np.ndarray) -> Iterator[np.ndarray]:
    """Contiguous uint8 ``cells`` in blocks of 2 * ``_CHUNK``, as ``_route`` takes them."""
    return (cells[start:start + 2 * _CHUNK] for start in range(0, len(cells), 2 * _CHUNK))


def _route(
    blocks: Iterable[np.ndarray],
    n: int,
    noise: NoiseModel | BinaryNoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """``purification_round`` over ``n`` >= 2 cells that come in ``blocks``
    of at most 2 * ``_CHUNK`` cells, in order, every block but the last of
    even length.  A block is read before the next is asked for, and the
    last block's last cell is the odd pair out of an odd ``n``."""
    law = _sparse(noise.f.ravel())
    mode_routes = _ROUTES[law.mode << 12:(law.mode + 1) << 12]

    out = np.empty(n // 2 + n % 2, dtype=np.uint8)
    kept = 0
    for block in blocks:
        couples = block[:block.size - block.size % 2].view(_TWO_CELLS)
        routed = mode_routes.take(couples)
        positions, joint = _errors(rng, law, couples.size)
        index = np.left_shift(joint, 12, dtype=np.uint16)
        index |= couples[positions]
        routed[positions] = _ROUTES.take(index)
        survives = routed != DISCARDED  # compress packs 4x faster than routed[survives]
        size = np.count_nonzero(survives)
        np.compress(survives, routed, out=out[kept:kept + size])
        kept += size
    if n % 2:
        slot = rng.integers(kept + 1)
        out[kept] = out[slot]
        out[slot] = block[-1]
    return out[: kept + n % 2]


def purification_round(
    cells: np.ndarray,
    noise: NoiseModel | BinaryNoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """One distillation round over the whole ensemble.

    ``cells`` must be in random order, as ``init_ensemble`` and this
    function return them; shuffle a sorted ensemble first.  The pairs are
    coupled in order, source ``cells[0::2]`` with target ``cells[1::2]``.
    ``_route``, run on the ``_blocks`` of the cells as every round of
    ``run`` is, routes every couple as if it drew the channel's most likely
    joint error, routes again with theirs the couples ``_errors`` says drew
    another, and packs the survivors.  An odd pair out then takes the slot
    j = ``rng.integers(kept + 1)`` among the kept survivors, whose pair j
    moves to the end.  The input is only read.  Returns the surviving cells
    as uint8; raises ValueError for anything but 1-d integer cells in 0..15.
    """
    cells = _checked_cells(cells)
    if len(cells) < 2:
        return cells.copy()
    return _route(_blocks(cells), len(cells), noise, rng)


def run(cfg: MCConfig) -> list[RoundStats]:
    """Full distillation run; stats entry 0 describes the initial ensemble.

    Round r routes the blocks of round r - 1 through ``_route``, round 1
    those of ``_initial_blocks`` as they are drawn, so the run never holds
    the initial ensemble.  Entry 0 is counted from the draws, drained after
    the loop even when no round ran.  Every entry is the one that
    ``init_ensemble``, ``purification_round`` and ``RoundStats.of`` give
    composed round by round, bit for bit.  The run ends early, after the
    first round that leaves fewer than two pairs, as no couple can form:
    a run of two pairs has entries 0 and 1 only, whatever ``cfg.rounds``
    and the seed.
    """
    counts = np.zeros(16, dtype=np.intp)
    initial = _initial_blocks(cfg, counts)
    blocks, n, stats = initial, cfg.n_pairs, []
    for r in range(1, cfg.rounds + 1):
        if n < 2:
            break
        cells = _route(blocks, n, cfg.noise, _round_rng(cfg.seed, r))
        stats.append(RoundStats.of(r, cells))
        blocks, n = _blocks(cells), len(cells)
    for _ in initial:
        pass
    return [RoundStats._of_counts(0, counts), *stats]


def _steps(
    noise: NoiseModel | BinaryNoiseModel, initial: BellDiagonalState, rounds: int
) -> Iterator[tuple[FlaggedEnsembleState, float]]:
    """The recurrence from ``embed(initial)``, lazily: (state, keep prob)
    after each of rounds 1 to ``rounds``, a checked count."""
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
    2 / (keep probability).  A ``rounds`` that is no integer raises
    TypeError, and a negative one ValueError, at the call.
    """
    rounds = _checked_int("rounds", rounds, least=0)

    def ledger():
        cost = 1.0
        for r, (state, keep) in enumerate(_steps(noise, initial, rounds), 1):
            cost *= 2.0 / keep
            yield r, 1.0 - state.conditional_fidelity, cost

    return ledger()


def _pairs_needed(r: int, cost: float) -> int:
    """Round ``r``'s cost in whole pairs.  ValueError once it overflowed, or
    passed 2**53, past which a float's integer is not the exact count."""
    if np.isinf(cost):
        raise ValueError(f"the cost in initial pairs per surviving pair at round {r} overflows")
    if cost > 2.0**53:
        raise ValueError(
            f"the cost in initial pairs per surviving pair at round {r} is {cost:.3e}, "
            "past 2**53, where a float no longer holds the exact count"
        )
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
    fixpoint reaches within ``max_rounds``, and as ``resource_curve`` does
    for a bad ``max_rounds``.
    """
    max_rounds = _checked_int("max_rounds", max_rounds, least=0)
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
    per round, entry 0 being the initial state with keep probability 1.
    Raises as ``resource_curve`` does for a bad ``rounds``."""
    rounds = _checked_int("rounds", rounds, least=0)
    return [(embed(initial), 1.0), *_steps(noise, initial, rounds)]
