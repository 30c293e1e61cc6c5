import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from eppsim import montecarlo
from eppsim.dynamics import regime_scan
from eppsim.montecarlo import (
    _CHUNK,
    _ROUTES,
    MCConfig,
    RoundStats,
    _categorical,
    _edges,
    _errors,
    _pairs_needed,
    _round_rng,
    _sparse,
    analytic_trajectory,
    init_ensemble,
    purification_round,
    resource_curve,
    resources,
    run,
)
from eppsim.noisemodels import BinaryNoiseModel, NoiseModel, noise_from_config
from eppsim.recurrence import (
    DISCARDED,
    NOISY_CIRCUIT,
    BellDiagonalState,
    embed,
    generate_map,
    noisy_circuit,
    step,
)


def tracking_noise():
    f = np.full((4, 4), 0.0020968)
    f[0, :] = 0.0113896
    f[:, 0] = 0.0113896
    f[0, 0] = 0.91279120
    return NoiseModel(f)


def cfg(pairs=10**6, fid=0.85, noise=None, rounds=8, seed=1):
    return MCConfig(pairs, BellDiagonalState.werner(fid), noise or tracking_noise(), rounds, seed)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(pairs=1)
    with pytest.raises(ValueError):
        cfg(rounds=-1)
    for bad in (dict(pairs=2.5), dict(pairs=1e6), dict(pairs=True), dict(rounds=2.0),
                dict(rounds=False), dict(seed=1.5)):
        with pytest.raises(TypeError, match="must be an integer"):
            cfg(**bad)
    assert cfg(pairs=np.int64(10), rounds=np.int32(2), seed=np.uint64(3)).n_pairs == 10
    assert cfg(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1)], ids=["-1", "2**64", "int64(-1)"])
def test_seed_outside_the_64_bit_range_is_rejected(seed):
    # a masked seed would alias: -1 would run the stream of 2**64 - 1, 2**64 that of 0
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        cfg(seed=seed)


@pytest.mark.parametrize(
    "seed", [True, 1.5, "3", -1, 2**64], ids=["True", "1.5", "str-3", "-1", "2**64"]
)
def test_scan_and_run_reject_a_seed_alike(seed):
    # one rule: a bool or a string is no seed, though int() would take it
    with pytest.raises((TypeError, ValueError)) as scan:
        regime_scan(0.9, 2, seed)
    with pytest.raises((TypeError, ValueError)) as mc:
        cfg(seed=seed)
    assert type(scan.value) is type(mc.value)
    assert str(scan.value) == str(mc.value)


def test_scan_takes_a_numpy_seed_as_its_int():
    # a run takes it too: test_run_takes_any_seed_in_range
    assert regime_scan(0.9, 2, np.uint64(3)) == regime_scan(0.9, 2, 3)


@pytest.mark.parametrize(
    "field, value",
    [("initial", embed(BellDiagonalState.werner(0.85))),
     ("noise", generate_map(BinaryNoiseModel.uncorrelated(0.9)))],
    ids=["flagged-initial", "map-noise"],
)
def test_config_rejects_an_initial_state_or_channel_of_the_wrong_type(field, value):
    # run would otherwise fail deep inside with an AttributeError
    kwargs = dict(n_pairs=100, initial=BellDiagonalState.werner(0.85),
                  noise=tracking_noise(), rounds=2, seed=1)
    kwargs[field] = value
    with pytest.raises(TypeError, match=field):
        MCConfig(**kwargs)


def test_init_pure_werner():
    ens = init_ensemble(cfg(pairs=1000, fid=1.0))
    assert len(ens) == 1000
    assert (ens >> 2 == 0).all()
    assert (ens & 3 == 0).all()


def test_init_counts_within_binomial_error():
    n = 10**6
    ens = init_ensemble(cfg(pairs=n, fid=0.85))
    count = int((ens >> 2 == 0).sum())
    sigma = np.sqrt(n * 0.85 * 0.15)
    assert abs(count - 0.85 * n) <= 4 * sigma


def test_init_deterministic():
    a = init_ensemble(cfg(pairs=5000, seed=7))
    b = init_ensemble(cfg(pairs=5000, seed=7))
    assert np.array_equal(a, b)
    c = init_ensemble(cfg(pairs=5000, seed=8))
    assert not np.array_equal(a, c)


def test_empty_ensemble_has_no_estimates():
    stats = RoundStats.of(3, np.zeros(0, dtype=np.uint8))
    assert (stats.pairs_remaining, stats.f_hat, stats.f_cond_hat) == (0, None, None)
    assert stats.cells.tolist() == [0] * 16


def test_noiseless_round_halves_and_keeps_phi_plus():
    identity = NoiseModel(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = init_ensemble(cfg(pairs=10_000, fid=1.0, noise=identity))
    out = purification_round(ens, identity, _round_rng(1, 1))
    assert len(out) == 5000
    assert (out >> 2 == 0).all()
    assert (out & 3 == 0).all()


def test_odd_leftover_carried_unchanged():
    identity = NoiseModel(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = np.array([0, 0, 4 * 3 + 3], dtype=np.uint8)  # the last pair is the odd one out
    slots = set()
    for seed in range(20):
        out = purification_round(ens, identity, _round_rng(seed, 1)).tolist()
        assert sorted(out) == [0, 15]  # carried with its bits untouched
        slots.add(out.index(15))
    assert slots == {0, 1}  # at either slot among the survivors


def dense_draws(rng, p, size):
    """``size`` iid draws from ``p`` as one array: the mode everywhere, and
    ``_errors``'s draws over it chunk by chunk."""
    law = _sparse(p)
    out = np.full(size, law.mode, dtype=np.uint8)
    for start in range(0, size, _CHUNK):
        positions, values = _errors(rng, law, min(_CHUNK, size - start))
        out[start + positions] = values
    return out


def in_order_round(ens, noise, rng):
    """The round with one joint error per couple drawn by ``dense_draws`` and
    routed through ``noisy_circuit``: couples in order, the odd pair out at a
    uniform slot."""
    n = len(ens)
    couples = n // 2
    joint = dense_draws(rng, noise.f.ravel(), couples)
    mu, nu = np.divmod(joint, 4)
    out = noisy_circuit(ens[0:2 * couples:2], ens[1::2], mu, nu)
    out = out[out != DISCARDED]
    if n % 2:
        slot = rng.integers(len(out) + 1)
        out = np.append(out, ens[-1])
        out[[slot, -1]] = out[[-1, slot]]
    return out


@pytest.mark.parametrize("pairs", [2, 3, 1_000, 1_001, 50_000, 50_001, 2 * _CHUNK + 1, 300_000,
                                   300_001])
def test_round_couples_the_pairs_in_order(pairs):
    noise = tracking_noise()
    config = cfg(pairs=pairs, seed=3)
    ens = init_ensemble(config)
    assert np.array_equal(ens, dense_draws(_round_rng(3, 0), config.initial.coeffs, pairs) << 2)
    before = ens.copy()
    for r in (1, 2):
        out = purification_round(ens, noise, _round_rng(3, r))
        assert out.dtype == np.uint8
        assert np.array_equal(out, in_order_round(ens, noise, _round_rng(3, r)))
        assert np.array_equal(ens, before)  # the round leaves its input as it was
        ens, before = out, out.copy()


def test_route_table_reads_a_couples_two_bytes():
    # entry (joint << 12) | (tgt << 8) | src, on every one of the 4096 routes
    joint, src, tgt = (a.ravel() for a in np.indices((16, 16, 16)))
    assert np.array_equal(_ROUTES[(joint << 12) | (tgt << 8) | src],
                          NOISY_CIRCUIT[joint, src, tgt])
    assert _ROUTES.dtype == np.uint8 and not _ROUTES.flags.writeable
    couple = np.array([3, 14], dtype=np.uint8).view(montecarlo._TWO_CELLS)
    assert couple[0] == 3 | 14 << 8  # source byte first, on any host


@pytest.mark.parametrize("n", [0, 1, 7, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK + 1,
                               3 * _CHUNK + 5])
def test_round_stats_count_what_bincount_counts(n):
    cells = np.random.default_rng(n).integers(0, 16, n, dtype=np.uint8)
    stats = RoundStats.of(2, cells)
    assert stats.cells.tolist() == np.bincount(cells, minlength=16).tolist()
    assert stats.pairs_remaining == n


class Uniforms:
    """Stands in for a Generator: call k of ``random`` returns the k-th
    scripted list, padded with ``fill`` to the size asked for."""

    def __init__(self, *calls, fill=0.5):
        self.calls, self.fill, self.sizes = list(calls), fill, []

    def random(self, size):
        self.sizes.append(size)
        script = self.calls.pop(0) if self.calls else []
        assert len(script) <= size
        return np.array(script + [self.fill] * (size - len(script)))


def test_errors_invert_one_double_per_gap():
    law = _sparse(np.array([0.5, 0.25, 0.25, 0.0]))  # q = 1/2: gap 1 + floor(log2(1 / (1 - u)))
    # gaps 2, 1, 3, then 1s: positions 1, 2, 5, and 6 lies past the chunk
    rng = Uniforms([0.5, 0.0, 0.75], [0.1, 0.6, 0.9], fill=0.0)
    positions, values = _errors(rng, law, 6)
    assert positions.tolist() == [1, 2, 5]
    assert values.dtype == np.uint8 and values.tolist() == [1, 2, 2]  # cdf of the rest: 0, 1/2, 1
    assert rng.sizes[1] == rng.sizes[0]  # a value for every gap drawn, kept or not


def test_errors_draw_another_batch_until_the_chunk_ends():
    law = _sparse(np.array([0.999, 0.001]))
    rng = Uniforms([], [0.9999999], [], fill=0.0)  # a first batch of gaps of 1, then a long gap
    positions, values = _errors(rng, law, 1000)
    assert positions.tolist() == list(range(rng.sizes[0]))
    assert rng.sizes[0] < 1000 and len(rng.sizes) == 3
    assert (values == 1).all()


def test_errors_of_a_tiny_q_end_the_chunk_without_overflow():
    # log(1 - u) / log(1 - q) is near 1e300 here; unclipped, the integer cast overflows
    law = _sparse(np.array([1.0, 1e-300]))
    assert law.q == 1e-300
    rng = Uniforms([0.0, 0.0], [0.5])  # gaps 1, 1, then past the end
    positions, values = _errors(rng, law, _CHUNK)
    assert positions.tolist() == [0, 1] and values.tolist() == [1, 1]
    positions, _ = _errors(Uniforms([], fill=1.0 - 2.0**-53), law, _CHUNK)
    assert positions.size == 0


def test_errors_of_a_mode_only_law_draw_nothing():
    rng = Uniforms()
    positions, values = _errors(rng, _sparse(np.array([0.0, 1.0, 0.0, 0.0])), _CHUNK)
    assert positions.size == 0 and values.size == 0 and rng.sizes == []


@pytest.mark.parametrize("layout", ["every-third", "int64"])
@pytest.mark.parametrize("n", [2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK + 3])
def test_round_and_stats_read_any_layout_of_cells(n, layout):
    # the blocks are cut from a contiguous uint8 copy, never viewed in place
    base = np.random.default_rng(n).integers(0, 16, 3 * n, dtype=np.uint8)
    cells = base[::3] if layout == "every-third" else base[:n].astype(np.int64)
    plain = np.ascontiguousarray(cells, np.uint8)
    ours, theirs = _round_rng(6, 1), _round_rng(6, 1)
    got = purification_round(cells, tracking_noise(), ours)
    assert np.array_equal(got, purification_round(plain, tracking_noise(), theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert RoundStats.of(1, cells).cells.tolist() == RoundStats.of(1, plain).cells.tolist()


@pytest.mark.parametrize("n", [0, 1])
def test_round_of_fewer_than_two_cells_copies_them_and_draws_nothing(n):
    cells = np.full(n, 4 * 2 + 1, dtype=np.uint8)
    rng = _round_rng(2, 1)
    before = rng.bit_generator.state
    out = purification_round(cells, tracking_noise(), rng)
    assert rng.bit_generator.state == before
    assert np.array_equal(out, cells) and out is not cells and out.base is None


@pytest.mark.parametrize(
    "p",
    [
        BellDiagonalState.werner(0.85).coeffs,
        tracking_noise().f.ravel(),
        BinaryNoiseModel.uncorrelated(0.95).f.ravel(),  # trailing zeros
        np.array([0.5, 0.0, 0.3, 0.2]),  # an interior zero
    ],
    ids=["werner-0.85", "tracking-noise", "binary-embedded", "interior-zero"],
)
def test_sparse_draws_have_the_iid_law(p):
    """Single and lag-1 pair frequencies of 2**22 draws, each count within
    the exact two-sided binomial tail of 2 Phi(-4); the pairs at even and
    at odd offsets are two sets of iid pairs.  Lag-1 cells expect as few as
    9 counts, where a normal bound's tail is too thin."""
    n, k = 2**22, len(p)
    p = p / p.sum()
    draws = dense_draws(_round_rng(1, 1), p, n)
    for got, want in [(draws, p),
                      (draws[0::2] * k + draws[1::2], np.outer(p, p).ravel()),
                      (draws[1:-1:2] * k + draws[2::2], np.outer(p, p).ravel())]:
        counts = np.bincount(got, minlength=want.size)
        assert counts.size == want.size
        assert (counts[want == 0] == 0).all()
        level = min(2.0 * binomial_tail(int(c), got.size, w)
                    for c, w in zip(counts, want) if 0.0 < w < 1.0)
        assert level >= math.erfc(4.0 / math.sqrt(2.0)), f"two-sided tail {level:.2e}"


def binomial_tail(k, n, p):
    """The tail of Binomial(n, p) on k's side of the mean: P(X <= k) if
    k <= n p, else P(X >= k), for 0 < p < 1.  It sums the terms from
    P(X = k) outwards over 40 standard deviations and 100 terms more, past
    which they are far below a double's precision of the first; checked
    against scipy.stats.binom to 1e-7 relative for n up to 2**22."""
    log_pk = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
              + k * math.log(p) + (n - k) * math.log1p(-p))
    width = int(40.0 * math.sqrt(n * p * (1.0 - p))) + 100
    if k <= n * p:  # P(X = i - 1) / P(X = i) for i = k, k - 1, ..., 1
        i = np.arange(k, max(k - width, 0), -1, dtype=float)
        ratios = i * (1.0 - p) / ((n - i + 1.0) * p)
    else:  # P(X = i + 1) / P(X = i) for i = k, k + 1, ..., n - 1
        i = np.arange(k, min(k + width, n), dtype=float)
        ratios = (n - i) * p / ((i + 1.0) * (1.0 - p))
    return math.exp(log_pk) * (1.0 + np.cumprod(ratios).sum())


def test_binomial_tail_sums_the_terms_of_its_side():
    # Binomial(4, 1/2): P(X <= 1) = 5/16, P(X >= 3) = 5/16, P(X <= 2) = 11/16
    assert binomial_tail(1, 4, 0.5) == pytest.approx(5 / 16, rel=1e-12)
    assert binomial_tail(3, 4, 0.5) == pytest.approx(5 / 16, rel=1e-12)
    assert binomial_tail(2, 4, 0.5) == pytest.approx(11 / 16, rel=1e-12)
    assert binomial_tail(0, 10, 0.1) == pytest.approx(0.9**10, rel=1e-12)
    # near Poisson's limit: P(X >= 25) at mean 9 is 8.7e-6, against 4.8e-8
    # for a normal tail at z = 16 / 3
    n, mean = 2**21, 9.0
    poisson = 1.0 - sum(math.exp(-mean) * mean**i / math.factorial(i) for i in range(25))
    assert binomial_tail(25, n, mean / n) == pytest.approx(poisson, rel=1e-4)


# An iid ensemble over three cells, one of them flagged, and a channel of
# three joint errors: small enough to enumerate every outcome of two rounds.
LAW_CELLS = {0: 0.5, 4: 0.3, 5: 0.2}
LAW_JOINTS = {0: 0.6, 1: 0.25, 5: 0.15}
LAW_NOISE = NoiseModel(np.bincount(list(LAW_JOINTS), list(LAW_JOINTS.values()), 16).reshape(4, 4))
LAW_NOISE_MODE = 0


class ScriptedRng:
    """Stands in for a Generator in one round: ``errors`` gives the couples
    whose joint error is not the mode, with their errors, ``integers`` the
    given slot."""

    def __init__(self, joints, slot):
        self.joints, self.slot = np.array(joints, dtype=np.uint8), slot

    def errors(self, size):
        assert size == len(self.joints)
        positions = np.flatnonzero(self.joints != LAW_NOISE_MODE)
        return positions, self.joints[positions]

    def integers(self, high):
        assert 0 <= self.slot < high
        return self.slot


def add_law(law, outcome, weight):
    law[outcome] = law.get(outcome, 0.0) + weight


def scripted_errors(rng, law, size):
    assert law.mode == LAW_NOISE_MODE
    return rng.errors(size)


@functools.cache
def in_order_law(ens):
    """Law of the output sequence of ``purification_round`` on ``ens``, by
    enumerating the error of every couple and the slot of the odd pair."""
    if len(ens) < 2:
        return {ens: 1.0}
    law = {}
    for joints in itertools.product(LAW_JOINTS, repeat=len(ens) // 2):
        weight = np.prod([LAW_JOINTS[j] for j in joints])
        kept = sum(NOISY_CIRCUIT[j, s, t] != DISCARDED
                   for j, s, t in zip(joints, ens[0::2], ens[1::2]))
        slots = range(kept + 1) if len(ens) % 2 else [0]
        for slot in slots:
            out = purification_round(np.array(ens, dtype=np.uint8), LAW_NOISE,
                                     ScriptedRng(joints, slot))
            add_law(law, tuple(out.tolist()), weight / len(slots))
    return law


@functools.cache
def shuffled_law(ens):
    """Law of the output multiset of a round that shuffles the ensemble
    uniformly, couples it in order and keeps the odd pair out at the end."""
    if len(ens) < 2:
        return {ens: 1.0}
    law = {}
    orders = list(itertools.permutations(ens))
    for order in orders:
        for joints in itertools.product(LAW_JOINTS, repeat=len(ens) // 2):
            out = [NOISY_CIRCUIT[j, s, t] for j, s, t in zip(joints, order[0::2], order[1::2])]
            out = [int(c) for c in out if c != DISCARDED] + list(order[2 * len(joints):])
            weight = np.prod([LAW_JOINTS[j] for j in joints]) / len(orders)
            add_law(law, tuple(sorted(out)), weight)
    return law


@pytest.mark.parametrize("pairs", [4, 5])
def test_round_counts_have_the_law_of_a_shuffled_round(pairs, monkeypatch):
    """Joint law of the cell counts after rounds 1 and 2 of an iid ensemble,
    exactly: the in-order round against the round that shuffles first."""
    monkeypatch.setattr(montecarlo, "_errors", scripted_errors)
    in_order_law.cache_clear()
    ours, theirs = {}, {}
    for ens in itertools.product(LAW_CELLS, repeat=pairs):
        weight = np.prod([LAW_CELLS[c] for c in ens])
        for first, w1 in in_order_law(ens).items():
            for second, w2 in in_order_law(first).items():
                add_law(ours, (tuple(sorted(first)), tuple(sorted(second))), weight * w1 * w2)
        # the shuffled round sees only the multiset, whose weight this adds up
        for first, w1 in shuffled_law(tuple(sorted(ens))).items():
            for second, w2 in shuffled_law(first).items():
                add_law(theirs, (first, second), weight * w1 * w2)
    assert sum(ours.values()) == pytest.approx(1.0, abs=1e-12)
    assert ours.keys() == theirs.keys()
    assert max(abs(ours[k] - theirs[k]) for k in ours) <= 1e-12


#: What a round and the round statistics both reject.
not_cells = pytest.mark.parametrize(
    "cells",
    [
        np.array([16, 0]),  # 16 << 4 would set a bit of the joint error
        np.array([0, 16]),  # the couple 16 << 8 would overrun the 4096 two-cell bins
        np.array([17, 17, 0, 0], dtype=np.int64),
        np.array([-1, 0], dtype=np.int64),  # uint8 would wrap it to 255
        np.array([0.5, 0.0]),
        np.array([2.7, 3]),  # uint8 would truncate it to a cell
        np.array([3, 5, 200]),  # the odd pair out would index past the 16 counts
    ],
    ids=["16", "second-16", "int64-17", "int64-minus-1", "float", "float-2.7", "odd-200"],
)


@not_cells
def test_round_rejects_what_is_not_a_cell(cells):
    identity = NoiseModel(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    with pytest.raises(ValueError, match="cells must"):
        purification_round(cells, identity, _round_rng(0, 1))


@not_cells
def test_round_stats_reject_what_is_not_a_cell(cells):
    with pytest.raises(ValueError, match="cells must"):
        RoundStats.of(1, cells)


@pytest.mark.parametrize(
    "p",
    [
        BellDiagonalState.werner(0.85).coeffs,
        BellDiagonalState.werner(1.0).coeffs,  # [1, 0, 0, 0]
        BinaryNoiseModel.uncorrelated(0.95).f.ravel(),  # trailing zeros
        np.array([0.5, 0.0, 0.3, 0.2]),  # an interior zero
    ],
    ids=["werner-0.85", "werner-1", "binary-embedded", "interior-zero"],
)
@pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_categorical_draws_what_choice_draws(p, size):
    ours, theirs = _round_rng(5, 1), _round_rng(5, 1)
    got = _categorical(ours, _edges(p), size)
    assert got.dtype == np.uint8
    assert np.array_equal(got, theirs.choice(len(p), size=size, p=p))
    assert np.array_equal(ours.random(3), theirs.random(3))  # the stream is left where choice leaves it


def test_run_memory_stays_within_a_few_chunks():
    """Traced peak of a 1e6-pair run, 4 rounds: about 1.5 MB.  Draws made
    through ``rng.choice`` and routed all at once take 16 MB: float64 draws
    and int64 indices for every pair."""
    config = cfg(pairs=10**6, rounds=4)
    run(cfg(pairs=1000, rounds=1))
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_run_never_holds_the_initial_ensemble():
    """Traced peak of an 8e6-pair run of one round: 5.0 MB, round 1's
    survivors (n / 2 bytes) and a few chunks.  Holding the initial
    ensemble as well, as composing ``init_ensemble`` with
    ``purification_round`` does, takes 12.8 MB."""
    config = cfg(pairs=8 * 10**6, rounds=1)
    run(cfg(pairs=1000, rounds=1))
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < config.n_pairs, f"traced peak {peak / 1e6:.1f} MB"


def composed_run(config):
    """``run`` as its parts compose: the whole initial ensemble, then one
    ``purification_round`` and ``RoundStats.of`` per round."""
    cells = init_ensemble(config)
    stats = [RoundStats.of(0, cells)]
    for r in range(1, config.rounds + 1):
        if len(cells) < 2:
            break
        cells = purification_round(cells, config.noise, _round_rng(config.seed, r))
        stats.append(RoundStats.of(r, cells))
    return stats


@pytest.mark.parametrize("rounds", [0, 1, 3])
@pytest.mark.parametrize("pairs", [2, 3, 1_001, 2 * _CHUNK, 2 * _CHUNK + 1, 2 * _CHUNK + 3,
                                   5 * _CHUNK + 1])
def test_run_is_the_composed_run_bit_for_bit(pairs, rounds):
    # at 2 * _CHUNK + 1 the last block is the odd pair out alone
    config = cfg(pairs=pairs, rounds=rounds, seed=4)
    got, want = run(config), composed_run(config)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.round, a.pairs_remaining) == (b.round, b.pairs_remaining)
        assert a.cells.dtype == b.cells.dtype and np.array_equal(a.cells, b.cells)
        assert (a.f_hat, a.f_cond_hat) == (b.f_hat, b.f_cond_hat)


def test_single_pair_round_is_identity():
    identity = NoiseModel(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = np.array([4 * 2 + 1], dtype=np.uint8)
    out = purification_round(ens, identity, _round_rng(0, 1))
    assert len(out) == 1 and out[0] >> 2 == 2 and out[0] & 3 == 1


def test_flags_never_influence_keep():
    noise = tracking_noise()
    base = init_ensemble(cfg(pairs=50_000))
    flags = np.random.default_rng(7).integers(0, 4, len(base), dtype=np.uint8)
    unflagged = purification_round(base, noise, _round_rng(1, 1))
    flagged = purification_round(base | flags, noise, _round_rng(1, 1))
    assert np.array_equal(unflagged >> 2, flagged >> 2)
    assert not np.array_equal(unflagged & 3, flagged & 3)  # the flags themselves differ


def test_one_round_matches_recurrence_on_all_cells():
    """10 random channels and initial states: every cell fraction within 4
    binomial errors of the analytic one-step prediction."""
    rng = np.random.default_rng(123)
    n = 10**6
    for trial in range(10):
        noise = NoiseModel(rng.dirichlet(np.ones(16)))
        initial = BellDiagonalState(rng.dirichlet(np.ones(4)) * 0.4 + [0.6, 0, 0, 0])
        config = MCConfig(n, initial, noise, 1, seed=1000 + trial)
        ens = purification_round(init_ensemble(config), noise, _round_rng(config.seed, 1))
        stats = RoundStats.of(1, ens)
        predicted, _ = step(embed(initial), generate_map(noise))
        p = predicted.flat
        observed = stats.cells / stats.pairs_remaining
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / stats.pairs_remaining)
        z = np.abs(observed - p) / sigma
        assert z.max() < 4.0, f"trial {trial}: worst z = {z.max():.2f}"


def test_survivor_count_tracks_keep_probability():
    noise = tracking_noise()
    config = cfg(pairs=10**6, rounds=1)
    _, keep = step(embed(config.initial), generate_map(noise))
    stats = run(config)
    expect = 0.5 * config.n_pairs * keep
    sigma = np.sqrt(0.5 * config.n_pairs * keep * (1 - keep))
    assert abs(stats[1].pairs_remaining - expect) <= 4 * sigma


def test_run_zero_rounds_gives_initial_stats():
    stats = run(cfg(pairs=1000, rounds=0))
    assert len(stats) == 1
    assert stats[0].round == 0
    assert stats[0].pairs_remaining == 1000


def test_run_matches_analytic_trajectory_within_four_sigma():
    config = cfg(pairs=10**6, rounds=8, seed=1)
    stats = run(config)
    traj = analytic_trajectory(config.noise, config.initial, config.rounds)
    assert len(stats) == 9
    for st in stats:
        state, _ = traj[st.round]
        n = st.pairs_remaining
        for got, want in ((st.f_hat, state.fidelity), (st.f_cond_hat, state.conditional_fidelity)):
            sigma = np.sqrt(max(want * (1 - want), 1e-12) / n)
            assert abs(got - want) <= 4 * sigma, f"round {st.round}"
    assert stats[-1].f_cond_hat >= 0.99


def test_run_depletes_pairs_and_fluctuations_grow():
    stats = run(cfg(pairs=200_000, rounds=6))
    remaining = [s.pairs_remaining for s in stats]
    assert all(b < a for a, b in zip(remaining, remaining[1:]))
    # nominal binomial error bar keeps growing as the ensemble depletes; the
    # Agresti-Coull estimate (k + 2) / (n + 4) keeps it from vanishing when
    # every pair left is on the flag diagonal, which at round 6 (about 900
    # pairs at F_cond = 0.9973) happens with probability 0.09
    widths = []
    for s in stats:
        n = s.pairs_remaining + 4
        p = (s.cells[::5].sum() + 2) / n
        widths.append(np.sqrt(p * (1 - p) / n))
    assert widths[-1] > widths[0]


def test_binary_noise_cross_cells_decay():
    noise = BinaryNoiseModel.uncorrelated(0.95)
    config = MCConfig(10**6, BellDiagonalState.from_abcd(0.8, 0, 0.2, 0), noise, 8, 3)
    stats = run(config)
    # the uncorrelated remainder lives in (Phi+, flag 01) and (Psi+, flag 00)
    a1 = [s.cells[1] / s.pairs_remaining for s in stats]
    b0 = [s.cells[4] / s.pairs_remaining for s in stats]
    assert max(a1[1:4]) > a1[0]  # the flagged Phi+ cell is built up transiently
    cross = np.array(a1) + np.array(b0)
    assert (np.diff(cross[1:5]) < 0).all()  # then everything dies off fast
    assert cross[5] < cross[1] / 50


def test_run_deterministic():
    a = run(cfg(pairs=30_000, rounds=4, seed=9))
    b = run(cfg(pairs=30_000, rounds=4, seed=9))
    for x, y in zip(a, b):
        assert x.pairs_remaining == y.pairs_remaining
        assert np.array_equal(x.cells, y.cells)


def test_round_streams_are_distinct_where_entropy_lists_collide():
    # default_rng([seed, round]) gives (2**32, 0) and (0, 1) one stream
    assert not np.array_equal(_round_rng(0, 1).random(8), _round_rng(2**32, 0).random(8))


def test_rounds_of_one_seed_draw_different_streams():
    draws = [tuple(_round_rng(4, r).random(8)) for r in range(11)]
    assert len(set(draws)) == len(draws)


@pytest.mark.parametrize("seed", [2**64 - 1, np.uint64(3)], ids=["2**64-1", "uint64-3"])
def test_run_takes_any_seed_in_range(seed):
    stats = run(cfg(pairs=1000, rounds=2, seed=seed))
    assert [s.round for s in stats] == [0, 1, 2]


# --- resource accounting -------------------------------------------------------


def test_resources_single_round_case():
    noise = tracking_noise()
    initial = BellDiagonalState.werner(0.85)
    state, keep = step(embed(initial), generate_map(noise))
    eps_after_one = 1.0 - state.conditional_fidelity
    n_req, rounds = resources(noise, initial, eps_after_one + 1e-12)
    assert rounds == 1
    assert n_req == int(np.ceil(2.0 / keep))


def test_resources_monotone_in_target():
    noise = tracking_noise()
    initial = BellDiagonalState.werner(0.85)
    costs = [resources(noise, initial, eps)[0] for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_resources_cost_that_overflows_is_an_error():
    # close above the white-noise boundary eps reaches 1e-6 only at round
    # 1484, long after the cost has overflowed to infinity
    noise = noise_from_config({"model": "white", "f0": "0.8988"})
    with pytest.raises(ValueError, match="round 1484 overflows"):
        resources(noise, BellDiagonalState.werner(0.85), 1e-6, max_rounds=3000)


def test_pairs_needed_refuses_a_cost_past_2_53():
    assert _pairs_needed(3, 2.0**53) == 2**53
    assert _pairs_needed(3, 2.0**51 + 0.5) == 2**51 + 1
    with pytest.raises(ValueError, match=r"round 7 is 9\.007e\+15, past 2\*\*53"):
        _pairs_needed(7, np.nextafter(2.0**53, np.inf))
    with pytest.raises(ValueError, match="round 8 overflows"):
        _pairs_needed(8, np.inf)


def test_resources_unreachable_target():
    with pytest.raises(ValueError, match="not reached"):
        resources(
            BinaryNoiseModel.uncorrelated(0.76), BellDiagonalState.werner(0.85), 1e-3
        )
    with pytest.raises(ValueError):
        resources(tracking_noise(), BellDiagonalState.werner(0.85), 0.0)


#: Each count of the ledger's rounds, as a call with that count set to n.
LEDGER_CALLS = {
    "analytic_trajectory": lambda n: analytic_trajectory(
        tracking_noise(), BellDiagonalState.werner(0.85), n),
    "resource_curve": lambda n: resource_curve(
        tracking_noise(), BellDiagonalState.werner(0.85), n),
    "resources": lambda n: resources(
        tracking_noise(), BellDiagonalState.werner(0.85), 1e-2, max_rounds=n),
}


@pytest.mark.parametrize("name", LEDGER_CALLS)
def test_ledger_round_counts_are_nonnegative_integers(name):
    # MCConfig's rule, checked at the call, also by the lazy resource_curve
    call = LEDGER_CALLS[name]
    for bad in (True, 1.5, 2.0):
        message = r"^\w*rounds must be an integer, got " + re.escape(repr(bad))
        with pytest.raises(TypeError, match=message):
            call(bad)
    with pytest.raises(ValueError, match=r"^\w*rounds must be at least 0, got -1$"):
        call(-1)
    assert repr(list(call(np.int64(40)))) == repr(list(call(40)))
