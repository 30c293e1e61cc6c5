import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from eppsim.montecarlo import (
    _CHUNK,
    MCConfig,
    RoundStats,
    _categorical,
    _round_rng,
    analytic_trajectory,
    init_ensemble,
    purification_round,
    resources,
    run,
)
from eppsim.noisemodels import BinaryNoiseModel, general, noise_from_config
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
    return general(f)


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
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = init_ensemble(cfg(pairs=10_000, fid=1.0, noise=identity))
    out = purification_round(ens, identity, _round_rng(1, 1))
    assert len(out) == 5000
    assert (out >> 2 == 0).all()
    assert (out & 3 == 0).all()


def test_odd_leftover_carried_unchanged():
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = np.array([0, 0, 4 * 3 + 3], dtype=np.uint8)  # the last pair is the odd one out
    slots = set()
    for seed in range(20):
        out = purification_round(ens, identity, _round_rng(seed, 1)).tolist()
        assert sorted(out) == [0, 15]  # carried with its bits untouched
        slots.add(out.index(15))
    assert slots == {0, 1}  # at either slot among the survivors


def in_order_round(ens, noise, rng):
    """The round drawn through ``rng.choice`` and routed through
    ``noisy_circuit``: couples in order, the odd pair out at a uniform slot."""
    n = len(ens)
    couples = n // 2
    joint = rng.choice(16, size=couples, p=noise.f.ravel())
    mu, nu = np.divmod(joint.astype(np.uint8), 4)
    out = noisy_circuit(ens[0:2 * couples:2], ens[1::2], mu, nu)
    out = out[out != DISCARDED]
    if n % 2:
        slot = rng.integers(len(out) + 1)
        out = np.append(out, ens[-1])
        out[[slot, -1]] = out[[-1, slot]]
    return out


@pytest.mark.parametrize("pairs", [2, 3, 1_000, 1_001, 50_000, 50_001, 300_000, 300_001])
def test_round_couples_the_pairs_in_order(pairs):
    noise = tracking_noise()
    ens = init_ensemble(cfg(pairs=pairs, seed=3))
    before = ens.copy()
    for r in (1, 2):
        out = purification_round(ens, noise, _round_rng(3, r))
        assert out.dtype == np.uint8
        assert np.array_equal(out, in_order_round(ens, noise, _round_rng(3, r)))
        assert np.array_equal(ens, before)  # the round leaves its input as it was
        ens, before = out, out.copy()


# An iid ensemble over three cells, one of them flagged, and a channel of
# three joint errors: small enough to enumerate every outcome of two rounds.
LAW_CELLS = {0: 0.5, 4: 0.3, 5: 0.2}
LAW_JOINTS = {0: 0.6, 1: 0.25, 5: 0.15}
LAW_NOISE = general(np.bincount(list(LAW_JOINTS), list(LAW_JOINTS.values()), 16).reshape(4, 4))


class ScriptedRng:
    """Stands in for a Generator in one round: ``random`` returns doubles
    that ``_categorical`` maps to the given joint errors, ``integers`` the
    given slot."""

    def __init__(self, joints, slot):
        f = LAW_NOISE.f.ravel()
        cdf = f.cumsum() / f.sum()
        self.doubles = np.array([cdf[j - 1] if j else 0.0 for j in joints])
        self.slot = slot

    def random(self, size):
        assert size == len(self.doubles)
        return self.doubles

    def integers(self, high):
        assert 0 <= self.slot < high
        return self.slot


def add_law(law, outcome, weight):
    law[outcome] = law.get(outcome, 0.0) + weight


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
def test_round_counts_have_the_law_of_a_shuffled_round(pairs):
    """Joint law of the cell counts after rounds 1 and 2 of an iid ensemble,
    exactly: the in-order round against the round that shuffles first."""
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


@pytest.mark.parametrize(
    "cells",
    [
        np.array([16, 0]),  # 16 << 4 would set a bit of the joint error
        np.array([17, 17, 0, 0], dtype=np.int64),
        np.array([-1, 0], dtype=np.int64),  # uint8 would wrap it to 255
        np.array([0.5, 0.0]),
    ],
    ids=["16", "int64-17", "int64-minus-1", "float"],
)
def test_round_rejects_what_is_not_a_cell(cells):
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    with pytest.raises(ValueError, match="cells must"):
        purification_round(cells, identity, _round_rng(0, 1))


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
    got = _categorical(ours, p, size)
    assert got.dtype == np.uint8
    assert np.array_equal(got, theirs.choice(len(p), size=size, p=p))
    assert np.array_equal(ours.random(3), theirs.random(3))  # the stream is left where choice leaves it


def test_run_memory_stays_within_a_few_chunks():
    """Traced peak of a 1e6-pair run, 4 rounds: about 2.4 MB.  Draws made
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


def test_single_pair_round_is_identity():
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
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
        noise = general(rng.dirichlet(np.ones(16)))
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
    # nominal binomial error bar keeps growing as the ensemble depletes
    widths = [
        np.sqrt(max(s.f_cond_hat * (1 - s.f_cond_hat), 1e-8) / s.pairs_remaining)
        for s in stats
    ]
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


def test_resources_unreachable_target():
    with pytest.raises(ValueError, match="not reached"):
        resources(
            BinaryNoiseModel.uncorrelated(0.76), BellDiagonalState.werner(0.85), 1e-3
        )
    with pytest.raises(ValueError):
        resources(tracking_noise(), BellDiagonalState.werner(0.85), 0.0)
