import numpy as np
import pytest

from eppsim.montecarlo import (
    Ensemble,
    MCConfig,
    MCPair,
    RoundStats,
    _round_rng,
    analytic_trajectory,
    init_ensemble,
    purification_round,
    resources,
    run,
)
from eppsim.noisemodels import BinaryNoiseModel, general
from eppsim.recurrence import BellDiagonalState, generate_map, step, embed


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


def test_init_pure_werner():
    ens = init_ensemble(cfg(pairs=1000, fid=1.0))
    assert len(ens) == 1000
    assert (ens.bell == 0).all()
    assert (ens.flag == 0).all()


def test_init_counts_within_binomial_error():
    n = 10**6
    ens = init_ensemble(cfg(pairs=n, fid=0.85))
    count = int((ens.bell == 0).sum())
    sigma = np.sqrt(n * 0.85 * 0.15)
    assert abs(count - 0.85 * n) <= 4 * sigma


def test_init_deterministic():
    a = init_ensemble(cfg(pairs=5000, seed=7))
    b = init_ensemble(cfg(pairs=5000, seed=7))
    assert np.array_equal(a.bell, b.bell)
    c = init_ensemble(cfg(pairs=5000, seed=8))
    assert not np.array_equal(a.bell, c.bell)


def test_ensemble_pair_view():
    ens = Ensemble(np.array([2], dtype=np.uint8), np.array([1], dtype=np.uint8))
    pair = ens[0]
    assert pair == MCPair(pair.bell, pair.flag)
    assert tuple(pair.bell) == (1, 0)
    assert tuple(pair.flag) == (0, 1)
    with pytest.raises(ValueError):
        Ensemble(np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.uint8))


def test_empty_ensemble_has_no_estimates():
    empty = np.zeros(0, dtype=np.uint8)
    stats = RoundStats.of(3, Ensemble(empty, empty))
    assert (stats.pairs_remaining, stats.f_hat, stats.f_cond_hat) == (0, None, None)
    assert stats.cells.tolist() == [0] * 16


def test_noiseless_round_halves_and_keeps_phi_plus():
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = init_ensemble(cfg(pairs=10_000, fid=1.0, noise=identity))
    out = purification_round(ens, identity, _round_rng(1, 1))
    assert len(out) == 5000
    assert (out.bell == 0).all()
    assert (out.flag == 0).all()


def test_odd_leftover_carried_unchanged():
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    bell = np.array([0, 0, 3], dtype=np.uint8)  # marked pair may become the leftover
    flag = np.array([0, 0, 3], dtype=np.uint8)
    seen_leftover = False
    for seed in range(20):
        out = purification_round(Ensemble(bell, flag), identity, _round_rng(seed, 1))
        if 3 in out.bell:
            # marked pair was the odd one out: carried with bits untouched
            assert len(out) == 2
            assert tuple(out.bell[out.flag == 3]) == (3,)
            seen_leftover = True
    assert seen_leftover


def test_single_pair_round_is_identity():
    identity = general(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    ens = Ensemble(np.array([2], dtype=np.uint8), np.array([1], dtype=np.uint8))
    out = purification_round(ens, identity, _round_rng(0, 1))
    assert len(out) == 1 and out.bell[0] == 2 and out.flag[0] == 1


def test_flags_never_influence_keep():
    noise = tracking_noise()
    base = init_ensemble(cfg(pairs=50_000))
    flags = np.random.default_rng(7).integers(0, 4, len(base), dtype=np.uint8)
    unflagged = purification_round(base, noise, _round_rng(1, 1))
    flagged = purification_round(Ensemble(base.bell, flags), noise, _round_rng(1, 1))
    assert np.array_equal(unflagged.bell, flagged.bell)
    assert not np.array_equal(unflagged.flag, flagged.flag)  # the flags themselves differ


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


def test_resources_unreachable_target():
    with pytest.raises(ValueError, match="not reached"):
        resources(
            BinaryNoiseModel.uncorrelated(0.76), BellDiagonalState.werner(0.85), 1e-3
        )
    with pytest.raises(ValueError):
        resources(tracking_noise(), BellDiagonalState.werner(0.85), 0.0)
