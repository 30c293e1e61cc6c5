import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import eppsim
from eppsim import dynamics, matrixoracle, recurrence
from eppsim.dynamics import (
    FixpointResult,
    Regime,
    binary_family,
    binary_fixpoint_analytic,
    classify_regime,
    find_critical,
    fit_intermediate,
    iterate_to_fixpoint,
    jacobian,
    regime_of,
    regime_scan,
    secure_by_stability,
    spectral_radius,
    white_noise_family,
)
from eppsim.noisemodels import (
    BinaryNoiseModel,
    NoiseModel,
    from_p1_p2,
    one_qubit_white,
    product,
)
from eppsim.recurrence import (
    BellDiagonalState,
    BinaryFlaggedState,
    EnsembleAnnihilated,
    FlaggedEnsembleState,
    binary_quadratic_map,
    binary_step,
    embed,
    generate_map,
)

import newton_reference

BINARY_CRITICAL = 0.77184451


def tracking_noise():
    f = np.full((4, 4), 0.0020968)
    f[0, :] = 0.0113896
    f[:, 0] = 0.0113896
    f[0, 0] = 0.91279120
    return NoiseModel(f)


def white(f0):
    w = one_qubit_white(f0)
    return product(w, w)


def binary_probe():
    return BinaryFlaggedState(0.85, 0.0, 0.15, 0.0)


def noiseless_map():
    return generate_map(white(1.0))


# --- fixpoint iteration -------------------------------------------------------


def test_ideal_map_iterates_to_pure_state():
    r = iterate_to_fixpoint(embed(BellDiagonalState.werner(0.7)), noiseless_map())
    assert r.converged
    assert r.fidelity == pytest.approx(1.0, abs=1e-11)


def test_security_regime_conditional_fidelity_converges_to_one():
    r = iterate_to_fixpoint(embed(BellDiagonalState.werner(0.85)), tracking_noise())
    assert r.converged
    assert r.conditional_fidelity >= 1.0 - 1e-9
    assert r.fidelity < 1.0


def test_high_noise_regime_converges_to_quarter():
    r = iterate_to_fixpoint(embed(BellDiagonalState.werner(0.85)), white(0.80))
    assert r.converged
    assert r.fidelity == pytest.approx(0.25, abs=1e-9)
    assert r.conditional_fidelity == pytest.approx(0.25, abs=1e-9)


def test_iterate_reports_annihilation():
    f = np.zeros((4, 4))
    f[0, 1] = 1.0
    start = embed(BellDiagonalState.from_abcd(1, 0, 0, 0))
    r = iterate_to_fixpoint(start, NoiseModel(f))
    assert not r.converged
    assert r.failure is not None and "keep probability" in r.failure
    assert r.failure == "keep probability 0.0 at iteration 1"
    assert (r.iterations, r.residual) == (0, np.inf)
    assert r.state is start


def test_a_flag_diagonal_start_can_converge_to_a_saddle():
    # a start on the flag-diagonal cells never leaves their subspace, so the
    # plain iteration follows the subspace's dynamics; at white 0.9 it ends
    # at F = 1/4, F_cond = 1, which the whole map repels from
    qmap, _ = white_noise_family(0.9)
    r = iterate_to_fixpoint(FlaggedEnsembleState(np.diag([0.4, 0.2, 0.2, 0.2])), qmap)
    assert r.converged and r.iterations == 10
    assert r.fidelity == pytest.approx(0.25, abs=1e-12)
    assert r.conditional_fidelity == 1.0
    assert np.delete(r.state.flat, [0, 5, 10, 15]).tolist() == [0.0] * 12
    assert spectral_radius(jacobian(qmap, r.state)) == pytest.approx(1.81, abs=0.01)
    assert regime_of(r) is Regime.HIGH_NOISE


def reference_fixpoint(a, qmap, tol, max_iter):
    """The fixpoint loop written plainly with ``QuadraticMap.apply``; returns
    the last vector before the result state's renormalisation."""
    residual, iterations = np.inf, 0
    for iterations in range(1, max_iter + 1):
        nxt, _ = qmap.apply(a)
        residual = float(np.max(np.abs(nxt - a)))
        a = nxt
        if residual <= tol:
            return a, iterations, True, residual
    return a, iterations, False, residual


def random_channel(rng, f00):
    f = np.empty(16)
    f[0] = f00
    f[1:] = rng.dirichlet(np.ones(15)) * (1.0 - f00)
    return NoiseModel(f.reshape(4, 4))


def test_fixpoint_loop_is_bit_identical_to_reference():
    # Werner and random flagged starts, channels from the high-noise side to
    # the security side; every fifth run gets a budget it runs out of
    rng = np.random.default_rng(31)
    outcomes = set()
    for k in range(240):
        qmap = generate_map(random_channel(rng, rng.uniform(0.6, 0.97)))
        if k % 2:
            start = FlaggedEnsembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
        else:
            start = embed(BellDiagonalState.werner(0.85))
        tol = (1e-12, 1e-9)[k % 3 == 0]
        budget = 20 if k % 5 == 0 else 3000
        vec, iterations, converged, residual = reference_fixpoint(start.flat, qmap, tol, budget)
        r = iterate_to_fixpoint(start, qmap, tol=tol, max_iter=budget)
        assert (r.iterations, r.converged, r.residual) == (iterations, converged, residual)
        assert np.array_equal(r.state.flat, FlaggedEnsembleState(vec.reshape(4, 4)).flat)
        outcomes.add(converged)
    assert outcomes == {True, False}


def test_fixpoint_loop_single_step_and_start_untouched():
    qmap = generate_map(white(0.93))
    start = embed(BellDiagonalState.werner(0.85))
    before = start.flat.copy()
    r = iterate_to_fixpoint(start, qmap, max_iter=1)
    image, _ = qmap.apply(before)
    assert (r.iterations, r.converged) == (1, False)
    assert r.residual == float(np.max(np.abs(image - before)))
    assert np.array_equal(r.state.flat, FlaggedEnsembleState(image.reshape(4, 4)).flat)
    assert np.array_equal(start.flat, before)
    # the probe shared by the families comes back unchanged as well
    _, probe = white_noise_family(0.93)
    probe_before = probe.flat.copy()
    iterate_to_fixpoint(probe, qmap)
    assert np.array_equal(probe.flat, probe_before)


BLOCK_CAPS = [1, 2, 32]
BUDGETS = [0, 1, 7, 8, 9, 31, 32, 33, 30_000]


def absorbing_map(n):
    """Cell 0 absorbs: a'_0 = a_0^2 + 2 a_0 (a_1 + ... ), a'_j = a_j^2 for
    j > 0, all over N.  The other weights square each step until they
    underflow to 0, and the next step lands on (1, 0, ...) exactly, a
    float fixpoint that no rounding moves."""
    m = np.zeros((n, n, n))
    m[0, 0, :] = m[0, :, 0] = 1.0
    for j in range(1, n):
        m[j, j, j] = 1.0
    return recurrence.QuadraticMap(m)


def test_blocked_loop_matches_the_one_step_reference(monkeypatch):
    # the loop takes its residuals once per block of steps; every budget
    # around the first block (8) and the cap (32), on 16- and 4-variable
    # maps, both where tol = 0 is met exactly (the absorbing maps, after
    # 11 and 15 steps from these starts) and where the budget runs out first
    rng = np.random.default_rng(21)
    maps = [
        generate_map(random_channel(rng, 0.9)),
        absorbing_map(16),
        absorbing_map(4),
        binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.7)),
    ]
    outcomes = set()
    for qmap in maps:
        start = rng.dirichlet(np.ones(qmap.dim))
        for tol in (0.0, 1e-12):
            for budget in BUDGETS:
                vec, *want = reference_fixpoint(start, qmap, tol, budget)
                for cap in BLOCK_CAPS:
                    monkeypatch.setattr(dynamics, "_BLOCK_CAP", cap)
                    a = start.copy()
                    got, *rest = dynamics._iterate_array(a, qmap, tol, budget)
                    assert rest == want, (qmap.dim, tol, budget, cap)
                    assert got.tobytes() == vec.tobytes(), (qmap.dim, tol, budget, cap)
                    assert a.tobytes() == start.tobytes()
                outcomes.add((qmap.dim, tol, budget == 30_000, want[1]))
    # tol = 0 is met on both map sizes, and f0 = 0.7 runs the whole budget
    assert {(16, 0.0, True, True), (4, 0.0, True, True), (4, 0.0, True, False)} <= outcomes


@pytest.mark.parametrize("cap", [2, 32])
@pytest.mark.parametrize("other", ["4 cells", "16 cells"])
def test_plain_loops_on_two_threads_match_their_serial_results(other, cap, monkeypatch):
    # the loop reuses buffers, made once per thread and map size, so two
    # threads iterating at once change no result: on maps of different sizes,
    # and on maps of the same size, which would share buffers across threads
    monkeypatch.setattr(dynamics, "_BLOCK_CAP", cap)
    jobs = [(white_noise_family(0.93)[0], dynamics._WERNER_PROBE)]
    if other == "4 cells":
        jobs.append(
            (binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.8)), dynamics._BINARY_PROBE))
    else:
        jobs.append((white_noise_family(0.91)[0], dynamics._WERNER_PROBE))

    def results(qmap, start):
        return [iterate_to_fixpoint(start, qmap, tol=1e-12 * (1 + k % 7), max_iter=20 + k)
                for k in range(200)]

    serial = [results(*job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads within a solve, not between solves
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda job: results(*job), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    outcomes = set()
    for want, got in zip(serial, threaded):
        for a, b in zip(want, got):
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            assert a.residual == b.residual
            vectors = (dynamics._vector_of(r.state)[0].tobytes() for r in (a, b))
            assert len(set(vectors)) == 1
            outcomes.add(a.converged)
    assert outcomes == {True, False}


def annihilating_map():
    """x, x -> x and x, y -> y with weight 2000: the x weight shrinks by
    about 4000 a step, and the keep probability with it, until it is below
    ``ANNIHILATION_EPS`` at the seventh step from (0.9, 0.1)."""
    m = np.zeros((2, 2, 2))
    m[0, 0, 0] = 1.0
    m[1, 0, 1] = m[1, 1, 0] = 2000.0
    return recurrence.QuadraticMap(m)


@pytest.mark.parametrize("cap", BLOCK_CAPS)
def test_blocked_loop_annihilates_mid_block_as_the_reference_does(cap, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_CAP", cap)
    qmap, start = annihilating_map(), np.array([0.9, 0.1])
    a, residuals = start, []
    while True:
        try:
            nxt, _ = qmap.apply(a)
        except recurrence.EnsembleAnnihilated:
            break
        residuals.append(float(np.max(np.abs(nxt - a))))
        a = nxt
    assert len(residuals) == 6  # the seventh step annihilates
    with pytest.raises(recurrence.EnsembleAnnihilated, match=r"at iteration 7$"):
        dynamics._iterate_array(start, qmap, 0.0, 100)
    # a row of the block that converged before the step that annihilates is
    # the result (residuals 1.4e-10, 3.5e-14 at steps 4 and 5)
    vec, *rest = reference_fixpoint(start, qmap, 1e-12, 100)
    got, *got_rest = dynamics._iterate_array(start, qmap, 1e-12, 100)
    assert got_rest == rest == [5, True, residuals[4]]
    assert got.tobytes() == vec.tobytes()


def test_iterate_dimension_mismatch():
    with pytest.raises(ValueError, match="variables"):
        iterate_to_fixpoint(binary_probe(), generate_map(tracking_noise()))


def test_a_step_or_jacobian_off_the_maps_size_raises_the_iterations_error():
    # one check, shared with iterate_to_fixpoint, names both sizes where
    # numpy's matmul would fail on its core dimension
    werner = embed(BellDiagonalState.werner(0.85))
    binary_map = binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.9))
    flagged_map = generate_map(BinaryNoiseModel.uncorrelated(0.9))
    for call, sizes in [
        (lambda: recurrence.step(werner, binary_map), (16, 4)),
        (lambda: binary_map.apply(werner.flat), (16, 4)),
        (lambda: jacobian(binary_map, werner), (16, 4)),
        (lambda: jacobian(binary_map, werner.flat), (16, 4)),
        (lambda: jacobian(flagged_map, BinaryFlaggedState(0.9, 0.0, 0.0, 0.1)), (4, 16)),
        (lambda: iterate_to_fixpoint(werner, binary_map), (16, 4)),
    ]:
        with pytest.raises(ValueError, match="state has %d variables but map has %d$" % sizes):
            call()


def test_iterate_with_a_channel_that_is_neither_model_nor_map_is_a_type_error():
    with pytest.raises(TypeError, match="QuadraticMap or noise model"):
        iterate_to_fixpoint(embed(BellDiagonalState.werner(0.85)), tracking_noise().f)


def test_unconverged_run_that_has_decayed_is_high_noise():
    # 20 steps leave the run short of its fixpoint, but F is already 1/4
    noise, start = white_noise_family(0.8)
    r = iterate_to_fixpoint(start, noise, max_iter=20)
    assert not r.converged and r.failure is None
    assert r.fidelity == pytest.approx(0.25, abs=1e-12)
    assert regime_of(r) is Regime.HIGH_NOISE


@pytest.mark.parametrize(
    "converged, failure, weights, regime",
    [
        (True, None, (0.25, 0.0, 0.0, 0.75), Regime.HIGH_NOISE),
        (True, None, (1.0, 0.0, 0.0, 0.0), Regime.SECURITY),
        (True, None, (0.9, 0.1, 0.0, 0.0), Regime.INTERMEDIATE),
        (False, None, (0.25, 0.0, 0.0, 0.75), Regime.HIGH_NOISE),  # decayed short of its limit
        (False, None, (1.0, 0.0, 0.0, 0.0), Regime.INTERMEDIATE),  # secure only at a limit
        (False, "annihilated", (0.25, 0.0, 0.0, 0.75), Regime.INTERMEDIATE),
    ],
)
def test_regime_of_every_branch(converged, failure, weights, regime):
    result = FixpointResult(BinaryFlaggedState(*weights), 1, converged, 0.0, failure)
    assert regime_of(result) is regime


def counted_map_builds(monkeypatch):
    """A list that gets one entry per map built: ``generate_map`` and
    ``binary_quadratic_map`` both gather through ``recurrence._gathered``."""
    builds, original = [], recurrence._gathered

    def counted(f, routes):
        builds.append(routes[-1])
        return original(f, routes)

    monkeypatch.setattr(recurrence, "_gathered", counted)
    return builds


@pytest.mark.parametrize("f0", [0.70, 0.75, 0.76, 0.7718, 0.78, 0.8, 0.9, 1.0])
def test_scalar_binary_loop_agrees_with_the_array_loop(f0, monkeypatch):
    # a binary state with a binary channel runs the scalar loop, and the same
    # state with the channel's 4-variable map runs the array loop
    noise = BinaryNoiseModel.uncorrelated(f0)
    qmap = binary_quadratic_map(noise)
    builds = counted_map_builds(monkeypatch)
    scalar = iterate_to_fixpoint(binary_probe(), noise, max_iter=20_000)
    assert builds == []  # the scalar path builds no map
    array = iterate_to_fixpoint(binary_probe(), qmap, max_iter=20_000)
    assert (scalar.iterations, scalar.converged) == (array.iterations, array.converged)
    np.testing.assert_allclose(scalar.state.as_array, array.state.as_array, rtol=0, atol=1e-14)


# --- analytic binary fixpoint --------------------------------------------------


def test_binary_fixpoint_noiseless_is_exact():
    fp = binary_fixpoint_analytic(1.0)
    assert (fp.a0, fp.a1, fp.b0, fp.b1) == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("f0", [0.78, 0.8, 0.9, 1.0])
def test_binary_fixpoint_matches_iteration(f0):
    fp = binary_fixpoint_analytic(f0)
    r = iterate_to_fixpoint(
        binary_probe(), BinaryNoiseModel.uncorrelated(f0), tol=1e-14, max_iter=10**6
    )
    assert r.converged
    assert abs(r.state.a0 - fp.a0) < 1e-10
    assert abs(r.state.b1 - fp.b1) < 1e-10


def test_binary_fixpoint_is_fixed_under_step():
    rng = np.random.default_rng(20)
    for f0 in rng.uniform(0.78, 1.0, size=20):
        fp = binary_fixpoint_analytic(float(f0))
        nxt = binary_step(fp, BinaryNoiseModel.uncorrelated(float(f0)))
        assert np.abs(nxt.as_array - fp.as_array).max() < 1e-12


def test_binary_fixpoint_domain_error():
    with pytest.raises(ValueError):
        binary_fixpoint_analytic(0.74)


def test_marginal_stability_at_critical_point():
    fp = binary_fixpoint_analytic(BINARY_CRITICAL)
    qm = binary_quadratic_map(BinaryNoiseModel.uncorrelated(BINARY_CRITICAL))
    assert spectral_radius(jacobian(qm, fp)) == pytest.approx(1.0, abs=1e-6)


# --- jacobian / spectral radius -------------------------------------------------


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(50):
        qm = generate_map(NoiseModel(rng.dirichlet(np.ones(16))))
        a = rng.dirichlet(np.ones(16))
        jac = jacobian(qm, a)
        for k in rng.choice(16, size=4, replace=False):
            ap = a.copy()
            ap[k] += h
            am = a.copy()
            am[k] -= h
            fd = (qm.apply(ap)[0] - qm.apply(am)[0]) / (2 * h)
            denom = max(1.0, np.abs(jac[:, k]).max())
            assert np.abs(fd - jac[:, k]).max() / denom < 1e-5


def test_ideal_fixpoint_is_attractive():
    pure = embed(BellDiagonalState.from_abcd(1, 0, 0, 0))
    assert spectral_radius(jacobian(noiseless_map(), pure)) == 0.0


@pytest.mark.parametrize("f0,stable", [(0.9, True), (0.76, False)])
def test_binary_stability_flips_at_critical(f0, stable):
    fp = binary_fixpoint_analytic(f0)
    qm = binary_quadratic_map(BinaryNoiseModel.uncorrelated(f0))
    rho = spectral_radius(jacobian(qm, fp))
    assert (rho < 1.0) is stable


def test_spectral_radius_basics():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.5, -0.8])) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.inf, 0], [0, 1]]))


# --- critical search -------------------------------------------------------------


def test_binary_critical_point():
    crit = find_critical(binary_family, (0.75, 0.85))
    assert crit == pytest.approx(BINARY_CRITICAL, abs=5e-6)


def test_white_noise_critical_point():
    crit = find_critical(white_noise_family, (0.88, 0.92), halvings=24, max_iter=30_000)
    assert 0.8983 < crit < 0.8988


def closed_form_binary_root():
    """The binary boundary from the closed-form fixpoint, bisected to the last float."""
    def margin(f0):
        qmap = binary_quadratic_map(BinaryNoiseModel.uncorrelated(f0))
        return spectral_radius(jacobian(qmap, binary_fixpoint_analytic(f0))) - 1.0

    lo, hi = 0.76, 0.78
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if margin(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return mid


def test_binary_critical_point_is_the_closed_form_root():
    root = closed_form_binary_root()
    assert abs(root - BINARY_CRITICAL) < 5e-9
    assert abs(find_critical(binary_family, (0.75, 0.85)) - root) <= 4 * math.ulp(root)


@pytest.mark.parametrize(
    "mirrored, root", [(False, 0.7718445063460382), (True, 1.6 - 0.7718445063460382)],
    ids=["secure-at-hi", "secure-at-lo"],
)
def test_find_critical_bisects_from_either_side(mirrored, root, monkeypatch):
    # mirrored, the binary family is secure at the bracket's low end, so the
    # secure probes replace lo instead of hi.  With no Newton steps for the
    # boundary solve, the search is the bisection fallback, which runs until
    # no float lies inside the bracket: the two ends and 50 probes
    monkeypatch.setattr(dynamics, "_ROOT_MAX_STEPS", 0)
    calls = []

    def family(p):
        calls.append(p)
        return binary_family(1.6 - p if mirrored else p)

    assert find_critical(family, (0.75, 0.85), halvings=200) == root
    assert len(calls) == 52


def test_find_critical_halvings():
    with pytest.raises(ValueError, match="halvings must be at least 0, got -2"):
        find_critical(binary_family, (0.76, 0.85), halvings=-2)
    assert find_critical(binary_family, (0.76, 0.85), halvings=0) == 0.5 * (0.76 + 0.85)


def test_find_critical_stops_when_the_interval_is_exhausted(monkeypatch):
    # with no Newton steps for the boundary solve, the bisection fallback
    # runs out of floats before it runs out of halvings
    monkeypatch.setattr(dynamics, "_ROOT_MAX_STEPS", 0)
    calls = []

    def family(f0):
        calls.append(f0)
        return binary_family(f0)

    at_60 = find_critical(binary_family, (0.75, 0.85), halvings=60)
    assert find_critical(family, (0.75, 0.85), halvings=200) == at_60
    assert len(calls) <= 64


def test_find_critical_that_only_bisects_makes_halvings_probes(monkeypatch):
    # with no Newton steps for the boundary solve, every probe bisects the
    # verdict, and a search makes halvings probes after its two ends; the
    # rounded midpoints leave the width a few ulps above (0.92 - 0.88) / 16
    monkeypatch.setattr(dynamics, "_ROOT_MAX_STEPS", 0)
    calls = []

    def family(f0):
        calls.append(f0)
        return white_noise_family(f0)

    assert find_critical(family, (0.88, 0.92), halvings=4) == 0.8987499999999999
    assert len(calls) == 2 + 4


def test_find_critical_needs_sign_change():
    with pytest.raises(ValueError, match="does not change"):
        find_critical(binary_family, (0.95, 1.0), halvings=4)
    with pytest.raises(ValueError, match="not increasing"):
        find_critical(binary_family, (0.85, 0.75))


# --- linear stability against the dynamics ----------------------------------------


@pytest.mark.parametrize(
    "noise",
    [BinaryNoiseModel.uncorrelated(f0) for f0 in (0.76, 0.78, 0.9)]
    + [white(0.8983), white(0.90)],
    ids=["binary-0.76", "binary-0.78", "binary-0.9", "white-0.8983", "white-0.90"],
)
def test_stability_verdict_matches_classify_regime(noise):
    assert secure_by_stability(noise) == (classify_regime(noise) is Regime.SECURITY)


def test_stability_verdict_matches_classify_regime_on_random_channels():
    rng = np.random.default_rng(23)
    verdicts = []
    for f00 in (0.75, 0.80, 0.85):
        for _ in range(30):
            noise = random_channel(rng, f00)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # every probe converges
                dynamical = classify_regime(noise) is Regime.SECURITY
            assert secure_by_stability(noise) == dynamical, f00
            verdicts.append(dynamical)
    assert any(verdicts) and not all(verdicts)


def test_stability_verdict_is_insecure_where_the_secure_solve_annihilates():
    # both bits always flip, so every couple is discarded
    noise, start = BinaryNoiseModel(0.0, 1.0, 0.0, 0.0), BinaryFlaggedState(1, 0, 0, 0)
    assert not secure_by_stability(noise, start)


def test_stability_verdict_needs_flag_diagonal_weight():
    noise = BinaryNoiseModel.uncorrelated(0.9)
    with pytest.raises(ValueError, match="no weight"):
        secure_by_stability(noise, BinaryFlaggedState(0.0, 0.5, 0.5, 0.0))


# --- the secure fixpoint, solved by Newton's method ------------------------------


def secure_fixpoint(noise, start, tol, max_iter):
    """The Newton solve of ``secure_by_stability``: the map restricted to the
    flag-diagonal cells, from the projection of the start state; the result
    is embedded in a state of the start's kind."""
    _, (x, *solve) = dynamics._secure_fixpoint(noise, start, tol, max_iter)
    return dynamics.FixpointResult(dynamics._vector_of(start)[1](x), *solve)


@pytest.mark.parametrize("f0", [0.76, 0.7718, 0.7719, 0.8, 0.9])
def test_secure_fixpoint_matches_binary_closed_form(f0):
    noise, probe = binary_family(f0)
    r = secure_fixpoint(noise, probe, tol=1e-12, max_iter=1000)
    assert r.converged and r.residual <= 1e-12
    assert np.abs(r.state.as_array - binary_fixpoint_analytic(f0).as_array).max() < 1e-9


def test_secure_fixpoint_at_the_binary_threshold():
    # At f0 = 3/4 the secure fixpoint branches off a0 = 1/2 (a pitchfork), so
    # step(x) - x is cubic in the distance e to it, about -e**3: a residual
    # <= tol places the fixpoint within tol**(1/3), and no closer.  The plain
    # iteration ends 1e-3 away after 500k steps.
    noise, probe = binary_family(0.75)
    tol = 1e-12
    r = secure_fixpoint(noise, probe, tol=tol, max_iter=1000)
    assert r.converged and r.residual <= tol
    assert r.iterations > dynamics._NEWTON_WARM_START  # Newton did the work
    error = np.abs(r.state.as_array - binary_fixpoint_analytic(0.75).as_array).max()
    assert error <= tol ** (1.0 / 3.0)


def test_secure_fixpoint_past_a_fold_falls_back_to_plain_steps():
    # just below white noise's fold the purifying fixpoint is gone; Newton
    # circles its ghost, and the plain iteration carries on to F = 1/4
    qmap, probe = white_noise_family(0.8983)
    r = secure_fixpoint(qmap, probe, tol=1e-12, max_iter=30_000)
    assert r.converged
    assert r.iterations > dynamics._NEWTON_WARM_START + dynamics._NEWTON_MAX_STEPS
    assert r.fidelity == pytest.approx(0.25, abs=1e-9)


def counting_solves(monkeypatch):
    """A list that gets one entry per linear solve from now on."""
    solves, solve = [], np.linalg.solve

    def counted(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


def test_newton_leaves_a_fold_ghost_once_its_corrections_grow(monkeypatch):
    # white noise at 0.898125, the slowest probe of the demo 06 search, lies
    # just below the fold.  Newton's first two corrections shrink and the
    # third is longer, so it is not taken and the plain iteration goes on
    # from the warm start (the clip floor stopped Newton only after 28).
    # The result is the plain limit of the projected start, bit for bit
    qmap, probe = white_noise_family(0.898125)
    cells = [0, 5, 10, 15]
    solves = counting_solves(monkeypatch)
    _, (x, iterations, converged, _) = dynamics._secure_fixpoint(qmap, probe, 1e-12, 30_000)
    assert len(solves) == 3
    start = probe.flat[cells] / probe.flat[cells].sum()
    plain = dynamics._iterate_array(start, qmap.restricted(cells), 1e-12, 30_000)
    assert plain[2] and converged
    assert iterations == plain[1] + len(solves)
    assert x[cells].tobytes() == plain[0].tobytes() and not np.delete(x, cells).any()
    assert x[0] == pytest.approx(0.25, abs=1e-15)


def test_secure_fixpoint_budget_counts_every_step():
    noise, probe = binary_family(0.75)
    warm = dynamics._NEWTON_WARM_START
    for budget in (1, warm // 2, warm, warm + 5):
        r = secure_fixpoint(noise, probe, tol=1e-12, max_iter=budget)
        assert (r.iterations, r.converged) == (budget, False)


@pytest.mark.parametrize("family", [binary_family, white_noise_family])
def test_negative_budget_is_an_error(family):
    noise, probe = family(0.8)
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        iterate_to_fixpoint(probe, noise, max_iter=-1)
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        secure_fixpoint(noise, probe, tol=1e-12, max_iter=-1)
    r = secure_fixpoint(noise, probe, tol=1e-12, max_iter=0)
    assert (r.iterations, r.converged) == (0, False)


#: Every count a solver takes, as a call with that count set to n, and a
#: value of n the call accepts.
COUNT_CALLS = {
    "iterate_to_fixpoint, scalar loop": (
        lambda n: iterate_to_fixpoint(binary_probe(), binary_family(0.8)[0], max_iter=n), 3),
    "iterate_to_fixpoint, 16 cells": (
        lambda n: iterate_to_fixpoint(*reversed(white_noise_family(0.93)), max_iter=n), 3),
    "classify_regime": (lambda n: classify_regime(binary_family(0.9)[0], max_iter=n), 1000),
    "secure_by_stability": (lambda n: secure_by_stability(binary_family(0.9)[0], max_iter=n), 3),
    "find_critical halvings": (lambda n: find_critical(binary_family, (0.75, 0.85), n), 3),
    "find_critical max_iter": (
        lambda n: find_critical(binary_family, (0.75, 0.85), 3, max_iter=n), 1000),
    "regime_scan samples": (lambda n: regime_scan(0.9, n, 1), 3),
    "regime_scan max_iter": (lambda n: regime_scan(0.9, 3, 1, max_iter=n), 3),
}


@pytest.mark.parametrize("name", COUNT_CALLS)
def test_counts_must_be_integers(name):
    # the rule of MCConfig's counts: no bool, no float, even a whole one
    call, accepted = COUNT_CALLS[name]
    for bad in (2.5, True, 1e5):
        message = r"^\w+ must be an integer, got " + re.escape(repr(bad))
        with pytest.raises(TypeError, match=message):
            call(bad)
    assert repr(call(np.int64(accepted))) == repr(call(accepted))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tol_must_be_finite_and_nonnegative(tol):
    # a NaN tol never stops an iteration, so every solve would run out its
    # budget and report a wrong verdict instead of failing
    noise, probe = binary_family(0.9)
    message = "tol = .* is not finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        iterate_to_fixpoint(probe, noise, tol=tol)
    with pytest.raises(ValueError, match=message):
        secure_by_stability(noise, tol=tol)
    with pytest.raises(ValueError, match=message):
        regime_scan(0.95, 3, 0, tol=tol)
    with pytest.raises(ValueError, match=message):
        find_critical(binary_family, (0.75, 0.85), tol=tol)


def reference_verdict(noise, start):
    """The stability rule on the plain iteration of the flag-diagonal
    projection, with a 500k-step budget."""
    if isinstance(start, BinaryFlaggedState):
        diag = np.array([start.a0, 0.0, 0.0, start.b1])
        start = BinaryFlaggedState(*(diag / diag.sum()))
    else:
        diag = np.diag(np.diag(start.a))
        start = FlaggedEnsembleState(diag / diag.trace())
    r = iterate_to_fixpoint(start, noise, max_iter=500_000)
    assert r.converged
    if r.fidelity <= 0.5 + dynamics.REGIME_FUZZ:
        return False
    if isinstance(noise, BinaryNoiseModel):
        noise = binary_quadratic_map(noise)
    elif isinstance(noise, NoiseModel):
        noise = generate_map(noise)
    return spectral_radius(jacobian(noise, r.state)) < 1.0


def test_newton_verdict_matches_plain_iteration_on_random_channels():
    rng = np.random.default_rng(41)
    probe = embed(BellDiagonalState.werner(0.85))
    verdicts, newton_runs = [], 0
    for f00 in np.linspace(0.70, 0.95, 240):
        noise = random_channel(rng, f00)
        verdict = secure_by_stability(noise, max_iter=500_000)
        assert verdict == reference_verdict(noise, probe), f00
        verdicts.append(verdict)
        newton_runs += (
            secure_fixpoint(noise, probe, 1e-12, 500_000).iterations
            > dynamics._NEWTON_WARM_START
        )
    assert any(verdicts) and not all(verdicts)
    assert newton_runs > 0


def reference_margin(noise, s0, tol=1e-12, max_iter=dynamics.CRITICAL_MAX_ITER):
    """The stability margin solved on the whole state: Newton's method with
    the flag-diagonal cells of the whole vector free and each Jacobian the
    slice J[D, D] of the whole map's, the plain steps on the whole map, and
    the polish on the same slices."""
    a, wrap = dynamics._vector_of(s0)
    cells = dynamics._FLAG_DIAGONAL_CELLS[type(s0)]
    cc, eye = np.ix_(cells, cells), np.eye(len(cells))
    diag = np.zeros_like(a)
    diag[cells] = a[cells] / a[cells].sum()
    qmap = dynamics._fitting_map(noise, a)
    warm = iterate_to_fixpoint(wrap(diag), noise, tol, dynamics._NEWTON_WARM_START)
    result, spent = warm, warm.iterations
    if not warm.converged:
        x = dynamics._vector_of(warm.state)[0].copy()
        for _ in range(dynamics._NEWTON_MAX_STEPS):
            spent += 1
            image, _ = qmap.apply(x)
            if np.max(np.abs(image - x)) <= tol:
                result = dynamics.FixpointResult(wrap(image), spent, True, 0.0)
                break
            x[cells] += np.linalg.solve(jacobian(qmap, x)[cc] - eye, x[cells] - image[cells])
            if x.min() < -dynamics._NEWTON_CLIP_FLOOR:
                break
            np.maximum(x, 0.0, out=x)
        if not result.converged:
            result = iterate_to_fixpoint(warm.state, noise, tol, max_iter - spent)
    if not result.converged or result.fidelity <= 0.5 + dynamics.REGIME_FUZZ:
        return None
    x = dynamics._vector_of(result.state)[0].copy()
    residual = np.inf
    for _ in range(dynamics._POLISH_STEPS):
        image, _ = qmap.apply(x)
        step = x[cells] - image[cells]
        size = np.max(np.abs(step))
        if not 0.0 < size < residual:
            break
        residual = size
        x[cells] += np.linalg.solve(jacobian(qmap, x)[cc] - eye, step)
    return spectral_radius(jacobian(qmap, x)) - 1.0


def p1p2_family(p1):
    """p2 at a fixed p1, with the Werner probe."""
    def family(p2):
        return generate_map(from_p1_p2(p1, p2)), embed(BellDiagonalState.werner(0.85))
    return family


@pytest.mark.parametrize(
    "family, grid",
    [
        (binary_family, np.append(np.linspace(0.745, 0.90, 32), 0.75)),
        (white_noise_family,
         np.append(np.linspace(0.85, 0.95, 24), np.linspace(0.8982, 0.8988, 13))),
        (p1p2_family(0.98),
         np.append(np.linspace(0.80, 0.90, 24), np.linspace(0.8498, 0.8507, 10))),
    ],
    ids=["binary", "white", "p1p2-0.98"],
)
def test_margin_on_the_restricted_map_matches_the_whole_state_solve(family, grid):
    # each grid crosses its family's boundary, with fine points between the
    # purification threshold and the security boundary, where the margin is
    # positive; binary f0 = 3/4 is a double root, where a residual of 1e-12
    # places the fixpoint only within about 1e-4, so only the verdict is
    # compared there
    signs = set()
    for param in grid:
        noise, probe = family(float(param))
        secure, *_, jac = dynamics._secure_margin(noise, probe, 1e-12, dynamics.CRITICAL_MAX_ITER)
        got = None if jac is None else spectral_radius(jac) - 1.0
        want = reference_margin(noise, probe)
        assert (got is None) == (want is None), param
        if got is None:
            assert not secure, param
            continue
        assert secure == (got < 0.0) == (want < 0.0), param
        signs.add(got < 0.0)
        if param != 0.75:
            assert abs(got - want) <= 1e-13, param
    assert signs == {True, False}


#: Points within 1e-3 of each boundary: binary f0 = 3/4 and 0.77184, white
#: noise's fold near 0.89831 and its security boundary near 0.89870.
near_the_boundaries = pytest.mark.parametrize(
    "family, f0",
    [(binary_family, f0) for f0 in (0.749, 0.7499, 0.7501, 0.751, 0.7709, 0.7718, 0.7719, 0.7728)]
    + [(white_noise_family, f0)
       for f0 in (0.8973, 0.8982, 0.8983, 0.8984, 0.8986, 0.8987, 0.8988, 0.8997)],
    ids=lambda x: getattr(x, "__name__", x),
)


@near_the_boundaries
def test_newton_verdict_matches_plain_iteration_near_the_boundaries(family, f0):
    noise, probe = family(f0)
    assert secure_by_stability(noise, probe, max_iter=500_000) == reference_verdict(noise, probe)


def test_find_critical_basin_check_disagreement():
    # mostly Psi+: the ensemble purifies towards Psi+ instead of Phi+, so at
    # f0 = 0.85 it misses the secure fixpoint that linear stability finds
    def family(f0):
        return BinaryNoiseModel.uncorrelated(f0), BinaryFlaggedState(0.3, 0.0, 0.7, 0.0)

    with pytest.raises(ValueError, match="basin check"):
        find_critical(family, (0.75, 0.85), halvings=4, max_iter=20_000)


def test_find_critical_basin_check_at_the_insecure_end():
    # a flag-diagonal start purifies to the secure fixpoint at f0 = 0.76,
    # where linear stability finds it repelling off the subspace; the plain
    # run takes 281 steps, so the warm start hands the decision to Newton
    def family(f0):
        return BinaryNoiseModel.uncorrelated(f0), BinaryFlaggedState(0.85, 0.0, 0.0, 0.15)

    assert basin_limit(*family(0.76), max_iter=20_000).iterations > dynamics._NEWTON_WARM_START
    with pytest.raises(ValueError, match="basin check at 0.76"):
        find_critical(family, (0.76, 0.85), halvings=4, max_iter=20_000)


# --- the boundary as a regular root -------------------------------------------------


def watched_boundary_root(monkeypatch):
    """A list that gets (cells, secure end, result) of each boundary solve."""
    seen, original = [], dynamics._boundary_root

    def watched(family, cells, secure_end, other_end):
        root = original(family, cells, secure_end, other_end)
        seen.append((cells, secure_end, root))
        return root

    monkeypatch.setattr(dynamics, "_boundary_root", watched)
    return seen


def loop_critical(family, bracket, monkeypatch):
    """``find_critical``'s bisection on the verdict alone: no Newton steps
    for the root."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_ROOT_MAX_STEPS", 0)
        return find_critical(family, bracket)


BOUNDARY_FAMILIES = pytest.mark.parametrize(
    "family, bracket",
    [(white_noise_family, (0.88, 0.92)), (binary_family, (0.75, 0.85)),
     (p1p2_family(0.98), (0.84, 0.86)), (p1p2_family(0.97), (0.85, 0.87)),
     (lambda p: p1p2_family(p)(p), (0.91, 0.93))],
    ids=["white", "binary", "p1p2-0.98", "p1p2-0.97", "p1-equals-p2"],
)


@BOUNDARY_FAMILIES
def test_find_critical_solves_the_boundary_as_a_regular_root(family, bracket, monkeypatch):
    seen = watched_boundary_root(monkeypatch)
    crit = find_critical(family, bracket)
    [(cells, (_, _, x_end, _), z)] = seen
    assert z is not None and crit == z[-1]
    assert abs(crit - loop_critical(family, bracket, monkeypatch)) <= 1e-12
    # at the root: x purifies, v is J_OO's Perron vector with eigenvalue one,
    # and the flag-diagonal block is stable
    qmap = dynamics._fitting_map(family(crit)[0], x_end)
    off = np.setdiff1d(np.arange(qmap.dim), cells)
    f, dfdz, jac = dynamics._boundary_system(qmap, z, cells, off, derivative=True)
    d = len(cells)
    assert np.max(np.abs(f)) <= 1e-12
    assert z[0] > 0.5 and z[d:-1].min() >= -1e-12
    assert abs(spectral_radius(jac[np.ix_(off, off)]) - 1.0) <= 1e-12
    assert spectral_radius(jac[np.ix_(cells, cells)]) < 1.0
    # the system's Jacobian, its t column by central differences, is regular
    h = 1e-7
    above, below = (dynamics._boundary_system(
        dynamics._fitting_map(family(crit + s)[0], x_end), z, cells, off) for s in (h, -h))
    assert np.linalg.cond(np.column_stack([dfdz, (above - below) / (2 * h)])) < 1e3


@BOUNDARY_FAMILIES
def test_the_boundary_system_is_the_reference_to_the_byte(family, bracket, monkeypatch):
    # at the root: J is jacobian's, taken from the system's own products, and
    # the residual and derivative are those of the system written through
    # jacobian, np.ix_ and np.eye
    seen = watched_boundary_root(monkeypatch)
    find_critical(family, bracket)
    [(cells, (_, _, x_end, _), z)] = seen
    qmap = dynamics._fitting_map(family(z[-1])[0], x_end)
    off = np.setdiff1d(np.arange(qmap.dim), cells)
    got = dynamics._boundary_system(qmap, z, cells, off, derivative=True)
    a = np.zeros(qmap.dim)
    a[cells] = z[:len(cells)]
    assert got[2].tobytes() == jacobian(qmap, a).tobytes()
    for mine, ref in zip(got, newton_reference.boundary_system(qmap, z, cells, off)):
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()
    assert dynamics._boundary_system(qmap, z, cells, off).tobytes() == got[0].tobytes()


def test_a_search_builds_one_map_per_bracket_end_and_newton_step(monkeypatch):
    # each bracket end's basin check solves on the map its stability margin
    # built: binary makes 2 end maps and 6 Newton steps' maps (10 when the
    # basin checks built their own), white noise one map per family call;
    # each build is counted by its map's size: binary maps are 4-cell ones
    builds = counted_map_builds(monkeypatch)
    monkeypatch.setattr(dynamics, "_WHITE_MAP_CACHE", {})
    assert find_critical(binary_family, (0.75, 0.85)) == 0.7718445063460382
    assert builds == [4] * 8
    builds.clear()
    find_critical(white_noise_family, (0.88, 0.92), halvings=24, max_iter=30_000)
    assert builds == [16] * 7


def newton_reference_cases():
    """(noise, start) of the binary basin checks at f0 = 3/4 and 0.7719, of
    white noise at 0.8988, and of 20 seeded random channels with the Werner
    probe."""
    cases = [binary_family(0.75), binary_family(0.7719), white_noise_family(0.8988)]
    rng = np.random.default_rng(43)
    probe = embed(BellDiagonalState.werner(0.85))
    cases += [(random_channel(rng, f00), probe) for f00 in np.linspace(0.80, 0.95, 20)]
    return cases


def test_newton_fixpoint_is_the_reference_loop_to_the_byte():
    # the trimmed Newton steps and polish make the rounded operations of
    # qmap.apply, jacobian and np.linalg.solve, in the same order
    newton_runs = 0
    for noise, start in newton_reference_cases():
        a, _ = dynamics._vector_of(start)
        max_iter = dynamics.CRITICAL_MAX_ITER
        # the basin check: the whole map, every cell free
        qmap = dynamics._fitting_map(noise, a)
        plain = dynamics._plain_loop(noise, start, qmap)
        got = dynamics._newton_fixpoint(a, qmap, plain, 1e-12, max_iter, attracting=True)
        want = newton_reference.newton_fixpoint(a, qmap, plain, 1e-12, max_iter, attracting=True)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:] and type(got[3]) is type(want[3])
        newton_runs += got[1] > dynamics._NEWTON_WARM_START
        # the stability margin's solve: the restricted map, then the polish
        cells = dynamics._FLAG_DIAGONAL_CELLS[type(start)]
        sub = qmap.restricted(cells)
        plain = dynamics._plain_loop(noise, start, sub, cells)
        x, *solve = newton_reference.newton_fixpoint(
            a[cells] / a[cells].sum(), sub, plain, 1e-12, max_iter)
        if solve[1] and x[0] > 0.5 + dynamics.REGIME_FUZZ:
            x = newton_reference.polished(x, sub)
        _, (full, *secure) = dynamics._secure_fixpoint(noise, start, 1e-12, max_iter)
        assert full[cells].tobytes() == x.tobytes() and secure == solve
    assert newton_runs >= 15
    # the basin check at the binary threshold converges by Newton in 72 steps
    noise, start = binary_family(0.75)
    assert basin_limit(noise, start).iterations == 72


def test_newton_is_refused_where_its_corrections_grow(monkeypatch):
    # from f0 = 0.99 the first correction overshoots to 0.52 and the second is
    # longer, so Newton is refused there; the first bisection probe, 0.87, is
    # secure, and Newton from it finds the root
    seen = watched_boundary_root(monkeypatch)
    crit = find_critical(binary_family, (0.75, 0.99))
    [refused, root] = [root for *_, root in seen]
    assert refused is None and crit == root[-1]
    assert abs(crit - find_critical(binary_family, (0.75, 0.85))) <= 1e-12


def test_newton_is_refused_where_the_family_raises_at_an_iterate(monkeypatch):
    # a family defined from f0 = 0.6 up: Newton's first correction from 0.99
    # lands near 0.52, where the family raises, so Newton is refused there
    # and finds the root from the first bisection probe, 0.87
    raised = []

    def family(f0):
        if f0 < 0.6:
            raised.append(f0)
            raise ValueError(f"f0 = {f0} is outside the family")
        return binary_family(f0)

    seen = watched_boundary_root(monkeypatch)
    crit = find_critical(family, (0.75, 0.99))
    [refused, root] = [root for *_, root in seen]
    assert len(raised) == 1 and 0.5 < raised[0] < 0.55
    assert refused is None and crit == root[-1]
    assert abs(crit - find_critical(binary_family, (0.75, 0.85))) <= 1e-12


def test_a_secure_end_at_the_edge_of_the_family_is_no_error(monkeypatch):
    # white noise is defined up to f0 = 1 only: the first step is taken
    # toward the bracket's interior, and Newton, refused from there, hands
    # over to the first bisection probe, 0.94, which is secure and from
    # which Newton finds the root
    seen = watched_boundary_root(monkeypatch)
    crit = find_critical(white_noise_family, (0.88, 1.0))
    [refused, root] = [root for *_, root in seen]
    assert refused is None and crit == root[-1]
    assert abs(crit - find_critical(white_noise_family, (0.88, 0.92))) <= 1e-12


# --- the basin check's limit, solved by Newton's method -----------------------------


def basin_limit(noise, start, max_iter=dynamics.CRITICAL_MAX_ITER):
    """The solve of ``find_critical``'s basin check: every cell free."""
    return dynamics._solve(start, noise, 1e-12, max_iter, newton=True)


def ends_secure(result):
    return regime_of(result) is Regime.SECURITY


def test_a_newton_limit_that_does_not_attract_is_not_the_basin_limit():
    # white noise at 0.9025: the secure fixpoint swapped with itself (its
    # 16 cells xor-convolved with themselves) keeps weight on the
    # flag-diagonal cells only.  The plain iteration takes it to F = 1/4 in
    # 47 steps; Newton converged on a saddle at F = 0.7187 (rho = 1.1874)
    noise, probe = white_noise_family(0.9025)
    secure = secure_fixpoint(noise, probe, 1e-12, dynamics.CRITICAL_MAX_ITER).state.flat
    cells = np.arange(16)
    swapped = np.zeros(16)
    np.add.at(swapped, cells[:, None] ^ cells, np.multiply.outer(secure, secure))
    start = FlaggedEnsembleState(swapped.reshape(4, 4))
    plain = iterate_to_fixpoint(start, noise, max_iter=dynamics.CRITICAL_MAX_ITER)
    assert plain.converged and regime_of(plain) is Regime.HIGH_NOISE
    limit = basin_limit(noise, start)
    assert limit.converged and regime_of(limit) is Regime.HIGH_NOISE
    assert limit.iterations > dynamics._NEWTON_WARM_START  # Newton ran and was left
    np.testing.assert_allclose(limit.state.flat, plain.state.flat, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", ["binary", "flagged"])
def test_plain_and_basin_solves_report_annihilation_alike(kind):
    if kind == "binary":  # both bits always flip, so every couple is discarded
        noise, start = BinaryNoiseModel(0.0, 1.0, 0.0, 0.0), BinaryFlaggedState(1, 0, 0, 0)
    else:  # f[I, X] = 1 flips one bit of every target pair
        f = np.zeros((4, 4))
        f[0, 1] = 1.0
        noise, start = NoiseModel(f), embed(BellDiagonalState.werner(1.0))
    plain, basin = iterate_to_fixpoint(start, noise), basin_limit(noise, start)
    assert plain.failure is not None and "keep probability" in plain.failure
    assert basin.failure == plain.failure
    for r in (plain, basin):
        assert r.state is start
        assert (r.iterations, r.converged, r.residual) == (0, False, np.inf)


def test_basin_limit_at_the_binary_threshold_is_decided_by_newton():
    # the plain iteration converges only algebraically here,
    # e' = e / (1 + e**2) for e = F - 1/2, and used to spend the whole budget
    # Newton's corrections grow and shrink at rounding level there, with
    # residuals of 1.7e-12 to 5.0e-10, so they must not stop it: below
    # _NEWTON_ROUNDING_FLOOR the solve stays with Newton
    r = basin_limit(*binary_family(0.75))
    assert r.iterations == 72
    assert r.converged and not ends_secure(r)


@pytest.mark.parametrize("family, f0", [(binary_family, 0.7719), (white_noise_family, 0.8988)])
def test_basin_limit_at_a_secure_end_near_the_boundary_is_decided_by_newton(family, f0):
    # the limit's cells with flag other than Bell index are zero, and Newton
    # overshoots them; clipped to zero, its points are kept, where the plain
    # iteration takes thousands of steps (19,421 and 2,895)
    r = basin_limit(*family(f0))
    assert r.iterations <= dynamics._NEWTON_WARM_START + dynamics._NEWTON_MAX_STEPS
    assert r.converged and ends_secure(r)


def test_critical_searches_take_few_solve_steps(monkeypatch):
    # a deterministic cost guard for searches that solve the boundary as a
    # regular root: the solve steps, plain and Newton, summed over the four
    # fixpoint solves of a search (125 on white noise, 183 on binary, where
    # the basin check at the threshold f0 = 3/4 takes 72); the linear
    # solves (11 on white noise: 5 of the boundary's Newton steps, 6 of the
    # fixpoint solves and polish; 71 on binary, 65 of them in the fixpoint
    # solves at that multiple root); and the family calls (7 on white noise
    # and 8 on binary: the two bracket ends and one per Newton step).  The
    # wide brackets white (0.88, 1.0) and binary (0.75, 0.99) add a refused
    # Newton solve and one bisection probe: 103 and 160 solve steps, 12 and
    # 75 linear solves, 11 and 12 family calls
    solves = counting_solves(monkeypatch)
    spent, calls = [], []
    original = dynamics._newton_fixpoint

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        spent.append(result[1])
        return result

    def probed(family):
        def call(f0):
            calls.append(f0)
            return family(f0)
        return call

    searches = [
        (lambda: find_critical(
            probed(white_noise_family), (0.88, 0.92), halvings=24, max_iter=30_000), 12, 7),
        (lambda: find_critical(probed(binary_family), (0.75, 0.85)), 72, 8),
        (lambda: find_critical(probed(white_noise_family), (0.88, 0.92)), 12, 7),  # CLI default
        # wide brackets: Newton is refused from the secure end and accepted
        # from the first bisection probe
        (lambda: find_critical(probed(white_noise_family), (0.88, 1.0)), 13, 12),
        (lambda: find_critical(probed(binary_family), (0.75, 0.99)), 76, 12),
    ]
    monkeypatch.setattr(dynamics, "_newton_fixpoint", counted)
    for search, most_solves, most_calls in searches:
        spent.clear()
        solves.clear()
        calls.clear()
        search()
        assert 0 < sum(spent) <= 200
        assert 0 < len(solves) <= most_solves
        assert 0 < len(calls) <= most_calls


def test_basin_limit_matches_plain_iteration_on_random_channels():
    # the channels of test_newton_verdict_matches_plain_iteration_on_random_channels
    rng = np.random.default_rng(41)
    probe = embed(BellDiagonalState.werner(0.85))
    verdicts, newton_runs = [], 0
    for f00 in np.linspace(0.70, 0.95, 240):
        qmap = generate_map(random_channel(rng, f00))
        plain = iterate_to_fixpoint(probe, qmap, max_iter=30_000)
        assert plain.converged, f00
        limit = basin_limit(qmap, probe)
        assert ends_secure(limit) == ends_secure(plain), f00
        verdicts.append(ends_secure(plain))
        newton_runs += limit.iterations > dynamics._NEWTON_WARM_START
    assert any(verdicts) and not all(verdicts)
    assert newton_runs > 0


def test_basin_limit_in_high_noise_is_the_plain_limit():
    # channel 466 of the seeded sweep f00 = linspace(0.70, 0.95, 2080): the
    # first Newton points reach weights near -2, and clipped to zero they
    # landed on the flag-diagonal F = 1/4 fixpoint (conditional fidelity 1)
    # instead of the plain limit (conditional fidelity 1/4)
    rng = np.random.default_rng(41)
    grid = np.linspace(0.70, 0.95, 2080)
    for _ in grid[:466]:
        rng.dirichlet(np.ones(15))
    qmap = generate_map(random_channel(rng, grid[466]))
    probe = embed(BellDiagonalState.werner(0.85))
    plain = iterate_to_fixpoint(probe, qmap, max_iter=dynamics.CRITICAL_MAX_ITER)
    limit = basin_limit(qmap, probe)
    assert plain.converged and limit.converged
    assert limit.iterations > dynamics._NEWTON_WARM_START  # Newton ran
    assert np.max(np.abs(limit.state.flat - plain.state.flat)) <= 1e-9


@near_the_boundaries
def test_basin_limit_matches_plain_iteration_near_the_boundaries(family, f0):
    noise, probe = family(f0)
    secure = ends_secure(basin_limit(noise, probe))
    plain = iterate_to_fixpoint(probe, noise, max_iter=50_000)
    if plain.converged:
        assert secure == ends_secure(plain)
    else:  # white noise at 0.8987 takes 124k plain steps
        assert secure == secure_by_stability(noise, probe, max_iter=dynamics.CRITICAL_MAX_ITER)


def singular_first_correction(monkeypatch):
    """Make the next linear solve raise LinAlgError, as a singular system
    does, and the later ones solve; returns the list of solves."""
    calls, solve = [], np.linalg.solve

    def patched(*args):
        calls.append(args)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", patched)
    return calls


def test_newton_gives_up_where_a_step_raises(monkeypatch):
    # every Newton solve gives up where a step raises LinAlgError, and the
    # plain iteration goes on: the secure solve at white 0.92 and the polish
    # at 0.99 (whose solve converges within the warm start), a basin check,
    # a whole critical search and a verdict's hand-off (white 0.92 hands off
    # after 30 steps) keep the verdicts they have without the error
    checks = [
        lambda: secure_by_stability(*white_noise_family(0.92)),
        lambda: secure_by_stability(*white_noise_family(0.99)),
        lambda: regime_of(basin_limit(*binary_family(0.7719))),
        lambda: classify_regime(white(0.92)),
    ]
    for check in checks:
        want = check()
        calls = singular_first_correction(monkeypatch)
        assert check() == want and calls
        monkeypatch.undo()
    calls = singular_first_correction(monkeypatch)
    crit = find_critical(white_noise_family, (0.88, 0.92), halvings=24, max_iter=30_000)
    assert calls and abs(crit - 0.8987009989775713) <= 1e-12


# --- regimes ----------------------------------------------------------------------


def test_classify_regime_reference_points():
    assert classify_regime(tracking_noise()) is Regime.SECURITY
    assert classify_regime(BinaryNoiseModel.uncorrelated(0.76)) is Regime.INTERMEDIATE
    assert classify_regime(BinaryNoiseModel.uncorrelated(0.70)) is Regime.HIGH_NOISE
    assert classify_regime(white(0.90)) is Regime.SECURITY
    assert classify_regime(white(0.8983)) is Regime.HIGH_NOISE


def test_classify_regime_warns_when_budget_exhausted():
    with pytest.warns(RuntimeWarning, match="no fixpoint"):
        regime = classify_regime(tracking_noise(), max_iter=3)
    assert regime is Regime.INTERMEDIATE


def test_a_map_of_the_four_binary_cells_is_probed_with_the_binary_state():
    noise = BinaryNoiseModel.uncorrelated(0.9)
    qmap = binary_quadratic_map(noise)
    assert classify_regime(qmap) is classify_regime(noise) is Regime.SECURITY
    assert secure_by_stability(qmap) is secure_by_stability(noise) is True


# Golden scan channels (perfbench seed 4, scan 0) whose plain iteration reaches
# the secure fixpoint only after the scan budget: f00 = 0.80 sample 19 (96,165
# steps), 0.81 sample 87 (88,562) and 0.86 sample 15 (137,004).
SLOW_SECURE_CHANNELS = [
    [0.8, 0.013588490418593493, 0.03863540070328067, 0.03728850191354724,
     0.0007795651920325867, 2.446715748782907e-05, 0.007846919681122784,
     0.004698357014315837, 0.03317424654298878, 0.000493281608007651,
     0.0019138472259762017, 0.008386851360932259, 0.012334538502829812,
     0.019484160459252775, 0.01763904559602341, 0.0037123266236086055],
    [0.81, 0.018819584247260414, 0.004918805218926297, 0.002244531941659844,
     0.033747446503036425, 0.0020021046285470176, 0.007076536761029352,
     0.005016982525662758, 0.049106278786706314, 0.004198591422647149,
     0.01765601392577472, 0.007637885488881213, 0.013667533144973586,
     0.014661415602866566, 0.003931443961146692, 0.005314845840881585],
    [0.86, 0.0013346576109505054, 0.01623330162895178, 0.0026494546999419897,
     0.028142310069394005, 0.021849775895585868, 0.009697522275012653,
     0.003150956682963448, 0.0026967132562573603, 0.003704477686730297,
     0.029252365667709238, 0.008719053681357518, 0.00630450380905959,
     0.0023401671782933777, 0.003776222728505843, 0.00014851712928653016],
]


@pytest.mark.parametrize("weights", SLOW_SECURE_CHANNELS, ids=["0.80", "0.81", "0.86"])
def test_the_handoff_gate_keeps_a_channel_that_spends_the_budget_intermediate(
    weights, monkeypatch
):
    noise = NoiseModel(np.array(weights).reshape(4, 4))
    assert secure_by_stability(noise)
    kept = []
    gate = dynamics._gate

    def spy(*args):
        kept.append(gate(*args))
        return kept[-1]

    monkeypatch.setattr(dynamics, "_gate", spy)
    with pytest.warns(RuntimeWarning, match="no fixpoint within 30000"):
        assert classify_regime(noise, max_iter=30_000) is Regime.INTERMEDIATE
    assert kept == [False]  # Newton reached the secure fixpoint; the gate declined it
    # without the gate (rho = 0 needs no further steps) the verdict would be secure
    monkeypatch.setattr(dynamics, "spectral_radius", lambda m: 0.0)
    assert classify_regime(noise, max_iter=30_000) is Regime.SECURITY


def test_the_verdict_is_the_plain_iterations_on_random_channels(monkeypatch):
    # channels across the regime transition on a budget the slowest spend: a
    # hand-off to Newton may shorten a solve, never change its regime or
    # whether the budget was spent (the warning)
    rng = np.random.default_rng(5)
    probe = embed(BellDiagonalState.werner(0.85))
    grid = np.linspace(0.76, 0.88, 13)
    channels = [random_channel(rng, f00) for f00 in grid for _ in range(24)]
    plain = [iterate_to_fixpoint(probe, noise, max_iter=3000) for noise in channels]
    tally = dict.fromkeys(["handoffs", "reached", "accepted", "declined", "by_eigvals"], 0)
    newton, verdict_bound = dynamics._newton, dynamics._verdict_bound
    gate, radius = dynamics._gate, dynamics.spectral_radius
    handoff = []  # (done, r, tol, max_iter) of the last hand-off

    def counted_newton(*args):
        tally["handoffs"] += 1
        out = newton(*args)
        tally["reached"] += out[1] is not None
        return out

    def watched_bound(done, r, tol, max_iter):
        # the hand-off, where the steps done and the residual r are known
        handoff[:] = done, r, tol, max_iter
        return verdict_bound(done, r, tol, max_iter)

    def counted_radius(m):
        tally["by_eigvals"] += 1
        return radius(m)

    def checked_gate(jac, bound):
        # each decision, by a norm bound or not, is the eigenvalue time rule's
        kept = gate(jac, bound)
        tally["accepted" if kept else "declined"] += 1
        done, r, tol, max_iter = handoff
        rho = radius(jac)
        assert kept == (rho == 0.0 or (
            rho < 1.0 and done + math.log(tol / r) / math.log(rho) <= max_iter / 2))
        return kept

    monkeypatch.setattr(dynamics, "_newton", counted_newton)
    monkeypatch.setattr(dynamics, "_verdict_bound", watched_bound)
    monkeypatch.setattr(dynamics, "_gate", checked_gate)
    monkeypatch.setattr(dynamics, "spectral_radius", counted_radius)
    for noise, want in zip(channels, plain):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert classify_regime(noise, max_iter=3000) is regime_of(want)
        budget_spent = [str(w.message).startswith("no fixpoint within 3000") for w in caught]
        assert budget_spent == ([] if want.converged else [True])
    gates = tally["accepted"] + tally["declined"]
    gave_up = tally["handoffs"] - gates
    assert tally["accepted"] >= 1 and tally["declined"] >= 1 and gave_up >= 1, tally
    # Newton's fixpoint is the verdict's exactly where the gate accepted it
    assert tally["reached"] == tally["accepted"], tally
    # some gates a norm bound decided, and the declines the eigenvalues did
    assert tally["declined"] <= tally["by_eigvals"] < gates, tally


def test_a_slow_first_block_hands_off_after_exactly_the_warm_start(monkeypatch):
    # white noise at 0.92: the first block's 8 residuals decay at a rate that
    # predicts about 53 further steps, more than a block, so the next block
    # ends at the warm start's step 30 and the verdict hands off there
    noise = white(0.92)
    qmap = generate_map(noise)
    warm = dynamics._NEWTON_WARM_START
    rows = [WERNER_PROBE.flat]
    for _ in range(warm):
        rows.append(qmap.apply(rows[-1])[0])
    r = [np.abs(b - a).max() for a, b in zip(rows, rows[1:dynamics._FIRST_BLOCK + 1])]
    ratio = (r[-1] / r[0]) ** (1.0 / (len(r) - 1))
    assert math.log(1e-12 / r[-1]) / math.log(ratio) > dynamics._BLOCK_CAP
    starts, newton = [], dynamics._newton

    def spy(x, *args):
        starts.append(x.copy())
        return newton(x, *args)

    monkeypatch.setattr(dynamics, "_newton", spy)
    result = dynamics._solve(WERNER_PROBE, noise, 1e-12, 100_000, handoff=True)
    assert regime_of(result) is Regime.SECURITY and result.converged
    assert [x.tobytes() for x in starts] == [rows[warm].tobytes()]  # the plain row, to the bit
    assert warm < result.iterations <= warm + dynamics._NEWTON_MAX_STEPS


def test_the_budget_warning_names_the_regime_it_returns():
    # the binary probe's fidelity is below 1/2 when the budget runs out
    with pytest.warns(RuntimeWarning, match=r"^no fixpoint within 50 iterations \(residual "
                      r"[0-9.e-]+\); classifying as high-noise$"):
        assert classify_regime(BinaryNoiseModel.uncorrelated(0.6), max_iter=50) is Regime.HIGH_NOISE
    with pytest.warns(RuntimeWarning, match=r"^no fixpoint within 3 iterations .*; "
                      r"classifying as intermediate$"):
        assert classify_regime(tracking_noise(), max_iter=3) is Regime.INTERMEDIATE


def test_the_warning_names_an_annihilation_and_not_the_budget():
    # X on the source pair flips the parity of every Phi+ couple, so the
    # first step keeps nothing
    f = np.zeros((4, 4))
    f[1, 0] = 1.0
    start = embed(BellDiagonalState(np.array([1.0, 0.0, 0.0, 0.0])))
    with pytest.warns(RuntimeWarning) as caught:
        assert classify_regime(NoiseModel(f), start) is Regime.INTERMEDIATE
    assert [str(w.message) for w in caught] == [
        "the ensemble annihilated: keep probability 0.0 at iteration 1; "
        "classifying as intermediate"]


WERNER_PROBE = embed(BellDiagonalState.werner(0.85))


def bell_weights(result):
    return result.state.flat.reshape(4, 4).sum(1)


def test_a_separable_state_settles_the_verdict_as_high_noise():
    # the plain iteration converges after 27 steps; the Bell marginal is
    # separable at the first block end, after 8, and the verdict stops there
    noise = random_channel(np.random.default_rng(0), 0.75)
    plain = iterate_to_fixpoint(WERNER_PROBE, noise)
    assert regime_of(plain) is Regime.HIGH_NOISE and plain.converged
    got = dynamics._solve(WERNER_PROBE, noise, 1e-12, 100_000, handoff=True)
    assert (got.iterations, got.converged) == (8, True) and got.residual > 1e-12
    assert bell_weights(got).max() <= 0.5 - dynamics._SEPARABLE_MARGIN
    assert regime_of(got) is Regime.HIGH_NOISE
    # the state is the plain trajectory's, to the bit
    row = iterate_to_fixpoint(WERNER_PROBE, noise, tol=0.0, max_iter=8)
    assert got.state.flat.tobytes() == row.state.flat.tobytes()
    # settled, so a budget the plain iteration does not converge within
    # gives no warning
    assert not iterate_to_fixpoint(WERNER_PROBE, noise, max_iter=8).converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_regime(noise, max_iter=8) is Regime.HIGH_NOISE


# Golden scan channels (perfbench seed 1, scan 0) whose trajectory sits on a
# slow plateau, leaves a saddle, and falls through a Bell weight of 1/2 to
# F = 1/4 within one block: f00 = 0.85 sample 0 (59 plain steps) and 0.87
# sample 54 (201).
SADDLE_CHANNELS = [
    [0.85, 0.0023058407601378498, 0.005502993716367072, 0.004764602168697659,
     0.021455060299550546, 1.0763253583279783e-05, 0.021954336947362683,
     0.004762535495181235, 0.007544959962110265, 0.014744240794168553,
     0.0030533458558249927, 0.0004180809968390404, 0.02069694714886532,
     0.019030337285705766, 0.019769795554566427, 0.003986159761039317],
    [0.87, 0.0022500499408665787, 0.009327755982956395, 0.0016555659462108028,
     0.0015877496405519945, 0.016208737311067336, 0.02414094920439992,
     0.0059023701593606415, 0.00640660468584541, 0.00288670026466099,
     0.015255691836138818, 0.006913387812100321, 0.014034205137390338,
     0.002695823837862094, 0.019511233374016588, 0.0012231748665717703],
]


@pytest.mark.parametrize("weights", SADDLE_CHANNELS, ids=["0.85", "0.87"])
def test_a_trajectory_that_leaves_a_saddle_is_settled_before_it_converges(weights):
    # the residual grows as the trajectory leaves the saddle, and the Bell
    # weight's fall with it: a block ends at the crossing that growth
    # predicts, not past the convergence
    noise = NoiseModel(np.array(weights).reshape(4, 4))
    plain = iterate_to_fixpoint(WERNER_PROBE, noise, max_iter=30_000)
    assert regime_of(plain) is Regime.HIGH_NOISE and plain.converged
    got = dynamics._solve(WERNER_PROBE, noise, 1e-12, 30_000, handoff=True)
    assert regime_of(got) is Regime.HIGH_NOISE
    assert got.converged and got.residual > 1e-12 and got.iterations < plain.iterations
    assert bell_weights(got).max() <= 0.5 - dynamics._SEPARABLE_MARGIN
    row = iterate_to_fixpoint(WERNER_PROBE, noise, tol=0.0, max_iter=got.iterations)
    assert got.state.flat.tobytes() == row.state.flat.tobytes()  # the plain trajectory's


def test_the_separable_exit_needs_a_channel_that_bounds_the_keep_probability():
    # a bare map carries no channel, and a channel with tr(f)/2 at most the
    # annihilation threshold does not keep every state: both take exactly the
    # plain loop's steps, where the exit would have ended them after 8
    rng = np.random.default_rng(3)
    zero_trace = rng.dirichlet(np.ones(16))
    zero_trace[[0, 5, 10, 15]] = 0.0
    zero_trace /= zero_trace.sum()
    at_threshold = zero_trace.copy()
    at_threshold[[0, 5]] = recurrence.ANNIHILATION_EPS
    high_noise = random_channel(np.random.default_rng(0), 0.75)
    cases = [
        (generate_map(high_noise), generate_map(high_noise)),
        *((NoiseModel(f.reshape(4, 4)),) * 2 for f in (zero_trace, at_threshold)),
    ]
    assert 0.5 * np.trace(cases[2][0].f) <= recurrence.ANNIHILATION_EPS
    for noise_or_map, _ in cases:
        qmap = dynamics._fitting_map(noise_or_map, WERNER_PROBE.flat)
        want = iterate_to_fixpoint(WERNER_PROBE, qmap)
        got = dynamics._solve(WERNER_PROBE, noise_or_map, 1e-12, 100_000, handoff=True)
        assert regime_of(want) is regime_of(got) is Regime.HIGH_NOISE
        assert (got.iterations, got.converged, got.residual) == (
            want.iterations, want.converged, want.residual)
        assert got.state.flat.tobytes() == want.state.flat.tobytes()
        forced = dynamics._iterate_array(
            WERNER_PROBE.flat, qmap, 1e-12, 100_000, True, handoff=True)
        assert forced[1] == 8 < want.iterations


def test_the_golden_scan_verdicts_are_the_plain_iterations():
    # perfbench's golden seed 0, scan 0: 2,100 channels, as the full sweep
    # replays them
    import verdict_sweep

    with open(verdict_sweep.GOLDEN_SCAN) as fh:
        golden = json.load(fh)
    _, _, tally, counts, differ = verdict_sweep.sweep(
        0, 0, golden["f00_grid"], golden["samples"], golden["max_iter"]
    )
    assert differ == [] and tally["differ"] == 0
    assert counts == golden["counts"]["0"][0]
    assert tally["certified"] >= 1
    assert tally["gate_norm"] >= 1  # a norm bound decided a hand-off gate


def test_regime_scan_extremes():
    assert regime_scan(1.0, 16, seed=3)[Regime.SECURITY] == 1.0
    assert regime_scan(0.5, 16, seed=3)[Regime.HIGH_NOISE] == 1.0
    with pytest.raises(ValueError):
        regime_scan(1.2, 4, seed=0)
    with pytest.raises(ValueError, match="samples"):
        regime_scan(0.9, 0, seed=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            regime_scan(0.9, 4, seed=seed)


def test_regime_scan_security_fraction_monotone():
    grid = np.linspace(0.5, 1.0, 20)
    fracs = [regime_scan(float(f), 24, seed=11)[Regime.SECURITY] for f in grid]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[0] == 0.0 and fracs[-1] == 1.0


def test_regime_scan_deterministic_in_seed():
    one = regime_scan(0.85, 32, seed=42)
    two = regime_scan(0.85, 32, seed=42)
    assert one == two


@pytest.mark.parametrize("f0", [0.76, 0.9])
def test_binary_noise_on_a_flagged_state_runs_the_16_cell_map(f0):
    # a binary channel steps a flagged state with generate_map's map of it
    noise = BinaryNoiseModel.uncorrelated(f0)
    qmap = generate_map(noise)
    flagged = embed(BellDiagonalState.werner(0.85))
    one, two = iterate_to_fixpoint(flagged, noise), iterate_to_fixpoint(flagged, qmap)
    assert (one.iterations, one.converged, one.residual) == (two.iterations, two.converged,
                                                             two.residual)
    assert np.array_equal(one.state.flat, two.state.flat)
    assert classify_regime(noise, flagged) is classify_regime(qmap, flagged)
    assert secure_by_stability(noise, flagged) == secure_by_stability(qmap, flagged)
    assert secure_by_stability(noise, flagged) == secure_by_stability(noise)


def test_the_engine_needs_a_flagged_start():
    # the engine rejects a plain Bell-diagonal state in one place, naming embed
    qmap, plain = noiseless_map(), BellDiagonalState.werner(0.85)
    for solve in (
        lambda: iterate_to_fixpoint(plain, qmap),
        lambda: classify_regime(qmap, plain),
        lambda: secure_by_stability(qmap, plain),
    ):
        with pytest.raises(TypeError, match=r"got BellDiagonalState; use embed\(\)"):
            solve()


# --- square-root fit -----------------------------------------------------------------


def test_fit_recovers_synthetic_model():
    xs = np.linspace(0.755, 0.77, 9)
    pts = [(x, 0.5 + 3.4 * np.sqrt(x - 0.75)) for x in xs]
    c0, c1, x0 = fit_intermediate(pts)
    assert c0 == pytest.approx(0.5, abs=1e-6)
    assert c1 == pytest.approx(3.4, abs=1e-6)
    assert x0 == pytest.approx(0.75, abs=1e-6)


def test_fit_on_computed_intermediate_fixpoints():
    pts = []
    for f0 in np.linspace(0.7515, 0.7710, 12):
        r = iterate_to_fixpoint(
            binary_probe(), BinaryNoiseModel.uncorrelated(float(f0)), max_iter=500_000
        )
        pts.append((float(f0), r.conditional_fidelity))
    c0, c1, x0 = fit_intermediate(pts)
    assert c1 == pytest.approx(3.4, abs=0.34)
    assert c0 == pytest.approx(0.5, abs=0.02)
    assert x0 == pytest.approx(0.75, abs=0.002)


def test_fit_needs_five_points():
    with pytest.raises(ValueError, match="at least 5"):
        fit_intermediate([(0.76, 0.8), (0.77, 0.9)])


@pytest.mark.parametrize("shape", [(6, 3), (6, 1), (12,), (3, 6, 2)])
def test_fit_takes_f0_f_cond_pairs_only(shape):
    # a third column is no F_cond to drop silently
    with pytest.raises(ValueError, match=re.escape(f"of shape (n, 2), got shape {shape}")):
        fit_intermediate(np.full(shape, 0.8))


def test_fit_rejects_non_finite_points():
    pts = [(0.76 + 0.001 * k, 0.8) for k in range(5)]
    pts[2] = (0.762, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        fit_intermediate(pts)


def fresh_python(code):
    """Run code in a new interpreter that imports this checkout's eppsim."""
    src = Path(eppsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_import_does_not_load_scipy():
    # the library and its console entry point alike
    for module in ("eppsim", "eppsim.cli"):
        code = f"import {module}, sys; sys.exit('scipy' in sys.modules)"
        assert fresh_python(code).returncode == 0, module


def test_import_builds_the_routes_from_the_circuit_table():
    # the route tables are scattered from NOISY_CIRCUIT, which comes from
    # CIRCUIT (32 epp_unitary calls: 16 on the Bell pairs, 16 through
    # flag_update on the flag pairs), not from routing all 4096 terms through
    # bellbits, and the noisy circuit is tabulated once, for the map and the
    # Monte Carlo alike
    code = (
        "import collections, sys, numpy\n"
        "calls = collections.Counter()\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        calls[frame.f_code.co_name] += 1\n"
        "sys.setprofile(count)\n"
        "import eppsim\n"
        "sys.setprofile(None)\n"
        "print(calls['epp_unitary'], calls['noisy_circuit'])\n"
    )
    out = fresh_python(code)
    assert out.returncode == 0, out.stderr
    unitary, noisy = map(int, out.stdout.split())
    assert unitary <= 256
    assert noisy == 1


# --- convergence slowdown near criticality --------------------------------------------


def test_iteration_count_diverges_near_critical():
    def iterations(f0):
        r = iterate_to_fixpoint(
            binary_probe(),
            BinaryNoiseModel.uncorrelated(f0),
            tol=1e-12,
            max_iter=200_000,
        )
        assert r.converged
        return r.iterations

    near = min(iterations(BINARY_CRITICAL - 1e-3), iterations(BINARY_CRITICAL + 1e-3))
    far = iterations(0.9)
    assert near > far  # strictly slower at the boundary
    assert near >= 10 * far


# --- input checks and branches no other test reaches ---------------------------------


def fit_of_falling_data():
    # F_cond falls with f0, so the least-squares slope is negative at every
    # onset and the fit clips it to zero, leaving the mean
    x = np.linspace(0.76, 0.77, 8)
    y = 0.9 - 0.5 * np.sqrt(x - 0.75)
    c0, c1, _ = fit_intermediate(np.column_stack([x, y]))
    assert (c0, c1) == (y.mean(), 0.0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: BinaryNoiseModel.uncorrelated(1.5), ValueError, "outside"),
        (lambda: binary_fixpoint_analytic(1.01), ValueError, "> 1"),
        (lambda: product(np.ones(3) / 3, np.ones(4) / 4), ValueError, "length-4"),
        (lambda: matrixoracle.twirl(np.eye(2) / 2), ValueError, "shape"),
        (lambda: jacobian(
            binary_quadratic_map(BinaryNoiseModel(0, 1, 0, 0)), np.array([1.0, 0, 0, 0])),
         EnsembleAnnihilated, "keep probability"),
        (fit_of_falling_data, None, None),
    ],
    ids=["uncorrelated", "binary_fixpoint_analytic", "product", "twirl", "jacobian",
         "fit_intermediate"],
)
def test_an_input_check_or_branch_no_other_test_reaches(call, error, match):
    if error is None:
        call()
        return
    with pytest.raises(error, match=match):
        call()
