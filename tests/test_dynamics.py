import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eppsim
from eppsim import dynamics, recurrence
from eppsim.dynamics import (
    Regime,
    binary_family,
    binary_fixpoint_analytic,
    classify_regime,
    find_critical,
    fit_intermediate,
    iterate_to_fixpoint,
    jacobian,
    purification_curve,
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
    general,
    one_qubit_white,
    product,
)
from eppsim.recurrence import (
    BellDiagonalState,
    BinaryFlaggedState,
    FlaggedEnsembleState,
    binary_quadratic_map,
    binary_step,
    embed,
    generate_map,
)

BINARY_CRITICAL = 0.77184451


def tracking_noise():
    f = np.full((4, 4), 0.0020968)
    f[0, :] = 0.0113896
    f[:, 0] = 0.0113896
    f[0, 0] = 0.91279120
    return general(f)


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


def test_iterate_dimension_mismatch():
    with pytest.raises(ValueError, match="variables"):
        iterate_to_fixpoint(binary_probe(), generate_map(tracking_noise()))


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


@pytest.mark.parametrize("f0", [0.70, 0.75, 0.76, 0.7718, 0.78, 0.8, 0.9, 1.0])
def test_scalar_binary_loop_agrees_with_the_array_loop(f0, monkeypatch):
    # a binary state with a binary channel runs the scalar loop, and the same
    # state with the channel's 4-variable map runs the array loop
    noise = BinaryNoiseModel.uncorrelated(f0)
    qmap = binary_quadratic_map(noise)
    builds = []

    def counting_generate_map(channel):
        builds.append(channel)
        return generate_map(channel)

    monkeypatch.setattr(dynamics, "generate_map", counting_generate_map)
    monkeypatch.setattr(recurrence, "generate_map", counting_generate_map)
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
        qm = generate_map(general(rng.dirichlet(np.ones(16))))
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


def test_find_critical_halvings():
    with pytest.raises(ValueError, match="halvings = -2 < 0"):
        find_critical(binary_family, (0.76, 0.85), halvings=-2)
    assert find_critical(binary_family, (0.76, 0.85), halvings=0) == 0.5 * (0.76 + 0.85)


def test_find_critical_stops_when_the_interval_is_exhausted():
    calls = []

    def family(f0):
        calls.append(f0)
        return binary_family(f0)

    at_60 = find_critical(binary_family, (0.75, 0.85), halvings=60)
    assert find_critical(family, (0.75, 0.85), halvings=200) == at_60
    assert len(calls) <= 64


def test_find_critical_that_only_bisects_makes_halvings_probes():
    # the margin stays undefined at 0.88, so this search only bisects; its
    # rounded midpoints leave the width a few ulps above (0.92 - 0.88) / 16
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
    qmap, cells, _, (x, iterations, converged, residual) = dynamics._secure_fixpoint(
        noise, start, tol, max_iter
    )
    full = np.zeros(qmap.dim)
    full[cells] = x
    _, wrap = dynamics._vector_of(start)
    return dynamics.FixpointResult(wrap(full), iterations, converged, residual)


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


def test_secure_fixpoint_budget_counts_every_step():
    noise, probe = binary_family(0.75)
    warm = dynamics._NEWTON_WARM_START
    for budget in (1, warm // 2, warm, warm + 5):
        r = secure_fixpoint(noise, probe, tol=1e-12, max_iter=budget)
        assert (r.iterations, r.converged) == (budget, False)


@pytest.mark.parametrize("family", [binary_family, white_noise_family])
def test_negative_budget_is_an_error(family):
    noise, probe = family(0.8)
    with pytest.raises(ValueError, match="max_iter = -1 < 0"):
        iterate_to_fixpoint(probe, noise, max_iter=-1)
    with pytest.raises(ValueError, match="max_iter = -1 < 0"):
        secure_fixpoint(noise, probe, tol=1e-12, max_iter=-1)
    r = secure_fixpoint(noise, probe, tol=1e-12, max_iter=0)
    assert (r.iterations, r.converged) == (0, False)


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
        got = dynamics._stability_margin(noise, probe, 1e-12, dynamics.CRITICAL_MAX_ITER)
        want = reference_margin(noise, probe)
        assert (got is None) == (want is None), param
        if got is None:
            continue
        assert (got < 0.0) == (want < 0.0), param
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


# --- the basin check's limit, solved by Newton's method -----------------------------


def basin_limit(noise, start, max_iter=dynamics.CRITICAL_MAX_ITER):
    """The solve of ``find_critical``'s basin check: every cell free."""
    return dynamics._solve(start, noise, 1e-12, max_iter, newton=True)


def ends_secure(result):
    return regime_of(result) is Regime.SECURITY


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
    r = basin_limit(*binary_family(0.75))
    assert r.iterations <= dynamics._NEWTON_WARM_START + dynamics._NEWTON_MAX_STEPS
    assert r.converged and not ends_secure(r)


@pytest.mark.parametrize("family, f0", [(binary_family, 0.7719), (white_noise_family, 0.8988)])
def test_basin_limit_at_a_secure_end_near_the_boundary_is_decided_by_newton(family, f0):
    # the limit's cells with flag other than Bell index are zero, and Newton
    # overshoots them; clipped to zero, its points are kept, where the plain
    # iteration takes thousands of steps (19,421 and 2,895)
    r = basin_limit(*family(f0))
    assert r.iterations <= dynamics._NEWTON_WARM_START + dynamics._NEWTON_MAX_STEPS
    assert r.converged and ends_secure(r)


def test_critical_searches_take_few_solve_steps():
    # a deterministic cost guard: the solve steps, plain and Newton, summed
    # over every solve of a search (about 5,000 each with a 200-step warm
    # start and negative Newton points replaced by plain steps), and the
    # family calls, one per probe (26, 42 and 42 when the search bisected;
    # 15, 11 and 17 with Illinois' halving in place of Anderson-Bjorck's
    # factor)
    spent, calls = [], []
    original = dynamics._newton_fixpoint

    def counted(*args):
        result = original(*args)
        spent.append(result[1])
        return result

    def probed(family):
        def call(f0):
            calls.append(f0)
            return family(f0)
        return call

    searches = [
        (lambda: find_critical(
            probed(white_noise_family), (0.88, 0.92), halvings=24, max_iter=30_000), 14),
        (lambda: find_critical(probed(binary_family), (0.75, 0.85)), 10),
        (lambda: find_critical(probed(white_noise_family), (0.88, 0.92)), 15),  # CLI default
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_newton_fixpoint", counted)
        for search, most_calls in searches:
            spent.clear()
            calls.clear()
            search()
            assert 0 < sum(spent) <= 2_000
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


# --- purification curve -------------------------------------------------------------


def test_noiseless_curve_lies_above_diagonal():
    segs = purification_curve(BinaryNoiseModel.uncorrelated(1.0), n_max=10)
    pts = np.vstack(segs)
    inside = pts[(pts[:, 0] > 0.5 + 1e-9) & (pts[:, 0] < 1.0 - 1e-9)]
    assert (inside[:, 1] > inside[:, 0]).all()


def test_curve_slope_at_fixpoint_near_critical():
    # marginally above the boundary the return map is tangent to the diagonal
    segs = purification_curve(
        BinaryNoiseModel.uncorrelated(BINARY_CRITICAL), n_max=3000, segment_points=8
    )
    pts = np.vstack(segs)
    tail = pts[-5:]
    slope = (np.diff(tail[:, 1]) / np.diff(tail[:, 0])).mean()
    assert slope == pytest.approx(1.0, abs=1e-3)

    segs = purification_curve(
        BinaryNoiseModel.uncorrelated(BINARY_CRITICAL + 0.002), n_max=600, segment_points=8
    )
    pts = np.vstack(segs)
    tail = pts[-5:]
    slope = (np.diff(tail[:, 1]) / np.diff(tail[:, 0])).mean()
    assert slope < 1.0 - 1e-4
    assert pts[-1, 0] > 1.0 - 1e-5  # the curve actually reaches the fixpoint


def test_curve_crosses_diagonal_at_interior_attractor():
    noise = BinaryNoiseModel.uncorrelated(0.76)
    attractor = iterate_to_fixpoint(binary_probe(), noise).conditional_fidelity
    assert 0.5 < attractor < 1.0 - 1e-9

    # from the standard seed the curve stays above the diagonal and ends there
    rising = np.vstack(purification_curve(noise, n_max=400))
    assert (rising[:, 1] >= rising[:, 0] - 1e-12).all()
    assert rising[-1, 0] == pytest.approx(attractor, abs=1e-6)

    # seeding near the (unstable) fully-correlated fixpoint produces a branch
    # that dips below the diagonal and crosses it at the interior attractor
    fp = binary_fixpoint_analytic(0.76).as_array
    start = BinaryFlaggedState(*(0.9 * fp + 0.1 * np.full(4, 0.25)))
    upper = np.vstack(purification_curve(noise, n_max=400, start=start))
    gap = upper[:, 1] - upper[:, 0]
    assert gap.min() < -1e-3
    flips = np.where(np.diff(np.sign(gap)) != 0)[0]
    assert np.abs(upper[flips, 0] - attractor).min() < 0.01
    assert upper[-1, 0] == pytest.approx(attractor, abs=1e-4)


def test_curve_on_full_model():
    segs = purification_curve(tracking_noise(), n_max=12, segment_points=8)
    pts = np.vstack(segs)
    assert pts[-1, 1] > 0.999  # security regime: heads for unit conditional fidelity


@pytest.mark.parametrize(
    "noise, kwargs, message",
    [
        (tracking_noise(), dict(start=binary_probe()), "4 variables but map has 16"),
        (binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.8)), {},
         "16 variables but map has 4"),
        (tracking_noise(), dict(n_max=-1), "n_max = -1 < 0"),
        (tracking_noise(), dict(segment_points=0), "segment_points = 0 < 1"),
    ],
    ids=["binary-start-full-noise", "binary-map-no-start", "negative-n_max",
         "no-segment-points"],
)
def test_curve_input_checks(noise, kwargs, message):
    kwargs = {"n_max": 3, **kwargs}
    with pytest.raises(ValueError, match=message):
        purification_curve(noise, **kwargs)


@pytest.mark.parametrize("f0", [0.76, 0.9])
def test_binary_noise_on_a_flagged_state_runs_the_16_cell_map(f0):
    # a binary channel steps a flagged state with generate_map's map of it
    noise = BinaryNoiseModel.uncorrelated(f0)
    qmap = generate_map(noise)
    flagged = embed(BellDiagonalState.werner(0.85))
    curve = purification_curve(noise, 3, start=flagged)
    assert all(np.array_equal(a, b) for a, b in zip(
        curve, purification_curve(qmap, 3, start=flagged), strict=True))
    one, two = iterate_to_fixpoint(flagged, noise), iterate_to_fixpoint(flagged, qmap)
    assert (one.iterations, one.converged, one.residual) == (two.iterations, two.converged,
                                                             two.residual)
    assert np.array_equal(one.state.flat, two.state.flat)
    assert classify_regime(noise, flagged) is classify_regime(qmap, flagged)
    assert secure_by_stability(noise, flagged) == secure_by_stability(qmap, flagged)
    assert secure_by_stability(noise, flagged) == secure_by_stability(noise)


def test_curve_needs_a_flagged_start():
    # the engine rejects a plain Bell-diagonal state in one place, naming embed
    qmap, plain = noiseless_map(), BellDiagonalState.werner(0.85)
    for solve in (
        lambda: iterate_to_fixpoint(plain, qmap),
        lambda: classify_regime(qmap, plain),
        lambda: secure_by_stability(qmap, plain),
        lambda: purification_curve(qmap, 3, start=plain),
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
    code = "import eppsim, sys; sys.exit('scipy' in sys.modules)"
    assert fresh_python(code).returncode == 0


def test_import_builds_the_routes_from_the_circuit_table():
    # the route table comes from CIRCUIT (256 circuit compositions), not from
    # routing all 4096 terms through bellbits, and the noisy circuit is
    # tabulated once, for the map and the Monte Carlo alike
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
