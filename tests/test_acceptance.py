"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from eppsim.bellbits import (
    ALL_BELLS,
    ALL_PAULIS,
    FlagPair,
    epp_with_errors,
    error_corrector,
    flag_update,
)
from eppsim.dynamics import (
    Regime,
    binary_family,
    binary_fixpoint_analytic,
    classify_regime,
    find_critical,
    fit_intermediate,
    iterate_to_fixpoint,
)
from eppsim.matrixoracle import (
    circuit_matrix,
    error_operator,
    phase_free_equal,
    two_pair_vector,
)
from eppsim.montecarlo import MCConfig, analytic_trajectory, resources, run as mc_run
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
    embed,
)

from route_reference import routed_terms

BINARY_CRITICAL = 0.77184451


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {number:02d} {name}: {status}{suffix}", flush=True)


def showcase_noise():
    f = np.full((4, 4), 0.003712)
    f[0, :] = 0.021131
    f[:, 0] = 0.021131
    f[0, 0] = 0.83981
    return NoiseModel(f)


def tracking_noise():
    f = np.full((4, 4), 0.0020968)
    f[0, :] = 0.0113896
    f[:, 0] = 0.0113896
    f[0, 0] = 0.91279120
    return NoiseModel(f)


def test_criterion_01_bit_algebra_vs_dense_oracle():
    t0 = time.perf_counter()
    epp = circuit_matrix("epp")
    vecs = {
        (s, t): two_pair_vector(s, t)
        for s, t in itertools.product(ALL_BELLS, repeat=2)
    }
    epp_vecs = {k: epp @ v for k, v in vecs.items()}
    mismatches = 0
    for e_src, e_tgt in itertools.product(ALL_PAULIS, repeat=2):
        after_err = epp @ error_operator(e_src, e_tgt)
        corr = error_operator(*error_corrector(e_src, e_tgt))
        for (src, tgt), v in vecs.items():
            got = after_err @ v
            want = two_pair_vector(*epp_with_errors(src, tgt, e_src, e_tgt))
            if not phase_free_equal(got, want):
                mismatches += 1
            if not phase_free_equal(epp_vecs[(src, tgt)], corr @ got):
                mismatches += 1
        del corr
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    report(1, "bit algebra vs dense oracle (16x16x16)", ok,
           f"{mismatches} mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 1.0


def _exact_unit_matrices(mu, nu, cells=None):
    dim = 16 if cells is None else len(cells)
    out = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for s, t, m, n, o in routed_terms():
        if (m, n) != (mu, nu) or o is None:
            continue
        if cells is None:
            out[o][s][t] += 1
        elif s in cells and t in cells:
            assert o in cells
            out[cells[o]][cells[s]][cells[t]] += 1
    return [
        [[(m[r][c] + m[c][r]) / 2 for c in range(dim)] for r in range(dim)] for m in out
    ]


def _form(dim, entries):
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), coeff in entries.items():
        c = Fraction(coeff)
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += c / 2
            m[j][i] += c / 2
    return m


def test_criterion_02_noiseless_map_recovery():
    t0 = time.perf_counter()
    unit = _exact_unit_matrices(0, 0)
    flag0 = [4 * b for b in range(4)]
    a, c, d, b = range(4)
    want = {
        a: _form(4, {(a, a): 1, (b, b): 1}),
        c: _form(4, {(c, c): 1, (d, d): 1}),
        d: _form(4, {(a, b): 2}),
        b: _form(4, {(c, d): 2}),
    }
    ok = True
    for out_bell in range(4):
        got = [
            [sum(unit[4 * out_bell + of][r][cc] for of in range(4)) for cc in flag0]
            for r in flag0
        ]
        ok &= got == want[out_bell]
    for out_cell in range(16):
        if out_cell % 4:
            ok &= all(unit[out_cell][r][cc] == 0 for r in flag0 for cc in flag0)
    elapsed = time.perf_counter() - t0
    report(2, "noiseless map == ideal quadratic forms (exact)", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_binary_recurrence_recovery():
    t0 = time.perf_counter()
    cells = {0: 0, 1: 1, 4: 2, 5: 3}
    a0, a1, b0, b1 = range(4)
    flip = [
        _form(4, {(a0, b1): 1, (a1, b1): 1, (a0, b0): 1}),
        _form(4, {(a1, b0): 1}),
        _form(4, {(b0, a1): 1, (b1, a1): 1, (b0, a0): 1}),
        _form(4, {(b1, a0): 1}),
    ]
    want = {
        (0, 0): [
            _form(4, {(a0, a0): 1, (a0, a1): 2}),
            _form(4, {(a1, a1): 1}),
            _form(4, {(b0, b0): 1, (b0, b1): 2}),
            _form(4, {(b1, b1): 1}),
        ],
        (1, 1): [
            _form(4, {(b1, b1): 1, (b0, b1): 2}),
            _form(4, {(b0, b0): 1}),
            _form(4, {(a1, a1): 1, (a0, a1): 2}),
            _form(4, {(a0, a0): 1}),
        ],
        (0, 1): flip,
        (1, 0): flip,
    }
    keep_same = _form(4, {(a0, a0): 1, (a0, a1): 2, (a1, a1): 1,
                          (b0, b0): 1, (b0, b1): 2, (b1, b1): 1})
    keep_cross = _form(4, {(a0, b0): 2, (a0, b1): 2, (a1, b0): 2, (a1, b1): 2})
    ok = True
    for mu, nu in itertools.product((0, 1), repeat=2):
        got = _exact_unit_matrices(mu, nu, cells=cells)
        ok &= got == want[(mu, nu)]
        total = [[sum(got[j][r][c] for j in range(4)) for c in range(4)] for r in range(4)]
        ok &= total == (keep_same if mu == nu else keep_cross)
    elapsed = time.perf_counter() - t0
    report(3, "binary reduction == binary recurrence (exact, incl. keep)", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_04_flag_update_table():
    table = {
        (0, 0): {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 0)},
        (0, 1): {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (0, 0)},
        (1, 0): {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 1), (1, 1): (0, 0)},
        (1, 1): {(0, 0): (1, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 0)},
    }
    bad = [
        (fs, ft)
        for fs, row in table.items()
        for ft, expect in row.items()
        if tuple(flag_update(FlagPair(*fs), FlagPair(*ft))) != expect
    ]
    report(4, "flag update table (16 entries)", not bad, f"{len(bad)} wrong")
    assert not bad


def test_criterion_05_binary_critical_point():
    t0 = time.perf_counter()
    crit = find_critical(binary_family, (0.75, 0.85))
    elapsed = time.perf_counter() - t0
    ok = abs(crit - BINARY_CRITICAL) <= 5e-6 and elapsed < 10.0
    report(5, "binary critical noise by a root solve on rho - 1", ok,
           f"{crit:.8f} vs {BINARY_CRITICAL} ({elapsed:.1f}s)")
    assert crit == pytest.approx(BINARY_CRITICAL, abs=5e-6)
    assert elapsed < 10.0


def test_criterion_06_binary_fixpoint_formula():
    worst = 0.0
    for f0 in (0.78, 0.8, 0.9, 1.0):
        fp = binary_fixpoint_analytic(f0)
        r = iterate_to_fixpoint(
            BinaryFlaggedState(0.85, 0, 0.15, 0),
            BinaryNoiseModel.uncorrelated(f0),
            tol=1e-14,
            max_iter=10**6,
        )
        worst = max(worst, np.abs(r.state.as_array - fp.as_array).max())
    exact_noiseless = binary_fixpoint_analytic(1.0)
    exact_ok = (exact_noiseless.a0, exact_noiseless.a1,
                exact_noiseless.b0, exact_noiseless.b1) == (1.0, 0.0, 0.0, 0.0)
    ok = worst <= 1e-10 and exact_ok
    report(6, "analytic binary fixpoint vs iteration", ok, f"worst diff {worst:.2e}")
    assert worst <= 1e-10
    assert exact_ok


def test_criterion_07_intermediate_regime_fit():
    pts = []
    for f0 in np.linspace(0.7515, 0.7710, 12):
        r = iterate_to_fixpoint(
            BinaryFlaggedState(0.85, 0, 0.15, 0),
            BinaryNoiseModel.uncorrelated(float(f0)),
            max_iter=500_000,
        )
        pts.append((float(f0), r.conditional_fidelity))
    c0, c1, x0 = fit_intermediate(pts)
    ok = abs(c1 - 3.4) <= 0.34
    report(7, "square-root fit of the intermediate regime", ok,
           f"c0={c0:.4f} c1={c1:.4f} x0={x0:.5f}")
    assert c1 == pytest.approx(3.4, abs=0.34)


def test_criterion_08_white_noise_brackets():
    t0 = time.perf_counter()

    def white(f0):
        w = one_qubit_white(f0)
        return product(w, w)

    secure = classify_regime(white(0.90))
    edge = classify_regime(white(0.8983))
    elapsed = time.perf_counter() - t0
    ok = secure is Regime.SECURITY and edge is not Regime.SECURITY and elapsed < 60.0
    report(8, "white-noise security bracket", ok,
           f"f0=0.90 -> {secure.value}, f0=0.8983 -> {edge.value} ({elapsed:.1f}s)")
    assert secure is Regime.SECURITY
    assert edge is not Regime.SECURITY
    assert elapsed < 60.0


def test_criterion_09_fixpoint_state_flag_correlation():
    r = iterate_to_fixpoint(
        embed(BellDiagonalState.werner(0.70)), showcase_noise(), tol=1e-12, max_iter=200_000
    )
    off = r.state.off_diagonal_mass()
    ok = r.converged and off < 1e-9 and r.fidelity < 1.0 and r.conditional_fidelity > 1 - 1e-9
    report(9, "fixpoint is perfectly state/flag correlated", ok,
           f"off-diagonal {off:.1e}, F_max {r.fidelity:.6f}")
    assert r.converged
    assert off < 1e-9
    assert r.fidelity < 1.0
    assert r.conditional_fidelity > 1 - 1e-9


def test_criterion_10_monte_carlo_vs_analytic():
    t0 = time.perf_counter()
    config = MCConfig(10**6, BellDiagonalState.werner(0.85), tracking_noise(), 8, seed=1)
    stats = mc_run(config)
    again = mc_run(config)
    deterministic = all(
        a.pairs_remaining == b.pairs_remaining and np.array_equal(a.cells, b.cells)
        for a, b in zip(stats, again)
    )
    traj = analytic_trajectory(config.noise, config.initial, config.rounds)
    worst_z = 0.0
    for st in stats:
        state, _ = traj[st.round]
        for got, want in (
            (st.f_hat, state.fidelity),
            (st.f_cond_hat, state.conditional_fidelity),
        ):
            sigma = np.sqrt(max(want * (1 - want), 1e-12) / st.pairs_remaining)
            worst_z = max(worst_z, abs(got - want) / sigma)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and deterministic and elapsed < 60.0
    report(10, "Monte Carlo tracks the recurrence (1e6 pairs, 8 rounds)", ok,
           f"worst |z| = {worst_z:.2f}, {elapsed:.1f}s")
    assert deterministic
    assert worst_z <= 4.0
    assert elapsed < 60.0


APPARATUS_SETTINGS = [(0.9333, 0.9466), (0.9733, 0.9786), (0.9866, 0.9833), (0.9933, 0.9946)]


def test_criterion_11_resource_scaling():
    """Known shortfall: the cleanest apparatus setting has only four
    purification rounds inside the window and its convergence carries an
    alternating subdominant mode, so its R^2 lands near 0.978 < 0.99.  The
    criterion is asserted as stated rather than weakened."""
    initial = BellDiagonalState.werner(0.85)
    r2s, curves = [], []
    for p1, p2 in APPARATUS_SETTINGS:
        noise = from_p1_p2(p1, p2)
        traj = analytic_trajectory(noise, initial, 80)
        cost, pts = 1.0, []
        for r in range(1, len(traj)):
            state, keep = traj[r]
            cost *= 2.0 / keep
            eps = 1.0 - state.conditional_fidelity
            if 1e-4 <= eps <= 1e-1:
                pts.append((eps, cost))
            if eps < 1e-6:
                break
        pts = np.array(pts)
        x, y = np.log(pts[:, 0]), np.log(pts[:, 1])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        r2s.append(1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean())))
        curves.append(pts)

    ordered = True
    for eps0 in (1e-2, 1e-3):
        ns = [
            np.exp(np.interp(np.log(eps0), np.log(c[:, 0])[::-1], np.log(c[:, 1])[::-1]))
            for c in curves
        ]
        ordered &= all(a > b for a, b in zip(ns, ns[1:]))

    ok = all(r2 > 0.99 for r2 in r2s) and ordered
    report(11, "resource scaling: log-log linearity and noise ordering", ok,
           "R^2 = " + ", ".join(f"{r2:.4f}" for r2 in r2s) + f"; ordered = {ordered}")
    assert ordered
    assert all(r2 > 0.99 for r2 in r2s), (
        "R^2 by setting: "
        + ", ".join(f"{s}: {r2:.4f}" for s, r2 in zip(APPARATUS_SETTINGS, r2s))
        + " -- the cleanest setting has only 4 in-window rounds and an "
        "alternating subdominant convergence mode (verified via the fixpoint "
        "Jacobian), so its log-log curve genuinely carries ~2% curvature here"
    )


def test_criterion_12_critical_slowdown():
    def iterations(f0):
        r = iterate_to_fixpoint(
            BinaryFlaggedState(0.85, 0, 0.15, 0),
            BinaryNoiseModel.uncorrelated(f0),
            tol=1e-12,
            max_iter=200_000,
        )
        return r.iterations

    near = min(iterations(BINARY_CRITICAL - 1e-3), iterations(BINARY_CRITICAL + 1e-3))
    far = iterations(0.9)
    ok = near >= 10 * far
    report(12, "convergence slows >= 10x near the critical point", ok,
           f"{near} vs {far} iterations")
    assert near >= 10 * far
