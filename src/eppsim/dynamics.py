"""Fixpoint iteration, stability analysis, critical-noise search, regimes.

The distillation dynamics has three regimes of noise strength.  With strong
noise the protocol cannot purify and the fidelity decays to 1/4.  With weak
noise it purifies *and* the conditional fidelity (fidelity given the error
flags) converges to one, so the flags carry full information about the
surviving pairs -- the security regime.  In a narrow window in between, the
protocol purifies but the conditional fidelity stalls below one.

The cells whose flag equals the Bell index span a subspace that the step
maps into itself for every channel: a Pauli error flips the Bell bits and
the flag bits alike.  Its fixpoint is the secure one, and the security
regime is where that fixpoint purifies and attracts.  The boundary of the
regime is therefore a root of the stability margin rho - 1, the spectral
radius of the step's Jacobian at the secure fixpoint less one, and a
critical search finds it by a bracketed regula-falsi solve (with
Anderson-Bjorck's scaling of a twice-kept end) after bisecting the verdict
until the margin is defined at both ends.  Each probe projects the start
onto the subspace and restricts the map to it once, which is exact as the
step never leaves it: four unknowns for a 16-cell state, two for a binary
one.  On raw weight vectors of that restricted map, the secure fixpoint is
solved for by Newton's method after a short plain warm start, in tens of
steps even where the plain iteration converges only algebraically, and is
polished to rounding level; the margin is then measured once, on the whole
map's Jacobian.  The limits that the basin checks of a critical search
take for the start state go through the plain iteration's body to the
same Newton solve on the whole map, with every cell free.
Convergence times of the plain iteration diverge at the boundary, much like
a phase transition.  Every solve runs on flagged states, 16-cell or binary;
a Bell-diagonal state enters through ``embed``, noiseless or not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .noisemodels import BinaryNoiseModel, NoiseModel, one_qubit_white, product
from .recurrence import (
    ANNIHILATION_EPS,
    BellDiagonalState,
    BinaryFlaggedState,
    EnsembleAnnihilated,
    FlaggedEnsembleState,
    QuadraticMap,
    binary_quadratic_map,
    binary_step_raw,
    embed,
    generate_map,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
#: Budget of a critical search's stability solves and basin checks.  Both
#: are Newton solves after a 30-step plain warm start and take tens of
#: steps, even at the binary family's purification threshold f0 = 3/4,
#: where the plain iteration converges only algebraically and would use it
#: all up.  Only a solve whose Newton phase does not converge falls back to
#: plain steps and spends more of it.
CRITICAL_MAX_ITER = 500_000
#: Budget of each random channel's classification in a regime scan; a
#: channel that has not converged within it counts as intermediate.
SCAN_MAX_ITER = 30_000

#: Probe ensemble for classification and critical searches.
PROBE_FIDELITY = 0.85
#: The probe as a flagged Werner state and as a binary state.  States are
#: immutable, so every caller can share these.
_WERNER_PROBE = embed(BellDiagonalState.werner(PROBE_FIDELITY))
_BINARY_PROBE = BinaryFlaggedState(PROBE_FIDELITY, 0.0, 1.0 - PROBE_FIDELITY, 0.0)

#: Fuzz on the regime thresholds: boundary fixpoints are approached from
#: above at finite tol.
REGIME_FUZZ = 1e-6


class Regime(Enum):
    HIGH_NOISE = "high-noise"
    INTERMEDIATE = "intermediate"
    SECURITY = "security"


@dataclass(frozen=True)
class FixpointResult:
    state: FlaggedEnsembleState | BinaryFlaggedState
    iterations: int
    converged: bool
    residual: float
    failure: str | None = None

    @property
    def fidelity(self) -> float:
        return self.state.fidelity

    @property
    def conditional_fidelity(self) -> float:
        return self.state.conditional_fidelity


def _fitting_map(noise_or_map, a: np.ndarray) -> QuadraticMap:
    """The map of ``noise_or_map`` on states of ``a``'s size.

    A binary channel has two: ``generate_map``'s 16-cell map for a flagged
    state, and that map's slice to the binary cells for a binary one
    (``binary_quadratic_map``).  Raises TypeError
    for anything but a map or a noise model, and ValueError unless the map
    fits ``a``.
    """
    if isinstance(noise_or_map, QuadraticMap):
        qmap = noise_or_map
    elif isinstance(noise_or_map, BinaryNoiseModel) and a.shape[0] != 16:
        qmap = binary_quadratic_map(noise_or_map)
    elif isinstance(noise_or_map, (NoiseModel, BinaryNoiseModel)):
        qmap = generate_map(noise_or_map)
    else:
        raise TypeError(f"expected a QuadraticMap or noise model, got {type(noise_or_map)!r}")
    if qmap.dim != a.shape[0]:
        raise ValueError(f"state has {a.shape[0]} variables but map has {qmap.dim}")
    return qmap


def _iterate_array(a: np.ndarray, qmap: QuadraticMap, tol: float, max_iter: int):
    """Iterate the normalized step from ``a``, which is overwritten.

    Each step is a' = (M (a x a)) / N with N = sum(M (a x a)), and the
    residual is max |a' - a|.  The outer product, the image, the next state
    and the difference live in buffers allocated once per call, and the two
    state buffers swap roles each step, so a step allocates nothing; the
    arithmetic is that of ``QuadraticMap.apply``, operation for operation.
    """
    m2 = qmap._m2
    n = a.shape[0]
    sq = np.empty((n, n))
    flat = sq.reshape(-1)
    q = np.empty(n)
    diff = np.empty(n)
    cur, nxt = a, np.empty(n)
    cur_col, nxt_col = cur[:, None], nxt[:, None]  # column views for the outer product
    multiply, matmul, divide, subtract, absolute = (
        np.multiply, np.matmul, np.divide, np.subtract, np.absolute
    )
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        multiply(cur_col, cur, out=sq)
        matmul(m2, flat, out=q)
        keep = add_reduce(q)
        if keep <= ANNIHILATION_EPS:
            raise EnsembleAnnihilated(f"keep probability {keep} at iteration {iterations}")
        divide(q, keep, out=nxt)
        subtract(nxt, cur, out=diff)
        absolute(diff, out=diff)
        residual = max_reduce(diff)
        cur, nxt, cur_col, nxt_col = nxt, cur, nxt_col, cur_col
        if residual <= tol:
            return cur, iterations, True, float(residual)
    return cur, iterations, False, float(residual)


def _vector_of(state):
    """A state's weight vector and the function that wraps a vector back up."""
    if isinstance(state, FlaggedEnsembleState):
        return state.flat, lambda v: FlaggedEnsembleState(v.reshape(4, 4))
    if isinstance(state, BinaryFlaggedState):
        return state.as_array, lambda v: BinaryFlaggedState(*v)
    raise TypeError(f"expected a flagged state, got {type(state).__name__}; use embed()")


def _solve(s0, noise_or_map, tol: float, max_iter: int, newton: bool = False) -> FixpointResult:
    """Every whole-state solve, as ``iterate_to_fixpoint`` documents it: the
    plain loop of the map that fits ``s0``, or with ``newton`` (the basin
    checks) ``_newton_fixpoint`` on that map, every cell free.  Only Newton
    needs the map here; the plain loop builds it if it reads it."""
    _check_budget(tol, max_iter)
    a, wrap = _vector_of(s0)
    qmap = _fitting_map(noise_or_map, a) if newton else None
    plain = _plain_loop(noise_or_map, s0, qmap)
    try:
        if newton:
            vec, it, ok, res = _newton_fixpoint(a.copy(), qmap, plain, tol, max_iter)
        else:
            vec, it, ok, res = plain(a.copy(), tol, max_iter)
    except EnsembleAnnihilated as exc:
        return FixpointResult(s0, 0, False, np.inf, failure=str(exc))
    return FixpointResult(wrap(vec), it, ok, res)


def iterate_to_fixpoint(
    s0,
    noise_or_map,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixpointResult:
    """Iterate the purification step until the max-norm step delta is <= tol.

    Accepts a flagged 16-variable or binary state with a map or noise model
    that fits it.  A binary state with a binary noise model runs the scalar
    closed-form loop of ``_plain_loop`` and builds no map, as it is faster
    (1.8 against 8.9 us a step on the 4-variable map, on a 2-vCPU Xeon);
    every other pair runs the array loop.
    ``s0`` is left unchanged.  Annihilation of the ensemble is reported as
    non-convergence with a cause, zero iterations and an infinite residual.
    Raises TypeError for any other state, and ValueError for a negative
    ``max_iter``, a ``tol`` not finite and nonnegative, or a state that does
    not fit the map; zero ``max_iter`` reports non-convergence.
    """
    return _solve(s0, noise_or_map, tol, max_iter)


def binary_fixpoint_analytic(f0: float) -> BinaryFlaggedState:
    """Closed-form fixpoint of the binary recurrence with uncorrelated flips.

    Valid for f0 >= 3/4 (the radicand 4 f0 - 3 must be nonnegative).
    """
    if f0 < 0.75:
        raise ValueError(f"f0 = {f0} < 3/4: fixpoint formula undefined")
    if f0 > 1.0:
        raise ValueError(f"f0 = {f0} > 1")
    root = np.sqrt(4.0 * f0 - 3.0)
    a0 = (4.0 * f0 * f0 - 4.0 * f0 + (2.0 * f0 - 1.0) * root + 1.0) / (
        2.0 * (2.0 * f0 - 1.0) ** 2
    )
    return BinaryFlaggedState(a0, 0.0, 0.0, 1.0 - a0)


def jacobian(qmap: QuadraticMap, state) -> np.ndarray:
    """Exact derivative matrix of the normalized step at a state.

    ``state`` is a state object or a raw weight vector.  Rows are output
    components, columns input components:
    d a'_j / d a_k = [2 (M_j a)_k - a'_j * 2 (S a)_k] / N with S = sum_j M_j.
    """
    a = state if isinstance(state, np.ndarray) else _vector_of(state)[0]
    ma = qmap.m @ a  # (j, k) = (M_j a)_k, using symmetry of M_j
    q = ma @ a
    n = q.sum()
    if n <= ANNIHILATION_EPS:
        raise EnsembleAnnihilated(f"keep probability {n}")
    sa = ma.sum(axis=0)
    return (ma - (q / n)[:, None] * sa) * 2.0 / n  # scaling by 2 is exact


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


# --- critical-noise search -------------------------------------------------

def binary_family(f0: float) -> tuple[BinaryNoiseModel, BinaryFlaggedState]:
    """Uncorrelated spin-flip noise of strength 1 - f0, with the standard probe."""
    return BinaryNoiseModel.uncorrelated(f0), _BINARY_PROBE


_WHITE_MAP_CACHE: dict[float, QuadraticMap] = {}


def white_noise_family(f0: float) -> tuple[QuadraticMap, FlaggedEnsembleState]:
    """One-qubit white noise on both qubits, with the standard Werner probe."""
    qmap = _WHITE_MAP_CACHE.get(f0)
    if qmap is None:
        w = one_qubit_white(f0)
        qmap = generate_map(product(w, w))
        if len(_WHITE_MAP_CACHE) > 256:
            _WHITE_MAP_CACHE.clear()
        _WHITE_MAP_CACHE[f0] = qmap
    return qmap, _WERNER_PROBE


#: Cells whose flag equals the Bell index: of the 16-cell map, and A0/B1 of
#: the binary map.  The step maps the subspace they span into itself.
_FLAG_DIAGONAL_CELLS = {FlaggedEnsembleState: [0, 5, 10, 15], BinaryFlaggedState: [0, 3]}

#: Plain steps that start each Newton solve, and the Newton steps it takes at
#: most.  The warm start only has to bring Newton within reach of the
#: fixpoint; with 30 steps a critical search's solves sum to 829
#: (white noise at 24 halvings) and 433 (binary) steps.
_NEWTON_WARM_START = 30
_NEWTON_MAX_STEPS = 50

#: Newton overshoots a secure fixpoint's zero cells by up to 4e-7 (at binary
#: 0.7719 and white 0.8988), and those weights are clipped to zero.  A weight
#: below -_NEWTON_CLIP_FLOOR (as far as -2.4 in high noise) is no overshoot:
#: clipped, it can land on a fixpoint other than the trajectory's limit, so
#: the solve leaves Newton for the plain iteration.
_NEWTON_CLIP_FLOOR = 1e-5

#: Newton steps that polish a converged secure fixpoint before its stability
#: is measured.  Near the boundary rho - 1 is as small as the error a
#: fixpoint solved to ``tol`` leaves in it; polished to rounding level, the
#: margin is smooth in the noise parameter and a root solve can use it.
_POLISH_STEPS = 3


def _check_budget(tol: float, max_iter: int) -> None:
    if max_iter < 0:
        raise ValueError(f"max_iter = {max_iter} < 0")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol = {tol} is not finite and nonnegative")


def _plain_loop(noise_or_map, s0, qmap: QuadraticMap | None, cells=slice(None)):
    """The plain iteration of ``qmap``, the map of ``noise_or_map`` on the
    cells ``cells`` of ``s0``'s vector, as ``iterate_to_fixpoint`` runs it.

    It is called as ``_iterate_array`` is, with a weight vector of ``qmap``
    that it may overwrite, and returns a vector of ``qmap`` too.  A binary
    state and channel run the scalar loop of ``binary_step_raw`` on the
    binary vector that is zero off ``cells``, and read no map; the step
    keeps those zeros exactly where the cells span an invariant subspace.
    Every other pair runs ``_iterate_array`` on ``qmap``, which is built
    here (``_fitting_map``, on all cells) when it is None.
    """
    if not (isinstance(s0, BinaryFlaggedState) and isinstance(noise_or_map, BinaryNoiseModel)):
        if qmap is None:
            qmap = _fitting_map(noise_or_map, _vector_of(s0)[0])
        return lambda x, tol, max_iter: _iterate_array(x, qmap, tol, max_iter)

    def scalar(x, tol, max_iter):
        a = np.zeros(4)
        a[cells] = x
        a0, a1, b0, b1 = a.tolist()
        f00, f11, fs = noise_or_map.f00, noise_or_map.f11, noise_or_map.fs
        residual = np.inf
        iterations = 0
        for iterations in range(1, max_iter + 1):
            na0, na1, nb0, nb1, _ = binary_step_raw(a0, a1, b0, b1, f00, f11, fs)
            residual = max(abs(na0 - a0), abs(na1 - a1), abs(nb0 - b0), abs(nb1 - b1))
            a0, a1, b0, b1 = na0, na1, nb0, nb1
            if residual <= tol:
                break
        return np.array([a0, a1, b0, b1])[cells], iterations, residual <= tol, residual

    return scalar


def _newton_fixpoint(x: np.ndarray, qmap: QuadraticMap, plain, tol: float, max_iter: int):
    """A fixpoint of ``qmap`` reached from the weight vector ``x``, solved by
    Newton's method on every cell of the map.

    ``plain`` is the plain iteration of ``qmap`` (``_plain_loop``), and up
    to ``_NEWTON_WARM_START`` of its steps from ``x`` come first.  Then each
    Newton step x -> x + dx solves (J - I) dx = -(step(x) - x), with J the
    ``jacobian`` of ``qmap``; every column of J sums to zero, so dx keeps
    the weights summing to one.  Negative weights of the Newton point down
    to ``-_NEWTON_CLIP_FLOOR`` are clipped to zero (a projected Newton
    step): a secure fixpoint's cells with flag other than Bell index are
    zero, on the edge of the simplex, and Newton overshoots them by up to
    about 1e-6.  If Newton has not converged within ``_NEWTON_MAX_STEPS``
    steps, or a Newton point has a weight below ``-_NEWTON_CLIP_FLOOR``, the
    plain iteration takes the rest of the budget from where the warm start
    stopped, so the result is the limit of the plain iteration; that happens
    where no fixpoint lies within Newton's reach (it circles the ghost of a
    fold) or Newton heads for another fixpoint.

    The basin checks hand it a state's whole map (``_solve``), and the
    stability margin the map restricted to the flag-diagonal cells.
    Returns (vector, iterations, converged, residual) as ``_iterate_array``
    does: converged means max |step(x) - x| <= tol within ``max_iter``
    steps in all, plain and Newton alike, and the vector is step(x).  At the binary family's
    f0 = 3/4, where the fixpoint is a multiple root, Newton converges only
    linearly, but in tens of steps where the plain iteration needs more than
    500k.  ``tol`` and ``max_iter`` are not checked here; an annihilated
    ensemble raises EnsembleAnnihilated.
    """
    warm, spent, converged, residual = plain(x, tol, min(_NEWTON_WARM_START, max_iter))
    if converged or spent == max_iter:
        return warm, spent, converged, residual
    x = np.array(warm)  # the warm start's end stays for the fallback
    eye = np.eye(qmap.dim)
    for k in range(1, min(_NEWTON_MAX_STEPS, max_iter - spent) + 1):
        image, _ = qmap.apply(x)
        residual = float(np.max(np.abs(image - x)))
        if residual <= tol:
            return image, spent + k, True, residual
        x += np.linalg.solve(jacobian(qmap, x) - eye, x - image)
        if x.min() < -_NEWTON_CLIP_FLOOR:
            break
        np.maximum(x, 0.0, out=x)
    spent += k
    vec, iterations, converged, residual = plain(warm, tol, max_iter - spent)
    return vec, spent + iterations, converged, residual


def _secure_fixpoint(noise, s0, tol: float, max_iter: int):
    """The secure fixpoint reached from ``s0``'s flag-diagonal projection.

    The projection onto the flag-diagonal cells, renormalized, and the map
    restricted to those cells are made once, and ``_newton_fixpoint``
    solves on the restricted map: the step never leaves the subspace, so
    that is the whole map's solve with every other cell held at zero.
    Returns the whole map of ``noise`` on ``s0``'s cells, the flag-diagonal
    cells, the restricted map and the solve's (vector on those cells,
    iterations, converged, residual).  Raises ValueError for a bad ``tol``
    or ``max_iter``, a map that does not fit ``s0`` or a start with no
    flag-diagonal weight, and EnsembleAnnihilated.
    """
    _check_budget(tol, max_iter)
    a, _ = _vector_of(s0)
    cells = _FLAG_DIAGONAL_CELLS[type(s0)]
    mass = a[cells].sum()
    if mass <= 0.0:
        raise ValueError("start state has no weight with flag equal to Bell index")
    qmap = _fitting_map(noise, a)
    sub = qmap.restricted(cells)
    plain = _plain_loop(noise, s0, sub, cells)
    return qmap, cells, sub, _newton_fixpoint(a[cells] / mass, sub, plain, tol, max_iter)


def _stability_margin(noise, s0, tol: float, max_iter: int) -> float | None:
    """rho - 1 at the polished secure fixpoint, or None where there is none.

    The secure fixpoint is solved for on the map restricted to the
    flag-diagonal cells (``_secure_fixpoint``).  None means that it did not
    converge within the budget or does not purify (fidelity <= 1/2).
    Otherwise up to ``_POLISH_STEPS`` more Newton steps on the restricted
    map take its residual from ``tol`` to rounding level, and the result is
    the spectral radius of the whole map's Jacobian at the polished
    fixpoint, less one.  That Jacobian is block-triangular, as the subspace
    is invariant, so its spectral radius covers both the stability within
    the subspace and the decay of weight off it.
    """
    try:
        qmap, cells, sub, (x, _, converged, _) = _secure_fixpoint(noise, s0, tol, max_iter)
    except EnsembleAnnihilated:
        return None
    # the fidelity: Phi+ has one flag-diagonal cell, the first
    if not converged or x[0] <= 0.5 + REGIME_FUZZ:
        return None
    eye = np.eye(sub.dim)
    residual = np.inf
    for _ in range(_POLISH_STEPS):
        image, _ = sub.apply(x)
        step = x - image
        size = np.max(np.abs(step))
        if not 0.0 < size < residual:  # at rounding level already
            break
        residual = size
        x += np.linalg.solve(jacobian(sub, x) - eye, step)
    full = np.zeros(qmap.dim)
    full[cells] = x
    return spectral_radius(jacobian(qmap, full)) - 1.0


def _secure(margin: float | None) -> bool:
    return margin is not None and margin < 0.0


def secure_by_stability(
    noise: NoiseModel | BinaryNoiseModel | QuadraticMap,
    s0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> bool:
    """Linear-stability security indicator.

    The setting is secure iff the secure fixpoint, reached from the
    projection of the probe state onto the flag-diagonal subspace (a 30-step
    plain iteration, then Newton's method, both on the map restricted to
    that subspace), converges within the budget, purifies (fidelity > 1/2)
    and attracts: the spectral radius of the full step's Jacobian there,
    measured after a few more Newton steps, is below one.  This is the sign
    of the margin rho - 1 that ``find_critical`` solves for.  The solve
    takes tens of steps even at a multiple root of the subspace map, where
    the plain iteration converges only algebraically, and near the
    boundary, where the approach that ``classify_regime`` follows slows down
    without bound.  Raises ValueError for a negative ``max_iter`` or a
    ``tol`` not finite and nonnegative.
    """
    s0 = _probe_state(noise) if s0 is None else s0
    return _secure(_stability_margin(noise, s0, tol, max_iter))


def find_critical(
    family: Callable[[float], tuple],
    bracket: tuple[float, float],
    halvings: int = 40,
    tol: float = DEFAULT_TOL,
    max_iter: int = CRITICAL_MAX_ITER,
) -> float:
    """Solve a one-parameter noise family for the security boundary.

    ``family(param)`` must return (noise or map, start state).  The boundary
    is the root of the margin rho - 1 at the secure fixpoint, whose sign is
    the verdict of ``secure_by_stability``; ``tol`` and ``max_iter`` bound
    its solve and the basin checks.  As a basin check, the limit of the
    family's start state at both bracket ends must lie in the regime the
    verdict gives there.  That limit is solved for by ``_solve`` with
    ``_newton_fixpoint`` on the whole map, every cell free: where the plain
    iteration converges within the 30-step warm start it is that
    iteration's result; elsewhere Newton decides it in tens of steps, both
    at the binary threshold f0 = 3/4, where the plain iteration needs far
    more than the budget, and at a secure end near the boundary, where it
    needs thousands.  Raises ValueError for a negative ``halvings``, a bad
    ``tol`` or ``max_iter``, when the verdict does not change across the
    bracket or when a basin check disagrees with it; ``halvings = 0``
    returns the bracket's midpoint.

    The search keeps a bracket on which the verdict changes.  It bisects it
    until the margin is defined at both ends (a purifying secure fixpoint
    converged there), and from then on probes the regula-falsi point of the
    margins.  An end kept twice in a row has its margin scaled for the next
    point by Anderson and Bjorck's factor 1 - g_new / g_old, where g_old is
    the margin at the end just replaced and g_new the margin replacing it,
    or by 1/2 if that factor is not positive (Illinois' constant 1/2 takes
    one or two more probes a search).  Near the boundary the polished margin
    is smooth and nearly linear, so the root takes a handful of probes.  The
    search stops when the bracket is at most its first width over
    2**halvings, after ``halvings`` bisections (rounded midpoints can leave
    the width a few ulps above that), when no float lies inside it, or when
    a margin is exactly zero (that point is returned).  A probe keeps half
    that width, and at least one float, from either end, so a root next to
    an end closes the bracket in one probe.  The result is the regula-falsi
    point of the final bracket (its midpoint if the margin is undefined at
    an end), so it lies within the first width over 2**halvings of the root.
    """
    if halvings < 0:
        raise ValueError(f"halvings = {halvings} < 0")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket ({lo}, {hi}) is not increasing")
    width = math.ldexp(hi - lo, -halvings)
    ends = [(param, *family(param)) for param in (lo, hi)]
    g_lo, g_hi = (_stability_margin(n, s, tol, max_iter) for _, n, s in ends)
    sec_lo, sec_hi = _secure(g_lo), _secure(g_hi)
    if sec_lo == sec_hi:
        raise ValueError(
            f"security indicator does not change across ({lo}, {hi}): both {sec_lo}"
        )
    for (param, noise_or_map, start), secure in zip(ends, (sec_lo, sec_hi)):
        result = _solve(start, noise_or_map, tol, max_iter, newton=True)
        regime = regime_of(result)
        if (regime is Regime.SECURITY) != secure:
            raise ValueError(
                f"basin check at {param}: the start state ends in the {regime.value} "
                f"regime after {result.iterations} iterations (converged: "
                f"{result.converged}), but linear stability says secure = {secure}"
            )
    if halvings == 0:
        return 0.5 * (lo + hi)
    least = max(width / 2.0, math.ulp(hi))  # a probe's least distance from an end
    w_lo, w_hi = g_lo, g_hi  # the margins the next regula-falsi point weighs
    replaced = 0  # -1 or 1 when the last regula-falsi probe replaced lo or hi
    bisections = 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or bisections == halvings or mid in (lo, hi):
            break
        x = mid
        if g_lo is not None and g_hi is not None:
            x = lo + (hi - lo) * (w_lo / (w_lo - w_hi))
            x = min(max(x, lo + least), hi - least)
            x = x if lo < x < hi else mid
        g = _stability_margin(*family(x), tol, max_iter)
        if g == 0.0:
            return x
        falsi = x != mid
        bisections += not falsi
        if _secure(g) == sec_lo:
            if falsi and replaced == -1:
                w_hi *= _anderson_bjorck(g, g_lo)
            lo, g_lo, w_lo = x, g, g
            replaced = -1 if falsi else 0
        else:
            if falsi and replaced == 1:
                w_lo *= _anderson_bjorck(g, g_hi)
            hi, g_hi, w_hi = x, g, g
            replaced = 1 if falsi else 0
    if g_lo is None or g_hi is None:
        return mid
    return lo + (hi - lo) * (g_lo / (g_lo - g_hi))


def _anderson_bjorck(g_new: float, g_old: float) -> float:
    """The factor on the kept end's margin when a regula-falsi probe replaces
    the same end twice in a row: m = 1 - g_new / g_old, with g_old the
    replaced end's margin, or 1/2 when m <= 0 (Anderson & Bjorck, BIT 13,
    253 (1973))."""
    m = 1.0 - g_new / g_old
    return m if m > 0.0 else 0.5


# --- regimes ----------------------------------------------------------------

def classify_regime(
    noise: NoiseModel | BinaryNoiseModel | QuadraticMap,
    s0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Regime:
    """Classify a noise setting by the asymptotics of the probe ensemble.

    Security requires purification (asymptotic fidelity > 1/2) together with
    the conditional fidelity converging to one; fidelity <= 1/2 is the
    high-noise regime; anything else is intermediate.  Non-convergence within
    the budget is reported as intermediate with a warning, since convergence
    times diverge near the regime boundaries.
    """
    s0 = _probe_state(noise) if s0 is None else s0
    result = iterate_to_fixpoint(s0, noise, tol=tol, max_iter=max_iter)
    if not result.converged:
        warnings.warn(
            f"no fixpoint within {max_iter} iterations "
            f"(residual {result.residual}); classifying as intermediate",
            RuntimeWarning,
            stacklevel=2,
        )
    return regime_of(result)


def _probe_state(noise):
    return _BINARY_PROBE if isinstance(noise, BinaryNoiseModel) else _WERNER_PROBE


def regime_of(result: FixpointResult) -> Regime:
    """The regime a fixpoint result shows, by the rule of ``classify_regime``."""
    if not result.converged:
        if result.failure is None and result.fidelity <= 0.5 + REGIME_FUZZ:
            return Regime.HIGH_NOISE
        return Regime.INTERMEDIATE
    if result.fidelity <= 0.5 + REGIME_FUZZ:
        return Regime.HIGH_NOISE
    if result.conditional_fidelity >= 1.0 - REGIME_FUZZ:
        return Regime.SECURITY
    return Regime.INTERMEDIATE


def regime_scan(
    f00: float,
    samples: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = SCAN_MAX_ITER,
) -> dict[Regime, float]:
    """Relative regime frequencies for random channels with fixed f[00].

    The 15 free weights are drawn uniformly on the simplex of mass 1 - f00.
    Each channel is classified as ``classify_regime`` does, but a probe that
    does not converge within ``max_iter`` counts as intermediate without a
    warning.
    """
    if not 0.0 <= f00 <= 1.0:
        raise ValueError(f"f00 = {f00} outside [0, 1]")
    if samples < 1:
        raise ValueError(f"samples = {samples} < 1")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    rng = np.random.default_rng(seed)
    counts = {regime: 0 for regime in Regime}
    for _ in range(samples):
        free = rng.dirichlet(np.ones(15)) * (1.0 - f00)
        f = np.empty(16)
        f[0] = f00
        f[1:] = free
        result = iterate_to_fixpoint(
            _WERNER_PROBE, NoiseModel(f.reshape(4, 4)), tol=tol, max_iter=max_iter
        )
        counts[regime_of(result)] += 1
    return {regime: counts[regime] / samples for regime in Regime}


# --- purification curve and the intermediate-regime fit ---------------------

def purification_curve(
    noise: BinaryNoiseModel | NoiseModel | QuadraticMap,
    n_max: int,
    segment_points: int = 32,
    start=None,
) -> list[np.ndarray]:
    """Conditional-fidelity return map as concatenated curve segments.

    A seed state and its one-step image are joined by a straight line in
    state space; pushing that line through the n-th iterate of the step and
    reading off (F_cond before, F_cond after) gives segment n.  Segments join
    continuously because the line's endpoints are one step apart.  Raises
    ValueError for a negative ``n_max``, no ``segment_points`` or a start
    that does not fit the map.
    """
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} < 0")
    if segment_points < 1:
        raise ValueError(f"segment_points = {segment_points} < 1")
    if start is None:
        binary = isinstance(noise, BinaryNoiseModel)
        start = BinaryFlaggedState(0.6, 0.0, 0.4, 0.0) if binary else _WERNER_PROBE
    x0, _ = _vector_of(start)
    qmap = _fitting_map(noise, x0)
    diagonal = _FLAG_DIAGONAL_CELLS[type(start)]
    x1, _ = qmap.apply(x0)
    ts = np.linspace(0.0, 1.0, segment_points)
    line = [(1.0 - t) * x0 + t * x1 for t in ts]
    segments = []
    for _ in range(n_max):
        seg = np.empty((segment_points, 2))
        nxt = []
        for k, v in enumerate(line):
            image, _ = qmap.apply(v)
            seg[k] = (v[diagonal].sum(), image[diagonal].sum())
            nxt.append(image)
        segments.append(seg)
        line = nxt
    return segments


def fit_intermediate(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares fit of c0 + c1 * sqrt(f0 - x0) to (f0, F_cond) samples.

    Variable projection: for a fixed onset x0 <= min f0 the model is linear,
    so (c0, c1 >= 0) come from linear least squares, and x0 minimizes the
    remaining residual over [min f0 - 10 * span, min f0] by a 201-point grid
    search refined by golden-section search.  Returns (offset c0, scale c1,
    onset x0).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 (f0, F_cond) points")
    if not np.isfinite(pts).all():
        raise ValueError("(f0, F_cond) points must be finite")
    x, y = pts[:, 0], pts[:, 1]

    def linear_fit(x0):
        s = np.sqrt(np.clip(x - x0, 0.0, None))
        (c0, c1), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(s), s]), y, rcond=None)
        if c1 < 0.0:
            c0, c1 = y.mean(), 0.0
        r = y - c0 - c1 * s
        return float(r @ r), float(c0), float(c1)

    hi = x.min()
    grid = np.linspace(hi - 10.0 * (x.max() - hi), hi, 201)
    k = int(np.argmin([linear_fit(x0)[0] for x0 in grid]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = linear_fit(c)[0], linear_fit(d)[0]
    for _ in range(80):  # shrinks the bracket by 0.618**80 ~ 2e-17
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = linear_fit(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = linear_fit(d)[0]
    x0 = c if fc <= fd else d
    _, c0, c1 = linear_fit(x0)
    return c0, c1, float(x0)
