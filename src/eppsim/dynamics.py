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
regime is therefore located by bisecting on linear stability: the spectral
radius of the step's Jacobian at the secure fixpoint crosses one there.
The secure fixpoint is solved for by Newton's method on the subspace, in
tens of steps even where the plain iteration converges only algebraically.
Convergence times of the plain iteration diverge at the boundary, much like
a phase transition; the basin checks of a critical search iterate that way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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
#: Budget of a critical search's stability solves and basin probes.  The
#: basin probes need it: they iterate the start state plainly, and at the
#: binary family's purification threshold f0 = 3/4, the usual lower end of
#: its bracket, that converges only algebraically and uses it up.  The
#: Newton solve of the secure fixpoint takes about 200 steps there.
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
    state: FlaggedEnsembleState | BinaryFlaggedState | BellDiagonalState
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


def _as_quadratic_map(noise_or_map) -> QuadraticMap:
    if isinstance(noise_or_map, QuadraticMap):
        return noise_or_map
    if isinstance(noise_or_map, NoiseModel):
        return generate_map(noise_or_map)
    if isinstance(noise_or_map, BinaryNoiseModel):
        return binary_quadratic_map(noise_or_map)
    raise TypeError(f"expected a QuadraticMap or noise model, got {type(noise_or_map)!r}")


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


def _iterate_binary(s: BinaryFlaggedState, noise: BinaryNoiseModel, tol, max_iter):
    a0, a1, b0, b1 = s.a0, s.a1, s.b0, s.b1
    f00, f11, fs = noise.f00, noise.f11, noise.fs
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        na0, na1, nb0, nb1, _ = binary_step_raw(a0, a1, b0, b1, f00, f11, fs)
        residual = max(abs(na0 - a0), abs(na1 - a1), abs(nb0 - b0), abs(nb1 - b1))
        a0, a1, b0, b1 = na0, na1, nb0, nb1
        if residual <= tol:
            return (a0, a1, b0, b1), iterations, True, residual
    return (a0, a1, b0, b1), iterations, False, residual


def _vector_of(state):
    """A state's weight vector and the function that wraps a vector back up."""
    if isinstance(state, FlaggedEnsembleState):
        return state.flat, lambda v: FlaggedEnsembleState(v.reshape(4, 4))
    if isinstance(state, BinaryFlaggedState):
        return state.as_array, lambda v: BinaryFlaggedState(*v)
    if isinstance(state, BellDiagonalState):
        return state.coeffs, lambda v: BellDiagonalState(v)
    raise TypeError(f"unsupported state type {type(state)!r}")


def iterate_to_fixpoint(
    s0,
    noise_or_map,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixpointResult:
    """Iterate the purification step until the max-norm step delta is <= tol.

    Accepts a flagged 16-variable state with a matching map or noise model, a
    binary state with a binary noise model, or a plain Bell-diagonal state
    with the 4-variable ideal map.  A binary state with a binary noise model
    runs the scalar closed-form loop; every other pair runs the array loop
    of ``QuadraticMap`` steps.  ``s0`` is left unchanged.  Annihilation of
    the ensemble is reported as non-convergence with a cause, zero
    iterations and an infinite residual.
    """
    if isinstance(s0, BinaryFlaggedState) and isinstance(noise_or_map, BinaryNoiseModel):
        try:
            vec, it, ok, res = _iterate_binary(s0, noise_or_map, tol, max_iter)
        except EnsembleAnnihilated as exc:
            return FixpointResult(s0, 0, False, np.inf, failure=str(exc))
        return FixpointResult(BinaryFlaggedState(*vec), it, ok, res)

    qmap = _as_quadratic_map(noise_or_map)
    a, wrap = _vector_of(s0)
    if qmap.dim != a.shape[0]:
        raise ValueError(f"state has {a.shape[0]} variables but map has {qmap.dim}")
    try:
        vec, it, ok, res = _iterate_array(a.copy(), qmap, tol, max_iter)
    except EnsembleAnnihilated as exc:
        return FixpointResult(s0, 0, False, np.inf, failure=str(exc))
    return FixpointResult(wrap(vec), it, ok, res)


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

    Rows are output components, columns input components:
    d a'_j / d a_k = [2 (M_j a)_k - a'_j * 2 (S a)_k] / N with S = sum_j M_j.
    """
    if hasattr(state, "flat"):
        a = state.flat
    elif hasattr(state, "as_array"):
        a = state.as_array
    elif hasattr(state, "coeffs"):
        a = state.coeffs
    else:
        a = np.asarray(state, dtype=float)
    ma = qmap.m @ a  # (j, k) = (M_j a)_k, using symmetry of M_j
    q = ma @ a
    n = q.sum()
    if n <= 1e-15:
        raise EnsembleAnnihilated(f"keep probability {n}")
    sa = ma.sum(axis=0)
    return (2.0 * ma - 2.0 * np.outer(q / n, sa)) / n


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

#: Plain steps that start the secure-fixpoint solve before Newton takes over,
#: and the Newton steps it takes at most.
_NEWTON_WARM_START = 200
_NEWTON_MAX_STEPS = 50


def _flag_diagonal(state):
    """Project a flagged state onto its cells with flag equal to Bell index.

    Returns the projection and those cells.
    """
    cells = _FLAG_DIAGONAL_CELLS.get(type(state))
    if cells is None:
        raise TypeError(f"expected a flagged state, got {type(state)!r}")
    a, wrap = _vector_of(state)
    mass = a[cells].sum()
    if mass <= 0.0:
        raise ValueError("start state has no weight with flag equal to Bell index")
    diag = np.zeros_like(a)
    diag[cells] = a[cells] / mass
    return wrap(diag), cells


def _secure_fixpoint(noise, s0, tol: float, max_iter: int) -> FixpointResult:
    """The fixpoint of the flag-diagonal subspace, solved by Newton's method.

    Up to ``_NEWTON_WARM_START`` plain steps from the flag-diagonal
    projection of ``s0`` come first.  Then each Newton step x -> x + dx
    solves (J_SS - I) dx = -(step(x) - x)_S on the flag-diagonal cells S,
    with J_SS the exact Jacobian restricted to them; every column of J sums
    to zero, so dx keeps the weights summing to one.  A Newton point with a
    negative weight is replaced by the plain step.  If Newton has not
    converged within ``_NEWTON_MAX_STEPS`` steps, no fixpoint lies within
    its reach (it circles the ghost of a fold), and the plain iteration
    takes the rest of the budget from where the warm start stopped.

    Converged means max |step(x) - x| <= tol within ``max_iter`` steps in
    all, plain and Newton alike; the result holds step(x), as
    ``iterate_to_fixpoint``'s does.  At the binary family's f0 = 3/4, where
    the subspace fixpoint is a multiple root, Newton converges only
    linearly, but in tens of steps where the plain iteration needs more
    than 500k.
    """
    start, cells = _flag_diagonal(s0)
    warm = iterate_to_fixpoint(start, noise, tol=tol, max_iter=min(_NEWTON_WARM_START, max_iter))
    if warm.converged or warm.failure is not None or warm.iterations == max_iter:
        return warm
    qmap = _as_quadratic_map(noise)
    x, wrap = _vector_of(warm.state)
    cell_pairs, eye = np.ix_(cells, cells), np.eye(len(cells))
    newton_steps = min(_NEWTON_MAX_STEPS, max_iter - warm.iterations)
    try:
        for k in range(1, newton_steps + 1):
            image, _ = qmap.apply(x)
            residual = float(np.max(np.abs(image - x)))
            if residual <= tol:
                return FixpointResult(wrap(image), warm.iterations + k, True, residual)
            dx = np.linalg.solve(jacobian(qmap, x)[cell_pairs] - eye, x[cells] - image[cells])
            x = x.copy()
            x[cells] += dx
            if x.min() < 0.0:
                x = image
    except EnsembleAnnihilated as exc:
        return FixpointResult(start, 0, False, np.inf, failure=str(exc))
    spent = warm.iterations + newton_steps
    rest = iterate_to_fixpoint(warm.state, noise, tol=tol, max_iter=max_iter - spent)
    return replace(rest, iterations=spent + rest.iterations)


def secure_by_stability(
    noise: NoiseModel | BinaryNoiseModel | QuadraticMap,
    s0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> bool:
    """Linear-stability security indicator.

    Solves for the secure fixpoint: the fixpoint of the flag-diagonal
    subspace, which the step never leaves, reached from the projection of
    the probe state (``_secure_fixpoint``: a short plain iteration, then
    Newton's method).  The setting is secure iff that fixpoint converges
    within the budget, purifies (fidelity > 1/2) and attracts: the spectral
    radius of the full step's Jacobian there is below one.  The solve takes
    tens of steps even at a multiple root of the subspace map, where the
    plain iteration converges only algebraically, and near the boundary,
    where the approach that ``classify_regime`` follows slows down without
    bound.
    """
    s0 = _probe_state(noise) if s0 is None else s0
    result = _secure_fixpoint(noise, s0, tol, max_iter)
    if not result.converged or result.fidelity <= 0.5 + REGIME_FUZZ:
        return False
    return spectral_radius(jacobian(_as_quadratic_map(noise), result.state)) < 1.0


def find_critical(
    family: Callable[[float], tuple],
    bracket: tuple[float, float],
    halvings: int = 40,
    tol: float = DEFAULT_TOL,
    max_iter: int = CRITICAL_MAX_ITER,
) -> float:
    """Bisect a one-parameter noise family for the security boundary.

    ``family(param)`` must return (noise or map, start state).  The security
    indicator is linear stability at the secure fixpoint
    (``secure_by_stability``); ``tol`` and ``max_iter`` bound its solve and
    the basin checks.  As a basin check, the family's start state is
    iterated at both bracket ends and must end in the regime the indicator
    gives there.  Raises ValueError for a negative ``halvings``, when the
    indicator does not change across the bracket or a basin check disagrees
    with it; ``halvings = 0`` returns the bracket's midpoint.
    """
    if halvings < 0:
        raise ValueError(f"halvings = {halvings} < 0")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket ({lo}, {hi}) is not increasing")
    ends = [(param, *family(param)) for param in (lo, hi)]
    sec_lo, sec_hi = (secure_by_stability(n, s, tol, max_iter) for _, n, s in ends)
    if sec_lo == sec_hi:
        raise ValueError(
            f"security indicator does not change across ({lo}, {hi}): both {sec_lo}"
        )
    for (param, noise_or_map, start), secure in zip(ends, (sec_lo, sec_hi)):
        result = iterate_to_fixpoint(start, noise_or_map, tol=tol, max_iter=max_iter)
        regime = regime_of(result)
        if (regime is Regime.SECURITY) != secure:
            raise ValueError(
                f"basin check at {param}: the start state ends in the {regime.value} "
                f"regime after {result.iterations} iterations (converged: "
                f"{result.converged}), but linear stability says secure = {secure}"
            )
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if secure_by_stability(*family(mid), tol, max_iter) == sec_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    """
    if not 0.0 <= f00 <= 1.0:
        raise ValueError(f"f00 = {f00} outside [0, 1]")
    if samples < 1:
        raise ValueError(f"samples = {samples} < 1")
    rng = np.random.default_rng(seed)
    counts = {regime: 0 for regime in Regime}
    for _ in range(samples):
        free = rng.dirichlet(np.ones(15)) * (1.0 - f00)
        f = np.empty(16)
        f[0] = f00
        f[1:] = free
        noise = NoiseModel(f.reshape(4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            counts[classify_regime(noise, tol=tol, max_iter=max_iter)] += 1
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
    continuously because the line's endpoints are one step apart.
    """
    qmap = _as_quadratic_map(noise)
    if isinstance(noise, BinaryNoiseModel):
        x0 = np.array([0.6, 0.0, 0.4, 0.0]) if start is None else start.as_array
        cond = lambda v: v[0] + v[3]
    else:
        if start is None:
            start = embed(BellDiagonalState.werner(PROBE_FIDELITY))
        x0 = start.flat
        cond = lambda v: v.reshape(4, 4).trace()
    x1, _ = qmap.apply(x0)
    ts = np.linspace(0.0, 1.0, segment_points)
    line = [(1.0 - t) * x0 + t * x1 for t in ts]
    segments = []
    for _ in range(n_max):
        seg = np.empty((segment_points, 2))
        nxt = []
        for k, v in enumerate(line):
            image, _ = qmap.apply(v)
            seg[k] = (cond(v), cond(image))
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
