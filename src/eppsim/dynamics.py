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
radius of the step's Jacobian at the secure fixpoint less one.  That
Jacobian is block-triangular, and at the boundary the Perron root of its
block on the cells off the subspace crosses one while the block on the
subspace stays stable, so the boundary is a regular root of a small
system in the secure fixpoint, the Perron vector and the noise parameter.
A critical search solves that system by Newton's method from the secure end
of its bracket, with one family call a step; where Newton gives up it
bisects the verdict and solves again from each new secure end.  Each margin
projects the start onto the subspace and restricts the map to it once,
which is exact as the step never leaves it: four unknowns for a 16-cell
state, two for a binary one.  On raw weight vectors of that restricted map,
the secure fixpoint is solved for by Newton's method after a short plain
warm start, in tens of steps even where the plain iteration converges only
algebraically, and is polished to rounding level; the margin's sign is
then decided once, on the whole map's Jacobian.  The limits that the basin
checks of a critical search take for the start state go through the plain
iteration's body to the same Newton solve on the whole map, with every cell
free, and a Newton limit counts there only if it attracts.  Convergence
times of the plain iteration diverge at the boundary, much like a phase
transition.  A regime verdict runs the plain iteration and hands a slow
trajectory to Newton's method at most once, after the 30-step warm start,
where the residual's decay predicts more than one block (32 steps) of
further steps.  Newton's limit is kept only where the spectral radius rho
of the step's Jacobian there says that the plain iteration would reach it
within half its budget; otherwise the plain iteration goes on where it
stopped, so every verdict is the plain iteration's.

Every decision whether rho lies below a bound goes through one gate, in
four places: rho < 1 for the margin's sign and for the flag-diagonal block
at the boundary, rho < 1 + ``REGIME_FUZZ`` for an attracting basin limit,
and, for the verdict, rho below the radius at which the plain iteration
reaches tol within half its budget.  The gate first tries the bounds
||J^(2^k)||_1^(1/2^k) >= rho of a few squarings of the Jacobian J, and a
bound that passes decides as rho would; the eigenvalues are computed only
where none passes.  Every Newton solve, the verdict's, the basin check's,
the secure solve and its polish, gives up by one rule: where no fixpoint
lies within Newton's reach, as below a fold, its corrections stop
shrinking, and where a step or the gate raises LinAlgError (a singular
system) or EnsembleAnnihilated, Newton yields no fixpoint and the plain
iteration goes on; the polish keeps the point it reached.  A verdict also
ends, as high-noise, at the first block end where no Bell weight exceeds
1/2.  Such a Bell-diagonal pair is separable (Horodecki and Horodecki, PRA
54, 1838 (1996)), and the step is LOCC: Alice alone applies the Pauli
errors (mu, nu) of a channel, then both parties apply the bilateral
CNOT, measure locally and post-select in public.  So no later state has a
Bell weight above 1/2, and the plain iteration's verdict is high-noise
already.  The proof needs the ensemble to survive every later step, and
the keep probability is at least tr(f)/2 on every state: coincident errors
mu = nu shift both pairs' parities alike, and two draws of a state have
equal parity with probability p**2 + (1 - p)**2 >= 1/2.  So the exit runs
only for a channel whose tr(f)/2 is above the annihilation threshold, and
never on a bare map.  Every solve runs on flagged states, 16-cell or
binary; a Bell-diagonal state enters through ``embed``, noiseless or not.
"""

from __future__ import annotations

import math
import sys
import threading
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .noisemodels import (
    BinaryNoiseModel,
    NoiseModel,
    _checked_int,
    _checked_seed,
    one_qubit_white,
    product,
)
from .recurrence import (
    ANNIHILATION_EPS,
    BellDiagonalState,
    BinaryFlaggedState,
    EnsembleAnnihilated,
    FlaggedEnsembleState,
    QuadraticMap,
    _check_fit,
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
    state, and that map restricted to the binary cells for a binary one
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
    _check_fit(qmap, a)
    return qmap


#: Steps of the plain loop between two residual passes: the first block's,
#: and the most any block takes.
_FIRST_BLOCK = 8
_BLOCK_CAP = 32

#: A verdict's trajectory is settled as high-noise once its largest Bell
#: weight is at most 1/2 less this margin, which covers the rounding of the
#: weights summed into it.
_SEPARABLE_MARGIN = 1e-12


_THREAD = threading.local()


def _workspace(n: int):
    """The plain loop's buffers for an ``n``-cell map, made once per thread
    and ``_BLOCK_CAP``: the block's rows, the outer product ``sq`` and its
    flat view, the product ``q`` of image and keep probability and its
    image view, the residual rows ``diff``, and each step k's views
    (k, row k as a column, row k as a row, row k + 1)."""
    cache = _THREAD.__dict__.setdefault("workspaces", {})
    key = (n, _BLOCK_CAP)
    if key not in cache:
        cap = _BLOCK_CAP
        rows, diff = np.empty((cap + 1, n)), np.empty((cap, n))
        sq, q = np.empty((n, n)), np.empty(n + 1)
        # step k reads row k as a column and as a row, whose dot is the
        # outer product (each entry one rounded product), and writes row k + 1
        steps = list(zip(range(cap), rows[:-1, :, None], rows[:-1, None, :], rows[1:]))
        cache[key] = rows, sq, sq.reshape(-1), q, q[:n], diff, steps
    return cache[key]


def _iterate_array(
    a: np.ndarray, qmap: QuadraticMap, tol: float, max_iter: int, separable=False, *,
    handoff=False,
):
    """Iterate the normalized step from ``a``, which is left unchanged.

    Each step is a' = (M (a x a)) / N with N = S (a x a), S the keep form,
    and the residual is max |a' - a|.  Steps run in blocks: row 0 of a
    buffer of ``_BLOCK_CAP + 1`` rows holds the block's start, and each step
    writes its normalized state into the next row with three calls (the
    outer product, one product with the map's ``forms`` that gives the
    image and N, and the divide), so a step allocates nothing and its
    arithmetic is that of ``QuadraticMap.apply``, operation for operation.
    It is kept beside ``apply``, which every Newton step calls, because it pays
    for itself: on the 16-cell white-noise map at f0 = 0.9 it takes 2.8 us a
    step with its share of the residual pass, where ``apply`` alone takes 4.7
    us (timeit minima on a 2-vCPU Xeon).  The buffers and each step's views of
    them come from ``_workspace``, made once per thread for a map size, and the
    result is a copy of its row.  After the block one pass over the stacked
    rows takes every step's residual, and the first row whose residual is <=
    tol is the result; the steps after it are discarded.  Otherwise the last
    row is the next block's start.  Every vector, iteration count, residual and
    annihilation is the one a step-by-step loop gives: a step that annihilates
    the ensemble raises EnsembleAnnihilated only if no earlier row of its block
    converged.

    The first block takes ``_FIRST_BLOCK`` steps.  Each later one takes the
    steps that the residual, decaying geometrically at the last block's
    mean ratio, needs to reach ``tol``: at least two, so that the block
    has a ratio, and at most ``_BLOCK_CAP``, which it also takes where the
    residual does not decay or ``tol`` is zero.  The budget cuts the last
    block short.

    With ``handoff`` (the regime verdicts, ``_plain_loop``) the loop hands
    the trajectory to Newton's method once, at the end of the first block
    after ``_NEWTON_WARM_START`` or more steps whose prediction needs more
    than a full block, ``_BLOCK_CAP`` steps, with budget left.  A block end
    before that which already predicts so ends the next block at step
    ``_NEWTON_WARM_START``, but no sooner than two steps on.  ``_newton``
    takes up to ``_NEWTON_MAX_STEPS`` steps from the block's last row x,
    which do not count against ``max_iter``, and its fixpoint x* is the
    result, converged, only if the plain iteration would reach it within
    half its budget: at an attracting fixpoint the plain residual shrinks
    by the spectral radius rho of the ``jacobian`` a step, so from x, after
    ``done`` steps at a residual r, it needs rho < ``_verdict_bound``, the
    radius at which done + log(tol / r) / log(rho) = max_iter / 2
    (``_gate``).  Half the budget leaves room for a trajectory whose decay
    slows before it settles; without that gate channels whose plain
    iteration spends the budget were classified secure.  Where Newton
    gives up or the gate declines x*, the loop goes on with its own blocks
    from x, so the result is the plain iteration's: its vector, count and
    residual where it converges or spends the budget, and its verdict at a
    separable state.

    With ``separable`` (the verdicts on a 16-cell state, ``_plain_loop``)
    the loop also returns at the first block end whose largest Bell weight,
    the row's cells summed over flags, is at most 1/2 less
    ``_SEPARABLE_MARGIN``: settled as high-noise, converged, with the last
    residual, which is above ``tol``.  This exit comes before the hand-off,
    and a row of the block that converged still wins.  A block then also
    ends no later than that weight, extrapolated linearly from the last two
    block ends (the start counts as the first), predicts it to cross the
    bound.  Where the block's residual grew (a trajectory leaving a saddle),
    the weight's fall is taken to grow with it: each step's fall is about
    the block's fall over the sum of its residuals, times that step's
    residual, which grows geometrically at the block's ratio; the block
    ends no later than that sum predicts the crossing.  The check costs two
    small calls a block.
    """
    n = a.shape[0]
    forms = qmap.forms.reshape(n + 1, -1)
    cap = _BLOCK_CAP
    rows, sq, flat, q, image, diff, steps = _workspace(n)
    rows[0] = a
    dot, divide = np.dot, np.divide

    def residuals(length):
        d = diff[:length]
        np.subtract(rows[1:length + 1], rows[:length], out=d)
        np.absolute(d, out=d)
        r = np.maximum.reduce(d, axis=1)
        return r, np.flatnonzero(r <= tol)

    if separable:
        marginal, bound = rows[0].reshape(4, 4), 0.5 - _SEPARABLE_MARGIN
        largest = max(np.add.reduce(marginal, 1).tolist())
    done, block, residual = 0, min(_FIRST_BLOCK, cap), np.inf
    while done < max_iter:
        length = min(block, max_iter - done)
        for k, col, row, nxt in steps[:length]:
            dot(col, row, out=sq)
            dot(forms, flat, out=q)
            keep = q[n]
            if keep <= ANNIHILATION_EPS:
                r, hits = residuals(k)  # of the rows the block made before
                if hits.size:
                    break
                raise EnsembleAnnihilated(f"keep probability {keep} at iteration {done + k + 1}")
            divide(image, keep, out=nxt)
        else:
            r, hits = residuals(length)
        if hits.size:
            k = int(hits[0])
            return rows[k + 1].copy(), done + k + 1, True, float(r[k])
        done += length
        rows[0] = rows[length]
        first, residual = float(r[0]), float(r[-1])
        if separable:
            was, largest = largest, max(np.add.reduce(marginal, 1).tolist())
            if largest <= bound:
                return rows[0].copy(), done, True, residual
        if length > 1:
            ratio = (residual / first) ** (1.0 / (length - 1))
            block = cap
            if 0.0 < ratio < 1.0 and tol > 0.0:
                need = (math.log(tol) - math.log(residual)) / math.log(ratio)
                block = min(cap, max(2, math.ceil(need)))
                if handoff and need > cap:
                    if done < _NEWTON_WARM_START:
                        block = max(2, _NEWTON_WARM_START - done)
                    elif done < max_iter:  # the hand-off, at most once
                        handoff = False
                        k, fixpoint, last = _newton(rows[0], qmap, tol, _NEWTON_MAX_STEPS,
                                                    _verdict_bound(done, residual, tol, max_iter))
                        if fixpoint is not None:
                            return fixpoint, done + k, True, last
            if separable and largest < was:
                cross = (largest - bound) * length / (was - largest)
                if ratio > 1.0:
                    fall = (was - largest) / float(r.sum()) * residual * ratio  # the next step's
                    grown = math.log1p((largest - bound) * (ratio - 1.0) / fall) / math.log(ratio)
                    cross = min(cross, grown)
                block = min(block, max(2, math.ceil(cross)))
    return rows[0].copy(), done, False, float(residual)


def _vector_of(state):
    """A state's weight vector and the function that wraps a vector back up."""
    if isinstance(state, FlaggedEnsembleState):
        return state.flat, lambda v: FlaggedEnsembleState(v.reshape(4, 4))
    if isinstance(state, BinaryFlaggedState):
        return state.as_array, lambda v: BinaryFlaggedState(*v)
    raise TypeError(f"expected a flagged state, got {type(state).__name__}; use embed()")


def _solve(
    s0, noise_or_map, tol: float, max_iter: int, newton: bool = False, qmap=None, handoff=False
) -> FixpointResult:
    """Every whole-state solve, as ``iterate_to_fixpoint`` documents it: the
    plain loop of the map that fits ``s0``, or with ``newton`` (the basin
    checks) ``_newton_fixpoint`` on that map, every cell free.  Only Newton
    needs the map here: it is ``qmap`` where the caller has built it already
    (a basin check is handed its bracket end's map from the stability
    margin), and is built here otherwise.  The plain loop builds the map if
    it reads it.  With ``handoff`` (the regime verdicts) the array loop
    may hand off to Newton's method (``_iterate_array``)."""
    max_iter = _checked_budget(tol, max_iter)
    a, wrap = _vector_of(s0)
    if newton and qmap is None:
        qmap = _fitting_map(noise_or_map, a)
    plain = _plain_loop(noise_or_map, s0, qmap, handoff=handoff)
    try:
        if newton:
            vec, it, ok, res = _newton_fixpoint(a, qmap, plain, tol, max_iter, attracting=True)
        else:
            vec, it, ok, res = plain(a, tol, max_iter)
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
    (1.25 against 2.06 us a step on the 4-variable map, on a 2-vCPU Xeon);
    every other pair runs the array loop.
    ``s0`` is left unchanged.  Annihilation of the ensemble is reported as
    non-convergence with a cause, zero iterations and an infinite residual.
    Raises TypeError for any other state and for a ``max_iter`` that is no
    integer (a bool or a float, even a whole one), and ValueError for a
    negative ``max_iter``, a ``tol`` not finite and nonnegative, or a state
    that does not fit the map; zero ``max_iter`` reports non-convergence.

    The result is the limit of ``s0``'s own trajectory, which need not
    attract.  A start with weight only on the flag-diagonal cells never
    leaves the subspace they span, so it follows that subspace's dynamics,
    and its limit can be a saddle of the whole map: at white noise 0.9 the
    start with flag-diagonal weights (0.4, 0.2, 0.2, 0.2) converges to
    F = 1/4, F_cond = 1, where the spectral radius of the ``jacobian`` is
    1.81.
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
    d a'_j / d a_k = [2 (M_j a)_k - a'_j * 2 (S a)_k] / N with S = sum_j M_j,
    the map's last slab of ``forms``.  Raises ValueError, as
    ``QuadraticMap.apply`` does, unless the state has one weight per cell.
    """
    a = state if isinstance(state, np.ndarray) else _vector_of(state)[0]
    _check_fit(qmap, a)
    fa = qmap.forms @ a  # (j, k) = (M_j a)_k, using symmetry of M_j; row n is S a
    return _jacobian_of(fa, fa @ a)


def _jacobian_of(fa: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``jacobian`` at a state a from its products fa = forms @ a and q = fa @ a
    (the images a M_j a, then N = a S a), in the same rounded operations.
    ``_boundary_system`` has made both products for its residual, and takes
    J from them, which spares it a second ``forms @ a``."""
    n = q[-1]
    if n <= ANNIHILATION_EPS:
        raise EnsembleAnnihilated(f"keep probability {n}")
    return (fa[:-1] - (q[:-1] / n)[:, None] * fa[-1]) / (0.5 * n)  # n / 2 is exact: = 2 (...) / n


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _norm_bounds(m: np.ndarray):
    """The bounds u_k = ||m^(2^k)||_1^(1/2^k), k = 0 .. 5, on the spectral
    radius of a square matrix ``m``, in turn, each power the square of the
    last.  Every induced norm bounds the spectral radius, so rho(m)^j =
    rho(m^j) <= ||m^j|| for each j; by Gelfand's formula (Mat. Sb. 9, 3
    (1941)) ||m^j||^(1/j) tends to rho(m), and as the norm is
    submultiplicative, each u_k is at most the one before.  The bounds end
    early at a power whose norm is below the smallest normal float, as
    an underflowed power no longer bounds the true one, and after a power
    whose square could overflow, as no entry of the square exceeds the
    norm squared."""
    power = m
    for k in range(6):
        if k:
            power = power @ power
        norm = max(np.add.reduce(np.abs(power), 0).tolist())
        if norm < sys.float_info.min:
            return
        yield norm ** (0.5**k)
        if norm * norm > sys.float_info.max:
            return


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
#: fixpoint; with 30 steps the four solves of a critical search (the two
#: margins and the two basin checks) take 125 steps and 6 linear solves on
#: white noise (24 halvings), and 183 steps and 65 linear solves on the
#: binary family, whose threshold f0 = 3/4 is a multiple root.
_NEWTON_WARM_START = 30
_NEWTON_MAX_STEPS = 50

#: Newton overshoots a secure fixpoint's zero cells by up to 4e-7 (at binary
#: 0.7719 and white 0.8988), and those weights are clipped to zero.  A weight
#: below -_NEWTON_CLIP_FLOOR (as far as -2.4 in high noise) is no overshoot:
#: clipped, it can land on a fixpoint other than the trajectory's limit, so
#: the solve leaves Newton for the plain iteration.
_NEWTON_CLIP_FLOOR = 1e-5

#: A Newton correction longer than the one before means that no fixpoint
#: lies within Newton's reach (Deuflhard's monotonicity test), and the solve
#: leaves Newton for the plain iteration, unless the residual is at most
#: this floor.  Below it, rounding sets the corrections' lengths: at the
#: binary f0 = 3/4 multiple root they grow and shrink with residuals of
#: 1.7e-12 to 5.0e-10, while a fold's ghost keeps residuals of 7.9e-6 and
#: more (white noise just below 0.89831).
_NEWTON_ROUNDING_FLOOR = 1e-9

#: Newton steps that polish a converged secure fixpoint before its stability
#: is measured.  Near the boundary rho - 1 is as small as the error a
#: fixpoint solved to ``tol`` leaves in it; polished to rounding level, the
#: margin is smooth in the noise parameter and a root solve can use it.
_POLISH_STEPS = 3

#: Newton steps of a critical search's boundary solve (``_boundary_root``)
#: at most; the boundaries of the five families in the tests take 5 or 6.
_ROOT_MAX_STEPS = 12

#: The boundary solve's first step is taken this far (at most half the
#: bracket) from the secure end, and differences the map toward the bracket's
#: interior for its t column: white noise is defined up to f0 = 1 only.
_ROOT_DIFFERENCE = 1e-6

#: A boundary solve has converged once a correction is at most this long
#: (max-norm).  Its corrections shrink superlinearly, each about the product
#: of the two before, so the next one would be at rounding level.
_ROOT_TOL = 1e-10

#: The least weight of the boundary's Perron vector that counts as
#: nonnegative.
_PERRON_FLOOR = 1e-12


def _checked_budget(tol: float, max_iter: int) -> int:
    """``max_iter`` as an int, once the budget is valid."""
    max_iter = _checked_int("max_iter", max_iter, least=0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol = {tol} is not finite and nonnegative")
    return max_iter


def _plain_loop(noise_or_map, s0, qmap: QuadraticMap | None, cells=slice(None), handoff=False):
    """The plain iteration of ``qmap``, the map of ``noise_or_map`` on the
    cells ``cells`` of ``s0``'s vector, as ``iterate_to_fixpoint`` runs it.

    It is called as ``_iterate_array`` is, with a weight vector of ``qmap``
    that it leaves unchanged, and returns a vector of ``qmap`` too.  A binary
    state and channel run the scalar loop of ``binary_step_raw`` on the
    binary vector that is zero off ``cells``, and read no map; the step
    keeps those zeros exactly where the cells span an invariant subspace.
    Every other pair runs ``_iterate_array`` on ``qmap``, which is built
    here (``_fitting_map``, on all cells) when it is None, with its
    ``handoff``; the scalar loop has no blocks to hand off from.  With
    ``handoff`` the loop also ends at a separable state, but only where
    ``noise_or_map`` is a noise model with tr(f)/2 above twice
    ``ANNIHILATION_EPS``: then no step annihilates the ensemble (the module
    docstring gives the bound), and the factor two covers the rounding of a
    computed keep probability.  A channel's map always has 16 cells here,
    as a binary state with a binary channel runs the scalar loop.
    """
    if not (isinstance(s0, BinaryFlaggedState) and isinstance(noise_or_map, BinaryNoiseModel)):
        if qmap is None:
            qmap = _fitting_map(noise_or_map, _vector_of(s0)[0])
        separable = handoff and isinstance(noise_or_map, (NoiseModel, BinaryNoiseModel)) and (
            0.5 * noise_or_map.f.trace() > 2.0 * ANNIHILATION_EPS
        )
        return lambda x, tol, max_iter: _iterate_array(
            x, qmap, tol, max_iter, separable, handoff=handoff)

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


def _newton_fixpoint(
    x: np.ndarray, qmap: QuadraticMap, plain, tol: float, max_iter: int, *, attracting=False
):
    """A fixpoint of ``qmap`` reached from the weight vector ``x``, solved by
    Newton's method on every cell of the map.

    ``plain`` is the plain iteration of ``qmap`` (``_plain_loop``), and up
    to ``_NEWTON_WARM_START`` of its steps from ``x`` come first.  Then each
    Newton step (``_newton``) x -> x + dx solves (I - J) dx = step(x) - x,
    with J the ``jacobian`` of ``qmap``; every column of J sums to zero, so
    dx keeps the weights summing to one.  Negative weights of the Newton
    point down to ``-_NEWTON_CLIP_FLOOR`` are clipped to zero (a projected
    Newton step): a secure fixpoint's cells with flag other than Bell index are
    zero, on the edge of the simplex, and Newton overshoots them by up to
    about 1e-6.  The plain iteration takes the rest of the budget from
    where the warm start stopped, so the result is the limit of the plain
    iteration, if Newton has not converged within ``_NEWTON_MAX_STEPS``
    steps, if a Newton point has a weight below ``-_NEWTON_CLIP_FLOOR``, or
    if a correction is longer than the one before (squared 2-norms,
    ``dx @ dx``) while the residual is above ``_NEWTON_ROUNDING_FLOOR``.
    That happens where no fixpoint lies within Newton's reach (it circles
    the ghost of a fold, and its corrections stop shrinking: Deuflhard's
    monotonicity test) or Newton heads for another fixpoint.  The longer
    correction is not taken, and its step counts.  The same holds where a
    Newton step raises LinAlgError (a singular system) or
    EnsembleAnnihilated: Newton gives up, its steps count, and the plain
    iteration goes on.  With ``attracting``, a fixpoint Newton converges to
    counts only if it attracts: the spectral radius of the ``jacobian``
    there is below 1 + ``REGIME_FUZZ`` (``_gate``).  A saddle's limit is no
    trajectory's, so the plain iteration takes over from the warm start as
    above.

    A step takes step(x) from ``QuadraticMap.apply`` and J at x from
    ``jacobian``, and one difference d = step(x) - x gives the residual and
    the right-hand side of (I - J) dx = d.  Its solution is, to the bit,
    that of (J - I) dx = x - step(x): negating a matrix and its right-hand
    side is exact, and partial pivoting picks the same pivots for both
    signs (the tests keep a loop that solves the latter as the reference).

    The basin checks hand it a state's whole map (``_solve``), with
    ``attracting``, and the secure solve the map restricted to the
    flag-diagonal cells, without (``_secure_fixpoint``).  Returns (vector,
    iterations, converged, residual) as ``_iterate_array`` does: converged
    means max |step(x) - x| <= tol within ``max_iter`` steps in all, plain
    and Newton alike, and the vector is step(x).  At the binary family's
    f0 = 3/4, where the fixpoint is a multiple root, Newton converges only
    linearly, but in tens of steps where the plain iteration needs more
    than 500k; its corrections there grow and shrink at residuals below the
    rounding floor, which keeps it with Newton.  ``tol`` and ``max_iter``
    are not checked here; a plain step that annihilates the ensemble raises
    EnsembleAnnihilated.
    """
    warm, spent, converged, residual = plain(x, tol, min(_NEWTON_WARM_START, max_iter))
    if converged or spent == max_iter:
        return warm, spent, converged, residual
    bound = 1.0 + REGIME_FUZZ if attracting else None
    k, image, residual = _newton(warm, qmap, tol, min(_NEWTON_MAX_STEPS, max_iter - spent), bound)
    if image is not None:
        return image, spent + k, True, residual
    spent += k
    vec, iterations, converged, residual = plain(warm, tol, max_iter - spent)
    return vec, spent + iterations, converged, residual


def _newton(x: np.ndarray, qmap: QuadraticMap, tol: float, steps: int, bound=None):
    """The Newton loop of ``_newton_fixpoint`` and the regime verdicts'
    hand-off (``_iterate_array``): up to ``steps`` (at least one) Newton
    steps on ``qmap`` from a copy of the weight vector ``x``, each through
    ``qmap.apply`` and ``jacobian``, with the clip, the monotonicity test and
    the rounding floor that ``_newton_fixpoint`` describes.  With ``bound``, a
    fixpoint counts only where the spectral radius of the ``jacobian`` there is
    below it (``_gate``).  Returns (k, image, residual): the steps taken,
    step(x) at the first Newton point whose residual max |step(x) - x| is <=
    tol, and the last residual.  The image is None where Newton gives up: where
    its corrections stop shrinking, a point leaves the simplex, the steps run
    out or the gate declines the fixpoint, and also where a step or the gate
    raises LinAlgError or EnsembleAnnihilated.  That is the one give-up rule of
    every Newton solve, and the plain iteration goes on after it."""
    x = np.array(x)
    eye = np.eye(qmap.dim)
    last = np.inf  # the squared length of the last correction
    residual = np.inf
    try:
        for k in range(1, steps + 1):
            image = qmap.apply(x)[0]
            d = image - x
            residual = float(np.abs(d).max())
            if residual <= tol:
                if bound is None or _gate(jacobian(qmap, image), bound):
                    return k, image, residual
                break
            dx = np.linalg.solve(eye - jacobian(qmap, x), d)
            size = dx @ dx
            if size > last and residual > _NEWTON_ROUNDING_FLOOR:
                break
            last = size
            x += dx
            if x.min() < -_NEWTON_CLIP_FLOOR:
                break
            np.maximum(x, 0.0, out=x)
    except (np.linalg.LinAlgError, EnsembleAnnihilated):
        pass  # Newton gives up
    return k, None, residual


def _verdict_bound(done: int, r: float, tol: float, max_iter: int) -> float:
    """The hand-off gate's bound on rho: the plain iteration, stopped after
    ``done`` steps at a residual ``r`` above ``tol``, reaches tol within
    half of ``max_iter`` where its residual shrinks by less than
    (tol / r)^(1 / (max_iter / 2 - done)) a step, which solves
    done + log(tol / r) / log(rho) = max_iter / 2 for rho.  With no budget
    left, 0: only rho = 0 passes then."""
    left = 0.5 * max_iter - done
    return (tol / r) ** (1.0 / left) if left > 0.0 else 0.0


def _gate(jac: np.ndarray, bound: float) -> bool:
    """Whether the spectral radius rho of ``jac`` is below ``bound``, or
    zero: every spectral-radius decision of this module.  Its bounds are 1
    for the stability of the secure fixpoint (``_secure_margin``) and of
    the flag-diagonal block at the boundary (``_boundary_root``),
    1 + ``REGIME_FUZZ`` for a basin check's attracting limit
    (``_newton_fixpoint``) and ``_verdict_bound`` for a verdict's hand-off
    (``_iterate_array``).

    The bounds of ``_norm_bounds`` are tried first, each times
    1 + ``REGIME_FUZZ``, and the first below ``bound`` decides, as rho is
    at most each of them; ``spectral_radius``, an eigenvalue solve that
    costs more than all six bounds together, runs only where none passes,
    so it decides every refusal and rho = 0.  The factor covers the
    rounding of the squarings: each entry of a 16 x 16 product is within 16
    units of roundoff (16 * 2^-53 = 1.8e-15) times the product of the
    absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.5), so the norm of a power 2^k is off by the
    relative 2^k * 1e-6 that would move u_k by the factor only where the
    product of the absolute values exceeds the power by some nine orders of
    magnitude.  It also covers eigvals' own error on a simple eigenvalue,
    of the order of eps, so that a bound that passes passes the computed
    rho too.
    """
    if any(u * (1.0 + REGIME_FUZZ) < bound for u in _norm_bounds(jac)):
        return True
    rho = spectral_radius(jac)
    return rho < bound or rho == 0.0


def _secure_fixpoint(noise, s0, tol: float, max_iter: int):
    """The secure fixpoint reached from ``s0``'s flag-diagonal projection.

    The projection onto the flag-diagonal cells, renormalized, and the map
    restricted to those cells are made once, and ``_newton_fixpoint``
    solves on the restricted map: the step never leaves the subspace, so
    that is the whole map's solve with every other cell held at zero.  A
    fixpoint that converged and purifies (fidelity > 1/2) is then polished:
    up to ``_POLISH_STEPS`` more Newton steps on the restricted map take its
    residual from ``tol`` to rounding level.  Returns the whole map of
    ``noise`` on ``s0``'s cells and (the vector on every cell, the solve's
    iterations, converged and residual).  The polish's steps are Newton
    steps through ``sub.apply`` and ``jacobian``, and it gives up as
    ``_newton`` does, keeping the last point it reached, where a step
    raises LinAlgError or EnsembleAnnihilated.  Raises ValueError
    for a bad ``tol`` or ``max_iter``, a map that does not fit ``s0`` or a
    start with no flag-diagonal weight, and EnsembleAnnihilated where a
    plain step annihilates the ensemble.
    """
    max_iter = _checked_budget(tol, max_iter)
    a, _ = _vector_of(s0)
    cells = _FLAG_DIAGONAL_CELLS[type(s0)]
    mass = a[cells].sum()
    if mass <= 0.0:
        raise ValueError("start state has no weight with flag equal to Bell index")
    qmap = _fitting_map(noise, a)
    sub = qmap.restricted(cells)
    plain = _plain_loop(noise, s0, sub, cells)
    x, steps, converged, residual = _newton_fixpoint(a[cells] / mass, sub, plain, tol, max_iter)
    # the fidelity: Phi+ has one flag-diagonal cell, the first
    if converged and x[0] > 0.5 + REGIME_FUZZ:
        eye, size = np.eye(sub.dim), np.inf
        try:
            for _ in range(_POLISH_STEPS):
                d = sub.apply(x)[0] - x
                size, last = np.abs(d).max(), size
                if not 0.0 < size < last:  # at rounding level already
                    break
                x += np.linalg.solve(eye - jacobian(sub, x), d)
        except (np.linalg.LinAlgError, EnsembleAnnihilated):
            pass  # the polish gives up where it got to
    full = np.zeros(qmap.dim)
    full[cells] = x
    return qmap, (full, steps, converged, residual)


def _secure_margin(noise, s0, tol: float, max_iter: int):
    """Whether the polished secure fixpoint (``_secure_fixpoint``) is
    secure, the sign of the stability margin rho - 1: whether it converged
    within the budget, purifies (fidelity > 1/2) and attracts, with rho,
    the spectral radius of the whole map's Jacobian J there, below one
    (``_gate``).  Returns (secure, qmap, x, J) with the whole map, that
    fixpoint and J.  J is None where the fixpoint did not converge or does
    not purify, and qmap and x too if the ensemble annihilated.  J is
    block-triangular, as the flag-diagonal subspace is invariant, so rho
    covers both the stability within the subspace and the decay of weight
    off it.
    """
    try:
        qmap, (x, _, converged, _) = _secure_fixpoint(noise, s0, tol, max_iter)
    except EnsembleAnnihilated:
        return False, None, None, None
    if not converged or x[0] <= 0.5 + REGIME_FUZZ:
        return False, qmap, x, None
    jac = jacobian(qmap, x)
    return _gate(jac, 1.0), qmap, x, jac


def _boundary_system(qmap: QuadraticMap, z: np.ndarray, cells, off, derivative=False):
    """The residual of the boundary system at z = (x, v, t) on ``qmap``, the
    family's map at some t; with ``derivative`` also its exact derivative in
    (x, v) and the whole map's Jacobian J at x, as (residual, derivative, J).

    The state a is x on the flag-diagonal ``cells`` and zero elsewhere, and
    V is v on the ``off`` cells and zero elsewhere.  The rows are
    step(a) - a on all but the last of ``cells``, with sum(x) - 1 in place
    of the last, then (J_OO - I) v, with J_OO the block of J on ``off``, and
    sum(v) - 1.  With a' = q / N, J V = 2 (q(a, V) - a' (a S V)) / N, and as
    d a'_j / d a_k = J_jk its derivative in a is
    2 [(M_j V)_k - J_jk (a S V) - a'_j (S V)_k - (J V)_j (S a)_k] / N.
    J is taken from the products M_j a and q that the residual has made, by
    ``jacobian``'s expression (``_jacobian_of``), so it is
    ``jacobian(qmap, a)`` to the byte.  The derivative's blocks are taken
    from J by ``take``, and its identity is subtracted in place on the
    diagonal: no index grid or identity matrix is made.
    """
    n, d = qmap.dim, len(cells)
    x, v = z[:d], z[d:-1]
    a, big_v = np.zeros(n), np.zeros(n)
    a[cells], big_v[off] = x, v
    fa = qmap.forms @ a  # rows M_j a, then S a
    q, w = fa @ a, fa @ big_v  # a M_j a and a M_j V, then N and a S V
    keep = q[-1]
    if keep <= ANNIHILATION_EPS:
        raise EnsembleAnnihilated(f"keep probability {keep}")
    image = q[:-1] / keep
    jv = (w[:-1] - image * w[-1]) * (2.0 / keep)
    f = np.concatenate([image[cells] - x, jv[off] - v, [v.sum() - 1.0]])
    f[d - 1] = x.sum() - 1.0
    if not derivative:
        return f
    jac = _jacobian_of(fa, q)
    fv = qmap.forms @ big_v  # rows M_j V, then S V
    djv = fv[:-1] - jac * w[-1] - image[:, None] * fv[-1] - jv[:, None] * fa[-1]
    dfdz = np.zeros((n + 1, n))
    dfdz[:d, :d] = jac.take(cells, 0).take(cells, 1)
    dfdz[d:-1, :d] = djv.take(off, 0).take(cells, 1) * (2.0 / keep)
    dfdz[d:-1, d:] = jac.take(off, 0).take(off, 1)
    dfdz.reshape(-1)[: n * n : n + 1] -= 1.0  # the identity, off both diagonal blocks
    dfdz[d - 1, :d] = 1.0
    dfdz[-1, d:] = 1.0
    return f, dfdz, jac


def _boundary_root(family, cells, secure_end, other_end) -> np.ndarray | None:
    """The security boundary between two bracket ends as a regular root
    z = (x on ``cells``, v, t), solved by Newton's method from the secure
    end, or None where Newton gives up.

    ``secure_end`` is (t, qmap, x, J): the parameter, the family's map
    there, its polished secure fixpoint on every cell and the whole map's
    Jacobian there (``_secure_margin``), whose block J_OO gives the start's v;
    ``cells`` are the flag-diagonal cells.  The unknowns are x on ``cells``,
    the Perron vector v of J_OO, the block of the whole map's Jacobian on
    the other cells, and t; the equations are ``_boundary_system``'s, whose
    root has an eigenvalue one of J_OO.  The start is x, v at the secure end
    normalized to sum one, and t one ``_ROOT_DIFFERENCE`` (at most half the
    bracket) from the secure end toward the other.  Each step makes one
    family call, at the current t, and takes the t column as a secant over
    the maps of the current and the last t (the secure end's for the first
    step): the residual at the current (x, v) on both.  The solve has
    converged once a correction is at most ``_ROOT_TOL`` long (max-norm),
    and the corrected t is the root if it lies inside the bracket, x
    purifies there (x[0] > 1/2 + ``REGIME_FUZZ``), no weight of v is below
    ``-_PERRON_FLOOR`` (so one is J_OO's Perron root) and the spectral
    radius of J's flag-diagonal block at the last iterate is below one
    (``_gate``).  The iterates may leave the bracket on the way: the margin
    is convex in the binary family, and its first step from 0.85 reaches
    0.7294, below the bracket (0.75, 0.85).  Newton gives up when a
    correction is longer than the one before (squared 2-norms) while the
    residual is above ``_NEWTON_ROUNDING_FLOOR``, after ``_ROOT_MAX_STEPS``
    steps, when a root
    fails the checks above, when the family raises ValueError at an iterate
    (one outside its domain), and where the ensemble annihilates or the
    system is singular.  The system's matrix is made once per solve: each
    step writes the derivative into its first columns and the secant
    straight into its last one.
    """
    t_old, old, x, jac = secure_end
    lo, hi = sorted((t_old, other_end))
    off = np.delete(np.arange(old.dim), cells)
    d = len(cells)
    values, vectors = np.linalg.eig(jac.take(off, 0).take(off, 1))
    v = vectors[:, np.argmax(values.real)].real
    t = t_old + math.copysign(min(_ROOT_DIFFERENCE, 0.5 * (hi - lo)), other_end - t_old)
    z = np.concatenate([x[cells], v / v.sum(), [t]])
    system = np.empty((len(z), len(z)))  # the derivative in (x, v), then the t column
    last = np.inf  # the squared length of the last correction
    for _ in range(_ROOT_MAX_STEPS):
        try:
            qmap = _fitting_map(family(t)[0], x)
            f, system[:, :-1], jac = _boundary_system(qmap, z, cells, off, derivative=True)
            np.divide(f - _boundary_system(old, z, cells, off), t - t_old, out=system[:, -1])
            dz = np.linalg.solve(system, -f)
        except (ValueError, EnsembleAnnihilated):  # LinAlgError is a ValueError
            return None
        size = dz @ dz
        if size > last and np.abs(f).max() > _NEWTON_ROUNDING_FLOOR:
            return None
        last = size
        z += dz
        if np.abs(dz).max() <= _ROOT_TOL:
            accepted = (lo < z[-1] < hi and z[0] > 0.5 + REGIME_FUZZ
                        and z[d:-1].min() >= -_PERRON_FLOOR
                        and _gate(jac.take(cells, 0).take(cells, 1), 1.0))
            return z if accepted else None
        t_old, old, t = t, qmap, float(z[-1])
    return None


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
    after a few more Newton steps, is below one, as a norm bound on it or
    else its eigenvalues say.  This is the sign of the margin rho - 1 that
    ``find_critical`` solves for.  The solve takes tens of steps even at a
    multiple root of the subspace map, where the plain iteration converges
    only algebraically, and near the boundary, where the approach that
    ``classify_regime`` follows slows down without bound.  Where Newton
    gives up, a singular system included, the plain iteration takes the
    rest of the budget.  Raises ValueError for a negative ``max_iter`` or a
    ``tol`` not finite and nonnegative.
    """
    s0 = _probe_state(noise) if s0 is None else s0
    return _secure_margin(noise, s0, tol, max_iter)[0]


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
    needs thousands.  A Newton limit that does not attract (a saddle) is
    no trajectory's limit, and the plain iteration goes on from the warm
    start instead, as it does where Newton gives up otherwise, a singular
    system or an annihilated ensemble included; the stability solves give
    up alike.  Each end's basin check solves on the map that its
    stability margin built (``_secure_margin`` returns it), so a bracket end
    builds one map: a binary search builds 8, two ends and one per Newton
    step below.  Raises TypeError for a ``halvings`` or ``max_iter``
    that is no integer, and ValueError for a negative ``halvings``, a bad
    ``tol`` or ``max_iter``, when the verdict does not change across the
    bracket or when a basin check disagrees with it; ``halvings = 0``
    returns the bracket's midpoint.

    After the basin checks the boundary is solved for as a regular root by
    ``_boundary_root``: Newton's method on the secure fixpoint, the Perron
    vector of the Jacobian's block off the flag-diagonal cells and the
    parameter, from the secure end's polished fixpoint, with one family
    call a step.  Where Newton converges and its root passes the checks,
    that root is the result, to rounding level (the five families in the
    tests take 5 or 6 steps), and ``halvings`` does not enter it.  Where
    Newton gives up (its corrections grow, it runs out of steps, the family
    raises ValueError at an iterate or its root fails a check), the search
    bisects the bracket on the verdict.  A
    probe's margin solve is the one ``_boundary_root`` starts from, so a
    probe on the secure side becomes the new secure end and Newton solves
    again from there, while a probe on the other side only narrows the
    bracket.  ``halvings`` bounds the bisections: after that many, or once
    no float lies inside the bracket, its midpoint is returned, which lies
    within the first width over 2**halvings of the root.  A bracket that
    reaches far from the boundary, such as white noise's (0.88, 1.0),
    takes Newton's root from the first secure probe.
    """
    halvings = _checked_int("halvings", halvings, least=0)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket ({lo}, {hi}) is not increasing")
    ends = [(param, *family(param)) for param in (lo, hi)]
    solved = [_secure_margin(n, s, tol, max_iter) for _, n, s in ends]
    sec_lo, sec_hi = (secure for secure, *_ in solved)
    if sec_lo == sec_hi:
        raise ValueError(
            f"security indicator does not change across ({lo}, {hi}): both {sec_lo}"
        )
    for (param, noise_or_map, start), (secure, qmap, *_) in zip(ends, solved):
        result = _solve(start, noise_or_map, tol, max_iter, newton=True, qmap=qmap)
        regime = regime_of(result)
        if (regime is Regime.SECURITY) != secure:
            raise ValueError(
                f"basin check at {param}: the start state ends in the {regime.value} "
                f"regime after {result.iterations} iterations (converged: "
                f"{result.converged}), but linear stability says secure = {secure}"
            )
    if halvings == 0:
        return 0.5 * (lo + hi)
    k = int(sec_hi)  # the secure end
    cells = _FLAG_DIAGONAL_CELLS[type(ends[k][2])]
    bounds, probe = [lo, hi], solved[k]
    for bisections in range(halvings + 1):
        if probe[0]:
            root = _boundary_root(family, cells, (bounds[k], *probe[1:]), bounds[1 - k])
            if root is not None:
                return float(root[-1])
        mid = 0.5 * (bounds[0] + bounds[1])
        if bisections == halvings or mid in bounds:
            return mid
        probe = _secure_margin(*family(mid), tol, max_iter)
        bounds[k if probe[0] else 1 - k] = mid


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
    the budget gives a warning that names the regime returned, since
    convergence times diverge near the regime boundaries: high-noise where
    the last state's fidelity is at most 1/2, intermediate otherwise.  An
    ensemble that annihilates is intermediate, and its warning names the
    step where the keep probability vanished in place of the budget.

    The limit is ``iterate_to_fixpoint``'s, except that a slow trajectory
    may take it from Newton's method, once, inside the plain loop
    (``_iterate_array``): after 30 or more plain steps, once the residual's
    decay predicts more than 32 further steps, up to 50 Newton steps on the
    whole map follow, which do not count against ``max_iter``.  Newton's
    fixpoint is the limit only where the plain iteration would reach it
    within half the budget, as the spectral radius of the step's Jacobian
    there predicts; where the gate declines it or Newton gives up, a
    singular system included, the plain iteration goes on from where it
    stopped, so ``max_iter`` stays the plain iteration's budget and the
    regime is the one it gives.  That gate is decided by a bound
    ||J^(2^k)||_1^(1/2^k) on the spectral radius of the Jacobian J where
    one passes it, which the radius then passes too, and by the eigenvalues
    otherwise.  For a channel
    with tr(f)/2 above the annihilation threshold the solve also ends at the
    first block end where no Bell weight exceeds 1/2 (less a rounding
    margin): that pair is separable, the step is LOCC and keeps it so, and
    every later step keeps the ensemble, so the plain iteration's verdict is
    high-noise already; it is returned as settled, without a warning.  A
    bare map runs without that exit, and a binary state and channel run the
    scalar loop, which has neither.  Raises as ``iterate_to_fixpoint`` does.
    """
    s0 = _probe_state(noise) if s0 is None else s0
    result = _solve(s0, noise, tol, max_iter, handoff=True)
    regime = regime_of(result)
    if not result.converged:
        cause = (f"the ensemble annihilated: {result.failure}" if result.failure else
                 f"no fixpoint within {max_iter} iterations (residual {result.residual})")
        warnings.warn(f"{cause}; classifying as {regime.value}", RuntimeWarning, stacklevel=2)
    return regime


def _probe_state(noise):
    """The probe of ``noise``: the binary one for a binary channel or a map
    of the four binary cells, the flagged Werner state otherwise."""
    binary = isinstance(noise, BinaryNoiseModel) or (
        isinstance(noise, QuadraticMap) and noise.dim == 4
    )
    return _BINARY_PROBE if binary else _WERNER_PROBE


def regime_of(result: FixpointResult) -> Regime:
    """The regime a fixpoint result shows, by the rule of ``classify_regime``."""
    if (result.converged or result.failure is None) and result.fidelity <= 0.5 + REGIME_FUZZ:
        return Regime.HIGH_NOISE
    if result.converged and result.conditional_fidelity >= 1.0 - REGIME_FUZZ:
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
    Each channel is classified as ``classify_regime`` does, by the same
    solve: a slow channel may take its limit from Newton's method after 30
    plain steps, once more than 32 further ones are predicted.  That limit
    is kept only where the plain iteration would give the same verdict
    within ``max_iter``, as a norm bound on the Jacobian's spectral radius,
    or else the radius itself, says; where it is not, or Newton gives up,
    the plain loop goes on, so ``max_iter`` stays the plain iteration's
    budget.  A probe whose Bell marginal turns separable is settled as
    high-noise.  A probe that does not converge within the budget counts by
    the regime ``classify_regime`` returns for it, without a warning, and so
    does a probe whose ensemble annihilates: it counts as intermediate.
    ``samples``, ``seed`` and ``max_iter`` must be integers, as
    ``MCConfig``'s counts are (TypeError otherwise).
    """
    if not 0.0 <= f00 <= 1.0:
        raise ValueError(f"f00 = {f00} outside [0, 1]")
    samples = _checked_int("samples", samples, least=1)
    rng = np.random.default_rng(_checked_seed(seed))
    counts = {regime: 0 for regime in Regime}
    for _ in range(samples):
        free = rng.dirichlet(np.ones(15)) * (1.0 - f00)
        f = np.empty(16)
        f[0] = f00
        f[1:] = free
        result = _solve(_WERNER_PROBE, NoiseModel(f.reshape(4, 4)), tol, max_iter, handoff=True)
        counts[regime_of(result)] += 1
    return {regime: counts[regime] / samples for regime in Regime}


# --- the intermediate-regime fit ----------------------------------------------

def fit_intermediate(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares fit of c0 + c1 * sqrt(f0 - x0) to (f0, F_cond) samples.

    Variable projection: for a fixed onset x0 <= min f0 the model is linear,
    so (c0, c1 >= 0) come from linear least squares, and x0 minimizes the
    remaining residual over [min f0 - 10 * span, min f0] by a 201-point grid
    search refined by golden-section search.  Returns (offset c0, scale c1,
    onset x0).  ``points`` must have shape (n, 2), n >= 5.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"need (f0, F_cond) pairs, of shape (n, 2), got shape {pts.shape}")
    if pts.shape[0] < 5:
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
