"""The Newton steps of ``dynamics`` written through the public map calls.

``dynamics._newton_fixpoint``, the polish of ``_secure_fixpoint`` and
``_boundary_system`` compute ``QuadraticMap.apply``'s and ``jacobian``'s
products without those calls around them.  The loops below make the same
steps with ``qmap.apply``, ``jacobian`` and ``np.linalg.solve``, so the
tests can require the engine's vectors, iteration counts and residuals to
equal theirs to the last bit: the engine may drop a call's overhead, never
change a rounded operation.
"""

import numpy as np

from eppsim import dynamics
from eppsim.dynamics import REGIME_FUZZ, jacobian, spectral_radius


def newton_fixpoint(x, qmap, plain, tol, max_iter, *, attracting=False):
    """``dynamics._newton_fixpoint``, step for step."""
    warm, spent, converged, residual = plain(x, tol, min(dynamics._NEWTON_WARM_START, max_iter))
    if converged or spent == max_iter:
        return warm, spent, converged, residual
    x = np.array(warm)
    eye = np.eye(qmap.dim)
    last = np.inf
    for k in range(1, min(dynamics._NEWTON_MAX_STEPS, max_iter - spent) + 1):
        image, _ = qmap.apply(x)
        residual = float(np.max(np.abs(image - x)))
        if residual <= tol:
            if not attracting or spectral_radius(jacobian(qmap, image)) - 1.0 <= REGIME_FUZZ:
                return image, spent + k, True, residual
            break
        dx = np.linalg.solve(jacobian(qmap, x) - eye, x - image)
        size = dx @ dx
        if size > last and residual > dynamics._NEWTON_ROUNDING_FLOOR:
            break
        last = size
        x += dx
        if x.min() < -dynamics._NEWTON_CLIP_FLOOR:
            break
        np.maximum(x, 0.0, out=x)
    spent += k
    vec, iterations, converged, residual = plain(warm, tol, max_iter - spent)
    return vec, spent + iterations, converged, residual


def polished(x, sub):
    """The polish of ``dynamics._secure_fixpoint``: up to
    ``_POLISH_STEPS`` Newton steps on the restricted map ``sub``, from a
    copy of ``x``."""
    x = np.array(x)
    eye, size = np.eye(sub.dim), np.inf
    for _ in range(dynamics._POLISH_STEPS):
        image, _ = sub.apply(x)
        step = x - image
        size, last = np.max(np.abs(step)), size
        if not 0.0 < size < last:
            break
        x += np.linalg.solve(jacobian(sub, x) - eye, step)
    return x


def boundary_system(qmap, z, cells, off):
    """``dynamics._boundary_system`` with its derivative: (residual,
    derivative in (x, v), J)."""
    n, d = qmap.dim, len(cells)
    x, v = z[:d], z[d:-1]
    a, big_v = np.zeros(n), np.zeros(n)
    a[cells], big_v[off] = x, v
    fa = qmap.forms @ a
    q, w = fa @ a, fa @ big_v
    keep = q[-1]
    image = q[:-1] / keep
    jv = (w[:-1] - image * w[-1]) * (2.0 / keep)
    f = np.concatenate([image[cells] - x, jv[off] - v, [v.sum() - 1.0]])
    f[d - 1] = x.sum() - 1.0
    jac = jacobian(qmap, a)
    fv = qmap.forms @ big_v
    djv = fv[:-1] - jac * w[-1] - np.outer(image, fv[-1]) - np.outer(jv, fa[-1])
    dfdz = np.zeros((len(f), len(f) - 1))
    dfdz[:d, :d] = jac[np.ix_(cells, cells)] - np.eye(d)
    dfdz[d - 1, :d] = 1.0
    dfdz[d:-1, :d] = djv[np.ix_(off, cells)] * (2.0 / keep)
    dfdz[d:-1, d:] = jac[np.ix_(off, off)] - np.eye(len(off))
    dfdz[-1, d:] = 1.0
    return f, dfdz, jac
