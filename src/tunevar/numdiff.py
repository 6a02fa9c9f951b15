"""Finite-difference fallbacks for missing analytic derivatives.

Step sizes follow the usual optimal-step rules for central differences:
cbrt(eps) * (1 + |x_j|) for first derivatives and eps**(1/4) * (1 + |x_j|)
for nested second derivatives.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps
STEP_FIRST = _EPS ** (1.0 / 3.0)
STEP_SECOND = _EPS ** 0.25


def _steps(x, scale):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return scale * (1.0 + np.abs(x))


def jacobian(f, x, scale=STEP_FIRST):
    """Central-difference Jacobian of an array-valued function at x.

    Returns an array of shape f(x).shape + (x.size,), from 2 * x.size
    evaluations of f.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        cols.append((fp - fm) / (2.0 * h[j]))
    return np.stack(cols, axis=-1)


def gradient(f, x, scale=STEP_FIRST):
    """Central-difference gradient of a scalar function at x."""
    return jacobian(lambda v: np.asarray([f(v)]), x, scale=scale)[0]


def hessian(f, x, scale=STEP_SECOND):
    """Hessian of a scalar function via nested central differences, symmetrized."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    n = x.size
    out = np.empty((n, n))
    f0 = f(x)
    for j in range(n):
        ej = np.zeros_like(x)
        ej[j] = h[j]
        out[j, j] = (f(x + ej) - 2.0 * f0 + f(x - ej)) / (h[j] ** 2)
        for k in range(j + 1, n):
            ek = np.zeros_like(x)
            ek[k] = h[k]
            val = (
                f(x + ej + ek) - f(x + ej - ek) - f(x - ej + ek) + f(x - ej - ek)
            ) / (4.0 * h[j] * h[k])
            out[j, k] = val
            out[k, j] = val
    return out

