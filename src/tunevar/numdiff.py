"""Finite-difference fallbacks for missing analytic derivatives.

Step sizes follow the usual optimal-step rules for central differences:
cbrt(eps) * (1 + |x_j|) for first derivatives and eps**(1/4) * (1 + |x_j|)
for nested second derivatives. Both functions accept array-valued f, so one
call differentiates every row of a batch slot at once; the steps depend only
on x.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps
STEP_FIRST = _EPS ** (1.0 / 3.0)
STEP_SECOND = _EPS ** 0.25


def _steps(x, scale):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return scale * (1.0 + np.abs(x))


def jacobian(f, x):
    """Central-difference Jacobian of an array-valued function at x.

    Returns an array of shape f(x).shape + (x.size,), from 2 * x.size
    evaluations of f with steps STEP_FIRST * (1 + |x_j|).
    """
    return jacobian_in_box(f, x, None, STEP_FIRST)


def jacobian_in_box(f, x, box, scale):
    """jacobian(f, x) at step scale, evaluating f only inside box ((x.size,
    2), or None): a coordinate with one step inside takes the one-sided
    difference of x and that step; every other column is the central one."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        up = box is None or x[j] + h[j] <= box[j, 1]
        down = box is None or x[j] - h[j] >= box[j, 0]
        up, down = up or not down, down or not up  # neither fits: central
        fp = np.asarray(f(x + e if up else x), dtype=float)
        fm = np.asarray(f(x - e if down else x), dtype=float)
        cols.append((fp - fm) / (h[j] if up != down else 2.0 * h[j]))
    return np.stack(cols, axis=-1)


def hessian(f, x, scale=STEP_SECOND):
    """Hessian of an array-valued function via nested central differences.

    Returns an array of shape f(x).shape + (x.size, x.size), symmetric in
    its last two axes.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    k = x.size
    f0 = np.asarray(f(x), dtype=float)
    out = np.empty(f0.shape + (k, k))
    for j in range(k):
        ej = np.zeros_like(x)
        ej[j] = h[j]
        out[..., j, j] = (f(x + ej) - 2.0 * f0 + f(x - ej)) / (h[j] ** 2)
        for m in range(j + 1, k):
            em = np.zeros_like(x)
            em[m] = h[m]
            val = (
                f(x + ej + em) - f(x + ej - em) - f(x - ej + em) + f(x - ej - em)
            ) / (4.0 * h[j] * h[m])
            out[..., j, m] = val
            out[..., m, j] = val
    return out
