"""Core data containers: datasets, estimating-function models, and losses.

A model is an estimating function phi(z, theta, lam) in R^p whose empirical
mean is driven to zero in theta for each fixed tuning vector lam. Missing
slots are filled at construction time by one policy: a missing derivative is
a central-difference closure, and a missing batch slot stacks the per-row
slot over the rows. Downstream code can always assume every slot is
populated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .exceptions import EvaluationError, SchemaError


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. rows in R^d, optionally tagging one column as the response."""

    rows: np.ndarray
    response_col: Optional[int] = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise EvaluationError("Dataset rows must be a 2-d array")
        if rows.shape[0] < 2:
            raise EvaluationError("Dataset needs at least 2 rows")
        if not np.all(np.isfinite(rows)):
            raise EvaluationError("Dataset contains non-finite entries")
        object.__setattr__(self, "rows", rows)
        if self.response_col is not None and not (0 <= self.response_col < rows.shape[1]):
            raise EvaluationError("response_col out of range")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def take(self, idx) -> "Dataset":
        return Dataset(self.rows[np.asarray(idx)], self.response_col)


def read_numeric_csv(path) -> np.ndarray:
    """(n, d) array from a numeric CSV with a header row.

    Blank lines are skipped. SchemaError names the offending line for an
    empty file, a ragged or non-numeric row, and a header with no data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CSV", line=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"row has {len(row)} fields, header has {len(header)}", line=lineno
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise SchemaError("non-numeric field", line=lineno)
    if not rows:
        raise SchemaError("CSV has a header but no data rows", line=2)
    return np.asarray(rows, float)


def _stack_rows(values) -> np.ndarray:
    """(n, ...) float array from per-row results; the batch-slot fallback."""
    return np.stack([np.asarray(v, dtype=float) for v in values])


def _check_box(box, dim, name):
    if box is None:
        return None
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or not np.all(arr[:, 0] < arr[:, 1]):
        raise EvaluationError(f"{name} must be a ({dim}, 2) box with lower < upper")
    return arr


@dataclass
class ModelSpec:
    """Estimating function phi: (z, theta, lam) -> R^p with its derivatives.

    Derivative shapes:
      dphi_dtheta(z, th, lm)          -> (p, p)    d phi / d theta
      dphi_dlambda(z, th, lm)         -> (p, q)    d phi / d lambda
      hess_phi_theta(z, th, lm)       -> (p, p, p) [j] = theta-Hessian of phi^j
      dphi_dlambda_dtheta(z, th, lm)  -> (q, p, p) [j] = d_lambda_j of d phi / d theta

    The *_batch slots take the full (n, d) row matrix and return the per-row
    stack (leading axis n); built-in models provide vectorized ones.

    Fallback policy for slots left as None: a missing derivative is a
    central difference of phi (or of dphi_dtheta for dphi_dlambda_dtheta),
    and a missing batch slot stacks the per-row slot over the rows, with
    phi_batch going through eval_phi's shape and finiteness check.
    """

    p: int
    q: int
    d: int
    phi: Callable
    dphi_dtheta: Optional[Callable] = None
    dphi_dlambda: Optional[Callable] = None
    hess_phi_theta: Optional[Callable] = None
    dphi_dlambda_dtheta: Optional[Callable] = None
    theta_domain: Optional[np.ndarray] = None
    lambda_domain: Optional[np.ndarray] = None
    theta_init: Optional[np.ndarray] = None  # default solver start, else clipped zeros
    phi_batch: Optional[Callable] = None
    dphi_dtheta_batch: Optional[Callable] = None
    dphi_dlambda_batch: Optional[Callable] = None

    def __post_init__(self):
        if min(self.p, self.q, self.d) < 1:
            raise EvaluationError("p, q and d must be positive")
        self.theta_domain = _check_box(self.theta_domain, self.p, "theta_domain")
        self.lambda_domain = _check_box(self.lambda_domain, self.q, "lambda_domain")
        if self.theta_init is None:
            self.theta_init = self.clip_theta(np.zeros(self.p))
        else:
            self.theta_init = np.asarray(self.theta_init, dtype=float)
            if self.theta_init.shape != (self.p,):
                raise EvaluationError("theta_init must have length p")
        if self.dphi_dtheta is None:
            self.dphi_dtheta = lambda z, th, lm: numdiff.jacobian(
                lambda t: self.phi(z, t, lm), th
            )
        if self.dphi_dlambda is None:
            self.dphi_dlambda = lambda z, th, lm: numdiff.jacobian(
                lambda l: self.phi(z, th, l), lm
            )
        if self.hess_phi_theta is None:
            self.hess_phi_theta = lambda z, th, lm: np.stack(
                [
                    numdiff.hessian(lambda t, j=j: float(self.phi(z, t, lm)[j]), th)
                    for j in range(self.p)
                ]
            )
        if self.dphi_dlambda_dtheta is None:
            # d_lambda_j of d_theta phi, via central differences in lambda of the
            # (analytic or fallback) theta-Jacobian.
            def _cross(z, th, lm):
                jac = numdiff.jacobian(
                    lambda l: self.dphi_dtheta(z, th, l), np.asarray(lm, float),
                    scale=numdiff.STEP_SECOND,
                )  # (p, p, q)
                return np.moveaxis(jac, -1, 0)

            self.dphi_dlambda_dtheta = _cross
        # Batch fallbacks look the per-row slots up at call time, so a slot
        # replaced after construction is still the one that runs.
        if self.phi_batch is None:
            self.phi_batch = lambda Z, th, lm: _stack_rows(self.eval_phi(z, th, lm) for z in Z)
        if self.dphi_dtheta_batch is None:
            self.dphi_dtheta_batch = lambda Z, th, lm: _stack_rows(
                self.dphi_dtheta(z, th, lm) for z in Z
            )
        if self.dphi_dlambda_batch is None:
            self.dphi_dlambda_batch = lambda Z, th, lm: _stack_rows(
                np.reshape(self.dphi_dlambda(z, th, lm), (self.p, self.q)) for z in Z
            )

    def eval_phi(self, z, theta, lam):
        val = np.asarray(self.phi(z, theta, lam), dtype=float)
        if val.shape != (self.p,) or not np.all(np.isfinite(val)):
            raise EvaluationError(
                f"phi returned shape {val.shape} or non-finite values"
            )
        return val

    def clip_theta(self, theta):
        if self.theta_domain is None:
            return np.asarray(theta, dtype=float)
        return np.clip(theta, self.theta_domain[:, 0], self.theta_domain[:, 1])

    def theta_in_domain(self, theta, tol=0.0):
        if self.theta_domain is None:
            return True
        return bool(
            np.all(theta >= self.theta_domain[:, 0] - tol)
            and np.all(theta <= self.theta_domain[:, 1] + tol)
        )


@dataclass
class LossSpec:
    """Loss psi: (z, theta) -> scalar with gradient and Hessian in theta.

    Batch slots:
      psi_batch(Z, th)      -> (n,)
      grad_psi_batch(Z, th) -> (n, p)
      psi_rowwise(Z, Th)    -> (n,)  psi(Z[i], Th[i]) with a per-row theta matrix

    Fallback policy for slots left as None, as for ModelSpec: a missing
    derivative is a central difference of psi, and a missing batch slot
    stacks the per-row slot over the rows, with psi values going through
    eval_psi's finiteness check.
    """

    psi: Callable
    grad_psi: Optional[Callable] = None
    hess_psi: Optional[Callable] = None
    psi_batch: Optional[Callable] = None
    grad_psi_batch: Optional[Callable] = None
    psi_rowwise: Optional[Callable] = None

    def __post_init__(self):
        if self.grad_psi is None:
            self.grad_psi = lambda z, th: numdiff.gradient(
                lambda t: float(self.psi(z, t)), th
            )
        if self.hess_psi is None:
            self.hess_psi = lambda z, th: numdiff.hessian(
                lambda t: float(self.psi(z, t)), th
            )
        if self.psi_batch is None:
            self.psi_batch = lambda Z, th: _stack_rows(self.eval_psi(z, th) for z in Z)
        if self.grad_psi_batch is None:
            self.grad_psi_batch = lambda Z, th: _stack_rows(self.grad_psi(z, th) for z in Z)
        if self.psi_rowwise is None:
            self.psi_rowwise = lambda Z, Th: _stack_rows(
                self.eval_psi(z, t) for z, t in zip(Z, Th)
            )

    def eval_psi(self, z, theta):
        val = float(self.psi(z, theta))
        if not np.isfinite(val):
            raise EvaluationError("psi returned a non-finite value")
        return val


# ---------------------------------------------------------------------------
# Batched empirical means used throughout the solver and variance code.
# ---------------------------------------------------------------------------

def phi_matrix(model: ModelSpec, Z: np.ndarray, theta, lam) -> np.ndarray:
    """(n, p) matrix of per-row phi values."""
    out = np.asarray(model.phi_batch(Z, theta, lam), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("phi produced non-finite values")
    return out


def phi_mean(model: ModelSpec, Z: np.ndarray, theta, lam) -> np.ndarray:
    return phi_matrix(model, Z, theta, lam).mean(axis=0)


def jac_theta_mean(model: ModelSpec, Z: np.ndarray, theta, lam) -> np.ndarray:
    """(p, p) empirical mean of d phi / d theta."""
    return np.asarray(model.dphi_dtheta_batch(Z, theta, lam), dtype=float).mean(axis=0)


def jac_lambda_mean(model: ModelSpec, Z: np.ndarray, theta, lam) -> np.ndarray:
    """(p, q) empirical mean of d phi / d lambda."""
    return np.asarray(model.dphi_dlambda_batch(Z, theta, lam), dtype=float).mean(axis=0)


def psi_values(loss: LossSpec, Z: np.ndarray, theta) -> np.ndarray:
    vals = np.asarray(loss.psi_batch(Z, theta), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("psi produced non-finite values")
    return vals


def grad_psi_matrix(loss: LossSpec, Z: np.ndarray, theta) -> np.ndarray:
    return np.asarray(loss.grad_psi_batch(Z, theta), dtype=float)


def psi_rowwise_values(loss: LossSpec, Z: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """psi(Z[i], thetas[i]) for every row."""
    return np.asarray(loss.psi_rowwise(Z, thetas), dtype=float)
