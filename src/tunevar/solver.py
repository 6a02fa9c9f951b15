"""Newton solver for the estimating equation and its implicit lambda-derivative."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainEscape, NoConvergence, SingularJacobian
from .model import Dataset, ModelSpec, jac_lambda_mean, jac_theta_mean, phi_mean

MAX_ITER = 100
MAX_HALVINGS = 40
ARMIJO = 1e-4
COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolveResult:
    """Root of the empirical estimating equation at a fixed tuning vector."""

    theta_hat: np.ndarray
    lam: np.ndarray
    iterations: int
    residual_norm: float
    J_hat: np.ndarray  # minus the empirical theta-Jacobian at the root


def default_tol(theta_init) -> float:
    return 1e-10 * (1.0 + float(np.linalg.norm(theta_init)))


def checked_solve(A, rhs, label):
    """Solve A x = rhs; SingularJacobian if cond(A) is non-finite or above COND_LIMIT.

    label names the matrix in the error message. Pass np.eye(len(A)) as rhs
    for a checked inverse.
    """
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularJacobian(f"{label} condition number {cond:.3e} exceeds 1e12")
    return np.linalg.solve(A, rhs)


def _newton(model: ModelSpec, Z: np.ndarray, lam, theta_init, tol) -> SolveResult:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    theta = model.clip_theta(np.asarray(theta_init, dtype=float).copy())
    Phi = phi_mean(model, Z, theta, lam)
    fval = float(Phi @ Phi)
    it = 0
    for it in range(1, MAX_ITER + 1):
        if np.sqrt(fval) <= tol:
            it -= 1
            break
        Jm = jac_theta_mean(model, Z, theta, lam)
        step = -checked_solve(Jm, Phi, "Jacobian")
        accepted = False
        projected = False
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + t * step
            if not model.theta_in_domain(cand):
                cand = model.clip_theta(cand)
                projected = True
            Phi_c = phi_mean(model, Z, cand, lam)
            f_c = float(Phi_c @ Phi_c)
            # Newton direction: directional derivative of ||Phi||^2 is -2 fval.
            if f_c <= fval * (1.0 - 2.0 * ARMIJO * t):
                theta, Phi, fval = cand, Phi_c, f_c
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if projected:
                raise DomainEscape(
                    "iterate left theta_domain and projection did not reduce the residual"
                )
            break
    residual = float(np.sqrt(fval))
    if residual > tol:
        raise NoConvergence(
            f"Newton stalled at residual {residual:.3e} > tol {tol:.3e}",
            residual_norm=residual,
            theta=theta,
        )
    J_hat = -jac_theta_mean(model, Z, theta, lam)
    if not np.all(np.isfinite(J_hat)):
        raise SingularJacobian("empirical Jacobian has non-finite entries")
    return SolveResult(theta, lam, it, residual, J_hat)


def solve_theta(model: ModelSpec, data: Dataset, lam, theta_init, tol=None) -> SolveResult:
    """Solve mean_i phi(Z_i, theta, lam) = 0 by damped Newton iteration."""
    if tol is None:
        tol = default_tol(theta_init)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _newton(model, data.rows, lam, theta_init, tol)


def theta_prime(model: ModelSpec, data: Dataset, solve: SolveResult) -> np.ndarray:
    """Implicit-function-theorem derivative of lambda -> theta_hat(lambda), (p, q)."""
    dlam = jac_lambda_mean(model, data.rows, solve.theta_hat, solve.lam)
    return checked_solve(solve.J_hat, dlam, "Jacobian")


def solve_loo(model: ModelSpec, data: Dataset, lam, i: int, warm_start, tol=None) -> SolveResult:
    """Refit on the n-1 rows excluding row i, warm-started (typically at theta_hat)."""
    if data.n < 3:
        raise ValueError("leave-one-out refits need n >= 3")
    if not (0 <= i < data.n):
        raise IndexError(f"row index {i} out of range")
    if tol is None:
        tol = default_tol(warm_start)
    Z = np.delete(data.rows, i, axis=0)
    return _newton(model, Z, lam, warm_start, tol)
