"""Newton solver for the estimating equation and its implicit lambda-derivative."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainEscape, EvaluationError, NoConvergence, SingularJacobian
from .model import SLOT_SHAPES, Dataset, ModelSpec, _checked, row_mean, slot_values

MAX_ITER = 100
MAX_HALVINGS = 40
ARMIJO = 1e-4
COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolveResult:
    """Root of the empirical estimating equation at a fixed tuning vector.

    Phi is the (n, p) per-row phi matrix at the root and J_hat minus the
    mean theta-Jacobian there, for the rows Z that were solved on: the F
    and -S / n of the phi_jac_sum call that the solver made at its last
    accepted iterate. For the built-in models and the fallback pair, Phi is
    slot_values(model, "phi_batch", Z, theta_hat, lam) bit for bit.
    Criteria that take a solve read them instead of evaluating phi again,
    so a SolveResult passed along with a dataset must be the root of the
    same model on that dataset.
    """

    theta_hat: np.ndarray
    lam: np.ndarray
    iterations: int
    residual_norm: float
    J_hat: np.ndarray  # minus the empirical theta-Jacobian at the root
    Phi: np.ndarray  # (n, p) per-row phi at the root


def default_tol(theta_init) -> float:
    # 1e-10 * (1 + ||theta_init||_2): np.linalg.norm's formula, sqrt(x @ x)
    t = np.asarray(theta_init, dtype=float).ravel()
    return 1e-10 * (1.0 + math.sqrt(t @ t))


def checked_inv(A, label):
    """A^-1; SingularJacobian unless A is finite with cond(A) <= COND_LIMIT.

    label names the matrix in the error message. A^-1 is np.linalg.inv(A),
    bitwise np.linalg.solve(A, np.eye(len(A))), and the check screens with
    it: ||A||_F ||A^-1||_F bounds cond_2(A) from above, so a bound at most
    COND_LIMIT / 10 passes without an SVD (well_conditioned screens a stack
    by a determinant instead, as its callers need no inverse).
    The inverse comes first, and each norm is np.linalg.norm's formula,
    sqrt(a @ a) over the entries. A NaN or infinite entry makes the bound
    NaN or inf, whether np.linalg.inv raises on A or returns NaN or finite
    entries, and a matrix that np.linalg.inv finds exactly singular gets
    bound inf. Only a matrix that fails the screen runs the finiteness
    check, which raises "has non-finite entries", and then the SVD test
    np.linalg.cond(A) <= COND_LIMIT, which decides and puts its condition
    number in the message.
    """
    A = np.asarray(A, dtype=float)
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        Ainv, bound = None, math.inf
    else:
        # Python floats: an overflowing product is inf (or nan), not a warning
        a, b = A.ravel("K"), Ainv.ravel("K")
        bound = math.sqrt(a @ a) * math.sqrt(b @ b)
    if not bound <= COND_LIMIT / 10:
        if not np.isfinite(A).all():
            raise SingularJacobian(f"{label} has non-finite entries")
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularJacobian(f"{label} condition number {cond:.3e} exceeds 1e12")
    # None only when LU meets an exact zero pivot in a matrix the SVD test
    # passes: inv raises LinAlgError again, as a solve against A would
    return np.linalg.inv(A) if Ainv is None else Ainv


def checked_solve(A, rhs, label):
    """Solve A x = rhs; SingularJacobian unless A is finite with cond(A) <= COND_LIMIT.

    The check is checked_inv's, in its order: the inverse and its screen
    first, the finiteness check and the SVD test only for a matrix that
    fails the screen. x is np.linalg.solve(A, rhs), not the inverse times
    rhs, whose rounding differs.
    """
    checked_inv(A, label)
    return np.linalg.solve(A, rhs)


def _newton(model: ModelSpec, Z: np.ndarray, lam, theta_init, tol) -> SolveResult:
    """Damped Newton iteration from theta_init, with an Armijo line search.

    One phi_jac_sum call per evaluated iterate: at the start and at each
    line-search candidate, rejected ones included. The accepted iterate's
    (F, S) give the residual, the next step's Jacobian S / n and, at the
    root, SolveResult.Phi = F and J_hat = -(S / n), so no slot is called
    again at theta_hat. The mean residual is row_mean's formula, inlined.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    theta = model.clip_theta(np.asarray(theta_init, dtype=float).copy())
    # F, S: the per-row phi and the summed theta-Jacobian of the current iterate
    F, S = slot_values(model, "phi_jac_sum", Z, theta, lam)
    n = len(Z)
    Phi = F.sum(axis=0) / n
    fval = float(Phi @ Phi)
    it = 0
    for it in range(1, MAX_ITER + 1):
        if math.sqrt(fval) <= tol:
            it -= 1
            break
        step = -checked_solve(S / n, Phi, "Jacobian")
        accepted = False
        projected = False
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + t * step
            if not model.theta_in_domain(cand):
                cand = model.clip_theta(cand)
                projected = True
            F_c, S_c = slot_values(model, "phi_jac_sum", Z, cand, lam)
            Phi_c = F_c.sum(axis=0) / n
            f_c = float(Phi_c @ Phi_c)
            # Newton direction: directional derivative of ||Phi||^2 is -2 fval.
            if f_c <= fval * (1.0 - 2.0 * ARMIJO * t):
                theta, F, S, Phi, fval = cand, F_c, S_c, Phi_c, f_c
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if projected:
                raise DomainEscape(
                    "iterate left theta_domain and projection did not reduce the residual"
                )
            break
    residual = math.sqrt(fval)
    if residual > tol:
        raise NoConvergence(f"Newton stalled at residual {residual:.3e} > tol {tol:.3e}")
    J_hat = -(S / n)
    if not np.isfinite(J_hat).all():
        raise SingularJacobian("empirical Jacobian has non-finite entries")
    return SolveResult(theta, lam, it, residual, J_hat, F)


def solve_theta(model: ModelSpec, data: Dataset, lam, theta_init) -> SolveResult:
    """Solve mean_i phi(Z_i, theta, lam) = 0 by damped Newton iteration,
    to the residual default_tol(theta_init)."""
    return _newton(model, data.rows, lam, theta_init, default_tol(theta_init))


def theta_prime(model: ModelSpec, data: Dataset, solve: SolveResult) -> np.ndarray:
    """Implicit-function-theorem derivative of lambda -> theta_hat(lambda), (p, q)."""
    dlam = row_mean(
        slot_values(model, "dphi_dlambda_batch", data.rows, solve.theta_hat, solve.lam)
    )
    return checked_solve(solve.J_hat, dlam, "Jacobian")


def pinned_influences(solve: SolveResult) -> np.ndarray:
    """(n, p) rows J_hat^{-1} phi_i of the root's per-row phi, solve.Phi: the
    influence of each row on theta_hat at the fixed lambda.

    J_hat^{-1} is the inverse that checked_inv's condition check forms,
    applied to the rows by one matrix product. A solve with the n rows as
    right-hand sides gives the same rows to roundoff (about 1e-16 relative),
    but its LAPACK time grows with n and was most of a loocv_fast call.
    """
    Jinv = checked_inv(solve.J_hat, "J_hat")
    return solve.Phi @ Jinv.T


def well_conditioned(A) -> np.ndarray:
    """(m,) bool for an (m, p, p) stack: cond_2(A[j]) <= COND_LIMIT and finite.

    The same decision as the SVD test np.linalg.cond(A) <= COND_LIMIT, with
    fewer SVDs. For a p x p matrix, 1 / sigma_p = prod_{i<p} sigma_i / |det A|
    and, by AM-GM, prod_{i<p} sigma_i <= (||A||_F^2 / (p-1))^((p-1)/2), so
    cond_2(A) <= ||A||_F^p / ((p-1)^((p-1)/2) |det A|); ||A||_F^p / |det A|
    is 1 / |det(A / ||A||_F)|, and scaling first keeps the determinant in
    range. A matrix whose bound is at most COND_LIMIT / 10 passes without an
    SVD, a non-finite one fails without one, and every other one, an exactly
    singular one (det 0) included, takes the SVD test. One np.linalg.det
    call screens the stack. AM-GM is tight only for equal singular values,
    so a spread spectrum takes the SVD: with singular values log-spaced from
    1 to cond, the bound is 5.5e11 at p = 7, cond 1e4, and 1.0e12 (p = 20)
    and 3.3e22 (p = 40) at cond 1e2, where checked_inv's Frobenius bound
    ||A||_F ||A^-1||_F reads 1.1e4, 2.6e2 and 4.8e2.
    """
    p = A.shape[-1]
    with np.errstate(all="ignore"):
        scaled = A / np.linalg.norm(A, axis=(1, 2))[:, None, None]
        ok = 1.0 / np.abs(np.linalg.det(scaled)) / (p - 1) ** ((p - 1) / 2) <= COND_LIMIT / 10
    if not ok.all():
        svd = ~ok & np.isfinite(A).all(axis=(1, 2))
        cond = np.linalg.cond(A[svd])
        ok[svd] = np.isfinite(cond) & (cond <= COND_LIMIT)
    return ok


def _loo_means(model: ModelSpec, slot: str, Z, Th, rows, lam) -> np.ndarray:
    """Leave-one-out means of the sum slot phi_loo_sum ((k, p) residuals
    Phi_i(Th[j])) or jac_loo_sum ((k, p, p) Jacobians A_i(Th[j])), i = rows[j].

    One slot call with every problem, none for k = 0; the slot bounds its
    own temporaries. If the call raises EvaluationError, the problems are
    evaluated again one theta at a time, and a theta that raises gets NaN.
    A non-finite phi gives a non-finite result either way. This is the one
    slot call outside slot_values, whose shape check (model._checked) runs
    outside the retry, so a wrong-shaped slot aborts instead of making
    every theta NaN.
    """
    want = SLOT_SHAPES[slot](Z, Th, model)

    def call(js):
        try:
            got = getattr(model, slot)(Z, Th[js], rows[js], lam)
        except EvaluationError:
            if len(js) == 1:
                return np.full((1,) + want[1:], np.nan)
            return np.concatenate([call(js[j:j + 1]) for j in range(len(js))])
        return _checked(slot, got, (len(js),) + want[1:], False)

    out = call(np.arange(len(Th))) if len(Th) else np.empty(want)
    return out / (len(Z) - 1)


def solve_loo_all(model: ModelSpec, data: Dataset, solve: SolveResult):
    """All n leave-one-out roots by one batched Newton iteration from theta_hat.

    Problem i solves Phi_i(theta) = (sum_{j != i} phi_j(theta)) / (n-1) = 0,
    with Jacobian A_i(theta) = (sum_{j != i} G_j(theta)) / (n-1) for
    G = d phi / d theta. The root's per-row phi, solve.Phi, and one G
    evaluation at theta_hat give every problem its first residual and its
    Jacobian A_i, so solve must be the root of model on data. Each step is
    one batched condition check (well_conditioned, a determinant screen
    that leaves only the matrices it cannot clear to the SVD) and one
    batched solve over the active problems; then every problem's residual
    is evaluated exactly at its new iterate by one phi_loo_sum call, and
    the Armijo and convergence tests run on all of them at once (the sum
    slots bound their own temporaries). After its first step, a problem
    whose residual is at most sqrt(tol) takes its next step with the
    Taylor Jacobian A_i(theta_hat) + H_i[theta - theta_hat] when that is
    finite, where H_i = (sum_j H_j - H_i) / (n-1) comes from one
    hess_phi_theta evaluation at theta_hat, made only if some problem takes
    such a step. Every other Jacobian is evaluated exactly at its iterate,
    by one jac_loo_sum call per step.

    The rules of the per-row Newton solve hold for each problem, whichever
    Jacobian its step used: tolerance tol = default_tol(theta_hat), at most
    MAX_ITER steps, a step accepted only if it passes the Armijo test at
    t = 1. A problem whose Jacobian fails the condition test or is non-finite
    or raises EvaluationError, whose step leaves theta_domain, whose phi is
    non-finite or raises EvaluationError, or whose step fails the Armijo
    test leaves the batch; no problem aborts the others.

    Returns (thetas (n, p), converged (n,) bool); rows not converged are NaN
    and are left to the per-row solve_loo.
    """
    Z, lam, theta_hat = data.rows, solve.lam, solve.theta_hat
    n = data.n
    if n < 3:
        raise ValueError("leave-one-out refits need n >= 3")
    tol = default_tol(theta_hat)

    F = solve.Phi
    G = slot_values(model, "dphi_dtheta_batch", Z, theta_hat, lam)
    Phi = (F.sum(axis=0) - F) / (n - 1)
    A = (G.sum(axis=0) - G) / (n - 1)
    alive = np.all(np.isfinite(A), axis=(1, 2))
    thetas = np.tile(theta_hat, (n, 1))
    fval = np.einsum("ij,ij->i", Phi, Phi)
    for it in range(MAX_ITER):
        act = np.flatnonzero(alive & (np.sqrt(fval) > tol))
        if act.size == 0:
            break
        well = well_conditioned(A[act])
        alive[act[~well]] = False
        act = act[well]
        cands = thetas[act] - np.linalg.solve(A[act], Phi[act][:, :, None])[:, :, 0]
        inside = model.theta_in_domain(cands)
        alive[act[~inside]] = False
        act, cands = act[inside], cands[inside]
        Phi_c = _loo_means(model, "phi_loo_sum", Z, cands, act, lam)
        # a (1, p) @ (p, 1) matmul rounds as the dot product Phi_c[j] @ Phi_c[j]
        f_c = np.matmul(Phi_c[:, None, :], Phi_c[:, :, None])[:, 0, 0]
        # False for a NaN or infinite residual
        accepted = f_c <= fval[act] * (1.0 - 2.0 * ARMIJO)
        alive[act[~accepted]] = False
        act = act[accepted]
        thetas[act], Phi[act], fval[act] = cands[accepted], Phi_c[accepted], f_c[accepted]
        act = act[np.sqrt(fval[act]) > tol]
        # near: the residual is at most sqrt(tol) after the first step
        is_near = (fval[act] <= tol) & (it == 0)
        near, evaluate = act[is_near], act[~is_near]
        if near.size:
            H = slot_values(model, "hess_phi_theta", Z, theta_hat, lam)
            H = (H.sum(axis=0) - H) / (n - 1)
            # A still holds A_i(theta_hat); a non-finite H_i makes it non-finite
            step = (thetas[near] - theta_hat)[:, None, :, None]
            taylor = A[near] + np.matmul(H[near], step)[..., 0]
            finite = np.all(np.isfinite(taylor), axis=(1, 2))
            A[near[finite]] = taylor[finite]
            evaluate = np.concatenate([evaluate, near[~finite]])
        A[evaluate] = _loo_means(model, "jac_loo_sum", Z, thetas[evaluate], evaluate, lam)
        alive[evaluate] = np.all(np.isfinite(A[evaluate]), axis=(1, 2))
    converged = alive & (np.sqrt(fval) <= tol)
    thetas[~converged] = np.nan
    return thetas, converged


def solve_loo(model: ModelSpec, data: Dataset, lam, i: int, warm_start) -> SolveResult:
    """Refit on the n-1 rows excluding row i, warm-started (typically at theta_hat).

    The per-row fallback of loocv_exact for the rows solve_loo_all did not
    converge: a full damped Newton solve on a copy of the data without row i.
    """
    if data.n < 3:
        raise ValueError("leave-one-out refits need n >= 3")
    if not (0 <= i < data.n):
        raise IndexError(f"row index {i} out of range")
    Z = np.delete(data.rows, i, axis=0)
    return _newton(model, Z, lam, warm_start, default_tol(warm_start))
