"""Risk criteria evaluated at a fixed tuning vector lambda.

Implements the training error, exact and influence-approximated leave-one-out
cross-validation, the trace-corrected training error, a seeded holdout
criterion, and the AIC/BIC/TIC information criteria.

Exact LOOCV solves the n leave-one-out problems together by the batched
Newton iteration of solver.solve_loo_all, which describes it; a row that
the batch rejects or does not converge falls back to the per-row refit
solver.solve_loo.

Sign conventions (with J_hat = minus the empirical theta-Jacobian of Phi_n):
  theta_hat_(-i) ~= theta_hat - (1/n) J_hat^{-1} phi(Z_i, theta_hat, lam)
  CV ~= TE - (1/n) Tr(J_hat^{-1} C_hat),  C_hat = (1/n) sum_i phi_i grad_psi_i'
Both are fixed by the exact hat-matrix identity in the ridge linear case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .exceptions import RefitFailure, TunevarError
from .model import Dataset, LossSpec, ModelSpec, slot_values
from .rng import fisher_yates_permutation
from .solver import (
    SolveResult, checked_solve, pinned_influences, solve_loo, solve_loo_all, solve_theta,
)


class Method(enum.Enum):
    TE = "te"
    CV_EXACT = "cv"
    CV_FAST = "cv_fast"
    TE_TRACE_CORRECTED = "te_trace"
    HOLDOUT = "holdout"
    AIC = "aic"
    BIC = "bic"
    TIC = "tic"


@dataclass(frozen=True)
class CriterionValue:
    """One criterion evaluation: the value, the method tag, and diagnostics."""

    value: float
    method: Method
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise TunevarError(f"{self.method.value} produced a non-finite value")


def _fit(model, data, lam, solve, start):
    """solve if given, else the root at lam from start.

    ValueError when the given solve was made at another lambda than lam: the
    criterion reads its values from the solve, so it would report that
    lambda's value under lam.
    """
    if solve is None:
        return solve_theta(model, data, lam, start)
    if not np.array_equal(solve.lam, np.atleast_1d(lam)):
        raise ValueError(f"solve was made at lambda = {solve.lam}, not at {np.atleast_1d(lam)}")
    return solve


def _trace_term(solve: SolveResult, G) -> float:
    """(1/n) Tr(J_hat^{-1} M) with M = (1/n) sum_i phi_i G_i' over the n rows,
    phi_i = solve.Phi[i].

    G = grad_psi gives the trace correction of te_trace_corrected (M = C_hat),
    G = solve.Phi the TIC penalty (M = K_hat).
    """
    Phi = solve.Phi
    n = len(Phi)
    return float(np.trace(checked_solve(solve.J_hat, Phi.T @ G / n, "J_hat"))) / n


def training_error(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    solve: Optional[SolveResult] = None,
) -> CriterionValue:
    """TE(lam) = mean_i psi(Z_i, theta_hat(lam))."""
    solve = _fit(model, data, lam, solve, model.theta_init)
    value = float(slot_values(loss, "psi_batch", data.rows, solve.theta_hat).mean())
    return CriterionValue(value, Method.TE)


def loocv_exact(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    theta_init=None, solve: Optional[SolveResult] = None,
) -> CriterionValue:
    """CV(lam): refit without each row in turn and average the held-out loss.

    All n refits are solved together from theta_hat(lam) by
    solver.solve_loo_all, whose docstring gives the iteration and the slots
    it calls. It takes phi at theta_hat from the root's solve.Phi, so a
    given solve must be the root of model on data.
    A row it rejects or does not converge falls back to the per-row
    solve_loo, warm-started at theta_hat and retried once from theta_init,
    the tuner's warm start (else model.theta_init, which also starts
    theta_hat(lam) when no solve is given), before being counted as failed.
    More than 1% failed rows aborts.
    Diagnostics: refit_fallbacks counts the rows that took the per-row path,
    refit_failures the rows that failed on it.
    """
    start = model.theta_init if theta_init is None else theta_init
    solve = _fit(model, data, lam, solve, start)
    thetas, ok = solve_loo_all(model, data, solve)
    fallbacks = np.flatnonzero(~ok)
    for i in fallbacks:
        try:
            res = solve_loo(model, data, solve.lam, i, warm_start=solve.theta_hat)
        except TunevarError:
            try:
                res = solve_loo(model, data, solve.lam, i, warm_start=start)
            except TunevarError:
                continue
        thetas[i] = res.theta_hat
        ok[i] = True
    failed = np.flatnonzero(~ok).tolist()
    if len(failed) > 0.01 * data.n:
        raise RefitFailure(
            f"{len(failed)} of {data.n} leave-one-out refits failed",
            failed_indices=failed,
        )
    value = float(slot_values(loss, "psi_rowwise", data.rows[ok], thetas[ok]).mean())
    return CriterionValue(
        value, Method.CV_EXACT,
        {"refit_failures": float(len(failed)), "refit_fallbacks": float(len(fallbacks))},
    )


def loocv_fast(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    solve: Optional[SolveResult] = None,
) -> CriterionValue:
    """Influence-approximated CV: no refits.

    Each leave-one-out estimate is approximated by one influence step,
    theta_hat - (1/n) J_hat^{-1} phi(Z_i, theta_hat, lam), and psi is averaged
    at the approximated points. The phi values are the root's solve.Phi, so
    a given solve must be the root of model on data; no phi is evaluated.

    The steps are solver.pinned_influences(solve) / n: one checked inverse
    of J_hat applied to the n rows of solve.Phi by a matrix product. That is
    cheaper than a solve with the n rows as right-hand sides, whose LAPACK
    time grows with n, and agrees with it to roundoff, not bitwise. The
    average is psi's sum over n, the formula of numpy's mean, bit for bit.
    """
    solve = _fit(model, data, lam, solve, model.theta_init)
    n = data.n
    thetas = solve.theta_hat[None, :] - pinned_influences(solve) / n  # (n, p)
    value = float(slot_values(loss, "psi_rowwise", data.rows, thetas).sum() / n)
    return CriterionValue(value, Method.CV_FAST)


def te_trace_corrected(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    solve: Optional[SolveResult] = None,
) -> CriterionValue:
    """TE(lam) - (1/n) Tr(J_hat^{-1} C_hat), the first-order CV surrogate.

    C_hat takes its phi values from the root's solve.Phi, so a given solve
    must be the root of model on data; no phi is evaluated.
    """
    solve = _fit(model, data, lam, solve, model.theta_init)
    te = float(slot_values(loss, "psi_batch", data.rows, solve.theta_hat).mean())
    corr = _trace_term(solve, slot_values(loss, "grad_psi_batch", data.rows, solve.theta_hat))
    return CriterionValue(te - corr, Method.TE_TRACE_CORRECTED, {"trace_correction": corr})


def holdout_error(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    split: float = 0.5, seed: int = 0, theta_init=None,
) -> CriterionValue:
    """Fit on one seeded-shuffle part, evaluate mean psi on the other.

    The shuffled rows are split at floor(split * n); the first part is the
    tuning (evaluation) part, the rest is the estimation part.
    """
    if not 0.0 < split < 1.0:
        raise ValueError("split must be in (0, 1)")
    perm = fisher_yates_permutation(data.n, seed)
    n1 = int(np.floor(split * data.n))
    if n1 < model.p + 1 or data.n - n1 < model.p + 1:
        raise ValueError("both split parts need at least p + 1 rows")
    tune_part = data.take(perm[:n1])
    est_part = data.take(perm[n1:])
    if theta_init is None:
        theta_init = model.theta_init
    res = solve_theta(model, est_part, lam, theta_init)
    value = float(slot_values(loss, "psi_batch", tune_part.rows, res.theta_hat).mean())
    return CriterionValue(
        value, Method.HOLDOUT,
        {"n_tune": float(n1), "n_est": float(data.n - n1), "seed": float(seed)},
    )


def info_criterion(
    model: ModelSpec, loss: LossSpec, data: Dataset, lam, kind: Method,
    solve: Optional[SolveResult] = None,
) -> CriterionValue:
    """AIC / BIC / TIC for likelihood models.

    Contract: phi is the score of a log-density and psi = -log f, so the mean
    of psi at theta_hat is minus the scaled log-likelihood. The caller asserts
    this; it is not checkable here. TIC's penalty reads the root's per-row
    phi, solve.Phi, so a given solve must be the root of model on data.
    """
    if kind not in (Method.AIC, Method.BIC, Method.TIC):
        raise ValueError("kind must be one of Method.AIC, Method.BIC, Method.TIC")
    solve = _fit(model, data, lam, solve, model.theta_init)
    neg_loglik = float(slot_values(loss, "psi_batch", data.rows, solve.theta_hat).mean())
    n, p = data.n, model.p
    diagnostics: Dict[str, float] = {}
    if kind is Method.AIC:
        penalty = p / n
    elif kind is Method.BIC:
        penalty = p * np.log(n) / n
    else:
        penalty = _trace_term(solve, solve.Phi)
        diagnostics["trace_correction"] = penalty
    return CriterionValue(neg_loglik + penalty, kind, diagnostics)


def evaluate_criterion(
    method: Method, model: ModelSpec, loss: LossSpec, data: Dataset, lam,
    theta_init=None, solve: Optional[SolveResult] = None,
    split: float = 0.5, seed: int = 0,
) -> CriterionValue:
    """Dispatch a single criterion evaluation; used by the tuner and the CLI.
    Only loocv_exact and holdout_error read theta_init."""
    if method is Method.TE:
        return training_error(model, loss, data, lam, solve)
    if method is Method.CV_EXACT:
        return loocv_exact(model, loss, data, lam, theta_init, solve)
    if method is Method.CV_FAST:
        return loocv_fast(model, loss, data, lam, solve)
    if method is Method.TE_TRACE_CORRECTED:
        return te_trace_corrected(model, loss, data, lam, solve)
    if method is Method.HOLDOUT:
        return holdout_error(model, loss, data, lam, split=split, seed=seed,
                             theta_init=theta_init)
    return info_criterion(model, loss, data, lam, method, solve)
