"""Built-in estimating-function models, losses, and closed-form test oracles.

Rows are laid out as (response, covariates...) unless response_col says
otherwise. Regression models augment the covariate vector with a leading
intercept; the intercept is never penalized by default.

Penalty convention: the logistic objective is sum_i loglik_i - n * lam * |beta_1:|^2,
so the per-observation estimating function carries lam (not n*lam). The tuned
lam is therefore small, and n * lam is the "actual" penalty size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import EvaluationError, SchemaError
from .model import Dataset, LossSpec, ModelSpec, read_numeric_csv


def _split_xy(Z: np.ndarray, response_col: int):
    y = Z[:, response_col]
    x = np.delete(Z, response_col, axis=1)
    return y, x


def _design(Z: np.ndarray, response_col: int):
    y, x = _split_xy(Z, response_col)
    X = np.column_stack([np.ones(len(y)), x])
    return y, X


def default_penalty_mask(p: int) -> np.ndarray:
    mask = np.ones(p)
    mask[0] = 0.0
    return mask


def _expit(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# Ridge linear regression: phi is the gradient of the penalized squared error.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeLinearModel:
    """phi(z, beta, lam) = -2 x~ (y - beta' x~) + 2 lam P beta."""

    n_covariates: int
    response_col: int = 0
    penalty_mask: Optional[np.ndarray] = None
    lambda_domain: tuple = (0.0, 1.0)

    @property
    def p(self) -> int:
        return self.n_covariates + 1

    def mask(self) -> np.ndarray:
        if self.penalty_mask is None:
            return default_penalty_mask(self.p)
        return np.asarray(self.penalty_mask, dtype=float)

    def spec(self) -> ModelSpec:
        p = self.p
        P = np.diag(self.mask())
        rc = self.response_col

        def row_design(z):
            z = np.asarray(z, dtype=float)
            y = z[rc]
            x = np.delete(z, rc)
            return y, np.concatenate([[1.0], x])

        def phi(z, th, lm):
            y, xt = row_design(z)
            return -2.0 * xt * (y - th @ xt) + 2.0 * float(lm[0]) * (P @ th)

        def dphi_dtheta(z, th, lm):
            _, xt = row_design(z)
            return 2.0 * np.outer(xt, xt) + 2.0 * float(lm[0]) * P

        def dphi_dlambda(z, th, lm):
            return (2.0 * (P @ th)).reshape(p, 1)

        def hess_phi_theta(z, th, lm):
            return np.zeros((p, p, p))

        def dphi_dlambda_dtheta(z, th, lm):
            return (2.0 * P)[None, :, :]

        def phi_batch(Z, th, lm):
            y, X = _design(Z, rc)
            e = y - X @ th
            return -2.0 * X * e[:, None] + 2.0 * float(lm[0]) * (P @ th)

        def dphi_dtheta_batch(Z, th, lm):
            _, X = _design(Z, rc)
            return 2.0 * np.einsum("ni,nj->nij", X, X) + 2.0 * float(lm[0]) * P

        def dphi_dlambda_batch(Z, th, lm):
            base = (2.0 * (P @ th)).reshape(1, p, 1)
            return np.repeat(base, Z.shape[0], axis=0)

        return ModelSpec(
            p=p, q=1, d=self.n_covariates + 1,
            phi=phi, dphi_dtheta=dphi_dtheta, dphi_dlambda=dphi_dlambda,
            hess_phi_theta=hess_phi_theta, dphi_dlambda_dtheta=dphi_dlambda_dtheta,
            lambda_domain=np.array([self.lambda_domain]),
            phi_batch=phi_batch, dphi_dtheta_batch=dphi_dtheta_batch,
            dphi_dlambda_batch=dphi_dlambda_batch,
        )

    def squared_error_loss(self, weight_fn=None) -> LossSpec:
        """psi(z, beta) = w(x) (y - beta' x~)^2; w defaults to 1."""
        rc = self.response_col

        def weights(X):
            if weight_fn is None:
                return np.ones(X.shape[0])
            return np.asarray(weight_fn(X), dtype=float)

        def psi(z, th):
            y, X = _design(np.asarray(z, float)[None, :], rc)
            return float(weights(X)[0] * (y[0] - X[0] @ th) ** 2)

        def grad_psi(z, th):
            y, X = _design(np.asarray(z, float)[None, :], rc)
            return -2.0 * weights(X)[0] * X[0] * (y[0] - X[0] @ th)

        def hess_psi(z, th):
            _, X = _design(np.asarray(z, float)[None, :], rc)
            return 2.0 * weights(X)[0] * np.outer(X[0], X[0])

        def psi_batch(Z, th):
            y, X = _design(Z, rc)
            return weights(X) * (y - X @ th) ** 2

        def grad_psi_batch(Z, th):
            y, X = _design(Z, rc)
            return -2.0 * (weights(X) * (y - X @ th))[:, None] * X

        def psi_rowwise(Z, Th):
            y, X = _design(Z, rc)
            return weights(X) * (y - np.einsum("ni,ni->n", X, Th)) ** 2

        return LossSpec(
            psi=psi, grad_psi=grad_psi, hess_psi=hess_psi,
            psi_batch=psi_batch, grad_psi_batch=grad_psi_batch,
            psi_rowwise=psi_rowwise,
        )


# ---------------------------------------------------------------------------
# Ridge logistic regression: phi is the gradient of the penalized log-likelihood.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeLogisticModel:
    """phi(z, beta, lam) = x~ (y - p(x, beta)) - 2 lam P beta."""

    n_covariates: int
    response_col: int = 0
    penalty_mask: Optional[np.ndarray] = None
    lambda_domain: tuple = (0.0, 1.0)

    @property
    def p(self) -> int:
        return self.n_covariates + 1

    def mask(self) -> np.ndarray:
        if self.penalty_mask is None:
            return default_penalty_mask(self.p)
        return np.asarray(self.penalty_mask, dtype=float)

    def spec(self) -> ModelSpec:
        p = self.p
        P = np.diag(self.mask())
        rc = self.response_col

        def phi_batch(Z, th, lm):
            y, X = _design(Z, rc)
            pi = _expit(X @ th)
            return X * (y - pi)[:, None] - 2.0 * float(lm[0]) * (P @ th)

        def dphi_dtheta_batch(Z, th, lm):
            _, X = _design(Z, rc)
            w = _expit(X @ th)
            w = w * (1.0 - w)
            return -np.einsum("n,ni,nj->nij", w, X, X) - 2.0 * float(lm[0]) * P

        def dphi_dlambda_batch(Z, th, lm):
            base = (-2.0 * (P @ th)).reshape(1, p, 1)
            return np.repeat(base, Z.shape[0], axis=0)

        def phi(z, th, lm):
            return phi_batch(np.asarray(z, float)[None, :], th, lm)[0]

        def dphi_dtheta(z, th, lm):
            return dphi_dtheta_batch(np.asarray(z, float)[None, :], th, lm)[0]

        def dphi_dlambda(z, th, lm):
            return (-2.0 * (P @ th)).reshape(p, 1)

        def hess_phi_theta(z, th, lm):
            y, X = _design(np.asarray(z, float)[None, :], rc)
            xt = X[0]
            pi = float(_expit(np.atleast_1d(xt @ th))[0])
            w = pi * (1.0 - pi)
            core = -w * (1.0 - 2.0 * pi) * np.outer(xt, xt)
            return np.einsum("j,kl->jkl", xt, core)

        def dphi_dlambda_dtheta(z, th, lm):
            return (-2.0 * P)[None, :, :]

        return ModelSpec(
            p=p, q=1, d=self.n_covariates + 1,
            phi=phi, dphi_dtheta=dphi_dtheta, dphi_dlambda=dphi_dlambda,
            hess_phi_theta=hess_phi_theta, dphi_dlambda_dtheta=dphi_dlambda_dtheta,
            lambda_domain=np.array([self.lambda_domain]),
            phi_batch=phi_batch, dphi_dtheta_batch=dphi_dtheta_batch,
            dphi_dlambda_batch=dphi_dlambda_batch,
        )

    def brier_loss(self, predictor_covariates: Optional[Sequence[int]] = None) -> LossSpec:
        """psi(z, beta) = (y - expit(u' beta))^2 with u the masked design vector.

        predictor_covariates selects which covariates (0-based, in covariate
        order) enter the prediction; None means all. The intercept always
        enters. Coefficients of excluded covariates do not affect psi, which
        is how a loss can target a sub-model of the fitted one.
        """
        rc = self.response_col
        p = self.p
        sel = np.zeros(p)
        sel[0] = 1.0
        if predictor_covariates is None:
            sel[:] = 1.0
        else:
            for k in predictor_covariates:
                sel[1 + k] = 1.0

        def masked_design(Z):
            y, X = _design(Z, rc)
            return y, X * sel

        def psi_batch(Z, th):
            y, U = masked_design(Z)
            return (y - _expit(U @ th)) ** 2

        def grad_psi_batch(Z, th):
            y, U = masked_design(Z)
            pi = _expit(U @ th)
            return (-2.0 * (y - pi) * pi * (1.0 - pi))[:, None] * U

        def psi(z, th):
            return float(psi_batch(np.asarray(z, float)[None, :], th)[0])

        def grad_psi(z, th):
            return grad_psi_batch(np.asarray(z, float)[None, :], th)[0]

        def hess_psi(z, th):
            y, U = masked_design(np.asarray(z, float)[None, :])
            u = U[0]
            pi = float(_expit(np.atleast_1d(u @ th))[0])
            w = pi * (1.0 - pi)
            c = 2.0 * w * (w - (y[0] - pi) * (1.0 - 2.0 * pi))
            return c * np.outer(u, u)

        def psi_rowwise(Z, Th):
            y, U = masked_design(Z)
            return (y - _expit(np.einsum("ni,ni->n", U, Th))) ** 2

        return LossSpec(
            psi=psi, grad_psi=grad_psi, hess_psi=hess_psi,
            psi_batch=psi_batch, grad_psi_batch=grad_psi_batch,
            psi_rowwise=psi_rowwise,
        )


# ---------------------------------------------------------------------------
# Hybrid estimating function: lam * phi1 + (1 - lam) * phi2, lam in [0, 1].
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridModel:
    """Convex combination of two estimating functions sharing theta."""

    p: int
    d: int
    phi1: callable
    phi2: callable
    dphi1_dtheta: Optional[callable] = None
    dphi2_dtheta: Optional[callable] = None

    def spec(self) -> ModelSpec:
        base1 = ModelSpec(
            p=self.p, q=1, d=self.d,
            phi=lambda z, th, lm: np.asarray(self.phi1(z, th), float),
            dphi_dtheta=(
                None if self.dphi1_dtheta is None
                else lambda z, th, lm: np.asarray(self.dphi1_dtheta(z, th), float)
            ),
        )
        base2 = ModelSpec(
            p=self.p, q=1, d=self.d,
            phi=lambda z, th, lm: np.asarray(self.phi2(z, th), float),
            dphi_dtheta=(
                None if self.dphi2_dtheta is None
                else lambda z, th, lm: np.asarray(self.dphi2_dtheta(z, th), float)
            ),
        )
        zero_lam = np.zeros(1)

        def phi(z, th, lm):
            a = float(lm[0])
            return a * base1.phi(z, th, zero_lam) + (1.0 - a) * base2.phi(z, th, zero_lam)

        def dphi_dtheta(z, th, lm):
            a = float(lm[0])
            return a * base1.dphi_dtheta(z, th, zero_lam) + (1.0 - a) * base2.dphi_dtheta(
                z, th, zero_lam
            )

        def dphi_dlambda(z, th, lm):
            diff = base1.phi(z, th, zero_lam) - base2.phi(z, th, zero_lam)
            return np.asarray(diff, float).reshape(self.p, 1)

        def hess_phi_theta(z, th, lm):
            a = float(lm[0])
            return a * base1.hess_phi_theta(z, th, zero_lam) + (1.0 - a) * base2.hess_phi_theta(
                z, th, zero_lam
            )

        def dphi_dlambda_dtheta(z, th, lm):
            diff = base1.dphi_dtheta(z, th, zero_lam) - base2.dphi_dtheta(z, th, zero_lam)
            return np.asarray(diff, float)[None, :, :]

        return ModelSpec(
            p=self.p, q=1, d=self.d,
            phi=phi, dphi_dtheta=dphi_dtheta, dphi_dlambda=dphi_dlambda,
            hess_phi_theta=hess_phi_theta, dphi_dlambda_dtheta=dphi_dlambda_dtheta,
            lambda_domain=np.array([[0.0, 1.0]]),
        )


# ---------------------------------------------------------------------------
# Univariate Gaussian likelihood model, theta = (mu, sigma).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLikelihoodModel:
    """Score equations of a N(mu, sigma^2) likelihood; lam is inert (q=1)."""

    column: int = 0

    def spec(self) -> ModelSpec:
        c = self.column

        def phi_batch(Z, th, lm):
            mu, sg = th
            r = Z[:, c] - mu
            return np.column_stack([r / sg**2, -1.0 / sg + r**2 / sg**3])

        def dphi_dtheta_batch(Z, th, lm):
            mu, sg = th
            r = Z[:, c] - mu
            n = Z.shape[0]
            out = np.empty((n, 2, 2))
            out[:, 0, 0] = -1.0 / sg**2
            out[:, 0, 1] = -2.0 * r / sg**3
            out[:, 1, 0] = -2.0 * r / sg**3
            out[:, 1, 1] = 1.0 / sg**2 - 3.0 * r**2 / sg**4
            return out

        def phi(z, th, lm):
            return phi_batch(np.asarray(z, float)[None, :], th, lm)[0]

        def dphi_dtheta(z, th, lm):
            return dphi_dtheta_batch(np.asarray(z, float)[None, :], th, lm)[0]

        def dphi_dlambda(z, th, lm):
            return np.zeros((2, 1))

        def hess_phi_theta(z, th, lm):
            mu, sg = th
            r = float(np.asarray(z, float)[c]) - mu
            h1 = np.array([[0.0, 2.0 / sg**3], [2.0 / sg**3, 6.0 * r / sg**4]])
            h2 = np.array(
                [
                    [2.0 / sg**3, 6.0 * r / sg**4],
                    [6.0 * r / sg**4, -2.0 / sg**3 + 12.0 * r**2 / sg**5],
                ]
            )
            return np.stack([h1, h2])

        def dphi_dlambda_dtheta(z, th, lm):
            return np.zeros((1, 2, 2))

        def dphi_dlambda_batch(Z, th, lm):
            return np.zeros((Z.shape[0], 2, 1))

        return ModelSpec(
            p=2, q=1, d=max(1, c + 1),
            phi=phi, dphi_dtheta=dphi_dtheta, dphi_dlambda=dphi_dlambda,
            hess_phi_theta=hess_phi_theta, dphi_dlambda_dtheta=dphi_dlambda_dtheta,
            theta_domain=np.array([[-1e8, 1e8], [1e-6, 1e8]]),
            lambda_domain=np.array([[0.0, 1.0]]),
            theta_init=np.array([0.0, 1.0]),
            phi_batch=phi_batch, dphi_dtheta_batch=dphi_dtheta_batch,
            dphi_dlambda_batch=dphi_dlambda_batch,
        )

    def neg_loglik_loss(self) -> LossSpec:
        """psi = -log N(z; mu, sigma^2); its gradient is minus the score."""
        c = self.column
        half_log_2pi = 0.5 * np.log(2.0 * np.pi)

        def psi_batch(Z, th):
            mu, sg = th
            r = Z[:, c] - mu
            return np.log(sg) + r**2 / (2.0 * sg**2) + half_log_2pi

        def grad_psi_batch(Z, th):
            mu, sg = th
            r = Z[:, c] - mu
            return np.column_stack([-r / sg**2, 1.0 / sg - r**2 / sg**3])

        def psi(z, th):
            return float(psi_batch(np.asarray(z, float)[None, :], th)[0])

        def grad_psi(z, th):
            return grad_psi_batch(np.asarray(z, float)[None, :], th)[0]

        def hess_psi(z, th):
            mu, sg = th
            r = float(np.asarray(z, float)[c]) - mu
            return np.array(
                [
                    [1.0 / sg**2, 2.0 * r / sg**3],
                    [2.0 * r / sg**3, -1.0 / sg**2 + 3.0 * r**2 / sg**4],
                ]
            )

        def psi_rowwise(Z, Th):
            r = Z[:, c] - Th[:, 0]
            sg = Th[:, 1]
            return np.log(sg) + r**2 / (2.0 * sg**2) + half_log_2pi

        return LossSpec(
            psi=psi, grad_psi=grad_psi, hess_psi=hess_psi,
            psi_batch=psi_batch, grad_psi_batch=grad_psi_batch,
            psi_rowwise=psi_rowwise,
        )


# ---------------------------------------------------------------------------
# Closed-form ridge oracles (used by tests and the acceptance suite).
# ---------------------------------------------------------------------------

def ridge_closed_form(data: Dataset, lam: float, mask=None, response_col: int = 0) -> np.ndarray:
    """Direct solve of (mean x~ x~' + lam P) beta = mean x~ y."""
    y, X = _design(data.rows, response_col)
    p = X.shape[1]
    P = np.diag(default_penalty_mask(p) if mask is None else np.asarray(mask, float))
    A = X.T @ X / data.n + float(lam) * P
    if np.linalg.cond(A) > 1e12:
        raise EvaluationError("ridge system is rank deficient")
    return np.linalg.solve(A, X.T @ y / data.n)


def ridge_loocv_closed_form(data: Dataset, lam: float, mask=None, response_col: int = 0) -> float:
    """Exact hat-matrix identity for the leave-one-out squared error.

    The leave-one-out fit drops row i from the estimating equation, so the
    effective penalty of each reduced problem is (n-1) * lam. The identity
    e_{(-i)} = e_i / (1 - h_ii) therefore holds for the rank-one downdate of
    B = X'X + (n-1) * lam * P, not of the full-fit system.
    """
    y, X = _design(data.rows, response_col)
    n, p = X.shape
    P = np.diag(default_penalty_mask(p) if mask is None else np.asarray(mask, float))
    B = X.T @ X + (n - 1) * float(lam) * P
    Binv = np.linalg.inv(B)
    h = np.einsum("ni,ij,nj->n", X, Binv, X)
    if np.any(h >= 1.0):
        raise EvaluationError("leverage >= 1; leave-one-out identity breaks down")
    beta = Binv @ (X.T @ y)
    e = y - X @ beta
    return float(np.mean((e / (1.0 - h)) ** 2))


# ---------------------------------------------------------------------------
# Pima-style CSV ingestion.
# ---------------------------------------------------------------------------

PIMA_ZERO_IS_MISSING = (1, 2, 3, 4, 5)  # glucose, pressure, triceps, insulin, BMI


def load_pima_csv(path, response_col: Optional[int] = None) -> Dataset:
    """Load a Pima-style CSV: header row, 8 numeric covariates + binary response.

    Rows with zeros in the columns where zero is physiologically impossible
    are dropped as missing, and covariates are standardized to zero mean and
    unit variance. The returned rows are (response, covariates...).
    """
    arr = read_numeric_csv(path)
    if arr.shape[1] != 9:
        raise SchemaError(f"expected 9 columns (8 covariates + response), got {arr.shape[1]}")
    if response_col is None:
        response_col = arr.shape[1] - 1
    y = arr[:, response_col]
    X = np.delete(arr, response_col, axis=1)
    bad = np.flatnonzero(~np.isin(y, (0.0, 1.0)))
    if bad.size:
        raise SchemaError("response column is not binary 0/1", line=int(bad[0]) + 2)
    keep = np.ones(len(y), dtype=bool)
    for j in PIMA_ZERO_IS_MISSING:
        keep &= X[:, j] != 0.0
    X, y = X[keep], y[keep]
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=0)
    return Dataset(np.column_stack([y, X]), response_col=0)


def make_pima_model(path, lambda_domain=(0.0, 0.1)):
    """Wire a penalized logistic model with Brier loss to a Pima-style CSV."""
    data = load_pima_csv(path)
    model = RidgeLogisticModel(n_covariates=8, response_col=0, lambda_domain=lambda_domain)
    return data, model.spec(), model.brier_loss()
