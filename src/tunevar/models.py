"""Built-in estimating-function models, losses, and closed-form test oracles.

Rows are laid out as (response, covariates...); only the CLI loader picks
which CSV column becomes the response. Regression models augment the
covariate vector with a leading intercept; the penalty matrix P =
diag(default_penalty_mask(p)) never penalizes the intercept.

Penalty convention: the logistic objective is sum_i loglik_i - n * lam * |beta_1:|^2,
so the per-observation estimating function carries lam (not n*lam). The tuned
lam is therefore small, and n * lam is the "actual" penalty size.

Each built-in formula is written once, and every slot evaluates that copy:
a ridge model's PENALTY is the one statement of its penalty's sign and
scale, and the Gaussian score and theta-Jacobian are _gauss_score and
_gauss_jac, whose negatives are the Gaussian loss's gradient and Hessian.

The array kernels of the built-in per-row slots (_expit, _design, the
ridge phis, the ridge-logistic Jacobian, the Gaussian phi) are written for
few numpy passes (_design makes one C-ordered copy of the rows and sets its
intercept column), and each is pinned bitwise to a plainer reference formula
by the np.array_equal property tests in tests/test_properties.py; a rewrite
that moves one output bit fails them. _expit, on the hot path of exact
LOOCV for ridge-logistic, avoids np.where: it computes both branches in one
pass, selecting the numerator with np.maximum, which matches the two-branch
formula bit for bit (see its comment). The sum kernels (the Jacobian sum S
of phi_jac_sum, and the leave-one-out phi_loo_sum and jac_loo_sum) work from
sufficient statistics or one matrix product and so round differently from
the row-by-row fallback: the same tests pin them to it within a tolerance
relative to the sum of |phi| (|d phi / d theta|) over the rows, and bitwise
to a reference copy of their own formulas.
A leave-one-out sum slot gets every active problem of a Newton step in one
call; the ridge-linear and Gaussian sums need O(k p^2) and O(k) memory, and
the ridge-logistic ones build _design(Z) (and X x') once per call and then
work in blocks of max(1, LOO_BLOCK // n) problems, so that each of their
(problems, n) temporaries holds at most LOO_BLOCK entries.
Each model's phi_jac_sum builds _design(Z) and expit(X theta) (the
Gaussian's r = z - mu) once for F and S, through helpers that phi_batch
shares, so its F is phi_batch bit for bit. _built_in makes every built-in
spec and loss: each slot names the phi_batch (psi_batch) it was made for,
so that a spec with another one takes its fallbacks (model._refill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import EvaluationError, SchemaError
from .model import Dataset, LossSpec, ModelSpec, read_numeric_csv, rowwise, slot_values
from .solver import checked_solve

# problems x rows per block of the ridge-logistic leave-one-out sums: each of
# their (problems, n) temporaries holds at most this many float64 entries
LOO_BLOCK = 2**14


def _design(Z: np.ndarray):
    """(y, X): the response column and the intercept-augmented covariates.

    X is a fresh C-ordered float copy of Z with its first column set to 1.
    order="C" keeps X row-major for an F-ordered Z (numpy's default "K"
    would copy Z's layout), so X @ theta takes the same BLAS path either way.
    """
    X = np.array(Z, dtype=float, order="C")
    X[:, 0] = 1.0
    return Z[:, 0], X


def _built_in(cls, **fields):
    """cls(**fields), each callable slot but the defining one (phi_batch of
    a ModelSpec, psi_batch of a LossSpec) naming that function as its
    attribute of the same name."""
    owner = "phi_batch" if cls is ModelSpec else "psi_batch"
    for name, f in fields.items():
        if callable(f) and name != owner:
            setattr(f, owner, fields[owner])
    return cls(**fields)


def default_penalty_mask(p: int) -> np.ndarray:
    mask = np.ones(p)
    mask[0] = 0.0
    return mask


def _expit(t):
    # e = exp(-|t|) never overflows; for t < 0 it is exp(t). -|t| is
    # copysign(t, -1), one pass where abs then negative took two. The
    # numerator maximum(e, t >= 0) is exactly 1.0 for t >= 0 (there e <= 1)
    # and e otherwise (there e < 1, and a NaN t gives NaN), so the quotient
    # rounds as 1/(1+exp(-t)) and exp(t)/(1+exp(t)) would, bit for bit. It
    # replaces np.where over both quotients, whose data-dependent select
    # costs several times a pass of exp. Every pass after the first runs in
    # place on the function's own temporaries; t is only read.
    e = np.copysign(t, -1.0)
    np.exp(e, out=e)
    out = np.maximum(e, t >= 0)
    e += 1.0
    out /= e
    return out


# ---------------------------------------------------------------------------
# Ridge regressions: phi is the gradient of a penalized objective in beta.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RidgeModel:
    """Fields and ModelSpec assembly shared by the two ridge models.

    phi carries the penalty as PENALTY * lam * P beta. A subclass sets the
    class constant PENALTY, the one statement of the penalty's sign and
    scale, and supplies _link_slots(P, pen), which returns the link-specific
    slots phi_batch, dphi_dtheta_batch, phi_jac_sum, hess_phi_theta,
    phi_loo_sum and jac_loo_sum as a dict. pen(m, lm) = PENALTY * m * lam is
    the penalty's factor of P summed over m rows: pen(1, lm) * (P @ beta) is
    one row's term, pen(n - 1, lm) * P a leave-one-out Jacobian's.
    """

    n_covariates: int
    lambda_domain: tuple = (0.0, 1.0)

    @property
    def p(self) -> int:
        return self.n_covariates + 1

    def spec(self) -> ModelSpec:
        p = self.p
        P = np.diag(default_penalty_mask(p))

        def pen(m, lm):
            return self.PENALTY * m * float(lm[0])

        def dphi_dlambda_batch(Z, th, lm):
            base = (self.PENALTY * (P @ th)).reshape(1, p, 1)
            return np.repeat(base, Z.shape[0], axis=0)

        def dphi_dlambda_dtheta(Z, th, lm):
            return np.repeat((self.PENALTY * P)[None, None], Z.shape[0], axis=0)

        return _built_in(
            ModelSpec, p=p, q=1, **self._link_slots(P, pen),
            dphi_dlambda_batch=dphi_dlambda_batch, dphi_dlambda_dtheta=dphi_dlambda_dtheta,
            lambda_domain=np.array([self.lambda_domain]),
        )


class RidgeLinearModel(_RidgeModel):
    """phi(z, beta, lam) = -2 x~ (y - beta' x~) + 2 lam P beta."""

    PENALTY = 2.0

    def _link_slots(self, P, pen):
        p = self.p

        def phi(y, X, th, lm):
            e = y - X @ th
            return -2.0 * X * e[:, None] + pen(1, lm) * (P @ th)

        def phi_batch(Z, th, lm):
            return phi(*_design(Z), th, lm)

        def jac_loo_sum(Z, Th, rows, lm):
            # 2 (X'X - x_i x_i') + 2 (n - 1) lam P, the same for every theta
            _, X = _design(Z)
            Xi = X[rows]
            return 2.0 * (X.T @ X - Xi[:, :, None] * Xi[:, None, :]) + pen(len(X) - 1, lm) * P

        def phi_loo_sum(Z, Th, rows, lm):
            # phi is linear in theta: its sum is the Jacobian sum times theta
            # plus the sum at theta = 0, -2 (X'y - x_i y_i)
            y, X = _design(Z)
            b = X.T @ y - X[rows] * y[rows, None]
            return np.matmul(jac_loo_sum(Z, Th, rows, lm), Th[:, :, None])[:, :, 0] - 2.0 * b

        def dphi_dtheta_batch(Z, th, lm):
            _, X = _design(Z)
            return 2.0 * np.einsum("ni,nj->nij", X, X) + pen(1, lm) * P

        def phi_jac_sum(Z, th, lm):
            y, X = _design(Z)
            return phi(y, X, th, lm), 2.0 * (X.T @ X) + pen(len(X), lm) * P

        def hess_phi_theta(Z, th, lm):
            return np.zeros((Z.shape[0], p, p, p))

        return dict(phi_batch=phi_batch, dphi_dtheta_batch=dphi_dtheta_batch,
                    phi_jac_sum=phi_jac_sum, hess_phi_theta=hess_phi_theta,
                    phi_loo_sum=phi_loo_sum, jac_loo_sum=jac_loo_sum)

    def squared_error_loss(self, weight_fn=None) -> LossSpec:
        """psi(z, beta) = w(x) (y - beta' x~)^2; w defaults to 1."""

        def weights(X):
            if weight_fn is None:
                return np.ones(X.shape[0])
            return np.asarray(weight_fn(X), dtype=float)

        def psi_batch(Z, th):
            y, X = _design(Z)
            return weights(X) * (y - X @ th) ** 2

        def grad_psi_batch(Z, th):
            y, X = _design(Z)
            return -2.0 * (weights(X) * (y - X @ th))[:, None] * X

        def hess_psi(Z, th):
            _, X = _design(Z)
            return (2.0 * weights(X))[:, None, None] * np.einsum("ni,nj->nij", X, X)

        def psi_rowwise(Z, Th):
            y, X = _design(Z)
            return weights(X) * (y - np.einsum("ni,ni->n", X, Th)) ** 2

        return _built_in(
            LossSpec, psi_batch=psi_batch, grad_psi_batch=grad_psi_batch, hess_psi=hess_psi,
            psi_rowwise=psi_rowwise,
        )


class RidgeLogisticModel(_RidgeModel):
    """phi(z, beta, lam) = x~ (y - p(x, beta)) - 2 lam P beta."""

    PENALTY = -2.0

    def _link_slots(self, P, pen):
        def phi(y, X, pi, th, lm):
            return X * (y - pi)[:, None] + pen(1, lm) * (P @ th)

        def phi_batch(Z, th, lm):
            y, X = _design(Z)
            return phi(y, X, _expit(X @ th), th, lm)

        def loo_blocks(X, Th, rows):
            # (js, Pi, own) per block of problems js: Pi = expit(x_m' Th[j])
            # as (b, n), own the index of each problem's own row in Pi. A
            # block holds max(1, LOO_BLOCK // n) problems, so each (b, n)
            # temporary stays within LOO_BLOCK entries (128 KiB), small
            # enough for the heap to reuse from call to call where larger
            # blocks took fresh pages in every call.
            # np.matmul against Th[:, :, None] rounds each x_m' th as
            # phi_batch's X @ th does (Th @ X.T does not), and expit would
            # magnify a last-bit difference in x_m' th by |x_m' th|.
            b = max(1, LOO_BLOCK // len(X))
            for s in range(0, len(Th), b):
                js = slice(s, s + b)
                Pi = _expit(np.matmul(X, Th[js, :, None])[:, :, 0])
                yield js, Pi, (np.arange(len(Pi)), rows[js])

        def phi_loo_sum(Z, Th, rows, lm):
            y, X = _design(Z)
            out = np.empty((len(Th), X.shape[1]))
            for js, Pi, own in loo_blocks(X, Th, rows):
                R = y - Pi
                out[js] = R @ X - R[own][:, None] * X[own[1]]
            out += pen(len(y) - 1, lm) * (Th @ P)
            return out

        def jac_loo_sum(Z, Th, rows, lm):
            # w_i x_i x_i' - sum_m w_m x_m x_m' + pen(n - 1) P, w = pi (1 - pi)
            _, X = _design(Z)
            n, p = X.shape
            XX = X[:, :, None] * X[:, None, :]
            XXf = XX.reshape(n, p * p)
            out = np.empty((len(Th), p, p))
            for js, Pi, own in loo_blocks(X, Th, rows):
                W = Pi * (1.0 - Pi)
                out[js] = W[own][:, None, None] * XX[own[1]] - (W @ XXf).reshape(-1, p, p)
            out += pen(n - 1, lm) * P
            return out

        def dphi_dtheta_batch(Z, th, lm):
            _, X = _design(Z)
            w = _expit(X @ th)
            w = w * (1.0 - w)
            # ((-w) x_i) x_j rounds as -((w x_i) x_j): negation is exact
            out = np.einsum("ni,nj->nij", (-w)[:, None] * X, X)
            out += pen(1, lm) * P
            return out

        def phi_jac_sum(Z, th, lm):
            # S = -X' diag(w) X + pen(n) P, w = pi (1 - pi), from phi's pi
            y, X = _design(Z)
            pi = _expit(X @ th)
            w = pi * (1.0 - pi)
            S = -(X.T @ (w[:, None] * X)) + pen(len(X), lm) * P
            return phi(y, X, pi, th, lm), S

        def hess_phi_theta(Z, th, lm):
            _, X = _design(Z)
            pi = _expit(X @ th)
            w = pi * (1.0 - pi)
            core = (-w * (1.0 - 2.0 * pi))[:, None, None] * np.einsum("nk,nl->nkl", X, X)
            return np.einsum("nj,nkl->njkl", X, core)

        return dict(phi_batch=phi_batch, dphi_dtheta_batch=dphi_dtheta_batch,
                    phi_jac_sum=phi_jac_sum, hess_phi_theta=hess_phi_theta,
                    phi_loo_sum=phi_loo_sum, jac_loo_sum=jac_loo_sum)

    def brier_loss(self, predictor_covariates: Optional[Sequence[int]] = None) -> LossSpec:
        """psi(z, beta) = (y - expit(u' beta))^2 with u the masked design vector.

        predictor_covariates selects which covariates (0-based, in covariate
        order) enter the prediction; None means all. The intercept always
        enters. Coefficients of excluded covariates do not affect psi, which
        is how a loss can target a sub-model of the fitted one.
        """
        p = self.p
        sel = np.zeros(p)
        sel[0] = 1.0
        if predictor_covariates is None:
            sel[:] = 1.0
        else:
            for k in predictor_covariates:
                sel[1 + k] = 1.0

        def masked_design(Z):
            y, X = _design(Z)
            return y, X * sel

        def psi_batch(Z, th):
            y, U = masked_design(Z)
            return (y - _expit(U @ th)) ** 2

        def grad_psi_batch(Z, th):
            y, U = masked_design(Z)
            pi = _expit(U @ th)
            return (-2.0 * (y - pi) * pi * (1.0 - pi))[:, None] * U

        def hess_psi(Z, th):
            y, U = masked_design(Z)
            pi = _expit(U @ th)
            w = pi * (1.0 - pi)
            c = 2.0 * w * (w - (y - pi) * (1.0 - 2.0 * pi))
            return c[:, None, None] * np.einsum("ni,nj->nij", U, U)

        def psi_rowwise(Z, Th):
            y, U = masked_design(Z)
            return (y - _expit(np.einsum("ni,ni->n", U, Th))) ** 2

        return _built_in(
            LossSpec, psi_batch=psi_batch, grad_psi_batch=grad_psi_batch, hess_psi=hess_psi,
            psi_rowwise=psi_rowwise,
        )


# ---------------------------------------------------------------------------
# Hybrid estimating function: lam * phi1 + (1 - lam) * phi2, lam in [0, 1].
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HybridModel:
    """Convex combination of two estimating functions sharing theta.

    phi1, phi2 and their optional theta-Jacobians are per-row callables
    (z, theta); the spec stacks them with rowwise.
    """

    p: int
    phi1: callable
    phi2: callable
    dphi1_dtheta: Optional[callable] = None
    dphi2_dtheta: Optional[callable] = None

    def spec(self) -> ModelSpec:
        def part(phi, dphi):
            # one lambda-free part, stacked from its per-row callables
            return ModelSpec(
                p=self.p, q=1,
                phi_batch=rowwise(lambda z, th, lm: phi(z, th)),
                dphi_dtheta_batch=None if dphi is None else rowwise(lambda z, th, lm: dphi(z, th)),
            )

        base1 = part(self.phi1, self.dphi1_dtheta)
        base2 = part(self.phi2, self.dphi2_dtheta)
        zero_lam = np.zeros(1)

        def parts(slot, Z, th):
            # through slot_values, so that an error names the part's slot
            return (slot_values(base1, slot, Z, th, zero_lam),
                    slot_values(base2, slot, Z, th, zero_lam))

        def mix(slot):
            def batch(Z, th, lm):
                a = float(lm[0])
                f1, f2 = parts(slot, Z, th)
                return a * f1 + (1.0 - a) * f2

            return batch

        def diff(slot, axis):
            # d/d lambda of mix(slot): part 1 minus part 2, lambda axis at axis
            def batch(Z, th, lm):
                f1, f2 = parts(slot, Z, th)
                return np.expand_dims(f1 - f2, axis)

            return batch

        return _built_in(
            ModelSpec, p=self.p, q=1,
            phi_batch=mix("phi_batch"),
            dphi_dtheta_batch=mix("dphi_dtheta_batch"),
            dphi_dlambda_batch=diff("phi_batch", 2),
            hess_phi_theta=mix("hess_phi_theta"),
            dphi_dlambda_dtheta=diff("dphi_dtheta_batch", 1),
            lambda_domain=np.array([[0.0, 1.0]]),
        )


# ---------------------------------------------------------------------------
# Univariate Gaussian likelihood model, theta = (mu, sigma).
# ---------------------------------------------------------------------------

def _gauss_score(m, S1, S2, sg):
    """(..., 2) score sum over m rows, S1 and S2 the sums of r = z - mu and
    r^2 over them; one row is m = 1, S1 = r, S2 = r**2."""
    out = np.empty(np.broadcast(S1, sg).shape + (2,))
    out[..., 0] = S1 / sg**2
    out[..., 1] = -m / sg + S2 / sg**3
    return out


def _gauss_jac(m, S1, S2, sg):
    """(..., 2, 2) theta-Jacobian of _gauss_score, from the same sums."""
    out = np.empty(np.broadcast(S1, sg).shape + (2, 2))
    out[..., 0, 0] = -m / sg**2
    out[..., 0, 1] = out[..., 1, 0] = -2.0 * S1 / sg**3
    out[..., 1, 1] = m / sg**2 - 3.0 * S2 / sg**4
    return out


def _gauss_rows(formula):
    """A fresh per-row slot evaluating formula on each row: a loss slot
    (Z, th) or a model slot (Z, th, lm), lm unused."""
    def rows(Z, th, *lm):
        mu, sg = th
        r = Z[:, 0] - mu
        return formula(1, r, r**2, sg)

    return rows


@dataclass(frozen=True)
class GaussianLikelihoodModel:
    """Score equations of a N(mu, sigma^2) likelihood for the response z[0];
    lam is inert (q=1). One score and one Jacobian (_gauss_score, _gauss_jac)
    serve one row, all n rows and each leave-one-out problem's n - 1 rows;
    the loss's gradient and Hessian are their negatives."""

    def spec(self) -> ModelSpec:
        def loo_moments(Z, Th, rows):
            # (m, S1, S2, sg): S1 and S2 are the sums of r and r^2 over the
            # m = n - 1 rows other than rows[j], with r = z - Th[j, 0], from
            # centred sums of d = z - mean(z); uncentred sums of z and z^2
            # lose digits when the mean is far from zero
            z = Z[:, 0]
            zbar = z.mean()
            d = z - zbar
            D1, D2 = d.sum(), d @ d
            di = d[rows]
            c = zbar - Th[:, 0]
            m = len(z) - 1
            S1 = (D1 - di) + m * c
            S2 = (D2 - di * di) + 2.0 * c * (D1 - di) + m * c * c
            return m, S1, S2, Th[:, 1]

        def phi_loo_sum(Z, Th, rows, lm):
            return _gauss_score(*loo_moments(Z, Th, rows))

        def jac_loo_sum(Z, Th, rows, lm):
            return _gauss_jac(*loo_moments(Z, Th, rows))

        def phi_jac_sum(Z, th, lm):
            # S from the sums of r and r^2; r = z - mu row by row keeps the
            # digits that sums of z and z^2 lose when the mean is far from mu
            mu, sg = th
            r = Z[:, 0] - mu
            return _gauss_score(1, r, r**2, sg), _gauss_jac(len(r), r.sum(), r @ r, sg)

        def dphi_dlambda_batch(Z, th, lm):
            return np.zeros((Z.shape[0], 2, 1))

        def hess_phi_theta(Z, th, lm):
            mu, sg = th
            r = Z[:, 0] - mu
            out = np.empty((Z.shape[0], 2, 2, 2))
            out[:, 0, 0, 0] = 0.0
            out[:, 0, 0, 1] = out[:, 0, 1, 0] = out[:, 1, 0, 0] = 2.0 / sg**3
            out[:, 0, 1, 1] = out[:, 1, 0, 1] = out[:, 1, 1, 0] = 6.0 * r / sg**4
            out[:, 1, 1, 1] = -2.0 / sg**3 + 12.0 * r**2 / sg**5
            return out

        def dphi_dlambda_dtheta(Z, th, lm):
            return np.zeros((Z.shape[0], 1, 2, 2))

        return _built_in(
            ModelSpec, p=2, q=1,
            phi_batch=_gauss_rows(_gauss_score), dphi_dtheta_batch=_gauss_rows(_gauss_jac),
            dphi_dlambda_batch=dphi_dlambda_batch, hess_phi_theta=hess_phi_theta,
            dphi_dlambda_dtheta=dphi_dlambda_dtheta, phi_jac_sum=phi_jac_sum,
            phi_loo_sum=phi_loo_sum, jac_loo_sum=jac_loo_sum,
            theta_domain=np.array([[-1e8, 1e8], [1e-6, 1e8]]),
            lambda_domain=np.array([[0.0, 1.0]]),
            theta_init=np.array([0.0, 1.0]),
        )

    def neg_loglik_loss(self) -> LossSpec:
        """psi = -log N(z; mu, sigma^2); its gradient and Hessian are minus
        the score and minus its Jacobian."""
        score, jac = _gauss_rows(_gauss_score), _gauss_rows(_gauss_jac)
        half_log_2pi = 0.5 * np.log(2.0 * np.pi)

        def nll(r, sg):
            return np.log(sg) + r**2 / (2.0 * sg**2) + half_log_2pi

        return _built_in(
            LossSpec, psi_batch=lambda Z, th: nll(Z[:, 0] - th[0], th[1]),
            grad_psi_batch=lambda Z, th: -score(Z, th), hess_psi=lambda Z, th: -jac(Z, th),
            psi_rowwise=lambda Z, Th: nll(Z[:, 0] - Th[:, 0], Th[:, 1]),
        )


# ---------------------------------------------------------------------------
# Closed-form ridge oracles (used by tests and the acceptance suite).
# ---------------------------------------------------------------------------

def ridge_closed_form(data: Dataset, lam: float) -> np.ndarray:
    """Direct solve of (mean x~ x~' + lam P) beta = mean x~ y; SingularJacobian
    when the system's condition number exceeds 1e12."""
    y, X = _design(data.rows)
    P = np.diag(default_penalty_mask(X.shape[1]))
    A = X.T @ X / data.n + float(lam) * P
    return checked_solve(A, X.T @ y / data.n, "ridge system")


def ridge_loocv_closed_form(data: Dataset, lam: float) -> float:
    """Exact hat-matrix identity for the leave-one-out squared error.

    The leave-one-out fit drops row i from the estimating equation, so the
    effective penalty of each reduced problem is (n-1) * lam. The identity
    e_{(-i)} = e_i / (1 - h_ii) therefore holds for the rank-one downdate of
    B = X'X + (n-1) * lam * P, not of the full-fit system.
    """
    y, X = _design(data.rows)
    n, p = X.shape
    P = np.diag(default_penalty_mask(p))
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

PIMA_COVARIATES = (
    "Pregnancies", "Glucose", "BloodPressure", "SkinThickness", "Insulin", "BMI",
    "DiabetesPedigreeFunction", "Age",
)  # the binary response, Outcome, is the last column
PIMA_ZERO_IS_MISSING = (1, 2, 3, 4, 5)  # glucose, pressure, triceps, insulin, BMI


def load_pima_csv(path) -> Dataset:
    """Load a Pima-style CSV: header row, 8 numeric covariates + binary Outcome last.

    Rows with zeros in the columns where zero is physiologically impossible
    are dropped as missing, and covariates are standardized to zero mean and
    unit variance; a covariate that is constant on the kept rows is a
    SchemaError. The returned rows are (response, covariates...).
    """
    arr, lines = read_numeric_csv(path)
    if arr.shape[1] != len(PIMA_COVARIATES) + 1:
        raise SchemaError(f"expected 9 columns (8 covariates + response), got {arr.shape[1]}")
    y, X = arr[:, -1], arr[:, :-1]
    bad = np.flatnonzero(~np.isin(y, (0.0, 1.0)))
    if bad.size:
        raise SchemaError("response column is not binary 0/1", line=int(lines[bad[0]]))
    keep = np.ones(len(y), dtype=bool)
    for j in PIMA_ZERO_IS_MISSING:
        keep &= X[:, j] != 0.0
    X, y = X[keep], y[keep]
    if len(y) < 2:
        raise SchemaError(f"{len(y)} rows left after dropping rows with missing values; need 2")
    flat = np.flatnonzero(np.ptp(X, axis=0) == 0.0)
    if flat.size:
        raise SchemaError(
            f"covariate {PIMA_COVARIATES[flat[0]]} is constant on the rows kept, "
            "so it has zero variance and cannot be standardized"
        )
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=0)
    return Dataset(np.column_stack([y, X]))


def make_pima_model(path, lambda_domain=(0.0, 0.1)):
    """Wire a penalized logistic model with Brier loss to a Pima-style CSV."""
    data = load_pima_csv(path)
    model = RidgeLogisticModel(n_covariates=len(PIMA_COVARIATES), lambda_domain=lambda_domain)
    return data, model.spec(), model.brier_loss()
