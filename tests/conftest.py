import numpy as np
import pytest

from tunevar import Dataset, RidgeLinearModel, RidgeLogisticModel
from tunevar.numdiff import jacobian


def make_linear_data(n=200, seed=0, beta=(1.0, 1.0, 0.5), sigma=1.0, coef_sq=0.0):
    """Gaussian-covariate linear data; coef_sq != 0 misspecifies the mean."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, float)
    m = len(beta) - 1
    x = rng.standard_normal((n, m))
    y = beta[0] + x @ beta[1:] + coef_sq * (x[:, 0] ** 2 - 1.0) + sigma * rng.standard_normal(n)
    return Dataset(np.column_stack([y, x]))


def make_logistic_data(n=200, seed=0, beta=(0.3, 1.0, -0.5)):
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, float)
    x = rng.standard_normal((n, len(beta) - 1))
    t = beta[0] + x @ beta[1:]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(float)
    return Dataset(np.column_stack([y, x]))


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def row_rel_err(a, b):
    """Largest per-row relative (Frobenius) error of two per-row stacks."""
    n = len(b)
    diff = np.linalg.norm(np.reshape(a - b, (n, -1)), axis=1)
    return np.max(diff / np.maximum(np.linalg.norm(np.reshape(b, (n, -1)), axis=1), 1e-300))


def unit_draw(spec):
    def draw(rng):
        th = spec.clip_theta(rng.uniform(-0.8, 0.8, size=spec.p))
        return th, rng.uniform(0.05, 0.5, size=spec.q)

    return draw


def fd_check(spec, data, draw, n_draws=10, seed=0, tol=1e-5):
    """Analytic slots against finite differences of the batch slots.

    Each draw of (theta, lambda) differences all sampled rows at once.
    Returns the worst row_rel_err of dphi_dtheta_batch over the draws.
    """
    rng = np.random.default_rng(seed)
    Z = data.rows[rng.integers(data.n, size=30)]
    worst = 0.0
    for _ in range(n_draws):
        th, lm = draw(rng)

        J = spec.dphi_dtheta_batch(Z, th, lm)
        J_fd = jacobian(lambda t: spec.phi_batch(Z, t, lm), th)
        assert J.shape == (30, spec.p, spec.p)
        worst = max(worst, row_rel_err(J, J_fd))
        assert worst < tol

        L = spec.dphi_dlambda_batch(Z, th, lm)
        L_fd = jacobian(lambda l: spec.phi_batch(Z, th, l), lm)
        assert L.shape == (30, spec.p, spec.q)
        assert np.allclose(L, L_fd, rtol=tol, atol=tol)

        X = spec.dphi_dlambda_dtheta(Z, th, lm)
        X_fd = jacobian(lambda t: spec.dphi_dlambda_batch(Z, t, lm), th)  # (n, p, q, p)
        assert X.shape == (30, spec.q, spec.p, spec.p)
        assert np.allclose(X, np.moveaxis(X_fd, 2, 1), rtol=1e-3, atol=1e-4)

        H = spec.hess_phi_theta(Z, th, lm)
        H_fd = jacobian(lambda t: spec.dphi_dtheta_batch(Z, t, lm), th)
        assert H.shape == (30, spec.p, spec.p, spec.p)
        assert np.allclose(H, H_fd, rtol=1e-3, atol=1e-4)
    return worst


@pytest.fixture
def linear_data():
    return make_linear_data()


@pytest.fixture
def ridge_linear():
    m = RidgeLinearModel(2)
    return m, m.spec(), m.squared_error_loss()


@pytest.fixture
def ridge_logistic():
    m = RidgeLogisticModel(2)
    return m, m.spec(), m.brier_loss()
