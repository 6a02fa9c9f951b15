import numpy as np
import pytest

from tunevar import Dataset, RidgeLinearModel, RidgeLogisticModel


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
