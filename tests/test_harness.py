import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tunevar import (
    DGPKind,
    DGPSpec,
    FailureRateExceeded,
    Method,
    PipelineConfig,
    RidgeLinearModel,
    bootstrap,
    mixture_law_check,
    replicate,
    simulate,
)
from tunevar.model import Dataset


def test_simulate_deterministic_and_seed_sensitive():
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=50)
    a = simulate(dgp, seed=3)
    b = simulate(dgp, seed=3)
    c = simulate(dgp, seed=4)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_linear_gaussian_without_covariates():
    # an intercept-only process draws y alone; coef_sq needs a covariate
    data = simulate(DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60, params={"beta": (0.4,)}), 9)
    assert data.rows.shape == (60, 1)
    with pytest.raises(ValueError, match="coef_sq"):
        DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60, params={"beta": (0.4,), "coef_sq": 0.5})


def test_linear_gaussian_draws_unchanged_without_coef_sq():
    # skipping a zero coef_sq term gives the draws of the formula that adds it
    from tunevar.rng import rng_for

    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=80, params={"beta": (1.0, -0.5, 2.0)})
    rng = rng_for(11)
    x = rng.standard_normal((80, 2))
    mean = 1.0 + x @ np.array([-0.5, 2.0]) + 0.0 * (x[:, 0] ** 2 - 1.0)
    y = mean + rng.standard_normal(80)
    assert np.array_equal(simulate(dgp, seed=11).rows, np.column_stack([y, x]))


def test_gaussmix_class_conditional_moments():
    dgp = DGPSpec(DGPKind.GAUSSMIX_C, n=200_000, params={"C": 2.0})
    data = simulate(dgp, seed=5)
    y = data.rows[:, 0]
    x0 = data.rows[y == 0.0, 1:]
    x1 = data.rows[y == 1.0, 1:]
    assert abs(y.mean() - 0.5) < 0.01
    assert np.allclose(x0.mean(axis=0), [0.5, 0.5], atol=0.03)
    assert np.allclose(x1.mean(axis=0), [-0.5, -0.5], atol=0.03)
    off = -np.sqrt(2.0 / 2.0)
    S = np.array([[2.0, off], [off, 2.0]])
    assert np.allclose(np.cov(x0, rowvar=False), S, atol=0.1)
    assert np.allclose(np.cov(x1, rowvar=False), 2.0 * S, atol=0.2)


def test_gaussmix_rejects_c_out_of_range():
    with pytest.raises(ValueError):
        DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": 8.0})
    with pytest.raises(ValueError):
        DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": -1.0})
    DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": 7.9})


def test_custom_sampler_and_tiny_n_rejected():
    dgp = DGPSpec(DGPKind.CUSTOM, n=10, params={"sampler": lambda rng, n: rng.random((n, 3))})
    data = simulate(dgp, seed=0)
    assert data.rows.shape == (10, 3)
    with pytest.raises(ValueError):
        DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=1)


def _config(compute_variance=True):
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    return PipelineConfig(
        model=m.spec(), loss=m.squared_error_loss(), method=Method.CV_FAST,
        grid_size=8, compute_variance=compute_variance,
    )


def test_replicate_aggregates_recompute_exactly():
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=120, params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5})
    summary = replicate(dgp, _config(), B=6, seed=11)
    assert summary.theta_draws.shape == (6 - len(summary.failure_indices), 3)
    scaled = np.sqrt(summary.n) * summary.theta_draws
    assert np.array_equal(summary.empirical_variance, np.cov(scaled, rowvar=False, ddof=1))
    e1, e2 = summary.abs_errors()
    assert e1.shape == e2.shape == (3, 3)
    assert summary.failure_rate <= 0.05 + 1e-12


def test_replicate_deterministic():
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=80, params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5})
    s1 = replicate(dgp, _config(compute_variance=False), B=4, seed=2)
    s2 = replicate(dgp, _config(compute_variance=False), B=4, seed=2)
    assert np.array_equal(s1.theta_draws, s2.theta_draws)
    assert np.array_equal(s1.lambda_draws, s2.lambda_draws)


def test_bootstrap_constant_covariate_free_model():
    # a dataset of identical rows resamples to itself: all draws equal
    row = np.array([1.5, 0.3, -0.2])
    data = Dataset(np.tile(row, (30, 1)) + 0.0)
    from tunevar.model import LossSpec, ModelSpec, rowwise

    spec = ModelSpec(p=1, q=1, phi_batch=rowwise(lambda z, th, lm: th[:1] - z[0]),
                     lambda_domain=np.array([[0.0, 1.0]]))
    loss = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] - th[0]) ** 2))
    config = PipelineConfig(model=spec, loss=loss, method=Method.TE,
                            grid_size=8, compute_variance=False)
    summary = bootstrap(data, config, B=5, seed=7)
    assert np.allclose(summary.theta_draws, 1.5, atol=1e-9)
    assert np.ptp(summary.theta_draws) < 1e-9


def test_bootstrap_seed_determinism_and_variation():
    rng = np.random.default_rng(8)
    rows = np.column_stack([rng.standard_normal(60) + 1.0,
                            rng.standard_normal(60), rng.standard_normal(60)])
    data = Dataset(rows)
    config = _config(compute_variance=False)
    s1 = bootstrap(data, config, B=5, seed=3)
    s2 = bootstrap(data, config, B=5, seed=3)
    s3 = bootstrap(data, config, B=5, seed=4)
    assert np.array_equal(s1.theta_draws, s2.theta_draws)
    assert not np.array_equal(s1.theta_draws, s3.theta_draws)
    # resamples differ from each other
    assert np.ptp(s1.theta_draws[:, 0]) > 0


def test_failure_rate_policy():
    # a sampler that produces unsolvable data on most draws
    calls = {"k": 0}

    def sampler(rng, n):
        calls["k"] += 1
        x = rng.standard_normal((n, 2))
        if calls["k"] % 2 == 0:
            x[:, 1] = x[:, 0]  # rank-deficient design
        return np.column_stack([x @ np.ones(2), x])

    dgp = DGPSpec(DGPKind.CUSTOM, n=40, params={"sampler": sampler})
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    config = PipelineConfig(model=m.spec(), loss=m.squared_error_loss(),
                            method=Method.TE, grid_size=8, compute_variance=False)
    with pytest.raises(FailureRateExceeded):
        replicate(dgp, config, B=6, seed=1)


def test_mixture_failure_rule_counts_simulate():
    # every second draw has a NaN, so simulate raises EvaluationError; as in
    # replicate, that is a failed replication, not an escaping error
    calls = {"k": 0}

    def sampler(rng, n):
        calls["k"] += 1
        x = rng.standard_normal((n, 2))
        rows = np.column_stack([x @ np.ones(2) + rng.standard_normal(n), x])
        if calls["k"] % 2 == 0:
            rows[0, 0] = np.nan
        return rows

    dgp = DGPSpec(DGPKind.CUSTOM, n=40, params={"sampler": sampler})
    with pytest.raises(FailureRateExceeded, match="^3 of 6 mixture replications failed$"):
        mixture_law_check(dgp, _config(), theta0=[0.0, 1.0, 1.0], B=6, seed=0)


def test_replicate_validates_b():
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=50)
    with pytest.raises(ValueError):
        replicate(dgp, _config(), B=1, seed=0)


@pytest.mark.parametrize("boundary", ["Lower", "UPPER", "", None])
def test_mixture_law_check_rejects_unknown_boundary(boundary):
    # any value other than "lower" or "upper" used to run the upper-edge mixture
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=50, params={"beta": (1.0, 1.0, 0.5)})
    with pytest.raises(ValueError, match="boundary"):
        mixture_law_check(dgp, _config(), theta0=[1.0, 1.0, 0.5], B=2, seed=0,
                          boundary=boundary)


def test_import_loads_no_scipy():
    # the package and its CLI need numpy only; scipy is a test dependency
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, tunevar, tunevar.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
