import dataclasses

import numpy as np
import pytest

from tunevar import (
    BoundaryStatus,
    CriterionFailure,
    DGPKind,
    DGPSpec,
    LossSpec,
    Method,
    RidgeLinearModel,
    RidgeLogisticModel,
    simulate,
    truncated_estimate,
    tune,
)
from tunevar import tuner
from tunevar.model import ModelSpec, rowwise

from conftest import make_linear_data, rel_err, root_at


def _misspec_setup(n=200, seed=0):
    data = make_linear_data(n=n, seed=seed, coef_sq=0.5)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    return data, m.spec(), m.squared_error_loss()


def test_interior_minimum_matches_dense_grid():
    data, spec, loss = _misspec_setup(seed=1)
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=15)
    assert fit.boundary_status == (BoundaryStatus.INTERIOR,)
    # dense brute-force oracle
    from tunevar.criteria import loocv_fast

    grid = np.linspace(0.0, 1.0, 2001)
    vals = [loocv_fast(spec, loss, data, [g], root_at(spec, data, [g])).value for g in grid]
    best = grid[int(np.argmin(vals))]
    assert abs(fit.lambda_hat[0] - best) <= 1.0 / 2000 + 1e-6
    assert fit.criterion_value <= min(v for _, v in fit.trace) + 1e-15


def test_slope_small_at_interior_optimum():
    data, spec, loss = _misspec_setup(seed=2)
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=15)
    values = [v for _, v in fit.trace]
    vrange = max(values) - min(values)
    assert abs(fit.criterion_slope_at_opt[0]) <= max(1e-3 * vrange, 1e-12)


def test_monotone_criterion_hits_lower_boundary():
    data, spec, _ = _misspec_setup(seed=3)
    loss = LossSpec(psi_batch=rowwise(lambda z, th: th @ th))  # increasing in shrinkage? no:
    # theta shrinks toward 0 as lambda grows, so th@th decreases; use TE of the
    # fitted model under correct specification instead: TE(lambda) is monotone
    # increasing from lambda = 0.
    data = make_linear_data(n=200, seed=3, coef_sq=0.0)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    fit = tune(m.spec(), m.squared_error_loss(), data, Method.TE, grid_size=10)
    assert fit.lambda_hat[0] == 0.0
    assert fit.boundary_status == (BoundaryStatus.LOWER_BOUNDARY,)
    assert fit.criterion_slope_at_opt[0] > 0


def test_deterministic_given_inputs():
    data, spec, loss = _misspec_setup(seed=4)
    f1 = tune(spec, loss, data, Method.CV_FAST, grid_size=12, seed=5)
    f2 = tune(spec, loss, data, Method.CV_FAST, grid_size=12, seed=5)
    assert np.array_equal(f1.lambda_hat, f2.lambda_hat)
    assert f1.criterion_value == f2.criterion_value
    assert f1.trace == f2.trace


def test_scale_equivariance_of_argmin():
    data, spec, _ = _misspec_setup(seed=6)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    loss = m.squared_error_loss()
    scaled = LossSpec(
        psi_batch=lambda Z, th: 7.0 * loss.psi_batch(Z, th),
        grad_psi_batch=lambda Z, th: 7.0 * loss.grad_psi_batch(Z, th),
        hess_psi=lambda Z, th: 7.0 * loss.hess_psi(Z, th),
        psi_rowwise=lambda Z, Th: 7.0 * loss.psi_rowwise(Z, Th),
    )
    f1 = tune(spec, loss, data, Method.CV_FAST, grid_size=12)
    f2 = tune(spec, scaled, data, Method.CV_FAST, grid_size=12)
    assert abs(f1.lambda_hat[0] - f2.lambda_hat[0]) < 1e-6


@pytest.mark.parametrize("q", [1, 2], ids=["q1", "q2"])
def test_criterion_failure_on_bad_grid(q):
    # phi fails wherever lambda_1 > 0.05: most of the grid for either search
    data, _, _ = _misspec_setup(seed=7)

    def bad_phi(z, th, lm):
        if lm[0] > 0.05:
            return np.full(3, np.nan)
        x = np.concatenate([[1.0], z[1:]])
        return -2.0 * x * (z[0] - th @ x) + 2.0 * lm[-1] * np.array([0.0, 1.0, 1.0]) * th

    spec = ModelSpec(
        p=3, q=q, phi_batch=rowwise(bad_phi), lambda_domain=np.array([[0.0, 1.0]] * q)
    )
    m = RidgeLinearModel(2)
    with pytest.raises(CriterionFailure):
        tune(spec, m.squared_error_loss(), data, Method.TE, grid_size=10)


def test_grid_size_validation():
    data, spec, loss = _misspec_setup(seed=8)
    with pytest.raises(ValueError):
        tune(spec, loss, data, Method.TE, grid_size=4)


def _two_penalty_spec(box):
    # two independent penalty weights via a custom phi
    def phi(z, th, lm):
        x = np.concatenate([[1.0], z[1:]])
        pen = np.array([0.0, lm[0], lm[1]]) * th
        return -2.0 * x * (z[0] - th @ x) + 2.0 * pen

    return ModelSpec(p=3, q=2, phi_batch=rowwise(phi), lambda_domain=np.array(box))


def test_pattern_search_two_dim_tuning():
    # optimum interior
    data = make_linear_data(n=150, seed=9, coef_sq=0.5)
    spec = _two_penalty_spec([[0.0, 1.0], [0.0, 1.0]])
    loss = RidgeLinearModel(2).squared_error_loss()
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=7)
    assert fit.lambda_hat.shape == (2,)
    assert fit.criterion_value <= min(v for _, v in fit.trace) + 1e-15
    assert all(0.0 <= v <= 1.0 for v in fit.lambda_hat)


def test_product_grid_is_capped_at_ten_thousand_points(monkeypatch):
    # grid_size**q = 101**2 > 1e4 points: each axis gets floor(1e4 ** (1/q))
    # = 100; the scan is captured and stopped before any evaluation
    class Scanned(Exception):
        pass

    scanned = []

    def capture(ev, points):
        scanned.append(np.asarray(points))
        raise Scanned

    monkeypatch.setattr(tuner, "_scan", capture)
    spec = _two_penalty_spec([[0.0, 1.0], [0.0, 2.0]])
    loss = RidgeLinearModel(2).squared_error_loss()
    with pytest.raises(Scanned):
        tune(spec, loss, make_linear_data(n=50, seed=9), Method.CV_FAST, grid_size=101)
    (points,) = scanned
    assert points.shape == (100 * 100, 2)
    assert np.array_equal(np.unique(points[:, 0]), np.linspace(0.0, 1.0, 100))
    assert np.array_equal(np.unique(points[:, 1]), np.linspace(0.0, 2.0, 100))


def test_truncated_estimate_interior_and_clamped():
    data, spec, loss = _misspec_setup(seed=10)
    res = truncated_estimate(spec, loss, data, Method.CV_FAST, grid_size=12)
    assert res.case_tag in ("interior", "c", "d", "a", "b")
    assert 0.0 <= res.lambda_clamped <= 1.0
    # clamp idempotence: re-running at the clamped box yields the same theta
    if res.case_tag == "interior":
        assert abs(res.lambda_g - res.lambda_clamped) < 1e-12


def test_truncated_estimate_case_c_for_unpenalized_optimum():
    # TE is minimized exactly at lambda = 0 (the unpenalized fit is the
    # in-sample argmin), which is the boundary-touching case
    data = make_linear_data(n=400, seed=11, coef_sq=0.0)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    res = truncated_estimate(m.spec(), m.squared_error_loss(), data, Method.TE, grid_size=12)
    assert res.case_tag == "c"
    assert abs(res.lambda_clamped) <= 1e-6


def test_truncated_estimate_case_b_for_decreasing_criterion():
    data = make_linear_data(n=100, seed=12, coef_sq=0.0)

    # criterion decreasing in lambda: psi rewards shrinkage toward zero
    loss = LossSpec(
        psi_batch=rowwise(lambda z, th: th[1] ** 2 + th[2] ** 2),
        psi_rowwise=lambda Z, Th: np.einsum("ni,ni->n", Th[:, 1:], Th[:, 1:]),
    )
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    res = truncated_estimate(m.spec(), loss, data, Method.TE, grid_size=12)
    assert res.case_tag == "b"
    assert res.lambda_clamped == 1.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("box, tag", [((0.3, 1.0), "a"), ((0.0, 1e-4), "b")])
def test_truncated_estimate_in_box_fallback(box, tag, seed):
    # phi is NaN outside the box, so no lambda outside it can be evaluated:
    # truncated_estimate tunes inside the box and reads an edge minimizer
    # whose slope points out of the box as a clear exceedance
    spec = RidgeLinearModel(2, lambda_domain=box).spec()
    inner = spec.phi_batch

    def phi_batch(Z, th, lm):
        F = inner(Z, th, lm)
        return F if box[0] <= lm[0] <= box[1] else np.full_like(F, np.nan)

    spec = dataclasses.replace(spec, phi_batch=phi_batch)
    loss = RidgeLinearModel(2).squared_error_loss()
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=200,
                  params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5})
    res = truncated_estimate(spec, loss, simulate(dgp, seed), Method.CV_FAST, grid_size=10)
    assert res.case_tag == tag
    edge = box[0] if tag == "a" else box[1]
    assert res.lambda_clamped == edge
    assert (res.lambda_g < box[0]) if tag == "a" else (res.lambda_g > box[1])


@pytest.mark.parametrize("case", ["gaussmix", "logistic-wide"])
def test_tune_with_the_jacobian_sum_kernel_matches_the_fallback(case):
    # phi_jac_sum's kernel sums the Newton Jacobian in another order than
    # the fallback's per-row stack: theta-hat moves at roundoff, lambda-hat not
    if case == "gaussmix":
        model = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
        loss = model.brier_loss(predictor_covariates=[0])
        dgp = DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": 2.0})
    else:
        beta = (0.2, 1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)
        model = RidgeLogisticModel(len(beta) - 1, lambda_domain=(0.0, 0.1))
        loss = model.brier_loss(predictor_covariates=[0, 1])
        dgp = DGPSpec(DGPKind.LOGISTIC_TRUE, n=1000, params={"beta": beta})
    spec = model.spec()
    fallback = dataclasses.replace(spec, phi_jac_sum=None)
    for seed in range(3):
        data = simulate(dgp, seed=seed)
        fit = tune(spec, loss, data, Method.CV_FAST)
        want = tune(fallback, loss, data, Method.CV_FAST)
        assert np.array_equal(fit.lambda_hat, want.lambda_hat)
        assert rel_err(fit.theta_hat, want.theta_hat) <= 1e-12


def test_criterion_failure_names_the_first_failure():
    data, spec, loss = _misspec_setup(seed=1)
    bad = dataclasses.replace(
        spec, phi_jac_sum=lambda Z, th, lm: (spec.phi_batch(Z, th, lm), np.zeros(3))
    )
    with pytest.raises(CriterionFailure, match=(
        r"criterion failed on 20 of 20 grid points; first failure at lambda = \[0\.\]: "
        r"EvaluationError: phi_jac_sum returned shape \(3,\), expected \(3, 3\)"
    )):
        tune(bad, loss, data, Method.CV_FAST)
    nan = dataclasses.replace(
        spec, phi_jac_sum=lambda Z, th, lm: (np.full((len(Z), 3), np.nan), -np.eye(3))
    )
    with pytest.raises(CriterionFailure, match=(
        r"criterion failed on 20 of 20 grid points; first failure at lambda = \[0\.\]: "
        r"EvaluationError: phi_jac_sum produced non-finite values$"
    )):
        tune(nan, loss, data, Method.CV_FAST)
