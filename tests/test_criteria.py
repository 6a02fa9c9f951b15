import numpy as np
import pytest

from tunevar import (
    Dataset,
    GaussianLikelihoodModel,
    LossSpec,
    Method,
    RidgeLinearModel,
    holdout_error,
    info_criterion,
    loocv_exact,
    loocv_fast,
    ridge_loocv_closed_form,
    solve_theta,
    te_trace_corrected,
    training_error,
)
from tunevar.model import rowwise

from conftest import make_linear_data


def _ridge():
    m = RidgeLinearModel(2)
    return m.spec(), m.squared_error_loss()


def test_constant_loss_gives_constant_criteria():
    spec, _ = _ridge()
    loss = LossSpec(psi_batch=rowwise(lambda z, th: 3.25))
    data = make_linear_data(n=30, seed=0)
    assert training_error(spec, loss, data, [0.2]).value == 3.25
    assert loocv_exact(spec, loss, data, [0.2]).value == 3.25
    assert holdout_error(spec, loss, data, [0.2], split=0.5, seed=1).value == 3.25


def test_training_error_equals_mean_residual():
    spec, loss = _ridge()
    data = make_linear_data(n=80, seed=1)
    te = training_error(spec, loss, data, [0.0])
    X = np.column_stack([np.ones(data.n), data.rows[:, 1:]])
    beta = np.linalg.solve(X.T @ X, X.T @ data.rows[:, 0])
    assert abs(te.value - np.mean((data.rows[:, 0] - X @ beta) ** 2)) < 1e-12


def test_loocv_exact_matches_hat_matrix_formula():
    spec, loss = _ridge()
    for seed, lam in [(2, 0.1), (3, 0.5), (4, 1.2)]:
        data = make_linear_data(n=60, seed=seed)
        cv = loocv_exact(spec, loss, data, [lam])
        assert abs(cv.value - ridge_loocv_closed_form(data, lam)) < 1e-8
        assert cv.diagnostics["refit_failures"] == 0.0


def test_loocv_exact_matches_naive_cold_refits_tiny_n():
    spec, loss = _ridge()
    data = make_linear_data(n=5, seed=5)
    cv = loocv_exact(spec, loss, data, [0.3])
    naive = []
    for i in range(5):
        sub = Dataset(np.delete(data.rows, i, axis=0))
        res = solve_theta(spec, sub, [0.3], np.zeros(3))
        naive.append(loss.psi(data.rows[i], res.theta_hat))
    assert abs(cv.value - np.mean(naive)) < 1e-10


def test_loocv_fast_close_to_exact_and_converging():
    spec, loss = _ridge()
    gaps = {}
    for n in (100, 400):
        scaled = []
        for seed in range(8):
            data = make_linear_data(n=n, seed=200 + seed)
            fast = loocv_fast(spec, loss, data, [0.2]).value
            exact = loocv_exact(spec, loss, data, [0.2]).value
            scaled.append(n * abs(fast - exact))
        gaps[n] = float(np.median(scaled))
    assert gaps[400] < gaps[100]


def test_loocv_fast_one_phi_call_no_gradient_call():
    # CV_FAST needs phi once at theta_hat and psi at the influence points;
    # it computes no trace-correction diagnostic
    spec, loss = _ridge()
    data = make_linear_data(n=50, seed=11)
    solve = solve_theta(spec, data, [0.2], spec.theta_init)
    calls = {"phi_batch": 0, "grad_psi_batch": 0}

    def count(owner, slot):
        fn = getattr(owner, slot)

        def counted(*args):
            calls[slot] += 1
            return fn(*args)

        setattr(owner, slot, counted)

    count(spec, "phi_batch")
    count(loss, "grad_psi_batch")
    cv = loocv_fast(spec, loss, data, [0.2], solve=solve)
    assert calls == {"phi_batch": 1, "grad_psi_batch": 0}
    assert "trace_correction" not in cv.diagnostics


def test_loocv_fast_equals_exact_on_replicated_point_mass():
    spec, loss = _ridge()
    row = np.array([2.0, 1.0, -1.0])
    data = Dataset(np.tile(row, (20, 1)) + 0.0)
    # identical rows: every phi(Z_i, theta_hat) = 0 at the root, so the
    # influence step vanishes and fast == exact == TE
    fast = loocv_fast(spec, loss, data, [0.3]).value
    exact = loocv_exact(spec, loss, data, [0.3]).value
    assert abs(fast - exact) < 1e-10


def test_trace_correction_reported_and_ols_value():
    spec, loss = _ridge()
    vals = []
    for seed in range(20):
        data = make_linear_data(n=500, seed=300 + seed)
        tc = te_trace_corrected(spec, loss, data, [0.0])
        # correctly specified OLS: Tr(J^{-1} C) = -2 sigma^2 p, so the
        # correction is -2 sigma^2 p / n and CV exceeds TE
        vals.append(tc.diagnostics["trace_correction"] * 500)
    assert abs(np.mean(vals) - (-2.0 * 3)) < 0.6


def test_trace_correction_zero_for_orthogonal_loss():
    spec, _ = _ridge()
    # psi ignores theta: grad_psi = 0, so C = 0 exactly
    loss = LossSpec(
        psi_batch=lambda Z, th: Z[:, 0] ** 2, grad_psi_batch=lambda Z, th: np.zeros((len(Z), 3))
    )
    data = make_linear_data(n=100, seed=6)
    tc = te_trace_corrected(spec, loss, data, [0.1])
    assert abs(tc.diagnostics["trace_correction"]) < 1e-14


def test_holdout_matches_brute_force_and_seeding():
    spec, loss = _ridge()
    data = make_linear_data(n=60, seed=7)
    h1 = holdout_error(spec, loss, data, [0.2], split=0.5, seed=9)
    h2 = holdout_error(spec, loss, data, [0.2], split=0.5, seed=9)
    h3 = holdout_error(spec, loss, data, [0.2], split=0.5, seed=10)
    assert h1.value == h2.value
    assert h1.value != h3.value
    # brute force with the same permutation
    from tunevar.rng import fisher_yates_permutation

    perm = fisher_yates_permutation(60, 9)
    est = Dataset(data.rows[perm[30:]])
    res = solve_theta(spec, est, [0.2], np.zeros(3))
    X = np.column_stack([np.ones(30), data.rows[perm[:30], 1:]])
    direct = np.mean((data.rows[perm[:30], 0] - X @ res.theta_hat) ** 2)
    assert abs(h1.value - direct) < 1e-12


def test_info_criterion_formulas():
    g = GaussianLikelihoodModel()
    spec, loss = g.spec(), g.neg_loglik_loss()
    rng = np.random.default_rng(8)
    data = Dataset(rng.standard_normal((400, 1))[:, :])
    a = info_criterion(spec, loss, data, [0.0], Method.AIC)
    b = info_criterion(spec, loss, data, [0.0], Method.BIC)
    t = info_criterion(spec, loss, data, [0.0], Method.TIC)
    n, p = 400, 2
    assert abs((a.value - b.value) - p * (1 - np.log(n)) / n) < 1e-14
    assert "trace_correction" in t.diagnostics
    # correct model: TIC penalty close to AIC's p/n
    assert abs(t.diagnostics["trace_correction"] * n - p) < 0.6
    with pytest.raises(ValueError):
        info_criterion(spec, loss, data, [0.0], Method.TE)


def test_criteria_permutation_invariant():
    spec, loss = _ridge()
    data = make_linear_data(n=50, seed=11)
    perm = np.random.default_rng(12).permutation(50)
    shuffled = Dataset(data.rows[perm])
    for fn in (training_error, loocv_exact, loocv_fast, te_trace_corrected):
        v1 = fn(spec, loss, data, [0.3]).value
        v2 = fn(spec, loss, shuffled, [0.3]).value
        assert abs(v1 - v2) < 1e-10
