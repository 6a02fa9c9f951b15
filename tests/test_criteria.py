import dataclasses

import numpy as np
import pytest

import tunevar.numdiff as numdiff
from tunevar import (
    DGPKind,
    DGPSpec,
    Dataset,
    GaussianLikelihoodModel,
    LossSpec,
    Method,
    ModelSpec,
    RefitFailure,
    RidgeLinearModel,
    RidgeLogisticModel,
    TunevarError,
    evaluate_criterion,
    holdout_error,
    info_criterion,
    loocv_exact,
    loocv_fast,
    ridge_loocv_closed_form,
    select_variance,
    simulate,
    solve_loo,
    solve_loo_all,
    solve_theta,
    te_trace_corrected,
    training_error,
    tune,
)
from tunevar.exceptions import EvaluationError
from tunevar.model import rowwise, slot_values
from tunevar import solver
from tunevar.models import LOO_BLOCK

from conftest import make_linear_data, make_logistic_data


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


def test_loocv_fast_no_phi_call_no_gradient_call():
    # CV_FAST reads phi at theta_hat from the solve (SolveResult.Phi) and
    # evaluates psi at the influence points; it computes no trace-correction
    # diagnostic
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
    assert calls == {"phi_batch": 0, "grad_psi_batch": 0}
    assert "trace_correction" not in cv.diagnostics


def test_te_trace_corrected_given_solve_makes_no_phi_call():
    # C_hat takes phi at theta_hat from the solve; the value is the one
    # computed from a fresh phi evaluation
    spec, loss = _ridge()
    data = make_linear_data(n=50, seed=11)
    solve = solve_theta(spec, data, [0.2], spec.theta_init)
    F = spec.phi_batch(data.rows, solve.theta_hat, solve.lam)
    G = loss.grad_psi_batch(data.rows, solve.theta_hat)
    te = loss.psi_batch(data.rows, solve.theta_hat).mean()
    corr = np.trace(np.linalg.solve(solve.J_hat, F.T @ G / data.n)) / data.n
    calls = _count_calls(spec, "phi_batch")
    tc = te_trace_corrected(spec, loss, data, [0.2], solve=solve)
    assert calls == {"phi_batch": 0}
    assert tc.diagnostics["trace_correction"] == pytest.approx(corr, rel=1e-12)
    assert tc.value == pytest.approx(te - corr, rel=1e-12)


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


@pytest.mark.parametrize("seed, n", [(0, 5), (1, 40), (2, 257), (3, 499)])
def test_trace_corrected_te_is_tic_for_a_likelihood_loss(seed, n):
    # psi = -log f has grad psi = -phi, so TE - Tr(J^-1 C)/n is TIC's
    # -loglik + Tr(J^-1 K)/n. K = Phi'Phi / n takes BLAS's symmetric product
    # and C = Phi'(-Phi) / n the general one, so the two trace terms differ
    # in their last bits (1e-15 relative at most over 400 samples), below
    # the last bit of the criterion value, which is the same
    g = GaussianLikelihoodModel()
    spec, loss = g.spec(), g.neg_loglik_loss()
    z = 1.3 * np.random.default_rng(seed).standard_normal(n) + 0.4
    data = Dataset(z[:, None])
    solve = solve_theta(spec, data, [0.0], [z.mean(), z.std()])
    tic = info_criterion(spec, loss, data, [0.0], Method.TIC, solve=solve)
    te = te_trace_corrected(spec, loss, data, [0.0], solve=solve)
    assert te.value == tic.value
    corr = tic.diagnostics["trace_correction"]
    assert abs(te.diagnostics["trace_correction"] + corr) <= 1e-14 * abs(corr)


def test_criteria_permutation_invariant():
    spec, loss = _ridge()
    data = make_linear_data(n=50, seed=11)
    perm = np.random.default_rng(12).permutation(50)
    shuffled = Dataset(data.rows[perm])
    for fn in (training_error, loocv_exact, loocv_fast, te_trace_corrected):
        v1 = fn(spec, loss, data, [0.3]).value
        v2 = fn(spec, loss, shuffled, [0.3]).value
        assert abs(v1 - v2) < 1e-10


def _cubic_spec(theta_init, hi=None, inf_above=None, raise_above=None):
    """phi(z, th) = y - a th - th^3 on rows z = (y, a), p = q = 1; lam is inert.

    Each leave-one-out problem has one root, but the Newton step from
    theta_hat can overshoot it, and a row's Jacobian -(a + 3 th^2) vanishes at
    th = 0 when a = 0. Above inf_above phi is infinite; above raise_above it
    raises EvaluationError.
    """

    def phi(z, th, lm):
        t = th[0]
        if raise_above is not None and t > raise_above:
            raise EvaluationError("phi is undefined above raise_above")
        return [np.inf if inf_above is not None and t > inf_above else z[0] - z[1] * t - t**3]

    def dphi(z, th, lm):
        return [[-(z[1] + 3.0 * th[0] ** 2)]]

    return ModelSpec(
        p=1, q=1, phi_batch=rowwise(phi), dphi_dtheta_batch=rowwise(dphi),
        theta_domain=None if hi is None else [[-10.0, hi]], theta_init=[theta_init],
    )


_CUBIC_LOSS = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] - th[0]) ** 2))
# sum(y) = 0 exactly, so theta_hat = 0 exactly when solved from 0
_OVERSHOOT_ROWS = np.array([[1.0, 1.0]] * 4 + [[-4.0, 1.0]])
_INSIDE_ROWS = np.array([[0.5, 1.0]] * 4 + [[-2.0, 1.0]])
_SINGULAR_ROWS = np.array([[0.125, 0.0]] * 4 + [[-0.5, 1.0]])


@pytest.mark.parametrize("rows, spec_kw", [
    # dropping row 4 moves the root from 0 to 0.682; the first step lands on
    # 1.0, where the residual is no smaller
    pytest.param(_OVERSHOOT_ROWS, {}, id="armijo"),
    # the first step for row 4 lands on 0.5, which passes the Armijo test but
    # lies past the bound 0.48; the root is 0.453
    pytest.param(_INSIDE_ROWS, {"hi": 0.48}, id="domain"),
    # phi is infinite where the first step for row 4 lands
    pytest.param(_OVERSHOOT_ROWS, {"inf_above": 0.95}, id="non-finite-phi"),
    # phi raises where the first step for row 4 lands: the stacked phi call
    # of that step fails, and re-evaluating it one theta at a time drops
    # row 4 only
    pytest.param(_OVERSHOOT_ROWS, {"raise_above": 0.95}, id="evaluation-error"),
    # without row 4 every row has a = 0: A_4 = 0 at theta_hat = 0, and only
    # the cold start reaches the root 0.5
    pytest.param(_SINGULAR_ROWS, {}, id="condition"),
])
def test_loocv_exact_rejected_rows_fall_back_to_per_row_refit(monkeypatch, rows, spec_kw):
    import tunevar.criteria as criteria

    spec = _cubic_spec(0.75, **spec_kw)
    data = Dataset(rows)
    solve = solve_theta(spec, data, [0.0], [0.0])
    assert solve.theta_hat[0] == 0.0
    thetas, converged = solve_loo_all(spec, data, solve)
    assert converged.tolist() == [True] * 4 + [False]
    assert np.all(np.isnan(thetas[4]))

    calls = []

    def recorded(model, data, lam, i, **kw):
        calls.append(int(i))
        return solve_loo(model, data, lam, i, **kw)

    monkeypatch.setattr(criteria, "solve_loo", recorded)
    cv = loocv_exact(spec, _CUBIC_LOSS, data, [0.0], solve=solve)
    assert calls and set(calls) == {4}
    assert cv.diagnostics == {"refit_failures": 0.0, "refit_fallbacks": 1.0}

    # batched rows match the per-row refits; the rejected row takes the
    # per-row path: warm start, then cold retry
    for i in range(data.n):
        try:
            res = solve_loo(spec, data, solve.lam, i, warm_start=solve.theta_hat)
        except TunevarError:
            assert i == 4
            res = solve_loo(spec, data, solve.lam, i, warm_start=spec.theta_init)
        if i < 4:
            assert abs(thetas[i, 0] - res.theta_hat[0]) < 1e-12
    thetas[4] = res.theta_hat
    held_out = [_CUBIC_LOSS.psi(z, th) for z, th in zip(data.rows, thetas)]
    assert abs(cv.value - np.mean(held_out)) < 1e-14


def test_loocv_exact_failed_refits_counted_then_abort():
    # with the cold start at 0 too, the refit without the single a = 1 row
    # fails from both starts: 1 of 101 rows is tolerated, 1 of 5 aborts
    spec = _cubic_spec(0.0)
    y = 2.0**-7
    rows = np.array([[y, 0.0]] * 2 + [[-100 * y, 1.0]] + [[y, 0.0]] * 98)
    data = Dataset(rows)
    solve = solve_theta(spec, data, [0.0], [0.0])
    cv = loocv_exact(spec, _CUBIC_LOSS, data, [0.0], solve=solve)
    assert cv.diagnostics == {"refit_failures": 1.0, "refit_fallbacks": 1.0}
    thetas, converged = solve_loo_all(spec, data, solve)
    keep = np.arange(data.n) != 2
    assert np.array_equal(converged, keep)
    held_out = [_CUBIC_LOSS.psi(z, th) for z, th in zip(rows[keep], thetas[keep])]
    assert abs(cv.value - np.mean(held_out)) < 1e-15

    small = Dataset(_SINGULAR_ROWS)
    solve = solve_theta(spec, small, [0.0], [0.0])
    with pytest.raises(RefitFailure) as exc:
        loocv_exact(spec, _CUBIC_LOSS, small, [0.0], solve=solve)
    assert exc.value.failed_indices == (4,)


def _count_calls(spec, *slots):
    # a leave-one-out sum slot also counts its problems, under "<slot>.rows"
    calls = dict.fromkeys(slots, 0)
    for slot in slots:
        fn = getattr(spec, slot)
        if slot.endswith("_loo_sum"):
            calls[slot + ".rows"] = 0

        def counted(*args, fn=fn, slot=slot):
            calls[slot] += 1
            if slot.endswith("_loo_sum"):
                calls[slot + ".rows"] += len(args[2])
            return fn(*args)

        setattr(spec, slot, counted)
    return calls


def test_loocv_exact_one_hessian_call_few_jacobian_calls():
    # the rows close to their root after the first step take a Taylor
    # Jacobian from the one Hessian at theta_hat instead of evaluating it
    n, lam = 400, [0.01]
    m = RidgeLogisticModel(2)
    spec, loss = m.spec(), m.brier_loss()
    dgp = DGPSpec(DGPKind.LOGISTIC_TRUE, n=n, params={"beta": (0.2, 1.0, -0.5)})
    data = simulate(dgp, seed=3)
    solve = solve_theta(spec, data, lam, spec.theta_init)
    calls = _count_calls(spec, "hess_phi_theta", "dphi_dtheta_batch", "jac_loo_sum")
    cv = loocv_exact(spec, loss, data, lam, solve=solve)
    assert calls["hess_phi_theta"] == 1
    assert calls["dphi_dtheta_batch"] == 1
    assert calls["jac_loo_sum.rows"] <= 0.25 * n
    assert cv.diagnostics["refit_fallbacks"] == 0.0


def test_loocv_exact_no_hessian_call_without_taylor_step():
    # every problem's residual after its first step is above sqrt(tol), so
    # each evaluates its Jacobian after both steps and no Hessian is needed;
    # the full-data Jacobian is evaluated once, at theta_hat, and the rest
    # come from one jac_loo_sum call per step
    n, lam = 40, [0.1]
    m = RidgeLogisticModel(2)
    spec = m.spec()
    data = make_logistic_data(n=n, seed=0)
    solve = solve_theta(spec, data, lam, spec.theta_init)
    calls = _count_calls(spec, "hess_phi_theta", "dphi_dtheta_batch", "jac_loo_sum")
    thetas, converged = solve_loo_all(spec, data, solve)
    assert converged.all()
    assert calls == {"hess_phi_theta": 0, "dphi_dtheta_batch": 1,
                     "jac_loo_sum": 2, "jac_loo_sum.rows": 2 * n}


@pytest.mark.parametrize("seed, lam", [(4, 0.3), (7, 0.1)])
def test_loocv_exact_with_finite_difference_hessian(monkeypatch, seed, lam):
    # a spec without an analytic hess_phi_theta gets the numdiff.hessian
    # fallback; its Taylor Jacobians spare as many evaluations as the
    # analytic Hessian's and lead to the same roots
    n = 200
    m = RidgeLogisticModel(2)
    spec, loss = m.spec(), m.brier_loss()
    fd_spec = dataclasses.replace(spec, hess_phi_theta=None)
    hessians = []
    hessian = numdiff.hessian

    def recorded(f, x, **kw):
        hessians.append(x)
        return hessian(f, x, **kw)

    monkeypatch.setattr(numdiff, "hessian", recorded)
    data = make_logistic_data(n=n, seed=seed)
    solve = solve_theta(spec, data, [lam], spec.theta_init)
    jacobians = []
    for s in (spec, fd_spec):
        calls = _count_calls(s, "jac_loo_sum")
        thetas, converged = solve_loo_all(s, data, solve)
        jacobians.append(calls["jac_loo_sum.rows"])
    assert len(hessians) == 1 and converged.all()
    assert jacobians[1] == jacobians[0] <= 0.25 * n
    refits = np.array([
        solve_loo(spec, data, solve.lam, i, warm_start=solve.theta_hat).theta_hat
        for i in range(n)
    ])
    assert np.all(np.abs(thetas - refits) <= 1e-7 * (1.0 + np.abs(refits)))
    cv = loocv_exact(fd_spec, loss, data, [lam], solve=solve)
    per_row = np.mean([loss.psi(z, th) for z, th in zip(data.rows, refits)])
    assert abs(cv.value - per_row) <= 1e-9 * abs(per_row)
    analytic = loocv_exact(spec, loss, data, [lam], solve=solve)
    assert abs(cv.value - analytic.value) <= 1e-9 * abs(analytic.value)


def _loo_case(model, n):
    """(spec, data, solve): an n-row ridge-logistic or Gaussian sample and its root."""
    if model == "ridge-logistic":
        spec = RidgeLogisticModel(2).spec()
        data = simulate(DGPSpec(DGPKind.LOGISTIC_TRUE, n=n,
                                params={"beta": (0.2, 1.0, -0.5)}), seed=5)
        return spec, data, solve_theta(spec, data, [0.01], spec.theta_init)
    spec = GaussianLikelihoodModel().spec()
    z = np.random.default_rng(5).standard_normal(n) * 1.3 + 0.4
    data = Dataset(z[:, None])
    return spec, data, solve_theta(spec, data, [0.0], [z.mean(), z.std()])


@pytest.mark.parametrize("model", ["ridge-logistic", "gaussian"])
def test_solve_loo_all_stacked_phi_matches_fallback(model):
    # at n = 300 a ridge-logistic kernel block holds fewer problems than the
    # first step, so that step's phi_loo_sum call spans several blocks; the
    # built-in sum kernels and the fallbacks that sum phi_batch
    # (dphi_dtheta_batch) over all rows but the problem's own agree on which
    # problems converge and on their roots
    n = 300
    assert LOO_BLOCK // n < n
    spec, data, solve = _loo_case(model, n)
    fallback = dataclasses.replace(spec, phi_loo_sum=None, jac_loo_sum=None)
    calls = _count_calls(spec, "phi_batch", "dphi_dtheta_batch", "phi_loo_sum")
    thetas, converged = solve_loo_all(spec, data, solve)
    assert converged.all()
    # phi at theta_hat comes from the solve and the per-row Jacobian runs
    # once, there; every step evaluates the sums
    assert calls["phi_batch"] == 0 and calls["dphi_dtheta_batch"] == 1
    assert calls["phi_loo_sum"] >= 2
    fb_thetas, fb_converged = solve_loo_all(fallback, data, solve)
    assert np.array_equal(converged, fb_converged)
    assert np.all(np.abs(thetas - fb_thetas) <= 1e-12 * np.abs(fb_thetas))


@pytest.mark.parametrize("model", ["ridge-logistic", "gaussian"])
def test_solve_loo_all_makes_one_phi_loo_sum_call_per_step(model, monkeypatch):
    # every step passes all of its problems to the sum slot in one call, the
    # first step's n included; the condition screen runs once per step
    n = 300
    spec, data, solve = _loo_case(model, n)
    screened = []
    screen = solver.well_conditioned

    def counted(A):
        screened.append(len(A))
        return screen(A)

    monkeypatch.setattr(solver, "well_conditioned", counted)
    calls = _count_calls(spec, "phi_loo_sum")
    _, converged = solve_loo_all(spec, data, solve)
    assert converged.all() and len(screened) >= 2 and screened[0] == n
    assert calls["phi_loo_sum"] == len(screened)
    # no problem failed the condition or domain test, so each call took
    # every problem that the step screened
    assert calls["phi_loo_sum.rows"] == sum(screened)


@pytest.mark.parametrize("criterion", [
    training_error, loocv_exact, loocv_fast, te_trace_corrected,
    lambda *a, **kw: info_criterion(*a, Method.TIC, **kw),
], ids=["te", "cv", "cv_fast", "te_trace", "tic"])
def test_criteria_refuse_a_solve_at_another_lambda(criterion):
    # the value is read from the solve: a root at 0.1 gave TE(0.1) under lam 0.9
    spec, loss = _ridge()
    data = make_linear_data(n=80, seed=3)
    solve = solve_theta(spec, data, [0.1], spec.theta_init)
    with pytest.raises(ValueError, match="solve was made at lambda"):
        criterion(spec, loss, data, [0.9], solve=solve)
    at_solve = criterion(spec, loss, data, [0.1], solve=solve)
    assert at_solve.value == criterion(spec, loss, data, [0.1]).value


@pytest.mark.parametrize("model", ["ridge-linear", "ridge-logistic"])
def test_replacing_phi_batch_drops_the_built_in_phi_loo_sum(model):
    # dataclasses.replace(spec, phi_batch=g) used to keep the built-in
    # phi_loo_sum, which sums the old phi: exact LOOCV converged to the old
    # equation's leave-one-out roots, 4.9e-3 (8.0e-3) relative off here
    if model == "ridge-linear":
        m = RidgeLinearModel(2)
        loss, lam, c = m.squared_error_loss(), [0.1], (0.3, -0.3, 0.15)
        dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60, params={"beta": (1.0, 1.0, 0.5)})
    else:
        m = RidgeLogisticModel(2)
        loss, lam, c = m.brier_loss(), [0.01], (0.05, -0.05, 0.02)
        dgp = DGPSpec(DGPKind.LOGISTIC_TRUE, n=80, params={"beta": (0.2, 1.0, -0.5)})
    built_in = m.spec()
    spec = dataclasses.replace(
        built_in, phi_batch=lambda Z, th, lm: 10.0 * built_in.phi_batch(Z, th, lm) + np.asarray(c)
    )
    # every built-in kernel goes, the derivative kernels too
    assert spec.phi_loo_sum is not built_in.phi_loo_sum
    assert spec.phi_jac_sum is not built_in.phi_jac_sum
    assert spec.jac_loo_sum is not built_in.jac_loo_sum
    data = simulate(dgp, seed=3)
    solve = solve_theta(spec, data, lam, spec.theta_init)
    value = loocv_exact(spec, loss, data, lam, solve=solve).value
    refits = np.array([solve_loo(spec, data, lam, i, solve.theta_hat).theta_hat
                       for i in range(data.n)])
    per_row = float(slot_values(loss, "psi_rowwise", data.rows, refits).mean())
    assert abs(value - per_row) <= 1e-10 * abs(per_row)


def _cv_fast_fit_and_report(spec, loss, data, **kw):
    fit = tune(spec, loss, data, Method.CV_FAST, **kw)
    return fit, select_variance(spec, loss, data, fit)


def _without_slots(spec, owner, **fields):
    """dataclasses.replace(spec, **fields) with every callable slot but owner
    None, so that each is its fallback."""
    bare = {f.name: None for f in dataclasses.fields(spec)
            if "Callable" in str(f.type) and f.name != owner}
    return dataclasses.replace(spec, **{**bare, **fields})


def _assert_same_tuning(got, want):
    (fit, report), (fit0, report0) = got, want
    assert np.array_equal(fit.lambda_hat, fit0.lambda_hat)
    assert np.array_equal([(*lam, v) for lam, v in fit.trace],
                          [(*lam, v) for lam, v in fit0.trace])
    assert np.array_equal(report.standard_errors, report0.standard_errors)


def test_a_replaced_phi_batch_is_tuned_and_differentiated_through_the_fallbacks():
    # the built-in derivative slots differentiate the old phi: kept beside
    # g, they gave lambda-hat 0.157 and standard errors (1.28, 0.40, 0.82)
    # where g's own derivatives give 0.029 and (0.126, 0.149, 0.114)
    m = RidgeLinearModel(2)
    built_in, loss = m.spec(), m.squared_error_loss()
    data = simulate(DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60, params={"beta": (1.0, 1.0, 0.5)}),
                    seed=3)

    def g(Z, th, lm):
        return 10.0 * built_in.phi_batch(Z, th, lm) + np.array([0.3, -0.3, 0.15])

    got = _cv_fast_fit_and_report(dataclasses.replace(built_in, phi_batch=g), loss, data,
                                  grid_size=8)
    want = _cv_fast_fit_and_report(_without_slots(built_in, "phi_batch", phi_batch=g), loss,
                                   data, grid_size=8)
    _assert_same_tuning(got, want)


@pytest.mark.parametrize("seed", [3, 5])
def test_a_replaced_psi_batch_is_tuned_and_differentiated_through_the_fallbacks(seed):
    # the built-in psi_rowwise kept beside h made CV_FAST tune the old loss:
    # on seed 3 lambda-hat was 0.0228 where the weighted loss gives 0.2467,
    # and on seed 5 an interior V1 where the weighted loss has a boundary V2
    m = RidgeLinearModel(2)
    spec, built_in = m.spec(), m.squared_error_loss()
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=250,
                  params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5})
    data = simulate(dgp, seed=seed)

    def h(Z, th):
        return (1.0 + Z[:, 1] ** 2) * built_in.psi_batch(Z, th)

    got = _cv_fast_fit_and_report(spec, dataclasses.replace(built_in, psi_batch=h), data)
    _assert_same_tuning(got, _cv_fast_fit_and_report(
        spec, _without_slots(built_in, "psi_batch", psi_batch=h), data))
    weighted = m.squared_error_loss(weight_fn=lambda X: 1.0 + X[:, 1] ** 2)
    fit, report = _cv_fast_fit_and_report(spec, weighted, data)
    width = spec.lambda_domain[:, 1] - spec.lambda_domain[:, 0]
    assert np.all(np.abs(got[0].lambda_hat - fit.lambda_hat) <= 1e-6 * width)
    assert got[1].selected == report.selected


@pytest.mark.parametrize("method", list(Method))
def test_evaluate_criterion_returns_the_direct_criterion_bit_for_bit(method):
    # the dispatch the tuner and the CLI use, against each criterion function
    data = make_linear_data(n=40, seed=21)
    m = RidgeLinearModel(2)
    spec, loss = m.spec(), m.squared_error_loss()
    lam = [0.3]
    direct = {
        Method.TE: lambda: training_error(spec, loss, data, lam),
        Method.CV_EXACT: lambda: loocv_exact(spec, loss, data, lam),
        Method.CV_FAST: lambda: loocv_fast(spec, loss, data, lam),
        Method.TE_TRACE_CORRECTED: lambda: te_trace_corrected(spec, loss, data, lam),
        Method.HOLDOUT: lambda: holdout_error(spec, loss, data, lam, split=0.6, seed=5),
    }
    want = direct.get(method, lambda: info_criterion(spec, loss, data, lam, method))()
    got = evaluate_criterion(method, spec, loss, data, lam, split=0.6, seed=5)
    assert got.method is method
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.diagnostics == want.diagnostics
