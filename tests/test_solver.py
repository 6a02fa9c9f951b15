import numpy as np
import pytest

from tunevar import (
    Dataset,
    DomainEscape,
    GaussianLikelihoodModel,
    Method,
    ModelSpec,
    NoConvergence,
    RidgeLinearModel,
    RidgeLogisticModel,
    SingularJacobian,
    ridge_closed_form,
    select_variance,
    solve_loo,
    solve_theta,
    theta_prime,
    tune,
)
from tunevar.model import row_mean, rowwise, slot_values
from tunevar.solver import checked_inv, checked_solve, well_conditioned

from conftest import make_linear_data, make_logistic_data, rel_err


def test_lambda_zero_equals_ols():
    data = make_linear_data(n=150, seed=1)
    spec = RidgeLinearModel(2).spec()
    res = solve_theta(spec, data, [0.0], np.zeros(3))
    X = np.column_stack([np.ones(data.n), data.rows[:, 1:]])
    ols = np.linalg.solve(X.T @ X, X.T @ data.rows[:, 0])
    assert np.allclose(res.theta_hat, ols, atol=1e-10)


def test_ridge_closed_form_agreement_random_lambdas():
    data = make_linear_data(n=120, seed=2)
    spec = RidgeLinearModel(2).spec()
    rng = np.random.default_rng(3)
    for lam in rng.uniform(0.0, 2.0, size=20):
        res = solve_theta(spec, data, [lam], np.zeros(3))
        assert rel_err(res.theta_hat, ridge_closed_form(data, lam)) < 1e-9


def test_residual_recomputation_matches():
    data = make_linear_data(n=80, seed=4)
    spec = RidgeLinearModel(2).spec()
    res = solve_theta(spec, data, [0.5], np.zeros(3))
    F = slot_values(spec, "phi_batch", data.rows, res.theta_hat, res.lam)
    recomputed = float(np.linalg.norm(row_mean(F)))
    assert recomputed == res.residual_norm
    assert res.residual_norm <= 1e-10 * (1.0 + 0.0) + 1e-10


def test_permutation_invariance():
    data = make_linear_data(n=90, seed=5)
    spec = RidgeLinearModel(2).spec()
    res1 = solve_theta(spec, data, [0.3], np.zeros(3))
    perm = np.random.default_rng(6).permutation(data.n)
    res2 = solve_theta(spec, data.take(perm), [0.3], np.zeros(3))
    assert np.allclose(res1.theta_hat, res2.theta_hat, atol=1e-10)


def test_theta_prime_matches_ridge_derivative():
    data = make_linear_data(n=100, seed=7)
    spec = RidgeLinearModel(2).spec()
    res = solve_theta(spec, data, [0.4], np.zeros(3))
    D = theta_prime(spec, data, res)
    X = np.column_stack([np.ones(data.n), data.rows[:, 1:]])
    P = np.diag([0.0, 1.0, 1.0])
    expected = -np.linalg.solve(X.T @ X / data.n + 0.4 * P, P @ res.theta_hat)
    assert rel_err(D.ravel(), expected) < 1e-8


def test_theta_prime_zero_when_lambda_free():
    data = make_linear_data(n=50, seed=8)

    def phi(z, th, lm):
        x = np.concatenate([[1.0], z[1:]])
        return -2.0 * x * (z[0] - th @ x)

    spec = ModelSpec(p=3, q=1, phi_batch=rowwise(phi))
    res = solve_theta(spec, data, [0.7], np.zeros(3))
    assert np.allclose(theta_prime(spec, data, res), 0.0, atol=1e-8)


def test_theta_prime_second_order_halving():
    # || theta(l+h) - theta(l) - h D || should shrink ~4x when h halves
    data = make_linear_data(n=100, seed=9)
    spec = RidgeLinearModel(2).spec()
    lam = 0.3
    res = solve_theta(spec, data, [lam], np.zeros(3))
    D = theta_prime(spec, data, res).ravel()

    def defect(h):
        pert = solve_theta(spec, data, [lam + h], res.theta_hat)
        return np.linalg.norm(pert.theta_hat - res.theta_hat - h * D)

    ratio = defect(1e-3) / defect(5e-4)
    assert 3.5 <= ratio <= 4.5


def test_solve_loo_residual_and_warm_start():
    data = make_linear_data(n=40, seed=10)
    spec = RidgeLinearModel(2).spec()
    res = solve_theta(spec, data, [0.2], np.zeros(3))
    for i in [0, 17, 39]:
        loo = solve_loo(spec, data, [0.2], i, warm_start=res.theta_hat)
        Z = np.delete(data.rows, i, axis=0)
        F = slot_values(spec, "phi_batch", Z, loo.theta_hat, loo.lam)
        assert np.linalg.norm(row_mean(F)) <= 1e-9
    with pytest.raises(IndexError):
        solve_loo(spec, data, [0.2], data.n, warm_start=res.theta_hat)
    tiny = Dataset(data.rows[:2])
    with pytest.raises(ValueError):
        solve_loo(spec, tiny, [0.2], 0, warm_start=res.theta_hat)


def test_loo_gap_shrinks_with_n():
    spec = RidgeLinearModel(2).spec()
    max_gaps = {}
    for n in (200, 400):
        gaps = []
        for seed in range(10):
            data = make_linear_data(n=n, seed=100 + seed)
            res = solve_theta(spec, data, [0.3], np.zeros(3))
            g = 0.0
            for i in range(0, n, max(1, n // 25)):
                loo = solve_loo(spec, data, [0.3], i, warm_start=res.theta_hat)
                g = max(g, np.linalg.norm(loo.theta_hat - res.theta_hat))
            gaps.append(g)
        max_gaps[n] = np.mean(gaps)
    assert max_gaps[400] < 0.75 * max_gaps[200]


def test_singular_jacobian_raises():
    rows = np.column_stack([np.arange(10.0), np.ones(10), np.ones(10)])
    data = Dataset(rows)  # duplicate covariate columns
    spec = RidgeLinearModel(2).spec()
    with pytest.raises(SingularJacobian):
        solve_theta(spec, data, [0.0], np.zeros(3))


def test_non_finite_jacobian_raises_singular_jacobian():
    # a NaN Jacobian is a singular one, not a LinAlgError out of the SVD
    spec = ModelSpec(
        p=1, q=1, phi_batch=lambda Z, th, lm: Z[:, :1] - th[0],
        dphi_dtheta_batch=lambda Z, th, lm: np.full((len(Z), 1, 1), np.nan),
    )
    data = Dataset(np.arange(5.0)[:, None])
    with pytest.raises(SingularJacobian, match="non-finite"):
        solve_theta(spec, data, [0.0], np.zeros(1))


def test_no_convergence_raises():
    # phi has no root: phi = 1 + th^2
    spec = ModelSpec(p=1, q=1, phi_batch=rowwise(lambda z, th, lm: 1.0 + th**2))
    data = Dataset(np.zeros((5, 1)) + np.arange(5.0)[:, None])
    with pytest.raises(NoConvergence):
        solve_theta(spec, data, [0.0], np.array([0.5]))


def test_domain_escape_raises():
    # root at th = 3 but the box stops at 1, and projection cannot reduce
    spec = ModelSpec(
        p=1, q=1,
        phi_batch=rowwise(lambda z, th, lm: th - 3.0),
        theta_domain=np.array([[-1.0, 1.0]]),
    )
    data = Dataset(np.arange(4.0)[:, None])
    with pytest.raises((DomainEscape, NoConvergence)):
        solve_theta(spec, data, [0.0], np.array([0.0]))


@pytest.mark.xfail(strict=True, raises=DomainEscape,
                   reason="Newton from theta_init (0, 1) leaves theta_domain on some "
                          "small Gaussian samples (ROADMAP item 1)")
def test_gaussian_small_sample_from_theta_init():
    # the MLE is (mean, sd) in closed form; Newton from the sample moments
    # converges at once, but from theta_init the projected step is rejected
    from tunevar import GaussianLikelihoodModel

    z = 1.3 * np.random.default_rng(0).standard_normal(5) + 0.4
    spec = GaussianLikelihoodModel().spec()
    res = solve_theta(spec, Dataset(z[:, None]), [0.0], spec.theta_init)
    assert np.allclose(res.theta_hat, [z.mean(), z.std()], atol=1e-8)


@pytest.fixture
def svds(monkeypatch):
    """The stack size of each np.linalg.cond call, in order."""
    sizes = []
    cond = np.linalg.cond

    def counted(M):
        sizes.append(len(M))
        return cond(M)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return sizes


def test_well_conditioned_skips_the_svd_when_the_bound_decides(svds):
    # a stack whose determinant bound passes needs no SVD; only the members
    # it cannot clear (7, 9 and the zero matrix 11) take the SVD test, which
    # decides each
    rng = np.random.default_rng(0)
    A = np.eye(3) + 0.1 * rng.standard_normal((50, 3, 3))
    assert well_conditioned(A).all()
    assert svds == []
    A[7] = np.diag([1.0, 1.0, 1e-13])
    A[9] = np.diag([1.0, 1.0, 1e-11])
    A[11] = 0.0
    ok = well_conditioned(A)
    assert np.flatnonzero(~ok).tolist() == [7, 11]
    assert svds == [3]
    # with A[11] = I only 7 and 9 take it; A[9] (cond 1e11, bound
    # 2^0.5 * 1e11) passes it
    A[11] = np.eye(3)
    ok = well_conditioned(A)
    assert np.flatnonzero(~ok).tolist() == [7]
    assert svds == [3, 2]


def test_well_conditioned_screen_clears_a_wide_stack(svds):
    # p = 20, cond 2: ||A||_F^p / |det A| alone is 2e13, above COND_LIMIT;
    # divided by (p-1)^((p-1)/2) it is about 16, and no member takes the SVD
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((50, 20, 20)))[0]
    A = (U * np.linspace(1.0, 2.0, 20)) @ U.transpose(0, 2, 1)
    assert well_conditioned(A).all()
    assert sum(svds) == 0


def test_well_conditioned_is_false_for_non_finite_members(svds):
    # one bool per member, as for a finite stack; the SVD does not converge
    # on NaN or inf entries, so those members take no SVD
    A = np.stack([np.eye(3), np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.inf])])
    assert well_conditioned(A).tolist() == [True, False, False]
    assert sum(svds) == 0


def test_checked_solve_skips_the_svd_when_the_bound_decides(monkeypatch):
    # every Newton step, influence step and inverse of an interior
    # ridge-logistic tune and select_variance is cleared by the Frobenius
    # screen; a matrix it cannot clear takes one SVD, and a non-finite one none
    data = make_logistic_data(n=200, seed=0)
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    svds = []
    cond = np.linalg.cond

    def counted(M):
        svds.append(np.shape(M))
        return cond(M)

    monkeypatch.setattr(np.linalg, "cond", counted)
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=10)
    assert fit.interior
    assert np.all(np.isfinite(select_variance(spec, loss, data, fit).V1))
    assert svds == []
    # cond 5e11: above the screen's 1e11, within COND_LIMIT
    A = np.diag([1.0, 2e-12])
    assert np.array_equal(checked_solve(A, np.ones(2), "A"), np.linalg.solve(A, np.ones(2)))
    assert np.array_equal(checked_inv(A, "A"), np.linalg.solve(A, np.eye(2)))
    assert len(svds) == 2
    svds.clear()
    # np.linalg.inv finds the second exactly singular, the third has cond inf
    for A in (np.diag([1.0, 1e-13]), np.ones((2, 2)), np.zeros((2, 2))):
        with pytest.raises(SingularJacobian) as err:
            checked_solve(A, np.ones(2), "A")
        assert str(err.value) == f"A condition number {cond(A):.3e} exceeds 1e12"
        assert len(svds) == 1
        svds.clear()
    with pytest.raises(SingularJacobian, match="^A has non-finite entries$"):
        checked_solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), "A")
    assert svds == []


@pytest.mark.parametrize("A, inv_raises", [
    ([[1.0, np.nan], [0.0, 1.0]], False),  # np.linalg.inv returns NaN
    ([[np.inf, 0.0], [0.0, 1.0]], False),  # ... and here a finite inverse
    ([[1.0, 0.0], [-np.inf, 1.0]], True),  # np.linalg.inv raises LinAlgError
    ([[np.nan, 0.0], [1.0, 0.0]], True),
], ids=["nan-inv-nan", "inf-inv-finite", "minus-inf-inv-raises", "nan-inv-raises"])
def test_a_non_finite_matrix_fails_the_screen_without_an_svd(monkeypatch, A, inv_raises):
    # the inverse and its screen come first: a NaN or infinite entry makes
    # the bound NaN or inf, and the finiteness check names the matrix before
    # any SVD, whatever np.linalg.inv made of it
    A = np.array(A)
    try:
        np.linalg.inv(A)
    except np.linalg.LinAlgError:
        assert inv_raises
    else:
        assert not inv_raises
    svds = []
    monkeypatch.setattr(np.linalg, "cond", lambda M: svds.append(M))
    for check in (lambda: checked_inv(A, "A"), lambda: checked_solve(A, np.ones(2), "A")):
        with pytest.raises(SingularJacobian, match="^A has non-finite entries$"):
            check()
    assert svds == []


def test_a_newton_step_makes_one_inverse_one_solve_and_no_norm(monkeypatch):
    # the fixed cost of a step: checked_solve's screen inverts once and
    # solves once; the residual tests and default_tol take no np.linalg.norm
    spec = RidgeLogisticModel(2).spec()
    data = make_logistic_data(n=150, seed=1)
    calls = {"inv": 0, "solve": 0, "norm": 0, "cond": 0}
    for name in calls:
        def counted(*args, fn=getattr(np.linalg, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    res = solve_theta(spec, data, [0.01], spec.theta_init)
    assert res.iterations >= 3
    assert calls == {"inv": res.iterations, "solve": res.iterations, "norm": 0, "cond": 0}


def _count_newton_calls(spec, data, lam, theta_init):
    """(SolveResult, calls per slot, line-search candidates) of one solve.

    The slots are counted on spec itself, so a fallback's calls to the
    other slots count too; candidates counts the thetas at which the line
    search evaluated phi, rejected ones included.
    """
    slots = ("phi_batch", "dphi_dtheta_batch", "phi_jac_sum")
    calls = dict.fromkeys(slots, 0)
    thetas = []
    for slot in slots:
        def counted(Z, th, lm, fn=getattr(spec, slot), slot=slot):
            calls[slot] += 1
            if slot == "phi_jac_sum":
                thetas.append(np.array(th))
            return fn(Z, th, lm)

        setattr(spec, slot, counted)
    res = solve_theta(spec, data, lam, theta_init)
    return res, calls, len(thetas) - 1


@pytest.mark.parametrize("name", ["ridge-linear", "ridge-logistic", "gaussian"])
def test_newton_sums_each_jacobian_in_one_call(name):
    # a built-in spec's Newton solve never builds the (n, p, p) per-row
    # stack: one phi_jac_sum call at the start and one per line-search
    # candidate, and no call of phi_batch; J_hat is the last accepted S
    if name == "ridge-linear":
        spec, data, lam = RidgeLinearModel(2).spec(), make_linear_data(n=150, seed=1), [0.3]
    elif name == "ridge-logistic":
        spec, data, lam = RidgeLogisticModel(2).spec(), make_logistic_data(n=150, seed=1), [0.01]
    else:
        rows = np.random.default_rng(1).normal(3.0, 2.0, (150, 1))
        spec, data, lam = GaussianLikelihoodModel().spec(), Dataset(rows), [0.0]
    kernel = spec.phi_jac_sum
    res, calls, candidates = _count_newton_calls(spec, data, lam, spec.theta_init)
    assert res.iterations >= 1 and candidates >= res.iterations
    assert calls == {"phi_batch": 0, "dphi_dtheta_batch": 0, "phi_jac_sum": 1 + candidates}
    F, S = kernel(data.rows, res.theta_hat, res.lam)
    assert np.array_equal(res.Phi, F)
    assert np.array_equal(res.J_hat, -(S / data.n))


def _arctan_spec(**slots):
    # phi = arctan(theta - z): the full Newton step from far off the root
    # overshoots, so the line search halves it
    return ModelSpec(
        p=1, q=1, phi_batch=lambda Z, th, lm: np.arctan(th[0] - Z[:, :1]),
        dphi_dtheta_batch=lambda Z, th, lm: (1.0 / (1.0 + (th[0] - Z[:, :1]) ** 2))[:, :, None],
        **slots,
    )


def test_newton_with_halvings_matches_the_fallback_pair_bitwise():
    # from theta = 10 the root near 1 takes Armijo halvings; a supplied
    # phi_jac_sum and the fallback pair give the same solve to the last bit,
    # with one phi_jac_sum call per evaluated iterate, rejected ones included
    data = Dataset(np.array([[0.5], [1.0], [1.5]]))

    def phi_jac_sum(Z, th, lm):
        r = th[0] - Z[:, :1]
        return np.arctan(r), (1.0 / (1.0 + r**2)).sum(axis=0)[:, None]

    results = []
    for spec in (_arctan_spec(phi_jac_sum=phi_jac_sum), _arctan_spec()):
        res, calls, candidates = _count_newton_calls(spec, data, [0.0], np.array([10.0]))
        assert candidates > res.iterations  # some candidates were rejected
        assert calls["phi_jac_sum"] == 1 + candidates
        results.append((res, calls))
    (kernel, kernel_calls), (fallback, fallback_calls) = results
    assert kernel_calls == {"phi_batch": 0, "dphi_dtheta_batch": 0,
                            "phi_jac_sum": kernel_calls["phi_jac_sum"]}
    # the fallback evaluates phi_batch and dphi_dtheta_batch once per call
    n_pairs = fallback_calls["phi_jac_sum"]
    assert fallback_calls == dict.fromkeys(fallback_calls, n_pairs)
    assert n_pairs == kernel_calls["phi_jac_sum"]
    assert abs(kernel.theta_hat[0] - 1.0) <= 1e-9
    for field in ("theta_hat", "J_hat", "Phi"):
        assert np.array_equal(getattr(kernel, field), getattr(fallback, field)), field
    assert (kernel.iterations, kernel.residual_norm) == (
        fallback.iterations, fallback.residual_norm
    )
