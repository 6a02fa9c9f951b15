import numpy as np
import pytest

from tunevar import (
    Dataset,
    GaussianLikelihoodModel,
    HybridModel,
    RidgeLinearModel,
    RidgeLogisticModel,
    SchemaError,
    SingularJacobian,
    load_pima_csv,
    ridge_closed_form,
)
from tunevar.numdiff import jacobian

from conftest import fd_check, make_linear_data, make_logistic_data, unit_draw


def _loss_fd_check(loss, Z, th):
    """Loss slots against finite differences of psi_batch over all rows at once."""
    n = len(Z)
    g = loss.grad_psi_batch(Z, th)
    assert g.shape == (n, len(th))
    assert np.allclose(g, jacobian(lambda t: loss.psi_batch(Z, t), th), rtol=1e-6, atol=1e-8)
    h = loss.hess_psi(Z, th)
    assert h.shape == (n, len(th), len(th))
    h_fd = jacobian(lambda t: loss.grad_psi_batch(Z, t), th)
    assert np.allclose(h, h_fd, rtol=1e-4, atol=1e-6)
    assert np.allclose(loss.psi_rowwise(Z, np.tile(th, (n, 1))), loss.psi_batch(Z, th))
    assert loss.psi(Z[0], th) == loss.psi_batch(Z[:1], th)[0]


def test_ridge_linear_derivatives_match_fd():
    data = make_linear_data(n=40, seed=1)
    spec = RidgeLinearModel(2).spec()
    fd_check(spec, data, unit_draw(spec), seed=1)


def test_ridge_logistic_derivatives_match_fd():
    data = make_logistic_data(n=40, seed=2)
    spec = RidgeLogisticModel(2).spec()
    fd_check(spec, data, unit_draw(spec), seed=2)


def test_gaussian_model_derivatives_match_fd():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((40, 1)) + 0.5)
    spec = GaussianLikelihoodModel().spec()

    def draw(rng):
        return np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)]), np.zeros(1)

    fd_check(spec, data, draw, seed=4)


def test_builtin_losses_match_fd():
    rng = np.random.default_rng(12)
    lin, logit = RidgeLinearModel(2), RidgeLogisticModel(2)
    Z = make_linear_data(n=25, seed=12).rows
    for loss in (lin.squared_error_loss(), lin.squared_error_loss(lambda X: 1.0 + X[:, 1] ** 2)):
        _loss_fd_check(loss, Z, rng.uniform(-0.8, 0.8, size=3))
    Z = make_logistic_data(n=25, seed=13).rows
    for loss in (logit.brier_loss(), logit.brier_loss(predictor_covariates=[1])):
        _loss_fd_check(loss, Z, rng.uniform(-0.8, 0.8, size=3))
    Z = rng.standard_normal((25, 1))
    _loss_fd_check(GaussianLikelihoodModel().neg_loglik_loss(), Z, np.array([0.3, 1.4]))


def test_gaussian_score_root_is_mle():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((500, 1)) * 2.0 + 1.0
    data = Dataset(z)
    from tunevar import solve_theta

    spec = GaussianLikelihoodModel().spec()
    res = solve_theta(spec, data, [0.0], spec.theta_init)
    assert abs(res.theta_hat[0] - z.mean()) < 1e-8
    assert abs(res.theta_hat[1] - z.std()) < 1e-8  # biased MLE sigma


def test_logistic_score_at_zero():
    data = make_logistic_data(n=25, seed=6)
    spec = RidgeLogisticModel(2).spec()
    Z = data.rows[:5]
    X = np.column_stack([np.ones(5), Z[:, 1:]])
    got = spec.phi_batch(Z, np.zeros(3), [0.0])
    assert np.allclose(got, X * (Z[:, :1] - 0.5))


def test_ridge_dominant_penalty_limit():
    data = make_linear_data(n=100, seed=7)
    beta = ridge_closed_form(data, 1e8)
    assert np.all(np.abs(beta[1:]) < 1e-4)
    assert abs(beta[0] - data.rows[:, 0].mean()) < 1e-4


def test_ridge_closed_form_singular_system_raises_singular_jacobian():
    # two identical covariate columns and lam = 0: X'X has rank 2 of 3
    data = make_linear_data(n=50, seed=3)
    rows = data.rows.copy()
    rows[:, 2] = rows[:, 1]
    with pytest.raises(SingularJacobian, match="ridge system"):
        ridge_closed_form(Dataset(rows), 0.0)


def test_brier_loss_sub_model_ignores_excluded_coef():
    m = RidgeLogisticModel(2)
    loss = m.brier_loss(predictor_covariates=[0])
    z = np.array([1.0, 0.4, -0.9])
    th1 = np.array([0.2, 0.5, 3.0])
    th2 = np.array([0.2, 0.5, -7.0])
    assert loss.psi(z, th1) == loss.psi(z, th2)
    # gradient has an exact zero in the excluded slot
    g = loss.grad_psi_batch(z[None], th1)[0]
    assert g[2] == 0.0 and g[1] != 0.0
    full = m.brier_loss()
    assert full.psi(z, th1) != full.psi(z, th2)


def test_brier_loss_gradient_matches_fd():
    loss = RidgeLogisticModel(2).brier_loss()
    z = np.array([1.0, 0.4, -0.9])
    th = np.array([0.3, -0.2, 0.8])
    _loss_fd_check(loss, np.array([z, [0.0, -1.2, 0.3]]), th)


def test_hybrid_model_identical_parts_kill_lambda():
    def f(z, th):
        return th - z

    spec = HybridModel(p=2, phi1=f, phi2=f).spec()
    z = np.array([0.3, -0.1])
    th = np.array([0.5, 0.5])
    Z = np.array([z, [1.0, 2.0]])
    assert np.allclose(spec.dphi_dlambda_batch(Z, th, [0.4]), 0.0)
    assert np.allclose(spec.phi_batch(Z, th, [0.0]), spec.phi_batch(Z, th, [1.0]))


def test_hybrid_model_endpoints():
    f1 = lambda z, th: th - z
    f2 = lambda z, th: 2.0 * (th - z) + 1.0
    spec = HybridModel(p=2, phi1=f1, phi2=f2).spec()
    z = np.array([0.2, 0.7])
    th = np.array([1.0, -1.0])
    Z = z[None]
    assert np.allclose(spec.phi_batch(Z, th, [1.0]), f1(z, th))
    assert np.allclose(spec.phi_batch(Z, th, [0.0]), f2(z, th))
    assert np.allclose(spec.dphi_dlambda_batch(Z, th, [0.3])[0, :, 0], f1(z, th) - f2(z, th))


def test_weighted_squared_error_loss():
    m = RidgeLinearModel(2)
    # weight_fn sees the batched design matrix (intercept in column 0)
    w = lambda X: 1.0 + X[:, 1] ** 2
    loss = m.squared_error_loss(weight_fn=w)
    z = np.array([2.0, 1.5, -0.5])
    th = np.array([0.1, 0.2, 0.3])
    x = np.array([1.0, 1.5, -0.5])
    expected = (1.0 + 1.5**2) * (2.0 - th @ x) ** 2
    assert abs(loss.psi(z, th) - expected) < 1e-12
    g_fd = jacobian(lambda t: loss.psi(z, t), th)
    assert np.allclose(loss.grad_psi_batch(z[None], th)[0], g_fd, rtol=1e-6)


def _write_csv(path, rows, header):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def test_load_pima_csv_valid_and_cleaning(tmp_path):
    header = [
        "Pregnancies", "Glucose", "BloodPressure", "SkinThickness",
        "Insulin", "BMI", "DiabetesPedigreeFunction", "Age", "Outcome",
    ]
    good = [1, 100, 70, 25, 90, 30.0, 0.4, 31, 1]
    bad_zero = [2, 0, 70, 25, 90, 30.0, 0.4, 31, 0]  # impossible glucose 0
    rows = [good] * 6 + [bad_zero]
    p = tmp_path / "pima.csv"
    _write_csv(p, rows, header)
    # after dropping the zero-glucose row, all retained rows are identical,
    # which makes standardization degenerate; perturb to avoid that
    rows = []
    rng = np.random.default_rng(8)
    for i in range(8):
        r = list(good)
        for j in range(8):
            r[j] = float(r[j]) + rng.uniform(0.1, 1.0)
        r[8] = int(i % 2)
        rows.append(r)
    rows.append(bad_zero)
    _write_csv(p, rows, header)
    data = load_pima_csv(p)
    assert data.n == 8  # the impossible row was dropped
    assert data.d == 9
    assert set(np.unique(data.rows[:, 0])) <= {0.0, 1.0}
    # covariates standardized
    assert np.allclose(data.rows[:, 1:].mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(data.rows[:, 1:].std(axis=0), 1.0, atol=1e-10)


def test_load_pima_csv_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    with open(p, "w") as fh:
        fh.write("a,b\n1,2\n")
    with pytest.raises(SchemaError):
        load_pima_csv(p)

    header = [
        "Pregnancies", "Glucose", "BloodPressure", "SkinThickness",
        "Insulin", "BMI", "DiabetesPedigreeFunction", "Age", "Outcome",
    ]
    p2 = tmp_path / "bad2.csv"
    _write_csv(p2, [[1, 100, 70, 25, 90, 30.0, 0.4, 31, 2],
                    [1, 100, 70, 25, 90, 30.0, 0.4, 31, 1]], header)
    with pytest.raises(SchemaError) as exc:
        load_pima_csv(p2)
    assert exc.value.line == 2

    p3 = tmp_path / "bad3.csv"
    with open(p3, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("1,100,70\n")
    with pytest.raises(SchemaError) as exc:
        load_pima_csv(p3)
    assert exc.value.line == 2
