import dataclasses

import numpy as np
import pytest

from tunevar import (
    BoundaryFit,
    BoundaryStatus,
    DGPKind,
    DGPSpec,
    EvaluationError,
    FlatLimitSuspected,
    Method,
    RidgeLinearModel,
    RidgeLogisticModel,
    SingularJacobian,
    assemble_components,
    eta_matrix,
    select_variance,
    alpha_influences,
    simulate,
    solve_theta,
    theta_prime,
    tune,
    variance_alpha,
    variance_pointwise,
    variance_tuned,
)
from tunevar import numdiff, variance
from tunevar.model import SLOT_SHAPES, Dataset, LossSpec, ModelSpec, rowwise, slot_values
from tunevar.rng import derive_stream
from tunevar.tuner import FitResult
from tunevar.variance import _joint_jacobian, _sym, z1_profiled

from conftest import make_linear_data, make_logistic_data, rel_err


def z1_chain_rule(model, loss, data, fit: FitResult) -> np.ndarray:
    """Cross-check of z1_profiled: Jacobian of the profiled TE gradient g(lambda).

    g(lambda) = D_hat(lambda)' * mean grad_psi(theta_hat(lambda)), differenced
    centrally in lambda. assemble_components does not use it; the tests
    require it to agree with the profiled Hessian.
    """
    def g(lam):
        res = solve_theta(model, data, lam, fit.theta_hat)
        D = theta_prime(model, data, res)
        b = slot_values(loss, "grad_psi_batch", data.rows, res.theta_hat).mean(axis=0)
        return D.T @ b

    return _sym(numdiff.jacobian_in_box(g, np.asarray(fit.lambda_hat, float), None, 1e-3))


def fd_joint_jacobian(model, loss, Z, theta, lam, D) -> np.ndarray:
    """Cross-check of variance._joint_jacobian: the central-difference Jacobian
    of alpha -> mean_i eta(Z_i, alpha) in every coordinate of alpha = (theta,
    lam, vec D), 2 (p + q + pq) eta_matrix evaluations.

    It reads no second-order slot, so agreement with the analytic Psi' checks
    hess_phi_theta, dphi_dlambda_dtheta and hess_psi.
    """
    p, q = model.p, model.q
    D = np.asarray(D, float).reshape(p, q)

    def psi_bar(alpha):
        Dm = alpha[p + q :].reshape(p, q, order="F")
        return eta_matrix(model, loss, Z, alpha[:p], alpha[p : p + q], Dm).mean(axis=0)

    alpha = np.concatenate([np.asarray(theta, float), np.atleast_1d(lam), D.ravel(order="F")])
    return numdiff.jacobian(psi_bar, alpha)


def _interior_fit(n=250, seed=0):
    data = make_linear_data(n=n, seed=seed, coef_sq=0.5)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.squared_error_loss()
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=15)
    assert fit.interior
    return data, spec, loss, fit


def _linear_gaussian(seed):
    return simulate(DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=250,
                            params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5}), seed)


def test_select_variance_refuses_a_fit_made_on_other_data():
    # a CV_FAST fit on the seed-0 sample used to get V1 on the seed-1 sample,
    # with standard errors (0.075, 0.114, 0.090) against (0.071, 0.086, 0.069)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.squared_error_loss()
    fit = tune(spec, loss, _linear_gaussian(0), Method.CV_FAST)
    assert fit.interior
    assert select_variance(spec, loss, _linear_gaussian(0), fit).selected == "V1"
    with pytest.raises(ValueError, match="residual"):
        select_variance(spec, loss, _linear_gaussian(1), fit)


def _gaussmix_logistic(C, seed):
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 1.0))
    data = simulate(DGPSpec(DGPKind.GAUSSMIX_C, n=300, params={"C": C}), seed)
    return data, m.spec(), m.brier_loss(predictor_covariates=[0])


def test_assemble_components_refuses_a_fit_made_on_other_data():
    # assemble_components used to build full components, Z1 refits
    # included, for a fit tuned on the seed-3 sample and handed seed 4's
    data, spec, loss = _gaussmix_logistic(2.0, 3)
    fit = tune(spec, loss, data, Method.CV_FAST)
    other = _gaussmix_logistic(2.0, 4)[0]
    with pytest.raises(ValueError, match="residual") as refused:
        select_variance(spec, loss, other, fit)
    with pytest.raises(ValueError, match="residual") as assembled:
        assemble_components(spec, loss, other, fit)
    assert str(assembled.value) == str(refused.value)


def test_a_non_finite_theta_prime_slot_names_itself():
    # a NaN in dphi_dlambda_batch used to give tune a NaN D_hat, and
    # select_variance blamed the data for it ("fit D_hat is nan from
    # theta'"), on that fit and on a clean one alike
    data, spec, loss = _gaussmix_logistic(1.0, 3)

    def nan_row(Z, th, lm):
        out = spec.dphi_dlambda_batch(Z, th, lm).copy()
        out[0] = np.nan
        return out

    broken = dataclasses.replace(spec, dphi_dlambda_batch=nan_row)
    message = "^dphi_dlambda_batch produced non-finite values$"
    with pytest.raises(EvaluationError, match=message):
        tune(broken, loss, data, Method.CV_FAST)
    fit = tune(spec, loss, data, Method.CV_FAST)
    assert fit.interior
    with pytest.raises(EvaluationError, match=message):
        select_variance(broken, loss, data, fit)


def _edge_fit():
    data = make_linear_data(n=200, seed=8, coef_sq=0.0)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.squared_error_loss()
    fit = tune(spec, loss, data, Method.TE, grid_size=10)
    assert fit.boundary_status == (BoundaryStatus.LOWER_BOUNDARY,)
    return data, spec, loss, fit


# edit of a tuned fit -> what its ValueError names
_EDITS = {
    "d-hat": "D_hat",
    "interior-slope": "criterion_slope_at_opt",
    "edge-slope": "criterion_slope_at_opt",
    "edge-relabelled": "boundary_status",
    "trace-without-slope-point": "trace has no value",
}


@pytest.mark.parametrize("case", list(_EDITS))
def test_select_variance_refuses_an_edited_tuned_fit(case):
    # V1 reads D_hat, an edge fit relabelled interior would get V1, and the
    # slope sets nondegenerate_boundary; the fits as tune made them pass
    data, spec, loss, fit = _edge_fit() if case.startswith("edge") else _interior_fit()
    select_variance(spec, loss, data, fit)
    if case == "d-hat":
        fit = dataclasses.replace(fit, D_hat=10 * fit.D_hat)
    elif case.endswith("slope"):
        fit = dataclasses.replace(fit, criterion_slope_at_opt=np.array([100.0]))
    elif case == "edge-relabelled":
        fit = dataclasses.replace(fit, boundary_status=(BoundaryStatus.INTERIOR,))
    else:
        (lo, hi), = fit.lambda_box
        up = min(fit.lambda_hat[0] + 1e-5 * (hi - lo), hi)
        trace = tuple(row for row in fit.trace if row[0] != (up,))
        assert len(trace) == len(fit.trace) - 1
        fit = dataclasses.replace(fit, trace=trace)
    with pytest.raises(ValueError, match=_EDITS[case]):
        select_variance(spec, loss, data, fit)


# field -> an edit that gives it another shape than the model's p and q
_RESHAPES = {
    "theta_hat": lambda fit: np.append(fit.theta_hat, 0.0),  # was numpy's matmul error
    "lambda_hat": lambda fit: np.append(fit.lambda_hat, 0.0),
    "D_hat": lambda fit: fit.D_hat.ravel(),  # was read as a distance from theta'
    "lambda_box": lambda fit: fit.lambda_box[0],  # was an IndexError
    "boundary_status": lambda fit: fit.boundary_status * 2,
    "criterion_slope_at_opt": lambda fit: fit.criterion_slope_at_opt[0],
    "trace": lambda fit: fit.trace + (((0.5, 0.5), 1.0),),
}


@pytest.mark.parametrize("field", list(_RESHAPES))
def test_select_variance_refuses_a_fit_of_another_shape(field):
    data, spec, loss, fit = _interior_fit()
    fit = dataclasses.replace(fit, **{field: _RESHAPES[field](fit)})
    with pytest.raises(ValueError, match=rf"^fit {field} (has shape|rows hold)"):
        select_variance(spec, loss, data, fit)


def test_select_variance_takes_a_fit_at_a_fixed_lambda():
    data = make_linear_data(n=250, seed=0, coef_sq=0.5)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.squared_error_loss()
    res = solve_theta(spec, data, [0.3], spec.theta_init)
    fit = FitResult(
        theta_hat=res.theta_hat, lambda_hat=res.lam, D_hat=theta_prime(spec, data, res),
        boundary_status=(BoundaryStatus.FIXED,), criterion=Method.CV_FAST,
        criterion_value=0.0, criterion_slope_at_opt=np.zeros(1),
        trace=(((0.3,), 0.0),), lambda_box=spec.lambda_domain,
    )
    report = select_variance(spec, loss, data, fit)
    assert report.selected == "V2" and report.V1 is None


def test_select_variance_on_its_own_data_is_the_plain_assembly():
    # the check moves no bit of the report
    data, spec, loss, fit = _interior_fit()
    report = select_variance(spec, loss, data, fit)
    components = assemble_components(spec, loss, data, fit)
    assert np.array_equal(report.V1, variance_tuned(components))
    assert np.array_equal(report.V2, variance_pointwise(components))


def test_eta_trivial_blocks():
    m = RidgeLinearModel(2).spec()
    loss = RidgeLinearModel(2).squared_error_loss()
    z = np.array([1.0, 0.5, -0.5])
    th = np.array([0.2, 0.1, 0.0])
    D = np.zeros((3, 1))
    e = eta_matrix(m, loss, z[None], th, [0.0], D)[0]
    assert e.shape == (3 + 1 + 3,)
    # D = 0 and lambda = 0: eta2 = 0 and eta3 = dphi_dlambda = 2 P theta
    assert e[3] == 0.0
    assert np.allclose(e[4:], 2.0 * np.array([0.0, 0.1, 0.0]))


def test_eta_means_vanish_at_fit():
    data, spec, loss, fit = _interior_fit(seed=1)
    E = eta_matrix(spec, loss, data.rows, fit.theta_hat, fit.lambda_hat, fit.D_hat)
    means = E.mean(axis=0)
    # eta1 block: the solved estimating equation
    assert np.linalg.norm(means[:3]) <= 1e-6 * (1 + np.linalg.norm(fit.theta_hat))
    # eta3 block: the implicit-derivative equation
    assert np.linalg.norm(means[4:]) <= 1e-7


def test_eta3_chain_rule_cross_check():
    data, spec, loss, fit = _interior_fit(seed=2)
    z = data.rows[5]
    th, lam, D = fit.theta_hat, fit.lambda_hat, fit.D_hat
    e = eta_matrix(spec, loss, z[None], th, lam, D)[0]
    h = 1e-5
    fd = (
        slot_values(spec, "phi_batch", z[None], th + D[:, 0] * h, lam + h)[0]
        - slot_values(spec, "phi_batch", z[None], th - D[:, 0] * h, lam - h)[0]
    ) / (2 * h)
    assert np.allclose(e[4:], fd, atol=1e-7)


def test_components_match_bruteforce_ridge():
    data, spec, loss, fit = _interior_fit(seed=3)
    comp = assemble_components(spec, loss, data, fit)
    th, lam = fit.theta_hat, float(fit.lambda_hat[0])
    X = np.column_stack([np.ones(data.n), data.rows[:, 1:]])
    y = data.rows[:, 0]
    P = np.diag([0.0, 1.0, 1.0])
    e = y - X @ th
    # explicit loops over definitions
    J_direct = -(2.0 * X.T @ X / data.n + 2.0 * lam * P)
    phis = -2.0 * X * e[:, None] + 2.0 * lam * (P @ th)
    K_direct = phis.T @ phis / data.n
    b_direct = (-2.0 * X * e[:, None]).mean(axis=0)
    Z2_direct = 2.0 * X.T @ X / data.n
    assert rel_err(comp.J_hat, J_direct) < 1e-12
    assert rel_err(comp.K_hat, K_direct) < 1e-12
    Jinv = np.linalg.inv(J_direct)
    bJ = b_direct @ Jinv
    # W for ridge: hess_phi_theta = 0 and cross derivative = 2P
    W_direct = (bJ @ (2.0 * P)).reshape(1, 3)
    DZ1 = fit.D_hat @ np.linalg.inv(comp.Z1_hat)
    # Astar's three column blocks, from the direct J, b, Z2 and W
    assert comp.Astar.shape == (3, 3 + 1 + 3)
    A1 = Jinv - DZ1 @ (fit.D_hat.T @ Z2_direct + W_direct) @ Jinv
    assert rel_err(comp.Astar[:, :3], A1) < 1e-10
    assert rel_err(comp.Astar[:, 3:4], -DZ1) < 1e-12
    assert rel_err(comp.Astar[:, 4:], -np.kron(DZ1, bJ)) < 1e-10


def test_batch_w_and_z2_match_row_loops():
    # Astar's W, Z2 and b from one batch call per slot against the per-row
    # sums that define them, on a model whose second derivatives are nonzero
    data = make_logistic_data(n=200, seed=0)
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=10)
    assert fit.interior
    comp = assemble_components(spec, loss, data, fit)
    th, lam, D = fit.theta_hat, fit.lambda_hat, fit.D_hat
    HD = np.zeros((3, 3))
    cross = np.zeros((3, 3))
    Z2 = np.zeros((3, 3))
    for z in data.rows:
        HD += spec.hess_phi_theta(z[None], th, lam)[0] @ D[:, 0]
        cross += spec.dphi_dlambda_dtheta(z[None], th, lam)[0, 0]
        Z2 += loss.hess_psi(z[None], th)[0]
    b = sum(loss.grad_psi_batch(z[None], th)[0] for z in data.rows) / data.n
    Jinv = np.linalg.inv(comp.J_hat)
    W = (b @ Jinv) @ ((HD + cross) / data.n)
    DZ1 = D @ np.linalg.inv(comp.Z1_hat)
    A1 = Jinv - DZ1 @ (D.T @ ((Z2 + Z2.T) / (2 * data.n)) + W[None]) @ Jinv
    assert rel_err(comp.Astar[:, :3], A1) < 1e-12
    assert rel_err(comp.Astar[:, 4:], -np.kron(DZ1, b @ Jinv)) < 1e-12


def test_z1_profile_vs_chain_rule_agree():
    data, spec, loss, fit = _interior_fit(seed=4)
    zp = z1_profiled(spec, loss, data, fit)
    zc = z1_chain_rule(spec, loss, data, fit)
    assert rel_err(zp, zc) < 1e-4
    assert zp[0, 0] > 0  # positive curvature at an interior minimum


def test_kstar_psd_and_symmetric():
    data, spec, loss, fit = _interior_fit(seed=5)
    comp = assemble_components(spec, loss, data, fit)
    assert np.allclose(comp.Kstar_hat, comp.Kstar_hat.T)
    eig = np.linalg.eigvalsh(comp.Kstar_hat)
    assert eig.min() >= -1e-10 * np.trace(comp.Kstar_hat)


def test_block_consistency_v1_vs_valpha():
    for seed in range(3):
        data, spec, loss, fit = _interior_fit(seed=10 + seed)
        comp = assemble_components(spec, loss, data, fit)
        V1 = variance_tuned(comp)
        Va = variance_alpha(spec, loss, data, fit)
        assert rel_err(Va[:3, :3], V1) < 1e-5


def test_collapse_when_lambda_has_no_pathway():
    # dphi_dlambda == 0: D = 0, so theta_hat does not move with lambda and the
    # profiled TE is flat in lambda
    data = make_linear_data(n=150, seed=6)

    def phi(z, th, lm):
        x = np.concatenate([[1.0], z[1:]])
        return -2.0 * x * (z[0] - th @ x)

    spec = ModelSpec(
        p=3, q=1, phi_batch=rowwise(phi),
        dphi_dlambda_batch=lambda Z, th, lm: np.zeros((len(Z), 3, 1)),
        dphi_dlambda_dtheta=lambda Z, th, lm: np.zeros((len(Z), 1, 3, 3)),
        lambda_domain=np.array([[0.0, 1.0]]),
    )
    loss = RidgeLinearModel(2).squared_error_loss()
    res = solve_theta(spec, data, [0.5], np.zeros(3))
    D = theta_prime(spec, data, res)
    assert np.allclose(D, 0.0, atol=1e-10)
    from tunevar.tuner import FitResult

    fit = FitResult(
        theta_hat=res.theta_hat, lambda_hat=np.array([0.5]), D_hat=D,
        boundary_status=(BoundaryStatus.INTERIOR,), criterion=Method.TE,
        criterion_value=0.0, criterion_slope_at_opt=np.zeros(1),
        trace=(((0.5,), 0.0), ((0.5 + 1e-5,), 0.0), ((0.5 - 1e-5,), 0.0)),
        lambda_box=np.array([[0.0, 1.0]]),
    )
    # Z1_hat is then singular, which is exactly the flat-limit degeneracy;
    # the full assembly must refuse to invert it
    with pytest.raises(SingularJacobian, match="Z1_hat"):
        assemble_components(spec, loss, data, fit)
    with pytest.raises(FlatLimitSuspected):
        variance_alpha(spec, loss, data, fit)


def test_variance_alpha_checks_the_fit_against_the_data():
    # a fit tuned on one sample, or with a raveled D_hat, is refused before
    # any variance is formed, as select_variance refuses it
    data, spec, loss, fit = _interior_fit(seed=0)
    other = make_linear_data(n=250, seed=1, coef_sq=0.5)
    with pytest.raises(ValueError, match="residual"):
        variance_alpha(spec, loss, other, fit)
    with pytest.raises(ValueError, match="residual"):
        select_variance(spec, loss, other, fit)
    raveled = dataclasses.replace(fit, D_hat=fit.D_hat.ravel())
    with pytest.raises(ValueError, match="D_hat has shape"):
        variance_alpha(spec, loss, data, raveled)
    assert variance_alpha(spec, loss, data, fit).shape == (3 + 1 + 3,) * 2


def test_pointwise_variance_sample_mean_identity():
    # phi = z - theta: V2 equals the (uncentered at theta_hat) sample variance;
    # the trace holds the point (1e-5,) of the one-sided slope 1.0 that
    # check_fit derives from it
    rng = np.random.default_rng(7)
    z = rng.standard_normal((300, 1)) * 1.7
    data = Dataset(z)
    spec = ModelSpec(p=1, q=1, phi_batch=rowwise(lambda zz, th, lm: zz[:1] - th[0]))
    res = solve_theta(spec, data, [0.0], np.zeros(1))
    from tunevar.tuner import FitResult

    fit = FitResult(
        theta_hat=res.theta_hat, lambda_hat=np.array([0.0]),
        D_hat=np.zeros((1, 1)), boundary_status=(BoundaryStatus.LOWER_BOUNDARY,),
        criterion=Method.TE, criterion_value=0.0,
        criterion_slope_at_opt=np.ones(1),
        trace=(((0.0,), 0.0), ((1e-5,), 1e-5), ((1.0,), 1.0)),
        lambda_box=np.array([[0.0, 1.0]]),
    )
    loss = LossSpec(psi_batch=rowwise(lambda zz, th: (zz[0] - th[0]) ** 2))
    comp = assemble_components(spec, loss, data, fit)
    V2 = variance_pointwise(comp)
    assert abs(V2[0, 0] - np.mean((z[:, 0] - res.theta_hat[0]) ** 2)) < 1e-10


def test_boundary_fit_partial_assembly_and_selection():
    data = make_linear_data(n=200, seed=8, coef_sq=0.0)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.squared_error_loss()
    fit = tune(spec, loss, data, Method.TE, grid_size=10)
    assert not fit.interior
    comp = assemble_components(spec, loss, data, fit)
    assert not comp.full
    assert comp.Astar is None
    with pytest.raises(BoundaryFit):
        variance_tuned(comp)
    report = select_variance(spec, loss, data, fit)
    assert report.selected == "V2"
    assert report.V1 is None
    assert report.standard_errors.shape == (3,)


def test_select_variance_interior_picks_v1():
    data, spec, loss, fit = _interior_fit(seed=9)
    report = select_variance(spec, loss, data, fit)
    assert report.selected == "V1"
    assert report.V1 is not None
    assert not report.nondegenerate_boundary
    # symmetry and PSD of both reported matrices
    for V in (report.V1, report.V2):
        assert np.allclose(V, V.T)
        assert np.linalg.eigvalsh(V).min() >= -1e-8 * np.trace(V)
    assert np.allclose(
        report.standard_errors, np.sqrt(np.diag(report.V1) / data.n)
    )


def test_select_variance_flags_z1_not_positive_definite():
    # draw 34 of the GAUSSMIX C = 0, n = 100, CV_FAST study at seed 900: an
    # interior fit where the profiled training error is concave (Z1_hat < 0)
    # and V1's trace is about 2.7e5; draw 0 is a typical interior fit
    m = RidgeLogisticModel(n_covariates=2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    dgp = DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": 0.0})
    flags = []
    for j in (34, 0):
        data = simulate(dgp, seed=derive_stream(900, j))
        fit = tune(spec, loss, data, Method.CV_FAST)
        report = select_variance(spec, loss, data, fit)
        assert fit.interior and report.selected == "V1"
        # the flag changes no reported number
        assert np.array_equal(report.standard_errors, np.sqrt(np.diag(report.V1) / data.n))
        flags.append((float(report.components.Z1_hat[0, 0]),
                      report.diagnostics.get("z1_not_positive_definite")))
    (z1_bad, flag_bad), (z1_ok, flag_ok) = flags
    assert z1_bad < 0.0 and flag_bad == 1.0
    assert z1_ok > 0.0 and flag_ok is None


def _two_penalty_rowwise_spec():
    # per-row phi only, stacked by rowwise: every derivative is a fallback
    def phi(z, th, lm):
        x = np.concatenate([[1.0], z[1:]])
        pen = np.array([0.0, lm[0], lm[1]]) * th
        return -2.0 * x * (z[0] - th @ x) + 2.0 * pen

    return ModelSpec(
        p=3, q=2, phi_batch=rowwise(phi), lambda_domain=np.array([[0.0, 1.0], [0.0, 1.0]])
    )


@pytest.mark.parametrize("seed,coef_sq", [(4, 1.0), (9, 0.5)])
def test_two_penalty_rowwise_spec_z1_and_v1_cross_checks(seed, coef_sq):
    # q = 2 runs the off-diagonal Z1 Hessian, the two eta3 blocks of Astar
    # and the column-major eta3; the per-row spec and loss run the rowwise
    # adapter and the finite-difference fallbacks
    data = make_linear_data(n=150, seed=seed, coef_sq=coef_sq)
    spec = _two_penalty_rowwise_spec()
    full = RidgeLinearModel(2).squared_error_loss()
    loss = LossSpec(
        psi_batch=rowwise(full.psi),
        grad_psi_batch=rowwise(lambda z, th: full.grad_psi_batch(z[None], th)[0]),
        hess_psi=rowwise(lambda z, th: full.hess_psi(z[None], th)[0]),
    )
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=7)
    assert fit.interior
    zp = z1_profiled(spec, loss, data, fit)
    zc = z1_chain_rule(spec, loss, data, fit)
    assert zp[0, 1] != 0.0
    assert rel_err(zp, zc) < 1e-4
    report = select_variance(spec, loss, data, fit)
    assert report.selected == "V1"
    comp = report.components
    assert comp.Astar.shape == (3, 3 + 2 + 6)
    # eta3 block j of Astar is -DZ1[:, j] b' J^{-1}
    b = slot_values(loss, "grad_psi_batch", data.rows, fit.theta_hat).mean(axis=0)
    DZ1 = fit.D_hat @ np.linalg.inv(comp.Z1_hat)
    bJ = b @ np.linalg.inv(comp.J_hat)
    for j in range(2):
        assert rel_err(comp.Astar[:, 5 + 3 * j : 8 + 3 * j], -np.outer(DZ1[:, j], bJ)) < 1e-10
    Va = variance_alpha(spec, loss, data, fit)
    assert Va.shape == (3 + 2 + 6, 3 + 2 + 6)
    assert rel_err(Va[:3, :3], report.V1) < 1e-4
    # Psi' with two D-column blocks in vec order; the fallback second-order
    # slots difference phi with steps near 1e-4, hence the wider bound
    args = (data.rows, fit.theta_hat, fit.lambda_hat, fit.D_hat)
    analytic, fd = _joint_jacobian(spec, loss, *args), fd_joint_jacobian(spec, loss, *args)
    assert rel_err(analytic, fd) < 1e-6
    assert np.array_equal(analytic[:, 3:5], fd[:, 3:5])


def _interior_logistic_fit():
    data = make_logistic_data(n=200, seed=0)
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=10)
    assert fit.interior
    return data, spec, loss, fit


def test_joint_jacobian_matches_central_differences():
    # the theta- and D-columns come from the slots, the lambda-columns are
    # the same central differences as the all-coordinate helper's, bit for bit
    data, spec, loss, fit = _interior_logistic_fit()
    args = (data.rows, fit.theta_hat, fit.lambda_hat, fit.D_hat)
    analytic, fd = _joint_jacobian(spec, loss, *args), fd_joint_jacobian(spec, loss, *args)
    assert rel_err(analytic, fd) < 1e-8
    assert np.array_equal(analytic[:, 3:4], fd[:, 3:4])


def test_alpha_influences_match_all_coordinate_differences():
    # at the interior fit and, as mixture_law_check uses it, at the box edge
    data, spec, loss, fit = _interior_logistic_fit()
    edge = solve_theta(spec, data, [0.0], fit.theta_hat)
    for theta, lam, D in ((fit.theta_hat, fit.lambda_hat, fit.D_hat),
                          (edge.theta_hat, edge.lam, theta_prime(spec, data, edge))):
        Eta = eta_matrix(spec, loss, data.rows, theta, lam, D)
        fd = fd_joint_jacobian(spec, loss, data.rows, theta, lam, D)
        old = -(np.linalg.inv(fd) @ Eta.T).T
        assert rel_err(alpha_influences(spec, loss, data, theta, lam, D), old) < 1e-9


def _counted(calls, name, fn):
    # fn, counting its calls in calls[name]
    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)
    return wrapper


def test_variance_alpha_evaluation_counts(monkeypatch):
    # 2q eta_matrix evaluations for the lambda-columns and one for K*; one
    # call to each second-order slot; the theta-Jacobian mean from the sum slot
    data, spec, loss, fit = _interior_logistic_fit()
    calls = {}
    spec = dataclasses.replace(spec, **{
        name: _counted(calls, name, getattr(spec, name))
        for name in ("dphi_dtheta_batch", "hess_phi_theta", "dphi_dlambda_dtheta")
    })
    loss = dataclasses.replace(loss, hess_psi=_counted(calls, "hess_psi", loss.hess_psi))
    monkeypatch.setattr(variance, "eta_matrix",
                        _counted(calls, "eta_matrix", variance.eta_matrix))
    variance_alpha(spec, loss, data, fit)
    q = spec.q
    assert calls == {"eta_matrix": 2 * q + 1, "dphi_dtheta_batch": 2 * q + 1,
                     "hess_phi_theta": 1, "dphi_dlambda_dtheta": 1, "hess_psi": 1}


def test_select_variance_slot_reads_at_a_boundary_fit():
    # check_fit's one phi_jac_sum call gives J_hat and K_hat as well, and
    # its theta' the one dphi_dlambda_batch read; a partial assembly reads
    # no other slot of the model or the loss
    data, spec, loss, fit = _edge_fit()
    calls = {}
    # wrappers name no phi_batch (psi_batch), so each spec keeps all of them
    spec, loss = (dataclasses.replace(s, **{
        name: _counted(calls, name, getattr(s, name)) for name in SLOT_SHAPES if hasattr(s, name)
    }) for s in (spec, loss))
    select_variance(spec, loss, data, fit)
    assert calls == {"phi_jac_sum": 1, "dphi_dlambda_batch": 1}


def test_wrong_second_order_slot_fails_the_joint_jacobian_check():
    # an interior GAUSSMIX ridge-logistic fit with a sign-flipped
    # hess_phi_theta: V1 and variance_alpha both read the slot, the
    # all-coordinate central difference does not
    data, spec, loss = _gaussmix_logistic(2.0, 3)
    fit = tune(spec, loss, data, Method.CV_FAST)
    assert fit.interior
    flipped = dataclasses.replace(
        spec, hess_phi_theta=lambda Z, th, lm: -spec.hess_phi_theta(Z, th, lm)
    )
    args = (data.rows, fit.theta_hat, fit.lambda_hat, fit.D_hat)
    fd = fd_joint_jacobian(spec, loss, *args)
    assert rel_err(_joint_jacobian(spec, loss, *args), fd) < 1e-8
    assert rel_err(_joint_jacobian(flipped, loss, *args), fd) > 1e-2
