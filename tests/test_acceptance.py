"""End-to-end acceptance checks for the tuning-aware inference pipeline.

Each test prints a single PASS/FAIL line. Designs mirror the documented
scaled-down experiment plans; tolerances are stated inline.
"""

import os

import numpy as np
import pytest

from tunevar import (
    DGPKind,
    DGPSpec,
    GaussianLikelihoodModel,
    HybridModel,
    Method,
    PipelineConfig,
    RidgeLinearModel,
    RidgeLogisticModel,
    assemble_components,
    loocv_exact,
    make_pima_model,
    mixture_law_check,
    replicate,
    ridge_closed_form,
    ridge_loocv_closed_form,
    select_variance,
    simulate,
    solve_theta,
    te_trace_corrected,
    training_error,
    tune,
    variance_alpha,
    variance_tuned,
)
from tunevar.model import Dataset
from tunevar.rng import derive_stream, fisher_yates_permutation
from tunevar.variance import _joint_jacobian

from conftest import fd_check, make_linear_data, rel_err, unit_draw
from test_variance import fd_joint_jacobian


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {num} failed: {desc} {detail}"


def test_acceptance_1_ridge_oracle_equivalence():
    spec = RidgeLinearModel(2).spec()
    loss = RidgeLinearModel(2).squared_error_loss()
    rng = np.random.default_rng(101)
    worst_theta, worst_cv = 0.0, 0.0
    for k in range(50):
        data = make_linear_data(n=60, seed=1000 + k, coef_sq=0.3)
        lam = float(rng.uniform(0.0, 2.0))
        res = solve_theta(spec, data, [lam], np.zeros(3))
        worst_theta = max(worst_theta, rel_err(res.theta_hat, ridge_closed_form(data, lam)))
        cv = loocv_exact(spec, loss, data, [lam]).value
        worst_cv = max(worst_cv, abs(cv - ridge_loocv_closed_form(data, lam)))
    _report(
        1, "ridge solver and exact LOOCV match closed forms",
        worst_theta < 1e-9 and worst_cv < 1e-8,
        f"max solver err {worst_theta:.2e}, max LOOCV err {worst_cv:.2e}",
    )


def test_acceptance_2_trace_correction_rate():
    spec = RidgeLinearModel(2).spec()
    loss = RidgeLinearModel(2).squared_error_loss()
    lam = [0.1]
    medians = {}
    for n in (200, 800, 3200):
        gaps = []
        for seed in range(50):
            data = make_linear_data(n=n, seed=derive_stream(7, 100 * n + seed) % 2**31)
            cv = loocv_exact(spec, loss, data, lam).value
            tc = te_trace_corrected(spec, loss, data, lam).value
            gaps.append(n * abs(cv - tc))
        medians[n] = float(np.median(gaps))
    ok = medians[200] > medians[800] > medians[3200] and medians[3200] < medians[200] / 3
    _report(
        2, "scaled CV-vs-corrected-TE gap shrinks with n",
        ok, f"medians {medians}",
    )


def test_acceptance_3_aic_equivalence_gaussian_mle():
    g = GaussianLikelihoodModel()
    spec, loss = g.spec(), g.neg_loglik_loss()
    n, p = 2000, 2
    devs = []
    for r in range(200):
        rng = np.random.default_rng(derive_stream(13, r) % 2**31)
        data = Dataset(rng.standard_normal((n, 1)) * 1.3 + 0.4)
        cv = loocv_exact(spec, loss, data, [0.0]).value
        te = training_error(spec, loss, data, [0.0]).value
        devs.append(abs(n * (cv - te) - p))
    mean_dev = float(np.mean(devs))
    _report(
        3, "n * (CV - TE) approximates the AIC penalty p for a correct MLE",
        mean_dev <= 0.15 * p, f"mean |n(CV-TE)-p| = {mean_dev:.3f}",
    )


def _interior_ridge_linear_fits(count, start_seed):
    out = []
    seed = start_seed
    while len(out) < count:
        data = make_linear_data(n=250, seed=seed, coef_sq=0.5)
        m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
        fit = tune(m.spec(), m.squared_error_loss(), data, Method.CV_FAST, grid_size=12)
        if fit.interior:
            out.append((m.spec(), m.squared_error_loss(), data, fit))
        seed += 1
    return out


def _interior_ridge_logistic_fits(count, start_seed):
    out = []
    j = 0
    dgp = DGPSpec(DGPKind.GAUSSMIX_C, n=150, params={"C": 2.0})
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 1.0))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    while len(out) < count and j < 20 * count:
        data = simulate(dgp, seed=derive_stream(start_seed, j))
        j += 1
        try:
            fit = tune(spec, loss, data, Method.CV_FAST, grid_size=12)
        except Exception:
            continue
        if fit.interior:
            out.append((spec, loss, data, fit))
    return out


def _interior_hybrid_fits(count, start_seed):
    # two location equations with different roots; the loss targets a point
    # between them, so the tuned mixing weight is interior
    out = []
    from tunevar.model import LossSpec, rowwise

    hm = HybridModel(
        p=1,
        phi1=lambda z, th: np.atleast_1d(th[0] - z[0]),
        phi2=lambda z, th: np.atleast_1d(th[0] - z[1]),
        dphi1_dtheta=lambda z, th: np.ones((1, 1)),
        dphi2_dtheta=lambda z, th: np.ones((1, 1)),
    )
    spec = hm.spec()
    loss = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] + 0.6 - th[0]) ** 2))
    seed = start_seed
    while len(out) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        rows = np.column_stack(
            [rng.standard_normal(200), rng.standard_normal(200) + 1.0]
        )
        data = Dataset(rows)
        fit = tune(spec, loss, data, Method.TE, grid_size=12)
        if fit.interior:
            out.append((spec, loss, data, fit))
    return out


def test_acceptance_4_joint_variance_block_consistency():
    # per family: the fits and the bound on the slot-built Psi' against its
    # central differences in every coordinate. The hybrid fits' loss supplies
    # psi only, so the differences there are taken of the fallback gradient,
    # which leaves up to 1e-7 relative noise in the eta2 row
    families = (
        ("ridge-linear", _interior_ridge_linear_fits(10, 400), 1e-8),
        ("ridge-logistic", _interior_ridge_logistic_fits(6, 500), 1e-8),
        ("hybrid", _interior_hybrid_fits(4, 600), 1e-6),
    )
    assert sum(len(fits) for _, fits, _ in families) == 20
    worst, ok, notes = 0.0, True, []
    for name, fits, bound in families:
        worst_jac = 0.0
        for spec, loss, data, fit in fits:
            comp = assemble_components(spec, loss, data, fit)
            V1 = variance_tuned(comp)
            Va = variance_alpha(spec, loss, data, fit)
            p = spec.p
            worst = max(worst, rel_err(Va[:p, :p], V1))
            args = (data.rows, fit.theta_hat, fit.lambda_hat, fit.D_hat)
            worst_jac = max(worst_jac, rel_err(_joint_jacobian(spec, loss, *args),
                                               fd_joint_jacobian(spec, loss, *args)))
        ok &= worst_jac <= bound
        notes.append(f"{name} {worst_jac:.2e}")
    _report(
        4, "theta block of the joint variance equals the tuning-aware variance, "
        "and the joint-system Jacobian matches its central differences",
        worst <= 1e-5 and ok,
        f"worst relative Frobenius distance {worst:.2e} over 20 fits; "
        f"Psi' vs central differences: {', '.join(notes)}",
    )


def test_acceptance_5_tuning_aware_variance_closer_to_truth():
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
    config = PipelineConfig(
        model=m.spec(), loss=m.brier_loss(predictor_covariates=[0]),
        method=Method.CV_FAST, grid_size=12,
    )
    wins = 0
    details = []
    for i, C in enumerate((0.0, 1.0, 2.0)):
        dgp = DGPSpec(DGPKind.GAUSSMIX_C, n=100, params={"C": C})
        summary = replicate(dgp, config, B=200, seed=900 + i)
        emp = summary.empirical_variance[2, 2]
        # median across replications: a few near-flat-criterion fits make the
        # mean V1 draw arbitrarily large at this sample size
        e1 = abs(np.nanmedian(summary.V1_draws[:, 2, 2]) - emp)
        e2 = abs(np.median(summary.V2_draws[:, 2, 2]) - emp)
        details.append(f"C={C}: emp={emp:.3f} |V1err|={e1:.3f} |V2err|={e2:.3f}")
        if e1 < e2:
            wins += 1
    _report(
        5, "tuning-aware variance beats pointwise variance on the (2,2) entry",
        wins >= 2, f"{wins}/3 C values; " + "; ".join(details),
    )


def test_acceptance_6_collapse_of_the_tuning_effect():
    # tuning by the same squared error that generates phi: the correction
    # terms vanish asymptotically and V1 approaches V2
    medians = {}
    for n in (800, 3200):
        ratios = []
        for seed in range(50):
            data = make_linear_data(
                n=n, seed=derive_stream(21, 10 * n + seed) % 2**31, coef_sq=0.0
            )
            m = RidgeLinearModel(2, lambda_domain=(-0.25, 0.25))
            spec, loss = m.spec(), m.squared_error_loss()
            try:
                fit = tune(spec, loss, data, Method.CV_FAST, grid_size=12)
            except Exception:
                continue
            if not fit.interior:
                continue
            report = select_variance(spec, loss, data, fit)
            if report.V1 is None:
                continue
            ratios.append(
                np.linalg.norm(report.V1 - report.V2) / np.linalg.norm(report.V2)
            )
        assert len(ratios) >= 40
        medians[n] = float(np.median(ratios))
    _report(
        6, "V1 collapses onto V2 when the tuning loss matches the fit",
        medians[3200] < 0.5 * medians[800], f"median ratios {medians}",
    )


def _pima_path():
    env = os.environ.get("TUNEVAR_PIMA_CSV")
    if env and os.path.exists(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "data", "pima.csv")
    if os.path.exists(local):
        return local
    return None


def test_acceptance_7_pima_reproduction():
    path = _pima_path()
    if path is None:
        pytest.skip("Pima CSV not available; set TUNEVAR_PIMA_CSV or add tests/data/pima.csv")
    data, spec, loss = make_pima_model(path, lambda_domain=(0.0, 0.1))
    fit = tune(spec, loss, data, Method.CV_EXACT, grid_size=15)
    n_lam = data.n * float(fit.lambda_hat[0])
    report = select_variance(spec, loss, data, fit)
    assert report.V1 is not None
    se1 = np.sqrt(np.diag(report.V1) / data.n)
    se2 = np.sqrt(np.diag(report.V2) / data.n)
    larger = int(np.sum(se1 > se2))
    _report(
        7, "diabetes data: tuned penalty size and variance ordering",
        2.0 <= n_lam <= 5.0 and larger >= 6,
        f"n*lambda = {n_lam:.3f}, tuning-aware SE larger for {larger}/9 coefficients",
    )


def test_acceptance_8_boundary_mixture_law():
    beta = (1.0, 1.0, 0.5)
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=800, params={"beta": beta})
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    config = PipelineConfig(
        model=m.spec(),
        loss=m.squared_error_loss(weight_fn=lambda X: 1.0 + X[:, 1] ** 2),
        method=Method.CV_FAST, grid_size=12,
    )
    report = mixture_law_check(dgp, config, theta0=np.asarray(beta), B=500, seed=31)
    worst = float(report.ks_statistics.max())
    _report(
        8, "clamped estimator draws match the simulated boundary mixture law",
        worst <= 0.15,
        f"max per-coordinate KS {worst:.3f}, cases {report.case_counts}",
    )


def test_acceptance_9_derivative_and_invariance_suites():
    ok = True
    notes = []

    # analytic vs finite-difference derivatives on the built-in models
    for name, spec, data in [
        ("ridge-linear", RidgeLinearModel(2).spec(), make_linear_data(40, seed=71)),
        ("ridge-logistic", RidgeLogisticModel(2).spec(),
         simulate(DGPSpec(DGPKind.LOGISTIC_TRUE, n=40, params={"beta": (0.2, 1.0, -0.5)}), 72)),
    ]:
        worst = fd_check(spec, data, unit_draw(spec), seed=73)
        ok &= worst <= 1e-5
        notes.append(f"{name} fd err {worst:.1e}")

    # permutation invariance of the full tuned fit
    data = make_linear_data(n=120, seed=74, coef_sq=0.5)
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    f1 = tune(m.spec(), m.squared_error_loss(), data, Method.CV_FAST, grid_size=10)
    perm = np.random.default_rng(75).permutation(data.n)
    f2 = tune(m.spec(), m.squared_error_loss(), data.take(perm), Method.CV_FAST, grid_size=10)
    ok &= bool(np.allclose(f1.theta_hat, f2.theta_hat, atol=1e-8))
    ok &= bool(abs(f1.lambda_hat[0] - f2.lambda_hat[0]) < 1e-8)

    # seed determinism of the simulation harness and shuffles
    dgp = DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60, params={"beta": (1.0, 1.0, 0.5)})
    ok &= bool(np.array_equal(simulate(dgp, 5).rows, simulate(dgp, 5).rows))
    ok &= bool(np.array_equal(fisher_yates_permutation(30, 6), fisher_yates_permutation(30, 6)))

    # symmetry and PSD of the reported variance matrices
    fit = f1
    report = select_variance(m.spec(), m.squared_error_loss(), data, fit)
    for V in (report.V1, report.V2):
        if V is None:
            continue
        ok &= bool(np.allclose(V, V.T))
        ok &= bool(np.linalg.eigvalsh(V).min() >= -1e-8 * np.trace(V))

    _report(9, "derivative, invariance, and determinism suites", ok, "; ".join(notes))
