"""The three benchmark workloads, their output checks and their reference fits.

Each workload derives a pool of job inputs from the workload seed; one pass
runs every pool item once as a timed job. A fit is one dataset taken through
the workload's pipeline. Checks run outside the timed region and compare each
fit against closed forms or independent numpy reimplementations; the
reference fits compare a fixed-seed job against values recorded in
``reference.json`` by ``record_reference.py``.
"""

from __future__ import annotations

import numpy as np

import tunevar as tv
from tunevar.rng import derive_stream, rng_for

REFERENCE_SEED = 20261017
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# Tolerances of the checks against recorded reference values: relative
# (Frobenius) unless the key ends in "_abs" or the value must match exactly.
REFERENCE_TOL = {
    "theta": 1e-8, "cv": 1e-8, "tc": 1e-8,  # fixed-lambda fits
    "lambda_abs": 1e-6, "tuned_theta": 1e-6, "se": 1e-4, "V1": 1e-4, "V2": 1e-5,
}


def _expit(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _design(rows):
    return rows[:, 0], np.column_stack([np.ones(len(rows)), rows[:, 1:]])


def logistic_score_and_sandwich(rows, theta, lam):
    """Norm of the mean ridge-logistic score at theta, and V2 = J^-1 K J^-T.

    Independent of tunevar: phi = x (y - expit(x'theta)) - 2 lam P theta with
    the intercept unpenalized.
    """
    y, X = _design(rows)
    P = np.eye(X.shape[1])
    P[0, 0] = 0.0
    pi = _expit(X @ theta)
    Phi = X * (y - pi)[:, None] - 2.0 * lam * (P @ theta)
    J = (X * (pi * (1.0 - pi))[:, None]).T @ X / len(y) + 2.0 * lam * P
    Jinv = np.linalg.inv(J)
    V2 = Jinv @ (Phi.T @ Phi / len(y)) @ Jinv.T
    return float(np.linalg.norm(Phi.mean(axis=0))), (V2 + V2.T) / 2.0


def logistic_loo_brier(rows, theta_hat, lam):
    """Exact ridge-logistic LOOCV of the Brier loss by a batched Newton solve.

    Problem i drops row i from the mean score; all n problems start at
    theta_hat and are iterated together until the steps vanish.
    """
    y, X = _design(rows)
    n, p = X.shape
    P = np.eye(p)
    P[0, 0] = 0.0
    keep = 1.0 - np.eye(n)  # [j, i] = 1 when row j is in problem i
    XX = np.einsum("jk,jl->jkl", X, X).reshape(n, p * p)
    Th = np.tile(theta_hat, (n, 1))
    for _ in range(50):
        pi = _expit(X @ Th.T)  # [j, i]
        g = X.T @ ((y[:, None] - pi) * keep) - 2.0 * (n - 1) * lam * (P @ Th.T)
        W = pi * (1.0 - pi) * keep
        H = (W.T @ XX).reshape(n, p, p) + 2.0 * (n - 1) * lam * P
        step = np.linalg.solve(H, g.T[:, :, None])[:, :, 0]
        Th = Th + step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(Th))):
            break
    return float(np.mean((y - _expit(np.einsum("ij,ij->i", X, Th))) ** 2))


def gaussian_mle_and_loo(z):
    """Closed-form (mu, sigma) MLE and exact LOOCV of the negative log-density."""
    n = len(z)
    mu = z.mean()
    sigma = np.sqrt(np.mean((z - mu) ** 2))
    mu_i = (z.sum() - z) / (n - 1)
    var_i = (np.sum(z**2) - z**2) / (n - 1) - mu_i**2
    loo = 0.5 * np.log(var_i) + (z - mu_i) ** 2 / (2.0 * var_i) + HALF_LOG_2PI
    return np.array([mu, sigma]), float(loo.mean())


class Workload:
    """Specs built once, and a pool of job inputs derived from the seed."""

    name = ""
    fits_per_job = 1
    pool_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.specs, self.losses = [], []

    def pool(self):
        """Inputs of the pool's jobs, item k drawn from substream k of the seed."""
        return [self.item(derive_stream(self.seed, k), k) for k in range(self.pool_size)]

    def item(self, seed, k):
        raise NotImplementedError

    def run(self, item):
        """One timed job: program calls only."""
        raise NotImplementedError

    def check(self, item, out):
        """Number of this job's fits that fail the output check, with reasons."""
        raise NotImplementedError

    def reference_job(self):
        """Outputs of the fixed-seed reference job, as JSON-ready lists."""
        raise NotImplementedError

    def interior_fits(self, out):
        """Number of this job's fits whose tuned lambda is interior, if tuned."""
        return None


# ---------------------------------------------------------------------------
# loo_exact: loocv_exact + te_trace_corrected at a fixed lambda.
# ---------------------------------------------------------------------------

class LooExact(Workload):
    name = "loo_exact"
    N = 400
    pool_size = 9

    def __init__(self, seed):
        super().__init__(seed)
        lin, logit, gauss = tv.RidgeLinearModel(2), tv.RidgeLogisticModel(2), tv.GaussianLikelihoodModel()
        self.cases = {
            "ridge_linear": (lin.spec(), lin.squared_error_loss(), np.array([0.1])),
            "ridge_logistic": (logit.spec(), logit.brier_loss(), np.array([0.01])),
            "gaussian_mle": (gauss.spec(), gauss.neg_loglik_loss(), np.array([0.0])),
        }
        for spec, loss, _ in self.cases.values():
            self.specs.append(spec)
            self.losses.append(loss)

    def item(self, seed, k):
        case = list(self.cases)[k % 3]  # fixed round-robin order
        return case, self.dataset(case, seed)

    def dataset(self, case, seed):
        if case == "ridge_linear":
            dgp = tv.DGPSpec(tv.DGPKind.LINEAR_GAUSSIAN, n=self.N,
                             params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5})
            return tv.simulate(dgp, seed)
        if case == "ridge_logistic":
            dgp = tv.DGPSpec(tv.DGPKind.LOGISTIC_TRUE, n=self.N, params={"beta": (0.2, 1.0, -0.5)})
            return tv.simulate(dgp, seed)
        return tv.Dataset(rng_for(seed).standard_normal((self.N, 1)) * 1.3 + 0.4)

    def run(self, item):
        case, data = item
        spec, loss, lam = self.cases[case]
        solve = tv.solve_theta(spec, data, lam, spec.theta_init)
        cv = tv.loocv_exact(spec, loss, data, lam, solve=solve)
        tc = tv.te_trace_corrected(spec, loss, data, lam, solve=solve)
        return {"theta": solve.theta_hat, "cv": cv.value, "tc": tc.value,
                "corr": tc.diagnostics["trace_correction"]}

    def check(self, item, out):
        case, data = item
        lam = float(self.cases[case][2][0])
        rows, theta = data.rows, out["theta"]
        errors = []
        if case == "ridge_linear":
            e_cv = abs(out["cv"] - tv.ridge_loocv_closed_form(data, lam))
            e_th = _rel(theta, tv.ridge_closed_form(data, lam))
            y, X = _design(rows)
            te = np.mean((y - X @ theta) ** 2)
            if e_cv > 1e-8 or e_th > 1e-9:
                errors.append(f"ridge LOOCV err {e_cv:.2e}, theta err {e_th:.2e}")
        elif case == "ridge_logistic":
            resid, _ = logistic_score_and_sandwich(rows, theta, lam)
            e_cv = abs(out["cv"] - logistic_loo_brier(rows, theta, lam))
            y, X = _design(rows)
            te = np.mean((y - _expit(X @ theta)) ** 2)
            if resid > 1e-8 or e_cv > 1e-8:
                errors.append(f"logistic score {resid:.2e}, LOOCV err {e_cv:.2e}")
        else:
            mle, loo = gaussian_mle_and_loo(rows[:, 0])
            e_th, e_cv = _rel(theta, mle), abs(out["cv"] - loo)
            te = np.log(mle[1]) + 0.5 + HALF_LOG_2PI
            if e_th > 1e-8 or e_cv > 1e-8:
                errors.append(f"gaussian theta err {e_th:.2e}, LOOCV err {e_cv:.2e}")
        e_te = abs(out["tc"] + out["corr"] - te)
        if not np.isfinite(out["corr"]) or e_te > 1e-10 * (1.0 + abs(te)):
            errors.append(f"{case}: trace-corrected TE off by {e_te:.2e}")
        return (1 if errors else 0), errors

    def reference_job(self):
        ref = {}
        for case in self.cases:
            out = self.run((case, self.dataset(case, REFERENCE_SEED)))
            ref[case] = {"theta": out["theta"].tolist(), "cv": out["cv"], "tc": out["tc"]}
        return ref


# ---------------------------------------------------------------------------
# replicate_study: harness.replicate, B = 20, the paper's simulation design.
# ---------------------------------------------------------------------------

class ReplicateStudy(Workload):
    name = "replicate_study"
    B = 20
    fits_per_job = B
    pool_size = 6

    def __init__(self, seed):
        super().__init__(seed)
        model = tv.RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
        self.config = tv.PipelineConfig(
            model=model.spec(), loss=model.brier_loss(predictor_covariates=[0]),
            method=tv.Method.CV_FAST, grid_size=12, compute_variance=True,
        )
        self.dgp = tv.DGPSpec(tv.DGPKind.GAUSSMIX_C, n=100, params={"C": 2.0})
        self.specs, self.losses = [self.config.model], [self.config.loss]

    def item(self, seed, k):
        return seed

    def run(self, item):
        return tv.replicate(self.dgp, self.config, B=self.B, seed=item)

    def check(self, item, out):
        errors = []
        ok = [j for j in range(self.B) if j not in out.failure_indices]
        if len(out.failure_indices):
            errors.append(f"replications {list(out.failure_indices)} failed")
        bad = 0
        nan_v1 = 0
        for k, j in enumerate(ok):
            data = tv.simulate(self.dgp, derive_stream(item, j))
            lam, theta = float(out.lambda_draws[k][0]), out.theta_draws[k]
            resid, V2 = logistic_score_and_sandwich(data.rows, theta, lam)
            on_edge = min(lam, 0.1 - lam) <= 1e-9 * 0.1
            V1 = out.V1_draws[k]
            v1_ok = np.all(np.isnan(V1)) if on_edge else bool(np.all(np.isfinite(V1)))
            nan_v1 += on_edge
            e_v2 = _rel(out.V2_draws[k], V2)
            if not (0.0 <= lam <= 0.1) or resid > 1e-8 or e_v2 > 1e-8 or not v1_ok:
                bad += 1
                errors.append(f"replication {j}: lambda {lam}, score {resid:.2e}, "
                              f"V2 err {e_v2:.2e}, V1 pattern ok {v1_ok}")
        if nan_v1 != out.boundary_count:
            errors.append(f"boundary_count {out.boundary_count} != {nan_v1} edge fits")
            bad = len(ok)
        return len(out.failure_indices) + bad, errors

    def interior_fits(self, out):
        return len(out.lambda_draws) - out.boundary_count

    def reference_job(self):
        out = self.run(REFERENCE_SEED)
        interior = ~np.isnan(out.V1_draws[:, 0, 0])
        return {
            "boundary_count": int(out.boundary_count),
            "lambda_abs": out.lambda_draws.ravel().tolist(),
            "tuned_theta": out.theta_draws.tolist(),
            "V1": out.V1_draws[interior].tolist(),
            "V2": out.V2_draws.tolist(),
        }


# ---------------------------------------------------------------------------
# wide_variance: tune(CV_FAST) -> select_variance -> variance_alpha, p = 7.
# ---------------------------------------------------------------------------

class WideVariance(Workload):
    name = "wide_variance"
    N = 1000
    BETA = (0.2, 1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)
    pool_size = 10

    def __init__(self, seed):
        super().__init__(seed)
        model = tv.RidgeLogisticModel(len(self.BETA) - 1, lambda_domain=(0.0, 0.1))
        self.spec, self.loss = model.spec(), model.brier_loss(predictor_covariates=[0, 1])
        self.specs, self.losses = [self.spec], [self.loss]
        self.dgp = tv.DGPSpec(tv.DGPKind.LOGISTIC_TRUE, n=self.N, params={"beta": self.BETA})

    def item(self, seed, k):
        return tv.simulate(self.dgp, seed)

    def run(self, data):
        fit = tv.tune(self.spec, self.loss, data, tv.Method.CV_FAST)
        report = tv.select_variance(self.spec, self.loss, data, fit)
        Va = tv.variance_alpha(self.spec, self.loss, data, fit) if fit.interior else None
        return fit, report, Va

    def check(self, data, out):
        fit, report, Va = out
        lam = float(fit.lambda_hat[0])
        resid, V2 = logistic_score_and_sandwich(data.rows, fit.theta_hat, lam)
        e_v2 = _rel(report.V2, V2)
        errors = []
        if not (0.0 <= lam <= 0.1) or resid > 1e-8 or e_v2 > 1e-8:
            errors.append(f"lambda {lam}, score {resid:.2e}, V2 err {e_v2:.2e}")
        chosen = report.V1 if fit.interior else report.V2
        se = np.sqrt(np.clip(np.diag(chosen), 0.0, None) / data.n)
        if report.selected != ("V1" if fit.interior else "V2") or _rel(report.standard_errors, se) > 1e-12:
            errors.append(f"selected {report.selected} / standard errors disagree with it")
        if fit.interior:
            p = self.spec.p
            e_va = _rel(Va[:p, :p], report.V1)
            if not np.all(np.isfinite(report.V1)) or e_va > 1e-5:
                errors.append(f"variance_alpha theta block vs V1: {e_va:.2e}")
        return (1 if errors else 0), errors

    def interior_fits(self, out):
        return int(out[0].interior)

    def reference_job(self):
        fit, report, _ = self.run(tv.simulate(self.dgp, REFERENCE_SEED))
        return {
            "interior": bool(fit.interior),
            "lambda_abs": fit.lambda_hat.tolist(),
            "tuned_theta": fit.theta_hat.tolist(),
            "se": report.standard_errors.tolist(),
            "V1": None if report.V1 is None else report.V1.tolist(),
            "V2": report.V2.tolist(),
        }


WORKLOADS = {w.name: w for w in (LooExact, ReplicateStudy, WideVariance)}


def compare_reference(recorded, computed, path="") -> list:
    """Mismatches between a recorded reference job and a fresh one."""
    if isinstance(recorded, dict):
        errors = []
        for key, value in recorded.items():
            errors += compare_reference(value, computed.get(key), f"{path}.{key}" if path else key)
        return errors
    key = path.rsplit(".", 1)[-1]
    if key not in REFERENCE_TOL or recorded is None or computed is None:
        return [] if recorded == computed else [f"{path}: {computed} != recorded {recorded}"]
    a, b = np.asarray(computed, float), np.asarray(recorded, float)
    if a.shape != b.shape:
        return [f"{path}: shape {a.shape} != recorded {b.shape}"]
    err = float(np.max(np.abs(a - b))) if key.endswith("_abs") else _rel(a, b)
    return [] if err <= REFERENCE_TOL[key] else [f"{path}: error {err:.2e} > {REFERENCE_TOL[key]:.0e}"]
