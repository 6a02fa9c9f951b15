"""Monte Carlo engine: data-generating processes, replication loops, bootstrap.

Every run is a pure function of (configuration, master seed): replication j
draws from the splitmix64-derived substream j of the master seed, so results
do not depend on execution order and are reproducible under parallelism.
Failed replications are excluded and reported; more than MAX_FAILURE_RATE
(5%) failures aborts.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from .criteria import Method
from .exceptions import FailureRateExceeded, TunevarError
from .model import Dataset, LossSpec, ModelSpec
from .rng import derive_stream, rng_for
from .solver import pinned_influences, solve_theta, theta_prime
from .tuner import _resolve_box, truncated_estimate, tune
from .variance import alpha_influences, select_variance

MAX_FAILURE_RATE = 0.05
N_MIXTURE = 20000  # draws of the simulated boundary mixture in mixture_law_check


class DGPKind(enum.Enum):
    GAUSSMIX_C = "gaussmix_c"
    LINEAR_GAUSSIAN = "linear_gaussian"
    LOGISTIC_TRUE = "logistic_true"
    CUSTOM = "custom"


@dataclass(frozen=True)
class DGPSpec:
    """A data-generating process: kind, parameters, and sample size.

    GAUSSMIX_C: binary class y ~ Bernoulli(1/2) with x | y=0 ~ N(mu, Sigma)
    and x | y=1 ~ N(-mu, 2 Sigma), mu = (1/2, 1/2)', Sigma having diagonal 2
    and off-diagonal -sqrt(C/2); positive definiteness requires C < 8.
    LINEAR_GAUSSIAN: y = beta' x~ + coef_sq * (x_1^2 - 1) + sigma * eps with
    standard normal covariates; coef_sq != 0 makes the linear model
    misspecified while keeping E[x~ eps] = 0, and needs at least one covariate.
    LOGISTIC_TRUE: y ~ Bernoulli(expit(beta' x~)).
    CUSTOM: params["sampler"](rng, n) returns the (n, d) row matrix.
    """

    kind: DGPKind
    n: int
    params: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.kind is DGPKind.GAUSSMIX_C:
            C = float(self.params.get("C", 0.0))
            if C < 0 or C >= 8.0:
                raise ValueError("GAUSSMIX_C requires 0 <= C < 8 (positive definite Sigma)")
        if self.kind is DGPKind.LINEAR_GAUSSIAN:
            n_cov = len(self.params.get("beta", (1.0, 1.0))) - 1
            if float(self.params.get("coef_sq", 0.0)) != 0.0 and n_cov < 1:
                raise ValueError("coef_sq != 0 needs at least one covariate in beta")


def _gaussmix_sigma(C: float) -> np.ndarray:
    off = -np.sqrt(C / 2.0)
    return np.array([[2.0, off], [off, 2.0]])


def simulate(dgp: DGPSpec, seed: int) -> Dataset:
    """Draw one seeded dataset from the process; rows are (y, covariates...)."""
    rng = rng_for(seed)
    n = dgp.n
    if dgp.kind is DGPKind.GAUSSMIX_C:
        C = float(dgp.params.get("C", 0.0))
        mu = np.array([0.5, 0.5])
        Sigma = _gaussmix_sigma(C)
        y = (rng.random(n) < 0.5).astype(float)
        x = np.empty((n, 2))
        n1 = int(y.sum())
        x[y == 0.0] = rng.multivariate_normal(mu, Sigma, size=n - n1)
        x[y == 1.0] = rng.multivariate_normal(-mu, 2.0 * Sigma, size=n1)
        return Dataset(np.column_stack([y, x]))
    if dgp.kind is DGPKind.LINEAR_GAUSSIAN:
        beta = np.asarray(dgp.params.get("beta", (1.0, 1.0)), float)
        sigma = float(dgp.params.get("sigma", 1.0))
        coef_sq = float(dgp.params.get("coef_sq", 0.0))
        m = len(beta) - 1
        x = rng.standard_normal((n, m))
        mean = beta[0] + x @ beta[1:]
        if coef_sq != 0.0:
            mean = mean + coef_sq * (x[:, 0] ** 2 - 1.0)
        y = mean + sigma * rng.standard_normal(n)
        return Dataset(np.column_stack([y, x]))
    if dgp.kind is DGPKind.LOGISTIC_TRUE:
        beta = np.asarray(dgp.params.get("beta", (0.0, 1.0)), float)
        m = len(beta) - 1
        x = rng.standard_normal((n, m))
        t = beta[0] + x @ beta[1:]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(float)
        return Dataset(np.column_stack([y, x]))
    sampler = dgp.params["sampler"]
    return Dataset(np.asarray(sampler(rng, n), float))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run tune-then-variance on one dataset; the tuning
    box is model.lambda_domain."""

    model: ModelSpec
    loss: LossSpec
    method: Method = Method.CV_FAST
    grid_size: int = 20
    split: float = 0.5
    compute_variance: bool = True


@dataclass
class ReplicationSummary:
    """Per-replication draws plus the aggregates computed from them."""

    n: int
    requested: int
    lambda_draws: np.ndarray  # (B_ok, q)
    theta_draws: np.ndarray  # (B_ok, p)
    V1_draws: np.ndarray  # (B_ok, p, p), NaN where the fit was not interior
    V2_draws: np.ndarray  # (B_ok, p, p)
    failure_indices: Tuple[int, ...]
    boundary_count: int
    empirical_variance: np.ndarray = field(init=False)  # var of sqrt(n) * theta_hat
    mean_V1: np.ndarray = field(init=False)
    mean_V2: np.ndarray = field(init=False)

    def __post_init__(self):
        scaled = np.sqrt(self.n) * self.theta_draws
        # np.cov returns a 0-d array for one parameter; keep (p, p) like the V draws
        self.empirical_variance = np.atleast_2d(np.cov(scaled, rowvar=False, ddof=1))
        if np.all(np.isnan(self.V1_draws)):
            self.mean_V1 = np.full(self.V1_draws.shape[1:], np.nan)
        else:
            with np.errstate(invalid="ignore"):
                self.mean_V1 = np.nanmean(self.V1_draws, axis=0)
        self.mean_V2 = self.V2_draws.mean(axis=0)

    def abs_errors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Entrywise |mean V_hat - empirical variance| for V1 and V2."""
        return (
            np.abs(self.mean_V1 - self.empirical_variance),
            np.abs(self.mean_V2 - self.empirical_variance),
        )

    @property
    def failure_rate(self) -> float:
        return len(self.failure_indices) / self.requested


def _run_one(data: Dataset, config: PipelineConfig, seed: int):
    fit = tune(
        config.model, config.loss, data, config.method,
        grid_size=config.grid_size, seed=seed, split=config.split,
    )
    p = config.model.p
    V1 = np.full((p, p), np.nan)
    V2 = np.full((p, p), np.nan)
    if config.compute_variance:
        report = select_variance(config.model, config.loss, data, fit)
        V2 = report.V2
        if report.V1 is not None:
            V1 = report.V1
    return fit, V1, V2


def _replications(step: Callable[[int], object], B: int, seed: int,
                  label: str) -> Tuple[list, List[int]]:
    """(results, failure indices) of step(derive_stream(seed, j)) for j = 0..B-1.

    A step that raises TunevarError is a failure; more than MAX_FAILURE_RATE
    * B of them raise FailureRateExceeded.
    """
    results, failures = [], []
    for j in range(B):
        try:
            results.append(step(derive_stream(seed, j)))
        except TunevarError:
            failures.append(j)
    if len(failures) > MAX_FAILURE_RATE * B:
        raise FailureRateExceeded(f"{len(failures)} of {B} {label} replications failed")
    return results, failures


def _collect(runner: Callable[[int], tuple], B: int, seed: int, n: int,
             label: str) -> ReplicationSummary:
    """Summary of runner(stream) -> (fit, V1, V2) on B streams; ValueError if B < 2."""
    if B < 2:
        raise ValueError("B must be at least 2")
    runs, failures = _replications(runner, B, seed, label)
    fits = [fit for fit, _, _ in runs]
    return ReplicationSummary(
        n=n, requested=B,
        lambda_draws=np.asarray([np.asarray(fit.lambda_hat, float) for fit in fits]),
        theta_draws=np.asarray([np.asarray(fit.theta_hat, float) for fit in fits]),
        V1_draws=np.asarray([V1 for _, V1, _ in runs]),
        V2_draws=np.asarray([V2 for _, _, V2 in runs]),
        failure_indices=tuple(failures),
        boundary_count=sum(not fit.interior for fit in fits),
    )


def replicate(dgp: DGPSpec, config: PipelineConfig, B: int, seed: int) -> ReplicationSummary:
    """Simulate -> tune -> variance, B times on independent seeded streams."""

    def runner(stream):
        return _run_one(simulate(dgp, seed=stream), config, seed=stream)

    return _collect(runner, B, seed, dgp.n, "simulation")


def bootstrap(data: Dataset, config: PipelineConfig, B: int, seed: int) -> ReplicationSummary:
    """Nonparametric bootstrap: resample rows, rerun tune-and-fit per resample."""

    def runner(stream):
        idx = rng_for(stream).integers(0, data.n, size=data.n)
        return _run_one(data.take(idx), config, seed=stream)

    return _collect(runner, B, seed, data.n, "bootstrap")


@dataclass(frozen=True)
class MixtureLawReport:
    """Per-coordinate KS distance between the clamped-estimator draws and the
    simulated boundary mixture limit."""

    ks_statistics: np.ndarray  # (p,)
    empirical_draws: np.ndarray  # (B_ok, p), sqrt(n) * (theta_T - theta_0)
    mixture_draws: np.ndarray  # (B_sim, p)
    case_counts: Dict[str, int]
    failure_count: int


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    The arithmetic of scipy.stats.ks_2samp(a, b).statistic, bit for bit, in
    the case mixture_law_check meets (N_MIXTURE > 10000 draws, where scipy
    takes its asymptotic path and keeps the raw ECDF difference), without
    the p-value; NaN when either sample holds a NaN.
    """
    a, b = np.sort(a), np.sort(b)
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        return np.nan
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / len(a)
            - np.searchsorted(b, pooled, side="right") / len(b))
    return max(np.clip(-diff.min(), 0, 1), diff.max())


def mixture_law_check(
    dgp: DGPSpec, config: PipelineConfig, theta0, B: int, seed: int,
    boundary: str = "lower",
) -> MixtureLawReport:
    """Compare clamped-estimator draws against the simulated boundary mixture.

    The design is assumed to put the population optimum at the edge of the
    q = 1 tuning box config.model.lambda_domain that boundary names, "lower"
    or "upper". Empirical side: B replications of simulate and
    truncated_estimate, scaled as sqrt(n) * (theta_T - theta0); a
    replication that fails in either counts against MAX_FAILURE_RATE.
    Theoretical side: the joint normal limit of (tuned theta, edge-pinned
    theta, unconstrained lambda minimizer) is estimated from per-observation
    influences on one reference fit, and the mixture picks the tuned branch
    when the simulated minimizer lands inside the box, the pinned branch
    otherwise.
    """
    if config.model.q != 1:
        raise ValueError("mixture_law_check requires q = 1")
    if boundary not in ("lower", "upper"):
        raise ValueError(f"boundary must be 'lower' or 'upper', got {boundary!r}")
    theta0 = np.asarray(theta0, float)
    box = _resolve_box(config.model)
    lam_edge = box[0, 0] if boundary == "lower" else box[0, 1]

    def draw(stream):  # one clamped-estimator draw
        return truncated_estimate(
            config.model, config.loss, simulate(dgp, seed=stream), config.method,
            grid_size=config.grid_size, seed=stream, split=config.split,
        )

    results, failures = _replications(draw, B, seed, "mixture")
    cases = dict(Counter(res.case_tag for res in results))
    empirical = np.asarray([np.sqrt(dgp.n) * (res.theta_hat - theta0) for res in results])

    # reference fit at the edge for the influence-based joint covariance
    ref = simulate(dgp, seed=derive_stream(seed, B + 1))
    lam0 = np.array([lam_edge])
    solve0 = solve_theta(config.model, ref, lam0, theta0)
    D0 = theta_prime(config.model, ref, solve0)
    infl_alpha = alpha_influences(
        config.model, config.loss, ref, solve0.theta_hat, lam0, D0
    )
    infl_pinned = pinned_influences(solve0)
    p, q = config.model.p, config.model.q
    U = np.column_stack(
        [infl_alpha[:, :p], infl_pinned, infl_alpha[:, p : p + q]]
    )  # (n, p + p + 1)
    joint_cov = U.T @ U / ref.n

    rng = rng_for(derive_stream(seed, B + 2))
    sims = rng.multivariate_normal(np.zeros(2 * p + 1), joint_cov, size=N_MIXTURE,
                                   method="svd")
    N1, N2, N3 = sims[:, :p], sims[:, p : 2 * p], sims[:, 2 * p]
    # N3 is the limit of sqrt(n) * (lambda_G - edge); the tuned branch applies
    # when the unconstrained minimizer falls inside the box
    inside = N3 >= 0 if boundary == "lower" else N3 <= 0
    mixture = np.where(inside[:, None], N1, N2)

    ks = np.array([_ks_statistic(empirical[:, k], mixture[:, k]) for k in range(p)])
    return MixtureLawReport(
        ks_statistics=ks, empirical_draws=empirical, mixture_draws=mixture,
        case_counts=cases, failure_count=len(failures),
    )
