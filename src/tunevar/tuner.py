"""Criterion minimization over the tuning box and boundary classification.

q = 1 uses a uniform grid followed by golden-section refinement of the best
bracket; q > 1 uses a product grid (capped at 1e4 points) followed by a
coordinate-wise pattern search. Ties are broken toward smaller lambda.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .criteria import Method, evaluate_criterion
from .exceptions import CriterionFailure, TunevarError
from .model import Dataset, LossSpec, ModelSpec, _check_box, row_mean, slot_values
from .solver import SolveResult, default_tol, solve_theta, theta_prime

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REL_WIDTH = 1e-6
BOUNDARY_PROXIMITY = 1e-9
SLOPE_STEP = 1e-5


class BoundaryStatus(enum.Enum):
    INTERIOR = "interior"
    LOWER_BOUNDARY = "lower_boundary"
    UPPER_BOUNDARY = "upper_boundary"
    FIXED = "fixed"  # lambda given by the caller, not tuned


@dataclass(frozen=True)
class FitResult:
    """theta_hat, theta' and diagnostics at lambda_hat, tuned or FIXED by the caller."""

    theta_hat: np.ndarray
    lambda_hat: np.ndarray
    D_hat: np.ndarray
    boundary_status: Tuple[BoundaryStatus, ...]
    criterion: Method
    criterion_value: float
    criterion_slope_at_opt: np.ndarray
    trace: Tuple[Tuple[Tuple[float, ...], float], ...]
    lambda_box: np.ndarray  # (q, 2) search box, echoed for reporting
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def interior(self) -> bool:
        return all(s is BoundaryStatus.INTERIOR for s in self.boundary_status)

    def flat_at_edge(self) -> bool:
        """True when an edge axis's one-sided slope is within max(1e-3 * range / width,
        1e-12) of zero, range being the criterion's spread over the trace."""
        values = [v for _, v in self.trace]
        vrange = max(values) - min(values)
        edges = (BoundaryStatus.LOWER_BOUNDARY, BoundaryStatus.UPPER_BOUNDARY)
        widths = self.lambda_box[:, 1] - self.lambda_box[:, 0]
        return any(
            s in edges and abs(slope) <= max(1e-3 * vrange / w, 1e-12)
            for s, slope, w in zip(self.boundary_status, self.criterion_slope_at_opt, widths)
        )


class _Evaluator:
    """Caching criterion evaluator with warm-start chaining from model.theta_init.

    The cache maps every attempted lambda to its value, None where it failed;
    first_failure describes the first failure: its lambda, exception type and
    message.
    """

    def __init__(self, model, loss, data, method, split, seed):
        self.model, self.loss, self.data = model, loss, data
        self.method, self.split, self.seed = method, split, seed
        self.cache: Dict[Tuple[float, ...], Optional[float]] = {}
        self.warm: np.ndarray = model.theta_init
        self.first_failure: Optional[str] = None

    @property
    def failures(self) -> int:
        return sum(v is None for v in self.cache.values())

    @property
    def trace(self) -> List[Tuple[Tuple[float, ...], float]]:
        """The (lambda, value) pairs that succeeded, in evaluation order."""
        return [(k, v) for k, v in self.cache.items() if v is not None]

    def try_value(self, lam) -> Optional[float]:
        key = tuple(float(v) for v in np.atleast_1d(lam))
        if key in self.cache:
            return self.cache[key]
        lam = np.asarray(key)
        try:
            solve = solve_theta(self.model, self.data, lam, self.warm)
            cv = evaluate_criterion(
                self.method, self.model, self.loss, self.data, lam,
                theta_init=self.warm, solve=solve,
                split=self.split, seed=self.seed,
            )
        except TunevarError as exc:
            self.cache[key] = None
            if self.first_failure is None:
                self.first_failure = f"lambda = {lam}: {type(exc).__name__}: {exc}"
            return None
        self.warm = solve.theta_hat
        self.cache[key] = cv.value
        return cv.value

    def value(self, lam) -> float:
        v = self.try_value(lam)
        if v is None:
            raise CriterionFailure(
                f"criterion {self.method.value} failed at lambda = {np.atleast_1d(lam)}"
            )
        return v


def _argmin_trace(trace):
    # ties toward (lexicographically) smaller lambda
    best = min(trace, key=lambda kv: (kv[1], kv[0]))
    return np.asarray(best[0]), best[1]


def _scan(ev: _Evaluator, points) -> np.ndarray:
    """Evaluate the criterion at every grid point and return the best one.

    CriterionFailure when more than 20% of the points, or all of them, fail;
    its message quotes the first failure.
    """
    for pt in points:
        ev.try_value(pt)
    if ev.failures > 0.2 * len(ev.cache):
        raise CriterionFailure(
            f"criterion failed on {ev.failures} of {len(ev.cache)} grid points; "
            f"first failure at {ev.first_failure}"
        )
    if not ev.trace:
        raise CriterionFailure(
            f"criterion failed on every grid point; first failure at {ev.first_failure}"
        )
    return _argmin_trace(ev.trace)[0]


def _golden_section(ev: _Evaluator, grid, best):
    """Golden-section search over the grid cells either side of the grid point
    nearest best, down to REL_WIDTH times the grid's span."""
    width = grid[-1] - grid[0]
    k = int(np.argmin(np.abs(grid - best[0])))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = ev.value([c]), ev.value([d])
    while hi - lo > REL_WIDTH * width:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = ev.value([c])
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = ev.value([d])


def _pattern_search(ev: _Evaluator, start, box):
    widths = box[:, 1] - box[:, 0]
    steps = widths / 10.0
    lam = np.asarray(start, float).copy()
    flam = ev.value(lam)
    while np.any(steps >= REL_WIDTH * widths):
        moved = False
        for j in range(len(lam)):
            for sgn in (-1.0, 1.0):  # try the smaller lambda first
                cand = lam.copy()
                cand[j] = np.clip(cand[j] + sgn * steps[j], box[j, 0], box[j, 1])
                if cand[j] == lam[j]:
                    continue
                fc = ev.try_value(cand)
                if fc is not None and (fc < flam or (fc == flam and sgn < 0)):
                    lam, flam = cand, fc
                    moved = True
                    break
        if not moved:
            steps /= 2.0


def edge_status(lam_hat, box) -> Tuple[BoundaryStatus, ...]:
    """The tuner's label per axis: the edge that lam_hat is within
    BOUNDARY_PROXIMITY times the box width of, else INTERIOR."""
    near = BOUNDARY_PROXIMITY * (box[:, 1] - box[:, 0])
    return tuple(
        BoundaryStatus.LOWER_BOUNDARY if lam - lo <= w
        else BoundaryStatus.UPPER_BOUNDARY if hi - lam <= w
        else BoundaryStatus.INTERIOR
        for lam, (lo, hi), w in zip(lam_hat, box, near)
    )


def _slopes(value, lam_hat, box, status) -> np.ndarray:
    """Criterion slope per axis: one-sided at an edge, else central.

    value(lam) gives the criterion at lam: _Evaluator.value while tuning,
    and a lookup in the fit's own trace when check_fit checks the slope.
    """
    slopes = np.zeros(len(lam_hat))
    for j, s in enumerate(status):
        lo, hi = box[j]
        h = SLOPE_STEP * (hi - lo)
        up, dn = lam_hat.copy(), lam_hat.copy()
        if s is BoundaryStatus.LOWER_BOUNDARY:
            up[j] = lo + h
            slopes[j] = (value(up) - value(lam_hat)) / h
        elif s is BoundaryStatus.UPPER_BOUNDARY:
            dn[j] = hi - h
            slopes[j] = (value(lam_hat) - value(dn)) / h
        else:
            up[j], dn[j] = min(lam_hat[j] + h, hi), max(lam_hat[j] - h, lo)
            slopes[j] = (value(up) - value(dn)) / (up[j] - dn[j])
    return slopes


def check_fit(model: ModelSpec, data: Dataset, fit: FitResult) -> SolveResult:
    """ValueError unless fit is what tune, or a solve at a fixed lambda, makes
    of model on data; else the root at (theta_hat, lambda_hat), whose Phi and
    J_hat come from one phi_jac_sum call (its EvaluationError propagates).

    The shapes come first, before any slot call: theta_hat (p,), D_hat
    (p, q), lambda_box (q, 2), lambda_hat, boundary_status and the slope
    (q,), and a trace with rows of q + 1 numbers. The fit's boundary_status
    must be all FIXED or edge_status of lambda_hat in fit.lambda_box. A
    tuned fit's criterion_slope_at_opt must be, bit for bit, what _slopes
    gives from the values in its own trace; tune evaluates every slope
    point through its cache, so each is a trace entry. theta_hat must leave
    a residual ||mean phi|| of at most 1e4 times default_tol(theta_hat) on
    data, and D_hat must lie within 1e-8 * (1 + max|D|) of D = theta' at
    the root. fit.lambda_box is not compared with model.lambda_domain.
    """
    p, q = model.p, model.q
    for name, got, want in (
        ("theta_hat", np.shape(fit.theta_hat), (p,)),
        ("lambda_hat", np.shape(fit.lambda_hat), (q,)),
        ("D_hat", np.shape(fit.D_hat), (p, q)),
        ("lambda_box", np.shape(fit.lambda_box), (q, 2)),
        ("boundary_status", (len(fit.boundary_status),), (q,)),
        ("criterion_slope_at_opt", np.shape(fit.criterion_slope_at_opt), (q,)),
    ):
        if got != want:
            raise ValueError(f"fit {name} has shape {got}; the model needs {want}")
    widths = sorted({len(lam) + 1 for lam, _ in fit.trace})
    if widths != [q + 1]:
        raise ValueError(f"fit trace rows hold {widths} numbers; the model needs {q + 1}: "
                         "lambda_1..lambda_q, then the value")
    tuned = edge_status(fit.lambda_hat, fit.lambda_box)
    if set(fit.boundary_status) != {BoundaryStatus.FIXED} and fit.boundary_status != tuned:
        raise ValueError(
            f"fit boundary_status {[s.value for s in fit.boundary_status]} is neither "
            f"all 'fixed' nor the tuner's labels of lambda_hat, {[s.value for s in tuned]}"
        )
    if fit.boundary_status == tuned:  # all "fixed" fits hold no slope
        values = dict(fit.trace)

        def traced(lam):
            key = tuple(float(v) for v in lam)
            if key not in values:
                raise ValueError(
                    f"fit trace has no value at lambda = {list(key)}, a point of its "
                    "criterion_slope_at_opt"
                )
            return values[key]

        slopes = _slopes(traced, fit.lambda_hat, fit.lambda_box, tuned)
        if not np.array_equal(slopes, fit.criterion_slope_at_opt):
            raise ValueError(
                f"fit criterion_slope_at_opt {fit.criterion_slope_at_opt.tolist()} is "
                f"not {slopes.tolist()}, the slope its own trace gives"
            )
    theta, lam = fit.theta_hat, fit.lambda_hat
    F, S = slot_values(model, "phi_jac_sum", data.rows, theta, lam)
    residual = float(np.linalg.norm(row_mean(F)))
    tol = 1e4 * default_tol(theta)
    if not residual <= tol:
        raise ValueError(
            f"fit theta_hat leaves the residual {residual:.3e} > {tol:.3e} on this "
            "data; the fit was made on other data or with another model"
        )
    root = SolveResult(theta, lam, 0, residual, -(S / data.n), F)
    D = theta_prime(model, data, root)
    gap = float(np.max(np.abs(fit.D_hat - D)))
    if not gap <= 1e-8 * (1.0 + float(np.max(np.abs(D)))):
        raise ValueError(
            f"fit D_hat is {gap:.3e} from theta' at theta_hat and lambda_hat on this "
            "data; the fit was made on other data or with another model"
        )
    return root


def _resolve_box(model: ModelSpec):
    if model.lambda_domain is None:
        raise ValueError("no lambda_domain available")
    return _check_box(model.lambda_domain, model.q, "lambda_domain")


def tune(
    model: ModelSpec, loss: LossSpec, data: Dataset, method: Method = Method.CV_EXACT,
    grid_size: int = 20, seed: int = 0, split: float = 0.5,
) -> FitResult:
    """Minimize the criterion over model.lambda_domain and classify the minimizer.
    For another box, tune dataclasses.replace(model, lambda_domain=box)."""
    if grid_size < 5:
        raise ValueError("grid_size must be at least 5")
    box = _resolve_box(model)
    ev = _Evaluator(model, loss, data, method, split, seed)

    if model.q == 1:
        grid = np.linspace(box[0, 0], box[0, 1], grid_size)
        _golden_section(ev, grid, _scan(ev, grid[:, None]))
    else:
        m = grid_size
        if m**model.q > 10_000:
            m = max(2, int(np.floor(10_000 ** (1.0 / model.q))))
        mesh = np.meshgrid(*[np.linspace(a, b, m) for a, b in box], indexing="ij")
        _pattern_search(ev, _scan(ev, np.stack([g.ravel() for g in mesh], axis=-1)), box)

    lam_hat, value = _argmin_trace(ev.trace)
    lam_hat = np.clip(lam_hat, box[:, 0], box[:, 1])
    status = edge_status(lam_hat, box)
    slopes = _slopes(ev.value, lam_hat, box, status)

    solve = solve_theta(model, data, lam_hat, ev.warm)
    trace = tuple(ev.trace)
    return FitResult(
        theta_hat=solve.theta_hat, lambda_hat=lam_hat, D_hat=theta_prime(model, data, solve),
        boundary_status=status, criterion=method, criterion_value=float(value),
        criterion_slope_at_opt=slopes, trace=trace, lambda_box=box,
        diagnostics={
            "grid_failures": float(ev.failures),
            "evaluations": float(len(trace)),
            "solver_iterations": float(solve.iterations),
            "residual_norm": solve.residual_norm,
        },
    )


@dataclass(frozen=True)
class TruncatedResult:
    theta_hat: np.ndarray
    case_tag: str  # one of "a", "b", "c", "d", "interior"
    lambda_g: float
    lambda_clamped: float


def truncated_estimate(
    model: ModelSpec, loss: LossSpec, data: Dataset, method: Method = Method.CV_EXACT,
    grid_size: int = 20, seed: int = 0, split: float = 0.5,
) -> TruncatedResult:
    """Clamped estimator with the boundary-case label of its minimizer.

    The criterion is searched over model.lambda_domain extended by half a
    width on each side, where the model permits evaluation; the returned
    theta is the fit at the clamp of the extended minimizer into that box. Labels:
    "a"/"b" for minimizers clearly below/above the box, "c"/"d" for within
    delta = 2 * n^{-1/2} * width of the lower/upper edge, "interior" otherwise.
    """
    if model.q != 1:
        raise ValueError("truncated_estimate requires q = 1")
    lo, hi = _resolve_box(model)[0]
    width = hi - lo
    delta = 2.0 * width / np.sqrt(data.n)

    ev = _Evaluator(model, loss, data, method, split, seed)
    ext_grid = np.linspace(lo - 0.5 * width, hi + 0.5 * width, 2 * grid_size)
    for g in ext_grid:
        ev.try_value([g])
    outside_ok = any(
        (k[0] < lo or k[0] > hi) and v is not None for k, v in ev.cache.items()
    )

    if outside_ok and ev.trace:
        _golden_section(ev, ext_grid, _argmin_trace(ev.trace)[0])
        lam_g = float(_argmin_trace(ev.trace)[0][0])
    else:
        # model not evaluable outside the box: constrained search, then decide
        # the clear-exceedance cases from the boundary slope sign
        fit = tune(model, loss, data, method, grid_size, seed, split)
        lam_g = float(fit.lambda_hat[0])
        slope = float(fit.criterion_slope_at_opt[0])
        if fit.boundary_status[0] is BoundaryStatus.LOWER_BOUNDARY and slope > 0:
            lam_g = lo - delta - width * 1e-6
        elif fit.boundary_status[0] is BoundaryStatus.UPPER_BOUNDARY and slope < 0:
            lam_g = hi + delta + width * 1e-6

    lam_c = float(np.clip(lam_g, lo, hi))
    if lam_g < lo - delta:
        tag = "a"
    elif lam_g > hi + delta:
        tag = "b"
    elif abs(lam_g - lo) <= delta:
        tag = "c"
    elif abs(lam_g - hi) <= delta:
        tag = "d"
    else:
        tag = "interior"

    solve = solve_theta(model, data, np.array([lam_c]), ev.warm)
    return TruncatedResult(solve.theta_hat, tag, lam_g, lam_c)
