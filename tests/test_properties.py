import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tunevar import (
    EvaluationError, GaussianLikelihoodModel, RefitFailure, RidgeLinearModel, RidgeLogisticModel,
    SingularJacobian, TunevarError,
    loocv_exact, loocv_fast, solve_loo, solve_loo_all, solve_theta, training_error,
)
from tunevar.harness import N_MIXTURE, _ks_statistic
from tunevar import solver
from tunevar.model import Dataset, ModelSpec, row_mean, row_sum, rowwise, slot_values
from tunevar.models import LOO_BLOCK, _design, _expit, default_penalty_mask
from tunevar.rng import SplitMix64, derive_stream, fisher_yates_permutation, splitmix64
from tunevar.solver import (
    COND_LIMIT, _newton, checked_inv, checked_solve, default_tol, pinned_influences,
    well_conditioned,
)

from conftest import make_linear_data, make_logistic_data, root_at

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


@given(SEEDS, st.integers(min_value=2, max_value=200))
def test_fisher_yates_is_a_permutation(seed, n):
    perm = fisher_yates_permutation(n, seed)
    assert sorted(perm) == list(range(n))


@given(SEEDS, st.integers(min_value=2, max_value=50))
def test_fisher_yates_deterministic(seed, n):
    assert np.array_equal(
        fisher_yates_permutation(n, seed), fisher_yates_permutation(n, seed)
    )


@given(SEEDS)
def test_splitmix64_output_in_range_and_progresses(state):
    s1, out = splitmix64(state)
    assert 0 <= out < 2**64
    assert 0 <= s1 < 2**64
    s2, out2 = splitmix64(s1)
    assert (s1, out) != (s2, out2) or state == s1


@given(SEEDS, st.integers(min_value=0, max_value=10_000))
def test_derive_stream_deterministic(master, j):
    assert derive_stream(master, j) == derive_stream(master, j)


@given(SEEDS)
def test_derive_stream_distinct_across_indices(master):
    streams = {derive_stream(master, j) for j in range(64)}
    assert len(streams) == 64


@given(SEEDS, st.integers(min_value=1, max_value=1000))
def test_next_below_uniform_bound(seed, bound):
    g = SplitMix64(seed)
    for _ in range(20):
        v = g.next_below(bound)
        assert 0 <= v < bound


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
def test_solve_and_te_permutation_invariant(data_seed, perm_seed):
    rng = np.random.default_rng(data_seed)
    n = 40
    x = rng.standard_normal((n, 2))
    y = 1.0 + x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    data = Dataset(np.column_stack([y, x]))
    perm = np.random.default_rng(perm_seed).permutation(n)
    shuffled = data.take(perm)
    m = RidgeLinearModel(2)
    spec, loss = m.spec(), m.squared_error_loss()
    r1 = solve_theta(spec, data, [0.2], np.zeros(3))
    r2 = solve_theta(spec, shuffled, [0.2], np.zeros(3))
    assert np.allclose(r1.theta_hat, r2.theta_hat, atol=1e-9)
    t1 = training_error(spec, loss, data, [0.2], root_at(spec, data, [0.2])).value
    t2 = training_error(spec, loss, shuffled, [0.2], root_at(spec, shuffled, [0.2])).value
    assert abs(t1 - t2) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_pointwise_variance_symmetric_psd(data_seed, lam):
    rng = np.random.default_rng(data_seed)
    n = 60
    x = rng.standard_normal((n, 2))
    y = 1.0 + x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    data = Dataset(np.column_stack([y, x]))
    m = RidgeLinearModel(2)
    spec = m.spec()
    from tunevar import theta_prime

    res = solve_theta(spec, data, [lam], np.zeros(3))
    J = -slot_values(spec, "phi_jac_sum", data.rows, res.theta_hat, res.lam)[1] / n
    phis = slot_values(spec, "phi_batch", data.rows, res.theta_hat, res.lam)
    K = phis.T @ phis / n
    Jinv = np.linalg.inv(J)
    V2 = Jinv @ K @ Jinv.T
    assert np.allclose(V2, V2.T, atol=1e-10)
    assert np.linalg.eigvalsh(V2).min() >= -1e-8 * max(np.trace(V2), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ridge-logistic", "gaussian"]),
       st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
       st.integers(min_value=5, max_value=60))
def test_batched_loo_matches_per_row_refits(model, data_seed, lam, n):
    # the batched leave-one-out solve against the per-row refit it replaces
    if model == "ridge-logistic":
        m = RidgeLogisticModel(2)
        spec, loss = m.spec(), m.brier_loss()
        data = make_logistic_data(n=n, seed=data_seed)
        start = spec.theta_init
    else:
        m = GaussianLikelihoodModel()
        spec, loss = m.spec(), m.neg_loglik_loss()
        z = np.random.default_rng(data_seed).standard_normal(n) * 1.3 + 0.4
        data = Dataset(z[:, None])
        start = [z.mean(), z.std()]  # Newton from (0, 1) can stall on a small sample
    solve = solve_theta(spec, data, [lam], start)
    thetas, converged = solve_loo_all(spec, data, solve)
    assert np.all(np.isnan(thetas[~converged]))
    # per-row reference with loocv_exact's retry: warm start, then cold start
    refits = np.full((n, spec.p), np.nan)
    for i in range(n):
        for start in (solve.theta_hat, spec.theta_init):
            try:
                refits[i] = solve_loo(spec, data, solve.lam, i, warm_start=start).theta_hat
                break
            except TunevarError:
                pass
    both = converged & ~np.isnan(refits[:, 0])
    err = np.abs(thetas[both] - refits[both])
    assert np.all(err <= 1e-7 * (1.0 + np.abs(refits[both])))
    failed = np.isnan(refits[:, 0])
    if failed.sum() > 0.01 * n:
        with pytest.raises(RefitFailure) as exc:
            loocv_exact(spec, loss, data, [lam], solve=solve)
        assert exc.value.failed_indices == tuple(np.flatnonzero(failed))
        return
    cv = loocv_exact(spec, loss, data, [lam], solve=solve)
    assert cv.diagnostics["refit_fallbacks"] == n - converged.sum()
    per_row = np.mean([loss.psi(z, th) for z, th in zip(data.rows, refits)])
    assert abs(cv.value - per_row) <= 1e-9 * abs(per_row)


def _root_phi_case(model, seed, n, scale):
    """(spec, data, lam, start): a start scale * N(0, 1) away from the ridge
    roots, the moment start for the Gaussian; "rowwise" is ridge-logistic's
    phi row by row, with finite-difference derivatives."""
    rng = np.random.default_rng(seed)
    if model == "gaussian":
        z = rng.standard_normal(n) * 1.3 + 0.4
        start = [z.mean() + 0.1 * scale * rng.standard_normal(), z.std()]
        return GaussianLikelihoodModel().spec(), Dataset(z[:, None]), [0.0], start
    start = rng.standard_normal(3) * scale
    if model == "ridge-linear":
        return RidgeLinearModel(2).spec(), make_linear_data(n=n, seed=seed), [0.2], start
    spec = RidgeLogisticModel(2).spec()
    if model == "rowwise":
        batch = spec.phi_batch
        spec = ModelSpec(p=3, q=1, phi_batch=rowwise(lambda z, th, lm: batch(z[None], th, lm)[0]))
    return spec, make_logistic_data(n=n, seed=seed), [0.01], start


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ridge-linear", "ridge-logistic", "gaussian", "rowwise"]),
       st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=10, max_value=80),
       st.floats(min_value=0.0, max_value=10.0))
def test_solve_result_phi_is_phi_at_root(model, seed, n, scale):
    # the kept per-row phi of the accepted iterate is the phi a consumer
    # would evaluate at the root, from a start that takes Newton steps (and
    # halvings, far from the root) and from the root itself (iteration 0)
    spec, data, lam, start = _root_phi_case(model, seed, n, scale)
    tol = default_tol(start)
    try:
        res = _newton(spec, data.rows, lam, start, tol)
    except TunevarError:
        return
    at_root = slot_values(spec, "phi_batch", data.rows, res.theta_hat, res.lam)
    assert np.array_equal(res.Phi, at_root)
    again = _newton(spec, data.rows, lam, res.theta_hat, tol)
    assert again.iterations == 0
    assert np.array_equal(again.Phi, at_root)


def test_solve_result_phi_after_halvings():
    # a far start: the solve makes one phi_jac_sum call per iteration and
    # one per halving, so more calls than iterations + 1 means halvings
    spec, data, lam, _ = _root_phi_case("ridge-logistic", 3, 80, 0.0)
    calls = []
    pair = spec.phi_jac_sum
    spec.phi_jac_sum = lambda *args: calls.append(1) or pair(*args)
    res = solve_theta(spec, data, lam, [10.0, 0.0, 0.0])
    assert len(calls) > res.iterations + 1
    assert np.array_equal(
        res.Phi, slot_values(spec, "phi_batch", data.rows, res.theta_hat, res.lam)
    )


def _cv_fast_case(model, seed, n, lam):
    """(spec, loss, data, solve) of a built-in model at lam, or None where
    Newton fails; the Gaussian starts from the sample moments."""
    if model == "ridge-linear":
        m = RidgeLinearModel(2)
        spec, loss, data = m.spec(), m.squared_error_loss(), make_linear_data(n=n, seed=seed)
        start = spec.theta_init
    elif model == "ridge-logistic":
        m = RidgeLogisticModel(2)
        spec, loss, data = m.spec(), m.brier_loss(), make_logistic_data(n=n, seed=seed)
        start = spec.theta_init
    else:
        m = GaussianLikelihoodModel()
        z = np.random.default_rng(seed).standard_normal(n) * 1.3 + 0.4
        spec, loss, data = m.spec(), m.neg_loglik_loss(), Dataset(z[:, None])
        start = [z.mean(), z.std()]
    try:
        return spec, loss, data, solve_theta(spec, data, [lam], start)
    except TunevarError:
        return None


CV_FAST_CASE = dict(
    model=st.sampled_from(["ridge-linear", "ridge-logistic", "gaussian"]),
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=10, max_value=400),
    lam=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=60, deadline=None)
@given(**CV_FAST_CASE)
# near-separated: theta_hat ~ (77, 306, -81), cond(J_hat) = 3.8e4; the rows
# differ by 1.1e-13 relative and CV_FAST by 3.1e-13 relative
@example(model="ridge-logistic", seed=1_852_671_414, n=10, lam=0.0)
def test_loocv_fast_matches_n_column_solve(model, seed, n, lam):
    # the influence steps from one checked inverse against the solve with n
    # right-hand sides that they replace, and CV_FAST on each. Both solve
    # J_hat backward stably, so each is within about p eps cond(J_hat) of
    # the exact rows; 1e-13 stays the bound where that is smaller. CV_FAST
    # moves by at most the loss's slope at the influence points times the
    # step's shift, |d psi_i / d theta|_1 |theta_i - theta_i'|_max.
    case = _cv_fast_case(model, seed, n, lam)
    if case is None:
        return
    spec, loss, data, solve = case
    want = np.linalg.solve(solve.J_hat, solve.Phi.T).T
    got = pinned_influences(solve)
    assert got.shape == want.shape == (n, spec.p)
    rel = max(1e-13, spec.p * np.finfo(float).eps * np.linalg.cond(solve.J_hat))
    shift = rel * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= shift
    thetas = solve.theta_hat - want / n
    cv_want = float(slot_values(loss, "psi_rowwise", data.rows, thetas).mean())
    cv = loocv_fast(spec, loss, data, [lam], solve=solve).value
    slope = np.mean([
        np.abs(slot_values(loss, "grad_psi_batch", data.rows[i:i + 1], thetas[i])).sum()
        for i in range(n)
    ])
    assert abs(cv - cv_want) <= max(1e-13 * abs(cv_want), slope * shift / n)


@settings(max_examples=30, deadline=None)
@given(**CV_FAST_CASE)
def test_loocv_fast_is_the_mean_of_psi_at_the_influence_points(model, seed, n, lam):
    # its average, psi's sum over n, is numpy's mean bit for bit
    case = _cv_fast_case(model, seed, n, lam)
    if case is None:
        return
    spec, loss, data, solve = case
    thetas = solve.theta_hat[None, :] - pinned_influences(solve) / n
    want = float(slot_values(loss, "psi_rowwise", data.rows, thetas).mean())
    assert loocv_fast(spec, loss, data, [lam], solve=solve).value == want


@given(hnp.arrays(np.float64, st.integers(min_value=0, max_value=8),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(np.array([1e200, -1e200]))  # overflows to inf in both
@example([3, 4])  # an integer list, converted to float
def test_default_tol_is_the_norm_formula_bitwise(x):
    with np.errstate(over="ignore"):  # both warn when x @ x overflows
        want = 1e-10 * (1.0 + float(np.linalg.norm(x)))
        got = default_tol(x)
    assert type(got) is float
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(gap=st.sampled_from([0.0, 1e-14, 1e-13]), **CV_FAST_CASE)
def test_loocv_fast_refuses_a_singular_j_hat(model, seed, n, lam, gap):
    # the inverse keeps the solve's check: a J_hat whose last column is its
    # first (singular) or within gap of it (cond above 1e12) is refused
    case = _cv_fast_case(model, seed, n, lam)
    if case is None:
        return
    spec, loss, data, solve = case
    J = solve.J_hat.copy()
    J[:, -1] = J[:, 0] * (1.0 + gap)
    bad = dataclasses.replace(solve, J_hat=J)
    with pytest.raises(SingularJacobian, match="J_hat condition number"):
        loocv_fast(spec, loss, data, [lam], solve=bad)


# ---------------------------------------------------------------------------
# Built-in model kernels against the formulas they replaced. Equality is
# exact (np.array_equal): the rewrites must not move a single output bit.
# ---------------------------------------------------------------------------

def _expit_ref(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _expit_where(t):
    # the np.where form that _expit replaced
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _design_ref(Z):
    return Z[:, 0], np.column_stack([np.ones(Z.shape[0]), Z[:, 1:]])


def _logistic_jac_ref(Z, th, lam, P):
    _, X = _design_ref(Z)
    w = _expit_ref(X @ th)
    w = w * (1.0 - w)
    return -np.einsum("n,ni,nj->nij", w, X, X) - 2.0 * lam * P


def _ridge_linear_phi_ref(Z, th, lam, P):
    y, X = _design_ref(Z)
    return -2.0 * X * (y - X @ th)[:, None] + 2.0 * lam * (P @ th)


def _logistic_phi_ref(Z, th, lam, P):
    y, X = _design_ref(Z)
    return X * (y - _expit_ref(X @ th))[:, None] - 2.0 * lam * (P @ th)


def _gaussian_phi_ref(Z, th):
    mu, sg = th
    r = Z[:, 0] - mu
    return np.column_stack([r / sg**2, -1.0 / sg + r**2 / sg**3])


def _gaussian_jac_ref(Z, th):
    mu, sg = th
    r = Z[:, 0] - mu
    out = np.empty((len(r), 2, 2))
    out[:, 0, 0] = -1.0 / sg**2
    out[:, 0, 1] = -2.0 * r / sg**3
    out[:, 1, 0] = -2.0 * r / sg**3
    out[:, 1, 1] = 1.0 / sg**2 - 3.0 * r**2 / sg**4
    return out


def _gaussian_loo_ref(Z, Th, rows):
    """(phi_loo_sum, jac_loo_sum) from the centred leave-one-out sums S1 of
    r and S2 of r^2 over the m = n - 1 rows other than rows[j]."""
    z = Z[:, 0]
    zbar = z.mean()
    d = z - zbar
    D1, D2 = d.sum(), d @ d
    di = d[rows]
    c = zbar - Th[:, 0]
    m = len(z) - 1
    S1 = (D1 - di) + m * c
    S2 = (D2 - di * di) + 2.0 * c * (D1 - di) + m * c * c
    sg = Th[:, 1]
    jac = np.empty((len(Th), 2, 2))
    jac[:, 0, 0] = -m / sg**2
    jac[:, 0, 1] = jac[:, 1, 0] = -2.0 * S1 / sg**3
    jac[:, 1, 1] = m / sg**2 - 3.0 * S2 / sg**4
    return np.column_stack([S1 / sg**2, -m / sg + S2 / sg**3]), jac


def _gaussian_nll_ref(Z, th):
    """(psi_batch, grad_psi_batch, hess_psi) of the Gaussian's neg_loglik_loss."""
    mu, sg = th
    r = Z[:, 0] - mu
    psi = np.log(sg) + r**2 / (2.0 * sg**2) + 0.5 * np.log(2.0 * np.pi)
    hess = np.empty((len(r), 2, 2))
    hess[:, 0, 0] = 1.0 / sg**2
    hess[:, 0, 1] = hess[:, 1, 0] = 2.0 * r / sg**3
    hess[:, 1, 1] = -1.0 / sg**2 + 3.0 * r**2 / sg**4
    return psi, np.column_stack([-r / sg**2, 1.0 / sg - r**2 / sg**3]), hess


def _ridge_linear_jac_ref(Z, th, lam, P):
    _, X = _design_ref(Z)
    return 2.0 * np.einsum("ni,nj->nij", X, X) + 2.0 * lam * P


def _ridge_loo_ref(model, Z, Th, rows, lam, P):
    """(phi_loo_sum, jac_loo_sum) of a ridge link; the ridge-logistic sums
    as one block of problems, which holds for k * n <= LOO_BLOCK."""
    y, X = _design(Z)
    n, p = X.shape
    if model == "ridge-linear":
        Xi = X[rows]
        jac = 2.0 * (X.T @ X - Xi[:, :, None] * Xi[:, None, :]) + 2.0 * (n - 1) * lam * P
        b = X.T @ y - X[rows] * y[rows, None]
        return np.matmul(jac, Th[:, :, None])[:, :, 0] - 2.0 * b, jac
    Pi = _expit_ref(np.matmul(X, Th[:, :, None])[:, :, 0])
    own = (np.arange(len(Th)), rows)
    R = y - Pi
    phi = R @ X - R[own][:, None] * X[rows] - 2.0 * (n - 1) * lam * (Th @ P)
    W = Pi * (1.0 - Pi)
    XX = X[:, :, None] * X[:, None, :]
    jac = (W[own][:, None, None] * XX[rows] - (W @ XX.reshape(n, p * p)).reshape(-1, p, p)
           - 2.0 * (n - 1) * lam * P)
    return phi, jac


EXPIT_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 745.5, -745.5, 746.0, -746.0,
                        1e4, -1e4, 1e-320, -1e-320, np.nan])


@given(hnp.arrays(np.float64, st.integers(min_value=0, max_value=200),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_expit_matches_reference_bitwise(t):
    # a vector (phi_batch's X @ theta) and a (k, n) block (the leave-one-out
    # kernels' x_m' Th[j]); t is only read
    t = np.concatenate([t, EXPIT_EDGES])
    for arg in (t, np.stack([t, -t, t[::-1]])):
        before = arg.copy()
        got = _expit(arg)
        assert got.shape == arg.shape
        assert np.array_equal(got, _expit_ref(arg), equal_nan=True)
        # every bit of the np.where form, signs of zero and NaN included
        assert np.array_equal(got.view(np.int64), _expit_where(arg).view(np.int64))
        assert np.array_equal(arg.view(np.int64), before.view(np.int64))


@st.composite
def _stacks(draw):
    """An (n, p), (n, p, p) or (n, p, q) array of any floats, sides 1 to 12:
    every 2-d and 3-d shape, with the square Jacobian shape drawn often."""
    n, p, q = (draw(st.integers(min_value=1, max_value=12)) for _ in range(3))
    shape = draw(st.sampled_from([(n, p), (n, p, p), (n, p, q)]))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats()))


@given(_stacks())
def test_row_mean_is_numpy_mean_bitwise(A):
    # sum / n is numpy's mean, overflow, infinities and NaN included, and
    # slot_values passes each finite stack on unchanged and refuses a
    # non-finite one: A as an (n, p) phi or an (n, p, q) lambda-Jacobian.
    # When square, A as an (n, p, p) theta-Jacobian passes non-finite too,
    # and its fallback sum (the S of phi_jac_sum) over the row count is the mean
    n, p = A.shape[:2]
    q = A.shape[2] if A.ndim == 3 else 1
    Z = np.zeros((n, 1))

    def stack(Z, th, lm):
        return A

    spec = ModelSpec(p=p, q=q, phi_batch=stack, dphi_dtheta_batch=stack,
                     dphi_dlambda_batch=stack)
    th, lm = np.zeros(p), np.zeros(q)
    with np.errstate(over="ignore", invalid="ignore"):
        want = A.mean(axis=0)
        assert np.array_equal(row_mean(A), want, equal_nan=True)
        slot = "phi_batch" if A.ndim == 2 else "dphi_dlambda_batch"
        if np.all(np.isfinite(A)):
            assert np.array_equal(row_mean(slot_values(spec, slot, Z, th, lm)), want)
        else:
            with pytest.raises(EvaluationError, match=f"{slot} produced non-finite"):
                slot_values(spec, slot, Z, th, lm)
        if A.ndim == 3 and q == p:
            # the fallback pair's F is phi_batch, which must be (n, p)
            spec = dataclasses.replace(spec, phi_batch=lambda Z, th, lm: np.zeros((n, p)))
            got = slot_values(spec, "phi_jac_sum", Z, th, lm)[1] / n
            assert np.array_equal(got, want, equal_nan=True)


ROW_SUM_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def _row_sum_cases(draw):
    """A float64 array of 0 to 3000 rows, each a scalar, width 1, (p,),
    (p, q) or (p, p, p), in C order, F order, every other row, rows
    reversed or the first two axes swapped, with entries of many scales
    and some of +-0, +-inf and NaN."""
    n = draw(st.integers(min_value=0, max_value=3000))
    p, q = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    trailing = draw(st.sampled_from([(), (1,), (p,), (p, q), (min(p, 4),) * 3]))
    layout = draw(st.sampled_from(["C", "F", "every-other", "reversed", "swapped"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 * n if layout == "every-other" else n,) + trailing
    if layout == "swapped" and trailing:
        shape = (trailing[0], n) + trailing[1:]
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    flat = A.reshape(-1)
    for value in draw(st.lists(st.sampled_from(ROW_SUM_SPECIALS), max_size=6)):
        if flat.size:
            flat[rng.integers(flat.size)] = value
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "every-other":
        return A[::2]
    if layout == "reversed":
        return A[::-1]
    if layout == "swapped" and trailing:
        return np.swapaxes(A, 0, 1)
    return A


@given(_row_sum_cases())
@example(np.full((5, 3), -0.0))
@example(np.array([[np.inf, 1.0], [-np.inf, 2.0]]))
def test_row_sum_is_numpy_sum_bitwise(A):
    # einsum for C-ordered rows of more than one entry, numpy's sum for the
    # rest: the same values, and the same sign bits wherever there is no NaN
    with np.errstate(over="ignore", invalid="ignore"):
        want, got = np.asarray(A.sum(axis=0)), np.asarray(row_sum(A))
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    kept = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[kept]), np.signbit(want[kept]))


def _f_ordered_phi(spec):
    """spec with a phi_jac_sum whose F is F-ordered, which numpy sums pairwise."""
    def phi_jac_sum(Z, th, lm):
        F, S = spec.phi_jac_sum(Z, th, lm)
        return np.asfortranarray(F), S

    return dataclasses.replace(spec, phi_jac_sum=phi_jac_sum)


@pytest.mark.parametrize("case", ["f-ordered-phi", "one-entry-rows"])
def test_newton_root_is_the_numpy_sum_root_bitwise(case, monkeypatch):
    # the two layouts that row_sum hands to numpy's sum: an F-ordered F from
    # a custom slot, and the (n, 1) F of a p = 1 model (the intercept-only
    # fit); each root equals, bit for bit, the root of _newton with numpy's
    # sum, the formula of its residual before row_sum. At tol 1e-6 the
    # solve stops while its iterate and residual still carry the rounding
    # of each sum; at the default tolerance both layouts reach the same
    # root with einsum too
    data = make_logistic_data(n=300, seed=3)
    if case == "f-ordered-phi":
        spec, Z = _f_ordered_phi(RidgeLogisticModel(2).spec()), data.rows
    else:
        spec, Z = RidgeLogisticModel(0).spec(), data.rows[:, :1]
    lam = np.array([0.1])

    def root():
        return _newton(spec, Z, lam, spec.theta_init, 1e-6)

    got = root()
    monkeypatch.setattr(solver, "row_sum", lambda A: A.sum(axis=0))
    want = root()
    assert got.iterations == want.iterations > 1
    assert got.residual_norm == want.residual_norm
    for field in ("theta_hat", "lam", "J_hat", "Phi"):
        assert np.array_equal(getattr(got, field).view(np.int64),
                              getattr(want, field).view(np.int64))


def _rows(seed, n, d, scale):
    return np.random.default_rng(seed).standard_normal((n, d)) * scale


KERNEL_CASE = dict(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=60),
    p=st.integers(min_value=2, max_value=8),
    scale=st.floats(min_value=0.01, max_value=100.0),
)
LAMS = st.floats(min_value=0.0, max_value=1.0)


@given(**KERNEL_CASE)
def test_design_matches_reference_bitwise(seed, n, p, scale):
    Z = _rows(seed, n, p, scale)
    for got, want in zip(_design(Z), _design_ref(Z)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@given(order=st.sampled_from("CF"), **KERNEL_CASE)
def test_design_is_a_fresh_c_ordered_copy(seed, n, p, scale, order):
    # values alone would not show a copy that keeps an F-ordered Z's layout
    # (numpy's order="K"), which changes the BLAS path of X @ theta
    Z = np.asarray(_rows(seed, n, p, scale), order=order)
    before = Z.copy(order="K")
    y, X = _design(Z)
    assert X.dtype == np.float64 and X.flags.c_contiguous and X.flags.owndata
    assert not np.shares_memory(X, Z)
    assert np.array_equal(Z, before) and Z.flags.f_contiguous == before.flags.f_contiguous
    assert np.array_equal(y, Z[:, 0])


@given(lam=LAMS, **KERNEL_CASE)
def test_logistic_jacobian_matches_reference_bitwise(seed, n, p, lam, scale):
    # scale reaches linear predictors far into both tails of expit
    Z = _rows(seed, n, p, 1.0)
    Z[:, 0] = Z[:, 0] > 0
    th = np.random.default_rng(seed + 1).standard_normal(p) * scale
    spec = RidgeLogisticModel(p - 1).spec()
    got = spec.dphi_dtheta_batch(Z, th, np.array([lam]))
    want = _logistic_jac_ref(Z, th, lam, np.diag(default_penalty_mask(p)))
    assert np.array_equal(got, want)
    assert np.array_equal(got.mean(axis=0), want.mean(axis=0))


@given(lam=LAMS, **KERNEL_CASE)
def test_gaussian_phi_matches_reference_bitwise(seed, n, p, lam, scale):
    Z = _rows(seed, n, p, scale)  # the model reads column 0 only
    rng = np.random.default_rng(seed + 1)
    th = np.array([rng.standard_normal() * scale, rng.uniform(1e-3, 10.0)])
    got = GaussianLikelihoodModel().spec().phi_batch(Z, th, np.array([lam]))
    assert np.array_equal(got, _gaussian_phi_ref(Z, th))


@given(lam=LAMS, **KERNEL_CASE)
def test_ridge_phis_match_reference_bitwise(seed, n, p, lam, scale):
    Z = _rows(seed, n, p, 1.0)
    th = np.random.default_rng(seed + 1).standard_normal(p) * scale
    P = np.diag(default_penalty_mask(p))
    got = RidgeLinearModel(p - 1).spec().phi_batch(Z, th, np.array([lam]))
    assert np.array_equal(got, _ridge_linear_phi_ref(Z, th, lam, P))
    Z[:, 0] = Z[:, 0] > 0
    got = RidgeLogisticModel(p - 1).spec().phi_batch(Z, th, np.array([lam]))
    assert np.array_equal(got, _logistic_phi_ref(Z, th, lam, P))


def _theta_stack(model, seed, k, p, scale, center):
    """(k, p) thetas around center; Gaussian sigmas span 1e-6 (the domain
    floor) to 1e3."""
    rng = np.random.default_rng(seed + 2)
    Th = rng.standard_normal((k, p)) * scale
    if model == "gaussian":
        Th[:, 0] += center
        Th[:, 1] = 10.0 ** rng.uniform(-6.0, 3.0, k)
        Th[0, 1] = 1e-6
    return Th


# Tolerance of a leave-one-out sum kernel against its fallback, relative to
# the sum of |phi| (|d phi / d theta| for the Jacobian) over all n rows and
# every component at the same theta, plus the smallest normal float: below
# it (ridge-logistic weights far in expit's tails) rounding is absolute.
LOO_SUM_RTOL = 1e-13
LOO_SUM_ATOL = np.finfo(float).tiny


# The sum-kernel cases: p = 1 is an intercept-only ridge; far puts the
# Gaussian data's mean at 1e4, where uncentred sums lose digits.
SUM_KERNEL_MODELS = ["ridge-linear", "ridge-logistic", "gaussian"]
SUM_KERNEL_CASE = dict(lam=LAMS, far=st.booleans(),
                       **{**KERNEL_CASE, "p": st.integers(min_value=1, max_value=8)})


def _sum_kernel_case(model, seed, n, p, scale, far):
    """(spec, Z, center): a built-in spec, its rows, and the Gaussian data's
    mean for far (else 0)."""
    Z = _rows(seed, n, p, scale)
    center = 0.0
    if model == "ridge-linear":
        spec = RidgeLinearModel(p - 1).spec()
    elif model == "ridge-logistic":
        spec = RidgeLogisticModel(p - 1).spec()
        Z[:, 0] = Z[:, 0] > 0
    else:
        spec = GaussianLikelihoodModel().spec()
        if far:
            Z[:, 0] += 1e4
            center = Z[:, 0].mean()
    return spec, Z, center


@pytest.mark.parametrize("k", [1, 9])
@pytest.mark.parametrize("model", SUM_KERNEL_MODELS)
@settings(deadline=None)
@given(**SUM_KERNEL_CASE)
def test_loo_sum_kernels_match_fallback(model, k, seed, n, p, lam, scale, far):
    # solve_loo_all reads leave-one-out residuals and Jacobians from
    # phi_loo_sum and jac_loo_sum; each built-in kernel sums from sufficient
    # statistics and must agree with the fallback, which sums phi_batch
    # (dphi_dtheta_batch) over all rows and subtracts the problem's own row
    spec, Z, center = _sum_kernel_case(model, seed, n, p, scale, far)
    Th = _theta_stack(model, seed, k, spec.p, scale, center)
    rows = np.random.default_rng(seed + 3).integers(0, n, k)
    lm = np.array([lam])
    fallback = dataclasses.replace(spec, phi_loo_sum=None, jac_loo_sum=None)
    for slot, per_row in (("phi_loo_sum", spec.phi_batch),
                          ("jac_loo_sum", spec.dphi_dtheta_batch)):
        got = getattr(spec, slot)(Z, Th, rows, lm)
        want = getattr(fallback, slot)(Z, Th, rows, lm)
        assert got.shape == want.shape == (k,) + (spec.p,) * (1 if slot == "phi_loo_sum" else 2)
        scale_j = np.array([np.abs(per_row(Z, th, lm)).sum() for th in Th])
        err = np.abs(got - want).reshape(k, -1).max(axis=1)
        assert np.all(err <= LOO_SUM_RTOL * scale_j + LOO_SUM_ATOL), (slot, err, scale_j)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=300, max_value=700).filter(lambda n: LOO_BLOCK % n),
       extra=st.floats(min_value=0.0, max_value=1.0),
       seed=KERNEL_CASE["seed"], p=SUM_KERNEL_CASE["p"], lam=LAMS, scale=KERNEL_CASE["scale"])
def test_ridge_logistic_loo_sums_across_blocks(seed, n, p, lam, scale, extra):
    # the ridge-logistic sums take max(1, LOO_BLOCK // n) problems per block;
    # k spans two full blocks and part of a third, and each problem's sum
    # must agree with the fallback and with the kernel called on it alone
    block = LOO_BLOCK // n
    k = 2 * block + 1 + int(extra * (block - 1))
    spec, Z, center = _sum_kernel_case("ridge-logistic", seed, n, p, scale, False)
    Th = _theta_stack("ridge-logistic", seed, k, spec.p, scale, center)
    rows = np.random.default_rng(seed + 3).integers(0, n, k)
    lm = np.array([lam])
    fallback = dataclasses.replace(spec, phi_loo_sum=None, jac_loo_sum=None)
    for slot, per_row in (("phi_loo_sum", spec.phi_batch),
                          ("jac_loo_sum", spec.dphi_dtheta_batch)):
        got = getattr(spec, slot)(Z, Th, rows, lm)
        alone = np.concatenate([getattr(spec, slot)(Z, Th[j:j + 1], rows[j:j + 1], lm)
                                for j in range(k)])
        want = getattr(fallback, slot)(Z, Th, rows, lm)
        scale_j = np.array([np.abs(per_row(Z, th, lm)).sum() for th in Th])
        for other in (want, alone):
            assert got.shape == other.shape
            err = np.abs(got - other).reshape(k, -1).max(axis=1)
            assert np.all(err <= LOO_SUM_RTOL * scale_j + LOO_SUM_ATOL), (slot, err, scale_j)


def _jac_theta_sum_ref(model, Z, th, lam):
    """The theta-Jacobian sum of each built-in as its own (p, p) kernel
    computed it before phi_jac_sum shared phi's intermediates."""
    if model == "gaussian":
        mu, sg = th
        r = Z[:, 0] - mu
        n = Z.shape[0]
        off = -2.0 * r.sum() / sg**3
        return np.array([[-n / sg**2, off], [off, n / sg**2 - 3.0 * (r @ r) / sg**4]])
    _, X = _design(Z)
    P = np.diag(default_penalty_mask(X.shape[1]))
    if model == "ridge-linear":
        return 2.0 * (X.T @ X) + 2.0 * len(X) * float(lam[0]) * P
    w = _expit(X @ th)
    w = w * (1.0 - w)
    return -(X.T @ (w[:, None] * X)) - 2.0 * len(X) * float(lam[0]) * P


@pytest.mark.parametrize("model", SUM_KERNEL_MODELS)
@settings(deadline=None)
@given(**SUM_KERNEL_CASE)
def test_jac_theta_sum_kernels_match_fallback(model, seed, n, p, lam, scale, far):
    # the Newton solve's Jacobian mean is S / n for the pair (F, S) of
    # phi_jac_sum. Each built-in kernel sums S in one matrix product or from
    # sums of r and r^2, and must agree with the fallback, which sums
    # dphi_dtheta_batch over the rows; its F is phi_batch and its S the
    # former jac_theta_sum kernel, bit for bit
    spec, Z, center = _sum_kernel_case(model, seed, n, p, scale, far)
    lm = np.array([lam])
    fallback = dataclasses.replace(spec, phi_jac_sum=None)
    for th in _theta_stack(model, seed, 9, spec.p, scale, center):
        F, got = spec.phi_jac_sum(Z, th, lm)
        F_fallback, want = fallback.phi_jac_sum(Z, th, lm)
        assert np.array_equal(F, spec.phi_batch(Z, th, lm))
        assert np.array_equal(F_fallback, F)
        assert np.array_equal(got, _jac_theta_sum_ref(model, Z, th, lm))
        assert got.shape == want.shape == (spec.p, spec.p)
        scale_th = np.abs(spec.dphi_dtheta_batch(Z, th, lm)).sum()
        err = np.abs(got - want).max()
        assert err <= LOO_SUM_RTOL * scale_th + LOO_SUM_ATOL, (th, err, scale_th)


@settings(deadline=None)
@given(**SUM_KERNEL_CASE)
def test_gaussian_slots_match_reference_bitwise(seed, n, p, lam, scale, far):
    # every Gaussian model and loss slot built from the score and its
    # Jacobian; phi_batch and phi_jac_sum are pinned by the tests above.
    # hess_psi runs in no CLI or benchmark traffic (lambda is inert, so a
    # Gaussian tune ends on the box edge and never assembles V1)
    g = GaussianLikelihoodModel()
    spec, loss = g.spec(), g.neg_loglik_loss()
    _, Z, center = _sum_kernel_case("gaussian", seed, n, p, scale, far)
    Th = _theta_stack("gaussian", seed, 9, 2, scale, center)
    rows = np.random.default_rng(seed + 3).integers(0, n, len(Th))
    lm = np.array([lam])
    phi_ref, jac_ref = _gaussian_loo_ref(Z, Th, rows)
    assert np.array_equal(spec.phi_loo_sum(Z, Th, rows, lm), phi_ref)
    assert np.array_equal(spec.jac_loo_sum(Z, Th, rows, lm), jac_ref)
    for th in Th[:3]:
        assert np.array_equal(spec.dphi_dtheta_batch(Z, th, lm), _gaussian_jac_ref(Z, th))
        psi, grad, hess = _gaussian_nll_ref(Z, th)
        assert np.array_equal(loss.psi_batch(Z, th), psi)
        assert np.array_equal(loss.grad_psi_batch(Z, th), grad)
        assert np.array_equal(loss.hess_psi(Z, th), hess)
    r, sg = Z[rows, 0] - Th[:, 0], Th[:, 1]
    psi = np.log(sg) + r**2 / (2.0 * sg**2) + 0.5 * np.log(2.0 * np.pi)
    assert np.array_equal(loss.psi_rowwise(Z[rows], Th), psi)


@pytest.mark.parametrize("model", ["ridge-linear", "ridge-logistic"])
@settings(deadline=None)
@given(**SUM_KERNEL_CASE)
def test_ridge_slots_match_reference_bitwise(model, seed, n, p, lam, scale, far):
    # the slots that carry the penalty PENALTY * lam * P beta; phi_batch and
    # phi_jac_sum are pinned by the tests above, and 9 problems of n <= 60
    # rows make one block of the ridge-logistic sums
    spec, Z, _ = _sum_kernel_case(model, seed, n, p, scale, far)
    Th = _theta_stack(model, seed, 9, p, scale, 0.0)
    rows = np.random.default_rng(seed + 3).integers(0, n, len(Th))
    lm = np.array([lam])
    P = np.diag(default_penalty_mask(p))
    phi_ref, jac_ref = _ridge_loo_ref(model, Z, Th, rows, lam, P)
    assert np.array_equal(spec.phi_loo_sum(Z, Th, rows, lm), phi_ref)
    assert np.array_equal(spec.jac_loo_sum(Z, Th, rows, lm), jac_ref)
    jac_row_ref = _ridge_linear_jac_ref if model == "ridge-linear" else _logistic_jac_ref
    for th in Th[:3]:
        assert np.array_equal(spec.dphi_dtheta_batch(Z, th, lm), jac_row_ref(Z, th, lam, P))


@given(lam=LAMS, **KERNEL_CASE)
def test_phi_jac_sum_fallback_of_a_rowwise_spec_is_exact(seed, n, p, lam, scale):
    # a spec without phi_jac_sum gets the pair (phi_batch, the sum over the
    # rows of dphi_dtheta_batch), to the last bit, here with a
    # finite-difference dphi_dtheta_batch of a per-row phi
    def phi(z, th, lm):
        return np.tanh(th * z[:1]) + float(lm[0]) * th**3 - z

    Z = _rows(seed, n, p, 1.0)
    th = np.random.default_rng(seed + 1).standard_normal(p) * scale
    lm = np.array([lam])
    spec = ModelSpec(p=p, q=1, phi_batch=rowwise(phi))
    F, S = slot_values(spec, "phi_jac_sum", Z, th, lm)
    assert np.array_equal(F, spec.phi_batch(Z, th, lm))
    assert np.array_equal(S, spec.dphi_dtheta_batch(Z, th, lm).sum(axis=0))


def _conditioned_stack(seed, m, p, singular):
    """(m, p, p) matrices with condition numbers 10^U(0, 16); with singular,
    some are exactly singular (a zero row, two equal rows, all zeros)."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, p, p)))[0]
    V = np.linalg.qr(rng.standard_normal((m, p, p)))[0]
    s = 10.0 ** -(rng.uniform(0.0, 16.0, (m, 1)) * np.linspace(0.0, 1.0, p))
    A = (U * s[:, None, :]) @ V.transpose(0, 2, 1) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1, 1))
    if singular:
        A[0, -1] = 0.0
        A[1, 0] = A[1, -1]
        A[2] = 0.0
    return A


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), p=st.integers(min_value=1, max_value=30),
       singular=st.booleans())
def test_well_conditioned_matches_svd_test(seed, p, singular):
    # 300 matrices per example, 30,000 over hypothesis's default 100
    # examples; from p = 18 on only the (p-1)^((p-1)/2) factor lets the
    # screen clear a matrix
    A = _conditioned_stack(seed, 300, p, singular)
    cond = np.linalg.cond(A)
    assert np.array_equal(well_conditioned(A), np.isfinite(cond) & (cond <= COND_LIMIT))


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), p=st.integers(min_value=1, max_value=8),
       singular=st.booleans())
def test_checked_solve_matches_svd_test(seed, p, singular):
    # one matrix at a time: the screened check raises exactly where the SVD
    # test fails, with its message, and otherwise solves and inverts as
    # np.linalg.solve does, bit for bit. Three matrices get a NaN, an inf
    # and a -inf entry at a random place: those raise "non-finite entries",
    # whatever np.linalg.inv made of them
    A = _conditioned_stack(seed, 40, p, singular)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((40, p))
    bad = [3, 4, 5]
    for j, v in zip(bad, (np.nan, np.inf, -np.inf)):
        A[j, rng.integers(p), rng.integers(p)] = v
    cond = np.full(40, np.nan)
    good = np.setdiff1d(np.arange(40), bad)
    cond[good] = np.linalg.cond(A[good])
    for j, (M, b, c) in enumerate(zip(A, rhs, cond)):
        if j in bad:
            for check in (lambda: checked_solve(M, b, "A"), lambda: checked_inv(M, "A")):
                with pytest.raises(SingularJacobian, match="^A has non-finite entries$"):
                    check()
        elif np.isfinite(c) and c <= COND_LIMIT:
            assert np.array_equal(checked_solve(M, b, "A"), np.linalg.solve(M, b))
            assert np.array_equal(checked_inv(M, "A"), np.linalg.solve(M, np.eye(p)))
        else:
            for check in (lambda: checked_solve(M, b, "A"), lambda: checked_inv(M, "A")):
                with pytest.raises(SingularJacobian) as err:
                    check()
                assert str(err.value) == f"A condition number {c:.3e} exceeds 1e12"


# a few distinct values make ties within and across the two samples
KS_SAMPLES = st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0])
                      | st.floats(-1e3, 1e3), min_size=1, max_size=80)


@settings(deadline=None)
@given(a=KS_SAMPLES, b=KS_SAMPLES)
def test_ks_statistic_matches_scipy_bitwise(a, b):
    # scipy's exact method (both samples <= 10000 draws) rounds the statistic
    # to a multiple of 1 / lcm(n_a, n_b); its asymptotic method, the one
    # mixture_law_check's N_MIXTURE draws take, keeps the ECDF difference
    stats = pytest.importorskip("scipy.stats")
    with np.errstate(divide="ignore"):  # scipy's p-value for two 1-draw samples
        want = stats.ks_2samp(a, b, method="asymp").statistic
    assert np.array_equal(_ks_statistic(np.array(a), np.array(b)), want)


def test_ks_statistic_matches_scipy_at_mixture_size():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    mixture = rng.standard_normal(N_MIXTURE)
    tied = np.round(mixture, 1)  # ties within and across the samples
    for a, b in ((rng.standard_normal(1), mixture), (rng.standard_normal(7) + 0.1, mixture),
                 (np.round(1.2 * rng.standard_normal(500), 1), tied)):
        assert np.array_equal(_ks_statistic(a, b), stats.ks_2samp(a, b).statistic)
        assert np.array_equal(_ks_statistic(b, a), stats.ks_2samp(b, a).statistic)


@pytest.mark.parametrize("a, b", [([0.3, np.nan, -1.0], [0.1, 2.0]), ([0.1, 2.0], [np.nan])])
def test_ks_statistic_propagates_nan(a, b):
    stats = pytest.importorskip("scipy.stats")
    assert np.isnan(stats.ks_2samp(a, b).statistic)
    assert np.isnan(_ks_statistic(np.array(a), np.array(b)))
