import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tunevar import (
    GaussianLikelihoodModel, RefitFailure, RidgeLinearModel, RidgeLogisticModel, TunevarError,
    loocv_exact, solve_loo, solve_loo_all, solve_theta, training_error,
)
from tunevar.model import Dataset
from tunevar.models import _design, _expit, default_penalty_mask
from tunevar.rng import SplitMix64, derive_stream, fisher_yates_permutation, splitmix64

from conftest import make_logistic_data

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
    t1 = training_error(spec, loss, data, [0.2]).value
    t2 = training_error(spec, loss, shuffled, [0.2]).value
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
    from tunevar.model import phi_matrix

    res = solve_theta(spec, data, [lam], np.zeros(3))
    from tunevar.model import jac_theta_mean

    J = -jac_theta_mean(spec, data.rows, res.theta_hat, res.lam)
    phis = phi_matrix(spec, data.rows, res.theta_hat, res.lam)
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


EXPIT_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 745.5, -745.5, 746.0, -746.0,
                        1e4, -1e4, 1e-320, -1e-320])


@given(hnp.arrays(np.float64, st.integers(min_value=0, max_value=200),
                  elements=st.floats(allow_nan=False, allow_infinity=True)))
def test_expit_matches_reference_bitwise(t):
    t = np.concatenate([t, EXPIT_EDGES])
    assert np.array_equal(_expit(t), _expit_ref(t))


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


def _theta_stack(model, seed, k, p, scale):
    """(k, p) thetas; Gaussian sigmas span 1e-6 (the domain floor) to 1e3."""
    rng = np.random.default_rng(seed + 2)
    Th = rng.standard_normal((k, p)) * scale
    if model == "gaussian":
        Th[:, 1] = 10.0 ** rng.uniform(-6.0, 3.0, k)
        Th[0, 1] = 1e-6
    return Th


@pytest.mark.parametrize("k", [1, 9])
@pytest.mark.parametrize("model", ["ridge-linear", "ridge-logistic", "gaussian"])
@settings(deadline=None)
@given(lam=LAMS, **{**KERNEL_CASE, "p": st.integers(min_value=1, max_value=8)})
def test_phi_thetas_slices_match_phi_batch_bitwise(model, k, seed, n, p, lam, scale):
    # solve_loo_all reads leave-one-out residuals from phi_thetas; each slice
    # must be phi_batch at the same theta to the last bit (p = 1 is an
    # intercept-only ridge)
    Z = _rows(seed, n, p, scale)
    if model == "ridge-linear":
        spec = RidgeLinearModel(p - 1).spec()
    elif model == "ridge-logistic":
        spec = RidgeLogisticModel(p - 1).spec()
        Z[:, 0] = Z[:, 0] > 0
    else:
        spec = GaussianLikelihoodModel().spec()
    Th = _theta_stack(model, seed, k, spec.p, scale)
    lm = np.array([lam])
    F = spec.phi_thetas(Z, Th, lm)
    assert F.shape == (k, n, spec.p)
    for j in range(k):
        assert np.array_equal(F[j], spec.phi_batch(Z, Th[j], lm))
    # the sum over rows adds them in the order phi_batch(...).sum(axis=0) does
    assert np.array_equal(F.sum(axis=1), [spec.phi_batch(Z, th, lm).sum(axis=0) for th in Th])
