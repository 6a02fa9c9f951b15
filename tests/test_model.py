import dataclasses
import functools
import re

import numpy as np
import pytest

from tunevar import (
    Dataset, EvaluationError, GaussianLikelihoodModel, HybridModel, LossSpec, Method, ModelSpec,
    CriterionFailure, RidgeLinearModel, RidgeLogisticModel, TunevarError, loocv_exact, rowwise,
    select_variance, solve_theta, theta_prime, tune, variance_alpha,
)
from tunevar import solver
from tunevar.model import SLOT_SHAPES, row_mean, slot_values

from conftest import make_linear_data, make_logistic_data, root_at


def test_dataset_validation():
    with pytest.raises(EvaluationError):
        Dataset(np.array([1.0, 2.0]))  # 1-d
    with pytest.raises(EvaluationError):
        Dataset(np.array([[1.0, 2.0]]))  # n = 1
    with pytest.raises(EvaluationError):
        Dataset(np.array([[1.0], [np.nan]]))
    d = Dataset(np.arange(6.0).reshape(3, 2))
    assert d.n == 3 and d.d == 2
    assert d.take([0, 2]).n == 2
    assert np.array_equal(d.take([2, 0]).rows, d.rows[[2, 0]])


def _toy_model():
    # phi(z, th, lm) = th - z + lm[0] * th^3 elementwise, p = 2
    def phi(z, th, lm):
        return th - np.asarray(z, float) + float(lm[0]) * th**3

    return ModelSpec(p=2, q=1, phi_batch=rowwise(phi))


def test_derivative_fallbacks_populated_and_accurate():
    m = _toy_model()
    Z = np.array([[0.3, -0.7], [1.1, 0.2], [-0.4, 0.9]])
    th = np.array([0.5, 1.2])
    lm = np.array([0.4])
    J = m.dphi_dtheta_batch(Z, th, lm)
    assert J.shape == (3, 2, 2)
    assert np.allclose(J, np.diag(1.0 + 3 * 0.4 * th**2), rtol=1e-6)
    L = m.dphi_dlambda_batch(Z, th, lm)
    assert L.shape == (3, 2, 1)
    assert np.allclose(L[..., 0], th**3, rtol=1e-6)
    H = m.hess_phi_theta(Z, th, lm)
    assert H.shape == (3, 2, 2, 2)
    assert np.allclose(H[:, 0], np.diag([6 * 0.4 * th[0], 0.0]), atol=1e-3)
    assert np.allclose(H[:, 1], np.diag([0.0, 6 * 0.4 * th[1]]), atol=1e-3)
    X = m.dphi_dlambda_dtheta(Z, th, lm)
    assert X.shape == (3, 1, 2, 2)
    assert np.allclose(X[:, 0], np.diag(3 * th**2), rtol=1e-4, atol=1e-5)
    # the batch fallbacks equal differencing each row on its own
    for i, z in enumerate(Z):
        one = m.dphi_dtheta_batch(z[None], th, lm)[0]
        assert np.array_equal(J[i], one)
        assert np.array_equal(H[i], m.hess_phi_theta(z[None], th, lm)[0])


def test_slot_values_rejects_bad_phi_output():
    Z = np.array([[1.0], [2.0]])
    bad = ModelSpec(p=2, q=1, phi_batch=rowwise(lambda z, th, lm: np.array([np.nan, 0.0])))
    with pytest.raises(EvaluationError, match=r"phi_batch produced non-finite values"):
        slot_values(bad, "phi_batch", Z, np.zeros(2), np.zeros(1))
    short = ModelSpec(p=3, q=1, phi_batch=rowwise(lambda z, th, lm: np.zeros(2)))
    with pytest.raises(EvaluationError, match=r"phi_batch returned shape \(2, 2\)"):
        slot_values(short, "phi_batch", Z, np.zeros(3), np.zeros(1))


def test_domain_boxes():
    m = ModelSpec(
        p=2, q=1, phi_batch=rowwise(lambda z, th, lm: th),
        theta_domain=np.array([[-1.0, 1.0], [0.0, 2.0]]),
    )
    assert m.theta_in_domain(np.array([0.5, 1.0]))
    assert not m.theta_in_domain(np.array([2.0, 1.0]))
    assert np.allclose(m.clip_theta(np.array([5.0, -1.0])), [1.0, 0.0])
    # an inverted box is an input error
    with pytest.raises(ValueError):
        ModelSpec(p=1, q=1, phi_batch=rowwise(lambda z, th, lm: th),
                  theta_domain=np.array([[1.0, -1.0]]))


@pytest.mark.parametrize("theta_domain", [None, np.array([[-1.0, 1.0], [0.0, 2.0]])])
def test_theta_in_domain_stack_matches_rows(theta_domain):
    m = ModelSpec(p=2, q=1, phi_batch=rowwise(lambda z, th, lm: th), theta_domain=theta_domain)
    stack = np.array([[0.5, 1.0], [2.0, 1.0], [-1.0, 2.0], [0.0, -0.1], [np.nan, 1.0]])
    inside = m.theta_in_domain(stack)
    assert inside.shape == (5,) and inside.dtype == bool
    assert inside.tolist() == [m.theta_in_domain(th) for th in stack]
    if theta_domain is None:
        assert inside.all()
    else:
        assert inside.tolist() == [True, False, True, False, False]


def test_batched_helpers_match_row_loops():
    m = _toy_model()
    Z = np.random.default_rng(0).standard_normal((7, 2))
    th = np.array([0.2, -0.4])
    lm = np.array([0.3])
    P = slot_values(m, "phi_batch", Z, th, lm)
    assert P.shape == (7, 2)
    assert np.allclose(row_mean(P), P.mean(axis=0))
    assert np.allclose(
        slot_values(m, "phi_jac_sum", Z, th, lm)[1] / len(Z),
        np.diag(1.0 + 3 * 0.3 * th**2), rtol=1e-6,
    )
    assert row_mean(slot_values(m, "dphi_dlambda_batch", Z, th, lm)).shape == (2, 1)


def test_loss_fallbacks_and_rowwise():
    loss = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] - th[0]) ** 2 + th[1] ** 2))
    z = np.array([1.0])
    th = np.array([0.3, 0.5])
    assert loss.psi(z, th) == (1 - 0.3) ** 2 + 0.25
    assert np.allclose(loss.grad_psi_batch(z[None], th), [[-2 * 0.7, 1.0]], rtol=1e-6)
    assert np.allclose(loss.hess_psi(z[None], th), np.diag([2.0, 2.0]), atol=1e-3)
    Z = np.array([[1.0], [2.0]])
    vals = slot_values(loss, "psi_batch", Z, th)
    assert np.allclose(vals, [(1 - 0.3) ** 2 + 0.25, (2 - 0.3) ** 2 + 0.25])
    Th = np.array([[0.3, 0.5], [1.0, 0.0]])
    rw = slot_values(loss, "psi_rowwise", Z, Th)
    assert np.allclose(rw, [(1 - 0.3) ** 2 + 0.25, 1.0])
    G = slot_values(loss, "grad_psi_batch", Z, th)
    assert G.shape == (2, 2)
    assert np.allclose(G[1], [-2 * 1.7, 1.0], rtol=1e-6)
    assert loss.hess_psi(Z, th).shape == (2, 2, 2)
    with pytest.raises(EvaluationError):
        slot_values(loss, "psi_rowwise", Z, np.array([[0.3, 0.5], [np.inf, 0.0]]))


def test_rowwise_stacks_per_row_results():
    f = rowwise(lambda z, a, b: np.array([z[0] * a, b]))
    Z = np.array([[1.0], [2.0], [3.0]])
    out = f(Z, 2.0, 5.0)
    assert out.dtype == float
    assert np.array_equal(out, [[2.0, 5.0], [4.0, 5.0], [6.0, 5.0]])


def _line_spec(scale=1.0):
    # phi(z, th) = scale * (z - th), p = 1
    return ModelSpec(p=1, q=1, phi_batch=rowwise(lambda z, th, lm: scale * (z - th)))


def test_replace_refills_fallbacks_of_the_old_instance():
    # dataclasses.replace passes the old fallbacks on; the new spec must not
    # keep evaluating the old phi_batch through them
    spec = _line_spec()
    twice = dataclasses.replace(spec, phi_batch=_line_spec(2.0).phi_batch)
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    assert np.allclose(twice.phi_batch(Z, th, lm), 2.0)
    assert np.allclose(twice.dphi_dtheta_batch(Z, th, lm), -2.0)
    assert np.allclose(twice.hess_phi_theta(Z, th, lm), 0.0, atol=1e-3)
    assert np.allclose(twice.phi_loo_sum(Z, th[None], [0], lm), 4.0)
    assert np.allclose(twice.jac_loo_sum(Z, th[None], [0], lm), -4.0)
    F, S = twice.phi_jac_sum(Z, th, lm)
    assert np.allclose(F, 2.0) and np.allclose(S, -6.0)
    # the old spec is untouched, and a slot given explicitly is kept
    assert np.allclose(spec.phi_loo_sum(Z, th[None], [0], lm), 2.0)
    ones = rowwise(lambda z, th, lm: np.ones((1, 1)))
    kept = dataclasses.replace(twice, dphi_dtheta_batch=ones)
    assert kept.dphi_dtheta_batch is ones
    assert np.allclose(kept.jac_loo_sum(Z, th[None], [0], lm), 2.0)

    loss = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] - th[0]) ** 2))
    double = dataclasses.replace(loss, psi_batch=rowwise(lambda z, th: 2 * (z[0] - th[0]) ** 2))
    assert np.allclose(double.grad_psi_batch(Z, th), -4.0, rtol=1e-6)
    assert np.allclose(double.hess_psi(Z, th), 4.0, rtol=1e-4)
    assert np.allclose(double.psi_rowwise(Z, np.zeros((3, 1))), 2.0)


def test_replacing_phi_batch_drops_the_kernel_made_beside_the_old_one():
    # a built-in phi_jac_sum gives its own phi as F: beside another
    # phi_batch the spec takes the fallback pair, whose F is the new phi,
    # and a replace that keeps phi_batch keeps the kernel
    spec = RidgeLinearModel(2).spec()
    shifted = dataclasses.replace(
        spec, phi_batch=lambda Z, th, lm: spec.phi_batch(Z, th - 1.0, lm)
    )
    assert shifted.phi_jac_sum.__func__ is ModelSpec._phi_and_summed_jac
    data = make_linear_data(n=100, seed=1)
    root = solve_theta(spec, data, [0.1], np.zeros(3)).theta_hat
    assert np.allclose(solve_theta(shifted, data, [0.1], np.zeros(3)).theta_hat, root + 1.0)
    boxed = dataclasses.replace(spec, lambda_domain=(0.0, 0.5))
    assert boxed.phi_jac_sum is spec.phi_jac_sum


def test_a_custom_slot_that_names_its_phi_batch_is_kept_only_beside_it():
    spec = _line_spec()
    jac = rowwise(lambda z, th, lm: -np.ones((1, 1)))
    jac.phi_batch = spec.phi_batch
    tagged = dataclasses.replace(spec, dphi_dtheta_batch=jac)
    assert dataclasses.replace(tagged, lambda_domain=(0.0, 0.5)).dphi_dtheta_batch is jac
    twice = dataclasses.replace(tagged, phi_batch=_line_spec(2.0).phi_batch)
    assert twice.dphi_dtheta_batch.__func__ is ModelSpec._fd_dphi_dtheta
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    assert np.allclose(twice.dphi_dtheta_batch(Z, th, lm), -2.0)


_HYBRID = HybridModel(p=1, phi1=lambda z, th: z[:1] - th, phi2=lambda z, th: 2.0 * (z[:1] - th),
                      dphi1_dtheta=lambda z, th: -np.ones((1, 1)))
# each built-in spec and loss, as a maker of fresh instances
BUILT_INS = {
    "ridge-linear": RidgeLinearModel(2).spec,
    "ridge-logistic": RidgeLogisticModel(2).spec,
    "hybrid": _HYBRID.spec,
    "gaussian": GaussianLikelihoodModel().spec,
    "squared-error": RidgeLinearModel(2).squared_error_loss,
    "brier": RidgeLogisticModel(2).brier_loss,
    "gaussian-nll": GaussianLikelihoodModel().neg_loglik_loss,
}


def _owner_and_slots(spec):
    """(owner, slots): the defining slot of spec and its other callable slots."""
    owner = "phi_batch" if isinstance(spec, ModelSpec) else "psi_batch"
    return owner, [f.name for f in dataclasses.fields(spec)
                   if "Callable" in str(f.type) and f.name != owner]


def _is_fallback_of(fn, spec, slot):
    # the bound method that a spec with every slot left out takes for slot
    bare = dataclasses.replace(spec, **dict.fromkeys(_owner_and_slots(spec)[1], None))
    return fn.__self__ is spec and fn.__func__ is getattr(bare, slot).__func__


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_a_replace_that_keeps_the_defining_slot_keeps_every_built_in_slot(name):
    # tuning over another box must not fall back to finite differences
    spec = BUILT_INS[name]()
    owner, slots = _owner_and_slots(spec)
    same = (dataclasses.replace(spec, lambda_domain=(0.0, 0.5)) if owner == "phi_batch"
            else dataclasses.replace(spec))
    assert getattr(same, owner) is getattr(spec, owner)
    for slot in slots:
        fn = getattr(spec, slot)
        if getattr(fn, "__self__", None) is spec:  # a slot the model leaves out
            assert _is_fallback_of(getattr(same, slot), same, slot)
        else:
            assert getattr(fn, owner) is getattr(spec, owner), slot
            assert getattr(same, slot) is fn, slot


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_replacing_the_defining_slot_takes_every_fallback_but_a_custom_slot(name):
    spec = BUILT_INS[name]()
    owner, slots = _owner_and_slots(spec)
    old = getattr(spec, owner)

    def new(Z, th, *rest):
        return 2.0 * old(Z, th, *rest)

    replaced = dataclasses.replace(spec, **{owner: new})
    for slot in slots:
        assert _is_fallback_of(getattr(replaced, slot), replaced, slot), slot
        # an untagged slot given in the same call is the user's, and stays
        custom = functools.partial(getattr(spec, slot))
        kept = dataclasses.replace(spec, **{owner: new, slot: custom})
        assert getattr(kept, slot) is custom
        assert all(_is_fallback_of(getattr(kept, s), kept, s) for s in slots if s != slot)


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_two_built_in_specs_share_no_tagged_slot(name):
    # each spec tags fresh closures, so one can never retag the other's
    a, b = BUILT_INS[name](), BUILT_INS[name]()
    owner, slots = _owner_and_slots(a)
    assert getattr(a, owner) is not getattr(b, owner)
    for slot in slots:
        fa, fb = getattr(a, slot), getattr(b, slot)
        assert fa is not fb
        if hasattr(fa, owner):
            assert getattr(fa, owner) is getattr(a, owner)
            assert getattr(fb, owner) is getattr(b, owner)


def test_loo_sum_fallbacks_of_a_rowwise_spec_are_exact():
    # the fallbacks sum the per-row slots over all rows and subtract the
    # problem's own row, to the last bit
    m = _toy_model()
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((11, 2))
    Th = rng.standard_normal((4, 2))
    rows = np.array([0, 10, 3, 3])
    lm = np.array([0.3])
    F = np.stack([m.phi_batch(Z, th, lm) for th in Th])
    assert np.array_equal(m.phi_loo_sum(Z, Th, rows, lm), F.sum(axis=1) - F[np.arange(4), rows])
    G = np.stack([m.dphi_dtheta_batch(Z, th, lm) for th in Th])
    want = np.stack([g.sum(axis=0) - g[i] for g, i in zip(G, rows)])
    assert np.array_equal(m.jac_loo_sum(Z, Th, rows, lm), want)


@pytest.mark.parametrize("shape", [(1,), (3, 1, 1), (1, 2)])
def test_jac_theta_mean_rejects_a_wrong_shape_sum_slot(shape):
    # the S part of phi_jac_sum; (3, 1, 1) is the per-row stack, a
    # dphi_dtheta_batch passed as the sum
    line = _line_spec()
    spec = dataclasses.replace(
        line, phi_jac_sum=lambda Z, th, lm: (line.phi_batch(Z, th, lm), np.zeros(shape))
    )
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    message = re.escape(f"phi_jac_sum returned shape {shape}, expected (1, 1)")
    with pytest.raises(EvaluationError, match="^" + message):
        slot_values(spec, "phi_jac_sum", Z, th, lm)
    with pytest.raises(EvaluationError, match=r"^phi_jac_sum returned shape"):
        solve_theta(spec, Dataset(Z), lm, th)


@pytest.mark.parametrize("F, message", [
    (np.zeros((3, 2)), r"^phi_jac_sum returned shape \(3, 2\), expected \(3, 1\)$"),
    (np.zeros((3,)), r"^phi_jac_sum returned shape \(3,\), expected \(3, 1\)$"),
    (np.full((3, 1), np.nan), r"^phi_jac_sum produced non-finite values$"),
    (np.full((3, 1), np.inf), r"^phi_jac_sum produced non-finite values$"),
])
def test_phi_jac_sum_checks_its_phi_part(F, message):
    # the F part is checked as phi_batch is: its shape, then its values
    S = -3.0 * np.ones((1, 1))
    spec = dataclasses.replace(_line_spec(), phi_jac_sum=lambda Z, th, lm: (F, S))
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    with pytest.raises(EvaluationError, match=message):
        slot_values(spec, "phi_jac_sum", Z, th, lm)
    with pytest.raises(EvaluationError, match=message):
        solve_theta(spec, Dataset(Z), lm, th)


def test_phi_jac_sum_must_return_a_pair():
    spec = dataclasses.replace(_line_spec(), phi_jac_sum=lambda Z, th, lm: np.zeros((2, 1, 1)))
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    with pytest.raises(EvaluationError, match=r"^phi_jac_sum returned ndarray, expected a pair"):
        slot_values(spec, "phi_jac_sum", Z, th, lm)


def test_a_non_finite_phi_fails_the_fallback_pair_as_it_fails_phi_batch():
    # the fallback pair checks its phi_batch call, so a non-finite phi (NaN
    # on the rows z < theta) raises the same EvaluationError, naming
    # phi_batch, in the solve too
    spec = ModelSpec(p=1, q=1, phi_batch=rowwise(
        lambda z, th, lm: np.where(th < z[:1], z[:1] - th, np.nan)
    ))
    Z, th, lm = np.array([[1.0], [2.0]]), np.array([1.5]), np.zeros(1)
    for slot in ("phi_batch", "phi_jac_sum"):
        with pytest.raises(EvaluationError, match=r"^phi_batch produced non-finite values$"):
            slot_values(spec, slot, Z, th, lm)
    with pytest.raises(EvaluationError, match=r"^phi_batch produced non-finite values$"):
        solve_theta(spec, Dataset(Z), lm, th)


def test_slot_shapes_cover_every_callable_slot():
    # a slot added later cannot skip the shape check
    slots = {
        f.name for cls in (ModelSpec, LossSpec) for f in dataclasses.fields(cls)
        if "Callable" in str(f.type)
    }
    assert set(SLOT_SHAPES) == slots


@pytest.fixture(scope="module")
def interior_logistic_fit():
    data = make_logistic_data(n=200, seed=0)
    m = RidgeLogisticModel(2, lambda_domain=(0.0, 0.1))
    spec, loss = m.spec(), m.brier_loss(predictor_covariates=[0])
    fit = tune(spec, loss, data, Method.CV_FAST, grid_size=10)
    assert fit.interior
    return data, spec, loss, fit


def _fit_and_theta_prime(spec, loss, data, fit):
    theta_prime(spec, data, solve_theta(spec, data, fit.lambda_hat, fit.theta_hat))


def _loocv_exact(spec, loss, data, fit):
    loocv_exact(spec, loss, data, fit.lambda_hat, root_at(spec, data, fit.lambda_hat))


# slot -> the public call that reads it. A spec with a replaced phi_batch
# (psi_batch) takes every other slot's fallback, and each fallback reads it
# through slot_values, so the error names it whichever slot is read first
SLOT_READERS = {
    "phi_batch": select_variance,
    "phi_jac_sum": _fit_and_theta_prime,
    "dphi_dlambda_batch": _fit_and_theta_prime,
    "dphi_dtheta_batch": _loocv_exact,
    "phi_loo_sum": _loocv_exact,
    "jac_loo_sum": _loocv_exact,
    "psi_rowwise": _loocv_exact,
    "psi_batch": select_variance,
    "hess_phi_theta": select_variance,
    "dphi_dlambda_dtheta": select_variance,
    "grad_psi_batch": select_variance,
    "hess_psi": select_variance,
}


@pytest.mark.parametrize("slot", sorted(SLOT_SHAPES))
def test_a_wrong_shape_slot_raises_evaluation_error_naming_it(slot, interior_logistic_fit):
    data, spec, loss, fit = interior_logistic_fit
    owner = spec if hasattr(spec, slot) else loss
    good = getattr(owner, slot)

    def one_axis_too_many(*args, part=None):
        if part is None:
            return np.asarray(good(*args))[..., None]
        out = list(good(*args))
        out[part] = np.asarray(out[part])[..., None]
        return tuple(out)

    # phi_jac_sum's pair is tried with each part wrong in turn
    for part in (0, 1) if slot == "phi_jac_sum" else (None,):
        bad = dataclasses.replace(owner, **{slot: functools.partial(one_axis_too_many, part=part)})
        specs = (bad, loss) if owner is spec else (spec, bad)
        with pytest.raises(EvaluationError, match=rf"^{slot} returned shape"):
            SLOT_READERS[slot](*specs, data, fit)


def _tuned_with(method):
    def reader(spec, loss, data, fit):
        tune(spec, loss, data, method, grid_size=5)

    return reader


# the public calls that read a built-in's phi_batch or psi_batch, directly
# or through the fallbacks that a replaced one gives every other slot
READERS = {
    "tune-cv_fast": _tuned_with(Method.CV_FAST),
    "tune-cv": _tuned_with(Method.CV_EXACT),
    "tune-te_trace": _tuned_with(Method.TE_TRACE_CORRECTED),
    "select_variance": select_variance,
    "variance_alpha": variance_alpha,
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("slot", ["phi_batch", "psi_batch"])
def test_every_reader_names_a_replaced_built_in_slot(slot, reader, interior_logistic_fit):
    # a psi_batch of shape (n, 1) used to surface as a bare TypeError from
    # LossSpec.psi under tune, and under grad_psi_batch's or hess_psi's name
    # in the variance code; tune quotes the error in its CriterionFailure
    data, spec, loss, fit = interior_logistic_fit
    owner = spec if slot == "phi_batch" else loss
    good = getattr(owner, slot)
    bad = dataclasses.replace(owner, **{slot: lambda *a: np.asarray(good(*a))[..., None]})
    specs = (bad, loss) if owner is spec else (spec, bad)
    with pytest.raises(TunevarError) as exc:
        READERS[reader](*specs, data, fit)
    err = exc.value
    assert isinstance(err, (EvaluationError, CriterionFailure))
    quoted = "" if isinstance(err, EvaluationError) else "EvaluationError: "
    assert re.search(rf"(^|: ){quoted}{slot} returned shape \(\d+, ", str(err)), str(err)


def test_a_wrong_shape_jacobian_is_named_by_the_fallback_pair():
    # the fallback phi_jac_sum sums dphi_dtheta_batch; a (n, 1, 1, 1) stack
    # used to fail as "phi_jac_sum returned shape (1, 1, 1)"
    spec = dataclasses.replace(
        _line_spec(), dphi_dtheta_batch=lambda Z, th, lm: -np.ones((len(Z), 1, 1, 1))
    )
    Z, th, lm = np.ones((3, 1)), np.zeros(1), np.zeros(1)
    message = re.escape("dphi_dtheta_batch returned shape (3, 1, 1, 1), expected (3, 1, 1)")
    with pytest.raises(EvaluationError, match="^" + message + "$"):
        solve_theta(spec, Dataset(Z), lm, th)


def test_a_non_finite_value_at_a_difference_point_names_the_differenced_slot():
    # phi (psi) is finite at theta = 0.5 and NaN above it, so the central
    # difference there reads a NaN; the Jacobian used to come back NaN
    spec = ModelSpec(p=1, q=1, phi_batch=rowwise(
        lambda z, th, lm: np.where(th <= 0.5, z[:1] - th, np.nan)
    ))
    loss = LossSpec(psi_batch=rowwise(lambda z, th: z[0] - th[0] if th[0] <= 0.5 else np.nan))
    Z, th, lm = np.array([[0.2], [0.4]]), np.array([0.5]), np.zeros(1)
    for slot in ("dphi_dtheta_batch", "dphi_dlambda_dtheta", "hess_phi_theta", "phi_jac_sum"):
        with pytest.raises(EvaluationError, match=r"^phi_batch produced non-finite values$"):
            slot_values(spec, slot, Z, th, lm)
    with pytest.raises(EvaluationError, match=r"^phi_batch produced non-finite values$"):
        solve_theta(spec, Dataset(Z), lm, th)
    for slot in ("grad_psi_batch", "hess_psi"):
        with pytest.raises(EvaluationError, match=r"^psi_batch produced non-finite values$"):
            slot_values(loss, slot, Z, th)


def _capped_tanh(cap):
    # phi = tanh(z - theta), p = 1, infinite for theta above cap
    return rowwise(lambda z, th, lm: np.tanh(z[:1] - th) if th[0] <= cap else np.full(1, np.inf))


def test_a_non_finite_leave_one_out_iterate_keeps_every_other_root_bitwise():
    # the fallback phi_loo_sum now raises for a non-finite phi, and the
    # step's problems are evaluated again one theta at a time; the twin
    # supplies the sum that the fallback used to compute, which returns a
    # non-finite sum instead and so keeps the call whole: every root must
    # match it bit for bit
    z = np.concatenate([[-8.0], np.random.default_rng(5).normal(0.3, 0.5, 149)])
    data = Dataset(z[:, None])
    free = ModelSpec(p=1, q=1, phi_batch=_capped_tanh(np.inf))
    roots, ok = solver.solve_loo_all(free, data, solve_theta(free, data, [0.0], np.zeros(1)))
    assert ok.all() and np.argmax(roots[:, 0]) == 0  # the outlier's problem has the top root
    spec = ModelSpec(p=1, q=1, phi_batch=_capped_tanh(0.5 * (roots[0, 0] + np.sort(roots[:, 0])[-2])))

    def parent_sum(Z, Th, rows, lm):
        F = np.stack([spec.phi_batch(Z, th, lm) for th in Th])
        with np.errstate(invalid="ignore"):
            return F.sum(axis=1) - F[np.arange(len(Th)), rows]

    twin = dataclasses.replace(spec, phi_loo_sum=parent_sum)
    loss = LossSpec(psi_batch=rowwise(lambda z, th: (z[0] - th[0]) ** 2))
    solve = solve_theta(spec, data, [0.0], np.zeros(1))
    thetas, converged = solver.solve_loo_all(spec, data, solve)
    assert not converged[0] and converged[1:].all()
    want, want_converged = solver.solve_loo_all(twin, data, solve)
    assert np.array_equal(converged, want_converged)
    assert np.array_equal(thetas, want, equal_nan=True)
    cv, cv_twin = (loocv_exact(m, loss, data, [0.0], solve=solve) for m in (spec, twin))
    assert cv.value == cv_twin.value and cv.diagnostics == cv_twin.diagnostics


def test_the_lambda_fallbacks_difference_inside_lambda_domain():
    # phi is NaN outside the box, where truncated_estimate allows a model to
    # be undefined: at an edge the lambda differences are one-sided, where
    # theta' used to come back NaN
    box = (0.3, 1.0)
    built = RidgeLinearModel(2, lambda_domain=box).spec()

    def phi_batch(Z, th, lm):
        F = built.phi_batch(Z, th, lm)
        return F if box[0] <= lm[0] <= box[1] else np.full_like(F, np.nan)

    spec = dataclasses.replace(built, phi_batch=phi_batch)
    data = make_linear_data(n=100, seed=1)
    for lam in box:
        solve = solve_theta(spec, data, [lam], np.zeros(3))
        D = theta_prime(spec, data, solve)
        assert np.allclose(D, theta_prime(built, data, solve), rtol=1e-7, atol=1e-9)
        args = (data.rows, solve.theta_hat, np.array([lam]))
        assert np.allclose(spec.dphi_dlambda_dtheta(*args), built.dphi_dlambda_dtheta(*args),
                           atol=1e-6)
