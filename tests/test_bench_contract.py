"""The benchmark tracer must find every layer function and spec/loss slot it wraps.

bench/tracing.py looks these names up with a bare getattr and skips a slot
that is None, so a rename in the package would otherwise silently drop a
per-layer count. This test only reads bench/; it does not modify it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tunevar as tv
from tunevar.solver import checked_solve

from conftest import make_linear_data

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_attrs(tracing, specs, losses):
    """(owner, attribute) of every object the tracer is expected to wrap."""
    attrs = [(sys.modules["tunevar.numdiff"], "jacobian"), (np.linalg, "cond")]
    for layer, names in tracing.SPANNED.items():
        attrs += [(sys.modules["tunevar." + layer], name) for name in names]
    attrs += [(spec, slot) for spec in specs for slot in tracing.MODEL_SLOTS]
    attrs += [(loss, slot) for loss in losses for slot in tracing.LOSS_SLOTS]
    return attrs


def test_tracer_wraps_every_traced_name_and_uninstalls(tracing):
    lin, logit, gauss = tv.RidgeLinearModel(2), tv.RidgeLogisticModel(2), tv.GaussianLikelihoodModel()
    specs = [lin.spec(), logit.spec(), gauss.spec()]
    losses = [lin.squared_error_loss(), logit.brier_loss(), gauss.neg_loglik_loss()]
    attrs = _traced_attrs(tracing, specs, losses)
    originals = []
    for owner, attr in attrs:
        fn = getattr(owner, attr, None)
        assert callable(fn), f"{type(owner).__name__}.{attr} is missing"
        originals.append(fn)

    tracer = tracing.Tracer()
    tracer.install(specs=specs, losses=losses)
    try:
        for (owner, attr), fn in zip(attrs, originals):
            assert getattr(owner, attr) is not fn, f"{attr} was not wrapped"
        data = tv.simulate(
            tv.DGPSpec(tv.DGPKind.LINEAR_GAUSSIAN, n=60,
                       params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5}),
            seed=1,
        )
        tracer.active = True
        fit = tv.tune(specs[0], losses[0], data, tv.Method.CV_FAST, grid_size=6)
        tv.select_variance(specs[0], losses[0], data, fit)
        # one more fit that is interior by construction
        data2 = make_linear_data(n=250, seed=0, coef_sq=0.5)
        fit2 = tv.tune(specs[0], losses[0], data2, tv.Method.CV_FAST, grid_size=15)
        tv.select_variance(specs[0], losses[0], data2, fit2)
        tracer.active = False
        assert fit.interior and fit2.interior
        # each second-order slot is one batch call per full assembly
        assemblies = tracer.counts["variance.assemble_components.calls"]
        assert assemblies == 2
        for slot in ("hess_phi_theta", "dphi_dlambda_dtheta", "hess_psi"):
            assert tracer.counts[f"model.{slot}.calls"] == assemblies, slot
        for name in ("solver.solve_theta.calls", "tuner.tune.calls",
                     "variance.select_variance.calls", "model.phi_batch.rows",
                     "model.dphi_dtheta_batch.rows", "model.hess_psi.calls"):
            assert tracer.counts[name] > 0, name
        # the condition screen clears every matrix of these fits without an
        # SVD, so the cond wrapper is shown to record by one matrix that the
        # screen cannot clear (cond 5e11: it passes the SVD test)
        assert tracer.counts["numpy.linalg.cond.calls"] == 0
        tracer.active = True
        checked_solve(np.diag([1.0, 2e-12]), np.ones(2), "test matrix")
        tracer.active = False
        assert tracer.counts["numpy.linalg.cond.calls"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(attrs, originals):
        assert getattr(owner, attr) is fn, f"{attr} was not restored"
