"""Variance estimation for tuned Z-estimators.

Two estimators of the variance of sqrt(n) * (theta_hat(lambda_hat) - theta_0):
  V1: tuning-aware, built from the plug-in components of the joint
      (theta, lambda, theta') limit; valid for interior minimizers.
  V2: the classic pointwise sandwich J^{-1} K J^{-T}, which ignores the
      randomness of lambda_hat; the right choice at boundary fits with a
      nonzero one-sided criterion slope, and the variance of a fit at a
      lambda fixed in advance.

V_alpha is the full-vector variance of alpha_hat = (theta_hat, lambda_hat,
vec theta_hat'): the covariance of the per-row influences of the stacked
estimating system (alpha_influences), which use the inverse of its Jacobian.
That Jacobian is analytic in theta and theta', from the model's derivative
slots, and a central difference in lambda; the theta-block of V_alpha agrees
with V1. The test suite keeps the independent check: a central difference
of the stacked system in every coordinate, which the analytic Jacobian must
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import numdiff
from .exceptions import BoundaryFit, FlatLimitSuspected
from .model import Dataset, LossSpec, ModelSpec, row_mean, slot_values
from .solver import checked_inv, solve_theta
from .tuner import FitResult, check_fit


def _sym(A):
    return (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# The stacked per-observation estimating function of the joint system.
# ---------------------------------------------------------------------------

def eta_matrix(model: ModelSpec, loss: LossSpec, Z: np.ndarray, theta, lam, D) -> np.ndarray:
    """(n, p + q + pq) matrix of the per-row vectors (eta1, eta2, eta3).

    eta1 = phi, eta2 = D' grad_psi, eta3 = dphi_dtheta @ D + dphi_dlambda
    flattened column-major (matrices (a_1,..,a_q) identified with the stacked
    vector (a_1', .., a_q')').
    """
    theta = np.asarray(theta, float)
    lam = np.atleast_1d(np.asarray(lam, float))
    D = np.asarray(D, float).reshape(model.p, model.q)
    Phi = slot_values(model, "phi_batch", Z, theta, lam)
    G = slot_values(loss, "grad_psi_batch", Z, theta)
    e2 = G @ D
    T = np.einsum("nij,jk->nik", slot_values(model, "dphi_dtheta_batch", Z, theta, lam), D)
    T = T + slot_values(model, "dphi_dlambda_batch", Z, theta, lam)
    e3 = np.transpose(T, (0, 2, 1)).reshape(Z.shape[0], model.p * model.q)
    return np.concatenate([Phi, e2, e3], axis=1)


# ---------------------------------------------------------------------------
# Component assembly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceComponents:
    """The matrices of V2 = J^{-1} K J^{-T} (J_hat, K_hat) and of
    V1 = Astar Kstar_hat Astar' (Kstar_hat, Astar and Z1_hat, which Astar
    inverts). Partial assemblies (boundary and fixed-lambda fits) carry only
    J_hat and K_hat; the rest is None.
    """

    J_hat: np.ndarray
    K_hat: np.ndarray
    Z1_hat: Optional[np.ndarray] = None
    Kstar_hat: Optional[np.ndarray] = None
    Astar: Optional[np.ndarray] = None

    @property
    def full(self) -> bool:
        return self.Astar is not None


def z1_profiled(model, loss, data, fit: FitResult) -> np.ndarray:
    """Hessian of the profiled training error at lambda_hat.

    Central differences with per-axis step 1e-3 * (1 + |lambda_hat_j|) and one
    Richardson refinement (4 * H(h/2) - H(h)) / 3; each perturbed TE value is
    a warm-started refit. Avoids the second-order implicit derivative of
    theta_hat(lambda) that the chain-rule form would need.
    """
    lam_hat = np.asarray(fit.lambda_hat, float)

    def te(lam):
        res = solve_theta(model, data, lam, fit.theta_hat)
        return float(slot_values(loss, "psi_batch", data.rows, res.theta_hat).mean())

    H1 = numdiff.hessian(te, lam_hat, scale=1e-3)
    H2 = numdiff.hessian(te, lam_hat, scale=5e-4)
    return _sym((4.0 * H2 - H1) / 3.0)


def assemble_components(
    model: ModelSpec, loss: LossSpec, data: Dataset, fit: FitResult,
) -> VarianceComponents:
    """The matrices of V1 and V2 at the tuned fit, Z1_hat from z1_profiled.

    ValueError first, from tuner.check_fit, unless fit was made of model on
    data; J_hat and the per-row phi of K_hat are those of the root that
    check_fit rebuilds. Boundary and fixed-lambda fits get a partial assembly
    (J_hat, K_hat only): the joint-limit components are meaningless when
    lambda_hat sits on an edge or was not tuned.
    """
    root = check_fit(model, data, fit)
    J_hat, K_hat = root.J_hat, _sym(root.Phi.T @ root.Phi / data.n)
    if not fit.interior:
        return VarianceComponents(J_hat=J_hat, K_hat=K_hat)

    theta, lam = fit.theta_hat, np.asarray(fit.lambda_hat, float)
    Z, n, D_hat = data.rows, data.n, fit.D_hat
    Jinv = checked_inv(J_hat, "J_hat")
    b_hat = slot_values(loss, "grad_psi_batch", Z, theta).mean(axis=0)
    Z2_hat = _sym(slot_values(loss, "hess_psi", Z, theta).mean(axis=0))
    Z1_hat = z1_profiled(model, loss, data, fit)

    bJ = b_hat @ Jinv  # row vector b' J^{-1}
    # (q, p) W_hat: row j is b' J^{-1} mean_i (H_i D_j + d_lambda_j dphi_dtheta_i),
    # where row k of H_i D_j is (theta-Hessian of phi^k at row i) @ D_j
    HD = slot_values(model, "hess_phi_theta", Z, theta, lam) @ D_hat  # (n, p, p, q)
    cross = slot_values(model, "dphi_dlambda_dtheta", Z, theta, lam)  # (n, q, p, p)
    W_hat = bJ @ (np.moveaxis(HD, -1, 1).mean(axis=0) + cross.mean(axis=0))

    Eta = eta_matrix(model, loss, Z, theta, lam, D_hat)
    Kstar_hat = _sym(Eta.T @ Eta / n)

    Z1_inv = checked_inv(Z1_hat, "Z1_hat")
    DZ1 = D_hat @ Z1_inv  # (p, q)
    # Astar's column blocks act on eta1 = phi (A1), eta2 and eta3 (A3); A3's
    # block j, acting on eta3's entries of theta' column j, is -DZ1[:, j] b' J^{-1}
    A1 = Jinv - DZ1 @ (D_hat.T @ Z2_hat + W_hat) @ Jinv
    A3 = -np.kron(DZ1, bJ)
    Astar = np.concatenate([A1, -DZ1, A3], axis=1)

    return VarianceComponents(
        J_hat=J_hat, K_hat=K_hat, Z1_hat=Z1_hat, Kstar_hat=Kstar_hat, Astar=Astar,
    )


# ---------------------------------------------------------------------------
# Variance estimators.
# ---------------------------------------------------------------------------

def variance_tuned(components: VarianceComponents) -> np.ndarray:
    """V1 = Astar Kstar Astar', the tuning-aware variance."""
    if not components.full:
        raise BoundaryFit("tuning-aware variance needs a full (interior) assembly")
    return _sym(components.Astar @ components.Kstar_hat @ components.Astar.T)


def variance_pointwise(components: VarianceComponents) -> np.ndarray:
    """V2 = J^{-1} K J^{-T}, the classic sandwich at the tuned fit."""
    Jinv = checked_inv(components.J_hat, "J_hat")
    return _sym(Jinv @ components.K_hat @ Jinv.T)


def _joint_jacobian(model: ModelSpec, loss: LossSpec, Z: np.ndarray, theta, lam, D) -> np.ndarray:
    """Psi', the Jacobian of alpha -> mean_i eta(Z_i, alpha) at alpha = (theta, lam, vec D).

    With J = mean dphi/dtheta, b = mean grad_psi, Z2 = mean hess_psi,
    H = mean hess_phi_theta and C = mean dphi_dlambda_dtheta, the theta- and
    D-columns are analytic:
      phi rows:      theta-columns J, D-columns 0;
      eta2 row j:    theta-columns D_j' Z2, b in D-column block j;
      eta3 block j:  theta-columns sum_b H[:, b, :] D[b, j] + C[j], J in
                     D-column block j.
    The lambda-columns hold d^2 phi / d lambda^2 in the eta3 rows, which no
    slot supplies: they are the central difference in lambda alone of the
    stacked mean, 2q eta_matrix evaluations.
    """
    p, q = model.p, model.q
    theta = np.asarray(theta, float)
    lam = np.atleast_1d(np.asarray(lam, float))
    # column-major like the vec D coordinates of alpha: the memory layout
    # sets the rounding of eta_matrix's products with D
    D = np.asarray(D, float).reshape(p, q).ravel(order="F").reshape(p, q, order="F")

    J = slot_values(model, "phi_jac_sum", Z, theta, lam)[1] / len(Z)
    H = row_mean(slot_values(model, "hess_phi_theta", Z, theta, lam))  # (p, p, p)
    C = row_mean(slot_values(model, "dphi_dlambda_dtheta", Z, theta, lam))  # (q, p, p)
    P = np.zeros((p + q + p * q,) * 2)
    P[:p, :p] = J
    P[p : p + q, :p] = D.T @ row_mean(slot_values(loss, "hess_psi", Z, theta))
    P[p + q :, :p] = (np.einsum("abk,bj->jak", H, D) + C).reshape(p * q, p)
    P[:, p : p + q] = numdiff.jacobian(
        lambda l: eta_matrix(model, loss, Z, theta, l, D).mean(axis=0), lam
    )
    b = row_mean(slot_values(loss, "grad_psi_batch", Z, theta))
    for j in range(q):
        block = slice(p + q + j * p, p + q + (j + 1) * p)
        P[p + j, block] = b
        P[block, block] = J
    return P


def alpha_influences(
    model: ModelSpec, loss: LossSpec, data: Dataset, theta, lam, D
) -> np.ndarray:
    """(n, p + q + pq) per-row influence values of the joint system.

    Row i is the first-order effect of observation i on alpha_hat,
    -Psi'^{-1} eta(Z_i, alpha) at the supplied alpha, Psi' from
    _joint_jacobian. FlatLimitSuspected when Psi' has a singular-value ratio
    below 1e-8, which also keeps its condition number within 1e8, far inside
    solver.COND_LIMIT, so it is inverted without a further check.
    """
    Psi_prime = _joint_jacobian(model, loss, data.rows, theta, lam, D)
    sv = np.linalg.svd(Psi_prime, compute_uv=False)
    if sv[-1] < 1e-8 * sv[0]:
        raise FlatLimitSuspected(
            "the joint-system Jacobian is numerically rank deficient "
            f"(singular value ratio {sv[-1] / sv[0]:.3e}); the tuning target "
            "appears unidentified and the tuned-limit theory does not apply"
        )
    Eta = eta_matrix(model, loss, data.rows, theta, lam, D)
    return -(np.linalg.inv(Psi_prime) @ Eta.T).T


def variance_alpha(
    model: ModelSpec, loss: LossSpec, data: Dataset, fit: FitResult
) -> np.ndarray:
    """Full-vector variance of alpha_hat = (theta_hat, lambda_hat, vec D_hat).

    U'U / n over the rows U of alpha_influences at alpha_hat, which is
    Psi'^{-1} K* Psi'^{-T} in exact arithmetic. Psi' reads the same
    derivative slots as assemble_components, so its theta-block differs from
    variance_tuned only where z1_profiled differs from the curvature in
    lambda that Psi' implies. ValueError first, from tuner.check_fit, unless
    fit was made of model on data, as in select_variance.
    """
    check_fit(model, data, fit)
    if not fit.interior:
        raise BoundaryFit("variance_alpha needs an interior fit")
    U = alpha_influences(model, loss, data, fit.theta_hat, fit.lambda_hat, fit.D_hat)
    return _sym(U.T @ U / data.n)


# ---------------------------------------------------------------------------
# Selection and reporting.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    V1: Optional[np.ndarray]
    V2: np.ndarray
    selected: str  # "V1" or "V2"
    standard_errors: np.ndarray
    nondegenerate_boundary: bool
    components: VarianceComponents
    diagnostics: Dict[str, float]


def select_variance(
    model: ModelSpec, loss: LossSpec, data: Dataset, fit: FitResult,
) -> VarianceReport:
    """Assemble components and pick the variance matching the fit's geometry.

    ValueError first, from tuner.check_fit through assemble_components,
    unless fit was made of model on data. Interior fits get V1; boundary
    fits and fits at a fixed lambda get V2. A boundary fit whose one-sided
    slope is indistinguishable from zero (FitResult.flat_at_edge) is in the
    regime where neither estimator is justified; V2 is reported with
    nondegenerate_boundary set. An interior fit whose Z1_hat has an
    eigenvalue <= 0 (lambda_hat where the profiled training error is not
    strictly convex, outside the theory behind V1) still reports V1, with
    the diagnostic z1_not_positive_definite set.
    """
    components = assemble_components(model, loss, data, fit)
    V2 = variance_pointwise(components)
    diagnostics: Dict[str, float] = {}
    if fit.interior:
        V1 = variance_tuned(components)
        selected, chosen = "V1", V1
        nondegenerate = False
        if np.linalg.eigvalsh(components.Z1_hat)[0] <= 0.0:
            diagnostics["z1_not_positive_definite"] = 1.0
    else:
        V1 = None
        selected, chosen = "V2", V2
        nondegenerate = fit.flat_at_edge()
    se = np.sqrt(np.clip(np.diag(chosen), 0.0, None) / data.n)
    return VarianceReport(
        V1=V1, V2=V2, selected=selected, standard_errors=se,
        nondegenerate_boundary=nondegenerate, components=components, diagnostics=diagnostics,
    )
