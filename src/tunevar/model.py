"""Core data containers: datasets, estimating-function models, and losses.

A model is an estimating function phi(z, theta, lam) in R^p whose empirical
mean is driven to zero in theta for each fixed tuning vector lam. Every slot
of a model or loss takes the full row matrix and returns the per-row stack;
per-row user code enters through the rowwise adapter. A missing derivative
is filled at construction time by a central difference of the batch
function, so downstream code can always assume every slot is populated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .exceptions import EvaluationError, SchemaError


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. rows in R^d. Built-in models read a row as (response,
    covariates...); only the CLI loader chooses which CSV column is the
    response."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise EvaluationError("Dataset rows must be a 2-d array")
        if rows.shape[0] < 2:
            raise EvaluationError("Dataset needs at least 2 rows")
        if not np.all(np.isfinite(rows)):
            raise EvaluationError("Dataset contains non-finite entries")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def take(self, idx) -> "Dataset":
        return Dataset(self.rows[np.asarray(idx)])


def read_numeric_csv(path):
    """(rows, lines): the (n, d) array of a numeric CSV with a header row, and
    the file line number of each row.

    Blank lines are skipped. SchemaError names the offending line for an
    empty file, a ragged, non-numeric or non-finite row, and fewer than 2
    data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CSV", line=1)
        rows, lines = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"row has {len(row)} fields, header has {len(header)}", line=lineno
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise SchemaError("non-numeric field", line=lineno)
            if not all(map(math.isfinite, vals)):
                raise SchemaError("non-finite field", line=lineno)
            rows.append(vals)
            lines.append(lineno)
    if not rows:
        raise SchemaError("CSV has a header but no data rows", line=2)
    if len(rows) < 2:
        raise SchemaError("CSV needs at least 2 data rows, found 1", line=lines[0])
    return np.asarray(rows, float), np.asarray(lines)


def rowwise(f):
    """Batch slot from a per-row callable: rowwise(f)(Z, *args)[i] = f(Z[i], *args).

    The one adapter for per-row user code; the result is a float array with
    leading axis n.
    """

    def batch(Z, *args):
        return np.stack([np.asarray(f(z, *args), dtype=float) for z in Z])

    return batch


def _check_box(box, dim, name):
    """box as a (dim, 2) float array (a (2,) pair is tiled), None for None;
    ValueError, an input error, unless every lower bound is below its upper."""
    if box is None:
        return None
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or not np.all(arr[:, 0] < arr[:, 1]):
        raise ValueError(f"{name} must be a ({dim}, 2) box with lower < upper")
    return arr


def _refill(spec, owner, fallbacks):
    """Fill each slot of spec that is None, another instance's fallback, or
    made for another owner function: owner names spec's defining slot
    (phi_batch, psi_batch), and a slot made for one such function names it
    as its attribute owner. fallbacks maps a slot name to the function that
    computes it; a fallback is that function bound to its instance, whose
    __self__ tells whose slots it reads, so a spec made by
    dataclasses.replace makes its own.
    """
    own = getattr(spec, owner)
    for slot, fn in fallbacks.items():
        cur = getattr(spec, slot)
        made_for = getattr(cur, owner, own)
        if cur is None or getattr(cur, "__func__", None) is fn or made_for is not own:
            setattr(spec, slot, fn.__get__(spec))


@dataclass
class ModelSpec:
    """Estimating function phi: (z, theta, lam) -> R^p with its derivatives.

    Every per-row slot takes the (n, d) row matrix Z, theta (p,) and lam (q,)
    and returns the per-row stack, leading axis n:
      phi_batch(Z, th, lm)            -> (n, p)
      dphi_dtheta_batch(Z, th, lm)    -> (n, p, p)    d phi / d theta
      dphi_dlambda_batch(Z, th, lm)   -> (n, p, q)    d phi / d lambda
      hess_phi_theta(Z, th, lm)       -> (n, p, p, p) [i, j] = theta-Hessian of phi^j
      dphi_dlambda_dtheta(Z, th, lm)  -> (n, q, p, p) [i, j] = d_lambda_j of d phi / d theta
    Three sum slots return sums over the rows instead. phi_jac_sum returns
    the pair (F, S) at one (theta, lam): F is the per-row phi, as phi_batch
    gives it, and S sums d phi / d theta over all n rows. The two
    leave-one-out sum slots take a (k, p) stack of thetas Th and k row
    indices, and sum over every row but the problem's own:
      phi_jac_sum(Z, th, lm)          -> (F (n, p), S (p, p)), S = sum_m d phi(Z_m, ...) / d theta
      phi_loo_sum(Z, Th, rows, lm)    -> (k, p)    [j] = sum_{m != rows[j]} phi(Z_m, Th[j], lm)
      jac_loo_sum(Z, Th, rows, lm)    -> (k, p, p) the same sum of d phi / d theta

    Per-row code enters through rowwise: phi_batch=rowwise(phi) for a
    phi(z, th, lm) -> (p,).

    Fallback policy for slots left as None: a missing derivative is a
    central difference of phi_batch over all rows at once (of
    dphi_dtheta_batch for dphi_dlambda_dtheta); a lambda step that would
    leave lambda_domain, where phi need not be defined, is one-sided
    (numdiff.jacobian_in_box). The steps depend only on theta or lambda, so
    the fallback of a rowwise spec matches differencing each row on its
    own. A missing phi_jac_sum is the pair (phi_batch, dphi_dtheta_batch
    summed over the rows), so the mean theta-Jacobian, S over the row
    count, is then row_mean of dphi_dtheta_batch, bit for bit.
    A missing phi_loo_sum (jac_loo_sum) makes one phi_batch
    (dphi_dtheta_batch) call per theta and subtracts the problem's own row
    from the sum over all rows. The built-in models supply sum kernels from
    sufficient statistics, which agree with that to rounding; their
    phi_jac_sum shares its intermediates between F and S, and its F is
    phi_batch bit for bit.
    Each fallback reads the other slots at call time, through slot_values,
    so an error names the slot that was written, and is bound to its own
    instance. A slot that names the phi_batch it was made for, as its
    attribute phi_batch (each built-in slot does), is kept only beside that
    phi_batch, so dataclasses.replace(spec, phi_batch=g) of a built-in spec
    takes every fallback, and they evaluate g. A user's slot without the
    attribute is kept.

    Library code reads every slot through slot_values, which checks the
    result's shape against SLOT_SHAPES (and that the _FINITE_SLOTS and the F
    of phi_jac_sum are finite) and raises EvaluationError naming the slot;
    only solver._loo_means calls a sum slot raw, and checks it the same way.

    The Newton solve (solver.solve_theta) makes one phi_jac_sum call per
    iterate it evaluates, at its start and at each line-search candidate,
    and no phi_batch call. Exact LOOCV reads the slots that
    solver.solve_loo_all lists, once per evaluation at most for
    hess_phi_theta, whose fallback costs 2 p^2 + 1 phi_batch calls. Each
    of its Newton steps passes every active problem, up to n of them, to
    phi_loo_sum (jac_loo_sum) in one call, so a sum slot bounds its own
    temporaries: the fallbacks work one theta at a time, and the
    ridge-logistic kernels in blocks of problems.
    """

    p: int
    q: int
    phi_batch: Callable
    dphi_dtheta_batch: Optional[Callable] = None
    dphi_dlambda_batch: Optional[Callable] = None
    hess_phi_theta: Optional[Callable] = None
    dphi_dlambda_dtheta: Optional[Callable] = None
    phi_jac_sum: Optional[Callable] = None
    phi_loo_sum: Optional[Callable] = None
    jac_loo_sum: Optional[Callable] = None
    theta_domain: Optional[np.ndarray] = None
    lambda_domain: Optional[np.ndarray] = None
    theta_init: Optional[np.ndarray] = None  # default solver start, else clipped zeros

    def __post_init__(self):
        if min(self.p, self.q) < 1:
            raise EvaluationError("p and q must be positive")
        self.theta_domain = _check_box(self.theta_domain, self.p, "theta_domain")
        self.lambda_domain = _check_box(self.lambda_domain, self.q, "lambda_domain")
        if self.theta_init is None:
            self.theta_init = self.clip_theta(np.zeros(self.p))
        else:
            self.theta_init = np.asarray(self.theta_init, dtype=float)
            if self.theta_init.shape != (self.p,):
                raise EvaluationError("theta_init must have length p")
        _refill(self, "phi_batch", {
            "dphi_dtheta_batch": ModelSpec._fd_dphi_dtheta,
            "dphi_dlambda_batch": ModelSpec._fd_dphi_dlambda,
            "hess_phi_theta": ModelSpec._fd_hess_phi_theta,
            "dphi_dlambda_dtheta": ModelSpec._fd_dphi_dlambda_dtheta,
            "phi_jac_sum": ModelSpec._phi_and_summed_jac,
            "phi_loo_sum": ModelSpec._stacked_phi_loo_sum,
            "jac_loo_sum": ModelSpec._stacked_jac_loo_sum,
        })

    # -- fallbacks, bound to their instance by __post_init__ ----------------

    def _fd_dphi_dtheta(self, Z, th, lm):
        return numdiff.jacobian(lambda t: slot_values(self, "phi_batch", Z, t, lm), th)

    def _fd_dphi_dlambda(self, Z, th, lm):
        return numdiff.jacobian_in_box(
            lambda l: slot_values(self, "phi_batch", Z, th, l), lm, self.lambda_domain,
            numdiff.STEP_FIRST,
        )

    def _fd_hess_phi_theta(self, Z, th, lm):
        return numdiff.hessian(lambda t: slot_values(self, "phi_batch", Z, t, lm), th)

    def _fd_dphi_dlambda_dtheta(self, Z, th, lm):
        # (n, p, p, q) lambda-Jacobian of the theta-Jacobian, lambda axis moved to 1
        return np.moveaxis(
            numdiff.jacobian_in_box(
                lambda l: slot_values(self, "dphi_dtheta_batch", Z, th, l), lm,
                self.lambda_domain, numdiff.STEP_SECOND,
            ),
            -1, 1,
        )

    def _phi_and_summed_jac(self, Z, th, lm):
        # each part is read as its own slot, so that a failure names the slot
        # that was written, and phi_batch's comes before any Jacobian work
        return (
            slot_values(self, "phi_batch", Z, th, lm),
            row_sum(slot_values(self, "dphi_dtheta_batch", Z, th, lm)),
        )

    def _stacked_phi_loo_sum(self, Z, Th, rows, lm):
        out = np.empty((len(Th), self.p))
        for j, (th, i) in enumerate(zip(Th, rows)):
            F = slot_values(self, "phi_batch", Z, th, lm)
            out[j] = row_sum(F) - F[i]
        return out

    def _stacked_jac_loo_sum(self, Z, Th, rows, lm):
        out = np.empty((len(Th), self.p, self.p))
        for j, (th, i) in enumerate(zip(Th, rows)):
            G = slot_values(self, "dphi_dtheta_batch", Z, th, lm)
            with np.errstate(invalid="ignore"):  # inf - inf where row i's own entry is infinite
                out[j] = row_sum(G) - G[i]
        return out

    def clip_theta(self, theta):
        if self.theta_domain is None:
            return np.asarray(theta, dtype=float)
        return np.clip(theta, self.theta_domain[:, 0], self.theta_domain[:, 1])

    def theta_in_domain(self, theta):
        """Whether theta lies in theta_domain: a bool for one (p,) vector, an
        (n,) bool array for an (n, p) stack (a NaN entry lies outside a box)."""
        stack = np.ndim(theta) > 1
        if self.theta_domain is None:
            return np.ones(len(theta), dtype=bool) if stack else True
        lo, hi = self.theta_domain[:, 0], self.theta_domain[:, 1]
        inside = np.all((theta >= lo) & (theta <= hi), axis=-1)
        return inside if stack else bool(inside)


@dataclass
class LossSpec:
    """Loss psi: (z, theta) -> scalar with gradient and Hessian in theta.

    Every callable slot takes the (n, d) row matrix Z:
      psi_batch(Z, th)      -> (n,)
      grad_psi_batch(Z, th) -> (n, p)
      hess_psi(Z, th)       -> (n, p, p)
      psi_rowwise(Z, Th)    -> (n,)  psi(Z[i], Th[i]) with a per-row theta matrix

    psi(z, th) is the one-row evaluation psi_batch(z[None], th)[0]. Per-row
    code enters through rowwise: psi_batch=rowwise(psi) for a scalar
    psi(z, th).

    Fallback policy for slots left as None, as for ModelSpec: a missing
    derivative is a central difference of psi_batch over all rows at once,
    and a missing psi_rowwise evaluates psi row by row; each reads psi_batch
    through slot_values, as psi does. As for ModelSpec, a slot that names
    its psi_batch as its attribute psi_batch is kept only beside it, and
    every slot is called through slot_values, which checks its shape and
    that psi_batch and psi_rowwise are finite.
    """

    psi_batch: Callable
    grad_psi_batch: Optional[Callable] = None
    hess_psi: Optional[Callable] = None
    psi_rowwise: Optional[Callable] = None

    def __post_init__(self):
        # An instance attribute rather than a method, so that it can be
        # replaced and restored by identity like the slots.
        self.psi = lambda z, th: float(
            slot_values(self, "psi_batch", np.asarray(z, float)[None, :], th)[0]
        )
        _refill(self, "psi_batch", {
            "grad_psi_batch": LossSpec._fd_grad_psi,
            "hess_psi": LossSpec._fd_hess_psi,
            "psi_rowwise": LossSpec._psi_row_by_row,
        })

    def _fd_grad_psi(self, Z, th):
        return numdiff.jacobian(lambda t: slot_values(self, "psi_batch", Z, t), th)

    def _fd_hess_psi(self, Z, th):
        return numdiff.hessian(lambda t: slot_values(self, "psi_batch", Z, t), th)

    def _psi_row_by_row(self, Z, Th):
        return np.array([self.psi(z, t) for z, t in zip(Z, Th)], dtype=float)


# ---------------------------------------------------------------------------
# The one checked call of a slot, used throughout the solver, criteria and
# variance code.
# ---------------------------------------------------------------------------

# slot name -> the shape of its result, from the call's row matrix Z, its
# theta (the (k, p) stack Th of a leave-one-out sum slot, the per-row theta
# matrix of psi_rowwise) and the spec; for phi_jac_sum, the pair of the
# shapes of F and S
SLOT_SHAPES = {
    "phi_batch": lambda Z, th, m: (len(Z), m.p),
    "dphi_dtheta_batch": lambda Z, th, m: (len(Z), m.p, m.p),
    "dphi_dlambda_batch": lambda Z, th, m: (len(Z), m.p, m.q),
    "hess_phi_theta": lambda Z, th, m: (len(Z), m.p, m.p, m.p),
    "dphi_dlambda_dtheta": lambda Z, th, m: (len(Z), m.q, m.p, m.p),
    "phi_jac_sum": lambda Z, th, m: ((len(Z), m.p), (m.p, m.p)),
    "phi_loo_sum": lambda Z, Th, m: (len(Th), m.p),
    "jac_loo_sum": lambda Z, Th, m: (len(Th), m.p, m.p),
    "psi_batch": lambda Z, th, loss: (len(Z),),
    "grad_psi_batch": lambda Z, th, loss: (len(Z), len(th)),
    "hess_psi": lambda Z, th, loss: (len(Z), len(th), len(th)),
    "psi_rowwise": lambda Z, Th, loss: (len(Z),),
}
# the other derivative slots may be non-finite: solve_loo_all rejects a problem
# whose leave-one-out Jacobian is; only theta_prime and eta_matrix read this one
_FINITE_SLOTS = ("phi_batch", "dphi_dlambda_batch", "psi_batch", "psi_rowwise")


def _checked(slot, values, want, finite):
    out = np.asarray(values, dtype=float)
    if out.shape != want:
        raise EvaluationError(f"{slot} returned shape {out.shape}, expected {want}")
    if finite and not np.isfinite(out).all():
        raise EvaluationError(f"{slot} produced non-finite values")
    return out


def slot_values(spec, slot: str, Z: np.ndarray, theta, *rest):
    """spec.<slot>(Z, theta, *rest) as a float array of the shape SLOT_SHAPES
    gives, else EvaluationError; the values of phi_batch, dphi_dlambda_batch,
    psi_batch and psi_rowwise must also be finite. phi_jac_sum gives the pair
    (F, S) of float arrays, each part checked against its shape, and F must
    be finite."""
    got = getattr(spec, slot)(Z, theta, *rest)
    want = SLOT_SHAPES[slot](Z, theta, spec)
    if slot != "phi_jac_sum":
        return _checked(slot, got, want, slot in _FINITE_SLOTS)
    if not (isinstance(got, (tuple, list)) and len(got) == 2):
        raise EvaluationError(f"{slot} returned {type(got).__name__}, expected a pair (F, S)")
    return _checked(slot, got[0], want[0], True), _checked(slot, got[1], want[1], False)


def row_sum(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=0) of a float64 array, bit for bit (a NaN's sign bit aside).

    The one reduction over rows of the library: every mean over rows is
    row_sum / n (row_mean), and every leave-one-out sum starts from it.
    numpy's sum adds the rows in order when A is C-contiguous and its rows
    hold more than one entry; np.einsum("i...->...", A) adds them in the
    same order with less per-row overhead. Rows of one entry, or another
    layout, numpy sums pairwise, and einsum does not, so those take
    A.sum(axis=0).
    """
    if A.flags.c_contiguous and A.size > len(A):
        return np.einsum("i...->...", A)
    return A.sum(axis=0)


def row_mean(A) -> np.ndarray:
    """A.mean(axis=0) of a float array, bit for bit: numpy's float64 mean is
    the same sum, row_sum's, divided by the row count."""
    A = np.asarray(A, dtype=float)
    return row_sum(A) / len(A)
