"""Command-line front end.

Subcommands: fit, tune, variance, simulate, bootstrap, stone-check. All
outputs are machine-readable JSON/CSV with a top-level schema_version; reruns
with the same config and seed produce byte-identical files. Exit codes:
0 success, 1 numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .criteria import Method, evaluate_criterion, loocv_exact, te_trace_corrected
from .exceptions import SchemaError, TunevarError
from .harness import DGPKind, DGPSpec, PipelineConfig, bootstrap, replicate, simulate
from .model import Dataset, ModelSpec, read_numeric_csv
from .models import (
    GaussianLikelihoodModel,
    RidgeLinearModel,
    RidgeLogisticModel,
    make_pima_model,
)
from .rng import derive_stream
from .solver import solve_theta, theta_prime
from .tuner import BoundaryStatus, FitResult, tune
from .variance import select_variance

SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Serialization. json's repr-based float output is the shortest exact
# round-trip (<= 17 significant digits); rounding through %.17g keeps the
# emitted bytes pinned to that contract. Non-finite floats are written as
# null, so every file is strict JSON.
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}") if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def _write_json(path: Path, payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **_jsonify(payload)}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{float(v):.17g}" for v in row])


def fit_result_to_dict(fit: FitResult) -> dict:
    return {
        "theta_hat": fit.theta_hat,
        "lambda_hat": fit.lambda_hat,
        "D_hat": fit.D_hat,
        "boundary_status": [s.value for s in fit.boundary_status],
        "criterion": fit.criterion.value,
        "criterion_value": fit.criterion_value,
        "criterion_slope_at_opt": fit.criterion_slope_at_opt,
        "lambda_box": fit.lambda_box,
        "trace": [list(lam) + [val] for lam, val in fit.trace],
        "diagnostics": fit.diagnostics,
    }


def fit_result_from_dict(d: dict) -> FitResult:
    trace = tuple(
        (tuple(float(v) for v in row[:-1]), float(row[-1])) for row in d["trace"]
    )
    return FitResult(
        theta_hat=np.asarray(d["theta_hat"], float),
        lambda_hat=np.asarray(d["lambda_hat"], float),
        D_hat=np.asarray(d["D_hat"], float),
        boundary_status=tuple(BoundaryStatus(s) for s in d["boundary_status"]),
        criterion=Method(d["criterion"]),
        criterion_value=float(d["criterion_value"]),
        criterion_slope_at_opt=np.asarray(d["criterion_slope_at_opt"], float),
        trace=trace,
        lambda_box=np.asarray(d["lambda_box"], float),
        diagnostics=dict(d.get("diagnostics", {})),
    )


def _check_in_box(lam, box, what: str) -> None:
    """SchemaError unless every lam[j] lies in [box[j, 0], box[j, 1]]."""
    if not np.all((box[:, 0] <= lam) & (lam <= box[:, 1])):
        raise SchemaError(
            f"{what} {lam.tolist()} lies outside the model's lambda box "
            f"{box.tolist()}"
        )


def load_fit_json(path, spec: ModelSpec) -> FitResult:
    """Read a fit.json record for spec.

    SchemaError on a record that is not a JSON object, another
    schema_version, a missing field or one of the wrong type, a lambda_box
    other than the model's lambda box (the CLI's --lambda-min/--lambda-max),
    or a lambda_hat outside that box. select_variance checks the fit's
    shapes and the fit against the data (tuner.check_fit).
    """
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise SchemaError(f"fit.json holds a JSON {type(d).__name__}, not an object")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {d.get('schema_version')}")
    try:
        fit = fit_result_from_dict(d)
    except KeyError as exc:
        raise SchemaError(f"fit.json has no field {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"fit.json is not a fit record: {exc}") from None
    box = spec.lambda_domain  # every CLI model has one
    if not np.array_equal(fit.lambda_box, box):
        raise SchemaError(
            f"fit.json lambda_box {fit.lambda_box.tolist()} differs from the model's "
            f"lambda box {box.tolist()}; the fit was made in another box"
        )
    _check_in_box(fit.lambda_hat, box, "fit.json lambda_hat")
    return fit


# ---------------------------------------------------------------------------
# Input handling.
# ---------------------------------------------------------------------------

def load_csv(path, response_col: int = 0) -> Dataset:
    """Generic numeric CSV with a header row; errors name the offending line.

    The one place that picks the response: column response_col moves to
    position 0 and the covariates keep their order, giving the
    (response, covariates...) rows every built-in model reads.
    """
    rows = read_numeric_csv(path)[0]
    d = rows.shape[1]
    if not 0 <= response_col < d:
        raise SchemaError(f"response column {response_col} out of range for {d} columns")
    order = [response_col] + [j for j in range(d) if j != response_col]
    # np.take keeps the rows C-ordered (rows[:, order] would not), and the
    # layout decides the rounding of the models' matrix products
    return Dataset(np.take(rows, order, axis=1))


def model_pair(name: str, n_covariates: int, box, predictor_covariates):
    """(ModelSpec, LossSpec) of the built-in model name with lambda box box: a
    ridge model on n_covariates covariates (ridge-logistic's Brier loss scores
    predictor_covariates only, None for all), or gaussian, whose box is fixed."""
    if name == "ridge-linear":
        m = RidgeLinearModel(n_covariates=n_covariates, lambda_domain=box)
        return m.spec(), m.squared_error_loss()
    if name == "ridge-logistic":
        m = RidgeLogisticModel(n_covariates=n_covariates, lambda_domain=box)
        return m.spec(), m.brier_loss(predictor_covariates=predictor_covariates)
    if name == "gaussian":
        m = GaussianLikelihoodModel()
        spec = m.spec()
        if not np.array_equal([box], spec.lambda_domain):
            raise SchemaError(
                f"--lambda-min/--lambda-max give the box {list(box)}; --model gaussian "
                f"has the fixed box {spec.lambda_domain[0].tolist()} (its lambda is inert)"
            )
        return spec, m.neg_loglik_loss()
    raise SchemaError(f"unknown model {name!r}")


def _load_data_and_model(args):
    if args.model == "pima":
        if args.response_col is not None:
            raise SchemaError("--response-col does not apply to --model pima, "
                              "whose response is the Outcome column")
        return make_pima_model(args.data, lambda_domain=(args.lambda_min, args.lambda_max))
    data = load_csv(args.data, response_col=args.response_col or 0)
    return (data, *model_pair(args.model, data.d - 1, (args.lambda_min, args.lambda_max), None))


def _pipeline_config(args, spec, loss) -> PipelineConfig:
    return PipelineConfig(
        model=spec, loss=loss, method=Method(args.criterion),
        grid_size=args.grid_size, split=args.split,
    )


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_fit(args, out: Path) -> int:
    data, spec, loss = _load_data_and_model(args)
    method = Method(args.criterion)
    lam = np.array([args.lam])
    _check_in_box(lam, spec.lambda_domain, "--lam")
    res = solve_theta(spec, data, lam, spec.theta_init)
    cv = evaluate_criterion(
        method, spec, loss, data, res.lam, solve=res, split=args.split, seed=args.seed,
    )
    fit = FitResult(
        theta_hat=res.theta_hat, lambda_hat=res.lam, D_hat=theta_prime(spec, data, res),
        boundary_status=(BoundaryStatus.FIXED,) * spec.q, criterion=method,
        criterion_value=cv.value, criterion_slope_at_opt=np.zeros(spec.q),
        trace=((tuple(res.lam.tolist()), cv.value),), lambda_box=spec.lambda_domain,
        diagnostics={"solver_iterations": float(res.iterations),
                     "residual_norm": res.residual_norm, **cv.diagnostics},
    )
    _write_json(out / "fit.json", fit_result_to_dict(fit))
    return 0


def _tune(args, spec, loss, data, out: Path) -> FitResult:
    """Tune with the CLI's criterion flags and write the fit to out/fit.json."""
    fit = tune(
        spec, loss, data, Method(args.criterion),
        grid_size=args.grid_size, seed=args.seed, split=args.split,
    )
    _write_json(out / "fit.json", fit_result_to_dict(fit))
    return fit


def cmd_tune(args, out: Path) -> int:
    data, spec, loss = _load_data_and_model(args)
    fit = _tune(args, spec, loss, data, out)
    _write_csv(
        out / "trace.csv",
        [f"lambda_{j + 1}" for j in range(spec.q)] + ["value"],
        [list(lam) + [val] for lam, val in fit.trace],
    )
    return 0


def cmd_variance(args, out: Path) -> int:
    data, spec, loss = _load_data_and_model(args)
    if args.fit:
        fit = load_fit_json(args.fit, spec)
    else:
        fit = _tune(args, spec, loss, data, out)
    report = select_variance(spec, loss, data, fit)
    _write_json(out / "variance.json", {
        "V1": report.V1,
        "V2": report.V2,
        "selected": report.selected,
        "standard_errors": report.standard_errors,
        "boundary_status": [s.value for s in fit.boundary_status],
        "nondegenerate_boundary": bool(report.nondegenerate_boundary),
        "J_hat": report.components.J_hat,
        "K_hat": report.components.K_hat,
    })
    return 0


def _linear_dgp(args, n: int) -> DGPSpec:
    return DGPSpec(
        DGPKind.LINEAR_GAUSSIAN, n=n,
        params={"beta": tuple(args.beta), "sigma": args.sigma, "coef_sq": args.coef_sq},
    )


def _dgp_from_args(args) -> DGPSpec:
    if args.dgp == "gaussmix":
        return DGPSpec(DGPKind.GAUSSMIX_C, n=args.n, params={"C": args.C})
    if args.dgp == "linear":
        return _linear_dgp(args, args.n)
    if args.dgp == "logistic":
        return DGPSpec(DGPKind.LOGISTIC_TRUE, n=args.n, params={"beta": tuple(args.beta)})
    raise SchemaError(f"unknown dgp {args.dgp!r}")


def _write_summary(out: Path, summary, extra=None) -> None:
    err1, err2 = summary.abs_errors()
    _write_json(out / "summary.json", {
        "n": summary.n,
        "requested": summary.requested,
        "completed": len(summary.theta_draws),
        "failure_indices": list(summary.failure_indices),
        "boundary_count": summary.boundary_count,
        "empirical_variance": summary.empirical_variance,
        "mean_V1": summary.mean_V1,
        "mean_V2": summary.mean_V2,
        "abs_error_V1": err1,
        "abs_error_V2": err2,
        **(extra or {}),
    })
    q = summary.lambda_draws.shape[1]
    p = summary.theta_draws.shape[1]
    _write_csv(
        out / "draws.csv",
        [f"lambda_{j + 1}" for j in range(q)] + [f"theta_{k + 1}" for k in range(p)],
        np.column_stack([summary.lambda_draws, summary.theta_draws]),
    )


def cmd_simulate(args, out: Path) -> int:
    dgp = _dgp_from_args(args)
    mix = args.dgp == "gaussmix"  # its criterion scores a sub-model prediction on x_1 only
    spec, loss = model_pair("ridge-linear" if args.dgp == "linear" else "ridge-logistic",
                            2 if mix else len(args.beta) - 1,
                            (args.lambda_min, args.lambda_max), [0] if mix else None)
    config = _pipeline_config(args, spec, loss)
    summary = replicate(dgp, config, B=args.B, seed=args.seed)
    _write_summary(out, summary, extra={"dgp": args.dgp, "C": args.C})
    return 0


def cmd_bootstrap(args, out: Path) -> int:
    data, spec, loss = _load_data_and_model(args)
    config = _pipeline_config(args, spec, loss)
    summary = bootstrap(data, config, B=args.B, seed=args.seed)
    _write_summary(out, summary)
    return 0


def cmd_stone_check(args, out: Path) -> int:
    """Scaled gap n * |CV_exact - trace-corrected TE| on a grid of sample sizes."""
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    rows = []
    medians = {}
    lam = np.array([args.lam])
    spec, loss = model_pair("ridge-linear", len(args.beta) - 1, (0.0, 1.0), None)
    _check_in_box(lam, spec.lambda_domain, "--lam")
    for n in args.n_list:
        gaps = []
        dgp = _linear_dgp(args, n)
        for r in range(args.reps):
            data = simulate(dgp, seed=derive_stream(args.seed, 1000 * n + r))
            res = solve_theta(spec, data, lam, spec.theta_init)
            cv = loocv_exact(spec, loss, data, lam, solve=res)
            tc = te_trace_corrected(spec, loss, data, lam, solve=res)
            gap = n * abs(cv.value - tc.value)
            gaps.append(gap)
            rows.append((n, r, gap))
        medians[str(n)] = float(np.median(gaps))
    _write_json(out / "summary.json", {
        "lambda": args.lam, "reps": args.reps, "scaled_gap_median_by_n": medians,
    })
    _write_csv(out / "draws.csv", ["n", "rep", "scaled_gap"], rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

# Flags that some paths of a subcommand do not read, dest -> (flag, default).
# They parse to None, and _resolve_flags fills in the default.
_PATH_FLAGS = {
    "criterion": ("--criterion", Method.CV_EXACT.value),
    "grid_size": ("--grid-size", 20),
    "split": ("--split", 0.5),
    "seed": ("--seed", 0),
    "C": ("--C", 0.0),
    "beta": ("--beta", (1.0, 1.0)),
    "sigma": ("--sigma", 1.0),
    "coef_sq": ("--coef-sq", 0.0),
}
# subcommands that draw or resample data from --seed whatever the criterion
_SEEDED = ("simulate", "bootstrap", "stone-check")
# the DGP flags that each --dgp reads
_DGP_READS = {"gaussmix": {"C"}, "linear": {"beta", "sigma", "coef_sq"}, "logistic": {"beta"}}


def _resolve_flags(args) -> None:
    """Fill in the defaults of _PATH_FLAGS; SchemaError naming each of them
    that was given but that the chosen path does not read.

    variance --fit takes lambda-hat from the record and reads none of them.
    Every other path reads --criterion and --grid-size, and --split and
    --seed only under --criterion holdout; a subcommand in _SEEDED always
    reads --seed. simulate reads the DGP flags of its --dgp (_DGP_READS),
    and stone-check, whose DGP is linear, reads all of its own.
    """
    fixed = getattr(args, "fit", None) is not None
    criterion = getattr(args, "criterion", None) or _PATH_FLAGS["criterion"][1]
    path = "--fit" if fixed else f"--criterion {criterion}"
    reads = set()
    if not fixed:
        reads |= {"criterion", "grid_size"}
        if criterion == Method.HOLDOUT.value:
            reads |= {"split", "seed"}
    if args.command in _SEEDED:
        reads.add("seed")
    if args.command == "simulate":
        reads |= _DGP_READS[args.dgp]
        path += f" --dgp {args.dgp}"
    elif args.command == "stone-check":
        reads |= _DGP_READS["linear"]
    ignored = [flag for dest, (flag, _) in _PATH_FLAGS.items()
               if getattr(args, dest, None) is not None and dest not in reads]
    if ignored:
        raise SchemaError(f"{args.command} {path} does not read {', '.join(ignored)}")
    for dest, (_, default) in _PATH_FLAGS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, default)


def _add_common(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None)


def _add_criterion(p):  # what a fit at one lambda reads
    p.add_argument("--criterion", default=None,
                   choices=[m.value for m in Method])
    p.add_argument("--lambda-min", type=float, default=0.0, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, default=1.0, dest="lambda_max")
    p.add_argument("--split", type=float, default=None)


def _add_tuning(p):
    _add_criterion(p)
    p.add_argument("--grid-size", type=int, default=None, dest="grid_size")


def _add_data_model(p):
    p.add_argument("--data", required=True, help="input CSV (header row)")
    p.add_argument("--model", default="ridge-linear",
                   choices=["ridge-linear", "ridge-logistic", "gaussian", "pima"])
    p.add_argument("--response-col", type=int, default=None, dest="response_col",
                   help="response column of the CSV (default 0); not with --model pima")


def _add_linear_dgp(p):
    p.add_argument("--beta", type=float, nargs="+", default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--coef-sq", type=float, default=None, dest="coef_sq")


def _add_dgp(p):
    p.add_argument("--dgp", default="linear", choices=list(_DGP_READS))
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--C", type=float, default=None)
    _add_linear_dgp(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tunevar",
        description="Tuning-aware inference for Z-estimators with tuned hyperparameters",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *groups):
        """A subcommand with --out, --seed and the flags of each group."""
        p = sub.add_parser(name, help=summary)
        for group in (_add_common, *groups):
            group(p)
        p.set_defaults(func=func)
        return p

    p = add("fit", cmd_fit, "solve the estimating equation at a fixed lambda",
            _add_criterion, _add_data_model)
    p.add_argument("--lam", type=float, default=0.0)
    add("tune", cmd_tune, "minimize a risk criterion over the tuning box",
        _add_tuning, _add_data_model)
    p = add("variance", cmd_variance, "tuning-aware and pointwise variance report",
            _add_tuning, _add_data_model)
    p.add_argument("--fit", default=None, help="reuse a previously written fit.json")
    p = add("simulate", cmd_simulate, "Monte Carlo replication study", _add_tuning, _add_dgp)
    p.add_argument("--B", type=int, default=100)
    p = add("bootstrap", cmd_bootstrap, "nonparametric bootstrap of the tuned fit",
            _add_tuning, _add_data_model)
    p.add_argument("--B", type=int, default=200)
    p = add("stone-check", cmd_stone_check,
            "scaled CV-vs-corrected-TE gap across sample sizes", _add_linear_dgp)
    p.add_argument("--n-list", type=int, nargs="+", default=[200, 800], dest="n_list")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--lam", type=float, default=0.1)

    return ap


def _error_payload(exc: Exception, kind: str) -> str:
    payload = {"schema_version": SCHEMA_VERSION,
               "error": {"type": type(exc).__name__, "kind": kind, "message": str(exc)}}
    if isinstance(exc, SchemaError) and exc.line is not None:
        payload["error"]["line"] = exc.line
    return json.dumps(payload, sort_keys=True)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    out = Path(args.out)
    try:
        _resolve_flags(args)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out)
    except (SchemaError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(_error_payload(exc, "input") + "\n")
        return 2
    except TunevarError as exc:
        sys.stderr.write(_error_payload(exc, "numerical") + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
