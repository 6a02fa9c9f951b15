"""Print one sha256 per file that a fixed set of tunevar CLI runs writes.

Two checkouts whose digests agree write byte-identical CLI outputs. The
inputs are drawn with tunevar.simulate from fixed seeds, and every run goes
through tunevar.cli.main in this process. To compare a change with its
parent, run the script against each checkout's sources and diff the output:

    PYTHONPATH=src python tools/cli_digest.py > new.txt
    PYTHONPATH=../parent/src python tools/cli_digest.py > old.txt
    diff old.txt new.txt

Runs: fit, tune and variance for each built-in generic model (ridge-linear,
ridge-logistic, gaussian) under each of the criteria cv, cv_fast, te,
te_trace, tic and holdout (the seeded Fisher-Yates split at the default
--split and --seed); variance --fit on each model's fixed-lambda record
(variance-fixed) and on its cv_fast tuned record (variance-tuned); fit
--criterion cv on n = 300 ridge-logistic and gaussian inputs, where a
leave-one-out Newton step spans several ridge-logistic kernel blocks
(models.LOO_BLOCK); tune and variance under cv_fast for --model pima on
a 9-column input whose rows with a zero in a zero-is-missing column
load_pima_csv drops, and variance --fit on its tuned record; simulate with --dgp gaussmix and with --dgp
logistic, bootstrap and stone-check; an
intercept-only linear simulate whose replications all end on the box edge,
so its summary holds null (non-finite) entries; and a ridge-linear fit at
--lam 0 on an input whose two covariate columns are equal, which ends in
SingularJacobian at its first Newton step. A run that exits non-zero
prints its exit code, and a run that writes to stderr (a failed run's JSON
error payload) leaves it in stderr.txt in its output directory, so error
messages are digested too. --out keeps the files for a byte-level cmp; by
default they go to a temporary directory.

--compare OLD_DIR NEW_DIR runs nothing. It reads two --out directories and
prints each file whose bytes differ, with the largest relative difference
|a - b| / max(|a|, |b|) over its numeric JSON values and CSV cells and where
it is (a JSON key path such as "criterion_slope_at_opt[0]", or a CSV "line
3, column value"), or "non-numeric" when a key, a string or the number of
values changed. It exits 1 if any file differs:

    PYTHONPATH=../parent/src python tools/cli_digest.py --out old
    PYTHONPATH=src python tools/cli_digest.py --out new
    PYTHONPATH=src python tools/cli_digest.py --compare old new
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from tunevar import DGPKind, DGPSpec, simulate
from tunevar.cli import main as cli_main
from tunevar.models import PIMA_COVARIATES

CRITERIA = ("cv", "cv_fast", "te", "te_trace", "tic", "holdout")

# model -> (input DGP, seed, fixed lambda for fit)
INPUTS = {
    "ridge-linear": (DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=120,
                             params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5}), 7, 0.1),
    "ridge-logistic": (DGPSpec(DGPKind.LOGISTIC_TRUE, n=150,
                               params={"beta": (0.3, 1.0, -0.5)}), 8, 0.01),
    # the model reads y = 0.4 + 1.3 eps and ignores the covariate
    "gaussian": (DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=60,
                         params={"beta": (0.4, 0.0), "sigma": 1.3}), 9, 0.0),
}

# model -> (input DGP, seed, fixed lambda) of the fit --criterion cv runs at n = 300
LARGE_INPUTS = {
    "ridge-logistic": (DGPSpec(DGPKind.LOGISTIC_TRUE, n=300,
                               params={"beta": (0.3, 1.0, -0.5)}), 18, 0.01),
    "gaussian": (DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=300,
                         params={"beta": (0.4, 0.0), "sigma": 1.3}), 19, 0.0),
}

# (input DGP, seed) of a ridge-linear fit at lambda = 0 whose two covariate
# columns are made equal, so that its first Newton step raises SingularJacobian
SINGULAR_INPUT = (DGPSpec(DGPKind.LINEAR_GAUSSIAN, n=40,
                          params={"beta": (1.0, 1.0, 0.5), "coef_sq": 0.5}), 11)

# (input DGP, seed) of the --model pima runs: 8 covariates, Outcome moved last
PIMA_INPUT = (DGPSpec(DGPKind.LOGISTIC_TRUE, n=150,
                      params={"beta": (-0.5, 0.4, 1.0, -0.3, 0.2, 0.0, 0.6, 0.3, 0.2)}), 10)
# (row, covariate) cells set to 0 in glucose, pressure, triceps, insulin, BMI
PIMA_ZEROS = ((3, 1), (17, 2), (17, 4), (40, 3), (88, 5))


def write_csv(path: Path, rows, header=None) -> None:
    header = header or ["y"] + [f"x{j}" for j in range(1, rows.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def runs(root: Path):
    """(name, argv) pairs; outputs land in root / name."""
    for model, (dgp, seed, lam) in INPUTS.items():
        csv = root / "inputs" / f"{model}.csv"
        write_csv(csv, simulate(dgp, seed).rows)
        data = ["--data", str(csv), "--model", model]
        tuned = [*data, "--grid-size", "8"]  # fit takes no grid
        for crit in CRITERIA:
            yield f"{model}/{crit}/fit", ["fit", *data, "--criterion", crit,
                                          "--lam", str(lam)]
            yield f"{model}/{crit}/tune", ["tune", *tuned, "--criterion", crit]
            yield f"{model}/{crit}/variance", ["variance", *tuned, "--criterion", crit]
        fixed = root / model / "cv_fast" / "fit" / "fit.json"
        yield f"{model}/variance-fixed", ["variance", *data, "--fit", str(fixed)]
        tuned_fit = root / model / "cv_fast" / "tune" / "fit.json"
        yield f"{model}/variance-tuned", ["variance", *data, "--fit", str(tuned_fit)]
    for model, (dgp, seed, lam) in LARGE_INPUTS.items():
        csv = root / "inputs" / f"{model}-n300.csv"
        write_csv(csv, simulate(dgp, seed).rows)
        yield f"{model}/cv-n300/fit", ["fit", "--data", str(csv), "--model", model,
                                       "--criterion", "cv", "--lam", str(lam)]
    dgp, seed = SINGULAR_INPUT
    rows = simulate(dgp, seed).rows
    rows[:, 2] = rows[:, 1]
    csv = root / "inputs" / "ridge-linear-singular.csv"
    write_csv(csv, rows)
    yield "ridge-linear/singular/fit", ["fit", "--data", str(csv), "--model", "ridge-linear",
                                        "--lam", "0"]
    dgp, seed = PIMA_INPUT
    rows = np.roll(simulate(dgp, seed).rows, -1, axis=1)
    rows[tuple(zip(*PIMA_ZEROS))] = 0.0
    csv = root / "inputs" / "pima.csv"
    write_csv(csv, rows, header=[*PIMA_COVARIATES, "Outcome"])
    data = ["--data", str(csv), "--model", "pima"]
    for cmd in ("tune", "variance"):
        yield f"pima/cv_fast/{cmd}", [cmd, *data, "--criterion", "cv_fast", "--grid-size", "8"]
    yield "pima/variance-tuned", ["variance", *data, "--fit",
                                  str(root / "pima" / "cv_fast" / "tune" / "fit.json")]
    common = ["--criterion", "cv_fast", "--grid-size", "8", "--seed", "3"]
    yield "simulate", ["simulate", *common, "--dgp", "gaussmix", "--C", "2",
                       "--n", "100", "--B", "5", "--lambda-max", "0.1"]
    yield "simulate-logistic", ["simulate", *common, "--dgp", "logistic",
                                "--beta", "0.3", "1.0", "-0.5", "--n", "100", "--B", "5"]
    yield "simulate-boundary", ["simulate", "--dgp", "linear", "--beta", "0.4",
                                "--n", "40", "--B", "3"]
    yield "bootstrap", ["bootstrap", *common, "--data",
                        str(root / "inputs" / "ridge-linear.csv"), "--B", "5"]
    yield "stone-check", ["stone-check", "--n-list", "60", "120", "--reps", "3",
                          "--seed", "3"]


def digest_all(root: Path) -> list[str]:
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    lines = []
    for name, argv in runs(root):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli_main([*argv, "--out", str(root / name)])
        if err.getvalue():
            (root / name).mkdir(parents=True, exist_ok=True)
            (root / name / "stderr.txt").write_text(err.getvalue())
        if rc != 0:
            lines.append(f"exit {rc}  {name}")
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{sha}  {path.relative_to(root).as_posix()}")
    return lines


def _tokens(path: Path):
    """(where, value) for the values of a JSON or CSV file in reading order,
    numbers as floats and everything else (keys, strings, flags, null) as
    is. where is the JSON key path (a key's own path is its value's), or
    "line L, column C" in a CSV, C being the header cell of its column."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header = []
            for line, row in enumerate(csv.reader(fh), start=1):
                header = header or row
                for j, cell in enumerate(row):
                    where = f"line {line}, column {header[j] if j < len(header) else j}"
                    try:
                        yield where, float(cell)
                    except ValueError:
                        yield where, cell
        return

    def walk(value, where):
        if isinstance(value, dict):
            for key, item in value.items():
                child = f"{where}.{key}" if where else key
                yield child, key
                yield from walk(item, child)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from walk(item, f"{where}[{i}]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield where, float(value)
        else:
            yield where, value

    yield from walk(json.loads(path.read_text()), "")


def max_rel_diff(old: Path, new: Path):
    """(drift, where): the largest |a - b| / max(|a|, |b|) over the numbers
    of two JSON or CSV files and the place of the first number that reaches
    it (None when no number moved), or None if anything but a number
    differs."""
    a, b = list(_tokens(old)), list(_tokens(new))
    if len(a) != len(b):
        return None
    worst, at = 0.0, None
    for (where, x), (_, y) in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                rel = abs(x - y) / max(abs(x), abs(y))
                if rel > worst:
                    worst, at = rel, where
        elif x != y:
            return None
    return worst, at


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per file that is not byte-identical in the two directories."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old, new = files(old_dir), files(new_dir)
    lines = [f"only in {old_dir}  {name}" for name in sorted(old - new)]
    lines += [f"only in {new_dir}  {name}" for name in sorted(new - old)]
    for name in sorted(old & new):
        a, b = old_dir / name, new_dir / name
        if a.read_bytes() == b.read_bytes():
            continue
        drift = max_rel_diff(a, b) if a.suffix in (".json", ".csv") else None
        if drift is None:
            lines.append(f"non-numeric  {name}")
        else:
            rel, where = drift
            lines.append(f"{rel:.3e}  {name}" + (f"  at {where}" if where else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--out", default=None, help="keep the outputs in this directory")
    group.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                       help="compare two --out directories instead of running")
    args = ap.parse_args(argv)
    if args.compare is not None:
        lines = compare(*map(Path, args.compare))
        if lines:
            print("\n".join(lines))
        return 1 if lines else 0
    if args.out is not None:
        lines = digest_all(Path(args.out))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digest_all(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
