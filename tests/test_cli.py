import json

import numpy as np
import pytest

from tunevar import Dataset, Method, RidgeLinearModel, select_variance, tune
from tunevar.cli import _write_json, fit_result_to_dict, load_csv, load_fit_json, main

from conftest import make_linear_data, make_logistic_data


def _write_data_csv(path, data):
    with open(path, "w") as fh:
        fh.write("y," + ",".join(f"x{j}" for j in range(1, data.d)) + "\n")
        for row in data.rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


@pytest.fixture
def data_csv(tmp_path):
    data = make_linear_data(n=120, seed=1, coef_sq=0.5)
    p = tmp_path / "data.csv"
    _write_data_csv(p, data)
    return p, data


def test_tune_matches_library_call(data_csv, tmp_path):
    path, data = data_csv
    out = tmp_path / "out"
    rc = main(["tune", "--data", str(path), "--criterion", "cv_fast",
               "--grid-size", "10", "--out", str(out)])
    assert rc == 0
    fit_file = out / "fit.json"
    trace_file = out / "trace.csv"
    assert fit_file.exists() and trace_file.exists()
    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    fit = load_fit_json(fit_file, m.spec())

    direct = tune(m.spec(), m.squared_error_loss(), data, Method.CV_FAST, grid_size=10)
    assert np.allclose(fit.lambda_hat, direct.lambda_hat)
    assert np.allclose(fit.theta_hat, direct.theta_hat)
    assert fit.criterion_value == direct.criterion_value

    lines = trace_file.read_text().strip().splitlines()
    assert lines[0] == "lambda_1,value"
    assert len(lines) == 1 + len(direct.trace)


def test_rerun_byte_identical(data_csv, tmp_path):
    path, _ = data_csv
    o1, o2 = tmp_path / "a", tmp_path / "b"
    for out in (o1, o2):
        rc = main(["tune", "--data", str(path), "--criterion", "cv_fast",
                   "--grid-size", "8", "--out", str(out)])
        assert rc == 0
    assert (o1 / "fit.json").read_bytes() == (o2 / "fit.json").read_bytes()
    assert (o1 / "trace.csv").read_bytes() == (o2 / "trace.csv").read_bytes()


def test_fit_fixed_lambda(data_csv, tmp_path):
    path, data = data_csv
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--lam", "0.25", "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "fit.json").read_text())
    assert d["schema_version"] == 3
    from tunevar import ridge_closed_form

    assert np.allclose(d["theta_hat"], ridge_closed_form(data, 0.25), atol=1e-8)
    assert d["lambda_hat"] == [0.25]
    assert d["boundary_status"] == ["fixed"]


def test_fixed_lambda_fit_gets_pointwise_variance(tmp_path):
    # the tuned lambda on these data is about 0.03; at lambda = 0.9 fixed in
    # advance theta_hat is a plain Z-estimator and V2 is its variance
    path = tmp_path / "data.csv"
    _write_data_csv(path, make_linear_data(n=200, seed=0, coef_sq=0.5))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--lam", "0.9", "--out", str(out)]) == 0
    assert main(["variance", "--data", str(path), "--fit", str(out / "fit.json"),
                 "--out", str(out)]) == 0
    v = json.loads((out / "variance.json").read_text())
    assert v["selected"] == "V2"
    assert v["V1"] is None
    assert v["boundary_status"] == ["fixed"]
    assert not v["nondegenerate_boundary"]


def test_fit_json_round_trips_byte_identical(data_csv, tmp_path):
    # every fit.json the CLI writes goes through the one writer; reading it
    # back with the one reader and writing it again gives the same bytes
    path, data = data_csv
    common = ["--data", str(path), "--criterion", "cv_fast"]
    tuned = [*common, "--grid-size", "8"]
    runs = {"fit": ["fit", *common, "--lam", "0.3"], "tune": ["tune", *tuned],
            "variance": ["variance", *tuned]}
    spec = RidgeLinearModel(2, lambda_domain=(0.0, 1.0)).spec()
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        fit = load_fit_json(out / "fit.json", spec)
        _write_json(out / "again.json", fit_result_to_dict(fit))
        assert (out / "again.json").read_bytes() == (out / "fit.json").read_bytes()


def test_fit_json_on_other_data_exits_2(data_csv, tmp_path, capsys):
    path, _ = data_csv
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--lam", "0.2", "--out", str(out)]) == 0
    other = tmp_path / "other.csv"
    _write_data_csv(other, make_linear_data(n=120, seed=2, coef_sq=0.5))
    # a wider CSV (three covariates, p = 4) and same-shape CSVs with other rows
    wide = tmp_path / "wide.csv"
    _write_data_csv(wide, make_linear_data(n=120, seed=1, beta=(1.0, 1.0, 0.5, -0.5)))
    subset = tmp_path / "subset.csv"
    _write_data_csv(subset, Dataset(np.loadtxt(path, delimiter=",", skiprows=1)[1:]))
    for csv_path, field in ((wide, "theta_hat"), (other, "residual"),
                            (subset, "residual")):
        rc = main(["variance", "--data", str(csv_path), "--fit", str(out / "fit.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "ValueError"
        assert field in err["error"]["message"]


# a record that does not parse is refused by load_fit_json, one of another
# shape by tuner.check_fit, which select_variance calls
_UNPARSED, _SHAPE = ("SchemaError", "fit.json"), ("ValueError", "fit trace")


@pytest.mark.parametrize("record, want", [
    ({"trace": [[]]}, _UNPARSED),  # a trace row with no value
    ({"trace": 5}, _UNPARSED),
    ([], _UNPARSED),  # not a JSON object
    ({"diagnostics": [1]}, _UNPARSED),
    ({"trace": [[7.0], [1, 2, 3, 4]]}, _SHAPE),  # rows of 1 and 4 numbers for a q = 1 model
    ({"trace": [[0.2, 1.5, 3.0]]}, _SHAPE),
    ({"trace": []}, _SHAPE),
], ids=["empty-trace-row", "scalar-trace", "top-level-list", "list-diagnostics",
        "ragged-trace", "wide-trace-row", "empty-trace"])
def test_malformed_fit_json_exits_2(data_csv, tmp_path, capsys, record, want):
    path, _ = data_csv
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--lam", "0.2", "--out", str(out)]) == 0
    d = json.loads((out / "fit.json").read_text())
    if isinstance(record, dict):
        d.update(record)
    else:
        d = record
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc = main(["variance", "--data", str(path), "--fit", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == want[0]
    assert err["error"]["kind"] == "input"
    assert want[1] in err["error"]["message"]


@pytest.mark.parametrize("command", ["fit", "tune", "variance"])
def test_gaussian_refuses_another_lambda_box(data_csv, tmp_path, capsys, command):
    # the gaussian model's lambda is inert and its box fixed at [0, 1]
    path, _ = data_csv
    common = ["--data", str(path), "--model", "gaussian", "--criterion", "cv_fast"]
    common += ["--lam", "0.5"] if command == "fit" else ["--grid-size", "5"]
    for lo, hi in (("1", "0"), ("0", "0.5"), ("0.2", "1")):
        rc = main([command, *common, "--lambda-min", lo, "--lambda-max", hi,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "SchemaError"
        assert "--model gaussian" in err["error"]["message"]
        assert not (tmp_path / "o" / "fit.json").exists()
    # its own box, given or not, writes the same bytes
    given, default = tmp_path / "given", tmp_path / "default"
    assert main([command, *common, "--lambda-min", "0", "--lambda-max", "1",
                 "--out", str(given)]) == 0
    assert main([command, *common, "--out", str(default)]) == 0
    assert (given / "fit.json").read_bytes() == (default / "fit.json").read_bytes()


@pytest.mark.parametrize("command", ["fit", "tune", "simulate"])
@pytest.mark.parametrize("lo, hi", [("1", "0"), ("0.5", "0.5")])
def test_inverted_lambda_box_is_an_input_error(data_csv, tmp_path, capsys, command, lo, hi):
    path, _ = data_csv
    args = {"fit": ["--data", str(path), "--lam", "0.5"],
            "tune": ["--data", str(path), "--grid-size", "5"],
            "simulate": ["--n", "40", "--B", "2", "--grid-size", "5"]}[command]
    rc = main([command, *args, "--lambda-min", lo, "--lambda-max", hi,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["kind"] == "input"
    assert "lower < upper" in err["error"]["message"]


@pytest.mark.parametrize("command, flag, value", [
    ("stone-check", "--criterion", "te"),
    ("stone-check", "--grid-size", "5"),
    ("stone-check", "--split", "0.3"),
    ("stone-check", "--lambda-min", "0.5"),
    ("stone-check", "--lambda-max", "0.6"),
    ("fit", "--grid-size", "99"),
])
def test_removed_flags_exit_2(data_csv, tmp_path, capsys, command, flag, value):
    # flags the subcommand never read are refused by the parser
    path, _ = data_csv
    args = {"stone-check": ["--n-list", "20", "--reps", "1"],
            "fit": ["--data", str(path), "--lam", "0.2"]}[command]
    out = tmp_path / "o"
    assert main([command, *args, flag, value, "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, argv, ignored", [
    ("variance", ["--fit", "FIT", "--criterion", "cv"], "--criterion"),
    ("variance", ["--fit", "FIT", "--grid-size", "8"], "--grid-size"),
    ("variance", ["--fit", "FIT", "--split", "0.3"], "--split"),
    ("variance", ["--fit", "FIT", "--seed", "5"], "--seed"),
    ("fit", ["--lam", "0.2", "--criterion", "cv_fast", "--split", "0.3"], "--split"),
    ("fit", ["--lam", "0.2", "--seed", "5"], "--seed"),
    ("tune", ["--criterion", "cv_fast", "--split", "0.9"], "--split"),
    ("tune", ["--criterion", "cv_fast", "--seed", "5"], "--seed"),
    ("variance", ["--criterion", "te", "--split", "0.3"], "--split"),
    ("variance", ["--seed", "5"], "--seed"),
    ("simulate", ["--n", "40", "--B", "2", "--split", "0.3"], "--split"),
    ("bootstrap", ["--B", "2", "--criterion", "cv_fast", "--split", "0.3"], "--split"),
])
def test_flag_the_path_ignores_exits_2(data_csv, tmp_path, capsys, command, argv, ignored):
    # a flag that the subcommand reads on another path is refused, by name,
    # on a path that would ignore it
    path, _ = data_csv
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--data", str(path), "--lam", "0.2", "--out", str(fit_dir)]) == 0
    capsys.readouterr()
    argv = [str(fit_dir / "fit.json") if a == "FIT" else a for a in argv]
    data = [] if command == "simulate" else ["--data", str(path)]
    out = tmp_path / "o"
    assert main([command, *data, *argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert ignored in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "tune", "variance"])
def test_holdout_reads_split_and_seed(data_csv, tmp_path, command):
    # the flags a path reads are accepted, and their defaults are the values
    # a run without them uses
    path, _ = data_csv
    common = ["--data", str(path), "--criterion", "holdout"]
    common += ["--lam", "0.2"] if command == "fit" else ["--grid-size", "6"]
    given, default, other = tmp_path / "given", tmp_path / "default", tmp_path / "other"
    assert main([command, *common, "--split", "0.5", "--seed", "0", "--out", str(given)]) == 0
    assert main([command, *common, "--out", str(default)]) == 0
    assert main([command, *common, "--split", "0.6", "--seed", "3", "--out", str(other)]) == 0
    assert (given / "fit.json").read_bytes() == (default / "fit.json").read_bytes()
    assert (other / "fit.json").read_bytes() != (default / "fit.json").read_bytes()


def test_fit_lambda_outside_box_exits_2(data_csv, tmp_path, capsys):
    path, _ = data_csv
    for argv in (["--lam", "5"], ["--lam", "-0.1"], ["--lam", "0.2", "--lambda-max", "0.1"]):
        out = tmp_path / "out"
        rc = main(["fit", "--data", str(path), *argv, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "SchemaError"
        assert "--lam" in err["error"]["message"]
        assert not (out / "fit.json").exists()


def test_fit_json_from_another_box_exits_2(data_csv, tmp_path, capsys):
    path, _ = data_csv
    narrow, wide = tmp_path / "narrow", tmp_path / "wide"
    assert main(["fit", "--data", str(path), "--lam", "0.05", "--out", str(narrow)]) == 0
    assert main(["fit", "--data", str(path), "--lam", "5", "--lambda-max", "10",
                 "--out", str(wide)]) == 0
    # the same box as the fit's passes; another box is an input error
    assert main(["variance", "--data", str(path), "--fit", str(narrow / "fit.json"),
                 "--out", str(tmp_path / "o")]) == 0
    for fit_dir, argv in ((narrow, ["--lambda-max", "0.1"]), (wide, [])):
        rc = main(["variance", "--data", str(path), "--fit", str(fit_dir / "fit.json"),
                   *argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "SchemaError"
        assert "lambda_box" in err["error"]["message"]
    # a record whose box is the model's but whose lambda_hat lies outside it
    d = json.loads((wide / "fit.json").read_text())
    d["lambda_box"] = [[0.0, 1.0]]
    (wide / "fit.json").write_text(json.dumps(d))
    rc = main(["variance", "--data", str(path), "--fit", str(wide / "fit.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert "lambda_hat" in err["error"]["message"]


def _tuned_record(path, tmp_path, criterion):
    out = tmp_path / criterion
    assert main(["tune", "--data", str(path), "--criterion", criterion,
                 "--grid-size", "8", "--out", str(out)]) == 0
    return json.loads((out / "fit.json").read_text())


def _variance_on(path, tmp_path, capsys, record):
    """(exit code, stderr error object or None) of variance --fit record."""
    bad = tmp_path / "record.json"
    bad.write_text(json.dumps(record))
    rc = main(["variance", "--data", str(path), "--fit", str(bad),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    return rc, json.loads(err)["error"] if err else None


def test_fit_json_with_another_d_hat_exits_2(data_csv, tmp_path, capsys):
    # V1 reads D_hat: ten times theta' used to give other standard errors, exit 0
    path, _ = data_csv
    d = _tuned_record(path, tmp_path, "cv_fast")
    assert d["boundary_status"] == ["interior"]
    assert _variance_on(path, tmp_path, capsys, d) == (0, None)
    d["D_hat"] = (10 * np.asarray(d["D_hat"])).tolist()
    rc, err = _variance_on(path, tmp_path, capsys, d)
    assert rc == 2
    assert err["type"] == "ValueError" and "D_hat" in err["message"]


def test_fit_json_whose_phi_fails_on_the_data_exits_1(data_csv, tmp_path, capsys):
    # sigma = 0 makes the gaussian phi non-finite: the slot's own
    # EvaluationError, which used to read as an infinite residual, exit 2
    path, _ = data_csv
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(path), "--model", "gaussian", "--lam", "0",
                 "--out", str(out)]) == 0
    d = json.loads((out / "fit.json").read_text())
    d["theta_hat"][1] = 0.0
    bad = tmp_path / "record.json"
    bad.write_text(json.dumps(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = main(["variance", "--data", str(path), "--model", "gaussian", "--fit", str(bad),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["type"] == "EvaluationError" and err["kind"] == "numerical"
    assert err["message"].startswith("phi_jac_sum produced non-finite")


@pytest.mark.parametrize("slope", [5.0, [], [1.0, 2.0]])
def test_fit_json_slope_of_another_shape_exits_2(data_csv, tmp_path, capsys, slope):
    # a scalar slope on an edge fit used to crash flat_at_edge with a TypeError
    path, _ = data_csv
    d = _tuned_record(path, tmp_path, "te")
    assert d["boundary_status"] == ["lower_boundary"]
    d["criterion_slope_at_opt"] = slope
    rc, err = _variance_on(path, tmp_path, capsys, d)
    assert rc == 2
    assert err["type"] == "ValueError" and "criterion_slope_at_opt" in err["message"]


@pytest.mark.parametrize("labels", [["interior"], ["upper_boundary"]])
def test_fit_json_relabelled_edge_fit_exits_2(data_csv, tmp_path, capsys, labels):
    # an edge fit relabelled interior used to get V1
    path, _ = data_csv
    d = _tuned_record(path, tmp_path, "te")
    assert _variance_on(path, tmp_path, capsys, d) == (0, None)
    d["boundary_status"] = labels
    rc, err = _variance_on(path, tmp_path, capsys, d)
    assert rc == 2
    assert err["type"] == "ValueError" and "boundary_status" in err["message"]


@pytest.mark.parametrize("criterion", ["te", "cv_fast"])
def test_fit_json_slope_its_trace_does_not_give_exits_2(data_csv, tmp_path, capsys,
                                                        criterion):
    # an edge fit's slope edited to 100 used to flip nondegenerate_boundary, exit 0
    path, _ = data_csv
    d = _tuned_record(path, tmp_path, criterion)
    assert d["boundary_status"] == [{"te": "lower_boundary", "cv_fast": "interior"}[criterion]]
    assert _variance_on(path, tmp_path, capsys, d) == (0, None)
    edited = dict(d, criterion_slope_at_opt=[100.0])
    rc, err = _variance_on(path, tmp_path, capsys, edited)
    assert rc == 2
    assert err["type"] == "ValueError" and "criterion_slope_at_opt" in err["message"]
    # without the trace row of the slope's upper point it is not checkable
    (lo, hi), = d["lambda_box"]
    h = 1e-5 * (hi - lo)
    up = lo + h if criterion == "te" else min(d["lambda_hat"][0] + h, hi)
    short = dict(d, trace=[row for row in d["trace"] if row[0] != up])
    assert len(short["trace"]) == len(d["trace"]) - 1
    rc, err = _variance_on(path, tmp_path, capsys, short)
    assert rc == 2
    assert err["type"] == "ValueError" and "trace has no value" in err["message"]


def test_variance_fit_roundtrip_equals_direct(data_csv, tmp_path):
    path, data = data_csv
    out = tmp_path / "out"
    rc = main(["tune", "--data", str(path), "--criterion", "cv_fast",
               "--grid-size", "10", "--out", str(out)])
    assert rc == 0
    rc = main(["variance", "--data", str(path), "--fit", str(out / "fit.json"),
               "--out", str(out)])
    assert rc == 0
    v = json.loads((out / "variance.json").read_text())

    m = RidgeLinearModel(2, lambda_domain=(0.0, 1.0))
    fit = tune(m.spec(), m.squared_error_loss(), data, Method.CV_FAST, grid_size=10)
    report = select_variance(m.spec(), m.squared_error_loss(), data, fit)
    assert v["selected"] == report.selected
    assert np.allclose(v["V2"], report.V2, rtol=1e-12)
    if report.V1 is not None:
        assert np.allclose(v["V1"], report.V1, rtol=1e-8)
    assert np.allclose(v["standard_errors"], report.standard_errors, rtol=1e-8)
    # J reported under the J = -d(mean phi)/d(theta) convention
    assert np.all(np.linalg.eigvalsh(np.asarray(v["J_hat"])) < 0)


def test_malformed_csv_exits_2_with_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("y,x1,x2\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    rc = main(["tune", "--data", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["line"] == 3
    assert err["error"]["type"] == "SchemaError"

    rc = main(["tune", "--data", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_load_csv_ragged_row_line_number(tmp_path):
    from tunevar import SchemaError

    p = tmp_path / "ragged.csv"
    p.write_text("y,x1\n1.0,2.0\n1.0\n")
    with pytest.raises(SchemaError) as exc:
        load_csv(p)
    assert exc.value.line == 3


def test_pima_header_only_csv_exits_2(tmp_path, capsys):
    p = tmp_path / "pima.csv"
    p.write_text("preg,glu,bp,skin,insulin,bmi,ped,age,outcome\n")
    rc = main(["variance", "--model", "pima", "--data", str(p),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["line"] == 2


PIMA_HEADER = "preg,glu,bp,skin,insulin,bmi,ped,age,outcome\n"
PIMA_ROW = "1,100,70,25,90,30.0,0.4,31,{}\n"


def test_pima_bad_response_names_file_line(tmp_path, capsys):
    # line 4 is blank and line 7 carries the non-binary response
    p = tmp_path / "pima.csv"
    p.write_text(
        PIMA_HEADER + PIMA_ROW.format(0) + PIMA_ROW.format(1) + "\n"
        + PIMA_ROW.format(0) + PIMA_ROW.format(1) + PIMA_ROW.format(2)
    )
    rc = main(["variance", "--model", "pima", "--data", str(p),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["line"] == 7


def test_fewer_than_two_rows_exit_2(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("y,x1,x2\n1.0,2.0,3.0\n")
    rc = main(["tune", "--data", str(one), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["line"] == 2

    # two of three rows have an impossible zero glucose and are dropped
    pima = tmp_path / "pima.csv"
    pima.write_text(
        PIMA_HEADER + PIMA_ROW.format(1) + PIMA_ROW.format(0).replace(",100,", ",0,") * 2
    )
    rc = main(["variance", "--model", "pima", "--data", str(pima),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"


def test_simulate_writes_summary_and_draws(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--dgp", "linear", "--beta", "1.0", "1.0", "0.5",
               "--coef-sq", "0.5", "--n", "100", "--B", "5",
               "--criterion", "cv_fast", "--grid-size", "8",
               "--out", str(out), "--seed", "2"])
    assert rc == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["requested"] == 5
    assert s["n"] == 100
    draws = (out / "draws.csv").read_text().strip().splitlines()
    assert draws[0] == "lambda_1,theta_1,theta_2,theta_3"
    assert len(draws) == 1 + s["completed"]


SUMMARY_KEYS = {"schema_version", "n", "requested", "completed", "failure_indices",
                "boundary_count", "empirical_variance", "mean_V1", "mean_V2",
                "abs_error_V1", "abs_error_V2", "dgp", "C"}


@pytest.mark.parametrize("dgp, flags, C, header", [
    ("gaussmix", ["--C", "2"], 2.0, "lambda_1,theta_1,theta_2,theta_3"),
    ("logistic", ["--beta", "0.3", "1.0", "-0.5"], 0.0, "lambda_1,theta_1,theta_2,theta_3"),
    ("logistic", [], 0.0, "lambda_1,theta_1,theta_2"),
], ids=["gaussmix", "logistic", "logistic-default-beta"])
def test_simulate_classification_dgps(tmp_path, dgp, flags, C, header):
    # summary.json writes C for every --dgp, 0.0 where --dgp does not read it
    out = tmp_path / "out"
    assert main(["simulate", "--dgp", dgp, *flags, "--n", "40", "--B", "2",
                 "--criterion", "cv_fast", "--grid-size", "6", "--seed", "1",
                 "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert set(s) == SUMMARY_KEYS
    assert (s["dgp"], s["C"], s["n"], s["requested"]) == (dgp, C, 40, 2)
    draws = (out / "draws.csv").read_text().splitlines()
    assert draws[0] == header
    assert len(draws) == 1 + s["completed"]


@pytest.mark.parametrize("dgp, flags, ignored", [
    ("linear", ["--C", "5"], "--C"),
    ("gaussmix", ["--beta", "3", "4", "--sigma", "9"], "--beta, --sigma"),
    ("logistic", ["--sigma", "3", "--coef-sq", "2"], "--sigma, --coef-sq"),
], ids=["linear", "gaussmix", "logistic"])
def test_simulate_refuses_a_flag_its_dgp_ignores(tmp_path, capsys, dgp, flags, ignored):
    out = tmp_path / "out"
    assert main(["simulate", "--dgp", dgp, *flags, "--n", "40", "--B", "2",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["message"].endswith(f"--dgp {dgp} does not read {ignored}")
    assert not out.exists()


def test_dgp_flags_default_to_the_values_a_run_without_them_uses(tmp_path):
    common = ["simulate", "--dgp", "linear", "--beta", "0.4", "--n", "40", "--B", "2"]
    default, given = tmp_path / "default", tmp_path / "given"
    assert main([*common, "--out", str(default)]) == 0
    assert main([*common, "--sigma", "1", "--coef-sq", "0", "--out", str(given)]) == 0
    for name in ("summary.json", "draws.csv"):
        assert (given / name).read_bytes() == (default / name).read_bytes()


def test_ridge_logistic_model_tunes_from_csv(tmp_path):
    path = tmp_path / "logistic.csv"
    _write_data_csv(path, make_logistic_data(n=40, seed=2))
    out = tmp_path / "out"
    assert main(["tune", "--data", str(path), "--model", "ridge-logistic",
                 "--criterion", "cv_fast", "--grid-size", "6", "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert np.shape(fit["theta_hat"]) == (3,)
    assert np.shape(fit["D_hat"]) == (3, 1)
    assert fit["criterion"] == "cv_fast"
    assert (out / "trace.csv").read_text().splitlines()[0] == "lambda_1,value"


def test_simulate_intercept_only_linear(tmp_path, capsys):
    # no covariate: a (1, 1) variance summary; coef_sq without a covariate exits 2
    out = tmp_path / "out"
    argv = ["simulate", "--dgp", "linear", "--beta", "0.4", "--n", "40", "--B", "3",
            "--criterion", "cv_fast", "--grid-size", "6", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert np.shape(s["empirical_variance"]) == (1, 1)
    assert (out / "draws.csv").read_text().splitlines()[0] == "lambda_1,theta_1"
    capsys.readouterr()
    assert main([*argv, "--coef-sq", "0.5", "--out", str(tmp_path / "o2")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ValueError"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_all_boundary_simulate_writes_strict_json(tmp_path):
    # every replication is a boundary fit, so mean_V1 has no finite entry
    out = tmp_path / "out"
    assert main(["simulate", "--dgp", "linear", "--beta", "0.4", "--n", "40", "--B", "3",
                 "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert s["boundary_count"] == s["completed"] == 3
    assert s["mean_V1"] == [[None]]
    assert s["abs_error_V1"] == [[None]]


def test_variance_json_writes_booleans(data_csv, tmp_path):
    path, _ = data_csv
    out = tmp_path / "out"
    assert main(["variance", "--data", str(path), "--criterion", "cv_fast",
                 "--grid-size", "8", "--out", str(out)]) == 0
    v = json.loads((out / "variance.json").read_text(), parse_constant=_reject_constant)
    assert v["nondegenerate_boundary"] is False


def test_bootstrap_command(data_csv, tmp_path):
    path, _ = data_csv
    out = tmp_path / "out"
    rc = main(["bootstrap", "--data", str(path), "--B", "4",
               "--criterion", "cv_fast", "--grid-size", "8",
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["requested"] == 4
    assert (out / "draws.csv").exists()


def test_stone_check_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["stone-check", "--n-list", "50", "100",
               "--reps", "3", "--lam", "0.1", "--beta", "1.0", "1.0",
               "--out", str(out), "--seed", "4"])
    assert rc == 0
    s = json.loads((out / "summary.json").read_text())
    assert set(s["scaled_gap_median_by_n"]) == {"50", "100"}
    assert all(v >= 0 for v in s["scaled_gap_median_by_n"].values())
    lines = (out / "draws.csv").read_text().strip().splitlines()
    assert lines[0] == "n,rep,scaled_gap"
    assert len(lines) == 1 + 2 * 3


@pytest.mark.parametrize("lam", ["5", "-5", "1.5"])
def test_stone_check_lambda_outside_box_exits_2(tmp_path, capsys, lam):
    # stone-check fits ridge-linear, whose lambda box is [0, 1]
    out = tmp_path / "out"
    rc = main(["stone-check", "--n-list", "50", "--reps", "1", "--lam", lam,
               "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert "--lam" in err["error"]["message"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_stone_check_needs_a_rep(tmp_path, capsys, reps):
    out = tmp_path / "out"
    rc = main(["stone-check", "--n-list", "50", "--reps", reps, "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["kind"] == "input"
    assert "--reps" in err["error"]["message"]
    assert not (out / "summary.json").exists()


def test_fit_json_schema_version_enforced(data_csv, tmp_path):
    path, _ = data_csv
    out = tmp_path / "out"
    main(["tune", "--data", str(path), "--grid-size", "8",
          "--criterion", "cv_fast", "--out", str(out)])
    d = json.loads((out / "fit.json").read_text())
    d["schema_version"] = 99
    bad = tmp_path / "stale.json"
    bad.write_text(json.dumps(d))
    rc = main(["variance", "--data", str(path), "--fit", str(bad),
               "--out", str(out)])
    assert rc == 2


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_non_finite_csv_field_exits_2_with_line(tmp_path, capsys, field):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"y,x1,x2\n1.0,2.0,3.0\n{field},1.0,2.0\n2.0,3.0,1.0\n")
    rc = main(["tune", "--data", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["line"] == 3


@pytest.mark.parametrize("col", [5, 3, -1])
def test_response_col_out_of_range_exits_2(data_csv, tmp_path, capsys, col):
    path, _ = data_csv
    rc = main(["tune", "--data", str(path), "--response-col", str(col),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["kind"] == "input"


def test_pima_constant_covariate_exits_2(tmp_path, capsys):
    # every covariate varies except DiabetesPedigreeFunction (column 7)
    rows = [f"{1 + i % 3},{100 + i},{70 + i},{25 + i},{90 + i},{30.0 + i},0.4,{31 + i},{i % 2}\n"
            for i in range(8)]
    p = tmp_path / "pima.csv"
    p.write_text(PIMA_HEADER + "".join(rows))
    rc = main(["variance", "--model", "pima", "--data", str(p),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert "DiabetesPedigreeFunction" in err["error"]["message"]


@pytest.mark.parametrize("col", ["99", "8", "0"])
def test_pima_rejects_response_col(tmp_path, capsys, col):
    # the Pima response is the Outcome column by schema; the flag is an error
    rows = [f"{1 + i % 3},{100 + i},{70 + i},{25 + i},{90 + i},{30.0 + i},{0.1 + 0.05 * i},"
            f"{31 + i},{i % 2}\n" for i in range(8)]
    p = tmp_path / "pima.csv"
    p.write_text(PIMA_HEADER + "".join(rows))
    common = ["--model", "pima", "--data", str(p), "--lam", "0.1"]
    assert main(["fit", *common, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    rc = main(["fit", *common, "--response-col", col, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "SchemaError"
    assert err["error"]["kind"] == "input"
    assert "--response-col" in err["error"]["message"]
    assert not (tmp_path / "o" / "fit.json").exists()


@pytest.mark.parametrize("model", ["ridge-linear", "gaussian"])
def test_response_col_moves_response_to_front(data_csv, tmp_path, model):
    # the same rows with the response in column 0 and in column 2 give the
    # same bytes: the loader moves the response to the front, keeping the
    # covariates in their order
    _, data = data_csv
    moved = tmp_path / "moved.csv"
    with open(moved, "w") as fh:
        fh.write("x1,x2,y\n")
        for row in data.rows[:, [1, 2, 0]]:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    front = tmp_path / "front.csv"
    _write_data_csv(front, data)
    outs = []
    for path, col in ((front, "0"), (moved, "2")):
        out = tmp_path / f"out{col}"
        common = ["--data", str(path), "--model", model, "--response-col", col,
                  "--out", str(out)]
        assert main(["tune", *common, "--criterion", "cv_fast", "--grid-size", "8"]) == 0
        assert main(["variance", *common, "--fit", str(out / "fit.json")]) == 0
        outs.append(out)
    for name in ("fit.json", "trace.csv", "variance.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
