"""tools/cli_digest.py --compare: which files differ between two output
directories, by how much and where."""

import importlib.util
import json
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


@pytest.fixture
def cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest_under_test", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_compare_lists_changed_files_with_max_relative_drift(cli_digest, tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    same = json.dumps({"theta": [1.0, 2.0], "flag": True})
    _write(old, {"a/fit.json": same, "a/trace.csv": "lam,value\n0.1,2.0\n0.2,4.0\n",
                 "b/fit.json": json.dumps({"lam": 0.5, "note": "x"}),
                 "c/fit.json": same, "gone.json": "{}",
                 "d/variance.json": json.dumps({"V": {"se": [1.0, 2.0]}, "n": 3}),
                 "e/fit.json": '{"lam": 1.0}'})
    _write(new, {"a/fit.json": same, "a/trace.csv": "lam,value\n0.1,2.0\n0.2,4.000000001\n",
                 "b/fit.json": json.dumps({"lam": 0.5, "note": "y"}),
                 "c/fit.json": json.dumps({"theta": [1.0, 2.5], "flag": True}),
                 "d/variance.json": json.dumps({"V": {"se": [1.0, 2.2]}, "n": 3}),
                 "e/fit.json": '{"lam": 1.00}'})
    assert cli_digest.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"only in {old}  gone.json",
        "2.500e-10  a/trace.csv  at line 3, column value",
        "non-numeric  b/fit.json",
        "2.000e-01  c/fit.json  at theta[1]",
        "9.091e-02  d/variance.json  at V.se[1]",
        "0.000e+00  e/fit.json",  # other bytes, the same numbers
    ]
    assert cli_digest.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == ""
