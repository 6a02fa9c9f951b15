"""tools/cli_digest.py --compare: which files differ between two output
directories, by how much and where; tools/bench_pairs.py: how paired
benchmark results are aggregated, in which order the runs go, and when
the script fails; tools/settable_count.py: the pinned number of settable
values; and a guard against imports and private names that src/tunevar
no longer uses."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PACKAGE = TOOLS.parent / "src" / "tunevar"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"{name}_under_test", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cli_digest():
    return _load("cli_digest")


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


def test_digest_keeps_a_failed_runs_error_payload(cli_digest, tmp_path, monkeypatch):
    # the JSON error payload on stderr is a file of the run, so it is digested
    missing = tmp_path / "missing.csv"
    monkeypatch.setattr(cli_digest, "runs", lambda root: iter(
        [("bad", ["fit", "--data", str(missing), "--model", "ridge-linear"])]))
    lines = cli_digest.digest_all(tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "bad" / "stderr.txt").read_text())
    assert payload["error"]["type"] == "FileNotFoundError"
    assert lines[0] == "exit 2  bad"
    assert lines[1].endswith("  bad/stderr.txt")


@pytest.fixture
def bench_pairs():
    return _load("bench_pairs")


END_TO_END = [{"name": "fits_per_s", "better": "higher"},
              {"name": "job_ms_p50", "better": "lower"}]


def _result_line(fits, job_ms, correct=True, failed=0):
    metrics = {"fits_per_s": {"value": fits, "unit": "1/s"},
               "job_ms_p50": {"value": job_ms, "unit": "ms"}}
    return json.dumps({"correct": correct, "attempted": 120, "failed": failed,
                       "metrics": metrics})


def test_bench_pairs_aggregates_medians_quartiles_and_wins(bench_pairs):
    # canned bench/run.py outputs: the result object is the last line
    parent = [(50.0, 20.0), (54.0, 18.0), (52.0, 19.0), (60.0, 17.0)]
    change = [(55.0, 18.0), (53.0, 18.0), (58.0, 17.0), (62.0, 16.0)]
    pairs = [
        (bench_pairs.parse_result(f"provenance {{}}\nfits 1\n{_result_line(*a)}\n"),
         bench_pairs.parse_result(_result_line(*b)))
        for a, b in zip(parent, change)
    ]
    lines = bench_pairs.summarize(END_TO_END, pairs)
    # fits: parent median 53 [51.5, 55.5], change 56.5, higher in 3 of 4;
    # job_ms: parent 18.5 [17.75, 19.25], change 17.5, lower in 3 of 4 (a tie)
    assert lines == [
        "fits_per_s   parent         53 [51.5, 55.5]  change       56.5"
        "  (higher is better)  better in 3 of 4",
        "job_ms_p50   parent       18.5 [17.75, 19.25]  change       17.5"
        "  (lower is better)  better in 3 of 4",
    ]
    assert bench_pairs.failures([("p", pairs[0][0]), ("c", pairs[0][1])]) == []
    bad = bench_pairs.parse_result(_result_line(50.0, 20.0, correct=False, failed=2))
    assert bench_pairs.failures([("run", bad)]) == ["run: correct is False", "run: failed = 2"]
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n \n")


def test_bench_pairs_labels_the_setup_wall_time_as_its_own_metric(bench_pairs):
    # setup_wall_s is summarised like a BENCHMARK.json metric, with its note
    pairs = [({"metrics": {"setup_wall_s": {"value": a}}},
              {"metrics": {"setup_wall_s": {"value": b}}})
             for a, b in [(0.16, 0.15), (0.17, 0.18), (0.15, 0.14)]]
    assert bench_pairs.summarize([bench_pairs.SETUP_WALL], pairs) == [
        "setup_wall_s parent       0.16 [0.155, 0.165]  change       0.15"
        "  (lower is better)  better in 2 of 3  (not a BENCHMARK.json metric)"
    ]


def _fake_checkout(root, fits, failed=0):
    # a bench/run.py that logs its checkout (marking a --setup-only run) and
    # prints one canned result
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (root / "bench" / "run.py").write_text(
        "import sys\n"
        f"with open({str(root.parent / 'order.log')!r}, 'a') as f:\n"
        f"    f.write({root.name!r} + ('-setup' if '--setup-only' in sys.argv else '') + '\\n')\n"
        f"print({_result_line(fits, 10.0, correct=not failed, failed=failed)!r})\n"
    )


def test_bench_pairs_alternates_the_order_and_fails_on_a_failed_run(
    bench_pairs, tmp_path, capsys
):
    _fake_checkout(tmp_path / "old", 50.0)
    _fake_checkout(tmp_path / "new", 60.0)
    _fake_checkout(tmp_path / "broken", 60.0, failed=1)

    def argv(change, pairs):
        return ["--parent", str(tmp_path / "old"), "--change", str(tmp_path / change),
                "--workload", "w", "--pairs", str(pairs), "--seconds", "1"]

    assert bench_pairs.main(argv("new", 3)) == 0
    # each run is followed by three --setup-only runs in its checkout
    assert (tmp_path / "order.log").read_text().split() == [
        run for side in ["old", "new", "new", "old", "old", "new"]
        for run in [side] + [side + "-setup"] * 3
    ]
    out = capsys.readouterr().out
    assert "fits_per_s   parent         50 [50, 50]  change         60" in out
    assert "better in 3 of 3" in out
    assert "(not a BENCHMARK.json metric)" in out.splitlines()[-1]
    assert out.splitlines()[-1].startswith("  setup_wall_s parent ")
    assert bench_pairs.main(argv("broken", 1)) == 1
    out = capsys.readouterr().out
    assert "FAILED: w pair 1 change: correct is False" in out


def test_settable_count_is_pinned(capsys):
    # library 57 + CLI 64; a change that adds or removes a setting updates
    # this pin and says why
    counter = _load("settable_count")
    assert (counter.library_count(), counter.cli_count()) == (57, 64)
    counter.main()
    assert capsys.readouterr().out.split() == ["library", "57", "cli", "64", "total", "121"]


def _read_names(tree):
    # every name a tree reads: loaded or deleted names and attribute names
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def dead_code(paths):
    """Imports a module never reads (names in its __all__ count as read),
    and module-level _private functions, classes and constants that no
    module in paths mentions again, as sorted "module: kind name" lines."""
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    mentioned = set().union(*(_read_names(tree) for tree in trees.values()))
    for tree in trees.values():
        mentioned |= {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for name, tree in trees.items():
        read = _read_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [
                    t.id for t in node.targets if isinstance(t, ast.Name)]:
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}: unread import {bound}" for bound in (
                    (alias.asname or alias.name).split(".")[0] for alias in node.names)
                    if bound not in read]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            found += [f"{name}: unmentioned private {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in mentioned]
    return sorted(found)


def test_package_has_no_unread_import_or_unmentioned_private_name(tmp_path):
    assert dead_code(sorted(PACKAGE.glob("*.py"))) == []
    # the guard sees what a simplification leaves behind, and not a private
    # name that another module imports or an import that __all__ exports
    (tmp_path / "a.py").write_text(
        "import math\nimport numpy as np\nfrom .b import _used, helper\n"
        "__all__ = ['helper']\n_LIMIT = 1\n\ndef _gone():\n    return np.pi\n")
    (tmp_path / "b.py").write_text("def _used():\n    pass\n\ndef helper():\n    pass\n")
    assert dead_code([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py: unmentioned private _LIMIT", "a.py: unmentioned private _gone",
        "a.py: unread import _used", "a.py: unread import math",
    ]
