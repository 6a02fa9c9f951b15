"""Compare two checkouts on the benchmark by alternating paired runs.

Each pair runs `bench/run.py --trace 0` once in the parent checkout and once
in the change checkout, each from its own root, with the same workload, seed
and duration; the order alternates between pairs (parent first in the first
pair, change first in the second, and so on), so a drift in host speed falls
on both sides alike. For every end-to-end metric that BENCHMARK.json names,
it prints each side's median over the pairs, the parent's quartiles and in
how many pairs the change did better, by the metric's "better" field:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload replicate_study --pairs 5 --seconds 20 --seed 1

After each side's run it also times `bench/run.py --setup-only` three
times in that checkout and keeps their median as the run's setup_wall_s,
summarised over the pairs like the other metrics but not a BENCHMARK.json
metric. It waits for each process with a blocking waitpid. bench/run.py's
own setup_s comes from subprocess.run(..., timeout=120), whose wait polls
with sleeps of 1, 2, 4 ... 32 ms and then 50 ms, so its readings fall on
0.063 + 0.05 k s and a one-step move reads as 16-23% of a median;
setup_wall_s spreads continuously and shows whether such a move is real.

The exit code is 1 if any run exits non-zero, prints no result line, or
reports correct: false or failed > 0. The script reads only bench/ and
BENCHMARK.json of the two checkouts; BENCHMARK.json comes from the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
# summarised with BENCHMARK.json's metrics, which do not include it
SETUP_WALL = {"name": "setup_wall_s", "better": "lower", "note": "not a BENCHMARK.json metric"}


def parse_result(stdout: str) -> dict:
    """The result object of a bench/run.py run: its last non-empty output line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values) -> tuple[float, float]:
    """(Q1, Q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def failures(results) -> list[str]:
    """Why each (label, result) in results fails the run's own checks."""
    out = []
    for label, res in results:
        if not res.get("correct", False):
            out.append(f"{label}: correct is {res.get('correct')}")
        if res.get("failed", 1) > 0:
            out.append(f"{label}: failed = {res.get('failed')}")
    return out


def summarize(end_to_end, pairs) -> list[str]:
    """One line per end-to-end metric over pairs [(parent result, change result)].

    end_to_end is BENCHMARK.json's list of {"name", "unit", "better"}; a
    metric missing from some run is reported as missing, and a metric's
    "note", if it has one, ends its line.
    """
    lines = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        try:
            old = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
        except KeyError:
            lines.append(f"{name:12s} missing from some run")
            continue
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        q1, q3 = quartiles(old)
        m_old, m_new = statistics.median(old), statistics.median(new)
        note = f"  ({metric['note']})" if "note" in metric else ""
        lines.append(
            f"{name:12s} parent {m_old:10.4g} [{q1:.4g}, {q3:.4g}]  change {m_new:10.4g}"
            f"  ({metric['better']} is better)  better in {wins} of {len(pairs)}{note}"
        )
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The result of one bench/run.py run, with the median of SETUP_REPEATS
    --setup-only wall times after it as metrics["setup_wall_s"]."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        res = parse_result(proc.stdout)
    except ValueError as exc:
        res = {"correct": False, "failed": 1, "metrics": {}, "error": str(exc)}
    if proc.returncode != 0:
        res["correct"] = False
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: run() then waits in a blocking waitpid, not a sleep loop
        done = subprocess.run(cmd + ["--setup-only"], cwd=checkout, stdout=subprocess.DEVNULL)
        setup.append(time.perf_counter() - t0)
        if done.returncode != 0:
            res["correct"] = False
    res.setdefault("metrics", {})["setup_wall_s"] = {
        "value": statistics.median(setup), "unit": "s"}
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    bad = []
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {side: run_once(getattr(args, side), workload, args.seed, args.seconds)
                   for side in order}
            pairs.append((got["parent"], got["change"]))
            bad += failures([(f"{workload} pair {k + 1} {side}", got[side]) for side in order])
            print(f"{workload} pair {k + 1} done", file=sys.stderr, flush=True)
        print(f"{workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run")
        for line in summarize(end_to_end + [SETUP_WALL], pairs):
            print("  " + line)
    for line in bad:
        print("FAILED: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
