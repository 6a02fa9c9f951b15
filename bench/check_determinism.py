"""Check that two traced runs with the same seed give identical counts.

Run from the root of a checkout:

    python3 bench/check_determinism.py --seed 1 [--workload loo_exact ...]

Every per-layer metric with unit "count" (calls, rows, newton_iters,
evaluations, failures) must match exactly between the two runs, so that a
later change may cite them as exact counts. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("loo_exact", "replicate_study", "wide_variance")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok &= not diff
        print(f"{workload}: {len(first)} counts, {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
