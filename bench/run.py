"""tunevar benchmark: seeded workloads, end-to-end metrics, traced per-layer counts.

Run from the root of a checkout:

    python3 bench/run.py --workload loo_exact --seed 1 --seconds 30 --trace 0

Each run builds the workload's pool of inputs from --seed, checks a
fixed-seed reference job against bench/reference.json, then runs passes over
the pool until --seconds have gone by, checking every fit. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it wraps the layer functions
(see tracing.py) and reports per-layer counts and times per pass. Untraced,
a speed probe (SpeedProbe) runs between jobs, and job times are reported
scaled to a reference host speed; the wall-clock figures are printed beside
them. The last line of standard output is one JSON object; a fuller result
with provenance goes to .bench_out/. The exit code is non-zero when any check fails or the
program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_PASSES = 3  # job_ms_tail needs ten job runs beyond it: pools hold >= 4 jobs
HARD_CAP_S = 120.0
# Untraced job times are scaled to a host on which one speed probe takes this long.
PROBE_REF_S = 0.030
PROBE_REPEATS = 4
BLAS_THREADS = "1"
NOTE = ("{nproc}-core machine that may be shared with other work; "
        "single process, BLAS pinned to one thread; compare medians, not single runs")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build specs and inputs, then exit (times setup_s)")
    return ap.parse_args(argv)


def load_program():
    """Import tunevar from this checkout's src/ and the workload definitions."""
    if not (ROOT / "src" / "tunevar" / "__init__.py").is_file():
        sys.exit(f"bench: {ROOT / 'src' / 'tunevar'} not found; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    import tunevar

    if not Path(tunevar.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: imported tunevar from {tunevar.__file__}, not from this checkout")
    return workloads


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(workload, seed, trace):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    tasks = Path("/proc/self/task")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
        "nproc": nproc, "cpu_model": cpu, "cache_l2": caches.get("L2"), "cache_l3": caches.get("L3"),
        "git_commit": commit or "unknown (not a git checkout)",
        "note": NOTE.format(nproc=nproc),
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def time_setup(args):
    """Median wall time of fresh processes that only import and build inputs.

    Not scaled by the speed probe: setup is mostly module import (scipy.stats
    alone takes about half of it), whose speed the probe does not track.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


@dataclass
class _Step:
    theta: object
    iteration: int
    size: float


class SpeedProbe:
    """Fixed work, independent of tunevar, timed between jobs to track host speed.

    Other tenants of a shared host can slow every process on it by 1.5x or
    more for tens of seconds at a time, longer than a whole run. Each probe
    fits two ridge-logistic problems (100 x 3 and 1000 x 7) by Newton steps
    with condition checks, inverts a stack of leave-one-out Hessians and does
    some per-row Python work: the numpy calls, sizes and interpreter overhead
    tunevar spends its time in, so it slows down with the jobs. Dividing a
    job's time by the mean of the probes before and after it removes most of
    the host's speed from the measurement.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1)
        self.np = np
        self.problems = []
        for n, p in ((100, 3), (1000, 7)):
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            P = 0.02 * np.eye(p)
            P[0, 0] = 0.0
            self.problems.append((X, (rng.random(n) < 0.5).astype(float), P))
        self()  # warm-up: first calls pay one-time numpy set-up costs

    def __call__(self):
        np = self.np
        t = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            for X, y, P in self.problems:
                n = len(y)
                theta, steps = np.zeros(X.shape[1]), []
                for it in range(6):
                    pi = 0.5 * (1.0 + np.tanh(0.5 * (X @ theta)))
                    w = pi * (1.0 - pi)
                    H = np.einsum("i,ij,ik->jk", w, X, X) / n + P
                    if np.linalg.cond(H) > 1e12:
                        raise RuntimeError("speed probe: singular Hessian")
                    step = np.linalg.solve(H, X.T @ (y - pi) / n - P @ theta)
                    theta = theta + step
                    steps.append(_Step(theta.copy(), it, float(np.linalg.norm(step))))
                rows = X[:, :, None] * X[:, None, :] * w[:, None, None]
                np.linalg.inv(rows.sum(axis=0) - rows + n * P)
                sum(float(row @ theta) for row in X[:30])
                {f"k{k % 13}": k for k in range(100)}
        return time.perf_counter() - t


def run_passes(wl, pool, seconds, tracer=None, probe=None):
    """Timed passes over the pool until `seconds` have gone by.

    Every fit is checked outside the timers. Traced, the tracer records only
    the even passes, so the odd ones time the same inputs without tracing.
    With a probe, each job is bracketed by probe runs, and the mean of the
    two is kept beside the job's time.
    """
    from tunevar import TunevarError

    passes = []  # (traced, job times, probe times or None, (counts, span totals) or None)
    last_probe = probe() if probe else None
    tally = {"attempted": 0, "failed": 0, "interior": 0, "tuned": 0}
    errors = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= HARD_CAP_S and passes or elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            first_span, counts0 = len(tracer.spans), tracer.counts.copy()
        job_times, probe_times = [], []
        for k, item in enumerate(pool):
            if traced:
                tracer.job = f"{len(passes)}:{k}"
                tracer.active = True
            t = time.perf_counter()
            try:
                out = wl.run(item)
            except TunevarError as exc:
                out = exc
            job_times.append(time.perf_counter() - t)
            if traced:
                tracer.active = False
            if probe:
                next_probe = probe()
                probe_times.append(0.5 * (last_probe + next_probe))
                last_probe = next_probe
            tally["attempted"] += wl.fits_per_job
            if isinstance(out, TunevarError):
                tally["failed"] += wl.fits_per_job
                errors.append(f"pass {len(passes)} job {k}: {type(out).__name__}: {out}")
                continue
            bad, why = wl.check(item, out)
            tally["failed"] += bad
            errors += [f"pass {len(passes)} job {k}: {w}" for w in why]
            interior = wl.interior_fits(out)
            if interior is not None:
                tally["interior"] += interior
                tally["tuned"] += wl.fits_per_job
        snapshot = (tracer.counts - counts0, tracer.span_totals(first_span)) if traced else None
        passes.append((traced, job_times, probe_times if probe else None, snapshot))
    return passes, tally, errors


def fits_per_s(wl, passes):
    """Fits completed per second of job time."""
    runs = [t for _, times, _, _ in passes for t in times]
    return wl.fits_per_job * len(runs) / sum(runs)


def scaled(passes):
    """The passes with each job time scaled to the reference probe time."""
    return [(traced, [PROBE_REF_S * t / p for t, p in zip(times, probes)], None, snap)
            for traced, times, probes, snap in passes]


def timing_metrics(wl, passes):
    runs = sorted(t for _, times, _, _ in passes for t in times)
    n = len(runs)
    return {
        "fits_per_s": (fits_per_s(wl, passes), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(runs), "ms"),
        # the highest percentile with ten job runs beyond it
        "job_ms_tail": (1e3 * runs[n - 11], "ms"),
    }


def end_to_end(wl, passes):
    """Timing metrics at the reference host speed, with the raw wall-clock ones beside them."""
    n = sum(len(times) for _, times, _, _ in passes)
    probes = [p for _, _, probes, _ in passes for p in probes]
    return timing_metrics(wl, scaled(passes)), {
        "job_runs": n, "passes": len(passes), "job_ms_tail_percentile": 100.0 * (n - 10) / n,
        "probe_ms_p50": 1e3 * statistics.median(probes), "probe_ref_ms": 1e3 * PROBE_REF_S,
        "wall_clock": {k: v for k, (v, _) in timing_metrics(wl, passes).items()},
    }


STATS = {
    "solver.solve_theta": ("calls", "busy_ms", "self_ms"),
    "solver.solve_loo": ("calls", "busy_ms", "self_ms", "failures"),
    "solver.theta_prime": ("calls", "busy_ms"),
    "criteria.loocv_exact": ("calls", "busy_ms", "self_ms"),
    "criteria.loocv_fast": ("calls", "busy_ms", "self_ms"),
    "criteria.te_trace_corrected": ("calls", "busy_ms", "self_ms"),
    "tuner.tune": ("calls", "busy_ms", "self_ms"),
    "variance.select_variance": ("calls", "busy_ms", "self_ms"),
    "variance.assemble_components": ("calls", "busy_ms", "self_ms"),
    "variance.z1_profiled": ("calls", "busy_ms", "self_ms"),
    "variance.variance_alpha": ("calls", "busy_ms", "self_ms"),
    "harness.replicate": ("calls", "busy_ms", "self_ms"),
    "harness.simulate": ("calls", "busy_ms"),
}
COUNTS = (
    "solver.newton_iters", "tuner.evaluations", "tuner.grid_failures",
    "model.phi_batch.calls", "model.phi_batch.rows",
    "model.dphi_dtheta_batch.calls", "model.dphi_dtheta_batch.rows",
    "model.dphi_dlambda_batch.calls", "model.hess_phi_theta.calls",
    "model.dphi_dlambda_dtheta.calls", "model.psi.calls", "model.psi_batch.calls",
    "model.psi_rowwise.calls", "model.grad_psi_batch.calls", "model.hess_psi.calls",
    "numdiff.jacobian.calls", "numpy.linalg.cond.calls",
)


def per_layer(wl, passes):
    """Counts per traced pass (identical in every pass) and median times per pass.

    Also returns the names of counts that differ between traced passes.
    """
    snapshots = [snap for traced, _, _, snap in passes if traced]
    counts = snapshots[0][0]
    metrics = {}
    for name, stats in STATS.items():
        for stat in stats:
            key = f"{name}.{stat}"
            if stat in ("busy_ms", "self_ms"):
                i = 0 if stat == "busy_ms" else 1
                value = 1e3 * statistics.median(s[1].get(name, (0.0, 0.0))[i] for s in snapshots)
                metrics[key] = (value, "ms")
            else:
                metrics[key] = (counts[key], "count")
    for key in COUNTS:
        metrics[key] = (counts[key], "count")
    metrics["bench.traced_fits_per_s"] = (fits_per_s(wl, [p for p in passes if p[0]]), "1/s")
    metrics["bench.untraced_fits_per_s"] = (fits_per_s(wl, [p for p in passes if not p[0]]), "1/s")
    count_keys = [k for k, (_, unit) in metrics.items() if unit == "count"]
    drift = [k for k in count_keys if any(s[0][k] != counts[k] for s in snapshots)]
    return metrics, drift


def main(argv=None):
    args = parse_args(argv)
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    pool = wl.pool()
    if args.setup_only:
        return 0

    errors = []
    recorded = json.loads((BENCH / "reference.json").read_text())[wl.name]
    errors += [f"reference: {e}" for e in workloads.compare_reference(recorded, wl.reference_job())]

    extra = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(wl.specs, wl.losses)
        try:
            passes, tally, job_errors = run_passes(wl, pool, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, drift = per_layer(wl, passes)
        errors += [f"count {k} differs between passes" for k in drift]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        extra["trace_overhead"] = (metrics["bench.untraced_fits_per_s"][0]
                                   / metrics["bench.traced_fits_per_s"][0] - 1.0)
    else:
        setup_s, extra["setup_samples_s"] = time_setup(args)
        passes, tally, job_errors = run_passes(wl, pool, args.seconds, probe=SpeedProbe())
        metrics, extra["timing"] = end_to_end(wl, passes)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    errors += job_errors
    extra["job_s_by_pass"] = [times for _, times, _, _ in passes]
    if not args.trace:
        extra["probe_s_by_pass"] = [probes for _, _, probes, _ in passes]
    attempted, failed = tally["attempted"], tally["failed"]
    extra["failed_frac"] = failed / attempted
    extra["fits_per_pass"] = wl.fits_per_job * len(pool)
    if tally["tuned"]:
        extra["interior_share"] = tally["interior"] / tally["tuned"]
    correct = not errors

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(wl.name, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "extra": extra, "errors": errors, "result": result}, indent=1)
    )
    print("provenance " + json.dumps(prov))
    print("details " + json.dumps(extra))
    for e in errors[:20]:
        print("CHECK FAILED: " + e)
    shown = dict(metrics, failed_frac=(extra["failed_frac"], "ratio"))
    for k, (v, u) in shown.items():
        print(f"{wl.name:16s} {k:40s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
