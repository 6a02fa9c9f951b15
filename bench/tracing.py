"""Span and counter tracing of tunevar, installed from outside the package.

The tracer wraps the public functions of each layer under every name a
tunevar module binds them to, so a call made through ``tunevar.criteria``'s
imported ``solve_loo`` is caught as well as one made through the package.
Spans are kept in memory and carry (id, name, start, end, parent, job).
Counters sit on the spec/loss callables the benchmark builds, on
``numdiff.jacobian`` and on ``numpy.linalg.cond``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Functions that get a span, by layer module.
SPANNED = {
    "solver": ("solve_theta", "solve_loo", "theta_prime"),
    "criteria": ("loocv_exact", "loocv_fast", "te_trace_corrected"),
    "tuner": ("tune",),
    "variance": ("select_variance", "assemble_components", "z1_profiled", "variance_alpha"),
    "harness": ("replicate", "simulate"),
}
# Spec/loss slots that get a counter; the first set also counts rows.
MODEL_SLOTS = (
    "phi_batch", "dphi_dtheta_batch", "dphi_dlambda_batch",
    "hess_phi_theta", "dphi_dlambda_dtheta",
)
LOSS_SLOTS = ("psi", "psi_batch", "psi_rowwise", "grad_psi_batch", "hess_psi")
ROW_SLOTS = ("phi_batch", "dphi_dtheta_batch")


class Tracer:
    """Collects spans and counts while active; a paused tracer records nothing."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []  # (id, name, start, end, parent, job, self_s)
        self.counts = Counter()
        self._stack = []  # [span id, start, time covered by children]
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans.append(
                    (span_id, name, frame[1], end, parent, self.job, dur - frame[2])
                )
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        if name in ("solver.solve_theta", "solver.solve_loo"):
            self.counts["solver.newton_iters"] += result.iterations
        elif name == "tuner.tune":
            self.counts["tuner.evaluations"] += int(result.diagnostics["evaluations"])
            self.counts["tuner.grid_failures"] += int(result.diagnostics["grid_failures"])

    def _counted(self, name, fn, rows=False):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name + ".calls"] += 1
                if rows:
                    self.counts[name + ".rows"] += np.shape(args[0])[0]
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, specs=(), losses=()):
        """Wrap the layer functions and the given spec/loss objects."""
        modules = [m for k, m in sys.modules.items() if k == "tunevar" or k.startswith("tunevar.")]
        for layer, names in SPANNED.items():
            home = sys.modules["tunevar." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._spanned(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        numdiff = sys.modules["tunevar.numdiff"]
        self._patch(numdiff, "jacobian", self._counted("numdiff.jacobian", numdiff.jacobian))
        self._patch(np.linalg, "cond", self._counted("numpy.linalg.cond", np.linalg.cond))
        for spec in specs:
            for slot in MODEL_SLOTS:
                fn = getattr(spec, slot)
                if fn is not None:
                    self._patch(spec, slot, self._counted("model." + slot, fn, slot in ROW_SLOTS))
        for loss in losses:
            for slot in LOSS_SLOTS:
                fn = getattr(loss, slot)
                if fn is not None:
                    self._patch(loss, slot, self._counted("model." + slot, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results -----------------------------------------------------------

    def span_totals(self, first_span=0):
        """{name: (busy_s, self_s)} over spans recorded from index first_span."""
        totals = {}
        for _, name, start, end, _, _, self_s in self.spans[first_span:]:
            busy, own = totals.get(name, (0.0, 0.0))
            totals[name] = (busy + end - start, own + self_s)
        return totals

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start_s", "end_s", "parent", "job", "self_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
