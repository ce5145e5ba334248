"""Span tracing of the package's layer boundaries, from outside the package.

``install`` rebinds, in every loaded ``qurel`` module, each name bound to a
boundary function to a wrapper that records a span; for the two value
classes it wraps ``__init__`` (construction, which is where they validate).
It also counts calls to the LAPACK wrappers ``numpy.linalg.eigh``,
``eigvalsh`` and ``svd``. Nothing under ``src/`` is edited.

Spans are recorded only while a unit is being run (``begin``/``end``), so
the benchmark's own input preparation and output checks stay out of them.
Counts are kept for the first ``window`` units only: those units are fixed
by the seed, so their counts repeat exactly from run to run. Spans are kept
for the same units, up to ``MAX_SPANS``. Self time is accumulated over every
traced unit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

#: (module, function or class) pairs, in report order
BOUNDARIES = (
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "evaluate_point"),
    ("sweep", "emit_csv"),
    ("sweep", "match_mixedness"),
    ("model", "thermal_state"),
    ("model", "closed_form_mixedness"),
    ("model", "ModelParams"),
    ("relations", "qc_vur"),
    ("relations", "qm_eur"),
    ("relations", "l_tra"),
    ("measurements", "sequential_decomposition"),
    ("measurements", "embed"),
    ("measurements", "projective_decomposition"),
    ("states", "DensityOperator"),
    ("states", "concurrence_two_qubit"),
    ("states", "mixedness"),
    ("states", "von_neumann_entropy"),
    ("linalg", "eig_hermitian"),
    ("linalg", "partial_trace"),
    ("linalg", "kron"),
)
LAPACK = ("eigh", "eigvalsh", "svd")

_COUNT = "count"
#: spans kept in memory; a thermal_map window has about 40 per grid point
MAX_SPANS = 100_000


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for mod, fn in BOUNDARIES:
        names.append((f"{mod}.{fn}.calls_per_op", _COUNT))
        names.append((f"{mod}.{fn}.self_us_per_op", "us"))
    names += [("sweep.emit_csv.bytes_per_op", "bytes"),
              ("measurements.projective_decomposition.cache_hit_ratio", "ratio"),
              ("linalg.lapack_calls_per_op", _COUNT),
              ("trace.untraced_ops_per_s", "1/s"),
              ("trace.traced_ops_per_s", "1/s"),
              ("trace.overhead_frac", "ratio")]
    return names


class Tracer:
    def __init__(self, window: int):
        self.window = window
        self.active = False
        self.in_window = False
        self.unit = -1
        self.spans = []          # (name, start, end, parent span index, unit)
        self.calls = Counter()   # per boundary, window units only
        self.self_s = Counter()  # per boundary, every traced unit
        self.lapack_calls = 0    # window units only
        self.csv_bytes = 0       # window units only
        self.memo = []           # memo (hits, misses) before and after the window
        self._stack = []         # open frames: [span index, child seconds]

    def begin(self, unit: int) -> None:
        self.unit = unit
        self.in_window = unit < self.window
        if unit == 0:
            self.memo.append(memo_stats())
        self.active = True

    def end(self) -> None:
        self.active = False
        self._stack.clear()
        if self.unit == self.window - 1:
            self.memo.append(memo_stats())

    def exclude(self, seconds: float) -> None:
        """Keeps ``seconds`` spent outside the package (a machine-speed
        burst) out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = -1
            if tracer.in_window and len(tracer.spans) < MAX_SPANS:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if tracer.in_window:
                    tracer.calls[name] += 1
                if index >= 0:
                    tracer.spans[index] = (name, t0, t1, parent, tracer.unit)
            if after is not None and tracer.in_window:
                after(args, kwargs)
            return result

        return traced

    def count_lapack(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer.in_window:
                tracer.lapack_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _add_csv_bytes(self, args, kwargs) -> None:
        dest = args[1] if len(args) > 1 else kwargs.get("destination")
        try:
            self.csv_bytes += os.path.getsize(dest)
        except (OSError, TypeError):
            pass

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qurel" or name.startswith("qurel."))]
        for mod_name, fn_name in BOUNDARIES:
            home = sys.modules.get(f"qurel.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                continue  # boundary no longer exists: reported as zero calls
            name = f"{mod_name}.{fn_name}"
            if isinstance(orig, type):
                orig.__init__ = self.wrap(name, orig.__init__)
                continue
            after = self._add_csv_bytes if name == "sweep.emit_csv" else None
            wrapped = self.wrap(name, orig, after)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    setattr(m, attr, wrapped)
        for fn_name in LAPACK:
            setattr(np.linalg, fn_name, self.count_lapack(getattr(np.linalg, fn_name)))

    def cache_hit_ratio(self) -> float:
        """Hit ratio of the projective-decomposition memo over the window;
        0 if the package has no such memo."""
        if len(self.memo) != 2 or None in self.memo:
            return 0.0
        hits = self.memo[1][0] - self.memo[0][0]
        lookups = hits + self.memo[1][1] - self.memo[0][1]
        return hits / lookups if lookups else 0.0

    def metrics(self, window_ops: int, traced_ops: int) -> dict:
        out = {}
        for mod, fn in BOUNDARIES:
            name = f"{mod}.{fn}"
            out[f"{name}.calls_per_op"] = self.calls[name] / window_ops
            out[f"{name}.self_us_per_op"] = self.self_s[name] * 1e6 / traced_ops
        out["sweep.emit_csv.bytes_per_op"] = self.csv_bytes / window_ops
        out["measurements.projective_decomposition.cache_hit_ratio"] = self.cache_hit_ratio()
        out["linalg.lapack_calls_per_op"] = self.lapack_calls / window_ops
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, t0, t1, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": unit}) + "\n")


def memo_stats():
    """(hits, misses) of the package's projective-decomposition memo, or
    None if the package no longer has that memo."""
    memo = getattr(sys.modules.get("qurel.measurements"), "_decompose", None)
    info = getattr(memo, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses
