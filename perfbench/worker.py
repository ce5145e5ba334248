"""One benchmark process: either a set-up probe or a measured run.

    python perfbench/worker.py probe <workload> <seed> <out_dir>
        Prints the set-up time in seconds, raw and normalised to machine
        speed: importing numpy and qurel, building the workload's set-up and
        its first op's inputs, and running that op, in this fresh
        interpreter. Checking the op's output is not counted.

    python perfbench/worker.py measure <workload> <seed> <seconds> <trace> <out_dir> <deadline>
        Runs the workload and prints one JSON object as its last line.
        Stops early, with what it has, once ``deadline`` seconds have passed.

``run.py`` starts both kinds with ``src`` on ``PYTHONPATH`` and BLAS
limited to one thread.
"""

from __future__ import annotations

# Every standard-library module the benchmark uses is imported before the
# set-up clock can start, so that set-up time is the package's own.
import csv  # noqa: F401
import functools  # noqa: F401
import json
import math
import os
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

_START = perf_counter()

_RAISED = object()

#: wall-clock period of the machine-speed bursts
BURST_PERIOD_S = 0.1
#: length of each burst of the reference kernel
BURST_S = 0.005
#: reference-kernel calls per second on the development machine in its usual
#: state; normalised figures read as that machine's figures at that speed
REF_NOMINAL_PER_S = 18300.0
#: reference-kernel time after each set-up probe, for its machine speed
PROBE_REF_S = 0.05
#: enough ops that at least ten lie beyond the 99th percentile
MIN_OPS = 1000
#: units whose counts and spans the traced run keeps; fixed by the seed
WINDOW_UNITS = {"thermal_map": 3, "match_gamma": 200, "random_states": 200}


def probe(workload: str, seed: int, out_dir: str) -> None:
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp_") as workdir:
        t0 = perf_counter()
        import numpy as np
        import workloads  # imports qurel

        unit = workloads.first_unit(workload, np.random.default_rng(seed), workdir)
        out = unit.run()
        raw = perf_counter() - t0
        failed = unit.check(out)
    reference = Reference()
    reference.run_for(0.0)  # first call pays one-off dispatch costs
    n, s = reference.run_for(PROBE_REF_S)
    print(json.dumps({"setup_s": raw * n / s / REF_NOMINAL_PER_S, "raw_setup_s": raw,
                      "failed": failed}))


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(self.a)


class Reference:
    """A fixed kernel that does not touch qurel, made of what a qurel op is
    made of: small frozen dataclasses and scalar math in the interpreter, a
    4x4 Hermitian eigendecomposition and a matrix product in numpy. Its rate
    tracks how fast the shared machine runs at that moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._h = g + g.conj().T
        self._np = np
        self._eigh = np.linalg.eigh  # bound before the tracer rebinds it

    def _call(self) -> float:
        acc = 0.0
        for k in range(16):
            p = _Point(0.1 * k, 1.0)
            acc += math.exp(-p.a) / (1.0 + math.sqrt(p.b + k))
        w, v = self._eigh(self._h)
        return acc + float(self._np.abs((v * w) @ v.conj().T).sum())

    def run_for(self, seconds: float) -> tuple[int, float]:
        """Calls the kernel for at least ``seconds`` (at least once); returns
        (calls, seconds taken)."""
        t0 = perf_counter()
        n = 0
        while True:
            self._call()
            n += 1
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return n, elapsed


class Sampler:
    """Machine speed on a fixed schedule: every ``BURST_PERIOD_S`` of wall
    time a SIGALRM handler interrupts whatever runs, op or not, and runs the
    reference kernel for ``BURST_S``. A burst's speed is the kernel's rate
    divided by ``REF_NOMINAL_PER_S``. Burst time is kept out of op time and,
    in a traced run, out of every open span's self time."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.tracer = None
        self.times, self.speeds = [], []
        self.burst_s = 0.0  # seconds spent in bursts so far

    def _burst(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        n, s = self.reference.run_for(BURST_S)
        self.times.append(t0 + s / 2)
        self.speeds.append(n / s / REF_NOMINAL_PER_S)
        dur = perf_counter() - t0
        self.burst_s += dur
        if self.tracer is not None:
            self.tracer.exclude(dur)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, BURST_PERIOD_S, BURST_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # the handler stays installed: an alarm already raised still lands on it
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._burst()  # at least one burst, even in a run shorter than a period

    def mean_speeds(self, starts, ends):
        """Mean machine speed over each interval [start, end]: burst speeds
        interpolated linearly in time, held flat before the first burst and
        after the last, and integrated over the interval."""
        import numpy as np

        t = np.array([self.times[0] - 1e6, *self.times, self.times[-1] + 1e6])
        v = np.array([self.speeds[0], *self.speeds, self.speeds[-1]])
        area = np.concatenate(([0.0], np.cumsum(np.diff(t) * (v[1:] + v[:-1]) / 2)))
        starts, ends = np.asarray(starts), np.asarray(ends)
        return (np.interp(ends, t, area) - np.interp(starts, t, area)) / (ends - starts)


class Phase:
    """Runs units until ``seconds`` of normalised op time and the op and unit
    minimums are reached, in whole cycles (or until the deadline passes),
    timing each unit. Normalised time is op time multiplied by the machine
    speed over the unit; normalised rates divide by it. Stopping on
    normalised time makes a run do the same work in a slow or a fast phase
    of the machine."""

    def __init__(self, units, sampler: Sampler, tracer=None):
        self.units = units
        self.sampler = sampler
        self.tracer = tracer
        self.ops = self.failed = self.n_units = 0
        self.op_s = 0.0
        self.norm_s = 0.0   # op time at the bursts' speeds, for stopping
        self.unit_ops = []  # ops per unit
        self.unit_s = []    # op seconds per unit, bursts excluded
        self.spans = []     # (start, end) wall time of each unit
        self.speed = None   # machine speed over each unit, set by ``finish``

    def run(self, seconds: float, min_ops: int, min_units: int, cycle: int,
            deadline: float) -> None:
        while ((self.norm_s < seconds or self.ops < min_ops or self.n_units < min_units
                or self.n_units % cycle) and perf_counter() - _START < deadline):
            unit = next(self.units)
            if self.tracer is not None:
                self.tracer.begin(self.n_units)
            burst_s, bursts = self.sampler.burst_s, len(self.sampler.speeds)
            t0 = perf_counter()
            try:
                out = unit.run()
            except Exception:  # a raising op is a failed op; keep measuring
                out = _RAISED
                traceback.print_exc(limit=3, file=sys.stderr)
            t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.end()
            dt = t1 - t0 - (self.sampler.burst_s - burst_s)
            if out is _RAISED:
                self.failed += unit.ops
            else:
                try:
                    self.failed += unit.check(out)
                except Exception:
                    self.failed += unit.ops
                    traceback.print_exc(limit=3, file=sys.stderr)
            self.ops += unit.ops
            self.n_units += 1
            self.op_s += dt
            self.norm_s += dt * statistics.fmean(self.sampler.speeds[bursts:]
                                                 or self.sampler.speeds[-1:] or [1.0])
            self.unit_ops.append(unit.ops)
            self.unit_s.append(dt)
            self.spans.append((t0, t1))

    def finish(self) -> None:
        """Takes each unit's machine speed from the sampler's bursts."""
        starts, ends = zip(*self.spans)
        self.speed = [float(s) for s in self.sampler.mean_speeds(starts, ends)]

    def ops_per_s(self, normalised: bool = True) -> float:
        speed = self.speed if normalised else [1.0] * self.n_units
        return self.ops / sum(s * v for s, v in zip(self.unit_s, speed))

    def op_ms(self, normalised: bool = True) -> list[float]:
        """Latency of every op in ms, in run order; the grid points of one
        sweep call share the call's mean."""
        speed = self.speed if normalised else [1.0] * self.n_units
        out = []
        for ops, s, v in zip(self.unit_ops, self.unit_s, speed):
            out += [s / ops * 1e3 * v] * ops
        return out

    def op_ms_p50_p99(self, normalised: bool = True) -> tuple[float, float]:
        ms = self.op_ms(normalised)
        return statistics.median(ms), _percentile(ms, 99)

    def summary(self) -> dict:
        p50, p99 = self.op_ms_p50_p99(normalised=False)
        return {"ops": self.ops, "units": self.n_units, "op_seconds": self.op_s,
                "normalised_op_seconds": self.norm_s,
                "raw_ops_per_s": self.ops_per_s(normalised=False),
                "raw_op_ms_p50": p50, "raw_op_ms_p99": p99,
                "unit_speed_min": min(self.speed), "unit_speed_max": max(self.speed)}


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed, seconds, trace, out_dir, deadline) -> None:
    import numpy as np
    import qurel
    import tracing
    import workloads

    result = {"env": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "qurel": getattr(qurel, "__file__", None)}}
    cycle = workloads.CYCLE_UNITS[workload]
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp_") as workdir:
        stream = workloads.STREAMS[workload]
        with Sampler(Reference()) as sampler:
            if not trace:
                phase = Phase(stream(np.random.default_rng(seed), workdir), sampler)
                phase.run(seconds, MIN_OPS, 0, cycle, deadline)
                phases = [phase]
            else:
                # untraced, then traced on an independent stream of the same
                # seed whose first units are the count window
                plain = Phase(stream(np.random.default_rng([seed, 0]), workdir), sampler)
                plain.run(seconds / 2, 0, 0, cycle, deadline)
                tracer = tracing.Tracer(WINDOW_UNITS[workload])
                tracer.install()
                sampler.tracer = tracer
                traced = Phase(stream(np.random.default_rng([seed, 1]), workdir), sampler,
                               tracer)
                traced.run(seconds / 2, 0, tracer.window, cycle, deadline)
                phases = [plain, traced]
        for p in phases:
            p.finish()
        if not trace:
            p50, p99 = phase.op_ms_p50_p99()
            metrics = {"ops_per_s": phase.ops_per_s(), "op_ms_p50": p50, "op_ms_p99": p99}
        else:
            window_ops = sum(traced.unit_ops[:tracer.window])
            metrics = tracer.metrics(window_ops, traced.ops)
            metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
            metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
            metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / plain.ops_per_s()
            spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
            tracer.write_spans(spans)
            result["env"].update(spans_file=spans, spans_kept=len(tracer.spans),
                                 window_units=tracer.window, window_ops=window_ops)
    result["attempted"] = sum(p.ops for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["metrics"] = metrics
    result["env"]["phases"] = [p.summary() for p in phases]
    result["env"]["burst_speeds"] = sampler.speeds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def main(argv) -> None:
    if argv[0] == "probe":
        probe(argv[1], int(argv[2]), argv[3])
    else:
        measure(argv[1], int(argv[2]), float(argv[3]), int(argv[4]), argv[5], float(argv[6]))


if __name__ == "__main__":
    main(sys.argv[1:])
