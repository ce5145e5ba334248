"""qurel benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload thermal_map --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed or built). The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. A record of the run with its environment is written to
``.bench_out/``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import metric_names  # noqa: E402

WORKLOADS = ("thermal_map", "match_gamma", "random_states")
END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
#: fresh-interpreter set-up probes, split before and after the measured run
#: so that they fall in different phases of the machine's load
PROBES_BEFORE, PROBES_AFTER = 3, 4
#: the whole run ends within this many seconds
BUDGET_S = 170.0
#: kept back from the measured run for the probes after it
AFTER_RESERVE_S = 30.0


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, timeout: float) -> dict:
    """Run perfbench/worker.py and return the JSON object on its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qurel" / "__init__.py").is_file():
        print(f"error: no qurel sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = monotonic()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    probes = []
    try:
        if not args.trace:
            # the first import after a fresh checkout writes bytecode; not timed
            _worker(["probe", args.workload, args.seed, out_dir], 60)
            for _ in range(PROBES_BEFORE):
                probes.append(_worker(["probe", args.workload, args.seed, out_dir], 60))
        deadline = BUDGET_S - (monotonic() - start) - (0 if args.trace else AFTER_RESERVE_S)
        run = _worker(["measure", args.workload, args.seed, args.seconds, args.trace,
                       out_dir, deadline - 5.0], deadline)
        if not args.trace:
            for _ in range(PROBES_AFTER):
                probes.append(_worker(["probe", args.workload, args.seed, out_dir],
                                      BUDGET_S - (monotonic() - start)))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(run["metrics"])
    if args.trace:
        units = dict(metric_names())
    else:
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["peak_rss_mb"] = run["peak_rss_mb"]
        units = END_TO_END
    failed = run["failed"]
    result = {"correct": failed == 0 and not any(p["failed"] for p in probes),
              "attempted": run["attempted"], "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_commit": _git_commit(),
              "source_sha256": _source_digest(), "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "failed_frac": failed / run["attempted"],
              "setup_s_samples": [p["setup_s"] for p in probes],
              "raw_setup_s_samples": [p["raw_setup_s"] for p in probes],
              "wall_s": monotonic() - start, **run["env"], "result": result,
              "op_ms_p99": values.get("op_ms_p99")}
    record_path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
