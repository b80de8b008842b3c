#!/usr/bin/env python3
"""Layered benchmark for hlevels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its `src/`.
Workloads (see workloads.py): compare, cli_closed, basis_ladder.  Ops run
one at a time from this process (a closed loop with one client).  The run
measures whole rounds of ops for about S seconds and
checks every op's output against goldens recorded from the seed commit.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the per-layer
probe (layers.py), then the workload with every other round traced, and
prints the per-layer metrics plus the tracing overhead; its spans are
written to .bench_out/ when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `correct` is false when any op fails that is not a known defect
of the seed commit (those are counted in `failed` all the same).
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

from tracing import NULL_TRACER, Tracer
from workloads import WORKLOADS, child_env, thread_selfcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hlevels"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
TAIL_PER_MILLE = (999, 990, 900, 500)
SETUP_TIMEOUT_S = 170
_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, {here!r})\n"
    "import workloads\n"
    "workloads.WORKLOADS[{name!r}].warm_up()\n"
)


@dataclass
class Record:
    label: str
    seconds: float
    problems: list
    known_defect: bool
    traced: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(op, tracer, traced: bool) -> Record:
    tracer.begin_trace()
    start = time.perf_counter()
    try:
        with tracer.span("op", label=op.label):
            problems = op.run(tracer)
    except Exception as exc:  # every exception, typed HlevelsError included, fails the op
        problems = [f"{type(exc).__name__}: {exc}"]
    return Record(op.label, time.perf_counter() - start, problems, op.known_defect, traced)


def measure(workload, seed: int, seconds: float, tracer_for_round, min_rounds=1):
    """Run whole rounds until less than half a round of the S seconds is left.

    Returns (records, wall seconds, {traced: seconds spent in such rounds}).
    """
    rounds = workload.rounds(seed)
    records = []
    spent = {False: 0.0, True: 0.0}
    t0 = time.perf_counter()
    index = 0
    while True:
        tracer = tracer_for_round(index)
        traced = tracer is not NULL_TRACER
        start = time.perf_counter()
        for op in next(rounds):
            records.append(run_op(op, tracer, traced))
        end = time.perf_counter()
        spent[traced] += end - start
        index += 1
        if index >= min_rounds and end - t0 + 0.5 * (end - start) >= seconds:
            return records, end - t0, spent


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest child's.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def measure_setup(name: str) -> list:
    """Fresh interpreters doing the cold import plus the workload's warm-up."""
    code = _SETUP_CHILD.format(here=str(HERE), name=name)
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       capture_output=True, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def percentile(ordered: list, pct: float) -> float:
    """Linear interpolation between order statistics (the median at 50)."""
    h = (len(ordered) - 1) * pct / 100.0
    i = int(h)
    upper = ordered[min(i + 1, len(ordered) - 1)]
    return ordered[i] + (h - i) * (upper - ordered[i])


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest of p99.9, p99, p90, p50 with TAIL_BEYOND samples beyond.

    With fewer than 2 * TAIL_BEYOND samples none qualifies, and the maximum
    is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for per_mille in TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= TAIL_BEYOND * 1000:
            return percentile(ordered, per_mille / 10.0), per_mille / 10.0
    return ordered[-1], 100.0


def end_to_end(records, wall, cpu_s, setup_times) -> tuple:
    """({metric: (value, unit)}, notes) for an untraced run."""
    passed = [r.seconds for r in records if r.ok]
    attempted = len(records)
    p50 = statistics.median(passed) if passed else 0.0
    tail_s, tail_pct = tail(passed) if passed else (0.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(passed) / wall, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_per_op_ms": (1e3 * cpu_s / attempted, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_rate": (len(passed) / attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} cold starts",
        "op_p50_ms": f"n={len(passed)} successful ops",
        "op_tail_ms": f"p{tail_pct:.1f} of n={len(passed)}"
                      + (" (too few samples: maximum)" if tail_pct == 100.0 else ""),
        "cpu_per_op_ms": "user+sys of this process and its children",
        "pass_rate": f"1 - error_rate; error_rate = {(attempted - len(passed)) / attempted:.6g}",
    }
    return metrics, notes


def tracing_overhead(records, spent) -> float:
    """Percent of untraced ops_per_s lost in the traced rounds of one run."""
    rate = {}
    for traced in (False, True):
        passed = sum(r.ok for r in records if r.traced == traced)
        rate[traced] = passed / spent[traced] if spent[traced] else 0.0
    if not rate[False]:
        return 0.0
    return 100.0 * (rate[False] - rate[True]) / rate[False]


def blas_threads() -> dict:
    """Threads of the OpenBLAS builds numpy and scipy load, read from the libraries."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS

    out = {}
    for module in (numpy, scipy):
        out[module.__name__] = "unknown"
        libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[module.__name__] = fn()
                    break
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no hlevels package at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import hlevels

    if Path(hlevels.__file__).resolve().parent != PACKAGE:
        print(f"error: imported hlevels from {hlevels.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    problems = []
    if args.trace:
        import layers

        tracer = Tracer()
        try:
            workload.warm_up()
            metrics = layers.probe(tracer)
            records, wall, spent = measure(workload, args.seed, args.seconds,
                                           lambda i: tracer if i % 2 else NULL_TRACER,
                                           min_rounds=2)
            metrics["trace.overhead_pct"] = (tracing_overhead(records, spent), "%")
            if args.workload == "compare":
                with tracer.span("selfcheck.threads"):
                    problems += thread_selfcheck()
        finally:
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        notes = {}
    else:
        setup_times = measure_setup(args.workload)
        workload.warm_up()
        cpu0 = cpu_seconds()
        records, wall, _ = measure(workload, args.seed, args.seconds, lambda i: NULL_TRACER)
        metrics, notes = end_to_end(records, wall, cpu_seconds() - cpu0, setup_times)

    failed = [r for r in records if not r.ok]
    unexpected = [r for r in failed if not r.known_defect]
    for r in unexpected[:10]:
        problems.append(f"{r.label}: {'; '.join(r.problems)[:500]}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)

    print("env " + json.dumps(run_environment(args), sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(records)} ops in {wall:.2f} s, "
          f"{len(failed)} failed ({len(failed) - len(unexpected)} known defects)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
