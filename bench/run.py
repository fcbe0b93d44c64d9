"""Benchmark of the seaweeds package, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory.  With --trace 0 the workload is timed with tracing off and the
end-to-end metrics are reported; with --trace 1 the traced pass in
traced.py reports the per-layer metrics instead.  Every output is checked
against the oracles in oracles.py.  The report lines name each metric with
its unit; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy of the result with the run's metadata and the quartiles of the
operation times goes to bench/results/.  Workloads and metrics are
described in BENCHMARK.json and bench/metrics.json.  `python3
bench/selftest.py` shows that the checkers count doctored output as failed;
`python3 bench/spread.py` repeats runs over seeds and reports each metric's
quartiles (bench/baseline.json holds ten runs of each workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# `import seaweeds` and the first request it serves, timed inside a fresh
# interpreter so that interpreter start-up is left out.
SETUP_PROBE = """\
import contextlib, io, time
t = time.perf_counter()
import seaweeds.cli
with contextlib.redirect_stdout(io.StringIO()):
    seaweeds.cli.main(["index", "2|1/3"])
print(time.perf_counter() - t)
"""
SETUP_REPEATS = 9


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, nproc: int) -> dict:
    from workloads import CENSUS_N, HOMOTOPY_N, PARALLEL_N
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(),
        "python": platform.python_version(), "nproc": nproc,
        "cpu": _cpu_model(), "census_n": CENSUS_N, "parallel_n": PARALLEL_N,
        "homotopy_n": HOMOTOPY_N,
    }


def setup_seconds(run) -> tuple[float, float]:
    """Median over SETUP_REPEATS fresh interpreters, each started once the
    machine is quiet, at reference speed and as measured; after one warm-up
    that leaves compiled bytecode behind as an installed package would."""
    from speed import Gate, at_reference
    gate, scaled, wall = Gate(run.seconds), [], []
    for _ in range(SETUP_REPEATS + 1):
        speed = gate.wait()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=run.root,
                              env=run.env(), capture_output=True, text=True,
                              timeout=60, check=True)
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(at_reference(wall[-1], speed))
    return median(scaled[1:]), median(wall[1:])


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def _op_metrics(times: list[float]) -> dict[str, tuple[float, str]]:
    # the tail is the highest percentile with ten samples beyond it (the
    # p99 of a 1020-query block); with fewer than 22 operations no
    # percentile above the median has that many, and the tail is the median
    ordered = sorted(times)
    return {"ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (median(times) * 1e3, "ms"),
            "op_tail_ms": (max(ordered[max(0, len(ordered) - 11)], median(times))
                           * 1e3, "ms")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that subprocess.run and the census pool
    # stop and reap the processes they started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "seaweeds" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seaweeds
    if Path(seaweeds.__file__).resolve().parent != SRC / "seaweeds":
        print(f"error: imported seaweeds from {seaweeds.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))

    nproc = len(os.sched_getaffinity(0))
    peak = {}

    def mark_peak():
        peak["self"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak["children"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    run = workloads.Run(str(ROOT), args.seed, args.seconds, nproc, mark_peak)
    if args.trace:
        import traced
        outcome, metrics = traced.traced_pass(run)
    else:
        outcome = workloads.WORKLOADS[args.workload](run)
        # kB; fork workers hold their own copy of what they touch
        rss_kb = peak["self"] + outcome.concurrent_children * peak["children"]
        setup_s, wall_setup_s = setup_seconds(run)
        metrics = {"setup_s": (setup_s, "s"),
                   **_op_metrics(outcome.op_scaled),
                   "peak_rss_mb": (rss_kb / 1024, "MB")}
        outcome.figures.update(
            {f"wall_{k}": v for k, v in _op_metrics(outcome.op_seconds).items()})
        outcome.figures["wall_setup_s"] = (wall_setup_s, "s")

    meta = metadata(args, nproc)
    attempted, failed = outcome.attempted, outcome.failed
    print("# " + json.dumps(meta))
    for name, (value, unit) in {**metrics, **outcome.figures}.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(f"{args.workload}: failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for problem in outcome.problems[:10]:
        print(f"{args.workload}: FAILED {problem[:300]}")

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {**result, "metadata": meta,
              "figures": {k: {"value": v, "unit": u}
                          for k, (v, u) in outcome.figures.items()},
              "op_seconds": _spread(outcome.op_seconds),
              "gate": None if outcome.gate is None else {
                  "waited_s": outcome.gate.waited_s,
                  "spin_seconds": _spread(outcome.gate.spins)},
              "problems": outcome.problems[:50]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
