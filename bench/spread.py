"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload census --workload queries --runs 10

For every workload and metric it prints the median and quartiles of the
runs' values (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
beside the bound BENCHMARK.json fixes for the metric.  Seeds are
first-seed, first-seed + 1, ...; each run lasts BENCHMARK.json's
run_seconds.  The full record, with the values and the metadata of the
first run, goes to bench/results/spread.json or to --out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0][2:])
    return {"meta": meta, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "results" / "spread.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "first_seed": args.first_seed, "trace": args.trace,
              "workloads": {}}
    for workload in args.workload:
        runs = [one_run(workload, args.first_seed + i, spec["run_seconds"],
                        args.trace) for i in range(args.runs)]
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], "bound": bounds.get(name),
                             **summarise(values)}
        record["workloads"][workload] = {
            "metadata": runs[0]["meta"], "failed": failed,
            "attempted": sum(r["attempted"] for r in runs), "metrics": metrics}
        print(f"{workload}: {args.runs} runs, {failed} failed operations")
        for name, m in metrics.items():
            bound = "" if m["bound"] is None else f"  bound {m['bound']:.2f}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:45s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  spread {spread}{bound}")
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
