"""`seaweeds verify all` in this fresh interpreter, observed from inside.

    python3 bench/verify_child.py time|trace     (src/ on PYTHONPATH)

`time`: the CLI prints to stdout as usual, while a speed.Sampler samples
the CPU's speed: one run takes about 20 s, too long for a speed sample
taken before it (see speed.py), so the parent scales the run by the mean
of these.  A line of stderr holds one JSON object: {"spins": [...]}.

`trace`: spans around the suites and around the calls verify makes into
meander, formulas and genfunc.  The last line of stdout is one JSON object:
the exit code and output of `verify all`, each check's
CheckResult.elapsed, and the spans by name.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

from seaweeds import cli, verify

from speed import Sampler
from tracing import Tracer, patched

SUITES = ("formulas", "gf", "recursion", "gcd", "winding")

TARGETS = [(verify, f"suite_{suite}", f"verify.{suite}") for suite in SUITES] + [
    (verify, "seaweed_index", "meander.seaweed_index"),
    (verify, "c_diag3_longform", "formulas.c_diag3_longform"),
    (verify, "gf_coefficients", "genfunc.gf_coefficients"),
]


def timed() -> int:
    sampler = Sampler(after_s=0)
    try:
        with sampler:
            sampler.op_start = perf_counter()
            return cli.main(["verify", "all"])
    finally:
        print(json.dumps({"spins": sampler.samples}), file=sys.stderr)


def traced() -> int:
    reports = []
    run_suite = cli.run_suite

    def keep_report(name):
        reports.append(run_suite(name))
        return reports[-1]

    tracer, output = Tracer(), io.StringIO()
    cli.run_suite = keep_report
    try:
        with patched(tracer, TARGETS), redirect_stdout(output):
            code = cli.main(["verify", "all"])
    finally:
        cli.run_suite = run_suite
    checks = {c.name: c.elapsed for report in reports for c in report.checks}
    print(json.dumps({"exit": code, "stdout": output.getvalue(),
                      "checks": checks, "spans": tracer.by_name()}))
    return 0


if __name__ == "__main__":
    sys.exit({"time": timed, "trace": traced}[sys.argv[1]]())
