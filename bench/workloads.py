"""The workloads: closed loops with one caller, timed with tracing off.

Each workload calls the package only through its public functions and
hands it only generated text or integers.  One operation is one census
row, one `seaweeds verify all` process, or one query (`index T` then
`wind T` through `cli.main`).  Outputs are checked after each operation,
outside its timed interval, by the oracles in oracles.py.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from statistics import fmean, median
from time import perf_counter

from seaweeds import census_cnk, cli, homotopy_census

import oracles
from speed import LONG_OP_S, Gate, Sampler, at_reference

# Rows within the exhaustive limit and the reference table, short enough to
# time well (see speed.py): C(9, .) is 4^8 pairs (about 0.11 s serial on a
# 2-core Xeon) and the homotopy row of 8 is 4^7 pairs (about 0.04 s).  The
# parallel row is C(10, .) (about 0.3 s on 2 workers), where the workers
# beat the pool's start-up cost.
CENSUS_N = 9
PARALLEL_N = 10
HOMOTOPY_N = 8
MIN_ROWS = 3

# Queries: n log-uniform in [8, 4096], mean part size log-uniform in
# [1, 300], and about a quarter from the families with a gcd formula.  A
# block takes one general query at the centre of each cell of a grid over
# (log n, log mean part), and an n-stratified run per gcd family; the seed
# draws the compositions, the gcd-family parts and the order.  Every block
# therefore holds the slow corner (large n, small parts: wind_down is
# O(n * parts)) at the same sizes, which keeps the p99 from depending on the
# seed's luck.
QUERY_N = (8, 4096)
QUERY_MEAN_PART = (1, 300)
# n strata, mean-part strata, queries per gcd family: 1020 queries, so that
# ten lie beyond the p99 of a single block.
QUERY_GRID = (32, 24, 84)
TRACE_GRID = (16, 12, 21)

VERIFY_TIMEOUT_S = 150
VERIFY_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "verify_child.py")


@dataclass
class Run:
    """What a workload needs from run.py for one benchmark run."""

    root: str
    seed: int
    seconds: float
    nproc: int
    mark_peak: callable  # call when the measured phase ends

    def env(self) -> dict[str, str]:
        src = os.path.join(self.root, "src")
        old = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}


@dataclass
class Outcome:
    gate: Gate | None = None
    sampler: Sampler | None = None  # speed samples during long operations
    op_seconds: list[float] = field(default_factory=list)  # wall time
    op_scaled: list[float] = field(default_factory=list)  # at reference speed
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    concurrent_children: int = 1  # processes alive at once while measuring

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    def timed(self, fn, *args, **kwargs):
        """fn(...) once the machine is quiet; wall and scaled time recorded."""
        speed = self.gate.wait()
        sampled = len(self.sampler.samples) if self.sampler else 0
        t0 = perf_counter()
        if self.sampler:
            self.sampler.op_start = t0
        result = fn(*args, **kwargs)
        seconds = perf_counter() - t0
        if self.sampler:
            self.sampler.op_start = None
        if seconds > LONG_OP_S:
            during = self.sampler.samples[sampled:] if self.sampler else []
            speed = fmean([speed, self.gate.sample(), *during])
        self.op_seconds.append(seconds)
        self.op_scaled.append(at_reference(seconds, speed))
        return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def reference(run: Run) -> dict[int, dict[int, int]]:
    return oracles.read_reference(
        os.path.join(run.root, "src", "seaweeds", "data", "cnk_reference.csv"))


# --- census -------------------------------------------------------------------


def _rows(run: Run, out: Outcome, op, *args) -> list:
    rows = []
    start = perf_counter()
    while out.attempted < MIN_ROWS or perf_counter() - start < run.seconds:
        rows.append(out.timed(op, *args))
    run.mark_peak()
    return rows


def _cnk_workload(run: Run, n: int, workers: int, other_workers: int,
                  figure: str) -> Outcome:
    cpus = sorted(os.sched_getaffinity(0)) if workers > 1 else None
    out = Outcome(Gate(run.seconds / 2, cpus), concurrent_children=workers)
    rows = _rows(run, out, census_cnk, n, workers)
    other = census_cnk(n, workers=other_workers)
    ref = reference(run)
    for row in rows:
        out.record(oracles.check_cnk_row(n, row, ref, other))
    out.figures[figure] = (4 ** (n - 1) / median(out.op_scaled), "1/s")
    return out


def census(run: Run) -> Outcome:
    """Serial C(n, .) rows; the parallel row is the cross-path oracle."""
    return _cnk_workload(run, CENSUS_N, 1, run.nproc, "cnk_pairs_per_s")


def census_parallel(run: Run) -> Outcome:
    """C(n, .) rows on nproc fork workers; the serial row is the oracle."""
    return _cnk_workload(run, PARALLEL_N, run.nproc, 1,
                         "cnk_parallel_pairs_per_s")


def homotopy(run: Run) -> Outcome:
    """Homotopy-type rows; grouped by index they must equal C(n', .)."""
    n = HOMOTOPY_N
    out = Outcome(Gate(run.seconds / 2))
    rows = _rows(run, out, homotopy_census, n)
    cnk = census_cnk(n)
    for row in rows:
        out.record(oracles.check_homotopy_row(n, row, cnk))
    out.figures["homotopy_pairs_per_s"] = (4 ** (n - 1) / median(out.op_scaled),
                                           "1/s")
    return out


# --- verify -------------------------------------------------------------------


def verify(run: Run) -> Outcome:
    """`seaweeds verify all`, each time in a fresh interpreter: its census
    memo lives per process, and a warm process would measure another program.
    A run takes about 20 s, so it is scaled by the speed verify_child.py
    samples during it rather than by the sample before it.
    """
    out = Outcome(Gate(run.seconds / 2))
    start = perf_counter()
    while not out.op_seconds or perf_counter() - start < run.seconds:
        proc = out.timed(
            subprocess.run, [sys.executable, VERIFY_CHILD, "time"], cwd=run.root,
            env=run.env(), capture_output=True, text=True,
            timeout=VERIFY_TIMEOUT_S)
        spins = [s for line in proc.stderr.splitlines()
                 if line.startswith('{"spins"') for s in json.loads(line)["spins"]]
        if spins:
            out.op_scaled[-1] = at_reference(out.op_seconds[-1], fmean(spins))
        out.record(oracles.check_verify(proc.returncode, proc.stdout))
    run.mark_peak()
    out.figures["verify_all_s"] = (median(out.op_scaled), "s")
    return out


# --- queries ------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    text: str
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    gcd_index: int | None  # known index for the gcd families

    @property
    def n(self) -> int:
        return sum(self.top)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _composition(rng: random.Random, n: int, mean: float) -> tuple[int, ...]:
    parts = max(1, min(n, round(n / mean)))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def _gcd_family(rng: random.Random, n: int, family: int
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if family == 0:  # a|b/n
        a = rng.randint(1, n - 1)
        return (a, n - a), (n,)
    if family == 1:  # a|b|c/n
        a = rng.randint(1, n - 2)
        b = rng.randint(1, n - a - 1)
        return (a, b, n - a - b), (n,)
    a, c = rng.randint(1, n - 1), rng.randint(1, n - 1)  # a|b/c|d
    return (a, n - a), (c, n - c)


def _query(top: tuple[int, ...], bottom: tuple[int, ...], known: int | None
           ) -> Query:
    text = "|".join(map(str, top)) + "/" + "|".join(map(str, bottom))
    return Query(text, top, bottom, known)


def query_block(rng: random.Random, grid: tuple[int, int, int]) -> list[Query]:
    """One stratified block of queries in a seeded random order."""
    n_strata, mean_strata, per_family = grid

    def n_at(cell, cells):
        return round(_log_uniform(*QUERY_N, (cell + 0.5) / cells))

    block = []
    for i in range(n_strata):
        for j in range(mean_strata):
            n = n_at(i, n_strata)
            mean = _log_uniform(*QUERY_MEAN_PART, (j + 0.5) / mean_strata)
            block.append(_query(_composition(rng, n, mean),
                                _composition(rng, n, mean), None))
    for family in range(3):
        for i in range(per_family):
            top, bottom = _gcd_family(rng, n_at(i, per_family), family)
            block.append(_query(top, bottom, oracles.gcd_index(top, bottom)))
    rng.shuffle(block)
    return block


def ask(query: Query, span=lambda name: nullcontext()) -> tuple[int, str, str]:
    """One request: `index T` then `wind T`, stdout captured; `span(name)`
    wraps each `cli.main` call when tracing."""
    index_out, wind_out = io.StringIO(), io.StringIO()
    with redirect_stdout(index_out), span("cli.main.index"):
        code = cli.main(["index", query.text])
    with redirect_stdout(wind_out), span("cli.main.wind"):
        code = code or cli.main(["wind", query.text])
    return code, index_out.getvalue(), wind_out.getvalue()


def check_answer(query: Query, code: int, index_out: str, wind_out: str
                 ) -> list[str]:
    if code != 0:
        return [f"{query.text}: exit code {code}"]
    return oracles.check_query(query, index_out, wind_out)


def queries(run: Run) -> Outcome:
    """Seeded single-type requests, whole stratified blocks at a time; the
    slowest take up to a second, so their speed is sampled while they run."""
    rng = random.Random(run.seed)
    with Sampler(after_s=LONG_OP_S) as sampler:
        out = Outcome(Gate(run.seconds / 2), sampler)
        start = perf_counter()
        while not out.op_seconds or perf_counter() - start < run.seconds:
            for query in query_block(rng, QUERY_GRID):
                out.record(check_answer(query, *out.timed(ask, query)))
    run.mark_peak()
    times = out.op_scaled
    out.figures.update({
        "queries_per_s": (len(times) / sum(times), "1/s"),
        "query_p50_us": (median(times) * 1e6, "us"),
        "query_p99_us": (percentile(times, 99) * 1e6, "us"),
    })
    return out


WORKLOADS = {
    "census": census,
    "census_parallel": census_parallel,
    "homotopy": homotopy,
    "verify": verify,
    "queries": queries,
}
