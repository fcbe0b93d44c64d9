"""Censuses over pairs of compositions; ground truth for formulas.

census_cnk(n) tallies the seaweed index over all 4^(n-1) pairs by the
winding-down recurrence (winding._wind_tally): states are fixed leading parts
of both compositions, the five moves rewrite only those, and the index is
sum(C-values) - 1, so a row costs a few thousand memoized states instead of
4^(n-1) meander walks.  It rests on the theorem that the winding index equals
the graph index, which the exhaustive path checks row by row.

census_cnk_exhaustive(n) is that oracle, and census_cnk(n, workers > 1)
runs it: it walks every pair through its meander (_graph_indices, which
verify's per-pair winding check shares), on precomputed per-mask partner
tables, counting only cycles with an integer visited-bitmask and using

    index = 2*cycles + n - E - 1

(E total arcs): a cycle with v vertices has v arcs and a path v-1, so
paths = n - E and 2*cycles + paths - 1 needs no path walked.  Its workers
partition the pair-rank range [0, 4^(n-1)) into contiguous chunks; count maps
merge commutatively, so the result never depends on the split.
census_cnk_naive goes through the public meander API.  census_c21 and
census_c22 tally the two restricted families; homotopy_census tallies
canonical homotopy types exhaustively.  Results are sparse maps (zero counts
omitted).

Limits guard the 4x-per-step cost of the exhaustive paths and can be
overridden by environment variables (see DEFAULT_CENSUS_LIMIT /
DEFAULT_C22_MEANDER_LIMIT); census_cnk keeps the same limit.
"""

from __future__ import annotations

import csv
import io
import json
import os
import signal
from dataclasses import dataclass
from importlib import resources
from math import gcd
from multiprocessing import get_context

from .compositions import Composition, SeaweedType, composition_from_bitmask
from .errors import LimitExceeded, UsageError
from .meander import _block_edges, seaweed_index
from .winding import HomotopyType, _wind_homotopy, _wind_tally

CENSUS_LIMIT_ENV = "SEAWEEDS_CENSUS_LIMIT"
DEFAULT_CENSUS_LIMIT = 14
C22_MEANDER_LIMIT_ENV = "SEAWEEDS_C22_MEANDER_LIMIT"
DEFAULT_C22_MEANDER_LIMIT = 50


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {text!r}") from None


def census_limit() -> int:
    return _env_int(CENSUS_LIMIT_ENV, DEFAULT_CENSUS_LIMIT)


def c22_meander_limit() -> int:
    return _env_int(C22_MEANDER_LIMIT_ENV, DEFAULT_C22_MEANDER_LIMIT)


def _check_census_limit(n: int) -> None:
    limit = census_limit()
    if n > limit:
        raise LimitExceeded(
            f"census over 4^{n - 1} pairs exceeds the limit n <= {limit}; "
            f"cost grows 4x per step (set {CENSUS_LIMIT_ENV} to override)"
        )


def _mask_tables(n: int) -> tuple[list[list[int]], list[int]]:
    """Per-mask partner tables (0-based; partner[v] == v when unpaired) and
    arc counts."""
    partners = []
    arc_counts = []
    for mask in range(1 << (n - 1)):
        edges = _block_edges(composition_from_bitmask(n, mask).parts)
        ptr = list(range(n))
        for j, k in edges:
            ptr[j - 1], ptr[k - 1] = k - 1, j - 1
        partners.append(ptr)
        arc_counts.append(len(edges))
    return partners, arc_counts


def _graph_indices(n: int, T: list[int], tarcs: int, partners: list[list[int]],
                   arcs: list[int], bstart: int, bstop: int) -> list[int]:
    """Graph index of top table T over each bottom mask in [bstart, bstop).

    A walk starts at each unvisited vertex and goes one way only, so every
    vertex is visited once; a walk that returns to its start closes a cycle.
    Paths need no count: paths = n - E.
    """
    base = n - tarcs - 1
    out = []
    for bmask in range(bstart, bstop):
        B = partners[bmask]
        vis = 0
        cycles = 0
        for v in range(n):
            if vis >> v & 1:
                continue
            vis |= 1 << v
            cur = v
            lay, oth = T, B
            while True:
                nxt = lay[cur]
                if nxt == cur:
                    break
                m = 1 << nxt
                if vis & m:
                    if nxt == v:
                        cycles += 1
                    break
                vis |= m
                cur = nxt
                lay, oth = oth, lay
        out.append(2 * cycles + base - arcs[bmask])
    return out


def _census_range(n: int, start: int, stop: int) -> dict[int, int]:
    """Index tally over pair ranks [start, stop); the parallel work unit."""
    partners, arcs = _mask_tables(n)
    half = 1 << (n - 1)
    counts: dict[int, int] = {}
    rank = start
    while rank < stop:
        tmask, bstart = divmod(rank, half)
        bstop = min(half, bstart + (stop - rank))
        for idx in _graph_indices(n, partners[tmask], arcs[tmask], partners,
                                  arcs, bstart, bstop):
            counts[idx] = counts.get(idx, 0) + 1
        rank += bstop - bstart
    return counts


def merge_counts(parts) -> dict[int, int]:
    total: dict[int, int] = {}
    for part in parts:
        for key, v in part.items():
            total[key] = total.get(key, 0) + v
    return total


def census_cnk(n: int, workers: int = 1) -> dict[int, int]:
    """Tally of seaweed_index over all 4^(n-1) pairs of compositions of n.

    With one worker it is computed by the winding-down recurrence, whose
    memo lives only for this call.  The recurrence is serial and takes
    milliseconds, so more than one worker asks instead for the exhaustive
    census forked over that many processes (census_cnk_exhaustive): the
    independent cross-check, as in `table cnk --workers N`.
    """
    if workers > 1:
        return census_cnk_exhaustive(n, workers)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_census_limit(n)
    sums = _wind_tally(n, (), (), {})
    return {s - 1: v for s, v in sorted(sums.items())}


def _worker_init() -> None:
    # Leaving the pool stops idle workers with SIGTERM.  A Python-level
    # handler inherited through fork only sets a flag, which a worker about
    # to wait on the task-queue lock (held by the terminating pool) never
    # reads, so the pool hangs in join; the default action cannot miss.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _pool_size(workers: int) -> int:
    """Processes to start for `workers` jobs: no more than the usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def census_cnk_exhaustive(n: int, workers: int = 1) -> dict[int, int]:
    """Reference path: census_cnk by walking every pair's meander, split into
    `workers` jobs forked over at most as many processes as there are CPUs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_census_limit(n)
    total = 1 << (2 * (n - 1))
    if workers <= 1 or total < 4 * workers:
        return _census_range(n, 0, total)
    chunk, extra = divmod(total, workers)
    jobs = []
    pos = 0
    for w in range(workers):
        size = chunk + (1 if w < extra else 0)
        jobs.append((n, pos, pos + size))
        pos += size
    try:
        ctx = get_context("fork")
    except ValueError:
        raise UsageError(
            "workers > 1 needs the 'fork' start method, which this platform lacks"
        ) from None
    with ctx.Pool(_pool_size(workers), initializer=_worker_init) as pool:
        parts = pool.starmap(_census_range, jobs)
    return merge_counts(parts)


def census_cnk_naive(n: int) -> dict[int, int]:
    """Reference path: same tally through the public meander API, no kernel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_census_limit(n)
    counts: dict[int, int] = {}
    half = 1 << (n - 1)
    comps = [composition_from_bitmask(n, m) for m in range(half)]
    for top in comps:
        for bottom in comps:
            idx = seaweed_index(SeaweedType(top, bottom))
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def census_c21(n: int) -> dict[int, int]:
    """Tally of gcd(a, n) - 1 over a in [1, n-1] (two parts over one part)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    counts: dict[int, int] = {}
    for a in range(1, n):
        k = gcd(a, n) - 1
        counts[k] = counts.get(k, 0) + 1
    return counts


def census_c22(n: int, oracle: str = "gcd") -> dict[int, int]:
    """Tally over all (n-1)^2 pairs (a|n-a, c|n-c) of the seaweed index.

    oracle "gcd" uses index = gcd(n, n-a+c) - 1; oracle "meander" builds each
    meander and counts components (bounded, see DEFAULT_C22_MEANDER_LIMIT).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if oracle not in ("gcd", "meander"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle == "meander":
        limit = c22_meander_limit()
        if n > limit:
            raise LimitExceeded(
                f"meander oracle bounded at n <= {limit} "
                f"(set {C22_MEANDER_LIMIT_ENV} to override)"
            )
    counts: dict[int, int] = {}
    for a in range(1, n):
        for c in range(1, n):
            if oracle == "gcd":
                k = gcd(n, n - a + c) - 1
            else:
                st = SeaweedType(
                    Composition((a, n - a)), Composition((c, n - c))
                )
                k = seaweed_index(st)
            counts[k] = counts.get(k, 0) + 1
    return counts


def homotopy_census(n: int) -> dict[HomotopyType, int]:
    """Tally of canonical homotopy types over all 4^(n-1) pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_census_limit(n)
    half = 1 << (n - 1)
    parts = [composition_from_bitmask(n, m).parts for m in range(half)]
    counts: dict[tuple[int, ...], int] = {}
    for tp in parts:
        for bp in parts:
            key = tuple(sorted(_wind_homotopy(tp, bp)))
            counts[key] = counts.get(key, 0) + 1
    return {HomotopyType(key): v for key, v in sorted(counts.items())}


# --- tables and golden data --------------------------------------------------

_UNIVERSE = {
    "cnk": lambda n: 1 << (2 * (n - 1)),
    "c21": lambda n: n - 1,
    "c22": lambda n: (n - 1) * (n - 1),
}

_MIN_N = {"cnk": 1, "c21": 2, "c22": 2}


@dataclass(frozen=True)
class IndexTable:
    """Rows n -> (k -> count), zero cells omitted."""

    kind: str
    rows: dict[int, dict[int, int]]

    def __post_init__(self):
        if self.kind not in _UNIVERSE:
            raise ValueError(f"unknown table kind {self.kind!r}")

    def n_range(self) -> tuple[int, int]:
        return min(self.rows), max(self.rows)

    def universe(self, n: int) -> int:
        return _UNIVERSE[self.kind](n)

    def cell(self, n: int, k: int) -> int:
        return self.rows.get(n, {}).get(k, 0)

    def width(self) -> int:
        return max(self.rows)  # k columns run 0 .. max n - 1

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["n", "k", "count"])
        kmax = self.width() - 1
        for n in sorted(self.rows):
            for k in range(kmax + 1):
                w.writerow([n, k, self.cell(n, k)])
        return out.getvalue()

    def to_json(self) -> str:
        rows = {
            str(n): {str(k): v for k, v in sorted(self.rows[n].items())}
            for n in sorted(self.rows)
        }
        return json.dumps({"kind": self.kind, "rows": rows}, indent=2) + "\n"

    def to_markdown(self) -> str:
        kmax = self.width() - 1
        header = ["n\\k"] + [str(k) for k in range(kmax + 1)]
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "---|" * len(header))
        for n in sorted(self.rows):
            cells = [str(self.cell(n, k)) for k in range(kmax + 1)]
            lines.append("| " + " | ".join([str(n)] + cells) + " |")
        return "\n".join(lines) + "\n"

    def check_row_sums(self) -> None:
        for n, row in self.rows.items():
            got = sum(row.values())
            want = self.universe(n)
            if got != want:
                raise AssertionError(f"row {n} sums to {got}, expected {want}")


def table_from_csv(kind: str, text: str) -> IndexTable:
    rows: dict[int, dict[int, int]] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["n", "k", "count"]:
        raise ValueError(f"bad table header {header!r}")
    for rec in reader:
        if not rec:
            continue
        n, k, count = (int(x) for x in rec)
        rows.setdefault(n, {})
        if count:
            rows[n][k] = count
    return IndexTable(kind, rows)


def build_table(
    kind: str, max_n: int, oracle: str = "gcd", workers: int = 1
) -> IndexTable:
    min_n = _MIN_N[kind]
    if max_n < min_n:
        raise UsageError(f"max_n must be >= {min_n} for {kind}")
    # fail fast before any row is computed
    if kind == "cnk":
        _check_census_limit(max_n)
    elif kind == "c22" and oracle == "meander" and max_n > c22_meander_limit():
        raise LimitExceeded(
            f"n={max_n} exceeds the meander-oracle limit {c22_meander_limit()}; "
            f"raise {C22_MEANDER_LIMIT_ENV} to override"
        )
    rows = {}
    for n in range(min_n, max_n + 1):
        if kind == "cnk":
            rows[n] = census_cnk(n, workers=workers)
        elif kind == "c21":
            rows[n] = census_c21(n)
        else:
            rows[n] = census_c22(n, oracle=oracle)
    return IndexTable(kind, rows)


def load_golden(kind: str) -> IndexTable:
    """The reference tables shipped with the package (data/*_reference.csv)."""
    text = (
        resources.files("seaweeds.data")
        .joinpath(f"{kind}_reference.csv")
        .read_text(encoding="ascii")
    )
    return table_from_csv(kind, text)


def diff_golden(table: IndexTable, golden: IndexTable) -> list[str]:
    """Cell-by-cell comparison over the golden rectangle restricted to the
    rows the table actually has; missing rows are reported as such."""
    problems = []
    kmax = golden.width() - 1
    lo, hi = table.n_range()
    for n in sorted(golden.rows):
        if n < lo or n > hi:
            continue
        if n not in table.rows:
            problems.append(f"row n={n} missing from computed table")
            continue
        for k in range(kmax + 1):
            want = golden.cell(n, k)
            got = table.cell(n, k)
            if want != got:
                problems.append(f"cell (n={n}, k={k}): expected {want}, got {got}")
    extra = set(table.rows) - set(golden.rows)
    for n in sorted(extra):
        problems.append(f"row n={n} has no golden reference")
    return problems
