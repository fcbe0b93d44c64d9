"""Checks of the program's outputs that do not go through the code they check.

Every checker returns a list of problems; an empty list means the output
passed.  The oracles are written out here rather than imported from the
package, so a bug in the package cannot also bless its own output:

* census rows: the row sum 4^(n-1), the closed forms of the top three
  diagonals, the shipped reference CSV (read with the csv module, not the
  package's parser) and a second census path over the same n;
* homotopy rows: grouped by index (sum of components - 1), they must equal
  the index census of the same n, which ties the winding kernel to the
  graph kernel;
* query output: the printed index must equal the index implied by the
  printed homotopy type, the gcd formula on the gcd families, and
  2*cycles + paths - 1; the printed dimension must equal a sum of
  triangular numbers computed here;
* verify: exit code 0, a passing summary line and no failed check.
"""

from __future__ import annotations

import csv
import re
from math import gcd
from pathlib import Path

_C_VALUE = re.compile(r"C\((\d+)\)")
_HOMOTOPY = re.compile(r"H\((\d+(?:,\d+)*)\)")
_SUMMARY = re.compile(r"suite all: passed \((\d+)/(\d+)\)")


def diagonal(j: int, n: int) -> int:
    """C(n, n-j) for j = 1, 2, 3: the closed forms of the top diagonals."""
    if j == 1:
        return 2 ** (n - 1)
    if j == 2:
        return n * 2 ** (n - 2)
    if n <= 5:
        return (7 * n - 15) * 2 ** (n - 3)
    return (2 * n * n + 11 * n - 25) * 2 ** (n - 5)


def read_reference(path: Path) -> dict[int, dict[int, int]]:
    """Rows n -> {k: count} of a shipped `n,k,count` CSV, zero cells dropped."""
    rows: dict[int, dict[int, int]] = {}
    with open(path, newline="", encoding="ascii") as fh:
        for rec in csv.DictReader(fh):
            n, k, count = int(rec["n"]), int(rec["k"]), int(rec["count"])
            row = rows.setdefault(n, {})
            if count:
                row[k] = count
    return rows


def check_cnk_row(n: int, row: dict[int, int],
                  reference: dict[int, dict[int, int]],
                  other: dict[int, int] | None = None) -> list[str]:
    """Index tally C(n, .) against its sum, diagonals, reference and `other`."""
    problems = []
    total = sum(row.values())
    if total != 4 ** (n - 1):
        problems.append(f"row n={n} sums to {total}, expected {4 ** (n - 1)}")
    for j in (1, 2, 3):
        if n >= j:
            got, want = row.get(n - j, 0), diagonal(j, n)
            if got != want:
                problems.append(f"C({n},{n - j}) = {got}, closed form {want}")
    if n in reference and {k: v for k, v in row.items() if v} != reference[n]:
        problems.append(f"row n={n} differs from the reference table")
    if other is not None and row != other:
        problems.append(f"row n={n} differs from the other census path")
    return problems


def check_homotopy_row(n: int, homotopy_row: dict, cnk_row: dict[int, int]
                       ) -> list[str]:
    """Homotopy tally of n, grouped by index, against the index census of n."""
    grouped: dict[int, int] = {}
    for h, count in homotopy_row.items():
        k = sum(h.components) - 1
        grouped[k] = grouped.get(k, 0) + count
    problems = []
    total = sum(homotopy_row.values())
    if total != 4 ** (n - 1):
        problems.append(f"homotopy row n={n} sums to {total}, "
                        f"expected {4 ** (n - 1)}")
    if grouped != cnk_row:
        problems.append(f"homotopy row n={n} grouped by index differs "
                        "from the index census")
    return problems


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check_query(query, index_out: str, wind_out: str) -> list[str]:
    """Output of `index T` and `wind T` for one generated query."""
    top, bottom, n = query.top, query.bottom, query.n
    idx, wnd = _fields(index_out), _fields(wind_out)
    problems = []
    try:
        index = int(idx["index"])
        dimension = int(idx["dimension"])
        cycles, paths, rank = int(idx["cycles"]), int(idx["paths"]), int(idx["rank"])
        m = _HOMOTOPY.fullmatch(wnd["homotopy"])
        if not m:
            return [f"{query.text}: bad homotopy line {wnd['homotopy']!r}"]
        components = [int(c) for c in m.group(1).split(",")]
        recorded = [int(c) for c in _C_VALUE.findall(wnd["signature"])]
    except (KeyError, ValueError) as e:
        return [f"{query.text}: unreadable output ({type(e).__name__}: {e})"]
    if idx.get("type") != query.text:
        problems.append(f"{query.text}: echoed type {idx.get('type')!r}")
    if index != sum(components) - 1:
        problems.append(f"{query.text}: index {index} but homotopy "
                        f"{wnd['homotopy']} implies {sum(components) - 1}")
    if query.gcd_index is not None and index != query.gcd_index:
        problems.append(f"{query.text}: index {index}, gcd formula "
                        f"{query.gcd_index}")
    if index != 2 * cycles + paths - 1:
        problems.append(f"{query.text}: index {index} but {cycles} cycles "
                        f"and {paths} paths")
    tri = sum(a * (a + 1) // 2 for a in top) + sum(b * (b + 1) // 2 for b in bottom)
    if dimension != tri - n - 1:
        problems.append(f"{query.text}: dimension {dimension}, "
                        f"expected {tri - n - 1}")
    if rank != n - 1:
        problems.append(f"{query.text}: rank {rank}, expected {n - 1}")
    if recorded != components:
        problems.append(f"{query.text}: signature C-values {recorded} "
                        f"differ from homotopy {components}")
    if sum(components) > n:
        problems.append(f"{query.text}: components sum past n={n}")
    return problems


def gcd_index(top: tuple[int, ...], bottom: tuple[int, ...]) -> int:
    """Index of a|b/n, a|b|c/n and a|b/c|d from the gcd formulas."""
    if len(bottom) == 1 and len(top) == 2:
        a, b = top
        return gcd(a, b) - 1
    if len(bottom) == 1 and len(top) == 3:
        a, b, c = top
        return gcd(a + b, b + c) - 1
    if len(bottom) == 2 and len(top) == 2:
        (a, b), (c, _) = top, bottom
        return gcd(a + b, b + c) - 1
    raise ValueError(f"no gcd formula for {top}/{bottom}")


def check_verify(returncode: int, stdout: str) -> list[str]:
    """`seaweeds verify all`: exit 0, a passed summary, no FAIL line."""
    problems = []
    if returncode != 0:
        problems.append(f"verify all exited {returncode}")
    lines = stdout.strip().splitlines()
    m = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2):
        problems.append(f"verify all summary {lines[-1] if lines else ''!r}")
    else:
        passed = sum(line.startswith("[PASS]") for line in lines)
        if passed != int(m.group(2)):
            problems.append(f"{passed} PASS lines for {m.group(2)} checks")
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if failed:
        problems.append(f"{len(failed)} failed check(s); first: {failed[0]}")
    return problems
