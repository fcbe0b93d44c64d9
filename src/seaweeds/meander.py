"""Meander graphs of seaweed types and the invariants read off them.

Place vertices 1..n on a horizontal line.  Each part of the top composition
contributes a family of nested arcs drawn above the line: the block covering
positions p+1..p+a (p = sum of the earlier parts) joins vertices j and k
whenever j + k = 2p + a + 1.  The bottom composition contributes arcs below
the line the same way.  Every vertex meets at most one top arc and at most
one bottom arc, so the graph is a disjoint union of simple paths and cycles
(an isolated vertex counts as a path).

For a seaweed in sl(n) of this type,

    index     = 2 * (#cycles) + (#paths) - 1      (ComponentSummary.index)
    dimension = sum a_i(a_i+1)/2 + sum b_j(b_j+1)/2 - n - 1
    rank      = n - 1

seaweed_index counts, without a walk: _join joins path ends arc by arc for
one pair, and verify's winding certificate reads the same join on a prefix
of a pair.  _joins, under _join, seeds one side once and joins each of many
other sides into a copy: verify's gcd families, census_c22's meander
oracle and the exhaustive census (enumeration._census_rows) run it once per
shared side, so the join is written once.
component_summary walks the graph and lists each component's vertex set;
the CLI's `index` reports it, and the tests hold the join against it.
"""

from __future__ import annotations

from operator import mul

from .compositions import SeaweedType
from .errors import Frozen


def _block_edges(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    edges = []
    p = 0
    for a in parts:
        if a > 1:  # a part of 1 has no arc: no range is built for it
            s = 2 * p + a + 1  # j + k for every arc of this block
            for j in range(p + 1, p + 1 + a // 2):
                edges.append((j, s - j))
        p += a
    return edges


class Meander(Frozen):
    """n vertices (1-based) plus the arcs above and below the line."""

    __slots__ = ("n", "top_edges", "bottom_edges")

    def __init__(self, n: int, top_edges: tuple[tuple[int, int], ...],
                 bottom_edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "top_edges", top_edges)
        object.__setattr__(self, "bottom_edges", bottom_edges)


class ComponentSummary(Frozen):
    __slots__ = ("cycles", "paths", "components")

    def __init__(self, cycles: int, paths: int,
                 components: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "paths", paths)
        # sorted vertices, discovery order
        object.__setattr__(self, "components", components)

    @property
    def index(self) -> int:
        """Index of the seaweed whose meander this summarises."""
        return 2 * self.cycles + self.paths - 1


def build_meander(t: SeaweedType) -> Meander:
    return Meander(
        n=t.n,
        top_edges=tuple(_block_edges(t.top.parts)),
        bottom_edges=tuple(_block_edges(t.bottom.parts)),
    )


def _partners(n: int, edges) -> list[int]:
    """One arc layer as a 1-based table: ptr[v] is v's partner, or v if none."""
    ptr = list(range(n + 1))
    for j, k in edges:
        ptr[j], ptr[k] = k, j
    return ptr


def component_summary(m: Meander) -> ComponentSummary:
    """Walk the graph.  Components are reported in order of lowest vertex.

    Every vertex is visited once, by walks that go one way: one from an end of
    each path (a vertex with no arc in some layer), then one round each cycle.
    Paths are not counted on the walk: paths = n - E (E arcs in both layers).
    Only the vertex sets need the walk: seaweed_index and the exhaustive
    census join path ends arc by arc (_joins), which counts cycles but lists
    no vertex sets, so this walk is their independent oracle.
    """
    top = _partners(m.n, m.top_edges)
    bot = _partners(m.n, m.bottom_edges)
    comp_of = [None] * (m.n + 1)  # the list that will hold v's component
    for ends_only in (True, False):
        for start in range(1, m.n + 1):
            if (comp_of[start] is not None
                    or ends_only and top[start] != start != bot[start]):
                continue
            lay, oth = (bot, top) if top[start] == start else (top, bot)
            comp = []
            v = start
            while comp_of[v] is None:
                comp_of[v] = comp
                v = lay[v]
                lay, oth = oth, lay
    comps = []
    for v in range(1, m.n + 1):  # in vertex order: each list comes out sorted
        if not comp_of[v]:
            comps.append(comp_of[v])
        comp_of[v].append(v)
    # a cycle of v vertices has v arcs, a path v - 1
    paths = m.n - len(m.top_edges) - len(m.bottom_edges)
    return ComponentSummary(len(comps) - paths, paths, tuple(map(tuple, comps)))


def _joins(top: tuple[int, ...], bottoms):
    """Path ends and 2*cycles + paths of top over each bottom arc list.

    The parts of top cover vertices 1..n, n = sum(top), and each bottom's
    arcs (from _block_edges) lie within 1..n.  A path-end seed is built once
    from the top's partner table (end[u] = far end of the path ending at u)
    and the value n - (top arcs); each bottom is joined into a fresh copy of
    it.  A bottom arc (u, w) closes a cycle if end[u] == w (+1); else the
    far ends x, y of u and w now end one path (end[x], end[y] = y, x; -1).
    A vertex without a bottom arc stays a path end, so its entry of a
    yielded end array is the far end of its path.
    """
    n = sum(top)
    arcs = _block_edges(top)
    seed = _partners(n, arcs)
    seed_val = n - len(arcs)
    for bottom in bottoms:
        end = seed[:]
        val = seed_val
        for u, w in bottom:
            x = end[u]
            if x == w:
                val += 1
            else:
                y = end[w]
                end[x] = y
                end[y] = x
                val -= 1
        yield end, val


def _join(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[list[int], int]:
    """_joins of one pair, or of one prefix: the bottom's parts cover
    1..sum(bottom) <= sum(top).  seaweed_index and verify's winding
    certificate join one at a time; a family that shares a side calls
    _joins once for it."""
    return next(_joins(top, (_block_edges(bottom),)))


def seaweed_index(t: SeaweedType) -> int:
    """Index of the seaweed of type t, as index + 1 = 2*cycles + n - E.

    The path-end join (_join) counts it with no Meander and no vertex lists;
    _joins writes the join once, for every caller.
    """
    return _join(t.top.parts, t.bottom.parts)[1] - 1


def seaweed_dimension(t: SeaweedType) -> int:
    """sum a(a+1)/2 + sum b(b+1)/2 - n - 1, read as (sum a^2 + sum b^2)/2 - 1:
    both sides sum to n, so the linear terms cancel the - n."""
    top, bottom = t.top.parts, t.bottom.parts
    return (sum(map(mul, top, top)) + sum(map(mul, bottom, bottom))) // 2 - 1


def seaweed_rank(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return n - 1


# --- rendering ---------------------------------------------------------------
#
# Deterministic emitters: vertices sit on a line at unit spacing (40px in the
# SVG), each arc is a semicircle so its height is proportional to its span,
# and identical input yields byte-identical output.

_SPACING = 40
_MARGIN = 20
_DOT = 3

# A drawing takes ~120 bytes a vertex (render 100000/100000 wrote 11.8 MB),
# and one of 10^4 vertices is already 400000 px wide: refuse larger n.
MAX_RENDER_N = 10**4


def meander_svg(m: Meander) -> str:
    x = lambda v: _MARGIN + (v - 1) * _SPACING
    r = lambda u, v: (v - u) * _SPACING // 2
    rtop = max((r(u, v) for u, v in m.top_edges), default=0)
    rbot = max((r(u, v) for u, v in m.bottom_edges), default=0)
    y0 = _MARGIN + rtop
    width = 2 * _MARGIN + (m.n - 1) * _SPACING
    height = y0 + rbot + _MARGIN
    arcs = []
    for u, v in m.top_edges:
        arcs.append(
            f'    <path d="M {x(u)} {y0} A {r(u, v)} {r(u, v)} 0 0 1 {x(v)} {y0}"/>'
        )
    for u, v in m.bottom_edges:
        arcs.append(
            f'    <path d="M {x(u)} {y0} A {r(u, v)} {r(u, v)} 0 0 0 {x(v)} {y0}"/>'
        )
    dots = [
        f'    <circle cx="{x(v)}" cy="{y0}" r="{_DOT}"/>' for v in range(1, m.n + 1)
    ]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '  <g stroke="black" stroke-width="2" fill="none">',
        *arcs,
        "  </g>",
        '  <g fill="black" stroke="none">',
        *dots,
        "  </g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def meander_tikz(m: Meander) -> str:
    lines = [r"\begin{tikzpicture}"]
    for v in range(1, m.n + 1):
        lines.append(
            rf"  \node[circle, fill, inner sep=2pt] ({v}) at ({v - 1}, 0) {{}};"
        )
    for u, v in m.top_edges:
        lines.append(rf"  \draw ({u}) to[bend left] ({v});")
    for u, v in m.bottom_edges:
        lines.append(rf"  \draw ({u}) to[bend right] ({v});")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"
