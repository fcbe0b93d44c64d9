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
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import SeaweedType


def _block_edges(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    edges = []
    p = 0
    for a in parts:
        s = 2 * p + a + 1  # j + k for every arc of this block
        for j in range(p + 1, p + 1 + a // 2):
            edges.append((j, s - j))
        p += a
    return edges


@dataclass(frozen=True)
class Meander:
    """n vertices (1-based) plus the arcs above and below the line."""

    n: int
    top_edges: tuple[tuple[int, int], ...]
    bottom_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ComponentSummary:
    cycles: int
    paths: int
    components: tuple[tuple[int, ...], ...]  # sorted vertices, discovery order

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


def component_summary(m: Meander) -> ComponentSummary:
    """Walk the graph.  Components are reported in order of lowest vertex."""
    top = [0] * (m.n + 1)  # partner via top arc, 0 = none
    bot = [0] * (m.n + 1)
    for j, k in m.top_edges:
        top[j], top[k] = k, j
    for j, k in m.bottom_edges:
        bot[j], bot[k] = k, j

    seen = [False] * (m.n + 1)
    cycles = 0
    paths = 0
    comps = []
    for start in range(1, m.n + 1):
        if seen[start]:
            continue
        # follow the path/cycle in both directions, alternating arc layers
        verts = {start}
        seen[start] = True
        is_cycle = False
        for first in (top, bot):
            layer, other = first, (bot if first is top else top)
            v = start
            while True:
                w = layer[v]
                if w == 0:
                    break
                if w in verts:
                    is_cycle = True  # closed back on the start
                    break
                verts.add(w)
                seen[w] = True
                v = w
                layer, other = other, layer
            if is_cycle:
                break
        if is_cycle:
            cycles += 1
        else:
            paths += 1
        comps.append(tuple(sorted(verts)))
    return ComponentSummary(cycles=cycles, paths=paths, components=tuple(comps))


def seaweed_index(t: SeaweedType) -> int:
    return component_summary(build_meander(t)).index


def seaweed_dimension(t: SeaweedType) -> int:
    tri = lambda a: a * (a + 1) // 2
    return sum(tri(a) for a in t.top) + sum(tri(b) for b in t.bottom) - t.n - 1


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
