import math
import random

import pytest

from seaweeds.compositions import (
    Composition,
    SeaweedType,
    all_pairs,
    composition_from_bitmask,
    parse_seaweed_type,
)
from seaweeds.meander import (
    _block_edges,
    _joins,
    build_meander,
    component_summary,
    meander_svg,
    meander_tikz,
    seaweed_dimension,
    seaweed_index,
    seaweed_rank,
)


def M(text):
    return build_meander(parse_seaweed_type(text))


def test_edges_worked_example():
    m = M("2|4/1|2|3")
    assert set(m.top_edges) == {(1, 2), (3, 6), (4, 5)}
    assert set(m.bottom_edges) == {(2, 3), (4, 6)}


def test_edges_trivial_cases():
    m = M("1/1")
    assert m.n == 1 and m.top_edges == () and m.bottom_edges == ()
    m = M("4/4")
    assert set(m.top_edges) == {(1, 4), (2, 3)}
    assert set(m.bottom_edges) == {(1, 4), (2, 3)}


def test_edges_obey_block_sum_rule(seeded_pairs):
    # within the block of size a starting after prefix p: j + k = 2p + a + 1,
    # and a part of 1 has no arc; many-part sides hold long runs of 1s
    types = [parse_seaweed_type("3|5|2/4|6"), parse_seaweed_type("1|1|3|1|1/2|1|1|3")]
    types += seeded_pairs(5150, 20, (8, 1000), (1, 3))
    assert any(st.top.parts.count(1) > 100 for st in types)
    for st in types:
        m = build_meander(st)
        for edges, comp in ((m.top_edges, st.top), (m.bottom_edges, st.bottom)):
            remaining = set(edges)
            assert len(remaining) == len(edges) == sum(a // 2 for a in comp.parts)
            p = 0
            for a in comp.parts:
                for j in range(p + 1, p + 1 + a // 2):
                    k = 2 * p + a + 1 - j
                    assert (j, k) in remaining
                    remaining.discard((j, k))
                p += a
            assert not remaining


def test_component_summary_examples():
    s = component_summary(M("2|4/1|2|3"))
    assert (s.cycles, s.paths) == (0, 1)
    assert s.components == ((1, 2, 3, 4, 5, 6),)
    s = component_summary(M("4/4"))
    assert (s.cycles, s.paths) == (2, 0)
    assert s.components == ((1, 4), (2, 3))
    s = component_summary(M("1|1/1|1"))
    assert (s.cycles, s.paths) == (0, 2)


def test_component_order_is_by_lowest_vertex():
    s = component_summary(M("2|2/1|1|2"))
    assert list(s.components) == sorted(s.components, key=lambda c: c[0])
    assert all(list(c) == sorted(c) for c in s.components)


def test_components_against_the_edges(seeded_pairs):
    # an oracle from the arc lists alone, not from any walk: every pair with
    # n <= 7, then seeded many-part types, whose runs of parts of 1 leave
    # isolated vertices and short paths between the larger parts' arcs
    types = [st for n in range(1, 8) for st in all_pairs(n)]
    for st in types + seeded_pairs(2009, 40, (8, 200), (1, 3)):
        n = st.n
        m = build_meander(st)
        edges = m.top_edges + m.bottom_edges
        top = dict(m.top_edges + tuple((k, j) for j, k in m.top_edges))
        bot = dict(m.bottom_edges + tuple((k, j) for j, k in m.bottom_edges))
        low = list(range(n + 1))  # lowest vertex joined to v, relaxed
        changed = True
        while changed:
            changed = False
            for j, k in edges:
                if low[j] != low[k]:
                    low[j] = low[k] = min(low[j], low[k])
                    changed = True
        s = component_summary(m)
        flat = [v for comp in s.components for v in comp]
        assert sorted(flat) == list(range(1, n + 1)), st
        cycles = 0
        for comp in s.components:
            assert list(comp) == sorted(comp), st
            assert all(low[v] == comp[0] for v in comp), st  # connected
            for layer in (top, bot):
                assert all(layer.get(v, v) in comp for v in comp), st
            cycles += all(v in top and v in bot for v in comp)
        assert s.cycles == cycles, st
        assert s.paths == n - len(edges), st
        assert s.paths == len(s.components) - cycles, st
        firsts = [comp[0] for comp in s.components]
        assert firsts == sorted(firsts), st


def test_index_examples():
    assert seaweed_index(parse_seaweed_type("2|4/1|2|3")) == 0
    assert seaweed_index(parse_seaweed_type("4/4")) == 3
    assert seaweed_index(parse_seaweed_type("5|3/3|3|2")) == 1
    assert seaweed_index(parse_seaweed_type("4|4/2|4|2")) == 1


def test_index_join_matches_the_walk():
    # seaweed_index joins path ends and lists nothing; component_summary
    # walks every vertex: two independent readings of 2*cycles + paths - 1.
    # Every pair with n <= 7, then seeded types over the sizes `seaweeds
    # index` is asked for: n log-uniform up to 4096, mean part log-uniform
    # up to 300, and sides of one part or of n ones.
    rng = random.Random(4096)

    def composition(n, mean):
        cuts = sorted(rng.sample(range(1, n), max(1, min(n, round(n / mean))) - 1))
        return Composition(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))

    types = [st for n in range(1, 8) for st in all_pairs(n)]
    for i in range(300):
        n = round(math.exp(rng.uniform(0, math.log(4096))))
        mean = math.exp(rng.uniform(0, math.log(300)))
        top = composition(n, mean)
        bottom = [composition(n, mean), Composition((n,)), Composition((1,) * n)][i % 3]
        types += [SeaweedType(top, bottom), SeaweedType(bottom, top)]
    for st in types:
        assert seaweed_index(st) == component_summary(build_meander(st)).index, st


@pytest.mark.parametrize("order", [1, -1], ids=["mask order", "reversed"])
def test_seeded_joins_match_the_walk(order):
    # one seed a top, every bottom joined into its own copy: each value is
    # the walk's index + 1 whatever bottoms came before it
    for n in range(1, 8):
        comps = [composition_from_bitmask(n, m) for m in range(1 << (n - 1))][::order]
        bottoms = [_block_edges(b.parts) for b in comps]
        for top in comps:
            got = [value for _, value in _joins(top.parts, bottoms)]
            want = [component_summary(build_meander(SeaweedType(top, b))).index + 1
                    for b in comps]
            assert got == want, top


def test_index_bounds_and_max_iff_equal():
    for n in range(1, 8):
        for st in all_pairs(n):
            idx = seaweed_index(st)
            assert 0 <= idx <= n - 1
            assert (idx == n - 1) == (st.top == st.bottom)


def test_index_symmetric_in_top_bottom():
    from seaweeds.compositions import SeaweedType

    for n in range(1, 7):
        for st in all_pairs(n):
            assert seaweed_index(st) == seaweed_index(SeaweedType(st.bottom, st.top))


def test_cycles_have_even_size():
    for n in range(1, 8):
        for st in all_pairs(n):
            m = build_meander(st)
            deg = [0] * (m.n + 1)
            for u, v in m.top_edges + m.bottom_edges:
                deg[u] += 1
                deg[v] += 1
            for comp in component_summary(m).components:
                if all(deg[v] == 2 for v in comp):
                    assert len(comp) % 2 == 0


def test_dimension_examples():
    assert seaweed_dimension(parse_seaweed_type("5|3/3|3|2")) == 27
    assert seaweed_dimension(parse_seaweed_type("4|4/2|4|2")) == 27
    assert seaweed_dimension(parse_seaweed_type("1/1")) == 0
    assert seaweed_dimension(parse_seaweed_type("2|4/1|2|3")) == 16


def test_dimension_is_the_triangle_sum(large_random_pairs):
    # the per-part sum of the module docstring against the sum of squares
    # seaweed_dimension reads it as
    tri = lambda a: a * (a + 1) // 2
    for st in [st for n in range(1, 8) for st in all_pairs(n)] + large_random_pairs:
        want = sum(map(tri, st.top.parts)) + sum(map(tri, st.bottom.parts)) - st.n - 1
        assert seaweed_dimension(st) == want, st


def test_rank():
    assert seaweed_rank(8) == 7
    assert seaweed_rank(1) == 0
    assert seaweed_rank(10) == 9
    with pytest.raises(ValueError):
        seaweed_rank(0)


def test_svg_shape():
    svg = meander_svg(M("2|4/1|2|3"))
    assert svg.count("<path") == 5  # 3 top arcs + 2 bottom arcs
    assert svg.count("<circle") == 6
    assert svg.startswith('<?xml version="1.0"')
    # sweep flag separates the layers: 1 above the line, 0 below
    assert svg.count(" 0 0 1 ") == 3
    assert svg.count(" 0 0 0 ") == 2


def test_svg_single_vertex():
    svg = meander_svg(M("1/1"))
    assert svg.count("<circle") == 1
    assert svg.count("<path") == 0


def test_render_deterministic():
    a = meander_svg(M("15/2|5|1|5|2"))
    b = meander_svg(M("15/2|5|1|5|2"))
    assert a == b
    assert a.count("<path") == 13  # 7 top + 6 bottom
    assert meander_tikz(M("4/4")) == meander_tikz(M("4/4"))


def test_tikz_shape():
    tikz = meander_tikz(M("2|4/1|2|3"))
    assert tikz.count("bend left") == 3
    assert tikz.count("bend right") == 2
    assert tikz.count(r"\node") == 6
    assert tikz.startswith(r"\begin{tikzpicture}")
    assert tikz.rstrip().endswith(r"\end{tikzpicture}")
