import pytest

from seaweeds.compositions import (
    Composition,
    SeaweedType,
    all_compositions,
    all_pairs,
    parse_seaweed_type,
)
from seaweeds.enumeration import homotopy_census
from seaweeds.meander import seaweed_index
from seaweeds.winding import (
    HomotopyType,
    Move,
    _key_components,
    _move,
    _move_table,
    _type_key,
    _wind_homotopy,
    _wind_tally,
    _wind_types,
    format_signature,
    homotopy_components,
    homotopy_index,
    wind_down,
    wind_step,
)


def test_wind_step_examples():
    move, nxt = wind_step(parse_seaweed_type("15/2|5|1|5|2"))
    assert move == Move("P")
    assert str(nxt) == "11|2/5|1|5|2"

    move, nxt = wind_step(parse_seaweed_type("1/1"))
    assert move == Move("C", 1)
    assert nxt is None

    move, nxt = wind_step(parse_seaweed_type("2|3/1|4"))
    assert move == Move("B")
    assert str(nxt) == "1|3/4"

    move, nxt = wind_step(parse_seaweed_type("2|3/4|1"))
    assert move == Move("F")
    assert str(nxt) == "4|1/2|3"

    move, nxt = wind_step(parse_seaweed_type("3|1/2|2"))
    assert move == Move("R")
    assert str(nxt) == "2|1/1|2"


def test_wind_step_guards_cover_all_head_pairs():
    # the move is a total function of (a1, b1): exactly one guard fires, and
    # _move, the census table, wind_step and the deque kernel's first step
    # agree on it, so the kernel's inline copy of the rule is _move's; the
    # index and type tables differ only in C's field
    mv, kv = _move_table(24, 7, False), _move_table(24, 5, True)
    for a1 in range(1, 25):
        for b1 in range(1, 25):
            ta, tb = (b1 + 24,), (a1 + 24,)
            move, nxt = wind_step(SeaweedType(Composition((a1,) + ta),
                                              Composition((b1,) + tb)))
            moves = []
            comps = _wind_homotopy((a1,) + ta, (b1,) + tb, moves)
            assert moves[0] == move
            if a1 < b1:
                assert move.tag == "F"
                assert (nxt.top.parts, nxt.bottom.parts) == ((b1,) + tb, (a1,) + ta)
            else:
                tag, d, th, bh = _move(a1, b1)
                if a1 == b1:
                    want = "C"
                elif a1 < 2 * b1:
                    want = "R"
                elif a1 == 2 * b1:
                    want = "B"
                else:
                    want = "P"
                assert move.tag == tag == want
                assert mv[a1][b1] == (d, th, bh, 7 * d if tag == "C" else 0)
                assert kv[a1][b1] == (d, th, bh, 1 << 5 * (d - 1) if tag == "C" else 0)
                assert move == (Move("C", d) if tag == "C" else Move(tag))
                assert (nxt.top.parts, nxt.bottom.parts) == (th + ta, bh + tb)
                assert sum(th) == a1 - d and sum(bh) == b1 - d
            # the parts the kernel's first step leaves wind on as wind_step's
            rest_moves = []
            rest = _wind_homotopy(nxt.top.parts, nxt.bottom.parts, rest_moves)
            assert moves[1:] == rest_moves
            recorded = (move.size,) if move.tag == "C" else ()
            assert comps == recorded + rest


def test_wind_down_move_sequence():
    sig, h = wind_down(parse_seaweed_type("2|4/1|2|3"))
    assert [m.tag for m in sig.moves] == list("BFBFPFRBC")
    assert h == HomotopyType((1,))
    assert homotopy_index(h) == 0


def test_wind_down_worked_example():
    sig, h = wind_down(parse_seaweed_type("15/2|5|1|5|2"))
    assert format_signature(sig) == "PPC(1)C(5)C(2)"
    assert str(h) == "H(1,5,2)"
    assert homotopy_index(h) == 7


def test_homotopy_type_separates_equal_index_types():
    _, h1 = wind_down(parse_seaweed_type("5|3/3|3|2"))
    _, h2 = wind_down(parse_seaweed_type("4|4/2|4|2"))
    assert str(h1) == "H(1,1)"
    assert str(h2) == "H(2)"
    assert h1 != h2
    assert homotopy_index(h1) == homotopy_index(h2) == 1


def test_homotopy_type_multiset_equality():
    assert HomotopyType((1, 5, 2)) == HomotopyType((5, 2, 1))
    assert hash(HomotopyType((1, 5, 2))) == hash(HomotopyType((5, 2, 1)))
    assert HomotopyType((1, 5, 2)) != HomotopyType((1, 5))
    assert str(HomotopyType((1, 5, 2))) == "H(1,5,2)"  # order preserved in text
    # the canonical tuple is computed once and stays out of repr
    assert HomotopyType((1, 5, 2)).canonical() == (1, 2, 5)
    assert repr(HomotopyType((1, 5, 2))) == "HomotopyType(components=(1, 5, 2))"
    with pytest.raises(ValueError):
        HomotopyType((0,))
    # a component that is not a positive int, which str() would print as is
    for bad in ((2.5,), (True,), (2, True), ("2",)):
        with pytest.raises(ValueError, match="^components must be positive$"):
            HomotopyType(bad)


def test_homotopy_index_examples():
    assert homotopy_index(HomotopyType((1, 5, 2))) == 7
    assert homotopy_index(HomotopyType((1,))) == 0
    assert homotopy_index(HomotopyType((2,))) == 1
    with pytest.raises(ValueError):
        homotopy_index(HomotopyType(()))


def test_move_text_is_kept_outside_eq_hash_and_repr():
    assert repr(Move("C", 3)) == "Move(tag='C', size=3)"
    assert repr(Move("F")) == "Move(tag='F', size=None)"
    assert Move("C", 3) == Move("C", 3)
    assert hash(Move("C", 3)) == hash(Move("C", 3))
    assert Move("C", 3) != Move("C", 4)
    assert (str(Move("C", 12)), str(Move("P"))) == ("C(12)", "P")
    # a wound signature shares one object per tag and one per C size
    sig, _ = wind_down(parse_seaweed_type("1|1|1|2|1|1|1/1|1|1|2|1|1|1"))
    assert format_signature(sig) == "C(1)C(1)C(1)C(2)C(1)C(1)C(1)"
    assert len({id(m) for m in sig.moves}) == 2
    sig, _ = wind_down(parse_seaweed_type("2|4/1|2|3"))
    assert format_signature(sig) == "BFBFPFRBC(1)"
    assert len({id(m) for m in sig.moves}) == 5


def test_move_validation():
    with pytest.raises(ValueError):
        Move("X")
    with pytest.raises(ValueError):
        Move("C")  # size required
    with pytest.raises(ValueError):
        Move("F", 3)  # size forbidden
    # a C size that is not a positive int
    for size in (0, -3, 2.0, "2", True):
        with pytest.raises(ValueError, match="C size must be a positive integer"):
            Move("C", size)


def test_termination_and_conservation():
    # every non-F move strictly shrinks n, F never repeats, and the vertices
    # accounted: recorded C sizes plus what R/B/P discard add up to n
    for n in range(1, 8):
        for st in all_pairs(n):
            sig, h = wind_down(st)
            assert len(sig.moves) <= 2 * n + 1
            assert "FF" not in "".join(m.tag for m in sig.moves)
            recorded = 0
            shrunk = 0
            cur = st
            for move in sig.moves:
                got, nxt = wind_step(cur)
                assert got == move
                after = nxt.n if nxt is not None else 0
                if move.tag == "C":
                    assert cur.n - after == move.size
                    recorded += move.size
                elif move.tag == "F":
                    assert after == cur.n
                else:
                    assert after < cur.n
                    shrunk += cur.n - after
                cur = nxt
            assert cur is None
            assert recorded + shrunk == n
            assert sum(h.components) <= n


def test_same_composition_winds_to_its_parts():
    for n in range(1, 11):
        for c in all_compositions(n):
            st = parse_seaweed_type(f"{c}/{c}")
            _, h = wind_down(st)
            assert h.components == c.parts
            assert sum(h.components) == n


def test_fast_kernel_matches_wind_down(seeded_pairs):
    # wind_down and homotopy_components run the kernel itself, so wind down
    # by wind_step objects: every pair with n <= 8, then the regime of the
    # queries benchmark's tail, thousands of moves on parts of 1 to 3; the
    # printed signature is spelled from the wind_step moves' tags and sizes
    many_part = seeded_pairs(3400, 20, (100, 1000), (1, 3))
    assert max(st.n for st in many_part) > 700
    for st in [st for n in range(1, 9) for st in all_pairs(n)] + many_part:
        moves = []
        cur = st
        while cur is not None:
            move, cur = wind_step(cur)
            moves.append(move)
        sig, h = wind_down(st)
        got = [(m.tag, m.size) for m in sig.moves]
        assert got == [(m.tag, m.size) for m in moves], str(st)
        assert format_signature(sig) == "".join(
            f"C({m.size})" if m.tag == "C" else m.tag for m in moves), str(st)
        sizes = tuple(m.size for m in moves if m.tag == "C")
        assert homotopy_components(st) == h.components == sizes, str(st)


def test_homotopy_index_matches_graph_index():
    for n in range(1, 9):
        for st in all_pairs(n):
            _, h = wind_down(st)
            assert homotopy_index(h) == seaweed_index(st)


def test_a_move_keeps_the_graph_index_of_every_rest():
    # the lemma under verify's winding certificate, by brute force: for
    # leading parts b < a <= 6 and every rest of k <= 6 more vertices (top
    # rest x bottom rest), the R, B or P move _move gives keeps seaweed_index
    # and takes its d vertices off
    rests = [[()]] + [[c.parts for c in all_compositions(m)] for m in range(1, 12)]
    moved = 0
    for a in range(2, 7):
        for b in range(1, a):
            tag, d, th, bh = _move(a, b)
            assert tag in "RBP"
            assert sum(th) == a - d and sum(bh) == b - d
            for k in range(7):
                bottoms = [(Composition((b,) + tb), Composition(bh + tb))
                           for tb in rests[a - b + k]]
                for ta in rests[k]:
                    top, new_top = Composition((a,) + ta), Composition(th + ta)
                    for bottom, new_bottom in bottoms:
                        st = SeaweedType(top, bottom)
                        new = SeaweedType(new_top, new_bottom)
                        assert seaweed_index(new) == seaweed_index(st), str(st)
                        moved += 1
    assert moved == 155667


def test_recurrence_memoizes_only_branch_states():
    # moves between branch states are followed, not memoized; keying every
    # state (m, top, bottom) held 10125 entries here
    memo = {}
    _wind_tally(14, (), (), memo, _move_table(14, 28, False))
    assert len(memo) == 875
    assert all(len(key) == 2 and isinstance(key[0], int)
               and isinstance(key[1], tuple) for key in memo)
    # the homotopy recurrence branches at the same states
    types = {}
    _wind_types(14, (), (), types, _move_table(14, 4, True))
    assert types.keys() == memo.keys()


def test_move_table_is_built_once_and_read_only():
    mv = _move_table(9, 18, False)
    assert _move_table(9, 18, False) is mv
    assert isinstance(mv, tuple) and all(isinstance(row, tuple) for row in mv)


def _multisets(total, largest=None):
    # every multiset of positive ints of sum <= total, as a sorted tuple
    largest = total if largest is None else largest
    yield ()
    for c in range(1, min(total, largest) + 1):
        for rest in _multisets(total - c, c):
            yield rest + (c,)


def test_type_key_decodes_to_the_sorted_multiset():
    for n in range(1, 15):
        b = n.bit_length()
        for ms in _multisets(n):
            assert _key_components(_type_key(ms[::-1], b), b) == ms, (n, ms)


def test_type_key_adds_as_multisets_unite():
    b = (12).bit_length()
    every = list(_multisets(12))
    for x in every:
        for y in every:
            if sum(x) + sum(y) <= 12:
                assert (_type_key(x, b) + _type_key(y, b)
                        == _type_key(x + y, b)), (x, y)


def test_homotopy_index_matches_graph_index_on_large_random_pairs(large_random_pairs):
    for st in large_random_pairs:
        _, h = wind_down(st)
        assert homotopy_index(h) == seaweed_index(st), str(st)

