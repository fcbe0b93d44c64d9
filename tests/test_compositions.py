import random
import sys

import pytest

from seaweeds.compositions import (
    Composition,
    SeaweedType,
    all_compositions,
    all_pairs,
    composition_from_bitmask,
    format_composition,
    format_seaweed_type,
    parse_composition,
    parse_seaweed_type,
)
from seaweeds.errors import ParseError


def compositions_recursive(n):
    # independent oracle: first part a, then any composition of n - a
    if n == 0:
        yield ()
        return
    for a in range(1, n + 1):
        for rest in compositions_recursive(n - a):
            yield (a,) + rest


def test_bitmask_examples():
    assert composition_from_bitmask(4, 0).parts == (4,)
    assert composition_from_bitmask(4, 0b111).parts == (1, 1, 1, 1)
    # cuts after positions 1 and 3
    assert composition_from_bitmask(6, 0b101).parts == (1, 2, 3)


def test_bitmask_bijection_small_n():
    for n in range(1, 13):
        seen = set()
        for mask in range(1 << (n - 1)):
            c = composition_from_bitmask(n, mask)
            assert sum(c.parts) == n
            assert c.bitmask() == mask
            seen.add(c.parts)
        assert seen == set(compositions_recursive(n))


def test_bitmask_range_errors():
    with pytest.raises(ValueError):
        composition_from_bitmask(4, 8)
    with pytest.raises(ValueError):
        composition_from_bitmask(4, -1)
    with pytest.raises(ValueError):
        composition_from_bitmask(0, 0)


def test_all_compositions_order_and_count():
    got = list(all_compositions(3))
    assert [c.parts for c in got] == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    assert len(list(all_compositions(1))) == 1
    assert len(list(all_compositions(10))) == 512


def test_all_pairs_count_and_rank_order():
    pairs = list(all_pairs(5))
    assert len(pairs) == 256
    assert [p.rank() for p in pairs] == list(range(256))
    assert pairs[0].top.parts == (5,) and pairs[0].bottom.parts == (5,)


def test_all_pairs_partitioning():
    whole = [str(p) for p in all_pairs(4)]
    cuts = [0, 7, 7, 20, 64]
    chunks = []
    for lo, hi in zip(cuts, cuts[1:]):
        chunks.extend(str(p) for p in all_pairs(4, lo, hi))
    assert chunks == whole
    with pytest.raises(ValueError):
        list(all_pairs(4, 5, 3))
    with pytest.raises(ValueError):
        list(all_pairs(4, 0, 65))


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))
    with pytest.raises(ValueError):
        Composition((-1,))
    assert Composition((2, 4)).n == 6
    assert len(Composition((2, 4))) == 2


def test_seaweed_type_validation():
    with pytest.raises(ValueError):
        SeaweedType(Composition((2, 4)), Composition((1, 2)))
    st = SeaweedType(Composition((2, 4)), Composition((1, 2, 3)))
    assert st.n == 6


def test_parse_and_format_round_trip():
    for text in ("2|4", "15", "1|1|1|1", "10|20|3"):
        assert format_composition(parse_composition(text)) == text
    for text in ("2|4/1|2|3", "15/2|5|1|5|2", "1/1"):
        assert format_seaweed_type(parse_seaweed_type(text)) == text
    assert str(parse_seaweed_type("4/2|2")) == "4/2|2"


@pytest.mark.parametrize(
    "bad",
    ["", "2|", "|2", "2||3", "0|2", "02", "2 | 3", " 2", "a|b", "2|-3"],
)
def test_parse_composition_rejects(bad):
    with pytest.raises(ParseError):
        parse_composition(bad)


def test_parse_seaweed_type_rejects():
    with pytest.raises(ParseError):
        parse_seaweed_type("2|4")  # no slash
    with pytest.raises(ParseError):
        parse_seaweed_type("2/3/4")
    with pytest.raises(ParseError):
        parse_seaweed_type("2|4/1|2")  # sums 6 vs 3
    with pytest.raises(ParseError):
        parse_seaweed_type("2|4/")


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_composition("2|x")
    assert e.value.position == 2
    with pytest.raises(ParseError) as e:
        parse_seaweed_type("2|4/1|x|3")
    assert e.value.position == 6


def _scan(text):
    """Part by part, character by character: the parts, or the
    (message, position) of the first place the text goes wrong."""
    if not text:
        return "empty composition", 0
    pos = 0
    while True:
        end = pos
        while end < len(text) and text[end] in "0123456789":
            end += 1
        if end == pos or text[pos] == "0":
            return f"expected part in {text!r}", pos
        if end == len(text):
            return [int(part) for part in text.split("|")]
        if text[end] != "|":
            return f"expected '|' in {text!r}", end
        pos = end + 1


def test_parse_composition_matches_scan():
    rng = random.Random(20181808)
    for _ in range(20000):
        text = "".join(rng.choices("0123456789|x", k=rng.randint(0, 10)))
        want = _scan(text)
        if isinstance(want, list):
            assert list(parse_composition(text).parts) == want, text
            continue
        message, position = want
        with pytest.raises(ParseError) as e:
            parse_composition(text)
        assert e.value.position == position, text
        assert str(e.value) == f"{message} (at position {position})", text


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int() reads any number of digits")
def test_parse_part_too_long():
    digits = sys.get_int_max_str_digits() + 1
    part = "9" * digits
    for text, position in ((part, 0), (f"2|{part}|3", 2), (f"{part}|x", 0)):
        with pytest.raises(ParseError) as e:
            parse_composition(text)
        assert e.value.position == position
        assert str(e.value).startswith(f"part of {digits} digits")
    with pytest.raises(ParseError) as e:
        parse_seaweed_type(f"{digits}/{part}")
    assert e.value.position == len(str(digits)) + 1
