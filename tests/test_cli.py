import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from seaweeds import cli, enumeration, meander, verify
from seaweeds.compositions import all_pairs, parse_seaweed_type
from seaweeds.errors import LimitExceeded, ParseError, UsageError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_command(capsys):
    code, out, err = run(capsys, "index", "5|3/3|3|2")
    assert code == 0
    assert out.splitlines() == [
        "type 5|3/3|3|2",
        "index 1",
        "dimension 27",
        "rank 7",
        "cycles 0",
        "paths 2",
    ]
    assert err == ""


def test_index_echoes_its_argument(capsys):
    # the parser accepts only canonical text, so `index` prints its argument
    # as given, and that is the parsed type's own text
    types = [str(st) for n in range(1, 6) for st in all_pairs(n)]
    many = "|".join(map(str, range(1, 41)))  # 40 parts of 820
    types.append(many + "/" + "|".join(["7"] * 117) + "|1")
    for text in types:
        code, out, _ = run(capsys, "index", text)
        assert (code, out.splitlines()[0]) == (0, f"type {text}")
        assert str(parse_seaweed_type(text)) == text


def test_python_dash_m_runs_the_cli(capsys):
    # `python -m seaweeds` goes through seaweeds/__main__.py to cli.entry
    code, want, _ = run(capsys, "index", "2|4/1|2|3")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seaweeds", "index", "2|4/1|2|3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want, "")


def test_index_parse_error(capsys):
    code, out, err = run(capsys, "index", "2|4/1|2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bottom_parse_error_keeps_echoed_text(capsys):
    # the echoed bottom side itself contains the phrase the position uses
    code, out, err = run(capsys, "index", "2|2/1 (at position 9)|3")
    assert code == 2
    assert out == ""
    assert err == "error: expected '|' in '1 (at position 9)|3' (at position 5)\n"


# Python < 3.10.7 has no digit limit (and no function to read it)
_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_MAX_STR_DIGITS == 0,
                    reason="int() reads any number of digits")
def test_index_part_too_long(capsys):
    part = "1" + "0" * _MAX_STR_DIGITS
    code, out, err = run(capsys, "index", f"{part}/{part}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: part of ")
    assert err.endswith("(at position 0)\n")


def test_parser_built_once_per_limits(capsys, monkeypatch):
    # index and wind requests are answered without a parser; --help and
    # every other command build one per tuple of limits
    monkeypatch.delenv("SEAWEEDS_CENSUS_LIMIT", raising=False)
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "index", "2|4/1|2|3")[0] == 0
        assert run(capsys, "wind", "2|4/1|2|3")[0] == 0
    assert cli.build_parser.cache_info().misses == 0

    def help_text():
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def misses_after_tables():
        for _ in range(3):
            assert run(capsys, "table", "cnk", "--max-n", "2")[0] == 0
        return cli.build_parser.cache_info().misses

    assert f"default {enumeration.LIMITS['census'].default})" in help_text()
    assert misses_after_tables() == 1
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "9")
    assert "default 9)" in help_text()
    assert misses_after_tables() == 2


ERROR_CODES = {ParseError: cli.EXIT_USAGE, UsageError: cli.EXIT_USAGE,
               LimitExceeded: cli.EXIT_LIMIT, OSError: cli.EXIT_IO}


def through_argparse(argv):
    """What cli.main answers when argparse parses every argv."""
    args = cli.build_parser(tuple(map(cli.limit, cli.LIMITS))).parse_args(argv)
    try:
        return getattr(cli, f"cmd_{args.command}")(args)
    except tuple(ERROR_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in ERROR_CODES.items() if isinstance(e, cls))


@pytest.mark.parametrize("argv", [
    *([command, text] for command in ("index", "wind")
      for text in ("2|4/1|2|3", "", "2|1/3 ", "-1|2/3", "-", "--", "--help")),
    ["index"],
    ["index", "2|1/3", "extra"],
    ["wind", "2|1/3", "--format", "svg"],
], ids=lambda argv: " ".join(map(repr, argv)))
def test_direct_dispatch_answers_as_argparse(capsys, argv):
    # index and wind skip the parser only on argv it would pass on as the
    # type unchanged: exit code (or SystemExit code), stdout and stderr agree
    def answer(main):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    assert answer(cli.main) == answer(through_argparse)


@pytest.mark.parametrize("census, c22", [(None, None), ("9", "7")])
def test_help_lists_the_limits_and_table_kinds(capsys, monkeypatch, census, c22):
    # the environment sentence and the --max-n help are joined from
    # enumeration.LIMITS and enumeration.TABLES; argparse wraps them
    # differently across versions and widths, so whitespace is normalised
    # and a line broken after a hyphen is joined.  c22 sets the retired
    # SEAWEEDS_C22_MEANDER_LIMIT, which nothing reads or lists
    for var, value in (("SEAWEEDS_CENSUS_LIMIT", census),
                       ("SEAWEEDS_C22_MEANDER_LIMIT", c22)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)

    def help_text(*argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split()).replace("- ", "-")

    text = help_text()
    assert text[text.index("Environment:"):] == (
        f"Environment: SEAWEEDS_CENSUS_LIMIT bounds full-pair censuses "
        f"(default {census or 14}).")
    text = help_text("table")
    assert "--max-n MAX_N largest n row (defaults: cnk 10, c21 12, c22 11) " in text
    assert "positional arguments: {cnk,c21,c22} " in text
    assert "--oracle" not in text and "--workers" not in text


def test_index_walks_the_meander_once(capsys, monkeypatch):
    calls = []
    walk = meander.component_summary

    def counted(m):
        calls.append(m.n)
        return walk(m)

    monkeypatch.setattr(cli, "component_summary", counted)
    monkeypatch.setattr(meander, "component_summary", counted)
    code, out, _ = run(capsys, "index", "4|4/2|4|2")
    assert code == 0
    assert "index 1" in out.splitlines()
    assert calls == [8]


def test_wind_command(capsys):
    code, out, _ = run(capsys, "wind", "15/2|5|1|5|2")
    assert code == 0
    assert out.splitlines() == ["signature PPC(1)C(5)C(2)", "homotopy H(1,5,2)"]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "cnk", "--max-n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,count"
    assert lines[-1] == "3,2,4"
    assert len(lines) == 1 + 3 * 3


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "c22", "--max-n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "c22"
    assert doc["rows"]["4"] == {"0": 4, "1": 2, "3": 3}


def test_table_md(capsys):
    code, out, _ = run(capsys, "table", "cnk", "--max-n", "2", "--format", "md")
    assert code == 0
    assert out.splitlines()[0] == "| n\\k | 0 | 1 |"


def test_table_check_golden_ok(capsys):
    code, out, err = run(capsys, "table", "cnk", "--max-n", "6", "--check-golden")
    assert code == 0
    assert "cnk: OK" in out
    assert err == ""


def test_table_check_golden_c21(capsys):
    code, out, _ = run(capsys, "table", "c21", "--check-golden")
    assert code == 0
    assert "c21: OK (132 cells match the reference)" in out


def test_table_check_golden_reports_a_mismatch(capsys, monkeypatch):
    # a reference one higher at (9, 3) than the census: each differing cell
    # goes to stderr, the count of problems to stdout, and the exit code is 1
    golden = enumeration.load_golden("cnk")
    golden.rows[9][3] += 1
    # cmd_table imports load_golden from enumeration when it runs
    monkeypatch.setattr(enumeration, "load_golden", lambda kind: golden)
    code, out, err = run(capsys, "table", "cnk", "--max-n", "10", "--check-golden")
    assert code == 1
    assert err == "golden mismatch: cell (n=9, k=3): expected 17597, got 17596\n"
    assert out == "cnk: 1 problem(s) in 100 cells checked\n"


def test_table_over_limit(capsys, monkeypatch):
    monkeypatch.delenv("SEAWEEDS_CENSUS_LIMIT", raising=False)
    code, out, err = run(capsys, "table", "cnk", "--max-n", "20")
    assert (code, out) == (3, "")
    assert err == ("error: census at n=20 exceeds the limit n <= 14 "
                   "(set SEAWEEDS_CENSUS_LIMIT to override)\n")


@pytest.mark.parametrize("argv", [
    ["cnk", "--workers", "2"], ["c22", "--oracle", "meander"]])
def test_table_removed_options(capsys, monkeypatch, argv):
    # a table is built one way: an option that chose another is a usage
    # error, refused before any row
    monkeypatch.setattr(enumeration, "build_table", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("kind", ["c21", "c22"])
def test_table_gcd_over_limit(capsys, monkeypatch, kind):
    # refused before the first row is computed; the bound itself is allowed
    rows = []
    monkeypatch.setattr(enumeration, f"census_{kind}",
                        lambda n, oracle="gcd": rows.append(n) or {0: 1})
    bound = enumeration.GCD_TABLE_MAX_N
    code, out, err = run(capsys, "table", kind, "--max-n", str(bound + 1))
    assert (code, out, rows) == (3, "", [])
    assert err == (f"error: table {kind} to n={bound + 1} exceeds the limit "
                   f"n <= {bound}\n")
    code, _, _ = run(capsys, "table", kind, "--max-n", str(bound))
    assert code == 0
    assert rows[-1] == bound


@pytest.mark.parametrize("kind,max_n", [("cnk", "0"), ("c21", "1"), ("c22", "1")])
def test_table_max_n_below_minimum(capsys, kind, max_n):
    code, out, err = run(capsys, "table", kind, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_n must be >=")


@pytest.mark.parametrize("var", ["SEAWEEDS_CENSUS_LIMIT"])
def test_bad_limit_env(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    for argv in (["index", "2|1/3"], ["wind", "2|1/3"],
                 ["table", "cnk", "--max-n", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {var} must be an integer, got 'abc'\n"


def test_verify_winding_reports_a_same_composition_fault(capsys, monkeypatch):
    # p/p must wind to the parts of p; one misreported composition fails the
    # suite and is named
    wind_homotopy = verify._wind_homotopy
    monkeypatch.setattr(verify, "_wind_homotopy",
                        lambda t, b: (3,) if t == b == (2, 1) else wind_homotopy(t, b))
    code, out, _ = run(capsys, "verify", "winding")
    assert code == 1
    line = next(line for line in out.splitlines()
                if "same-composition homotopy" in line)
    assert line.startswith("[FAIL] same-composition homotopy (")
    assert line.endswith("): p/p gave (3,) for parts (2, 1)")


def test_table_output_io_error(capsys):
    code, _, err = run(
        capsys, "table", "cnk", "--max-n", "2", "--output", "/nonexistent/dir/t.csv"
    )
    assert code == 4
    assert "error:" in err


def test_table_output_file(capsys, tmp_path):
    dest = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "cnk", "--max-n", "3", "--output", str(dest))
    assert code == 0
    assert dest.read_text().splitlines()[0] == "n,k,count"


@pytest.mark.parametrize("argv", [("wind", "2|4/1|2"), ("render", "3/2")])
def test_wind_render_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["index", "wind", "render"])
def test_type_over_limit(capsys, monkeypatch, command):
    # refused when parsed, before a single arc is built
    def no_arcs(parts):
        raise AssertionError("arcs built for a refused type")

    monkeypatch.setattr(meander, "_block_edges", no_arcs)
    code, out, err = run(capsys, command, "9999999999/9999999999")
    assert code == 3
    assert out == ""
    assert err == ("error: type of n=9999999999 exceeds the limit "
                   "n <= 1000000\n")


def test_render_over_limit(capsys, monkeypatch):
    # refused before a single arc is built
    def no_arcs(parts):
        raise AssertionError("arcs built for a refused type")

    monkeypatch.setattr(meander, "_block_edges", no_arcs)
    n = meander.MAX_RENDER_N + 1
    code, out, err = run(capsys, "render", f"{n}/{n}")
    assert code == 3
    assert out == ""
    assert err == f"error: render of n={n} exceeds the limit n <= 10000\n"


def test_render_at_limit(capsys):
    n = meander.MAX_RENDER_N
    code, out, err = run(capsys, "render", f"{n}/{n}", "--format", "tikz")
    assert code == 0
    assert err == ""
    assert out.count(r"\node") == n


def test_render_output_io_error(capsys):
    code, _, err = run(capsys, "render", "4/4", "--output", "/nonexistent/x.svg")
    assert code == 4
    assert err.startswith("error:")


def test_render_svg(capsys):
    code, out, _ = run(capsys, "render", "3|5|2/4|6", "--format", "svg")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 10
    # rendering is deterministic
    code2, out2, _ = run(capsys, "render", "3|5|2/4|6", "--format", "svg")
    assert out2 == out


def test_render_tikz(capsys):
    code, out, _ = run(capsys, "render", "2|2/1|2|1", "--format", "tikz")
    assert code == 0
    assert out.count("bend left") == 2
    assert out.count("bend right") == 1
    assert out.count(r"\node") == 4


def test_render_output_file(capsys, tmp_path):
    dest = tmp_path / "m.svg"
    code, _, _ = run(capsys, "render", "4/4", "--format", "svg", "--output", str(dest))
    assert code == 0
    assert dest.read_text().startswith("<?xml")


def test_verify_recursion(capsys):
    code, out, _ = run(capsys, "verify", "recursion")
    assert code == 0
    assert "suite recursion: passed" in out
    assert "[PASS]" in out


def test_verify_gf(capsys):
    code, out, _ = run(capsys, "verify", "gf")
    assert code == 0
    assert "suite gf: passed" in out


def test_verify_refused_census_exits_3(capsys, monkeypatch):
    # a census the limit refuses disproves no formula: exit 3, not 1
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "5")
    with pytest.raises(LimitExceeded) as e:
        enumeration._transfer_rows(verify.DIAG_CENSUS_MAX_N)
    code, out, err = run(capsys, "verify", "formulas")
    assert code == 3
    assert out == ""
    assert err == f"error: {e.value}\n"


def test_verify_winding_runs_no_census(capsys, monkeypatch):
    # the winding certificate builds prefixes, not census rows, so no census
    # limit refuses it
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "1")
    code, out, err = run(capsys, "verify", "winding")
    assert (code, err) == (0, "")
    assert out.endswith("suite winding: passed (4/4)\n")


def test_verify_census_error_is_a_failed_check(capsys, monkeypatch):
    # any other error of the census fails the check that runs it first
    def broken(closing, depth, left):
        raise RuntimeError("broken sweep")

    monkeypatch.setattr(enumeration, "_side_moves", broken)
    code, out, _ = run(capsys, "verify", "formulas")
    assert code == 1
    first = out.splitlines()[0]
    assert first.startswith("[FAIL] diag1 closed form vs census (")
    assert first.endswith(": raised RuntimeError: broken sweep")


def test_verify_names_a_faulty_transfer_row(capsys, monkeypatch):
    # a transfer row off by one pair at k = 0, off every checked diagonal:
    # only the DP check fails, and it names the row
    transfer_rows = verify._transfer_rows

    def one_pair_off(n):
        rows = transfer_rows(n)
        rows[9][0] += 1
        return rows

    monkeypatch.setattr(verify, "_transfer_rows", one_pair_off)
    code, out, _ = run(capsys, "verify", "formulas")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith("[FAIL] cnk winding DP vs transfer census (")
    assert "; 1 mismatch(es); first: n=9: expected " in failed[0]


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_table_kind():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "bogus"])
    assert exc.value.code == 2


def test_no_args_shows_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
