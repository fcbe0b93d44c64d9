import json
import sys
import xml.etree.ElementTree as ET

import pytest

from seaweeds import cli, enumeration, meander


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


def test_index_parse_error(capsys):
    code, out, err = run(capsys, "index", "2|4/1|2")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int() reads any number of digits")
def test_index_part_too_long(capsys):
    part = "1" + "0" * sys.get_int_max_str_digits()
    code, out, err = run(capsys, "index", f"{part}/{part}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: part of ")
    assert err.endswith("(at position 0)\n")


def test_parser_built_once_per_limits(capsys, monkeypatch):
    monkeypatch.delenv("SEAWEEDS_CENSUS_LIMIT", raising=False)
    monkeypatch.delenv("SEAWEEDS_C22_MEANDER_LIMIT", raising=False)
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "index", "2|4/1|2|3")[0] == 0
    assert cli.build_parser.cache_info().misses == 1

    def help_text():
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    assert f"default {enumeration.DEFAULT_CENSUS_LIMIT})" in help_text()
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "9")
    assert "default 9)" in help_text()


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


def test_table_over_limit(capsys):
    code, _, err = run(capsys, "table", "cnk", "--max-n", "20")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("kind,max_n", [("cnk", "0"), ("c21", "1"), ("c22", "1")])
def test_table_max_n_below_minimum(capsys, kind, max_n):
    code, out, err = run(capsys, "table", kind, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_n must be >=")


@pytest.mark.parametrize("var", ["SEAWEEDS_CENSUS_LIMIT", "SEAWEEDS_C22_MEANDER_LIMIT"])
def test_bad_limit_env(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    for argv in (["index", "2|1/3"], ["table", "cnk", "--max-n", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {var} must be an integer, got 'abc'\n"


def test_table_workers_without_fork(capsys, monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(enumeration, "get_context", no_fork)
    code, out, err = run(capsys, "table", "cnk", "--max-n", "6", "--workers", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: workers > 1 needs the 'fork' start method")


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
