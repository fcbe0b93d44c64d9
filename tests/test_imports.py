"""The package's import boundary: lazy exports and an import-light CLI."""

import functools
import json
import os
import subprocess
import sys

import pytest

import seaweeds
from seaweeds import cli, declarations, enumeration, verify

# The public names the package re-exports, by defining module.
EXPORTS = {
    "compositions": [
        "Composition", "SeaweedType", "all_compositions", "all_pairs",
        "composition_from_bitmask", "format_composition", "format_seaweed_type",
        "parse_composition", "parse_seaweed_type",
    ],
    "enumeration": [
        "IndexTable", "build_table", "census_c21", "census_c22", "census_cnk",
        "census_cnk_exhaustive", "census_cnk_naive", "diff_golden",
        "homotopy_census", "load_golden", "table_from_csv",
    ],
    "errors": ["LimitExceeded", "ParseError", "UsageError"],
    "formulas": [
        "IdentityAuditRow", "c21", "c22", "c_diag1", "c_diag2", "c_diag3",
        "c_diag3_longform", "case_terms", "coprime_sum", "euler_phi",
        "gcd_index_2parts", "gcd_index_3parts", "identity_audit",
        "identity_k2_2k", "identity_k2_2k_fitted", "identity_k2_2k_sides",
        "identity_k2k", "identity_k2k_sides", "recursion_check", "recursion_lhs",
    ],
    "genfunc": [
        "RationalGF", "builtin_gfs", "denominator_power_of_1_minus_2x",
        "format_gf", "format_poly", "gf_coefficients",
        "gf_coefficients_by_division", "poly_mul", "poly_pow", "poly_trim",
    ],
    "meander": [
        "ComponentSummary", "Meander", "build_meander", "component_summary",
        "meander_svg", "meander_tikz", "seaweed_dimension", "seaweed_index",
        "seaweed_rank",
    ],
    "verify": ["VerifySuiteReport", "run_suite"],
    "winding": [
        "HomotopyType", "Move", "Signature", "format_signature",
        "homotopy_components", "homotopy_index", "wind_down", "wind_step",
    ],
}

HEAVY = ("seaweeds.enumeration", "seaweeds.verify", "seaweeds.formulas",
         "seaweeds.genfunc")

# Stdlib modules no request may load: dataclasses imports inspect, which
# imports ast, dis, tokenize and linecache.
SLOW_STDLIB = ("dataclasses", "inspect")

# Stdlib modules only the parser needs: cli.main answers index and wind
# without argparse, which imports gettext.
PARSER_STDLIB = ("argparse", "gettext")

# In a fresh interpreter: the heavy and the parser modules loaded after each
# of an index, a wind, a render and a table request; and every module the
# package and all five requests added to those loaded before it (so that no
# site hook counts).
BOUNDARY_PROBE = f"""\
import contextlib, io, json, sys
before = set(sys.modules)
import seaweeds.cli as cli
loaded, parsers, codes = [], [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["index", "2|4/1|2|3"], ["wind", "2|4/1|2|3"],
                 ["render", "2|1/3"], ["table", "c21", "--max-n", "3"]):
        codes.append(cli.main(argv))
        loaded.append([m for m in {HEAVY!r} if m in sys.modules])
        parsers.append([m for m in {PARSER_STDLIB!r} if m in sys.modules])
    codes.append(cli.main(["verify", "recursion"]))
added = sorted(set(sys.modules) - before)
print(json.dumps({{"codes": codes, "loaded": loaded, "parsers": parsers,
                  "added": added}}))
"""


def fresh(code: str) -> dict:
    """The JSON a fresh interpreter prints after running code."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@functools.cache
def boundary() -> dict:
    return fresh(BOUNDARY_PROBE)


def test_light_requests_leave_the_heavy_modules_unloaded():
    result = boundary()
    assert result["codes"] == [0, 0, 0, 0, 0]
    after_index, after_wind, after_render, after_table = result["loaded"]
    assert after_index == after_wind == after_render == []
    # a table runs enumeration (and formulas, which it imports), not verify
    assert "seaweeds.enumeration" in after_table
    assert "seaweeds.verify" not in after_table


def test_index_and_wind_import_no_parser():
    # a render and a table still go through argparse
    assert boundary()["parsers"] == [[], [], list(PARSER_STDLIB), list(PARSER_STDLIB)]


def test_no_request_imports_inspect():
    added = boundary()["added"]
    assert "seaweeds.verify" in added  # the probe ran every kind of request
    assert [m for m in SLOW_STDLIB if m in added] == []


def test_csv_table_and_verify_leave_json_unloaded():
    # only IndexTable.to_json imports json; BOUNDARY_PROBE imports it itself,
    # so this probe prints its list of module names without it
    loaded = fresh(
        "import contextlib, io, sys\n"
        "import seaweeds.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['table', 'c21', '--max-n', '3']),\n"
        "             cli.main(['verify', 'recursion'])]\n"
        "json = sorted(m for m in sys.modules if m.split('.')[0] in ('json', '_json'))\n"
        "print(repr([codes, json]).replace(\"'\", '\"'))\n")
    assert loaded == [[0, 0], []]


def test_reading_a_name_loads_its_module():
    loaded = fresh(
        "import json, sys\n"
        "from seaweeds import census_cnk\n"
        "import seaweeds\n"
        "before = 'seaweeds.genfunc' in sys.modules\n"
        "seaweeds.genfunc\n"
        "print(json.dumps(['seaweeds.enumeration' in sys.modules, census_cnk(3),\n"
        "                  before, 'seaweeds.genfunc' in sys.modules]))\n")
    assert loaded == [True, {"0": 6, "1": 6, "2": 4}, False, True]


def test_all_lists_every_export_once():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 72
    assert seaweeds.__all__ == names
    assert seaweeds.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_modules_object(module):
    defining = getattr(seaweeds, module)
    assert defining is sys.modules[f"seaweeds.{module}"]
    for name in EXPORTS[module]:
        assert getattr(seaweeds, name) is getattr(defining, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from seaweeds import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(seaweeds.__all__)
    assert namespace["census_cnk"] is enumeration.census_cnk


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seaweeds.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from seaweeds import no_such_name", {})


def test_declarations_are_shared_not_copied():
    assert enumeration.LIMITS is declarations.LIMITS
    assert enumeration.TABLES is declarations.TABLES
    assert enumeration.limit is declarations.limit
    assert verify.SUITES is declarations.SUITES
    assert cli.LIMITS is declarations.LIMITS
    assert cli.TABLES is declarations.TABLES
    assert cli.SUITES is declarations.SUITES
