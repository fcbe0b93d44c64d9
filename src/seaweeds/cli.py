"""Command-line front end.

Commands:
    index TYPE            index, dimension, rank, component counts
    wind TYPE             signature and homotopy type
    table KIND            census tables as csv/json/md, with golden check
    verify SUITE          run a verification suite
    render TYPE           SVG or TikZ drawing of the meander

TYPE is `a1|a2|.../b1|b2|...`, e.g. `2|4/1|2|3` (no whitespace).

Exit codes: 0 success; 1 failed golden check or failed verify suite;
2 parse/usage error; 3 enumeration or size limit exceeded; 4 I/O failure.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from .compositions import parse_seaweed_type
from .declarations import LIMITS, SUITES, TABLES, limit
from .errors import LimitExceeded, ParseError, UsageError, check_limit
# index, wind and render import only what they run: cmd_table imports from
# enumeration when it runs, and verify is imported by run_suite's first
# call, so a request compiles neither (nor formulas and genfunc, which they
# import).  Besides the package, an index or wind request adds only
# __future__ to what a bare CPython 3.11 interpreter has loaded, because
# main answers it without argparse; any other request also adds argparse,
# gettext and locale, which build_parser imports.  The value classes build
# on errors.Frozen, so no request imports inspect (tests/test_imports.py).
# parse_seaweed_type, build_meander, component_summary, seaweed_index,
# seaweed_dimension, seaweed_rank, wind_down, format_signature and run_suite
# are module attributes the cmd_* functions resolve when called, because
# bench/traced.py patches the first eight here and bench/verify_child.py
# replaces run_suite.  cmd_index reads the index off its component summary;
# seaweed_index stays importable for the tracer.
from .meander import (
    MAX_RENDER_N,
    build_meander,
    component_summary,
    meander_svg,
    meander_tikz,
    seaweed_dimension,
    seaweed_index,
    seaweed_rank,
)
from .winding import format_signature, wind_down

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_IO = 4


@functools.lru_cache(maxsize=1)
def build_parser(limits: tuple[int, ...]):
    """The parser whose epilog prints these values of the LIMITS entries."""
    import argparse

    environment = ", ".join(f"{entry.env} {entry.help} (default {value})"
                            for entry, value in zip(LIMITS.values(), limits))
    parser = argparse.ArgumentParser(
        prog="seaweeds",
        description=(
            "Meander-based index and homotopy-type computations for seaweed "
            "subalgebras of sl(n), with exhaustive verification of the "
            "counting formulas."
        ),
        epilog=(
            "Type grammar: a composition is parts joined by '|' (e.g. 2|4); "
            f"a type is top/bottom (e.g. 2|4/1|2|3). Environment: {environment}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="index, dimension, rank, components")
    p.add_argument("type", help="seaweed type, e.g. 2|4/1|2|3")

    p = sub.add_parser("wind", help="signature and homotopy type")
    p.add_argument("type")

    p = sub.add_parser("table", help="generate or golden-check a census table")
    p.add_argument("kind", choices=list(TABLES))
    defaults = ", ".join(f"{kind} {table.max_n}" for kind, table in TABLES.items())
    p.add_argument("--max-n", type=int, default=None,
                   help=f"largest n row (defaults: {defaults})")
    p.add_argument("--format", choices=["csv", "json", "md"], default="csv")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--check-golden", action="store_true",
                   help="compare against the shipped reference table")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(SUITES))

    p = sub.add_parser("render", help="draw the meander of a type")
    p.add_argument("type")
    p.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p.add_argument("--output", default=None)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_index(args) -> int:
    st = parse_seaweed_type(args.type)
    summary = component_summary(build_meander(st))
    # the parser accepts only canonical text, which is str(st) already
    print(f"type {args.type}")
    print(f"index {summary.index}")
    print(f"dimension {seaweed_dimension(st)}")
    print(f"rank {seaweed_rank(st.n)}")
    print(f"cycles {summary.cycles}")
    print(f"paths {summary.paths}")
    return EXIT_OK


def cmd_wind(args) -> int:
    st = parse_seaweed_type(args.type)
    sig, h = wind_down(st)
    print(f"signature {format_signature(sig)}")
    print(f"homotopy {h}")
    return EXIT_OK


def cmd_table(args) -> int:
    from .enumeration import build_table, diff_golden, load_golden

    max_n = args.max_n if args.max_n is not None else TABLES[args.kind].max_n
    table = build_table(args.kind, max_n)
    if args.check_golden:
        golden = load_golden(args.kind)
        problems = diff_golden(table, golden)
        lo, hi = table.n_range()
        cells = sum(1 for n in golden.rows if lo <= n <= hi) * golden.width()
        if problems:
            for line in problems:
                print(f"golden mismatch: {line}", file=sys.stderr)
            print(f"{args.kind}: {len(problems)} problem(s) in {cells} cells checked")
            return EXIT_CHECK_FAILED
        print(f"{args.kind}: OK ({cells} cells match the reference)")
        return EXIT_OK
    rendered = {"csv": table.to_csv, "json": table.to_json, "md": table.to_markdown}
    _emit(rendered[args.format](), args.output)
    return EXIT_OK


def run_suite(name: str):
    """verify.run_suite(name), importing verify on the first call."""
    from .verify import run_suite

    return run_suite(name)


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_render(args) -> int:
    st = parse_seaweed_type(args.type)
    check_limit("render of", st.n, MAX_RENDER_N)
    m = build_meander(st)
    text = meander_svg(m) if args.format == "svg" else meander_tikz(m)
    _emit(text, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "index": cmd_index,
        "wind": cmd_wind,
        "table": cmd_table,
        "verify": cmd_verify,
        "render": cmd_render,
    }
    try:
        # The limits are read (and a bad one rejected) on every call, so
        # --help shows the current ones.
        limits = tuple(map(limit, LIMITS))
        argv = sys.argv[1:] if argv is None else argv
        # `index T` and `wind T` are answered without argparse, which costs
        # more than the answer: their parsers have no option but -h, and a
        # T that does not begin with '-' is the positional they would pass
        # on unchanged.  argparse still serves help, usage errors and every
        # other command, from a parser built once per tuple of limits.
        if len(argv) == 2 and argv[0] in ("index", "wind") and argv[1][:1] != "-":
            return handlers[argv[0]](SimpleNamespace(type=argv[1]))
        args = build_parser(limits).parse_args(argv)
        return handlers[args.command](args)
    except (ParseError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
