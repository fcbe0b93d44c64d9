"""The traced run: per-layer metrics from spans around calls into each layer.

Every traced run, whatever its workload, makes the same three passes, so
that every per-layer metric is measured on every workload:

* queries: one TRACE_GRID block of the seed's query stream, each query
  with tracing off and then on (the median per-query ratio, less one, is
  the tracing overhead), plus a
  `homotopy_components` call per type for the deque-kernel baseline;
* census: C(PARALLEL_N, .) serially and on nproc workers, so that their
  ratio is the parallel speed-up, and the homotopy row of HOMOTOPY_N,
  TRACE_CENSUS_REPEATS times each;
* verify: `seaweeds verify all` in a fresh interpreter under
  verify_child.py, which records the suites and the calls verify makes
  into meander, formulas and genfunc.

All outputs are checked with the same oracles as the untraced workloads.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from statistics import median
from time import perf_counter

from seaweeds import census_cnk, cli, compositions, homotopy_census
from seaweeds import homotopy_components

import oracles
from speed import Gate
from tracing import Tracer, patched
from verify_child import SUITES
from workloads import (HOMOTOPY_N, PARALLEL_N, TRACE_GRID, VERIFY_CHILD,
                       VERIFY_TIMEOUT_S, Outcome, Run, ask, check_answer,
                       query_block, reference)

TRACE_CENSUS_REPEATS = 2

# Calls the CLI makes into the library, traced where cli resolves them.
QUERY_TARGETS = [
    (cli, "parse_seaweed_type", "compositions.parse_seaweed_type"),
    (cli, "build_meander", "meander.build_meander"),
    (cli, "component_summary", "meander.component_summary"),
    (cli, "seaweed_index", "meander.seaweed_index.query"),
    (cli, "seaweed_dimension", "meander.seaweed_dimension"),
    (cli, "seaweed_rank", "meander.seaweed_rank"),
    (cli, "wind_down", "winding.wind_down"),
    (cli, "format_signature", "winding.format_signature"),
]

# Check names in `verify all` output -> metric names.
HEAVY_CHECKS = {
    "formulas: diag1 closed form vs census": "verify.check.diag1_census.s",
    "winding: winding index equals graph index": "verify.check.winding_agreement.s",
    "formulas: c22 gcd oracle vs meander oracle": "verify.check.c22_meander.s",
    "gcd: two parts over two vs meander": "verify.check.gcd_two_over_two.s",
}

_MOVE = re.compile(r"[FRBP]|C\(\d+\)")
_HOMOTOPY = re.compile(r"homotopy H\(([\d,]+)\)")


def _self_us(spans: dict, name: str) -> float:
    return median(s for _, s, _ in spans[name]) * 1e6


def _incl(spans: dict, name: str) -> list[float]:
    return [i for i, _, _ in spans[name]]


def _queries(run: Run, out: Outcome, metrics: dict) -> None:
    block = query_block(random.Random(run.seed), TRACE_GRID)
    gate, tracer = Gate(run.seconds / 2), Tracer()
    untraced, traced, moves = [], [], 0
    for i, query in enumerate(block):
        # each query untraced and traced back to back, at the same speed;
        # which goes first alternates, so that warm caches favour neither
        gate.wait()
        tracer.request = i
        for tracing in (i % 2 == 0, i % 2 == 1):
            t0 = perf_counter()
            if tracing:
                with patched(tracer, QUERY_TARGETS):
                    code, index_out, wind_out = ask(query, tracer.span)
                traced.append(perf_counter() - t0)
            else:
                answer = ask(query)
                untraced.append(perf_counter() - t0)
                out.op_seconds.append(untraced[-1])
                out.record(check_answer(query, *answer))
        st = compositions.parse_seaweed_type(query.text)
        with tracer.span("winding.homotopy_components"):
            components = homotopy_components(st)
        problems = check_answer(query, code, index_out, wind_out)
        printed = _HOMOTOPY.search(wind_out)
        if not printed or [int(c) for c in printed.group(1).split(",")] != list(
                components):
            problems.append(f"{query.text}: homotopy_components "
                            f"{components} differs from wind output")
        out.op_seconds.append(traced[-1])
        out.record(problems)
        moves += len(_MOVE.findall(wind_out))

    spans = tracer.by_name()
    vertices = sum(block[r].n for _, _, r in spans["meander.component_summary"])
    main_self = [s for name in ("cli.main.index", "cli.main.wind")
                 for _, s, _ in spans[name]]
    wind_self = sum(s for _, s, _ in spans["winding.wind_down"])
    metrics.update({
        "compositions.parse_seaweed_type.us":
            (_self_us(spans, "compositions.parse_seaweed_type"), "us"),
        "meander.build_meander.us": (_self_us(spans, "meander.build_meander"), "us"),
        "meander.component_summary.us":
            (_self_us(spans, "meander.component_summary"), "us"),
        "meander.component_summary.ns_per_vertex": (
            sum(s for _, s, _ in spans["meander.component_summary"])
            / vertices * 1e9, "ns"),
        "winding.wind_down.us": (_self_us(spans, "winding.wind_down"), "us"),
        "winding.wind_down.us_per_move": (wind_self / moves * 1e6, "us"),
        "winding.moves": (moves, "count"),
        "winding.homotopy_components.us":
            (_self_us(spans, "winding.homotopy_components"), "us"),
        "cli.main.index.us": (median(_incl(spans, "cli.main.index")) * 1e6, "us"),
        "cli.main.wind.us": (median(_incl(spans, "cli.main.wind")) * 1e6, "us"),
        "cli.overhead.us": (median(main_self) * 1e6, "us"),
        "trace.overhead_pct":
            ((median(t / u for t, u in zip(traced, untraced)) - 1) * 100, "%"),
    })


def _census(run: Run, out: Outcome, metrics: dict) -> None:
    n, m = PARALLEL_N, HOMOTOPY_N
    tracer = Tracer()
    serial, parallel, homotopy = [], [], []
    for _ in range(TRACE_CENSUS_REPEATS):
        with tracer.span("enumeration.census_cnk"):
            serial.append(census_cnk(n))
        with tracer.span("enumeration.census_cnk.parallel"):
            parallel.append(census_cnk(n, workers=run.nproc))
        with tracer.span("enumeration.homotopy_census"):
            homotopy.append(homotopy_census(m))
    spans = tracer.by_name()
    for name in spans:
        out.op_seconds.extend(_incl(spans, name))

    ref, cnk_m = reference(run), census_cnk(m)
    for row in serial:
        out.record(oracles.check_cnk_row(n, row, ref, parallel[0]))
    for row in parallel:
        out.record(oracles.check_cnk_row(n, row, ref, serial[0]))
    for row in homotopy:
        out.record(oracles.check_homotopy_row(m, row, cnk_m))

    t_serial = median(_incl(spans, "enumeration.census_cnk"))
    t_parallel = median(_incl(spans, "enumeration.census_cnk.parallel"))
    t_homotopy = median(_incl(spans, "enumeration.homotopy_census"))
    metrics.update({
        "enumeration.census_cnk.ns_per_pair": (t_serial / 4 ** (n - 1) * 1e9, "ns"),
        "enumeration.census_cnk.parallel_speedup": (t_serial / t_parallel, "x"),
        "enumeration.homotopy_census.ns_per_pair":
            (t_homotopy / 4 ** (m - 1) * 1e9, "ns"),
        "enumeration.pairs":
            (TRACE_CENSUS_REPEATS * (2 * 4 ** (n - 1) + 4 ** (m - 1)), "count"),
    })


def _verify(run: Run, out: Outcome, metrics: dict) -> None:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, VERIFY_CHILD, "trace"], cwd=run.root,
                          env=run.env(), capture_output=True, text=True,
                          timeout=VERIFY_TIMEOUT_S)
    out.op_seconds.append(perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"verify_child.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    out.record(oracles.check_verify(result["exit"], result["stdout"]))
    spans = result["spans"]
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = (_incl(spans, f"verify.{suite}")[0], "s")
    for check, metric in HEAVY_CHECKS.items():
        metrics[metric] = (result["checks"][check], "s")
    for name in ("meander.seaweed_index", "formulas.c_diag3_longform",
                 "genfunc.gf_coefficients"):
        metrics[f"{name}.us"] = (_self_us(spans, name), "us")


def traced_pass(run: Run) -> tuple[Outcome, dict[str, tuple[float, str]]]:
    out, metrics = Outcome(), {}
    _queries(run, out, metrics)
    _census(run, out, metrics)
    _verify(run, out, metrics)
    return out, metrics
