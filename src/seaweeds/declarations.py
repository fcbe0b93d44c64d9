"""What the command line lists on every call: limits, table kinds, suites.

LIMITS holds each limit an environment variable overrides (read by
limit(name)), TABLES each table kind, and SUITES each verify suite.  Each
is declared here once: enumeration and verify import them from here, and
the CLI builds its --help, its kind and suite choices and its --max-n text
from them without importing either of those modules.  So this module
imports only errors and the standard library.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

from .errors import UsageError


class Limit(NamedTuple):
    """A limit an environment variable overrides, as --help lists it."""

    env: str
    default: int
    help: str  # what it bounds, as --help says it
    subject: str  # what its refusal names


LIMITS = {
    "census": Limit(
        "SEAWEEDS_CENSUS_LIMIT", 14, "bounds full-pair censuses", "census at"),
    "c22_meander": Limit(
        "SEAWEEDS_C22_MEANDER_LIMIT", 50, "bounds the two-over-two meander oracle",
        "c22 meander oracle at"),
}


def limit(name: str) -> int:
    """The current value of LIMITS[name]: its variable if set, else its default."""
    entry = LIMITS[name]
    try:
        return int(os.environ.get(entry.env, entry.default))
    except ValueError:
        text = os.environ[entry.env]
        raise UsageError(f"{entry.env} must be an integer, got {text!r}") from None


class Table(NamedTuple):
    """A table kind: its first row, its default last row, the pairs in row n."""

    min_n: int
    max_n: int
    pairs: Callable[[int], int]


TABLES = {
    "cnk": Table(1, 10, lambda n: 1 << (2 * (n - 1))),
    "c21": Table(2, 12, lambda n: n - 1),
    "c22": Table(2, 11, lambda n: (n - 1) * (n - 1)),
}

# The verify suites, "all" last: verify.suite_all runs every other one.
SUITES = ("formulas", "gf", "recursion", "gcd", "winding", "all")
