"""Self-test of the benchmark: honest output passes, tampered output is counted.

    python3 bench/selftest.py

Runs the census, homotopy, queries and verify checkers through the real
workload loops at toy sizes, once on the package's own output and once with
a package call replaced by one that returns a doctored tally or prints a
doctored answer; each doctored operation must be counted as failed.
"""

from __future__ import annotations

import io
import re
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from seaweeds import HomotopyType, census_cnk, cli, homotopy_census  # noqa: E402


def toy_run(seed: int = 1) -> workloads.Run:
    return workloads.Run(str(ROOT), seed, 0, 2, lambda: None)


def shifted(row: dict[int, int]) -> dict[int, int]:
    """The same row sum with one pair moved from the top index down by one."""
    row = dict(row)
    top = max(row)
    row[top] -= 1
    row[top - 1] = row.get(top - 1, 0) + 1
    return row


class CensusCheckers(unittest.TestCase):
    def setUp(self):
        patcher = mock.patch.multiple(workloads, CENSUS_N=6, PARALLEL_N=6,
                                      HOMOTOPY_N=5)
        patcher.start()
        self.addCleanup(patcher.stop)

    def test_honest_rows_pass(self):
        for workload in (workloads.census, workloads.census_parallel,
                         workloads.homotopy):
            out = workload(toy_run())
            self.assertGreaterEqual(out.attempted, workloads.MIN_ROWS)
            self.assertEqual(out.failed, 0, out.problems)

    def test_tampered_tally_is_counted(self):
        def tampered(n, workers=1):
            row = census_cnk(n, workers=workers)
            return shifted(row) if workers == 1 else row

        with mock.patch.object(workloads, "census_cnk", tampered):
            out = workloads.census(toy_run())
        self.assertEqual(out.failed, out.attempted)
        self.assertTrue(any("closed form" in p for p in out.problems))

    def test_parallel_disagreeing_with_serial_is_counted(self):
        def tampered(n, workers=1):
            row = census_cnk(n)
            if workers > 1:  # an error the closed forms cannot see
                row = dict(row)
                row[1] -= 1
                row[0] = row.get(0, 0) + 1
            return row

        with mock.patch.object(workloads, "census_cnk", tampered):
            out = workloads.census_parallel(toy_run())
        self.assertEqual(out.failed, out.attempted)
        self.assertTrue(any("reference" in p for p in out.problems))

    def test_tampered_homotopy_tally_is_counted(self):
        def tampered(n):
            row = dict(homotopy_census(n))
            h = min(row, key=lambda t: sum(t.components))
            row[h] -= 1
            single = HomotopyType((n,))
            row[single] = row.get(single, 0) + 1
            return row

        with mock.patch.object(workloads, "homotopy_census", tampered):
            out = workloads.homotopy(toy_run())
        self.assertEqual(out.failed, out.attempted)

    def test_beyond_reference_rows_still_checked(self):
        row = census_cnk(9)
        self.assertEqual(oracles.check_cnk_row(9, row, {}), [])
        self.assertNotEqual(oracles.check_cnk_row(9, shifted(row), {}), [])


class QueryCheckers(unittest.TestCase):
    def setUp(self):
        patcher = mock.patch.object(workloads, "QUERY_GRID", (3, 3, 2))
        patcher.start()
        self.addCleanup(patcher.stop)

    def run_with_main(self, main):
        fake = mock.Mock(main=main)
        with mock.patch.object(workloads, "cli", fake):
            return workloads.queries(toy_run())

    def test_honest_answers_pass(self):
        out = workloads.queries(toy_run())
        self.assertEqual(out.attempted, 3 * 3 + 3 * 2)
        self.assertEqual(out.failed, 0, out.problems)

    def doctor(self, pattern, replace):
        def main(argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            sys.stdout.write(re.sub(pattern, replace, buf.getvalue()))
            return code
        return main

    def test_tampered_index_is_counted(self):
        main = self.doctor(r"(?m)^index (\d+)$",
                           lambda m: f"index {int(m.group(1)) + 1}")
        out = self.run_with_main(main)
        self.assertEqual(out.failed, out.attempted)

    def test_tampered_dimension_is_counted(self):
        main = self.doctor(r"(?m)^dimension (\d+)$",
                           lambda m: f"dimension {int(m.group(1)) - 1}")
        out = self.run_with_main(main)
        self.assertEqual(out.failed, out.attempted)

    def test_tampered_homotopy_is_counted(self):
        main = self.doctor(r"(?m)^homotopy H\((\d+)", r"homotopy H(\1,1")
        out = self.run_with_main(main)
        self.assertEqual(out.failed, out.attempted)

    def test_gcd_formula_catches_consistent_lie(self):
        # index, homotopy and cycle counts shifted together, so that they
        # still agree with each other: the gcd formula must catch every
        # query of the gcd families
        def main(argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            text = buf.getvalue()
            text = re.sub(r"(?m)^index (\d+)$",
                          lambda m: f"index {int(m.group(1)) + 2}", text)
            text = re.sub(r"(?m)^cycles (\d+)$",
                          lambda m: f"cycles {int(m.group(1)) + 1}", text)
            text = re.sub(r"(?m)^homotopy H\(", "homotopy H(2,", text)
            text = re.sub(r"(?m)^signature ", "signature C(2)", text)
            sys.stdout.write(text)
            return code

        out = self.run_with_main(main)
        self.assertEqual(sum("gcd formula" in p for p in out.problems), 3 * 2)

    def test_nonzero_exit_is_counted(self):
        out = self.run_with_main(lambda argv: 2)
        self.assertEqual(out.failed, out.attempted)


class VerifyChecker(unittest.TestCase):
    GOOD = "[PASS] a (0.10s): ok\n[PASS] b (0.20s): ok\nsuite all: passed (2/2)\n"

    def test_passing_output(self):
        self.assertEqual(oracles.check_verify(0, self.GOOD), [])

    def test_failures_are_caught(self):
        bad_summary = self.GOOD.replace("(2/2)", "(1/2)")
        failed_line = self.GOOD.replace("[PASS] b", "[FAIL] b")
        missing_line = self.GOOD.split("\n", 1)[1]
        for code, text in ((1, self.GOOD), (0, bad_summary), (0, failed_line),
                           (0, missing_line), (0, "")):
            self.assertNotEqual(oracles.check_verify(code, text), [], text)


if __name__ == "__main__":
    unittest.main()
