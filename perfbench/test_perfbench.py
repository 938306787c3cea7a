"""Self-test of the benchmark: every output check can fail, failures are
counted, hung invocations time out, inputs follow the seed.

    python3 perfbench/test_perfbench.py        (or: python3 -m pytest perfbench)

The checks run against real foliadex CLI output wherever that is cheap,
and against hand-made outputs for outcomes the program does not produce.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import workloads
from invoke import Invocation, invoke


def fake(returncode=0, stdout="", stderr="", timed_out=False) -> Invocation:
    return Invocation(("foliadex",), returncode, stdout, stderr, 0.1, 20.0, timed_out, 10.0)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (run.ROOT / ".perfbench_run").mkdir(exist_ok=True)
        cls.dir = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench_run"))
        cls.env = run.child_env()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def cli(self, *args, timeout_s=60.0) -> Invocation:
        return invoke([sys.executable, "-m", "foliadex.cli", *args], timeout_s=timeout_s,
                      env=self.env, cwd=run.ROOT, run_dir=self.dir)

    def assertFails(self, verdict, fragment):
        self.assertIsNotNone(verdict.error)
        self.assertIn(fragment, verdict.error)

    # -- process outcome ----------------------------------------------------

    def test_exit_problems(self):
        self.assertIsNone(checks.exit_problem(fake()))
        self.assertIn("timed out", checks.exit_problem(fake(timed_out=True)))
        self.assertIn("traceback", checks.exit_problem(
            fake(stderr="Traceback (most recent call last):\nValueError: x\n")))
        self.assertIn("exit 1", checks.exit_problem(fake(returncode=1, stderr="error: bad\n")))

    def test_hung_invocation_is_killed_and_counted(self):
        inv = invoke([sys.executable, "-c", "import time; time.sleep(60)"], timeout_s=0.5,
                     env=self.env, cwd=run.ROOT, run_dir=self.dir)
        self.assertTrue(inv.timed_out)
        self.assertLess(inv.wall_s, 10.0)
        # An unbounded synth request becomes a failure, not a stalled run.
        inv = self.cli("synth", "--kind", "generalized-index", "--n", "3", "--r", "2",
                       "--c", "1000001/1000000", "--out", "json", timeout_s=1.0)
        self.assertFails(checks.synth(inv, "generalized-index", Fraction(1000001, 1000000), "json"),
                         "timed out")

    # -- oracle-sweep --------------------------------------------------------

    def test_oracle_total_must_match_the_grid(self):
        inv = self.cli("verify", "--grid", "oracle", "--out", "json", "--coeff-max", "2")
        expected = checks.oracle_grid_total(2)
        verdict = checks.oracle_sweep(inv, expected)
        self.assertIsNone(verdict.error)
        self.assertEqual(verdict.checks, expected)
        self.assertFails(checks.oracle_sweep(inv, expected + 1), "the grid implies")
        failed = json.dumps({"total": expected, "failed": 1})
        self.assertFails(checks.oracle_sweep(fake(stdout=failed), expected), "failed")
        self.assertFails(checks.oracle_sweep(fake(returncode=1), expected), "exit 1")

    def test_acceptance_grid_total(self):
        self.assertEqual(checks.oracle_grid_total(6), 24312)

    # -- catalog-roundtrip ---------------------------------------------------

    def test_catalog_roundtrip_checks_fail(self):
        export = self.dir / "catalog.json"
        reexport = self.dir / "catalog.reexport.json"
        self.assertIsNone(checks.catalog_export(
            self.cli("catalog", "export", "--out-file", str(export)), export, 1833).error)
        self.assertFails(checks.catalog_export(fake(), export, 1834), "record_count")
        inv = self.cli("catalog", "import", "--in", str(export), "--out-file", str(reexport))
        self.assertIsNone(checks.catalog_import(inv, export, reexport, 1833).error)
        reexport.write_text(export.read_text() + " ")
        self.assertFails(checks.catalog_import(inv, export, reexport, 1833), "differs")

        # A tampered stored value must surface as failed verify checks.
        catalog = json.loads(export.read_text())
        record = next(r for r in catalog["records"] if r["invariants"]["gen_index"])
        record["invariants"]["gen_index"] = "99/7"
        tampered = self.dir / "tampered.json"
        tampered.write_text(json.dumps(catalog))
        for fmt in ("json", "table"):
            good = checks.verify_report(self.cli("verify", "--catalog", str(export), "--out", fmt), fmt)
            self.assertIsNone(good.error)
            self.assertGreater(good.checks, 0)
            bad = self.cli("verify", "--catalog", str(tampered), "--out", fmt)
            self.assertFails(checks.verify_report(bad, fmt), "exit 1")
            self.assertFails(checks.verify_report(fake(stdout=bad.stdout), fmt), "failed checks")

    # -- synth-mix -----------------------------------------------------------

    def test_synth_target_must_match(self):
        for fmt in ("table", "json", "csv"):
            inv = self.cli("synth", "--kind", "fano-index", "--n", "4", "--r", "2",
                           "--c", "3/2", "--out", fmt)
            verdict = checks.synth(inv, "fano-index", Fraction(3, 2), fmt)
            self.assertIsNone(verdict.error, fmt)
            self.assertEqual((verdict.checks, verdict.records), (3, 1))
            self.assertFails(checks.synth(inv, "fano-index", Fraction(4, 3), fmt), "requested 4/3")
        inv = self.cli("synth", "--kind", "seshadri", "--n", "2", "--r", "1", "--c", "2/3")
        broken = fake(stdout=inv.stdout.replace("2 pass, 0 fail", "1 pass, 1 fail"))
        self.assertFails(checks.synth(broken, "seshadri", Fraction(2, 3), "table"),
                         "construction checks failed")

    def test_unsupported_needs_one_line(self):
        inv = self.cli("synth", "--kind", "generalized-index", "--n", "2", "--r", "1", "--c", "2/5")
        self.assertIsNone(checks.unsupported(inv).error)
        self.assertFails(checks.unsupported(fake(2, stderr="unsupported: a\nmore\n")), "one-line")
        self.assertFails(checks.unsupported(fake(2, stderr="error: x\n")), "one-line")
        self.assertFails(checks.unsupported(fake(1, stderr="error: x\n")), "exit 1")
        self.assertFails(checks.unsupported(fake(0)), "exit 0")

    def test_table_rows_and_values_must_match(self):
        expected = [({"a": a}, {"gen_index": Fraction(a - 1, a)}) for a in range(2, 6)]
        for fmt in ("table", "json", "csv"):
            inv = self.cli("table", "--family", "hirzebruch", "--a", "2..5", "--out", fmt)
            self.assertIsNone(checks.table(inv, fmt, expected).error, fmt)
            self.assertFails(checks.table(inv, fmt, expected[:-1]), "rows")
            wrong = expected[:-1] + [({"a": 5}, {"gen_index": Fraction(5, 4)})]
            self.assertFails(checks.table(inv, fmt, wrong), "expected 5/4")


class WorkloadTest(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        first = [r.args for r in next(workloads.synth_passes(7, Path(".")))]
        again = [r.args for r in next(workloads.synth_passes(7, Path(".")))]
        other = [r.args for r in next(workloads.synth_passes(8, Path(".")))]
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        self.assertEqual(len(first), 16)

    def test_oracle_pair_is_mirrored(self):
        self.assertEqual(workloads.oracle_grids(0), [workloads.ORACLE_DEFAULTS] * 2)
        plus, minus = workloads.oracle_grids(3)
        for name, value in workloads.ORACLE_DEFAULTS.items():
            self.assertEqual(abs(plus[name] - value), 1)
            self.assertEqual(plus[name] + minus[name], 2 * value)

    def test_failed_request_is_counted(self):
        bad = workloads.Request(("synth", "--kind", "nonsense", "--n", "3", "--r", "2", "--c", "3/2"),
                                10.0, lambda inv: checks.synth(inv, "fano-index", Fraction(3, 2), "json"))
        workload = workloads.Workload(1, lambda seed, run_dir: iter([[bad]] * 5))
        (run.ROOT / ".perfbench_run").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_run") as tmp:
            passes, scales, attempted, failures = run.run_loop(
                workload, 0, 0.0, False, run.child_env(), Path(tmp))
        self.assertEqual((len(passes), attempted, len(failures)), (1, 1, 1))
        self.assertEqual(len(scales[0]), 1)
        self.assertGreater(scales[0][0], 0.0)

    def test_timings_are_scaled_to_reference_speed(self):
        # The same pass on a machine running at half speed takes twice as
        # long, and reads the same once scaled.
        ok = checks.Verdict(None, checks=10, records=5)
        fast = [(Invocation(("foliadex",), 0, "", "", 1.0, 20.0, False, 10.0), ok, None, None)]
        slow = [(Invocation(("foliadex",), 0, "", "", 2.0, 20.0, False, 10.0), ok, None, None)]
        metrics, _ = run.end_to_end([fast, slow], [[1.0], [0.5]], 0.1)
        self.assertEqual(metrics["wall_s"], 1.0)
        self.assertEqual(metrics["req_p90_s"], 1.0)
        self.assertEqual(metrics["checks_per_s"], 10.0)
        self.assertEqual(metrics["records_per_s"], 5.0)

    def test_refuses_to_run_without_sources(self):
        (run.ROOT / ".perfbench_run").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_run") as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "synth-mix", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
