"""Tests of the benchmark's own output checks: each passes on real ecsim
artifacts and fails on a deliberately corrupted copy.

    python3 bench/selftest.py

Runs small ecsim operations through the same process launcher as the
benchmark (about 5 s in all). Kept out of the repository's pytest suite on
purpose: it tests the benchmark, not ecsim.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import oracles
import run
import tracer


def _rewrite_csv_cell(path: Path, row: int, col: int, transform) -> None:
    """Apply `transform` to one numeric cell (data row `row`) of an ecsim CSV."""
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = format(transform(float(cells[col])), ".17g")
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class CheckTest(unittest.TestCase):
    """Runs one operation once per class; each test corrupts a fresh copy."""

    op: run.Op
    check = None

    @classmethod
    def setUpClass(cls):
        run.RUNS.mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))
        cls.outcome = run.run_op(cls.op, cls.tmp / "op", trace=False)
        assert not cls.outcome.errors, cls.outcome.errors

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def setUp(self):
        self.out = self.tmp / f"copy-{self._testMethodName}"
        shutil.copytree(self.outcome.out, self.out)

    def errors(self) -> list[str]:
        return type(self).check(self.out, self.op.params, self.op.seed)

    def assertCaught(self, fragment: str):
        """Some failure names the check that should have fired."""
        errors = self.errors()
        self.assertTrue(any(fragment in e for e in errors), f"no {fragment!r} failure in {errors}")


class PhaseWalkChecks(CheckTest):
    op = run.Op("phase-walk", {"step_variance": 0.1, "modes": 5, "photons": 2, "realizations": 8,
                               "lags": [1, 2, 3, 4]}, 3)
    check = staticmethod(oracles.check_phase_walk)

    def test_clean_artifacts_pass(self):
        self.assertEqual(self.errors(), [])

    def test_g1_entry(self):
        _rewrite_csv_cell(self.out / "results.csv", 2, 2, lambda x: x + 1e-9)
        self.assertCaught("g1(0,2)")

    def test_stderr_entry(self):
        _rewrite_csv_cell(self.out / "results.csv", 3, 5, lambda x: x * 1.001)
        self.assertCaught("stderr(0,3)")

    def test_g1_at_zero_lag(self):
        rows = oracles.read_csv(self.out / "results.csv")[2]
        zero = [i for i, r in enumerate(rows) if r[1] == 0][0]
        for col in (2, 4):
            _rewrite_csv_cell(self.out / "results.csv", zero, col, lambda x: 0.0)
        self.assertCaught("g1(0,0)")

    def test_missing_row(self):
        path = self.out / "results.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        self.assertCaught("wrote pairs")


class TrajectoryChecks(CheckTest):
    op = run.Op("trajectory", {"n": 8, "eps_step": 0.1, "steps": 60, "stop_after_detections": 10,
                               "fringe": True, "fringe_branch": "positive", "export_state": True}, 5)
    check = staticmethod(oracles.check_trajectory)

    def test_clean_artifacts_pass(self):
        self.assertEqual(self.errors(), [])

    def test_profile_value(self):
        _rewrite_csv_cell(self.out / "results.csv", 100, 1, lambda x: x + 1e-10)
        self.assertCaught("profile |w|")

    def test_remaining_radius(self):
        _rewrite_json(self.out / "results.json",
                      lambda p: p.update(remaining_radius2=p["remaining_radius2"] * (1 + 1e-10)))
        self.assertCaught("remaining_radius2")

    def test_step_probability(self):
        _rewrite_json(self.out / "results.json",
                      lambda p: p["record"]["steps"][0].update(probability=0.0))
        self.assertCaught("step probability")

    def test_totals(self):
        _rewrite_json(self.out / "results.json",
                      lambda p: p["record"].update(totals=[p["record"]["totals"][0] + 1, p["record"]["totals"][1]]))
        self.assertCaught("totals")

    def test_early_stop(self):
        _rewrite_json(self.out / "results.json", lambda p: p["record"]["steps"].pop())
        self.assertCaught("run stopped")

    def test_more_photons_than_loaded(self):
        def edit(p):
            p["record"]["steps"][0]["counts"] = [2 * 8 + 1, 0]
            p["record"]["totals"] = [sum(s["counts"][0] for s in p["record"]["steps"]),
                                     sum(s["counts"][1] for s in p["record"]["steps"])]
        _rewrite_json(self.out / "results.json", edit)
        self.assertCaught("exceeds 2n")

    def test_fringe_not_sinusoidal(self):
        _rewrite_csv_cell(self.out / "fringe.csv", 7, 1, lambda x: x * (1 + 1e-9))
        self.assertCaught("fringe sinusoid")

    def test_cavity_state_sector(self):
        def edit(p):
            p["data"][2] = "1e-6"  # amplitude of |0, 1>, off the total-number sector
        _rewrite_json(self.out / "cavity_state.json", edit)
        self.assertCaught("outside the k + l")

    def test_cavity_norm(self):
        _rewrite_json(self.out / "cavity_state.json",
                      lambda p: p.update(data=[repr(float(x) * 1.001) for x in p["data"]]))
        self.assertCaught("cavity norm")

    def test_rerun_detects_changed_bytes(self):
        first = run.Outcome(self.op, self.out, 0, 0.0, 0.0, 0, 0, [], {})
        rerun_dir = self.tmp / "rerun"
        shutil.rmtree(rerun_dir, ignore_errors=True)
        self.assertEqual(run.rerun_identical(first, rerun_dir), [])
        shutil.rmtree(rerun_dir)
        path = self.out / "results.json"
        path.write_text(path.read_text() + " ")
        self.assertTrue(run.rerun_identical(first, rerun_dir), "changed artifact passed the rerun check")


class HomodyneChecks(CheckTest):
    op = run.Op("homodyne", {"n": 12, "theta": 0.3, "offset": 2.5, "points": 8}, 1)
    check = staticmethod(oracles.check_homodyne)

    def test_clean_artifacts_pass(self):
        self.assertEqual(self.errors(), [])

    def test_mean(self):
        _rewrite_csv_cell(self.out / "results.csv", 3, 1, lambda x: x + 1e-8)
        self.assertCaught("difference mean")

    def test_variance(self):
        _rewrite_csv_cell(self.out / "results.csv", 5, 2, lambda x: x * (1 + 1e-8))
        self.assertCaught("difference variance")

    def test_offset(self):
        _rewrite_json(self.out / "results.json",
                      lambda p: p.update(recovered_offset=p["recovered_offset"] + 1e-9))
        self.assertCaught("recovered offset")

    def test_offset_modulo_two_pi_passes(self):
        _rewrite_json(self.out / "results.json",
                      lambda p: p.update(recovered_offset=p["recovered_offset"] - 2 * 3.141592653589793))
        self.assertEqual(self.errors(), [])

    def test_amplitude(self):
        _rewrite_json(self.out / "results.json", lambda p: p.update(amplitude=p["amplitude"] * (1 + 1e-9)))
        self.assertCaught("amplitude")

    def test_manifest_artifacts(self):
        _rewrite_json(self.out / "manifest.json", lambda p: p["artifacts"].pop())
        self.assertCaught("manifest artifacts")


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.RUNS.mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))
        _, _, proc = run.spawn(cls.tmp, ["verify", "--suite", "fast"], [])
        assert proc.returncode == 0, proc.stderr
        cls.stdout = proc.stdout

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_clean_output_passes(self):
        errors, checks = oracles.check_verify(self.stdout)
        self.assertEqual(errors, [])
        self.assertEqual(checks, 10)

    def assertCaught(self, stdout: str, fragment: str):
        errors = oracles.check_verify(stdout)[0]
        self.assertTrue(any(fragment in e for e in errors), f"no {fragment!r} failure in {errors}")

    def test_fail_line(self):
        self.assertCaught(self.stdout.replace("PASS", "FAIL", 1), ": FAIL")

    def test_measured_above_tolerance(self):
        lines = self.stdout.splitlines()
        lines[0] = lines[0].split("measured=")[0] + "measured=2.000e-12  tolerance=1.000e-12"
        self.assertCaught("\n".join(lines), "measured=2.000e-12")

    def test_summary_count(self):
        self.assertCaught("\n".join(self.stdout.splitlines()[1:]), "verify summary")


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracer.PER_LAYER))

    def test_rounds_depend_only_on_seed(self):
        for name, workload in run.WORKLOADS.items():
            self.assertEqual(workload.round(random.Random(4)), workload.round(random.Random(4)), name)


if __name__ == "__main__":
    sys.exit(unittest.main())
