"""ecsim benchmark: drives `ecsim run` and `ecsim verify` as a user does.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh `python3 bench/op.py` process (so no coupler block
or import survives from one operation to the next), started one at a time
with BLAS pinned to one thread. A run repeats whole rounds of its workload's
operations until S seconds have passed, checks every operation's artifacts
against closed forms (bench/oracles.py) and prints one JSON object as its
last line of output. With --trace 1 it runs one round untraced and the same
round traced, and reports the per-layer metrics of the traced round instead.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
SETUP_PROBES = 3
OP_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("peak_rss_mib", "MiB"), ("units_per_s", "1/s"))


@dataclass
class Op:
    """One `ecsim` invocation: `run` of an experiment config, or `verify --suite full`."""

    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass
class Outcome:
    op: Op
    out: Path
    code: int
    setup_s: float
    op_s: float
    maxrss_kib: int
    units: int
    errors: list[str]
    report: dict


# ---------------------------------------------------------------------------
# Workloads: each builds one round of operations from the seeded generator
# ---------------------------------------------------------------------------


def phase_walk_round(rng: random.Random) -> list[Op]:
    # criterion 10's configuration; the realization count sizes one operation
    params = {"step_variance": 0.1, "modes": 11, "photons": 2, "realizations": 60,
              "lags": list(range(1, 11))}
    return [Op("phase-walk", params, rng.randrange(2**31))]


def trajectory_round(rng: random.Random) -> list[Op]:
    # criterion 6: four n = 20 runs, then one deep n = 64 run with fringe and export
    shallow = {"n": 20, "eps_step": 0.05, "steps": 200}
    deep = {"n": 64, "eps_step": 0.03, "steps": 400, "stop_after_detections": 100,
            "fringe": True, "fringe_branch": "positive", "export_state": True}
    return [Op("trajectory", dict(shallow), rng.randrange(2**31)) for _ in range(4)] + [
        Op("trajectory", deep, rng.randrange(2**31))
    ]


def homodyne_round(rng: random.Random) -> list[Op]:
    # a different source number per operation, so every sector block is cold
    return [
        Op("homodyne", {"n": n, "theta": rng.uniform(0.25, 0.45),
                        "offset": rng.uniform(0.0, 2.0 * math.pi), "points": 24},
           rng.randrange(2**31))
        for n in (120, 160, 200)
    ]


def verify_round(rng: random.Random) -> list[Op]:
    return [Op("verify-full")]


def phase_walk_units(op: Op, out: Path, stdout: str) -> tuple[int, list[str]]:
    return op.params["realizations"], oracles.check_phase_walk(out, op.params, op.seed)


def trajectory_units(op: Op, out: Path, stdout: str) -> tuple[int, list[str]]:
    errors = oracles.check_trajectory(out, op.params, op.seed)
    return len(json.loads((out / "results.json").read_text())["record"]["steps"]), errors


def homodyne_units(op: Op, out: Path, stdout: str) -> tuple[int, list[str]]:
    return op.params["points"], oracles.check_homodyne(out, op.params, op.seed)


def verify_units(op: Op, out: Path, stdout: str) -> tuple[int, list[str]]:
    errors, checks = oracles.check_verify(stdout)
    return checks, errors


@dataclass(frozen=True)
class Workload:
    round: Callable[[random.Random], list[Op]]
    # (work units completed, check failures) of one operation that exited 0
    units: Callable[[Op, Path, str], tuple[int, list[str]]]


WORKLOADS = {
    "phase-walk": Workload(phase_walk_round, phase_walk_units),
    "trajectory": Workload(trajectory_round, trajectory_units),
    "homodyne": Workload(homodyne_round, homodyne_units),
    "verify-full": Workload(verify_round, verify_units),
}


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ECSIM_THREADS", None)  # read by ecsim only after numpy is loaded
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed package imports from cached bytecode
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workdir: Path, argv: list[str], flags: list[str]) -> tuple[dict, float, subprocess.CompletedProcess]:
    report_path = workdir / "report.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "op.py"), str(report_path), *flags, "--", *argv],
        env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    return report, started, proc


def probe_setup(workdir: Path) -> float:
    """Seconds from spawn until a process has imported ecsim."""
    workdir.mkdir(parents=True)
    report, started, proc = spawn(workdir, [], ["--probe"])
    if "ready" not in report:
        raise SystemExit(f"ecsim does not import: {proc.stderr.strip()[-500:]}")
    return report["ready"] - started


def run_op(op: Op, workdir: Path, trace: bool) -> Outcome:
    workdir.mkdir(parents=True)
    out = workdir / "out"
    if op.experiment == "verify-full":
        argv = ["verify", "--suite", "full"]
    else:
        config = workdir / "config.json"
        config.write_text(json.dumps({"experiment": op.experiment, "parameters": op.params, "seed": op.seed}))
        argv = ["run", "--config", str(config), "--out", str(out)]
    try:
        report, started, proc = spawn(workdir, argv, ["--trace"] if trace else [])
    except subprocess.TimeoutExpired:
        return Outcome(op, out, -1, 0.0, 0.0, 0, 0, [f"timed out after {OP_TIMEOUT_S} s"], {})
    errors: list[str] = []
    units = 0
    code = report.get("code", proc.returncode)
    if proc.returncode != 0 or code != 0 or "end" not in report:
        errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    else:
        try:
            units, errors = WORKLOADS[op.experiment].units(op, out, proc.stdout)
        except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            errors.append(f"unreadable artifacts: {exc!r}")
    return Outcome(
        op, out, code,
        report.get("ready", started) - started,
        report.get("end", 0.0) - report.get("ready", 0.0),
        report.get("maxrss_kib", 0), units, errors, report,
    )


def rerun_identical(first: Outcome, workdir: Path) -> list[str]:
    """Rerun an operation with the same config and seed (untimed) and compare
    every artifact byte for byte."""
    again = run_op(first.op, workdir, trace=False)
    if again.errors:
        return [f"rerun failed: {again.errors[0]}"]
    names = sorted(p.name for p in first.out.iterdir())
    if names != sorted(p.name for p in again.out.iterdir()):
        return ["rerun wrote a different set of artifacts"]
    return [f"rerun changed {name}" for name in names
            if (first.out / name).read_bytes() != (again.out / name).read_bytes()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecsim" / "cli.py").is_file():
        print(f"ecsim sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    rundir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        setups = [probe_setup(rundir / f"probe{i}") for i in range(SETUP_PROBES)]
        rounds: list[list[Outcome]] = []
        serial = 0

        def run_round(ops: list[Op], trace: bool) -> list[Outcome]:
            nonlocal serial
            outcomes = []
            for op in ops:
                serial += 1
                outcomes.append(run_op(op, rundir / f"op{serial:04d}", trace))
            return outcomes

        start = time.monotonic()
        if args.trace:
            ops = workload.round(rng)
            rounds.append(run_round(ops, trace=False))
            traced = run_round(ops, trace=True)
            rounds.append(traced)
        else:
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(run_round(workload.round(rng), trace=False))
        if args.workload == "trajectory" and not rounds[0][0].errors:
            rounds[0][0].errors += rerun_identical(rounds[0][0], rundir / "rerun")
        outcomes = [o for r in rounds for o in r]
        for o in outcomes:
            for error in o.errors:
                print(f"{o.op.experiment} seed {o.op.seed}: {error}", file=sys.stderr)
        failed = sum(1 for o in outcomes if o.errors)
        correct = not any(o.errors and o.code == 0 for o in outcomes)
        if args.trace:
            overhead = sum(o.op_s for o in rounds[1]) - sum(o.op_s for o in rounds[0])
            values = tracer.layer_metrics([o.report for o in traced if "spans" in o.report], overhead)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.PER_LAYER}
        else:
            busy_s = sum(o.op_s for o in outcomes)
            values = {
                "setup_s": statistics.median(setups + [o.setup_s for o in outcomes if o.code == 0]),
                "peak_rss_mib": max(o.maxrss_kib for o in outcomes) / 1024.0,
                "units_per_s": sum(o.units for o in outcomes) / busy_s if busy_s > 0 else 0.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
