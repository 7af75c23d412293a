"""Seeded experiment runner.

    ecsim run --config experiment.json [--seed N] [--out DIR]
    ecsim verify --suite fast|full

A config file is a JSON object with keys `experiment`, `parameters`, and
optionally `seed` and `output_dir` (command-line flags win). Unknown keys are
rejected. Every run writes a manifest echoing the fully resolved config, its
hash, and the artifact list; reruns with the same config and seed produce
byte-identical outputs. Set ECSIM_THREADS to pin the BLAS thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .circle import conditional_weight, delta_profile, peak_locations, width_fit
from .errors import ConfigError, NumericsError, SizingError, ValidationError
from .fock import _fmt, to_json_dict
from .homodyne import HomodyneConfig, PhaseShiftProcess, process_tomography_scan
from .measurement import FRINGE_BRANCHES, fringe_scan, run_interference_trajectory
from .sources import PhaseWalkSpec, decomposition_equivalence_check, phase_walk_correlation
from .squeezing import approximation_quality, pair_ladder_coefficients, required_pair_cutoff

EXIT_CONFIG = 2
EXIT_SIZING = 3
EXIT_NUMERICS = 4

_REQUIRED = object()


@dataclass(frozen=True)
class Experiment:
    name: str
    schema: dict[str, tuple[type, Any]]
    runner: Callable[[dict, int, Path], list[str]]
    # range checks on the typed parameters, run before any output exists
    check: Callable[[dict], None] | None = None


def _write_csv(path: Path, header: list[str], rows, meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Experiment runners and their range checks
# ---------------------------------------------------------------------------


def _check_interfere(p: dict) -> None:
    _at_least(p, {"A": 0, "B": 0, "n": 0, "grid": 1, "profile_points": 1})
    if not 0.0 < p["eps"] < 1.0:
        raise ConfigError(f"parameter eps must lie in (0, 1), got {p['eps']}")
    # counts on a field that vanishes at every grid point leave log|C| = -inf
    # everywhere: alpha_a = 0 where phi - phi' = pi, alpha_b = 0 where phi = phi'
    A, B = p["A"], p["B"]
    if A + B > 0 and p["n"] == 0:
        raise ConfigError(f"parameter n must be >= 1 when counts are recorded (A + B = {A + B}), got 0")
    if B > 0 and p["grid"] < 2:
        raise ConfigError(f"parameter grid must be >= 2 when B > 0, got {p['grid']}")
    if A > 0 and B > 0 and p["grid"] < 3:
        raise ConfigError(f"parameter grid must be >= 3 when A > 0 and B > 0, got {p['grid']}")


def _run_interfere(p: dict, seed: int, out: Path) -> list[str]:
    weight = conditional_weight(p["A"], p["B"], p["eps"], p["n"], grid=p["grid"])
    deltas, mag = delta_profile(weight, points=p["profile_points"])
    meta = {"config_sha256": p["_hash"], "seed": seed}
    _write_csv(out / "results.csv", ["delta", "magnitude"], zip(deltas.tolist(), mag.tolist()), meta)
    summary: dict[str, Any] = {
        "peaks": list(peak_locations(p["A"], p["B"])),
        "argmax_delta": float(deltas[int(np.argmax(mag))]),
        "log_peak_magnitude": weight.log_peak,
    }
    if p["A"] + p["B"] >= 16:
        fit = width_fit(weight)
        summary["width_sigma"] = fit.sigma
        summary["width_center"] = fit.center
        summary["width_fit_ok"] = fit.ok
    _write_json(out / "results.json", {"config_sha256": p["_hash"], "seed": seed, **summary})
    return ["results.csv", "results.json"]


def _run_trajectory(p: dict, seed: int, out: Path) -> list[str]:
    record, traj = run_interference_trajectory(
        p["n"], p["eps_step"], p["steps"], seed, p["stop_after_detections"] or None
    )
    deltas, mag = traj.delta_profile(p["profile_points"])
    meta = {"config_sha256": p["_hash"], "seed": seed}
    _write_csv(out / "results.csv", ["delta", "magnitude"], zip(deltas.tolist(), mag.tolist()), meta)
    a, b = record.totals
    summary: dict[str, Any] = {
        "record": record.to_json_dict(),
        "overflow_bound": traj.overflow_bound,
        "remaining_radius2": traj.radius2,
    }
    if a + b > 0:
        summary["peak_formula"] = list(peak_locations(a, b))
    if a + b >= 16 and a > 0 and b > 0:
        fit = width_fit((deltas, mag), A=a, B=b)
        summary["width_sigma"] = fit.sigma
    artifacts = ["results.csv", "results.json"]
    if p["fringe"]:
        gammas = 2.0 * math.pi * np.arange(p["fringe_points"]) / p["fringe_points"]
        scan = fringe_scan(traj, gammas, branch=p["fringe_branch"])
        _write_csv(out / "fringe.csv", ["gamma", "intensity"],
                   zip(scan.gammas.tolist(), scan.intensity.tolist()), meta)
        summary["visibility"] = scan.visibility
        artifacts.append("fringe.csv")
    if p["export_state"]:
        envelope = to_json_dict(traj.cavity_state())
        envelope.update(config_sha256=p["_hash"], seed=seed)
        _write_json(out / "cavity_state.json", envelope)
        artifacts.append("cavity_state.json")
    _write_json(out / "results.json", {"config_sha256": p["_hash"], "seed": seed, **summary})
    return artifacts


def _at_least(p: dict, lower: dict[str, float]) -> None:
    for key, low in lower.items():
        if p[key] < low:
            raise ConfigError(f"parameter {key} must be >= {low}, got {p[key]}")


def _numbers_within(p: dict, key: str, low: float, high: float, integer: bool = False) -> None:
    """Check every element of the list parameter `key` (JSON numbers only)."""
    kinds = int if integer else (int, float)
    for value in p[key]:
        if isinstance(value, bool) or not isinstance(value, kinds) or not low <= value <= high:
            what = "integers" if integer else "numbers"
            raise ConfigError(f"parameter {key} must hold {what} in [{low:g}, {high:g}], got {value!r}")


def _check_trajectory(p: dict) -> None:
    _at_least(p, {"n": 0, "steps": 0, "stop_after_detections": 0, "profile_points": 1, "fringe_points": 1})
    if not 0.0 < p["eps_step"] < 1.0:
        raise ConfigError(f"parameter eps_step must lie in (0, 1), got {p['eps_step']}")
    if p["fringe_branch"] not in FRINGE_BRANCHES:
        raise ConfigError(
            f"parameter fringe_branch must be one of {list(FRINGE_BRANCHES)}, got {p['fringe_branch']!r}"
        )


def _run_laser_equivalence(p: dict, seed: int, out: Path) -> list[str]:
    rep = decomposition_equivalence_check(p["nbar"], p["modes"], p["cutoff"])
    tolerance = 1e-8 + rep.tail_bound
    if rep.trace_distance > tolerance:
        raise NumericsError(
            f"decomposition equivalence violated: {rep.trace_distance:.3e} > {tolerance:.3e}"
        )
    _write_json(
        out / "results.json",
        {
            "config_sha256": p["_hash"],
            "seed": seed,
            "trace_distance": rep.trace_distance,
            "tail_bound": rep.tail_bound,
            "tolerance": tolerance,
            "m_max": rep.m_max,
        },
    )
    return ["results.json"]


def _check_laser_equivalence(p: dict) -> None:
    _at_least(p, {"nbar": 0.0, "modes": 1, "cutoff": 0})


def _check_phase_walk(p: dict) -> None:
    _at_least(p, {"step_variance": 0.0, "modes": 1, "photons": 0, "realizations": 1})
    _numbers_within(p, "lags", 0, p["modes"] - 1, integer=True)


def _run_phase_walk(p: dict, seed: int, out: Path) -> list[str]:
    spec = PhaseWalkSpec(p["step_variance"], p["modes"], p["photons"], seed)
    pairs = None
    if p["lags"]:
        pairs = [(0, lag) for lag in p["lags"]] + [(0, 0)]
    res = phase_walk_correlation(spec, p["realizations"], pairs=pairs)
    meta = {"config_sha256": p["_hash"], "seed": seed}
    rows = [r for r in res.to_csv_rows() if pairs is None or (r[0], r[1]) in set(pairs)]
    _write_csv(out / "results.csv", ["k", "l", "re", "im", "abs", "stderr"], rows, meta)
    summary = {
        "config_sha256": p["_hash"],
        "seed": seed,
        "realizations": res.realizations,
        "prediction": {
            str(lag): math.exp(-p["step_variance"] * lag / 2.0) for lag in (p["lags"] or [])
        },
    }
    _write_json(out / "results.json", summary)
    return ["results.csv", "results.json"]


def _check_homodyne(p: dict) -> None:
    _at_least(p, {"n": 0, "points": 1})
    if p["theta"] is not None and not 0.0 <= p["theta"] <= math.pi / 2:
        raise ConfigError(f"parameter theta must lie in [0, pi/2], got {p['theta']}")


def _run_homodyne(p: dict, seed: int, out: Path) -> list[str]:
    theta = p["theta"] if p["theta"] is not None else math.acos(0.95)
    config = HomodyneConfig(p["n"], PhaseShiftProcess(p["offset"]), theta)
    gammas = 2.0 * math.pi * np.arange(p["points"]) / p["points"]
    scan = process_tomography_scan(config, gammas)
    meta = {"config_sha256": p["_hash"], "seed": seed}
    _write_csv(
        out / "results.csv",
        ["gamma", "mean", "variance"],
        zip(scan.gammas.tolist(), scan.means.tolist(), scan.variances.tolist()),
        meta,
    )
    _write_json(
        out / "results.json",
        {
            "config_sha256": p["_hash"],
            "seed": seed,
            "recovered_offset": scan.recovered_offset,
            "injected_offset": p["offset"],
            "amplitude": scan.amplitude,
        },
    )
    return ["results.csv", "results.json"]


def _check_squeeze(p: dict) -> None:
    _at_least(p, {"pair_cutoff": 0})
    _numbers_within(p, "pumps", 1, math.inf, integer=True)


def _run_squeeze(p: dict, seed: int, out: Path) -> list[str]:
    points = approximation_quality(p["pumps"], p["scale"], p["pair_cutoff"] or None)
    meta = {"config_sha256": p["_hash"], "seed": seed}
    _write_csv(
        out / "results.csv",
        ["pump_n", "fidelity", "norm_deficit"],
        [(pt.pump_n, pt.fidelity, pt.norm_deficit) for pt in points],
        meta,
    )
    cut = required_pair_cutoff(p["scale"]) + 4
    ladder = pair_ladder_coefficients(p["scale"], cut)
    _write_json(
        out / "results.json",
        {
            "config_sha256": p["_hash"],
            "seed": seed,
            "fidelities": {str(pt.pump_n): pt.fidelity for pt in points},
            "idealized_schmidt": [[_fmt(c.real), _fmt(c.imag)] for c in ladder],
        },
    )
    return ["results.csv", "results.json"]


def _check_ecs_verify(p: dict) -> None:
    _at_least(p, {"n_max": 0})
    _numbers_within(p, "thetas", 0.0, math.pi / 2)
    _numbers_within(p, "phis", -math.inf, math.inf)


def _run_ecs_verify(p: dict, seed: int, out: Path) -> list[str]:
    from .verify import check_commuting_diagram  # loaded on demand, as in cmd_verify

    result = check_commuting_diagram(p["n_max"], p["thetas"], p["phis"])
    if not result.passed:
        raise NumericsError(f"commuting diagram violated: deficit {result.measured:.3e}")
    # each (theta, phi) pair sweeps (0, 0) and (n, 0), (n, n) for n = 1..n_max
    cases = len(p["thetas"]) * len(p["phis"]) * (2 * p["n_max"] + 1)
    _write_json(
        out / "results.json",
        {"config_sha256": p["_hash"], "seed": seed, "cases": cases, "worst_infidelity": result.measured},
    )
    return ["results.json"]


EXPERIMENTS: dict[str, Experiment] = {
    "interfere": Experiment(
        "interfere",
        {
            "A": (int, _REQUIRED),
            "B": (int, _REQUIRED),
            "eps": (float, _REQUIRED),
            "n": (int, _REQUIRED),
            "grid": (int, 1024),
            "profile_points": (int, 1024),
        },
        _run_interfere,
        _check_interfere,
    ),
    "trajectory": Experiment(
        "trajectory",
        {
            "n": (int, _REQUIRED),
            "eps_step": (float, _REQUIRED),
            "steps": (int, _REQUIRED),
            "stop_after_detections": (int, 0),
            "profile_points": (int, 1024),
            "fringe": (bool, False),
            "fringe_points": (int, 64),
            "fringe_branch": (str, "positive"),
            "export_state": (bool, False),
        },
        _run_trajectory,
        _check_trajectory,
    ),
    "laser-equivalence": Experiment(
        "laser-equivalence",
        {"nbar": (float, _REQUIRED), "modes": (int, _REQUIRED), "cutoff": (int, _REQUIRED)},
        _run_laser_equivalence,
        _check_laser_equivalence,
    ),
    "phase-walk": Experiment(
        "phase-walk",
        {
            "step_variance": (float, _REQUIRED),
            "modes": (int, _REQUIRED),
            "photons": (int, _REQUIRED),
            "realizations": (int, _REQUIRED),
            "lags": (list, []),
        },
        _run_phase_walk,
        _check_phase_walk,
    ),
    "homodyne": Experiment(
        "homodyne",
        {
            "n": (int, _REQUIRED),
            "theta": (float, None),
            "offset": (float, 0.0),
            "points": (int, 24),
        },
        _run_homodyne,
        _check_homodyne,
    ),
    "squeeze": Experiment(
        "squeeze",
        {
            "pumps": (list, [2, 4, 8, 12]),
            "scale": (float, 0.2),
            "pair_cutoff": (int, 0),
        },
        _run_squeeze,
        _check_squeeze,
    ),
    "ecs-verify": Experiment(
        "ecs-verify",
        {
            "n_max": (int, 6),
            "thetas": (list, [math.pi / 8, math.pi / 4, math.pi / 3]),
            "phis": (list, [0.0, math.pi / 2]),
        },
        _run_ecs_verify,
        _check_ecs_verify,
    ),
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path: Path, seed_override: int | None, out_override: str | None) -> tuple[Experiment, dict, int, Path]:
    try:
        raw = json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    allowed_top = {"experiment", "parameters", "seed", "output_dir"}
    unknown = set(raw) - allowed_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    name = raw.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {sorted(EXPERIMENTS)}, got {name!r}"
        )
    exp = EXPERIMENTS[name]
    params_in = raw.get("parameters", {})
    if not isinstance(params_in, dict):
        raise ConfigError("parameters must be an object")
    unknown = set(params_in) - set(exp.schema)
    if unknown:
        raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")
    params: dict[str, Any] = {}
    for key, (typ, default) in exp.schema.items():
        if key in params_in:
            value = params_in[key]
            if typ in (int, float) and isinstance(value, bool):
                raise ConfigError(f"parameter {key} must be {typ.__name__}")
            if typ is float and isinstance(value, int):
                value = float(value)
            if typ is int and isinstance(value, float) and value.is_integer():
                value = int(value)
            if value is not None and not isinstance(value, typ):
                raise ConfigError(f"parameter {key} must be {typ.__name__}")
            params[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"missing required parameter {key} for {name}")
        else:
            params[key] = default
    if exp.check is not None:
        exp.check(params)
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    outdir = Path(out_override or raw.get("output_dir", "."))
    if outdir.exists() and not outdir.is_dir():
        raise ConfigError(f"output path {outdir} exists and is not a directory")
    return exp, params, seed, outdir


def config_hash(exp: Experiment, params: dict, seed: int) -> str:
    canonical = json.dumps(
        {"experiment": exp.name, "parameters": params, "seed": seed}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _staging_dir(outdir: Path) -> Path:
    """Empty hidden directory inside `outdir` when it exists, else in the
    nearest existing ancestor, with the mode a plain mkdir would give."""
    base = next(p for p in (outdir, *outdir.parents) if p.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=".ecsim-", suffix=".partial", dir=base))
    umask = os.umask(0)
    os.umask(umask)
    staging.chmod(0o777 & ~umask)
    return staging


def _publish(staging: Path, outdir: Path, names: list[str]) -> None:
    """Move finished artifacts into `outdir`: one atomic replace per file when
    it exists, else the whole staging directory renamed into place."""
    if outdir.is_dir():
        for name in names:
            os.replace(staging / name, outdir / name)
    else:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        staging.rename(outdir)


def cmd_run(args) -> int:
    exp, params, seed, outdir = load_config(Path(args.config), args.seed, args.out)
    digest = config_hash(exp, params, seed)
    run_params = dict(params)
    run_params["_hash"] = digest
    try:
        pkg_version = version("ecsim")
    except Exception:
        pkg_version = "unknown"
    # a run that fails leaves neither a new output directory nor partial files
    staging = _staging_dir(outdir)
    try:
        artifacts = exp.runner(run_params, seed, staging)
        _write_json(
            staging / "manifest.json",
            {
                "experiment": exp.name,
                "parameters": params,
                "seed": seed,
                "config_sha256": digest,
                "rng": "numpy-pcg64",
                "package_version": pkg_version,
                "artifacts": sorted(artifacts),
            },
        )
        _publish(staging, outdir, artifacts + ["manifest.json"])
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"{exp.name}: wrote {', '.join(sorted(artifacts) + ['manifest.json'])} to {outdir}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  measured={r.measured:.3e}  tolerance={r.tolerance:.3e}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.set_defaults(func=cmd_run)
    ver = sub.add_parser("verify", help="run the cross-module invariant suite")
    ver.add_argument("--suite", choices=("fast", "full"), default="fast")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizingError as exc:
        print(f"sizing error: {exc}", file=sys.stderr)
        return EXIT_SIZING
    except (NumericsError,) as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
