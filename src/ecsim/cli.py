"""Seeded experiment runner.

    ecsim run --config experiment.json [--seed N] [--out DIR]
    ecsim verify --suite fast|full [--json]

A config file is a JSON object with keys `experiment`, `parameters`, and
optionally `seed` and `output_dir` (command-line flags win, but the config's
own values are checked all the same). Unknown keys are rejected, and each
value is typed and bounded by its `Param` in `EXPERIMENTS` or `SETTINGS`.
Every run writes a manifest echoing the fully resolved config, its hash, and
the artifact list; reruns with the same config and seed produce
byte-identical outputs at a fixed BLAS thread count and numpy/BLAS build
(other thread counts may change the last digits). Set ECSIM_THREADS to pin
the BLAS thread count.

An experiment's runner maps (parameters, seed) to {artifact name: payload},
a `.csv` payload being (header, rows), its rows read once, and a `.json`
payload a dict; it writes nothing. `cmd_run` alone stamps the config hash and seed into every
artifact (CSV comment lines; JSON keys, over any the payload holds), writes
them and the manifest, and lists them there.
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
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .circle import conditional_weight, delta_profile, pair_ladder, peak_locations, width_fit
from .errors import ConfigError, NumericsError, SizingError, ValidationError
from .fock import _fmt, check_cells, to_json_dict
from .homodyne import HomodyneConfig, PhaseShiftProcess, check_tomography_scan, process_tomography_scan
from .measurement import FRINGE_BRANCHES, fringe_scan, run_interference_trajectory
from .sources import PhaseWalkSpec, decomposition_equivalence_check, phase_walk_correlation
from .squeezing import approximation_quality, required_pair_cutoff

EXIT_CONFIG = 2
EXIT_SIZING = 3
EXIT_NUMERICS = 4

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A config value's type, default and range: the value, or each item of a
    list, lies in [low, high], or in (low, high) when `open`."""

    kind: type  # int, float, bool or str: of the value, or of each item of a list
    default: Any = _REQUIRED
    low: float = -math.inf
    high: float = math.inf
    open: bool = False
    items: bool = False  # a list of `kind` values
    nonempty: bool = False
    choices: tuple[str, ...] = ()


@dataclass(frozen=True)
class Experiment:
    name: str
    schema: dict[str, Param]
    # (parameters, seed) -> {artifact name: payload}; cmd_run stamps and writes them
    runner: Callable[[dict, int], dict[str, Any]]
    # the rules that join two typed parameters, run before any output exists
    check: Callable[[dict], None] = lambda p: None


def _write_csv(path: Path, header: list[str], rows, stamp: dict) -> None:
    # a phase walk over N modes reports N^2 rows: each row is formatted in one
    # step, by a %-template per sequence of cell types that writes floats as
    # `_fmt` does (%.17g) and every other cell as str()
    templates: dict[tuple[type, ...], str] = {}

    def line(row) -> str:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join("%.17g" if issubclass(t, float) else "%s" for t in kinds) + "\n"
        return template % row

    with path.open("w") as f:
        f.writelines(f"# {k}={v}\n" for k, v in sorted(stamp.items()))
        f.write(",".join(header) + "\n")
        f.writelines(map(line, rows))


def _write_json(path: Path, payload: dict) -> None:
    # JSON has no NaN or Infinity: a non-finite number fails the run
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# Experiment runners and their cross-key rules
# ---------------------------------------------------------------------------


def _check_interfere(p: dict) -> None:
    # counts on a field that vanishes at every grid point leave log|C| = -inf
    # everywhere: alpha_a = 0 where phi - phi' = pi, alpha_b = 0 where phi = phi'
    A, B = p["A"], p["B"]
    if A + B > 0 and p["n"] == 0:
        raise ConfigError(f"parameter n must be >= 1 when counts are recorded (A + B = {A + B}), got 0")
    if B > 0 and p["grid"] < 2:
        raise ConfigError(f"parameter grid must be >= 2 when B > 0, got {p['grid']}")
    if A > 0 and B > 0 and p["grid"] < 3:
        raise ConfigError(f"parameter grid must be >= 3 when A > 0 and B > 0, got {p['grid']}")
    # the one profile point is Delta = 0, where |sin Delta|^B vanishes: no peak to normalise by
    if B > 0 and p["profile_points"] < 2:
        raise ConfigError(f"parameter profile_points must be >= 2 when B > 0, got {p['profile_points']}")


def _run_interfere(p: dict, seed: int) -> dict[str, Any]:
    weight = conditional_weight(p["A"], p["B"], p["eps"], p["n"], grid=p["grid"])
    deltas, mag = delta_profile(weight, points=p["profile_points"])
    summary: dict[str, Any] = {
        "peaks": list(peak_locations(p["A"], p["B"])),
        "argmax_delta": float(deltas[int(np.argmax(mag))]),
        "log_peak_magnitude": weight.log_peak,
    }
    if p["A"] + p["B"] >= 16:
        fit = width_fit(weight)
        # a fit whose slope is not negative has no finite sigma, written as null
        summary["width_sigma"] = fit.sigma if math.isfinite(fit.sigma) else None
        summary["width_center"] = fit.center
        summary["width_fit_ok"] = fit.ok
    return {"results.csv": (["delta", "magnitude"], zip(deltas.tolist(), mag.tolist())), "results.json": summary}


def _run_trajectory(p: dict, seed: int) -> dict[str, Any]:
    record, traj = run_interference_trajectory(
        p["n"], p["eps_step"], p["steps"], seed, p["stop_after_detections"] or None
    )
    deltas, mag = traj.delta_profile(p["profile_points"])
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
        summary["width_sigma"] = fit.sigma if math.isfinite(fit.sigma) else None
    artifacts = {"results.csv": (["delta", "magnitude"], zip(deltas.tolist(), mag.tolist())), "results.json": summary}
    if p["fringe"]:
        check_cells(p["fringe_points"], f"fringe scan of {p['fringe_points']} points")
        gammas = 2.0 * math.pi * np.arange(p["fringe_points"]) / p["fringe_points"]
        scan = fringe_scan(traj, gammas, branch=p["fringe_branch"])
        artifacts["fringe.csv"] = (["gamma", "intensity"], zip(scan.gammas.tolist(), scan.intensity.tolist()))
        summary["visibility"] = scan.visibility
    if p["export_state"]:
        artifacts["cavity_state.json"] = to_json_dict(traj.cavity_state())
    return artifacts


def _run_laser_equivalence(p: dict, seed: int) -> dict[str, Any]:
    rep = decomposition_equivalence_check(p["nbar"], p["modes"], p["cutoff"])
    tolerance = 1e-8 + rep.tail_bound
    if rep.trace_distance > tolerance:
        raise NumericsError(
            f"decomposition equivalence violated: {rep.trace_distance:.3e} > {tolerance:.3e}"
        )
    return {"results.json": {"trace_distance": rep.trace_distance, "tail_bound": rep.tail_bound,
                             "tolerance": tolerance, "m_max": rep.m_max}}


def _check_phase_walk(p: dict) -> None:
    for lag in p["lags"]:
        if lag >= p["modes"]:
            raise ConfigError(f"each item of parameter lags must be an integer in [0, {p['modes'] - 1}], got {lag!r}")


def _run_phase_walk(p: dict, seed: int) -> dict[str, Any]:
    spec = PhaseWalkSpec(p["step_variance"], p["modes"], p["photons"], seed)
    pairs = None
    if p["lags"]:
        pairs = [(0, lag) for lag in p["lags"]] + [(0, 0)]
    res = phase_walk_correlation(spec, p["realizations"], pairs=pairs)
    prediction = {str(lag): math.exp(-p["step_variance"] * lag / 2.0) for lag in (p["lags"] or [])}
    return {
        "results.csv": (["k", "l", "re", "im", "abs", "stderr"], res.to_csv_rows()),
        "results.json": {"realizations": res.realizations, "prediction": prediction},
    }


def _run_homodyne(p: dict, seed: int) -> dict[str, Any]:
    theta = p["theta"] if p["theta"] is not None else math.acos(0.95)
    config = HomodyneConfig(p["n"], PhaseShiftProcess(p["offset"]), theta)
    check_tomography_scan(config, p["points"])  # a dark theta is refused before the grid is sized
    check_cells(p["points"], f"tomography scan of {p['points']} points")
    gammas = 2.0 * math.pi * np.arange(p["points"]) / p["points"]
    scan = process_tomography_scan(config, gammas)
    rows = zip(scan.gammas.tolist(), scan.means.tolist(), scan.variances.tolist())
    summary = {"recovered_offset": scan.recovered_offset, "injected_offset": p["offset"], "amplitude": scan.amplitude}
    return {"results.csv": (["gamma", "mean", "variance"], rows), "results.json": summary}


def _run_squeeze(p: dict, seed: int) -> dict[str, Any]:
    points = approximation_quality(p["pumps"], p["scale"], p["pair_cutoff"] or None)
    cut = required_pair_cutoff(p["scale"]) + 4
    ladder = pair_ladder(p["scale"], cut)[0]
    rows = [(pt.pump_n, pt.fidelity, pt.norm_deficit) for pt in points]
    return {
        "results.csv": (["pump_n", "fidelity", "norm_deficit"], rows),
        "results.json": {
            "fidelities": {str(pt.pump_n): pt.fidelity for pt in points},
            "idealized_schmidt": [[_fmt(c.real), _fmt(c.imag)] for c in ladder],
        },
    }


def _run_ecs_verify(p: dict, seed: int) -> dict[str, Any]:
    from .verify import check_commuting_diagram  # loaded on demand, as in cmd_verify

    result = check_commuting_diagram(p["n_max"], p["thetas"], p["phis"])
    if not result.passed:
        raise NumericsError(f"commuting diagram violated: deficit {result.measured:.3e}")
    # each (theta, phi) pair sweeps (0, 0) and (n, 0), (n, n) for n = 1..n_max
    cases = len(p["thetas"]) * len(p["phis"]) * (2 * p["n_max"] + 1)
    return {"results.json": {"cases": cases, "worst_infidelity": result.measured}}


# every rule on a single value sits in its Param; Experiment.check holds the
# rules that join two
EXPERIMENTS: dict[str, Experiment] = {
    "interfere": Experiment(
        "interfere",
        {
            "A": Param(int, low=0),
            "B": Param(int, low=0),
            "eps": Param(float, low=0.0, high=1.0, open=True),
            "n": Param(int, low=0),
            "grid": Param(int, 1024, low=1),
            "profile_points": Param(int, 1024, low=1),
        },
        _run_interfere,
        _check_interfere,
    ),
    "trajectory": Experiment(
        "trajectory",
        {
            "n": Param(int, low=0),
            "eps_step": Param(float, low=0.0, high=1.0, open=True),
            "steps": Param(int, low=0),
            "stop_after_detections": Param(int, 0, low=0),
            "profile_points": Param(int, 1024, low=1),
            "fringe": Param(bool, False),
            "fringe_points": Param(int, 64, low=1),
            "fringe_branch": Param(str, "positive", choices=FRINGE_BRANCHES),
            "export_state": Param(bool, False),
        },
        _run_trajectory,
    ),
    "laser-equivalence": Experiment(
        "laser-equivalence",
        {"nbar": Param(float, low=0.0), "modes": Param(int, low=1), "cutoff": Param(int, low=0)},
        _run_laser_equivalence,
    ),
    "phase-walk": Experiment(
        "phase-walk",
        {
            "step_variance": Param(float, low=0.0),
            "modes": Param(int, low=1),
            # with no photons g1 is 0/0: the walk has no field to correlate
            "photons": Param(int, low=1),
            "realizations": Param(int, low=1),
            "lags": Param(int, [], low=0, items=True),
        },
        _run_phase_walk,
        _check_phase_walk,
    ),
    "homodyne": Experiment(
        "homodyne",
        {
            # the offset is read off the first Fourier component of a fringe
            # of amplitude n sin 2 theta: it takes a photon and 3 grid points,
            # or it is read from aliasing; check_tomography_scan also
            # refuses a theta that leaves sin 2 theta <= 1e-12
            "n": Param(int, low=1),
            "theta": Param(float, None, low=0.0, high=math.pi / 2),
            "offset": Param(float, 0.0),
            "points": Param(int, 24, low=3),
        },
        _run_homodyne,
    ),
    "squeeze": Experiment(
        "squeeze",
        {
            # no pump compares nothing and would write a header-only table
            "pumps": Param(int, [2, 4, 8, 12], low=1, items=True, nonempty=True),
            "scale": Param(float, 0.2),
            "pair_cutoff": Param(int, 0, low=0),
        },
        _run_squeeze,
    ),
    "ecs-verify": Experiment(
        "ecs-verify",
        {
            "n_max": Param(int, 6, low=0),
            # an empty sweep compares nothing and would report a worst infidelity of 0
            "thetas": Param(
                float, [math.pi / 8, math.pi / 4, math.pi / 3], low=0.0, high=math.pi / 2, items=True, nonempty=True
            ),
            "phis": Param(float, [0.0, math.pi / 2], items=True, nonempty=True),
        },
        _run_ecs_verify,
    ),
}

# the config's own top-level values, read whether or not a flag overrides them
SETTINGS = {"seed": Param(int, 0, low=0), "output_dir": Param(str, ".")}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"it holds the non-finite number {text}")
    return value


def _within(name: str, spec: Param, value: Any) -> None:
    """Refuse `value` unless it is of `spec`'s kind and lies in its range."""
    what = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}[spec.kind]
    if spec.kind is float:
        # a double holds an integer only up to about 1.8e308
        ok = type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    else:
        ok = type(value) is spec.kind  # so true and false are never numbers
    if spec.choices:
        what, ok = f"one of {list(spec.choices)}", ok and value in spec.choices
    elif spec.kind in (int, float):
        ok = ok and (spec.low < value < spec.high if spec.open else spec.low <= value <= spec.high)
        if spec.high < math.inf:
            what += f" in {'[('[spec.open]}{spec.low:g}, {spec.high:g}{'])'[spec.open]}"
        elif spec.low > -math.inf:
            what += f" >= {spec.low:g}"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _read(name: str, spec: Param, value: Any) -> Any:
    """`value` typed and bounded as `spec` says: a float takes an integer
    (converted), an integer an integral float, and a list's items are kept
    as given. `name` leads the one-line error."""
    if value is None and spec.default is None:
        return None  # null stands for a value's default only where that default is None
    if spec.items:
        if not isinstance(value, list) or (spec.nonempty and not value):
            raise ConfigError(f"{name} must be a{' non-empty' * spec.nonempty} list, got {value!r}")
        for item in value:
            _within(f"each item of {name}", spec, item)
        return value
    if spec.kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if spec.kind is int and type(value) is float and value.is_integer():
        value = int(value)
    # a JSON number is a double, exact as an integer only up to 2^53
    if spec.kind is int and type(value) is int and abs(value) > 2**53:
        raise ConfigError(f"{name} must be an integer of magnitude at most 2^53, got {value!r}")
    _within(name, spec, value)
    return value


def load_config(path: Path, seed_override: int | None, out_override: str | None) -> tuple[Experiment, dict, int, Path]:
    try:
        raw = json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)
    except OSError as exc:  # not found, a directory, not readable
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
    except ValueError as exc:  # also not UTF-8, a non-finite number, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"experiment", "parameters", *SETTINGS}
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
    for key, spec in exp.schema.items():
        if key not in params_in and spec.default is _REQUIRED:
            raise ConfigError(f"missing required parameter {key} for {name}")
        params[key] = _read(f"parameter {key}", spec, params_in.get(key, spec.default))
    exp.check(params)
    # the config's own seed and output_dir are checked even where a flag overrides them
    seed, outdir = (_read(key, spec, raw.get(key, spec.default)) for key, spec in SETTINGS.items())
    if seed_override is not None:
        seed = _read("seed", SETTINGS["seed"], seed_override)
    outdir = Path(out_override or outdir)
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


def _write_artifacts(directory: Path, payloads: dict[str, Any], stamp: dict) -> None:
    """Write each payload as a `.csv` (header, rows) under the stamp's comment
    lines, or as a JSON dict with the stamp's keys merged over its own."""
    for name, payload in payloads.items():
        if name.endswith(".csv"):
            _write_csv(directory / name, *payload, stamp)
        else:
            _write_json(directory / name, {**payload, **stamp})


def cmd_run(args) -> int:
    exp, params, seed, outdir = load_config(Path(args.config), args.seed, args.out)
    stamp = {"config_sha256": config_hash(exp, params, seed), "seed": seed}
    # a run that fails leaves neither a new output directory nor partial files
    staging = _staging_dir(outdir)
    try:
        payloads = exp.runner(params, seed)
        artifacts = sorted(payloads)
        payloads["manifest.json"] = {
            "experiment": exp.name,
            "parameters": params,
            "rng": "numpy-pcg64",
            "package_version": __version__,
            "artifacts": artifacts,
        }
        _write_artifacts(staging, payloads, stamp)
        _publish(staging, outdir, list(payloads))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"{exp.name}: wrote {', '.join(artifacts + ['manifest.json'])} to {outdir}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    failures = sum(not r.passed for r in results)
    if args.json:
        checks = [
            {
                "name": r.name,
                # a NaN measurement fails its check and is written as null
                "measured": r.measured if math.isfinite(r.measured) else None,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "seconds": r.seconds,
            }
            for r in results
        ]
        summary = {"suite": args.suite, "passed": len(results) - failures, "total": len(results)}
        print(json.dumps({**summary, "checks": checks}, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  measured={r.measured:.3e}  tolerance={r.tolerance:.3e}")
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
    ver.add_argument("--json", action="store_true", help="print one JSON document instead of the table")
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
