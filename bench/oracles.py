"""Output checks against closed forms that share no code with ecsim.

Each `check_*` function reads the artifacts one operation wrote and returns a
list of failures (empty when every check holds). Only numpy and the standard
library are used; the conventions are written out from the documentation of
`ecsim.coupler`, `ecsim.measurement` and `docs/trajectory_notes.md`.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(comment metadata, header, numeric rows) of an ecsim CSV artifact."""
    meta, header, rows = {}, [], []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif not header:
            header = line.split(",")
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return meta, header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(err <= limit):  # NaN fails here too
        worst = int(np.nanargmax(err - limit)) if np.any(np.isfinite(err)) else 0
        return [f"{name}: entry {worst} off by {err.flat[worst]:.3e} (limit {limit.flat[worst]:.1e})"]
    return []


def _check_manifest(out: Path, seed: int, artifacts: set[str]) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    errors = []
    if manifest.get("seed") != seed:
        errors.append(f"manifest seed {manifest.get('seed')} != {seed}")
    if set(manifest.get("artifacts", [])) != artifacts:
        errors.append(f"manifest artifacts {manifest.get('artifacts')} != {sorted(artifacts)}")
    return errors


def phase_walk_g1(step_variance: float, modes: int, realizations: int, seed: int, lags: list[int]):
    """Realization average of g1(0, l) = e^{i (W_l - W_0)} and its standard
    error, from the seeded walk alone (numpy-pcg64, one normal(0, sqrt(var),
    modes - 1) draw per realization). For an equal split of a number state each
    realization's g1 is exactly this phase factor, so no Fock synthesis is needed.
    """
    rng = np.random.default_rng(seed)
    walks = np.empty((realizations, modes))
    for r in range(realizations):
        walks[r, 0] = 0.0
        walks[r, 1:] = np.cumsum(rng.normal(0.0, math.sqrt(step_variance), modes - 1))
    table = {}
    for lag in sorted(set(lags) | {0}):
        vals = np.exp(1j * (walks[:, lag] - walks[:, 0]))
        mean = vals.mean()
        stderr = 0.0
        if realizations > 1:
            direction = mean / abs(mean) if abs(mean) > 0 else 1.0
            stderr = float(np.real(vals / direction).std(ddof=1) / math.sqrt(realizations))
        table[lag] = (mean, stderr)
    return table


def check_phase_walk(out: Path, params: dict, seed: int) -> list[str]:
    errors = _check_manifest(out, seed, {"results.csv", "results.json"})
    meta, header, rows = read_csv(out / "results.csv")
    if header != ["k", "l", "re", "im", "abs", "stderr"]:
        return errors + [f"phase-walk header {header}"]
    if meta.get("seed") != str(seed):
        errors.append(f"phase-walk CSV seed {meta.get('seed')} != {seed}")
    want = phase_walk_g1(params["step_variance"], params["modes"], params["realizations"], seed, params["lags"])
    written = {(int(k), int(l)): (re_, im, ab, se) for k, l, re_, im, ab, se in rows}
    if set(written) != {(0, lag) for lag in want}:
        return errors + [f"phase-walk wrote pairs {sorted(written)}"]
    for lag, (mean, stderr) in want.items():
        re_, im, ab, se = written[(0, lag)]
        errors += _close(f"g1(0,{lag})", [re_, im, ab], [mean.real, mean.imag, abs(mean)], 1e-12)
        errors += _close(f"stderr(0,{lag})", se, stderr, 1e-12)
    errors += _close("g1(0,0)", written[(0, 0)][:3], [1.0, 0.0, 1.0], 1e-12)
    summary = json.loads((out / "results.json").read_text())
    if summary.get("realizations") != params["realizations"]:
        errors.append(f"results.json realizations {summary.get('realizations')}")
    return errors


def check_trajectory(out: Path, params: dict, seed: int) -> list[str]:
    """Closed forms of docs/trajectory_notes.md for one trajectory run."""
    n, eps = params["n"], params["eps_step"]
    artifacts = {"results.csv", "results.json"}
    artifacts |= {"fringe.csv"} if params.get("fringe") else set()
    artifacts |= {"cavity_state.json"} if params.get("export_state") else set()
    errors = _check_manifest(out, seed, artifacts)
    summary = json.loads((out / "results.json").read_text())
    steps = summary["record"]["steps"]
    counts = np.array([s["counts"] for s in steps], dtype=int).reshape(len(steps), 2)
    A, B = (int(x) for x in counts.sum(axis=0))
    executed = len(steps)
    if summary["record"]["totals"] != [A, B]:
        errors.append(f"totals {summary['record']['totals']} != counted {[A, B]}")
    if [s["step"] for s in steps] != list(range(executed)):
        errors.append("step indices are not 0..k-1")
    if A + B > 2 * n:
        errors.append(f"A + B = {A + B} exceeds 2n = {2 * n}")
    stop = params.get("stop_after_detections", 0)
    cumulative = np.cumsum(counts.sum(axis=1))
    if stop and executed < params["steps"]:
        if not (cumulative[-1] >= stop and (executed == 1 or cumulative[-2] < stop)):
            errors.append(f"run stopped at step {executed} with {cumulative[-1]} detections")
    elif executed != params["steps"]:
        errors.append(f"{executed} steps executed, {params['steps']} requested")
    # A step probability can round to 1 + 2.2e-16 when one outcome is certain.
    probs = np.array([s["probability"] for s in steps])
    if not np.all((probs > 0.0) & (probs <= 1.0 + 1e-12)):
        errors.append("a step probability lies outside (0, 1]")
    errors += _close("remaining_radius2", summary["remaining_radius2"], n * (1.0 - eps) ** executed, 0.0, 1e-12)

    meta, header, rows = read_csv(out / "results.csv")
    points = params.get("profile_points", 1024)
    deltas = -math.pi / 2 + math.pi * (np.arange(points) + 0.5) / points
    profile = np.abs(np.cos(deltas)) ** A * np.abs(np.sin(deltas)) ** B
    if header != ["delta", "magnitude"] or rows.shape[0] != points:
        return errors + [f"profile has header {header} and {rows.shape[0]} rows"]
    errors += _close("profile delta", rows[:, 0], deltas, 1e-15)
    errors += _close("profile |w|", rows[:, 1], profile / profile.max(), 1e-12)

    if params.get("fringe"):
        _, header, rows = read_csv(out / "fringe.csv")
        fpoints = params.get("fringe_points", 64)
        gammas = 2.0 * math.pi * np.arange(fpoints) / fpoints
        errors += _close("fringe gamma", rows[:, 0], gammas, 1e-15)
        basis = np.stack([np.ones(fpoints), np.cos(gammas), np.sin(gammas)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, rows[:, 1], rcond=None)
        errors += _close("fringe sinusoid", rows[:, 1], basis @ coef, 1e-12 * np.abs(rows[:, 1]).max())

    if params.get("export_state"):
        envelope = json.loads((out / "cavity_state.json").read_text())
        values = np.array([float(x) for x in envelope["data"]])
        amps = (values[0::2] + 1j * values[1::2]).reshape(n + 1, n + 1)
        k = np.arange(n + 1)
        off_sector = (k[:, None] + k[None, :]) != 2 * n - (A + B)
        errors += _close("cavity norm", np.linalg.norm(amps), 1.0, 1e-12)
        if np.abs(amps[off_sector]).max(initial=0.0) != 0.0:
            errors.append("cavity state has amplitude outside the k + l = 2n - detected sector")
    return errors


def detector_a_probability(theta: float, gamma: float) -> float:
    """Chance that one source photon leaves at detector A.

    Written out from the Heisenberg convention of `ecsim.coupler`,
    M(theta, phi) = [[cos, e^{-i phi} sin], [-e^{i phi} sin, cos]]: the source
    coupler (theta, -pi/2), the process phase e^{i gamma} on the signal mode and
    the 50/50 coupler (pi/4, -pi/2) compose to M = M2 P M1, and p = |M_00|^2.
    """

    def coupler(t: float, phi: float) -> np.ndarray:
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s * np.exp(-1j * phi)], [-s * np.exp(1j * phi), c]])

    process = np.diag([1.0, np.exp(1j * gamma)])
    M = coupler(math.pi / 4, -math.pi / 2) @ process @ coupler(theta, -math.pi / 2)
    return float(abs(M[0, 0]) ** 2)


def check_homodyne(out: Path, params: dict, seed: int) -> list[str]:
    """Each photon leaves at A independently, so A - B has mean n(2p - 1) and
    variance 4 n p (1 - p) at every scan point."""
    n, theta, offset, points = params["n"], params["theta"], params["offset"], params["points"]
    errors = _check_manifest(out, seed, {"results.csv", "results.json"})
    _, header, rows = read_csv(out / "results.csv")
    if header != ["gamma", "mean", "variance"] or rows.shape[0] != points:
        return errors + [f"homodyne scan has header {header} and {rows.shape[0]} rows"]
    gammas = 2.0 * math.pi * np.arange(points) / points
    p = np.array([detector_a_probability(theta, offset + g) for g in gammas])
    errors += _close("scan gamma", rows[:, 0], gammas, 1e-15)
    errors += _close("difference mean", rows[:, 1], n * (2.0 * p - 1.0), 1e-11 * n)
    errors += _close("difference variance", rows[:, 2], 4.0 * n * p * (1.0 - p), 1e-11 * n)
    summary = json.loads((out / "results.json").read_text())
    wrapped = (summary["recovered_offset"] - offset + math.pi) % (2.0 * math.pi) - math.pi
    errors += _close("recovered offset mod 2pi", wrapped, 0.0, 1e-12)
    errors += _close("amplitude", summary["amplitude"], n * math.sin(2.0 * theta), 0.0, 1e-12)
    return errors


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+measured=(\S+)\s+tolerance=(\S+)$")


def check_verify(stdout: str) -> tuple[list[str], int]:
    """Every printed check reads PASS with measured <= tolerance, and the
    summary line counts them all. Returns (failures, checks completed)."""
    errors, checks = [], 0
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        if match is None:
            errors.append(f"unparsed verify line {line!r}")
            continue
        status, name, measured, tolerance = match.groups()
        checks += 1
        if status != "PASS" or not float(measured) <= float(tolerance):
            errors.append(f"{name}: {status} measured={measured} tolerance={tolerance}")
    if not lines or lines[-1] != f"{checks}/{checks} checks passed" or checks == 0:
        errors.append(f"verify summary {lines[-1] if lines else ''!r} for {checks} checks")
    return errors, checks
