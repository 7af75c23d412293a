import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecsim.cli import main


# a minimal valid parameter set per experiment, for the malformed-config table
VALID_PARAMETERS = {
    "interfere": {"A": 1, "B": 1, "eps": 0.2, "n": 4},
    "trajectory": {"n": 4, "eps_step": 0.2, "steps": 3},
    "phase-walk": {"step_variance": 0.2, "modes": 4, "photons": 1, "realizations": 2},
    "laser-equivalence": {"nbar": 1.0, "modes": 2, "cutoff": 6},
    "homodyne": {"n": 4},
    "squeeze": {},
    "ecs-verify": {"n_max": 1},
}

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that finds this checkout's ecsim."""
    import ecsim

    env = dict(os.environ if env is None else env)
    src = str(Path(ecsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "warp-drive", "parameters": {}})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_parameter_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"experiment": "interfere", "parameters": {"A": 1, "B": 1, "eps": 0.2, "n": 4, "bogus": 1}},
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": {"A": 1}})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "B" in err

    def test_empty_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_sizing_error_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "phase-walk",
                "parameters": {"step_variance": 0.1, "modes": 20, "photons": 6, "realizations": 1},
            },
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_run_time_failure_leaves_no_output(self, tmp_path, capsys):
        # the shell-size cap is only hit while the trajectory runs
        cfg = write_config(
            tmp_path, {"experiment": "trajectory", "parameters": {"n": 6000, "eps_step": 0.01, "steps": 1}}
        )
        out = tmp_path / "nested" / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_output_path_that_is_a_file_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": VALID_PARAMETERS["interfere"]})
        assert main(["run", "--config", str(cfg), "--out", str(cfg)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"profile_points": 0}, "profile_points"),
            ({"fringe": True, "fringe_points": 0}, "fringe_points"),
            ({"stop_after_detections": -1}, "stop_after_detections"),
            ({"fringe": True, "fringe_branch": "negative"}, "fringe_branch"),
            ({"n": -1}, "n"),
            ({"steps": -1}, "steps"),
            ({"eps_step": 1.0}, "eps_step"),
            ({"experiment": "phase-walk", "lags": ["a"]}, "lags"),
            ({"experiment": "phase-walk", "lags": [4]}, "lags"),
            ({"experiment": "phase-walk", "step_variance": math.nan}, "NaN"),
            ({"experiment": "laser-equivalence", "nbar": math.inf}, "Infinity"),
            ({"experiment": "homodyne", "points": 0}, "points"),
            ({"experiment": "homodyne", "theta": 2.0}, "theta"),
            ({"experiment": "squeeze", "pumps": [0]}, "pumps"),
            ({"experiment": "ecs-verify", "thetas": [2.0]}, "thetas"),
            ({"experiment": "interfere", "profile_points": 0}, "profile_points"),
            ({"seed": -1}, "seed"),
            ({"experiment": "interfere", "n": 0, "A": 3, "B": 0}, "n"),
            ({"experiment": "interfere", "grid": 1, "A": 0, "B": 2}, "grid"),
            ({"experiment": "interfere", "grid": 2, "A": 1, "B": 1}, "grid"),
            ({"experiment": "squeeze", "pumps": [2], "scale": 20, "exit": 3}, "cutoff"),
            ({"experiment": "squeeze", "pumps": [], "scale": 5, "exit": 3}, "cap"),
        ],
    )
    def test_malformed_trajectory_rejected(self, tmp_path, capsys, override, key):
        """One table of malformed configs over all experiments (trajectory
        unless the row names another): each exits 2 (or the code the row
        names) with one stderr line that names the offending key or number,
        and leaves no output directory."""
        params = dict(override)
        name = params.pop("experiment", "trajectory")
        seed = params.pop("seed", 0)
        code = params.pop("exit", 2)
        cfg = write_config(
            tmp_path, {"experiment": name, "parameters": {**VALID_PARAMETERS[name], **params}, "seed": seed}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0].replace(",", " ").split()
        assert not out.exists()


class TestEnvironment:
    def test_package_exports_no_modules(self):
        import types

        import ecsim

        assert "ecs_to_fock" in ecsim.__all__
        assert not [name for name in ecsim.__all__ if isinstance(getattr(ecsim, name), types.ModuleType)]

    def test_threads_setting_applies_at_import(self):
        # BLAS reads its thread count when numpy loads, which `import ecsim` does
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env["ECSIM_THREADS"] = "1"
        code = "import os, ecsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = run_python(code, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_run_paths_leave_scipy_unloaded(self, tmp_path):
        # scipy serves `ecsim verify`, the squeeze experiment and test oracles;
        # start-up and every other experiment must not pay for its import
        code = (
            "import json, sys\n"
            "from ecsim.cli import main\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps(scipy_modules()))\n"
            "for path in sys.argv[1:]:\n"
            "    assert main(['run', '--config', path, '--out', path + '.out']) == 0, path\n"
            "print(json.dumps(scipy_modules()))\n"
        )
        names = ["interfere", "trajectory", "phase-walk", "homodyne", "laser-equivalence", "ecs-verify"]
        configs = [
            str(write_config(tmp_path, {"experiment": name, "parameters": VALID_PARAMETERS[name]}, f"{name}.json"))
            for name in names
        ]
        done = run_python(code, *configs)
        assert done.returncode == 0, done.stderr
        after_import, after_runs = (json.loads(line) for line in done.stdout.splitlines() if line.startswith("["))
        assert after_import == [] and after_runs == []
        assert all(Path(path + ".out", "manifest.json").is_file() for path in configs)


class TestRunArtifacts:
    def test_interfere_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "interfere",
                "parameters": {"A": 64, "B": 64, "eps": 0.2, "n": 400, "grid": 256},
                "seed": 7,
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "interfere"
        assert set(manifest["artifacts"]) == {"results.csv", "results.json"}
        body = (out / "results.csv").read_text().splitlines()
        assert any(line.startswith("# config_sha256=") for line in body[:3])
        rows = [line for line in body if not line.startswith("#") and not line.startswith("delta")]
        deltas, mags = zip(*[(float(a), float(b)) for a, b in (r.split(",") for r in rows)])
        peak = abs(deltas[int(np.argmax(mags))])
        assert peak == pytest.approx(math.pi / 4, abs=math.pi / 256)
        summary = json.loads((out / "results.json").read_text())
        assert summary["width_sigma"] == pytest.approx(math.sqrt(2 / 128), rel=0.1)

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "trajectory",
                "parameters": {"n": 6, "eps_step": 0.1, "steps": 25},
                "seed": 11,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
        # a rerun into an existing directory replaces its files with the same bytes
        (out1 / "notes.txt").write_text("kept")
        first = {p.name: p.read_bytes() for p in out1.iterdir()}
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert {p.name: p.read_bytes() for p in out1.iterdir()} == first

    def test_seed_override_changes_record(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "trajectory",
                "parameters": {"n": 6, "eps_step": 0.1, "steps": 25},
                "seed": 11,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "12"])
        r1 = json.loads((out1 / "results.json").read_text())
        r2 = json.loads((out2 / "results.json").read_text())
        assert r1["record"]["seed"] != r2["record"]["seed"]

    def test_laser_equivalence_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "laser-equivalence",
                "parameters": {"nbar": 1.0, "modes": 2, "cutoff": 10},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert res["trace_distance"] <= res["tolerance"]

    def test_homodyne_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"experiment": "homodyne", "parameters": {"n": 4, "offset": 0.3, "points": 12}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert abs(res["recovered_offset"] - 0.3) <= 0.02

    def test_squeeze_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"experiment": "squeeze", "parameters": {"pumps": [2, 4], "scale": 0.2}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert res["fidelities"]["4"] >= res["fidelities"]["2"] - 1e-12

    def test_ecs_verify_run(self, tmp_path):
        cfg = write_config(
            tmp_path, {"experiment": "ecs-verify", "parameters": {"n_max": 3}}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert res["worst_infidelity"] <= 1e-10

    def test_trajectory_state_export_roundtrips(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "trajectory",
                "parameters": {"n": 4, "eps_step": 0.2, "steps": 8, "export_state": True},
                "seed": 3,
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        import ecsim.fock as fock

        payload = json.loads((out / "cavity_state.json").read_text())
        state = fock.from_json_dict(payload)
        assert state.shape.mode_count == 2
        assert state.norm2 == pytest.approx(1.0, abs=1e-9)

    def test_phase_walk_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "phase-walk",
                "parameters": {
                    "step_variance": 0.2,
                    "modes": 4,
                    "photons": 1,
                    "realizations": 25,
                    "lags": [3],
                },
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert "3" in res["prediction"]


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--suite", "fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("target", ["heisenberg_matrix", "_coupler_block_cached"])
    def test_corrupted_coupler_detected(self, monkeypatch, capsys, target):
        # mutation canaries: flip the sign structure of the mode-mixing matrix,
        # or make every sector block the inverse rotation (still unitary)
        import ecsim.coupler as coupler_mod

        good = getattr(coupler_mod, target)

        def corrupted_mixing(params):
            m = np.array(good(params))
            m[0, 1] = -m[0, 1]
            return m

        def corrupted_block(theta, phi, N):
            return good(-theta, phi, N)

        corrupted = {"heisenberg_matrix": corrupted_mixing, "_coupler_block_cached": corrupted_block}
        monkeypatch.setattr(coupler_mod, target, corrupted[target])
        assert main(["verify", "--suite", "fast"]) == 1
        assert "FAIL" in capsys.readouterr().out
