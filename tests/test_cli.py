import json
import math
from pathlib import Path

import numpy as np
import pytest

from ecsim.cli import main


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


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
        ],
    )
    def test_malformed_trajectory_rejected(self, tmp_path, capsys, override, key):
        params = {"n": 4, "eps_step": 0.2, "steps": 3, **override}
        cfg = write_config(tmp_path, {"experiment": "trajectory", "parameters": params})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"parameter {key} " in err[0]
        assert not out.exists()


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

    def test_corrupted_coupler_detected(self, monkeypatch, capsys):
        # mutation canary: flip the sign structure of the mode-mixing matrix
        import ecsim.coupler as coupler_mod

        good = coupler_mod.heisenberg_matrix

        def corrupted(params):
            m = np.array(good(params))
            m[0, 1] = -m[0, 1]
            return m

        monkeypatch.setattr(coupler_mod, "heisenberg_matrix", corrupted)
        assert main(["verify", "--suite", "fast"]) == 1
        assert "FAIL" in capsys.readouterr().out
