import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ecsim
from ecsim.cli import EXPERIMENTS, SETTINGS, config_hash, load_config, main


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


def valid_configs(tmp_path: Path) -> list[str]:
    """One config file per experiment, of its minimal valid parameters."""
    return [
        str(write_config(tmp_path, {"experiment": name, "parameters": params}, f"{name}.json"))
        for name, params in VALID_PARAMETERS.items()
    ]


def run_python(code: str, *args: str, env: dict | None = None, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that finds this checkout's ecsim."""
    import ecsim

    env = dict(os.environ if env is None else env)
    src = str(Path(ecsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=timeout)


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

    def test_sizing_error_exit_code(self, tmp_path, capsys):
        # one mode at 20000 photons needs 0.8e9 cells of circle tables
        cfg = write_config(
            tmp_path,
            {
                "experiment": "phase-walk",
                "parameters": {"step_variance": 0.1, "modes": 1, "photons": 20000, "realizations": 1},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    def test_run_time_failure_leaves_no_output(self, tmp_path, capsys):
        # the shell-size cap is only hit while the trajectory runs
        cfg = write_config(
            tmp_path, {"experiment": "trajectory", "parameters": {"n": 6000, "eps_step": 0.01, "steps": 1}}
        )
        out = tmp_path / "nested" / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_trajectory_numerics_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        # step probabilities 1e-7 off their binomial shell weights
        from ecsim import measurement

        good = measurement._quadform
        monkeypatch.setattr(measurement, "_quadform", lambda *args: good(*args) * (1.0 + 1e-7))
        cfg = write_config(
            tmp_path, {"experiment": "trajectory", "parameters": {"n": 20, "eps_step": 0.05, "steps": 200}}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerics error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_output_path_that_is_a_file_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": VALID_PARAMETERS["interfere"]})
        assert main(["run", "--config", str(cfg), "--out", str(cfg)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    @pytest.mark.parametrize("below", ["sub", "a/b"])
    def test_output_path_under_a_file_rejected(self, tmp_path, capsys, monkeypatch, via, below):
        # the directory could never be made: the run is refused before any
        # work, with one line naming the path, not after it with a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        outdir = str(Path("blocker", below))
        payload = {"experiment": "laser-equivalence", "parameters": VALID_PARAMETERS["laser-equivalence"]}
        if via == "output_dir":
            payload["output_dir"] = outdir
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", str(cfg), *(["--out", outdir] if via == "--out" else [])]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and outdir in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    @pytest.mark.parametrize("output_dir", [5, None, True, ["a"]], ids=["number", "null", "true", "list"])
    def test_non_string_output_dir_rejected(self, tmp_path, capsys, monkeypatch, output_dir):
        # the malformed-config table passes --out, which the config's output_dir yields to
        monkeypatch.chdir(tmp_path)
        payload = {"experiment": "interfere", "parameters": VALID_PARAMETERS["interfere"], "output_dir": output_dir}
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "output_dir" in err[0].split()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "config, key",
        [({"seed": -1}, "seed"), ({"output_dir": 5}, "output_dir"), ({"seed": -1, "output_dir": 5}, "seed")],
    )
    def test_overridden_values_still_checked(self, tmp_path, capsys, config, key):
        # --seed and --out take the place of the config's seed and output_dir,
        # which must still be valid
        payload = {"experiment": "interfere", "parameters": VALID_PARAMETERS["interfere"], **config}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0].split()
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [None, b"\xff\xfe{", b'{"experiment": "homodyne", "parameters": {"n": 1' + b"0" * 5000 + b"}}"],
        ids=["directory", "not-utf8", "past-digit-limit"],
    )
    def test_unreadable_config_rejected(self, tmp_path, capsys, text):
        # a directory, bytes that are not UTF-8, and an integer of more than
        # the 4300 digits Python parses
        cfg = tmp_path / "config.json"
        cfg.mkdir() if text is None else cfg.write_bytes(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_huge_mode_count_refused_before_its_size_is_formed(self, tmp_path):
        # the tuples of 10^15 modes (and a slack mode) holding 3 photons are
        # sized before they are listed; the run goes to a child with
        # a time limit and an address-space cap, so a run that forms the
        # number fails here instead of hanging or filling memory
        params = {"nbar": 1.0, "modes": 1e15, "cutoff": 3}
        cfg = write_config(tmp_path, {"experiment": "laser-equivalence", "parameters": params})
        out = tmp_path / "out"
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from ecsim.cli import main\n"
            "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        done = run_python(code, str(cfg), str(out), env=env, timeout=60)
        assert done.returncode == 3, done.stderr
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("sizing error: 3-photon sector of 1000000000000001 modes: over 2^")
        assert not out.exists()

    def test_null_stands_for_a_null_default_only(self, tmp_path):
        # homodyne's theta defaults to None, so null picks that default; the
        # typed parameters without one are rows of the malformed-config table
        cfg = write_config(tmp_path, {"experiment": "homodyne", "parameters": {"n": 4, "theta": None}})
        assert load_config(cfg, None, None)[1]["theta"] is None

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
            ({"experiment": "squeeze", "pumps": [2], "scale": 8, "exit": 3}, "cap"),
            # the walk's N x N g1 matrix passes 2^24 cells at 4097 modes
            ({"experiment": "phase-walk", "modes": 4097, "exit": 3}, "cap"),
            ({"experiment": "homodyne", "points": 1}, "points"),
            ({"experiment": "homodyne", "points": 2}, "points"),
            ({"experiment": "homodyne", "n": 0}, "n"),
            ({"experiment": "homodyne", "theta": 0.0}, "theta"),
            ({"experiment": "homodyne", "theta": math.pi / 2}, "theta"),
            ({"experiment": "ecs-verify", "thetas": []}, "thetas"),
            ({"experiment": "ecs-verify", "phis": []}, "phis"),
            ({"experiment": "phase-walk", "photons": 0}, "photons"),
            ({"experiment": "laser-equivalence", "modes": 3, "cutoff": 1000, "exit": 3}, "cap"),
            ({"experiment": "squeeze", "pumps": [4092], "exit": 3}, "cap"),
            ({"experiment": "ecs-verify", "n_max": 128, "exit": 3}, "cap"),
            ({"experiment": "squeeze", "pair_cutoff": 2**24, "exit": 3}, "cap"),
            ({"profile_points": 2**24 + 1, "exit": 3}, "profile"),
            ({"fringe": True, "fringe_points": 2**24 + 1, "exit": 3}, "fringe"),
            ({"experiment": "interfere", "profile_points": 2**24 + 1, "exit": 3}, "profile"),
            # the walk's phase grid is sized by its photon number, before any table
            ({"experiment": "phase-walk", "photons": 2**24, "exit": 3}, "cap"),
            ({"experiment": "homodyne", "points": 2**24 + 1, "exit": 3}, "tomography"),
            ({"experiment": "phase-walk", "lags": None}, "lags"),
            ({"experiment": "phase-walk", "modes": None}, "modes"),
            ({"experiment": "squeeze", "pumps": []}, "pumps"),
            ({"experiment": "laser-equivalence", "modes": 10**6, "cutoff": 10**6, "exit": 3}, "cap"),
            ({"experiment": "interfere", "A": 1e300}, "A"),
            ({"experiment": "interfere", "B": 10**300}, "B"),
            ({"experiment": "homodyne", "n": 2**53 + 1}, "n"),
            ({"experiment": "interfere", "A": 3, "B": 2, "eps": 0.1, "n": 5, "profile_points": 1}, "profile_points"),
            ({"steps": 1e15, "exit": 3}, "cap"),
            ({"output_dir": 5}, "output_dir"),
            ({"output_dir": None}, "output_dir"),
            ({"seed": 2.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": 2**53 + 1}, "seed"),
            ({"experiment": "interfere", "eps": 10**400}, "eps"),
            ({"experiment": "interfere", "A": 10**400}, "A"),
            ({"experiment": "ecs-verify", "phis": [10**400]}, "phis"),
            ({"experiment": "homodyne", "theta": 0.0, "points": 2**24 + 1}, "theta"),
            # an empty path, as the config's output_dir, --out or --config
            ({"output_dir": ""}, "output_dir"),
            ({"--out": ""}, "output_dir"),
            ({"--config": ""}, "''"),
            # the weight row is sized by the one rule, not by its square
            ({"experiment": "interfere", "grid": 2**24 + 1, "exit": 3}, "cap"),
        ],
    )
    def test_malformed_trajectory_rejected(self, tmp_path, capsys, monkeypatch, override, key):
        """One table of malformed configs over all experiments (trajectory
        unless the row names another): each exits 2 (or the code the row
        names) with one stderr line that names the offending key or number,
        and writes nothing, in the output directory or the working one."""
        monkeypatch.chdir(tmp_path)
        params = dict(override)
        name = params.pop("experiment", "trajectory")
        seed = params.pop("seed", 0)
        code = params.pop("exit", 2)
        # the config's own output_dir is checked though --out takes its place
        top = {"output_dir": params.pop("output_dir")} if "output_dir" in params else {}
        # a row's --config or --out value takes the place of the usual one
        flags = {"--config": str(tmp_path / "config.json"), "--out": str(tmp_path / "out")}
        flags.update((flag, params.pop(flag)) for flag in list(flags) if flag in params)
        write_config(
            tmp_path, {"experiment": name, "parameters": {**VALID_PARAMETERS[name], **params}, "seed": seed, **top}
        )
        assert main(["run", *(part for item in flags.items() for part in item)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0].replace(",", " ").split()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, problem",
        [
            ([], "no command given"),
            (["bogus"], "unknown command 'bogus'"),
            (["run"], "run needs --config"),
            (["run", "--config"], "--config needs a value"),
            (["run", "--config", "c.json", "--seed", "x"], "--seed must be an integer, got 'x'"),
            (["run", "--config", "c.json", "--seed=1.5"], "--seed must be an integer, got '1.5'"),
            (["verify", "--suite", "slow"], "--suite must be one of ['fast', 'full'], got 'slow'"),
            (["verify", "--fast"], "unknown flag '--fast'"),
            (["run", "--conf", "c.json"], "unknown flag '--conf'"),  # no abbreviations
            (["run", "--config", "c.json", "extra"], "unexpected argument 'extra'"),
            (["verify", "--json=yes"], "--json takes no value"),
        ],
    )
    def test_malformed_command_line(self, tmp_path, capsys, monkeypatch, argv, problem):
        # c.json is a valid config writing to the working directory: a
        # command line read past its fault would run and leave output there
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {"experiment": "phase-walk", "parameters": VALID_PARAMETERS["phase-walk"]}, "c.json")
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {problem}; usage: ecsim "), err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["run", "-h"], ["run", "--help"], ["verify", "-h"], ["verify", "--help"],
         ["run", "--config", "c.json", "--help"]],
    )
    def test_help(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {"experiment": "phase-walk", "parameters": VALID_PARAMETERS["phase-walk"]}, "c.json")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == ecsim.cli.__doc__ + "\n"
        assert captured.out.splitlines()[:2] == [
            "ecsim run --config FILE [--seed N] [--out DIR]",
            "ecsim verify [--suite fast|full] [--json]",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_argv_defaults_to_the_process_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ecsim", "--help"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("ecsim run --config FILE")

    def test_equals_form_and_the_last_repeated_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "phase-walk", "parameters": VALID_PARAMETERS["phase-walk"], "seed": 1})
        out = tmp_path / "out"
        assert main(["run", f"--config={cfg}", f"--out={out}", "--seed", "5", "--seed=9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        exp, params, _, _ = load_config(cfg, None, None)
        assert manifest["seed"] == 9 and manifest["config_sha256"] == config_hash(exp, params, 9)
        capsys.readouterr()
        assert main(["verify", "--suite", "full", "--json", "--suite=fast"]) == 0
        assert json.loads(capsys.readouterr().out)["suite"] == "fast"


class TestEnvironment:
    def test_package_exports_no_modules(self):
        import types

        import ecsim

        assert "ecs_to_fock" in ecsim.__all__
        assert not [name for name in ecsim.__all__ if isinstance(getattr(ecsim, name), types.ModuleType)]

    def test_version_has_one_source(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ecsim.__version__"}
        assert ecsim.__version__.count(".") == 2

    def test_threads_setting_applies_at_import(self):
        # BLAS reads its thread count when numpy loads, which `import ecsim` does
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env["ECSIM_THREADS"] = "1"
        code = "import os, ecsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = run_python(code, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_laser_equivalence_bytes_at_any_thread_count(self, tmp_path):
        # the sector check sums each block alone in a fixed order, and the
        # homodyne scan calls no BLAS routine (at n = 1000 its former sector
        # route wrote other digits under 1 and 2 threads), so neither result
        # depends on how BLAS splits work across threads
        cases = {
            "laser-equivalence": {"nbar": 2.0, "modes": 3, "cutoff": 8},
            "homodyne": {"n": 1000, "offset": 0.3},
        }
        code = (
            "import sys\n"
            "from ecsim.cli import main\n"
            "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        for name, params in cases.items():
            cfg = write_config(tmp_path, {"experiment": name, "parameters": params}, f"{name}.json")
            written = []
            for threads in ("1", "2"):
                env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
                env["ECSIM_THREADS"] = threads
                out = tmp_path / f"{name}{threads}"
                done = run_python(code, str(cfg), str(out), env=env)
                assert done.returncode == 0, done.stderr
                written.append({path.name: path.read_bytes() for path in out.iterdir()})
            assert written[0] == written[1], name

    def test_run_paths_leave_scipy_unloaded(self, tmp_path):
        # scipy serves `ecsim verify` and test oracles; start-up and every
        # experiment must not pay for its import, nor for a package-metadata
        # scan to stamp the manifest's version
        code = (
            "import json, sys\n"
            "from ecsim.cli import main\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m in ('scipy', 'importlib.metadata') or m.startswith('scipy.'))\n"
            "print(json.dumps(scipy_modules()))\n"
            "for path in sys.argv[1:]:\n"
            "    assert main(['run', '--config', path, '--out', path + '.out']) == 0, path\n"
            "print(json.dumps(scipy_modules()))\n"
        )
        configs = valid_configs(tmp_path)
        done = run_python(code, *configs)
        assert done.returncode == 0, done.stderr
        after_import, after_runs = (json.loads(line) for line in done.stdout.splitlines() if line.startswith("["))
        assert after_import == [] and after_runs == []
        assert all(Path(path + ".out", "manifest.json").is_file() for path in configs)


    def test_no_path_loads_argparse(self, tmp_path):
        # the command line is read against cli's own table: argparse, and the
        # gettext and locale lookups its messages make, would cost every
        # invocation milliseconds
        code = (
            "import json, sys\n"
            "from ecsim.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    assert main(['run', '--config', path, '--out', path + '.out']) == 0, path\n"
            "assert main(['verify', '--suite', 'fast']) == 0\n"
            "assert main(['--help']) == 0 and main(['run']) == 2\n"
            "print(json.dumps(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules)))\n"
        )
        done = run_python(code, *valid_configs(tmp_path))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_verify_leaves_scipy_unloaded(self):
        # the coupler oracle is ecsim's own Pade exponential and the
        # brute-force check reads one sector: the full suite runs on numpy
        code = (
            "import json, sys\n"
            "from ecsim.cli import main\n"
            "assert main(['verify', '--suite', 'full']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []


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
        assert manifest["package_version"] == ecsim.__version__
        assert set(manifest["artifacts"]) == {"results.csv", "results.json"}
        body = (out / "results.csv").read_text().splitlines()
        assert any(line.startswith("# config_sha256=") for line in body[:3])
        rows = [line for line in body if not line.startswith("#") and not line.startswith("delta")]
        deltas, mags = zip(*[(float(a), float(b)) for a, b in (r.split(",") for r in rows)])
        peak = abs(deltas[int(np.argmax(mags))])
        assert peak == pytest.approx(math.pi / 4, abs=math.pi / 256)
        summary = json.loads((out / "results.json").read_text())
        assert summary["width_sigma"] == pytest.approx(math.sqrt(2 / 128), rel=0.1)

    @pytest.mark.parametrize(
        "A, B, points",
        [(1, 1, 1000), (1, 1, 4096), (2, 3, 1000), (2, 3, 4096), (1, 3, 1000), (1, 3, 4096),
         (64, 64, 1024), (3, 0, 1024), (0, 3, 1024)],
    )
    def test_argmax_delta_is_the_peak_named_second(self, tmp_path, A, B, points):
        # the mirrored peaks tie on the profile grid; rounding must not pick the sign
        params = {"A": A, "B": B, "eps": 0.2, "n": max(4 * (A + B), 20), "profile_points": points}
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": params})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "results.json").read_text())
        assert abs(summary["argmax_delta"] - summary["peaks"][1]) <= math.pi / points

    @pytest.mark.filterwarnings("error")
    def test_unfitted_width_written_as_null(self, tmp_path):
        # 10^7 counts against 3 leave one point in the fit window, so no fit
        # and an infinite sigma, which JSON has no number for; no warning
        params = {"A": 10**7, "B": 3, "eps": 0.5, "n": 5}
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": params})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        def refuse(name):
            raise AssertionError(f"results.json holds {name}")

        summary = json.loads((out / "results.json").read_text(), parse_constant=refuse)
        assert summary["width_sigma"] is None and summary["width_fit_ok"] is False

    def test_non_finite_json_number_exits_4(self, tmp_path, capsys, monkeypatch):
        from ecsim import cli

        monkeypatch.setattr(cli, "peak_locations", lambda A, B: (-math.inf, math.nan))
        cfg = write_config(tmp_path, {"experiment": "interfere", "parameters": VALID_PARAMETERS["interfere"]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerics error: results.json")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, params",
        [
            *VALID_PARAMETERS.items(),
            ("trajectory", {**VALID_PARAMETERS["trajectory"], "fringe": True, "export_state": True}),
        ],
        ids=[*VALID_PARAMETERS, "trajectory-fringe-export"],
    )
    def test_every_artifact_carries_the_envelope(self, tmp_path, name, params):
        """Every CSV's comment lines and every JSON artifact hold the
        manifest's hash and seed, the manifest lists exactly the other files,
        and a rerun writes the same bytes to every file."""
        cfg = write_config(tmp_path, {"experiment": name, "parameters": params, "seed": 5})
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        stamp = {"config_sha256": manifest["config_sha256"], "seed": 5}
        assert manifest["seed"] == 5 and len(stamp["config_sha256"]) == 64
        assert manifest["artifacts"] == sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        for artifact in manifest["artifacts"]:
            text = (first / artifact).read_text()
            if artifact.endswith(".csv"):
                comments = [line[2:].split("=", 1) for line in text.splitlines() if line.startswith("#")]
                assert dict(comments) == {key: str(value) for key, value in stamp.items()}
            else:
                payload = json.loads(text)
                assert {key: payload[key] for key in stamp} == stamp
        assert {p.name: p.read_bytes() for p in second.iterdir()} == {p.name: p.read_bytes() for p in first.iterdir()}

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

    def test_laser_equivalence_of_70_modes_runs(self, tmp_path):
        # the check lists tuples by total photon number, not one dense axis per
        # mode, so 70 modes at cutoff 1 are 71 tuples
        params = {"nbar": 0.5, "modes": 70, "cutoff": 1}
        cfg = write_config(tmp_path, {"experiment": "laser-equivalence", "parameters": params})
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

    @pytest.mark.parametrize("n", [10**6, 2**53])
    def test_homodyne_source_is_bounded_by_the_schema_alone(self, tmp_path, n):
        # no array of the scan is sized by n: the largest integer the schema
        # takes runs, and each point holds the closed form of independent
        # photons, p = (1 - sin 2 theta cos(gamma + offset)) / 2 (measured
        # gaps: 3.4e-16 n in the mean and 4.7e-16 n in the variance, so the
        # bounds leave 20-fold headroom)
        theta, offset = 0.35, 0.3
        params = {"n": n, "theta": theta, "offset": offset, "points": 24}
        cfg = write_config(tmp_path, {"experiment": "homodyne", "parameters": params})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [line for line in (out / "results.csv").read_text().splitlines() if not line.startswith("#")]
        gammas, means, variances = np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T
        p = (1.0 - math.sin(2.0 * theta) * np.cos(gammas + offset)) / 2.0
        assert np.abs(means - n * (2.0 * p - 1.0)).max() <= 1e-14 * n
        assert np.abs(variances - 4.0 * n * p * (1.0 - p)).max() <= 1e-14 * n

    def test_squeeze_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"experiment": "squeeze", "parameters": {"pumps": [2, 4], "scale": 0.2}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        assert res["fidelities"]["4"] >= res["fidelities"]["2"] - 1e-12

    def test_subnormal_squeeze_scale_runs_quietly(self, tmp_path, capsys):
        # a pair ladder at |chi| = 5e-324 once divided by it through an
        # infinite reciprocal: NaN ladders, RuntimeWarnings and exit 4
        cfg = write_config(tmp_path, {"experiment": "squeeze", "parameters": {"scale": 5e-324}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        res = json.loads((out / "results.json").read_text())
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in res["fidelities"].values())
        # (-chi/|chi| tanh|chi|)^k / cosh|chi| at chi = 5e-324: 1, -chi, then underflow
        assert res["idealized_schmidt"][:3] == [["1", "0"], ["-4.9406564584124654e-324", "0"], ["0", "0"]]

    def test_subnormal_angle_runs_quietly(self, tmp_path, capsys):
        # a coherent amplitude of modulus 5e-324 once divided by it through an
        # infinite reciprocal: NaN amplitudes, RuntimeWarnings and exit 4
        cfg = write_config(tmp_path, {"experiment": "ecs-verify", "parameters": {"n_max": 1, "thetas": [5e-324]}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "results.json").read_text())["worst_infidelity"] == 0.0

    def test_negative_zero_step_variance_runs_as_zero(self, tmp_path):
        # sqrt(-0.0) is -0.0, which numpy once refused as the walk's scale
        rows = []
        for variance in (-0.0, 0.0):
            params = {**VALID_PARAMETERS["phase-walk"], "step_variance": variance}
            cfg = write_config(tmp_path, {"experiment": "phase-walk", "parameters": params})
            out = tmp_path / f"out{variance}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            rows.append([line for line in (out / "results.csv").read_text().splitlines() if not line.startswith("#")])
        assert rows[0] == rows[1]

    def test_squeeze_pair_cutoff_past_pump(self, tmp_path):
        # the pump circle is sized by max(n, pair cutoff), so a pair cutoff far
        # past every pump runs and only adds Schmidt rungs below 1e-8 in weight
        fidelities = []
        for pair_cutoff in (0, 300):
            params = {"pumps": [2, 12, 1000], "scale": 0.2, "pair_cutoff": pair_cutoff}
            cfg = write_config(tmp_path, {"experiment": "squeeze", "parameters": params})
            out = tmp_path / f"out{pair_cutoff}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            fidelities.append(json.loads((out / "results.json").read_text())["fidelities"])
        assert all(abs(fidelities[1][n] - fidelities[0][n]) <= 1e-10 for n in ("2", "12", "1000"))

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

    def test_json_document(self, capsys):
        assert main(["verify", "--suite", "fast"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["verify", "--suite", "fast", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["suite"], doc["passed"], doc["total"]) == ("fast", len(table) - 1, len(table) - 1)
        assert [c["name"] for c in doc["checks"]] == [line.split()[1] for line in table[:-1]]
        for check in doc["checks"]:
            assert sorted(check) == ["measured", "name", "passed", "seconds", "tolerance"]
            assert check["passed"] and check["measured"] <= check["tolerance"] and check["seconds"] > 0.0

    def test_full_suite_passes(self, capsys):
        # the full suite is what the verify-full benchmark counts: every check,
        # in order, with its tolerance; the decomposition tolerances are
        # 1e-8 plus the Poisson tail bound of their configuration
        expected = [
            ("twirl-idempotent", 1e-12),
            ("twirl-invariance", 1e-12),
            ("laser-dual-form", 1e-12),
            ("phase-shift-covariance", 1e-12),
            ("coupler-oracle-N20", 1e-10),
            ("hong-ou-mandel-null", 1e-12),
            ("commuting-diagram-n4", 1e-10),
            ("quadrature-grid-invariance", 1e-12),
            ("decomposition-nbar1.0-N2", 1.0063622551671472e-08),
            ("squeezing-fidelity-monotone", 1e-12),
            ("coupler-oracle-N60", 1e-10),
            ("commuting-diagram-n8", 1e-10),
            ("decomposition-nbar2.0-N3", 1.3871233444918687e-08),
            ("trajectory-brute-force-n4", 1e-08),
        ]
        assert main(["verify", "--suite", "full", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["suite"], doc["passed"], doc["total"]) == ("full", 14, 14)
        assert [c["name"] for c in doc["checks"]] == [name for name, _ in expected]
        for check, (_, tolerance) in zip(doc["checks"], expected):
            assert check["tolerance"] == pytest.approx(tolerance, rel=1e-12, abs=0.0)
            assert check["passed"] and check["measured"] <= check["tolerance"]

    def test_json_document_reports_failure(self, monkeypatch, capsys):
        import ecsim.coupler as coupler_mod

        coupler_mod.sector_spectrum.cache_clear()
        good = coupler_mod.sector_spectrum
        inverse = lambda N: coupler_mod.SectorSpectrum(-good(N).eigenvalues, good(N).eigenvectors)
        monkeypatch.setattr(coupler_mod, "sector_spectrum", inverse)
        assert main(["verify", "--suite", "fast", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed and doc["passed"] == doc["total"] - len(failed)
        assert all(c["measured"] > c["tolerance"] for c in doc["checks"] if c["name"] in failed)

    @pytest.mark.parametrize("target", ["heisenberg_matrix", "sector_spectrum"])
    def test_corrupted_coupler_detected(self, monkeypatch, capsys, target):
        # mutation canaries: flip the sign structure of the mode-mixing matrix,
        # or negate every sector's eigenvalues, which makes each coupler the
        # inverse rotation U(-theta) (still unitary) on every route
        import ecsim.coupler as coupler_mod

        coupler_mod.sector_spectrum.cache_clear()
        good = getattr(coupler_mod, target)

        def corrupted_mixing(params):
            m = np.array(good(params))
            m[0, 1] = -m[0, 1]
            return m

        def corrupted_spectrum(N):
            spectrum = good(N)
            return coupler_mod.SectorSpectrum(-spectrum.eigenvalues, spectrum.eigenvectors)

        corrupted = {"heisenberg_matrix": corrupted_mixing, "sector_spectrum": corrupted_spectrum}
        monkeypatch.setattr(coupler_mod, target, corrupted[target])
        assert main(["verify", "--suite", "fast"]) == 1
        failed = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        # the commuting diagram compares on the coupled sector alone, and
        # still catches both
        assert "commuting-diagram-n4" in failed


def test_csv_templates_match_cell_by_cell_formatting(tmp_path):
    # every row through one %-template per sequence of cell types must give
    # the text of formatting each cell alone: floats (numpy's float64 too)
    # as `_fmt`, everything else as str(), also where the types change
    # from row to row
    from ecsim.cli import _write_csv
    from ecsim.fock import _fmt

    rows = [
        (0, 1, 0.1, np.float64(-0.0), math.inf, -math.nan),
        (2**70, True, None, "a%sb", np.float32(0.1), 1e-310),
        (1.0, 2, 3.5, "x", np.int64(-4), np.float64(1e16)),
        [np.pi, 7],
    ]
    _write_csv(tmp_path / "t.csv", ["a", "b"], iter(rows), {"seed": 1})
    expected = "".join(
        ",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n" for row in rows
    )
    assert (tmp_path / "t.csv").read_text() == "# seed=1\na,b\n" + expected


# the run contract's fuzzer: one-key substitutions over every schema key,
# from a fixed pool, the pool's values as one-item lists, -0.0, and each
# finite bound of the key's Param with its neighbours inside and outside.
# The pool holds no valid size that takes seconds (pumps [4091] takes 14 s;
# a homodyne run takes milliseconds at any n, 2^53 included), so Tier-1 pays
# about 4 s for the fuzzer
FUZZ_POOL = [
    0, 1, -1, 2, 0.5, -0.5, 1e-300, 5e-324, -5e-324, 1e300, -1e300, 1e15, 2**53, 2**53 + 1, 10**400,
    1 - 1e-16, 1 + 2**-52, math.pi / 2, "a string", "", [], [1, 2], {}, {"a": 1}, None, True, False,
]
# the experiments' fuzz base: the fringe scan and state export of a trajectory run too
FUZZ_BASE = {**VALID_PARAMETERS, "trajectory": {**VALID_PARAMETERS["trajectory"], "fringe": True, "export_state": True}}


def boundary_values(spec) -> list:
    """Each finite bound of `spec`, one step inside and one step outside it
    (one ulp for a float, 1 for an integer), and its choices."""
    values = list(spec.choices)
    for bound, inward in ((spec.low, 1), (spec.high, -1)):
        if math.isfinite(bound):
            if spec.kind is int:
                values += [bound, bound + inward, bound - inward]
            else:
                values += [bound, math.nextafter(bound, inward * math.inf), math.nextafter(bound, -inward * math.inf)]
    return values


def candidates(spec) -> list:
    """The pool, the pool's values as one-item lists, -0.0 and the boundary
    values (as one-item lists for a list parameter)."""
    bounds = boundary_values(spec)
    values = [*FUZZ_POOL, *([v] for v in FUZZ_POOL), -0.0, *(([v] for v in bounds) if spec.items else bounds)]
    # one case per JSON text: 1 and 1.0 stay apart, a bound that is also a pool value does not
    return list({json.dumps(v): v for v in values}.values())


def fuzz_cases(pairs: int, seed: int) -> list[tuple[str, dict]]:
    """Every one-key substitution of every experiment's schema and settings
    key, then `pairs` two-key substitutions drawn by a seeded generator."""
    cases = []
    for name, exp in EXPERIMENTS.items():
        for key, spec in [*exp.schema.items(), *SETTINGS.items()]:
            cases += [(name, {key: v}) for v in candidates(spec)]
    rng = np.random.default_rng(seed)
    names = list(EXPERIMENTS)
    for _ in range(pairs):
        name = names[rng.integers(len(names))]
        schema = EXPERIMENTS[name].schema
        keys = [list(schema)[i] for i in rng.choice(len(schema), 2, replace=False)]
        substitution = {}
        for key in keys:
            # the boundary values, where they exist, meet the rules that join two keys
            values = boundary_values(schema[key]) or candidates(schema[key])
            substitution[key] = values[rng.integers(len(values))]
        cases.append((name, substitution))
    return cases


def fuzz_run(tmp_path: Path, capsys, name: str, substitution: dict) -> str | None:
    """Run the experiment's fuzz base with `substitution` through `main` and
    return how the run breaks the run contract, or None."""
    payload = {"experiment": name, "parameters": dict(FUZZ_BASE[name])}
    for key, value in substitution.items():
        (payload if key in SETTINGS else payload["parameters"])[key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        except Exception as exc:
            return f"raised {exc!r}"
    err = capsys.readouterr().err.strip().splitlines()
    if caught:
        return f"warned {caught[0].message!r}"
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if code != 0:
        return None if len(err) == 1 and not out.exists() else f"exit {code} with {len(err)} lines, output {out.exists()}"
    if err:
        return f"exit 0 with stderr {err[0]!r}"
    for artifact in out.iterdir():
        text = artifact.read_text()
        if artifact.suffix == ".json":
            non_finite = []
            json.loads(text, parse_constant=non_finite.append)
        else:
            cells = (c for line in text.splitlines() if not line.startswith("#") for c in line.split(","))
            non_finite = [c for c in cells if c.lstrip("+-") in ("nan", "inf")]
        if non_finite:
            return f"{artifact.name} holds {non_finite[0]}"
    shutil.rmtree(out)
    return None


def test_fuzzed_configs_keep_the_run_contract(tmp_path, capsys):
    """Every substitution exits 0, 2, 3 or 4 without a warning; a failure
    writes one stderr line and no output directory, and a success writes
    nothing to stderr and no NaN or Infinity token."""
    cases = fuzz_cases(pairs=200, seed=12)
    broken = [
        f"{name} {substitution!r}: {why}"
        for name, substitution in cases
        if (why := fuzz_run(tmp_path, capsys, name, substitution)) is not None
    ]
    assert not broken, f"{len(broken)} of {len(cases)} substitutions break the run contract: {broken[:10]}"
