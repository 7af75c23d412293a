"""The prose names only code that exists: every backticked `module.name` in
README.md and docs/*.md, with or without the `ecsim.` prefix, resolves to an
attribute of that ecsim module."""

import importlib
import pkgutil
import re
from pathlib import Path

import ecsim

ROOT = Path(__file__).parents[1]
MODULES = {info.name for info in pkgutil.iter_modules(ecsim.__path__)}
# the dotted head of a backticked span: `fock.check_cells`, `ecsim.fock.dumps`,
# `coupler.sector_spectrum(N)` -> ("fock", ".check_cells"), ...
DOTTED = re.compile(r"`(?:ecsim\.)?(\w+)((?:\.\w+)+)[^`\n]*`")


def documented_names() -> list[tuple[str, str, str]]:
    """(file, module, attribute path) for every span whose head is an ecsim module."""
    names = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for module, attrs in DOTTED.findall(path.read_text()):
            if module in MODULES:
                names.append((path.name, module, attrs[1:]))
    return names


def resolves(module: str, attrs: str) -> bool:
    obj = importlib.import_module(f"ecsim.{module}")
    for attr in attrs.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_documented_names_exist():
    names = documented_names()
    assert ("README.md", "fock", "check_cells") in names
    missing = [f"{file}: {module}.{attrs}" for file, module, attrs in names if not resolves(module, attrs)]
    assert not missing, f"documented names that do not exist: {missing}"


def test_experiment_table_names_schema_keys():
    # each row of README's experiment table: | `name` | what | `key`, `key` |
    from ecsim.cli import EXPERIMENTS

    rows = re.findall(r"^\| `([\w-]+)` +\|.*\|(.*)\|$", (ROOT / "README.md").read_text(), re.MULTILINE)
    assert sorted(name for name, _ in rows) == sorted(EXPERIMENTS)
    unknown = [f"{name}: {key}" for name, keys in rows for key in re.findall(r"`(\w+)`", keys)
               if key not in EXPERIMENTS[name].schema]
    assert not unknown, f"README's experiment table names keys no schema holds: {unknown}"


def test_example_config_loads(tmp_path):
    from ecsim.cli import load_config

    example = re.search(r"A config file looks like:\n\n```json\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    path = tmp_path / "experiment.json"
    path.write_text(example.group(1))
    exp, params, seed, outdir = load_config(path, None, None)
    assert exp.name == "trajectory" and params["fringe"] is True and seed == 7 and outdir.name == "demo"
