"""The package's public surface against its callers: the demos, the README
quick start and the README's list of public names."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import frfselect
from frfselect import datagen, dataio, experiment, metrics, model, solver

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def readme_section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_four_demos_exist():
    assert [p.name for p in DEMOS] == [
        "cli_pipeline.py", "shared_selection.py", "solver_path.py", "uncertainty_expansion.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_readme_quick_start_runs_cleanly(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", readme_section("Library quick start"), re.S)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "task1 mtl" in proc.stdout


def test_readme_public_api_matches_module_exports():
    listed = {}
    for line in readme_section("Public API").splitlines():
        m = re.match(r"- `frfselect\.(\w+)`: (.*)", line)
        if m:
            listed[m.group(1)] = re.findall(r"`(\w+)`", m.group(2))
    modules = (model, metrics, solver, datagen, experiment, dataio)
    assert listed == {m.__name__.split(".")[1]: list(m.__all__) for m in modules}


def test_package_exports_each_module_name_once():
    names = frfselect.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(frfselect, name)


def test_config_error_is_raised_by_the_library_and_exported_by_dataio():
    # experiment raises it for settings that do not fit the data
    assert frfselect.ConfigError is dataio.ConfigError is model.ConfigError
    assert issubclass(frfselect.ConfigError, ValueError)
    assert "ConfigError" in dataio.__all__ and "ConfigError" not in model.__all__


def test_every_public_function_has_a_caller():
    # the API is sized to what the CLI, the demos, the acceptance tests, the
    # README quick start and the benchmark use
    callers = [REPO / "src" / "frfselect" / "cli.py", *DEMOS, REPO / "tests" / "test_acceptance.py",
               *sorted((REPO / "perfbench").glob("*.py"))]
    text = "\n".join([readme_section("Library quick start"), *(p.read_text() for p in callers)])
    functions = [n for n in frfselect.__all__ if inspect.isfunction(getattr(frfselect, n))]
    assert [n for n in functions if not re.search(rf"\b{n}\b", text)] == []
