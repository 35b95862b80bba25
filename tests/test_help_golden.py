"""The CLI's help text and usage errors, against text recorded from an
earlier build.

``frfselect --help``, ``frfselect <command> --help`` for every command, an
unknown command and a command without ``--config`` run in process with
``COLUMNS=80``, so argparse wraps at a fixed width. Exit code, stdout and
stderr of each are compared whole.
Re-record (only when a help change is intended) with
``python tests/test_help_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from frfselect.cli import main

GOLDEN = Path(__file__).parent / "help_golden" / "help.json"
CASES = {
    "top": ["--help"],
    **{c: [c, "--help"] for c in ("generate", "fit", "grid", "compare", "transfer")},
    "unknown_command": ["frobnicate", "--config", "run.yaml"],
    "missing_config": ["fit"],
}


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", CASES)
def test_help_matches_recorded_text(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(CASES[name]) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    recorded = {name: run_case(argv) for name, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2) + "\n")
