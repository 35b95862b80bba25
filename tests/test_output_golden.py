"""Every byte the CLI writes, against SHA-256 digests recorded from an
earlier build.

``generate``, ``fit`` (with traces), a staged ``grid`` with a refine stage
and ``transfer`` run on ``output_golden/run.yaml`` from a fixed working
directory with a relative ``--out``, so no temporary path reaches the
config echo or stdout. This covers ``grid.json``, the grid tables and the
traces, which no benchmark reference hashes. Re-record (only when an output
change is intended) with ``python tests/test_output_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from frfselect.cli import main

GOLDEN = Path(__file__).parent / "output_golden"
COMMANDS = ("generate", "fit", "grid", "transfer")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir: Path) -> dict:
    """Digests of each command's exit code, stdout, stderr and written files."""
    shutil.copy(GOLDEN / "run.yaml", workdir / "run.yaml")
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", "run.yaml", "--out", command])
            files = {
                p.relative_to(command).as_posix(): sha(p.read_bytes())
                for p in sorted(Path(command).rglob("*"))
            }
            digests[command] = {
                "exit": code,
                "stdout": sha(out.getvalue().encode()),
                "stderr": sha(err.getvalue().encode()),
                "files": files,
            }
    finally:
        os.chdir(cwd)
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    expected = json.loads((GOLDEN / "digests.json").read_text())
    assert run_commands(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(Path(tmp))
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
