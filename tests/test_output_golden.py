"""Every byte the CLI writes, against SHA-256 digests recorded from an
earlier build.

``generate``, ``fit`` (with traces), a staged ``grid`` with a refine stage
and ``transfer`` run on ``output_golden/run.yaml`` from a fixed working
directory with a relative ``--out``, so no temporary path reaches the
config echo or stdout. This covers ``grid.json``, the grid tables and the
traces, which no benchmark reference hashes.

numpy's ``exp``, ``log1p`` and ``log`` round their last bits differently at
different SIMD dispatch levels, and the fit traces show it, so
``digests.json`` keeps one record per level: the highest dispatch target
numpy found on the CPU. The test checks the running level's record, and
where AVX-512 is present also the reduced level's, in a subprocess with
those targets switched off. Re-record (only when an output change is
intended) with ``python tests/test_output_golden.py``, which writes this
host's level and the reduced one.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from test_solver_differential import _dispatches_avx512, run_reduced_dispatch

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


def simd_level() -> str:
    """The highest SIMD target numpy dispatches to on this CPU, else its
    highest baseline target."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:
        return "unknown"
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return (found or list(__cpu_baseline__) or ["none"])[-1]


def level_and_digests() -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        return simd_level(), run_commands(Path(tmp))


def reduced_level_and_digests() -> tuple:
    """``level_and_digests`` in a subprocess without numpy's AVX-512 targets."""
    script = (
        "import json, sys\n"
        "from test_output_golden import level_and_digests\n"
        "json.dump(level_and_digests(), sys.stdout)\n"
    )
    return tuple(run_reduced_dispatch(script))


def recorded(level: str) -> dict:
    records = json.loads((GOLDEN / "digests.json").read_text())
    assert level in records, (
        f"no output digests recorded for numpy SIMD level {level} (recorded: "
        f"{', '.join(sorted(records))}); record them with python tests/test_output_golden.py"
    )
    return records[level]


def test_outputs_match_recorded_digests(tmp_path):
    level = simd_level()
    assert run_commands(tmp_path) == recorded(level)


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 target")
def test_outputs_match_recorded_digests_without_avx512():
    level, digests = reduced_level_and_digests()
    assert level != simd_level()
    assert digests == recorded(level)


if __name__ == "__main__":
    records = dict([level_and_digests()])
    if _dispatches_avx512():
        records.update([reduced_level_and_digests()])
    (GOLDEN / "digests.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
