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
numpy found on the CPU. A level below the host's is simulated in a
subprocess with the dispatch targets above it switched off. The test checks
the running level's record, and the record of every level it can simulate.
Re-record (only when an output change is intended) with ``python
tests/test_output_golden.py``, which writes the host's level and every level
below it that it can simulate.
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
from test_solver_differential import REDUCED_DISPATCH, _dispatches_avx512, run_reduced_dispatch

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


def _cpu_targets() -> tuple:
    """numpy's baseline targets and the dispatch targets found on this CPU,
    lowest first; both empty where numpy does not say."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:
        return [], []
    return list(__cpu_baseline__), [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def simd_level() -> str:
    """The highest SIMD target numpy dispatches to on this CPU, else its
    highest baseline target."""
    baseline, found = _cpu_targets()
    return (found or baseline or ["unknown"])[-1]


def simulated_levels() -> dict:
    """Each level below this host's that a subprocess can simulate, with the
    dispatch targets it switches off: every found target above the level."""
    baseline, found = _cpu_targets()
    below = {level: found[k + 1:] for k, level in enumerate(found[:-1])}
    if found and baseline:
        below = {baseline[-1]: found, **below}
    return {level: " ".join(off) for level, off in below.items()}


def level_and_digests() -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        return simd_level(), run_commands(Path(tmp))


def simulated_level_and_digests(disabled: str = REDUCED_DISPATCH) -> tuple:
    """``level_and_digests`` in a subprocess without the dispatch targets
    ``disabled`` (by default the AVX-512 ones)."""
    script = (
        "import json, sys\n"
        "from test_output_golden import level_and_digests\n"
        "json.dump(level_and_digests(), sys.stdout)\n"
    )
    return tuple(run_reduced_dispatch(script, disabled))


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
    level, digests = simulated_level_and_digests()
    assert level != simd_level()
    assert digests == recorded(level)


@pytest.mark.parametrize("level", ["X86_V2", "X86_V4", "AVX512_ICL"])
def test_outputs_match_recorded_digests_at_simulated_levels(level):
    """The other levels a host can run at; X86_V4 and AVX512_ICL are common
    on CI hosts. X86_V3 is the test above."""
    if level not in simulated_levels():
        pytest.skip(f"numpy cannot simulate {level} on this host")
    got, digests = simulated_level_and_digests(simulated_levels()[level])
    assert got == level
    assert digests == recorded(level)


if __name__ == "__main__":
    records = dict([level_and_digests()])
    records.update(simulated_level_and_digests(off) for off in simulated_levels().values())
    (GOLDEN / "digests.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
