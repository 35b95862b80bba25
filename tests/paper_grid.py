"""The paper grid: ``frfselect grid`` on ``demos/configs/paper.yaml`` (the
paper population and the default grid, exhaustive, ``max_iters`` 2000),
with its output files hashed against ``paper_golden/digests.json``.

Every fold subset, window and standardized copy of the search passes the
``TaskDataset`` constructor, and every fit runs the solver at paper scale,
so a change that moves one bit of any of them shows here. It takes about
two minutes, so it is not part of the test suite; CI runs it as its own job.

As in ``output_golden``, numpy's SIMD dispatch level moves the last bits of
some fits, so ``digests.json`` keeps one record per level. Run::

    PYTHONPATH=src python tests/paper_grid.py

to check the host's level: it prints one Markdown line with the wall time
and exits 1 on a mismatch. Re-record (only when an output change is
intended) with ``--record``, which writes the host's level and every level
below it that a subprocess can simulate.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from test_output_golden import simd_level, simulated_levels
from test_solver_differential import run_reduced_dispatch

from frfselect.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "demos" / "configs" / "paper.yaml"
GOLDEN = Path(__file__).resolve().parent / "paper_golden" / "digests.json"
FILES = ("grid_independent.csv", "grid_mtl.csv", "grid.json")


def level_and_digests() -> tuple:
    """The SIMD level, each output file's SHA-256 and the wall time of one
    grid run from a fresh directory with a relative ``--out``, so no
    temporary path reaches the config echo."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(CONFIG, Path(tmp) / "paper.yaml")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = main(["grid", "--config", "paper.yaml", "--out", "grid"])
                wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        if code:
            raise SystemExit(f"frfselect grid exited {code}")
        digests = {name: hashlib.sha256((Path(tmp) / "grid" / name).read_bytes()).hexdigest()
                   for name in FILES}
    return simd_level(), digests, wall


def record() -> None:
    level, digests, _ = level_and_digests()
    records = {level: digests}
    script = ("import json, sys\n"
              "from paper_grid import level_and_digests\n"
              "json.dump(level_and_digests(), sys.stdout)\n")
    for disabled in simulated_levels().values():
        level, digests, _ = run_reduced_dispatch(script, disabled, timeout=1200)
        records[level] = digests
    GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


def check() -> int:
    level, digests, wall = level_and_digests()
    want = json.loads(GOLDEN.read_text()).get(level)
    if want is None:
        verdict = f"no digests recorded for numpy SIMD level {level}"
    else:
        wrong = [name for name in FILES if digests[name] != want[name]]
        verdict = f"{', '.join(wrong)} differ" if wrong else "digests match"
    print(f"paper grid ({level}): {verdict}, wall {wall:.1f} s")
    return 0 if verdict == "digests match" else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        sys.exit(check())
