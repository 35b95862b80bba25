"""The three benchmark workloads.

Each workload turns a case number into inputs (``setup``), runs one closed-loop
operation on them (``op``) and reduces what the program returned to a plain,
JSON-ready summary (``summarize``) that ``reference.py`` compares against the
recorded reference. The program only ever sees the generated inputs.

Every path below is capped by ``max_iters`` (or runs a fixed grid), so the
amount of solver work per operation is nearly the same for every case; that
keeps ``wall_ref_s`` comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from frfselect import cli as fcli
from frfselect import datagen as fdatagen
from frfselect import experiment as fexperiment
from frfselect import solver as fsolver
from frfselect.datagen import ModalMode, SpectrumLine, SyntheticPopulationSpec

ROOT = Path(__file__).resolve().parent.parent

# The seed picks one of N_CASES recorded cases (seed % N_CASES); every case
# has its own reference outputs under reference/.
N_CASES = 16

# Modal structure shared by all workloads (the roadmap's baseline population).
_MODES = (ModalMode(40.0, 0.04), ModalMode(90.0, 0.03))
_SHIFT = (4.0, -5.0)
_NUISANCE = (130.0, 190.0)
_NOISE = 0.3


def _spec(case: int, n_samples: int, n_tasks: int, n_features: int, n_test: int = 0):
    return SyntheticPopulationSpec(
        modes=_MODES, class_shift=_SHIFT, nuisance_band=_NUISANCE, noise_sd=_NOISE,
        n_samples=n_samples, seed=case, n_test=n_test, n_tasks=n_tasks,
        n_features=n_features,
    )


# --------------------------------------------------------------------------
# fit-path: long regularisation paths on one 98-line window of 588 lines.

FIT_PATH_WINDOW = (0, 98)
# (label, number of tasks, epsilon, xi, max_iters)
FIT_PATH_FITS = (
    ("independent", 1, 0.02, 0.001, 600),
    ("joint", 3, 0.1, 0.001, 300),
)


def fit_path_setup(case: int, workdir: Path):
    pop = fdatagen.synth_population(_spec(case, 150, 3, 588))
    start, stop = FIT_PATH_WINDOW
    return [t.window(start, stop) for t in pop.tasks]


def fit_path_op(tasks):
    return [
        fsolver.fit(tasks[:n_tasks], fsolver.SolverConfig(eps, xi, max_iters=max_iters))
        for _, n_tasks, eps, xi, max_iters in FIT_PATH_FITS
    ]


def summarize_fit(result, epsilon: float) -> dict:
    """Step codes, termination, support (as lattice counts) and every loss."""
    counts = np.rint(result.weights.values / epsilon).astype(np.int64)
    support = [[int(j), int(l), int(counts[j, l])] for j, l in zip(*np.nonzero(counts))]
    return {
        "steps": [step_code(s.kind, s.feature, s.task, s.sign) for s in result.trace.steps],
        "terminated_by": result.trace.terminated_by,
        "support": support,
        "losses": [
            [s.empirical_loss_after, s.penalty_after, s.total_loss_after, s.lambda_after]
            for s in result.trace.steps
        ],
    }


def step_code(kind: str, feature: int, task: int, sign: int) -> str:
    return f"{'b' if kind == 'backward' else 'f'}{feature}.{task}{'+' if sign > 0 else '-'}"


def fit_path_summarize(results, inputs) -> dict:
    return {
        label: summarize_fit(res, eps)
        for (label, _, eps, _, _), res in zip(FIT_PATH_FITS, results)
    }


# --------------------------------------------------------------------------
# grid-cv: cross-validated grid search in both modes, many short fits.

GRID_MAX_ITERS = 40
GRID_MODES = ("independent", "mtl")


def grid_cv_setup(case: int, workdir: Path):
    pop = fdatagen.synth_population(_spec(case, 30, 2, 196))
    grid = fexperiment.GridSpec(
        epsilons=(1.0, 0.3), xis=(0.1, 0.01), window_counts=(2, 4), folds=3, seed=case,
    )
    return pop.tasks, grid


def grid_cv_op(inputs):
    tasks, grid = inputs
    return [
        fexperiment.grid_search(tasks, grid, mode, max_iters=GRID_MAX_ITERS)
        for mode in GRID_MODES
    ]


def _grid_row(r) -> list:
    return [r.stage, r.epsilon, r.xi, r.n_windows, r.mean_f1, r.mean_gini]


def grid_cv_summarize(results, inputs) -> dict:
    return {
        mode: {"best": _grid_row(res.best), "table": [_grid_row(r) for r in res.table]}
        for mode, res in zip(GRID_MODES, results)
    }


# --------------------------------------------------------------------------
# cli-pipeline: the CLI on files. `generate` writes the datasets, then `fit`,
# `compare` and `transfer` read them back, expand two measured spectra by
# Monte-Carlo and fit with cheap solver settings.

_CLI_SOLVER = "{epsilon: 1.0, xi: 0.1, max_iters: 10}"
_CLI_SYNTH = (
    "{modes: [{natural_freq: 40.0, damping: 0.04}, {natural_freq: 90.0, damping: 0.03}], "
    "class_shift: [4.0, -5.0], nuisance_band: [130.0, 190.0], noise_sd: 0.3, "
    "n_samples: 60, n_test: 30, n_tasks: 2, n_features: 588}"
)
CLI_COMMANDS = (
    ("generate", "gen.yaml", "data"),
    ("fit", "run.yaml", "out/fit"),
    ("compare", "run.yaml", "out/compare"),
    ("transfer", "run.yaml", "out/transfer"),
)


def cli_pipeline_setup(case: int, workdir: Path):
    """Write both configs and the two measured spectra of the file pipeline."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "gen.yaml").write_text(
        f"seed: {case}\nsolver: {_CLI_SOLVER}\nn_windows: 6\nmodes: [independent, mtl]\n"
        f"synthetic: {_CLI_SYNTH}\ntransfer: {{extra_synthetic_task: true}}\n"
    )
    (workdir / "run.yaml").write_text(
        f"seed: {case}\nsolver: {_CLI_SOLVER}\nn_windows: 6\nmodes: [independent, mtl]\n"
        "sampling: {mode: two-stage, n_intermediate: 10000}\n"
        "tasks:\n"
        "  - {id: task1, train: data/task1_train.csv, test: data/task1_test.csv}\n"
        "  - {id: task2, train: data/task2_train.csv, test: data/task2_test.csv}\n"
        "spectra:\n"
        "  - {id: measured, class0: spectra/class0.csv, class1: spectra/class1.csv,"
        " n_train_per_class: 60, n_test_per_class: 30}\n"
        "transfer: {unseen: data/task3_unseen.csv}\n"
    )
    # A measured structure: one more synthetic population, rendered as the
    # two averaged class spectra with a per-line coherence profile.
    pop = fdatagen.synth_population(
        SyntheticPopulationSpec(
            modes=_MODES, class_shift=_SHIFT, nuisance_band=_NUISANCE, noise_sd=_NOISE,
            n_samples=1, seed=N_CASES + case, n_tasks=1, n_features=588,
        )
    )
    coherence = np.random.default_rng(case).uniform(0.85, 0.99, pop.freqs.size)
    spectra = workdir / "spectra"
    spectra.mkdir(exist_ok=True)
    for label in (0, 1):
        lines = [
            SpectrumLine(float(f), float(h), float(c))
            for f, h, c in zip(pop.freqs, pop.class_curves[0][label], coherence)
        ]
        fdatagen.write_spectrum(lines, spectra / f"class{label}.csv")
    return workdir


def cli_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_pipeline_op_subprocess(workdir: Path):
    """Each command as ``python -m frfselect`` in its own interpreter."""
    env = cli_env()
    runs = []
    for command, config, out in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "frfselect", command, "--config", config, "--out", out],
            cwd=workdir, env=env, capture_output=True,
        )
        runs.append((command, proc.returncode, proc.stdout))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            break
    return runs


def cli_pipeline_op_inprocess(workdir: Path):
    """The same commands through ``frfselect.cli.main`` in this process."""
    runs = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command, config, out in CLI_COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fcli.main([command, "--config", config, "--out", out])
            runs.append((command, code, buf.getvalue().encode()))
            if code != 0:
                break
    finally:
        os.chdir(cwd)
    return runs


def cli_pipeline_summarize(runs, workdir: Path) -> dict:
    """Exit codes, stdout and output-file digests; then removes the outputs so
    the next operation starts from the set-up files alone."""
    files = {}
    for top in ("data", "out"):
        for path in sorted((workdir / top).rglob("*")):
            if path.is_file():
                files[path.relative_to(workdir).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    for top in ("data", "out"):
        shutil.rmtree(workdir / top, ignore_errors=True)
    return {
        "commands": [
            [command, code, hashlib.sha256(stdout).hexdigest()] for command, code, stdout in runs
        ],
        "files": files,
    }


@dataclass(frozen=True)
class Workload:
    """``op`` is the end-to-end operation; ``op_inprocess`` is the same work
    driven from this process, which the traced run wraps.
    ``runs_in_children``: ``op`` does its work in child processes."""

    name: str
    setup: Callable[[int, Path], Any]
    op: Callable[[Any], Any]
    op_inprocess: Callable[[Any], Any]
    summarize: Callable[[Any, Any], dict]
    runs_in_children: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-path", fit_path_setup, fit_path_op, fit_path_op, fit_path_summarize),
        Workload("grid-cv", grid_cv_setup, grid_cv_op, grid_cv_op, grid_cv_summarize),
        Workload(
            "cli-pipeline", cli_pipeline_setup, cli_pipeline_op_subprocess,
            cli_pipeline_op_inprocess, cli_pipeline_summarize, runs_in_children=True,
        ),
    )
}
