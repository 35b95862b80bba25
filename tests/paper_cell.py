"""The paper cell: window [98, 196) of fold 0 of the default grid on the paper
population (3 tasks, 588 lines, 150 samples per class, seed 3).

The window holds the population's modal lines, so its classes separate and
most of its tasks' scans run in the clamp regime, over 240 training samples
and paths of up to 2,000 steps. ``tests/cell_golden/steps.json`` holds the
SHA-256 of each epsilon 1.0 fit's step codes (kind, feature, task, sign)
and its termination reason; the test that reads it is in
``test_solver_differential.py``.

Run as a script, it fits all ten (epsilon, xi) pairs of the default grid in
both modes and prints one Markdown line: the summed ``backward_exact`` and
``clamped_scans`` of the distinct results, and the wall time::

    PYTHONPATH=src python tests/paper_cell.py
"""

import hashlib
import json
import time

from frfselect.datagen import ModalMode, SyntheticPopulationSpec, synth_population
from frfselect.experiment import GridSpec, _grid_folds
from frfselect.solver import SolverConfig, fit_xis

WINDOW = (98, 196)
GOLDEN_EPSILON = 1.0


def cell_tasks():
    """The cell's training tasks: fold 0's training rest of ``grid_search``'s
    folds with the default ``GridSpec``, cut to the window."""
    spec = SyntheticPopulationSpec(
        modes=(ModalMode(40.0, 0.04), ModalMode(90.0, 0.03)), class_shift=(4.0, -5.0),
        nuisance_band=(130.0, 190.0), noise_sd=0.3, n_samples=150, seed=3, n_tasks=3,
        n_features=588,
    )
    fold_train, _ = _grid_folds(synth_population(spec).tasks, GridSpec())[0]
    return [t.window(*WINDOW) for t in fold_train]


def cell_fits(tasks, epsilons):
    """``{(mode, task, epsilon, xi): FitResult}`` for each pair of the default
    grid at ``epsilons``, both modes, ``max_iters`` 2000; ``task`` is a task
    id in independent mode and ``"joint"`` in mtl mode."""
    grid = GridSpec()
    fits = {}
    for eps in epsilons:
        xis = [x for e, x in grid.pairs() if e == eps]
        configs = [SolverConfig(eps, x, max_iters=2000) for x in xis]
        runs = [("independent", t.task_id, [t]) for t in tasks] + [("mtl", "joint", tasks)]
        for mode, label, fitted in runs:
            for xi, res in zip(xis, fit_xis(fitted, configs)):
                fits[mode, label, eps, xi] = res
    return fits


def step_digests(fits) -> dict:
    """Each fit's step-code SHA-256 and termination reason, keyed as the golden file."""
    out = {}
    for (mode, label, eps, xi), res in fits.items():
        codes = [[s.kind, s.feature, s.task, s.sign] for s in res.trace.steps]
        sha = hashlib.sha256(json.dumps(codes).encode()).hexdigest()
        out[f"{mode} {label} eps={eps} xi={xi}"] = {"steps_sha256": sha,
                                                   "terminated_by": res.trace.terminated_by}
    return out


def main():
    tasks = cell_tasks()
    start = time.perf_counter()
    fits = cell_fits(tasks, GridSpec().epsilons)
    wall = time.perf_counter() - start
    distinct = {id(res): res.stats for res in fits.values()}.values()
    exact = sum(s.backward_exact for s in distinct)
    clamped = sum(s.clamped_scans for s in distinct)
    print(f"paper cell [98, 196), fold 0, all ten pairs, both modes: backward_exact {exact}, "
          f"clamped_scans {clamped}, wall {wall:.1f} s")


if __name__ == "__main__":
    main()
