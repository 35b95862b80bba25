"""Cross-validated model selection and the independent-vs-multi-task study.

Hyperparameters (step size, tolerance, window count) are chosen by
stratified k-fold cross validation on mean validation F1; the comparison
runner then fits per-window models in both modes on full training data,
scores them on held-out test sets, and tabulates the activated weights.
Standardization statistics always come from the training side of a split.
Grid scoring, comparison and transfer fit through one window plan,
``_window_fits``, so each window of each arm is fitted once per call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datagen import window_split
from .metrics import f1_score, gini_index
from .model import Standardizer, TaskDataset, sigmoid, standardized_copy
from .solver import FitResult, SolverConfig, SolverTrace, fit

__all__ = [
    "kfold_split",
    "GridSpec",
    "GridRow",
    "GridSearchResult",
    "grid_search",
    "ModelChoice",
    "ActiveFeature",
    "ReportRow",
    "EvaluationReport",
    "run_comparison",
    "transfer_evaluate",
    "run_transfer",
    "TransferRow",
    "MODE_INDEPENDENT",
    "MODE_MTL",
]

MODE_INDEPENDENT = "independent"
MODE_MTL = "mtl"


def kfold_split(n_samples: int, labels, k: int, seed) -> list[np.ndarray]:
    """Stratified k-fold partition of sample indices, deterministic per seed.

    Indices of each class are shuffled and dealt round-robin, so per-fold
    class proportions match the full set within one sample.
    """
    y = np.asarray(labels)
    if y.shape != (n_samples,):
        raise ValueError(f"labels shape {y.shape} does not match n_samples={n_samples}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n_samples:
        raise ValueError(f"k={k} exceeds the {n_samples} available samples")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present to stratify")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for f in range(k):
            folds[f].extend(idx[f::k].tolist())
    return [np.sort(np.array(f, dtype=int)) for f in folds]


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter search space. Only pairs with epsilon > xi are kept."""

    epsilons: tuple[float, ...] = (1.0, 0.3, 0.1, 0.03)
    xis: tuple[float, ...] = (0.1, 0.01, 0.001)
    window_counts: tuple[int, ...] = (6,)
    folds: int = 5
    seed: int = 0
    stage_windows: int = 6
    refine_epsilons: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "xis", tuple(float(x) for x in self.xis))
        object.__setattr__(self, "window_counts", tuple(int(w) for w in self.window_counts))
        object.__setattr__(self, "refine_epsilons", tuple(float(e) for e in self.refine_epsilons))
        if not self.epsilons or not self.xis or not self.window_counts:
            raise ValueError("epsilons, xis and window_counts must be non-empty")
        if any(w < 1 for w in self.window_counts):
            raise ValueError("window counts must be positive")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.stage_windows < 1:
            raise ValueError("stage_windows must be positive")

    def pairs(self) -> list[tuple[float, float]]:
        """(epsilon, xi) combinations with epsilon strictly greater than xi."""
        return [(e, x) for e in self.epsilons for x in self.xis if e > x]


@dataclass(frozen=True)
class GridRow:
    stage: str
    epsilon: float
    xi: float
    n_windows: int
    mean_f1: float
    mean_gini: float


@dataclass(frozen=True)
class GridSearchResult:
    best: GridRow
    table: tuple[GridRow, ...]


def _select_best(rows) -> GridRow:
    # max mean F1; ties: higher mean Gini, smaller epsilon, fewer windows,
    # smaller xi -- the last two only to make selection total
    return min(rows, key=lambda r: (-r.mean_f1, -r.mean_gini, r.epsilon, r.n_windows, r.xi))


@dataclass(frozen=True)
class ModelChoice:
    """One model arm: a mode, its solver settings and a window count."""

    mode: str
    solver: SolverConfig
    n_windows: int

    def __post_init__(self):
        if self.mode not in (MODE_INDEPENDENT, MODE_MTL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_windows < 1:
            raise ValueError("n_windows must be positive")


def _window_fits(train_tasks, choice: ModelChoice):
    """Fit one choice on each window of the training tasks, in window order.

    Yields ``(window index, start, stop, fits)`` where ``fits`` holds one
    ``(FitResult, column)`` per task: one fit per task (independent) or one
    joint fit shared by all tasks (mtl). Grid scoring, comparison and
    transfer all fit through here.
    """
    plan = window_split(train_tasks[0].n_features, choice.n_windows)
    for wi, (start, stop) in enumerate(plan.ranges):
        windows = [t.window(start, stop) for t in train_tasks]
        if choice.mode == MODE_INDEPENDENT:
            fits = [(fit([t], choice.solver), 0) for t in windows]
        else:
            joint = fit(windows, choice.solver)
            fits = [(joint, l) for l in range(len(windows))]
        yield wi, start, stop, fits


def _checked_choices(train_tasks: tuple, choices, scored, what: str) -> tuple:
    """Validated choices for a run of every choice over ``train_tasks``.

    ``scored`` pairs each task the fitted models are applied to with the
    training task whose frequency axis it must share.
    """
    if not train_tasks:
        raise ValueError("at least one training task is required")
    choices = tuple(choices)
    if not choices:
        raise ValueError("at least one ModelChoice is required")
    if len({c.mode for c in choices}) != len(choices):
        raise ValueError("duplicate modes in choices")
    for task, train in scored:
        if not np.array_equal(task.feature_freqs, train.feature_freqs):
            raise ValueError(
                f"{what} {task.task_id!r}: feature count or frequencies differ from "
                f"training task {train.task_id!r}"
            )
    return choices


def transfer_evaluate(fitted: FitResult, source_task_col: int, unseen: TaskDataset) -> float:
    """F1 of one fitted weight column applied to an already-standardized task.

    The caller chooses the standardization (the source fit's training
    statistics for the source task's own data, the unseen task's own
    feature statistics for cross-structure transfer).
    """
    if not 0 <= source_task_col < fitted.weights.n_tasks:
        raise ValueError(
            f"source_task_col {source_task_col} outside 0..{fitted.weights.n_tasks - 1}"
        )
    w = fitted.weights.column(source_task_col)
    if unseen.n_features != w.shape[0]:
        raise ValueError(
            f"unseen task has {unseen.n_features} features, weights have {w.shape[0]}"
        )
    probs = sigmoid(unseen.features @ w)
    preds = np.where(np.atleast_1d(probs) >= 0.5, 1, 0)
    return f1_score(unseen.labels, preds)


def _scored_f1(fit_result: FitResult, col: int, dataset: TaskDataset) -> float:
    std = fit_result.standardization[col]
    return transfer_evaluate(fit_result, col, standardized_copy(dataset, std))


def _point_score(folds, choice: ModelChoice):
    f1s = []
    ginis = []
    for fold_train, fold_val in folds:
        for _, start, stop, fits in _window_fits(fold_train, choice):
            for (res, col), val in zip(fits, fold_val):
                f1s.append(_scored_f1(res, col, val.window(start, stop)))
                ginis.append(gini_index(res.weights.column(col)))
    return float(np.mean(f1s)), float(np.mean(ginis))


def grid_search(
    train_tasks,
    grid: GridSpec,
    mode: str,
    *,
    max_iters: int = SolverConfig.max_iters,
    lambda_floor: float = SolverConfig.lambda_floor,
    strategy: str = "exhaustive",
    threads: int = 1,
) -> GridSearchResult:
    """Cross-validated hyperparameter search.

    ``strategy="exhaustive"`` scores every (epsilon, xi, window-count)
    combination. ``strategy="staged"`` scores the (epsilon, xi) pairs at
    ``grid.stage_windows`` windows, then window counts at the winning pair,
    then the ``grid.refine_epsilons`` list at the winning window count.
    The returned best row maximizes mean validation F1 over the whole
    table; ties prefer higher mean Gini, then smaller epsilon.
    """
    train_tasks = tuple(train_tasks)
    if not train_tasks:
        raise ValueError("grid_search requires at least one task")
    if mode not in (MODE_INDEPENDENT, MODE_MTL):
        raise ValueError(f"unknown mode {mode!r}")
    if strategy not in ("exhaustive", "staged"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pairs = grid.pairs()
    if not pairs:
        raise ValueError("no (epsilon, xi) pairs satisfy epsilon > xi")

    folds_per_task = [
        kfold_split(t.n_samples, t.labels, grid.folds, np.random.SeedSequence([grid.seed, ti]))
        for ti, t in enumerate(train_tasks)
    ]
    # each fold's (train, validation) tasks, built once for every grid point
    folds = []
    for f in range(grid.folds):
        fold_train = []
        fold_val = []
        for t, tf in zip(train_tasks, folds_per_task):
            rest = np.sort(np.concatenate([tf[g] for g in range(grid.folds) if g != f]))
            fold_train.append(t.subset(rest))
            fold_val.append(t.subset(tf[f]))
        folds.append((fold_train, fold_val))

    evaluated: dict[tuple[float, float, int], GridRow] = {}
    table: list[GridRow] = []

    def run_stage(stage_name, points):
        todo = [p for p in points if p not in evaluated]

        def score(point):
            e, x, w = point
            config = SolverConfig(e, x, max_iters=max_iters, lambda_floor=lambda_floor)
            return _point_score(folds, ModelChoice(mode, config, w))

        if threads > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(score, todo))
        else:
            results = [score(p) for p in todo]
        for point, (mean_f1, mean_gini) in zip(todo, results):
            row = GridRow(stage_name, point[0], point[1], point[2], mean_f1, mean_gini)
            evaluated[point] = row
            table.append(row)

    if strategy == "exhaustive":
        run_stage("exhaustive", [(e, x, w) for e, x in pairs for w in grid.window_counts])
    else:
        run_stage("pairs", [(e, x, grid.stage_windows) for e, x in pairs])
        best = _select_best(table)
        run_stage("windows", [(best.epsilon, best.xi, w) for w in grid.window_counts])
        best = _select_best(table)
        refine = [(e, best.xi, best.n_windows) for e in grid.refine_epsilons if e > best.xi]
        if refine:
            run_stage("refine", refine)

    return GridSearchResult(best=_select_best(table), table=tuple(table))


@dataclass(frozen=True)
class ActiveFeature:
    index: int
    freq: float
    weight: float


@dataclass(frozen=True)
class ReportRow:
    window: int
    window_start: int
    window_stop: int
    task_id: str
    mode: str
    f1: float
    gini: float
    active: tuple[ActiveFeature, ...]
    epsilon: float
    xi: float


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]
    traces: tuple[tuple[str, SolverTrace], ...] = ()


def _active_features(task: TaskDataset, weights: np.ndarray, offset: int):
    return tuple(
        ActiveFeature(
            index=offset + j, freq=float(task.feature_freqs[offset + j]), weight=float(weights[j])
        )
        for j in np.flatnonzero(weights != 0.0)
    )


def run_comparison(train_tasks, test_tasks, choices, *, include_traces: bool = False) -> EvaluationReport:
    """Fit every choice per window on full training data and score on test.

    Emits one row per (window, task, mode) with test F1, the Gini index of
    the fitted column, and the activated weights (global feature indices).
    """
    train_tasks = tuple(train_tasks)
    test_tasks = tuple(test_tasks)
    if len(train_tasks) != len(test_tasks):
        raise ValueError("need one test set per training task")
    choices = _checked_choices(train_tasks, choices, zip(test_tasks, train_tasks), "test set")

    rows = []
    traces = []
    for choice in choices:
        for wi, start, stop, fits in _window_fits(train_tasks, choice):
            for task, test, (res, col) in zip(train_tasks, test_tasks, fits):
                weights = res.weights.column(col)
                rows.append(
                    ReportRow(
                        window=wi,
                        window_start=start,
                        window_stop=stop,
                        task_id=task.task_id,
                        mode=choice.mode,
                        f1=_scored_f1(res, col, test.window(start, stop)),
                        gini=gini_index(weights),
                        active=_active_features(task, weights, start),
                        epsilon=choice.solver.epsilon,
                        xi=choice.solver.xi,
                    )
                )
                if include_traces and col == 0:
                    key = f"{choice.mode}/window{wi}"
                    if choice.mode == MODE_INDEPENDENT:
                        key += f"/{task.task_id}"
                    traces.append((key, res.trace))

    seen = {(r.window, r.task_id, r.mode) for r in rows}
    if len(seen) != len(rows):
        raise AssertionError("duplicate (window, task, mode) rows in report")
    return EvaluationReport(rows=tuple(rows), traces=tuple(traces))


@dataclass(frozen=True)
class TransferRow:
    mode: str
    source_task: str
    window: int
    f1: float


def run_transfer(train_tasks, unseen: TaskDataset, choices) -> tuple[TransferRow, ...]:
    """Apply every fitted weight column to an unseen task.

    The unseen task is standardized with its own feature statistics
    (labels untouched); models are fit per window on the training tasks
    exactly as in run_comparison.
    """
    train_tasks = tuple(train_tasks)
    choices = _checked_choices(
        train_tasks, choices, [(unseen, t) for t in train_tasks], "unseen task"
    )
    rows = []
    for choice in choices:
        for wi, start, stop, fits in _window_fits(train_tasks, choice):
            unseen_w = unseen.window(start, stop)
            unseen_std = standardized_copy(unseen_w, Standardizer.fit(unseen_w.features))
            for task, (res, col) in zip(train_tasks, fits):
                rows.append(
                    TransferRow(
                        mode=choice.mode,
                        source_task=task.task_id,
                        window=wi,
                        f1=transfer_evaluate(res, col, unseen_std),
                    )
                )
    return tuple(rows)
