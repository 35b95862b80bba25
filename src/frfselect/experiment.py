"""Cross-validated model selection and the independent-vs-multi-task study.

Hyperparameters (step size, tolerance, window count) are chosen by
stratified k-fold cross validation on mean validation F1; the comparison
runner then fits per-window models in both modes on full training data,
scores them on held-out test sets, and tabulates the activated weights.
Standardization statistics always come from the training side of a split.
Grid scoring, comparison and transfer fit through one window plan,
``_window_fits``, so each window of each arm is fitted once per call; the
grid scores all tolerances of one (step size, window count) together, on
one shared solver path per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datagen import window_split
from .metrics import f1_score, gini_index
from .model import (ConfigError, Standardizer, TaskDataset, _check_int, _check_real,
                    standardized_copy)
from .solver import (
    DegenerateLabelsError,
    FitResult,
    SolverConfig,
    SolverTrace,
    fit,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    fit_xis,
)

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
GRID_STRATEGIES = ("exhaustive", "staged")


def kfold_split(n_samples: int, labels, k: int, seed) -> list[np.ndarray]:
    """Stratified k-fold partition of sample indices, deterministic per seed.

    Indices of each class are shuffled and dealt round-robin, so per-fold
    class proportions match the full set within one sample.
    """
    _check_int("n_samples", n_samples, 1)
    _check_int("k", k, 2)
    y = np.asarray(labels)
    if y.shape != (n_samples,):
        raise ValueError(f"labels shape {y.shape} does not match n_samples={n_samples}")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present to stratify")
    # each class is dealt from fold 0, so a fold past the larger class is empty
    larger = max(np.count_nonzero(y), np.count_nonzero(y == 0))
    if k > larger:
        raise ValueError(f"k={k} exceeds the {larger} samples of the larger class")
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
    """Hyperparameter search space and strategy. Only pairs with epsilon > xi are kept."""

    epsilons: tuple[float, ...] = (1.0, 0.3, 0.1, 0.03)
    xis: tuple[float, ...] = (0.1, 0.01, 0.001)
    window_counts: tuple[int, ...] = (6,)
    folds: int = 5
    seed: int = 0
    stage_windows: int = 6
    refine_epsilons: tuple[float, ...] = ()
    strategy: str = "exhaustive"

    def __post_init__(self):
        for name in ("window_counts", "epsilons", "xis", "refine_epsilons"):
            entries = enumerate(getattr(self, name))
            values = tuple(
                _check_int(f"{name}[{i}]", x, 1) if name == "window_counts"
                else _check_real(f"{name}[{i}]", x, above=0) for i, x in entries
            )
            for i, x in enumerate(values):
                if x in values[:i]:
                    raise ValueError(f"{name}[{i}] must be unique, got {x} again")
            object.__setattr__(self, name, values)
        if not self.epsilons or not self.xis or not self.window_counts:
            raise ValueError("epsilons, xis and window_counts must be non-empty")
        for name, minimum in (("folds", 2), ("stage_windows", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum))
        if self.strategy not in GRID_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

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
        object.__setattr__(self, "n_windows", _check_int("n_windows", self.n_windows, 1))


def _window_fits(train_tasks, mode: str, n_windows: int, configs):
    """Fit ``configs``, which differ only in ``xi``, on each window in order.

    Yields ``(window index, start, stop, fits)`` where ``fits[c]`` holds one
    ``(FitResult, column)`` per task for ``configs[c]``: one fit per task
    (independent) or one joint fit shared by all tasks (mtl). The configs
    share one solver path per fit until their tolerances pick different
    moves (``fit_xis``). Grid scoring, comparison and transfer all fit
    through here.
    """
    for wi, (start, stop) in enumerate(window_split(train_tasks[0].n_features, n_windows)):
        windows = [t.window(start, stop) for t in train_tasks]
        if mode == MODE_INDEPENDENT:
            per_task = [fit_xis([t], configs) for t in windows]
            fits = [[(res, 0) for res in results] for results in zip(*per_task)]
        else:
            fits = [[(res, l) for l in range(len(windows))] for res in fit_xis(windows, configs)]
        yield wi, start, stop, fits


def _check_windows(name: str, counts, n_features: int) -> None:
    """``ConfigError`` for a window count above the feature lines."""
    for w in counts:
        if w > n_features:
            raise ConfigError(f"{name}: {w} exceeds the {n_features} feature lines")


def _checked_choices(train_tasks: tuple, choices, scored, what: str) -> tuple:
    """Validated choices for a run of every choice over ``train_tasks``.

    ``scored`` pairs each task the fitted models are applied to with the
    training task whose frequency axis it must share.
    """
    if not train_tasks:
        raise ValueError("at least one training task is required")
    ids = [t.task_id for t in train_tasks]
    for k, task_id in enumerate(ids):
        if task_id in ids[:k]:
            raise ValueError(f"training task id {task_id!r} is repeated")
    choices = tuple(choices)
    if not choices:
        raise ValueError("at least one ModelChoice is required")
    if len({c.mode for c in choices}) != len(choices):
        raise ValueError("duplicate modes in choices")
    _check_windows("n_windows", [c.n_windows for c in choices], train_tasks[0].n_features)
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
    if _check_int("source_task_col", source_task_col, 0) >= fitted.weights.n_tasks:
        raise ValueError(
            f"source_task_col {source_task_col} outside 0..{fitted.weights.n_tasks - 1}"
        )
    w = fitted.weights.column(source_task_col)
    if unseen.n_features != w.shape[0]:
        raise ValueError(
            f"unseen task has {unseen.n_features} features, weights have {w.shape[0]}"
        )
    preds = np.where(expit(unseen.features @ w) >= 0.5, 1, 0)
    return f1_score(unseen.labels, preds)


def _scored_f1(fit_result: FitResult, col: int, dataset: TaskDataset) -> float:
    std = fit_result.standardization[col]
    return transfer_evaluate(fit_result, col, standardized_copy(dataset, std))


def _scores(folds, mode: str, n_windows: int, configs) -> list[tuple[float, float]]:
    """Mean validation F1 and Gini of each config; the configs differ only in ``xi``."""
    scores = [[] for _ in configs]  # per config: the (F1, Gini) of each fitted column
    for fold_train, fold_val in folds:
        for _, start, stop, fits in _window_fits(fold_train, mode, n_windows, configs):
            vals = [v.window(start, stop) for v in fold_val]
            scored = {}  # configs on an unforked path share one result, scored once
            for c, choice_fits in enumerate(fits):
                for (res, col), val in zip(choice_fits, vals):
                    key = (id(res), col)  # fits holds res, so no other result has its id
                    if key not in scored:
                        weights = res.weights.column(col)
                        scored[key] = (_scored_f1(res, col, val), gini_index(weights))
                    scores[c].append(scored[key])
    return [tuple(float(np.mean(x)) for x in zip(*pairs)) for pairs in scores]


def grid_search(
    train_tasks,
    grid: GridSpec,
    mode: str,
    *,
    max_iters: int = SolverConfig.max_iters,
    lambda_floor: float = SolverConfig.lambda_floor,
) -> GridSearchResult:
    """Cross-validated hyperparameter search.

    ``grid.strategy="exhaustive"`` scores every (epsilon, xi, window-count)
    combination. ``grid.strategy="staged"`` scores the (epsilon, xi) pairs at
    ``grid.stage_windows`` windows, then window counts at the winning pair,
    then the ``grid.refine_epsilons`` list at the winning window count.
    The returned best row maximizes mean validation F1 over the whole
    table; ties prefer higher mean Gini, then smaller epsilon.

    Before the first fit, a window count above the feature lines and
    ``grid.folds`` above a task's smaller class raise ``ConfigError``; a
    task of one class raises ``DegenerateLabelsError``.
    """
    train_tasks = tuple(train_tasks)
    if not train_tasks:
        raise ValueError("grid_search requires at least one task")
    if mode not in (MODE_INDEPENDENT, MODE_MTL):
        raise ValueError(f"unknown mode {mode!r}")
    pairs = grid.pairs()
    if not pairs:
        raise ValueError("no (epsilon, xi) pairs satisfy epsilon > xi")

    _check_windows("window_counts", grid.window_counts, train_tasks[0].n_features)
    if grid.strategy == "staged":
        _check_windows("stage_windows", [grid.stage_windows], train_tasks[0].n_features)
    # a fold past a task's smaller class validates on one class, and with one
    # sample of that class the fold's training rest holds the other alone
    smaller = [min(np.count_nonzero(t.labels), np.count_nonzero(t.labels == 0)) for t in train_tasks]
    for t, n in zip(train_tasks, smaller):
        if 0 < n < grid.folds:
            raise ConfigError(f"folds: {grid.folds} exceeds the {n} samples of the smaller class "
                              f"of task {t.task_id!r}")
    for t, n in zip(train_tasks, smaller):
        if not n:
            raise DegenerateLabelsError(
                f"task {t.task_id!r} contains a single class; both classes must be present "
                "to stratify"
            )
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

    evaluated: set[tuple[float, float, int]] = set()
    table: list[GridRow] = []

    def run_stage(stage_name, points):
        todo = [p for p in points if p not in evaluated]
        # points sharing (epsilon, window count) are scored on shared paths
        groups: dict[tuple[float, int], list[float]] = {}
        for e, x, w in todo:
            groups.setdefault((e, w), []).append(x)

        scores = {}
        for (e, w), xis in groups.items():
            configs = [SolverConfig(e, x, max_iters=max_iters, lambda_floor=lambda_floor) for x in xis]
            for x, point_scores in zip(xis, _scores(folds, mode, w, configs)):
                scores[e, x, w] = point_scores
        for point in todo:
            evaluated.add(point)
            table.append(GridRow(stage_name, *point, *scores[point]))

    if grid.strategy == "exhaustive":
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
        plan = _window_fits(train_tasks, choice.mode, choice.n_windows, [choice.solver])
        for wi, start, stop, fits in plan:
            for task, test, (res, col) in zip(train_tasks, test_tasks, fits[0]):
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
        plan = _window_fits(train_tasks, choice.mode, choice.n_windows, [choice.solver])
        for wi, start, stop, fits in plan:
            unseen_w = unseen.window(start, stop)
            unseen_std = standardized_copy(unseen_w, Standardizer.fit(unseen_w.features))
            for task, (res, col) in zip(train_tasks, fits[0]):
                rows.append(
                    TransferRow(
                        mode=choice.mode,
                        source_task=task.task_id,
                        window=wi,
                        f1=transfer_evaluate(res, col, unseen_std),
                    )
                )
    return tuple(rows)
