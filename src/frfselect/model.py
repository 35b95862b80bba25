"""Datasets, logistic losses, and sparsity-inducing norms.

A single-task model is a weight vector scoring each frequency line; the
multi-task model stacks one column per task into a shared matrix and is
penalised by the group norm (l2 across tasks, l1 across features), which
pushes whole feature rows to zero so the tasks agree on which lines matter.
There is no intercept: features are standardized per task (training
statistics only) and the standardization is carried around explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TaskDataset",
    "WeightMatrix",
    "Standardizer",
    "standardized_copy",
    "total_loss",
]

# Predicted probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP]
# before taking logs so saturated predictions keep the loss finite.
PROB_CLAMP = 1e-12


class ConfigError(ValueError):
    """Run settings that are invalid, in themselves or for the data they run on."""


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``. numpy integers pass; bools,
    floats and other non-integers raise ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value, *, above=-math.inf, at_least=-math.inf, below=math.inf,
                at_most=math.inf) -> float:
    """``value`` as a finite float inside the given bounds. ints and numpy numbers
    pass; bools, strings, nan and ±inf raise ValueError instead of being coerced.
    A float inside the bounds, the common case, returns before any conversion."""
    if type(value) is float and above < value < below and at_least <= value <= at_most:
        return value
    if isinstance(value, bool) or not isinstance(value, (float, int, np.floating, np.integer)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf if value > 0 else -math.inf
    # nan fails every comparison and ±inf the default bounds
    if not (above < x < below and at_least <= x <= at_most):
        bounds = (("above", above), ("at least", at_least), ("below", below), ("at most", at_most))
        words = " and".join(f" {word} {b}" for word, b in bounds if math.isfinite(b))
        raise ValueError(f"{name} must be a finite number{words}, got {x}")
    return x


def _check_list(name: str, value) -> tuple:
    """``value``'s entries as a tuple. A value that holds no entries to
    iterate, such as None or a number, raises ValueError instead of TypeError."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a list, got {value!r}") from None


def _check_axes(pairs, what: str) -> None:
    """ValueError unless each ``(task, training task)`` pair has equal ``feature_freqs``."""
    for task, train in pairs:
        if not np.array_equal(task.feature_freqs, train.feature_freqs):
            raise ValueError(f"{what} {task.task_id!r}: feature count or frequencies differ "
                             f"from training task {train.task_id!r}")


def _fmt(x) -> str:
    """Shortest round-trip decimal, so a save/load cycle is bit-exact."""
    return repr(float(x))


def _text_cell(v) -> str:
    if isinstance(v, str) and any(c in v for c in ",\r\n"):
        raise ValueError(f"cannot write the text cell {v!r}: it holds a comma or a line break")
    return str(v)


def _table_text(header, rows) -> str:
    """Comma-delimited text: the header cells, then one line per row; floats by
    ``_fmt``. A text cell holding a comma or a line break is a ValueError."""
    lines = (",".join([_fmt(v) if isinstance(v, float) else _text_cell(v) for v in row])
             for row in (header, *rows))
    return "\n".join(lines) + "\n"


def _write_table(path, header, rows) -> None:
    """``_table_text`` to ``path``; on a ValueError nothing is written."""
    Path(path).write_text(_table_text(header, rows), encoding="utf-8")


def _table_lines(path, error):
    """The header's cells and the ``(1-based line number, text)`` of each
    non-blank row after it. Raises ``error`` for a file that is not UTF-8
    text or is empty. One leading byte-order mark is dropped. Lines end at
    ``\n`` alone: reading maps ``\r\n`` and ``\r`` to it, and
    ``str.splitlines`` would also break inside a cell at characters such as
    ``\x1c`` or ``\u2028``."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not text:
        raise error(f"{path}: empty file")
    lines = text.split("\n")
    rows = [(lineno, raw) for lineno, raw in enumerate(lines[1:], start=2) if raw.strip()]
    return lines[0].split(","), rows


def _plain_number(cell: str, kind=float):
    """``kind(cell)`` for a cell in the table format's number syntax: ASCII,
    without ``_``. ``int`` and ``float`` also read other scripts' digits and
    ``_`` digit grouping; such a cell is a ValueError like any non-number."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not a plain number: {cell!r}")
    return kind(cell)


def _split_rows(path, header, rows, error):
    """Yield ``(1-based line number, cells)`` for each of the rows of
    ``_table_lines``. Rows are split as the caller asks for them, so a fault
    the caller finds in one row is reported before any in a later row.
    Raises ``error`` for no data rows or a row of the wrong width."""
    if not rows:
        raise error(f"{path}: no data rows")
    for lineno, raw in rows:
        cells = raw.split(",")
        if len(cells) != len(header):
            raise error(
                f"{path}: inconsistent row width, line {lineno}: "
                f"expected {len(header)} cells, got {len(cells)}"
            )
        yield lineno, cells


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Samples for one binary classification task.

    Parameters
    ----------
    features : ndarray, shape (n_samples, n_features)
        One column per measured frequency line.
    labels : ndarray, shape (n_samples,)
        Class labels, 0 or 1.
    feature_freqs : ndarray, shape (n_features,)
        Strictly increasing frequencies in Hz naming the columns.
    task_id : str
        Short name used in reports and error messages.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_freqs: np.ndarray
    task_id: str = "task"

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got ndim={feats.ndim}")
        n, m = feats.shape
        if n < 1 or m < 1:
            raise ValueError("features need at least one sample and one feature")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"task {self.task_id!r}: features contain non-finite values")
        raw_labels = np.asarray(self.labels)
        if raw_labels.shape != (n,):
            raise ValueError(
                f"labels shape {raw_labels.shape} does not match {n} samples"
            )
        if not np.all((raw_labels == 0) | (raw_labels == 1)):
            raise ValueError(f"task {self.task_id!r}: labels must be 0 or 1")
        labels = raw_labels.astype(np.int64)
        freqs = np.array(self.feature_freqs, dtype=float)
        if freqs.shape != (m,):
            raise ValueError(
                f"feature_freqs shape {freqs.shape} does not match {m} features"
            )
        if not np.all(np.isfinite(freqs)) or not np.all(freqs[1:] > freqs[:-1]):
            raise ValueError("feature_freqs must be finite and strictly increasing")
        for name, arr in (("features", feats), ("labels", labels), ("feature_freqs", freqs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "TaskDataset":
        """New dataset holding the given sample rows, by integer row number."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            if idx.size:  # a bool mask or fractional rows are not row numbers
                raise ValueError(f"indices must be integers, got {idx.dtype} values")
            idx = idx.astype(int)  # [] is a float array; the constructor rejects no rows
        return TaskDataset(self.features[idx], self.labels[idx], self.feature_freqs, self.task_id)

    def window(self, start: int, stop: int) -> "TaskDataset":
        """New dataset restricted to the feature columns [start, stop)."""
        start, stop = _check_int("start", start), _check_int("stop", stop)
        if not 0 <= start < stop <= self.n_features:
            raise ValueError(f"window [{start}, {stop}) outside 0..{self.n_features}")
        return TaskDataset(self.features[:, start:stop], self.labels,
                           self.feature_freqs[start:stop], self.task_id)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Weights with one column per task; a 1-D input becomes a single column."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("weights must form a non-empty (n_features, n_tasks) matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.values.shape[1]

    def column(self, task: int) -> np.ndarray:
        return self.values[:, task]


@dataclass(frozen=True)
class LossBreakdown:
    """Empirical loss, penalty value, their weighting and the combined total."""

    empirical: float
    penalty: float
    lam: float
    total: float


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature affine map fitted on training data and reused verbatim
    on validation, test and transfer data."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        scale = np.array(self.scale, dtype=float)
        if mean.ndim != 1 or scale.shape != mean.shape:
            raise ValueError("mean and scale must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale)) and np.all(scale > 0)):
            raise ValueError("scale entries must be finite and positive")
        mean.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 2 or not feats.shape[0]:
            raise ValueError(f"features must be 2-D with at least one row, got shape {feats.shape}")
        # the sums and divisions of .mean() and .std(), the mean taken once
        n = feats.shape[0]
        # a constant column's mean is its own value, not a rounded sum: scale 1
        row = feats[:1]
        mean = np.where((feats == row).all(axis=0), row.mean(axis=0), np.add.reduce(feats, axis=0) / n)
        dev = feats - mean
        sd = np.sqrt(np.add.reduce(dev * dev, axis=0) / n)
        scale = np.where(sd > 0, sd, 1.0)
        return cls(mean, scale)

    @classmethod
    def identity(cls, n_features: int) -> "Standardizer":
        return cls(np.zeros(n_features), np.ones(n_features))

    def apply(self, features: np.ndarray) -> np.ndarray:
        feats = np.asarray(features, dtype=float)
        if feats.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature count {feats.shape[-1]} does not match standardizer "
                f"({self.mean.shape[0]})"
            )
        return (feats - self.mean) / self.scale


def standardized_copy(task: TaskDataset, standardizer: Standardizer) -> TaskDataset:
    """The same dataset with its features pushed through a standardizer."""
    return TaskDataset(standardizer.apply(task.features), task.labels, task.feature_freqs,
                       task.task_id)


def expit(x):
    """The logistic function. The first call imports scipy's ``expit`` ufunc and
    rebinds this name to it, so importing the package does not load scipy."""
    global expit
    from scipy.special import expit
    return expit(x)


def _nll_from_probs(p, labels, complement=None, clamp=True):
    """Clamped mean cross-entropy given ``p = expit(logits)``, clamped in place:
    a scalar for ``p`` of shape (n,), one model, and a (k,) array for (n, k),
    k candidate models sharing the labels. ``complement``, when given, is
    ``1.0 - labels`` formed once by a caller that scores the labels often.
    ``clamp=False`` skips the clamp for a caller whose logits all lie below
    27 in magnitude, where it changes no bit (``-log(PROB_CLAMP)`` is 27.6)."""
    if clamp:
        np.maximum(p, PROB_CLAMP, out=p)
        np.minimum(p, 1.0 - PROB_CLAMP, out=p)
    if complement is None:
        complement = 1.0 - labels
    ll = labels @ np.log(p) + complement @ np.log(1.0 - p)
    return -ll / labels.shape[0]


def empirical_loss_single(weights, data: TaskDataset) -> float:
    """Mean cross-entropy of a single-task model on one dataset."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != data.n_features:
        raise ValueError(
            f"weights length {w.shape} does not match {data.n_features} features"
        )
    z = data.features @ w
    return float(_nll_from_probs(expit(z), data.labels.astype(float)))


def _weights_2d(weights, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The values of ``weights`` as a ``WeightMatrix``, optionally of a given shape."""
    arr = (weights if isinstance(weights, WeightMatrix) else WeightMatrix(weights)).values
    if shape is not None and arr.shape != shape:
        raise ValueError(f"weights shape {arr.shape} does not match {shape}")
    return arr


def empirical_loss_mtl(weights, tasks) -> float:
    """Average of the per-task empirical losses, one weight column per task."""
    arr = _weights_2d(weights)
    tasks = tuple(tasks)
    if len(tasks) != arr.shape[1]:
        raise ValueError(
            f"{len(tasks)} tasks but {arr.shape[1]} weight columns"
        )
    losses = [empirical_loss_single(arr[:, l], tasks[l]) for l in range(len(tasks))]
    return sum(losses) / len(losses)


def l21_norm(weights) -> float:
    """Sum over features of the l2 norm across tasks of each weight row.

    With a single column this reduces to the l1 norm (groups of size one);
    the same formula is used in both cases.
    """
    arr = _weights_2d(weights)
    return float(np.sqrt((arr * arr).sum(axis=1)).sum())


def total_loss(weights, tasks, lam: float) -> LossBreakdown:
    """Penalised loss: empirical average plus ``lam`` times the group norm."""
    lam = _check_real("lam", lam, at_least=0)
    empirical = empirical_loss_mtl(weights, tasks)
    penalty = l21_norm(weights)
    return LossBreakdown(
        empirical=empirical, penalty=penalty, lam=lam, total=empirical + lam * penalty
    )
