"""Logistic prediction, empirical losses, and sparsity-inducing norms.

A single-task model is a weight vector scoring each frequency line; the
multi-task model stacks one column per task into a shared matrix and is
penalised by the group norm (l2 across tasks, l1 across features), which
pushes whole feature rows to zero so the tasks agree on which lines matter.
There is no intercept: features are standardized per task (training
statistics only) and the standardization is carried around explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "TaskDataset",
    "WeightMatrix",
    "Standardizer",
    "standardized_copy",
    "sigmoid",
    "empirical_loss_single",
    "empirical_loss_mtl",
    "l21_norm",
    "total_loss",
]

# Predicted probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP]
# before taking logs so saturated predictions keep the loss finite.
PROB_CLAMP = 1e-12

_SIGMOID_LO = float(np.nextafter(0.0, 1.0))
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


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
        if not np.all(np.isin(raw_labels, (0, 1))):
            raise ValueError(f"task {self.task_id!r}: labels must be 0 or 1")
        labels = raw_labels.astype(np.int64)
        freqs = np.array(self.feature_freqs, dtype=float)
        if freqs.shape != (m,):
            raise ValueError(
                f"feature_freqs shape {freqs.shape} does not match {m} features"
            )
        if not np.all(np.isfinite(freqs)) or not np.all(np.diff(freqs) > 0):
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
        """New dataset holding the given sample rows."""
        idx = np.asarray(indices, dtype=int)
        return TaskDataset(self.features[idx], self.labels[idx], self.feature_freqs, self.task_id)

    def window(self, start: int, stop: int) -> "TaskDataset":
        """New dataset restricted to the feature columns [start, stop)."""
        if not (0 <= start < stop <= self.n_features):
            raise ValueError(f"window [{start}, {stop}) outside 0..{self.n_features}")
        return TaskDataset(
            self.features[:, start:stop], self.labels, self.feature_freqs[start:stop], self.task_id
        )


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
        mean = feats.mean(axis=0)
        sd = feats.std(axis=0)
        # constant columns standardize to zero deviation; scale 1 avoids 0/0
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
    return TaskDataset(
        standardizer.apply(task.features), task.labels, task.feature_freqs, task.task_id
    )


def sigmoid(z):
    """Logistic function ``1 / (1 + exp(-z))``.

    Accepts a scalar or an array; scalars come back as float. Outputs are
    nudged into the open interval (0, 1) so saturated logits never return
    exactly 0 or 1.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sigmoid requires finite input")
    out = np.clip(expit(arr), _SIGMOID_LO, _SIGMOID_HI)
    if np.ndim(z) == 0:
        return float(out)
    return out


def _nll_from_logits(logits, labels):
    """Clamped mean cross-entropy from logits.

    ``logits`` may be (n,) for one model or (n, k) for k candidate models
    evaluated at once; the labels vector is shared and the result is a
    scalar or a (k,) array accordingly.
    """
    p = expit(logits)
    np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
    ll = labels @ np.log(p) + (1.0 - labels) @ np.log(1.0 - p)
    return -ll / labels.shape[0]


def empirical_loss_single(weights, data: TaskDataset) -> float:
    """Mean cross-entropy of a single-task model on one dataset."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != data.n_features:
        raise ValueError(
            f"weights length {w.shape} does not match {data.n_features} features"
        )
    z = data.features @ w
    return float(_nll_from_logits(z, data.labels.astype(float)))


def _weights_2d(weights, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Weights as an (n_features, n_tasks) array, optionally of a given shape."""
    if isinstance(weights, WeightMatrix):
        arr = weights.values
    else:
        arr = np.asarray(weights, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("weights must be 1-D or 2-D")
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("l21_norm requires finite input")
    return float(np.sqrt((arr * arr).sum(axis=1)).sum())


def total_loss(weights, tasks, lam: float) -> LossBreakdown:
    """Penalised loss: empirical average plus ``lam`` times the group norm."""
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be a nonnegative real, got {lam}")
    arr = _weights_2d(weights)
    empirical = empirical_loss_mtl(arr, tasks)
    penalty = l21_norm(arr)
    return LossBreakdown(
        empirical=empirical, penalty=penalty, lam=float(lam), total=empirical + lam * penalty
    )
