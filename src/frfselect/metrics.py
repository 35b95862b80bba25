"""Classification and sparsity metrics: F1 score and the Gini index.

The Gini index measures how concentrated a weight vector is: 0 for a
perfectly uniform magnitude profile, approaching 1 as all mass collects
on a single coordinate. Magnitudes are sorted ascending and weighted by
their rank, so the sign pattern of the weights is irrelevant.
"""

from __future__ import annotations

import numpy as np

__all__ = ["f1_score", "gini_index"]


def _checked_label_pair(y_true, y_pred):
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.ndim != 1 or yp.ndim != 1 or yt.shape != yp.shape:
        raise ValueError(f"label vectors must be 1-D and equal length, got {yt.shape} and {yp.shape}")
    if yt.size == 0:
        raise ValueError("label vectors are empty")
    for name, arr in (("y_true", yt), ("y_pred", yp)):
        if not np.all(np.isin(arr, (0, 1))):
            raise ValueError(f"{name} must contain only 0 and 1")
    return yt.astype(np.int64), yp.astype(np.int64)


def f1_score(y_true, y_pred) -> float:
    """``2*tp / (2*tp + fp + fn)``.

    When there are no positives anywhere (tp = fp = fn = 0, i.e. a perfect
    all-negative prediction) the score is defined as 1.0.
    """
    yt, yp = _checked_label_pair(y_true, y_pred)
    tp = int(np.sum((yt == 1) & (yp == 1)))
    denom = 2 * tp + int(np.sum(yt != yp))  # mismatches are fp + fn
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def gini_index(weights) -> float:
    """Sparsity of a weight vector, in [0, 1).

    Magnitudes are sorted ascending; with ``a`` the sorted |w| and ``s``
    their sum, the index is ``1 - 2 * sum_j (a_j / s) * ((M - j + 1/2) / M)``
    for 1-based j. The zero vector maps to 0 by convention.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("gini_index expects a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("gini_index requires finite input")
    a = np.sort(np.abs(w))
    s = float(a.sum())
    if s == 0.0:
        return 0.0
    m = a.size
    rank = np.arange(1, m + 1, dtype=float)
    coef = (m - rank + 0.5) / m
    return 1.0 - 2.0 * float(a @ coef) / s
