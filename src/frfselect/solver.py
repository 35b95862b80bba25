"""Boosted forward/backward coordinate solver for sparse logistic models.

Weights move on a fixed lattice: every step changes one coordinate of one
task's column by exactly ``epsilon``. Forward steps greedily minimize the
empirical loss; backward steps undo an increment when that lowers the
penalised loss at the current regularisation level by more than ``xi``.
The level starts at the per-unit-penalty gain of the first step and only
ever decreases, so the iterate traces a regularisation path from the
sparse end. With several tasks the penalty is the group (l2-over-tasks)
norm, which makes a step on a feature row that is already active in
another task cheaper per unit of penalty; that discount is what pulls the
tasks toward a shared support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Standardizer,
    WeightMatrix,
    _nll_from_logits,
    _weights_2d,
    empirical_loss_mtl,
    l21_norm,
    standardized_copy,
)

__all__ = [
    "DegenerateLabelsError",
    "SolverConfig",
    "StepCandidate",
    "StepRecord",
    "SolverTrace",
    "FitResult",
    "forward_step",
    "backward_step",
    "lambda_schedule_update",
    "fit",
    "validate_trace",
    "TERMINATED_LAMBDA_FLOOR",
    "TERMINATED_MAX_ITERS",
    "TERMINATED_NO_IMPROVING_STEP",
]

TERMINATED_LAMBDA_FLOOR = "lambda_floor"
TERMINATED_MAX_ITERS = "max_iters"
TERMINATED_NO_IMPROVING_STEP = "no_improving_step"


class DegenerateLabelsError(ValueError):
    """A task's labels contain a single class; there is nothing to separate."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size, acceptance tolerance and termination limits for one fit.

    epsilon : lattice step size; every weight stays an integer multiple of it.
    xi : minimum penalised-loss improvement a backward step must deliver.
    max_iters : hard cap on accepted steps.
    lambda_floor : stop once the regularisation level falls to this value.
    """

    epsilon: float
    xi: float
    max_iters: int = 2000
    lambda_floor: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon}")
        if not (np.isfinite(self.xi) and self.xi > 0):
            raise ValueError(f"xi must be a positive real, got {self.xi}")
        if not self.epsilon > self.xi:
            raise ValueError(
                f"step size epsilon ({self.epsilon}) must exceed tolerance xi ({self.xi})"
            )
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.lambda_floor) and self.lambda_floor >= 0):
            raise ValueError("lambda_floor must be a nonnegative real")


@dataclass(frozen=True)
class StepCandidate:
    """One proposed lattice move: weight (feature, task) changes by sign*epsilon."""

    feature: int
    task: int
    sign: int
    empirical_after: float
    penalty_after: float
    total_after: float | None = None


@dataclass(frozen=True)
class StepRecord:
    """Accepted move plus the from-scratch losses of the new iterate."""

    iteration: int
    kind: str
    feature: int
    task: int
    sign: int
    empirical_loss_after: float
    penalty_after: float
    total_loss_after: float
    lambda_after: float


@dataclass(frozen=True)
class SolverTrace:
    steps: tuple[StepRecord, ...]
    terminated_by: str


@dataclass(frozen=True, eq=False)
class FitResult:
    weights: WeightMatrix
    trace: SolverTrace
    lambda_final: float
    standardization: tuple[Standardizer, ...]


def _task_arrays(tasks):
    X = [t.features for t in tasks]
    y = [t.labels.astype(float) for t in tasks]
    return X, y


def _cross_task_sums(per_task_losses):
    # exact "sum of the other tasks" terms, computed directly so that a
    # candidate on task l compares by its own loss without cancellation noise
    return [
        sum(per_task_losses[m] for m in range(len(per_task_losses)) if m != l)
        for l in range(len(per_task_losses))
    ]


def forward_step(weights, tasks, config: SolverConfig) -> StepCandidate | None:
    """Best single-coordinate move of size ``epsilon`` in either direction.

    Scans all 2 * n_features * n_tasks candidates and returns the one with
    the lowest post-move empirical loss, provided it strictly improves the
    loss of the task it touches. Ties break toward the lowest feature
    index, then the lowest task index, then the positive direction.
    Returns None when no move reduces the empirical loss.
    """
    tasks = tuple(tasks)
    n_feat = tasks[0].n_features
    W = _weights_2d(weights, (n_feat, len(tasks)))
    X, y = _task_arrays(tasks)
    L = len(tasks)
    eps = config.epsilon

    logits = [X[l] @ W[:, l] for l in range(L)]
    J = [float(_nll_from_logits(logits[l], y[l])) for l in range(L)]
    others = _cross_task_sums(J)

    cand = np.empty((n_feat, L, 2))
    scans = []
    for l in range(L):
        loss_plus = _nll_from_logits(logits[l][:, None] + eps * X[l], y[l])
        loss_minus = _nll_from_logits(logits[l][:, None] - eps * X[l], y[l])
        scans.append((loss_plus, loss_minus))
        cand[:, l, 0] = (others[l] + loss_plus) / L
        cand[:, l, 1] = (others[l] + loss_minus) / L

    # C-order argmin realizes the (feature, task, +before-) tie-break
    j, l, s = np.unravel_index(int(np.argmin(cand)), cand.shape)
    new_task_loss = float(scans[l][s][j])
    if not new_task_loss < J[l]:
        return None
    sign = 1 if s == 0 else -1

    penalty_before = l21_norm(W)
    row = W[j, :]
    r_old = float(np.sqrt(row @ row))
    w_new = row[l] + sign * eps
    r_new = float(np.sqrt(max(r_old**2 - row[l] ** 2 + w_new**2, 0.0)))
    return StepCandidate(
        feature=int(j),
        task=int(l),
        sign=sign,
        empirical_after=float(cand[j, l, s]),
        penalty_after=penalty_before - r_old + r_new,
    )


def backward_step(weights, tasks, config: SolverConfig, lam: float) -> StepCandidate | None:
    """Best magnitude-decreasing move at the current regularisation level.

    Considers every nonzero coordinate moved by ``epsilon`` toward zero and
    keeps the candidates whose penalised loss at ``lam`` improves on the
    current one by more than ``xi``; among those the lowest post-move
    empirical loss wins (ties toward low feature then task index).
    Returns None when no move qualifies.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be a nonnegative real, got {lam}")
    tasks = tuple(tasks)
    n_feat = tasks[0].n_features
    W = _weights_2d(weights, (n_feat, len(tasks)))
    if not np.any(W != 0.0):
        return None
    X, y = _task_arrays(tasks)
    L = len(tasks)
    eps = config.epsilon

    logits = [X[l] @ W[:, l] for l in range(L)]
    J = [float(_nll_from_logits(logits[l], y[l])) for l in range(L)]
    others = _cross_task_sums(J)
    emp_now = sum(J) / L
    pen_now = l21_norm(W)
    total_before = emp_now + lam * pen_now
    row_norms = np.sqrt((W * W).sum(axis=1))

    best = None
    best_key = None
    for l in range(L):
        idx = np.flatnonzero(W[:, l] != 0.0)
        if idx.size == 0:
            continue
        w_vals = W[idx, l]
        signs = -np.sign(w_vals)
        Z = logits[l][:, None] + (eps * signs)[None, :] * X[l][:, idx]
        losses = np.atleast_1d(_nll_from_logits(Z, y[l]))
        emp_after = (others[l] + losses) / L
        w_new = w_vals + eps * signs
        r_new = np.sqrt(np.maximum(row_norms[idx] ** 2 - w_vals**2 + w_new**2, 0.0))
        pen_after = pen_now - row_norms[idx] + r_new
        total_after = emp_after + lam * pen_after
        for a in np.flatnonzero(total_before - total_after > config.xi):
            key = (float(emp_after[a]), int(idx[a]), l)
            if best_key is None or key < best_key:
                best_key = key
                best = StepCandidate(
                    feature=int(idx[a]),
                    task=l,
                    sign=int(signs[a]),
                    empirical_after=float(emp_after[a]),
                    penalty_after=float(pen_after[a]),
                    total_after=float(total_after[a]),
                )
    return best


def lambda_schedule_update(
    prev_lambda: float | None,
    empirical_before: float,
    empirical_after: float,
    penalty_before: float,
    penalty_after: float,
) -> float | None:
    """Relax the regularisation level to a forward move's per-unit-penalty gain.

    The first forward step (``prev_lambda`` is None) sets the initial level;
    afterwards the level can only decrease. A move that does not increase
    the penalty leaves the level untouched (the penalised loss already fell
    at every nonnegative level).
    """
    d_pen = penalty_after - penalty_before
    if d_pen <= 0.0:
        return prev_lambda
    gain = (empirical_before - empirical_after) / d_pen
    if prev_lambda is None:
        return gain
    return min(prev_lambda, gain)


def _validated_tasks(tasks):
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("fit requires at least one task")
    n_feat = tasks[0].n_features
    freqs = tasks[0].feature_freqs
    for t in tasks[1:]:
        if t.n_features != n_feat:
            raise ValueError(
                f"task {t.task_id!r} has {t.n_features} features, expected {n_feat}"
            )
        if not np.array_equal(t.feature_freqs, freqs):
            raise ValueError(f"task {t.task_id!r} does not share the feature frequencies")
    for t in tasks:
        if np.all(t.labels == t.labels[0]):
            raise DegenerateLabelsError(
                f"task {t.task_id!r} contains a single class; cannot fit a separator"
            )
    return tasks


def fit(tasks, config: SolverConfig, *, standardize: bool = True) -> FitResult:
    """Run the boosted coordinate path on one or more tasks.

    Each task's features are standardized with its own statistics (recorded
    in the result) unless ``standardize`` is False. The path starts at zero
    weights, alternates qualified backward steps with greedy forward steps,
    and stops at the iteration cap, at the lambda floor, or when no move
    improves anything. Identical inputs produce identical traces.
    """
    tasks = _validated_tasks(tasks)
    n_feat = tasks[0].n_features
    L = len(tasks)
    if standardize:
        standardizers = tuple(Standardizer.fit(t.features) for t in tasks)
    else:
        standardizers = tuple(Standardizer.identity(n_feat) for _ in tasks)
    std_tasks = tuple(standardized_copy(t, std) for std, t in zip(standardizers, tasks))

    counts = np.zeros((n_feat, L), dtype=np.int64)
    lam: float | None = None
    steps: list[StepRecord] = []
    terminated = TERMINATED_MAX_ITERS

    for iteration in range(1, config.max_iters + 1):
        W = counts * config.epsilon
        moved = False
        if lam is not None and counts.any():
            cand = backward_step(W, std_tasks, config, lam)
            if cand is not None:
                counts[cand.feature, cand.task] += cand.sign
                W = counts * config.epsilon
                emp = empirical_loss_mtl(W, std_tasks)
                pen = l21_norm(W)
                steps.append(
                    StepRecord(
                        iteration, "backward", cand.feature, cand.task, cand.sign,
                        emp, pen, emp + lam * pen, lam,
                    )
                )
                moved = True
        if not moved:
            emp_before = empirical_loss_mtl(W, std_tasks)
            pen_before = l21_norm(W)
            cand = forward_step(W, std_tasks, config)
            if cand is None:
                terminated = TERMINATED_NO_IMPROVING_STEP
                break
            counts[cand.feature, cand.task] += cand.sign
            W = counts * config.epsilon
            emp = empirical_loss_mtl(W, std_tasks)
            pen = l21_norm(W)
            lam = lambda_schedule_update(lam, emp_before, emp, pen_before, pen)
            steps.append(
                StepRecord(
                    iteration, "forward", cand.feature, cand.task, cand.sign,
                    emp, pen, emp + lam * pen, lam,
                )
            )
        if lam is not None and lam <= config.lambda_floor:
            terminated = TERMINATED_LAMBDA_FLOOR
            break

    return FitResult(
        weights=WeightMatrix(counts * config.epsilon),
        trace=SolverTrace(tuple(steps), terminated),
        lambda_final=lam if lam is not None else 0.0,
        standardization=standardizers,
    )


def validate_trace(result: FitResult, config: SolverConfig) -> None:
    """Check the recorded path invariants; raises ValueError on violation.

    - the regularisation level never increases along the trace,
    - every final weight is an integer multiple of epsilon (1e-9 absolute),
    - every backward step improved the penalised loss at its level by more
      than xi (reconstructed from the recorded loss components),
    - coordinates never touched by a forward step are exactly zero.
    """
    steps = result.trace.steps
    eps = config.epsilon

    lams = [s.lambda_after for s in steps]
    for a, b in zip(lams, lams[1:]):
        if b > a:
            raise ValueError(f"regularisation level increased: {a} -> {b}")

    W = result.weights.values
    k = np.rint(W / eps)
    if not np.all(np.abs(W - k * eps) <= 1e-9):
        raise ValueError("weights are not integer multiples of epsilon (1e-9)")

    for i, s in enumerate(steps):
        if s.kind != "backward":
            continue
        if i == 0:
            raise ValueError("trace starts with a backward step")
        prev = steps[i - 1]
        before = prev.empirical_loss_after + s.lambda_after * prev.penalty_after
        after = s.empirical_loss_after + s.lambda_after * s.penalty_after
        if not before - after > config.xi - 1e-9:
            raise ValueError(
                f"backward step at iteration {s.iteration} improved the penalised "
                f"loss by {before - after}, needed more than {config.xi}"
            )

    touched = np.zeros(W.shape, dtype=bool)
    for s in steps:
        if s.kind == "forward":
            touched[s.feature, s.task] = True
    if np.any(W[~touched] != 0.0):
        raise ValueError("a coordinate never moved forward holds a nonzero weight")
