"""Frozen copy of the solver as it was before the incremental path state.

``forward_step``, ``backward_step``, ``fit`` and ``_nll_from_logits`` are
verbatim copies of the earlier code: every step rebuilds each task's logits
and rescans every candidate with the clamped kernel. The differential tests
compare the production solver against these functions; do not edit them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from frfselect.model import (
    PROB_CLAMP,
    Standardizer,
    WeightMatrix,
    _weights_2d,
    empirical_loss_mtl,
    l21_norm,
    standardized_copy,
)
from frfselect.solver import (
    TERMINATED_LAMBDA_FLOOR,
    TERMINATED_MAX_ITERS,
    TERMINATED_NO_IMPROVING_STEP,
    FitResult,
    SolverConfig,
    SolverTrace,
    StepCandidate,
    StepRecord,
    _validated_tasks,
    lambda_schedule_update,
)


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
