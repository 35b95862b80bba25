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

Implementation: one fit keeps a private path state holding the weights,
each task's logits ``X_l @ W[:, l]`` and loss, the weight rows' l2 norms and
the penalty. An accepted step recomputes only the touched task's logits and
loss, from scratch, so every loss in the trace is exactly what a full
recomputation gives.

Forward kernel: with ``s = 1 - 2y`` the loss of one sample at logit ``v`` is
``log1p(exp(s * v))``, so the losses of the moves ``z -> z ± eps * x_j`` of
all features are the column means of ``log1p(exp(s*z + ±eps * s * X))``,
computed in one reused buffer: one ``exp`` and one ``log1p`` per element,
where the clamped cross-entropy of ``model._nll_from_logits`` takes
``expit``, a clip and two ``log`` calls. The two agree only while no logit
can reach the clamp (``-log(PROB_CLAMP)`` is 27.6), so a task whose
``max|z| + eps*max|X|`` is 27 or more is scanned with the clamped kernel
instead; below that no ``exp`` can overflow. They also differ by rounding:
the clamped kernel's ``log(1 - p)`` loses digits on confidently
misclassified samples. Each fused scan carries a bound on that difference;
when the best move lies within it of another candidate or of the current
loss, the fused tasks are rescanned with the clamped kernel before the move
is chosen, so the move is always the one the clamped kernel picks.

Backward screening: without the clamp the loss is convex, so moving
``w_jl`` by ``t = ±eps`` changes task l's loss by at least ``t * g_jl``
(``g`` the loss gradient), and the penalised-loss improvement of that move
at level ``lam`` is at most ``-t * g_jl / L + lam * (penalty drop)``. A task
whose candidates all have this bound at or below ``xi - 1e-9`` (less the
rounding bound) has no qualifying move and is skipped; otherwise, and always
in the clamp regime, all its candidates are evaluated exactly.

``FitResult.stats`` (a ``FitStats``) counts the accepted steps by kind, the
backward candidates and how many were evaluated exactly, and the task scans
by kernel. It is not part of the trace or of any report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import (
    Standardizer,
    WeightMatrix,
    _nll_from_logits,
    _weights_2d,
    empirical_loss_mtl,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    standardized_copy,
)

__all__ = [
    "DegenerateLabelsError",
    "SolverConfig",
    "StepRecord",
    "SolverTrace",
    "FitStats",
    "FitResult",
    "forward_step",
    "backward_step",
    "lambda_schedule_update",
    "fit",
    "validate_trace",
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


@dataclass(frozen=True)
class FitStats:
    """What one fit did, beyond its trace.

    forward_steps, backward_steps : accepted steps by kind.
    backward_candidates : nonzero coordinates offered a backward move, summed
        over all backward scans.
    backward_exact : of those, the ones whose loss was evaluated exactly; the
        rest were ruled out by the convexity bound.
    fast_scans : forward scans of one task with the fused kernel.
    clamp_scans : forward scans of one task with the clamped kernel because a
        candidate logit could reach the clamp.
    recheck_scans : clamped-kernel rescans of a task whose fused losses left
        the best move within rounding of another candidate or of the current
        loss.
    """

    forward_steps: int = 0
    backward_steps: int = 0
    backward_candidates: int = 0
    backward_exact: int = 0
    fast_scans: int = 0
    clamp_scans: int = 0
    recheck_scans: int = 0


@dataclass(frozen=True, eq=False)
class FitResult:
    weights: WeightMatrix
    trace: SolverTrace
    lambda_final: float
    standardization: tuple[Standardizer, ...]
    stats: FitStats = FitStats()


# Below this logit magnitude expit stays inside [PROB_CLAMP, 1 - PROB_CLAMP]
# (-log(PROB_CLAMP) = 27.63): the clamp is inactive, the loss is convex and
# the fused kernel's exp() terms stay below e**27.
_CLAMP_FREE_REACH = 27.0
# Backward candidates whose improvement bound comes this close to xi are
# evaluated exactly.
_SCREEN_SLACK = 1e-9
_ULP = float(np.finfo(float).eps)


def _cross_task_sums(per_task_losses):
    # exact "sum of the other tasks" terms, computed directly so that a
    # candidate on task l compares by its own loss without cancellation noise
    return [
        sum(per_task_losses[m] for m in range(len(per_task_losses)) if m != l)
        for l in range(len(per_task_losses))
    ]


class _TaskTerms:
    """One task's data and its part of the iterate: logits, loss, gradient."""

    def __init__(self, task, w, epsilon: float):
        self.X = task.features
        self.y = task.labels.astype(float)
        self.s = 1.0 - 2.0 * self.y
        self.eps = epsilon
        self.eps_x_max = epsilon * float(np.abs(self.X).max())
        self._eps_s = (epsilon * self.s)[:, None]
        self.update(w)

    def update(self, w):
        """Recompute logits and loss from scratch for the weight column ``w``."""
        self.z = self.X @ w
        self.loss = float(_nll_from_logits(self.z, self.y))
        # the largest logit magnitude a one-step candidate can reach
        self.reach = float(np.abs(self.z).max()) + self.eps_x_max
        self._gradient = None
        self._bound = None

    @property
    def clamp_free(self) -> bool:
        return self.reach < _CLAMP_FREE_REACH

    def error_bound(self) -> float:
        """Bound on |fused - clamped| over this task's candidate losses.

        Valid while clamp-free. The clamped kernel's ``log(1 - p)`` is off by
        up to ~3 ulp * e**u on a sample misclassified at margin ``u``, and
        ``e**u <= exp(s * z) * exp(eps * max|X|)`` for every candidate. Both
        kernels also round each element and sum ``n`` elements of size up to
        ``reach + 1``.
        """
        if self._bound is None:
            margins = float(np.exp(self.s * self.z).mean()) * np.exp(self.eps_x_max)
            self._bound = _ULP * (8.0 * margins + 2.0 * self.z.shape[0] * (self.reach + 1.0))
        return self._bound

    def scan_fused(self, buf):
        """Losses of the + and - moves of every feature, and the error bound."""
        buf = buf[: self.X.size].reshape(self.X.shape)
        sz = (self.s * self.z)[:, None]
        losses = []
        for eps_s in (self._eps_s, -self._eps_s):
            np.multiply(self.X, eps_s, out=buf)
            np.add(buf, sz, out=buf)
            np.exp(buf, out=buf)
            np.log1p(buf, out=buf)
            losses.append(buf.mean(axis=0))
        return losses[0], losses[1], self.error_bound()

    def scan_clamped(self):
        """The same as ``scan_fused`` with the clamped kernel; no error."""
        return (
            _nll_from_logits(self.z[:, None] + self.eps * self.X, self.y),
            _nll_from_logits(self.z[:, None] - self.eps * self.X, self.y),
            0.0,
        )

    def gradient(self):
        if self._gradient is None:
            self._gradient = self.X.T @ (expit(self.z) - self.y) / self.z.shape[0]
        return self._gradient

    def moved_losses(self, idx, signs):
        """Clamped losses after moving each weight ``idx[a]`` by ``eps * signs[a]``."""
        Z = self.z[:, None] + (self.eps * signs)[None, :] * self.X[:, idx]
        return np.atleast_1d(_nll_from_logits(Z, self.y))


class _PathState:
    """The iterate of one path: weights, per-task terms, row norms, penalty."""

    def __init__(self, tasks, weights, epsilon: float):
        self.eps = epsilon
        self.W = np.array(weights, dtype=float)
        self.tasks = [_TaskTerms(t, self.W[:, l], epsilon) for l, t in enumerate(tasks)]
        self.tally = Counter()  # FitStats field -> count
        self._buf = np.empty(max(t.X.size for t in self.tasks))
        self._refresh_totals()

    def _refresh_totals(self):
        self.losses = [t.loss for t in self.tasks]
        self.empirical = sum(self.losses) / len(self.losses)
        # the same operations as model.l21_norm, so the penalty is bit-identical
        self.row_norms = np.sqrt((self.W * self.W).sum(axis=1))
        self.penalty = float(self.row_norms.sum())

    def screening_terms(self):
        """Per-task gradients (n_features, n_tasks) and backward screening slack.

        A clamp-regime task gets a zero gradient and an infinite slack, so
        every one of its candidates is evaluated exactly.
        """
        gradients = np.zeros(self.W.shape)
        slack = np.full(len(self.tasks), np.inf)
        for l, terms in enumerate(self.tasks):
            if terms.clamp_free:
                gradients[:, l] = terms.gradient()
                slack[l] = _SCREEN_SLACK + 2.0 * terms.error_bound()
        return gradients, slack

    def set_weight(self, feature: int, task: int, value: float):
        self.W[feature, task] = value
        self.tasks[task].update(self.W[:, task])
        self._refresh_totals()

    def scan(self, task: int, recheck: bool = False):
        """Forward candidate losses of one task: (plus, minus, error bound)."""
        terms = self.tasks[task]
        if recheck:
            self.tally["recheck_scans"] += 1
            return terms.scan_clamped()
        if terms.clamp_free:
            self.tally["fast_scans"] += 1
            return terms.scan_fused(self._buf)
        self.tally["clamp_scans"] += 1
        return terms.scan_clamped()


def _forward_move(state: _PathState):
    """Best forward move as (feature, task, sign, empirical loss after), or None.

    The winner is the lowest post-move empirical loss over all
    2 * n_features * n_tasks candidates, ties broken toward the lowest
    feature, then task, then the positive direction; it must strictly lower
    the loss of the task it touches.
    """
    L = len(state.tasks)
    others = _cross_task_sums(state.losses)
    cand = np.empty((state.W.shape[0], L, 2))
    scans = [None] * L

    def fill(l, recheck=False):
        scans[l] = plus, minus, bound = state.scan(l, recheck)
        cand[:, l, 0] = (others[l] + plus) / L
        cand[:, l, 1] = (others[l] + minus) / L
        return bound

    bounds = np.array([fill(l) for l in range(L)])
    # C-order argmin realizes the (feature, task, +before-) tie-break
    j, l, s = np.unravel_index(int(np.argmin(cand)), cand.shape)
    if bounds.any():
        close = cand <= cand[j, l, s] + ((bounds + bounds[l]) / L)[None, :, None]
        close[j, l, s] = False
        near_current = abs(scans[l][s][j] - state.losses[l]) <= bounds[l]
        if close.any() or near_current:
            for m in np.flatnonzero(bounds):
                fill(m, recheck=True)
            j, l, s = np.unravel_index(int(np.argmin(cand)), cand.shape)
    if not scans[l][s][j] < state.losses[l]:
        return None
    return int(j), int(l), 1 if s == 0 else -1, float(cand[j, l, s])


def _backward_move(state: _PathState, xi: float, lam: float) -> StepCandidate | None:
    """Best qualifying magnitude-decreasing move at level ``lam``, or None.

    Each nonzero weight moves by ``epsilon`` toward zero. A move qualifies
    when it lowers the penalised loss by more than ``xi``; the lowest
    post-move empirical loss wins, ties toward low feature then task index.
    """
    L = len(state.tasks)
    eps = state.eps
    pen_now = state.penalty
    rows, cols = np.nonzero(state.W)
    w_vals = state.W[rows, cols]
    signs = -np.sign(w_vals)
    w_new = w_vals + eps * signs
    norms = state.row_norms[rows]
    r_new = np.sqrt(np.maximum(norms**2 - w_vals**2 + w_new**2, 0.0))
    pen_after = pen_now - norms + r_new
    state.tally["backward_candidates"] += rows.size

    # Convexity: a move changes its task's loss by at least eps * sign * g,
    # which bounds the penalised-loss gain. No bound in the clamp regime.
    gradients, slack = state.screening_terms()
    gain_bound = -(eps * signs) * gradients[rows, cols] / L + lam * (pen_now - pen_after)
    exact_tasks = np.zeros(L, dtype=bool)
    exact_tasks[cols[gain_bound > xi - slack[cols]]] = True

    others = _cross_task_sums(state.losses)
    total_before = state.empirical + lam * pen_now
    best = None
    best_key = None
    for l in np.flatnonzero(exact_tasks):
        sel = np.flatnonzero(cols == l)
        idx = rows[sel]
        state.tally["backward_exact"] += idx.size
        emp_after = (others[l] + state.tasks[l].moved_losses(idx, signs[sel])) / L
        total_after = emp_after + lam * pen_after[sel]
        for a in np.flatnonzero(total_before - total_after > xi):
            key = (float(emp_after[a]), int(idx[a]), int(l))
            if best_key is None or key < best_key:
                best_key = key
                best = StepCandidate(
                    feature=int(idx[a]),
                    task=int(l),
                    sign=int(signs[sel[a]]),
                    empirical_after=float(emp_after[a]),
                    penalty_after=float(pen_after[sel[a]]),
                    total_after=float(total_after[a]),
                )
    return best


def forward_step(weights, tasks, config: SolverConfig) -> StepCandidate | None:
    """Best single-coordinate move of size ``epsilon`` in either direction.

    Scans all 2 * n_features * n_tasks candidates and returns the one with
    the lowest post-move empirical loss, provided it strictly improves the
    loss of the task it touches. Ties break toward the lowest feature
    index, then the lowest task index, then the positive direction.
    Returns None when no move reduces the empirical loss.
    """
    tasks = tuple(tasks)
    W = _weights_2d(weights, (tasks[0].n_features, len(tasks)))
    state = _PathState(tasks, W, config.epsilon)
    move = _forward_move(state)
    if move is None:
        return None
    j, l, sign, empirical_after = move
    row = W[j, :]
    r_old = float(np.sqrt(row @ row))
    w_new = row[l] + sign * config.epsilon
    r_new = float(np.sqrt(max(r_old**2 - row[l] ** 2 + w_new**2, 0.0)))
    return StepCandidate(
        feature=j,
        task=l,
        sign=sign,
        empirical_after=empirical_after,
        penalty_after=state.penalty - r_old + r_new,
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
    W = _weights_2d(weights, (tasks[0].n_features, len(tasks)))
    if not np.any(W != 0.0):
        return None
    return _backward_move(_PathState(tasks, W, config.epsilon), config.xi, lam)


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
    state = _PathState(std_tasks, counts * config.epsilon, config.epsilon)
    lam: float | None = None
    steps: list[StepRecord] = []
    terminated = TERMINATED_MAX_ITERS

    for iteration in range(1, config.max_iters + 1):
        step = None
        if lam is not None and counts.any():
            cand = _backward_move(state, config.xi, lam)
            if cand is not None:
                step = ("backward", cand.feature, cand.task, cand.sign)
        emp_before, pen_before = state.empirical, state.penalty
        if step is None:
            move = _forward_move(state)
            if move is None:
                terminated = TERMINATED_NO_IMPROVING_STEP
                break
            step = ("forward", *move[:3])
        kind, j, l, sign = step
        counts[j, l] += sign
        state.set_weight(j, l, counts[j, l] * config.epsilon)
        state.tally[kind + "_steps"] += 1
        emp, pen = state.empirical, state.penalty
        if kind == "forward":
            lam = lambda_schedule_update(lam, emp_before, emp, pen_before, pen)
        steps.append(StepRecord(iteration, kind, j, l, sign, emp, pen, emp + lam * pen, lam))
        if lam is not None and lam <= config.lambda_floor:
            terminated = TERMINATED_LAMBDA_FLOOR
            break

    return FitResult(
        weights=WeightMatrix(counts * config.epsilon),
        trace=SolverTrace(tuple(steps), terminated),
        lambda_final=lam if lam is not None else 0.0,
        standardization=standardizers,
        stats=FitStats(**state.tally),
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
