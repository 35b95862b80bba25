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

``fit`` runs one path from zero weights. ``fit_xis`` runs configs that
differ only in ``xi`` on one path, forking it where they pick different
backward moves; each result equals its own ``fit`` bit for bit.
``forward_step`` and ``backward_step`` take one decision at given weights
through the same code. Whatever kernel, kept scan or screen settles a
decision, the move is the one the clamped cross-entropy kernel
(``model._nll_from_probs``) picks, and every loss in a trace is the one a
full recomputation gives. ``FitResult.stats`` (a ``FitStats``) counts what
a path did; it is not part of the trace or of any report.

How it is computed (the path state and per-task terms, the kept forward
scans and their offers, the fused and clamped kernels and the error bound
between them, the half-scan of large clamp-free tasks, which scans only each
feature's descent sign, the backward screen, the shared ``xi`` paths) is set
out once, in README.md under "How the solver is computed".
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import model
from .model import (
    PROB_CLAMP,
    Standardizer,
    WeightMatrix,
    _check_int,
    _check_real,
    _nll_from_probs,
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
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon, above=0))
        object.__setattr__(self, "xi", _check_real("xi", self.xi, above=0))
        if not self.epsilon > self.xi:
            raise ValueError(
                f"step size epsilon ({self.epsilon}) must exceed tolerance xi ({self.xi})"
            )
        object.__setattr__(self, "max_iters", _check_int("max_iters", self.max_iters, 1))
        lambda_floor = _check_real("lambda_floor", self.lambda_floor, at_least=0)
        object.__setattr__(self, "lambda_floor", lambda_floor)


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

    The counts cover the result's whole path. A prefix shared with other
    tolerances in ``fit_xis`` is counted once per result and was screened at
    the smallest tolerance on it, so ``backward_exact`` can exceed what a
    solo ``fit`` evaluates.

    forward_steps, backward_steps : accepted steps by kind.
    backward_candidates : nonzero coordinates offered a backward move, summed
        over all backward scans.
    backward_exact : of those, the ones whose loss was evaluated exactly:
        every nonzero weight of each task, in either regime, whose screening
        bound passes; that bound rules out the rest.
    fused_scans : runs of the fused kernel: a forward scan of one task whose
        logits stay clamp-free, run the first time the backward screen or a
        forward search reads the task since a step last touched it.
    clamped_scans : runs of the clamped kernel for such a scan of a task
        whose candidate logits could reach the clamp.
    recheck_scans : clamped-kernel rescans, one of each task whose scan
        carries a nonzero error bound in each forward search the offers leave
        undecided. ``fused_scans + clamped_scans + recheck_scans`` is the
        number of kernel runs.
    """

    forward_steps: int = 0
    backward_steps: int = 0
    backward_candidates: int = 0
    backward_exact: int = 0
    fused_scans: int = 0
    clamped_scans: int = 0
    recheck_scans: int = 0


@dataclass(frozen=True, eq=False)
class FitResult:
    weights: WeightMatrix
    trace: SolverTrace
    lambda_final: float
    standardization: tuple[Standardizer, ...]
    stats: FitStats = FitStats()


# Below this logit magnitude expit stays inside [PROB_CLAMP, 1 - PROB_CLAMP]
# (-log(PROB_CLAMP) = 27.63, the largest clamped loss of one sample): the
# clamp is inactive, the loss is convex and exp() terms stay below e**27.
_CLAMP_FREE_REACH = 27.0
_CLAMP_LOSS = -float(np.log(PROB_CLAMP))
# Clamp-free tasks of this many elements (samples x features) or more are half-scanned.
_HALF_SCAN_MIN = 8192
# A task whose backward screening bound comes this close to xi is evaluated
# exactly.
_SCREEN_SLACK = 1e-9
_ULP = float(np.finfo(float).eps)


class _TaskTerms:
    """One task's data and every solver term that depends on its weight
    column alone: logits, loss, the forward scan's per-sample factor and
    error bound, the nonzero weights' index and signs, and the forward scan
    kept at this column once it is evaluated.

    ``update`` replaces these arrays and never writes into them, so a fork's
    shallow copy shares them until one side steps the task. The fused
    kernel's table ``exp(±eps * s * X)`` depends on no weight: the first full
    scan forms it, and a path scans every task before it can fork. A
    half-scanned task forms only its ``descent`` plane, which is written in
    place and never shared with a fork.
    """

    def __init__(self, task, w, epsilon: float):
        self.X = task.features
        self.y = task.labels.astype(float)
        self.comp = 1.0 - self.y
        self.s = 1.0 - 2.0 * self.y
        self.eps = epsilon
        self.eps_s = np.array([epsilon * self.s, -(epsilon * self.s)])
        self.eps_x_max = epsilon * float(np.abs(self.X).max())
        # exp(eps * max|X|), formed only where the task can be clamp-free: it
        # overflows on a raw-scale task
        self.exp_eps_x_max = np.exp(self.eps_x_max) if self.eps_x_max < _CLAMP_FREE_REACH else None
        self.exp_table = None
        self.descent = None  # the half-scan's (code, plane, idx)
        self.update(w)

    def update(self, w):
        """Recompute every term from scratch for the weight column ``w``.

        In the clamp regime there is no fused scan, and ``bound`` caps ``reach``
        at the clamp (README). ``eg = eps * X.T @ (p - y) / n`` is None unless half-scanned.
        """
        n = self.X.shape[0]
        self.z = self.X @ w
        # the largest logit magnitude a one-step candidate can reach
        self.reach = float(np.maximum.reduce(np.abs(self.z))) + self.eps_x_max
        prob = model.expit(self.z)
        self.loss = float(_nll_from_probs(prob, self.y, self.comp, not self.clamp_free))
        self.last_scan = None  # the forward scan at this w, its offer and back_best (_PathState)
        if self.clamp_free:
            # exp(s * z), the fused kernel's per-sample factor, below e**27
            self.exp_sz = np.exp(self.s * self.z)
            # the sum and division of .mean(), without its overhead
            margins = float(np.add.reduce(self.exp_sz) / n) * self.exp_eps_x_max
            self.bound = _ULP * (8.0 * margins + 2.0 * n * (self.reach + 1.0))
            self.margin = 3.0 * self.bound + (n + 3.0) * _ULP * self.eps_x_max
            half = self.X.size >= _HALF_SCAN_MIN
            self.eg = self.X.T @ (prob - self.y) * (self.eps / n) if half else None
        else:
            self.exp_sz, self.bound, self.eg = None, _ULP * 2.0 * n * (_CLAMP_LOSS + 1.0), None
        # the nonzero weights' index and signs
        self.nz = w.nonzero()[0]
        self.signs = np.sign(w[self.nz])

    @property
    def clamp_free(self) -> bool:
        return self.reach < _CLAMP_FREE_REACH

    def scan_fused(self, buf):
        """Losses of the + and - moves of every feature as the rows of a
        (2, n_features) array, both signs in one pass; and the error bound.
        One ``log1p`` and one multiply per element: ``log1p(exp(±eps * s *
        X) * exp(s * z))``, from the fixed table, formed on the first call.
        A half-scan (``eg`` formed) drops non-descent moves as inf (``_descent_plane``).

        ``bound`` covers |fused - clamped| over these losses. The clamped
        kernel's ``log(1 - p)`` is off by up to ~3 ulp * e**u on a sample
        misclassified at margin ``u``, and ``e**u <= exp(s * z) * exp(eps *
        max|X|)`` for every candidate. Both kernels also round each element
        and sum ``n`` elements of size up to ``reach + 1``. The fused kernel
        forms ``e**u`` as a product of two ``exp`` results, about 3 ulp off
        relative, which moves ``log1p(e**u)`` by at most a few ulp per
        element: the ``margins`` term and the ``2 * n * (reach + 1)`` ulp of
        the sum term cover both, for any order of the sum (README), so also
        for the clamped kernel on a subset of the columns.
        """
        if self.eg is None and self.exp_table is None:
            # clamp-free implies eps * max|X| < 27, so no exp overflows
            self.exp_table = np.exp(self.X * self.eps_s[:, :, None])
        plane, idx = (self.exp_table, None) if self.eg is None else self._descent_plane()
        buf = buf[: plane.size].reshape(plane.shape)
        np.multiply(plane, self.exp_sz[:, None], out=buf)
        np.log1p(buf, out=buf)
        # the sample axis of either shape, summed in the same order
        sums = np.add.reduce(buf, axis=-2) / self.X.shape[0]
        if idx is not None:
            losses = np.full(2 * self.X.shape[1], np.inf)
            losses[idx] = sums
            sums = losses.reshape(2, -1)
        return sums, self.bound

    def _descent_plane(self):
        """The kept (n, n_features + k) plane and each column's flat index in
        the scan: the + move where ``code`` is 0 (``eg_j < -margin``) or 1
        (``|eg_j|`` within it), the - move at 2, then the - moves of the k at
        1. Only columns whose code moved between 0 and 2 are rewritten."""
        code = np.array([-self.margin, self.margin]).searchsorted(self.eg, side="right")
        flip = None if self.descent is None else (code != self.descent[0]).nonzero()[0]
        if flip is not None and not flip.size:
            return self.descent[1:]
        if flip is not None and 1 not in code[flip] and 1 not in self.descent[0][flip]:
            _, plane, idx = self.descent
            rows = code[flip] // 2
            plane[:, flip] = self._table_columns(flip, rows)
            idx[flip] = rows * code.size + flip
        else:
            both = (code == 1).nonzero()[0]
            cols = np.concatenate([np.arange(code.size), both])
            rows = np.concatenate([code // 2, np.ones_like(both)])
            plane, idx = self._table_columns(cols, rows), rows * code.size + cols
        self.descent = (code, plane, idx)
        return plane, idx

    def _table_columns(self, cols, rows):
        """Columns ``cols`` of the fused table, each in sign row ``rows[a]``, bit for bit."""
        return np.exp(np.multiply(self.X[:, cols], self.eps_s[rows].T, order="C"))

    def scan_clamped(self):
        """The same as ``scan_fused`` with the clamped kernel; no error."""
        return np.array([self.moved_losses(slice(None), sign) for sign in (1.0, -1.0)]), 0.0

    def moved_losses(self, idx, signs):
        """Clamped losses after moving each weight ``idx[a]`` by ``eps * signs[a]``;
        ``idx`` may be a slice and ``signs`` one sign for all of them."""
        Z = self.z[:, None] + self.eps * signs * self.X[:, idx]
        return _nll_from_probs(model.expit(Z), self.y, self.comp, not self.clamp_free)


class _PathState:
    """The whole iterate of one path from zero weights: counts, weights, task
    terms, and what couples the tasks (row norms, penalty, loss sums), with
    the level, steps and tally. Built from given ``weights`` it is a step
    function's probe: searched, never stepped, and without counts."""

    def __init__(self, tasks, epsilon: float, weights=None):
        self.eps = epsilon
        shape = (tasks[0].n_features, len(tasks))
        self.W = np.zeros(shape) if weights is None else np.array(weights, dtype=float)
        self.counts = np.zeros(shape, dtype=np.int64) if weights is None else None
        self.nonzero = int(np.count_nonzero(self.W))
        self.tasks = [_TaskTerms(t, self.W[:, l], epsilon) for l, t in enumerate(tasks)]
        # the same operations as model.l21_norm, so the penalty is bit-identical
        self.row_norms = np.sqrt((self.W * self.W).sum(axis=1))
        self.lam = None
        self.steps = []
        self.tally = Counter()  # FitStats field -> count
        self._buf = np.empty(2 * max(t.X.size for t in self.tasks))
        self._refresh_totals()

    def _refresh_totals(self):
        self.losses = [t.loss for t in self.tasks]
        self.empirical = sum(self.losses) / len(self.losses)
        # exact "sum of the other tasks" terms, computed directly so that a
        # candidate on task l compares by its own loss without cancellation noise
        self.others = [sum(self.losses[:l] + self.losses[l + 1:]) for l in range(len(self.losses))]
        self.penalty = float(np.add.reduce(self.row_norms))

    def screen_bounds(self, lam: float) -> list:
        """Each task's bound on the penalised-loss gain of its backward moves
        at level ``lam``, read from its forward scan (``scan``): ``empirical
        - (others[l] + back_best - bound) / L + lam * eps``, widened by a few
        ulp of ``empirical`` and of ``lam`` times the penalty (derived in
        README), with ``bound`` the task's ``_TaskTerms.bound``; -inf for a
        task without a nonzero weight.
        """
        L, eps, emp, others = len(self.tasks), self.eps, self.empirical, self.others
        lam_eps = lam * eps
        margin = 8.0 * (L + 4) * _ULP * (emp + lam * (self.penalty + eps))
        bounds = []
        for l, terms in enumerate(self.tasks):
            if not terms.nz.size:
                bounds.append(-np.inf)
            else:
                bound = emp - (others[l] + self.scan(l)[5] - terms.bound) / L + lam_eps
                bounds.append(bound + 2.0 * _ULP * abs(bound) + margin)
        return bounds

    def apply(self, kind: str, j: int, l: int, sign: int):
        """Move weight (j, l) one lattice step by ``sign`` and record the step."""
        emp_before, pen_before = self.empirical, self.penalty
        count = int(self.counts[j, l])
        self.counts[j, l] = count + sign
        self.nonzero += (count == 0) - (count + sign == 0)
        self.W[j, l] = (count + sign) * self.eps
        self.tasks[l].update(self.W[:, l])
        row = self.W[j]
        self.row_norms[j] = np.sqrt(np.add.reduce(row * row))
        self._refresh_totals()
        self.tally[kind + "_steps"] += 1
        emp, pen, lam = self.empirical, self.penalty, self.lam
        if kind == "forward":
            lam = self.lam = lambda_schedule_update(lam, emp_before, emp, pen_before, pen)
        self.steps.append(
            StepRecord(len(self.steps) + 1, kind, j, l, sign, emp, pen, emp + lam * pen, lam)
        )

    def penalty_after(self, j, l, w_new):
        """The penalty once weight (j, l) is ``w_new``; scalars or arrays of moves."""
        norms = self.row_norms[j]
        w = self.W[j, l]
        return self.penalty - norms + np.sqrt(np.maximum(norms**2 - w**2 + w_new**2, 0.0))

    def scan(self, task: int):
        """Forward candidate losses of one task: (2, n_features) losses of the
        + and - moves, error bound, the task's offer (``_offer``), then its
        ``_back_best``. A task untouched since its last scan gets that scan
        back; otherwise its kernel runs, counted, and the scan is kept."""
        terms = self.tasks[task]
        if terms.last_scan is None:
            self.tally["fused_scans" if terms.clamp_free else "clamped_scans"] += 1
            losses, bound = terms.scan_fused(self._buf) if terms.clamp_free else terms.scan_clamped()
            terms.last_scan = (losses, bound, *_offer(losses), _back_best(losses, terms))
        return terms.last_scan

    def copy(self) -> "_PathState":
        """An independent iterate: a fork of the path. Each task's terms are
        copied shallowly, so their arrays and kept scan stay shared until one
        side steps that task; the copy forms its own descent plane."""
        twin = copy.copy(self)
        for name in ("W", "counts", "row_norms"):
            setattr(twin, name, getattr(self, name).copy())
        twin.tasks = [copy.copy(t) for t in self.tasks]
        for terms in twin.tasks:
            terms.descent = None
        twin.steps = list(self.steps)
        twin.tally = Counter(self.tally)
        return twin


def _forward_move(state: _PathState):
    """Best forward move as ("forward", feature, task, sign, loss after), or None.

    The winner is the lowest post-move empirical loss over all
    2 * n_features * n_tasks candidates, ties broken toward the lowest
    feature, then task, then the positive direction; it must strictly lower
    the loss of the task it touches. The lowest offer, at empirical loss
    ``c`` on task ``l``, decides alone when its runner-up and every other
    task's best lie strictly outside ``c + (b_m + b_l) / L`` (``b`` the
    scans' error bounds) and its task's loss moves by more than ``b_l``.
    Otherwise each task whose scan carries a bound is rescanned once with
    the clamped kernel, and the exact candidates decide.
    """
    L = len(state.tasks)
    others = state.others
    scans = [state.scan(l) for l in range(L)]
    best = [(o + scan[3]) / L for o, scan in zip(others, scans)]
    c = min(best)
    l = best.index(c)
    losses, b_l, i, loss, runner_up, _ = scans[l]
    if ((others[l] + runner_up) / L > c + (b_l + b_l) / L
            and abs(loss - state.losses[l]) > b_l
            and all(m == l or best[m] > c + (scan[1] + b_l) / L for m, scan in enumerate(scans))):
        s, j = divmod(i, losses.shape[1])
    else:
        state.tally["recheck_scans"] += sum(1 for scan in scans if scan[1])
        scans = [state.tasks[m].scan_clamped() if scan[1] else scan for m, scan in enumerate(scans)]
        # cand[l, s, j]: the empirical loss after moving (j, l) by sign s; the
        # argmin over its (j, l, s) view realizes the tie-break
        cand = np.array([o + scan[0] for o, scan in zip(others, scans)]) / L
        k = int(np.argmin(cand.transpose(2, 0, 1)))
        j, l, s = k // (2 * L), k // 2 % L, k % 2
        c, loss = float(cand[l, s, j]), scans[l][0][s, j]
    if not loss < state.losses[l]:
        return None
    return "forward", j, l, 1 - 2 * s, c


def _offer(losses):
    """A task's offer from its forward losses, a fresh scan not yet shared:
    the flat index and loss of the lowest, and the next lowest loss (equal
    to it on a tie). ``argmin`` picks a nan first, ``min`` returns a nan
    left among the rest, and a nan offer settles no search."""
    flat = losses.ravel()
    i = int(flat.argmin())
    loss = float(flat[i])
    flat[i] = np.inf  # the fresh scan's own array, restored below
    runner_up = float(flat.min())
    flat[i] = loss
    return i, loss, runner_up


def _back_best(losses, terms) -> float:
    """The lowest of a task's forward losses among the moves toward zero:
    the - move of a positive weight, the + move of a negative one; a dropped
    move at its tangent bound ``loss + |eg_j| - margin`` (README)."""
    if not terms.nz.size:
        return np.inf
    rows = (terms.signs > 0).view(np.int8)
    back = losses[rows, terms.nz]
    if terms.eg is not None:
        back = np.where(back == np.inf, terms.loss + np.abs(terms.eg[terms.nz]) - terms.margin, back)
    return float(np.minimum.reduce(back))


def _backward_moves(state: _PathState, xis, lam: float) -> list:
    """Best qualifying magnitude-decreasing move for each of ``xis`` at level ``lam``.

    Each nonzero weight moves by ``epsilon`` toward zero. A move qualifies
    for a tolerance ``xi`` when it lowers the penalised loss by more than
    ``xi``; the lowest post-move empirical loss wins, ties toward low
    feature then task index. The exact losses are evaluated once, screened
    at the smallest tolerance: screening never drops a candidate that
    qualifies there, so it drops none that qualifies for a larger one.
    Returns one move, ("backward", feature, task, sign, loss after, penalty
    after, total after), or None, per tolerance.
    """
    L = len(state.tasks)
    xi_min = min(xis)
    state.tally["backward_candidates"] += state.nonzero
    total_before = state.empirical + lam * state.penalty
    qualifying = []  # (key, gain, move) of the moves that qualify at xi_min
    for l, (terms, task_bound) in enumerate(zip(state.tasks, state.screen_bounds(lam))):
        # the task's bound covers the gain of each of its moves; nearly every
        # decision ends here
        if task_bound <= xi_min - _SCREEN_SLACK:
            continue
        # every nonzero coordinate of the task, in ascending order: the shape
        # of the reference's scan, since the clamped kernel rounds a column
        # subset differently from the same columns of a whole-task scan
        idx = terms.nz
        pen_after = state.penalty_after(idx, l, state.W[idx, l] - state.eps * terms.signs)
        state.tally["backward_exact"] += idx.size
        emp_after = (state.others[l] + terms.moved_losses(idx, -terms.signs)) / L
        total_after = emp_after + lam * pen_after
        gain = total_before - total_after
        for a in (gain > xi_min).nonzero()[0]:
            j, emp, pen = int(idx[a]), float(emp_after[a]), float(pen_after[a])
            move = ("backward", j, l, -int(terms.signs[a]), emp, pen, float(total_after[a]))
            qualifying.append(((emp, j, l), float(gain[a]), move))
    if not qualifying:
        return [None] * len(xis)
    qualifying.sort(key=lambda q: q[0])
    return [next((m for _, g, m in qualifying if g > xi), None) for xi in xis]


def _probe(weights, tasks, epsilon: float) -> _PathState:
    """The probe state of a step function at ``weights`` on ``tasks``."""
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("tasks must hold at least one task")
    _validated_tasks(tasks)
    W = _weights_2d(weights, (tasks[0].n_features, len(tasks)))
    return _PathState(tasks, epsilon, W)


def forward_step(weights, tasks, config: SolverConfig) -> StepCandidate | None:
    """Best single-coordinate move of size ``epsilon`` in either direction.

    Scans all 2 * n_features * n_tasks candidates and returns the one with
    the lowest post-move empirical loss, provided it strictly improves the
    loss of the task it touches. Ties break toward the lowest feature
    index, then the lowest task index, then the positive direction.
    Returns None when no move reduces the empirical loss.
    """
    state = _probe(weights, tasks, config.epsilon)
    move = _forward_move(state)
    if move is None:
        return None
    _, j, l, sign, empirical_after = move
    penalty_after = float(state.penalty_after(j, l, state.W[j, l] + sign * config.epsilon))
    return StepCandidate(j, l, sign, empirical_after, penalty_after)


def backward_step(weights, tasks, config: SolverConfig, lam: float) -> StepCandidate | None:
    """Best magnitude-decreasing move at the current regularisation level.

    Considers every nonzero coordinate moved by ``epsilon`` toward zero and
    keeps the candidates whose penalised loss at ``lam`` improves on the
    current one by more than ``xi``; among those the lowest post-move
    empirical loss wins (ties toward low feature then task index).
    Returns None when no move qualifies.
    """
    _check_real("lam", lam, at_least=0)
    state = _probe(weights, tasks, config.epsilon)
    if not state.nonzero:
        return None
    move = _backward_moves(state, [config.xi], lam)[0]
    return None if move is None else StepCandidate(*move[1:])


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
    return fit_xis(tasks, [config], standardize=standardize)[0]


def fit_xis(tasks, configs, *, standardize: bool = True) -> tuple[FitResult, ...]:
    """``fit`` for configs that differ only in ``xi``, sharing one path.

    Forward moves do not depend on ``xi``, so the configs follow one path
    until their tolerances pick different backward moves; there the path
    forks, and each fork carries a copy of the iterate. Every result equals
    ``fit(tasks, config)`` for its config, trace and weights bit for bit;
    its ``stats`` count its whole path, with a shared prefix screened at the
    smallest tolerance on it. Configs whose paths never fork share one
    result object. Returns one result per config, in order.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("fit_xis requires at least one config")
    base = configs[0]
    shared = (base.epsilon, base.max_iters, base.lambda_floor)
    if any((c.epsilon, c.max_iters, c.lambda_floor) != shared for c in configs):
        raise ValueError("configs must differ only in xi")
    tasks = _validated_tasks(tasks)
    n_feat = tasks[0].n_features
    if standardize:
        standardizers = tuple(Standardizer.fit(t.features) for t in tasks)
    else:
        standardizers = tuple(Standardizer.identity(n_feat) for _ in tasks)
    std_tasks = tuple(standardized_copy(t, std) for std, t in zip(standardizers, tasks))

    pending = [(list(range(len(configs))), _PathState(std_tasks, base.epsilon))]
    results: list[FitResult | None] = [None] * len(configs)
    while pending:
        members, state = pending.pop()
        terminated, members = _run_path(state, members, configs, pending)
        result = FitResult(
            weights=WeightMatrix(state.counts * base.epsilon),
            trace=SolverTrace(tuple(state.steps), terminated),
            lambda_final=state.lam if state.lam is not None else 0.0,
            standardization=standardizers,
            stats=FitStats(**state.tally),
        )
        for i in members:
            results[i] = result
    return tuple(results)


def _run_path(state: _PathState, members, configs, pending: list):
    """Advance one path to its end; returns the termination reason and the
    configs that end on it.

    Where the path's configs pick different moves, the ones that go forward
    stay (or else the first backward move's), and every other move forks the
    path: a copy of the iterate takes that move and goes on ``pending``.
    """
    base = configs[0]
    while len(state.steps) < base.max_iters:
        move = None
        if state.lam is not None and state.nonzero:
            moves = _backward_moves(state, [configs[i].xi for i in members], state.lam)
            if any(moves):
                groups: dict = {}  # move -> members choosing it; None goes forward
                for i, move in zip(members, moves):
                    groups.setdefault(move, []).append(i)
                move = None if None in groups else next(iter(groups))
                members = groups.pop(move)
                for other, group in groups.items():
                    fork = state.copy()
                    fork.apply(*other[:4])
                    pending.append((group, fork))
        move = move or _forward_move(state)
        if move is None:
            return TERMINATED_NO_IMPROVING_STEP, members
        state.apply(*move[:4])
        if state.lam <= base.lambda_floor:
            return TERMINATED_LAMBDA_FLOOR, members
    return TERMINATED_MAX_ITERS, members


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
