"""The solver against its frozen reference copy (tests/reference_solver.py).

Every problem of a seeded corpus must give the same step sequence, the same
termination reason and the same losses as the reference. The corpus is
built to reach each regime of the solver: accepted backward steps, the
clamp fallback on separable data, raw-scale inputs where the fused kernel
never applies, exact ties, with another move or with the current loss,
that force a recheck with the clamped kernel, and tasks large enough to be
half-scanned (the ``wide`` family, the only one at or over the gate).

A ladder of tolerances per problem checks the shared path of ``fit_xis``
against one ``fit`` per tolerance.

A generated corpus (a Hypothesis strategy, derandomized by the ``ci``
profile in ``conftest.py``) adds small problems with the same hard cases:
duplicated, constant and power-of-two-scaled columns, separable tasks and
raw-scale inputs, each with its own ladder, against the reference directly.

The paper cell (``paper_cell.py``), clamp-regime tasks of 240 samples on
long paths, must take the steps recorded in ``cell_golden/steps.json``.

The corpus and the cell also run in a subprocess with numpy's AVX-512
kernels switched off, where ``exp`` and ``log1p`` round differently, and
must take the same steps there.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import paper_cell
import pytest
import reference_solver
from hypothesis import given, settings
from hypothesis import strategies as st

from frfselect import SolverConfig, TaskDataset, backward_step, fit, forward_step, solver
from frfselect.solver import _PathState, _TaskTerms, fit_xis

EPSILONS = (0.02, 0.05, 0.1, 0.3, 0.5, 1.0)


def _problem(seed: int, family: str):
    """Tasks, config and ``standardize`` flag of one corpus problem."""
    if family == "wide":
        return _wide_problem(seed)
    rng = np.random.default_rng(seed)
    n_tasks = 1 + seed % 4
    n = int(rng.integers(20, 70))
    m = int(rng.integers(3, 10))
    eps = EPSILONS[seed % len(EPSILONS)]
    xi = 1e-4
    standardize = True
    beta = rng.normal(size=m)
    if family == "shared":
        # one design seen by every task, in correlated pairs: a row active in
        # several tasks gives its backward moves a smaller penalty drop than
        # a row active in one, so a larger xi can pick another backward move
        base = rng.normal(size=(n, m))
        for a in range(0, m - 1, 2):
            base[:, a + 1] = base[:, a] + 0.3 * rng.normal(size=n)
        beta *= 2.0
    tasks = []
    for l in range(n_tasks):
        X = rng.normal(size=(n, m))
        # a strongly correlated pair makes forward steps overshoot, so
        # backward steps get accepted
        X[:, 1] = X[:, 0] + 0.3 * rng.normal(size=n)
        if family == "shared":
            X = base + 0.2 * X
        z = X @ (beta + 0.5 * rng.normal(size=m))
        if family == "separable":
            y = (z > 0).astype(int)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        y[0], y[1] = 0, 1
        if family == "duplicate":
            # an exact copy ties every move of feature 0; a constant line
            # standardizes to zero and ties the current loss
            X[:, 2] = X[:, 0]
            X[:, m - 1] = 1.0
        if family == "raw":
            # unstandardized magnitudes: columns on scales 1 to 100 and one
            # line with a resonance peak near 1e3 in a few samples
            X = X * 10.0 ** rng.integers(0, 3, size=m)
            X[rng.integers(0, n, size=3), m - 1] = 1e3
        tasks.append(TaskDataset(X, y, np.arange(1.0, m + 1.0), f"t{l}"))
    if family == "separable":
        eps = max(eps, 0.5)
    if family == "raw":
        standardize = False
    return tasks, SolverConfig(eps, xi, max_iters=150), standardize


def _wide_problem(seed: int):
    """A problem whose tasks are at or over the half-scan's size gate: 1-3
    tasks of 100-160 samples and 82-100 lines. In each task line 2 copies
    line 0, which ties their moves, and the last line is constant, so it
    standardizes to zero and ``eg`` is exactly 0 there: both signs are
    scanned. The last task of a joint problem, and the one task of an odd
    seed, is separable, so its logits reach the clamp at the larger
    epsilons."""
    rng = np.random.default_rng(seed)
    n_tasks = 1 + seed % 3
    n, m = int(rng.integers(100, 161)), int(rng.integers(82, 101))
    eps = (0.02, 0.1, 0.3, 1.0)[seed % 4]
    beta = np.zeros(m)
    beta[:8] = rng.normal(size=8)
    tasks = []
    for l in range(n_tasks):
        X = rng.normal(size=(n, m))
        X[:, 1] = X[:, 0] + 0.3 * rng.normal(size=n)
        X[:, 2] = X[:, 0]
        X[:, m - 1] = 3.3
        z = X @ (beta + 0.3 * rng.normal(size=m) * (np.arange(m) < 8))
        if l == n_tasks - 1 and (n_tasks > 1 or seed % 2):
            y = (z > 0).astype(int)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        y[0], y[1] = 0, 1
        tasks.append(TaskDataset(X, y, np.arange(1.0, m + 1.0), f"t{l}"))
    return tasks, SolverConfig(eps, 1e-4, max_iters=150), True


# (family, seeds): 50 problems with 1-4 tasks and epsilon 0.02-1; the
# "shared" seeds include one (410) where two tolerances of the ladder below
# pick different backward moves, which few problems do; the "wide" problems
# are the only ones whose tasks are half-scanned
CORPUS = [
    ("noisy", range(0, 16)),
    ("separable", range(100, 108)),
    ("raw", range(200, 210)),
    ("duplicate", range(300, 306)),
    ("shared", range(408, 412)),
    ("wide", range(500, 506)),
]
PROBLEMS = [(family, seed) for family, seeds in CORPUS for seed in seeds]


def _codes(result):
    return [(s.kind, s.feature, s.task, s.sign) for s in result.trace.steps]


def _losses(result):
    return np.array(
        [
            [s.empirical_loss_after, s.penalty_after, s.total_loss_after, s.lambda_after]
            for s in result.trace.steps
        ]
    ).reshape(-1, 4)


def _assert_same_path(got, want):
    assert _codes(got) == _codes(want)
    assert got.trace.terminated_by == want.trace.terminated_by
    np.testing.assert_allclose(_losses(got), _losses(want), rtol=0, atol=1e-12)
    assert got.lambda_final == pytest.approx(want.lambda_final, rel=0, abs=1e-12)
    assert np.array_equal(got.weights.values, want.weights.values)


@pytest.fixture(scope="module")
def corpus_results():
    out = {}
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        out[family, seed] = (
            fit(tasks, cfg, standardize=standardize),
            reference_solver.fit(tasks, cfg, standardize=standardize),
        )
    return out


@pytest.mark.parametrize("family,seed", PROBLEMS)
def test_matches_reference(corpus_results, family, seed):
    got, want = corpus_results[family, seed]
    _assert_same_path(got, want)
    # the path state recomputes touched losses from scratch: bit-for-bit
    assert got.trace == want.trace


def test_corpus_reaches_every_regime(corpus_results):
    assert len(PROBLEMS) >= 30
    stats = {key: got.stats for key, (got, _) in corpus_results.items()}
    assert {got.weights.n_tasks for got, _ in corpus_results.values()} == {1, 2, 3, 4}
    assert sum(s.backward_steps for s in stats.values()) >= 5
    # separable data: fused scans until the logits near the clamp, then fallback
    assert any(
        s.fused_scans > 0 and s.clamped_scans > 0
        for (family, _), s in stats.items()
        if family == "separable"
    )
    # raw scale: eps * max|x| >= 27 from the start, the fused kernel never runs
    assert any(
        s.forward_steps > 0 and s.fused_scans == 0
        for (family, _), s in stats.items()
        if family == "raw"
    )
    assert any(
        s.forward_steps > 0 and s.fused_scans > 0
        for (family, _), s in stats.items()
        if family == "raw"
    )
    assert any(s.recheck_scans > 0 for s in stats.values())
    # the wide tasks are half-scanned, and a separable one reaches the clamp
    for family, seed in PROBLEMS:
        tasks = _problem(seed, family)[0]
        half = [t.features.size >= solver._HALF_SCAN_MIN for t in tasks]
        assert all(half) if family == "wide" else not any(half)
    assert any(
        s.fused_scans > 0 and s.clamped_scans > 0
        for (family, _), s in stats.items()
        if family == "wide"
    )
    assert sum(s.backward_exact for s in stats.values()) < sum(
        s.backward_candidates for s in stats.values()
    )


LADDER = (1e-5, 5e-5, 1e-3, 0.1)

# numpy's dispatch targets above AVX2; exp and log1p round differently there
REDUCED_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"


def _dispatches_avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return any(__cpu_features__.get(name) for name in REDUCED_DISPATCH.split())


def _corpus_runs():
    """Step codes and termination of every corpus problem's fit, and of the
    seed-410 ladder's forking ``fit_xis`` results, as JSON-ready lists."""
    runs = []
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        runs.append(fit(tasks, cfg, standardize=standardize))
    tasks, cfg, standardize = _problem(410, "shared")
    for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
        base = dataclasses.replace(cfg, **limits)
        configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
        runs.extend(fit_xis(tasks, configs, standardize=standardize))
    return json.loads(json.dumps([[_codes(r), r.trace.terminated_by] for r in runs]))


CELL_GOLDEN = Path(__file__).resolve().parent / "cell_golden" / "steps.json"


def _cell_digests():
    """The paper cell's step digests at the golden's epsilon (``paper_cell``)."""
    fits = paper_cell.cell_fits(paper_cell.cell_tasks(), [paper_cell.GOLDEN_EPSILON])
    stats = [res.stats for res in fits.values()]
    # the golden covers clamp-regime scans and backward steps
    assert any(s.clamped_scans for s in stats) and any(s.backward_steps for s in stats)
    return paper_cell.step_digests(fits)


def test_paper_cell_steps_match_the_golden():
    """Each fit of the paper cell at epsilon 1.0, both modes, xi 0.1, 0.01 and
    0.001, takes the recorded steps and stops for the recorded reason."""
    assert _cell_digests() == json.loads(CELL_GOLDEN.read_text())


def run_reduced_dispatch(script: str, disabled: str = REDUCED_DISPATCH):
    """The JSON that ``script`` prints, run in a subprocess without the numpy
    dispatch targets ``disabled`` (by default the AVX-512 ones) and with
    ``src`` and ``tests`` importable."""
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy dispatches no AVX-512 target")
def test_step_sequences_hold_without_avx512():
    """The corpus and the paper cell take the same steps when numpy runs its
    AVX2 kernels: the last bits of exp and log1p move, the moves must not."""
    script = (
        "import json, sys\n"
        "from test_solver_differential import _cell_digests, _corpus_runs, _dispatches_avx512\n"
        "json.dump([_dispatches_avx512(), _corpus_runs(), _cell_digests()], sys.stdout)\n"
    )
    avx512, runs, cell = run_reduced_dispatch(script)
    assert not avx512
    assert runs == _corpus_runs()
    assert cell == json.loads(CELL_GOLDEN.read_text())



@pytest.fixture(scope="module")
def ladder_results():
    """Per problem and limits: the ladder's configs, fit_xis results, solo fits.

    Each problem runs its ladder (tolerances below its epsilon) twice: with
    its own limits, and with a lambda floor and a lower iteration cap.
    """
    out = {}
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
            base = dataclasses.replace(cfg, **limits)
            configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
            shared = fit_xis(tasks, configs, standardize=standardize)
            solo = [fit(tasks, c, standardize=standardize) for c in configs]
            out[family, seed, bool(limits)] = configs, shared, solo
    return out


@pytest.mark.parametrize("family,seed", PROBLEMS)
def test_shared_path_matches_solo_fits(ladder_results, family, seed):
    for limited in (False, True):
        configs, shared, solo = ladder_results[family, seed, limited]
        assert len(shared) == len(configs) >= 2
        for cfg, got, want in zip(configs, shared, solo):
            assert got.trace == want.trace, cfg
            assert np.array_equal(got.weights.values, want.weights.values)
            assert got.lambda_final == want.lambda_final
            for a, b in zip(got.standardization, want.standardization, strict=True):
                assert np.array_equal(a.mean, b.mean) and np.array_equal(a.scale, b.scale)
            # stats count the whole path, shared prefix included
            kinds = [s.kind for s in got.trace.steps]
            assert got.stats.forward_steps == kinds.count("forward")
            assert got.stats.backward_steps == kinds.count("backward")


def test_kept_scans_equal_fresh_ones(monkeypatch):
    """After every step and on both sides of each fork, each task's kept
    scan holds the bits a fresh scan gives. No ``FitStats`` field counts a
    kernel run twice: ``fused_scans`` is the number of fused kernel runs and
    ``clamped_scans + recheck_scans`` that of clamped ones. A shared path
    tallies the scans of its own ``fit``."""
    real_apply, real_copy = _PathState.apply, _PathState.copy
    real_fused, real_clamped = _TaskTerms.scan_fused, _TaskTerms.scan_clamped
    seen = Counter()

    def check(state):
        for terms in state.tasks:
            if terms.last_scan is None:
                continue
            losses, bound = terms.last_scan[:2]
            fresh, fresh_bound = (
                real_fused(terms, state._buf) if terms.clamp_free else real_clamped(terms)
            )
            assert np.array_equal(losses, fresh) and bound == fresh_bound
            seen["kept"] += 1

    def apply(state, *move):
        real_apply(state, *move)
        check(state)

    def fork(state):
        twin = real_copy(state)
        seen["forks"] += 1
        check(state)
        check(twin)
        return twin

    def counted(name, kernel):
        def run(*args):
            seen[name] += 1
            return kernel(*args)
        return run

    def counted_fit(tasks, config, standardize):
        seen["fused"] = seen["clamped"] = 0
        stats = fit(tasks, config, standardize=standardize).stats
        assert stats.fused_scans == seen["fused"]
        assert stats.clamped_scans + stats.recheck_scans == seen["clamped"]
        return stats

    monkeypatch.setattr(_PathState, "apply", apply)
    monkeypatch.setattr(_PathState, "copy", fork)
    monkeypatch.setattr(_TaskTerms, "scan_fused", counted("fused", real_fused))
    monkeypatch.setattr(_TaskTerms, "scan_clamped", counted("clamped", real_clamped))
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        counted_fit(tasks, cfg, standardize)
    solo_kept = seen["kept"]
    tasks, cfg, standardize = _problem(410, "shared")
    for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
        base = dataclasses.replace(cfg, **limits)
        configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
        results = fit_xis(tasks, configs, standardize=standardize)
        assert len({id(r) for r in results}) == 3
        for config, result in zip(configs, results):
            solo = counted_fit(tasks, config, standardize)
            for name in ("fused_scans", "clamped_scans", "recheck_scans"):
                assert getattr(result.stats, name) == getattr(solo, name), name
    assert solo_kept > 1000 and seen["forks"] == 4 and seen["kept"] > solo_kept


TERM_NAMES = ("z", "loss", "reach", "exp_sz", "bound", "eg", "nz", "signs", "comp", "exp_eps_x_max")


def test_kept_task_terms_equal_fresh_ones(monkeypatch):
    """After every step and on both sides of each fork, each task's terms
    hold the bits of terms built afresh from its weight column: an update
    replaces the arrays a fork shares and never writes into them."""
    real_apply, real_copy = _PathState.apply, _PathState.copy
    seen = {"checked": 0, "clamped": 0, "forks": 0}

    def check(state):
        for l, terms in enumerate(state.tasks):
            task = SimpleNamespace(features=terms.X, labels=terms.y)
            fresh = _TaskTerms(task, state.W[:, l].copy(), state.eps)
            for name in TERM_NAMES:
                kept, want = getattr(terms, name), getattr(fresh, name)
                if want is None or isinstance(want, np.ndarray):
                    assert (kept is None and want is None) or np.array_equal(kept, want), name
                else:
                    assert kept == want, name
            seen["checked"] += 1
            seen["clamped"] += not terms.clamp_free

    def apply(state, *move):
        real_apply(state, *move)
        check(state)

    def fork(state):
        twin = real_copy(state)
        seen["forks"] += 1
        check(state)
        check(twin)
        return twin

    monkeypatch.setattr(_PathState, "apply", apply)
    monkeypatch.setattr(_PathState, "copy", fork)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        fit(tasks, cfg, standardize=standardize)
    tasks, cfg, standardize = _problem(410, "shared")
    for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
        base = dataclasses.replace(cfg, **limits)
        configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
        assert len({id(r) for r in fit_xis(tasks, configs, standardize=standardize)}) == 3
    assert seen["forks"] == 4 and seen["checked"] > 9_000 and seen["clamped"] > 500


def _fresh_offer(terms, buf):
    """A task's offer and ``back_best`` computed afresh, independently of
    ``solver._offer`` and ``solver._back_best``: the first lowest loss in
    flat order, its loss, the next in order, and the lowest loss of a move
    toward zero, scanned or at its tangent bound."""
    losses, _ = (
        _TaskTerms.scan_fused(terms, buf) if terms.clamp_free else _TaskTerms.scan_clamped(terms)
    )
    flat = losses.ravel()
    order = np.argsort(flat, kind="stable")
    toward_zero = losses[np.where(terms.signs > 0, 1, 0), terms.nz]
    if terms.eg is not None:
        # a move toward zero that the half-scan dropped counts at its tangent
        # bound, loss + |eg_j| - margin
        dropped = np.isinf(toward_zero)
        tangent = terms.loss + np.abs(terms.eg[terms.nz]) - terms.margin
        toward_zero[dropped] = tangent[dropped]
    back_best = float(toward_zero.min()) if toward_zero.size else np.inf
    return int(order[0]), float(flat[order[0]]), float(flat[order[1]]), back_best


def test_kept_offers_equal_fresh_ones(monkeypatch):
    """After every step and on both sides of each fork, each task's kept
    offer and ``back_best`` are the ones a fresh scan gives; so is every
    offer a search reads."""
    real_apply, real_copy, real_scan = _PathState.apply, _PathState.copy, _PathState.scan
    seen = {"kept": 0, "read": 0, "forks": 0}

    def check(state):
        for terms in state.tasks:
            if terms.last_scan is not None:
                assert terms.last_scan[2:] == _fresh_offer(terms, state._buf)
                seen["kept"] += 1

    def apply(state, *move):
        real_apply(state, *move)
        check(state)

    def fork(state):
        twin = real_copy(state)
        seen["forks"] += 1
        check(state)
        check(twin)
        return twin

    def scan(state, task):
        out = real_scan(state, task)
        terms = state.tasks[task]
        assert out is terms.last_scan and out[2:] == _fresh_offer(terms, state._buf)
        seen["read"] += 1
        return out

    monkeypatch.setattr(_PathState, "apply", apply)
    monkeypatch.setattr(_PathState, "copy", fork)
    monkeypatch.setattr(_PathState, "scan", scan)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        fit(tasks, cfg, standardize=standardize)
    tasks, cfg, standardize = _problem(410, "shared")
    for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
        base = dataclasses.replace(cfg, **limits)
        configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
        assert len({id(r) for r in fit_xis(tasks, configs, standardize=standardize)}) == 3
    assert seen["forks"] == 4 and seen["kept"] > 1000 and seen["read"] > seen["kept"]


def test_paths_are_the_same_without_offers(monkeypatch, corpus_results, ladder_results):
    """With a nan offer on every task no offer settles a search: each
    forward search rescans every task whose scan carries a nonzero bound,
    and the exact candidates decide. The corpus and the ladders give the
    same traces and every other ``FitStats`` field, so the offers decide as
    the exact candidates do; ``recheck_scans`` counts those rescans."""
    real_forward, real_clamped = solver._forward_move, _TaskTerms.scan_clamped
    seen = Counter()

    def forward(state):
        for l in range(len(state.tasks)):
            state.scan(l)  # kept, so each clamped kernel run below is a rescan
        runs = seen["clamped"]
        move = real_forward(state)
        seen["rescans"] += seen["clamped"] - runs
        return move

    def clamped(terms):
        seen["clamped"] += 1
        return real_clamped(terms)

    def forced_fit(tasks, config, standardize, want):
        seen["rescans"] = 0
        got = fit(tasks, config, standardize=standardize)
        assert got.trace == want.trace
        assert got.stats == dataclasses.replace(want.stats, recheck_scans=seen["rescans"])
        seen["total"] += seen["rescans"]
        return got

    monkeypatch.setattr(solver, "_offer", lambda losses: (0, np.nan, np.nan))
    monkeypatch.setattr(solver, "_forward_move", forward)
    monkeypatch.setattr(_TaskTerms, "scan_clamped", clamped)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        forced_fit(tasks, cfg, standardize, corpus_results[family, seed][0])
        for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
            configs, shared, solo = ladder_results[family, seed, bool(limits)]
            forced = [forced_fit(tasks, c, standardize, want) for c, want in zip(configs, solo)]
            results = fit_xis(tasks, configs, standardize=standardize)
            for got, want, alone in zip(results, shared, forced, strict=True):
                assert got.trace == want.trace
                rechecks = alone.stats.recheck_scans
                assert got.stats == dataclasses.replace(want.stats, recheck_scans=rechecks)
    unforced = sum(got.stats.recheck_scans for got, _ in corpus_results.values())
    assert seen["total"] > 10 * unforced > 0


def _lowest_candidate(state, losses):
    """The tie-break winner over the tasks' forward ``losses``: its (j, l, s),
    its empirical loss, the candidate array cand[l, s, j] and whether
    another candidate ties it exactly."""
    L = len(losses)
    cand = np.array([o + loss for o, loss in zip(state.others, losses)]) / L
    flat = cand.transpose(2, 0, 1).ravel()
    i = int(np.argmin(flat))
    tie = np.count_nonzero(flat == flat[i]) > 1
    return (i // (2 * L), i // 2 % L, i % 2), float(flat[i]), cand, tie


def test_corpus_settles_searches_by_offers_and_by_one_rescan(monkeypatch):
    """The offers settle most searches, with the move or the None the exact
    candidates give and no rescan. An exact tie at the lowest candidate
    (the ``duplicate`` family), or a candidate or the current loss within
    rounding of it, falls back: each task whose scan carries a nonzero
    bound is rescanned once with the clamped kernel, and the tie-break over
    the exact candidates decides."""
    real_forward = solver._forward_move
    seen = Counter()
    family = None

    def forward(state):
        rechecks = state.tally["recheck_scans"]
        move = real_forward(state)
        rescans = state.tally["recheck_scans"] - rechecks
        scans = [terms.last_scan for terms in state.tasks]
        (j, l, s), c, cand, tie = _lowest_candidate(state, [scan[0] for scan in scans])
        bounds = np.array([scan[1] for scan in scans])
        near = cand <= c + ((bounds + bounds[l]) / len(scans))[:, None, None]
        recheck = bounds.any() and not (
            np.count_nonzero(near) == 1 and abs(scans[l][0][s, j] - state.losses[l]) > bounds[l]
        )
        if rescans or tie:
            seen["fallback"] += 1
            seen["tie", family] += tie
            seen["recheck"] += recheck
            assert rescans == (np.count_nonzero(bounds) if recheck else 0)
            exact = [
                _TaskTerms.scan_clamped(terms)[0] if scan[1] else scan[0]
                for terms, scan in zip(state.tasks, scans)
            ]
            (j, l, s), c, _, _ = _lowest_candidate(state, exact)
            falls = exact[l][s, j] < state.losses[l]
        else:
            assert not recheck
            falls = scans[l][0][s, j] < state.losses[l]
            seen["settled"] += 1
        assert move == (("forward", j, l, 1 - 2 * s, c) if falls else None)
        return move

    monkeypatch.setattr(solver, "_forward_move", forward)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        fit(tasks, cfg, standardize=standardize)
    assert seen["settled"] > 10 * seen["fallback"] > 0
    assert seen["tie", "duplicate"] > 0 and seen["recheck"] > 0


def test_task_screen_bounds_every_backward_gain(monkeypatch):
    """At every backward decision of the corpus and the ladders, each task's
    screening bound, clamp-free or in the clamp regime, is at least the exact
    gain of each of its backward moves, and a task it settles has no move
    that qualifies at the smallest tolerance."""
    real_moves = solver._backward_moves
    seen = Counter()

    def backward_moves(state, xis, lam):
        moves = real_moves(state, xis, lam)
        # the screen has kept every scan it read, so this reads them again
        # without running a kernel or moving a tally
        tally = Counter(state.tally)
        bounds = state.screen_bounds(lam)
        assert state.tally == tally
        L, xi_min = len(state.tasks), min(xis)
        total_before = state.empirical + lam * state.penalty
        for l, (terms, bound) in enumerate(zip(state.tasks, bounds)):
            if not terms.nz.size:
                continue
            idx = terms.nz
            pen_after = state.penalty_after(idx, l, state.W[idx, l] - state.eps * terms.signs)
            emp_after = (state.others[l] + terms.moved_losses(idx, -terms.signs)) / L
            gain = total_before - (emp_after + lam * pen_after)
            assert np.all(gain <= bound)
            seen["moves"] += idx.size
            seen["tight"] += bool(np.any(gain > bound - 1e-6))
            if bound <= xi_min - solver._SCREEN_SLACK:
                assert not np.any(gain > xi_min)
                seen["settled"] += 1
                seen["settled in the clamp regime"] += not terms.clamp_free
            else:
                seen["evaluated"] += 1
                seen["qualifying"] += bool(np.any(gain > xi_min))
        return moves

    monkeypatch.setattr(solver, "_backward_moves", backward_moves)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        fit(tasks, cfg, standardize=standardize)
        for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
            base = dataclasses.replace(cfg, **limits)
            configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
            fit_xis(tasks, configs, standardize=standardize)
    assert seen["moves"] > 10_000 and seen["settled"] > 2 * seen["evaluated"]
    assert seen["qualifying"] > 0 and seen["tight"] > 0
    assert seen["settled in the clamp regime"] > 0


def test_backward_screen_evaluates_the_flagged_tasks(monkeypatch):
    """Screened one task at a time, a decision evaluates exactly every
    nonzero weight of the tasks whose scalar bound passes the smallest
    tolerance less the screen's slack."""
    real_moves = solver._backward_moves
    seen = {"decisions": 0, "evaluated": 0}

    def backward_moves(state, xis, lam):
        xi_min = min(xis)
        flagged = [
            l for l, (t, bound) in enumerate(zip(state.tasks, state.screen_bounds(lam)))
            if bound > xi_min - solver._SCREEN_SLACK
        ]
        before = state.tally["backward_exact"]
        moves = real_moves(state, xis, lam)
        want = sum(np.count_nonzero(state.W[:, l]) for l in flagged)
        assert state.tally["backward_exact"] - before == want
        seen["decisions"] += 1
        seen["evaluated"] += bool(flagged)
        return moves

    monkeypatch.setattr(solver, "_backward_moves", backward_moves)
    for family, seed in PROBLEMS:
        tasks, cfg, standardize = _problem(seed, family)
        for limits in ({}, {"lambda_floor": 0.02, "max_iters": 40}):
            base = dataclasses.replace(cfg, **limits)
            configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
            fit_xis(tasks, configs, standardize=standardize)
    assert seen["decisions"] > seen["evaluated"] > 1000


def _first_split(lower, higher):
    """The step kind the higher tolerance takes where its path first leaves
    the lower one's, or None if neither path leaves the other."""
    for a, b in zip(lower.trace.steps, higher.trace.steps):
        if (a.kind, a.feature, a.task, a.sign) != (b.kind, b.feature, b.task, b.sign):
            return b.kind
    return None


def test_ladder_reaches_every_fork_kind(ladder_results):
    splits = set()
    multi_fork = merged_to_cap = floor_stops = 0
    for configs, shared, _ in ladder_results.values():
        for i, lower in enumerate(shared):
            for higher in shared[i + 1:]:
                splits.add(_first_split(lower, higher))
        paths = {id(r) for r in shared}
        multi_fork += len(paths) >= 3
        if len(paths) == 1 and shared[0].trace.terminated_by == "max_iters":
            merged_to_cap += 1
        floor_stops += any(r.trace.terminated_by == "lambda_floor" for r in shared)
    assert splits == {None, "forward", "backward"}
    assert multi_fork > 0 and merged_to_cap > 0 and floor_stops > 0


def test_fit_xis_rejects_configs_that_differ_beyond_xi():
    tasks, cfg, _ = _problem(0, "noisy")
    with pytest.raises(ValueError, match="differ only in xi"):
        fit_xis(tasks, [cfg, dataclasses.replace(cfg, epsilon=0.5)])
    with pytest.raises(ValueError, match="differ only in xi"):
        fit_xis(tasks, [cfg, dataclasses.replace(cfg, max_iters=10)])
    with pytest.raises(ValueError, match="at least one config"):
        fit_xis(tasks, [])


def _overflow_cases():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 6))
    X[:, 1] = X[:, 0] + 0.3 * rng.normal(size=40)
    freqs = np.arange(1.0, 7.0)
    separable = TaskDataset(X, (X[:, 0] > X[:, 0].mean()).astype(int), freqs, "separable")
    y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
    # unstandardized magnitudes around 1e3 on the last line
    raw_X = X * np.array([1.0, 1.0, 10.0, 10.0, 100.0, 100.0])
    raw_X[:, 5] += 1e3
    raw = TaskDataset(raw_X, y, freqs, "raw")
    raw2 = TaskDataset(-raw_X[::-1], 1 - y[::-1], freqs, "raw2")
    return [
        # eps * max|x| far above 27 on standardized features
        ([separable], SolverConfig(40.0, 0.01, max_iters=50), True),
        ([separable, separable], SolverConfig(40.0, 0.01, max_iters=50), True),
        # eps * max|x| > 709: exp of a candidate margin would overflow
        ([raw], SolverConfig(1.0, 0.01, max_iters=50), False),
        ([raw, raw2], SolverConfig(1.0, 0.001, max_iters=50), False),
        # eps * max|x| just below 27: fused scans until the logits grow
        ([raw, raw2], SolverConfig(0.02, 0.001, max_iters=80), False),
    ]


@pytest.mark.parametrize("case", range(len(_overflow_cases())))
def test_overflow_edges_match_reference_without_warnings(case):
    tasks, cfg, standardize = _overflow_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="raise", invalid="raise"):
            got = fit(tasks, cfg, standardize=standardize)
            want = reference_solver.fit(tasks, cfg, standardize=standardize)
    _assert_same_path(got, want)
    assert len(got.trace.steps) > 0


def test_raw_scale_task_builds_no_exp_table():
    # eps * max|X| at or over 27 is never clamp-free, so no fused scan and no
    # table: at 1e3 its exp would overflow, at 27 it would only waste work
    rng = np.random.default_rng(23)
    X = rng.normal(size=(30, 4))
    X[:, 3] = X[:, 3] * 20.0 + 1e3
    y = (X[:, 0] > 0).astype(int)
    task = TaskDataset(X, y, np.arange(1.0, 5.0), "raw")
    edge = TaskDataset(np.clip(X, -27.0, 27.0), y, np.arange(1.0, 5.0), "edge")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="raise", invalid="raise"):
            for t, eps in ((task, 1.0), (task, 0.1), (edge, 1.0)):
                terms = _TaskTerms(t, np.zeros(4), eps)
                assert terms.eps_x_max >= 27.0
                assert terms.exp_table is None and terms.exp_sz is None
                assert not terms.clamp_free
            got = fit([task], SolverConfig(1.0, 0.01, max_iters=30), standardize=False)
    assert got.stats.fused_scans == 0 and got.stats.clamped_scans > 0
    # just under the bound the first fused scan builds the table, both signs
    # of every element
    terms = _TaskTerms(edge, np.zeros(4), 0.999)
    terms.scan_fused(np.empty(2 * terms.X.size))
    assert terms.exp_table.shape == (2, *edge.features.shape)


def _balance_point(x, y, eps):
    """A weight where moving by +eps leaves the loss unchanged up to rounding."""
    def gain(w):
        after = reference_solver._nll_from_logits(x * (w + eps), y)
        return float(after) - float(reference_solver._nll_from_logits(x * w, y))

    lo, hi = -20.0, 20.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gain(mid) < 0 else (lo, mid)
    return lo


def test_moves_within_rounding_of_the_current_loss_follow_the_clamped_kernel():
    # at the balance point the + move changes the loss by less than the two
    # kernels' rounding, and the - move is far worse: no candidate ties the
    # best, so only the comparison with the current loss is in question
    cfg = SolverConfig(0.5, 0.01)
    outcomes = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        x = rng.normal(size=n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        y[0], y[1] = 0, 1
        task = TaskDataset(x[:, None], y, np.array([1.0]), "balanced")
        W = np.array([[_balance_point(x, y.astype(float), cfg.epsilon)]])
        got = forward_step(W, [task], cfg)
        want = reference_solver.forward_step(W, [task], cfg)
        if want is None:
            assert got is None, f"seed {seed}"
        else:
            assert (got.feature, got.task, got.sign) == (want.feature, want.task, want.sign)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_exact_backward_ties_break_toward_low_feature_then_task():
    # two identical tasks, and line 2 a copy of line 0 with the same weight:
    # the four backward moves tie exactly, so only the tie-break decides
    cfg = SolverConfig(0.3, 0.001)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(8, 40)), int(rng.integers(3, 8))
        X = rng.normal(size=(n, m))
        X[:, 2] = X[:, 0]
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        tasks = [TaskDataset(X, y, np.arange(1.0, m + 1.0), f"t{l}") for l in range(2)]
        W = np.zeros((m, 2))
        W[0, :] = W[2, :] = 0.6
        got = backward_step(W, tasks, cfg, 0.5)
        want = reference_solver.backward_step(W, tasks, cfg, 0.5)
        assert (want.feature, want.task, want.sign) == (0, 0, -1), f"seed {seed}"
        assert got == want, f"seed {seed}"


GEN_EPSILONS = (0.3, 0.1, 1.0, 0.05, 3.0, 0.02, 10.0, 40.0)  # simplest first
GEN_XIS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
# a line is drawn as itself, or from an earlier line: an exact copy, a
# constant, a power-of-two multiple (standardizes to an exact copy) or a
# noisy copy (correlated lines make backward steps pay)
COLUMN_KINDS = ("correlated", "normal", "copy", "constant", "pow2")


@st.composite
def generated_problems(draw):
    """Tasks, ``standardize`` and a ladder of configs of one small problem."""
    n_tasks = draw(st.integers(1, 4))
    n = draw(st.integers(4, 16))
    m = draw(st.integers(1, 8))
    kinds = ["normal"] + [draw(st.sampled_from(COLUMN_KINDS)) for _ in range(m - 1)]
    raw = draw(st.booleans())
    separable = [draw(st.booleans()) for _ in range(n_tasks)]
    eps = draw(st.sampled_from(GEN_EPSILONS))
    xis = draw(st.lists(st.sampled_from([x for x in GEN_XIS if x < eps]),
                        min_size=1, max_size=3, unique=True))
    max_iters = draw(st.integers(10, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    beta = rng.normal(size=m)
    scales = 10.0 ** rng.integers(0, 3, size=m)
    tasks = []
    for l in range(n_tasks):
        X = rng.normal(size=(n, m))
        for j, kind in enumerate(kinds):
            src = X[:, rng.integers(0, j)] if j else None
            if kind == "copy":
                X[:, j] = src
            elif kind == "constant":
                X[:, j] = rng.normal()
            elif kind == "pow2":
                X[:, j] = src * 2.0 ** rng.integers(-3, 4)
            elif kind == "correlated":
                X[:, j] = src + 0.3 * rng.normal(size=n)
        if raw:
            # unstandardized magnitudes: lines on scales 1 to 100 and a
            # resonance peak near 1e3 on the last line in a few samples
            X = X * scales
            X[rng.integers(0, n, size=2), m - 1] += 1e3
        z = X @ beta
        if separable[l]:
            y = np.zeros(n, dtype=int)
            y[np.argsort(z, kind="stable")[n // 2:]] = 1
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))).astype(int)
            y[0], y[1] = 0, 1
        tasks.append(TaskDataset(X, y, np.arange(1.0, m + 1.0), f"t{l}"))
    configs = [SolverConfig(eps, xi, max_iters=max_iters) for xi in sorted(xis)]
    return tasks, not raw, configs


@pytest.fixture(scope="module")
def generated_runs():
    """``FitStats`` of every generated problem, each checked on the way.

    Hypothesis reports (and shrinks) the first problem whose ``fit`` or
    ``fit_xis`` differs from the reference.
    """
    runs = []

    @settings(max_examples=100)
    @given(generated_problems())
    def check(problem):
        tasks, standardize, configs = problem
        want = [reference_solver.fit(tasks, c, standardize=standardize) for c in configs]
        solo = fit(tasks, configs[0], standardize=standardize)
        shared = fit_xis(tasks, configs, standardize=standardize)
        for got, ref in [(solo, want[0]), *zip(shared, want)]:
            assert got.trace == ref.trace
            assert np.array_equal(got.weights.values, ref.weights.values)
            assert got.lambda_final == ref.lambda_final
        runs.append(solo.stats)

    check()
    return runs


def test_generated_problems_match_reference(generated_runs):
    assert len(generated_runs) >= 50


def test_generated_problems_reach_every_regime(generated_runs):
    assert any(s.clamped_scans > 0 and s.fused_scans > 0 for s in generated_runs)
    assert any(s.recheck_scans > 0 for s in generated_runs)
    assert any(s.backward_steps > 0 for s in generated_runs)
