import dataclasses
import warnings

import numpy as np
import pytest
from reference_solver import _nll_from_logits as reference_nll
from scipy.special import expit
from test_solver_differential import LADDER, _problem

from frfselect import (
    DegenerateLabelsError,
    FitResult,
    FitStats,
    SolverConfig,
    SolverTrace,
    TaskDataset,
    WeightMatrix,
    backward_step,
    fit,
    forward_step,
    validate_trace,
)
from frfselect.model import (
    PROB_CLAMP,
    _nll_from_probs,
    empirical_loss_mtl,
    empirical_loss_single,
    l21_norm,
)
from frfselect.solver import (
    StepRecord,
    TERMINATED_LAMBDA_FLOOR,
    TERMINATED_MAX_ITERS,
    TERMINATED_NO_IMPROVING_STEP,
    _HALF_SCAN_MIN,
    _PathState,
    _TaskTerms,
    _back_best,
    fit_xis,
    lambda_schedule_update,
)


def random_instance(rng, n_feat, n_tasks, n_samples):
    tasks = []
    freqs = np.arange(1.0, n_feat + 1.0)
    for l in range(n_tasks):
        feats = rng.normal(size=(n_samples, n_feat))
        labels = rng.integers(0, 2, size=n_samples)
        labels[0], labels[1] = 0, 1  # both classes present
        tasks.append(TaskDataset(feats, labels, freqs, f"t{l}"))
    return tuple(tasks)


def logistic_instance(rng, n_feat, n_tasks, n_samples):
    """Non-separable tasks with a shared signal and a correlated feature pair."""
    beta = rng.normal(size=n_feat) * (rng.random(n_feat) < 0.5)
    tasks = []
    for l in range(n_tasks):
        feats = rng.normal(size=(n_samples, n_feat))
        feats[:, 1] = feats[:, 0] + 0.3 * rng.normal(size=n_samples)
        z = feats @ (beta + 0.3 * rng.normal(size=n_feat))
        labels = (rng.random(n_samples) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        labels[0], labels[1] = 0, 1
        tasks.append(TaskDataset(feats, labels, np.arange(1.0, n_feat + 1.0), f"t{l}"))
    return tuple(tasks)


def naive_forward(W, tasks, eps):
    """Exhaustive scan mirror of forward_step's contract."""
    L = len(tasks)
    per_now = [empirical_loss_single(W[:, l], tasks[l]) for l in range(L)]
    best = None
    for j in range(W.shape[0]):
        for l in range(L):
            for s_idx, sign in enumerate((1, -1)):
                W2 = W.copy()
                W2[j, l] += sign * eps
                own = empirical_loss_single(W2[:, l], tasks[l])
                if not own < per_now[l]:
                    continue
                key = (empirical_loss_mtl(W2, tasks), j, l, s_idx)
                if best is None or key < best:
                    best = key
                    best_move = (j, l, sign, l21_norm(W2))
    if best is None:
        return None
    return best_move + (best[0],)


def naive_backward(W, tasks, eps, xi, lam):
    """Exhaustive scan mirror of backward_step's contract."""
    L = len(tasks)
    emp_now = empirical_loss_mtl(W, tasks)
    total_now = emp_now + lam * l21_norm(W)
    best = None
    for l in range(L):
        for j in range(W.shape[0]):
            if W[j, l] == 0.0:
                continue
            sign = -1 if W[j, l] > 0 else 1
            W2 = W.copy()
            W2[j, l] += sign * eps
            emp_after = empirical_loss_mtl(W2, tasks)
            total_after = emp_after + lam * l21_norm(W2)
            if not total_now - total_after > xi:
                continue
            key = (emp_after, j, l)
            if best is None or key < best:
                best = key
                best_move = (j, l, sign, l21_norm(W2), emp_after)
    return None if best is None else best_move


class TestForwardStep:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(42)
        cfg = SolverConfig(epsilon=0.3, xi=0.05)
        for case in range(25):
            n_feat = int(rng.integers(2, 6))
            n_tasks = int(rng.integers(1, 4))
            tasks = random_instance(rng, n_feat, n_tasks, int(rng.integers(6, 20)))
            W = rng.integers(-2, 3, size=(n_feat, n_tasks)) * cfg.epsilon
            got = forward_step(W, tasks, cfg)
            want = naive_forward(W, tasks, cfg.epsilon)
            assert got is not None, f"case {case}"
            j, l, sign, pen, emp = want
            assert (got.feature, got.task, got.sign) == (j, l, sign), f"case {case}"
            assert got.empirical_after == pytest.approx(emp, abs=1e-12)
            assert got.penalty_after == pytest.approx(pen, abs=1e-12)

    def test_reduces_touched_task_loss_strictly(self):
        rng = np.random.default_rng(3)
        cfg = SolverConfig(epsilon=0.2, xi=0.01)
        tasks = random_instance(rng, 4, 2, 12)
        W = np.zeros((4, 2))
        cand = forward_step(W, tasks, cfg)
        before = empirical_loss_single(W[:, cand.task], tasks[cand.task])
        W[cand.feature, cand.task] += cand.sign * cfg.epsilon
        after = empirical_loss_single(W[:, cand.task], tasks[cand.task])
        assert after < before

    def test_none_when_features_carry_no_signal(self):
        # all-zero features leave the loss at ln 2 whatever the weights
        freqs = np.array([1.0, 2.0])
        t = TaskDataset(np.zeros((4, 2)), np.array([1, 0, 1, 0]), freqs, "flat")
        cfg = SolverConfig(epsilon=0.5, xi=0.01)
        assert forward_step(np.zeros((2, 1)), [t], cfg) is None

    def test_tie_breaks_prefer_low_feature_then_plus(self):
        # duplicated feature columns make candidate losses exactly equal
        feats = np.array([[1.0, 1.0], [-1.0, -1.0], [0.5, 0.5], [-0.5, -0.5]])
        t = TaskDataset(feats, np.array([1, 0, 1, 0]), np.array([1.0, 2.0]), "dup")
        cfg = SolverConfig(epsilon=0.4, xi=0.01)
        cand = forward_step(np.zeros((2, 1)), [t], cfg)
        assert cand.feature == 0
        assert cand.sign == 1


class TestBackwardStep:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        cfg = SolverConfig(epsilon=0.3, xi=0.001)
        hits = 0
        for case in range(40):
            n_feat = int(rng.integers(2, 6))
            n_tasks = int(rng.integers(1, 4))
            tasks = random_instance(rng, n_feat, n_tasks, int(rng.integers(6, 20)))
            W = rng.integers(-2, 3, size=(n_feat, n_tasks)) * cfg.epsilon
            if not W.any():
                continue
            lam = float(rng.uniform(0.0, 0.6))
            got = backward_step(W, tasks, cfg, lam)
            want = naive_backward(W, tasks, cfg.epsilon, cfg.xi, lam)
            if want is None:
                assert got is None, f"case {case}"
                continue
            hits += 1
            j, l, sign, pen, emp = want
            assert (got.feature, got.task, got.sign) == (j, l, sign), f"case {case}"
            assert got.empirical_after == pytest.approx(emp, abs=1e-12)
            assert got.penalty_after == pytest.approx(pen, abs=1e-12)
        assert hits >= 5  # the scan exercised qualifying cases, not only refusals

    def test_qualification_threshold_is_strict(self):
        # signal-free features: a step toward zero changes only the penalty,
        # so the improvement is exactly lam * epsilon
        freqs = np.array([1.0])
        t = TaskDataset(np.zeros((4, 1)), np.array([1, 0, 1, 0]), freqs, "flat")
        cfg = SolverConfig(epsilon=0.5, xi=0.01)
        W = np.array([[0.5]])
        qualifying = backward_step(W, [t], cfg, lam=0.03)  # 0.015 > xi
        assert qualifying is not None
        assert (qualifying.feature, qualifying.task, qualifying.sign) == (0, 0, -1)
        refused = backward_step(W, [t], cfg, lam=0.01)  # 0.005 < xi
        assert refused is None

    def test_zero_weights_give_none(self):
        rng = np.random.default_rng(1)
        tasks = random_instance(rng, 3, 1, 8)
        cfg = SolverConfig(epsilon=0.3, xi=0.01)
        assert backward_step(np.zeros((3, 1)), tasks, cfg, lam=0.5) is None

    def test_rejects_negative_lambda(self):
        rng = np.random.default_rng(1)
        tasks = random_instance(rng, 3, 1, 8)
        cfg = SolverConfig(epsilon=0.3, xi=0.01)
        with pytest.raises(ValueError):
            backward_step(np.full((3, 1), 0.3), tasks, cfg, lam=-0.1)


class TestStepProbeInput:
    """The step functions refuse what they cannot search, with a ValueError
    that names the argument, before any numpy warning."""

    cfg = SolverConfig(epsilon=0.3, xi=0.01)

    def probes(self, weights, tasks):
        return (
            lambda: forward_step(weights, tasks, self.cfg),
            lambda: backward_step(weights, tasks, self.cfg, 0.5),
        )

    def test_rejects_empty_task_list(self):
        for probe in self.probes(np.full((3, 1), 0.3), []):
            with pytest.raises(ValueError, match="tasks must hold at least one task"):
                probe()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        tasks = random_instance(np.random.default_rng(1), 3, 2, 8)
        W = np.full((3, 2), 0.3)
        W[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for probe in self.probes(W, tasks):
                with pytest.raises(ValueError, match="weights contain non-finite values"):
                    probe()

    def test_rejects_tasks_of_different_widths(self):
        narrow, wide = random_instance(np.random.default_rng(2), 5, 2, 8)
        narrow = TaskDataset(narrow.features[:, :4], narrow.labels, np.arange(1.0, 5.0), "narrow")
        for probe in self.probes(np.full((4, 2), 0.3), [narrow, wide]):
            with pytest.raises(ValueError, match="task 't1' has 5 features, expected 4"):
                probe()

    def test_rejects_tasks_on_different_frequency_axes(self):
        a, b = random_instance(np.random.default_rng(3), 3, 2, 8)
        shifted = TaskDataset(b.features, b.labels, b.feature_freqs + 0.5, "shifted")
        for probe in self.probes(np.full((3, 2), 0.3), [a, shifted]):
            with pytest.raises(ValueError, match="task 'shifted' does not share the feature"):
                probe()

    def test_rejects_a_single_class_task(self):
        (a,) = random_instance(np.random.default_rng(4), 3, 1, 8)
        one = TaskDataset(a.features, np.ones(8, dtype=int), a.feature_freqs, "one")
        for probe in self.probes(np.full((3, 1), 0.3), [one]):
            with pytest.raises(DegenerateLabelsError, match="task 'one' contains a single class"):
                probe()


class TestLambdaSchedule:
    def test_first_step_sets_per_unit_gain(self):
        lam = lambda_schedule_update(None, 0.7, 0.5, 0.0, 0.2)
        assert lam == pytest.approx(1.0, abs=1e-15)

    def test_level_only_decreases(self):
        lam = lambda_schedule_update(1.0, 0.5, 0.45, 0.2, 0.4)  # gain 0.25
        assert lam == pytest.approx(0.25, abs=1e-15)
        lam = lambda_schedule_update(0.25, 0.45, 0.3, 0.4, 0.6)  # gain 0.75
        assert lam == 0.25

    def test_no_penalty_increase_keeps_level(self):
        assert lambda_schedule_update(0.7, 0.5, 0.4, 0.6, 0.6) == 0.7
        assert lambda_schedule_update(0.7, 0.5, 0.4, 0.6, 0.4) == 0.7
        assert lambda_schedule_update(None, 0.5, 0.4, 0.6, 0.4) is None


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0, xi=0.01)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.2, xi=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.2, xi=-1.0)
        with pytest.raises(ValueError, match="exceed"):
            SolverConfig(epsilon=0.01, xi=0.2)
        with pytest.raises(ValueError, match="max_iters must be at least 1, got 0"):
            SolverConfig(epsilon=0.2, xi=0.01, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.2, xi=0.01, lambda_floor=-0.5)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, np.float64(4.0)])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(0.3, 0.01, max_iters=max_iters)


def separable_task(n=20, seed=5):
    rng = np.random.default_rng(seed)
    half = n // 2
    feats = np.vstack(
        [
            np.column_stack([rng.normal(2.0, 0.3, half), rng.normal(0, 1, half)]),
            np.column_stack([rng.normal(-2.0, 0.3, half), rng.normal(0, 1, half)]),
        ]
    )
    labels = np.concatenate([np.ones(half, int), np.zeros(half, int)])
    return TaskDataset(feats, labels, np.array([5.0, 9.0]), "sep")


class TestFit:
    def test_weights_stay_on_the_lattice(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=100)
        res = fit([separable_task()], cfg)
        W = res.weights.values
        k = np.rint(W / cfg.epsilon)
        assert np.array_equal(W, k * cfg.epsilon)  # exact, not approximate

    def test_trace_validates_and_first_step_is_forward(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=200)
        res = fit([separable_task()], cfg)
        assert res.trace.steps[0].kind == "forward"
        validate_trace(res, cfg)

    def test_separable_task_classified_perfectly(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=300)
        task = separable_task()
        res = fit([task], cfg)
        std = res.standardization[0].apply(task.features)
        preds = (std @ res.weights.column(0) >= 0.0).astype(int)
        assert np.array_equal(preds, task.labels)

    def test_deterministic_repeat(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=150)
        a = fit([separable_task()], cfg)
        b = fit([separable_task()], cfg)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.trace == b.trace
        assert a.lambda_final == b.lambda_final

    def test_level_never_increases(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=300)
        res = fit([separable_task()], cfg)
        lams = [s.lambda_after for s in res.trace.steps]
        assert all(b <= a for a, b in zip(lams, lams[1:]))
        assert res.lambda_final == lams[-1]

    def test_max_iters_respected(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=3)
        res = fit([separable_task()], cfg)
        assert len(res.trace.steps) <= 3
        assert res.trace.terminated_by == TERMINATED_MAX_ITERS

    def test_lambda_floor_stops_the_path(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=100, lambda_floor=1e9)
        res = fit([separable_task()], cfg)
        assert res.trace.terminated_by == TERMINATED_LAMBDA_FLOOR
        assert len(res.trace.steps) == 1

    def test_signal_free_task_stops_immediately(self):
        t = TaskDataset(
            np.zeros((4, 2)), np.array([1, 0, 1, 0]), np.array([1.0, 2.0]), "flat"
        )
        cfg = SolverConfig(epsilon=0.2, xi=0.01)
        res = fit([t], cfg, standardize=False)
        assert res.trace.terminated_by == TERMINATED_NO_IMPROVING_STEP
        assert res.trace.steps == ()
        assert res.lambda_final == 0.0
        assert not res.weights.values.any()

    def test_single_class_rejected(self):
        t = TaskDataset(
            np.ones((3, 2)), np.array([1, 1, 1]), np.array([1.0, 2.0]), "one"
        )
        with pytest.raises(DegenerateLabelsError):
            fit([t], SolverConfig(epsilon=0.2, xi=0.01))

    def test_mismatched_tasks_rejected(self):
        a = separable_task()
        b = TaskDataset(
            np.ones((4, 3)), np.array([1, 0, 1, 0]),
            np.array([1.0, 2.0, 3.0]), "wide",
        )
        with pytest.raises(ValueError, match="features"):
            fit([a, b], SolverConfig(epsilon=0.2, xi=0.01))
        c = TaskDataset(
            a.features, a.labels, np.array([6.0, 9.0]), "shifted"
        )
        with pytest.raises(ValueError, match="frequencies"):
            fit([a, c], SolverConfig(epsilon=0.2, xi=0.01))
        with pytest.raises(ValueError):
            fit([], SolverConfig(epsilon=0.2, xi=0.01))

    def test_standardize_false_keeps_raw_scale(self):
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=50)
        res = fit([separable_task()], cfg, standardize=False)
        s = res.standardization[0]
        assert np.array_equal(s.mean, np.zeros(2))
        assert np.array_equal(s.scale, np.ones(2))

    def test_standardization_recorded(self):
        task = separable_task()
        cfg = SolverConfig(epsilon=0.2, xi=0.01, max_iters=50)
        res = fit([task], cfg)
        assert np.allclose(res.standardization[0].mean, task.features.mean(axis=0))

    def test_mtl_two_tasks_full_trace_is_consistent(self):
        cfg = SolverConfig(epsilon=0.3, xi=0.01, max_iters=200)
        rng = np.random.default_rng(11)
        tasks = random_instance(rng, 5, 2, 30)
        res = fit(tasks, cfg)
        validate_trace(res, cfg)
        assert res.weights.n_tasks == 2


class TestStepFunctionsReplay:
    def test_wrappers_reproduce_every_step_of_a_joint_trace(self):
        cfg = SolverConfig(epsilon=0.3, xi=1e-4, max_iters=200)
        tasks = logistic_instance(np.random.default_rng(0), 8, 3, 50)
        res = fit(tasks, cfg)
        steps = res.trace.steps
        assert sum(s.kind == "backward" for s in steps) >= 2
        std_tasks = [
            TaskDataset(std.apply(t.features), t.labels, t.feature_freqs, t.task_id)
            for std, t in zip(res.standardization, tasks)
        ]
        counts = np.zeros(res.weights.values.shape, dtype=np.int64)
        for k, target in enumerate(steps):
            W = counts * cfg.epsilon
            got = None
            if k > 0:
                got = backward_step(W, std_tasks, cfg, steps[k - 1].lambda_after)
            kind = "backward"
            if got is None:
                got = forward_step(W, std_tasks, cfg)
                kind = "forward"
            assert (kind, got.feature, got.task, got.sign) == (
                target.kind, target.feature, target.task, target.sign
            ), f"step {k}"
            assert got.empirical_after == pytest.approx(target.empirical_loss_after, abs=1e-12)
            assert got.penalty_after == pytest.approx(target.penalty_after, abs=1e-12)
            counts[target.feature, target.task] += target.sign
        assert res.trace.terminated_by == TERMINATED_NO_IMPROVING_STEP
        W = counts * cfg.epsilon
        assert backward_step(W, std_tasks, cfg, res.lambda_final) is None
        assert forward_step(W, std_tasks, cfg) is None


class TestFitStats:
    def test_counts_match_the_trace(self):
        cfg = SolverConfig(epsilon=0.3, xi=1e-4, max_iters=200)
        res = fit(logistic_instance(np.random.default_rng(0), 8, 3, 50), cfg)
        kinds = [s.kind for s in res.trace.steps]
        assert res.stats.forward_steps == kinds.count("forward")
        assert res.stats.backward_steps == kinds.count("backward") > 0
        assert 0 < res.stats.backward_exact <= res.stats.backward_candidates
        # on this clamp-free path ending at a search, the kernels scan each
        # task once at the start and the task each step touched once after it
        assert res.trace.terminated_by == TERMINATED_NO_IMPROVING_STEP
        assert res.stats.clamped_scans == res.stats.recheck_scans == 0
        assert res.stats.fused_scans == 3 + len(kinds)

    def test_screening_skips_most_backward_candidates(self):
        cfg = SolverConfig(epsilon=0.05, xi=1e-3, max_iters=300)
        res = fit(logistic_instance(np.random.default_rng(0), 30, 3, 80), cfg)
        assert res.stats.backward_candidates > 1000
        assert res.stats.backward_exact < 0.1 * res.stats.backward_candidates

    def test_results_built_without_stats_default_to_zero_counts(self):
        res = _result_with([], [[0.0]], 0.5)
        assert res.stats == FitStats()

    # FitStats(forward_steps, backward_steps, backward_candidates,
    # backward_exact, fused_scans, clamped_scans, recheck_scans),
    # pinned so that any change in what a path tallies, or where a fork
    # copies it, shows
    @pytest.mark.parametrize(
        "family,seed,counts",
        [
            (None, 0, (52, 4, 624, 104, 59, 0, 0)),
            ("separable", 103, (119, 4, 1827, 565, 124, 3, 0)),
            ("duplicate", 302, (148, 2, 1824, 843, 152, 0, 78)),
        ],
    )
    def test_solo_fit_stats_are_pinned(self, family, seed, counts):
        if family is None:
            cfg = SolverConfig(epsilon=0.3, xi=1e-4, max_iters=200)
            res = fit(logistic_instance(np.random.default_rng(seed), 8, 3, 50), cfg)
        else:
            tasks, cfg, standardize = _problem(seed, family)
            res = fit(tasks, cfg, standardize=standardize)
        assert res.stats == FitStats(*counts)

    @pytest.mark.parametrize(
        "limits,counts",
        [
            (
                {},
                [
                    (140, 10, 1259, 720, 152, 0, 0),
                    (143, 7, 1303, 590, 152, 0, 0),
                    (150, 0, 1383, 17, 152, 0, 0),
                ],
            ),
            (
                {"lambda_floor": 0.02, "max_iters": 40},
                [
                    (36, 4, 186, 111, 42, 0, 0),
                    (36, 4, 188, 86, 42, 0, 0),
                    (40, 0, 197, 17, 42, 0, 0),
                ],
            ),
        ],
    )
    def test_forking_ladder_stats_are_pinned(self, limits, counts):
        # a problem whose three tolerances end on three different paths
        tasks, cfg, standardize = _problem(410, "shared")
        base = dataclasses.replace(cfg, **limits)
        configs = [dataclasses.replace(base, xi=x) for x in LADDER if x < cfg.epsilon]
        results = fit_xis(tasks, configs, standardize=standardize)
        assert len({id(r) for r in results}) == 3
        assert [r.stats for r in results] == [FitStats(*c) for c in counts]


def two_pass_scan(X, y, z, eps):
    """The fused scan written out, one sign per pass: the fixed table
    ``exp(±eps * s * X)`` times ``exp(s * z)``, then ``log1p`` and
    ``.mean(axis=0)``."""
    s = 1.0 - 2.0 * y
    eps_s = (eps * s)[:, None]
    e_sz = np.exp(s * z)[:, None]
    return [np.log1p(np.exp(X * step) * e_sz).mean(axis=0) for step in (eps_s, -eps_s)]


def kernel_case(seed, zero_line=False):
    """Task terms on a random shape, n up to 400 and p up to 200, whose
    logits reach the clamp regime on every odd seed; with ``zero_line`` the
    first line is all zeros, as a constant line standardizes."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 401)), int(rng.integers(1, 201))
    eps = (0.02, 0.3, 1.0)[seed % 3]
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 3.0, size=p)
    if zero_line:
        X[:, 0] = 0.0
    y = rng.integers(0, 2, size=n)
    y[:2] = 0, 1
    w = rng.normal(size=p) * (40.0 if seed % 2 else 0.3) / np.sqrt(p)
    terms = _TaskTerms(TaskDataset(X, y, np.arange(1.0, p + 1.0)), w, eps)
    return rng, terms


class TestKernelBits:
    """The rewritten kernels return the bits of the code they replaced."""

    @pytest.mark.parametrize("seed", range(30))
    def test_one_pass_scan_equals_two_pass_scan(self, seed):
        _, terms = kernel_case(seed)
        clamped, _ = terms.scan_clamped()
        # the fused scan runs only clamp-free (the even seeds): there each
        # scanned entry is the table form bit for bit, and within its bound
        # of the clamped scan; a half-scan (a task at or over the gate)
        # drops the other sign of each feature whose eg is beyond the margin
        assert terms.clamp_free == (seed % 2 == 0)
        if terms.clamp_free:
            losses, bound = terms.scan_fused(np.empty(2 * terms.X.size))
            scanned = np.isfinite(losses)
            assert (terms.eg is not None) == (terms.X.size >= _HALF_SCAN_MIN)
            if terms.eg is not None:
                eg, margin = terms.eg, terms.margin
                assert np.array_equal(~scanned, [eg > margin, eg < -margin])
            else:
                assert scanned.all()
            want = np.array(two_pass_scan(terms.X, terms.y, terms.z, terms.eps))
            assert np.array_equal(losses[scanned], want[scanned])
            assert np.abs(losses - clamped)[scanned].max() <= bound == terms.bound
        else:
            assert terms.exp_sz is None
        z = terms.z[:, None]
        assert np.array_equal(clamped[0], reference_nll(z + terms.eps * terms.X, terms.y))
        assert np.array_equal(clamped[1], reference_nll(z - terms.eps * terms.X, terms.y))
        # the clamped scan's form before it called moved_losses on every column
        moves = (z + terms.eps * terms.X, z - terms.eps * terms.X)
        assert np.array_equal(clamped, [_nll_from_probs(expit(Z), terms.y) for Z in moves])

    @pytest.mark.parametrize("seed", range(30))
    def test_loss_helper_equals_clipped_loss(self, seed):
        rng, terms = kernel_case(seed)
        assert terms.loss == float(reference_nll(terms.z, terms.y))
        Z = rng.normal(size=(terms.z.shape[0], 5)) * np.array([0.1, 1.0, 10.0, 30.0, 60.0])
        for logits in (Z[:, 3], Z):
            want = reference_nll(logits, terms.y)
            assert np.array_equal(_nll_from_probs(expit(logits), terms.y), want)
        idx = rng.integers(0, terms.X.shape[1], size=4)
        signs = rng.choice([-1.0, 1.0], size=4)
        Z = terms.z[:, None] + (terms.eps * signs)[None, :] * terms.X[:, idx]
        assert np.array_equal(terms.moved_losses(idx, signs), reference_nll(Z, terms.y))

    @pytest.mark.parametrize("seed", range(30))
    def test_penalty_after_equals_written_out_rules(self, seed):
        rng = np.random.default_rng(seed)
        eps = (0.02, 0.3, 1.0)[seed % 3]
        n_feat, L = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        tasks = random_instance(rng, n_feat, L, 12)
        W = rng.integers(-3, 4, size=(n_feat, L)) * eps
        state = _PathState(tasks, eps, W)
        # the backward moves' former expression, bit for bit
        rows, cols = W.nonzero()
        w_vals = W[rows, cols]
        w_new = w_vals - eps * np.sign(w_vals)
        norms = state.row_norms[rows]
        r_new = np.sqrt(np.maximum(norms**2 - w_vals**2 + w_new**2, 0.0))
        assert np.array_equal(state.penalty_after(rows, cols, w_new), state.penalty - norms + r_new)
        # forward_step's former expression, to rounding
        j, l = int(rng.integers(n_feat)), int(rng.integers(L))
        row = W[j, :]
        r_old = float(np.sqrt(row @ row))
        w = row[l] + eps
        former = state.penalty - r_old + float(np.sqrt(max(r_old**2 - row[l] ** 2 + w**2, 0.0)))
        assert state.penalty_after(j, l, w) == pytest.approx(former, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_gradient_from_kept_residual(self, seed):
        # while clamp-free (the even seeds) the loss is convex with curvature
        # at most 1/4, so each fused move loss lies between the tangent from
        # the kept loss and residual and that tangent plus eps**2/8 * mean(x**2):
        # the scanned losses the backward screen reads are never looser than
        # the first-order bound eps * max(sign(w_j) * g_j). In the clamp
        # regime the loss is not convex, there is no fused scan, and the
        # bound is the sum term with reach capped at the clamp.
        _, terms = kernel_case(seed)
        if not terms.clamp_free:
            n = terms.z.shape[0]
            clamp_bound = np.finfo(float).eps * 2.0 * n * (1.0 - np.log(PROB_CLAMP))
            assert terms.exp_sz is None and terms.bound == clamp_bound
            return
        n, eps = terms.z.shape[0], terms.eps
        grad = terms.X.T @ (expit(terms.z) - terms.y) / n
        losses, bound = terms.scan_fused(np.empty(2 * terms.X.size))
        tangent = terms.loss + eps * np.array([grad, -grad])
        tol = 2.0 * bound + 1e-12
        # a half-scan's dropped entries read inf: the bounds hold on the
        # scanned ones
        scanned = np.isfinite(losses)
        assert np.all(losses[scanned] >= (tangent - tol)[scanned])
        curvature = eps**2 / 8.0 * np.mean(terms.X**2, axis=0)
        assert np.all(losses[scanned] <= (tangent + curvature + tol)[scanned])
        task_max = float(np.max(terms.signs * grad[terms.nz]))
        assert _back_best(losses, terms) >= terms.loss - eps * task_max - tol

    # clamp-free cases, six of them below the half-scan's gate
    @pytest.mark.parametrize("seed", range(0, 50, 2))
    def test_half_scan_drops_only_moves_that_raise_the_loss(self, seed):
        # by convexity a dropped move's clamped loss lies above the current
        # loss by more than the bound, and above its tangent bound, which
        # back_best reads for a dropped move toward zero; the zero line's
        # moves leave the loss as it is, so both of its signs are scanned
        _, terms = kernel_case(seed, zero_line=True)
        assert terms.clamp_free
        losses, bound = terms.scan_fused(np.empty(2 * terms.X.size))
        clamped, _ = terms.scan_clamped()
        dropped = ~np.isfinite(losses)
        if terms.X.size < _HALF_SCAN_MIN:
            assert terms.eg is None and not dropped.any()
        else:
            assert terms.eg[0] == 0.0 and not dropped[:, 0].any()
            assert dropped.sum() >= terms.X.shape[1] - 1
            assert np.all(clamped[dropped] > terms.loss + bound)
        rows = (terms.signs > 0).view(np.int8)
        toward_zero = clamped[rows, terms.nz]
        assert _back_best(losses, terms) - bound <= toward_zero.min()
        if terms.eg is not None:
            tangent = terms.loss + np.abs(terms.eg[terms.nz]) - terms.margin
            gone = dropped[rows, terms.nz]
            assert gone.any() and np.all(tangent[gone] <= toward_zero[gone])

    def test_clamped_subsets_lie_within_the_bound_of_the_whole_scan(self):
        # in the clamp regime (the odd seeds) the backward screen reads the
        # whole clamped scan and the backward moves are evaluated on a column
        # subset, which sums each column in another order: the two differ by
        # rounding only, within the task's bound, and a zero bound would not do
        differ = 0
        for seed in range(1, 30, 2):
            rng, terms = kernel_case(seed)
            assert not terms.clamp_free and terms.bound > 0
            clamped, _ = terms.scan_clamped()
            p = terms.X.shape[1]
            for _ in range(50):
                idx = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
                signs = rng.choice([-1.0, 1.0], size=idx.size)
                rows = (signs < 0).view(np.int8)
                gap = np.abs(terms.moved_losses(idx, signs) - clamped[rows, idx])
                assert gap.max() <= terms.bound
                differ += bool(gap.max() > 0)
        assert differ > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_back_best_reads_the_moves_toward_zero(self, seed):
        # the lowest scanned loss among the moves toward zero, written out:
        # the - move of each positive weight, the + move of each negative one
        rng, terms = kernel_case(seed)
        p = terms.X.shape[1]
        w = rng.integers(-2, 3, size=p) * terms.eps
        terms.update(w)
        losses = rng.normal(size=(2, p))
        toward_zero = [losses[1, j] if w[j] > 0 else losses[0, j] for j in np.flatnonzero(w)]
        assert _back_best(losses, terms) == min(toward_zero, default=np.inf)


def _result_with(steps, weights, eps):
    return FitResult(
        weights=WeightMatrix(np.asarray(weights, dtype=float)),
        trace=SolverTrace(tuple(steps), TERMINATED_NO_IMPROVING_STEP),
        lambda_final=steps[-1].lambda_after if steps else 0.0,
        standardization=(),
    )


def _record(i, kind, j, l, sign, emp, pen, lam):
    return StepRecord(i, kind, j, l, sign, emp, pen, emp + lam * pen, lam)


class TestValidateTrace:
    cfg = SolverConfig(epsilon=0.5, xi=0.01)

    def test_accepts_clean_trace(self):
        steps = [
            _record(1, "forward", 0, 0, 1, 0.6, 0.5, 0.2),
            _record(2, "forward", 1, 0, -1, 0.5, 1.0, 0.2),
        ]
        validate_trace(_result_with(steps, [[0.5], [-0.5]], 0.5), self.cfg)

    def test_rejects_increasing_level(self):
        steps = [
            _record(1, "forward", 0, 0, 1, 0.6, 0.5, 0.2),
            _record(2, "forward", 1, 0, 1, 0.5, 1.0, 0.9),
        ]
        with pytest.raises(ValueError, match="level increased"):
            validate_trace(_result_with(steps, [[0.5], [0.5]], 0.5), self.cfg)

    def test_rejects_off_lattice_weights(self):
        steps = [_record(1, "forward", 0, 0, 1, 0.6, 0.5, 0.2)]
        with pytest.raises(ValueError, match="integer multiples"):
            validate_trace(_result_with(steps, [[0.37]], 0.5), self.cfg)

    def test_rejects_leading_backward_step(self):
        steps = [_record(1, "backward", 0, 0, -1, 0.6, 0.0, 0.2)]
        with pytest.raises(ValueError, match="starts with a backward"):
            validate_trace(_result_with(steps, [[0.0]], 0.5), self.cfg)

    def test_rejects_backward_step_below_tolerance(self):
        steps = [
            _record(1, "forward", 0, 0, 1, 0.600, 0.5, 0.2),
            # at lam 0.2 the penalised loss moves 0.700 -> 0.699: below xi
            _record(2, "backward", 0, 0, -1, 0.699, 0.0, 0.2),
        ]
        with pytest.raises(ValueError, match="backward step"):
            validate_trace(_result_with(steps, [[0.0]], 0.5), self.cfg)

    def test_rejects_untouched_nonzero_coordinate(self):
        steps = [_record(1, "forward", 0, 0, 1, 0.6, 0.5, 0.2)]
        with pytest.raises(ValueError, match="never moved forward"):
            validate_trace(_result_with(steps, [[0.5], [0.5]], 0.5), self.cfg)
