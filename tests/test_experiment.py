import numpy as np
import pytest

from frfselect import (
    GridSpec,
    ModalMode,
    ModelChoice,
    SolverConfig,
    SyntheticPopulationSpec,
    TaskDataset,
    fit,
    grid_search,
    gini_index,
    kfold_split,
    run_comparison,
    run_transfer,
    standardized_copy,
    synth_population,
    transfer_evaluate,
    window_split,
)
from frfselect.experiment import GridRow, _select_best
from frfselect.model import Standardizer


def balanced_labels(n):
    half = n // 2
    return np.concatenate([np.zeros(half, int), np.ones(n - half, int)])


class TestKfoldSplit:
    def test_fold_sizes_and_stratification(self):
        labels = balanced_labels(1500)
        folds = kfold_split(1500, labels, 5, seed=0)
        assert len(folds) == 5
        for f in folds:
            assert f.size == 300
            assert int(labels[f].sum()) == 150

    def test_disjoint_cover(self):
        labels = balanced_labels(40)
        folds = kfold_split(40, labels, 4, seed=1)
        joined = np.concatenate(folds)
        assert joined.size == 40
        assert np.array_equal(np.sort(joined), np.arange(40))

    def test_indices_come_back_sorted(self):
        labels = balanced_labels(30)
        for f in kfold_split(30, labels, 3, seed=2):
            assert np.array_equal(f, np.sort(f))

    def test_imbalanced_classes_stay_within_one(self):
        labels = np.array([1] * 7 + [0] * 13)
        folds = kfold_split(20, labels, 4, seed=3)
        pos = [int(labels[f].sum()) for f in folds]
        assert max(pos) - min(pos) <= 1
        assert sum(pos) == 7

    def test_deterministic_per_seed(self):
        labels = balanced_labels(24)
        a = kfold_split(24, labels, 3, seed=9)
        b = kfold_split(24, labels, 3, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = kfold_split(24, labels, 3, seed=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_rejects_bad_inputs(self):
        labels = balanced_labels(10)
        with pytest.raises(ValueError):
            kfold_split(10, labels, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_split(10, labels, 11, seed=0)
        with pytest.raises(ValueError):
            kfold_split(10, np.zeros(10, int), 2, seed=0)
        with pytest.raises(ValueError):
            kfold_split(8, labels, 2, seed=0)


class TestGridSpec:
    def test_default_space_has_ten_pairs(self):
        pairs = GridSpec().pairs()
        assert len(pairs) == 10
        assert pairs == [
            (1.0, 0.1), (1.0, 0.01), (1.0, 0.001),
            (0.3, 0.1), (0.3, 0.01), (0.3, 0.001),
            (0.1, 0.01), (0.1, 0.001),
            (0.03, 0.01), (0.03, 0.001),
        ]

    def test_pairs_drop_non_dominating_epsilon(self):
        spec = GridSpec(epsilons=(0.1,), xis=(0.1, 0.2))
        assert spec.pairs() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(epsilons=())
        with pytest.raises(ValueError):
            GridSpec(folds=1)
        with pytest.raises(ValueError):
            GridSpec(window_counts=(0,))


class TestSelectBest:
    def row(self, f1, gini, e=0.1, w=1, x=0.01, stage="s"):
        return GridRow(stage, e, x, w, f1, gini)

    def test_highest_f1_wins(self):
        rows = [self.row(0.8, 0.9), self.row(0.9, 0.1)]
        assert _select_best(rows).mean_f1 == 0.9

    def test_gini_breaks_f1_ties(self):
        rows = [self.row(0.9, 0.5), self.row(0.9, 0.8)]
        assert _select_best(rows).mean_gini == 0.8

    def test_smaller_epsilon_breaks_remaining_ties(self):
        rows = [self.row(0.9, 0.8, e=0.3), self.row(0.9, 0.8, e=0.1)]
        assert _select_best(rows).epsilon == 0.1

    def test_fewer_windows_then_smaller_xi(self):
        rows = [self.row(0.9, 0.8, w=6), self.row(0.9, 0.8, w=2)]
        assert _select_best(rows).n_windows == 2
        rows = [self.row(0.9, 0.8, x=0.01), self.row(0.9, 0.8, x=0.001)]
        assert _select_best(rows).xi == 0.001


def small_population(seed=5, n_samples=24, n_test=10, n_features=48):
    spec = SyntheticPopulationSpec(
        modes=(ModalMode(40.0, 0.04), ModalMode(90.0, 0.03)),
        class_shift=(4.0, -5.0),
        nuisance_band=(130.0, 190.0),
        noise_sd=0.02,
        n_samples=n_samples,
        seed=seed,
        n_test=n_test,
        n_tasks=2,
        n_features=n_features,
    )
    return synth_population(spec)


class TestGridSearch:
    def test_single_point_matches_manual_fold_loop(self):
        # same folds, same fits, assembled by hand from public pieces
        pop = small_population()
        task = pop.tasks[0]
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,),
                        folds=2, seed=13)
        out = grid_search([task], grid, "independent", max_iters=80)
        row = out.table[0]

        folds = kfold_split(
            task.n_samples, task.labels, 2, np.random.SeedSequence([13, 0])
        )
        cfg = SolverConfig(0.5, 0.01, max_iters=80)
        f1s, ginis = [], []
        for f in range(2):
            train_idx = np.sort(np.concatenate([folds[g] for g in range(2) if g != f]))
            tr = task.subset(train_idx)
            va = task.subset(folds[f])
            res = fit([tr], cfg)
            va_std = standardized_copy(va, res.standardization[0])
            f1s.append(transfer_evaluate(res, 0, va_std))
            ginis.append(gini_index(res.weights.column(0)))
        assert row.mean_f1 == np.mean(f1s)
        assert row.mean_gini == np.mean(ginis)

    def test_exhaustive_covers_the_product(self):
        pop = small_population()
        grid = GridSpec(epsilons=(0.5, 0.2), xis=(0.01,), window_counts=(1, 2),
                        folds=2, seed=0)
        out = grid_search(pop.tasks, grid, "mtl", max_iters=60)
        points = {(r.epsilon, r.xi, r.n_windows) for r in out.table}
        assert points == {(0.5, 0.01, 1), (0.5, 0.01, 2), (0.2, 0.01, 1), (0.2, 0.01, 2)}
        assert out.best == _select_best(out.table)

    def test_staged_runs_stages_without_repeats(self):
        pop = small_population()
        grid = GridSpec(
            epsilons=(0.5, 0.2), xis=(0.01,), window_counts=(1, 2), folds=2,
            seed=0, stage_windows=1, refine_epsilons=(0.3,),
        )
        out = grid_search(pop.tasks, grid, "independent", max_iters=60,
                          strategy="staged")
        stages = [r.stage for r in out.table]
        assert stages == sorted(stages, key=["pairs", "windows", "refine"].index)
        points = [(r.epsilon, r.xi, r.n_windows) for r in out.table]
        assert len(points) == len(set(points))
        assert any(r.stage == "refine" and r.epsilon == 0.3 for r in out.table)

    def test_refine_respects_epsilon_floor(self):
        pop = small_population()
        grid = GridSpec(
            epsilons=(0.5,), xis=(0.1,), window_counts=(1,), folds=2,
            seed=0, stage_windows=1, refine_epsilons=(0.05,),  # 0.05 <= xi 0.1
        )
        out = grid_search(pop.tasks, grid, "independent", max_iters=40,
                          strategy="staged")
        assert all(r.stage != "refine" for r in out.table)

    def test_threads_do_not_change_results(self):
        pop = small_population()
        grid = GridSpec(epsilons=(0.5, 0.2), xis=(0.01,), window_counts=(1, 2),
                        folds=2, seed=4)
        a = grid_search(pop.tasks, grid, "mtl", max_iters=50)
        b = grid_search(pop.tasks, grid, "mtl", max_iters=50, threads=4)
        assert a.table == b.table
        assert a.best == b.best

    def test_rejects_bad_arguments(self):
        pop = small_population()
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=2)
        with pytest.raises(ValueError):
            grid_search([], grid, "independent")
        with pytest.raises(ValueError):
            grid_search(pop.tasks, grid, "both")
        with pytest.raises(ValueError):
            grid_search(pop.tasks, grid, "independent", strategy="greedy")
        empty = GridSpec(epsilons=(0.05,), xis=(0.1,), window_counts=(1,), folds=2)
        with pytest.raises(ValueError, match="pairs"):
            grid_search(pop.tasks, empty, "independent")


class TestRunComparison:
    def choices(self, n_windows=2, epsilon=0.3, max_iters=120):
        cfg = SolverConfig(epsilon, 0.01, max_iters=max_iters)
        return [
            ModelChoice("independent", cfg, n_windows),
            ModelChoice("mtl", cfg, n_windows),
        ]

    def test_row_grid_is_complete(self):
        pop = small_population()
        report = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        assert len(report.rows) == 2 * 2 * 2  # windows x tasks x modes
        keys = {(r.window, r.task_id, r.mode) for r in report.rows}
        assert len(keys) == 8
        plan = window_split(48, 2)
        for r in report.rows:
            assert (r.window_start, r.window_stop) == plan.ranges[r.window]

    def test_separable_population_scores_perfectly_somewhere(self):
        pop = small_population()
        report = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        by_mode = {}
        for r in report.rows:
            by_mode.setdefault(r.mode, []).append(r.f1)
        # the window holding the class-separating modes must classify cleanly
        assert max(by_mode["independent"]) == 1.0
        assert max(by_mode["mtl"]) == 1.0

    def test_active_features_use_global_indices(self):
        pop = small_population()
        report = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        plan = window_split(48, 2)
        for r in report.rows:
            start, stop = plan.ranges[r.window]
            for a in r.active:
                assert start <= a.index < stop
                assert a.weight != 0.0
                assert a.freq == pop.freqs[a.index]

    def test_traces_only_on_request(self):
        pop = small_population()
        bare = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        assert bare.traces == ()
        with_traces = run_comparison(
            pop.tasks, pop.test_tasks, self.choices(), include_traces=True
        )
        keys = [k for k, _ in with_traces.traces]
        assert keys == [
            "independent/window0/task1",
            "independent/window0/task2",
            "independent/window1/task1",
            "independent/window1/task2",
            "mtl/window0",
            "mtl/window1",
        ]

    def test_rejects_bad_inputs(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01)
        with pytest.raises(ValueError, match="one test set per"):
            run_comparison(pop.tasks, pop.test_tasks[:1], self.choices())
        with pytest.raises(ValueError, match="duplicate modes"):
            run_comparison(
                pop.tasks, pop.test_tasks,
                [ModelChoice("mtl", cfg, 1), ModelChoice("mtl", cfg, 2)],
            )
        with pytest.raises(ValueError):
            run_comparison(pop.tasks, pop.test_tasks, [])

    def test_rejects_test_set_on_another_frequency_axis(self):
        pop = small_population()
        test = pop.test_tasks[1]
        shifted = TaskDataset(test.features, test.labels, test.feature_freqs + 1000.0, "task2")
        with pytest.raises(ValueError, match="test set 'task2': feature count or frequencies"):
            run_comparison(pop.tasks, (pop.test_tasks[0], shifted), self.choices())

    def test_deterministic_repeat(self):
        pop = small_population()
        a = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        b = run_comparison(pop.tasks, pop.test_tasks, self.choices())
        assert a == b


class TestTransfer:
    def test_zero_weight_model_scores_the_positive_rate(self):
        # all-zero weights predict probability one half everywhere, which the
        # threshold maps to class 1: F1 = 2p / (p + 1) at positive fraction p
        flat = TaskDataset(
            np.zeros((4, 2)), np.array([1, 0, 1, 0]), np.array([1.0, 2.0]), "flat"
        )
        res = fit([flat], SolverConfig(0.3, 0.01), standardize=False)
        assert not res.weights.values.any()
        unseen = TaskDataset(
            np.arange(20.0).reshape(10, 2),
            np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0]),
            np.array([1.0, 2.0]),
            "unseen",
        )
        got = transfer_evaluate(res, 0, unseen)
        assert got == pytest.approx(6.0 / 13.0, abs=1e-15)
        p = 0.3
        assert got == pytest.approx(2 * p / (p + 1), abs=1e-15)

    def test_self_transfer_reproduces_report_scores(self):
        # scoring a task with its own column and training statistics is the
        # same computation the comparison report runs
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01, max_iters=120)
        report = run_comparison(
            pop.tasks, pop.test_tasks, [ModelChoice("mtl", cfg, 1)]
        )
        res = fit(pop.tasks, cfg)
        for l, row in enumerate(report.rows):
            test_std = standardized_copy(pop.test_tasks[l], res.standardization[l])
            assert transfer_evaluate(res, l, test_std) == row.f1

    def test_run_transfer_matches_manual_loop(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01, max_iters=120)
        choice = ModelChoice("mtl", cfg, 1)
        unseen = pop.test_tasks[1]
        rows = run_transfer(pop.tasks, unseen, [choice])
        assert [r.source_task for r in rows] == ["task1", "task2"]

        res = fit(pop.tasks, cfg)
        own = Standardizer.fit(unseen.features)
        unseen_std = standardized_copy(unseen, own)
        for l, row in enumerate(rows):
            assert row.f1 == transfer_evaluate(res, l, unseen_std)

    def test_row_count_and_window_labels(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01, max_iters=80)
        rows = run_transfer(
            pop.tasks, pop.test_tasks[0],
            [ModelChoice("independent", cfg, 2), ModelChoice("mtl", cfg, 2)],
        )
        assert len(rows) == 2 * 2 * 2
        assert {r.window for r in rows} == {0, 1}

    def test_feature_count_mismatch_rejected(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01)
        narrow = TaskDataset(
            np.ones((4, 3)), np.array([1, 0, 1, 0]),
            np.array([1.0, 2.0, 3.0]), "narrow",
        )
        with pytest.raises(ValueError, match="feature count"):
            run_transfer(pop.tasks, narrow, [ModelChoice("mtl", cfg, 1)])

    def test_rejects_unseen_task_on_another_frequency_axis(self):
        pop = small_population()
        unseen = pop.test_tasks[0]
        shifted = TaskDataset(unseen.features, unseen.labels, unseen.feature_freqs + 1000.0, "far")
        with pytest.raises(ValueError, match="unseen task 'far': feature count or frequencies"):
            run_transfer(pop.tasks, shifted, [ModelChoice("mtl", SolverConfig(0.3, 0.01), 1)])

    def test_run_transfer_rejects_no_choices(self):
        pop = small_population()
        with pytest.raises(ValueError, match="at least one ModelChoice"):
            run_transfer(pop.tasks, pop.test_tasks[0], [])

    def test_run_transfer_rejects_duplicate_modes(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01, max_iters=40)
        with pytest.raises(ValueError, match="duplicate modes"):
            run_transfer(
                pop.tasks, pop.test_tasks[0],
                [ModelChoice("mtl", cfg, 1), ModelChoice("mtl", cfg, 2)],
            )

    def test_run_transfer_rejects_no_training_tasks(self):
        pop = small_population()
        with pytest.raises(ValueError, match="at least one training task"):
            run_transfer([], pop.test_tasks[0], [ModelChoice("mtl", SolverConfig(0.3, 0.01), 1)])

    def test_transfer_evaluate_rejects_bad_column(self):
        pop = small_population()
        res = fit(pop.tasks, SolverConfig(0.3, 0.01, max_iters=40))
        with pytest.raises(ValueError, match="source_task_col"):
            transfer_evaluate(res, 5, pop.tasks[0])


class TestModelChoice:
    def test_validation(self):
        cfg = SolverConfig(0.3, 0.01)
        with pytest.raises(ValueError):
            ModelChoice("other", cfg, 1)
        with pytest.raises(ValueError):
            ModelChoice("mtl", cfg, 0)
