import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from scipy.special import expit

from frfselect import (
    ConfigError,
    DegenerateLabelsError,
    FitResult,
    GridSpec,
    ModalMode,
    ModelChoice,
    SolverConfig,
    SolverTrace,
    SyntheticPopulationSpec,
    TaskDataset,
    WeightMatrix,
    backward_step,
    f1_score,
    fit,
    forward_step,
    grid_search,
    gini_index,
    kfold_split,
    run_comparison,
    run_transfer,
    standardized_copy,
    synth_population,
    transfer_evaluate,
    window_split,
    write_report_bundle,
)
from frfselect import experiment
from frfselect.experiment import MODE_INDEPENDENT, MODE_MTL, GridRow, _select_best
from frfselect.model import Standardizer
from tables import load_delimited_table


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
        for k, message in ((1, "at least 2"), (2.5, "an integer"), (True, "an integer")):
            with pytest.raises(ValueError, match=f"k must be {message}"):
                kfold_split(10, labels, k, seed=0)
        for n_samples in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                kfold_split(n_samples, labels, 2, seed=0)
        with pytest.raises(ValueError):
            kfold_split(10, labels, 11, seed=0)
        with pytest.raises(ValueError):
            kfold_split(10, np.zeros(10, int), 2, seed=0)
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            kfold_split(10, labels + 1, 2, seed=0)
        with pytest.raises(ValueError):
            kfold_split(8, labels, 2, seed=0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="^n_samples must be at least 1, got 0$"):
            kfold_split(0, [], 2, 0)

    def test_rejects_more_folds_than_the_larger_class(self, tiny_task):
        # each class is dealt from fold 0: a third fold of two samples per
        # class would be empty
        assert [f.size for f in kfold_split(4, [0, 1, 0, 1], 2, 0)] == [2, 2]
        assert [f.size for f in kfold_split(4, [0, 1, 1, 1], 3, 0)] == [2, 1, 1]
        for n, labels, k, larger in ((2, [0, 1], 2, 1), (4, [0, 1, 0, 1], 3, 2)):
            with pytest.raises(ValueError, match=f"^k={k} exceeds the {larger} samples of the larger class$"):
                kfold_split(n, labels, k, 0)
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=3)
        # grid_search names the task: k above the larger class is above the smaller
        match = "^folds: 3 exceeds the 2 samples of the smaller class of task 'tiny'$"
        with pytest.raises(ValueError, match=match):
            grid_search([tiny_task], grid, "independent")

    def test_grid_rejects_more_folds_than_the_smaller_class(self, tiny_task):
        # one sample of class 0 sits in fold 0, so that fold's training rest
        # would hold class 1 alone
        task = TaskDataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 1, 1, 1]),
                           np.array([1.0, 2.0]), "t")
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=3)
        match = "^folds: 3 exceeds the 1 samples of the smaller class of task 't'$"
        for mode in (MODE_INDEPENDENT, MODE_MTL):
            with pytest.raises(ValueError, match=match):
                grid_search([task], grid, mode)
        # two folds fit the two samples of tiny_task's smaller class
        grid = dataclasses.replace(grid, folds=2)
        assert grid_search([tiny_task], grid, "independent").best.n_windows == 1

    def test_folds_are_checked_before_a_single_class_task(self, tiny_task):
        # the two-class task's folds are a setting error, the one-class task
        # a runtime one, whichever comes first in the task list
        one = TaskDataset(tiny_task.features, np.ones(tiny_task.n_samples, dtype=int),
                          tiny_task.feature_freqs, "ones")
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=3)
        match = "^folds: 3 exceeds the 2 samples of the smaller class of task 'tiny'$"
        with pytest.raises(ConfigError, match=match):
            grid_search([one, tiny_task], grid, MODE_INDEPENDENT)

    def test_grid_names_a_single_class_task(self, tiny_task):
        one = TaskDataset(tiny_task.features, np.ones(tiny_task.n_samples, dtype=int),
                          tiny_task.feature_freqs, "ones")
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=2)
        match = "^task 'ones' contains a single class; both classes must be present$"
        for mode in (MODE_INDEPENDENT, MODE_MTL):
            with pytest.raises(DegenerateLabelsError, match=match):
                grid_search([tiny_task, one], grid, mode)


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
        spec = GridSpec(epsilons=(0.1, 0.3), xis=(0.1, 0.2))
        assert spec.pairs() == [(0.3, 0.1), (0.3, 0.2)]
        with pytest.raises(ValueError, match=r"^no \(epsilon, xi\) pairs satisfy epsilon > xi$"):
            GridSpec(epsilons=(0.1,), xis=(0.1, 0.2))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(epsilons=())
        with pytest.raises(ValueError, match="folds must be at least 2, got 1"):
            GridSpec(folds=1)
        with pytest.raises(ValueError, match=r"window_counts\[0\] must be at least 1, got 0"):
            GridSpec(window_counts=(0,))
        with pytest.raises(ValueError, match="stage_windows must be at least 1, got 0"):
            GridSpec(stage_windows=0)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            GridSpec(seed=-1)
        for name in ("epsilons", "xis", "window_counts", "refine_epsilons"):
            for value in (None, 0.1):
                with pytest.raises(ValueError, match=rf"^{name} must be a list, got {value}$"):
                    GridSpec(**{name: value})

    @pytest.mark.parametrize("field, value, name", [
        ("epsilons", (0.3, 0.1, 0.3), "epsilons[2]"),
        ("xis", (0.01, 0.01), "xis[1]"),
        ("window_counts", (2, np.int64(2)), "window_counts[1]"),
        ("refine_epsilons", (1, 1.0), "refine_epsilons[1]"),  # compared as numbers
    ])
    def test_repeated_entries_rejected(self, field, value, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be unique, got "):
            GridSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("window_counts", (2.7,)),
        ("window_counts", (2, 3.0)),
        ("window_counts", (True,)),
        ("folds", 2.5),
        ("folds", True),
        ("stage_windows", 1.5),
        ("stage_windows", True),
        ("seed", 2.5),
        ("seed", True),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        # a list entry is named by its index; the bad entry is the last one
        name = f"{field}[{len(value) - 1}]" if isinstance(value, tuple) else field
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
            GridSpec(**{field: value})


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
            seed=0, stage_windows=1, refine_epsilons=(0.3,), strategy="staged",
        )
        out = grid_search(pop.tasks, grid, "independent", max_iters=60)
        stages = [r.stage for r in out.table]
        assert stages == sorted(stages, key=["pairs", "windows", "refine"].index)
        points = [(r.epsilon, r.xi, r.n_windows) for r in out.table]
        assert len(points) == len(set(points))
        assert any(r.stage == "refine" and r.epsilon == 0.3 for r in out.table)

    def test_staged_best_window_count_is_a_python_int(self):
        pop = small_population()
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(2,), folds=2,
                        stage_windows=np.int64(2), strategy="staged")
        assert type(grid.stage_windows) is int
        best = grid_search(pop.tasks, grid, "independent", max_iters=20).best
        assert best.n_windows == 2 and type(best.n_windows) is int

    def test_refine_respects_epsilon_floor(self):
        pop = small_population()
        grid = GridSpec(
            epsilons=(0.5,), xis=(0.1,), window_counts=(1,), folds=2,
            seed=0, stage_windows=1, refine_epsilons=(0.05,),  # 0.05 <= xi 0.1
            strategy="staged",
        )
        out = grid_search(pop.tasks, grid, "independent", max_iters=40)
        assert all(r.stage != "refine" for r in out.table)

    @pytest.mark.parametrize("changes, message", [
        (dict(window_counts=(2, 500)), "window_counts: 500 exceeds the 196 feature lines"),
        (dict(strategy="staged", stage_windows=500),
         "stage_windows: 500 exceeds the 196 feature lines"),
    ])
    def test_window_counts_are_checked_before_any_fit(self, monkeypatch, changes, message):
        tasks, grid = benchmark_grid_case()
        fits = []
        monkeypatch.setattr(experiment, "fit_xis", lambda *args, **kw: fits.append(args))
        for mode in (MODE_INDEPENDENT, MODE_MTL):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                grid_search(tasks, dataclasses.replace(grid, **changes), mode)
        assert fits == []

    @pytest.mark.parametrize("mode", ["independent", "mtl"])
    @pytest.mark.parametrize("strategy", ["exhaustive", "staged"])
    def test_table_equals_one_solo_fit_per_point(self, monkeypatch, mode, strategy):
        pop = small_population()
        grid = GridSpec(
            epsilons=(0.5, 0.2), xis=(0.1, 0.01, 0.001), window_counts=(1, 2), folds=2,
            seed=3, stage_windows=2, refine_epsilons=(0.3,), strategy=strategy,
        )
        shared = grid_search(pop.tasks, grid, mode, max_iters=60)
        # the tolerances of one (epsilon, windows) reach different scores
        assert len({(r.epsilon, r.n_windows, r.mean_gini) for r in shared.table}) > len(
            {(r.epsilon, r.n_windows) for r in shared.table}
        )

        group_sizes = []

        def solo_fits(tasks, configs):
            group_sizes.append(len(configs))
            return tuple(fit(tasks, c) for c in configs)

        monkeypatch.setattr(experiment, "fit_xis", solo_fits)
        solo = grid_search(pop.tasks, grid, mode, max_iters=60)
        assert max(group_sizes) == 3
        assert shared.table == solo.table
        assert shared.best == solo.best

    def test_rejects_bad_arguments(self):
        pop = small_population()
        grid = GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=2)
        with pytest.raises(ValueError, match="^at least one training task is required$"):
            grid_search([], grid, "independent")
        with pytest.raises(ValueError):
            grid_search(pop.tasks, grid, "both")
        with pytest.raises(ValueError):
            GridSpec(epsilons=(0.5,), xis=(0.01,), window_counts=(1,), folds=2, strategy="greedy")
        with pytest.raises(ValueError, match="pairs"):
            GridSpec(epsilons=(0.05,), xis=(0.1,), window_counts=(1,), folds=2)


def benchmark_grid_case():
    """The grid-cv benchmark's inputs for case 3: 2 tasks, 196 lines, 30
    samples per class; 2 epsilons x 2 xis x 2 window counts x 3 folds."""
    spec = SyntheticPopulationSpec(
        modes=(ModalMode(40.0, 0.04), ModalMode(90.0, 0.03)), class_shift=(4.0, -5.0),
        nuisance_band=(130.0, 190.0), noise_sd=0.3, n_samples=30, seed=3, n_tasks=2,
        n_features=196,
    )
    grid = GridSpec(epsilons=(1.0, 0.3), xis=(0.1, 0.01), window_counts=(2, 4), folds=3, seed=3)
    return synth_population(spec).tasks, grid


@pytest.fixture(scope="module")
def instrumented_grid():
    """Per mode: the (result, column) of every ``_scored_f1`` call, and the
    per-field ``FitStats`` sums over the distinct results of every fit."""
    tasks, grid = benchmark_grid_case()
    real_f1, real_fits = experiment._scored_f1, experiment.fit_xis
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for mode in (MODE_INDEPENDENT, MODE_MTL):
            scored, sums = [], Counter()

            def counted_f1(res, col, data, scored=scored):
                scored.append((res, col))  # holds res, so its id stays unique
                return real_f1(res, col, data)

            def summed_fits(tasks, configs, sums=sums, **kwargs):
                results = real_fits(tasks, configs, **kwargs)
                for res in {id(r): r for r in results}.values():
                    sums.update(dataclasses.asdict(res.stats))
                return results

            mp.setattr(experiment, "_scored_f1", counted_f1)
            mp.setattr(experiment, "fit_xis", summed_fits)
            grid_search(tasks, grid, mode, max_iters=40)
            runs[mode] = scored, dict(sums)
    return runs


class TestGridGlue:
    def test_each_shared_result_is_scored_once(self, instrumented_grid):
        calls = [scored for scored, _ in instrumented_grid.values()]
        for scored in calls:
            assert len({(id(res), col) for res, col in scored}) == len(scored)
        # 83 independent and 84 joint paths: configs on an unforked path
        # share one result, which 288 scorings would repeat
        assert [len(scored) for scored in calls] == [83, 84]

    # per-field sums over the grid's distinct paths, recorded before the
    # screening terms moved onto the path state (backward_exact re-pinned
    # when the backward screen came to read the kept scans and again when it
    # came to screen clamp-regime tasks, and fused_scans and clamped_scans
    # counting kernel runs since); a drift in what grid-style paths screen,
    # scan or recheck shows here
    @pytest.mark.parametrize(
        "mode,sums",
        [
            (MODE_INDEPENDENT, dict(forward_steps=3161, backward_steps=12,
                                    backward_candidates=38427, backward_exact=197,
                                    fused_scans=2877, clamped_scans=306, recheck_scans=0)),
            (MODE_MTL, dict(forward_steps=1674, backward_steps=6, backward_candidates=25581,
                            backward_exact=103, fused_scans=1716, clamped_scans=6,
                            recheck_scans=0)),
        ],
    )
    def test_grid_fit_stats_are_pinned(self, instrumented_grid, mode, sums):
        assert instrumented_grid[mode][1] == sums


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
        ranges = window_split(48, 2)
        for r in report.rows:
            assert (r.window_start, r.window_stop) == ranges[r.window]

    def test_window_counts_are_checked_before_any_fit(self, monkeypatch):
        pop = small_population()
        choices = [self.choices()[0], ModelChoice("mtl", SolverConfig(0.3, 0.01), 49)]
        fits = []
        monkeypatch.setattr(experiment, "fit_xis", lambda *args, **kw: fits.append(args))
        message = "^n_windows: 49 exceeds the 48 feature lines$"
        with pytest.raises(ConfigError, match=message):
            run_comparison(pop.tasks, pop.test_tasks, choices)
        with pytest.raises(ConfigError, match=message):
            run_transfer(pop.tasks, pop.test_tasks[0], choices)
        assert fits == []

    def test_numpy_window_count_writes_a_report_bundle(self, tmp_path):
        # the checked Python int is stored, so the window bounds are ints
        pop = small_population()
        choices = self.choices(n_windows=np.int64(2), max_iters=20)
        assert type(choices[0].n_windows) is int
        report = run_comparison(pop.tasks, pop.test_tasks, choices)
        assert all(type(r.window_stop) is int for r in report.rows)
        write_report_bundle(report, {}, tmp_path)

    def test_integer_epsilon_writes_as_a_float(self, tmp_path):
        pop = small_population()
        summaries = []
        for eps in (1, 1.0):
            choices = [ModelChoice("mtl", SolverConfig(eps, 0.01, max_iters=20), 1)]
            report = run_comparison(pop.tasks, pop.test_tasks, choices)
            summaries.append(write_report_bundle(report, {}, tmp_path / str(eps))["summary"])
        assert summaries[0].read_bytes() == summaries[1].read_bytes()
        assert load_delimited_table(summaries[0])[0]["epsilon"] == "1.0"

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
        ranges = window_split(48, 2)
        for r in report.rows:
            start, stop = ranges[r.window]
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

    def test_rejects_repeated_task_ids(self):
        pop = small_population()
        task = pop.tasks[0]
        with pytest.raises(ValueError, match="training task id 'task1' is repeated"):
            run_comparison((task, task), (pop.test_tasks[0],) * 2, self.choices())

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
    @pytest.mark.parametrize("z", [0.0, 1e-17, -1e-17, 1e-300, -1e-300, 800.0, -800.0])
    def test_threshold_matches_the_clipped_logistic(self, z):
        # expit(z) >= 0.5 predicts what the former expit clipped into (0, 1)
        # predicted; z >= 0 would not, for z in about (-1.1e-16, 0)
        res = FitResult(WeightMatrix([[1.0]]), SolverTrace((), "no_improving_step"), 0.0, ())
        unseen = TaskDataset([[z], [z]], [0, 1], [1.0], "unseen")
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        pred = int(np.clip(expit(z), lo, hi) >= 0.5)
        assert transfer_evaluate(res, 0, unseen) == f1_score([0, 1], [pred, pred])

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
        with pytest.raises(ValueError, match="source_task_col 5 outside 0..1"):
            transfer_evaluate(res, 5, pop.tasks[0])
        with pytest.raises(ValueError, match="^unseen task has 3 features, weights have 48$"):
            transfer_evaluate(res, 0, pop.tasks[0].window(0, 3))
        for col, message in ((-1, "at least 0"), (2.5, "an integer"), (True, "an integer")):
            with pytest.raises(ValueError, match=f"source_task_col must be {message}"):
                transfer_evaluate(res, col, pop.tasks[0])


class TestModelChoice:
    def test_validation(self):
        cfg = SolverConfig(0.3, 0.01)
        with pytest.raises(ValueError):
            ModelChoice("other", cfg, 1)
        with pytest.raises(ValueError, match="n_windows must be at least 1, got 0"):
            ModelChoice("mtl", cfg, 0)

    @pytest.mark.parametrize("n_windows", [1.5, 2.0, True])
    def test_n_windows_must_be_an_integer(self, n_windows):
        with pytest.raises(ValueError, match="n_windows must be an integer"):
            ModelChoice("mtl", SolverConfig(0.3, 0.01), n_windows)


class TestOneFeatureAxis:
    """Every runner windows all training tasks by one ``window_split``, so
    training tasks on different frequency axes are refused before any fit,
    by the one pre-fit check that also refuses repeated task ids, window
    counts above the axis and, after those settings, a task of one class."""

    @staticmethod
    def one_class(task):
        return TaskDataset(task.features, np.ones(task.n_samples, dtype=int), task.feature_freqs,
                           task.task_id)

    @staticmethod
    def tasks(other):
        pop = small_population()
        first, second = pop.tasks
        if other == "fewer lines":  # the second task's axis ends early
            second = second.window(0, second.n_features - 2)
        else:  # the same count of lines, none shared
            second = TaskDataset(second.features, second.labels, second.feature_freqs + 1000.0,
                                 second.task_id)
        return pop, [first, second]

    @staticmethod
    def run_unfitted(monkeypatch, runner, mode, train, tests, n_windows=1):
        """Run ``runner`` on ``train`` with ``fit_xis`` failing if reached;
        ``tests`` are ``run_comparison``'s test sets, and the first of them is
        ``run_transfer``'s unseen task."""

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the tasks were checked")

        monkeypatch.setattr(experiment, "fit_xis", no_fit)
        choices = [ModelChoice(mode, SolverConfig(0.3, 0.01), n_windows)]
        if runner == "grid":
            grid = GridSpec(epsilons=(0.3,), xis=(0.01,), window_counts=(n_windows,), folds=2)
            grid_search(train, grid, mode)
        elif runner == "compare":
            run_comparison(train, tests, choices)
        else:
            run_transfer(train, tests[0], choices)

    @pytest.mark.parametrize("runner", ["grid", "compare", "transfer"])
    @pytest.mark.parametrize("mode", [MODE_INDEPENDENT, MODE_MTL])
    @pytest.mark.parametrize("other", ["fewer lines", "disjoint lines"])
    def test_runners_refuse_tasks_on_different_axes(self, monkeypatch, runner, mode, other):
        pop, train = self.tasks(other)
        message = r"^training task 'task2': feature count or frequencies differ from training task 'task1'$"
        with pytest.raises(ValueError, match=message):
            self.run_unfitted(monkeypatch, runner, mode, train, [pop.test_tasks[0], train[1]])

    @pytest.mark.parametrize("runner", ["grid", "compare", "transfer"])
    @pytest.mark.parametrize("mode", [MODE_INDEPENDENT, MODE_MTL])
    @pytest.mark.parametrize("fault", ["repeated ids", "more windows than lines", "one class",
                                       "one class, more windows than lines"])
    def test_runners_refuse_other_faults_before_any_fit(self, monkeypatch, runner, mode, fault):
        # a task of one class is refused after every setting check
        pop = small_population()
        train, tests, n_windows = pop.tasks, pop.test_tasks, 1
        if fault == "repeated ids":
            error, message = ValueError, "training task id 'task1' is repeated"
            train, tests = [pop.tasks[0]] * 2, [pop.test_tasks[0]] * 2
        if fault.startswith("one class"):
            error = DegenerateLabelsError
            message = "task 'task2' contains a single class; both classes must be present"
            train = [pop.tasks[0], self.one_class(pop.tasks[1])]
        if fault.endswith("more windows than lines"):
            setting = "window_counts" if runner == "grid" else "n_windows"
            error, message, n_windows = ConfigError, f"{setting}: 49 exceeds the 48 feature lines", 49
        with pytest.raises(error, match=f"^{message}$"):
            self.run_unfitted(monkeypatch, runner, mode, train, tests, n_windows)

    def test_every_entry_point_gives_one_message_for_no_tasks(self):
        pop = small_population()
        cfg = SolverConfig(0.3, 0.01)
        choices = [ModelChoice(MODE_MTL, cfg, 1)]
        calls = (
            lambda: fit([], cfg),
            lambda: forward_step(np.zeros((48, 1)), [], cfg),
            lambda: backward_step(np.zeros((48, 1)), [], cfg, 0.5),
            lambda: grid_search([], GridSpec(epsilons=(0.3,), xis=(0.01,), window_counts=(1,)),
                                MODE_MTL),
            lambda: run_comparison([], [], choices),
            lambda: run_transfer([], pop.test_tasks[0], choices),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^at least one training task is required$"):
                call()
