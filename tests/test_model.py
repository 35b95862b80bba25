import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frfselect import (
    GridSpec,
    ModalMode,
    SolverConfig,
    SpectrumLine,
    Standardizer,
    SyntheticPopulationSpec,
    TaskDataset,
    WeightMatrix,
    backward_step,
    spectrum_to_datasets,
    standardized_copy,
    total_loss,
)
from frfselect.model import (
    _check_int,
    _check_real,
    empirical_loss_mtl,
    empirical_loss_single,
    l21_norm,
)

LN2 = math.log(2.0)


def make_task(features, labels, task_id="t"):
    features = np.asarray(features, dtype=float)
    freqs = np.arange(1.0, features.shape[1] + 1.0)
    return TaskDataset(features, np.asarray(labels), freqs, task_id)


class TestEmpiricalLoss:
    def test_zero_weights_give_ln2(self):
        data = make_task([[1.0, 0.0], [0.0, 1.0]], [1, 0])
        assert empirical_loss_single(np.zeros(2), data) == pytest.approx(LN2, abs=1e-15)

    def test_hand_computed_two_samples(self):
        # logits are ln 3 for both rows: p = 3/4, so
        # J = -(log .75 + log .25)/2
        data = make_task([[1.0], [1.0]], [1, 0])
        w = np.array([math.log(3.0)])
        expected = -(math.log(0.75) + math.log(0.25)) / 2.0
        assert empirical_loss_single(w, data) == pytest.approx(expected, abs=1e-14)

    def test_confident_wrong_prediction_stays_finite(self):
        data = make_task([[1.0]], [0])
        loss = empirical_loss_single(np.array([1e4]), data)
        assert math.isfinite(loss)
        # clamp floor is 1e-12, so the per-sample loss tops out near -log(1e-12)
        assert loss <= -math.log(1e-12) * (1.0 + 1e-6)

    def test_perfect_confident_prediction_near_zero(self):
        data = make_task([[1.0], [-1.0]], [1, 0])
        assert empirical_loss_single(np.array([50.0]), data) < 1e-12

    def test_rejects_wrong_weight_length(self):
        data = make_task([[1.0, 0.0]], [1])
        with pytest.raises(ValueError):
            empirical_loss_single(np.zeros(3), data)

    def test_mtl_single_task_matches_single_exactly(self):
        data = make_task([[1.0, 0.5], [0.2, -1.0], [-0.4, 0.3]], [1, 0, 1])
        w = np.array([0.4, -0.2])
        single = empirical_loss_single(w, data)
        assert empirical_loss_mtl(w[:, None], [data]) == single

    def test_mtl_is_mean_of_per_task_losses(self):
        a = make_task([[1.0], [-1.0]], [1, 0], "a")
        b = make_task([[2.0], [0.5]], [0, 1], "b")
        w = np.array([[0.6, -0.4]])
        expected = (
            empirical_loss_single(w[:, 0], a) + empirical_loss_single(w[:, 1], b)
        ) / 2.0
        assert empirical_loss_mtl(w, [a, b]) == pytest.approx(expected, abs=1e-15)

    def test_mtl_rejects_column_count_mismatch(self):
        a = make_task([[1.0]], [1])
        with pytest.raises(ValueError):
            empirical_loss_mtl(np.zeros((1, 2)), [a])


class TestNorms:
    def test_group_norm_sums_row_lengths(self):
        w = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert l21_norm(w) == 5.0

    def test_group_norm_single_column_is_l1(self):
        w = np.array([1.5, -2.0, 0.0])
        assert l21_norm(w) == 3.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_losses_reject_non_finite_weights(self, bad):
        w = np.array([[0.5], [bad]])
        task = TaskDataset(np.ones((2, 2)), np.array([0, 1]), np.array([1.0, 2.0]))
        for call in (lambda: l21_norm(w), lambda: empirical_loss_mtl(w, [task])):
            with pytest.raises(ValueError, match="weights contain non-finite values"):
                call()

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10),
                st.floats(min_value=-10, max_value=10),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_group_norm_matches_row_by_row(self, rows):
        arr = np.array(rows)
        expected = sum(math.hypot(a, b) for a, b in rows)
        assert l21_norm(arr) == pytest.approx(expected, abs=1e-9)


class TestTotalLoss:
    def test_combines_empirical_and_weighted_penalty(self):
        a = make_task([[1.0, 0.0], [0.0, 1.0]], [1, 0], "a")
        b = make_task([[0.5, 0.5], [-0.5, 0.2]], [0, 1], "b")
        w = np.array([[0.4, 0.0], [-0.2, 0.6]])
        out = total_loss(w, [a, b], lam=0.3)
        assert out.lam == 0.3
        assert out.empirical == empirical_loss_mtl(w, [a, b])
        assert out.penalty == l21_norm(w)
        assert out.total == out.empirical + 0.3 * out.penalty

    def test_zero_lambda_reduces_to_empirical(self):
        a = make_task([[1.0]], [1])
        out = total_loss(np.array([0.5]), [a], lam=0.0)
        assert out.total == out.empirical

    def test_rejects_negative_lambda(self):
        a = make_task([[1.0]], [1])
        with pytest.raises(ValueError):
            total_loss(np.array([0.5]), [a], lam=-0.1)


class TestTaskDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            make_task([[1.0], [2.0]], [1, 2])

    def test_rejects_non_increasing_freqs(self):
        with pytest.raises(ValueError):
            TaskDataset(
                np.ones((1, 2)), np.array([1]), np.array([20.0, 10.0]), "t"
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TaskDataset(np.ones((2, 3)), np.array([1, 0]), np.array([1.0, 2.0]), "t")
        with pytest.raises(ValueError, match=r"^labels shape \(3,\) does not match 2 samples$"):
            TaskDataset(np.ones((2, 2)), np.array([1, 0, 1]), np.array([1.0, 2.0]), "t")

    def test_arrays_are_read_only(self):
        data = make_task([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0

    def test_input_mutation_does_not_leak_in(self):
        feats = np.array([[1.0, 2.0]])
        data = TaskDataset(feats, np.array([1]), np.array([1.0, 2.0]), "t")
        feats[0, 0] = 99.0
        assert data.features[0, 0] == 1.0

    def test_subset_picks_rows(self):
        data = make_task([[1.0], [2.0], [3.0]], [1, 0, 1])
        sub = data.subset([2, 0])
        assert sub.features[:, 0].tolist() == [3.0, 1.0]
        assert sub.labels.tolist() == [1, 1]
        assert sub.task_id == data.task_id

    def test_window_slices_feature_axis(self):
        data = make_task([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1, 0])
        win = data.window(1, 3)
        assert win.n_features == 2
        assert win.feature_freqs.tolist() == [2.0, 3.0]
        assert win.features.tolist() == [[2.0, 3.0], [5.0, 6.0]]

    def test_window_rejects_bad_bounds(self):
        data = make_task([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            data.window(1, 1)
        with pytest.raises(ValueError):
            data.window(0, 5)

    @staticmethod
    def assert_same_dataset(got, want):
        assert got.task_id == want.task_id
        for name in ("features", "labels", "feature_freqs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name
            assert not a.flags.writeable, name

    def test_window_and_subset_equal_validated_datasets(self):
        rng = np.random.default_rng(4)
        data = make_task(rng.normal(size=(9, 7)), rng.integers(0, 2, 9), task_id="w")
        win = data.window(2, 6)
        self.assert_same_dataset(win, TaskDataset(
            data.features[:, 2:6], data.labels, data.feature_freqs[2:6], "w"))
        assert not np.shares_memory(win.features, data.features)
        idx = [8, 0, 3, 3]
        sub = data.subset(idx)
        self.assert_same_dataset(sub, TaskDataset(
            data.features[idx], data.labels[idx], data.feature_freqs, "w"))
        self.assert_same_dataset(sub.window(1, 2), TaskDataset(
            data.features[idx][:, 1:2], data.labels[idx], data.feature_freqs[1:2], "w"))

    def test_bad_windows_and_subsets_raise_as_before(self):
        data = make_task([[1.0, 2.0], [3.0, 4.0]], [1, 0])
        for start, stop in ((1, 1), (0, 3), (-1, 1), (2, 1)):
            message = re.escape(f"window [{start}, {stop}) outside 0..2")
            with pytest.raises(ValueError, match=message):
                data.window(start, stop)
        with pytest.raises(ValueError, match="at least one sample and one feature"):
            data.subset([])
        with pytest.raises(ValueError, match="features must be 2-D, got ndim=3"):
            data.subset([[0, 1]])
        with pytest.raises(ValueError, match="features must be 2-D, got ndim=1"):
            data.subset(1)
        with pytest.raises(IndexError):
            data.subset([2])

    @pytest.mark.parametrize("indices", [[True, False], [True] * 6, np.array([1, 0], dtype=bool),
                                         True, [0.5, 1.2], [0.0, 1.0], np.array([1], dtype=object)])
    def test_subset_takes_integer_rows_only(self, indices):
        data = make_task([[1.0, 2.0], [3.0, 4.0]], [1, 0])
        with pytest.raises(ValueError, match=r"^indices must be integers, got \w+ values$"):
            data.subset(indices)

    @pytest.mark.parametrize("start, stop, name", [
        (0.5, 2, "start"), (0, 2.0, "stop"), (True, 2, "start"), (0, np.float64(2), "stop"),
        ("0", 2, "start"), (0, None, "stop"),
    ])
    def test_window_takes_integer_bounds_only(self, start, stop, name):
        data = make_task([[1.0, 2.0], [3.0, 4.0]], [1, 0])
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            data.window(start, stop)
        assert data.window(np.int64(0), np.uint8(2)).n_features == 2


class TestWeightMatrix:
    def test_vector_becomes_single_column(self):
        wm = WeightMatrix(np.array([1.0, -2.0]))
        assert wm.n_features == 2
        assert wm.n_tasks == 1
        assert wm.column(0).tolist() == [1.0, -2.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([np.nan]))

    @pytest.mark.parametrize("values", [np.zeros((2, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_rejects_a_matrix_that_is_not_2d_or_is_empty(self, values):
        with pytest.raises(ValueError, match="^weights must form a non-empty"):
            WeightMatrix(values)

    def test_values_read_only(self):
        wm = WeightMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            wm.values[0, 0] = 1.0


class TestStandardizer:
    def test_fit_centers_and_scales(self):
        feats = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
        s = Standardizer.fit(feats)
        assert s.mean.tolist() == [3.0, 10.0]
        # population standard deviation of [1, 3, 5]
        assert s.scale[0] == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-15)
        out = s.apply(feats)
        assert np.allclose(out.mean(axis=0), 0.0)
        assert np.allclose(out[:, 0].std(), 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_fit_equals_numpy_mean_and_std(self, seed):
        # the mean is taken once, with the sums and divisions of .mean() and .std()
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 200)), int(rng.integers(1, 40))
        feats = (rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-6, 6, size=p)
                 + rng.normal(size=p) * 10.0 ** rng.uniform(-3, 8, size=p))
        feats[:, 0] = 3.3
        if seed % 2:
            feats = np.asfortranarray(feats)
        s = Standardizer.fit(feats)
        sd = feats.std(axis=0)
        # the constant column 0 takes its value and scale 1, which numpy's
        # rounded mean and std need not give
        assert s.mean[0] == 3.3 and s.scale[0] == 1.0
        assert np.array_equal(s.mean[1:], feats.mean(axis=0)[1:])
        assert np.array_equal(s.scale[1:], np.where(sd > 0, sd, 1.0)[1:])

    def test_constant_column_gets_unit_scale(self):
        # 3.3 in 64 or 240 rows sums to a mean a rounding off 3.3, whose
        # deviations would leave a scale of 4e-16 or 9e-16 and map the
        # column to a constant +-1
        for value, n in ((7.0, 2), (3.3, 64), (3.3, 240)):
            feats = np.full((n, 1), value)
            s = Standardizer.fit(feats)
            assert s.mean[0] == value and s.scale[0] == 1.0
            assert s.apply(feats).tolist() == [[0.0]] * n

    @pytest.mark.parametrize("features", [np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2, 2))])
    def test_fit_rejects_no_rows_or_not_2d(self, features):
        # one error about the rows, before any numpy warning (tests run
        # with warnings as errors)
        with pytest.raises(ValueError, match="^features must be 2-D with at least one row"):
            Standardizer.fit(features)

    @pytest.mark.parametrize("mean, scale, message", [
        (np.zeros((1, 2)), np.ones((1, 2)), "mean and scale must be 1-D arrays of equal length"),
        (np.zeros(2), np.ones(3), "mean and scale must be 1-D arrays of equal length"),
        (np.zeros(2), np.array([1.0, 0.0]), "scale entries must be finite and positive"),
        (np.array([0.0, np.nan]), np.ones(2), "scale entries must be finite and positive"),
    ])
    def test_rejects_a_bad_mean_or_scale(self, mean, scale, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Standardizer(mean, scale)

    def test_identity_is_a_no_op(self):
        s = Standardizer.identity(2)
        feats = np.array([[1.0, -2.0]])
        assert s.apply(feats).tolist() == feats.tolist()

    def test_apply_rejects_wrong_width(self):
        s = Standardizer.identity(2)
        with pytest.raises(ValueError):
            s.apply(np.ones((1, 3)))

    def test_standardized_copy_equals_a_validated_dataset(self):
        data = make_task(np.random.default_rng(5).normal(size=(6, 3)), [1, 0, 1, 1, 0, 0])
        std = Standardizer.fit(data.features)
        TestTaskDataset.assert_same_dataset(standardized_copy(data, std), TaskDataset(
            std.apply(data.features), data.labels, data.feature_freqs, data.task_id))
        tiny = Standardizer(np.zeros(2), np.full(2, 1e-310))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            standardized_copy(make_task([[1e10, 1.0]], [1]), tiny)


@pytest.mark.parametrize("value, minimum, message", [
    (2.5, None, "n must be an integer, got 2.5"),
    (3.0, 1, "n must be an integer, got 3.0"),
    (True, 0, "n must be an integer, got True"),
    ("3", None, "n must be an integer, got '3'"),
    (1, 2, "n must be at least 2, got 1"),
    (np.int64(-1), 0, "n must be at least 0, got -1"),
])
def test_check_int_rejects(value, minimum, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _check_int("n", value, minimum)


def test_integer_settings_accept_numpy_integers(tiny_task):
    from frfselect import (
        GridSpec, ModelChoice, SolverConfig, SpectrumLine, SyntheticPopulationSpec, fit,
        kfold_split, monte_carlo_expand, spectrum_to_datasets, transfer_evaluate, window_split,
    )

    # each stores the Python int its check returns
    max_iters = SolverConfig(0.3, 0.01, max_iters=np.int64(3)).max_iters
    assert max_iters == 3 and type(max_iters) is int
    grid = GridSpec(window_counts=(np.int32(2),), folds=np.int64(3), stage_windows=np.int64(2),
                    seed=np.int64(4))
    assert grid.window_counts == (2,) and type(grid.window_counts[0]) is int
    assert (grid.folds, grid.stage_windows, grid.seed) == (3, 2, 4)
    assert {type(grid.folds), type(grid.stage_windows), type(grid.seed)} == {int}
    assert ModelChoice("mtl", SolverConfig(0.3, 0.01), np.int64(2)).n_windows == 2
    assert SpectrumLine(1.0, 1.0, 0.9, n_avg=np.int16(4)).n_avg == 4
    assert len(kfold_split(np.int64(4), [0, 1, 0, 1], np.int64(2), 0)) == 2
    res = fit([tiny_task], SolverConfig(0.3, 0.01, max_iters=5))
    assert transfer_evaluate(res, np.int64(0), tiny_task) == transfer_evaluate(res, 0, tiny_task)
    lines = [SpectrumLine(1.0, 1.0, 0.9), SpectrumLine(2.0, 0.5, 0.9)]
    assert monte_carlo_expand(lines, np.int64(10), np.int32(3), 0).shape == (3, 2)
    windows = window_split(np.int64(5), np.int64(2))
    assert windows == ((0, 3), (3, 5)) and {type(b) for w in windows for b in w} == {int}
    train, test = spectrum_to_datasets(
        lines, lines, n_train_per_class=np.int64(2), n_test_per_class=np.int64(1),
        seed=0, task_id="t", n_intermediate=np.int64(10),
    )
    assert (train.n_samples, test.n_samples) == (4, 2)
    SyntheticPopulationSpec(
        modes=(), class_shift=(), nuisance_band=(1.0, 2.0), noise_sd=0.1,
        n_samples=np.int64(1), seed=np.int64(0), n_test=np.int64(0), n_tasks=np.int64(1),
        n_features=np.int64(2), nuisance_modes=np.int64(0),
    )


@pytest.mark.parametrize("value, bounds, message", [
    (True, {}, "x must be a real number, got True"),
    ("1", {}, "x must be a real number, got '1'"),
    (None, {}, "x must be a real number, got None"),
    (np.bool_(True), {}, "x must be a real number, got np.True_"),
    (math.nan, {}, "x must be a finite number, got nan"),
    (math.inf, {}, "x must be a finite number, got inf"),
    (np.float64(-math.inf), {"above": 0}, "x must be a finite number above 0, got -inf"),
    (0, {"above": 0}, "x must be a finite number above 0, got 0.0"),
    (-1e-300, {"at_least": 0}, "x must be a finite number at least 0, got -1e-300"),
    (np.int64(1), {"above": 0, "below": 1},
     "x must be a finite number above 0 and below 1, got 1.0"),
    (1.5, {"above": 0, "at_most": 1}, "x must be a finite number above 0 and at most 1, got 1.5"),
    (10**400, {}, "x must be a finite number, got inf"),
    (-10**400, {"above": 0}, "x must be a finite number above 0, got -inf"),
])
def test_check_real_rejects(value, bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _check_real("x", value, **bounds)


def test_check_real_returns_a_float():
    for value in (3, np.int64(3), np.float32(3.0), np.float64(3.0), 3.0):
        assert _check_real("x", value, above=0, at_most=3) == 3.0
        assert type(_check_real("x", value)) is float
    assert _check_real("x", 0, at_least=0) == 0.0


def _spec(**kw):
    base = dict(modes=(ModalMode(40.0, 0.04),), class_shift=(4.0,), nuisance_band=(130.0, 190.0),
                noise_sd=0.05, n_samples=2, seed=0)
    return SyntheticPopulationSpec(**{**base, **kw})


def _expand(**kw):
    lines = [SpectrumLine(0.25, 1.0, 0.9), SpectrumLine(0.5, 0.5, 0.9)]
    return spectrum_to_datasets(lines, lines, n_train_per_class=1, n_test_per_class=0, seed=0,
                                task_id="t", **kw)


# every real-valued setting of the library: (the name its ValueError gives, a call
# that passes v to it, valid for v = 0.5)
_REAL_SETTINGS = {
    "SolverConfig.epsilon": ("epsilon", lambda v, task: SolverConfig(v, 0.01)),
    "SolverConfig.xi": ("xi", lambda v, task: SolverConfig(1.0, v)),
    "SolverConfig.lambda_floor": (
        "lambda_floor", lambda v, task: SolverConfig(0.3, 0.01, lambda_floor=v)),
    "backward_step.lam": ("lam", lambda v, task: backward_step(
        np.zeros((task.n_features, 1)), [task], SolverConfig(0.3, 0.01), v)),
    "total_loss.lam": ("lam", lambda v, task: total_loss(np.zeros(task.n_features), [task], v)),
    "SpectrumLine.freq": ("freq", lambda v, task: SpectrumLine(v, 1.0, 0.9)),
    "SpectrumLine.h_mean": ("h_mean", lambda v, task: SpectrumLine(1.0, v, 0.9)),
    "SpectrumLine.coherence": ("coherence", lambda v, task: SpectrumLine(1.0, 1.0, v)),
    "ModalMode.natural_freq": ("natural_freq", lambda v, task: ModalMode(v, 0.04)),
    "ModalMode.damping": ("damping", lambda v, task: ModalMode(40.0, v)),
    "ModalMode.amplitude": ("amplitude", lambda v, task: ModalMode(40.0, 0.04, v)),
    "spec.class_shift": ("class_shift[0]", lambda v, task: _spec(class_shift=(v,))),
    "spec.nuisance_band": ("nuisance_band[0]", lambda v, task: _spec(nuisance_band=(v, 190.0))),
    "spec.freq_range": ("freq_range[0]", lambda v, task: _spec(freq_range=(v, 200.0))),
    "spec.noise_sd": ("noise_sd", lambda v, task: _spec(noise_sd=v)),
    "spec.nuisance_class_shift": (
        "nuisance_class_shift", lambda v, task: _spec(nuisance_class_shift=v)),
    "spec.nuisance_damping": ("nuisance_damping", lambda v, task: _spec(nuisance_damping=v)),
    "spec.nuisance_amplitude": ("nuisance_amplitude", lambda v, task: _spec(nuisance_amplitude=v)),
    "spec.coherence": ("coherence", lambda v, task: _spec(coherence=v)),
    "GridSpec.epsilons": ("epsilons[1]", lambda v, task: GridSpec(epsilons=(0.3, v))),
    "GridSpec.xis": ("xis[0]", lambda v, task: GridSpec(xis=(v,))),
    "GridSpec.refine_epsilons": ("refine_epsilons[0]", lambda v, task: GridSpec(refine_epsilons=(v,))),
    "spectrum_to_datasets.freq_min": ("freq_min", lambda v, task: _expand(freq_min=v)),
    "spectrum_to_datasets.freq_max": ("freq_max", lambda v, task: _expand(freq_max=v)),
}


@pytest.mark.parametrize("setting", _REAL_SETTINGS)
def test_real_settings_reject_non_reals(tiny_task, setting):
    name, call = _REAL_SETTINGS[setting]
    call(0.5, tiny_task)  # a valid value passes
    for value in (True, "1", math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a (real|finite) number"):
            call(value, tiny_task)


def test_real_settings_accept_numpy_numbers(tiny_task):
    cfg = SolverConfig(np.float64(0.3), np.float64(0.01), lambda_floor=np.int64(0))
    assert (cfg.epsilon, cfg.xi, cfg.lambda_floor) == (0.3, 0.01, 0)
    assert cfg == SolverConfig(0.3, 0.01)
    weights = np.array([[0.3], [0.0]])
    assert backward_step(weights, [tiny_task], cfg, np.float64(0.5)) == backward_step(
        weights, [tiny_task], cfg, 0.5
    )
    loss = total_loss(weights, [tiny_task], np.int64(2))
    assert loss == total_loss(weights, [tiny_task], 2.0) and type(loss.lam) is float
    line = SpectrumLine(np.float64(1.5), np.int64(2), np.float64(0.9))
    assert (line.freq, line.h_mean, line.coherence) == (1.5, 2, 0.9)
    mode = ModalMode(np.int64(40), np.float64(0.04), np.int64(2))
    assert mode == ModalMode(40.0, 0.04, 2.0)
    grid = GridSpec(epsilons=(np.float64(0.3), np.int64(1)), xis=(np.float32(0.5), 1),
                    refine_epsilons=(np.int64(2),))
    assert grid.epsilons == (0.3, 1.0) and grid.xis == (0.5, 1.0) and grid.refine_epsilons == (2.0,)
    assert all(type(x) is float for x in grid.epsilons + grid.xis + grid.refine_epsilons)
    spec = SyntheticPopulationSpec(
        modes=(mode,), class_shift=(np.int64(4),), nuisance_band=(np.float64(130.0), 190),
        noise_sd=np.float64(0.05), n_samples=2, seed=0, freq_range=(np.int64(5), np.float64(200.0)),
        nuisance_class_shift=np.int64(1), nuisance_damping=np.float64(0.05),
        nuisance_amplitude=np.int64(1), coherence=np.float64(0.95),
    )
    assert spec.class_shift == (4.0,) and spec.nuisance_band == (130.0, 190.0)
    assert spec.freq_range == (5.0, 200.0)
    assert all(type(x) is float for x in spec.class_shift + spec.nuisance_band + spec.freq_range)
    lines = [SpectrumLine(1.0, 1.0, 0.9), SpectrumLine(2.0, 0.5, 0.9), SpectrumLine(3.0, 0.2, 0.9)]
    kw = dict(n_train_per_class=2, n_test_per_class=0, seed=0, task_id="t", n_intermediate=10)
    numpy_band, _ = spectrum_to_datasets(
        lines, lines, freq_min=np.int64(2), freq_max=np.float64(3), **kw)
    float_band, _ = spectrum_to_datasets(lines, lines, freq_min=2.0, freq_max=3.0, **kw)
    assert numpy_band.feature_freqs.tolist() == [2.0, 3.0]
    assert np.array_equal(numpy_band.features, float_band.features)
