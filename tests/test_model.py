import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frfselect import (
    Standardizer,
    TaskDataset,
    WeightMatrix,
    empirical_loss_mtl,
    empirical_loss_single,
    l21_norm,
    sigmoid,
    total_loss,
)

LN2 = math.log(2.0)


def make_task(features, labels, task_id="t"):
    features = np.asarray(features, dtype=float)
    freqs = np.arange(1.0, features.shape[1] + 1.0)
    return TaskDataset(features, np.asarray(labels), freqs, task_id)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_frozen_values(self):
        # 1/(1+exp(-ln 3)) = 3/4 exactly; sigmoid(1) to full double precision
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-16)

    def test_saturation_stays_inside_open_interval(self):
        assert 0.0 < sigmoid(-1e6) < sigmoid(1e6) < 1.0

    def test_scalar_comes_back_as_float(self):
        assert isinstance(sigmoid(0.3), float)

    def test_array_shape_preserved(self):
        z = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = sigmoid(z)
        assert out.shape == z.shape

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sigmoid(np.inf)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    def test_complement_symmetry(self, z):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_increasing(self, z, dz):
        # range kept where the slope exceeds float64 spacing of the output
        assert sigmoid(z + dz) > sigmoid(z)


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


class TestWeightMatrix:
    def test_vector_becomes_single_column(self):
        wm = WeightMatrix(np.array([1.0, -2.0]))
        assert wm.n_features == 2
        assert wm.n_tasks == 1
        assert wm.column(0).tolist() == [1.0, -2.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([np.nan]))

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

    def test_constant_column_gets_unit_scale(self):
        feats = np.array([[7.0], [7.0]])
        s = Standardizer.fit(feats)
        assert s.scale[0] == 1.0
        assert s.apply(feats).tolist() == [[0.0], [0.0]]

    def test_identity_is_a_no_op(self):
        s = Standardizer.identity(2)
        feats = np.array([[1.0, -2.0]])
        assert s.apply(feats).tolist() == feats.tolist()

    def test_apply_rejects_wrong_width(self):
        s = Standardizer.identity(2)
        with pytest.raises(ValueError):
            s.apply(np.ones((1, 3)))
