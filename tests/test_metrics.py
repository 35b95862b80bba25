import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frfselect import f1_score, gini_index


class TestF1:
    def test_perfect(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert f1_score([1, 1, 0], [0, 0, 1]) == 0.0

    def test_hand_case(self):
        # tp=1, fp=1, fn=1: 2*1/(2*1+1+1) = 0.5
        assert f1_score([1, 0, 1], [1, 1, 0]) == 0.5

    def test_counts_every_outcome(self):
        # tp=2, fp=1, tn=2, fn=1: 2*2/(2*2+1+1) = 2/3
        assert f1_score([1, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0]) == 4.0 / 6.0

    def test_no_positives_anywhere_counts_as_perfect(self):
        # zero denominator: nothing to find and nothing found
        assert f1_score([0, 0], [0, 0]) == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_score([1, 0], [1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            f1_score([1, 2], [1, 0])

    @pytest.mark.parametrize("bad", [[1, 2], [0.5, 1], [np.nan, 1], ["0", "1"], [None, 1],
                                     np.array([1, 0], dtype="datetime64[D]")])
    def test_rejects_non_binary_of_any_kind(self, bad):
        with pytest.raises(ValueError, match="^y_true must contain only 0 and 1$"):
            f1_score(bad, [1, 0])
        with pytest.raises(ValueError, match="^y_pred must contain only 0 and 1$"):
            f1_score([1, 0], bad)

    @pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0], np.array([1, 0], np.uint8)])
    def test_accepts_any_zero_one_dtype(self, labels):
        assert f1_score(labels, [1, 1]) == 2.0 / 3.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            f1_score([], [])

    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=30),
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=30),
    )
    def test_bounded_and_symmetric_in_perfect_case(self, a, b):
        n = min(len(a), len(b))
        score = f1_score(a[:n], b[:n])
        assert 0.0 <= score <= 1.0
        assert f1_score(a[:n], a[:n]) == 1.0


class TestGiniIndex:
    def test_uniform_weights_score_zero(self):
        assert abs(gini_index(np.ones(8))) < 1e-12

    def test_one_hot_of_ten(self):
        w = np.zeros(10)
        w[3] = 2.5
        assert gini_index(w) == pytest.approx(0.9, abs=1e-12)

    def test_one_hot_of_three(self):
        w = np.array([0.0, -1.0, 0.0])
        assert gini_index(w) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_all_zero_vector_scores_zero(self):
        assert gini_index(np.zeros(5)) == 0.0

    def test_single_weight_scores_zero(self):
        # a length-one vector is as uniform as it gets
        assert gini_index(np.array([4.2])) == 0.0

    def test_more_concentrated_scores_higher(self):
        spread = gini_index(np.array([1.0, 1.0, 1.0, 1.0]))
        peaked = gini_index(np.array([10.0, 0.1, 0.1, 0.1]))
        assert peaked > spread

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            gini_index(np.array([]))
        with pytest.raises(ValueError):
            gini_index(np.array([1.0, np.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            gini_index(np.ones((2, 2)))

    def test_magnitudes_whose_sum_overflows_score_as_scaled_down(self):
        assert gini_index([1e308, 1e308, 0.0]) == gini_index([1.0, 1.0, 0.0])
        assert gini_index([1e308, 1e308, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_a_finite_sum_is_not_rescaled(self):
        # rescaling by the largest magnitude would move the last bit here
        w = np.array([0.1, 0.2, 0.3])
        coef = np.array([2.5, 1.5, 0.5]) / 3
        assert gini_index(w) == 1.0 - 2.0 * float(w @ coef) / float(w.sum())
        assert gini_index(w) != gini_index(w / 0.3)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50), min_size=2, max_size=12
        ).filter(lambda v: any(x != 0 for x in v)),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance(self, values, c):
        w = np.array(values)
        assert gini_index(c * w) == pytest.approx(gini_index(w), abs=1e-9)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12)
    )
    def test_sign_and_order_invariance(self, values):
        w = np.array(values)
        assert gini_index(-w) == gini_index(w)
        assert gini_index(w[::-1].copy()) == gini_index(w)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12)
    )
    def test_bounds(self, values):
        g = gini_index(np.array(values))
        assert -1e-12 <= g < 1.0
