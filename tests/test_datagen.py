import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frfselect import (
    ModalMode,
    SpectrumFormatError,
    SpectrumLine,
    SyntheticPopulationSpec,
    WindowPlan,
    coherence_std,
    load_spectrum,
    modal_magnitude,
    monte_carlo_expand,
    population_spectrum,
    spectrum_to_datasets,
    synth_population,
    window_split,
    write_spectrum,
)


class TestCoherenceStd:
    def test_frozen_reference_value(self):
        # sqrt(1 - 0.8^2) / (0.8 * sqrt(12)) * 2.0
        line = SpectrumLine(freq=100.0, h_mean=2.0, coherence=0.8, n_avg=6)
        assert coherence_std(line) == pytest.approx(0.4330127018922193, abs=1e-12)

    def test_full_coherence_means_zero_spread(self):
        line = SpectrumLine(freq=1.0, h_mean=5.0, coherence=1.0, n_avg=6)
        assert coherence_std(line) == 0.0

    def test_scales_linearly_with_magnitude(self):
        a = coherence_std(SpectrumLine(1.0, 1.0, 0.7, 6))
        b = coherence_std(SpectrumLine(1.0, 3.0, 0.7, 6))
        assert b == pytest.approx(3.0 * a, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.integers(min_value=1, max_value=50),
    )
    def test_matches_closed_form(self, c, h, n):
        line = SpectrumLine(1.0, h, c, n)
        expected = math.sqrt(1.0 - c * c) / (c * math.sqrt(2.0 * n)) * abs(h)
        assert coherence_std(line) == pytest.approx(expected, abs=1e-12)


class TestSpectrumLine:
    def test_rejects_zero_coherence(self):
        with pytest.raises(ValueError):
            SpectrumLine(1.0, 1.0, 0.0)

    def test_rejects_coherence_above_one(self):
        with pytest.raises(ValueError):
            SpectrumLine(1.0, 1.0, 1.5)

    def test_rejects_bad_n_avg(self):
        with pytest.raises(ValueError):
            SpectrumLine(1.0, 1.0, 0.9, n_avg=0)


SPECTRUM = [
    SpectrumLine(10.0, 1.0, 0.8, 6),
    SpectrumLine(20.0, 0.5, 0.9, 6),
    SpectrumLine(30.0, 2.0, 0.95, 6),
]


class TestMonteCarloExpand:
    def test_shape(self):
        out = monte_carlo_expand(SPECTRUM, 100, 7, seed=1)
        assert out.shape == (7, 3)

    def test_same_seed_reproduces_exactly(self):
        a = monte_carlo_expand(SPECTRUM, 50, 5, seed=9)
        b = monte_carlo_expand(SPECTRUM, 50, 5, seed=9)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = monte_carlo_expand(SPECTRUM, 50, 5, seed=9)
        b = monte_carlo_expand(SPECTRUM, 50, 5, seed=10)
        assert not np.array_equal(a, b)

    def test_two_stage_and_direct_draws_differ(self):
        a = monte_carlo_expand(SPECTRUM, 50, 5, seed=3, two_stage=True)
        b = monte_carlo_expand(SPECTRUM, 50, 5, seed=3, two_stage=False)
        assert not np.array_equal(a, b)

    def test_sample_statistics_track_the_line(self):
        # fixed seed, so these tolerances are deterministic checks
        line = SpectrumLine(10.0, 1.0, 0.8, 6)
        sd = coherence_std(line)
        out = monte_carlo_expand([line], 5000, 4000, seed=123)
        col = out[:, 0]
        assert abs(col.mean() - 1.0) < 4.0 * sd / math.sqrt(4000)
        assert abs(col.std(ddof=1) / sd - 1.0) < 0.05

    def test_full_coherence_collapses_to_the_mean(self):
        lines = [SpectrumLine(1.0, 2.0, 1.0, 6), SpectrumLine(2.0, -1.0, 1.0, 6)]
        out = monte_carlo_expand(lines, 10, 6, seed=0)
        assert np.array_equal(out, np.tile([2.0, -1.0], (6, 1)))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            monte_carlo_expand(SPECTRUM, 1, 5, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_expand(SPECTRUM, 10, 0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_expand([], 10, 5, seed=0)


class TestWindowSplit:
    def test_even_split(self):
        plan = window_split(588, 6)
        assert plan.sizes == (98,) * 6
        assert plan.ranges[0] == (0, 98)
        assert plan.ranges[-1] == (490, 588)

    def test_uneven_split_puts_extras_first(self):
        plan = window_split(588, 16)
        assert plan.sizes == (37,) * 12 + (36,) * 4
        assert sum(plan.sizes) == 588

    def test_single_window(self):
        plan = window_split(10, 1)
        assert plan.ranges == ((0, 10),)

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            window_split(10, 0)
        with pytest.raises(ValueError):
            window_split(10, 11)

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_invariants(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        plan = window_split(n, k)
        sizes = plan.sizes
        assert sum(sizes) == n
        assert len(sizes) == k
        assert max(sizes) - min(sizes) <= 1
        assert list(sizes) == sorted(sizes, reverse=True)
        cursor = 0
        for start, stop in plan.ranges:
            assert start == cursor
            cursor = stop
        assert cursor == n

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            WindowPlan(n_features=4, ranges=((0, 2), (3, 4)))  # gap
        with pytest.raises(ValueError):
            WindowPlan(n_features=4, ranges=((0, 2),))  # short cover
        with pytest.raises(ValueError):
            WindowPlan(n_features=6, ranges=((0, 4), (4, 6)))  # sizes differ by 2
        with pytest.raises(ValueError):
            WindowPlan(n_features=2, ranges=())


class TestModalMagnitude:
    def test_resonance_peak_value(self):
        # at the natural frequency the magnitude is amplitude / (2 * damping)
        mode = ModalMode(natural_freq=50.0, damping=0.05)
        out = modal_magnitude(np.array([50.0]), [mode])
        assert out[0] == pytest.approx(10.0, abs=1e-12)

    def test_static_response_equals_amplitude(self):
        mode = ModalMode(natural_freq=50.0, damping=0.05, amplitude=3.0)
        out = modal_magnitude(np.array([0.0]), [mode])
        assert out[0] == pytest.approx(3.0, abs=1e-12)

    def test_modes_superpose(self):
        freqs = np.linspace(1.0, 100.0, 16)
        m1 = ModalMode(30.0, 0.1)
        m2 = ModalMode(70.0, 0.1)
        both = modal_magnitude(freqs, [m1, m2])
        assert np.allclose(
            both, modal_magnitude(freqs, [m1]) + modal_magnitude(freqs, [m2])
        )

    def test_peak_sits_near_the_natural_frequency(self):
        freqs = np.linspace(1.0, 100.0, 991)
        out = modal_magnitude(freqs, [ModalMode(42.0, 0.02)])
        assert abs(freqs[np.argmax(out)] - 42.0) < 1.0

    def test_damping_bounds(self):
        with pytest.raises(ValueError):
            ModalMode(10.0, 0.0)
        with pytest.raises(ValueError):
            ModalMode(10.0, 1.0)


def small_spec(**overrides):
    kwargs = dict(
        modes=(ModalMode(40.0, 0.04), ModalMode(90.0, 0.03)),
        class_shift=(4.0, -5.0),
        nuisance_band=(130.0, 190.0),
        noise_sd=0.02,
        n_samples=20,
        seed=5,
        n_test=8,
        n_tasks=2,
        n_features=64,
    )
    kwargs.update(overrides)
    return SyntheticPopulationSpec(**kwargs)


class TestSynthPopulation:
    def test_shapes_and_balance(self):
        pop = synth_population(small_spec())
        assert len(pop.tasks) == 2
        for t in pop.tasks:
            assert t.features.shape == (40, 64)
            assert int(t.labels.sum()) == 20
        for t in pop.test_tasks:
            assert t.features.shape == (16, 64)
            assert int(t.labels.sum()) == 8

    def test_frequency_grid_spans_the_range(self):
        pop = synth_population(small_spec())
        assert pop.freqs[0] == 5.0
        assert pop.freqs[-1] == 200.0
        assert len(pop.freqs) == 64

    def test_ground_truth_recomputable_from_curves(self):
        spec = small_spec()
        pop = synth_population(spec)
        for t in range(2):
            c0, c1 = pop.class_curves[t]
            expected = np.flatnonzero(np.abs(c0 - c1) > spec.noise_sd)
            assert np.array_equal(pop.ground_truth[t], expected)
            assert expected.size > 0

    def test_common_features_is_the_intersection(self):
        pop = synth_population(small_spec())
        expected = np.intersect1d(pop.ground_truth[0], pop.ground_truth[1])
        assert np.array_equal(pop.common_features, expected)

    def test_curves_are_peak_normalized(self):
        pop = synth_population(small_spec())
        for c0, c1 in pop.class_curves:
            assert max(c0.max(), c1.max()) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a = synth_population(small_spec())
        b = synth_population(small_spec())
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.features, tb.features)
        c = synth_population(small_spec(seed=6))
        assert not np.array_equal(a.tasks[0].features, c.tasks[0].features)

    def test_no_test_split_when_n_test_zero(self):
        pop = synth_population(small_spec(n_test=0))
        assert pop.test_tasks == ()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(class_shift=(4.0,))  # one shift for two modes
        with pytest.raises(ValueError):
            small_spec(noise_sd=-0.1)
        with pytest.raises(ValueError):
            small_spec(nuisance_band=(190.0, 130.0))
        with pytest.raises(ValueError):
            small_spec(n_samples=0)
        with pytest.raises(ValueError):
            small_spec(n_tasks=0)
        with pytest.raises(ValueError):
            small_spec(freq_range=(200.0, 5.0))


class TestSpectrumIO:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum(SPECTRUM, path)
        back = load_spectrum(path, n_avg=6)
        assert back == SPECTRUM

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,h,c\n1.0,1.0,0.9\n")
        with pytest.raises(SpectrumFormatError, match="line 1"):
            load_spectrum(path)

    def test_row_width_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,h_mean,coherence\n1.0,1.0,0.9\n2.0,1.0\n")
        with pytest.raises(SpectrumFormatError, match="line 3"):
            load_spectrum(path)

    def test_non_numeric_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,h_mean,coherence\n1.0,oops,0.9\n")
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(path)

    def test_non_increasing_frequency_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,h_mean,coherence\n2.0,1.0,0.9\n1.0,1.0,0.9\n")
        with pytest.raises(SpectrumFormatError, match="increasing, line 3"):
            load_spectrum(path)

    def test_invalid_coherence_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,h_mean,coherence\n1.0,1.0,0.0\n")
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(path)

    def test_empty_and_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SpectrumFormatError, match="empty"):
            load_spectrum(path)
        path.write_text("freq_hz,h_mean,coherence\n")
        with pytest.raises(SpectrumFormatError, match="no data rows"):
            load_spectrum(path)

    def test_population_spectrum_matches_curve(self):
        pop = synth_population(small_spec())
        lines = population_spectrum(pop, task=0, label=1, coherence=0.9)
        assert len(lines) == 64
        assert [ln.freq for ln in lines] == pop.freqs.tolist()
        assert [ln.h_mean for ln in lines] == pop.class_curves[0][1].tolist()
        assert all(ln.coherence == 0.9 for ln in lines)


class TestSpectrumToDatasets:
    def test_split_sizes_and_label_blocks(self):
        train, test = spectrum_to_datasets(
            SPECTRUM, SPECTRUM, n_train_per_class=5, n_test_per_class=3,
            seed=2, task_id="m",
            n_intermediate=50,
        )
        assert train.features.shape == (10, 3)
        assert train.labels.tolist() == [0] * 5 + [1] * 5
        assert test.features.shape == (6, 3)
        assert test.labels.tolist() == [0] * 3 + [1] * 3

    def test_no_test_set_when_zero_requested(self):
        train, test = spectrum_to_datasets(
            SPECTRUM, SPECTRUM, n_train_per_class=4, n_test_per_class=0,
            seed=2, task_id="m", n_intermediate=50,
        )
        assert test is None

    def test_full_coherence_rows_equal_normalized_means(self):
        lines = [SpectrumLine(1.0, 2.0, 1.0, 6), SpectrumLine(2.0, 1.0, 1.0, 6)]
        train, _ = spectrum_to_datasets(
            lines, lines, n_train_per_class=3, n_test_per_class=0,
            seed=0, task_id="exact", n_intermediate=10,
        )
        # peak normalization divides by 2, zero spread copies the means
        assert np.array_equal(train.features, np.tile([1.0, 0.5], (6, 1)))

    def test_normalize_off_keeps_magnitudes(self):
        lines = [SpectrumLine(1.0, 2.0, 1.0, 6), SpectrumLine(2.0, 1.0, 1.0, 6)]
        train, _ = spectrum_to_datasets(
            lines, lines, n_train_per_class=2, n_test_per_class=0,
            seed=0, task_id="raw", n_intermediate=10, normalize=False,
        )
        assert np.array_equal(train.features, np.tile([2.0, 1.0], (4, 1)))

    def test_band_crop(self):
        train, _ = spectrum_to_datasets(
            SPECTRUM, SPECTRUM, n_train_per_class=2, n_test_per_class=0,
            seed=1, task_id="crop", n_intermediate=50,
            freq_min=15.0, freq_max=25.0,
        )
        assert train.feature_freqs.tolist() == [20.0]

    def test_crop_to_nothing_rejected(self):
        with pytest.raises(ValueError, match="no spectrum lines"):
            spectrum_to_datasets(
                SPECTRUM, SPECTRUM, n_train_per_class=2, n_test_per_class=0,
                seed=1, task_id="x", n_intermediate=50, freq_min=1000.0,
            )

    def test_mismatched_grids_rejected(self):
        other = [SpectrumLine(11.0, 1.0, 0.8, 6), SpectrumLine(20.0, 0.5, 0.9, 6),
                 SpectrumLine(30.0, 2.0, 0.95, 6)]
        with pytest.raises(ValueError, match="share the same frequency"):
            spectrum_to_datasets(
                SPECTRUM, other, n_train_per_class=2, n_test_per_class=0,
                seed=1, task_id="x", n_intermediate=50,
            )

    def test_deterministic_per_seed(self):
        kwargs = dict(n_train_per_class=4, n_test_per_class=2, task_id="m",
                      n_intermediate=60)
        a, _ = spectrum_to_datasets(SPECTRUM, SPECTRUM, seed=7, **kwargs)
        b, _ = spectrum_to_datasets(SPECTRUM, SPECTRUM, seed=7, **kwargs)
        assert np.array_equal(a.features, b.features)
