import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frfselect import (
    ModalMode,
    SpectrumFormatError,
    SpectrumLine,
    SyntheticPopulationSpec,
    TaskDataset,
    coherence_std,
    load_spectrum,
    monte_carlo_expand,
    population_spectrum,
    spectrum_to_datasets,
    synth_population,
    window_split,
    write_spectrum,
)
from frfselect.datagen import modal_magnitude
from tables import LINE_BREAKS_INSIDE_A_LINE


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
        with pytest.raises(ValueError, match="n_avg must be at least 1, got 0"):
            SpectrumLine(1.0, 1.0, 0.9, n_avg=0)

    @pytest.mark.parametrize("n_avg", [2.5, 6.0, True])
    def test_n_avg_must_be_an_integer(self, n_avg):
        with pytest.raises(ValueError, match="n_avg must be an integer"):
            SpectrumLine(1.0, 1.0, 0.9, n_avg=n_avg)

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        # a float32 coherence and the same value as a Python float give the
        # same standard deviation, as a float, and the same draws
        coherence = np.float32(0.8)
        narrow = SpectrumLine(np.float32(100.0), np.float32(2.0), coherence, np.int64(6))
        wide = SpectrumLine(100.0, 2.0, float(coherence), 6)
        assert narrow == wide
        assert [type(v) for v in vars(narrow).values()] == [float, float, float, int]
        assert type(coherence_std(narrow)) is float
        assert coherence_std(narrow) == coherence_std(wide) == 0.43301268396890813
        for two_stage in (True, False):
            draws = [monte_carlo_expand([line], 50, 20, 3, two_stage=two_stage)
                     for line in (narrow, wide)]
            assert np.array_equal(*draws)
        mode = ModalMode(np.float32(40.0), np.float32(0.04), np.int64(2))
        assert [type(v) for v in vars(mode).values()] == [float, float, float]
        spec = small_spec(noise_sd=np.float32(0.5), n_samples=np.int64(20), coherence=1)
        assert (type(spec.noise_sd), type(spec.n_samples), type(spec.coherence)) == (float, int, float)


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
        with pytest.raises(ValueError, match="n_intermediate must be at least 2, got 1"):
            monte_carlo_expand(SPECTRUM, 1, 5, seed=0)
        with pytest.raises(ValueError, match="n_out must be at least 1, got 0"):
            monte_carlo_expand(SPECTRUM, 10, 0, seed=0)
        for bad in (10.7, 2.5, True):
            with pytest.raises(ValueError, match="n_intermediate must be an integer"):
                monte_carlo_expand(SPECTRUM, bad, 3, seed=0)
            with pytest.raises(ValueError, match="n_out must be an integer"):
                monte_carlo_expand(SPECTRUM, 10, bad, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_expand([], 10, 5, seed=0)

    @pytest.mark.parametrize("coherence, two_stage", [
        (1e-300, True),  # the pool's std overflows
        (1e-320, True),  # the line's sd is inf
        (1e-320, False),
    ])
    def test_line_whose_standard_deviation_overflows_is_named(self, coherence, two_stage):
        lines = [SpectrumLine(10.0, 1.0, 0.9), SpectrumLine(13.0, 1.0, coherence)]
        message = rf"^spectrum line 1 \(13\.0 Hz, coherence {coherence}\): Monte-Carlo"
        with pytest.raises(ValueError, match=message + " standard deviation is not finite$"):
            monte_carlo_expand(lines, 100, 5, seed=0, two_stage=two_stage)

    @pytest.mark.parametrize("two_stage", [True, False])
    def test_line_whose_mean_overflows_is_named(self, two_stage):
        # two stages: the pool's mean overflows; one stage: the draws do
        lines = [SpectrumLine(10.0, 1.0, 0.9), SpectrumLine(13.0, 1e308, 0.5)]
        message = r"^spectrum line 1 \(13\.0 Hz, coherence 0\.5\): Monte-Carlo mean or draws"
        with pytest.raises(ValueError, match=message + " are not finite$"):
            monte_carlo_expand(lines, 100, 50, seed=0, two_stage=two_stage)

    def test_one_stage_draws_a_finite_huge_sd(self):
        # sd 2.9e299 is finite, so only the two-stage pool's std overflows
        out = monte_carlo_expand([SpectrumLine(13.0, 1.0, 1e-300)], 100, 5, seed=0,
                                 two_stage=False)
        assert np.isfinite(out).all()


def sizes_of(ranges):
    return tuple(stop - start for start, stop in ranges)


class TestWindowSplit:
    def test_even_split(self):
        ranges = window_split(588, 6)
        assert sizes_of(ranges) == (98,) * 6
        assert ranges[0] == (0, 98)
        assert ranges[-1] == (490, 588)

    def test_uneven_split_puts_extras_first(self):
        sizes = sizes_of(window_split(588, 16))
        assert sizes == (37,) * 12 + (36,) * 4
        assert sum(sizes) == 588

    def test_single_window(self):
        assert window_split(10, 1) == ((0, 10),)

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            window_split(10, 0)
        with pytest.raises(ValueError, match=r"n_windows must lie in 1\.\.10, got 11"):
            window_split(10, 11)
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="n_windows must be an integer"):
                window_split(10, bad)
        for bad in (10.5, 10.0, True, "10"):
            with pytest.raises(ValueError, match="n_features must be an integer"):
                window_split(bad, 1)
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"n_features must be at least 1, got {bad}"):
                window_split(bad, 1)

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_invariants(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        ranges = window_split(n, k)
        sizes = sizes_of(ranges)
        assert sum(sizes) == n
        assert len(sizes) == k
        assert max(sizes) - min(sizes) <= 1
        assert list(sizes) == sorted(sizes, reverse=True)
        cursor = 0
        for start, stop in ranges:
            assert start == cursor
            cursor = stop
        assert cursor == n


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
            small_spec(freq_range=(200.0, 5.0))
        for name, value in (("class_shift", None), ("nuisance_band", 5), ("freq_range", None),
                            ("modes", None)):
            with pytest.raises(ValueError, match=rf"^{name} must be a list, got {value}$"):
                small_spec(**{name: value})
        # every class-1 and nuisance mode must be a valid ModalMode: finite, above 0 Hz
        huge = (ModalMode(1e308, 0.04), ModalMode(90.0, 0.03))
        for overrides, message in (
            (dict(class_shift=(-50.0, -5.0)),
             "class_shift[0] must be a shift that keeps mode 0 (40.0 Hz) finite and above 0, got -50.0"),
            (dict(modes=huge, class_shift=(1e308, -5.0)),
             "class_shift[0] must be a shift that keeps mode 0 (1e+308 Hz) finite and above 0, got 1e+308"),
            (dict(nuisance_band=(-5.0, 3.0)), "nuisance_band[0] must be above 0, got -5.0"),
            (dict(modes=(40.0, ModalMode(90.0, 0.03))), "modes[0] must be a ModalMode, got 40.0"),
            (dict(nuisance_class_shift=-500.0), "nuisance_class_shift must be a shift that "
             "keeps nuisance_band (130.0, 190.0) finite and above 0, got -500.0"),
            (dict(nuisance_band=(130.0, 1e308), nuisance_class_shift=1e308),
             "nuisance_class_shift must be a shift that keeps nuisance_band (130.0, 1e+308) "
             "finite and above 0, got 1e+308"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                small_spec(**overrides)
        # without nuisance modes the band and its shift are unused, and every
        # task has the shared modes' curves
        pop = synth_population(small_spec(nuisance_modes=0, nuisance_band=(-5.0, 3.0),
                                          nuisance_class_shift=-500.0))
        for c0, c1 in pop.class_curves[1:]:
            assert np.array_equal(c0, pop.class_curves[0][0])
            assert np.array_equal(c1, pop.class_curves[0][1])

    def test_freq_range_too_narrow_for_its_grid(self):
        # linspace repeats 5.0 on a range two ulps wide: the grid names no column
        with pytest.raises(ValueError, match=re.escape(
            "freq_range (5.0, 5.000000000000002) is too narrow for n_features=50: "
            "the frequency grid repeats a value"
        )):
            small_spec(freq_range=(5.0, 5.000000000000002), n_features=50)
        assert small_spec(freq_range=(5.0, 5.000000000000002), n_features=2).n_features == 2

    @pytest.mark.parametrize("name, value", [
        ("nuisance_band", (130.0,)), ("nuisance_band", (130.0, 150.0, 190.0)),
        ("freq_range", (5.0,)), ("freq_range", (5.0, 100.0, 200.0)),
    ])
    def test_band_and_range_are_pairs(self, name, value):
        message = re.escape(f"{name} must be a pair of numbers, got {value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_spec(**{name: value})

    @pytest.mark.parametrize("field, minimum", [
        ("n_samples", 1), ("n_tasks", 1), ("n_features", 1),
        ("n_test", 0), ("nuisance_modes", 0), ("seed", 0),
    ])
    def test_integer_fields(self, field, minimum):
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                small_spec(**{field: bad})
        with pytest.raises(ValueError, match=f"{field} must be at least {minimum}"):
            small_spec(**{field: minimum - 1})


class TestSpectrumIO:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum(SPECTRUM, path)
        back = load_spectrum(path, n_avg=6)
        assert back == SPECTRUM

    def test_round_trip_of_numpy_fields(self, tmp_path):
        # population_spectrum passes a numpy coherence through
        path = tmp_path / "spec.csv"
        lines = [SpectrumLine(np.float64(1.0), np.float32(0.5), np.float64(0.9))]
        lines += population_spectrum(synth_population(small_spec()), 0, 1, np.float64(0.9))
        write_spectrum(lines, path)
        assert path.read_text().splitlines()[1] == "1.0,0.5,0.9"
        assert load_spectrum(path) == lines

    def test_file_that_is_not_utf8_names_itself(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"freq_hz,h_mean,coherence\n1.0,\xff,0.9\n")
        with pytest.raises(SpectrumFormatError) as err:
            load_spectrum(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte at byte 29)"

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

    @pytest.mark.parametrize("row", ["1_0,0.5,0.9", "10,\u0661.\u0665,0.9", "10,0.5,0.9_0"])
    def test_numbers_take_the_format_syntax_only(self, tmp_path, row):
        # float() reads other scripts' digits and _ digit grouping
        path = tmp_path / "bad.csv"
        path.write_text(f"freq_hz,h_mean,coherence\n{row}\n20,0.5,0.9\n", encoding="utf-8")
        with pytest.raises(SpectrumFormatError,
                           match=f"^{re.escape(str(path))}: non-numeric value, line 2$"):
            load_spectrum(path)

    @pytest.mark.parametrize("char", LINE_BREAKS_INSIDE_A_LINE)
    def test_line_break_characters_stay_inside_their_cell(self, tmp_path, char):
        path = tmp_path / "bad.csv"
        path.write_text(f"freq_hz,h_mean,coherence\n1.0,0.5{char}1,0.9\n2.0,1.0,0.9\n")
        with pytest.raises(SpectrumFormatError,
                           match=f"^{re.escape(str(path))}: non-numeric value, line 2$"):
            load_spectrum(path)

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"freq_hz,h_mean,coherence\r\n10.0,2.0,0.9\r\n20.0,1e-20,0.3\r\n")
        assert load_spectrum(path, n_avg=4) == [SpectrumLine(10.0, 2.0, 0.9, 4),
                                                SpectrumLine(20.0, 1e-20, 0.3, 4)]

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

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # a bad cell on line 2 comes before a short row on line 3
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,h_mean,coherence\n1.0,oops,0.9\n2.0,1.0\n")
        with pytest.raises(SpectrumFormatError,
                           match=f"^{re.escape(str(path))}: non-numeric value, line 2$"):
            load_spectrum(path)

    def test_bad_header_without_rows_names_the_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,h,c\n")
        with pytest.raises(SpectrumFormatError, match="malformed header, line 1"):
            load_spectrum(path)

    def test_written_bytes(self, tmp_path):
        # numpy fields and ints are written as the shortest repr of their float
        path = tmp_path / "spec.csv"
        write_spectrum([SpectrumLine(np.float32(10.1), 2, 0.9),
                        SpectrumLine(20.0, np.float64(1e-20), np.float32(0.3), 4)], path)
        assert path.read_bytes() == (b"freq_hz,h_mean,coherence\n10.100000381469727,2.0,0.9\n"
                                     b"20.0,1e-20,0.30000001192092896\n")

    def test_population_spectrum_matches_curve(self):
        pop = synth_population(small_spec())
        lines = population_spectrum(pop, task=0, label=1, coherence=0.9)
        assert len(lines) == 64
        assert [ln.freq for ln in lines] == pop.freqs.tolist()
        assert [ln.h_mean for ln in lines] == pop.class_curves[0][1].tolist()
        assert all(ln.coherence == 0.9 for ln in lines)

    def test_population_spectrum_rejects_bad_task_and_label(self):
        pop = synth_population(small_spec())
        n_tasks = len(pop.class_curves)
        for task in (-1, n_tasks):
            with pytest.raises(ValueError, match=rf"task must lie in 0\.\.{n_tasks - 1}, got {task}"):
                population_spectrum(pop, task, 1)
        for label in (-1, 2):
            with pytest.raises(ValueError, match=f"label must be 0 or 1, got {label}"):
                population_spectrum(pop, 0, label)
        for name, args in (("task", (True, 1)), ("task", (0.0, 1)), ("label", (0, True)),
                           ("label", (0, 1.0))):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                population_spectrum(pop, *args)
        assert population_spectrum(pop, np.int64(0), np.int64(1)) == population_spectrum(pop, 0, 1)


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

    def test_rejects_bad_counts(self):
        kwargs = dict(n_train_per_class=2, n_test_per_class=0, seed=1, task_id="x",
                      n_intermediate=50)
        cases = [
            ("n_train_per_class", 0, "at least 1"),
            ("n_test_per_class", -1, "at least 0"),
            ("n_intermediate", 1, "at least 2"),
        ]
        for field, below, message in cases:
            for value, expected in ((below, message), (2.5, "an integer"), (True, "an integer")):
                with pytest.raises(ValueError, match=f"{field} must be {expected}"):
                    spectrum_to_datasets(SPECTRUM, SPECTRUM, **{**kwargs, field: value})

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


class TestLeanDatasets:
    """Generated datasets are built by the constructor: float64 C-ordered
    features, int64 labels and float64 frequencies, all read-only, with each
    dataset owning its frequencies."""

    @staticmethod
    def assert_built(data):
        for name, dtype in (("features", np.float64), ("labels", np.int64),
                            ("feature_freqs", np.float64)):
            a = getattr(data, name)
            assert a.dtype == dtype and a.flags.c_contiguous and a.flags.owndata, name
            assert not a.flags.writeable, name

    def test_synth_population_matches_the_constructor(self):
        got = synth_population(small_spec())
        datasets = got.tasks + got.test_tasks
        for data in datasets:
            self.assert_built(data)
        # each dataset owns its frequencies, apart from the population's grid
        freqs = [t.feature_freqs for t in datasets] + [got.freqs]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(freqs) for b in freqs[i + 1:])

    def test_spectrum_to_datasets_matches_the_constructor(self):
        # integer frequencies still come out as float64
        lines = [SpectrumLine(f, h, 0.9) for f, h in ((10, 1.0), (20, 0.5), (30, 2.0))]
        got = spectrum_to_datasets(lines, lines, n_train_per_class=4, n_test_per_class=3, seed=3,
                                   task_id="m", n_intermediate=50)
        for data in got:
            self.assert_built(data)
        assert not np.shares_memory(got[0].feature_freqs, got[1].feature_freqs)

    def test_non_finite_features_keep_the_constructor_message(self):
        # noise near the float limit overflows the synthetic draws
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"^task 'task1': features contain non-finite values$"):
                synth_population(small_spec(noise_sd=1e308))

    def test_non_increasing_frequencies_keep_the_constructor_message(self):
        for freqs in ((20.0, 10.0), (10.0, 10.0)):
            lines = [SpectrumLine(f, 1.0, 0.9) for f in freqs]
            with pytest.raises(ValueError, match=r"^feature_freqs must be finite and strictly increasing$"):
                spectrum_to_datasets(lines, lines, n_train_per_class=2, n_test_per_class=0,
                                     seed=0, task_id="x", n_intermediate=10)

    def test_generation_peak_memory_stays_near_its_output(self):
        # the paper-grid population (3 tasks, 150 samples per class, 588
        # lines); the noise blocks and the constructor's copy of them put the
        # peak at 1.37x, and one more copy of the samples would pass 1.5x. The
        # first call in a process also imports numpy.random and numpy.ma,
        # which tracemalloc would count, so one warm-up call runs untraced.
        spec = SyntheticPopulationSpec(
            modes=(ModalMode(40.0, 0.04), ModalMode(90.0, 0.03)), class_shift=(4.0, -5.0),
            nuisance_band=(130.0, 190.0), noise_sd=0.3, n_samples=150, seed=3, n_tasks=3,
            n_features=588,
        )
        synth_population(spec)
        tracemalloc.start()
        try:
            pop = synth_population(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [a for t in pop.tasks + pop.test_tasks
                  for a in (t.features, t.labels, t.feature_freqs)]
        arrays += [*pop.ground_truth, pop.common_features, *sum(pop.class_curves, ()), pop.freqs]
        assert peak <= 1.5 * sum(a.nbytes for a in arrays)
