"""Dataset builders.

Three capabilities live here: turning a measured frequency-response
spectrum with per-line coherence into a Monte-Carlo population of sample
curves, splitting a feature axis into contiguous near-equal windows, and
generating a fully synthetic modal population with known discriminative
features for end-to-end validation at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (TaskDataset, _check_int, _check_real, _plain_number, _split_rows,
                    _table_lines, _write_table)

__all__ = [
    "SpectrumLine",
    "SpectrumFormatError",
    "coherence_std",
    "monte_carlo_expand",
    "window_split",
    "ModalMode",
    "SyntheticPopulationSpec",
    "SyntheticPopulation",
    "synth_population",
    "population_spectrum",
    "spectrum_to_datasets",
    "load_spectrum",
    "write_spectrum",
]

SPECTRUM_HEADER = ("freq_hz", "h_mean", "coherence")


class SpectrumFormatError(ValueError):
    """A spectrum file deviates from the expected delimited layout."""


@dataclass(frozen=True)
class SpectrumLine:
    """One frequency line of an averaged measurement.

    freq : frequency in Hz.
    h_mean : mean response magnitude at that line.
    coherence : coherence estimate in (0, 1].
    n_avg : number of averages behind the estimate.
    """

    freq: float
    h_mean: float
    coherence: float
    n_avg: int = 6

    def __post_init__(self):
        _check_real("freq", self.freq)
        _check_real("h_mean", self.h_mean)
        _check_real("coherence", self.coherence, above=0, at_most=1)
        _check_int("n_avg", self.n_avg, 1)


def coherence_std(line: SpectrumLine) -> float:
    """Standard deviation of a response line implied by its coherence.

    ``sqrt(1 - c^2) / (|c| * sqrt(2 * n_avg)) * |h_mean|`` with coherence c;
    exactly 0 at full coherence, homogeneous of degree one in h_mean.
    """
    c = line.coherence
    return math.sqrt(1.0 - c * c) / (abs(c) * math.sqrt(2.0 * line.n_avg)) * abs(line.h_mean)


def monte_carlo_expand(
    spectrum,
    n_intermediate: int,
    n_out: int,
    seed,
    *,
    two_stage: bool = True,
) -> np.ndarray:
    """Draw an (n_out, n_lines) sample matrix around a measured spectrum.

    Every line gets its own seed-derived substream, so the matrix is
    reproducible and independent of any parallel evaluation order. In the
    default two-stage mode an intermediate population of ``n_intermediate``
    draws is taken per line, its mean and sample standard deviation are
    re-estimated, and the output rows are drawn from that refitted normal;
    ``two_stage=False`` draws the output directly from the line statistics.
    A line whose standard deviation overflows, as at a coherence near 0, raises
    ValueError naming its index and frequency; one whose mean overflows gives
    non-finite rows, which ``TaskDataset`` rejects.
    """
    lines = tuple(spectrum)
    if not lines:
        raise ValueError("spectrum is empty")
    _check_int("n_intermediate", n_intermediate, 2)
    _check_int("n_out", n_out, 1)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(lines))
    out = np.empty((n_out, len(lines)))
    with np.errstate(over="ignore", invalid="ignore"):  # no warning; see the check below
        for m, line in enumerate(lines):
            rng = np.random.default_rng(children[m])
            mu, sd = line.h_mean, coherence_std(line)
            if two_stage and math.isfinite(sd):
                pool = rng.normal(mu, sd, n_intermediate)
                mu, sd = float(pool.mean()), float(pool.std(ddof=1))
            if math.isfinite(mu) and not math.isfinite(sd):
                raise ValueError(
                    f"spectrum line {m} ({line.freq} Hz, coherence {line.coherence}): "
                    "Monte-Carlo standard deviation is not finite"
                )
            out[:, m] = rng.normal(mu, sd, n_out)
    return out


def window_split(n_features: int, n_windows: int) -> tuple[tuple[int, int], ...]:
    """Partition [0, n_features) into ``n_windows`` contiguous ``(start, stop)`` ranges.

    Sizes differ by at most one and the first ``n_features mod n_windows``
    windows carry the extra feature.
    """
    n_features = _check_int("n_features", n_features, 1)
    n_windows = _check_int("n_windows", n_windows)
    if not 1 <= n_windows <= n_features:
        raise ValueError(f"n_windows must lie in 1..{n_features}, got {n_windows}")
    base, extra = divmod(n_features, n_windows)
    ranges = []
    start = 0
    for w in range(n_windows):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


@dataclass(frozen=True)
class ModalMode:
    """Single-degree-of-freedom resonance: natural frequency (Hz), damping
    ratio in (0, 1), and a positive amplitude scale."""

    natural_freq: float
    damping: float
    amplitude: float = 1.0

    def __post_init__(self):
        _check_real("natural_freq", self.natural_freq, above=0)
        _check_real("damping", self.damping, above=0, below=1)
        _check_real("amplitude", self.amplitude, above=0)


def modal_magnitude(freqs, modes) -> np.ndarray:
    """Sum of single-mode magnitude responses evaluated on a frequency grid."""
    f = np.asarray(freqs, dtype=float)
    total = np.zeros_like(f)
    for mode in modes:
        r = f / mode.natural_freq
        total += mode.amplitude / np.sqrt((1.0 - r * r) ** 2 + (2.0 * mode.damping * r) ** 2)
    return total


@dataclass(frozen=True)
class SyntheticPopulationSpec:
    """Recipe for a multi-task synthetic population with known ground truth.

    Common structural modes are shared by all tasks; ``class_shift`` moves
    each mode's natural frequency for class 1, so the discriminative
    features sit at the same grid indices in every task. Each task
    additionally gets its own nuisance modes drawn inside
    ``nuisance_band``; ``nuisance_class_shift`` moves those for class 1,
    making them discriminative within their task but useless elsewhere.
    """

    modes: tuple[ModalMode, ...]
    class_shift: tuple[float, ...]
    nuisance_band: tuple[float, float]
    noise_sd: float
    n_samples: int
    seed: int
    n_test: int = 0
    n_tasks: int = 2
    n_features: int = 128
    freq_range: tuple[float, float] = (5.0, 200.0)
    nuisance_modes: int = 2
    nuisance_class_shift: float = 0.0
    nuisance_damping: float = 0.05
    nuisance_amplitude: float = 1.0
    coherence: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        for name in ("class_shift", "nuisance_band", "freq_range"):
            entries = enumerate(getattr(self, name))
            values = tuple(_check_real(f"{name}[{i}]", x) for i, x in entries)
            if name != "class_shift" and len(values) != 2:
                raise ValueError(f"{name} must be a pair of numbers, got {values}")
            object.__setattr__(self, name, values)
        if len(self.class_shift) != len(self.modes):
            raise ValueError(
                f"class_shift has {len(self.class_shift)} entries for {len(self.modes)} modes"
            )
        for name, minimum in (("n_samples", 1), ("n_tasks", 1), ("n_features", 1),
                              ("n_test", 0), ("nuisance_modes", 0), ("seed", 0)):
            _check_int(name, getattr(self, name), minimum)
        lo, hi = self.nuisance_band
        if self.nuisance_modes > 0 and not lo < hi:
            raise ValueError(f"nuisance_band must be an increasing pair, got {self.nuisance_band}")
        flo, fhi = self.freq_range
        if not 0 < flo < fhi:
            raise ValueError(f"freq_range must be an increasing positive pair, got {self.freq_range}")
        if not np.all(np.diff(np.linspace(flo, fhi, self.n_features)) > 0):
            raise ValueError(
                f"freq_range {self.freq_range} is too narrow for n_features={self.n_features}: "
                "the frequency grid repeats a value"
            )
        _check_real("noise_sd", self.noise_sd, at_least=0)
        _check_real("nuisance_class_shift", self.nuisance_class_shift)
        _check_real("nuisance_damping", self.nuisance_damping, above=0, below=1)
        _check_real("nuisance_amplitude", self.nuisance_amplitude, above=0)
        _check_real("coherence", self.coherence, above=0, at_most=1)


@dataclass(frozen=True, eq=False)
class SyntheticPopulation:
    """Generated tasks plus the construction's ground truth.

    ``ground_truth[t]`` holds the feature indices where task t's noiseless
    class curves differ by more than the noise standard deviation;
    ``common_features`` is the intersection across tasks.
    """

    tasks: tuple[TaskDataset, ...]
    test_tasks: tuple[TaskDataset, ...]
    ground_truth: tuple[np.ndarray, ...]
    common_features: np.ndarray
    class_curves: tuple[tuple[np.ndarray, np.ndarray], ...]
    freqs: np.ndarray


def _shifted(modes, shifts):
    return tuple(
        ModalMode(m.natural_freq + s, m.damping, m.amplitude) for m, s in zip(modes, shifts)
    )


def _train_test(block0, block1, n_train: int, freqs, task_id: str):
    """Train and test datasets from equal-sized class-0 and class-1 sample blocks.

    The first ``n_train`` rows of each block train; the rest test (None when
    no rows are left). Finite blocks on strictly increasing frequencies pass
    the constructor's checks, so they skip them and its copy; anything else
    goes through the constructor and fails there.
    """
    freqs = np.asarray(freqs, dtype=float)
    checked = (np.isfinite(block0).all() and np.isfinite(block1).all()
               and np.isfinite(freqs).all() and np.all(np.diff(freqs) > 0))
    make = TaskDataset._from_checked if checked else TaskDataset

    def dataset(rows0, rows1):
        labels = np.repeat(np.array([0, 1], dtype=np.int64), [len(rows0), len(rows1)])
        return make(np.vstack([rows0, rows1]), labels, freqs.copy(), task_id)

    test = dataset(block0[n_train:], block1[n_train:]) if len(block0) > n_train else None
    return dataset(block0[:n_train], block1[:n_train]), test


def synth_population(spec: SyntheticPopulationSpec) -> SyntheticPopulation:
    """Generate balanced train (and optional test) datasets for every task."""
    rng = np.random.default_rng(spec.seed)
    freqs = np.linspace(spec.freq_range[0], spec.freq_range[1], spec.n_features)
    per_class = spec.n_samples + spec.n_test

    tasks = []
    test_tasks = []
    truths = []
    curves = []
    for t in range(spec.n_tasks):
        if spec.nuisance_modes > 0:
            lo, hi = spec.nuisance_band
            nuis_freqs = np.sort(rng.uniform(lo, hi, spec.nuisance_modes))
        else:
            nuis_freqs = np.empty(0)
        nuis0 = tuple(
            ModalMode(f, spec.nuisance_damping, spec.nuisance_amplitude) for f in nuis_freqs
        )
        nuis1 = tuple(
            ModalMode(f + spec.nuisance_class_shift, spec.nuisance_damping, spec.nuisance_amplitude)
            for f in nuis_freqs
        )
        curve0 = modal_magnitude(freqs, spec.modes + nuis0)
        curve1 = modal_magnitude(freqs, _shifted(spec.modes, spec.class_shift) + nuis1)
        peak = max(float(curve0.max(initial=0.0)), float(curve1.max(initial=0.0)))
        if peak > 0:
            curve0 = curve0 / peak
            curve1 = curve1 / peak

        # the noise is drawn, then the curve added in place: the same sums
        # as curve + noise without a second block
        block0 = rng.normal(0.0, spec.noise_sd, (per_class, spec.n_features))
        block0 += curve0
        block1 = rng.normal(0.0, spec.noise_sd, (per_class, spec.n_features))
        block1 += curve1
        train, test = _train_test(block0, block1, spec.n_samples, freqs, f"task{t + 1}")
        tasks.append(train)
        if test is not None:
            test_tasks.append(test)
        truths.append(np.flatnonzero(np.abs(curve0 - curve1) > spec.noise_sd))
        curves.append((curve0, curve1))

    common = truths[0]
    for gt in truths[1:]:
        common = np.intersect1d(common, gt)
    return SyntheticPopulation(
        tasks=tuple(tasks),
        test_tasks=tuple(test_tasks),
        ground_truth=tuple(truths),
        common_features=common,
        class_curves=tuple(curves),
        freqs=freqs,
    )


def population_spectrum(pop: SyntheticPopulation, task: int, label: int,
                        coherence: float = 0.95, n_avg: int = 6) -> list[SpectrumLine]:
    """Render one synthetic class curve as a measured-spectrum table.

    Synthetic curves carry no coherence of their own, so a constant profile
    stands in; this makes the Monte-Carlo expansion path exercisable
    without instrument data.
    """
    n_tasks = len(pop.class_curves)
    if not 0 <= _check_int("task", task) < n_tasks:
        raise ValueError(f"task must lie in 0..{n_tasks - 1}, got {task}")
    if _check_int("label", label) not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    curve = pop.class_curves[task][label]
    return [
        SpectrumLine(float(f), float(h), coherence, n_avg)
        for f, h in zip(pop.freqs, curve)
    ]


def _crop_and_normalize(lines, freq_min, freq_max, normalize):
    kept = [
        ln
        for ln in lines
        if (freq_min is None or ln.freq >= freq_min) and (freq_max is None or ln.freq <= freq_max)
    ]
    if not kept:
        raise ValueError("no spectrum lines remain inside the analysed band")
    if normalize:
        peak = max(abs(ln.h_mean) for ln in kept)
        if peak > 0:
            kept = [
                SpectrumLine(ln.freq, ln.h_mean / peak, ln.coherence, ln.n_avg) for ln in kept
            ]
    return kept


def spectrum_to_datasets(
    class0_lines,
    class1_lines,
    *,
    n_train_per_class: int,
    n_test_per_class: int,
    seed,
    task_id: str,
    n_intermediate: int = 10_000,
    two_stage: bool = True,
    normalize: bool = True,
    freq_min: float | None = None,
    freq_max: float | None = None,
) -> tuple[TaskDataset, TaskDataset | None]:
    """Expand one measured spectrum per class into train/test datasets.

    Each mean curve is cropped to the analysed band, divided by its own
    peak magnitude (``normalize``), then Monte-Carlo expanded; the first
    ``n_train_per_class`` rows of each class form the training set and the
    remainder the test set (None when ``n_test_per_class`` is 0).
    """
    _check_int("n_train_per_class", n_train_per_class, 1)
    _check_int("n_test_per_class", n_test_per_class, 0)
    for name, bound in (("freq_min", freq_min), ("freq_max", freq_max)):
        if bound is not None:
            _check_real(name, bound)
    c0 = _crop_and_normalize(tuple(class0_lines), freq_min, freq_max, normalize)
    c1 = _crop_and_normalize(tuple(class1_lines), freq_min, freq_max, normalize)
    f0 = [ln.freq for ln in c0]
    f1 = [ln.freq for ln in c1]
    if f0 != f1:
        raise ValueError("class spectra must share the same frequency lines")

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sub0, sub1 = root.spawn(2)
    per_class = n_train_per_class + n_test_per_class
    block0 = monte_carlo_expand(c0, n_intermediate, per_class, sub0, two_stage=two_stage)
    block1 = monte_carlo_expand(c1, n_intermediate, per_class, sub1, two_stage=two_stage)

    return _train_test(block0, block1, n_train_per_class, np.array(f0), task_id)


def load_spectrum(path, n_avg: int = 6) -> list[SpectrumLine]:
    """Parse a delimited spectrum file with header freq_hz,h_mean,coherence."""
    header, rows = _table_lines(path, SpectrumFormatError)
    if tuple(cell.strip() for cell in header) != SPECTRUM_HEADER:
        raise SpectrumFormatError(
            f"{path}: malformed header, line 1: expected {','.join(SPECTRUM_HEADER)}"
        )
    out = []
    prev_freq = None
    for lineno, cells in _split_rows(path, header, rows, SpectrumFormatError):
        try:
            freq, h_mean, coh = (_plain_number(c) for c in cells)
        except ValueError:
            raise SpectrumFormatError(
                f"{path}: non-numeric value, line {lineno}"
            ) from None
        if prev_freq is not None and freq <= prev_freq:
            raise SpectrumFormatError(
                f"{path}: frequencies must be strictly increasing, line {lineno}"
            )
        prev_freq = freq
        try:
            out.append(SpectrumLine(freq, h_mean, coh, n_avg))
        except ValueError as exc:
            raise SpectrumFormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_spectrum(lines, path) -> None:
    """Write spectrum lines in the load_spectrum format."""
    rows = [(float(ln.freq), float(ln.h_mean), float(ln.coherence)) for ln in lines]
    _write_table(path, SPECTRUM_HEADER, rows)
