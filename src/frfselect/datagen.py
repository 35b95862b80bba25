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

from .model import (TaskDataset, _check_int, _check_list, _check_real, _plain_number,
                    _split_rows, _table_lines, _write_table)

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
        object.__setattr__(self, "freq", _check_real("freq", self.freq))
        object.__setattr__(self, "h_mean", _check_real("h_mean", self.h_mean))
        object.__setattr__(self, "coherence",
                           _check_real("coherence", self.coherence, above=0, at_most=1))
        object.__setattr__(self, "n_avg", _check_int("n_avg", self.n_avg, 1))


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
    A line whose standard deviation overflows, as at a coherence near 0, or
    whose draws do, as at a mean near the float limit, raises ValueError
    naming its index, frequency and coherence.
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
            where = f"spectrum line {m} ({line.freq} Hz, coherence {line.coherence})"
            if math.isfinite(mu) and not math.isfinite(sd):
                raise ValueError(f"{where}: Monte-Carlo standard deviation is not finite")
            out[:, m] = rng.normal(mu, sd, n_out)
            if not np.isfinite(out[:, m]).all():  # an overflowing mean or draw
                raise ValueError(f"{where}: Monte-Carlo mean or draws are not finite")
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
        for name, kw in (("natural_freq", {}), ("damping", dict(below=1)), ("amplitude", {})):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), above=0, **kw))


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
        object.__setattr__(self, "modes", _check_list("modes", self.modes))
        for i, mode in enumerate(self.modes):
            if not isinstance(mode, ModalMode):
                raise ValueError(f"modes[{i}] must be a ModalMode, got {mode!r}")
        for name in ("class_shift", "nuisance_band", "freq_range"):
            entries = enumerate(_check_list(name, getattr(self, name)))
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
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum))
        lo, hi = self.nuisance_band
        if self.nuisance_modes > 0 and not lo < hi:
            raise ValueError(f"nuisance_band must be an increasing pair, got {self.nuisance_band}")
        shift = _check_real("nuisance_class_shift", self.nuisance_class_shift)
        object.__setattr__(self, "nuisance_class_shift", shift)
        # class 1's modes, and the nuisance modes drawn in [lo, hi), must be
        # valid ModalModes: finite and above 0 Hz
        for i, (mode, d) in enumerate(zip(self.modes, self.class_shift)):
            if not 0 < mode.natural_freq + d < math.inf:
                raise ValueError(f"class_shift[{i}] must be a shift that keeps mode {i} "
                                 f"({mode.natural_freq} Hz) finite and above 0, got {d}")
        if self.nuisance_modes > 0 and not lo > 0:
            raise ValueError(f"nuisance_band[0] must be above 0, got {lo}")
        if self.nuisance_modes > 0 and not (lo + shift > 0 and hi + shift < math.inf):
            raise ValueError(f"nuisance_class_shift must be a shift that keeps nuisance_band "
                             f"{self.nuisance_band} finite and above 0, got {shift}")
        flo, fhi = self.freq_range
        if not 0 < flo < fhi:
            raise ValueError(f"freq_range must be an increasing positive pair, got {self.freq_range}")
        if not np.all(np.diff(np.linspace(flo, fhi, self.n_features)) > 0):
            raise ValueError(
                f"freq_range {self.freq_range} is too narrow for n_features={self.n_features}: "
                "the frequency grid repeats a value"
            )
        reals = {"noise_sd": dict(at_least=0), "nuisance_damping": dict(above=0, below=1),
                 "nuisance_amplitude": dict(above=0), "coherence": dict(above=0, at_most=1)}
        for name, bounds in reals.items():
            object.__setattr__(self, name, _check_real(name, getattr(self, name), **bounds))


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


def _train_test(blocks, n_train: int, freqs, task_id: str):
    """Train and test datasets from stacked class-0 and class-1 sample blocks,
    shape (2, rows per class, n_lines).

    The first ``n_train`` rows of each block train; the rest test (None when
    no rows are left).
    """
    def dataset(rows):
        labels = np.repeat(np.array([0, 1]), rows.shape[1])
        return TaskDataset(rows.reshape(-1, rows.shape[2]), labels, freqs, task_id)

    test = dataset(blocks[:, n_train:]) if blocks.shape[1] > n_train else None
    return dataset(blocks[:, :n_train]), test


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

        # the noise of both classes is drawn, then the curves added in place:
        # the same sums as curve + noise without a second block
        blocks = rng.normal(0.0, spec.noise_sd, (2, per_class, spec.n_features))
        blocks[0] += curve0
        blocks[1] += curve1
        train, test = _train_test(blocks, spec.n_samples, freqs, f"task{t + 1}")
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
        SpectrumLine(f, h, coherence, n_avg)
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
    blocks = np.stack([monte_carlo_expand(c, n_intermediate, per_class, sub, two_stage=two_stage)
                       for c, sub in ((c0, sub0), (c1, sub1))])
    return _train_test(blocks, n_train_per_class, f0, task_id)


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
    rows = [(ln.freq, ln.h_mean, ln.coherence) for ln in lines]
    _write_table(path, SPECTRUM_HEADER, rows)
