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
from pathlib import Path

import numpy as np

from .model import TaskDataset

__all__ = [
    "SpectrumLine",
    "SpectrumFormatError",
    "coherence_std",
    "monte_carlo_expand",
    "WindowPlan",
    "window_split",
    "ModalMode",
    "SyntheticPopulationSpec",
    "SyntheticPopulation",
    "synth_population",
    "modal_magnitude",
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
        if not (np.isfinite(self.freq) and np.isfinite(self.h_mean)):
            raise ValueError("freq and h_mean must be finite")
        if not (np.isfinite(self.coherence) and 0.0 < self.coherence <= 1.0):
            raise ValueError(f"coherence must lie in (0, 1], got {self.coherence}")
        if int(self.n_avg) < 1:
            raise ValueError(f"n_avg must be a positive integer, got {self.n_avg}")


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
    """
    lines = tuple(spectrum)
    if not lines:
        raise ValueError("spectrum is empty")
    if int(n_intermediate) < 2:
        raise ValueError("n_intermediate must be at least 2")
    if int(n_out) < 1:
        raise ValueError("n_out must be at least 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(lines))
    out = np.empty((int(n_out), len(lines)))
    for m, line in enumerate(lines):
        rng = np.random.default_rng(children[m])
        sd = coherence_std(line)
        if two_stage:
            pool = rng.normal(line.h_mean, sd, int(n_intermediate))
            mu = float(pool.mean())
            sd_hat = float(pool.std(ddof=1))
            out[:, m] = rng.normal(mu, sd_hat, int(n_out))
        else:
            out[:, m] = rng.normal(line.h_mean, sd, int(n_out))
    return out


@dataclass(frozen=True)
class WindowPlan:
    """Contiguous partition of a feature axis into near-equal windows."""

    n_features: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("a window plan needs at least one window")
        cursor = 0
        sizes = []
        for start, stop in self.ranges:
            if start != cursor or stop <= start:
                raise ValueError(f"windows must tile the axis contiguously, got {self.ranges}")
            sizes.append(stop - start)
            cursor = stop
        if cursor != self.n_features:
            raise ValueError(f"windows cover {cursor} features, expected {self.n_features}")
        if max(sizes) - min(sizes) > 1:
            raise ValueError(f"window sizes may differ by at most one, got {sizes}")

    @property
    def n_windows(self) -> int:
        return len(self.ranges)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.ranges)


def window_split(n_features: int, n_windows: int) -> WindowPlan:
    """Partition [0, n_features) into ``n_windows`` contiguous windows.

    Sizes differ by at most one and the first ``n_features mod n_windows``
    windows carry the extra feature.
    """
    if n_windows < 1 or n_windows > n_features:
        raise ValueError(
            f"n_windows must lie in 1..{n_features}, got {n_windows}"
        )
    base, extra = divmod(n_features, n_windows)
    ranges = []
    start = 0
    for w in range(n_windows):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return WindowPlan(n_features=n_features, ranges=tuple(ranges))


@dataclass(frozen=True)
class ModalMode:
    """Single-degree-of-freedom resonance: natural frequency (Hz), damping
    ratio in (0, 1), and a positive amplitude scale."""

    natural_freq: float
    damping: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.natural_freq) and self.natural_freq > 0):
            raise ValueError(f"natural_freq must be positive, got {self.natural_freq}")
        if not (np.isfinite(self.damping) and 0.0 < self.damping < 1.0):
            raise ValueError(f"damping ratio must lie in (0, 1), got {self.damping}")
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


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
        object.__setattr__(self, "class_shift", tuple(float(s) for s in self.class_shift))
        object.__setattr__(self, "nuisance_band", tuple(float(b) for b in self.nuisance_band))
        object.__setattr__(self, "freq_range", tuple(float(b) for b in self.freq_range))
        if len(self.class_shift) != len(self.modes):
            raise ValueError(
                f"class_shift has {len(self.class_shift)} entries for {len(self.modes)} modes"
            )
        lo, hi = self.nuisance_band
        if self.nuisance_modes > 0 and not lo < hi:
            raise ValueError(f"nuisance_band must be an increasing pair, got {self.nuisance_band}")
        flo, fhi = self.freq_range
        if not (np.isfinite(flo) and np.isfinite(fhi) and 0 < flo < fhi):
            raise ValueError(f"freq_range must be an increasing positive pair, got {self.freq_range}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if self.n_samples < 1:
            raise ValueError("n_samples (per class) must be at least 1")
        if self.n_test < 0:
            raise ValueError("n_test must be nonnegative")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be at least 1")
        if self.n_features < 1:
            raise ValueError("n_features must be at least 1")
        if self.nuisance_modes < 0:
            raise ValueError("nuisance_modes must be nonnegative")
        if not (0.0 < self.nuisance_damping < 1.0):
            raise ValueError("nuisance_damping must lie in (0, 1)")
        if self.nuisance_amplitude <= 0:
            raise ValueError("nuisance_amplitude must be positive")
        if not (0.0 < self.coherence <= 1.0):
            raise ValueError("coherence must lie in (0, 1]")


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

        block0 = curve0 + rng.normal(0.0, spec.noise_sd, (per_class, spec.n_features))
        block1 = curve1 + rng.normal(0.0, spec.noise_sd, (per_class, spec.n_features))
        labels = np.concatenate([np.zeros(spec.n_samples, int), np.ones(spec.n_samples, int)])
        train_feats = np.vstack([block0[: spec.n_samples], block1[: spec.n_samples]])
        task_id = f"task{t + 1}"
        tasks.append(TaskDataset(train_feats, labels, freqs, task_id))
        if spec.n_test > 0:
            test_feats = np.vstack([block0[spec.n_samples :], block1[spec.n_samples :]])
            test_labels = np.concatenate(
                [np.zeros(spec.n_test, int), np.ones(spec.n_test, int)]
            )
            test_tasks.append(TaskDataset(test_feats, test_labels, freqs, task_id))
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
    if n_train_per_class < 1:
        raise ValueError("n_train_per_class must be at least 1")
    if n_test_per_class < 0:
        raise ValueError("n_test_per_class must be nonnegative")
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

    freqs = np.array(f0)
    train = TaskDataset(
        np.vstack([block0[:n_train_per_class], block1[:n_train_per_class]]),
        np.concatenate([np.zeros(n_train_per_class, int), np.ones(n_train_per_class, int)]),
        freqs,
        task_id,
    )
    test = None
    if n_test_per_class > 0:
        test = TaskDataset(
            np.vstack([block0[n_train_per_class:], block1[n_train_per_class:]]),
            np.concatenate([np.zeros(n_test_per_class, int), np.ones(n_test_per_class, int)]),
            freqs,
            task_id,
        )
    return train, test


def load_spectrum(path, n_avg: int = 6) -> list[SpectrumLine]:
    """Parse a delimited spectrum file with header freq_hz,h_mean,coherence."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise SpectrumFormatError(f"{path}: empty file")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header != SPECTRUM_HEADER:
        raise SpectrumFormatError(
            f"{path}: malformed header, line 1: expected {','.join(SPECTRUM_HEADER)}"
        )
    out = []
    prev_freq = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 3:
            raise SpectrumFormatError(
                f"{path}: inconsistent row width, line {lineno}: expected 3 cells, got {len(cells)}"
            )
        try:
            freq, h_mean, coh = (float(c) for c in cells)
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
    if not out:
        raise SpectrumFormatError(f"{path}: no data rows")
    return out


def write_spectrum(lines, path) -> None:
    """Write spectrum lines in the load_spectrum format."""
    rows = [",".join(SPECTRUM_HEADER)]
    for ln in lines:
        rows.append(f"{ln.freq!r},{ln.h_mean!r},{ln.coherence!r}")
    Path(path).write_text("\n".join(rows) + "\n")
