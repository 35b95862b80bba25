"""File formats and run configuration.

Datasets are comma-delimited text with a ``label`` column followed by one
column per frequency line (column names are the frequencies in Hz);
values are written with shortest round-trip decimal strings so a
save/load cycle is bit-exact. Run configuration is a YAML tree validated
at load time with every default resolved, and the resolved tree is echoed
into every report so a run can be reproduced from its own output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .datagen import ModalMode, SpectrumLine, SyntheticPopulationSpec, spectrum_to_datasets
from .experiment import (
    MODE_INDEPENDENT,
    MODE_MTL,
    EvaluationReport,
    GridSpec,
    TransferRow,
    grid_search,
    run_comparison,
)
from .model import TaskDataset
from .solver import SolverConfig

__all__ = [
    "DatasetFormatError",
    "ConfigError",
    "save_dataset",
    "load_dataset",
    "ExperimentConfig",
    "load_config",
    "write_report_bundle",
    "emit_weight_plot_table",
    "load_report",
    "load_delimited_table",
]


class DatasetFormatError(ValueError):
    """A dataset file deviates from the expected delimited layout."""


class ConfigError(ValueError):
    """A run configuration is structurally invalid or references missing files."""


def _fmt(x: float) -> str:
    return repr(float(x))


def save_dataset(data: TaskDataset, path) -> None:
    """Write a dataset in the delimited text format (see load_dataset)."""
    header = "label," + ",".join(_fmt(f) for f in data.feature_freqs)
    lines = [header]
    for label, row in zip(data.labels, data.features):
        lines.append(str(int(label)) + "," + ",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path, task_id: str | None = None) -> TaskDataset:
    """Parse a delimited dataset file.

    Header row is ``label,<freq>,<freq>,...`` with strictly increasing
    frequency column names; labels must be the digits 0 or 1. Errors name
    the offending 1-based line.
    """
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label":
        raise DatasetFormatError(
            f"{path}: malformed header, line 1: first column must be 'label'"
        )
    if len(header) < 2:
        raise DatasetFormatError(f"{path}: malformed header, line 1: no feature columns")
    freqs = []
    for k, name in enumerate(header[1:], start=1):
        try:
            freqs.append(float(name))
        except ValueError:
            raise DatasetFormatError(
                f"{path}: malformed header, line 1: column {k} name {name!r} is not a frequency"
            ) from None
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise DatasetFormatError(
            f"{path}: malformed header, line 1: frequencies must be strictly increasing"
        )

    width = len(header)
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != width:
            raise DatasetFormatError(
                f"{path}: inconsistent row width, line {lineno}: "
                f"expected {width} cells, got {len(cells)}"
            )
        try:
            label = int(cells[0])
        except ValueError:
            raise DatasetFormatError(
                f"{path}: non-numeric label, line {lineno}"
            ) from None
        if label not in (0, 1):
            raise DatasetFormatError(f"{path}: non-binary label, line {lineno}")
        values = []
        for k, cell in enumerate(cells[1:], start=1):
            try:
                v = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric value, line {lineno}, column {k}"
                ) from None
            if not np.isfinite(v):
                raise DatasetFormatError(
                    f"{path}: non-finite value, line {lineno}, column {k}"
                )
            values.append(v)
        labels.append(label)
        rows.append(values)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return TaskDataset(
        np.array(rows), np.array(labels), np.array(freqs), task_id or path.stem
    )


@dataclass(frozen=True)
class TaskFiles:
    task_id: str
    train: Path
    test: Path | None


@dataclass(frozen=True)
class SpectrumSource:
    task_id: str
    class0: Path
    class1: Path
    n_avg: int
    n_train_per_class: int
    n_test_per_class: int
    normalize: bool
    freq_min: float | None
    freq_max: float | None


@dataclass(frozen=True)
class TransferSource:
    unseen: Path | None            # dataset file, or None when synthetic
    extra_synthetic_task: bool     # generate one extra synthetic task as the unseen one


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration; ``echo`` reproduces the run."""

    seed: int
    output_dir: Path
    solver: SolverConfig
    n_windows: int
    modes: tuple[str, ...]
    threads: int
    include_traces: bool
    sampling_mode: str
    n_intermediate: int
    tasks: tuple[TaskFiles, ...]
    synthetic: SyntheticPopulationSpec | None
    spectra: tuple[SpectrumSource, ...]
    grid: GridSpec | None
    grid_strategy: str
    transfer: TransferSource | None
    echo: dict = field(repr=False)


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One config key. ``kind`` is int, float, bool, str, Path (an output
    path, kept relative), _FILE (an existing file, resolved against the
    config's directory), a _Choice, a _List or a tuple of _Key (a mapping).
    A key without a default is required. With a None default an absent
    scalar echoes null and an absent mapping or list is left out."""

    name: str
    kind: Any
    default: Any = _REQUIRED
    minimum: int | None = None


@dataclass(frozen=True)
class _List:
    item: Any
    nonempty: bool = False


@dataclass(frozen=True)
class _Choice:
    noun: str
    options: tuple[str, ...]


_FILE = object()
_MODE_NAMES = (MODE_INDEPENDENT, MODE_MTL)
_STRATEGIES = ("staged", "exhaustive")  # the first is the default
_FLOATS = _List(float)
# Keys passed straight into a library call take that call's default.
_EXPAND_DEFAULTS = spectrum_to_datasets.__kwdefaults__

# The config schema in echo order. Every key the loader accepts is here.
_SCHEMA = (
    _Key("seed", int, minimum=0),
    _Key("output_dir", Path, "out"),
    _Key("threads", int, grid_search.__kwdefaults__["threads"], minimum=1),
    _Key("include_traces", bool, run_comparison.__kwdefaults__["include_traces"]),
    _Key("solver", (
        _Key("epsilon", float),
        _Key("xi", float),
        _Key("max_iters", int, SolverConfig.max_iters),
        _Key("lambda_floor", float, SolverConfig.lambda_floor),
    )),
    _Key("n_windows", int, 1, minimum=1),
    _Key("modes", _List(_Choice("mode", _MODE_NAMES), nonempty=True), _MODE_NAMES),
    _Key("sampling", (
        _Key("mode", _Choice("mode", ("two-stage", "one-stage")), "two-stage"),
        _Key("n_intermediate", int, _EXPAND_DEFAULTS["n_intermediate"], minimum=2),
    ), {}),
    _Key("tasks", _List((
        _Key("id", str),
        _Key("train", _FILE),
        _Key("test", _FILE, None),
    )), None),
    _Key("synthetic", (
        _Key("modes", _List((
            _Key("natural_freq", float),
            _Key("damping", float),
            _Key("amplitude", float, ModalMode.amplitude),
        ), nonempty=True)),
        _Key("class_shift", _FLOATS),
        _Key("nuisance_band", _FLOATS),
        _Key("noise_sd", float),
        _Key("n_samples", int),
        _Key("n_test", int, SyntheticPopulationSpec.n_test),
        _Key("n_tasks", int, SyntheticPopulationSpec.n_tasks),
        _Key("n_features", int, SyntheticPopulationSpec.n_features),
        _Key("freq_range", _FLOATS, SyntheticPopulationSpec.freq_range),
        _Key("nuisance_modes", int, SyntheticPopulationSpec.nuisance_modes),
        _Key("nuisance_class_shift", float, SyntheticPopulationSpec.nuisance_class_shift),
        _Key("nuisance_damping", float, SyntheticPopulationSpec.nuisance_damping),
        _Key("nuisance_amplitude", float, SyntheticPopulationSpec.nuisance_amplitude),
        _Key("coherence", float, SyntheticPopulationSpec.coherence),
    ), None),
    _Key("spectra", _List((
        _Key("id", str),
        _Key("class0", _FILE),
        _Key("class1", _FILE),
        _Key("n_avg", int, SpectrumLine.n_avg, minimum=1),
        _Key("n_train_per_class", int, minimum=1),
        _Key("n_test_per_class", int, 0, minimum=0),
        _Key("normalize", bool, _EXPAND_DEFAULTS["normalize"]),
        _Key("freq_min", float, None),
        _Key("freq_max", float, None),
    )), None),
    _Key("grid", (
        _Key("epsilons", _FLOATS, GridSpec.epsilons),
        _Key("xis", _FLOATS, GridSpec.xis),
        _Key("window_counts", _List(int), GridSpec.window_counts),
        _Key("folds", int, GridSpec.folds),
        _Key("strategy", _Choice("strategy", _STRATEGIES), _STRATEGIES[0]),
        _Key("stage_windows", int, GridSpec.stage_windows),
        _Key("refine_epsilons", _FLOATS, GridSpec.refine_epsilons),
    ), None),
    _Key("transfer", (
        _Key("unseen", _FILE, None),
        _Key("extra_synthetic_task", bool, False),
    ), None),
)

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _walk(kind, value, where: str, base: Path):
    """Check one raw value against its kind; return it in echo form."""
    if isinstance(kind, tuple):
        return _walk_mapping(kind, value, where, base)
    if isinstance(kind, _List):
        _require(
            isinstance(value, (list, tuple)) and (value or not kind.nonempty),
            f"{where} must be a {'non-empty ' if kind.nonempty else ''}list",
        )
        return [_walk(kind.item, v, f"{where}[{i}]", base) for i, v in enumerate(value)]
    if isinstance(kind, _Choice):
        _require(value in kind.options, f"{where}: unknown {kind.noun} {value!r}")
        return value
    if kind is _FILE or kind is Path:
        _require(isinstance(value, (str, Path)) and str(value), f"{where} must be a path string")
        if kind is Path:
            return str(Path(value))
        p = base / value  # an absolute value replaces the base
        _require(p.is_file(), f"{where}: file not found: {p}")
        return str(p)
    # bool is a subclass of int; it is never accepted as a number
    ok = isinstance(value, (int, float) if kind is float else kind)
    _require(
        ok and (kind is bool or not isinstance(value, bool)),
        f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}",
    )
    return float(value) if kind is float else value


def _walk_mapping(keys, node, where: str, base: Path) -> dict:
    _require(isinstance(node, dict), f"{where or 'config'} must be a mapping")
    unknown = set(node) - {key.name for key in keys}
    _require(not unknown, f"{where or 'config'}: unknown keys {sorted(map(str, unknown))}")
    out = {}
    for key in keys:
        path = f"{where}.{key.name}" if where else key.name
        value = node.get(key.name)
        if value is None:
            _require(key.default is not _REQUIRED, f"{path} is required")
            value = key.default
        if value is not None:
            value = _walk(key.kind, value, path, base)
            if key.minimum is not None:
                _require(value >= key.minimum, f"{path} must be at least {key.minimum}")
        section = isinstance(key.kind, (tuple, _List))
        if not (section and key.default is None and not value):
            out[key.name] = value
    return out


def _make(where: str, cls, **kwargs):
    """Build a typed config object; its validation errors become ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(
    path,
    *,
    seed_override: int | None = None,
    out_override=None,
    threads_override: int | None = None,
) -> ExperimentConfig:
    """Load and validate a YAML run configuration.

    All referenced files must exist; the seed is mandatory (command-line
    overrides are applied before validation and appear in the echo).
    Values of the wrong type are rejected, never coerced, except that an
    integer is accepted where a number is expected.
    """
    cfg_path = Path(path)
    _require(cfg_path.is_file(), f"config file not found: {cfg_path}")
    try:
        raw = yaml.safe_load(cfg_path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{cfg_path}: invalid YAML: {exc}") from None
    _require(isinstance(raw, dict), "config must be a mapping")
    overrides = {"seed": seed_override, "output_dir": out_override, "threads": threads_override}
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    tree = _walk_mapping(_SCHEMA, raw, "", cfg_path.parent)

    seed = tree["seed"]
    _require(len(set(tree["modes"])) == len(tree["modes"]), "modes must not repeat")
    _require(
        not ("tasks" in tree and "synthetic" in tree),
        "give either file-backed tasks or a synthetic population, not both",
    )
    solver = _make("solver", SolverConfig, **tree["solver"])

    synthetic = None
    if "synthetic" in tree:
        node = tree["synthetic"]
        node["seed"] = seed
        modes = tuple(
            _make(f"synthetic.modes[{i}]", ModalMode, **m) for i, m in enumerate(node["modes"])
        )
        synthetic = _make("synthetic", SyntheticPopulationSpec, **{**node, "modes": modes})

    grid = None
    if "grid" in tree:
        node = tree["grid"]
        node["seed"] = seed
        grid = _make("grid", GridSpec, **{k: v for k, v in node.items() if k != "strategy"})
        _require(grid.pairs(), "grid: no (epsilon, xi) pairs satisfy epsilon > xi")

    transfer = None
    if "transfer" in tree:
        node = tree["transfer"]
        extra = node["extra_synthetic_task"]
        _require(
            (node["unseen"] is not None) != extra,
            "transfer: give exactly one of 'unseen' (a dataset file) or extra_synthetic_task: true",
        )
        _require(not (extra and synthetic is None), "transfer: extra_synthetic_task needs a synthetic population")
        transfer = TransferSource(node["unseen"] and Path(node["unseen"]), extra)

    return ExperimentConfig(
        seed=seed,
        output_dir=Path(tree["output_dir"]),
        solver=solver,
        n_windows=tree["n_windows"],
        modes=tuple(tree["modes"]),
        threads=tree["threads"],
        include_traces=tree["include_traces"],
        sampling_mode=tree["sampling"]["mode"],
        n_intermediate=tree["sampling"]["n_intermediate"],
        tasks=tuple(
            TaskFiles(t["id"], Path(t["train"]), t["test"] and Path(t["test"]))
            for t in tree.get("tasks", ())
        ),
        synthetic=synthetic,
        spectra=tuple(
            SpectrumSource(
                s["id"], Path(s["class0"]), Path(s["class1"]), s["n_avg"],
                s["n_train_per_class"], s["n_test_per_class"], s["normalize"],
                s["freq_min"], s["freq_max"],
            )
            for s in tree.get("spectra", ())
        ),
        grid=grid,
        grid_strategy=tree["grid"]["strategy"] if grid else _STRATEGIES[0],
        transfer=transfer,
        echo=tree,
    )


def _report_rows(report: EvaluationReport) -> list[dict]:
    return [
        {
            "window": r.window,
            "window_start": r.window_start,
            "window_stop": r.window_stop,
            "task": r.task_id,
            "mode": r.mode,
            "f1": r.f1,
            "gini": r.gini,
            "epsilon": r.epsilon,
            "xi": r.xi,
            "n_active": len(r.active),
        }
        for r in report.rows
    ]


def _weight_rows(report: EvaluationReport) -> list[dict]:
    return [
        {
            "freq_hz": a.freq,
            "weight": a.weight,
            "task": r.task_id,
            "mode": r.mode,
            "window": r.window,
        }
        for r in report.rows
        for a in r.active
    ]


def _trace_dict(trace) -> dict:
    return {
        "terminated_by": trace.terminated_by,
        "steps": [
            {
                "iteration": s.iteration,
                "kind": s.kind,
                "feature": s.feature,
                "task": s.task,
                "sign": s.sign,
                "empirical_loss_after": s.empirical_loss_after,
                "penalty_after": s.penalty_after,
                "total_loss_after": s.total_loss_after,
                "lambda_after": s.lambda_after,
            }
            for s in trace.steps
        ],
    }


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def emit_weight_plot_table(report: EvaluationReport, path) -> None:
    """Delimited table of the nonzero weights: freq_hz, weight, task, mode, window."""
    _write_csv(
        Path(path),
        ["freq_hz", "weight", "task", "mode", "window"],
        _weight_rows(report),
    )


def write_grid_table(table, path) -> None:
    columns = ["stage", "epsilon", "xi", "n_windows", "mean_f1", "mean_gini"]
    _write_csv(Path(path), columns, [{c: getattr(g, c) for c in columns} for g in table])


def write_transfer_table(rows: tuple[TransferRow, ...], path) -> None:
    _write_csv(
        Path(path),
        ["mode", "source_task", "window", "f1"],
        [
            {"mode": r.mode, "source_task": r.source_task, "window": r.window, "f1": r.f1}
            for r in rows
        ],
    )


def write_report_bundle(
    report: EvaluationReport,
    config_echo: dict,
    out_dir,
) -> dict[str, Path]:
    """Write report.json plus delimited tables; returns the written paths.

    The JSON bundle embeds the resolved config echo, so the bundle alone
    reproduces the run; it carries the solver traces when the report has
    any. Output is deterministic: no timestamps, fixed key order, shortest
    round-trip floats.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle: dict[str, Any] = {
        "config": config_echo,
        "summary": _report_rows(report),
        "active_weights": _weight_rows(report),
    }
    if report.traces:
        bundle["traces"] = {key: _trace_dict(trace) for key, trace in report.traces}

    paths = {"report": out / "report.json"}
    paths["report"].write_text(json.dumps(bundle, indent=2) + "\n")

    paths["summary"] = out / "summary.csv"
    _write_csv(
        paths["summary"],
        ["window", "window_start", "window_stop", "task", "mode", "f1", "gini",
         "epsilon", "xi", "n_active"],
        _report_rows(report),
    )
    paths["active_weights"] = out / "active_weights.csv"
    emit_weight_plot_table(report, paths["active_weights"])
    return paths


def load_report(path) -> dict:
    """Re-parse a report.json bundle."""
    return json.loads(Path(path).read_text())


def load_delimited_table(path) -> list[dict[str, str]]:
    """Re-parse any of the emitted CSV tables into a list of string dicts."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    columns = lines[0].split(",")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(columns):
            raise DatasetFormatError(
                f"{path}: inconsistent row width, line {lineno}"
            )
        out.append(dict(zip(columns, cells)))
    return out
