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
import math
import re
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .datagen import ModalMode, SpectrumLine, SyntheticPopulationSpec, spectrum_to_datasets
from .experiment import (
    GRID_STRATEGIES,
    MODE_INDEPENDENT,
    MODE_MTL,
    EvaluationReport,
    GridRow,
    GridSpec,
    TransferRow,
    grid_search,
    run_comparison,
)
from .model import (
    TaskDataset,
    _check_int,
    _check_real,
    _plain_number,
    _split_rows,
    _table_lines,
    _table_text,
    _write_table,
)
from .solver import SolverConfig

__all__ = [
    "DatasetFormatError",
    "ConfigError",
    "save_dataset",
    "load_dataset",
    "ExperimentConfig",
    "load_config",
    "write_report_bundle",
]


class DatasetFormatError(ValueError):
    """A dataset file deviates from the expected delimited layout."""


class ConfigError(ValueError):
    """A run configuration is structurally invalid or references missing files."""


def save_dataset(data: TaskDataset, path) -> None:
    """Write a dataset in the delimited text format (see load_dataset)."""
    rows = [[label, *row] for label, row in zip(data.labels.tolist(), data.features.tolist())]
    _write_table(path, ["label", *data.feature_freqs.tolist()], rows)


def load_dataset(path, task_id: str | None = None) -> TaskDataset:
    """Parse a delimited dataset file.

    Header row is ``label,<freq>,<freq>,...`` with strictly increasing
    frequency column names; labels must be the digits 0 or 1. Errors name
    the offending 1-based line.
    """
    path = Path(path)
    header, rows = _table_lines(path, DatasetFormatError)
    if header[0] != "label":
        raise DatasetFormatError(
            f"{path}: malformed header, line 1: first column must be 'label'"
        )
    if len(header) < 2:
        raise DatasetFormatError(f"{path}: malformed header, line 1: no feature columns")
    freqs = []
    for k, name in enumerate(header[1:], start=1):
        try:
            freqs.append(_check_real("frequency", _plain_number(name)))
        except ValueError:
            raise DatasetFormatError(
                f"{path}: malformed header, line 1: column {k} name {name!r} is not a frequency"
            ) from None
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise DatasetFormatError(
            f"{path}: malformed header, line 1: frequencies must be strictly increasing"
        )
    body = _parse_in_bulk(rows, len(header))
    if body is None:
        body = _parse_rows(path, _split_rows(path, header, rows, DatasetFormatError))
    labels, values = body
    return TaskDataset(values, labels, np.array(freqs), task_id or path.stem)


# The characters of the numbers save_dataset writes, and the delimiter: text
# of these alone parses the same in bulk and cell by cell.
_PLAIN_NUMBER_BYTES = b"0123456789.+-eE,"


def _parse_in_bulk(rows, width: int):
    """The labels and values of a dataset's ``(line number, text)`` rows in
    one ``np.loadtxt`` call; None for no rows, a label other than exactly 0
    or 1, a character outside plain numbers (the two parsers strip
    whitespace differently), a parse failure, a wrong width or a non-finite
    value. The row parser then runs and names the fault."""
    lines = [raw for _, raw in rows]
    if not lines or not all(raw.startswith(("0,", "1,")) for raw in lines):
        return None
    if "".join(lines).encode().translate(None, _PLAIN_NUMBER_BYTES):
        return None
    try:
        body = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if body.shape[1] != width or not np.isfinite(body).all():
        return None
    return body[:, 0].astype(np.int64), body[:, 1:]


def _parse_rows(path, table):
    """The labels and values of a dataset's split rows, parsed one cell at a
    time; raises a DatasetFormatError naming the first fault."""
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, cells in table:
        try:
            label = _plain_number(cells[0], int)
        except ValueError:
            raise DatasetFormatError(
                f"{path}: non-numeric label, line {lineno}"
            ) from None
        if cells[0].strip() not in ("0", "1"):
            raise DatasetFormatError(f"{path}: non-binary label, line {lineno}")
        values = []
        for k, cell in enumerate(cells[1:], start=1):
            try:
                v = _plain_number(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric value, line {lineno}, column {k}"
                ) from None
            if not math.isfinite(v):
                raise DatasetFormatError(
                    f"{path}: non-finite value, line {lineno}, column {k}"
                )
            values.append(v)
        labels.append(label)
        rows.append(values)
    return np.array(labels), np.array(rows)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run configuration. ``echo`` is the resolved config tree,
    which every report embeds and the CLI runs from; the sections the
    library takes as objects are also built once here."""

    echo: dict = field(repr=False)
    solver: SolverConfig
    synthetic: SyntheticPopulationSpec | None
    grid: GridSpec | None


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
_FLOATS = _List(float)
# Keys passed straight into a library call take that call's default.
_EXPAND_DEFAULTS = spectrum_to_datasets.__kwdefaults__
# The echo repeats the top-level seed in these sections; load_config accepts
# it there only when it equals the file's seed, so an echo loads back.
_ECHOED_SEED = _Key("seed", int, None)

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
        _ECHOED_SEED,
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
        # the CLI searches in stages, a bare GridSpec exhaustively
        _Key("strategy", _Choice("strategy", GRID_STRATEGIES), "staged"),
        _Key("stage_windows", int, GridSpec.stage_windows),
        _Key("refine_epsilons", _FLOATS, GridSpec.refine_epsilons),
        _ECHOED_SEED,
    ), None),
    _Key("transfer", (
        _Key("unseen", _FILE, None),
        _Key("extra_synthetic_task", bool, False),
    ), None),
)

_TYPE_NAMES = {bool: "true or false", str: "a string"}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _walk(kind, value, where: str, base: Path, minimum: int | None = None):
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
    if kind is int or kind is float:
        try:
            return _check_int(where, value, minimum) if kind is int else _check_real(where, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    _require(isinstance(value, kind), f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


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
            value = _walk(key.kind, value, path, base, key.minimum)
        section = isinstance(key.kind, (tuple, _List))
        if not (section and key.default is None and not value):
            out[key.name] = value
    return out


def _make(where: str, cls, **kwargs):
    """Build a typed config object; its validation errors become ConfigError.

    An error about one setting starts ``<field>[<i>] must be``, as the number
    rule words it, and is given the key path; an error relating settings is
    given the section as a prefix.
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        one = re.match(r"(\w+)(\[\d+\])* must be ", str(exc))
        sep = "." if one and one[1] in kwargs else ": "
        raise ConfigError(f"{where}{sep}{exc}") from None


class _Loader(yaml.SafeLoader):
    """``yaml.safe_load``, but a value its type cannot hold (an integer of more
    digits than ``int()`` takes, a date such as 2023-02-30) and a key repeated
    in one mapping are YAML errors at their line. A ``<<`` merge key is left
    as PyYAML treats it: the mapping's own keys override merged ones."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list: a YAML key may be unhashable
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except ValueError as exc:
            problem = str(exc).partition(";")[0]  # drop Python's advice to raise the limit
            raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from None


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """The problem of a YAML error, its context and its line and column, on
    one line; PyYAML's own text spans several, with snippets of the file."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:  # a reader error: a character YAML does not allow
        return f"unacceptable character #x{exc.character:04x}: {exc.reason}, position {exc.position}"
    context = f" ({exc.context})" if exc.context else ""
    return f"{exc.problem}{context}, line {mark.line + 1}, column {mark.column + 1}"


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
    integer is accepted where a number is expected; nan and ±inf are not
    numbers here.
    """
    cfg_path = Path(path)
    _require(cfg_path.is_file(), f"config file not found: {cfg_path}")
    try:
        raw = yaml.load(cfg_path.read_text(encoding="utf-8"), Loader=_Loader)
    except UnicodeDecodeError as exc:
        problem = f"{exc.reason} at byte {exc.start}"
        raise ConfigError(f"{cfg_path}: not UTF-8 text ({problem})") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{cfg_path}: invalid YAML: {_yaml_problem(exc)}") from None
    _require(isinstance(raw, dict), "config must be a mapping")
    file_seed = raw.get("seed")
    overrides = {"seed": seed_override, "output_dir": out_override, "threads": threads_override}
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    tree = _walk_mapping(_SCHEMA, raw, "", cfg_path.parent)

    _require(len(set(tree["modes"])) == len(tree["modes"]), "modes must not repeat")
    _require(
        not ("tasks" in tree and "synthetic" in tree),
        "give either file-backed tasks or a synthetic population, not both",
    )
    for i, node in enumerate(tree.get("spectra", ())):
        lo, hi = node["freq_min"], node["freq_max"]
        _require(lo is None or hi is None or lo <= hi,
                 f"spectra[{i}]: freq_min {lo} is above freq_max {hi}")
    for name in ("synthetic", "grid"):
        if name in tree:
            node = tree[name]
            _require(node["seed"] in (None, file_seed),
                     f"{name}.seed must equal the top-level seed {file_seed}, got {node['seed']}")
            node["seed"] = tree["seed"]
    solver = _make("solver", SolverConfig, **tree["solver"])

    synthetic = None
    if "synthetic" in tree:
        node = tree["synthetic"]
        modes = tuple(
            _make(f"synthetic.modes[{i}]", ModalMode, **m) for i, m in enumerate(node["modes"])
        )
        synthetic = _make("synthetic", SyntheticPopulationSpec, **{**node, "modes": modes})

    grid = None
    if "grid" in tree:
        grid = _make("grid", GridSpec, **tree["grid"])
        _require(grid.pairs(), "grid: no (epsilon, xi) pairs satisfy epsilon > xi")

    if "transfer" in tree:
        node = tree["transfer"]
        extra = node["extra_synthetic_task"]
        _require(
            (node["unseen"] is not None) != extra,
            "transfer: give exactly one of 'unseen' (a dataset file) or extra_synthetic_task: true",
        )
        _require(not (extra and synthetic is None), "transfer: extra_synthetic_task needs a synthetic population")
    return ExperimentConfig(tree, solver, synthetic, grid)


def write_bundle(out_dir, name: str, config_echo: dict, **sections) -> Path:
    """Write the JSON bundle ``out_dir/name`` and return its path.

    Every bundle has one layout: the config echo under ``config``, then the
    sections in the order given, 2-space indent and a trailing newline.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    text = json.dumps({"config": config_echo, **sections}, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def write_grid_table(table: tuple[GridRow, ...], path) -> None:
    _write_table(path, [f.name for f in fields(GridRow)], map(astuple, table))


def write_transfer_table(rows: tuple[TransferRow, ...], path) -> None:
    _write_table(path, [f.name for f in fields(TransferRow)], map(astuple, rows))


_SUMMARY_COLUMNS = (
    "window", "window_start", "window_stop", "task", "mode", "f1", "gini", "epsilon", "xi",
    "n_active",
)
_WEIGHT_COLUMNS = ("freq_hz", "weight", "task", "mode", "window")


def write_report_bundle(
    report: EvaluationReport,
    config_echo: dict,
    out_dir,
) -> dict[str, Path]:
    """Write report.json plus delimited tables; returns the written paths.

    The JSON bundle embeds the resolved config echo, so the bundle alone
    reproduces the run; it carries the solver traces when the report has
    any. ``summary.csv`` and ``active_weights.csv`` (the nonzero weights)
    hold the rows of the bundle's sections of the same names. Output is
    deterministic: no timestamps, fixed key order, shortest round-trip
    floats. A text cell the tables refuse is a ValueError raised before any
    file is written.
    """
    tables = {
        "summary": (_SUMMARY_COLUMNS, [
            (r.window, r.window_start, r.window_stop, r.task_id, r.mode, r.f1, r.gini,
             r.epsilon, r.xi, len(r.active))
            for r in report.rows
        ]),
        "active_weights": (_WEIGHT_COLUMNS, [
            (a.freq, a.weight, r.task_id, r.mode, r.window) for r in report.rows for a in r.active
        ]),
    }
    sections = {name: [dict(zip(cols, row)) for row in rows] for name, (cols, rows) in tables.items()}
    if report.traces:
        sections["traces"] = {
            key: {"terminated_by": t.terminated_by, "steps": [asdict(s) for s in t.steps]}
            for key, t in report.traces
        }
    texts = {name: _table_text(cols, rows) for name, (cols, rows) in tables.items()}
    paths = {"report": write_bundle(out_dir, "report.json", config_echo, **sections)}
    for name, text in texts.items():
        paths[name] = paths["report"].with_name(f"{name}.csv")
        paths[name].write_text(text, encoding="utf-8")
    return paths
