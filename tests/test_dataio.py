import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import yaml

from frfselect import (
    ConfigError,
    DatasetFormatError,
    EvaluationReport,
    SolverConfig,
    TaskDataset,
    fit,
    load_config,
    load_dataset,
    save_dataset,
    write_report_bundle,
)
from frfselect import dataio
from frfselect.experiment import ActiveFeature, ReportRow
from tables import LINE_BREAKS_INSIDE_A_LINE, load_delimited_table, load_report


def sample_dataset():
    feats = np.array([[0.1, -2.5, 3.0], [1e-17, 123456.789, -0.0003]])
    return TaskDataset(
        feats, np.array([1, 0]), np.array([10.5, 20.25, 30.125]), "sample"
    )


class TestDatasetRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        data = sample_dataset()
        save_dataset(data, path)
        back = load_dataset(path, task_id="sample")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.feature_freqs, data.feature_freqs)
        assert back.task_id == "sample"

    def test_task_id_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "bridge_a.csv"
        save_dataset(sample_dataset(), path)
        assert load_dataset(path).task_id == "bridge_a"

    @given(
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_arbitrary_floats_survive(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("roundtrip")
        feats = np.array([values])
        freqs = np.arange(1.0, len(values) + 1.0)
        rows = np.vstack([feats, feats * 0.5])
        data = TaskDataset(rows, np.array([1, 0]), freqs, "t")
        path = tmp / "d.csv"
        save_dataset(data, path)
        assert np.array_equal(load_dataset(path).features, rows)


class TestDatasetErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_file_that_is_not_utf8_names_itself(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,10.0,20.0\n1,0.5,\xff\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte at byte 22)"

    def test_header_must_start_with_label(self, tmp_path):
        path = self.write(tmp_path, "lbl,10.0\n1,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_header_needs_feature_columns(self, tmp_path):
        path = self.write(tmp_path, "label\n1\n")
        with pytest.raises(DatasetFormatError, match="no feature columns"):
            load_dataset(path)

    def test_header_frequencies_must_be_numeric(self, tmp_path):
        path = self.write(tmp_path, "label,ten\n1,0.5\n")
        with pytest.raises(DatasetFormatError, match="not a frequency"):
            load_dataset(path)

    @pytest.mark.parametrize("name", ["nan", "inf", "-inf", "1e999"])
    def test_header_frequencies_must_be_finite(self, tmp_path, name):
        # nan compares false, so it would pass the strictly-increasing test
        path = self.write(tmp_path, f"label,10.0,{name},30.0\n1,0.5,0.5,0.5\n")
        with pytest.raises(
            DatasetFormatError,
            match=f"^{re.escape(str(path))}: malformed header, line 1: column 2 name '{name}' "
            "is not a frequency$",
        ):
            load_dataset(path)

    def test_header_frequencies_must_increase(self, tmp_path):
        path = self.write(tmp_path, "label,20.0,10.0\n1,0.5,0.5\n")
        with pytest.raises(DatasetFormatError, match="strictly increasing"):
            load_dataset(path)

    def test_row_width_error_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "label,10.0,20.0\n1,0.5,0.5\n0,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_non_numeric_label_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "label,10.0\nx,0.5\n")
        with pytest.raises(DatasetFormatError, match="label, line 2"):
            load_dataset(path)

    def test_non_binary_label_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "label,10.0\n1,0.5\n2,0.5\n")
        with pytest.raises(DatasetFormatError, match="non-binary label, line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("text, fault", [
        ("label,10.0\n\u0661,0.5\n", "non-numeric label, line 2"),
        ("label,10.0\n+1,0.5\n", "non-binary label, line 2"),
        ("label,10.0\n01,0.5\n", "non-binary label, line 2"),
        ("label,10.0\n1,1_0\n", "non-numeric value, line 2, column 1"),
        ("label,10.0\n1,\u0661.\u0665\n", "non-numeric value, line 2, column 1"),
        ("label,\u0661\n1,0.5\n", "malformed header, line 1: column 1 name '\u0661' is not a frequency"),
        ("label,1_0\n1,0.5\n", "malformed header, line 1: column 1 name '1_0' is not a frequency"),
    ])
    def test_numbers_take_the_format_syntax_only(self, tmp_path, text, fault):
        # int() and float() read other scripts' digits, a sign or leading
        # zero on a label and _ digit grouping
        path = self.write(tmp_path, text)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(f'{path}: {fault}')}$"):
            load_dataset(path)

    def test_labels_keep_their_whitespace_strip(self, tmp_path):
        path = self.write(tmp_path, "label,10.0\n 1 ,0.5\n0\t,-0.5\n")
        assert load_dataset(path).labels.tolist() == [1, 0]

    def test_non_numeric_value_names_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "label,10.0,20.0\n1,0.5,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2, column 2"):
            load_dataset(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "label,10.0\n1,inf\n")
        with pytest.raises(DatasetFormatError, match="non-finite"):
            load_dataset(path)

    def test_empty_and_header_only_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(path)
        path = self.write(tmp_path, "label,10.0\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(path)

    @pytest.mark.parametrize("char", LINE_BREAKS_INSIDE_A_LINE)
    def test_line_break_characters_stay_inside_their_cell(self, tmp_path, char):
        # str.splitlines would split line 2 here and report line 3's width
        path = self.write(tmp_path, f"label,1.0\n0,1{char}5\n1,2\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: non-numeric value, line 2, column 1$"):
            load_dataset(path)

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"label,10.0,20.0\r\n1,0.5,-1.5\r\n\r\n0,2.0,3e-3\r\n")
        data = load_dataset(path)
        assert data.labels.tolist() == [1, 0]
        assert data.features.tolist() == [[0.5, -1.5], [2.0, 3e-3]]
        assert data.feature_freqs.tolist() == [10.0, 20.0]

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # a bad cell on line 2 comes before a short row on line 3; blank lines count
        path = self.write(tmp_path, "label,10.0,20.0\n1,0.5,oops\n0,0.5\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: non-numeric value, line 2, column 2$"):
            load_dataset(path)
        path = self.write(tmp_path, "label,10.0\n\n \n1,0.5\nx,0.5\n0\n")
        with pytest.raises(DatasetFormatError, match=r"non-numeric label, line 5$"):
            load_dataset(path)

    def test_bad_header_without_rows_names_the_header(self, tmp_path):
        path = self.write(tmp_path, "lbl,10.0\n\n")
        with pytest.raises(DatasetFormatError, match=r"malformed header, line 1: first column"):
            load_dataset(path)


# bytes a mutation inserts or writes over: number syntax, the delimiter, line
# breaks, the whitespace float() and np.loadtxt strip differently, and bytes
# that break UTF-8
MUTATION_BYTES = b"0123456789.,+-eE_nai \t\n\r\x0b\x0c\x1c\x1f\x00\x80\xa0"


def _mutated(data: bytes, rng) -> bytes:
    """``data`` with 1-3 bytes replaced, inserted or deleted at random."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(out)))
        op = int(rng.integers(0, 3))
        byte = MUTATION_BYTES[int(rng.integers(0, len(MUTATION_BYTES)))]
        if op == 0:
            out[at] = byte
        elif op == 1:
            out.insert(at, byte)
        elif len(out) > 1:
            del out[at]
    return bytes(out)


def _outcome(path):
    """The loaded dataset's arrays, bit for bit, or the error raised."""
    try:
        data = load_dataset(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (data.features, data.labels, data.feature_freqs)) + (data.task_id,)


def test_bulk_parse_matches_row_parser_on_mutated_files(tmp_path, monkeypatch):
    """Byte-level mutations of a saved dataset load the same with and without
    the bulk parse: the same arrays bit for bit, or the same error message."""
    rng = np.random.default_rng(19)
    feats = rng.normal(size=(8, 5)) * 10.0 ** rng.integers(-20, 20, size=(8, 5))
    path = tmp_path / "d.csv"
    save_dataset(TaskDataset(feats, np.arange(8) % 2, np.arange(1.0, 6.0), "d"), path)
    original = path.read_bytes()
    real_bulk = dataio._parse_in_bulk
    taken = {True: 0, False: 0}

    def bulk(rows, width):
        body = real_bulk(rows, width)
        taken[body is not None] += 1
        return body

    for _ in range(1500):
        path.write_bytes(_mutated(original, rng))
        with monkeypatch.context() as m:
            m.setattr(dataio, "_parse_in_bulk", bulk)
            got = _outcome(path)
        with monkeypatch.context() as m:
            m.setattr(dataio, "_parse_in_bulk", lambda rows, width: None)
            want = _outcome(path)
        assert got == want, path.read_bytes()
    # both paths ran, on files that load and on files that fail
    assert taken[True] > 200 and taken[False] > 200


MINIMAL = """
seed: 7
solver:
  epsilon: 0.2
  xi: 0.01
synthetic:
  modes:
    - {natural_freq: 40.0, damping: 0.04}
  class_shift: [4.0]
  nuisance_band: [130.0, 190.0]
  noise_sd: 0.02
  n_samples: 10
"""


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return path

    def test_minimal_config_resolves_defaults(self, tmp_path):
        cfg = load_config(self.write(tmp_path, MINIMAL))
        assert cfg.echo["seed"] == 7
        assert cfg.solver.epsilon == 0.2
        assert cfg.solver.max_iters == 2000
        assert cfg.echo["n_windows"] == 1
        assert cfg.echo["modes"] == ["independent", "mtl"]
        assert cfg.echo["threads"] == 1
        assert cfg.echo["sampling"]["mode"] == "two-stage"
        assert cfg.echo["sampling"]["n_intermediate"] == 10_000
        assert cfg.synthetic.seed == 7
        assert cfg.grid is None
        assert "transfer" not in cfg.echo

    def test_echo_reproduces_resolved_values(self, tmp_path):
        cfg = load_config(self.write(tmp_path, MINIMAL))
        assert cfg.echo["seed"] == 7
        assert cfg.echo["solver"] == {
            "epsilon": 0.2, "xi": 0.01, "max_iters": 2000, "lambda_floor": 0.0,
        }
        assert cfg.echo["synthetic"]["n_samples"] == 10
        assert "tasks" not in cfg.echo

    def test_seed_is_mandatory(self, tmp_path):
        text = MINIMAL.replace("seed: 7\n", "")
        with pytest.raises(ConfigError, match="seed is required"):
            load_config(self.write(tmp_path, text))

    def test_seed_must_be_an_integer(self, tmp_path):
        text = MINIMAL.replace("seed: 7", "seed: true")
        with pytest.raises(ConfigError, match="integer"):
            load_config(self.write(tmp_path, text))

    def test_overrides_win(self, tmp_path):
        cfg = load_config(
            self.write(tmp_path, MINIMAL),
            seed_override=99,
            out_override="elsewhere",
            threads_override=4,
        )
        assert cfg.echo["seed"] == 99
        assert cfg.echo["output_dir"] == "elsewhere"
        assert cfg.echo["threads"] == 4
        assert cfg.synthetic.seed == 99
        assert cfg.echo["seed"] == 99

    def test_section_seeds_must_repeat_the_file_seed(self, tmp_path):
        # the echo repeats the seed in synthetic and grid; --seed overrides all three
        text = MINIMAL.replace("n_samples: 10", "n_samples: 10\n  seed: 7") + "grid: {seed: 7}\n"
        cfg = load_config(self.write(tmp_path, text), seed_override=99)
        assert (cfg.synthetic.seed, cfg.grid.seed, cfg.echo["seed"]) == (99, 99, 99)
        for section, wrong in (("synthetic", text.replace("  seed: 7", "  seed: 8")),
                               ("grid", text.replace("grid: {seed: 7}", "grid: {seed: 8}"))):
            with pytest.raises(ConfigError, match=rf"^{section}\.seed must equal the top-level "
                                                  "seed 7, got 8$"):
                load_config(self.write(tmp_path, wrong), seed_override=99)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(self.write(tmp_path, MINIMAL + "\nbogus: 1\n"))

    def test_unknown_solver_key_rejected(self, tmp_path):
        text = MINIMAL.replace("xi: 0.01", "xi: 0.01\n  momentum: 0.9")
        with pytest.raises(ConfigError, match="solver"):
            load_config(self.write(tmp_path, text))

    def test_solver_validation_becomes_config_error(self, tmp_path):
        text = MINIMAL.replace("epsilon: 0.2", "epsilon: 0.001")
        with pytest.raises(ConfigError, match="exceed"):
            load_config(self.write(tmp_path, text))

    def test_missing_file_and_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(self.write(tmp_path, "a: [unclosed"))
        # an int of 5,000 digits is more than Python converts from a string; the
        # error names its line, not Python's advice to raise the limit
        with pytest.raises(ConfigError, match="invalid YAML: Exceeds the limit") as err:
            load_config(self.write(tmp_path, "seed: " + "1" * 5000))
        assert "line 1, column 7" in str(err.value)
        assert "set_int_max_str_digits" not in str(err.value)
        with pytest.raises(ConfigError, match=r"value has 5000 digits, line 4, column 12$") as err:
            load_config(self.write(tmp_path, MINIMAL.replace("epsilon: 0.2", "epsilon: " + "9" * 5000)))
        assert "set_int_max_str_digits" not in str(err.value)
        with pytest.raises(ConfigError, match=r"day is out of range for month, line 2, column 7$"):
            load_config(self.write(tmp_path, "seed: 1\ndate: 2023-02-30\n"))

    def test_merge_key_is_overridden_by_own_keys(self, tmp_path):
        text = "seed: 1\nsolver:\n  <<: {epsilon: 0.2, xi: 0.01}\n  xi: 0.02\n"
        cfg = load_config(self.write(tmp_path, text))
        assert (cfg.solver.epsilon, cfg.solver.xi) == (0.2, 0.02)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown mode"):
            load_config(self.write(tmp_path, MINIMAL + "\nmodes: [magic]\n"))

    def test_task_files_must_exist(self, tmp_path):
        text = """
seed: 1
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: missing.csv}
"""
        with pytest.raises(ConfigError, match="missing.csv"):
            load_config(self.write(tmp_path, text))

    def test_file_tasks_resolve_relative_to_config(self, tmp_path):
        save_dataset(sample_dataset(), tmp_path / "a_train.csv")
        text = """
seed: 1
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: a_train.csv}
"""
        cfg = load_config(self.write(tmp_path, text))
        assert cfg.echo["tasks"][0]["train"] == str(tmp_path / "a_train.csv")
        assert cfg.echo["tasks"][0]["test"] is None

    def test_tasks_and_synthetic_are_exclusive(self, tmp_path):
        save_dataset(sample_dataset(), tmp_path / "a_train.csv")
        text = MINIMAL + """
tasks:
  - {id: a, train: a_train.csv}
"""
        with pytest.raises(ConfigError, match="not both"):
            load_config(self.write(tmp_path, text))

    def test_transfer_wants_exactly_one_source(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(self.write(tmp_path, MINIMAL + "\ntransfer: {}\n"))
        save_dataset(sample_dataset(), tmp_path / "u.csv")
        text = MINIMAL + """
transfer:
  unseen: u.csv
  extra_synthetic_task: true
"""
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(self.write(tmp_path, text))

    def test_grid_defaults_and_strategy(self, tmp_path):
        cfg = load_config(self.write(tmp_path, MINIMAL + "\ngrid: {}\n"))
        assert cfg.grid is not None
        assert cfg.grid.seed == 7
        assert cfg.grid.strategy == "staged"
        assert len(cfg.grid.pairs()) == 10
        with pytest.raises(ConfigError, match="strategy"):
            load_config(
                self.write(tmp_path, MINIMAL + "\ngrid: {strategy: random}\n")
            )


GOLDEN = Path(__file__).parent / "echo_golden"
REPO = Path(__file__).parent.parent

# Data files each golden config names; loading only checks that they exist.
GOLDEN_DATA_FILES = {
    "files.yaml": [
        "data/task1_train.csv", "data/task1_test.csv", "data/task2_train.csv",
        "spectra/class0.csv", "spectra/class1.csv", "data/task3_unseen.csv",
    ],
    "all_keys.yaml": ["healthy.csv", "damaged.csv"],
}


class TestEchoGolden:
    """The echo bytes of three configs, recorded before the schema table."""

    @staticmethod
    def echo_text(cfg_path):
        cfg = load_config(cfg_path)
        text = json.dumps(cfg.echo, indent=2) + "\n"
        return text.replace(str(cfg_path.parent), "{config_dir}")

    def test_demo_pipeline_config(self):
        text = self.echo_text(REPO / "demos" / "configs" / "pipeline.yaml")
        assert text == (GOLDEN / "pipeline.json").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_DATA_FILES))
    def test_file_backed_and_all_keys_configs(self, tmp_path, name):
        shutil.copy(GOLDEN / name, tmp_path / name)
        for rel in GOLDEN_DATA_FILES[name]:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("")
        text = self.echo_text(tmp_path / name)
        assert text == (GOLDEN / name.replace(".yaml", ".json")).read_text()

    @pytest.mark.parametrize("name", ["pipeline.yaml", *sorted(GOLDEN_DATA_FILES)])
    def test_echo_loads_back_as_the_same_config(self, tmp_path, name):
        src = REPO / "demos" / "configs" / name if name == "pipeline.yaml" else GOLDEN / name
        shutil.copy(src, tmp_path / name)
        for rel in GOLDEN_DATA_FILES.get(name, ()):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("")
        cfg = load_config(tmp_path / name)
        # another directory, so resolved paths must come back unchanged
        (tmp_path / "echo").mkdir()
        echo_path = tmp_path / "echo" / "echo.yaml"
        echo_path.write_text(yaml.safe_dump(cfg.echo, sort_keys=False))
        again = load_config(echo_path)
        assert json.dumps(again.echo, indent=2) == json.dumps(cfg.echo, indent=2)
        assert (again.solver, again.synthetic, again.grid) == (cfg.solver, cfg.synthetic, cfg.grid)



def schema_paths(keys, prefix=""):
    paths = set()
    for key in keys:
        kind = key.kind.item if isinstance(key.kind, dataio._List) else key.kind
        if isinstance(kind, tuple):
            paths |= schema_paths(kind, f"{prefix}{key.name}.")
        else:
            paths.add(prefix + key.name)
    return paths


def yaml_paths(node, prefix=""):
    paths = set()
    for name, value in node.items():
        maps = [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, dict)]
        if maps:
            for m in maps:
                paths |= yaml_paths(m, f"{prefix}{name}.")
        else:
            paths.add(prefix + name)
    return paths


def test_readme_config_reference_lists_every_key():
    blocks = re.findall(r"```yaml\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    assert yaml_paths(yaml.safe_load(blocks[0])) == schema_paths(dataio._SCHEMA)


def tiny_report():
    rows = (
        ReportRow(
            window=0, window_start=0, window_stop=2, task_id="a",
            mode="independent", f1=1.0, gini=0.5,
            active=(ActiveFeature(index=1, freq=20.0, weight=-0.4),),
            epsilon=0.2, xi=0.01,
        ),
        ReportRow(
            window=0, window_start=0, window_stop=2, task_id="a",
            mode="mtl", f1=0.75, gini=0.25, active=(),
            epsilon=0.2, xi=0.01,
        ),
    )
    return EvaluationReport(rows=rows)


class TestReportBundle:
    def test_files_written_and_parse_back(self, tmp_path):
        paths = write_report_bundle(tiny_report(), {"seed": 3}, tmp_path)
        assert set(paths) == {"report", "summary", "active_weights"}
        bundle = load_report(paths["report"])
        assert bundle["config"] == {"seed": 3}
        assert len(bundle["summary"]) == 2
        assert bundle["summary"][0]["f1"] == 1.0
        assert bundle["summary"][0]["n_active"] == 1
        assert bundle["active_weights"] == [
            {"freq_hz": 20.0, "weight": -0.4, "task": "a", "mode": "independent",
             "window": 0}
        ]
        assert "traces" not in bundle

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = write_report_bundle(tiny_report(), {"seed": 3}, tmp_path / "x")
        b = write_report_bundle(tiny_report(), {"seed": 3}, tmp_path / "y")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_summary_csv_columns(self, tmp_path):
        paths = write_report_bundle(tiny_report(), {}, tmp_path)
        rows = load_delimited_table(paths["summary"])
        assert list(rows[0]) == [
            "window", "window_start", "window_stop", "task", "mode",
            "f1", "gini", "epsilon", "xi", "n_active",
        ]
        assert rows[0]["f1"] == "1.0"
        assert rows[1]["mode"] == "mtl"

    def test_weight_table_lists_only_active_weights(self, tmp_path):
        path = write_report_bundle(tiny_report(), {}, tmp_path)["active_weights"]
        rows = load_delimited_table(path)
        assert len(rows) == 1
        assert rows[0] == {
            "freq_hz": "20.0", "weight": "-0.4", "task": "a",
            "mode": "independent", "window": "0",
        }

    def test_traces_written_when_present(self, tmp_path):
        task = TaskDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), np.array([5.0]), "a")
        trace = fit([task], SolverConfig(0.5, 0.01, max_iters=3)).trace
        report = EvaluationReport(rows=tiny_report().rows, traces=(("mtl/window0", trace),))
        bundle = load_report(write_report_bundle(report, {}, tmp_path)["report"])
        assert list(bundle["traces"]) == ["mtl/window0"]
        assert bundle["traces"]["mtl/window0"]["terminated_by"] == trace.terminated_by
        assert len(bundle["traces"]["mtl/window0"]["steps"]) == len(trace.steps) > 0

    @pytest.mark.parametrize("task_id", ["a,b", "x\ny", "x\rz"])
    def test_text_cell_that_would_break_a_row_is_refused(self, tmp_path, task_id):
        rows = tuple(dataclasses.replace(r, task_id=task_id) for r in tiny_report().rows)
        with pytest.raises(ValueError, match=re.escape(f"text cell {task_id!r}")):
            write_report_bundle(EvaluationReport(rows=rows), {}, tmp_path)
        assert list(tmp_path.iterdir()) == []  # not even report.json

    def test_delimited_reader_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_delimited_table(path)

    def test_report_json_is_valid_json(self, tmp_path):
        paths = write_report_bundle(tiny_report(), {"seed": 1}, tmp_path)
        parsed = json.loads(paths["report"].read_text())
        assert parsed["summary"][1]["mode"] == "mtl"
