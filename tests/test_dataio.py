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
    emit_weight_plot_table,
    fit,
    load_config,
    load_dataset,
    load_delimited_table,
    load_report,
    save_dataset,
    write_report_bundle,
)
from frfselect import dataio
from frfselect.experiment import ActiveFeature, ReportRow


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
        assert cfg.seed == 7
        assert cfg.solver.epsilon == 0.2
        assert cfg.solver.max_iters == 2000
        assert cfg.n_windows == 1
        assert cfg.modes == ("independent", "mtl")
        assert cfg.threads == 1
        assert cfg.sampling_mode == "two-stage"
        assert cfg.n_intermediate == 10_000
        assert cfg.synthetic.seed == 7
        assert cfg.grid is None
        assert cfg.transfer is None

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
        assert cfg.seed == 99
        assert str(cfg.output_dir) == "elsewhere"
        assert cfg.threads == 4
        assert cfg.synthetic.seed == 99
        assert cfg.echo["seed"] == 99

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
        assert cfg.tasks[0].train == tmp_path / "a_train.csv"
        assert cfg.tasks[0].test is None

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
        assert cfg.grid_strategy == "staged"
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
        path = tmp_path / "weights.csv"
        emit_weight_plot_table(tiny_report(), path)
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

    def test_delimited_reader_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_delimited_table(path)

    def test_report_json_is_valid_json(self, tmp_path):
        paths = write_report_bundle(tiny_report(), {"seed": 1}, tmp_path)
        parsed = json.loads(paths["report"].read_text())
        assert parsed["summary"][1]["mode"] == "mtl"
