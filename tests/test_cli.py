import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from frfselect import (
    SpectrumLine,
    TaskDataset,
    load_dataset,
    save_dataset,
    write_spectrum,
)
from frfselect.cli import main
from tables import load_delimited_table

CONFIG = """
seed: 11
output_dir: {out}
solver:
  epsilon: 0.2
  xi: 0.01
  max_iters: 150
n_windows: 2
modes: [independent, mtl]
synthetic:
  modes:
    - {{natural_freq: 40.0, damping: 0.04}}
    - {{natural_freq: 90.0, damping: 0.03}}
  class_shift: [4.0, -5.0]
  nuisance_band: [130.0, 190.0]
  noise_sd: 0.02
  n_samples: 16
  n_test: 8
  n_tasks: 2
  n_features: 32
grid:
  epsilons: [0.5, 0.2]
  xis: [0.01]
  window_counts: [1, 2]
  folds: 2
  strategy: exhaustive
transfer:
  extra_synthetic_task: true
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    return path


class TestGenerate:
    def test_writes_loadable_datasets_and_manifest(self, config, tmp_path, capsys):
        assert main(["generate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "generate.json").read_text())
        assert manifest["config"]["seed"] == 11
        expected = {
            "task1_train.csv", "task1_test.csv",
            "task2_train.csv", "task2_test.csv",
            "task3_unseen.csv", "generate.json",
        }
        assert set(manifest["files"]) | {"generate.json"} == expected
        train = load_dataset(out / "task1_train.csv")
        assert train.features.shape == (32, 32)
        assert int(train.labels.sum()) == 16
        unseen = load_dataset(out / "task3_unseen.csv")
        assert unseen.features.shape == (32, 32)
        assert "wrote" in capsys.readouterr().out


class TestFitAndCompare:
    def test_fit_writes_report_bundle(self, config, tmp_path, capsys):
        assert main(["fit", "--config", str(config)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert len(report["summary"]) == 2 * 2 * 2  # windows x tasks x modes
        assert report["config"]["seed"] == 11
        assert (out / "summary.csv").is_file()
        assert (out / "active_weights.csv").is_file()
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("window=")) == 8

    def test_compare_always_runs_both_arms(self, config, tmp_path, capsys):
        text = config.read_text().replace("modes: [independent, mtl]", "modes: [mtl]")
        config.write_text(text)
        assert main(["compare", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        modes = {row["mode"] for row in report["summary"]}
        assert modes == {"independent", "mtl"}

    def test_compare_reruns_are_byte_identical(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["compare", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_seed_override_changes_the_data(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config)]) == 0
        first = (out / "report.json").read_bytes()
        assert main(["compare", "--config", str(config), "--seed", "12"]) == 0
        assert (out / "report.json").read_bytes() != first

    def test_out_override_wins(self, config, tmp_path):
        target = tmp_path / "elsewhere"
        assert main(["fit", "--config", str(config), "--out", str(target)]) == 0
        assert (target / "report.json").is_file()


class TestGrid:
    def test_writes_tables_and_best_lines(self, config, tmp_path, capsys):
        assert main(["grid", "--config", str(config)]) == 0
        out = tmp_path / "out"
        bundle = json.loads((out / "grid.json").read_text())
        assert set(bundle["results"]) == {"independent", "mtl"}
        for mode in ("independent", "mtl"):
            best = bundle["results"][mode]["best"]
            assert best["epsilon"] in (0.5, 0.2)
            rows = load_delimited_table(out / f"grid_{mode}.csv")
            assert len(rows) == 4  # 2 epsilons x 1 xi x 2 window counts
        printed = capsys.readouterr().out
        assert printed.count("best:") == 2

    def test_threads_flag_is_a_usage_error(self, config, tmp_path, capsys):
        # the grid runs serially; the config's threads key is only echoed
        out = tmp_path / "out"
        assert main(["grid", "--config", str(config), "--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: frfselect ")
        assert captured.err.endswith("error: unrecognized arguments: --threads 2\n")
        assert not out.exists()

    def test_grid_section_required(self, config, capsys):
        text = "\n".join(
            ln for ln in config.read_text().splitlines()
            if not ln.startswith(("grid:", "  epsilons", "  xis", "  window_counts",
                                  "  folds", "  strategy"))
        )
        config.write_text(text)
        assert main(["grid", "--config", str(config)]) == 1
        assert "grid section" in capsys.readouterr().err


class TestTransfer:
    def test_scores_models_on_the_held_out_task(self, config, tmp_path, capsys):
        assert main(["transfer", "--config", str(config)]) == 0
        out = tmp_path / "out"
        bundle = json.loads((out / "transfer.json").read_text())
        assert bundle["unseen_task"] == "task3"
        assert len(bundle["rows"]) == 2 * 2 * 2  # modes x windows x sources
        rows = load_delimited_table(out / "transfer.csv")
        assert {r["source_task"] for r in rows} == {"task1", "task2"}
        assert "wrote" in capsys.readouterr().out

    def test_unseen_dataset_file_variant(self, config, tmp_path):
        assert main(["generate", "--config", str(config)]) == 0
        unseen_src = tmp_path / "out" / "task3_unseen.csv"
        text = config.read_text().replace(
            "transfer:\n  extra_synthetic_task: true",
            f"transfer:\n  unseen: {unseen_src}",
        )
        cfg2 = tmp_path / "run2.yaml"
        cfg2.write_text(text)
        out2 = tmp_path / "out2"
        assert main(["transfer", "--config", str(cfg2), "--out", str(out2)]) == 0
        bundle = json.loads((out2 / "transfer.json").read_text())
        assert bundle["unseen_task"] == "task3_unseen"

    def test_transfer_section_required(self, config, capsys):
        text = config.read_text().replace(
            "transfer:\n  extra_synthetic_task: true", ""
        )
        config.write_text(text)
        assert main(["transfer", "--config", str(config)]) == 1
        assert "transfer section" in capsys.readouterr().err


SPECTRUM = "class0: s0.csv, class1: s1.csv, n_train_per_class: 4, n_test_per_class: 2}]\n"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["fit"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "none.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_solver_pairing_is_config_error(self, config, capsys):
        config.write_text(config.read_text().replace("epsilon: 0.2", "epsilon: 0.001"))
        assert main(["fit", "--config", str(config)]) == 1
        assert "exceed" in capsys.readouterr().err

    def test_malformed_data_file_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "broken.csv").write_text("label,10.0,20.0\n1,0.5,xx\n")
        (tmp_path / "ok.csv").write_text("label,10.0,20.0\n1,0.5,0.2\n0,0.1,0.4\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
seed: 2
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: broken.csv, test: ok.csv}
"""
        )
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_degenerate_labels_are_runtime_error(self, tmp_path, capsys):
        (tmp_path / "one_class.csv").write_text("label,10.0\n1,0.5\n1,0.6\n")
        (tmp_path / "ok.csv").write_text("label,10.0\n1,0.5\n0,0.1\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
seed: 2
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: one_class.csv, test: ok.csv}
"""
        )
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "single class" in capsys.readouterr().err

    def test_test_set_on_another_frequency_axis_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "train.csv").write_text("label,10.0,20.0\n1,0.5,0.2\n0,0.1,0.4\n")
        (tmp_path / "test.csv").write_text("label,1010.0,1020.0\n1,0.5,0.2\n0,0.1,0.4\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
seed: 2
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: train.csv, test: test.csv}
"""
        )
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "test set 'a': feature count or frequencies differ" in capsys.readouterr().err

    def test_fit_without_test_data_is_config_error(self, tmp_path, capsys):
        (tmp_path / "ok.csv").write_text("label,10.0\n1,0.5\n0,0.1\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
seed: 2
solver: {epsilon: 0.2, xi: 0.01}
tasks:
  - {id: a, train: ok.csv}
"""
        )
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "test set" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sources, task_id",
        [
            ("tasks: [{id: a, train: ok.csv, test: ok.csv}, {id: a, train: ok.csv}]", "a"),
            ("tasks: [{id: s, train: ok.csv, test: ok.csv}]\nspectra: [{id: s, " + SPECTRUM, "s"),
            # a spectrum named like a synthetic task
            ("spectra: [{id: task2, " + SPECTRUM + "synthetic: {modes: [{natural_freq: 15.0, "
             "damping: 0.05}], class_shift: [1.0], nuisance_band: [30.0, 40.0], noise_sd: 0.1, "
             "n_samples: 8, n_test: 4, n_tasks: 2, n_features: 2, freq_range: [10.0, 20.0]}",
             "task2"),
        ],
    )
    def test_repeated_task_id_is_config_error(self, tmp_path, capsys, sources, task_id):
        (tmp_path / "ok.csv").write_text("label,10.0,20.0\n1,0.5,0.2\n0,0.1,0.4\n")
        for name, h in (("s0.csv", 1.0), ("s1.csv", 2.0)):
            write_spectrum([SpectrumLine(f, h, 0.9) for f in (10.0, 20.0)], tmp_path / name)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 2\nsolver: {epsilon: 0.2, xi: 0.01}\nn_windows: 1\n" + sources)
        for command in ("fit", "generate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert f"error: task id {task_id!r} names more than one training task" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "source",
        [
            'tasks: [{id: "x/y", train: ok.csv, test: ok.csv}]',
            'tasks: [{id: "a,b", train: ok.csv, test: ok.csv}]',
            'tasks: [{id: "a\\\\b", train: ok.csv, test: ok.csv}]',
            'tasks: [{id: "a\\nb", train: ok.csv, test: ok.csv}]',
            # an empty tasks[] id falls back to the file name; a spectrum's cannot
            'spectra: [{id: "", ' + SPECTRUM,
        ],
    )
    def test_task_id_unfit_for_output_files_is_config_error(self, tmp_path, capsys, source):
        # ids name output files ('/' opens a directory) and CSV cells (',')
        (tmp_path / "ok.csv").write_text("label,10.0,20.0\n1,0.5,0.2\n0,0.1,0.4\n")
        for name, h in (("s0.csv", 1.0), ("s1.csv", 2.0)):
            write_spectrum([SpectrumLine(f, h, 0.9) for f in (10.0, 20.0)], tmp_path / name)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 2\nsolver: {epsilon: 0.2, xi: 0.01}\nn_windows: 1\n" + source)
        for command in ("generate", "fit"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert "must be non-empty and free of" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fit_and_compare_do_not_read_the_unseen_file(self, tmp_path, capsys):
        # only generate and transfer use transfer.unseen
        (tmp_path / "ok.csv").write_text("label,10.0,20.0\n1,0.5,0.2\n0,0.1,0.4\n")
        (tmp_path / "broken.csv").write_text("label,10.0,20.0\n1,0.5,xx\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            """
seed: 2
solver: {epsilon: 0.2, xi: 0.01}
n_windows: 1
tasks:
  - {id: a, train: ok.csv, test: ok.csv}
transfer: {unseen: broken.csv}
"""
        )
        for command in ("fit", "compare"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "non-numeric value, line 2, column 2" in capsys.readouterr().err


FILE_CONFIG = """
seed: 3
solver: {epsilon: 0.2, xi: 0.01, max_iters: 20}
tasks:
  - {id: a, train: a.csv, test: a.csv}
spectra:
  - {id: s, class0: s0.csv, class1: s1.csv, n_train_per_class: 4, n_test_per_class: 4,
     normalize: true}
"""


@pytest.fixture
def file_config(tmp_path):
    rng = np.random.default_rng(0)
    freqs = [10.0, 20.0, 30.0]
    save_dataset(
        TaskDataset(rng.normal(size=(6, 3)), np.array([0, 1] * 3), np.array(freqs), "a"),
        tmp_path / "a.csv",
    )
    for name, h in (("s0.csv", 1.0), ("s1.csv", 2.0)):
        write_spectrum([SpectrumLine(f, h, 0.9) for f in freqs], tmp_path / name)
    path = tmp_path / "files.yaml"
    path.write_text(FILE_CONFIG)
    return path


# nan, inf and out-of-range reals; each exits 1 at load time and names its key
# path, also when the check that fails is a constructor's
NUMBER_MISTAKES = [
    ("synthetic", "xi: 0.01", "xi: .nan", "solver.xi"),
    ("synthetic", "xi: 0.01", "xi: .inf", "solver.xi"),
    ("synthetic", "[130.0, 190.0]", "[130.0, .inf]", "synthetic.nuisance_band"),
    ("synthetic", "[130.0, 190.0]", "[.nan, 190.0]", "synthetic.nuisance_band"),
    ("synthetic", "[4.0, -5.0]", "[.nan, -5.0]", "synthetic.class_shift"),
    ("synthetic", "[4.0, -5.0]", "[4.0, -.inf]", "synthetic.class_shift"),
    ("synthetic", "n_features: 32", "n_features: 32\n  nuisance_amplitude: .nan",
     "synthetic.nuisance_amplitude"),
    ("files", "normalize: true", "normalize: true, freq_min: .nan", "spectra[0].freq_min"),
    ("files", "normalize: true", "normalize: true, freq_min: .inf", "spectra[0].freq_min"),
    ("synthetic", "epsilons: [0.5, 0.2]", "epsilons: [.nan, 0.2]", "grid.epsilons"),
    ("synthetic", "xis: [0.01]", "xis: [-0.01]", "grid.xis[0]"),
    ("synthetic", "xi: 0.01", "xi: -0.5", "solver.xi must be a finite number above 0, got -0.5"),
    ("synthetic", "damping: 0.04", "damping: 1.5",
     "synthetic.modes[0].damping must be a finite number above 0 and below 1, got 1.5"),
    pytest.param("synthetic", "epsilon: 0.2", "epsilon: " + "9" * 320,
                 "solver.epsilon must be a finite number, got inf", id="epsilon-320-digits"),
    ("synthetic", "[130.0, 190.0]", "[130.0]",
     "synthetic.nuisance_band must be a pair of numbers, got (130.0,)"),
    ("synthetic", "n_features: 32", "n_features: 32\n  freq_range: [5.0, 100.0, 200.0]",
     "synthetic.freq_range must be a pair of numbers, got (5.0, 100.0, 200.0)"),
    pytest.param("synthetic", "n_features: 32", "n_features: 50\n  freq_range: [5.0, 5.000000000000002]",
                 "synthetic: freq_range (5.0, 5.000000000000002) is too narrow for n_features=50",
                 id="freq-range-too-narrow"),
]


class TestConfigTypes:
    """A value of the wrong type is a config error, never coerced."""

    def test_file_config_is_valid(self, file_config, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--config", str(file_config), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "base, old, new, key",
        [
            ("synthetic", "n_windows: 2", "n_windows: two", "n_windows"),
            ("synthetic", "n_windows: 2", "n_windows: 2.7", "n_windows"),
            ("synthetic", "n_windows: 2", "n_windows: true", "n_windows"),
            ("synthetic", "max_iters: 150", 'max_iters: "20"', "solver.max_iters"),
            ("synthetic", "n_test: 8", "n_test: 5.9", "synthetic.n_test"),
            ("synthetic", "n_windows: 2", 'n_windows: 2\ninclude_traces: "no"', "include_traces"),
            ("files", "normalize: true", 'normalize: "false"', "spectra[0].normalize"),
            ("files", "id: a,", "id: 1,", "tasks[0].id"),
            ("synthetic", "epsilons: [0.5, 0.2]", "epsilons: 0.3", "grid.epsilons"),
            *NUMBER_MISTAKES,
        ],
    )
    def test_wrong_type_exits_1(self, request, tmp_path, base, old, new, key, capsys):
        path = request.getfixturevalue("config" if base == "synthetic" else "file_config")
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        command = "grid" if key.startswith("grid.") else "generate"
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("base, old, new, key", NUMBER_MISTAKES)
    def test_bad_number_is_one_error_line(self, request, tmp_path, base, old, new, key, capsys):
        path = request.getfixturevalue("config" if base == "synthetic" else "file_config")
        path.write_text(path.read_text().replace(old, new, 1))
        for command in ("fit", "grid"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]
            assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a: [unclosed", "expected ',' or ']', but got '<stream end>' "
             "(while parsing a flow sequence), line 1, column 13"),
            ("seed: 1\ndate: 2023-02-30\n", "day is out of range for month, line 2, column 7"),
            ("seed: 1\nsolver:\n  epsilon: " + "9" * 5000 + "\n",
             "Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 5000 digits, line 3, column 12"),
            ("seed: 1\n a: b: c\n", "mapping values are not allowed here, line 2, column 3"),
            ('seed: 1\na: "\x01"\n', "unacceptable character #x0001: "
             "special characters are not allowed, position 12"),
        ],
        ids=["unclosed", "bad-date", "5000-digits", "mapping", "control-char"],
    )
    def test_invalid_yaml_is_one_error_line(self, tmp_path, text, problem, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: invalid YAML: {problem}\n")
        assert not out.exists()

    def test_config_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"a: \xff\xfe\n")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: not UTF-8 text (invalid start byte at byte 3)\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ("output_dir:", "seed: 12\noutput_dir:", "'seed', line 3, column 1"),
            ("  xi: 0.01\n", "  xi: 0.01\n  xi: 0.02\n", "'xi', line 7, column 3"),
            ("n_windows:", "solver: {epsilon: 0.5, xi: 0.01}\nn_windows:",
             "'solver', line 8, column 1"),
        ],
        ids=["top-level", "nested", "section"],
    )
    def test_repeated_key_is_one_error_line(self, config, tmp_path, old, new, problem, capsys):
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {config}: invalid YAML: found duplicate key {problem}\n")
        assert not out.exists()

    def test_repeated_grid_entry_is_one_error_line(self, config, tmp_path, capsys):
        config.write_text(config.read_text().replace("epsilons: [0.5, 0.2]", "epsilons: [0.5, 0.5]"))
        out = tmp_path / "out"
        assert main(["grid", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: grid.epsilons[1] must be unique, got 0.5 again\n")
        assert not out.exists()


class TestDataDependentChecks:
    """Settings that do not fit the materialized data exit 1 before any fit."""

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("grid", "xis: [0.01]", "xis: [0.9]", "no (epsilon, xi) pairs"),
            ("fit", "n_windows: 2", "n_windows: 500", "n_windows: 500 exceeds the 32 feature lines"),
            ("transfer", "n_windows: 2", "n_windows: 500", "n_windows: 500 exceeds the 32 feature lines"),
            ("grid", "window_counts: [1, 2]", "window_counts: [1, 500]",
             "grid.window_counts: 500 exceeds the 32 feature lines"),
            ("grid", "strategy: exhaustive", "strategy: staged\n  stage_windows: 500",
             "grid.stage_windows: 500 exceeds the 32 feature lines"),
            ("grid", "folds: 2", "folds: 200", "grid.folds: 200 exceeds the 16 samples"),
            ("grid", "folds: 2", "folds: 17", "grid.folds: 17 exceeds the 16 samples"),
        ],
    )
    def test_exits_1(self, config, tmp_path, command, old, new, message, capsys):
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        assert main([command, "--config", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def unbalanced_grid_config(tmp_path, labels, folds):
        rng = np.random.default_rng(0)
        freqs = np.array([10.0, 20.0, 30.0])
        data = TaskDataset(rng.normal(size=(len(labels), 3)), np.array(labels), freqs, "a")
        save_dataset(data, tmp_path / "a.csv")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 2\nsolver: {epsilon: 0.2, xi: 0.01, max_iters: 20}\nn_windows: 1\n"
            "tasks: [{id: a, train: a.csv}]\n"
            f"grid: {{epsilons: [0.2], xis: [0.01], window_counts: [1], strategy: exhaustive, "
            f"folds: {folds}}}\n"
        )
        return cfg

    def test_folds_beyond_the_smaller_class_exit_1(self, tmp_path, capsys):
        # 6 and 3 samples: a fourth fold would validate on class 0 alone
        out = tmp_path / "out"
        cfg = self.unbalanced_grid_config(tmp_path, [0] * 6 + [1] * 3, folds=4)
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid.folds: 4 exceeds the 3 samples of the smaller class of task 'a'" in err
        assert not out.exists()
        cfg = self.unbalanced_grid_config(tmp_path, [0] * 6 + [1] * 3, folds=3)
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0

    def test_spectrum_band_upside_down_exits_1_at_load_time(self, file_config, tmp_path, capsys):
        text = file_config.read_text()
        file_config.write_text(text.replace("normalize: true", "freq_min: 25.0, freq_max: 15.0"))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(file_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: spectra[0]: freq_min 25.0 is above freq_max 15.0\n"
        assert not out.exists()

    def test_data_file_that_is_not_utf8_is_one_error_line(self, file_config, tmp_path, capsys):
        (tmp_path / "a.csv").write_bytes(b"label,10.0,20.0\n1,0.5,\xff\n")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(file_config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {tmp_path / 'a.csv'}: not UTF-8 text (invalid start byte at byte 22)\n")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("class1: s2.csv", "class spectra must share the same frequency lines"),
            ("class1: s1.csv, freq_min: 100.0",
             "no spectrum lines remain inside the analysed band"),
            ("class1: s3.csv", "spectrum line 1 (20.0 Hz, coherence 1e-300): "
                               "Monte-Carlo standard deviation is not finite"),
        ],
    )
    def test_spectrum_error_names_its_entry(self, file_config, tmp_path, bad, message, capsys):
        write_spectrum([SpectrumLine(f, 2.0, 0.9) for f in (10.0, 20.0, 40.0)],
                       tmp_path / "s2.csv")
        write_spectrum([SpectrumLine(f, 2.0, c) for f, c in ((10.0, 0.9), (20.0, 1e-300),
                                                             (30.0, 0.9))], tmp_path / "s3.csv")
        file_config.write_text(file_config.read_text() + (
            "  - {id: bad, class0: s0.csv, " + bad + ", n_train_per_class: 4}\n"))
        for command in ("fit", "generate"):
            out = tmp_path / command
            assert main([command, "--config", str(file_config), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: spectra[1] ('bad'): {message}\n")
            assert not out.exists()

    def test_single_class_task_stays_a_runtime_error(self, tmp_path, capsys):
        cfg = self.unbalanced_grid_config(tmp_path, [1] * 4, folds=2)
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "both classes" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self, config):
        proc = subprocess.run(
            [sys.executable, "-m", "frfselect", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "transfer" in proc.stdout

    @pytest.mark.skipif(shutil.which("frfselect") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["frfselect", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout
