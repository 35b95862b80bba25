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
    load_delimited_table,
    save_dataset,
    write_spectrum,
)
from frfselect.cli import main

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

    def test_threads_flag_keeps_results(self, config, tmp_path):
        # the echoed config records the thread count, so compare results only
        out = tmp_path / "out"
        assert main(["grid", "--config", str(config)]) == 0
        single = json.loads((out / "grid.json").read_text())["results"]
        tables = {m: (out / f"grid_{m}.csv").read_bytes() for m in single}
        assert main(["grid", "--config", str(config), "--threads", "4"]) == 0
        threaded = json.loads((out / "grid.json").read_text())["results"]
        assert threaded == single
        for m, blob in tables.items():
            assert (out / f"grid_{m}.csv").read_bytes() == blob

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
        assert key in capsys.readouterr().err


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
    def test_exits_1(self, config, command, old, new, message, capsys):
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        assert main([command, "--config", str(config)]) == 1
        assert message in capsys.readouterr().err


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
