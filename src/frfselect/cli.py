"""Command-line front end.

Five subcommands cover the pipeline: ``generate`` materializes datasets
from a config, ``fit`` trains the configured modes and reports test
scores, ``grid`` runs the cross-validated hyperparameter search,
``compare`` always runs both the per-task and the joint arm side by
side, and ``transfer`` scores fitted models on a task they never saw.

Exit codes: 0 success, 1 bad usage or bad configuration, 2 a failure
while running (unreadable data files, degenerate inputs). Output files
carry no timestamps, so a rerun with the same config and seed is
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .datagen import (
    SpectrumFormatError,
    load_spectrum,
    spectrum_to_datasets,
    synth_population,
)
from .dataio import (
    ConfigError,
    DatasetFormatError,
    ExperimentConfig,
    _fmt,
    load_config,
    load_dataset,
    save_dataset,
    write_grid_table,
    write_report_bundle,
    write_transfer_table,
)
from .experiment import (
    MODE_INDEPENDENT,
    MODE_MTL,
    ModelChoice,
    grid_search,
    run_comparison,
    run_transfer,
)
from .solver import DegenerateLabelsError

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 (2 means runtime here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run configuration")
    common.add_argument("--out", default=None, help="output directory (overrides config)")
    common.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    common.add_argument(
        "--threads", type=int, default=None,
        help="worker threads for grid points (overrides config)",
    )

    parser = _Parser(prog="frfselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", parents=[common],
                       help="write the configured datasets to files")
    p.set_defaults(handler=cmd_generate)
    p = sub.add_parser("fit", parents=[common],
                       help="fit the configured modes and score them on test data")
    p.set_defaults(handler=cmd_fit)
    p = sub.add_parser("grid", parents=[common],
                       help="cross-validated (epsilon, xi, windows) search")
    p.set_defaults(handler=cmd_grid)
    p = sub.add_parser("compare", parents=[common],
                       help="fit per-task and joint arms side by side")
    p.set_defaults(handler=cmd_compare)
    p = sub.add_parser("transfer", parents=[common],
                       help="score fitted models on an unseen task")
    p.set_defaults(handler=cmd_transfer)
    return parser


def _materialize(cfg: ExperimentConfig):
    """Build (train_tasks, test_tasks, unseen_task) from the config sources."""
    train: list = []
    test: list = []
    unseen = None
    for files in cfg.tasks:
        train.append(load_dataset(files.train, files.task_id))
        test.append(load_dataset(files.test, files.task_id) if files.test else None)
    for i, src in enumerate(cfg.spectra):
        class0 = load_spectrum(src.class0, src.n_avg)
        class1 = load_spectrum(src.class1, src.n_avg)
        tr, te = spectrum_to_datasets(
            class0,
            class1,
            n_train_per_class=src.n_train_per_class,
            n_test_per_class=src.n_test_per_class,
            seed=np.random.SeedSequence([cfg.seed, i]),
            task_id=src.task_id,
            n_intermediate=cfg.n_intermediate,
            two_stage=cfg.sampling_mode == "two-stage",
            normalize=src.normalize,
            freq_min=src.freq_min,
            freq_max=src.freq_max,
        )
        train.append(tr)
        test.append(te)
    if cfg.synthetic is not None:
        spec = cfg.synthetic
        hold_out = cfg.transfer is not None and cfg.transfer.extra_synthetic_task
        if hold_out:
            spec = dataclasses.replace(spec, n_tasks=spec.n_tasks + 1)
        pop = synth_population(spec)
        pop_train = list(pop.tasks)
        pop_test = list(pop.test_tasks) if pop.test_tasks else [None] * len(pop.tasks)
        if hold_out:
            unseen = pop_train.pop()
            pop_test.pop()
        train.extend(pop_train)
        test.extend(pop_test)
    if not train:
        raise ConfigError("no data sources configured (tasks, spectra, or synthetic)")
    if cfg.transfer is not None and cfg.transfer.unseen is not None:
        unseen = load_dataset(cfg.transfer.unseen)
    return train, test, unseen


def _check_at_most(name: str, values, limit: int, what: str) -> None:
    for v in values:
        if v > limit:
            raise ConfigError(f"{name}: {v} exceeds the {limit} {what}")


def _require_tests(test_tasks):
    if any(t is None for t in test_tasks):
        raise ConfigError("every task needs a test set for this command")
    return test_tasks


def _choices(cfg: ExperimentConfig, modes, train) -> list[ModelChoice]:
    _check_at_most("n_windows", [cfg.n_windows], train[0].n_features, "feature lines")
    return [ModelChoice(mode, cfg.solver, cfg.n_windows) for mode in modes]


def _run_eval(cfg: ExperimentConfig, modes) -> int:
    train, test, _ = _materialize(cfg)
    report = run_comparison(
        train, _require_tests(test), _choices(cfg, modes, train),
        include_traces=cfg.include_traces,
    )
    paths = write_report_bundle(report, cfg.echo, cfg.output_dir)
    for r in report.rows:
        print(
            f"window={r.window} task={r.task_id} mode={r.mode} "
            f"f1={_fmt(r.f1)} gini={_fmt(r.gini)} active={len(r.active)}"
        )
    print(f"wrote {paths['report']}")
    return 0


def cmd_generate(cfg: ExperimentConfig, args) -> int:
    train, test, unseen = _materialize(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for tr, te in zip(train, test):
        path = out / f"{tr.task_id}_train.csv"
        save_dataset(tr, path)
        written.append(path)
        if te is not None:
            path = out / f"{te.task_id}_test.csv"
            save_dataset(te, path)
            written.append(path)
    if unseen is not None:
        path = out / f"{unseen.task_id}_unseen.csv"
        save_dataset(unseen, path)
        written.append(path)
    manifest = {"config": cfg.echo, "files": [p.name for p in written]}
    manifest_path = out / "generate.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    for p in written:
        print(f"wrote {p}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_fit(cfg: ExperimentConfig, args) -> int:
    return _run_eval(cfg, cfg.modes)


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    return _run_eval(cfg, (MODE_INDEPENDENT, MODE_MTL))


def cmd_grid(cfg: ExperimentConfig, args) -> int:
    if cfg.grid is None:
        raise ConfigError("grid section is required for the grid command")
    train, _, _ = _materialize(cfg)
    n_feat = train[0].n_features
    _check_at_most("grid.window_counts", cfg.grid.window_counts, n_feat, "feature lines")
    if cfg.grid_strategy == "staged":
        _check_at_most("grid.stage_windows", [cfg.grid.stage_windows], n_feat, "feature lines")
    # folds are dealt per class from fold 0, so folds beyond the larger class stay empty
    n_major = min(int(np.bincount(t.labels).max()) for t in train)
    _check_at_most("grid.folds", [cfg.grid.folds], n_major, "samples of a task's larger class")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle: dict = {"config": cfg.echo, "results": {}}
    for mode in cfg.modes:
        result = grid_search(
            train,
            cfg.grid,
            mode,
            max_iters=cfg.solver.max_iters,
            lambda_floor=cfg.solver.lambda_floor,
            strategy=cfg.grid_strategy,
            threads=cfg.threads,
        )
        table_path = out / f"grid_{mode}.csv"
        write_grid_table(result.table, table_path)
        best = result.best
        bundle["results"][mode] = {
            "best": {
                "epsilon": best.epsilon,
                "xi": best.xi,
                "n_windows": best.n_windows,
                "mean_f1": best.mean_f1,
                "mean_gini": best.mean_gini,
            },
            "table_file": table_path.name,
        }
        print(
            f"mode={mode} best: epsilon={_fmt(best.epsilon)} xi={_fmt(best.xi)} "
            f"windows={best.n_windows} mean_f1={_fmt(best.mean_f1)} "
            f"mean_gini={_fmt(best.mean_gini)}"
        )
    grid_path = out / "grid.json"
    grid_path.write_text(json.dumps(bundle, indent=2) + "\n")
    print(f"wrote {grid_path}")
    return 0


def cmd_transfer(cfg: ExperimentConfig, args) -> int:
    if cfg.transfer is None:
        raise ConfigError("transfer section is required for the transfer command")
    train, _, unseen = _materialize(cfg)
    if unseen is None:
        raise ConfigError("transfer: no unseen task available")
    rows = run_transfer(train, unseen, _choices(cfg, cfg.modes, train))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "transfer.csv"
    write_transfer_table(rows, table_path)
    bundle = {
        "config": cfg.echo,
        "unseen_task": unseen.task_id,
        "rows": [
            {"mode": r.mode, "source_task": r.source_task, "window": r.window, "f1": r.f1}
            for r in rows
        ],
    }
    json_path = out / "transfer.json"
    json_path.write_text(json.dumps(bundle, indent=2) + "\n")
    for r in rows:
        print(
            f"mode={r.mode} source={r.source_task} window={r.window} f1={_fmt(r.f1)}"
        )
    print(f"wrote {json_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            threads_override=args.threads,
        )
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        DatasetFormatError,
        SpectrumFormatError,
        DegenerateLabelsError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
