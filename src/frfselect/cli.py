"""Command-line front end.

Each subcommand is one ``_COMMANDS`` entry: a handler, which takes the
resolved config and returns the exit code, and its help line.

Exit codes: 0 success, 1 bad usage or bad configuration, 2 a failure
while running (unreadable data files, degenerate inputs). Output files
carry no timestamps, so a rerun with the same config and seed is
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .datagen import load_spectrum, spectrum_to_datasets, synth_population
from .dataio import (
    ConfigError,
    ExperimentConfig,
    load_config,
    load_dataset,
    save_dataset,
    write_bundle,
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
from .model import _fmt

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

    parser = _Parser(prog="frfselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def _materialize(cfg: ExperimentConfig, *, unseen_file: bool = False):
    """Build (train_tasks, test_tasks, unseen_task) from the config sources.

    ``transfer.unseen`` is read only with ``unseen_file``; without it the
    unseen task is the held-out synthetic one, if any.
    """
    echo = cfg.echo
    train: list = []
    test: list = []
    unseen = None
    for t in echo.get("tasks", ()):
        train.append(load_dataset(t["train"], t["id"]))
        test.append(load_dataset(t["test"], t["id"]) if t["test"] else None)
    sampling = echo["sampling"]
    for i, src in enumerate(echo.get("spectra", ())):
        classes = [load_spectrum(src[name], src["n_avg"]) for name in ("class0", "class1")]
        try:
            tr, te = spectrum_to_datasets(
                *classes,
                n_train_per_class=src["n_train_per_class"],
                n_test_per_class=src["n_test_per_class"],
                seed=np.random.SeedSequence([echo["seed"], i]),
                task_id=src["id"],
                n_intermediate=sampling["n_intermediate"],
                two_stage=sampling["mode"] == "two-stage",
                normalize=src["normalize"],
                freq_min=src["freq_min"],
                freq_max=src["freq_max"],
            )
        except ValueError as exc:  # name the entry among several
            raise ValueError(f"spectra[{i}] ({src['id']!r}): {exc}") from None
        train.append(tr)
        test.append(te)
    transfer = echo.get("transfer")
    if cfg.synthetic is not None:
        spec = cfg.synthetic
        hold_out = transfer is not None and transfer["extra_synthetic_task"]
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
    ids = [t.task_id for t in train]
    for k, task_id in enumerate(ids):
        if not task_id or set(task_id) & set(",/\\\r\n"):
            raise ConfigError(f"task id {task_id!r} must be non-empty and free of ',', '/', "
                              "'\\' and line breaks: it names output files and table cells")
        if task_id in ids[:k]:
            raise ConfigError(
                f"task id {task_id!r} names more than one training task "
                "(tasks, spectra and synthetic ids must be distinct)"
            )
    if unseen_file and transfer is not None and transfer["unseen"] is not None:
        unseen = load_dataset(transfer["unseen"])
    return train, test, unseen


def _require_tests(test_tasks):
    if any(t is None for t in test_tasks):
        raise ConfigError("every task needs a test set for this command")
    return test_tasks


def _choices(cfg: ExperimentConfig, modes) -> list[ModelChoice]:
    return [ModelChoice(mode, cfg.solver, cfg.echo["n_windows"]) for mode in modes]


def _run_eval(cfg: ExperimentConfig, modes) -> int:
    train, test, _ = _materialize(cfg)
    report = run_comparison(
        train, _require_tests(test), _choices(cfg, modes),
        include_traces=cfg.echo["include_traces"],
    )
    paths = write_report_bundle(report, cfg.echo, cfg.echo["output_dir"])
    for r in report.rows:
        print(
            f"window={r.window} task={r.task_id} mode={r.mode} "
            f"f1={_fmt(r.f1)} gini={_fmt(r.gini)} active={len(r.active)}"
        )
    print(f"wrote {paths['report']}")
    return 0


def cmd_generate(cfg: ExperimentConfig) -> int:
    train, test, unseen = _materialize(cfg, unseen_file=True)
    out = Path(cfg.echo["output_dir"])
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
    manifest_path = write_bundle(out, "generate.json", cfg.echo, files=[p.name for p in written])
    for p in written:
        print(f"wrote {p}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_grid(cfg: ExperimentConfig) -> int:
    if cfg.grid is None:
        raise ConfigError("grid section is required for the grid command")
    train, _, _ = _materialize(cfg)
    out = Path(cfg.echo["output_dir"])
    results = {}
    for mode in cfg.echo["modes"]:
        try:
            result = grid_search(train, cfg.grid, mode, max_iters=cfg.solver.max_iters,
                                 lambda_floor=cfg.solver.lambda_floor)
        except ConfigError as exc:  # a grid setting that does not fit the data
            raise ConfigError(f"grid.{exc}") from None
        out.mkdir(parents=True, exist_ok=True)  # once the search has checked the settings
        table_path = out / f"grid_{mode}.csv"
        write_grid_table(result.table, table_path)
        best = result.best
        best_fields = {k: v for k, v in dataclasses.asdict(best).items() if k != "stage"}
        results[mode] = {"best": best_fields, "table_file": table_path.name}
        print(
            f"mode={mode} best: epsilon={_fmt(best.epsilon)} xi={_fmt(best.xi)} "
            f"windows={best.n_windows} mean_f1={_fmt(best.mean_f1)} "
            f"mean_gini={_fmt(best.mean_gini)}"
        )
    grid_path = write_bundle(out, "grid.json", cfg.echo, results=results)
    print(f"wrote {grid_path}")
    return 0


def cmd_transfer(cfg: ExperimentConfig) -> int:
    if "transfer" not in cfg.echo:
        raise ConfigError("transfer section is required for the transfer command")
    train, _, unseen = _materialize(cfg, unseen_file=True)  # load_config ensures an unseen task
    rows = run_transfer(train, unseen, _choices(cfg, cfg.echo["modes"]))
    json_path = write_bundle(
        cfg.echo["output_dir"], "transfer.json", cfg.echo,
        unseen_task=unseen.task_id, rows=[dataclasses.asdict(r) for r in rows],
    )
    write_transfer_table(rows, json_path.with_name("transfer.csv"))
    for r in rows:
        print(
            f"mode={r.mode} source={r.source_task} window={r.window} f1={_fmt(r.f1)}"
        )
    print(f"wrote {json_path}")
    return 0


# name -> (handler, help line), in help order
_COMMANDS = {
    "generate": (cmd_generate, "write the configured datasets to files"),
    "fit": (lambda cfg: _run_eval(cfg, cfg.echo["modes"]),
            "fit the configured modes and score them on test data"),
    "grid": (cmd_grid, "cross-validated (epsilon, xi, windows) search"),
    "compare": (lambda cfg: _run_eval(cfg, (MODE_INDEPENDENT, MODE_MTL)),
                "fit per-task and joint arms side by side"),
    "transfer": (cmd_transfer, "score fitted models on an unseen task"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
