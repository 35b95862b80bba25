"""End-to-end acceptance checks, one per shipped guarantee.

Each test appends a PASS/FAIL line to RESULT_LINES; conftest prints the
collected lines after the run so the verdicts survive output capture.
"""

import time

import numpy as np

from frfselect import (
    GridSpec,
    ModalMode,
    ModelChoice,
    SolverConfig,
    SpectrumLine,
    SyntheticPopulationSpec,
    TaskDataset,
    coherence_std,
    f1_score,
    fit,
    gini_index,
    kfold_split,
    run_comparison,
    standardized_copy,
    synth_population,
    total_loss,
    transfer_evaluate,
    validate_trace,
    window_split,
)
from frfselect.cli import main
from frfselect.solver import TERMINATED_NO_IMPROVING_STEP

RESULT_LINES: list[str] = []


def _check(ok: bool, label: str) -> None:
    RESULT_LINES.append(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _noisy_problem(seed: int) -> TaskDataset:
    """Small non-separable logistic task with both classes present."""
    rng = np.random.default_rng(np.random.SeedSequence([991, seed]))
    m = int(rng.integers(2, 5))
    n = int(rng.integers(40, 81))
    features = rng.normal(size=(n, m))
    w_true = rng.uniform(-0.6, 0.6, size=m)
    probs = 1.0 / (1.0 + np.exp(-features @ w_true))
    labels = (rng.random(n) < probs).astype(int)
    while labels.min() == labels.max():
        labels = (rng.random(n) < probs).astype(int)
    freqs = np.arange(1.0, m + 1.0)
    return TaskDataset(features, labels, freqs, f"lattice{seed}")


def test_solver_total_loss_reaches_exhaustive_lattice_optimum():
    eps, xi = 0.2, 0.01
    cfg = SolverConfig(eps, xi, max_iters=300)
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        task = _noisy_problem(seed)
        res = fit([task], cfg)
        validate_trace(res, cfg)
        std_task = standardized_copy(task, res.standardization[0])
        solver_total = total_loss(res.weights, [std_task], res.lambda_final).total

        m = task.n_features
        ticks = np.arange(-5, 6) * eps
        grids = np.meshgrid(*([ticks] * m), indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
        p = 1.0 / (1.0 + np.exp(-(std_task.features @ candidates.T)))
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        y = std_task.labels[:, None]
        emp = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean(axis=0)
        totals = emp + res.lambda_final * np.abs(candidates).sum(axis=1)
        worst = max(worst, abs(solver_total - float(totals.min())))
    elapsed = time.perf_counter() - started
    _check(
        worst <= 2 * eps and elapsed < 60.0,
        "solver total loss within 2*epsilon of the exhaustive weight-lattice "
        f"optimum on 10 random problems (max gap {worst:.2e}, {elapsed:.1f}s)",
    )


def test_gini_index_reference_values_exact():
    uniform_ok = all(
        abs(gini_index(np.full(n, 0.7))) <= 1e-12 for n in (1, 3, 10, 97)
    )
    one_hot_10 = np.zeros(10)
    one_hot_10[4] = 2.5
    one_hot_3 = np.zeros(3)
    one_hot_3[0] = -1.0
    _check(
        uniform_ok
        and abs(gini_index(one_hot_10) - 0.9) <= 1e-12
        and abs(gini_index(one_hot_3) - 2.0 / 3.0) <= 1e-12,
        "sparsity index exact: uniform -> 0, one-hot(10) -> 0.9, "
        "one-hot(3) -> 2/3 (all within 1e-12)",
    )


def test_independent_learners_classify_separable_tasks_perfectly():
    started = time.perf_counter()
    pop = synth_population(
        SyntheticPopulationSpec(
            modes=(ModalMode(60.0, 0.03),),
            class_shift=(6.0,),
            nuisance_band=(130.0, 190.0),
            noise_sd=0.02,
            n_samples=60,
            seed=402,
            n_test=30,
            n_tasks=2,
            n_features=64,
            nuisance_modes=2,
            nuisance_class_shift=0.0,
        )
    )
    choice = ModelChoice("independent", SolverConfig(0.1, 0.001, max_iters=500), 1)
    report = run_comparison(pop.tasks, pop.test_tasks, [choice])
    scores = [row.f1 for row in report.rows]
    elapsed = time.perf_counter() - started
    _check(
        len(scores) == 2 and all(s == 1.0 for s in scores) and elapsed < 30.0,
        f"independent learners reach F1 = 1.0 on both separable tasks ({elapsed:.1f}s)",
    )


def test_joint_fit_shares_support_and_rejects_task_specific_features():
    # Two tasks, one shared discriminative mode, task-specific nuisance
    # modes; the lambda floor stops each fit while the penalty still
    # matters, which is where the row-coupled penalty differs from
    # per-task fitting.
    cfg = SolverConfig(0.2, 0.01, max_iters=400, lambda_floor=0.025)
    jaccard_wins = 0
    nuisance_wins = 0
    for seed in range(20):
        pop = synth_population(
            SyntheticPopulationSpec(
                modes=(ModalMode(60.0, 0.03),),
                class_shift=(5.0,),
                nuisance_band=(130.0, 190.0),
                noise_sd=0.35,
                n_samples=100,
                seed=seed,
                n_tasks=2,
                n_features=96,
                nuisance_modes=3,
                nuisance_class_shift=2.5,
                nuisance_damping=0.05,
            )
        )
        band = set(
            np.flatnonzero((pop.freqs >= 130.0) & (pop.freqs <= 190.0)).tolist()
        )

        ind_supports = []
        ind_nuisance = 0
        for task in pop.tasks:
            res = fit([task], cfg)
            validate_trace(res, cfg)
            support = set(np.flatnonzero(res.weights.column(0)).tolist())
            ind_supports.append(support)
            ind_nuisance += len(support & band)

        joint = fit(list(pop.tasks), cfg)
        validate_trace(joint, cfg)
        mtl_supports = [
            set(np.flatnonzero(joint.weights.column(col)).tolist())
            for col in range(2)
        ]
        mtl_nuisance = sum(len(s & band) for s in mtl_supports)

        if _jaccard(*mtl_supports) >= _jaccard(*ind_supports):
            jaccard_wins += 1
        if mtl_nuisance < ind_nuisance:
            nuisance_wins += 1
    _check(
        jaccard_wins >= 18 and nuisance_wins >= 16,
        "joint fit beats independent fits on support overlap "
        f"({jaccard_wins}/20 seeds, need 18) and activates strictly fewer "
        f"nuisance-band features ({nuisance_wins}/20 seeds, need 16)",
    )


def test_measurement_uncertainty_closed_form():
    sigma = coherence_std(SpectrumLine(100.0, 2.0, 0.8, 6))
    full = coherence_std(SpectrumLine(100.0, 2.0, 1.0, 6))
    _check(
        abs(sigma - 0.43301) < 1e-5 and full == 0.0,
        "magnitude std from coherence: (2.0, 0.8, 6) -> 0.43301 within 1e-5, "
        "unit coherence -> exactly 0",
    )


def test_pipeline_structure_dimensions():
    pairs = GridSpec().pairs()
    pairs_ok = len(pairs) == 10 and all(e > x for e, x in pairs)

    windows_ok = [stop - start for start, stop in window_split(588, 6)] == [98] * 6

    labels = np.tile([0, 1], 750)
    folds = kfold_split(1500, labels, 5, seed=77)
    folds_ok = all(
        len(f) == 300 and int(labels[f].sum()) == 150 for f in folds
    )
    _check(
        pairs_ok and windows_ok and folds_ok,
        "grid filter keeps exactly 10 (epsilon, xi) pairs; 588 features "
        "split into six 98-bin windows; stratified 5-fold of 1500 gives "
        "300-sample folds with 150 per class",
    )


def test_every_fit_trace_satisfies_its_invariants():
    eps = 0.2
    cfg_deep = SolverConfig(eps, 0.01, max_iters=120)
    cfg_floor = SolverConfig(eps, 0.01, max_iters=400, lambda_floor=0.05)
    pop = synth_population(
        SyntheticPopulationSpec(
            modes=(ModalMode(60.0, 0.03),),
            class_shift=(5.0,),
            nuisance_band=(130.0, 190.0),
            noise_sd=0.35,
            n_samples=80,
            seed=31,
            n_tasks=2,
            n_features=64,
            nuisance_modes=3,
            nuisance_class_shift=2.5,
        )
    )
    fits = [
        (fit([pop.tasks[0]], cfg_deep), cfg_deep),
        (fit(list(pop.tasks), cfg_deep), cfg_deep),
        (fit(list(pop.tasks), cfg_floor), cfg_floor),
    ]
    for res, cfg in fits:
        validate_trace(res, cfg)
        lams = [s.lambda_after for s in res.trace.steps]
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        ratio = res.weights.values / eps
        assert np.all(np.abs(ratio - np.round(ratio)) <= 1e-9)
        touched = {(s.feature, s.task) for s in res.trace.steps}
        for j in range(res.weights.n_features):
            for col in range(res.weights.n_tasks):
                if (j, col) not in touched:
                    assert res.weights.values[j, col] == 0.0
    _check(
        True,
        "every fit trace satisfies the invariants: lambda non-increasing, "
        "weights on the epsilon lattice, backward guard, untouched "
        "coordinates exactly zero",
    )


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
"""


def test_repeated_compare_runs_are_byte_identical(tmp_path):
    config = tmp_path / "run.yaml"
    out = tmp_path / "out"
    config.write_text(CONFIG.format(out=out))
    names = ("report.json", "summary.csv", "active_weights.csv")

    assert main(["compare", "--config", str(config)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert main(["compare", "--config", str(config)]) == 0
    second = {name: (out / name).read_bytes() for name in names}
    _check(
        first == second,
        "two `compare` runs with the same config and seed write "
        "byte-identical report files",
    )


def test_transfer_is_self_consistent_and_zero_weights_hit_closed_form():
    pop = synth_population(
        SyntheticPopulationSpec(
            modes=(ModalMode(60.0, 0.03),),
            class_shift=(5.0,),
            nuisance_band=(130.0, 190.0),
            noise_sd=0.2,
            n_samples=50,
            seed=88,
            n_test=25,
            n_tasks=2,
            n_features=48,
            nuisance_modes=2,
            nuisance_class_shift=1.5,
        )
    )
    cfg = SolverConfig(0.2, 0.01, max_iters=200)
    choices = [
        ModelChoice("independent", cfg, 1),
        ModelChoice("mtl", cfg, 1),
    ]
    report = run_comparison(pop.tasks, pop.test_tasks, choices)

    consistent = True
    joint = fit(list(pop.tasks), cfg)
    for col, (train, test) in enumerate(zip(pop.tasks, pop.test_tasks)):
        solo = fit([train], cfg)
        for mode, res, use_col in (("independent", solo, 0), ("mtl", joint, col)):
            replay = transfer_evaluate(
                res, use_col, standardized_copy(test, res.standardization[use_col])
            )
            reported = next(
                row.f1
                for row in report.rows
                if row.task_id == train.task_id and row.mode == mode
            )
            consistent = consistent and replay == reported

    # Constant features carry no signal, so the fit stays at exactly zero
    # and predicts 0.5 everywhere; with positive fraction p the all-ones
    # prediction scores F1 = 2p/(p+1).
    flat = TaskDataset(
        np.ones((40, 8)),
        np.tile([0, 1], 20),
        np.arange(1.0, 9.0),
        "flat",
    )
    zero_fit = fit([flat], SolverConfig(0.2, 0.01, max_iters=50))
    rng = np.random.default_rng(12)
    labels = np.zeros(800, dtype=int)
    labels[:300] = 1
    unseen = TaskDataset(
        rng.normal(size=(800, 8)), labels, np.arange(1.0, 9.0), "unseen"
    )
    p = 300 / 800
    zero_ok = (
        zero_fit.trace.terminated_by == TERMINATED_NO_IMPROVING_STEP
        and not zero_fit.weights.values.any()
        and transfer_evaluate(zero_fit, 0, unseen) == 2 * p / (p + 1)
    )
    _check(
        consistent and zero_ok,
        "transferring a task's own weights onto its own test set reproduces "
        "the reported F1 exactly, and an all-zero model scores F1 = 2p/(p+1)",
    )
