#!/usr/bin/env python3
"""Benchmark of the frfselect package: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-path --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The seed picks the inputs (case ``seed % N_CASES``); the workload's
operation is repeated in a closed loop (one caller, each call starting when
the previous one returned) for ``--seconds`` seconds, and every result is
checked against the recorded reference. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, taken in a separate run that alternates untraced and
traced operations and ends with the solver replay probe. Metric meanings
are in perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every subprocess (they inherit this
# environment); set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# set-up is timed in SETUP_BATCHES batches, each repeating it until
# SETUP_BATCH_S seconds have passed
SETUP_BATCHES = 20
SETUP_BATCH_S = 0.2
PROBE_REF_S = 0.07
REPLAY_SAMPLES = 200


def _import_package():
    """Import frfselect from this checkout's src, never from elsewhere."""
    if not (SRC / "frfselect" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'frfselect'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import frfselect

    if Path(frfselect.__file__).resolve().parent != (SRC / "frfselect").resolve():
        raise SystemExit(f"error: imported frfselect from {frfselect.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cache_size": cpu.get("cache size"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


class SpeedProbe:
    """A fixed numpy kernel, independent of the package, timed before and
    after each operation and each set-up batch, outside the timed section.
    The host this runs on is shared and its speed drifts by tens of percent
    within seconds and over minutes; scaling by this probe takes most of
    that drift out of ``wall_ref_s`` and ``setup_s``. See ``_scaled``."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.X = rng.normal(size=(300, 98))
        self.y = (rng.random(300) < 0.5).astype(float)

    def __call__(self) -> float:
        import numpy as np
        from scipy.special import expit

        t0 = time.perf_counter()
        w = np.zeros(self.X.shape[1])
        for _ in range(150):
            p = expit((self.X @ w)[:, None] + 0.02 * self.X)
            np.clip(p, 1e-12, 1 - 1e-12, out=p)
            ll = self.y @ np.log(p) + (1 - self.y) @ np.log(1 - p)
            w[int(np.argmax(ll))] += 0.02
        return time.perf_counter() - t0


def _checked_ops(wl, run_op, inputs, seconds, min_ops=1, before_op=None):
    """Call ``run_op(i, inputs)`` until ``seconds`` have passed and at least
    ``min_ops`` calls were made; ``before_op()``, if given, runs before each
    call, outside its timing. Returns (walls, summaries); a summary is None
    when the operation raised."""
    walls, summaries = [], []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(walls)
        summary = None
        if before_op is not None:
            before_op()
        t0 = time.perf_counter()
        try:
            out = run_op(i, inputs)
            walls.append(time.perf_counter() - t0)
            summary = wl.summarize(out, inputs)
        except Exception:
            traceback.print_exc()
            if len(walls) == i:
                walls.append(time.perf_counter() - t0)
        summaries.append(summary)
        if len(walls) >= min_ops and time.perf_counter() >= deadline:
            return walls, summaries


def _count_failures(name, summaries, expected) -> int:
    import reference

    failed = 0
    for i, summary in enumerate(summaries):
        if summary is None:
            diffs = ["operation raised"]
        else:
            diffs = reference.differences(reference.normalized(summary), expected)
        if diffs:
            failed += 1
            print(f"check failed, {name} operation {i}: " + "; ".join(diffs), file=sys.stderr)
    return failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(times, probes):
    """Each time multiplied by PROBE_REF_S over the mean of the probe times
    just before and just after it (``probes`` has one more entry)."""
    return [t * PROBE_REF_S / statistics.fmean(probes[i:i + 2]) for i, t in enumerate(times)]


def _setup_batches(wl, case, workdir, probe):
    """Per-set-up time of each batch, the probe times around the batches,
    and the inputs of the last set-up."""
    times, probes = [], [probe()]
    for _ in range(SETUP_BATCHES):
        n = 0
        t0 = time.perf_counter()
        while True:
            inputs = wl.setup(case, workdir)
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_BATCH_S:
                break
        times.append(elapsed / n)
        probes.append(probe())
    return times, probes, inputs


def run_untraced(wl, case, seconds, workdir, expected):
    probe = SpeedProbe()
    probe_times = []

    def run_probe():
        probe_times.append(probe())

    setup_times, setup_probes, inputs = _setup_batches(wl, case, workdir, probe)
    walls, summaries = _checked_ops(wl, lambda i, x: wl.op(x), inputs, seconds,
                                    before_op=run_probe)
    run_probe()
    who = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    failed = _count_failures(wl.name, summaries, expected)
    print(f"operations: {len(walls)}, plain median {statistics.median(walls):.4f} s; each: "
          + " ".join(f"{w:.4f}" for w in walls))
    print("speed probes around them: " + " ".join(f"{t:.4f}" for t in probe_times))
    print(f"set-up batches: {len(setup_times)} of at least {SETUP_BATCH_S:g} s; time per "
          "set-up: " + " ".join(f"{t:.6f}" for t in setup_times))
    print("speed probes around them: " + " ".join(f"{t:.4f}" for t in setup_probes))
    metrics = {
        "wall_ref_s": _metric(statistics.median(_scaled(walls, probe_times)), "s"),
        "setup_s": _metric(statistics.median(_scaled(setup_times, setup_probes)), "s"),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
    }
    return len(summaries), failed, failed == 0, metrics, {}


def _import_seconds(reps: int = 3) -> float:
    """Interpreter start-up plus ``import frfselect.cli``, paid by every CLI command."""
    import workloads

    env = workloads.cli_env()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import frfselect.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(wl, case, seconds, workdir, expected):
    """Alternate untraced and traced operations, then replay sampled solver
    iterations. Per-layer figures are per traced operation."""
    import tracing
    from tracing import percentile

    tracer = tracing.Tracer()
    with tracer:
        inputs = wl.setup(case, workdir)
    setup_range = (0, len(tracer.spans))
    ranges = {}

    def alternate(i, inputs):
        if i % 2 == 0:
            return wl.op_inprocess(inputs)
        tracer.capture_fits = i == 1
        start = len(tracer.spans)
        try:
            with tracer:
                return wl.op_inprocess(inputs)
        finally:
            ranges[i] = (start, len(tracer.spans))

    walls, summaries = _checked_ops(wl, alternate, inputs, seconds, min_ops=2)
    attempted, failed = len(summaries), _count_failures(wl.name, summaries, expected)
    traced = sorted(ranges)
    n_ops = len(traced)
    spans = tracer.spans
    own = tracing.self_times(spans)

    dur, self_s, info = {}, {}, {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    root_s = 0.0
    for i in traced:
        a, b = ranges[i]
        for k in range(a, b):
            name, t0, t1, parent, extra = spans[k]
            dur.setdefault(name, []).append(t1 - t0)
            info.setdefault(name, []).append(extra)
            self_s[name] = self_s.get(name, 0.0) + own[k]
            layer_self[name.split(".")[0]] += own[k]
            if parent < 0:
                root_s += t1 - t0

    def total(name):
        return sum(dur.get(name, ()))

    def per_op(x):
        return x / n_ops

    fits = [x for x in info.get("solver.fit", ()) if x is not None]
    fit_ms = [d * 1e3 for d in dur.get("solver.fit", ())]
    steps = sum(f["steps"] for f in fits)
    backward = sum(f["backward"] for f in fits)
    accepted = info.get("solver.backward_step", [])
    repeats = 0
    for i in traced:
        a, b = ranges[i]
        seen = set()
        for k in range(a, b):
            if spans[k][0] == "solver.fit" and spans[k][4] is not None:
                key = spans[k][4]["key"]
                repeats += key in seen
                seen.add(key)

    # replay the fits of the first traced operation
    first = ranges[traced[0]]
    captured = [spans[k][4]["replay"] for k in range(*first)
                if spans[k][0] == "solver.fit" and spans[k][4] is not None]
    probe = tracing.replay(captured, REPLAY_SAMPLES, rng_seed=case)
    samples = probe["samples"]
    mismatches = probe["mismatches"]
    if mismatches:
        print(f"check failed, {wl.name} replay: {mismatches} of {samples}"
              " sampled iterations did not reproduce the recorded step", file=sys.stderr)

    def rate(name, extra_unit):
        amount = sum(x for x in info.get(name, ()) if x)
        t = total(name)
        return amount / extra_unit / t if t > 0 else 0.0

    commands = {}
    for d, command in zip(dur.get("cli.main", ()), info.get("cli.main", ())):
        commands[command] = commands.get(command, 0.0) + d
    setup_synth = sum(s[2] - s[1] for s in spans[setup_range[0]:setup_range[1]]
                      if s[0] == "datagen.synth_population")

    traced_walls = [walls[i] for i in traced]
    plain_walls = [w for i, w in enumerate(walls) if i not in ranges]
    trace_wall = statistics.median(traced_walls)
    plain_wall = statistics.median(plain_walls)
    fit_time = total("solver.fit")
    M = _metric
    metrics = {
        "steps_per_s": M(steps / fit_time if fit_time > 0 else 0.0, "1/s"),
        "fits_per_s": M(len(fit_ms) / sum(traced_walls), "1/s"),
        "fit_ms.p50": M(percentile(fit_ms, 50), "ms"),
        "fit_ms.p90": M(percentile(fit_ms, 90), "ms"),
        "failed_ratio": M(failed / attempted, "ratio"),
        "solver.replay.mismatches": M(mismatches, "count"),
        "solver.fit.calls": M(per_op(len(fit_ms)), "count"),
        "solver.fit.steps.forward": M(per_op(steps - backward), "count"),
        "solver.fit.steps.backward": M(per_op(backward), "count"),
        "solver.fit.terminated.max_iters": M(
            per_op(sum(f["terminated_by"] == "max_iters" for f in fits)), "count"),
        "solver.fit.ms_per_step": M(fit_time * 1e3 / steps if steps else 0.0, "ms"),
        "solver.forward_step.ms.p50": M(percentile(probe["forward_ms"], 50), "ms"),
        "solver.forward_step.ms.p90": M(percentile(probe["forward_ms"], 90), "ms"),
        "solver.backward_step.ms.p50": M(percentile(probe["backward_ms"], 50), "ms"),
        "solver.backward_step.accept_ratio": M(
            sum(accepted) / len(accepted) if accepted else 0.0, "ratio"),
        "solver.forward_step.melem_per_s": M(
            probe["elements"] / sum(probe["forward_ms"]) / 1e3 if probe["forward_ms"] else 0.0,
            "Melem/s"),
        # fit time outside its forward_step and backward_step calls, both
        # taken from the same traced fits
        "solver.step_overhead_ms": M(
            (fit_time - total("solver.forward_step") - total("solver.backward_step")) * 1e3
            / steps if steps else 0.0, "ms"),
        "model.empirical_loss_mtl.calls": M(
            per_op(len(dur.get("model.empirical_loss_mtl", ()))), "count"),
        "model.empirical_loss_mtl.ms.p50": M(
            percentile([d * 1e3 for d in dur.get("model.empirical_loss_mtl", ())], 50), "ms"),
        "experiment.grid_search.self_s": M(per_op(self_s.get("experiment.grid_search", 0.0)), "s"),
        "experiment.run_comparison.self_s": M(
            per_op(self_s.get("experiment.run_comparison", 0.0)), "s"),
        "experiment.run_transfer.self_s": M(
            per_op(self_s.get("experiment.run_transfer", 0.0)), "s"),
        "experiment.fit.repeat_ratio": M(repeats / len(fits) if fits else 0.0, "ratio"),
        "metrics.f1_score.self_s": M(per_op(self_s.get("metrics.f1_score", 0.0)), "s"),
        "metrics.gini_index.self_s": M(per_op(self_s.get("metrics.gini_index", 0.0)), "s"),
        "datagen.synth_population.s": M(
            per_op(total("datagen.synth_population")) + setup_synth, "s"),
        "datagen.spectrum_to_datasets.s": M(per_op(total("datagen.spectrum_to_datasets")), "s"),
        "datagen.monte_carlo_expand.mdraws_per_s": M(
            rate("datagen.monte_carlo_expand", 1e6), "Mdraw/s"),
        "dataio.save_dataset.s": M(per_op(total("dataio.save_dataset")), "s"),
        "dataio.save_dataset.mib_per_s": M(rate("dataio.save_dataset", 2**20), "MiB/s"),
        "dataio.load_dataset.s": M(per_op(total("dataio.load_dataset")), "s"),
        "dataio.load_dataset.mib_per_s": M(rate("dataio.load_dataset", 2**20), "MiB/s"),
        "dataio.load_config.s": M(per_op(total("dataio.load_config")), "s"),
        "dataio.write_report_bundle.s": M(per_op(total("dataio.write_report_bundle")), "s"),
        "cli.import_s": M(_import_seconds() if commands else 0.0, "s"),
    }
    for command in ("generate", "fit", "compare", "transfer"):
        metrics[f"cli.{command}.s"] = M(per_op(commands.get(command, 0.0)), "s")
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}.self_s"] = M(per_op(layer_self[layer]), "s")
    metrics["trace.unattributed_s"] = M(per_op(sum(traced_walls) - root_s), "s")
    metrics["trace.wall_s"] = M(trace_wall, "s")
    metrics["trace.untraced_wall_s"] = M(plain_wall, "s")
    metrics["trace.overhead_ratio"] = M((trace_wall - plain_wall) / plain_wall, "ratio")

    print(f"traced run: {n_ops} traced and {len(plain_walls)} untraced operations; "
          f"{len(fit_ms)} fits, {len(spans)} spans; replay: {samples} iterations "
          f"({len(probe['forward_ms'])} forward_step, {len(probe['backward_ms'])} backward_step "
          f"calls) over {len(captured)} fits")
    trace_record = {
        "units": [{"kind": "setup", "spans": list(setup_range)}]
        + [{"kind": "traced" if i in ranges else "untraced", "wall_s": w,
            "spans": list(ranges.get(i, ()))} for i, w in enumerate(walls)],
        "spans": [[s[0], s[1], s[2], s[3]] for s in spans],
    }
    return attempted, failed, failed == 0 and mismatches == 0, metrics, trace_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so that the speed probe
    # and the work it scales run on the same processor. This also means the
    # benchmark cannot show a gain from running work in parallel.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_package()
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    case = args.seed % workloads.N_CASES
    expected = reference.load(wl.name)[str(case)]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}, seed {args.seed} (case {case}), {args.seconds:g} s, "
          f"trace {args.trace}")

    workdir = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        attempted, failed, correct, metrics, trace_record = run(
            wl, case, args.seconds, workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace_record:
        OUT_DIR.mkdir(exist_ok=True)
        trace_record.update(env=env, workload=wl.name, seed=args.seed, case=case)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json.gz"
        path.write_bytes(gzip.compress(json.dumps(trace_record).encode(), compresslevel=1))
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
