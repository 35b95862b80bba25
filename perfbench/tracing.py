"""Spans around the package's public functions, and the solver replay probe.

``Tracer.install`` replaces module attributes with timing wrappers, so calls
made through those names (``fit`` calls ``forward_step`` through the solver
module's globals, ``cli`` calls ``load_dataset`` through its own) are
recorded without any change to ``src/``. Spans stay in memory as
``[name, start, end, parent, info]`` and are written out by the caller.
A name the package no longer has is skipped and reported on stderr.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import numpy as np

from frfselect import cli, datagen, experiment, model, solver

LAYERS = ("solver", "model", "metrics", "datagen", "dataio", "experiment", "cli")


def _fit_key(args, kwargs):
    """(task contents, solver config): equal keys are the same fit."""
    tasks, config = args[0], args[1]
    digest = hashlib.sha1()
    for t in tasks:
        digest.update(np.ascontiguousarray(t.features).tobytes())
        digest.update(np.ascontiguousarray(t.labels).tobytes())
    return digest.hexdigest(), repr(config), repr(sorted(kwargs.items()))


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, attribute, span name, what to keep from the call)
_PATCHES = (
    (solver, "fit", "solver.fit", "fit"),
    (experiment, "fit", "solver.fit", "fit"),
    (solver, "forward_step", "solver.forward_step", None),
    (solver, "backward_step", "solver.backward_step", "accepted"),
    (solver, "empirical_loss_mtl", "model.empirical_loss_mtl", None),
    (experiment, "f1_score", "metrics.f1_score", None),
    (experiment, "gini_index", "metrics.gini_index", None),
    (experiment, "grid_search", "experiment.grid_search", None),
    (experiment, "run_comparison", "experiment.run_comparison", None),
    (experiment, "run_transfer", "experiment.run_transfer", None),
    (cli, "grid_search", "experiment.grid_search", None),
    (cli, "run_comparison", "experiment.run_comparison", None),
    (cli, "run_transfer", "experiment.run_transfer", None),
    (datagen, "synth_population", "datagen.synth_population", None),
    (cli, "synth_population", "datagen.synth_population", None),
    (cli, "spectrum_to_datasets", "datagen.spectrum_to_datasets", None),
    (datagen, "monte_carlo_expand", "datagen.monte_carlo_expand", "draws"),
    (cli, "load_spectrum", "datagen.load_spectrum", None),
    (cli, "load_dataset", "dataio.load_dataset", "read_bytes"),
    (cli, "save_dataset", "dataio.save_dataset", "written_bytes"),
    (cli, "load_config", "dataio.load_config", None),
    (cli, "write_report_bundle", "dataio.write_report_bundle", None),
    (cli, "write_grid_table", "dataio.write_grid_table", None),
    (cli, "write_transfer_table", "dataio.write_transfer_table", None),
    (cli, "main", "cli.main", "command"),
)


def _info(kind, args, kwargs, result, capture_fits):
    if kind == "fit":
        steps = result.trace.steps
        info = {
            "key": _fit_key(args, kwargs),
            "backward": sum(s.kind == "backward" for s in steps),
            "steps": len(steps),
            "terminated_by": result.trace.terminated_by,
        }
        if capture_fits:
            info["replay"] = (args[0], args[1], result)
        return info
    if kind == "accepted":
        return result is not None
    if kind == "draws":
        lines = len(tuple(args[0]))
        n_inter, n_out = args[1], args[2]
        two_stage = kwargs.get("two_stage", True)
        return lines * ((int(n_inter) if two_stage else 0) + int(n_out))
    if kind == "read_bytes":
        return _file_bytes(args[0])
    if kind == "written_bytes":
        return _file_bytes(args[1])
    if kind == "command":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        # keep each fit's inputs and result for the replay probe
        self.capture_fits = False

    def _wrap(self, fn, name, kind):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kind is not None:
                span[4] = _info(kind, args, kwargs, result, self.capture_fits)
            return result

        return wrapper

    def install(self):
        for module, attr, name, kind in _PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))
        if self.missing:
            print(f"trace: not found, not traced: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


# --------------------------------------------------------------------------
# Replay probe: rebuild iterates from recorded traces and time the step
# functions on them directly.

def _standardized(tasks, standardization):
    return tuple(
        model.TaskDataset(std.apply(t.features), t.labels, t.feature_freqs, t.task_id)
        for std, t in zip(standardization, tasks)
    )


def replay(fits, n_samples: int, rng_seed: int):
    """Time ``forward_step`` and ``backward_step`` at sampled iterations.

    ``fits`` holds ``(tasks, config, result)`` of recorded fits. Iterations
    are drawn uniformly over all their steps, so each fit is sampled in
    proportion to its length. At each sample the step functions must
    reproduce the recorded step; a sample where they do not is counted in
    ``mismatches``. ``elements`` counts the candidate logits of the timed
    ``forward_step`` calls.
    """
    lengths = [len(res.trace.steps) for _, _, res in fits]
    total = sum(lengths)
    out = {"forward_ms": [], "backward_ms": [], "elements": 0, "samples": 0, "mismatches": 0}
    if total == 0:
        return out
    rng = np.random.default_rng(rng_seed)
    picks = np.sort(rng.choice(total, size=min(n_samples, total), replace=False))
    bounds = np.cumsum(lengths)
    clock = time.perf_counter
    current = None
    for pick in picks:
        f = int(np.searchsorted(bounds, pick, side="right"))
        k = int(pick - (bounds[f - 1] if f else 0))  # 0-based index of the replayed step
        tasks, config, res = fits[f]
        steps = res.trace.steps
        if current != f:
            # picks are sorted: rebuild each fit's state once and move it forward
            current, done = f, 0
            std_tasks = _standardized(tasks, res.standardization)
            counts = np.zeros(res.weights.values.shape, dtype=np.int64)
            solver.forward_step(counts * config.epsilon, std_tasks, config)  # warm caches
        for s in steps[done:k]:
            counts[s.feature, s.task] += s.sign
        done = k
        W = counts * config.epsilon
        lam = steps[k - 1].lambda_after if k else None
        target = steps[k]
        got = None
        if lam is not None and counts.any():
            t0 = clock()
            got = solver.backward_step(W, std_tasks, config, lam)
            dt = clock() - t0
            out["backward_ms"].append(dt * 1e3)
        if got is None:
            t0 = clock()
            got = solver.forward_step(W, std_tasks, config)
            dt = clock() - t0
            out["forward_ms"].append(dt * 1e3)
            out["elements"] += sum(2 * t.n_samples * t.n_features for t in std_tasks)
            kind = "forward"
        else:
            kind = "backward"
        out["samples"] += 1
        if got is None or (kind, got.feature, got.task, got.sign) != (
            target.kind, target.feature, target.task, target.sign
        ):
            out["mismatches"] += 1
    return out
