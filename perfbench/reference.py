"""Recorded reference outputs and the comparison against them.

One gzip-compressed JSON file per workload maps each case number to the
summary that ``workloads.py`` produced when the reference was recorded
(``record.py``). Everything must match exactly, except values under a
``losses`` key, which may differ by at most ``LOSS_TOL`` so that a kernel
change that moves a loss by a few ulps still passes.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LOSS_TOL = 1e-12


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(path_for(workload), "rt") as fh:
        return json.load(fh)


def save(workload: str, cases: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    data = json.dumps(cases, sort_keys=True, separators=(",", ":")).encode()
    path_for(workload).write_bytes(gzip.compress(data, mtime=0))


def normalized(summary: dict) -> dict:
    """The summary as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(summary))


def differences(observed, expected, where: str = "", tol: float = 0.0, limit: int = 5) -> list[str]:
    """Up to ``limit`` descriptions of where ``observed`` departs from ``expected``."""
    out: list[str] = []
    _diff(observed, expected, where or "$", tol, out, limit)
    return out


def _diff(obs, exp, where, tol, out, limit):
    if len(out) >= limit:
        return
    if isinstance(exp, dict):
        if not isinstance(obs, dict) or set(obs) != set(exp):
            out.append(f"{where}: keys {sorted(obs) if isinstance(obs, dict) else type(obs).__name__}"
                       f" != {sorted(exp)}")
            return
        for key in sorted(exp):
            _diff(obs[key], exp[key], f"{where}.{key}", LOSS_TOL if key == "losses" else tol,
                  out, limit)
    elif isinstance(exp, list):
        if not isinstance(obs, list) or len(obs) != len(exp):
            n = len(obs) if isinstance(obs, list) else type(obs).__name__
            out.append(f"{where}: length {n} != {len(exp)}")
            return
        for i, (o, e) in enumerate(zip(obs, exp)):
            _diff(o, e, f"{where}[{i}]", tol, out, limit)
    elif tol and isinstance(exp, float) and isinstance(obs, float):
        if not abs(obs - exp) <= tol:
            out.append(f"{where}: {obs!r} differs from {exp!r} by more than {tol}")
    elif type(obs) is not type(exp) or obs != exp:
        out.append(f"{where}: {obs!r} != {exp!r}")
