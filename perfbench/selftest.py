#!/usr/bin/env python3
"""Show that the output check catches a perturbed reference.

    python3 perfbench/selftest.py

For each workload, case 0 of the recorded reference stands in for an
observed output. It must pass against the unchanged reference, and fail
against each perturbed copy below, through the same check run.py applies.
A loss moved by less than the 1e-12 tolerance must still pass. Exits 1 if
any expectation does not hold. Runs no workload, so it takes a second.
"""

from __future__ import annotations

import run  # first: pins BLAS threads before numpy loads

import copy
import sys

run._import_package()

import reference  # noqa: E402


def _flip_sign(code: str) -> str:
    return code[:-1] + ("-" if code.endswith("+") else "+")


def _flip_hex(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def _first_file(s):
    return next(iter(s["files"]))


# (workload, description, perturbation, whether the check must catch it)
PERTURBATIONS = (
    ("fit-path", "one step's sign flipped",
     lambda s: s["joint"]["steps"].__setitem__(7, _flip_sign(s["joint"]["steps"][7])), True),
    ("fit-path", "one step dropped", lambda s: s["independent"]["steps"].pop(), True),
    ("fit-path", "terminated_by changed",
     lambda s: s["joint"].__setitem__("terminated_by", "no_improving_step"), True),
    ("fit-path", "support entry count changed",
     lambda s: s["joint"]["support"][0].__setitem__(2, s["joint"]["support"][0][2] + 1), True),
    ("fit-path", "a loss moved by 1e-9",
     lambda s: s["independent"]["losses"][100].__setitem__(
         0, s["independent"]["losses"][100][0] + 1e-9), True),
    ("fit-path", "a loss moved by 1e-13 (within tolerance)",
     lambda s: s["independent"]["losses"][100].__setitem__(
         0, s["independent"]["losses"][100][0] + 1e-13), False),
    ("grid-cv", "a grid row's mean F1 moved by one ulp",
     lambda s: s["mtl"]["table"][0].__setitem__(4, s["mtl"]["table"][0][4] * (1 + 2**-52)), True),
    ("grid-cv", "a grid row's mean Gini changed",
     lambda s: s["independent"]["table"][1].__setitem__(5, 0.5), True),
    ("grid-cv", "best row's window count changed",
     lambda s: s["mtl"]["best"].__setitem__(3, s["mtl"]["best"][3] + 1), True),
    ("cli-pipeline", "one output file's bytes differ",
     lambda s: s["files"].__setitem__(_first_file(s), _flip_hex(s["files"][_first_file(s)])),
     True),
    ("cli-pipeline", "one output file missing",
     lambda s: s["files"].pop(_first_file(s)), True),
    ("cli-pipeline", "a command exited 2", lambda s: s["commands"][1].__setitem__(1, 2), True),
)


def main() -> int:
    misses = 0
    observed = {name: reference.load(name)["0"] for name in {p[0] for p in PERTURBATIONS}}
    for name, summary in observed.items():
        failed = run._count_failures(name, [summary], summary)
        ok = failed == 0
        misses += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {name} output matches its own reference")
    for name, what, perturb, must_catch in PERTURBATIONS:
        expected = copy.deepcopy(observed[name])
        perturb(expected)
        caught = run._count_failures(name, [observed[name]], expected) == 1
        ok = caught == must_catch
        misses += not ok
        verdict = "caught" if caught else "accepted"
        print(f"{'PASS' if ok else 'FAIL'}: {name}, {what}: {verdict}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
