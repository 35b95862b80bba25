#!/usr/bin/env python3
"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py [--workload NAME ...]

Runs each workload's end-to-end operation once for each of the
``workloads.N_CASES`` cases and writes
perfbench/reference/<workload>.json.gz. Re-record only when the program's
output is meant to change; the benchmark exists to show that it did not.
"""

from __future__ import annotations

import run  # first: pins BLAS threads before numpy loads

import argparse
import shutil
import sys
import time

run._import_package()

import reference  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        cases = {}
        for case in range(workloads.N_CASES):
            workdir = run.OUT_DIR / f"record-{name}"
            try:
                t0 = time.perf_counter()
                inputs = wl.setup(case, workdir)
                summary = reference.normalized(wl.summarize(wl.op(inputs), inputs))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            cases[str(case)] = summary
            print(f"{name} case {case}: {time.perf_counter() - t0:.1f} s", flush=True)
        reference.save(name, cases)
        print(f"wrote {reference.path_for(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
