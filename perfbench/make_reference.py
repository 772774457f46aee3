#!/usr/bin/env python3
"""Regenerate reference.json: every item's output values at the default seed.

    python3 perfbench/make_reference.py

Each item is run once and must pass its invariant checks first.  The
benchmark compares outputs at the default seed against this file, within
the tolerances the program states (tol_identity, tol_entropy).  Regenerate
it only for a change that is meant to alter the program's outputs.
"""

import json
import os
import sys
import tempfile

import run
import workloads as wl


def main():
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    run.RUNS_DIR.mkdir(exist_ok=True)
    reference = {}
    for name, workload in sorted(wl.WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=run.RUNS_DIR, prefix=f"{name}-") as workdir:
            wl.load_program(run.ROOT / "src")
            ctx = workload.prepare(workdir, wl.DEFAULT_SEED)
            values = {}
            for item in workload.items(wl.DEFAULT_SEED):
                output = workload.run(ctx, item)
                values[workload.key(item)], _ = workload.check(ctx, item, output)
            reference[name] = values
        print(f"{name}: {len(values)} items", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
