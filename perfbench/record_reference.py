"""Regenerate the stored reference outputs from the current bfmix sources.

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced pass of each workload (default: every workload with a
table check) and stores its CSVs gzip-compressed under
``reference/<workload>/``. Only run it when an output change is intended.
"""
from __future__ import annotations

import gzip
import os
import shutil
import sys
import tempfile
import time

from run import REFERENCE, RUN_LIMIT_S, WORK, spawn
from workloads import EXTRA, WORKLOADS, Workload


def record(workload: Workload, reference: str = REFERENCE,
           seed: int = 0) -> None:
    """Write one pass's table outputs of ``workload`` under ``reference``."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        argvs = [argv + ["--out", os.path.join(workdir, inv.out)]
                 for argv, inv in zip(workload.argvs(seed),
                                      workload.invocations)]
        result = spawn(workdir, {"invocations": argvs},
                       time.monotonic() + RUN_LIMIT_S)
        target = os.path.join(reference, workload.name)
        os.makedirs(target, exist_ok=True)
        for inv, argv, run in zip(workload.invocations, argvs,
                                  result["invocations"]):
            if run["exit"] != 0:
                raise SystemExit(f"{' '.join(argv)} exited {run['exit']}")
            if inv.check != "table":
                continue
            with open(argv[-1], "rb") as src, gzip.GzipFile(
                    os.path.join(target, inv.out + ".gz"), "wb",
                    mtime=0) as dst:
                shutil.copyfileobj(src, dst)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    known = {**WORKLOADS, **EXTRA}
    for name in sys.argv[1:] or sorted(known):
        if any(inv.check == "table" for inv in known[name].invocations):
            record(known[name])
