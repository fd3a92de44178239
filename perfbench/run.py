"""bfmix benchmark: CLI workloads timed end to end, layers traced apart.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sector-table --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run spawns a few set-up probes (a fresh interpreter that imports
``bfmix.cli``), then runs whole passes of the workload, each in a fresh
worker process, until another pass would overrun ``--seconds`` (at least
one pass). Every output is checked against ``reference/``. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced passes, each paired with an untraced pass so
the tracing overhead is measured. The last stdout line is one JSON
object: correct, attempted, failed, metrics.

The time of an invocation is its slowest repeat in the run. A shared
machine switches between idle and contended speeds, up to 1.8x apart,
and the share of each changes from minute to minute. The fully contended
speed is reached in almost every run and repeats from one period to the
next. Between sets of runs the fastest repeat, the median and the 90th
percentile each moved by up to a third, the slowest by at most 16 %.
Layer metrics are likewise the largest over the traced passes; their
counts repeat exactly. Set-up time is the median of its samples. Every
pass time is printed with the environment.

Needs only the standard library; the workers import numpy through bfmix.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from check import Tally, check_invocation
from tracer import METRICS as LAYER_METRICS
from workloads import EXTRA, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run, probes and passes, ends within this or fails

# (metric, unit): what a user of the CLI sees, measured with tracing off.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


class BenchError(RuntimeError):
    pass


def spawn(workdir: str, spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result.

    The worker is killed and waited for if it is still running at
    ``deadline`` (a ``time.monotonic`` value)."""
    fd, result_path = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    err_path = result_path[:-5] + ".err"
    spec = dict(spec, src=SRC, result=result_path)
    with open(err_path, "w") as err:
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              stdin=subprocess.DEVNULL, stdout=err,
                              stderr=err, cwd=workdir,
                              timeout=max(deadline - time.monotonic(), 0.0))
    if proc.returncode != 0:
        with open(err_path) as fh:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             + fh.read()[-2000:])
    with open(result_path) as fh:
        return json.load(fh)


def run_pass(workload: Workload, seed: int, workdir: str, trace: bool,
             deadline: float, reference: str = REFERENCE, env: bool = False
             ) -> tuple[dict, Tally]:
    """One pass in a fresh worker; returns its result and checked tally."""
    outdir = tempfile.mkdtemp(dir=workdir)
    argvs = [argv + ["--out", os.path.join(outdir, inv.out)]
             for argv, inv in zip(workload.argvs(seed), workload.invocations)]
    result = spawn(workdir, {"invocations": argvs, "trace": trace,
                             "env": env}, deadline)
    tally = Tally()
    for inv, argv, run in zip(workload.invocations, argvs,
                              result["invocations"]):
        ref = (os.path.join(reference, workload.name, inv.out + ".gz")
               if inv.check == "table" else None)
        tally.add(check_invocation(argv, inv.check, argv[-1], run["exit"],
                                   ref))
    shutil.rmtree(outdir)
    return result, tally


def _pass_wall(result: dict) -> float:
    return sum(run["wall_s"] for run in result["invocations"])


def _slowest(results: list[dict], key: str) -> float:
    """Sum over invocations of each invocation's slowest repeat."""
    return sum(max(runs) for runs in zip(
        *([run[key] for run in r["invocations"]] for r in results)))


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: str = REFERENCE) -> dict:
    """One benchmark run of a workload; returns the result object."""
    load_before = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        spawn(workdir, {"probe": True}, deadline)  # fills the bytecode cache
        setups = [spawn(workdir, {"probe": True}, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        untraced, traced, tally = [], [], Tally()
        start = time.monotonic()
        while True:
            began = time.monotonic()
            result, t = run_pass(workload, seed, workdir, False, deadline,
                                 reference, env=not untraced)
            untraced.append(result)
            tally.add(t)
            if trace:
                result, t = run_pass(workload, seed, workdir, True, deadline,
                                     reference)
                traced.append(result)
                tally.add(t)
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    median = statistics.median
    if trace:
        metrics = {name: {"value": max(r["layers"][name] for r in traced),
                          "unit": unit}
                   for name, unit, *_ in LAYER_METRICS
                   if name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {
            "value": _slowest(traced, "wall_s") - _slowest(untraced, "wall_s"),
            "unit": "s"}
    else:
        values = {
            "wall_s": _slowest(untraced, "wall_s"),
            "cpu_s": _slowest(untraced, "cpu_s"),
            "setup_s": median(setups + [r["setup_s"] for r in untraced]),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    env = dict(untraced[0]["env"], nproc=os.cpu_count(),
               loadavg_before=load_before, loadavg_after=os.getloadavg(),
               passes=len(untraced), setup_samples=len(setups) + len(untraced),
               pass_walls_s=[round(_pass_wall(r), 4) for r in untraced])
    return {"correct": tally.attempted > 0 and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "env": env,
            "per_invocation": traced[0]["per_invocation"] if traced else [],
            "missing": traced[0]["missing"] if traced else []}


def report(name: str, result: dict, argvs: list[list[str]]) -> None:
    """Human-readable lines: every metric with its unit, environment,
    and for traced runs the layer counters of each invocation."""
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"{name}  failed_frac = {frac:.6g} ratio ({result['failed']} of "
          f"{result['attempted']} operations)")
    print(f"{name}  env {json.dumps(result['env'], sort_keys=True)}")
    for argv, layers in zip(argvs, result["per_invocation"]):
        nonzero = {k: v for k, v in sorted(layers.items()) if v}
        print(f"{name}  trace [{' '.join(argv)}] {json.dumps(nonzero)}")
    if result["missing"]:
        print(f"{name}  missing layers: {', '.join(result['missing'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(EXTRA) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bfmix", "cli.py")):
        print(f"error: bfmix sources not found under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS.get(name) or EXTRA[name]
        try:
            results[name] = measure(workload, args.seed, args.seconds,
                                    bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name], workload.argvs(args.seed))
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in keys}
                          for name, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
