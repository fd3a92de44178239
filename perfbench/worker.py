"""One benchmark pass in a fresh process: import bfmix, run the CLI calls.

Started by ``run.py`` with a JSON spec as its only argument. It calls
``bfmix.cli.main(argv)`` for each invocation in turn and writes a JSON
result: the time from the parent's spawn to the first ``main()`` call
(interpreter start and imports), and per invocation its exit code, wall
time and process CPU time (user + system, all threads). With ``trace``
the bfmix layers are wrapped first and per-layer metrics are added; with
``probe`` the process only imports and reports its set-up time.

Both processes read ``time.monotonic``, one system-wide clock on Linux,
so the parent's spawn time and this process's times are comparable.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _openblas() -> dict:
    """OpenBLAS build string and thread count, read from numpy's bundled
    library; empty when numpy links another BLAS."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    if not libs:
        return {}
    lib = ctypes.CDLL(libs[0])
    out = {}
    for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_",
                        "openblas_get_config64_",
                        "openblas_get_config"), ctypes.c_char_p)):
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                out[key] = value.decode() if isinstance(value, bytes) else value
                break
    return out


def environment() -> dict:
    """Interpreter, numpy/scipy, BLAS and thread settings of this process."""
    import platform
    from importlib import metadata
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **_openblas()},
        "thread_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BFMIX_THREADS")},
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from bfmix import cli
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result: dict = {"setup_s": time.monotonic() - spec["t_spawn"]}
    if not spec.get("probe"):
        runs = []
        for argv in spec["invocations"]:
            cpu0, t0 = _cpu(), time.monotonic()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is one failed invocation, not the end
                traceback.print_exc()
                code = 1
            t1, cpu1 = time.monotonic(), _cpu()
            runs.append({"exit": code, "wall_s": t1 - t0,
                         "cpu_s": cpu1 - cpu0})
        result["invocations"] = runs
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer.stats())
        result["per_invocation"] = [layer_metrics(tracer.stats(root))
                                    for root in tracer.roots()]
        result["missing"] = tracer.missing
    if spec.get("env"):
        result["env"] = environment()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
