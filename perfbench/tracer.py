"""Outside-in span tracing of the ``bfmix`` layers, from the benchmark's side.

``Tracer.install`` wraps every public function of each ``bfmix`` module
except the array kernels in ``LEAVES``, plus the private functions named
in ``PRIVATE``. It rebinds every name that refers to an original, so
calls made through imported names (``excitations.solve``,
``phases.sector_ground``, ``cli.solve``, ...) are recorded too. Library
code is not modified on disk.

Spans (name, start, end, parent, outcome, note) are kept in memory in
flat arrays and reduced to per-layer metrics once the traced pass ends.
A span's self time is its duration minus the durations of its child
spans. A function named here that no longer exists is reported as
missing, and every metric that depends on it is left out rather than
reported as zero.
"""
from __future__ import annotations

import functools
import importlib
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "algebra", "bae", "excitations", "thermo", "phases")

# Private functions that are layers of their own (named in the ROADMAP).
PRIVATE = {"bae": ("_newton",), "thermo": ("_nystroem", "_bisect_kf"),
           "cli": ("_write_rows",)}

# Array kernels called many times inside one traced call (residual,
# jacobian, ybe_residual, the dressed energies). A span costs about 2 us,
# more than some of these calls, so their time stays in the caller's
# self time.
LEAVES = frozenset({"bae.theta", "bae.theta_prime", "thermo.kernel",
                    "algebra.permutation_matrix", "algebra.r_matrix",
                    "algebra.embed_pair"})

# Imported names the tracer must rebind; a miss here loses calls silently.
REBOUND = ("bfmix.excitations.solve", "bfmix.phases.sector_ground",
           "bfmix.cli.solve")

# Outcome codes of a span. NonConvergence messages map to a reason.
OK, ERROR, NONCONVERGENCE = 0, 1, 2
REASONS = {"stalled": "line search stalled", "singular": "singular Jacobian",
           "runaway": "root escaped", "budget": "budget exhausted"}
_REASON_CODE = {reason: 3 + i for i, reason in enumerate(REASONS)}


# Span notes: an integer recorded per call from its arguments and result
# (None when the call raised), summed by the metrics below.
def _warm_start(args, kwargs, result) -> int:
    init = args[2] if len(args) > 2 else kwargs.get("init")
    return int(init is not None)


def _points(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _nodes(args, kwargs, result) -> int:
    return result.nodes if result is not None else 0


def _rows(args, kwargs, result) -> int:
    return len(args[2] if len(args) > 2 else kwargs["rows"])


NOTES = {"bae.solve": _warm_start, "excitations.dispersion": _points,
         "thermo.solve_ground_density": _nodes, "cli._write_rows": _rows}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self.span_name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.outcome = array("b")
        self.note = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' functions and rebind every alias in bfmix."""
        from bfmix.bae import NonConvergence
        self._nonconvergence = NonConvergence
        modules = {layer: importlib.import_module(f"bfmix.{layer}")
                   for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            names = [n for n, v in vars(mod).items()
                     if not n.startswith("_") and callable(v)
                     and getattr(v, "__module__", None) == mod.__name__
                     and not isinstance(v, type)]
            names = [n for n in names if f"{layer}.{n}" not in LEAVES]
            for attr in names + list(PRIVATE.get(layer, ())):
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        package = importlib.import_module("bfmix")
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])
        for dotted in REBOUND:
            mod_name, attr = dotted.rsplit(".", 1)
            value = getattr(importlib.import_module(mod_name), attr, None)
            if value is not None and not hasattr(value, "__wrapped__"):
                raise RuntimeError(f"{dotted} was not rebound")

    def _wrap(self, name: str, fn):
        nid = self.name_id[name] = len(self.names)
        self.names.append(name)
        self.wrapped.add(name)
        local, lock = self._local, self._lock
        span_name, t0, t1 = self.span_name, self.t0, self.t1
        parent, outcome, note = self.parent, self.outcome, self.note
        noter = NOTES.get(name)
        classify = self._classify

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [-1]
            with lock:
                i = len(t0)
                span_name.append(nid)
                parent.append(stack[-1])
                outcome.append(OK)
                note.append(0)
                t1.append(0.0)
                t0.append(0.0)
            stack.append(i)
            result = None
            t0[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                outcome[i] = classify(exc)
                raise
            finally:
                t1[i] = perf_counter()
                stack.pop()
                if noter is not None:
                    note[i] = noter(args, kwargs, result)

        return traced

    def _classify(self, exc: BaseException) -> int:
        if not isinstance(exc, self._nonconvergence):
            return ERROR
        text = str(exc)
        for reason, marker in REASONS.items():
            if marker in text:
                return _REASON_CODE[reason]
        return NONCONVERGENCE

    # -- reduction ----------------------------------------------------------

    def roots(self) -> list[int]:
        """Indices of the top-level ``cli.main`` spans, in call order."""
        nid = self.name_id.get("cli.main")
        return [i for i in range(len(self.t0))
                if self.parent[i] == -1 and self.span_name[i] == nid]

    def stats(self, root: int | None = None) -> "Stats":
        """Aggregate all spans, or only those under one top-level span."""
        n = len(self.t0)
        names, par = self.span_name, self.parent
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        top = list(range(n))
        for i in range(n):
            p = par[i]
            if p >= 0:
                child[p] += dur[i]
                top[i] = top[p]
        st = Stats(self.wrapped)
        for i in range(n):
            if root is not None and top[i] != root:
                continue
            p = par[i]
            key = (self.names[names[i]],
                   self.names[names[p]] if p >= 0 else None)
            st.add(key, dur[i], dur[i] - child[i], self.outcome[i],
                   self.note[i])
        return st


class Stats:
    """Span totals keyed by (function, calling traced function)."""

    def __init__(self, wrapped: set[str]) -> None:
        self.wrapped = wrapped
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.failed = Counter()
        self.failed_seconds = defaultdict(float)
        self.failed_notes = Counter()
        self.notes = Counter()
        self.reasons = Counter()

    def add(self, key, dur, self_dur, outcome, note) -> None:
        self.calls[key] += 1
        self.seconds[key] += dur
        self.self_seconds[key] += self_dur
        self.notes[key] += note
        if outcome != OK:
            self.failed[key] += 1
            self.failed_seconds[key] += dur
            self.failed_notes[key] += note
            self.reasons[key[0], outcome] += 1

    def total(self, table, name: str, caller: str | None = "*") -> float:
        return sum(v for (n, c), v in table.items()
                   if n == name and caller in ("*", c))

    def layer_self(self, layer: str) -> float:
        return sum(v for (n, _), v in self.self_seconds.items()
                   if n.split(".")[0] == layer)

    def reason(self, name: str, reason: str) -> int:
        return self.reasons[name, _REASON_CODE[reason]]


def _calls(name, caller="*"):
    return lambda s: s.total(s.calls, name, caller)


def _secs(name, caller="*"):
    return lambda s: s.total(s.seconds, name, caller)


def _failed(name, caller="*"):
    return lambda s: s.total(s.failed, name, caller)


def _notes(name):
    return lambda s: s.total(s.notes, name)


def _useful_ratio(s):
    calls = s.total(s.calls, "bae.solve")
    return (calls - s.total(s.failed, "bae.solve")) / max(calls, 1)


# (metric, unit, better, functions it needs, value from Stats)
METRICS = [
    ("bae.solve.calls", "count", "lower", ("bae.solve",),
     _calls("bae.solve")),
    ("bae.solve.failed", "count", "lower", ("bae.solve",),
     _failed("bae.solve")),
    ("bae.solve.failed_s", "s", "lower", ("bae.solve",),
     lambda s: s.total(s.failed_seconds, "bae.solve")),
    ("bae.solve.useful_ratio", "ratio", "higher", ("bae.solve",),
     _useful_ratio),
    *[(f"bae.solve.fail.{r}", "count", "lower", ("bae.solve",),
       (lambda r: lambda s: s.reason("bae.solve", r))(r)) for r in REASONS],
    ("bae.newton.runs", "count", "lower", ("bae._newton",),
     _calls("bae._newton")),
    ("bae.newton.steps", "count", "lower", ("bae.jacobian",),
     _calls("bae.jacobian")),
    ("bae.newton.halvings", "count", "lower",
     ("bae.residual", "bae._newton", "bae.jacobian"),
     lambda s: (s.total(s.calls, "bae.residual")
                - s.total(s.calls, "bae._newton")
                - s.total(s.calls, "bae.jacobian"))),
    ("bae.continuation.stages", "count", "lower", ("bae._newton", "bae.solve"),
     lambda s: s.total(s.calls, "bae._newton") - s.total(s.calls, "bae.solve")),
    ("bae.residual.calls", "count", "lower", ("bae.residual",),
     _calls("bae.residual")),
    ("bae.residual.s", "s", "lower", ("bae.residual",), _secs("bae.residual")),
    ("bae.jacobian.calls", "count", "lower", ("bae.jacobian",),
     _calls("bae.jacobian")),
    ("bae.jacobian.s", "s", "lower", ("bae.jacobian",), _secs("bae.jacobian")),
    ("excitations.sector_ground.calls", "count", "lower",
     ("excitations.sector_ground",), _calls("excitations.sector_ground")),
    ("excitations.sector_ground.s", "s", "lower",
     ("excitations.sector_ground",), _secs("excitations.sector_ground")),
    ("excitations.candidates", "count", "lower",
     ("excitations.sector_ground", "bae.solve"),
     _calls("bae.solve", "excitations.sector_ground")),
    ("excitations.candidates_failed", "count", "lower",
     ("excitations.sector_ground", "bae.solve"),
     _failed("bae.solve", "excitations.sector_ground")),
    ("excitations.dispersion.points", "count", "lower",
     ("excitations.dispersion",), _notes("excitations.dispersion")),
    ("excitations.dispersion.cold_retries", "count", "lower",
     ("excitations.dispersion", "bae.solve"),
     lambda s: s.total(s.failed_notes, "bae.solve", "excitations.dispersion")),
    ("phases.sector_energy_table.s", "s", "lower",
     ("phases.sector_energy_table",), _secs("phases.sector_energy_table")),
    ("phases.sectors", "count", "lower",
     ("phases.sector_energy_table", "excitations.sector_ground"),
     _calls("excitations.sector_ground", "phases.sector_energy_table")),
    ("phases.sectors_excluded", "count", "lower",
     ("phases.sector_energy_table", "excitations.sector_ground"),
     _failed("excitations.sector_ground", "phases.sector_energy_table")),
    ("phases.phase_scan.self_s", "s", "lower", ("phases.phase_scan",),
     lambda s: s.total(s.self_seconds, "phases.phase_scan")),
    ("thermo.solve_ground_density.s", "s", "lower",
     ("thermo.solve_ground_density",), _secs("thermo.solve_ground_density")),
    ("thermo.nystroem.probes", "count", "lower", ("thermo._nystroem",),
     _calls("thermo._nystroem")),
    ("thermo.nystroem.s", "s", "lower", ("thermo._nystroem",),
     _secs("thermo._nystroem")),
    ("thermo.kf_search.s", "s", "lower", ("thermo._bisect_kf",),
     _secs("thermo._bisect_kf")),
    ("thermo.nodes_final", "count", "lower", ("thermo.solve_ground_density",),
     _notes("thermo.solve_ground_density")),
    ("thermo.dressed.points", "count", "lower",
     ("thermo.hole_energy", "thermo.fermion_dressed_energy"),
     lambda s: (s.total(s.calls, "thermo.hole_energy")
                + s.total(s.calls, "thermo.fermion_dressed_energy"))),
    ("thermo.dressed.s", "s", "lower",
     ("thermo.hole_energy", "thermo.fermion_dressed_energy"),
     lambda s: (s.total(s.seconds, "thermo.hole_energy")
                + s.total(s.seconds, "thermo.fermion_dressed_energy"))),
    ("algebra.ybe_residual.calls", "count", "lower", ("algebra.ybe_residual",),
     _calls("algebra.ybe_residual")),
    ("algebra.ybe_residual.s", "s", "lower", ("algebra.ybe_residual",),
     _secs("algebra.ybe_residual")),
    ("cli.main.self_s", "s", "lower", ("cli.main",),
     lambda s: s.total(s.self_seconds, "cli.main")),
    ("cli.rows_written", "count", "lower", ("cli._write_rows",),
     _notes("cli._write_rows")),
    *[(f"{layer}.self_s", "s", "lower", (),
       (lambda layer: lambda s: s.layer_self(layer))(layer))
      for layer in LAYERS],
]


def layer_metrics(stats: Stats) -> dict[str, float]:
    """Every metric whose functions are all still present."""
    return {name: fn(stats) for name, _, _, needs, fn in METRICS
            if all(f in stats.wrapped for f in needs)}
