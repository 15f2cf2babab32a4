"""In-memory span tracer for the tauber benchmark.

`Tracer.install()` replaces each layer's public functions with timing
wrappers at every name their callers bind: a function imported with
`from .convergence import laplace_convergence_test` is rebound in
`tauber.scenarios`, `tauber.tauberian` and `tauber.convergence` alike,
and methods are replaced on their class.  Nothing in the library changes.

Every wrapped call updates per-name aggregates (calls, total time, self
time = span minus the time its child spans cover).  Calls at a layer
boundary are also kept as spans (operation id, parent, name, start, end)
and written out by `write_spans` when the benchmark ends.  The hottest
calls, listed in `AGGREGATE_ONLY`, are only aggregated: an operation
makes thousands to tens of thousands of them, and storing each would
cost more memory than the workload itself.

Spans are recorded only inside `Tracer.op()`, so the benchmark's own
reference computations and output checks stay out of the numbers.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
import types
from array import array
from pathlib import Path

# Modules whose __all__ functions are wrapped; the kernel layer is
# `_integrals.power_exp_integral`.
LAYERS = ("scenarios", "convergence", "tauberian", "transforms",
          "decomposition", "measures")

AGGREGATE_ONLY = frozenset({
    "convergence.MeasureSequence.measure",
    "measures.Expression.evaluate",
    "measures.Expression.integral",
    "measures.SignedMeasure.distribution",
    "kernel.power_exp_integral",
})

# Methods that belong to a layer's public surface but are not in __all__.
_METHODS = (
    ("convergence", "MeasureSequence", "measure"),
    ("measures", "Expression", "evaluate"),
    ("measures", "Expression", "integral"),
    ("measures", "SignedMeasure", "distribution"),
)


class _Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [stored span index, start, child time]
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_op = array("i")
        self._span_parent = array("i")
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._seen_segments: set = set()

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Scope one benchmark operation; spans are recorded only inside."""
        self.op_id = op_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, hook=None):
        agg = self.aggs.setdefault(name, _Agg())
        keep_span = name not in AGGREGATE_ONLY
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            done = hook(args, kwargs) if hook is not None else None
            # frame[0] is the nearest stored span: this call's, or its parent's
            parent = stack[-1][0] if stack else -1
            frame = [parent, clock(), 0.0]
            if keep_span:
                frame[0] = len(tracer._span_start)
                tracer._span_op.append(tracer.op_id)
                tracer._span_parent.append(parent)
                tracer._span_name.append(name_id)
                tracer._span_start.append(frame[1])
                tracer._span_end.append(0.0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if keep_span:
                    tracer._span_end[frame[0]] = end
            if done is not None:
                done(result)
            return result

        return wrapper

    # -- layer-specific counters ----------------------------------------

    def _emit_hook(self, args, kwargs):
        out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
        existed = set(out_dir.iterdir()) if out_dir.is_dir() else set()

        def done(paths):
            self.count("scenarios.emit_overwrites", sum(p in existed for p in paths))
            self.count("scenarios.emit_bytes", sum(p.stat().st_size for p in paths))
        return done

    def _sign_runs_hook(self, args, kwargs):
        segment = args[0] if args else kwargs["segment"]
        if segment in self._seen_segments:
            self.count("decomposition.repeat_isolations")
        self._seen_segments.add(segment)

        def done(runs):
            self.count("decomposition.roots", max(len(runs) - 1, 0))
        return done

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions where their callers bind them."""
        import tauber  # noqa: F401 -- loads every submodule
        from tauber import _integrals, transforms

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tauber" or n.startswith("tauber.")]
        names = {_integrals.power_exp_integral: "kernel.power_exp_integral"}
        for layer in LAYERS:
            mod = sys.modules[f"tauber.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    names[fn] = f"{layer}.{attr}"
        hooks = {
            "scenarios.emit": self._emit_hook,
            "decomposition.sign_runs": self._sign_runs_hook,
        }
        wrappers = {fn: self._wrap(name, fn, hooks.get(name)) for fn, name in names.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        # scipy's quad, where the transforms tier code binds it
        transforms.quad = self._wrap("transforms.quad", transforms.quad)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(sys.modules[f"tauber.{layer}"], cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))

    # -- results --------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        """Self time of one wrapped name, or summed over a layer's names."""
        return sum(a.self_time for n, a in self.aggs.items()
                   if n == prefix or n.startswith(prefix + "."))

    def export(self) -> dict:
        """Aggregates and counters as plain data (for a parent process)."""
        return {
            "aggs": {n: [a.calls, a.total, a.self_time] for n, a in self.aggs.items()},
            "counters": dict(self.counters),
            "spans": self.span_rows(),
        }

    def merge(self, data: dict, op_id: int) -> None:
        """Fold the export of a traced child process into this tracer."""
        for name, (calls, total, self_time) in data["aggs"].items():
            agg = self.aggs.setdefault(name, _Agg())
            agg.calls += calls
            agg.total += total
            agg.self_time += self_time
        for name, value in data["counters"].items():
            self.count(name, value)
        base = len(self._span_start)
        for _, parent, name, start, end in data["spans"]:
            self._span_op.append(op_id)
            self._span_parent.append(parent + base if parent >= 0 else -1)
            self._span_name.append(self._name_id(name))
            self._span_start.append(start)
            self._span_end.append(end)

    def span_rows(self) -> list[tuple[int, int, str, float, float]]:
        return [
            (self._span_op[i], self._span_parent[i], self._names[self._span_name[i]],
             self._span_start[i], self._span_end[i])
            for i in range(len(self._span_start))
        ]

    def write_spans(self, path: Path) -> int:
        """Write every recorded span as gzipped tab-separated rows; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (op, parent, name, start, end) in enumerate(self.span_rows()):
                fh.write(f"{i}\t{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
        return len(self._span_start)
