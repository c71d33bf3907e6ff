"""In-memory span tracer for the traced benchmark runs.

The tracer wraps dofde from the outside: every function named in
`dofde.__all__` is replaced, in every dofde module that binds it, by a
wrapper that records a span, and `ToeplitzOperator.__call__` is wrapped
as `toeplitz.matvec`.  Nothing under src/ changes, and `uninstall`
puts every original back, so untraced passes run the program as is.

A span is (name, module, start, end, parent, op, nested): `parent` is
the index of the enclosing span, `op` the benchmark operation it belongs
to, and `nested` marks a span opened inside another span of the same
name (its time is already inside the outer one).
"""

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# The nine modules of src/dofde, one layer each.
LAYERS = (
    "symbols",
    "quadrature",
    "transforms",
    "toeplitz",
    "preconditioners",
    "krylov",
    "multigrid",
    "spectral",
    "cli",
)


def _add_iterations(key):
    def hook(counters, report):
        counters[key] += report.iterations

    return hook


def _add_hierarchy_bytes(counters, hierarchy):
    counters["multigrid.hierarchy_bytes"] += sum(m.nbytes for m in hierarchy.matrices)


def _add_evaluations(counters, result):
    # Every integrand evaluation happens inside integrate_adaptive; the
    # public constants only re-sum its counts, so counting here is exact.
    counters["quadrature.evaluations"] += result.evaluations


# Counters read from return values, keyed by span name.
_RESULT_HOOKS = {
    "krylov.pcg": _add_iterations("krylov.iterations"),
    "multigrid.tgm": _add_iterations("multigrid.iterations"),
    "multigrid.vcycle": _add_iterations("multigrid.iterations"),
    "multigrid.build_hierarchy": _add_hierarchy_bytes,
    "quadrature.integrate_adaptive": _add_evaluations,
}
COUNTERS = (
    "krylov.iterations",
    "multigrid.iterations",
    "multigrid.hierarchy_bytes",
    "quadrature.evaluations",
)


class Tracer:
    """Records spans for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.names = set()
        self._stack = []
        self._open = Counter()
        self._op = None
        self._patches = []

    @contextmanager
    def op(self, op_id):
        """Attribute the spans opened inside to benchmark operation op_id."""
        previous, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = previous

    @contextmanager
    def span(self, name):
        """A span recorded by the benchmark itself, such as one CLI command."""
        self.names.add(name)
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index, name)

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, name.split(".", 1)[0], perf_counter(), None,
                           parent, self._op, self._open[name] > 0])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index, name):
        self.spans[index][3] = perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def _wrap(self, fn, name):
        self.names.add(name)
        hook = _RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index, name)
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import dofde
        from dofde.toeplitz import ToeplitzOperator

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "dofde" or key.startswith("dofde.")]
        wrappers = {}
        for module in modules:
            for attr in dofde.__all__:
                fn = module.__dict__.get(attr)
                if not (inspect.isfunction(fn) and fn.__module__.startswith("dofde.")):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._patch(module, attr, wrappers[fn])
        self._patch(ToeplitzOperator, "__call__",
                    self._wrap(ToeplitzOperator.__call__, "toeplitz.matvec"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, extra_names=()):
        """Per-layer numbers of this pass.

        `<name>.s` sums the spans of one function (outermost ones only),
        `<name>.calls` counts them, and `<layer>.self_s` sums span time
        minus the time of direct child spans over every span of a layer.
        Names in extra_names that never ran report zero.
        """
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = 0.0
            metrics[f"{layer}.calls"] = 0
        for name in self.names | set(extra_names):
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.calls"] = 0
        for key in COUNTERS:
            metrics[key] = self.counters[key]

        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op, nested in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, layer, start, end, parent, op, nested) in enumerate(self.spans):
            duration = end - start
            metrics[f"{layer}.self_s"] += duration - child_time[index]
            metrics[f"{layer}.calls"] += 1
            metrics[f"{name}.calls"] += 1
            if not nested:
                metrics[f"{name}.s"] += duration
        return metrics

    def records(self):
        """The spans as JSON-ready dicts, in the order they were opened."""
        for index, (name, layer, start, end, parent, op, nested) in enumerate(self.spans):
            yield {"id": index, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
