"""Outside-in tracing: spans and counters around calls into tlinkrec's layers.

Nothing inside ``src/tlinkrec`` is instrumented.  ``Tracer.install`` replaces
each target function, in every tlinkrec module that binds it, with a wrapper
that records a span; ``uninstall`` puts the originals back.  A target whose
function no longer exists is reported absent and the run goes on without it.

Self time is a span's duration minus the time covered by its child spans
(``score_run`` contains ``closure``, ``solve`` contains the scipy calls).
``compute_f1_weights`` is timed inclusively only, outside the tree.  Time
spent in the tracer's own counter hooks is charged to ``trace.hooks``, so the
self times of all spans, the hooks and the unattributed remainder add up to
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

PACKAGE = "tlinkrec"

# (span name, tlinkrec module, attribute) of every wrapped function.  The LP
# layer is scipy's linprog as the solver binds it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("timeml.load", "timeml", "load_corpus"),
    ("timeml.write", "timeml", "write_timeml"),
    ("model.collect_arcs", "model", "collect_arcs"),
    ("model.enumerate_triangles", "model", "enumerate_triangles"),
    ("model.build_ip", "model", "build_ip"),
    ("solver.solve", "solver", "solve"),
    ("solver.lp", "solver", "linprog"),
    ("relations.closure", "relations", "closure"),
    ("scoring.score", "scoring", "score_run"),
    ("scoring.write_csv", "scoring", "write_csv"),
    ("pipeline.reconcile", "pipeline", "reconcile"),
    ("pipeline.write_reconciled", "pipeline", "write_reconciled"),
    ("pipeline.weights", "pipeline", "compute_f1_weights"),
)

HOOKS_SPAN = "trace.hooks"

# Timed inclusively and kept out of the span tree: the time inside them stays
# attributed to their callee spans and their caller.
INCLUSIVE_ONLY = frozenset({"pipeline.weights"})


def _graph_key(graph) -> tuple:
    return (frozenset(graph.nodes), tuple(graph.edges()))


class Tracer:
    """In-memory span aggregation for one pass at a time."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._patched: List[Tuple[object, str, Callable]] = []
        self.reset()

    # -- aggregation -----------------------------------------------------

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.max_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self._stack: List[List[float]] = []  # [start, child time]
        self._closure_inputs: set = set()

    def _charge_hooks(self, seconds: float) -> None:
        self.self_s[HOOKS_SPAN] += seconds
        if self._stack:
            self._stack[-1][1] += seconds
        else:
            self.top_level_s += seconds

    def call(self, name: str, fn: Callable, args, kwargs):
        if name in INCLUSIVE_ONLY:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s[name] += time.perf_counter() - start
                self.calls[name] += 1
        hook = _HOOKS.get(name)
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            self.max_s[name] = max(self.max_s[name], duration)
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.top_level_s += duration
        if hook is not None:
            h0 = time.perf_counter()
            hook(self, args, result)
            self._charge_hooks(time.perf_counter() - h0)
        return result

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.absent = []
        for name, module_name, attr in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def _wrap(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)
        return wrapper


# -- counter hooks, run outside the span they belong to ------------------

def _count_arcs(tracer: Tracer, args, result) -> None:
    tracer.counts["model.arcs"] += len(result.arcs)


def _count_triangles(tracer: Tracer, args, result) -> None:
    tracer.counts["model.triangles"] += len(getattr(result, "triples", result))


def _count_rows(tracer: Tracer, args, result) -> None:
    tracer.counts["model.rows"] += result.num_rows


def _count_solve(tracer: Tracer, args, result) -> None:
    tracer.counts["solver.nodes"] += result.stats.nodes_explored
    tracer.counts["solver.lp_iterations"] += result.stats.lp_iterations


def _count_closure(tracer: Tracer, args, result) -> None:
    graph = args[0]
    key = _graph_key(graph)
    if key in tracer._closure_inputs:
        tracer.counts["relations.closure_repeats"] += 1
    tracer._closure_inputs.add(key)
    tracer.counts["relations.closure_nodes"] += len(graph.nodes)


_HOOKS: Dict[str, Callable] = {
    "model.collect_arcs": _count_arcs,
    "model.enumerate_triangles": _count_triangles,
    "model.build_ip": _count_rows,
    "solver.solve": _count_solve,
    "relations.closure": _count_closure,
}


def pass_breakdown(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Self seconds per span plus the unattributed remainder of one pass."""
    out = {name: tracer.self_s[name] for name in sorted(tracer.self_s)}
    out["unattributed"] = wall_s - tracer.top_level_s
    return out

