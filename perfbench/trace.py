"""Span recording around the program's public functions.

The benchmark times layers from its own files: :func:`install` replaces
each function or method in :data:`TARGETS` with a wrapper that records
a span (layer, parent span, start, end, count) and restores the
originals when asked.  Nothing under ``src/`` changes.

Spans live in memory, one list per thread (the server child runs ops
in shard threads), and :meth:`Recorder.spans` hands them out once at
the end of a run.  A layer's *self time* is its span's duration minus
the time covered by its child spans, so nested layers (a ``Context``
artifact that lowers and then runs the minimum cycle mean) are never
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path, layer, counter): ``layer`` is a name or a
# function of the call's args; ``counter`` maps the call's (args,
# result) to a count summed per layer.  Functions are
# replaced in every loaded ``repro`` module that bound them by name;
# methods are replaced on their class.
TARGETS = [
    ("repro.gen.generator", "generate_lis", "gen.build", None),
    ("repro.gen.generator", "mesh_lis", "gen.build", None),
    ("repro.gen.generator", "torus_lis", "gen.build", None),
    ("repro.soc.cofdm", "cofdm_transmitter", "gen.build", None),
    ("repro.analysis.context", "Context.__init__", "analysis.context", None),
    ("repro.analysis.context", "get_context", "analysis.context", None),
    ("repro.analysis.context", "context_from_json", "analysis.context", None),
    ("repro.core.lis_graph", "LisGraph.ideal_marked_graph", "core.lower", None),
    ("repro.core.lis_graph", "LisGraph.doubled_marked_graph", "core.lower", None),
    ("repro.analysis.context", "Context.ideal_marked_graph", "core.lower", None),
    ("repro.analysis.context", "Context.doubled_marked_graph", "core.lower", None),
    ("repro.analysis.context", "Context.ideal_mst", "graphs.mcm", None),
    ("repro.analysis.context", "Context.actual_mst", "graphs.mcm", None),
    ("repro.core.throughput", "mst", "graphs.mcm", lambda a, r: 1),
    ("repro.analysis.context", "Context.cycle_records", "core.cycles", None),
    ("repro.core.cycles", "cycle_records", "core.cycles", lambda a, r: len(r)),
    ("repro.graphs.cycles", "elementary_edge_cycles", "core.cycles", None),
    ("repro.core.slack", "pipelining_slack", "core.slack", None),
    ("repro.analysis.context", "Context.td_instance", "solvers.td_compile", None),
    ("repro.analysis.context", "Context.td_kernel", "solvers.td_compile", None),
    ("repro.core.solvers.registry", "Solver.solve_instance",
     lambda args: f"solvers.{args[0].name}", lambda a, r: _nodes(r)),
    ("repro.analysis.context", "Context.compiled", "sim.compile", None),
    ("repro.sim.batch", "BatchSimulator.run", "sim.step",
     lambda a, r: r.counts.shape[0] * r.counts.shape[1] * r.clocks),
    ("repro.analysis.context", "Context.schedule_oracle", "schedule.derive", None),
    ("repro.stochastic.spec", "compile_stochastic", "stochastic.sample", None),
    ("repro.stochastic.montecarlo", "run_monte_carlo", "stochastic.mc", None),
    ("repro.stochastic.tails", "estimate_tails", "stochastic.tails", None),
    ("repro.engine.ops", "run_op", "engine.op", None),
    ("repro.engine.core", "AnalysisEngine.run", "engine.run", None),
    ("repro.server.protocol", "parse_job", "server.parse", None),
]


def _nodes(result) -> int:
    stats = result[1] if isinstance(result, tuple) and len(result) > 1 else {}
    return int((stats or {}).get("nodes_explored", 0) or 0)


class Recorder:
    """In-memory spans, one list per thread.  A span is the list
    ``[layer, parent index, start, end, count]``; the parent
    index points into the same thread's list (-1 at the root)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # spans, open stack
            with self._lock:
                self.threads.append(state[0])
        return state

    def wrap(self, layer: str, fn, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = rec._state()
            name = layer(args) if callable(layer) else layer
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[4] = counter(args, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def spans(self) -> list[list]:
        """Every finished span, with parents as global indices."""
        out: list[list] = []
        with self._lock:
            threads = list(self.threads)
        for spans in threads:
            base = len(out)
            for layer, parent, t0, t1, count in spans:
                out.append([layer, parent + base if parent >= 0 else -1,
                            t0, t1 or t0, count])
        return out

    def clear(self) -> None:
        with self._lock:
            for spans in self.threads:
                spans.clear()


def install(recorder: Recorder):
    """Wrap every target; returns a function that restores the
    originals.  A target the program no longer has raises, so that a
    layer never reads 0 because its function moved."""
    undo: list = []
    for module_name, path, layer, counter in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = recorder.wrap(layer, original, counter)
        if owner_name:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[list], since: float = float("-inf")) -> tuple[dict, dict]:
    """Per-layer ``(self seconds, summed counts)`` of the spans that
    started at or after ``since``."""
    child = [0.0] * len(spans)
    for layer, parent, t0, t1, _count in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for i, (layer, _parent, t0, t1, count) in enumerate(spans):
        if t0 >= since:
            busy[layer] += (t1 - t0) - child[i]
            counts[layer] += count
    return dict(busy), dict(counts)
