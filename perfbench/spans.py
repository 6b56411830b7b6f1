"""In-memory span tracing for the traced run.

``Tracer.install`` swaps wrappers onto the module attributes that the
library's callers look up at call time.  Each wrapper records a span
(name, start, end, parent span, request id) and the counts observed at
that boundary.  Nothing is installed unless the traced run asks for it,
and no library source is changed.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module attribute on ``lib``, attribute name, span name)
SPANS = (
    ("arena", "load_arena", "arena.load"),
    ("games", "decide_winner", "games.decide_winner"),
    ("games", "prune", "games.prune"),
    ("games", "decide_balanced_path", "graphs.limit"),
    ("games", "decide_frequency_path", "graphs.limit"),
    ("games", "decide_bounded_path", "graphs.bounded"),
    ("graphs", "reachable_canonical_form", "graphs.canon"),
    ("graphs", "build_color_limit_system", "graphs.build_system"),
    ("graphs", "integer_scale", "graphs.integer_scale"),
    ("graphs", "decompose_circulation", "graphs.decompose"),
    ("graphs", "eulerian_circuit", "graphs.euler"),
    ("graphs", "solve_feasibility", "lp.solve"),
    ("synth", "build_schedule", "synth.schedule"),
    ("synth", "bounded_witness_stream", "synth.schedule"),
    ("synth", "stream", "synth.schedule"),
    ("synth", "convergence_profile", "synth.convergence"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, request)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._undo: list = []

    # --- wrappers ----------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, parent

    def _leave(self, name, index, parent, start) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.request)

    def span(self, name: str, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, index, parent, start)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _graph_decide(self, fn):
        """A lookup is a miss iff the cache grew during the call."""
        tracer = self

        def wrapper(arena, goal, cache=None):
            before = None if cache is None else len(cache)
            index, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(arena, goal, cache)
            finally:
                tracer._leave("graphs.decide", index, parent, start)
            tracer.counts["graphs.decide_calls"] += 1
            if cache is not None:
                tracer.counts["graphs.cache_lookups"] += 1
                if len(cache) == before:
                    tracer.counts["graphs.cache_hits"] += 1
            return result
        return wrapper

    def _count(self, key):
        def observe(args, kwargs, result):
            self.counts[key] += 1
        return observe

    def _observe_winner(self, args, kwargs, result):
        self.counts["games.strategies_explored"] += len(result.log)

    def _observe_solve(self, args, kwargs, result):
        system = args[0]
        self.counts["lp.solves"] += 1
        self.counts["lp.feasible"] += bool(result.feasible)
        self.counts["lp.vars"] += system.num_vars
        self.counts["lp.rows"] += len(system.constraints)

    def _observe_take(self, args, kwargs, result):
        self.counts["synth.stream_edges"] += len(result)

    def install(self, lib) -> None:
        observers = {
            "arena.load": self._count("arena.load_calls"),
            "games.decide_winner": self._observe_winner,
            "lp.solve": self._observe_solve,
        }
        targets = [(getattr(lib, mod), attr, self.span(
            name, getattr(getattr(lib, mod), attr), observers.get(name)))
            for mod, attr, name in SPANS]
        targets.append((lib.games, "graph_decide",
                        self._graph_decide(lib.games.graph_decide)))
        stream_cls = lib.synth.PathStream
        targets.append((stream_cls, "take", self.span(
            "synth.stream", stream_cls.take, self._observe_take)))
        for owner, attr, wrapper in targets:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
