"""Deterministic LP counts per benchmark pass, counted from outside
perfbench by wrapping library attributes.

    python3 tools/lpcounts.py --src src --workload graph-decide --seed 1

Runs one pass of a perfbench workload against the library under
``--src`` (any checkout) and prints one JSON line with the final
synth-stream deviation of every request, the best of ``--repeats``
in-process pass times, and these counts, each with what it wraps:

- ``solves`` (``warm_solves`` started from a factored basis): calls of
  ``graphs.solve_feasibility``, which every load program of a decision
  reaches through ``graphs._LimitProblem``;
- ``phase1_pivots`` and ``factor_pivots``: calls of ``lp._pivot``,
  inside ``graphs.factor_rows`` for the latter;
- ``screened``: ``_LimitProblem.solve`` calls on a program that the rate
  screen rejects without a solve;
- ``cover_solves``, ``full_support_solves`` and
  ``full_support_feasible``: the solves of ``_LimitProblem.solve`` with
  a cover row and of ``_LimitProblem.solve_full_support``, the bounded
  goal's; a checkout without ``solve_full_support`` reports zero;
- ``cover_walks``: bounded walks taken from summed cover loads, as
  calls of ``graphs._zero_diff_component_walk`` that return a walk
  although the last full-support solve they made failed; zero on a
  checkout that walks only full-support loads;
- ``tarjan_runs``: calls of ``graphs._tarjan``, one per
  ``edge_components`` call: a decision's components and each regrouping
  of bounded support pruning.  The deciders' loop decomposition
  (``graphs._loops``) makes none; only the public
  ``decompose_circulation`` checks that a support lies in one component;
- ``node_records`` and ``edge_records``: ``arena.Node`` and
  ``arena.Edge`` initializers, which run when ``arena.nodes`` or
  ``arena.edges`` is first read, as witnesses are turned into records;
- ``cache_lookups``, ``cache_misses`` and ``miss_requests``: calls of
  ``graphs.cached_decision``, whose first argument is the cache and which
  decides a miss itself; a lookup that grows the cache is a miss, and
  ``miss_requests`` counts the requests with at least one;
- ``expansions``: arenas whose uncolored-edge chains were expanded, as
  calls of ``arena._chain_ids``, which every expansion with a chain makes
  once, on the first read of an expanded table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    from workloads import WORKLOADS
    lib = SimpleNamespace(**{m: importlib.import_module(f"colorgames.{m}")
                             for m in ("arena", "games", "graphs", "lp",
                                       "reductions", "synth")})
    workload = WORKLOADS[args.workload]
    requests = workload.generate(
        lib, random.Random(f"{args.workload}:{args.seed}"))

    def one_pass():
        cache = {} if workload.uses_cache else None
        return [workload.run(lib, req, cache) for req in requests]

    best = min(_timed(one_pass) for _ in range(args.repeats))
    counts = dict.fromkeys(("solves", "warm_solves", "phase1_pivots",
                            "factor_pivots", "screened", "tarjan_runs",
                            "node_records", "edge_records",
                            "cover_solves", "full_support_solves",
                            "full_support_feasible", "cover_walks",
                            "cache_lookups",
                            "cache_misses", "miss_requests",
                            "expansions"), 0)
    graphs, lp = lib.graphs, lib.lp
    state = {"factoring": False, "full_support_failed": False}
    solve, pivot = graphs.solve_feasibility, lp._pivot

    def counted_solve(system):
        counts["solves"] += 1
        counts["warm_solves"] += getattr(system, "start", None) is not None
        return solve(system)

    def counted_pivot(*a):
        counts["factor_pivots" if state["factoring"]
               else "phase1_pivots"] += 1
        return pivot(*a)

    tarjan = graphs._tarjan

    def counted_tarjan(*a):
        counts["tarjan_runs"] += 1
        return tarjan(*a)

    cached = graphs.cached_decision

    def counted_cached(cache, *a, **kw):
        size = len(cache)
        decision = cached(cache, *a, **kw)
        counts["cache_lookups"] += 1
        counts["cache_misses"] += len(cache) > size
        return decision

    chain_ids = lib.arena._chain_ids

    def counted_chain_ids(*a):
        counts["expansions"] += 1
        return chain_ids(*a)

    lib.arena._chain_ids = counted_chain_ids
    graphs.solve_feasibility, lp._pivot = counted_solve, counted_pivot
    graphs._tarjan, graphs.cached_decision = counted_tarjan, counted_cached
    for cls, key in ((lib.arena.Node, "node_records"),
                     (lib.arena.Edge, "edge_records")):
        def counted_init(self, *a, _init=cls.__init__, _key=key):
            counts[_key] += 1
            _init(self, *a)
        cls.__init__ = counted_init
    if hasattr(graphs, "factor_rows"):
        factor = graphs.factor_rows

        def counted_factor(*a):
            state["factoring"] = True
            try:
                return factor(*a)
            finally:
                state["factoring"] = False
        graphs.factor_rows = counted_factor
    problem_cls = graphs._LimitProblem

    def solves_in(key, call):
        before = counts["solves"]
        result = call()
        counts[key] += counts["solves"] - before
        return result

    class Counted(problem_cls):
        def solve(self, cover=None):
            counts["screened"] += bool(getattr(self, "screened", False))
            if cover is None:
                return super().solve()
            return solves_in("cover_solves",
                             lambda: problem_cls.solve(self, cover))

        if hasattr(problem_cls, "solve_full_support"):
            def solve_full_support(self):
                loads = solves_in("full_support_solves",
                                  super().solve_full_support)
                counts["full_support_feasible"] += loads is not None
                state["full_support_failed"] = loads is None
                return loads
    graphs._LimitProblem = Counted
    component_walk = graphs._zero_diff_component_walk

    def counted_walk(*a):
        state["full_support_failed"] = False
        walk = component_walk(*a)
        counts["cover_walks"] += (walk is not None
                                  and state["full_support_failed"])
        return walk
    graphs._zero_diff_component_walk = counted_walk
    cache, outcomes = {} if workload.uses_cache else None, []
    for req in requests:
        misses = counts["cache_misses"]
        outcomes.append(workload.run(lib, req, cache))
        counts["miss_requests"] += counts["cache_misses"] > misses
    deviations = [str(o.profile[-1][1]) for o in outcomes
                  if getattr(o, "profile", None)]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "requests": len(requests), **counts,
                      "best_pass_s": round(best, 4),
                      "deviations": deviations}))
    return 0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
