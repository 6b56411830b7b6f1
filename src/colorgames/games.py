"""Two-player decisions by exhaustive enumeration of memoryless
opponent strategies.

These games are determined and the opponent never needs memory, so
player 1 wins iff fixing some per-node edge choice leaves a pruned graph
without a goal path.  The solver tries every choice table in
lexicographic order; ``graphs.cached_decision`` looks each one's graph
up by its canonical form on the arena's contracted graph and decides a
miss on the contracted edges that the form lists.  ``prune`` builds the
pruned arena itself for callers that want it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import prod
from typing import Iterator

from . import graphs
from .arena import ColoredArena, ContractError, Goal, RawArena, _contract
from .graphs import (GraphDecision, decide_balanced_path,
                     decide_bounded_path, decide_frequency_path)

DEFAULT_STRATEGY_BUDGET = 1 << 20


class StrategyBudgetError(Exception):
    """More memoryless strategies than the configured limit."""


@dataclass(frozen=True)
class MemorylessStrategy:
    """One outgoing edge per player-1 node, keyed by node id; values are
    indices into the arena's edge list."""

    choices: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.choices)


def count_strategies(arena: ColoredArena | RawArena) -> int:
    graph = arena.contracted
    return prod(len(out) for out, owner in zip(graph.out_ids, graph.owners)
                if owner == 1)


def enumerate_strategies(
        arena: ColoredArena | RawArena) -> Iterator[MemorylessStrategy]:
    """All choice tables in lexicographic (node index, edge index) order;
    exactly one empty strategy when player 1 owns no node.  Read off the
    contracted graph: chain nodes belong to player 0, and a node's
    out-list there is its expanded one."""
    graph = arena.contracted
    players = [i for i, owner in enumerate(graph.owners) if owner == 1]
    nodes = [graph.node_ids[i] for i in players]
    for combo in itertools.product(*map(graph.out_ids.__getitem__, players)):
        yield MemorylessStrategy(tuple(zip(nodes, combo)))


def prune(arena: ColoredArena, strategy: MemorylessStrategy) -> ColoredArena:
    """Keep only the strategy's edge at player-1 nodes, then restrict to
    the part reachable from the initial node, nodes and edges in parent
    order.  The search runs on the contracted graph, so a chain is kept
    whole or not at all, and so is its run of expanded ids; the pruned
    arena is built on the expanded tables and has the contracted graph
    of the parent's file nodes and edges that it keeps."""
    chosen = strategy.as_dict()
    graph = arena.contracted
    for i, owner in enumerate(graph.owners):
        if owner == 1:
            node_id = graph.node_ids[i]
            eid = chosen.get(node_id)
            if eid is None:
                raise ContractError(
                    f"strategy misses player-1 node {node_id!r}")
            if eid not in graph.out_ids[i]:
                raise ContractError(
                    f"strategy maps {node_id!r} to a foreign edge")
    edges = sorted(graphs.reachable_canonical_form(arena, chosen)[1])
    k, color = arena.k, graph.edge_color
    kept = [j for i in edges for j in (range(i, i + k) if color[i] == 0
                                       else (i,))]
    src, dst = arena.edge_src, arena.edge_dst
    nodes = sorted({src[eid] for eid in kept})
    pos = {v: i for i, v in enumerate(nodes)}
    node_ids = [arena.node_ids[v] for v in nodes]
    pruned = ColoredArena.from_tables(
        k, node_ids, [arena.owners[v] for v in nodes], arena.initial,
        dict(zip(node_ids, range(len(nodes)))),
        [pos[src[eid]] for eid in kept],
        [arena.edge_color[eid] for eid in kept],
        [pos[dst[eid]] for eid in kept])
    if graph.chains:  # the kept part of the file, in parent order
        files = bisect_left(nodes, len(graph.node_ids))
        pruned._contracted = _contract(
            k, node_ids[:files], pruned.owners[:files],
            dict(zip(node_ids[:files], range(files))),
            [pos[graph.edge_src[eid]] for eid in edges],
            [color[eid] or None for eid in edges],
            [pos[graph.edge_dst[eid]] for eid in edges])
    return pruned


@dataclass(frozen=True)
class GameResult:
    """Outcome of a solved game.

    ``winner`` is 1 when some strategy's pruned graph lacks a goal path,
    with the first such strategy as ``witness``; otherwise 0, justified
    by determinacy.  ``explored`` counts the strategies tried, the
    witness included.
    """

    winner: int
    witness: MemorylessStrategy | None
    strategies_total: int
    explored: int

    @property
    def log(self) -> tuple[tuple[int, bool], ...]:
        """(strategy index, goal path exists) per explored strategy, built
        on demand: only the last can lack a goal path, iff player 1 won."""
        return tuple((i, i + 1 < self.explored or self.winner == 0)
                     for i in range(self.explored))

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "witness": None if self.witness is None
            else self.witness.as_dict(),
            "strategies_total": self.strategies_total,
            "explored": self.explored,
        }


def graph_decide(arena: ColoredArena, goal: Goal,
                 cache: dict | None = None) -> GraphDecision:
    """One-player decision for a goal, looked up in ``cache`` if given."""
    if cache is not None:
        return graphs.cached_decision(cache, arena, goal.rates(arena.k))
    if goal.kind == "balanced":
        return decide_balanced_path(arena)
    if goal.kind == "bounded":
        return decide_bounded_path(arena)
    return decide_frequency_path(arena, goal.freq)


def decide_winner(arena: ColoredArena, goal: Goal,
                  max_strategies: int = DEFAULT_STRATEGY_BUDGET,
                  cache: dict | None = None) -> GameResult:
    """Solve the game by trying every memoryless player-1 strategy.

    Returns on the first (lexicographically smallest) winning strategy;
    nothing is kept per strategy beyond the count ``explored``.

    Each strategy's graph is looked up in ``cache`` (a dict local to the
    call when none is given) by its canonical form on the parent arena,
    and a miss is decided there too: no strategy expands a chain, builds
    a pruned arena or builds a record.
    """
    rates = goal.rates(arena.k)
    total = count_strategies(arena)
    if total > max_strategies:
        raise StrategyBudgetError(
            f"{total} memoryless strategies exceed the budget "
            f"{max_strategies}")
    if cache is None:
        cache = {}
    for idx, tau in enumerate(enumerate_strategies(arena)):
        if not graphs.cached_decision(cache, arena, rates, tau.as_dict(),
                                      witness=False).exists:
            return GameResult(1, tau, total, idx + 1)
    return GameResult(0, None, total, total)
