"""Two-player decisions by exhaustive enumeration of memoryless
opponent strategies.

These games are determined and the opponent never needs memory, so
player 1 wins iff fixing some per-node edge choice leaves a pruned graph
without a goal path.  The solver tries every choice table in
lexicographic order and delegates each pruned graph to the one-player
decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterator

from . import graphs
from .arena import ColoredArena, ContractError, Goal, RawArena
from .graphs import (GraphDecision, LimitMatrix, decide_balanced_path,
                     decide_bounded_path, decide_frequency_path,
                     frequency_to_limit)

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
    return prod(len(arena.out_edge_ids(nd.id))
                for nd in arena.player_nodes(1))


def enumerate_strategies(
        arena: ColoredArena | RawArena) -> Iterator[MemorylessStrategy]:
    """All choice tables in lexicographic (node index, edge index) order;
    exactly one empty strategy when player 1 owns no node."""
    nodes = [nd.id for nd in arena.player_nodes(1)]
    pools = [sorted(arena.out_edge_ids(nd)) for nd in nodes]
    for combo in itertools.product(*pools):
        yield MemorylessStrategy(tuple(zip(nodes, combo)))


def prune(arena: ColoredArena, strategy: MemorylessStrategy) -> ColoredArena:
    """Keep only the strategy's edge at player-1 nodes, then restrict to
    the part reachable from the initial node."""
    chosen = strategy.as_dict()
    kept_out: dict[str, list[int]] = {}
    for nd in arena.nodes:
        if nd.owner == 1:
            eid = chosen.get(nd.id)
            if eid is None:
                raise ContractError(f"strategy misses player-1 node {nd.id!r}")
            if arena.edges[eid].src != nd.id:
                raise ContractError(
                    f"strategy maps {nd.id!r} to a foreign edge")
            kept_out[nd.id] = [eid]
        else:
            kept_out[nd.id] = arena.out_edge_ids(nd.id)
    reachable = {arena.initial}
    frontier = [arena.initial]
    kept_edges: list[int] = []
    while frontier:
        u = frontier.pop()
        for eid in kept_out[u]:
            kept_edges.append(eid)
            dst = arena.edges[eid].dst
            if dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)
    nodes = [nd for nd in arena.nodes if nd.id in reachable]
    edges = [arena.edges[eid] for eid in sorted(kept_edges)]
    return ColoredArena.derived(arena.k, nodes, arena.initial, edges)


@dataclass(frozen=True)
class GameResult:
    """Outcome of a solved game.

    ``winner`` is 1 with a witness strategy when some pruned graph lacks
    a goal path; otherwise 0, justified by determinacy, with the log
    covering every enumerated strategy.
    """

    winner: int
    goal: Goal
    witness: MemorylessStrategy | None
    strategies_total: int
    log: tuple[tuple[int, bool], ...]  # (strategy index, goal path exists)

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "witness": None if self.witness is None
            else self.witness.as_dict(),
            "strategies_total": self.strategies_total,
            "explored": len(self.log),
            "log": [[i, "exists" if ok else "not-exists"]
                    for i, ok in self.log],
        }


def graph_decide(arena: ColoredArena, goal: Goal,
                 cache: dict | None = None) -> GraphDecision:
    """One-player decision dispatch for a goal."""
    if goal.kind == "balanced":
        return decide_balanced_path(arena, cache)
    if goal.kind == "bounded":
        return decide_bounded_path(arena, cache)
    return decide_frequency_path(arena, goal.freq, cache)


def decide_winner(arena: ColoredArena, goal: Goal,
                  max_strategies: int = DEFAULT_STRATEGY_BUDGET,
                  cache: dict | None = None) -> GameResult:
    """Solve the game by trying every memoryless player-1 strategy.

    Returns on the first (lexicographically smallest) winning strategy;
    the per-strategy log is complete only for player-0 answers.

    Each strategy's graph is canonicalized on the parent arena and looked
    up in ``cache`` (a dict local to the call when none is given); only
    a miss builds the pruned arena and decides it.
    """
    if goal.kind == "frequency" and len(goal.freq) != arena.k:
        raise ContractError(
            f"frequency vector has arity {len(goal.freq)}, arena has "
            f"{arena.k} colors")
    total = count_strategies(arena)
    if total > max_strategies:
        raise StrategyBudgetError(
            f"{total} memoryless strategies exceed the budget "
            f"{max_strategies}")
    if cache is None:
        cache = {}
    if goal.kind == "bounded":
        limit = None
    elif goal.kind == "balanced":
        limit = LimitMatrix.zero(arena.k)
    else:
        limit = frequency_to_limit(goal.freq)
    prefix = graphs.decision_key_prefix(limit)
    log: list[tuple[int, bool]] = []
    for idx, tau in enumerate(enumerate_strategies(arena)):
        # through the graphs module, so that a wrapper installed there
        # sees the canonical form
        ckey, order = graphs.reachable_canonical_form(arena, tau.as_dict())
        decision = graphs.cached_decision(
            cache, (*prefix, ckey), arena, order, limit,
            lambda: graph_decide(prune(arena, tau), goal))
        log.append((idx, decision.exists))
        if not decision.exists:
            return GameResult(1, goal, tau, total, tuple(log))
    return GameResult(0, goal, None, total, tuple(log))
