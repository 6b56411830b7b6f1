"""Witness path synthesis.

A loop set with the right combined color rates turns into an infinite
path by visiting the loops in rounds: round i repeats loop j exactly
i * c_j times and then moves to the next loop along a fixed connector.
The connectors are traversed once per round while the loop repetitions
grow linearly, so their color contribution washes out and the emitted
path attains the target rates in the limit.

Streams are chained from whole blocks (one loop's repetitions in a
round, or one connector) and consumed with ``islice``, so emitting and
counting a prefix runs in C iterators rather than one Python step per
edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, cycle, islice
from typing import Iterable, Iterator

from .arena import (ColoredArena, ContractError, Edge, FinitePath,
                    FrequencyVector, color_counts)
from .graphs import LoopSet


@dataclass(frozen=True)
class PathSchedule:
    """Loops, repetition coefficients and inter-loop connectors.

    Round i (i >= 1) emits loops[0]^(i*c0) conn[0] loops[1]^(i*c1)
    conn[1] ... loops[h-1]^(i*c_{h-1}) conn[h-1]; every round is a closed
    walk through the start node of the first loop.
    """

    loops: tuple[FinitePath, ...]
    coeffs: tuple[int, ...]
    connectors: tuple[tuple[Edge, ...], ...]

    def __post_init__(self):
        h = len(self.loops)
        if h == 0:
            raise ContractError("schedule needs at least one loop")
        if len(self.coeffs) != h or len(self.connectors) != h:
            raise ContractError("loops, coeffs and connectors must align")
        if any(c < 1 for c in self.coeffs):
            raise ContractError("coefficients must be positive")
        for j, loop in enumerate(self.loops):
            if not loop.is_cycle():
                raise ContractError(f"loop {j} is not a cycle")
            conn = self.connectors[j]
            here = loop.end
            for e in conn:
                if e.src != here:
                    raise ContractError(f"connector {j} breaks adjacency")
                here = e.dst
            nxt = self.loops[(j + 1) % h]
            if here != nxt.start:
                raise ContractError(
                    f"connector {j} does not reach the next loop")

    @property
    def start(self) -> str:
        return self.loops[0].start

    def loop_weight(self) -> int:
        """Total loop edges per unit round: n = sum c_j * |loop_j|."""
        return sum(c * len(p) for p, c in zip(self.loops, self.coeffs))

    def connector_weight(self) -> int:
        """Connector edges per round: m = sum |conn_j|."""
        return sum(len(c) for c in self.connectors)

    def round_edges(self, i: int) -> list[Edge]:
        if i < 1:
            raise ContractError("rounds are numbered from 1")
        out: list[Edge] = []
        for loop, c, conn in zip(self.loops, self.coeffs, self.connectors):
            out.extend(loop.edges * (i * c))
            out.extend(conn)
        return out

    def round_length(self, i: int) -> int:
        return self.connector_weight() + i * self.loop_weight()

    def boundary(self, i: int) -> int:
        """Prefix length at the end of round i."""
        n, m = self.loop_weight(), self.connector_weight()
        return i * m + n * i * (i + 1) // 2

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "loops": [[e.triple() for e in p.edges] for p in self.loops],
            "coeffs": list(self.coeffs),
            "connectors": [[e.triple() for e in conn]
                           for conn in self.connectors],
        }


class PathStream:
    """Single-consumer cursor over an unbounded edge sequence."""

    def __init__(self, start: str, edges: Iterator[Edge],
                 bound: int | None = None,
                 schedule: PathSchedule | None = None):
        self.start = start
        self.bound = bound
        self.schedule = schedule
        self._edges = edges

    def __iter__(self) -> Iterator[Edge]:
        return self._edges

    def __next__(self) -> Edge:
        return next(self._edges)

    def take(self, n: int) -> list[Edge]:
        if n < 0:
            raise ContractError("prefix length must not be negative")
        out = list(islice(self._edges, n))
        if len(out) < n:
            raise ContractError("stream ended before the requested prefix")
        return out


def build_schedule(loop_set: LoopSet, arena: ColoredArena) -> PathSchedule:
    """Connect the loops of a loop set with shortest paths.

    A shortest path between two nodes of one strongly connected
    component never leaves it, so connectors are searched over all
    nodes; loops in different components leave some connector without
    a path, which is a ``ContractError``."""
    if not loop_set.loops:
        raise ContractError("empty loop set")
    loops = tuple(p for p, _ in loop_set.loops)
    coeffs = tuple(c for _, c in loop_set.loops)
    h = len(loops)
    connectors = []
    for j in range(h):
        src = loops[j].end
        dst = loops[(j + 1) % h].start
        connectors.append(shortest_path(arena, src, dst))
    return PathSchedule(loops, coeffs, tuple(connectors))


def shortest_path(arena: ColoredArena, src: str,
                  dst: str) -> tuple[Edge, ...]:
    """Breadth-first shortest edge path; ties resolved toward the
    smallest node index."""
    if src == dst:
        return ()
    parent: dict[str, Edge] = {}
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        candidates = []
        for eid in arena.out_edge_ids(u):
            e = arena.edges[eid]
            if e.dst not in seen:
                candidates.append((arena.node_index[e.dst], eid, e))
        for _, _, e in sorted(candidates):
            if e.dst in seen:
                continue
            seen.add(e.dst)
            parent[e.dst] = e
            if e.dst == dst:
                path = []
                node = dst
                while node != src:
                    edge = parent[node]
                    path.append(edge)
                    node = edge.src
                path.reverse()
                return tuple(path)
            queue.append(e.dst)
    raise ContractError(f"no path from {src!r} to {dst!r}")


def stream(schedule: PathSchedule) -> PathStream:
    """Lazily emit the infinite path of a schedule.  Round i is built as
    one block per loop (its edges repeated i * c times) followed by the
    loop's connector, so the generator resumes once per block, not once
    per edge; a block of a prefix of length n holds O(sqrt(n * w)) edges,
    w being the loop weight."""
    parts = tuple(zip(schedule.loops, schedule.coeffs, schedule.connectors))

    def blocks() -> Iterator[tuple[Edge, ...]]:
        for i in count(1):
            for loop, c, conn in parts:
                yield loop.edges * (i * c)
                yield conn
    return PathStream(schedule.start, chain.from_iterable(blocks()),
                      schedule=schedule)


def measure_convergence(path_stream: Iterable[Edge], n: int,
                        rates: FrequencyVector) -> Fraction:
    """Largest entrywise gap between observed pairwise difference rates
    at prefix length n and the target rates, as an exact rational."""
    return convergence_profile(path_stream, [n], rates)[0][1]


def convergence_profile(path_stream: Iterable[Edge], checkpoints,
                        rates: FrequencyVector) -> list[tuple[int, Fraction]]:
    """Deviations at several prefix lengths from a single pass.  Each
    segment between two checkpoints is drawn at once and its colors
    counted in C."""
    marks = sorted(set(checkpoints))
    if not marks or marks[0] < 1:
        raise ContractError("checkpoints must be positive")
    k = rates.k
    bad_color = f"stream has an edge color outside 1..{k}"
    counts = [0] * k
    out = []
    pos = 0
    it = iter(path_stream)
    for mark in marks:
        colors = [e.color for e in islice(it, mark - pos)]
        if len(colors) < mark - pos:
            raise ContractError("stream ended before the requested prefix")
        if k < 256:
            # bytes.count is several times faster than list.count
            try:
                colors = bytes(colors)
            except (TypeError, ValueError):
                raise ContractError(bad_color) from None
        counts = [have + colors.count(c)
                  for c, have in enumerate(counts, 1)]
        pos = mark
        if sum(counts) != pos:
            raise ContractError(bad_color)
        # the largest pairwise gap |d_a - d_b|, d_a = counts_a/pos - r_a,
        # is max d - min d; in integers, pos * den * d_a
        scaled = [rates.den * c - p * pos
                  for c, p in zip(counts, rates.nums)]
        out.append((mark, Fraction(max(scaled) - min(scaled),
                                   pos * rates.den)))
    return out


def bounded_witness_stream(walk: FinitePath, access: tuple[Edge, ...],
                           k: int) -> PathStream:
    """Access path followed by a zero-difference closed walk repeated
    forever; the stream's ``bound`` is an exact cap on every prefix's
    pairwise differences."""
    if not walk.is_cycle():
        raise ContractError("witness walk must be closed")
    counts = color_counts(walk.colors(), k)
    if any(c != counts[0] for c in counts):
        raise ContractError("witness walk has a nonzero difference matrix")
    here = access[0].src if access else walk.start
    for e in access:
        if e.src != here:
            raise ContractError("access path breaks adjacency")
        here = e.dst
    if here != walk.start:
        raise ContractError("access path does not reach the walk")

    # prefix differences repeat after the first walk period
    bound = max_abs_diff(chain(access, walk.edges), k)
    start = access[0].src if access else walk.start
    return PathStream(start, chain(access, cycle(walk.edges)), bound=bound)


def max_abs_diff(edges: Iterable[Edge], k: int) -> int:
    """Largest spread max - min of the color counts over all prefixes.
    Counts only grow, so the spread can only rise with the maximum; the
    minimum is rescanned only when the last color at it moves up."""
    counts = [0] * k
    hi = lo = worst = 0
    at_lo = k
    for e in edges:
        c = e.color - 1
        v = counts[c] = counts[c] + 1
        if v == lo + 1:
            at_lo -= 1
            if not at_lo:
                lo = v
                at_lo = counts.count(v)
        if v > hi:
            hi = v
            worst = max(worst, v - lo)
    return worst
