"""One-player decisions on colored graphs.

Existence of an infinite path with prescribed per-color frequencies
reduces, per strongly connected component reachable from the initial
node, to exact feasibility of a load system over the component's edges:
flow conservation, color counts proportional to the target rates,
nonnegativity and a positive-total normalization.  A component where
some color's target rate lies outside the range of its chains' rates is
rejected without a solve.  A feasible rational solution is rescaled to
integers and decomposed into simple loops, which form the verifiable
witness.

Bounded-difference paths are decided through zero-difference closed
walks: edges that cannot carry load in any zero-difference circulation
are pruned until a self-supporting component remains, whose Eulerian
circuit is the witness walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Sequence

from .arena import (ColoredArena, ContractError, FinitePath, FrequencyVector,
                    Goal, color_counts)
# integer_scale is not called here; it stays importable because
# perfbench's tracer wraps graphs.integer_scale by name
from .lp import (Constraint, FactoredRows, LinearSystem, factor_rows,
                 integer_scale, solve_feasibility)


class InternalCheckError(RuntimeError):
    """A computed witness failed its own exact verification."""


# perfbench's synth-stream workload builds its target rates through these
# two names; the library and its tests use FrequencyVector itself
LimitMatrix = SimpleNamespace(zero=FrequencyVector.uniform,
                              from_frequencies=FrequencyVector)


# --- strongly connected components ----------------------------------------


def _tarjan(num_nodes: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            out = succ[v]
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def edge_components(arena: ColoredArena,
                    edge_ids: Iterable[int]) -> list[list[int]]:
    """Internal edge ids, ascending, of each strongly connected component
    of the subgraph the given edges span that has an internal edge;
    groups ordered by the component's smallest node index."""
    edge_ids = sorted(edge_ids)
    index = arena.node_index
    edges = arena.edges
    succ: list[list[int]] = [[] for _ in arena.nodes]
    for eid in edge_ids:
        e = edges[eid]
        succ[index[e.src]].append(index[e.dst])
    comp_of = [0] * len(succ)
    smallest = []
    for ci, comp in enumerate(_tarjan(len(succ), succ)):
        smallest.append(min(comp))
        for v in comp:
            comp_of[v] = ci
    groups: dict[int, list[int]] = {}
    for eid in edge_ids:
        e = edges[eid]
        ci = comp_of[index[e.src]]
        if comp_of[index[e.dst]] == ci:
            groups.setdefault(ci, []).append(eid)
    return [groups[ci] for ci in sorted(groups, key=smallest.__getitem__)]


def _reachable_edge_ids(arena: ColoredArena) -> list[int]:
    """Edges whose source is reachable from the initial node, by BFS."""
    seen = {arena.initial}
    queue = [arena.initial]
    out: list[int] = []
    for u in queue:  # the queue grows while it is read: breadth-first
        for eid in arena.out_edge_ids(u):
            out.append(eid)
            dst = arena.edges[eid].dst
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return out


# --- the load system --------------------------------------------------------


def build_color_limit_system(arena: ColoredArena, edge_ids: Sequence[int],
                             rates: FrequencyVector,
                             force_edge: int | None = None) -> LinearSystem:
    """Load system over the given edges: flow conservation per incident
    node, pairwise color balance proportional to the target rates (the
    count difference of colors a and b is r_a - r_b of the total load),
    nonnegativity (as the system's column attribute), and positivity.

    Positivity of the total load is encoded as the normalization
    sum(x) = 1 (every other row is homogeneous, so solutions scale); when
    ``force_edge`` is given, the row x_e >= 1 is emitted instead.
    """
    if not edge_ids:
        raise ContractError("empty edge set")
    rates = Goal.frequency(rates).rates(arena.k)
    edge_ids = list(edge_ids)
    pos = {eid: i for i, eid in enumerate(edge_ids)}
    nvars = len(edge_ids)
    system = LinearSystem(nvars, nonneg=True)

    incident: dict[int, list[int]] = {}
    for eid in edge_ids:
        e = arena.edges[eid]
        for node in (e.src, e.dst):
            incident.setdefault(arena.node_index[node], [0] * nvars)
    for eid in edge_ids:
        e = arena.edges[eid]
        incident[arena.node_index[e.dst]][pos[eid]] += 1
        incident[arena.node_index[e.src]][pos[eid]] -= 1
    for ni in sorted(incident):
        system.add_constraint(Constraint(tuple(
            _UNIT[v] for v in incident[ni]), "=", _UNIT[0]))

    for a in range(1, arena.k + 1):
        for b in range(a + 1, arena.k + 1):
            l_ab = rates[a - 1] - rates[b - 1]
            coeff = {a: 1 - l_ab, b: -1 - l_ab}
            system.add_constraint(Constraint(tuple(
                coeff.get(arena.edges[eid].color, -l_ab) for eid in edge_ids),
                "=", _UNIT[0]))

    if force_edge is None:
        system.add([1] * nvars, "=", 1)
    else:
        unit = [0] * nvars
        unit[pos[force_edge]] = 1
        system.add(unit, ">=", 1)
    return system


_UNIT = {v: Fraction(v) for v in (-1, 0, 1)}


class _LimitProblem:
    """The same load system after collapsing unbranching chains.

    Interior nodes with in-degree and out-degree one force equal loads
    along a chain, so the chain becomes one variable carrying the chain's
    per-color counts.  Solutions expand back to per-edge loads exactly.
    Chain m has den*counts_a(m) - nums[a]*len(m) in the rate row of color
    a; the k rows sum to zero, so the last is left out.
    """

    def __init__(self, arena: ColoredArena, edge_ids: Sequence[int],
                 rates: FrequencyVector):
        self.arena = arena
        self.edge_ids = sorted(edge_ids)
        self.rates = rates
        k = arena.k
        indeg: dict[str, int] = {}
        outdeg: dict[str, int] = {}
        out_by: dict[str, list[int]] = {}
        nodes: set[str] = set()
        for eid in self.edge_ids:
            e = arena.edges[eid]
            nodes.add(e.src)
            nodes.add(e.dst)
            outdeg[e.src] = outdeg.get(e.src, 0) + 1
            indeg[e.dst] = indeg.get(e.dst, 0) + 1
            out_by.setdefault(e.src, []).append(eid)
        retained = {v for v in nodes
                    if indeg.get(v, 0) != 1 or outdeg.get(v, 0) != 1}
        if not retained:
            retained = {min(nodes, key=lambda v: arena.node_index[v])}
        self.retained = sorted(retained, key=lambda v: arena.node_index[v])
        self.macros: list[tuple[str, str, tuple[int, ...], tuple[int, ...]]] = []
        for eid in self.edge_ids:
            e = arena.edges[eid]
            if e.src not in retained:
                continue
            chain = [eid]
            v = e.dst
            while v not in retained:
                nxt = out_by[v][0]
                chain.append(nxt)
                v = arena.edges[nxt].dst
            counts = [0] * k
            for ce in chain:
                counts[arena.edges[ce].color - 1] += 1
            self.macros.append((e.src, v, tuple(chain), tuple(counts)))
        self.rate_rows = [[rates.den * counts[a] - p * len(chain)
                           for _, _, chain, counts in self.macros]
                          for a, p in enumerate(rates.nums)]
        # a cycle's rate of a color is a length-weighted mean of its
        # chains' rates: no load meets a row of one strict sign
        self.screened = any(min(row) > 0 or max(row) < 0
                            for row in self.rate_rows)

    @cached_property
    def factored(self) -> FactoredRows:
        """Flow conservation per retained node, then k - 1 rate rows,
        factored once per problem."""
        flow = {v: [0] * len(self.macros) for v in self.retained}
        for mi, (src, dst, _, _) in enumerate(self.macros):
            flow[dst][mi] += 1
            flow[src][mi] -= 1
        return factor_rows(len(self.macros), [
            Constraint.integral(row, "=") for row in
            [*map(flow.get, self.retained), *self.rate_rows[:-1]]])

    def system(self, cover: set[int] | None = None) -> LinearSystem:
        """The contracted load system, starting from the factored rows.
        Without ``cover`` it is normalized like
        ``build_color_limit_system``; with a set of macro indices the row
        sum_{m in cover} y_m >= 1 is emitted instead."""
        if cover is None:
            row = Constraint.integral(
                [len(chain) for _, _, chain, _ in self.macros], "=", 1)
        else:
            row = Constraint.integral(
                [int(mi in cover) for mi in range(len(self.macros))], ">=", 1)
        return LinearSystem(len(self.macros), [*self.factored.rows, row],
                            nonneg=True, start=self.factored)

    def solve(self, cover: set[int] | None = None) -> list[int] | None:
        """Primitive integer macro loads of a feasible solution, or None;
        None without a solve when the rate screen shows infeasibility.

        The assignment is scaled by the lcm of its denominators, which
        keeps every homogeneous row satisfied.  Under the normalization
        row that vector is already primitive, so witnesses are those of
        the rational solution scaled once.
        """
        if self.screened:
            return None
        result = solve_feasibility(self.system(cover))
        if not result.feasible:
            return None
        scale = lcm(*(v.denominator for v in result.assignment))
        loads = [v.numerator * (scale // v.denominator)
                 for v in result.assignment]
        g = gcd(*loads)
        return [v // g for v in loads] if g > 1 else loads

    def expand(self, macro_loads: Sequence[int]) -> dict[int, int]:
        """Per-edge loads, each chain edge carrying its macro's load;
        zero loads are left out."""
        return {eid: v for (_, _, chain, _), v in zip(self.macros, macro_loads)
                if v for eid in chain}


# --- circulations, loops, walks ---------------------------------------------


@dataclass(frozen=True)
class Circulation:
    """Nonnegative integer edge loads with conserved flow; zero loads are
    stored implicitly."""

    loads: dict[int, int]

    def __post_init__(self):
        for eid, v in self.loads.items():
            if not isinstance(v, int) or v <= 0:
                raise ContractError(f"load of edge {eid} must be a positive "
                                    f"integer, got {v!r}")
        if not self.loads:
            raise ContractError("a circulation needs a positive entry")

    def total(self) -> int:
        return sum(self.loads.values())


@dataclass(frozen=True)
class LoopSet:
    """Simple loops with positive multiplicities, all inside one strongly
    connected component."""

    loops: tuple[tuple[FinitePath, int], ...]

    def total_length(self) -> int:
        return sum(c * len(p) for p, c in self.loops)

    def combined_counts(self, k: int) -> list[int]:
        counts = [0] * k
        for path, c in self.loops:
            for col in path.colors():
                counts[col - 1] += c
        return counts


@dataclass(frozen=True)
class GraphDecision:
    exists: bool
    witness: LoopSet | FinitePath | None = None


def _check_conservation(arena: ColoredArena, circ: Circulation) -> None:
    net: dict[str, int] = {}
    for eid, v in circ.loads.items():
        e = arena.edges[eid]
        net[e.src] = net.get(e.src, 0) - v
        net[e.dst] = net.get(e.dst, 0) + v
    bad = [n for n, d in net.items() if d != 0]
    if bad:
        raise ContractError(f"flow not conserved at {sorted(bad)}")


def decompose_circulation(arena: ColoredArena, circ: Circulation) -> LoopSet:
    """Split an integer circulation into simple loops whose multiplicity
    sum reproduces the loads exactly.

    Walks extend along the surviving outgoing edge of smallest index and
    a loop is cut as soon as a node repeats, so the output is
    deterministic.
    """
    _check_conservation(arena, circ)
    # conserved flow lies on cycles, so every support edge is internal
    # to a component of the arena
    group_of = {eid: gi for gi, group in enumerate(
        edge_components(arena, range(len(arena.edges)))) for eid in group}
    if len({group_of[eid] for eid in circ.loads}) > 1:
        raise ContractError("circulation support spans several strongly "
                            "connected components")
    remaining = dict(circ.loads)
    out_by: dict[str, list[int]] = {}
    for eid in sorted(circ.loads):
        out_by.setdefault(arena.edges[eid].src, []).append(eid)

    def next_out(node: str) -> int:
        for eid in out_by.get(node, ()):
            if remaining.get(eid, 0) > 0:
                return eid
        raise InternalCheckError(f"walk stranded at {node!r}")

    found: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    budget = circ.total()
    while remaining:
        eid = min(remaining)
        start = arena.edges[eid].src
        walk_nodes = [start]
        pos = {start: 0}
        walk_edges: list[int] = []
        while True:
            remaining[eid] -= 1
            if remaining[eid] == 0:
                del remaining[eid]
            walk_edges.append(eid)
            budget -= 1
            if budget < 0:
                raise InternalCheckError("decomposition exceeded total load")
            cur = arena.edges[eid].dst
            at = pos.get(cur)
            if at is None:
                pos[cur] = len(walk_nodes)
                walk_nodes.append(cur)
            else:
                cycle = walk_edges[at:]
                shift = cycle.index(min(cycle))
                canon = tuple(cycle[shift:] + cycle[:shift])
                if canon not in found:
                    found[canon] = 0
                    order.append(canon)
                found[canon] += 1
                del walk_edges[at:]
                for node in walk_nodes[at + 1:]:
                    del pos[node]
                del walk_nodes[at + 1:]
                if not walk_edges:
                    break
            eid = next_out(cur)
    loops = []
    for canon in order:
        path = FinitePath(arena.edges[eid] for eid in canon)
        if not path.is_simple_cycle():
            raise InternalCheckError("extracted loop is not simple")
        loops.append((path, found[canon]))
    total = sum(c * len(p) for p, c in loops)
    if total != circ.total():
        raise InternalCheckError("loop multiplicities do not sum to the "
                                 "circulation")
    return LoopSet(tuple(loops))


def eulerian_circuit(arena: ColoredArena, circ: Circulation) -> FinitePath:
    """Closed walk traversing each edge exactly as often as its load
    (Hierholzer's algorithm on the multigraph).  Under conserved flow
    the walk from the support's first node misses edges exactly when the
    support is not connected."""
    _check_conservation(arena, circ)
    first = min((arena.edges[eid].src for eid in circ.loads),
                key=arena.node_index.__getitem__)
    remaining = dict(circ.loads)
    out_by: dict[str, list[int]] = {}
    for eid in sorted(circ.loads):
        out_by.setdefault(arena.edges[eid].src, []).append(eid)
    cursor: dict[str, int] = {v: 0 for v in out_by}

    def take(node: str) -> int | None:
        lst = out_by.get(node, ())
        i = cursor.get(node, 0)
        while i < len(lst) and remaining.get(lst[i], 0) == 0:
            i += 1
        cursor[node] = i
        if i == len(lst):
            return None
        eid = lst[i]
        remaining[eid] -= 1
        return eid

    node_stack = [first]
    edge_stack: list[int] = []
    out: list[int] = []
    while node_stack:
        eid = take(node_stack[-1])
        if eid is None:
            node_stack.pop()
            if edge_stack:
                out.append(edge_stack.pop())
        else:
            node_stack.append(arena.edges[eid].dst)
            edge_stack.append(eid)
    out.reverse()
    if len(out) != circ.total():
        raise ContractError("circulation support is not connected")
    walk = FinitePath(arena.edges[eid] for eid in out)
    if not walk.is_cycle():
        raise InternalCheckError("Euler walk is not closed")
    return walk


# --- witness verification ---------------------------------------------------


def loop_ratio_matches(loop_set: LoopSet, rates: FrequencyVector) -> bool:
    """Exact check that the combined loop counts grow at the target
    rates: q * sum_i c_i * count_a(loop_i) == p_a * sum_i c_i * |loop_i|
    for every color a, with r_a = p_a / q."""
    counts = loop_set.combined_counts(rates.k)
    total = loop_set.total_length()
    return total > 0 and all(rates.den * c == p * total
                             for c, p in zip(counts, rates.nums))


def is_zero_diff_cycle(path: FinitePath, k: int) -> bool:
    if not path.is_cycle():
        return False
    counts = color_counts(path.colors(), k)
    return all(c == counts[0] for c in counts)


# --- canonical forms and the decision cache ---------------------------------


def reachable_canonical_form(arena: ColoredArena,
                             choice: dict[str, int] | None = None):
    """Relabel the part of the arena reachable from its initial node by a
    breadth-first traversal with color-sorted adjacency.

    Equal forms imply isomorphic reachable subgraphs (label 0 is the
    initial node, colors are preserved), so decisions and witnesses
    transfer between arenas with equal forms through the returned edge
    order.

    ``choice`` maps nodes to the one outgoing edge kept there, as
    ``MemorylessStrategy.as_dict()`` does for player-1 nodes.  The form
    is then that of ``games.prune(arena, strategy)``, and the order lists
    the same edges by their ids in ``arena``: pruning keeps edges in
    parent order, so every tie-break by edge index agrees.
    """
    nodes, out_ids = arena.nodes, arena.out_ids
    dst_of, color_of = arena.edge_dst, arena.edge_color
    queue = [arena.node_index[arena.initial]]
    label = [-1] * len(nodes)
    label[queue[0]] = 0
    rows: list[tuple[int, int, int, int]] = []
    for u in queue:  # the queue grows while it is read: breadth-first
        src = label[u]
        eid = choice.get(nodes[u].id) if choice else None
        if eid is None:
            outs = out_ids[u]
            if len(outs) > 1:  # stable: color, then edge index
                outs = sorted(outs, key=color_of.__getitem__)
        elif arena.edges[eid].src != nodes[u].id:
            raise ContractError(
                f"choice maps {nodes[u].id!r} to a foreign edge")
        else:
            outs = (eid,)
        for i in outs:
            v = dst_of[i]
            dst = label[v]
            if dst < 0:
                dst = label[v] = len(queue)
                queue.append(v)
            rows.append((src, color_of[i], dst, i))
    # BFS order is not yet canonical: same-color edges of one node sort
    # by their targets' final labels
    rows.sort()
    key = (arena.k, len(queue), tuple(map(_TRIPLE, rows)))
    return key, list(map(_EDGE_ID, rows))


_TRIPLE = itemgetter(0, 1, 2)
_EDGE_ID = itemgetter(3)


def _edge_position_by_value(arena, order):
    """Map an edge value to its first position in the canonical order.

    Parallel edges with equal (src, color, dst) are interchangeable in
    every decision and witness property, so collapsing them is sound.
    """
    pos: dict[tuple, int] = {}
    for i, eid in enumerate(order):
        e = arena.edges[eid]
        pos.setdefault((e.src, e.color, e.dst), i)
    return pos


def decision_key_prefix(rates: FrequencyVector | None) -> tuple:
    """Cache-key head for a goal's target rates, ``None`` standing for
    the bounded goal; the canonical form completes the key."""
    return ("bounded",) if rates is None else ("limit", rates.values)


def cached_decision(cache: dict, key: tuple, arena: ColoredArena, order,
                    rates: FrequencyVector | None, compute) -> GraphDecision:
    """The decision stored under ``key``, or ``compute()`` stored there.

    ``order`` is the canonical edge order of the graph decided, by edge
    ids in ``arena``.  A hit is restored onto those edges and re-checked
    exactly; a miss stores the computed witness by canonical positions.
    ``rates`` is the goal's target rates, ``None`` for the bounded goal.
    """
    stored = cache.get(key)
    if stored is not None:
        if rates is None:
            return _restore_bounded_decision(arena, order, stored)
        return _restore_limit_decision(arena, order, stored, rates)
    decision = compute()
    cache[key] = _store_decision(arena, order, decision)
    return decision


def _decide_limit_path(arena: ColoredArena, rates: FrequencyVector,
                       cache: dict | None) -> GraphDecision:
    if cache is None:
        return _compute_limit_path(arena, rates)
    ckey, order = reachable_canonical_form(arena)
    return cached_decision(cache, (*decision_key_prefix(rates), ckey), arena,
                           order, rates,
                           lambda: _compute_limit_path(arena, rates))


def _compute_limit_path(arena: ColoredArena,
                        rates: FrequencyVector) -> GraphDecision:
    for edge_ids in edge_components(arena, _reachable_edge_ids(arena)):
        problem = _LimitProblem(arena, edge_ids, rates)
        loads = problem.solve()
        if loads is None:
            continue
        circ = Circulation(problem.expand(loads))
        loop_set = decompose_circulation(arena, circ)
        if not loop_ratio_matches(loop_set, rates):
            raise InternalCheckError("loop set does not match the target "
                                     "rates")
        return GraphDecision(True, loop_set)
    return GraphDecision(False)


def _store_decision(arena, order, decision):
    """Witness edges as positions in the canonical order: per loop for a
    loop set, along the walk for a bounded witness."""
    if not decision.exists:
        return (False, None)
    pos = _edge_position_by_value(arena, order)

    def positions(path):
        return tuple(pos[(e.src, e.color, e.dst)] for e in path.edges)
    witness = decision.witness
    if isinstance(witness, LoopSet):
        return (True, tuple((positions(path), c)
                            for path, c in witness.loops))
    return (True, positions(witness))


def _restore_limit_decision(arena, order, stored, rates):
    exists, payload = stored
    if not exists:
        return GraphDecision(False)
    loops = tuple(
        (FinitePath(arena.edges[order[i]] for i in positions), c)
        for positions, c in payload)
    loop_set = LoopSet(loops)
    for path, _ in loop_set.loops:
        if not path.is_simple_cycle():
            raise InternalCheckError("cached loop is not a simple cycle")
    if not loop_ratio_matches(loop_set, rates):
        raise InternalCheckError("cached loop set does not match the target "
                                 "rates")
    return GraphDecision(True, loop_set)


def decide_frequency_path(arena: ColoredArena, freq: FrequencyVector,
                          cache: dict | None = None) -> GraphDecision:
    """Does some infinite path from the initial node realize exactly the
    given per-color frequencies?"""
    return _decide_limit_path(arena, Goal.frequency(freq).rates(arena.k),
                              cache)


def decide_balanced_path(arena: ColoredArena,
                         cache: dict | None = None) -> GraphDecision:
    """Balanced is the uniform-frequency special case 1/k per color."""
    return _decide_limit_path(arena, FrequencyVector.uniform(arena.k), cache)


# --- bounded difference ------------------------------------------------------


def decide_bounded_path(arena: ColoredArena,
                        cache: dict | None = None) -> GraphDecision:
    """Does some infinite path keep all pairwise color differences
    bounded?  Equivalent to a reachable closed walk with zero difference
    matrix, repeated forever."""
    if cache is None:
        return _compute_bounded_path(arena)
    ckey, order = reachable_canonical_form(arena)
    return cached_decision(cache, (*decision_key_prefix(None), ckey), arena,
                           order, None, lambda: _compute_bounded_path(arena))


def _restore_bounded_decision(arena, order, stored):
    exists, payload = stored
    if not exists:
        return GraphDecision(False)
    walk = FinitePath(arena.edges[order[i]] for i in payload)
    if not is_zero_diff_cycle(walk, arena.k):
        raise InternalCheckError("cached walk lost the zero-difference "
                                 "property")
    return GraphDecision(True, walk)


def _compute_bounded_path(arena: ColoredArena) -> GraphDecision:
    zero = FrequencyVector.uniform(arena.k)
    for edge_ids in edge_components(arena, _reachable_edge_ids(arena)):
        walk = _zero_diff_component_walk(arena, edge_ids, zero)
        if walk is not None:
            if not is_zero_diff_cycle(walk, arena.k):
                raise InternalCheckError("witness walk has nonzero "
                                         "difference matrix")
            return GraphDecision(True, walk)
    return GraphDecision(False)


def _zero_diff_component_walk(arena, edge_ids, zero):
    """Support pruning: an edge survives iff some zero-difference
    circulation over the current edges gives it positive load.

    Per group, each solve carries one cover row over the chains no
    solution has loaded yet, so a feasible solve loads at least one of
    them and an infeasible one prunes all of them: at most (surviving
    chains + 1) solves per group and round.  The surviving set shrinks
    strictly each round, so at most |E| rounds.  When every chain of a
    group is loaded, the sum of the round's solutions is a full-support
    zero-difference circulation and its Eulerian circuit is the walk.
    The component's edges are strongly connected, so round 1 has one
    group; later rounds take the survivors' components smallest edge first.
    """
    groups = [edge_ids]
    for _ in range(len(edge_ids) + 1):
        kept: list[int] = []
        for group in groups:
            problem = _LimitProblem(arena, group, zero)
            uncovered = set(range(len(problem.macros)))
            total = [0] * len(problem.macros)
            while uncovered:
                loads = problem.solve(cover=uncovered)
                if loads is None:
                    break
                for mi, v in enumerate(loads):
                    if v:
                        total[mi] += v
                        uncovered.discard(mi)
            survivors = problem.expand(total)
            if not uncovered:
                return eulerian_circuit(arena, Circulation(survivors))
            kept.extend(survivors)
        if not kept:
            return None
        groups = sorted(edge_components(arena, kept), key=itemgetter(0))
    raise InternalCheckError("support pruning failed to converge")

