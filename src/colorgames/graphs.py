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
walks: each group of edges first asks for one zero-difference
circulation that loads all of its chains, whose Eulerian circuit is the
witness walk; failing that, edges that cannot carry load in any
zero-difference circulation are pruned and the survivors regrouped.

The deciders are pure.  ``cached_decision`` is the one cache entry: it
keys a decision by the goal's rates and the canonical form of the
arena's contracted graph, where each desugared chain is one edge.
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
    src, dst = arena.edge_src, arena.edge_dst
    succ: list[list[int]] = [[] for _ in arena.node_ids]
    for eid in edge_ids:
        succ[src[eid]].append(dst[eid])
    comp_of = [0] * len(succ)
    smallest = []
    for ci, comp in enumerate(_tarjan(len(succ), succ)):
        smallest.append(min(comp))
        for v in comp:
            comp_of[v] = ci
    groups: dict[int, list[int]] = {}
    for eid in edge_ids:
        ci = comp_of[src[eid]]
        if comp_of[dst[eid]] == ci:
            groups.setdefault(ci, []).append(eid)
    return [groups[ci] for ci in sorted(groups, key=smallest.__getitem__)]


def _reachable_edge_ids(arena: ColoredArena,
                        choice: dict[int, int] | None = None) -> list[int]:
    """Edges whose source is reachable from the initial node, by BFS; at
    a node position that ``choice`` maps to an edge id, only that edge."""
    queue = [arena.node_index[arena.initial]]
    seen = set(queue)
    out_ids, dst_of = arena.out_ids, arena.edge_dst
    out: list[int] = []
    for u in queue:  # the queue grows while it is read: breadth-first
        for eid in ((choice[u],) if choice and u in choice else out_ids[u]):
            out.append(eid)
            v = dst_of[eid]
            if v not in seen:
                seen.add(v)
                queue.append(v)
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
        src, dst, color = arena.edge_src, arena.edge_dst, arena.edge_color
        indeg: dict[int, int] = {}
        outdeg: dict[int, int] = {}
        out_by: dict[int, list[int]] = {}
        for eid in self.edge_ids:
            u, v = src[eid], dst[eid]
            outdeg[u] = outdeg.get(u, 0) + 1
            indeg[v] = indeg.get(v, 0) + 1
            out_by.setdefault(u, []).append(eid)
        nodes = outdeg.keys() | indeg.keys()
        retained = {v for v in nodes
                    if indeg.get(v, 0) != 1 or outdeg.get(v, 0) != 1
                    } or {min(nodes)}
        self.retained = sorted(retained)  # node positions, in index order
        self.macros: list[tuple[int, int, tuple, tuple]] = []
        for eid in self.edge_ids:
            if src[eid] not in retained:
                continue
            chain = [eid]
            v = dst[eid]
            while v not in retained:
                nxt = out_by[v][0]
                chain.append(nxt)
                v = dst[nxt]
            counts = [0] * k
            for ce in chain:
                counts[color[ce] - 1] += 1
            self.macros.append((src[eid], v, tuple(chain), tuple(counts)))
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
        return _primitive_loads(result.assignment) if result.feasible else None

    def solve_full_support(self) -> list[int] | None:
        """Primitive integer macro loads with every chain loaded, or None
        (without a solve when screened): loads y = u + t*1, u >= 0, and
        the row t = 1.  Each factored row gains its entry sum as column t,
        which is the factored form of the extended rows as elimination is
        linear; t is nonbasic, so the basis stays feasible at zero."""
        if self.screened:
            return None
        n, f = len(self.macros), self.factored
        start = FactoredRows(n + 1, tuple(
            Constraint.integral([*con.coeffs, sum(con.coeffs)], "=")
            for con in f.rows),
            tuple([*row, sum(row)] for row in f.tableau), f.basis)
        result = solve_feasibility(LinearSystem(
            n + 1, [*start.rows, Constraint.integral([0] * n + [1], "=", 1)],
            nonneg=True, start=start))
        if not result.feasible:
            return None
        *u, t = result.assignment
        return _primitive_loads([v + t for v in u])

    def expand(self, macro_loads: Sequence[int]) -> dict[int, int]:
        """Per-edge loads, each chain edge carrying its macro's load;
        zero loads are left out."""
        return {eid: v for (_, _, chain, _), v in zip(self.macros, macro_loads)
                if v for eid in chain}


def _primitive_loads(assignment: Sequence[Fraction]) -> list[int]:
    """Scaled by the lcm of the denominators, then divided by the gcd."""
    scale = lcm(*(v.denominator for v in assignment))
    loads = [v.numerator * (scale // v.denominator) for v in assignment]
    g = gcd(*loads)
    return [v // g for v in loads] if g > 1 else loads


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
    edge_ids = range(len(arena.edge_src))
    net: dict[str, int] = {}
    for eid, v in circ.loads.items():
        if eid not in edge_ids:
            raise ContractError(f"edge id {eid!r} is outside "
                                f"0..{len(edge_ids) - 1}")
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
        edge_components(arena, range(len(arena.edge_src)))) for eid in group}
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
    """Relabel the part of the arena's contracted graph reachable from
    its initial node by a breadth-first traversal with color-sorted
    adjacency; a chain is one row ``(src, 0, dst)`` and is listed in the
    order by its head's edge id.

    Equal forms imply isomorphic reachable subgraphs, contracted and
    expanded (label 0 is the initial node, colors are preserved, k is in
    the key), so decisions and witnesses transfer between arenas with
    equal forms through the returned edge order.

    ``choice`` maps nodes to the one outgoing edge kept there, as
    ``MemorylessStrategy.as_dict()`` does for player-1 nodes.  The form
    is then that of ``games.prune(arena, strategy)``, and the order lists
    the same edges by their ids in ``arena``: pruning keeps edges in
    parent order, so every tie-break by edge index agrees.
    """
    graph = arena.contracted
    node_ids, out_ids = graph.node_ids, graph.out_ids
    dst_of, color_of = graph.edge_dst, graph.edge_color
    queue = [graph.node_index[arena.initial]]
    label = [-1] * len(node_ids)
    label[queue[0]] = 0
    rows: list[tuple[int, int, int, int]] = []
    for u in queue:  # the queue grows while it is read: breadth-first
        src = label[u]
        eid = choice.get(node_ids[u]) if choice else None
        if eid is None:
            outs = out_ids[u]
            if len(outs) > 1:  # stable: color, then edge index
                outs = sorted(outs, key=color_of.__getitem__)
        elif eid not in out_ids[u]:
            raise ContractError(
                f"choice maps {node_ids[u]!r} to a foreign edge")
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


def decision_key_prefix(rates: FrequencyVector | None) -> tuple:
    """Cache-key head for a goal's target rates, ``None`` standing for
    the bounded goal; the canonical form completes the key."""
    return ("bounded",) if rates is None else ("limit", rates.values)


def cached_decision(cache: dict, arena: ColoredArena,
                    rates: FrequencyVector | None, compute,
                    choice: dict[str, int] | None = None,
                    witness: bool = True) -> GraphDecision:
    """The decision stored in ``cache`` for the graph that ``arena``
    reaches under ``choice``, or ``compute()`` stored there; keyed by the
    goal's target ``rates`` (``None`` for bounded) and the graph's
    canonical form (see ``reachable_canonical_form``).

    A hit is restored onto the canonical edge order and re-checked
    exactly on the contracted graph, so it expands no chain; without
    ``witness`` it carries the verdict alone.  With ``witness`` the
    checked edges are expanded into records, and each loop and the
    bounded walk start at a node of the file, never inside a chain.  A
    miss stores the computed witness by canonical positions.
    """
    ckey, order = reachable_canonical_form(arena, choice)
    key = (*decision_key_prefix(rates), ckey)
    stored = cache.get(key)
    if stored is None:
        decision = compute()
        cache[key] = _store_decision(arena, order, decision)
        return decision
    found = _checked_hit(arena, order, stored, rates)
    if found is None or not witness:
        return GraphDecision(found is not None)
    edges, k, color = arena.edges, arena.k, arena.contracted.edge_color

    def path(ids):  # a chain's k edges follow from its head id
        return FinitePath(edges[j] for i in ids for j in (
            range(i, i + k) if color[i] == 0 else (i,)))
    if rates is None:
        return GraphDecision(True, path(found))
    return GraphDecision(True, LoopSet(tuple(
        (path(ids), c) for ids, c in found)))


def _checked_hit(arena, order, stored, rates):
    """A stored witness as edge ids of ``arena``'s contracted graph,
    checked exactly on it, or None for a stored "no".  The bounded walk,
    and each loop of a loop set, must be a nonempty closed walk, each
    loop simple; the color counts, summed with the loops' multiplicities,
    must grow at the target rates, or at equal rates for the bounded
    walk.  A chain counts k edges and one of every color, and a loop is
    simple iff its expansion is."""
    exists, payload = stored
    if not exists:
        return None
    loops = rates is not None
    graph = arena.contracted
    src, dst, color = graph.edge_src, graph.edge_dst, graph.edge_color
    counts, total, found = [0] * (arena.k + 1), 0, []
    for positions, times in payload if loops else [(payload, 1)]:
        ids = [order[i] for i in positions]
        starts = [src[i] for i in ids]
        ends = [dst[i] for i in ids]
        if not ids or ends[-1:] + ends[:-1] != starts:
            raise InternalCheckError("cached walk is not closed")
        if loops and len(set(starts)) < len(ids):
            raise InternalCheckError("cached loop is not a simple cycle")
        for i in ids:
            counts[color[i]] += times
        total += times * len(ids)
        found.append((ids, times))
    chains = counts[0]  # marker color 0
    total += (arena.k - 1) * chains
    rates = rates or FrequencyVector.uniform(arena.k)
    if total <= 0 or any(rates.den * (n + chains) != p * total
                         for n, p in zip(counts[1:], rates.nums)):
        raise InternalCheckError("cached witness does not match the goal's "
                                 "rates")
    return found if loops else found[0][0]


def _store_decision(arena, order, decision):
    """Witness edges as positions in the canonical order: per loop for a
    loop set, along the walk for a bounded witness.  Parallel edges with
    equal (source, color, target) are interchangeable in every decision
    and witness property, so each maps to the first such position.  A
    chain is stored by its head, and the edges that leave chain nodes
    are dropped, so each stored walk starts at a node of the file."""
    if not decision.exists:
        return (False, None)
    src, color, dst = arena.edge_src, arena.edge_color, arena.edge_dst
    pos: dict[tuple, int] = {}
    for i, eid in enumerate(order):
        pos.setdefault((src[eid], color[eid], dst[eid]), i)
    index, files = arena.node_index, len(arena.contracted.node_ids)

    def positions(path):
        rows = [(index[e.src], e.color, index[e.dst]) for e in path.edges]
        return tuple(pos[row] for row in rows if row[0] < files)
    witness = decision.witness
    if isinstance(witness, LoopSet):
        return (True, tuple((positions(path), c)
                            for path, c in witness.loops))
    return (True, positions(witness))


# --- the deciders -----------------------------------------------------------


def decide_frequency_path(arena: ColoredArena,
                          freq: FrequencyVector) -> GraphDecision:
    """Does some infinite path from the initial node realize exactly the
    given per-color frequencies?"""
    return _compute_path(arena, Goal.frequency(freq).rates(arena.k))


def decide_balanced_path(arena: ColoredArena) -> GraphDecision:
    """Balanced is the uniform-frequency special case 1/k per color."""
    return _compute_path(arena, FrequencyVector.uniform(arena.k))


def decide_bounded_path(arena: ColoredArena) -> GraphDecision:
    """Does some infinite path keep all pairwise color differences
    bounded?  Equivalent to a reachable closed walk with zero difference
    matrix, repeated forever."""
    return _compute_path(arena, None)


def _compute_path(arena: ColoredArena,
                  rates: FrequencyVector | None) -> GraphDecision:
    """The first reachable component's witness: loops at the target
    rates, or a zero-difference closed walk when ``rates`` is None."""
    for edge_ids in edge_components(arena, _reachable_edge_ids(arena)):
        if rates is None:
            walk = _zero_diff_component_walk(
                arena, edge_ids, FrequencyVector.uniform(arena.k))
            if walk is None:
                continue
            if not is_zero_diff_cycle(walk, arena.k):
                raise InternalCheckError("witness walk has nonzero "
                                         "difference matrix")
            return GraphDecision(True, walk)
        problem = _LimitProblem(arena, edge_ids, rates)
        loads = problem.solve()
        if loads is None:
            continue
        loop_set = decompose_circulation(arena,
                                         Circulation(problem.expand(loads)))
        if not loop_ratio_matches(loop_set, rates):
            raise InternalCheckError("loop set does not match the target "
                                     "rates")
        return GraphDecision(True, loop_set)
    return GraphDecision(False)


def _zero_diff_component_walk(arena, edge_ids, zero):
    """Support pruning: an edge survives iff some zero-difference
    circulation over the current edges gives it positive load.

    Each group first takes one full-support solve.  When it is feasible,
    its loads load every chain and their Eulerian circuit is the walk:
    one solve for the group.  Otherwise some chain cannot be loaded, and
    the cover loop finds the survivors: each solve carries one cover row
    over the chains no solution has loaded yet, so a feasible solve
    loads at least one of them and an infeasible one, which must come,
    prunes all of them.  That is at most (surviving chains + 2) solves
    per group and round.  The surviving set shrinks strictly each round,
    so at most |E| rounds.  The component's edges are strongly
    connected, so round 1 has one group; later rounds take the
    survivors' components smallest edge first.
    """
    groups = [edge_ids]
    for _ in range(len(edge_ids) + 1):
        kept: list[int] = []
        for group in groups:
            problem = _LimitProblem(arena, group, zero)
            loads = problem.solve_full_support()
            if loads is not None:
                return eulerian_circuit(arena,
                                        Circulation(problem.expand(loads)))
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
            kept.extend(problem.expand(total))
        if not kept:
            return None
        groups = sorted(edge_components(arena, kept), key=itemgetter(0))
    raise InternalCheckError("support pruning failed to converge")

