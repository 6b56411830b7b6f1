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
zero-difference circulation are pruned and the survivors regrouped,
unless one group's survivors form one component, whose summed cover
loads are then the walk.

The deciders are pure and run on the arena's contracted graph, where
each desugared chain is one edge of length k with one of every color;
a witness stays edge ids there, checked exactly once, until a caller
asks for records.  ``cached_decision`` is the one cache entry: it keys
a decision by the goal's rates and the canonical form of the contracted
graph, and decides a miss on the edges that the form lists.
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
    """Iterative Tarjan; components come out in reverse topological order.
    A node without successors is visited only when some edge reaches it."""
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(num_nodes):
        if index[root] != -1 or not succ[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, out = work[-1]
            for w in out:  # resumes after the edge of v's last descent
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
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
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def edge_components(graph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Internal edge ids, ascending, of each strongly connected component
    of the subgraph the given edges span that has an internal edge;
    groups ordered by the component's smallest node index.  ``graph`` is
    an arena or a contracted graph (``ColoredArena.contracted``)."""
    edge_ids = sorted(edge_ids)
    src, dst = graph.edge_src, graph.edge_dst
    succ: list[list[int]] = [[] for _ in graph.node_ids]
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


def _reachable_edge_ids(arena: ColoredArena) -> list[int]:
    """Edges of the arena's contracted graph whose source is reachable
    from the initial node, by BFS."""
    graph = arena.contracted
    queue = [graph.node_index[arena.initial]]
    seen = set(queue)
    out_ids, dst_of = graph.out_ids, graph.edge_dst
    out: list[int] = []
    for u in queue:  # the queue grows while it is read: breadth-first
        for eid in out_ids[u]:
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
    nonnegativity (every column of a ``LinearSystem`` is), and positivity.

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
    system = LinearSystem(nvars)

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
    a; the k rows sum to zero, so the last is left out.  ``arena`` is an
    arena or a contracted graph, whose edges of marker color 0 count k
    edges and one of every color; k is that of the rates.
    """

    def __init__(self, arena, edge_ids: Sequence[int],
                 rates: FrequencyVector):
        self.arena = arena
        self.edge_ids = sorted(edge_ids)
        self.rates = rates
        k = rates.k
        src, dst, color = arena.edge_src, arena.edge_dst, arena.edge_color
        indeg: dict[int, int] = {}
        out_by: dict[int, list[int]] = {}
        for eid in self.edge_ids:
            out_by.setdefault(src[eid], []).append(eid)
            v = dst[eid]
            indeg[v] = indeg.get(v, 0) + 1
        nodes = out_by.keys() | indeg.keys()
        retained = {v for v in nodes
                    if indeg.get(v, 0) != 1 or len(out_by.get(v, ())) != 1
                    } or {min(nodes)}
        self.retained = sorted(retained)  # node positions, in index order
        self.macros: list[tuple] = []  # (src, dst, ids, counts, length)
        for eid in self.edge_ids:
            if src[eid] not in retained:
                continue
            chain = [eid]
            v = dst[eid]
            while v not in retained:
                nxt = out_by[v][0]
                chain.append(nxt)
                v = dst[nxt]
            counts = [0] * (k + 1)
            for ce in chain:
                counts[color[ce]] += 1
            units = counts[0]  # chains of the file, marker color 0
            self.macros.append((src[eid], v, chain, [
                n + units for n in counts[1:]], len(chain) + (k - 1) * units))
        self.rate_rows = [[rates.den * counts[a] - p * length
                           for _, _, _, counts, length in self.macros]
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
        for mi, (src, dst, *_) in enumerate(self.macros):
            flow[dst][mi] += 1
            flow[src][mi] -= 1
        return factor_rows(len(self.macros), [
            (row, "=", 0) for row in
            [*map(flow.get, self.retained), *self.rate_rows[:-1]]])

    def system(self, cover: set[int] | None = None) -> LinearSystem:
        """The contracted load system, starting from the factored rows.
        Without ``cover`` it is normalized like
        ``build_color_limit_system``; with a set of macro indices the row
        sum_{m in cover} y_m >= 1 is emitted instead."""
        if cover is None:
            row = ([length for *_, length in self.macros], "=", 1)
        else:
            row = ([int(mi in cover) for mi in range(len(self.macros))],
                   ">=", 1)
        return LinearSystem.integral(
            len(self.macros), [*self.factored.rows, row], self.factored)

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
            ([*a, sum(a)], "=", 0) for a, _, _ in f.rows),
            tuple([*row, sum(row)] for row in f.tableau), f.basis)
        result = solve_feasibility(LinearSystem.integral(
            n + 1, [*start.rows, ([0] * n + [1], "=", 1)], start))
        if not result.feasible:
            return None
        *u, t = result.assignment
        return _primitive_loads([v + t for v in u])

    def expand(self, macro_loads: Sequence[int]) -> dict[int, int]:
        """Per-edge loads, each chain edge carrying its macro's load;
        zero loads are left out."""
        return {eid: v for macro, v in zip(self.macros, macro_loads)
                if v for eid in macro[2]}


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


def _edge_loads(arena: ColoredArena, circ: Circulation) -> dict[int, int]:
    """The loads, each id checked against the arena's edge list."""
    n = len(arena.edge_src)
    for eid in circ.loads:
        if eid not in range(n):
            raise ContractError(f"edge id {eid!r} is outside 0..{n - 1}")
    return circ.loads


def _check_conservation(graph, loads: dict[int, int]) -> None:
    src, dst = graph.edge_src, graph.edge_dst
    net: dict[int, int] = {}
    for eid, v in loads.items():
        net[src[eid]] = net.get(src[eid], 0) - v
        net[dst[eid]] = net.get(dst[eid], 0) + v
    bad = [graph.node_ids[n] for n, d in net.items() if d != 0]
    if bad:
        raise ContractError(f"flow not conserved at {sorted(bad)}")


def decompose_circulation(arena: ColoredArena, circ: Circulation) -> LoopSet:
    """Split an integer circulation into simple loops whose multiplicity
    sum reproduces the loads exactly (see ``_loops``); its support must
    lie in one strongly connected component of the arena."""
    loads = _edge_loads(arena, circ)
    found = _loops(arena, loads)
    # _loops checked conservation, and conserved flow lies on cycles, so
    # every support edge is internal to a component of the arena
    group_of = {eid: gi for gi, group in enumerate(edge_components(
        arena, range(len(arena.edge_src)))) for eid in group}
    if len({group_of[eid] for eid in loads}) > 1:
        raise ContractError("circulation support spans several strongly "
                            "connected components")
    edges, loops = arena.edges, []
    for ids, times in found:
        path = FinitePath(map(edges.__getitem__, ids))
        if not path.is_simple_cycle():
            raise InternalCheckError("extracted loop is not simple")
        loops.append((path, times))
    return LoopSet(tuple(loops))


def _loops(graph, loads: dict[int, int]) -> list[tuple[tuple[int, ...], int]]:
    """Simple loops of ``graph`` as (edge ids, multiplicity), whose
    multiplicity sum reproduces the conserved integer loads exactly.

    Walks extend along the loaded outgoing edge of smallest id and a loop
    is cut as soon as a node repeats, so the output is deterministic.
    Walking on from the cut node would take the same edges round the
    loop while they stay loaded, so the loop takes its smallest load at
    once: each cut empties an edge, and the time does not grow with the
    loads (the flow decomposition theorem; Ahuja, Magnanti and Orlin,
    *Network Flows*, 1993, ch. 3).  The deciders hand over the loads of
    one component's edges, and ``_checked`` verifies the loops.
    """
    _check_conservation(graph, loads)
    src, dst = graph.edge_src, graph.edge_dst
    remaining = dict(loads)
    out_by: dict[int, list[int]] = {}
    for eid in sorted(loads):
        out_by.setdefault(src[eid], []).append(eid)

    def next_out(node: int) -> int:
        for eid in out_by.get(node, ()):
            if eid in remaining:
                return eid
        raise InternalCheckError(f"walk stranded at {graph.node_ids[node]!r}")

    found: dict[tuple[int, ...], int] = {}  # in order of first cut
    while remaining:
        eid = min(remaining)
        walk_nodes = [src[eid]]
        pos = {src[eid]: 0}
        walk_edges: list[int] = []
        while True:
            walk_edges.append(eid)
            cur = dst[eid]
            at = pos.get(cur)
            if at is None:
                pos[cur] = len(walk_nodes)
                walk_nodes.append(cur)
            else:
                cycle = walk_edges[at:]
                times = min(map(remaining.__getitem__, cycle))
                for e in cycle:
                    if remaining[e] == times:
                        del remaining[e]
                    else:
                        remaining[e] -= times
                shift = cycle.index(min(cycle))
                canon = tuple(cycle[shift:] + cycle[:shift])
                found[canon] = found.get(canon, 0) + times
                del walk_edges[at:]
                for node in walk_nodes[at + 1:]:
                    del pos[node]
                del walk_nodes[at + 1:]
                if not walk_edges:
                    break
            eid = next_out(cur)
    if sum(c * len(ids) for ids, c in found.items()) != sum(loads.values()):
        raise InternalCheckError("loop multiplicities do not sum to the "
                                 "circulation")
    return list(found.items())


def eulerian_circuit(arena: ColoredArena, circ: Circulation) -> FinitePath:
    """Closed walk traversing each edge exactly as often as its load
    (see ``_euler``)."""
    walk = FinitePath(map(arena.edges.__getitem__,
                          _euler(arena, _edge_loads(arena, circ))))
    if not walk.is_cycle():
        raise InternalCheckError("Euler walk is not closed")
    return walk


def _euler(graph, loads: dict[int, int]) -> list[int]:
    """Edge ids of a closed walk traversing each edge of ``graph``
    exactly as often as its load (Hierholzer's algorithm on the
    multigraph), from the support's first node; each node hands out its
    edges smallest id first.  Under conserved flow the walk misses edges
    exactly when the support is not connected."""
    _check_conservation(graph, loads)
    src, dst = graph.edge_src, graph.edge_dst
    todo: dict[int, list[int]] = {}  # per node, edges to walk, last first
    for eid in sorted(loads, reverse=True):
        todo.setdefault(src[eid], []).extend([eid] * loads[eid])
    node_stack = [min(todo)]
    edge_stack: list[int] = []
    out: list[int] = []
    while node_stack:
        edges = todo.get(node_stack[-1])
        if edges:
            eid = edges.pop()
            node_stack.append(dst[eid])
            edge_stack.append(eid)
        else:
            node_stack.pop()
            if edge_stack:
                out.append(edge_stack.pop())
    out.reverse()
    if len(out) != sum(loads.values()):
        raise ContractError("circulation support is not connected")
    return out


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
    """Cache-key head for a goal's target rates in their integer form,
    ``None`` standing for the bounded goal; the canonical form completes
    the key."""
    return ("bounded",) if rates is None else ("limit", rates.den, rates.nums)


def cached_decision(cache: dict, arena: ColoredArena,
                    rates: FrequencyVector | None,
                    choice: dict[str, int] | None = None,
                    witness: bool = True) -> GraphDecision:
    """The decision for the graph that ``arena`` reaches under
    ``choice``, stored in ``cache`` under the goal's target ``rates``
    (``None`` for bounded) and the graph's canonical form (see
    ``reachable_canonical_form``).

    A miss decides the edges that the canonical form lists, on the
    arena's contracted graph, and stores the witness by their canonical
    positions.  A stored witness, fresh or hit, is restored onto the
    canonical edge order and checked exactly on the contracted graph, so
    neither expands a chain; without ``witness`` the decision carries
    the verdict alone.  With ``witness`` the checked edges are expanded
    into records, and each loop and the bounded walk start at a node of
    the file, never inside a chain.
    """
    ckey, order = reachable_canonical_form(arena, choice)
    key = (*decision_key_prefix(rates), ckey)
    stored = cache.get(key)
    if stored is None:
        stored = cache[key] = _stored(arena, order, _decide(
            arena.contracted, order, rates, arena.k), rates is not None)
    found = _checked_hit(arena, order, stored, rates)
    return _decision(arena, found, rates) if witness \
        else GraphDecision(found is not None)


def _checked_hit(arena, order, stored, rates):
    """A stored witness as edge ids of ``arena``'s contracted graph,
    checked by ``_checked``, or None for a stored "no"."""
    exists, payload = stored
    if not exists:
        return None
    restore = order.__getitem__
    if rates is None:
        return _checked(arena, list(map(restore, payload)), None, "cached")
    return _checked(arena, [(list(map(restore, positions)), times)
                            for positions, times in payload], rates, "cached")


def _checked(arena, found, rates, source):
    """A witness of edge ids of ``arena``'s contracted graph, checked
    exactly there: the bounded walk, and each loop of a loop set, must
    be a nonempty closed walk, each loop simple; the color counts, summed
    with the loops' multiplicities, must grow at the target rates, or at
    equal rates for the bounded walk.  A chain counts k edges and one of
    every color, and a loop is simple iff its expansion is.  ``source``
    heads the error message."""
    if found is None:
        return None
    loops = rates is not None
    graph = arena.contracted
    src, dst, color = graph.edge_src, graph.edge_dst, graph.edge_color
    counts, total = [0] * (arena.k + 1), 0
    for ids, times in found if loops else [(found, 1)]:
        starts = list(map(src.__getitem__, ids))
        ends = list(map(dst.__getitem__, ids))
        if not ids or ends[-1:] + ends[:-1] != starts:
            raise InternalCheckError(f"{source} walk is not closed")
        if loops and len(set(starts)) < len(ids):
            raise InternalCheckError(f"{source} loop is not a simple cycle")
        for i in ids:
            counts[color[i]] += times
        total += times * len(ids)
    chains = counts[0]  # marker color 0
    total += (arena.k - 1) * chains
    rates = rates or FrequencyVector.uniform(arena.k)
    if total <= 0 or any(rates.den * (n + chains) != p * total
                         for n, p in zip(counts[1:], rates.nums)):
        raise InternalCheckError(f"{source} witness does not match the "
                                 "goal's rates")
    return found


def _stored(arena, order, found, loops):
    """A witness of edge ids of ``arena``'s contracted graph as positions
    in the canonical order: per loop for a loop set, along the walk for
    a bounded witness.  Parallel edges with equal (source, color,
    target) are interchangeable in every decision and witness property,
    so each maps to the first such position; a chain keeps its own,
    unless k = 1 makes it one edge of color 1."""
    if found is None:
        return (False, None)
    graph, k = arena.contracted, arena.k
    src, color, dst = graph.edge_src, graph.edge_color, graph.edge_dst

    def row(i):
        return (src[i], color[i] or 1, dst[i]) if color[i] or k == 1 else i
    pos: dict = {}
    first = {eid: pos.setdefault(row(eid), i) for i, eid in enumerate(order)}

    def positions(ids):
        return tuple(map(first.__getitem__, ids))
    if loops:
        return (True, tuple((positions(ids), c) for ids, c in found))
    return (True, positions(found))


def _decision(arena, found, rates) -> GraphDecision:
    """The decision of a checked witness, or of None, with its edges
    expanded into records: a chain's k edges follow from its head id."""
    if found is None:
        return GraphDecision(False)
    edges, k, color = arena.edges, arena.k, arena.contracted.edge_color

    def path(ids):
        return FinitePath(edges[j] for i in ids for j in (
            range(i, i + k) if color[i] == 0 else (i,)))
    return GraphDecision(True, path(found) if rates is None else LoopSet(
        tuple((path(ids), c) for ids, c in found)))


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
    graph = arena.contracted
    found = _decide(graph, _reachable_edge_ids(arena), rates, arena.k)
    return _decision(arena, _checked(arena, found, rates, "computed"), rates)


def _decide(graph, edge_ids, rates, k):
    """The first component's witness over the given edges of ``graph``
    (an arena or a contracted graph): (edge ids, multiplicity) loops at
    the target rates, or the edge ids of a zero-difference closed walk
    when ``rates`` is None; None when no component has one."""
    for group in edge_components(graph, edge_ids):
        if rates is None:
            walk = _zero_diff_component_walk(graph, group, k)
            if walk is not None:
                return walk
            continue
        problem = _LimitProblem(graph, group, rates)
        loads = problem.solve()
        if loads is not None:
            return _loops(graph, problem.expand(loads))
    return None


def _zero_diff_component_walk(graph, edge_ids, k):
    """Support pruning: an edge survives iff some zero-difference
    circulation over the current edges gives it positive load.

    Each group first takes one full-support solve.  When it is feasible,
    its loads load every chain and their Eulerian circuit is the walk:
    one solve for the group.  Otherwise some chain cannot be loaded, and
    the cover loop finds the survivors: each solve carries one cover row
    over the chains no solution has loaded yet, so a feasible solve
    loads at least one of them and an infeasible one, which must come,
    prunes all of them.  That is at most (surviving chains + 2) solves
    per group and round.  The sum of the cover solutions is a
    zero-difference circulation whose support is the survivors, so when
    a round's one group leaves survivors that form one component, the
    next round's full-support solve could not fail: that sum's Eulerian
    circuit is the walk.  The surviving set shrinks strictly each round,
    so at most |E| rounds.  The component's edges are strongly
    connected, so round 1 has one group; later rounds take the
    survivors' components smallest edge first.
    """
    zero = FrequencyVector.uniform(k)
    groups = [edge_ids]
    for _ in range(len(edge_ids) + 1):
        kept: list[int] = []
        for group in groups:
            problem = _LimitProblem(graph, group, zero)
            loads = problem.solve_full_support()
            if loads is not None:
                return _euler(graph, problem.expand(loads))
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
            summed = problem.expand(total)
            kept.extend(summed)
        if not kept:
            return None
        regrouped = edge_components(graph, kept)
        if len(groups) == len(regrouped) == 1 \
                and len(regrouped[0]) == len(kept):
            return _euler(graph, summed)
        groups = sorted(regrouped, key=itemgetter(0))
    raise InternalCheckError("support pruning failed to converge")
