"""One-player decisions on colored graphs.

Existence of an infinite path with prescribed per-color frequencies
reduces, per strongly connected component reachable from the initial
node, to exact feasibility of a load system over the component's edges:
flow conservation, pairwise color balance proportional to the target
rates, nonnegativity and a positive-total normalization.  A feasible
rational solution is rescaled to integers and decomposed into simple
loops, which form the verifiable witness.

Bounded-difference paths are decided through zero-difference closed
walks: edges that cannot carry load in any zero-difference circulation
are pruned until a self-supporting component remains, whose Eulerian
circuit is the witness walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .arena import (ColoredArena, ContractError, FinitePath, FrequencyVector,
                    color_counts)
# integer_scale is not called here; it stays importable because
# perfbench's tracer wraps graphs.integer_scale by name
from .lp import Constraint, LinearSystem, integer_scale, solve_feasibility


class InternalCheckError(RuntimeError):
    """A computed witness failed its own exact verification."""


# --- target rate matrices -------------------------------------------------


class LimitMatrix:
    """k x k rational matrix of target growth rates for pairwise color
    differences; entry (a, b) is the desired limit of
    diff_{a,b}(prefix) / len(prefix)."""

    __slots__ = ("k", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = tuple(tuple(Fraction(v) for v in r) for r in rows)
        self.k = len(self.rows)
        for r in self.rows:
            if len(r) != self.k:
                raise ContractError("limit matrix must be square")
        ref = [self.rows[a][self.k - 1] for a in range(self.k)]
        for a in range(self.k):
            for b in range(self.k):
                if self.rows[a][b] != ref[a] - ref[b]:
                    raise ContractError(
                        "limit matrix is not a pairwise-difference matrix")

    @classmethod
    def zero(cls, k: int) -> "LimitMatrix":
        z = Fraction(0)
        return cls([[z] * k for _ in range(k)])

    @classmethod
    def from_frequencies(cls, freq: FrequencyVector) -> "LimitMatrix":
        vals = list(freq)
        return cls([[fa - fb for fb in vals] for fa in vals])

    def entry(self, a: int, b: int) -> Fraction:
        """1-based access, matching color names."""
        return self.rows[a - 1][b - 1]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def key(self) -> tuple:
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other):
        return isinstance(other, LimitMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LimitMatrix({[list(r) for r in self.rows]})"


def frequency_to_limit(freq: FrequencyVector) -> LimitMatrix:
    return LimitMatrix.from_frequencies(freq)


# --- strongly connected components ----------------------------------------


@dataclass(frozen=True)
class SccResult:
    components: tuple[tuple[str, ...], ...]
    comp_of: dict[str, int]
    reachable: tuple[bool, ...]


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


def strongly_connected_components(arena: ColoredArena) -> SccResult:
    n = len(arena.nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    for e in arena.edges:
        succ[arena.node_index[e.src]].append(arena.node_index[e.dst])
    comps = _tarjan(n, succ)
    comp_of: dict[str, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[arena.nodes[v].id] = ci
    seen = [False] * n
    start = arena.node_index[arena.initial]
    seen[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    reachable = tuple(any(seen[v] for v in comp) for comp in comps)
    components = tuple(
        tuple(arena.nodes[v].id for v in sorted(comp)) for comp in comps)
    return SccResult(components, comp_of, reachable)


def _component_edge_ids(arena: ColoredArena, scc: SccResult) -> list[list[int]]:
    buckets: list[list[int]] = [[] for _ in scc.components]
    for eid, e in enumerate(arena.edges):
        ci = scc.comp_of[e.src]
        if scc.comp_of[e.dst] == ci:
            buckets[ci].append(eid)
    return buckets


def _component_order(arena: ColoredArena, scc: SccResult) -> list[int]:
    def smallest(ci):
        return min(arena.node_index[v] for v in scc.components[ci])
    return sorted(range(len(scc.components)), key=smallest)


# --- the load system --------------------------------------------------------


def build_color_limit_system(arena: ColoredArena, edge_ids: Sequence[int],
                             limit: LimitMatrix,
                             force_edge: int | None = None) -> LinearSystem:
    """Load system over the given edges: flow conservation per incident
    node, pairwise color balance proportional to the target rates,
    nonnegativity (as the system's column attribute), and positivity.

    Positivity of the total load is encoded as the normalization
    sum(x) = 1 (every other row is homogeneous, so solutions scale); when
    ``force_edge`` is given, the row x_e >= 1 is emitted instead.
    """
    if not edge_ids:
        raise ContractError("empty edge set")
    if limit.k != arena.k:
        raise ContractError("limit matrix arity does not match arena colors")
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
        system.add_constraint(_flow_row(incident[ni]))

    for a in range(1, arena.k + 1):
        for b in range(a + 1, arena.k + 1):
            l_ab = limit.entry(a, b)
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


def _flow_row(net: Sequence[int]) -> Constraint:
    """Conservation at one node; net entries are -1, 0 or 1."""
    return Constraint(tuple(_UNIT[v] for v in net), "=", _UNIT[0])


class _LimitProblem:
    """The same load system after collapsing unbranching chains.

    Interior nodes with in-degree and out-degree one force equal loads
    along a chain, so the chain becomes one variable carrying the chain's
    per-color counts.  Solutions expand back to per-edge loads exactly.
    """

    def __init__(self, arena: ColoredArena, edge_ids: Sequence[int],
                 limit: LimitMatrix):
        self.arena = arena
        self.edge_ids = sorted(edge_ids)
        self.limit = limit
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
        self._base_rows = self._build_base_rows(retained)

    def _build_base_rows(self, retained: set[str]) -> list[Constraint]:
        arena, k = self.arena, self.arena.k
        nvars = len(self.macros)
        rows: list[Constraint] = []
        flow: dict[str, list[int]] = {v: [0] * nvars for v in retained}
        for mi, (src, dst, _, _) in enumerate(self.macros):
            flow[dst][mi] += 1
            flow[src][mi] -= 1
        for v in sorted(retained, key=lambda v: arena.node_index[v]):
            rows.append(_flow_row(flow[v]))
        for a in range(k):
            for b in range(a + 1, k):
                # counts_a - counts_b - l_ab * len, over l_ab's denominator
                p, q = self.limit.rows[a][b].as_integer_ratio()
                rows.append(Constraint(tuple(
                    Fraction(q * (counts[a] - counts[b]) - p * len(chain), q)
                    for _, _, chain, counts in self.macros), "=", _UNIT[0]))
        return rows

    def system(self, cover: set[int] | None = None) -> LinearSystem:
        """The contracted load system.  Without ``cover`` it is normalized
        like ``build_color_limit_system``; with a set of macro indices the
        row sum_{m in cover} y_m >= 1 is emitted instead."""
        nvars = len(self.macros)
        system = LinearSystem(nvars, self._base_rows, nonneg=True)
        if cover is None:
            system.add([len(chain) for _, _, chain, _ in self.macros], "=", 1)
        else:
            system.add([int(mi in cover) for mi in range(nvars)], ">=", 1)
        return system

    def solve(self, cover: set[int] | None = None) -> list[int] | None:
        """Primitive integer macro loads of a feasible solution, or None.

        The assignment is scaled by the lcm of its denominators, which
        keeps every homogeneous row satisfied.  Under the normalization
        row that vector is already primitive, so witnesses are those of
        the rational solution scaled once.
        """
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
    scc: int | None = None

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
    scc = strongly_connected_components(arena)
    support_comps = {scc.comp_of[arena.edges[eid].src] for eid in circ.loads}
    support_comps |= {scc.comp_of[arena.edges[eid].dst] for eid in circ.loads}
    if len(support_comps) > 1:
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
    (Hierholzer's algorithm on the multigraph)."""
    net: dict[str, int] = {}
    for eid, v in circ.loads.items():
        e = arena.edges[eid]
        net[e.src] = net.get(e.src, 0) - v
        net[e.dst] = net.get(e.dst, 0) + v
    if any(d != 0 for d in net.values()):
        raise ContractError("in-degree and out-degree differ under loads")
    support_nodes = set(net)
    # weak connectivity of the support
    undirected: dict[str, set[str]] = {v: set() for v in support_nodes}
    for eid in circ.loads:
        e = arena.edges[eid]
        undirected[e.src].add(e.dst)
        undirected[e.dst].add(e.src)
    first = min(support_nodes, key=lambda v: arena.node_index[v])
    seen = {first}
    queue = deque([first])
    while queue:
        u = queue.popleft()
        for w in undirected[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if seen != support_nodes:
        raise ContractError("circulation support is not connected")

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
        raise InternalCheckError("Euler walk misses edges")
    walk = FinitePath(arena.edges[eid] for eid in out)
    if not walk.is_cycle():
        raise InternalCheckError("Euler walk is not closed")
    return walk


# --- witness verification ---------------------------------------------------


def loop_ratio_matches(loop_set: LoopSet, limit: LimitMatrix) -> bool:
    """Exact check that the combined loop counts grow at the target
    rates: sum_i c_i * diff(loop_i) == L * sum_i c_i * |loop_i|."""
    k = limit.k
    counts = loop_set.combined_counts(k)
    total = loop_set.total_length()
    if total <= 0:
        return False
    for a in range(k):
        for b in range(a + 1, k):
            if counts[a] - counts[b] != limit.rows[a][b] * total:
                return False
    return True


def is_zero_diff_cycle(path: FinitePath, k: int) -> bool:
    if not path.is_cycle():
        return False
    counts = color_counts(path.colors(), k)
    return all(c == counts[0] for c in counts)


# --- canonical forms and the decision cache ---------------------------------


def reachable_canonical_form(arena: ColoredArena):
    """Relabel the part of the arena reachable from its initial node by a
    breadth-first traversal with color-sorted adjacency.

    Equal forms imply isomorphic reachable subgraphs (label 0 is the
    initial node, colors are preserved), so decisions and witnesses
    transfer between arenas with equal forms through the returned edge
    order.
    """
    edges = arena.edges
    label: dict[str, int] = {arena.initial: 0}
    queue = deque([arena.initial])
    big = 1 << 30
    while queue:
        u = queue.popleft()
        outs = arena.out_edge_ids(u)
        ranked = sorted(outs, key=lambda i: (edges[i].color,
                                             label.get(edges[i].dst, big), i))
        for eid in ranked:
            dst = edges[eid].dst
            if dst not in label:
                label[dst] = len(label)
                queue.append(dst)
    reach = [eid for eid, e in enumerate(edges) if e.src in label]
    reach.sort(key=lambda i: (label[edges[i].src], edges[i].color,
                              label[edges[i].dst], i))
    key = (arena.k, len(label),
           tuple((label[edges[i].src], edges[i].color, label[edges[i].dst])
                 for i in reach))
    return key, reach


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


def _decide_limit_path(arena: ColoredArena, limit: LimitMatrix,
                       cache: dict | None) -> GraphDecision:
    if cache is None:
        return _compute_limit_path(arena, limit)
    ckey, order = reachable_canonical_form(arena)
    key = ("limit", limit.key(), ckey)
    hit = cache.get(key)
    if hit is not None:
        return _restore_limit_decision(arena, order, hit, limit)
    decision = _compute_limit_path(arena, limit)
    cache[key] = _store_limit_decision(arena, order, decision)
    return decision


def _compute_limit_path(arena: ColoredArena, limit: LimitMatrix) -> GraphDecision:
    if limit.k != arena.k:
        raise ContractError("limit arity does not match arena colors")
    scc = strongly_connected_components(arena)
    buckets = _component_edge_ids(arena, scc)
    for ci in _component_order(arena, scc):
        if not scc.reachable[ci] or not buckets[ci]:
            continue
        problem = _LimitProblem(arena, buckets[ci], limit)
        loads = problem.solve()
        if loads is None:
            continue
        circ = Circulation(problem.expand(loads))
        loop_set = replace(decompose_circulation(arena, circ), scc=ci)
        if not loop_ratio_matches(loop_set, limit):
            raise InternalCheckError("loop set does not match the target "
                                     "rates")
        return GraphDecision(True, loop_set)
    return GraphDecision(False)


def _store_limit_decision(arena, order, decision):
    if not decision.exists:
        return (False, None)
    pos = _edge_position_by_value(arena, order)
    loops = tuple(
        (tuple(pos[(e.src, e.color, e.dst)] for e in path.edges), c)
        for path, c in decision.witness.loops)
    return (True, loops)


def _restore_limit_decision(arena, order, stored, limit):
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
    if not loop_ratio_matches(loop_set, limit):
        raise InternalCheckError("cached loop set does not match the target "
                                 "rates")
    return GraphDecision(True, loop_set)


def decide_frequency_path(arena: ColoredArena, freq: FrequencyVector,
                          cache: dict | None = None) -> GraphDecision:
    """Does some infinite path from the initial node realize exactly the
    given per-color frequencies?"""
    if len(freq) != arena.k:
        raise ContractError(
            f"frequency vector has arity {len(freq)}, arena has {arena.k} "
            "colors")
    return _decide_limit_path(arena, frequency_to_limit(freq), cache)


def decide_balanced_path(arena: ColoredArena,
                         cache: dict | None = None) -> GraphDecision:
    """Balanced is the uniform-frequency special case 1/k per color."""
    return _decide_limit_path(arena, LimitMatrix.zero(arena.k), cache)


# --- bounded difference ------------------------------------------------------


def decide_bounded_path(arena: ColoredArena,
                        cache: dict | None = None) -> GraphDecision:
    """Does some infinite path keep all pairwise color differences
    bounded?  Equivalent to a reachable closed walk with zero difference
    matrix, repeated forever."""
    if cache is None:
        return _compute_bounded_path(arena)
    ckey, order = reachable_canonical_form(arena)
    key = ("bounded", ckey)
    hit = cache.get(key)
    if hit is not None:
        return _restore_bounded_decision(arena, order, hit)
    decision = _compute_bounded_path(arena)
    if decision.exists:
        pos = _edge_position_by_value(arena, order)
        payload = tuple(pos[(e.src, e.color, e.dst)]
                        for e in decision.witness.edges)
        cache[key] = (True, payload)
    else:
        cache[key] = (False, None)
    return decision


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
    zero = LimitMatrix.zero(arena.k)
    scc = strongly_connected_components(arena)
    buckets = _component_edge_ids(arena, scc)
    for ci in _component_order(arena, scc):
        if not scc.reachable[ci] or not buckets[ci]:
            continue
        walk = _zero_diff_component_walk(arena, sorted(buckets[ci]), zero)
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
    """
    current = list(edge_ids)
    for _ in range(len(edge_ids) + 1):
        if not current:
            return None
        new_current: list[int] = []
        for group in _edge_groups_by_scc(arena, current):
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
            new_current.extend(survivors)
        current = sorted(new_current)
    raise InternalCheckError("support pruning failed to converge")


def _edge_groups_by_scc(arena, edge_ids) -> list[list[int]]:
    """Internal edges of each strongly connected component of the
    subgraph spanned by the given edges; groups ordered by smallest edge."""
    nodes = sorted({n for eid in edge_ids
                    for n in (arena.edges[eid].src, arena.edges[eid].dst)},
                   key=lambda v: arena.node_index[v])
    local = {v: i for i, v in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for eid in edge_ids:
        e = arena.edges[eid]
        succ[local[e.src]].append(local[e.dst])
    comps = _tarjan(len(nodes), succ)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[nodes[v]] = ci
    groups: dict[int, list[int]] = {}
    for eid in sorted(edge_ids):
        e = arena.edges[eid]
        if comp_of[e.src] == comp_of[e.dst]:
            groups.setdefault(comp_of[e.src], []).append(eid)
    return sorted(groups.values(), key=lambda g: g[0])
