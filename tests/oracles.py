"""Independent oracles and instance generators for the test suite.

Nothing in here calls into the package's solvers: feasibility is decided
by Fourier-Motzkin elimination, loop combinations by explicit coefficient
search over enumerated simple cycles, bounded walks by state-space
search, and bounded support by forced-edge pruning on the unreduced
per-edge system.  These deliberately reimplement the math so that
agreement is meaningful.  The one exception is the game loop reference,
which keeps the earlier strategy loop (decide every pruned arena through
the one-player cache) to pin the parent-arena loop that replaced it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator

from colorgames import (CnfFormula, ColoredArena, ContractError, Edge,
                        FeasibilityResult, FinitePath, FrequencyVector, Goal,
                        LinearSystem, MemorylessStrategy, Node,
                        ParseError, PathSchedule, RawArena, ValidationError,
                        build_color_limit_system, enumerate_strategies,
                        graph_decide, prune)
from colorgames.arena import MAX_CHAIN_NODES, MAX_COLORS


# --- Fourier-Motzkin feasibility ------------------------------------------


def fm_feasible(system: LinearSystem) -> bool:
    """Eliminate variables one by one; feasible iff no contradictory
    constant row remains."""
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []  # a.x <= b
    zero = Fraction(0)
    for j, nonneg in enumerate(system.nonneg):
        if nonneg:
            rows.append((tuple(Fraction(-1) if i == j else zero
                               for i in range(system.num_vars)), zero))
    for con in system.constraints:
        coeffs = tuple(Fraction(c) for c in con.coeffs)
        rhs = Fraction(con.rhs)
        if con.relation in ("<=", "="):
            rows.append((coeffs, rhs))
        if con.relation in (">=", "="):
            rows.append((tuple(-c for c in coeffs), -rhs))
    for var in reversed(range(system.num_vars)):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new_rows = rest
        for (cp, bp) in pos:
            for (cn, bn) in neg:
                scale_p, scale_n = -cn[var], cp[var]
                coeffs = tuple(scale_p * a + scale_n * b
                               for a, b in zip(cp, cn))
                new_rows.append((coeffs, scale_p * bp + scale_n * bn))
        rows = _dedupe(new_rows)
    return all(b >= 0 for _, b in rows)


def _dedupe(rows):
    best: dict[tuple, Fraction] = {}
    for coeffs, rhs in rows:
        norm = next((abs(c) for c in coeffs if c != 0), None)
        if norm is not None:
            coeffs = tuple(c / norm for c in coeffs)
            rhs = rhs / norm
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return [(c, b) for c, b in best.items()]


# --- reference rational simplex ---------------------------------------------


def reference_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Phase-1 Bland simplex on a dense Fraction tableau, the reference
    for the package's integer-row solver: both must take the same pivots,
    so flag and assignment agree exactly."""
    m = system.num_vars
    nonneg = list(system.nonneg)
    rows = []
    for con in system.constraints:
        nz = [(j, c) for j, c in enumerate(con.coeffs) if c != 0]
        if len(nz) == 1 and con.rhs == 0:
            j, c = nz[0]
            if (con.relation == ">=" and c > 0) or (con.relation == "<=" and c < 0):
                nonneg[j] = True
                continue
        rows.append(con)

    pos_col = [0] * m
    neg_col = [-1] * m
    ncols = 0
    for j in range(m):
        pos_col[j] = ncols
        ncols += 1
        if not nonneg[j]:
            neg_col[j] = ncols
            ncols += 1
    nstruct = ncols + sum(1 for con in rows if con.relation != "=")

    tableau: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    zero, one = Fraction(0), Fraction(1)
    slack_at = ncols
    art_at = nstruct
    for con in rows:
        row = [zero] * (nstruct + len(rows))
        for j, c in enumerate(con.coeffs):
            if c:
                row[pos_col[j]] = Fraction(c)
                if neg_col[j] >= 0:
                    row[neg_col[j]] = Fraction(-c)
        b = Fraction(con.rhs)
        if con.relation == "<=":
            row[slack_at] = one
            slack_col = slack_at
            slack_at += 1
        elif con.relation == ">=":
            row[slack_at] = -one
            slack_col = slack_at
            slack_at += 1
        else:
            slack_col = -1
        if b < 0:
            row = [-v for v in row]
            b = -b
        if slack_col >= 0 and row[slack_col] == 1:
            basis.append(slack_col)
        else:
            row[art_at] = one
            basis.append(art_at)
            art_at += 1
        tableau.append(row)
        rhs.append(b)

    width = nstruct + len(rows)
    artificial = [nstruct <= c < art_at for c in range(width)]
    zrow = [zero] * width
    for i, row in enumerate(tableau):
        if artificial[basis[i]]:
            for j in range(width):
                if row[j]:
                    zrow[j] -= row[j]
    for c in range(nstruct, art_at):
        zrow[c] = zero

    barred = [False] * width
    max_iters = 1000 + 50 * (len(rows) + width)
    for _ in range(max_iters):
        enter = -1
        for j in range(width):
            if zrow[j] < 0 and not barred[j]:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded")
        _reference_pivot(tableau, rhs, zrow, enter, leave)
        out = basis[leave]
        if artificial[out]:
            barred[out] = True
        basis[leave] = enter
    else:
        raise RuntimeError("simplex exceeded its iteration budget")

    zval = sum(rhs[i] for i in range(len(rows)) if artificial[basis[i]])
    if zval != 0:
        return FeasibilityResult(False)
    values = [zero] * width
    for i, c in enumerate(basis):
        values[c] = rhs[i]
    x = []
    for j in range(m):
        v = values[pos_col[j]]
        if neg_col[j] >= 0:
            v -= values[neg_col[j]]
        x.append(v)
    return FeasibilityResult(True, tuple(x))


def _reference_pivot(tableau, rhs, zrow, enter, leave):
    prow = tableau[leave]
    piv = prow[enter]
    if piv != 1:
        inv = 1 / piv
        for j, v in enumerate(prow):
            if v:
                prow[j] = v * inv
        rhs[leave] *= inv
    nz = [j for j, v in enumerate(prow) if v]
    pb = rhs[leave]
    for i, row in enumerate(tableau):
        if i == leave:
            continue
        f = row[enter]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
            rhs[i] -= f * pb
    f = zrow[enter]
    if f:
        for j in nz:
            zrow[j] -= f * prow[j]


# --- simple cycles and loop-combination search ------------------------------


def enumerate_simple_cycles(arena: ColoredArena) -> list[list[int]]:
    """All simple cycles as edge-id lists, each reported once."""
    n = len(arena.nodes)
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, e in enumerate(arena.edges):
        out[arena.node_index[e.src]].append((eid, arena.node_index[e.dst]))
    cycles: list[list[int]] = []

    def dfs(start: int, node: int, path: list[int], visited: set[int]):
        for eid, dst in out[node]:
            if dst == start:
                cycles.append(path + [eid])
            elif dst > start and dst not in visited:
                dfs(start, dst, path + [eid], visited | {dst})

    for s in range(n):
        dfs(s, s, [], {s})
    return cycles


def _mutual_reach(arena: ColoredArena) -> list[list[bool]]:
    n = len(arena.nodes)
    reach = [[False] * n for _ in range(n)]
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in arena.edges:
        adj[arena.node_index[e.src]].add(arena.node_index[e.dst])
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for t in seen:
            reach[s][t] = True
    return reach


def loop_combination_exists(arena: ColoredArena, freq: FrequencyVector,
                            coeff_bound: int = 6) -> bool:
    """Brute-force search for a connected set of simple loops whose
    weighted color counts grow at the frequency's rates.

    Loops are grouped by mutual reachability; within one group all
    coefficient vectors with entries up to the bound are searched
    (depth-first, with interval pruning that only discards subtrees
    provably unable to cancel the running sum).
    """
    k = arena.k
    vals = list(freq)
    denom = lcm(*(v.denominator for v in vals))
    reach = _mutual_reach(arena)
    start = arena.node_index[arena.initial]
    cycles = enumerate_simple_cycles(arena)
    groups: dict[int, list[list[int]]] = {}
    for cyc in cycles:
        head = arena.node_index[arena.edges[cyc[0]].src]
        if not (reach[start][head]):
            continue
        rep = min(i for i in range(len(arena.nodes))
                  if reach[head][i] and reach[i][head])
        groups.setdefault(rep, []).append(cyc)

    pairs = list(combinations(range(k), 2))
    for group in groups.values():
        vectors = []
        for cyc in group:
            counts = [0] * k
            for eid in cyc:
                counts[arena.edges[eid].color - 1] += 1
            length = len(cyc)
            vec = tuple(
                denom * (counts[a] - counts[b])
                - int((vals[a] - vals[b]) * denom) * length
                for a, b in pairs)
            vectors.append(vec)
        if _cancelling_combo(vectors, coeff_bound):
            return True
    return False


def _cancelling_combo(vectors: list[tuple[int, ...]], bound: int) -> bool:
    """Is there a not-all-zero choice of coefficients in 0..bound with
    sum_i c_i * v_i == 0?"""
    if not vectors:
        return False
    dims = len(vectors[0])
    n = len(vectors)
    suffix_lo = [[0] * dims for _ in range(n + 1)]
    suffix_hi = [[0] * dims for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for d in range(dims):
            v = vectors[i][d] * bound
            suffix_lo[i][d] = suffix_lo[i + 1][d] + min(0, v)
            suffix_hi[i][d] = suffix_hi[i + 1][d] + max(0, v)

    def dfs(i: int, total: tuple[int, ...], any_positive: bool) -> bool:
        if i == n:
            return any_positive and all(t == 0 for t in total)
        for d in range(dims):
            if not (total[d] + suffix_lo[i][d] <= 0
                    <= total[d] + suffix_hi[i][d]):
                return False
        for c in range(bound + 1):
            nxt = tuple(t + c * v for t, v in zip(total, vectors[i]))
            if dfs(i + 1, nxt, any_positive or c > 0):
                return True
        return False

    return dfs(0, tuple([0] * dims), False)


# --- bounded-budget closed-walk search --------------------------------------


def zero_diff_walk_exists(arena: ColoredArena, max_len: int = 12) -> bool:
    """Exhaustive search for a closed walk of bounded length whose color
    counts all coincide, via breadth-first search over (node, relative
    counts) states."""
    k = arena.k
    n = len(arena.nodes)
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, e in enumerate(arena.edges):
        out[arena.node_index[e.src]].append(
            (arena.edges[eid].color, arena.node_index[e.dst]))
    zero = tuple([0] * (k - 1))
    for s in range(n):
        frontier = {(s, zero)}
        seen = set(frontier)
        for _ in range(max_len):
            nxt = set()
            for node, rel in frontier:
                for color, dst in out[node]:
                    if color == k:
                        new_rel = tuple(r - 1 for r in rel)
                    else:
                        new_rel = tuple(r + 1 if i == color - 1 else r
                                        for i, r in enumerate(rel))
                    state = (dst, new_rel)
                    if dst == s and new_rel == zero:
                        return True
                    if state not in seen:
                        seen.add(state)
                        nxt.add(state)
            frontier = nxt
    return False


# --- bounded support pruning by forced edges ---------------------------------


def _reach_from(succ: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _strong_groups(arena: ColoredArena, edge_ids) -> list[list[int]]:
    """Edges inside one strongly connected component of the subgraph the
    given edges span, one group per component, ordered by smallest edge."""
    succ: dict[str, set[str]] = {}
    for eid in edge_ids:
        e = arena.edges[eid]
        succ.setdefault(e.src, set()).add(e.dst)
    reach = {v: _reach_from(succ, v) for v in succ}
    groups: dict[frozenset, list[int]] = {}
    for eid in sorted(edge_ids):
        e = arena.edges[eid]
        if e.src in reach.get(e.dst, ()):
            comp = frozenset(w for w in reach[e.src]
                             if e.src in reach.get(w, ()))
            groups.setdefault(comp, []).append(eid)
    return sorted(groups.values(), key=lambda g: g[0])


def component_edge_ids(arena: ColoredArena) -> list[list[int]]:
    """Internal edges of every strongly connected component that has one,
    reachable or not; one list per component, ordered by smallest edge."""
    return _strong_groups(arena, range(len(arena.edges)))


def reference_surviving_edges(arena: ColoredArena, group) -> set[int]:
    """Edges of the group that carry load in some zero-difference
    circulation over the group: one normalized solve, then one solve
    with x_e >= 1 for each edge that no solution has loaded yet, all on
    the per-edge system and decided by the rational reference solver."""
    group = sorted(group)
    zero = FrequencyVector.uniform(arena.k)
    survivors: set[int] = set()
    base = reference_feasibility(build_color_limit_system(arena, group, zero))
    if not base.feasible:
        return survivors
    survivors.update(e for e, v in zip(group, base.assignment) if v > 0)
    for eid in group:
        if eid in survivors:
            continue
        forced = reference_feasibility(build_color_limit_system(
            arena, group, zero, force_edge=eid))
        if forced.feasible:
            survivors.update(e for e, v in zip(group, forced.assignment)
                             if v > 0)
    return survivors


def reference_zero_diff_support(arena: ColoredArena
                                ) -> tuple[bool, frozenset[int]]:
    """Bounded-goal support pruning by forced edges: per reachable
    strongly connected component, smallest node first, prune to the
    surviving edges, regroup and repeat until a group keeps every edge.

    Returns the verdict and the edge ids of that first self-supporting
    group (empty when there is none).
    """
    succ: dict[str, set[str]] = {}
    for e in arena.edges:
        succ.setdefault(e.src, set()).add(e.dst)
    reachable = _reach_from(succ, arena.initial)
    comps: list[frozenset[str]] = []
    for v in sorted(reachable, key=lambda v: arena.node_index[v]):
        if not any(v in c for c in comps):
            comps.append(frozenset(w for w in _reach_from(succ, v)
                                   if v in _reach_from(succ, w)))
    for comp in comps:
        current = [eid for eid, e in enumerate(arena.edges)
                   if e.src in comp and e.dst in comp]
        while current:
            new_current: list[int] = []
            for group in _strong_groups(arena, current):
                survivors = reference_surviving_edges(arena, group)
                if len(survivors) == len(group):
                    return True, frozenset(group)
                new_current.extend(survivors)
            current = sorted(new_current)
    return False, frozenset()


# --- arena loading and canonical forms ---------------------------------------


def reference_load_arena(text: str) -> dict:
    """The two-step loader one-pass loading replaced: parse into a raw
    arena, validate it in full, then expand each uncolored edge against
    a set of used ids.  It keeps the checks' order and messages; its
    only changes are the rules that k, owners and colors are JSON
    integers and node ids, the initial node and edge ends JSON strings.
    Returns the expanded fields and their index tables, built naively."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("arena file must contain a JSON object")
    for field in ("k", "nodes", "initial", "edges"):
        if field not in data:
            raise ParseError(f"missing field {field!r}")

    def integer(value, field):
        if type(value) is not int:
            raise ParseError(f"{field} must be an integer, got {value!r}")
        return value

    def string(value, field):
        if type(value) is not str:
            raise ParseError(f"{field} must be a string, got {value!r}")
        return value
    try:
        k = integer(data["k"], "k")
        nodes = [Node(string(n["id"], "id"), integer(n["owner"], "owner"))
                 for n in data["nodes"]]
        initial = string(data["initial"], "initial")
        edges = [Edge(string(e["src"], "src"),
                      None if e["color"] is None
                      else integer(e["color"], "color"),
                      string(e["dst"], "dst"))
                 for e in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed arena object: {exc}") from exc
    _reference_validate(k, nodes, initial, edges)
    fresh_nodes = (k - 1) * sum(1 for e in edges if e.color is None)
    if fresh_nodes > MAX_CHAIN_NODES:
        raise ValidationError(
            f"expanding the uncolored edges needs {fresh_nodes} chain nodes, "
            f"more than the limit {MAX_CHAIN_NODES}")
    used = {nd.id for nd in nodes}
    expanded: list[Edge] = []
    for eid, e in enumerate(edges):
        if e.color is not None:
            expanded.append(e)
            continue
        prev = e.src
        for step in range(1, k):
            fresh = f"@{eid}.{step}"
            while fresh in used:
                fresh = "_" + fresh
            used.add(fresh)
            nodes.append(Node(fresh, 0))
            expanded.append(Edge(prev, step, fresh))
            prev = fresh
        expanded.append(Edge(prev, k, e.dst))
    return {"k": k, "nodes": tuple(nodes), "initial": initial,
            "edges": tuple(expanded),
            **reference_tables(nodes, expanded)}


def _reference_validate(k, nodes, initial, edges) -> None:
    if k < 1:
        raise ValidationError(f"color count k must be >= 1, got {k}")
    if k > MAX_COLORS:
        raise ValidationError(
            f"color count k = {k} exceeds the limit {MAX_COLORS}")
    seen: set[str] = set()
    for nd in nodes:
        if nd.id in seen:
            raise ValidationError(f"duplicate node id {nd.id!r}")
        seen.add(nd.id)
        if nd.owner not in (0, 1):
            raise ValidationError(
                f"node {nd.id!r} has owner {nd.owner!r}, expected 0 or 1")
    if initial not in seen:
        raise ValidationError(f"initial node {initial!r} does not exist")
    for eid, e in enumerate(edges):
        if e.src not in seen:
            raise ValidationError(f"edge {eid} has unknown source {e.src!r}")
        if e.dst not in seen:
            raise ValidationError(f"edge {eid} has unknown target {e.dst!r}")
        if e.color is not None and not 1 <= e.color <= k:
            raise ValidationError(
                f"edge {eid} has color {e.color}, outside 1..{k}")
    for nd in nodes:
        if not any(e.src == nd.id for e in edges):
            raise ValidationError(f"node {nd.id!r} has no outgoing edge")


def reference_tables(nodes, edges) -> dict:
    """An arena's index tables, each computed on its own."""
    index = {nd.id: i for i, nd in enumerate(nodes)}
    return {"node_index": index,
            "out_ids": [[eid for eid, e in enumerate(edges) if e.src == nd.id]
                        for nd in nodes],
            "edge_dst": [index[e.dst] for e in edges],
            "edge_color": [e.color for e in edges]}


def arena_fields(arena) -> dict:
    """What ``reference_load_arena`` returns, read off an arena."""
    return {name: getattr(arena, name)
            for name in ("k", "nodes", "initial", "edges", "node_index",
                         "out_ids", "edge_dst", "edge_color")}


def reference_canonical_form(arena: ColoredArena,
                             choice: dict[str, int] | None = None):
    """The canonical BFS by node ids that the index-table form replaced:
    labels in a dict by id, adjacency through ``out_edge_ids``."""
    edges = arena.edges
    label: dict[str, int] = {arena.initial: 0}
    queue = [arena.initial]
    rows: list[tuple[int, int, int, int]] = []
    for u in queue:
        src = label[u]
        eid = choice.get(u) if choice else None
        if eid is None:
            outs = arena.out_edge_ids(u)
            if len(outs) > 1:
                outs = sorted(outs, key=lambda i: edges[i].color)
        elif edges[eid].src != u:
            raise ContractError(f"choice maps {u!r} to a foreign edge")
        else:
            outs = (eid,)
        for i in outs:
            e = edges[i]
            dst = label.get(e.dst)
            if dst is None:
                dst = label[e.dst] = len(label)
                queue.append(e.dst)
            rows.append((src, e.color, dst, i))
    rows.sort()
    key = (arena.k, len(label), tuple(row[:3] for row in rows))
    return key, [row[3] for row in rows]


# --- the game loop ------------------------------------------------------------


def reference_decide_winner(
        arena: ColoredArena, goal: Goal, cache: dict | None
) -> tuple[int, MemorylessStrategy | None, tuple[tuple[int, bool], ...]]:
    """Winner, witness and log of the strategy loop that materializes
    every pruned arena and decides it through the one-player cache."""
    log = []
    for idx, tau in enumerate(enumerate_strategies(arena)):
        decision = graph_decide(prune(arena, tau), goal, cache)
        log.append((idx, decision.exists))
        if not decision.exists:
            return 1, tau, tuple(log)
    return 0, None, tuple(log)


# --- connectors ----------------------------------------------------------------


def reference_shortest_path(arena: ColoredArena, members: set[str], src: str,
                            dst: str) -> tuple[Edge, ...] | None:
    """Breadth-first shortest edge path that never leaves ``members``,
    ties resolved toward the smallest node index; None when there is no
    such path.  The reference for connectors searched over all nodes."""
    if src == dst:
        return ()
    parent: dict[str, Edge] = {}
    seen = {src}
    queue = [src]
    for u in queue:
        candidates = sorted(
            (arena.node_index[arena.edges[eid].dst], eid)
            for eid in arena.out_edge_ids(u)
            if arena.edges[eid].dst in members)
        for _, eid in candidates:
            e = arena.edges[eid]
            if e.dst in seen:
                continue
            seen.add(e.dst)
            parent[e.dst] = e
            queue.append(e.dst)
    if dst not in parent:
        return None
    path = []
    node = dst
    while node != src:
        path.append(parent[node])
        node = parent[node].src
    return tuple(reversed(path))


# --- per-edge streams and convergence -----------------------------------------


def reference_stream(schedule: PathSchedule) -> Iterator[Edge]:
    """The infinite path of a schedule, emitted one edge at a time: the
    reference for the package's block-built stream."""
    i = 1
    while True:
        for loop, c, conn in zip(schedule.loops, schedule.coeffs,
                                 schedule.connectors):
            for _ in range(i * c):
                yield from loop.edges
            yield from conn
        i += 1


def reference_bounded_stream(walk: FinitePath,
                             access: tuple[Edge, ...]) -> Iterator[Edge]:
    """Access path, then the closed walk forever, one edge at a time."""
    yield from access
    while True:
        yield from walk.edges


def reference_profile(edges: Iterable[Edge], marks: list[int],
                      limit: FrequencyVector) -> list[tuple[int, Fraction]]:
    """Deviation from the target difference rates at each mark, counted
    edge by edge."""
    k = limit.k
    counts = [0] * k
    out = []
    pos = 0
    it = iter(edges)
    for mark in sorted(set(marks)):
        while pos < mark:
            counts[next(it).color - 1] += 1
            pos += 1
        out.append((mark, max(
            (abs(Fraction(counts[a] - counts[b], pos) - (limit[a] - limit[b]))
             for a in range(k) for b in range(a + 1, k)),
            default=Fraction(0))))
    return out


def reference_verify_peaks(edges: Iterable[Edge], k: int
                           ) -> tuple[int, list[list[int]]]:
    """The largest spread max - min of the color counts over all prefixes
    and the peak matrix of counts_a - counts_b, updating every entry and
    rescanning the counts at every colored step; uncolored steps (color
    None) count toward no color."""
    counts = [0] * k
    peak = [[0] * k for _ in range(k)]
    worst = 0
    for e in edges:
        if e.color is None:
            continue
        counts[e.color - 1] += 1
        for a in range(k):
            for b in range(k):
                d = counts[a] - counts[b]
                if d > peak[a][b]:
                    peak[a][b] = d
        spread = max(counts) - min(counts)
        if spread > worst:
            worst = spread
    return worst, peak


def reference_max_abs_diff(edges: Iterable[Edge], k: int) -> int:
    """Largest spread max - min of the color counts over all prefixes,
    counted edge by edge."""
    counts = [0] * k
    worst = 0
    for e in edges:
        counts[e.color - 1] += 1
        worst = max(worst, max(counts) - min(counts))
    return worst


# --- worked example word ----------------------------------------------------


def growing_block(i: int) -> list[int]:
    """Block i of the 3-color word whose pairwise drift grows by one per
    block while the block lengths grow linearly, so frequencies still
    even out."""
    return [1, 2] * i + [1, 3] + [1, 3, 2, 3] * i + [1, 3, 3]


def growing_block_word(blocks: int) -> list[int]:
    word: list[int] = []
    for i in range(1, blocks + 1):
        word.extend(growing_block(i))
    return word


# --- random instances -------------------------------------------------------


def random_system(rng: random.Random, max_vars: int = 4,
                  max_cons: int = 8) -> LinearSystem:
    num_vars = rng.randint(1, max_vars)
    system = LinearSystem(num_vars)
    for _ in range(rng.randint(1, max_cons)):
        coeffs = [rng.randint(-5, 5) for _ in range(num_vars)]
        system.add(coeffs, rng.choice(["=", "<=", ">="]), rng.randint(-5, 5))
    return system


def random_rational_system(rng: random.Random, max_vars: int = 5,
                           max_cons: int = 8) -> LinearSystem:
    """Mixed relations, rational coefficients and right-hand sides of
    both signs, a random set of nonneg columns and occasional
    single-variable sign rows; the remaining columns are free."""
    num_vars = rng.randint(1, max_vars)
    system = LinearSystem(num_vars, nonneg=[rng.random() < 0.5
                                            for _ in range(num_vars)])

    def value():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(rng.randint(1, max_cons)):
        relation = rng.choice(["=", "<=", ">="])
        if rng.random() < 0.15:
            coeffs = [Fraction(0)] * num_vars
            coeffs[rng.randrange(num_vars)] = Fraction(rng.choice([-2, -1, 1, 3]))
            system.add(coeffs, relation, 0)
        else:
            system.add([value() for _ in range(num_vars)], relation, value())
    return system


def random_connected_arena(rng: random.Random, max_nodes: int = 5,
                           max_edges: int = 8,
                           colors: tuple[int, ...] = (2, 3),
                           two_player: bool = False) -> ColoredArena:
    """Arena with every node reachable from the initial node and with
    out-degree at least one everywhere; nodes belong to player 0 unless
    ``two_player`` asks for random ownership."""
    k = rng.choice(colors)
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    edges: list[tuple[int, int, int]] = []
    for i in range(1, n):
        edges.append((rng.randrange(i), rng.randint(1, k), i))
    have_out = {src for src, _, _ in edges}
    for i in range(n):
        if i not in have_out:
            edges.append((i, rng.randint(1, k), rng.randrange(n)))
            have_out.add(i)
    target = rng.randint(len(edges), max(len(edges), max_edges))
    while len(edges) < target:
        edges.append((rng.randrange(n), rng.randint(1, k), rng.randrange(n)))
    nodes = [Node(nm, rng.randint(0, 1) if two_player else 0)
             for nm in names]
    return ColoredArena(
        k, nodes, names[0],
        [Edge(names[s], c, names[d]) for s, c, d in edges])


def random_raw_arena(rng: random.Random, max_nodes: int = 4) -> RawArena:
    """Valid raw arena, k in 1..3, with uncolored edges; some node ids
    have the shape of the fresh chain ids that expansion must avoid."""
    k = rng.randint(1, 3)
    names = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(("@0.1", "_@0.1", "@0.2", "@1.1", "@2.1", "@1.2"))
        if name not in names:
            names.append(name)
    triples = [(nm, rng.choice(names)) for nm in names]
    for _ in range(rng.randint(0, 2 * len(names))):
        triples.append((rng.choice(names), rng.choice(names)))
    rng.shuffle(triples)
    edges = [Edge(s, None if rng.random() < 0.4 else rng.randint(1, k), d)
             for s, d in triples]
    nodes = [Node(nm, rng.randint(0, 1)) for nm in names]
    return RawArena(k, nodes, rng.choice(names), edges)


def random_pruning_arena(rng: random.Random) -> ColoredArena:
    """One-player arena for bounded support pruning: a random connected
    core with extra and duplicated (parallel) edges, some of them
    subdivided into unbranching chains through fresh nodes."""
    k = rng.choice((2, 3))
    n = rng.randint(2, 6)
    names = [f"n{i}" for i in range(n)]
    triples = [(rng.randrange(i), rng.randint(1, k), i) for i in range(1, n)]
    for i in range(n):
        if not any(src == i for src, _, _ in triples):
            triples.append((i, rng.randint(1, k), rng.randrange(n)))
    for _ in range(rng.randint(1, 2 * n)):
        triples.append((rng.randrange(n), rng.randint(1, k),
                        rng.randrange(n)))
    for _ in range(rng.randint(0, 2)):
        triples.append(rng.choice(triples))
    nodes = [Node(nm, 0) for nm in names]
    edges: list[Edge] = []
    for s, c, d in triples:
        src = names[s]
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 2)):
                mid = f"c{len(nodes)}"
                nodes.append(Node(mid, 0))
                edges.append(Edge(src, rng.randint(1, k), mid))
                src = mid
        edges.append(Edge(src, c, names[d]))
    return ColoredArena(k, nodes, names[0], edges)


def random_formula(rng: random.Random, max_vars: int = 4,
                   max_clauses: int = 4) -> CnfFormula:
    m = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, 2 * m)
        lits = {(rng.randint(1, m), rng.random() < 0.5) for _ in range(size)}
        clauses.append(frozenset(lits))
    return CnfFormula(m, tuple(clauses))
