"""Answers and witness checks computed by the benchmark itself.

Nothing here calls a package solver: CNF validity is a truth table over
the benchmark's own clause lists, and witnesses are checked by walking
the arena's edge list with exact integer and Fraction arithmetic.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from operator import attrgetter, eq


def cnf_valid(num_vars: int, clauses) -> bool:
    """Every assignment satisfies every clause.  A clause is a tuple of
    (variable, positive) literals."""
    for bits in range(1 << num_vars):
        for clause in clauses:
            if not any(bool(bits >> (var - 1) & 1) == positive
                       for var, positive in clause):
                return False
    return True


def falsifies(clauses, assignment: dict[int, bool]) -> bool:
    return not all(any(assignment[var] == positive for var, positive in cl)
                   for cl in clauses)


def branch_assignment(arena, choices: dict[str, int],
                      num_vars: int) -> dict[int, bool] | None:
    """Read the truth assignment a player-1 strategy picks in the CNF
    validity arena: node ``v{j}`` chooses the chain into ``v{j}.1``
    (true) or ``~v{j}.1`` (false).  Chains of fresh nodes from the
    uncolored-edge expansion are followed until a named node."""
    out: dict[str, list] = {}
    for e in arena.edges:
        out.setdefault(e.src, []).append(e)
    assignment = {}
    for j in range(1, num_vars + 1):
        eid = choices.get(f"v{j}")
        if eid is None or not 0 <= eid < len(arena.edges):
            return None
        node = arena.edges[eid].dst
        for _ in range(len(arena.nodes)):
            if not node.startswith("@"):
                break
            node = out[node][0].dst
        if node == f"v{j}.1":
            assignment[j] = True
        elif node == f"~v{j}.1":
            assignment[j] = False
        else:
            return None
    return assignment


def reachable(arena) -> set[str]:
    succ: dict[str, list[str]] = {}
    for e in arena.edges:
        succ.setdefault(e.src, []).append(e.dst)
    seen = {arena.initial}
    queue = deque(seen)
    while queue:
        for w in succ.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def edge_set(arena) -> set[tuple]:
    return {(e.src, e.color, e.dst) for e in arena.edges}


def is_walk(edges, known: set[tuple]) -> bool:
    """Consecutive edges share endpoints and every edge is an arena
    edge."""
    if not all((e.src, e.color, e.dst) in known for e in _distinct(edges)):
        return False
    return all(map(eq, map(attrgetter("dst"), edges[:-1]),
                   map(attrgetter("src"), edges[1:])))


def _distinct(edges) -> list:
    """One representative per edge object; stream prefixes repeat a few
    objects many times, so the scan stops once each has been seen."""
    ids = set(map(id, edges))
    out = []
    for e in edges:
        if id(e) in ids:
            ids.discard(id(e))
            out.append(e)
            if not ids:
                break
    return out


def is_reachable_cycle(edges, arena, known, reach) -> bool:
    return (len(edges) > 0 and is_walk(edges, known)
            and edges[-1].dst == edges[0].src and edges[0].src in reach)


def loop_set_ok(arena, loop_set, freq: tuple[Fraction, ...]) -> bool:
    """Each loop is a reachable cycle of arena edges, and the combined
    counts satisfy count_a - count_b == (f_a - f_b) * total exactly."""
    known, reach = edge_set(arena), reachable(arena)
    counts = Counter()
    total = 0
    for path, coeff in loop_set.loops:
        edges = list(path.edges)
        if coeff < 1 or not is_reachable_cycle(edges, arena, known, reach):
            return False
        for e in edges:
            counts[e.color] += coeff
        total += coeff * len(edges)
    k = len(freq)
    return total > 0 and all(
        counts[a + 1] - counts[b + 1] == (freq[a] - freq[b]) * total
        for a in range(k) for b in range(k))


def bounded_walk_ok(arena, walk) -> bool:
    """A reachable closed walk of arena edges using every color equally
    often."""
    edges = list(walk.edges)
    if not is_reachable_cycle(edges, arena, edge_set(arena),
                              reachable(arena)):
        return False
    counts = Counter(e.color for e in edges)
    return all(counts[c] == counts[1] for c in range(1, arena.k + 1))


def access_path(arena, target: str) -> tuple:
    """Shortest edge path from the initial node to the target."""
    parent = {arena.initial: None}
    queue = deque([arena.initial])
    while queue and target not in parent:
        u = queue.popleft()
        for e in arena.edges:
            if e.src == u and e.dst not in parent:
                parent[e.dst] = e
                queue.append(e.dst)
    path = []
    node = target
    while parent[node] is not None:
        path.append(parent[node])
        node = parent[node].src
    return tuple(reversed(path))


def profile_ok(prefix, marks, freq: tuple[Fraction, ...], profile) -> bool:
    """The reported deviations equal the benchmark's own recount of the
    prefix at every checkpoint."""
    k = len(freq)
    if [m for m, _ in profile] != list(marks):
        return False
    counts = Counter()
    pos = 0
    for (mark, dev) in profile:
        counts.update(map(attrgetter("color"), prefix[pos:mark]))
        pos = mark
        own = max((abs(Fraction(counts[a] - counts[b], mark)
                       - (freq[a - 1] - freq[b - 1]))
                   for a in range(1, k + 1) for b in range(a + 1, k + 1)),
                  default=Fraction(0))
        if own != dev:
            return False
    return True


def periodic_ok(prefix, access, walk, bound: int, k: int) -> bool:
    """A bounded stream is the access path followed by the walk repeated,
    and its stated bound covers every prefix."""
    head = len(access)
    period = list(walk.edges)
    if prefix[:head] != list(access):
        return False
    for at in range(head, len(prefix), len(period)):
        chunk = prefix[at:at + len(period)]
        if chunk != period[:len(chunk)]:
            return False
    counts = [0] * (k + 1)
    for e in list(access) + period:
        counts[e.color] += 1
        if max(counts[1:]) - min(counts[1:]) > bound:
            return False
    return True


def envelope_ok(schedule, profile) -> bool:
    """Convergence of a schedule stream.  Round i emits loop j i*c_j
    times and then its connector; the loop part of a complete round is
    exactly on target, and every edge moves a pairwise difference by at
    most 2 off target.  After i complete rounds the gap times the prefix
    length is therefore at most 2 (i + 1) (m + W), with W the loop edges
    per unit round and m the connector edges per round, so the deviation
    falls like 1/sqrt(n)."""
    w = sum(c * len(loop) for loop, c in zip(schedule.loops,
                                              schedule.coeffs))
    m = sum(len(conn) for conn in schedule.connectors)
    for n, dev in profile:
        rounds = 0
        while (rounds + 1) * m + w * (rounds + 1) * (rounds + 2) // 2 <= n:
            rounds += 1
        if dev * n > 2 * (rounds + 1) * (m + w):
            return False
    return True
