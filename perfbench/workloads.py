"""The three workloads: seeded input generation, the timed request, and
the untimed check of each result.

A workload's inputs are one *pass*: a fixed list of requests generated
from the seed as arena JSON text, so every timed request starts at
``load_arena``.  The library is reached through the module handles in
``lib`` and looked up at call time, which is what lets the traced run
swap wrappers onto those attributes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import checks


@dataclass(frozen=True)
class Request:
    text: str                      # arena JSON, as a client would send it
    goal: str                      # "balanced" | "bounded" | "frequency"
    freq: tuple[Fraction, ...]     # target frequencies (1/k each unless
                                   # the goal is "frequency")
    expect: object                 # the benchmark's own answer
    length: int = 0                # streamed prefix length (synth-stream)


@dataclass
class Outcome:
    arena: object
    result: object                 # GameResult or GraphDecision
    stream: object = None          # PathStream of a synth-stream request
    prefix: list | None = None
    marks: tuple = ()
    profile: list | None = None


def _goal(lib, req: Request):
    arena = lib.arena
    if req.goal == "frequency":
        return arena.Goal.frequency(arena.FrequencyVector(req.freq))
    return arena.Goal(req.goal)


def _uniform(k: int) -> tuple[Fraction, ...]:
    return (Fraction(1, k),) * k


def _arena_json(k: int, names: list[str],
                edges: list[tuple[str, int, str]]) -> str:
    """A one-player arena whose first node is the initial one."""
    return json.dumps({
        "k": k,
        "nodes": [{"id": v, "owner": 0} for v in names],
        "initial": names[0],
        "edges": [{"src": s, "color": c, "dst": d} for s, c, d in edges],
    })


# --- cnf-game -----------------------------------------------------------------

# Every formula of the structured universe with these (variables,
# clauses) is in each pass, in enumeration order.  Their pruned graphs
# recur across formulas, which is what the shared decision cache
# exploits.  The order decides which requests pay for the cache misses,
# and those few requests set the tail latency, so it is kept fixed; the
# seed draws the sampled formulas below and where they are interleaved.
CNF_ENUMERATED = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))

# Seeded formulas per pass by (source, variables, clauses, valid): "U"
# samples the structured universe, "R" draws random clauses.  Validity
# is fixed per class because a valid formula makes the solver enumerate
# every strategy.  Larger classes are left out: one cold bounded
# decision there takes up to seconds, so the few a seed draws would set
# the tail latency on their own.
CNF_SAMPLED = {
    ("U", 3, 1, True): 4, ("U", 3, 1, False): 4,
    ("R", 4, 1, True): 4, ("R", 4, 1, False): 4,
}


def _clause_universe(m: int) -> list[tuple]:
    out = []
    for states in itertools.product(range(4), repeat=m):
        lits = []
        for var, state in enumerate(states, start=1):
            if state in (1, 3):
                lits.append((var, True))
            if state in (2, 3):
                lits.append((var, False))
        if lits:
            out.append(tuple(lits))
    return out


def _random_clause(rng: random.Random, m: int) -> tuple:
    lits = {(rng.randint(1, m), rng.random() < 0.5)
            for _ in range(rng.randint(1, 2 * m))}
    return tuple(sorted(lits))


def generate_cnf(lib, rng: random.Random) -> list[Request]:
    universe = {m: _clause_universe(m) for m in (1, 2, 3)}
    formulas = [(m, clauses, checks.cnf_valid(m, clauses))
                for m, n in CNF_ENUMERATED
                for clauses in itertools.combinations(universe[m], n)]
    for (source, m, n, valid), count in CNF_SAMPLED.items():
        seen = set()
        while len(seen) < count:
            if source == "U":
                clauses = tuple(rng.sample(universe[m], n))
            else:
                clauses = tuple(_random_clause(rng, m) for _ in range(n))
            key = tuple(sorted(clauses))
            if key not in seen and checks.cnf_valid(m, clauses) == valid:
                seen.add(key)
                formulas.insert(rng.randrange(len(formulas) + 1),
                                (m, clauses, valid))
    requests = []
    for m, clauses, valid in formulas:
        formula = lib.reductions.CnfFormula(
            m, tuple(frozenset(cl) for cl in clauses))
        text = lib.reductions.cnf_to_raw_arena(formula).to_json()
        k = len(clauses) + 1
        for goal in ("balanced", "bounded"):
            requests.append(Request(text, goal, _uniform(k),
                                    (m, clauses, valid)))
    return requests


def run_cnf(lib, req: Request, cache: dict) -> Outcome:
    arena = lib.arena.load_arena(req.text)
    result = lib.games.decide_winner(arena, _goal(lib, req), cache=cache)
    return Outcome(arena, result)


def check_cnf(req: Request, out: Outcome) -> bool:
    m, clauses, valid = req.expect
    result = out.result
    if (result.winner == 0) != valid:
        return False
    if result.winner == 0:
        return (result.strategies_total == 1 << m
                and len(result.log) == 1 << m
                and all(ok for _, ok in result.log))
    assignment = checks.branch_assignment(out.arena,
                                          result.witness.as_dict(), m)
    return assignment is not None and checks.falsifies(clauses, assignment)


# --- graph-decide ---------------------------------------------------------------

# (goal, planted answer, requests per pass, node count by color count).
# Sizes are chosen so that every (goal, k) cell costs about the same per
# request, which keeps the latency median and tail inside one smooth hump
# instead of between a cheap and a costly cell.  Bounded yes-arenas stay
# small because support pruning solves one program per edge, each over
# all edges of the component.
GRAPH_MIX = (("frequency", True, 42, {2: 24, 3: 20, 4: 17}),
             ("bounded", True, 42, {2: 6, 3: 5, 4: 5}),
             ("frequency", False, 18, {2: 40, 3: 40, 4: 40}),
             ("bounded", False, 18, {2: 40, 3: 40, 4: 40}))
EDGES_PER_NODE = 2.5


def _weights(rng: random.Random, k: int) -> list[int]:
    while True:
        w = [rng.randint(1, 3) for _ in range(k)]
        if len(set(w)) > 1:
            return w


def _ring(rng, nodes: list[str], color) -> list[tuple[str, int, str]]:
    """A cycle through the nodes in random order: strongly connected."""
    order = list(nodes)
    rng.shuffle(order)
    return [(u, color(u, v), v)
            for u, v in zip(order, order[1:] + order[:1])]


def _planted_yes(rng, k: int, n: int, cycle_colors: list[int]):
    """A strongly connected random arena plus a cycle carrying exactly the
    given color multiset, so the goal that multiset realizes has a path."""
    names = [f"q{i}" for i in range(n)]

    def color(u, v):
        return rng.randint(1, k)

    edges = _ring(rng, names, color)
    ring = rng.sample(names, min(len(cycle_colors), n))
    while len(ring) < len(cycle_colors):
        ring.append(rng.choice(names))
    colors = list(cycle_colors)
    rng.shuffle(colors)
    for j, c in enumerate(colors):
        edges.append((ring[j], c, ring[(j + 1) % len(ring)]))
    _fill(rng, names, edges, n, color)
    return names, edges


def _planted_no(rng, k: int, n: int):
    """Strongly connected blocks in a chain; color ``t`` sits only on
    edges into a later block, so it occurs finitely often on every
    infinite path: neither a frequency goal with f_t > 0 nor the bounded
    goal holds."""
    t = rng.randint(1, k)
    others = [c for c in range(1, k + 1) if c != t]
    names = [f"q{i}" for i in range(n)]
    count = rng.randint(3, 5)
    cuts = [n * b // count for b in range(1, count)]
    block = {}
    edges = []
    for b, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n])):
        members = names[lo:hi]
        block.update(dict.fromkeys(members, b))
        edges += _ring(rng, members, lambda u, v: rng.choice(others))
        if b:
            u = rng.choice(names[:lo])
            edges.append((u, t, rng.choice(members)))

    def color(u, v):
        if block[u] == block[v]:
            return rng.choice(others)
        return t if rng.random() < 0.5 else rng.randint(1, k)

    _fill(rng, names, edges, n, color, lambda u, v: block[u] <= block[v])
    return names, edges


def _fill(rng, names, edges, n, color, allowed=lambda u, v: True):
    target = round(EDGES_PER_NODE * n)
    while len(edges) < target:
        u, v = rng.choice(names), rng.choice(names)
        if allowed(u, v):
            edges.append((u, color(u, v), v))


def generate_graph(lib, rng: random.Random) -> list[Request]:
    requests = []
    for goal, planted, count, nodes in GRAPH_MIX:
        for i in range(count):
            k = 2 + i % 3
            n = nodes[k]
            if goal == "frequency":
                w = _weights(rng, k)
                freq = tuple(Fraction(x, sum(w)) for x in w)
                cycle = [c for c in range(1, k + 1) for _ in range(w[c - 1])]
            else:
                freq = _uniform(k)
                cycle = list(range(1, k + 1)) * rng.randint(1, 2)
            if planted:
                names, edges = _planted_yes(rng, k, n, cycle)
            else:
                names, edges = _planted_no(rng, k, n)
            requests.append(Request(_arena_json(k, names, edges),
                                    goal, freq, planted))
    rng.shuffle(requests)
    return requests


def run_graph(lib, req: Request, cache: None) -> Outcome:
    arena = lib.arena.load_arena(req.text)
    return Outcome(arena, lib.games.graph_decide(arena, _goal(lib, req)))


def _witness_ok(req: Request, out: Outcome) -> bool:
    witness = out.result.witness
    if req.goal == "bounded":
        return checks.bounded_walk_ok(out.arena, witness)
    return checks.loop_set_ok(out.arena, witness, req.freq)


def check_graph(req: Request, out: Outcome) -> bool:
    if out.result.exists != req.expect:
        return False
    return not out.result.exists or _witness_ok(req, out)


# --- synth-stream ----------------------------------------------------------------

SYNTH_ARENAS = 20
SYNTH_REQUESTS = 100
SYNTH_PREFIX = 40_000
SYNTH_MARKS = 8


def generate_synth(lib, rng: random.Random) -> list[Request]:
    """A few tiny arenas, each with a ring realizing its frequency target
    and a ring with one edge of every color, so that every goal holds and
    the decision stays cheap next to the streamed prefix."""
    arenas = []
    for _ in range(SYNTH_ARENAS):
        k = rng.randint(2, 3)
        while True:
            w = [rng.randint(1, 2) for _ in range(k)]
            if len(set(w)) > 1:
                break
        names = [f"q{i}" for i in range(rng.randint(2, 3))]
        edges = []
        for colors in ([c for c in range(1, k + 1) for _ in range(w[c - 1])],
                       list(range(1, k + 1))):
            rng.shuffle(colors)
            ring = [rng.choice(names) for _ in colors]
            edges += [(ring[j], c, ring[(j + 1) % len(ring)])
                      for j, c in enumerate(colors)]
        edges += _ring(rng, names, lambda u, v: rng.randint(1, k))
        text = _arena_json(k, names, edges)
        freq = tuple(Fraction(x, sum(w)) for x in w)
        arenas.append((text, k, freq))
    requests = []
    for i in range(SYNTH_REQUESTS):
        text, k, freq = arenas[i % SYNTH_ARENAS]
        goal = ("balanced", "frequency", "bounded")[i % 3]
        length = SYNTH_PREFIX + 4 * SYNTH_PREFIX * (i % 25) // 24
        requests.append(Request(text, goal,
                                freq if goal == "frequency" else _uniform(k),
                                True, length))
    rng.shuffle(requests)
    return requests


def _marks(length: int) -> tuple[int, ...]:
    return tuple(length >> (SYNTH_MARKS - 1 - i) for i in range(SYNTH_MARKS))


def run_synth(lib, req: Request, cache: None) -> Outcome:
    arena = lib.arena.load_arena(req.text)
    decision = lib.games.graph_decide(arena, _goal(lib, req))
    synth = lib.synth
    if req.goal == "bounded":
        access = checks.access_path(arena, decision.witness.start)
        path_stream = synth.bounded_witness_stream(decision.witness, access,
                                                   arena.k)
        limit = lib.graphs.LimitMatrix.zero(arena.k)
    else:
        schedule = synth.build_schedule(decision.witness, arena)
        path_stream = synth.stream(schedule)
        limit = lib.graphs.LimitMatrix.from_frequencies(req.freq)
    prefix = path_stream.take(req.length)
    marks = _marks(req.length)
    profile = synth.convergence_profile(
        synth.PathStream(path_stream.start, iter(prefix)), marks, limit)
    return Outcome(arena, decision, path_stream, prefix, marks, profile)


def check_synth(req: Request, out: Outcome) -> bool:
    if not check_graph(req, out):
        return False
    prefix = out.prefix
    if len(prefix) != req.length or prefix[0].src != out.stream.start:
        return False
    if out.stream.start not in checks.reachable(out.arena):
        return False
    if not checks.is_walk(prefix, checks.edge_set(out.arena)):
        return False
    if not checks.profile_ok(prefix, out.marks, req.freq, out.profile):
        return False
    if req.goal == "bounded":
        access = checks.access_path(out.arena, out.result.witness.start)
        return checks.periodic_ok(prefix, access, out.result.witness,
                                  out.stream.bound, out.arena.k)
    return checks.envelope_ok(out.stream.schedule, out.profile)


# --- warm-up ---------------------------------------------------------------------

# Fixed tiny inputs, the same for every seed, so that warm-up costs the
# same in every run's set-up.
_TWO_LOOPS = _arena_json(2, ["u"], [("u", 1, "u"), ("u", 2, "u")])
_TWO_THIRDS = (Fraction(2, 3), Fraction(1, 3))


def warmup_cnf(lib) -> list[Request]:
    out = []
    for clauses, valid in ((((1, True), (1, False)),), True), \
                          ((((1, True),),), False):
        formula = lib.reductions.CnfFormula(
            1, tuple(frozenset(cl) for cl in clauses))
        text = lib.reductions.cnf_to_raw_arena(formula).to_json()
        for goal in ("balanced", "bounded"):
            out.append(Request(text, goal, _uniform(2), (1, clauses, valid)))
    return out


def warmup_graph(lib) -> list[Request]:
    return [Request(_TWO_LOOPS, "frequency", _TWO_THIRDS, True),
            Request(_TWO_LOOPS, "bounded", _uniform(2), True)]


def warmup_synth(lib) -> list[Request]:
    return [Request(_TWO_LOOPS, "frequency", _TWO_THIRDS, True, 2000),
            Request(_TWO_LOOPS, "bounded", _uniform(2), True, 2000)]


@dataclass(frozen=True)
class Workload:
    generate: object
    warmup: object
    run: object
    check: object
    uses_cache: bool


WORKLOADS = {
    "cnf-game": Workload(generate_cnf, warmup_cnf, run_cnf, check_cnf, True),
    "graph-decide": Workload(generate_graph, warmup_graph, run_graph,
                             check_graph, False),
    "synth-stream": Workload(generate_synth, warmup_synth, run_synth,
                             check_synth, False),
}
