"""Test-oracle generators: the CNF-validity game construction and the
two-job non-preemptive scheduling arena with its counting policy.

The CNF construction builds one subarena per variable with an upper
(true) and a lower (false) chain; step i of a chain carries an extra
edge of color i exactly when that polarity of the variable occurs in
clause i.  A final control-colored edge closes the big cycle, so a
choice of branches balances all colors iff every clause can be visited,
i.e. iff the branch assignment satisfies the formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arena import (MAX_CHAIN_NODES, ColoredArena, ContractError, Edge,
                    Node, RawArena, ValidationError, desugar_uncolored)
from .games import MemorylessStrategy


class DimacsError(Exception):
    """Malformed DIMACS CNF input."""


Literal = tuple[int, bool]  # (variable index 1..m, True for positive)


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[frozenset[Literal], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ContractError("negative variable count")
        for ci, clause in enumerate(self.clauses):
            if not clause:
                raise ContractError(f"clause {ci} is empty")
            for var, _ in clause:
                if not 1 <= var <= self.num_vars:
                    raise ContractError(
                        f"clause {ci} uses variable {var}, "
                        f"outside 1..{self.num_vars}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def clause_indices(self, var: int, positive: bool) -> list[int]:
        """1-based indices of the clauses containing the literal."""
        return [i + 1 for i, clause in enumerate(self.clauses)
                if (var, positive) in clause]

    def satisfied_by(self, assignment: dict[int, bool]) -> bool:
        return all(any(assignment[var] == positive for var, positive in cl)
                   for cl in self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = None
    num_clauses = None
    clauses: list[frozenset[Literal]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: bad problem line {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: {exc}") from exc
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                if not pending:
                    raise DimacsError(f"line {lineno}: empty clause")
                clauses.append(frozenset((abs(v), v > 0) for v in pending))
                pending = []
            else:
                pending.append(lit)
    if num_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("last clause is not terminated by 0")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(f"header promises {num_clauses} clauses, "
                          f"found {len(clauses)}")
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except ContractError as exc:
        raise DimacsError(str(exc)) from exc


def cnf_to_raw_arena(formula: CnfFormula) -> RawArena:
    """The validity game arena, before uncolored edges are expanded.

    Colors 1..n stand for the clauses and color n+1 is the control color
    on the closing edge of the big cycle.  The arena has m(2n+2) nodes
    and m(2n+3) - 1 uncolored edges, each expanding into n chain nodes;
    either count above ``MAX_CHAIN_NODES`` is a ``ValidationError``
    raised before anything is built, since a DIMACS header of a few
    bytes can name any number of variables.
    """
    n = formula.num_clauses
    m = formula.num_vars
    if m < 1:
        raise ContractError("the construction needs at least one variable")
    raw_nodes = m * (2 * n + 2)
    if raw_nodes > MAX_CHAIN_NODES:
        raise ValidationError(
            f"the game arena of {m} variables and {n} clauses has "
            f"{raw_nodes} nodes, more than the limit {MAX_CHAIN_NODES}")
    fresh_nodes = n * (m * (2 * n + 3) - 1)
    if fresh_nodes > MAX_CHAIN_NODES:
        raise ValidationError(
            f"expanding the game arena of {m} variables and {n} clauses "
            f"needs {fresh_nodes} chain nodes, more than the limit "
            f"{MAX_CHAIN_NODES}")
    k = n + 1
    node_ids, owners, srcs, colors, dsts = [], [], [], [], []

    def node(node_id: str, owner: int) -> None:
        node_ids.append(node_id)
        owners.append(owner)

    def edge(src: str, color: int | None, dst: str) -> None:
        srcs.append(src)
        colors.append(color)
        dsts.append(dst)

    def upper(j: int, i: int) -> str:
        return f"v{j}'" if i == n + 1 else f"v{j}.{i}"

    def lower(j: int, i: int) -> str:
        return f"v{j}'" if i == n + 1 else f"~v{j}.{i}"

    for j in range(1, m + 1):
        node(f"v{j}", 1)
        for i in range(1, n + 1):
            node(upper(j, i), 0)
            node(lower(j, i), 0)
        node(f"v{j}'", 0)
        edge(f"v{j}", None, upper(j, 1))
        edge(f"v{j}", None, lower(j, 1))
        pos = set(formula.clause_indices(j, True))
        neg = set(formula.clause_indices(j, False))
        for i in range(1, n + 1):
            edge(upper(j, i), None, upper(j, i + 1))
            if i in pos:
                edge(upper(j, i), i, upper(j, i + 1))
            edge(lower(j, i), None, lower(j, i + 1))
            if i in neg:
                edge(lower(j, i), i, lower(j, i + 1))
        if j < m:
            edge(f"v{j}'", None, f"v{j + 1}")
    edge(f"v{m}'", k, "v1")
    return RawArena.from_fields(k, node_ids, owners, "v1", srcs, colors, dsts)


def cnf_to_arena(formula: CnfFormula) -> ColoredArena:
    return desugar_uncolored(cnf_to_raw_arena(formula))


# --- the two-job scheduling example -----------------------------------------

JOB0_COLOR = 1  # action of job 0
JOB1_COLOR = 2  # action of job 1
LOCK_NODE = "0,0"
_J0_ENTRY = "1,0"
_J1_ENTRY = "0,1"


def scheduler_arena() -> RawArena:
    """Joint program-counter arena of two identical jobs sharing a lock.

    The scheduler (player 0) only ever chooses at ``0,0`` whom to hand
    the lock; each job's hidden branch picks one or two action steps and
    is a player-1 move.  Action edges carry the job's color; all other
    edges are uncolored.
    """
    nodes = [Node(LOCK_NODE, 0)]
    nodes += [Node(v, 1) for v in
              ("1,0", "2,0", "3,0", "4,0", "5,0",
               "0,1", "0,2", "0,3", "0,4", "0,5")]
    edges = [
        Edge("0,0", None, "1,0"),
        Edge("0,0", None, "0,1"),
        Edge("1,0", None, "2,0"),
        Edge("1,0", None, "3,0"),
        Edge("2,0", JOB0_COLOR, "5,0"),
        Edge("3,0", JOB0_COLOR, "4,0"),
        Edge("4,0", JOB0_COLOR, "5,0"),
        Edge("5,0", None, "0,0"),
        Edge("0,1", None, "0,2"),
        Edge("0,1", None, "0,3"),
        Edge("0,2", JOB1_COLOR, "0,5"),
        Edge("0,3", JOB1_COLOR, "0,4"),
        Edge("0,4", JOB1_COLOR, "0,5"),
        Edge("0,5", None, "0,0"),
    ]
    return RawArena(2, nodes, LOCK_NODE, edges)


@dataclass
class SchedulerPolicy:
    """Counting policy: hand the lock to the job with fewer actions so
    far; ties go to job 0."""

    job0_actions: int = 0
    job1_actions: int = 0

    def pick_entry(self) -> str:
        return _J0_ENTRY if self.job0_actions <= self.job1_actions \
            else _J1_ENTRY

    def observe(self, color: int | None) -> None:
        if color == JOB0_COLOR:
            self.job0_actions += 1
        elif color == JOB1_COLOR:
            self.job1_actions += 1


@dataclass(frozen=True)
class SchedulerRun:
    edges: tuple[Edge, ...]
    max_abs_diff: int
    job0_actions: int
    job1_actions: int


def simulate_scheduler_policy(arena: RawArena,
                              adversary: MemorylessStrategy | int,
                              steps: int) -> SchedulerRun:
    """Play the scheduling game for a number of steps with player 0
    following the counting policy.

    ``adversary`` fixes player 1's branching, either as a memoryless
    strategy or as a seed for uniformly random choices.  Only action
    colors count toward the reported differences; uncolored edges move
    the program counters without progress.
    """
    rng = random.Random(adversary) if isinstance(adversary, int) else None
    chosen = None if rng is not None else adversary.as_dict()
    policy = SchedulerPolicy()
    play: list[Edge] = []
    worst = 0
    node = arena.initial
    for _ in range(steps):
        out = sorted(arena.out_edge_ids(node))
        if node == LOCK_NODE:
            target = policy.pick_entry()
            eid = next(i for i in out if arena.edges[i].dst == target)
        elif len(out) == 1:
            eid = out[0]
        elif rng is not None:
            eid = rng.choice(out)
        else:
            eid = chosen.get(node)
            if eid not in out:
                raise ContractError(f"adversary has no choice at {node!r}")
        edge = arena.edges[eid]
        policy.observe(edge.color)
        play.append(edge)
        diff = abs(policy.job0_actions - policy.job1_actions)
        if diff > worst:
            worst = diff
        node = edge.dst
    return SchedulerRun(tuple(play), worst, policy.job0_actions,
                        policy.job1_actions)
