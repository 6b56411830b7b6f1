"""Colored arenas: the node/edge data model, validation, desugaring and
prefix color statistics.

An arena is a finite directed multigraph whose edges carry colors from
1..k, every node belongs to exactly one of two players, and every node
has at least one outgoing edge.  Files may additionally mark edges as
uncolored (``"color": null``); loading replaces each such edge by a chain
of k freshly colored edges so that all downstream algorithms only ever
see fully colored arenas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


# Input limits.  Work and memory grow with k (k x k rate matrices, one
# balance row per color pair) and with the k - 1 fresh nodes that each
# uncolored edge expands into, so a file of a few hundred bytes could
# otherwise ask for millions of nodes.  Both are checked before anything
# of that size is allocated.
MAX_COLORS = 256
MAX_CHAIN_NODES = 100_000


class ArenaError(Exception):
    """Base class for arena file problems."""


class ParseError(ArenaError):
    """The arena text is not well-formed."""


class ValidationError(ArenaError):
    """The arena violates a structural invariant."""


class ContractError(Exception):
    """A documented precondition was violated by the caller."""


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    owner: int  # 0 or 1

    # slot descriptors: half the cost of the generated frozen __init__
    def __init__(self, id: str, owner: int):
        _SET_ID(self, id)
        _SET_OWNER(self, owner)


@dataclass(frozen=True, slots=True)
class Edge:
    """A colored edge.  ``color`` is None only inside a RawArena."""

    src: str
    color: int | None
    dst: str

    def __init__(self, src: str, color: int | None, dst: str):
        _SET_SRC(self, src)
        _SET_COLOR(self, color)
        _SET_DST(self, dst)

    def triple(self) -> list:
        return [self.src, self.color, self.dst]


_SET_ID, _SET_OWNER = Node.id.__set__, Node.owner.__set__
_SET_SRC, _SET_COLOR, _SET_DST = (Edge.src.__set__, Edge.color.__set__,
                                  Edge.dst.__set__)


class _ArenaBase:
    """Structure and index tables, built at construction, of raw and
    colored arenas: ``node_index`` maps ids to positions in ``nodes``,
    ``out_ids[i]`` lists node i's outgoing edge ids in ascending order,
    ``edge_dst``/``edge_color`` give each edge's target index and color."""

    def __init__(self, k: int, nodes: Sequence[Node], initial: str,
                 edges: Sequence[Edge], node_index: dict | None = None):
        self.k = k
        self.nodes = tuple(nodes)
        self.initial = initial
        self.edges = tuple(edges)
        if node_index is None:
            node_index = {nd.id: i for i, nd in enumerate(self.nodes)}
        self.node_index = node_index
        self.out_ids: list[list[int]] = [[] for _ in self.nodes]
        for eid, e in enumerate(self.edges):
            si = node_index.get(e.src)
            if si is not None:  # unknown ids are left to validation
                self.out_ids[si].append(eid)
        self.edge_dst = [node_index.get(e.dst) for e in self.edges]
        self.edge_color = [e.color for e in self.edges]

    # --- queries -------------------------------------------------------

    def owner_of(self, node_id: str) -> int:
        return self.nodes[self.node_index[node_id]].owner

    def out_edge_ids(self, node_id: str) -> list[int]:
        return self.out_ids[self.node_index[node_id]]

    def player_nodes(self, owner: int) -> list[Node]:
        return [nd for nd in self.nodes if nd.owner == owner]

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.k == other.k
                and self.nodes == other.nodes and self.initial == other.initial
                and self.edges == other.edges)

    def __hash__(self):  # structural identity is what matters for tests
        return hash((self.k, self.nodes, self.initial, self.edges))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "nodes": [{"id": nd.id, "owner": nd.owner} for nd in self.nodes],
            "initial": self.initial,
            "edges": [{"src": e.src, "color": e.color, "dst": e.dst}
                      for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _checked_index(k, nodes, initial, edges,
                   allow_uncolored: bool) -> dict[str, int]:
    """Check an arena's invariants in a fixed order; return its index."""
    if k < 1:
        raise ValidationError(f"color count k must be >= 1, got {k}")
    if k > MAX_COLORS:
        raise ValidationError(
            f"color count k = {k} exceeds the limit {MAX_COLORS}")
    index: dict[str, int] = {}
    for i, nd in enumerate(nodes):
        if nd.id in index:
            raise ValidationError(f"duplicate node id {nd.id!r}")
        index[nd.id] = i
        if nd.owner not in (0, 1):
            raise ValidationError(
                f"node {nd.id!r} has owner {nd.owner!r}, expected 0 or 1")
    if initial not in index:
        raise ValidationError(f"initial node {initial!r} does not exist")
    for eid, e in enumerate(edges):
        if e.src not in index:
            raise ValidationError(f"edge {eid} has unknown source {e.src!r}")
        if e.dst not in index:
            raise ValidationError(f"edge {eid} has unknown target {e.dst!r}")
        if e.color is None:
            if not allow_uncolored:
                raise ValidationError(f"edge {eid} is uncolored")
        elif not 1 <= e.color <= k:
            raise ValidationError(
                f"edge {eid} has color {e.color}, outside 1..{k}")
    sources = {e.src for e in edges}
    for nd in nodes:
        if nd.id not in sources:
            raise ValidationError(f"node {nd.id!r} has no outgoing edge")
    return index


class RawArena(_ArenaBase):
    """An arena as written in a file, possibly with uncolored edges."""

    def __init__(self, k, nodes, initial, edges):
        super().__init__(k, nodes, initial, edges)
        _checked_index(k, self.nodes, initial, self.edges, True)

    def desugar(self) -> "ColoredArena":
        return desugar_uncolored(self)


class ColoredArena(_ArenaBase):
    """A validated arena where every edge carries a color in 1..k."""

    def __init__(self, k, nodes, initial, edges):
        super().__init__(k, nodes, initial, edges)
        _checked_index(k, self.nodes, initial, self.edges, False)

    @classmethod
    def derived(cls, k, nodes, initial, edges) -> "ColoredArena":
        """An arena built from a validated one by a construction that keeps
        every invariant (such as pruning to a reachable part), so it is
        not validated again."""
        arena = cls.__new__(cls)
        _ArenaBase.__init__(arena, k, nodes, initial, edges)
        return arena


def desugar_uncolored(raw: RawArena) -> ColoredArena:
    """Replace every uncolored edge u->v by a chain of k edges colored
    1..k in ascending order through k-1 fresh player-0 nodes.

    A full chain traversal adds one occurrence of every color, so the
    expansion never disturbs color differences at chain boundaries.
    More than ``MAX_CHAIN_NODES`` fresh nodes is a ``ValidationError``.
    The raw arena was validated and the expansion keeps every invariant
    (fresh ids are unique, each chain node has its one outgoing edge,
    chain colors lie in 1..k), so the result is not validated again.
    """
    return _expand(raw.k, raw.nodes, raw.initial, raw.edges,
                   dict(raw.node_index))


def _expand(k, nodes, initial, edges, index: dict) -> ColoredArena:
    """``desugar_uncolored`` on validated fields and their node index."""
    fresh_nodes = (k - 1) * sum(e.color is None for e in edges)
    if fresh_nodes > MAX_CHAIN_NODES:
        raise ValidationError(
            f"expanding the uncolored edges needs {fresh_nodes} chain nodes, "
            f"more than the limit {MAX_CHAIN_NODES}")
    nodes = list(nodes)
    colored: list[Edge] = []
    for eid, e in enumerate(edges):
        if e.color is not None:
            colored.append(e)
            continue
        prev = e.src
        for step in range(1, k):
            fresh = f"@{eid}.{step}"
            while fresh in index:
                fresh = "_" + fresh
            index[fresh] = len(nodes)
            nodes.append(Node(fresh, 0))
            colored.append(Edge(prev, step, fresh))
            prev = fresh
        colored.append(Edge(prev, k, e.dst))
    arena = ColoredArena.__new__(ColoredArena)
    _ArenaBase.__init__(arena, k, nodes, initial, colored, index)
    return arena


def _parsed_fields(text: str) -> tuple:
    """k, nodes, initial node and edges as the text gives them.  Only
    JSON integers, not booleans, are read as k, owners and colors."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError or an over-long integer
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("arena file must contain a JSON object")
    for field in ("k", "nodes", "initial", "edges"):
        if field not in data:
            raise ParseError(f"missing field {field!r}")
    try:
        k = _integer(data["k"], "k")
        nodes = [Node(str(n["id"]), _integer(n["owner"], "owner"))
                 for n in data["nodes"]]
        initial = str(data["initial"])
        edges = [
            Edge(str(e["src"]),
                 None if e["color"] is None else _integer(e["color"], "color"),
                 str(e["dst"]))
            for e in data["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed arena object: {exc}") from exc
    return k, nodes, initial, edges


def _integer(value, field: str) -> int:
    if type(value) is not int:  # bool is an int subclass, so not accepted
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def load_raw_arena(text: str) -> RawArena:
    """Parse and validate an arena file without expanding uncolored
    edges."""
    return RawArena(*_parsed_fields(text))


def load_arena(text: str) -> ColoredArena:
    """Parse, validate once and desugar an arena file, in one pass."""
    fields = _parsed_fields(text)
    return _expand(*fields, _checked_index(*fields, allow_uncolored=True))


def serialize_arena(arena: ColoredArena) -> str:
    """Emit the desugared arena; load_arena(serialize_arena(a)) == a."""
    return arena.to_json()


# --- color statistics ----------------------------------------------------


def color_counts(word: Iterable[int], k: int) -> list[int]:
    counts = [0] * k
    for c in word:
        if not 1 <= c <= k:
            raise ContractError(f"color {c} outside 1..{k}")
        counts[c - 1] += 1
    return counts


class DiffMatrix:
    """k x k integer matrix of pairwise color-count differences.

    Entry (a, b) is the number of occurrences of color a minus the number
    of occurrences of color b; the matrix is antisymmetric with zero
    diagonal and entry(a,b) + entry(b,c) = entry(a,c).
    """

    __slots__ = ("k", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(r) for r in rows)
        self.k = len(self.rows)
        for r in self.rows:
            if len(r) != self.k:
                raise ContractError("diff matrix must be square")
        ref = [self.rows[a][self.k - 1] for a in range(self.k)]
        for a in range(self.k):
            for b in range(self.k):
                if self.rows[a][b] != ref[a] - ref[b]:
                    raise ContractError(
                        "matrix is not a pairwise-difference matrix")

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "DiffMatrix":
        return cls([[ca - cb for cb in counts] for ca in counts])

    @classmethod
    def zero(cls, k: int) -> "DiffMatrix":
        return cls([[0] * k for _ in range(k)])

    def entry(self, a: int, b: int) -> int:
        """1-based access, matching color names."""
        return self.rows[a - 1][b - 1]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def __add__(self, other: "DiffMatrix") -> "DiffMatrix":
        if self.k != other.k:
            raise ContractError("size mismatch")
        return DiffMatrix([[x + y for x, y in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def scaled(self, c: int) -> "DiffMatrix":
        return DiffMatrix([[c * v for v in row] for row in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"DiffMatrix({[list(r) for r in self.rows]})"


def diff_matrix(word, k: int) -> DiffMatrix:
    """Color difference matrix of a finite color word or path."""
    if isinstance(word, FinitePath):
        word = word.colors()
    return DiffMatrix.from_counts(color_counts(word, k))


def prefix_frequencies(word, k: int) -> tuple[Fraction, ...]:
    """Exact per-color frequencies of a nonempty finite prefix."""
    if isinstance(word, FinitePath):
        word = word.colors()
    counts = color_counts(word, k)
    n = sum(counts)
    if n == 0:
        raise ContractError("prefix frequencies are undefined on length 0")
    return tuple(Fraction(c, n) for c in counts)


class FinitePath:
    """A sequence of edges where consecutive edges share endpoints."""

    __slots__ = ("edges",)

    def __init__(self, edges: Iterable[Edge]):
        self.edges = tuple(edges)
        if not self.edges:
            raise ContractError("a finite path needs at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.dst != b.src:
                raise ContractError(
                    f"edges {a} and {b} are not adjacent")

    @property
    def start(self) -> str:
        return self.edges[0].src

    @property
    def end(self) -> str:
        return self.edges[-1].dst

    def colors(self) -> list[int]:
        return [e.color for e in self.edges]

    def nodes(self) -> list[str]:
        return [self.edges[0].src] + [e.dst for e in self.edges]

    def is_cycle(self) -> bool:
        return self.start == self.end

    def is_simple_cycle(self) -> bool:
        if not self.is_cycle():
            return False
        interior = [e.src for e in self.edges]
        return len(set(interior)) == len(interior)

    def __len__(self):
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __eq__(self, other):
        return isinstance(other, FinitePath) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"FinitePath({list(self.edges)!r})"


@dataclass(frozen=True)
class FrequencyVector:
    """k nonnegative rationals summing exactly to one."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ContractError("empty frequency vector")
        if any(v < 0 for v in self.values):
            raise ContractError("frequencies must be nonnegative")
        if sum(self.values) != 1:
            raise ContractError("frequencies must sum to exactly 1")

    @classmethod
    def of(cls, *values) -> "FrequencyVector":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def uniform(cls, k: int) -> "FrequencyVector":
        return cls(tuple(Fraction(1, k) for _ in range(k)))

    @classmethod
    def parse(cls, text: str) -> "FrequencyVector":
        """Parse a comma-separated list of exact rationals like 2/3,1/3."""
        parts = [p.strip() for p in text.split(",")]
        try:
            values = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ContractError(f"bad frequency vector {text!r}: {exc}") from exc
        return cls(values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class Goal:
    """What the constructed infinite path must satisfy."""

    kind: str  # "balanced" | "bounded" | "frequency"
    freq: FrequencyVector | None = None

    def __post_init__(self):
        if self.kind not in ("balanced", "bounded", "frequency"):
            raise ContractError(f"unknown goal kind {self.kind!r}")
        if self.kind == "frequency" and self.freq is None:
            raise ContractError("frequency goal needs a frequency vector")
        if self.kind != "frequency" and self.freq is not None:
            raise ContractError(f"{self.kind} goal takes no frequency vector")

    @classmethod
    def balanced(cls) -> "Goal":
        return cls("balanced")

    @classmethod
    def bounded(cls) -> "Goal":
        return cls("bounded")

    @classmethod
    def frequency(cls, freq: FrequencyVector) -> "Goal":
        return cls("frequency", freq)
