"""Colored arenas (index tables, validation, desugaring), finite paths,
target rates and goals.

An arena is a finite directed multigraph whose edges carry colors from
1..k, every node belongs to exactly one of two players, and every node
has at least one outgoing edge.  Files may additionally mark edges as
uncolored (``"color": null``); loading replaces each such edge by a chain
of k freshly colored edges so that all downstream algorithms only ever
see fully colored arenas.

Index tables are an arena's primary form: loading parses the file
straight into them and validates them once.  An arena with uncolored
edges keeps the file's tables as its contracted graph, where each chain
is one edge, and expands the chains into the expanded tables on their
first use.  The ``Node`` and ``Edge`` records are built from the
expanded tables on first use.  The record constructors take the same
checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Iterator, NamedTuple


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


@dataclass(frozen=True, slots=True)
class Edge:
    """A colored edge.  ``color`` is None only inside a RawArena."""

    src: str
    color: int | None
    dst: str

    def triple(self) -> list:
        return [self.src, self.color, self.dst]


class ContractedGraph(NamedTuple):
    """An arena's contracted graph.  Its nodes are the file's nodes, the
    first positions of the expanded node list.  Its edges are the file's
    edges, and a desugared chain is one edge of marker color 0 (length
    k, one occurrence of every color) from the chain's source to its
    target.  Edges are keyed by their expanded ids, a chain by its
    head's (its k edges follow from there), so ``out_ids[i]`` is node
    i's expanded out-list.  ``chains`` counts the chains."""

    node_ids: list
    owners: list
    node_index: dict
    out_ids: list
    edge_src: list | dict
    edge_color: list | dict
    edge_dst: list | dict
    chains: int


class _ArenaBase:
    """Raw and colored arenas, held as index tables: per node
    ``node_ids`` and ``owners``, ``node_index`` from ids to node
    positions, per edge ``edge_src`` and ``edge_dst`` (node positions)
    and ``edge_color``, and ``out_ids[i]``, node i's outgoing edge ids
    in ascending order.  The tables are never changed.  A colored
    arena with chains builds them on first use (see ``ColoredArena``).
    The records ``nodes`` and ``edges`` are built from them on first
    access; building tables or records twice gives equal ones, so
    threads sharing an arena stay safe."""

    def __init__(self, k, nodes, initial, edges):
        """Split the records into the loader's fields and check those."""
        nodes, edges = tuple(nodes), tuple(edges)
        _fill(self, *_checked_tables(
            k, [nd.id for nd in nodes], [nd.owner for nd in nodes], initial,
            [e.src for e in edges], [e.color for e in edges],
            [e.dst for e in edges], isinstance(self, RawArena)))
        self.nodes, self.edges = nodes, edges

    @classmethod
    def from_fields(cls, k, node_ids, owners, initial, srcs, colors, dsts):
        """The arena of the loader's fields (node ids, owners, and per
        edge source id, color and target id), checked as records are."""
        return cls.from_tables(*_checked_tables(
            k, node_ids, owners, initial, srcs, colors, dsts,
            issubclass(cls, RawArena)))

    @classmethod
    def from_tables(cls, k, node_ids, owners, initial, node_index, edge_src,
                    edge_color, edge_dst):
        """An arena on checked tables, not validated again: a loaded
        file's, or those of a construction that keeps every invariant."""
        return _fill(cls.__new__(cls), k, node_ids, owners, initial,
                     node_index, edge_src, edge_color, edge_dst)

    chains = 0  # the arena's own tables hold no chain edge

    @property
    def contracted(self) -> ContractedGraph | _ArenaBase:
        """The contracted graph: the arena itself, whose tables are those
        of a contracted graph without chains, unless it is a colored
        arena with chains, which keeps one as ``_contracted``."""
        return self.__dict__.get("_contracted", self)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(Node, self.node_ids, self.owners))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        ids = self.node_ids.__getitem__
        return tuple(map(Edge, map(ids, self.edge_src), self.edge_color,
                         map(ids, self.edge_dst)))

    # --- queries -------------------------------------------------------

    def owner_of(self, node_id: str) -> int:
        return self.owners[self.node_index[node_id]]

    def out_edge_ids(self, node_id: str) -> list[int]:
        return self.out_ids[self.node_index[node_id]]

    def player_nodes(self, owner: int) -> list[Node]:
        return [nd for nd in self.nodes if nd.owner == owner]

    def _tables(self) -> tuple:
        return (self.k, self.node_ids, self.owners, self.initial,
                self.edge_src, self.edge_color, self.edge_dst)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._tables() == other._tables()

    def __hash__(self):  # structural identity is what matters for tests
        return hash((self.k, tuple(self.node_ids), self.initial,
                     tuple(self.edge_color)))

    def to_json_dict(self) -> dict:
        ids = self.node_ids
        return {
            "k": self.k,
            "nodes": [{"id": i, "owner": o}
                      for i, o in zip(ids, self.owners)],
            "initial": self.initial,
            "edges": [{"src": ids[s], "color": c, "dst": ids[d]}
                      for s, c, d in zip(self.edge_src, self.edge_color,
                                         self.edge_dst)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _fill(arena, k, node_ids, owners, initial, node_index, edge_src,
          edge_color, edge_dst):
    """Set an arena's tables from checked fields and return it."""
    arena.k, arena.initial = k, initial
    arena.node_ids, arena.owners, arena.node_index = (node_ids, owners,
                                                      node_index)
    arena.edge_src, arena.edge_color, arena.edge_dst = (edge_src, edge_color,
                                                        edge_dst)
    arena.out_ids = out_ids = [[] for _ in node_ids]
    for eid, s in enumerate(edge_src):
        out_ids[s].append(eid)
    return arena


def _checked_tables(k, node_ids, owners, initial, srcs, colors, dsts,
                    allow_uncolored: bool) -> tuple:
    """Check an arena's fields in a fixed order; return its tables in
    the order ``from_tables`` takes them."""
    if k < 1:
        raise ValidationError(f"color count k must be >= 1, got {k}")
    if k > MAX_COLORS:
        raise ValidationError(
            f"color count k = {k} exceeds the limit {MAX_COLORS}")
    index: dict[str, int] = {}
    for i, (node, owner) in enumerate(zip(node_ids, owners)):
        if node in index:
            raise ValidationError(f"duplicate node id {node!r}")
        index[node] = i
        if owner not in (0, 1):
            raise ValidationError(
                f"node {node!r} has owner {owner!r}, expected 0 or 1")
    if initial not in index:
        raise ValidationError(f"initial node {initial!r} does not exist")
    edge_src, edge_dst = list(map(index.get, srcs)), list(map(index.get, dsts))
    for eid, (s, c, d) in enumerate(zip(edge_src, colors, edge_dst)):
        if s is None:
            raise ValidationError(
                f"edge {eid} has unknown source {srcs[eid]!r}")
        if d is None:
            raise ValidationError(
                f"edge {eid} has unknown target {dsts[eid]!r}")
        if c is None:
            if not allow_uncolored:
                raise ValidationError(f"edge {eid} is uncolored")
        elif not 1 <= c <= k:
            raise ValidationError(
                f"edge {eid} has color {c}, outside 1..{k}")
    idle = set(range(len(node_ids))).difference(edge_src)
    if idle:
        raise ValidationError(
            f"node {node_ids[min(idle)]!r} has no outgoing edge")
    return k, node_ids, owners, initial, index, edge_src, colors, edge_dst


class RawArena(_ArenaBase):
    """An arena as written in a file, possibly with uncolored edges."""

    def desugar(self) -> "ColoredArena":
        return desugar_uncolored(self)


class ColoredArena(_ArenaBase):
    """A validated arena where every edge carries a color in 1..k.  One
    desugared from a file with chains builds its expanded tables from
    the file's when one of them is first asked for."""

    def __getattr__(self, name):  # only called for a missing attribute
        if name not in _EXPANDED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        _fill(self, *_expanded(*self._file))
        return self.__dict__[name]


_EXPANDED = frozenset(("node_ids", "owners", "node_index", "out_ids",
                       "edge_src", "edge_color", "edge_dst"))


def desugar_uncolored(raw: RawArena) -> ColoredArena:
    """Replace every uncolored edge u->v by a chain of k edges colored
    1..k in ascending order through k-1 fresh player-0 nodes.

    A full chain traversal adds one occurrence of every color, so the
    expansion never disturbs color differences at chain boundaries.
    More than ``MAX_CHAIN_NODES`` fresh nodes is a ``ValidationError``,
    raised here.  The raw arena was validated and the expansion keeps
    every invariant (fresh ids are unique, each chain node has its one
    outgoing edge, chain colors lie in 1..k), so the result is not
    validated again.  The chains are expanded on first use of an
    expanded table.
    """
    return _desugared(raw.k, raw.node_ids, raw.owners, raw.initial,
                      raw.node_index, raw.edge_src, raw.edge_color,
                      raw.edge_dst)


def _desugared(k, node_ids, owners, initial, index, edge_src, colors,
               edge_dst) -> ColoredArena:
    """The colored arena of checked file tables.  Without uncolored
    edges it is built on them; otherwise only its contracted graph is
    built, and the tables are kept for the expansion."""
    chains = colors.count(None)
    if (k - 1) * chains > MAX_CHAIN_NODES:
        raise ValidationError(
            f"expanding the uncolored edges needs {(k - 1) * chains} "
            f"chain nodes, more than the limit {MAX_CHAIN_NODES}")
    tables = (k, node_ids, owners, initial, index, edge_src, colors,
              edge_dst)
    if not chains:
        return ColoredArena.from_tables(*tables)
    arena = ColoredArena.__new__(ColoredArena)
    arena.k, arena.initial, arena._file = k, initial, tables
    arena._contracted = _contract(k, node_ids, owners, index, edge_src,
                                  colors, edge_dst)
    return arena


def _contract(k, node_ids, owners, index, edge_src, colors,
              edge_dst) -> ContractedGraph:
    """The contracted graph of file tables whose uncolored edges (color
    None) are chains.  In the expanded edge list a chain's k edges follow
    from its head id, which is the file edge id plus k - 1 per uncolored
    edge before it."""
    out_ids = [[] for _ in node_ids]
    src, color, dst = {}, {}, {}
    head = 0
    for s, c, d in zip(edge_src, colors, edge_dst):
        out_ids[s].append(head)
        src[head], color[head], dst[head] = s, c or 0, d
        head += 1 if c else k
    return ContractedGraph(node_ids, owners, index, out_ids, src, color, dst,
                           colors.count(None))


def _expanded(k, node_ids, owners, initial, index, edge_src, colors,
              edge_dst) -> tuple:
    """The expanded tables of checked file tables, in the order
    ``from_tables`` takes them; the chain nodes follow the file's nodes,
    chain by chain.  The given tables are not changed."""
    uncolored = [eid for eid, c in enumerate(colors) if c is None]
    node = len(node_ids)
    fresh = _chain_ids(uncolored, k, index)
    index = dict(index)
    index.update(zip(fresh, range(node, node + len(fresh))))
    src, color, dst = [], [], []
    for eid, c in enumerate(colors):
        if c is not None:
            src.append(edge_src[eid])
            color.append(c)
            dst.append(edge_dst[eid])
            continue
        chain = range(node, node + k - 1)
        node += k - 1
        src.append(edge_src[eid])
        src += chain
        color += range(1, k + 1)
        dst += chain
        dst.append(edge_dst[eid])
    return (k, node_ids + fresh, owners + [0] * len(fresh), initial, index,
            src, color, dst)


def _chain_ids(uncolored: list[int], k: int, index: dict) -> list[str]:
    """Fresh chain-node ids ``@eid.step`` per uncolored edge eid and step
    1..k-1, each prefixed with ``_`` while a node of the file has it."""
    fresh = [f"@{eid}.{step}" for eid in uncolored for step in range(1, k)]
    if not index.keys().isdisjoint(fresh):
        for i, name in enumerate(fresh):
            while name in index:
                name = "_" + name
            fresh[i] = name
    return fresh


def _parsed_fields(text: str) -> tuple:
    """k, node ids, owners, initial node, and per edge its source id,
    color and target id, as the text gives them.  Only JSON integers,
    not booleans, are read as k, owners and colors, and only JSON
    strings as node ids."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError or an over-long integer
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("arena file must contain a JSON object")
    for field in ("k", "nodes", "initial", "edges"):
        if field not in data:
            raise ParseError(f"missing field {field!r}")
    node_ids, owners, srcs, colors, dsts = [], [], [], [], []
    try:
        k = _typed(data["k"], int, "k")
        for n in data["nodes"]:
            node_ids.append(_typed(n["id"], str, "id"))
            owners.append(_typed(n["owner"], int, "owner"))
        initial = _typed(data["initial"], str, "initial")
        for e in data["edges"]:
            srcs.append(_typed(e["src"], str, "src"))
            c = e["color"]
            colors.append(c if c is None else _typed(c, int, "color"))
            dsts.append(_typed(e["dst"], str, "dst"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed arena object: {exc}") from exc
    return k, node_ids, owners, initial, srcs, colors, dsts


def _typed(value, kind: type, field: str):
    if type(value) is not kind:  # bool is an int subclass, so not accepted
        name = "a string" if kind is str else "an integer"
        raise ParseError(f"{field} must be {name}, got {value!r}")
    return value


def load_raw_arena(text: str) -> RawArena:
    """Parse and validate an arena file without expanding uncolored
    edges."""
    return RawArena.from_fields(*_parsed_fields(text))


def load_arena(text: str) -> ColoredArena:
    """Parse, validate once and desugar an arena file on index tables;
    every check, the chain-node limit included, runs here.  No node or
    edge record is built, and chains are expanded on first use."""
    return _desugared(*_checked_tables(*_parsed_fields(text),
                                       allow_uncolored=True))


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


def _exact(value) -> Fraction:
    """``Fraction(value)``, refusing a string in exponent notation:
    ``Fraction("1e-99999999")`` builds 10**99999999 before any check."""
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ContractError(f"frequency {value!r} uses exponent notation")
    return Fraction(value)


@dataclass(frozen=True)
class FrequencyVector:
    """k nonnegative rationals summing exactly to one: the target rates
    r_a, the desired limits of count_a(prefix) / len(prefix).  Their
    integer form r_a = nums[a-1] / den is computed once per vector."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(map(_exact, self.values))
        if not values:
            raise ContractError("empty frequency vector")
        if any(v < 0 for v in values):
            raise ContractError("frequencies must be nonnegative")
        if sum(values) != 1:
            raise ContractError("frequencies must sum to exactly 1")
        den = lcm(*(v.denominator for v in values))
        fill = object.__setattr__  # the dataclass is frozen
        fill(self, "values", values)
        fill(self, "k", len(values))
        fill(self, "den", den)
        fill(self, "nums", tuple(v.numerator * (den // v.denominator)
                                 for v in values))

    @classmethod
    def of(cls, *values) -> "FrequencyVector":
        return cls(values)

    @classmethod
    @lru_cache(maxsize=32)
    def uniform(cls, k: int) -> "FrequencyVector":
        """Equal rates 1/k; one shared (immutable) instance per k, kept
        for the 32 most recently used k."""
        return cls(tuple(Fraction(1, k) for _ in range(k)))

    @classmethod
    def parse(cls, text: str) -> "FrequencyVector":
        """Parse a comma-separated list of exact rationals like 2/3,1/3."""
        parts = [p.strip() for p in text.split(",")]
        try:
            values = tuple(map(_exact, parts))
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

    def rates(self, k: int) -> FrequencyVector | None:
        """The goal's target rates on k colors: None for the bounded
        goal, 1/k per color for the balanced one."""
        if self.kind == "bounded":
            return None
        if self.kind == "balanced":
            return FrequencyVector.uniform(k)
        if len(self.freq) != k:
            raise ContractError(
                f"frequency vector has arity {len(self.freq)}, arena has {k} "
                "colors")
        return self.freq
