"""Tiny construction helpers shared across test modules."""

from __future__ import annotations

from colorgames import ColoredArena, Edge, Node, RawArena


def build_arena(k: int, triples: list[tuple[str, int | None, str]],
                initial: str | None = None,
                owners: dict[str, int] | None = None,
                cls: type = ColoredArena) -> ColoredArena | RawArena:
    """Arena from (src, color, dst) triples; nodes appear in first-seen
    order and default to player 0.  ``cls=RawArena`` takes uncolored
    edges (color None)."""
    owners = owners or {}
    order: list[str] = []
    for s, _, d in triples:
        for name in (s, d):
            if name not in order:
                order.append(name)
    nodes = [Node(name, owners.get(name, 0)) for name in order]
    edges = [Edge(s, c, d) for s, c, d in triples]
    return cls(k, nodes, initial or order[0], edges)


TWO_LOOPS = [("u", 1, "u"), ("u", 2, "u")]
