"""Arena model: loading, validation, desugaring, diff statistics."""

import json
import random
from fractions import Fraction

import pytest

from colorgames import arena as arena_module
from colorgames import (ContractError, DiffMatrix, Edge, FinitePath,
                        FrequencyVector, Goal, Node, RawArena,
                        ValidationError, color_counts, desugar_uncolored,
                        diff_matrix, load_arena, prefix_frequencies,
                        serialize_arena)
from builders import TWO_LOOPS, build_arena
from colorgames.arena import MAX_CHAIN_NODES, MAX_COLORS
from oracles import growing_block, growing_block_word


def arena_text(k, nodes, initial, edges):
    return json.dumps({
        "k": k,
        "nodes": [{"id": i, "owner": o} for i, o in nodes],
        "initial": initial,
        "edges": [{"src": s, "color": c, "dst": d} for s, c, d in edges],
    })


def test_load_minimal_arena():
    arena = load_arena(arena_text(
        2, [("u", 0)], "u", [("u", 1, "u"), ("u", 2, "u")]))
    assert arena.k == 2
    assert len(arena.nodes) == 1
    assert len(arena.edges) == 2


def test_load_rejects_missing_outgoing_edge():
    with pytest.raises(ValidationError):
        load_arena(arena_text(
            2, [("a", 0), ("b", 0)], "a", [("a", 1, "b")]))


def test_load_rejects_dangling_reference():
    with pytest.raises(ValidationError):
        load_arena(arena_text(2, [("a", 0)], "a", [("a", 1, "zz")]))


def test_load_rejects_color_out_of_range():
    with pytest.raises(ValidationError):
        load_arena(arena_text(2, [("a", 0)], "a", [("a", 3, "a")]))


def test_load_rejects_malformed_json():
    from colorgames import ParseError
    with pytest.raises(ParseError):
        load_arena("not json at all {")
    with pytest.raises(ParseError):
        load_arena("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_arena('{"k": 2, "nodes": []}')  # missing fields
    with pytest.raises(ParseError):
        load_arena(arena_text(2, [("a", 0)], "a", [("a", "red", "a")]))


def test_load_rejects_nonpositive_k():
    with pytest.raises(ValidationError):
        load_arena(arena_text(0, [("a", 0)], "a", [("a", 1, "a")]))


def test_load_rejects_k_above_limit():
    with pytest.raises(ValidationError, match="exceeds the limit"):
        load_arena(arena_text(MAX_COLORS + 1, [("a", 0)], "a",
                              [("a", 1, "a")]))
    arena = load_arena(arena_text(MAX_COLORS, [("a", 0)], "a",
                                  [("a", MAX_COLORS, "a")]))
    assert arena.k == MAX_COLORS


def test_desugar_rejects_expansion_above_limit(monkeypatch):
    # (k - 1) * uncolored just above the limit is refused before any
    # chain node is made
    k = 12
    uncolored = MAX_CHAIN_NODES // (k - 1) + 1
    raw = RawArena(k, [Node("a", 0)], "a", [Edge("a", None, "a")] * uncolored)

    def no_chain_node(*args):
        raise AssertionError("a chain node was made")

    monkeypatch.setattr(arena_module, "Node", no_chain_node)
    with pytest.raises(ValidationError, match="chain nodes"):
        desugar_uncolored(raw)


def test_load_rejects_duplicate_ids_and_bad_initial():
    with pytest.raises(ValidationError):
        load_arena(arena_text(2, [("a", 0), ("a", 1)], "a", [("a", 1, "a")]))
    with pytest.raises(ValidationError):
        load_arena(arena_text(2, [("a", 0)], "b", [("a", 1, "a")]))


def test_desugar_two_colors():
    raw = RawArena(2, [Node("u", 0), Node("v", 0)], "u",
                   [Edge("u", None, "v"), Edge("v", 1, "u"),
                    Edge("v", 2, "v")])
    arena = desugar_uncolored(raw)
    assert len(arena.nodes) == 3
    chain = [e for e in arena.edges if e.src == "u" or
             (e.src not in ("u", "v"))]
    assert [e.color for e in chain] == [1, 2]
    assert chain[0].src == "u" and chain[-1].dst == "v"
    mid = chain[0].dst
    assert arena.owner_of(mid) == 0


def test_desugar_three_color_self_loop():
    raw = RawArena(3, [Node("u", 0)], "u", [Edge("u", None, "u")])
    arena = desugar_uncolored(raw)
    assert len(arena.nodes) == 3  # two fresh intermediates
    assert len(arena.edges) == 3
    assert [e.color for e in arena.edges] == [1, 2, 3]
    assert arena.edges[0].src == "u" and arena.edges[-1].dst == "u"


def test_desugar_growth_and_chain_balance():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 4)
        uncolored = rng.randint(0, 3)
        nodes = [Node("a", 0), Node("b", 1)]
        edges = [Edge("a", rng.randint(1, k), "b"),
                 Edge("b", rng.randint(1, k), "a")]
        for _ in range(uncolored):
            edges.append(Edge(rng.choice("ab"), None, rng.choice("ab")))
        raw = RawArena(k, nodes, "a", edges)
        arena = desugar_uncolored(raw)
        assert len(arena.nodes) == 2 + uncolored * (k - 1)
        assert len(arena.edges) == len(edges) + uncolored * (k - 1)
        # each chain contributes one occurrence of every color
        before = color_counts(
            [e.color for e in edges if e.color is not None], k)
        after = color_counts([e.color for e in arena.edges], k)
        assert after == [b + uncolored for b in before]


def test_desugared_arenas_pass_full_validation():
    # desugar_uncolored builds its output without validating it again;
    # the full check must still hold on every expansion
    from oracles import random_raw_arena
    rng = random.Random(29)
    collisions = 0
    for _ in range(300):
        raw = random_raw_arena(rng)
        arena = desugar_uncolored(raw)
        arena._validate(allow_uncolored=False)
        assert len(arena.nodes) == len(raw.nodes) + (raw.k - 1) * sum(
            1 for e in raw.edges if e.color is None)
        collisions += any(nd.id.startswith("_@") for nd in arena.nodes
                          if nd not in raw.nodes)
    assert collisions > 0  # the fresh-id renaming was exercised


def test_desugar_fresh_id_collision_and_single_color():
    raw = RawArena(2, [Node("u", 0), Node("@0.1", 1), Node("_@0.1", 0)], "u",
                   [Edge("u", None, "@0.1"), Edge("@0.1", None, "u"),
                    Edge("_@0.1", 2, "u")])
    arena = desugar_uncolored(raw)
    arena._validate(allow_uncolored=False)
    assert [nd.id for nd in arena.nodes][3:] == ["__@0.1", "@1.1"]
    assert [e.triple() for e in arena.edges] == [
        ["u", 1, "__@0.1"], ["__@0.1", 2, "@0.1"],
        ["@0.1", 1, "@1.1"], ["@1.1", 2, "u"], ["_@0.1", 2, "u"]]
    single = desugar_uncolored(RawArena(
        1, [Node("u", 1), Node("v", 0)], "u",
        [Edge("u", None, "v"), Edge("v", None, "u"), Edge("v", 1, "v")]))
    single._validate(allow_uncolored=False)
    assert len(single.nodes) == 2
    assert [e.color for e in single.edges] == [1, 1, 1]


def test_serialize_round_trip():
    rng = random.Random(3)
    from oracles import random_connected_arena
    for _ in range(25):
        arena = random_connected_arena(rng)
        again = load_arena(serialize_arena(arena))
        assert again == arena


def test_diff_matrix_trivia():
    assert diff_matrix([], 2).is_zero()
    assert diff_matrix([1, 2, 1], 2).entry(1, 2) == 1
    word = [1, 2, 1, 3, 1, 3, 2, 3, 1, 3, 3]  # first block of the example
    assert word == growing_block(1)
    assert diff_matrix(word, 3).entry(3, 1) == 1


def test_diff_matrix_block_word_boundaries():
    for n in (1, 2, 5, 10):
        word = growing_block_word(n)
        assert diff_matrix(word, 3).entry(3, 1) == n


def test_diff_additivity_antisymmetry_random_words():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 5)
        x = [rng.randint(1, k) for _ in range(rng.randint(0, 30))]
        y = [rng.randint(1, k) for _ in range(rng.randint(0, 30))]
        mx, my, mxy = diff_matrix(x, k), diff_matrix(y, k), diff_matrix(x + y, k)
        assert mx + my == mxy
        for a in range(1, k + 1):
            assert mx.entry(a, a) == 0
            for b in range(1, k + 1):
                assert mx.entry(a, b) == -mx.entry(b, a)
                for c in range(1, k + 1):
                    assert mx.entry(a, b) + mx.entry(b, c) == mx.entry(a, c)
        assert sum(color_counts(x, k)) == len(x)


def test_diff_matrix_rejects_non_difference_matrix():
    with pytest.raises(ContractError):
        DiffMatrix([[0, 1], [1, 0]])


def test_prefix_frequencies():
    assert prefix_frequencies([1, 2], 2) == (Fraction(1, 2), Fraction(1, 2))
    assert prefix_frequencies([1, 1, 1], 2) == (Fraction(1), Fraction(0))
    with pytest.raises(ContractError):
        prefix_frequencies([], 2)
    word = growing_block_word(6)
    freqs = prefix_frequencies(word, 3)
    assert sum(freqs) == 1


def test_finite_path_adjacency():
    e1 = Edge("a", 1, "b")
    e2 = Edge("b", 2, "a")
    path = FinitePath([e1, e2])
    assert path.is_cycle() and path.is_simple_cycle()
    with pytest.raises(ContractError):
        FinitePath([e1, e1])


def test_frequency_vector_validation():
    with pytest.raises(ContractError):
        FrequencyVector.of("1/2", "1/3")
    with pytest.raises(ContractError):
        FrequencyVector.of("3/2", "-1/2")
    f = FrequencyVector.parse("2/3,1/3")
    assert f.values == (Fraction(2, 3), Fraction(1, 3))


def test_goal_construction():
    assert Goal.balanced().kind == "balanced"
    with pytest.raises(ContractError):
        Goal("frequency")
    with pytest.raises(ContractError):
        Goal("balanced", FrequencyVector.uniform(2))


def test_owner_partition_total():
    arena = build_arena(2, TWO_LOOPS)
    assert arena.owner_of("u") == 0
    with pytest.raises(ValidationError):
        build_arena(2, TWO_LOOPS, owners={"u": 2})
