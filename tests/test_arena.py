"""Arena model: loading, validation, desugaring, diff statistics."""

import json
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from colorgames import arena as arena_module
from colorgames import (ArenaError, ColoredArena, ContractError, DiffMatrix,
                        Edge, FinitePath, FrequencyVector, Goal, Node,
                        ParseError, RawArena, ValidationError, color_counts,
                        desugar_uncolored, diff_matrix, load_arena,
                        load_raw_arena, prefix_frequencies, serialize_arena)
from builders import TWO_LOOPS, build_arena
from colorgames.arena import MAX_CHAIN_NODES, MAX_COLORS
from oracles import (arena_fields, growing_block, growing_block_word,
                     random_raw_arena, reference_load_arena, reference_tables)


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


def _forbid_chain_nodes(monkeypatch):
    """Make the node constructor the expansion calls fail on a chain
    node; raw nodes are still made."""
    make_node = arena_module.Node

    def node(id, owner):
        if id.startswith("@"):
            raise AssertionError("a chain node was made")
        return make_node(id, owner)

    monkeypatch.setattr(arena_module, "Node", node)


def test_desugar_rejects_expansion_above_limit(monkeypatch):
    # (k - 1) * uncolored just above the limit is refused before any
    # chain node is made; at the limit, expansion starts and trips the
    # guard, which shows that the guard sees what expansion calls
    k = 12
    at_limit = MAX_CHAIN_NODES // (k - 1)
    within, above = (RawArena(k, [Node("a", 0)], "a",
                              [Edge("a", None, "a")] * uncolored)
                     for uncolored in (at_limit, at_limit + 1))
    _forbid_chain_nodes(monkeypatch)
    with pytest.raises(AssertionError, match="chain node was made"):
        desugar_uncolored(within)
    with pytest.raises(ValidationError, match="chain nodes"):
        desugar_uncolored(above)


def test_load_arena_rejects_expansion_above_limit(monkeypatch):
    # 255 * 393 = 100,215 chain nodes; 255 * 392 = 99,960 are allowed
    def text(uncolored):
        return arena_text(MAX_COLORS, [("a", 0)], "a",
                          [("a", None, "a")] * uncolored)
    _forbid_chain_nodes(monkeypatch)
    with pytest.raises(AssertionError, match="chain node was made"):
        load_arena(text(392))
    with pytest.raises(ValidationError, match="100215 chain nodes"):
        load_arena(text(393))


@pytest.mark.parametrize("field, value", [
    ("k", 2.7), ("k", "2"), ("k", True), ("owner", True), ("owner", 1.0),
    ("color", 1.9), ("color", "1"), ("color", False)])
def test_load_rejects_non_integer_fields(field, value):
    # int() once read these as k = 2, owner 1, color 1 and so on
    data = json.loads(arena_text(2, [("a", 0), ("b", 1)], "a",
                                 [("a", 1, "b"), ("b", 2, "a")]))
    if field == "k":
        data["k"] = value
    elif field == "owner":
        data["nodes"][1]["owner"] = value
    else:
        data["edges"][0]["color"] = value
    for load in (load_arena, load_raw_arena):
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            load(json.dumps(data))


@pytest.mark.parametrize("field, value", [
    ("id", 1), ("initial", 1), ("src", 1), ("dst", None)])
def test_load_rejects_non_string_ids(field, value):
    # str() once read these as the node "1" (and "None")
    data = json.loads(arena_text(1, [("1", 0)], "1", [("1", 1, "1")]))
    if field == "id":
        data["nodes"][0]["id"] = value
    elif field == "initial":
        data["initial"] = value
    else:
        data["edges"][0][field] = value
    for load in (load_arena, load_raw_arena):
        with pytest.raises(ParseError, match=f"^{field} must be a string, "
                                             f"got {value!r}$"):
            load(json.dumps(data))


def test_number_id_is_not_a_duplicate_of_its_string():
    text = arena_text(1, [("1", 0), (1, 0)], "1", [("1", 1, "1")])
    with pytest.raises(ParseError, match="^id must be a string, got 1$"):
        load_arena(text)


def test_load_rejects_over_long_integer_as_json_error():
    text = ('{"k": ' + "1" * 5000
            + ', "nodes": [], "initial": "a", "edges": []}')
    with pytest.raises(ParseError, match="invalid JSON"):
        load_arena(text)


def test_load_arena_matches_two_step_reference():
    rng = random.Random(53)
    collisions = single_color = 0
    for _ in range(300):
        text = random_raw_arena(rng).to_json()
        fields = reference_load_arena(text)
        assert arena_fields(load_arena(text)) == fields
        raw = load_raw_arena(text)
        assert arena_fields(raw) == {
            **arena_fields(raw), **reference_tables(raw.nodes, raw.edges)}
        assert arena_fields(desugar_uncolored(raw)) == fields
        direct = ColoredArena(*(fields[f] for f in ("k", "nodes", "initial",
                                                     "edges")))
        assert arena_fields(direct) == fields
        collisions += any(nd.id.startswith("_@") for nd in fields["nodes"])
        single_color += fields["k"] == 1
    assert collisions > 0 and single_color > 0


def _broken_texts(rng):
    """One text per error kind, each made from a seeded valid arena."""
    base = random_raw_arena(rng).to_json_dict()
    node = rng.randrange(len(base["nodes"]))
    edge = rng.randrange(len(base["edges"]))
    node_id = base["nodes"][node]["id"]

    def variant(change):
        data = json.loads(json.dumps(base))
        change(data)
        return json.dumps(data)

    yield json.dumps(base)[:-1]
    yield json.dumps([base])
    yield variant(lambda d: d.pop(rng.choice(("k", "nodes", "initial",
                                              "edges"))))
    yield variant(lambda d: d["nodes"][node].pop("owner"))
    yield variant(lambda d: d.update(edges=7))
    yield variant(lambda d: d.update(k=rng.choice((2.5, "2", True, None))))
    yield variant(lambda d: d["nodes"][node].update(owner=rng.choice(
        (1.0, "0", False))))
    yield variant(lambda d: d["edges"][edge].update(color=rng.choice(
        (1.5, "1", True))))
    yield variant(lambda d: d["nodes"][node].update(id=7))
    yield variant(lambda d: d.update(initial=0))
    yield variant(lambda d: d["edges"][edge].update(src=None))
    yield variant(lambda d: d["edges"][edge].update(dst=[node_id]))
    yield variant(lambda d: d.update(k=rng.choice((0, -3))))
    yield variant(lambda d: d.update(k=MAX_COLORS + 1))
    yield variant(lambda d: d["nodes"].append(dict(d["nodes"][node])))
    yield variant(lambda d: d["nodes"][node].update(owner=2))
    yield variant(lambda d: d.update(initial="nowhere"))
    yield variant(lambda d: d["edges"][edge].update(src="nowhere"))
    yield variant(lambda d: d["edges"][edge].update(dst="nowhere"))
    yield variant(lambda d: d["edges"][edge].update(color=d["k"] + 1))
    yield variant(lambda d: d["nodes"].append({"id": "isolated",
                                               "owner": 0}))
    yield variant(lambda d: d.update(k=MAX_COLORS, edges=d["edges"] + [
        {"src": node_id, "color": None, "dst": node_id}] * 393))


def _failure(load, text):
    try:
        load(text)
    except ArenaError as exc:
        return type(exc), str(exc)
    return None


def test_load_arena_errors_match_two_step_reference():
    rng = random.Random(59)
    for _ in range(40):
        for text in _broken_texts(rng):
            failure = _failure(reference_load_arena, text)
            assert failure is not None
            assert _failure(load_arena, text) == failure
            if "chain nodes" not in failure[1]:
                assert _failure(load_raw_arena, text) == failure


def test_node_and_edge_stay_frozen_records():
    edge, node = Edge("a", 1, "b"), Node("a", 0)
    for record, field in ((edge, "color"), (node, "owner")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, 2)
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)
    assert not hasattr(edge, "__dict__")  # fields are slots
    assert edge == Edge(src="a", color=1, dst="b") != Edge("a", 2, "b")
    assert edge != ("a", 1, "b") and ("a", 1, "b") != edge
    assert node != Node("a", 1) and node != ("a", 0)
    assert hash(edge) == hash(("a", 1, "b")) and hash(node) == hash(("a", 0))
    assert repr(edge) == "Edge(src='a', color=1, dst='b')"
    assert repr(node) == "Node(id='a', owner=0)"
    assert pickle.loads(pickle.dumps(edge)) == edge


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
        ColoredArena(arena.k, arena.nodes, arena.initial, arena.edges)
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
    ColoredArena(arena.k, arena.nodes, arena.initial, arena.edges)
    assert [nd.id for nd in arena.nodes][3:] == ["__@0.1", "@1.1"]
    assert [e.triple() for e in arena.edges] == [
        ["u", 1, "__@0.1"], ["__@0.1", 2, "@0.1"],
        ["@0.1", 1, "@1.1"], ["@1.1", 2, "u"], ["_@0.1", 2, "u"]]
    single = desugar_uncolored(RawArena(
        1, [Node("u", 1), Node("v", 0)], "u",
        [Edge("u", None, "v"), Edge("v", None, "u"), Edge("v", 1, "v")]))
    ColoredArena(single.k, single.nodes, single.initial, single.edges)
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
