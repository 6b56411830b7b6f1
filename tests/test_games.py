"""Game solver: enumeration, pruning, winners, witnesses."""

import hashlib
import json
from collections import Counter

import pytest

from colorgames import (ColoredArena, ContractError, Edge, FrequencyVector,
                        GameResult, Goal, InternalCheckError, RawArena,
                        StrategyBudgetError, cnf_to_arena, cnf_to_raw_arena,
                        count_strategies, decide_balanced_path,
                        decide_winner, enumerate_strategies,
                        graph_decide, graphs, load_arena, prune,
                        serialize_arena)
from colorgames import arena as arena_module
from colorgames import cli
from colorgames.arena import _EXPANDED
from colorgames.graphs import reachable_canonical_form
from builders import TWO_LOOPS, build_arena
from oracles import (arena_fields, bounded_walk_is_exact, expanded_edge_ids,
                     loop_set_is_exact, random_connected_arena,
                     random_formula, random_frequency, random_raw_arena,
                     reference_canonical_form,
                     reference_contracted_canonical_form,
                     reference_decide_winner, reference_graph_decide,
                     reference_prune, reference_store_decision,
                     reference_tables)
from colorgames import CnfFormula

import random


def clause(*lits):
    return frozenset(lits)


def test_enumerate_no_player1_nodes():
    arena = build_arena(2, TWO_LOOPS)
    strategies = list(enumerate_strategies(arena))
    assert len(strategies) == 1
    assert strategies[0].choices == ()


def test_enumerate_counts_and_order():
    triples = [("a", 1, "b"), ("a", 2, "b"),
               ("b", 1, "a"), ("b", 2, "a"), ("b", 2, "b")]
    arena = build_arena(2, triples, owners={"a": 1, "b": 1})
    strategies = list(enumerate_strategies(arena))
    assert len(strategies) == count_strategies(arena) == 6
    picks = [tuple(eid for _, eid in s.choices) for s in strategies]
    assert picks == sorted(picks)  # lexicographic in (node, edge) order


def test_cnf_arena_strategy_count():
    rng = random.Random(1)
    for _ in range(5):
        formula = random_formula(rng, max_vars=3, max_clauses=3)
        arena = cnf_to_arena(formula)
        assert count_strategies(arena) == 2 ** formula.num_vars


def test_prune_empty_strategy_restricts_to_reachable():
    arena = build_arena(2, [("u", 1, "u"), ("u", 2, "u"), ("w", 1, "w")])
    strategies = list(enumerate_strategies(arena))
    pruned = prune(arena, strategies[0])
    assert {nd.id for nd in pruned.nodes} == {"u"}
    assert len(pruned.edges) == 2


def test_prune_keeps_only_chosen_edge():
    arena = build_arena(2, [("a", 1, "b"), ("a", 2, "b"), ("b", 1, "a")],
                        owners={"a": 1})
    for strategy in enumerate_strategies(arena):
        pruned = prune(arena, strategy)
        out = [pruned.edges[i] for i in pruned.out_edge_ids("a")]
        assert len(out) == 1
        assert out[0].color == arena.edges[strategy.as_dict()["a"]].color


def test_prune_cnf_branch_choice():
    formula = CnfFormula(2, (clause((1, True), (2, False)),))
    arena = cnf_to_arena(formula)
    for strategy in enumerate_strategies(arena):
        pruned = prune(arena, strategy)
        names = {nd.id for nd in pruned.nodes}
        upper_1 = "v1.1" in names
        lower_1 = "~v1.1" in names
        assert upper_1 != lower_1  # exactly one branch per subarena
        assert ("v2.1" in names) != ("~v2.1" in names)


def test_all_player0_game_matches_graph_decision():
    arena = build_arena(2, TWO_LOOPS)
    for goal in (Goal.balanced(), Goal.bounded(),
                 Goal.frequency(FrequencyVector.of("2/3", "1/3"))):
        result = decide_winner(arena, goal)
        assert result.winner == 0
        assert result.strategies_total == 1
        assert graph_decide(arena, goal).exists


def test_single_clause_game_player1_lower_branch():
    formula = CnfFormula(1, (clause((1, True)),))
    arena = cnf_to_arena(formula)
    result = decide_winner(arena, Goal.balanced())
    assert result.winner == 1
    chosen = arena.edges[result.witness.as_dict()["v1"]]
    # the falsifying assignment sends v1 toward the lower branch chain
    assert chosen.dst.startswith("@")  # desugared chain head
    pruned = prune(arena, result.witness)
    assert "~v1.1" in {nd.id for nd in pruned.nodes}
    assert "v1.1" not in {nd.id for nd in pruned.nodes}


def test_player1_witness_revalidates():
    formula = CnfFormula(2, (clause((1, True), (2, True)),))
    arena = cnf_to_arena(formula)
    for goal in (Goal.balanced(), Goal.bounded()):
        result = decide_winner(arena, goal)
        assert result.winner == 1
        assert not graph_decide(prune(arena, result.witness), goal).exists


def test_player0_log_is_exhaustive():
    formula = CnfFormula(1, (clause((1, True), (1, False)),))
    arena = cnf_to_arena(formula)
    result = decide_winner(arena, Goal.balanced())
    assert result.winner == 0
    assert [i for i, _ in result.log] == list(range(result.strategies_total))
    assert all(ok for _, ok in result.log)


def test_balanced_and_bounded_agree_on_cnf_arenas():
    rng = random.Random(9)
    cache = {}
    for _ in range(12):
        formula = random_formula(rng, max_vars=3, max_clauses=2)
        arena = cnf_to_arena(formula)
        a = decide_winner(arena, Goal.balanced(), cache=cache)
        b = decide_winner(arena, Goal.bounded(), cache=cache)
        assert a.winner == b.winner


def _fix_choice(arena: ColoredArena, node_id: str, eid: int) -> ColoredArena:
    keep = [e for i, e in enumerate(arena.edges)
            if e.src != node_id or i == eid]
    return ColoredArena(arena.k, list(arena.nodes), arena.initial, keep)


def test_monotone_specialization():
    rng = random.Random(13)
    cache = {}
    tried = 0
    while tried < 6:
        formula = random_formula(rng, max_vars=3, max_clauses=2)
        arena = cnf_to_arena(formula)
        result = decide_winner(arena, Goal.balanced(), cache=cache)
        if result.winner != 1:
            continue
        tried += 1
        for node_id, eid in result.witness.choices:
            fixed = _fix_choice(arena, node_id, eid)
            again = decide_winner(fixed, Goal.balanced())
            assert again.winner == 1


def test_pruned_cnf_keeps_one_cycle_skeleton():
    # any branch assignment leaves the v1 .. vm' ring in one component
    from colorgames import edge_components
    formula = CnfFormula(2, (clause((1, True)), clause((2, False))))
    arena = cnf_to_arena(formula)
    ring = [nd.id for nd in arena.nodes
            if nd.id.startswith("v") and "." not in nd.id]
    for strategy in enumerate_strategies(arena):
        pruned = prune(arena, strategy)
        group_of = {pruned.edges[eid].src: gi for gi, group in enumerate(
            edge_components(pruned, range(len(pruned.edges))))
            for eid in group}
        assert len({group_of[v] for v in ring}) == 1


def test_random_two_player_games_cache_matches_fresh():
    from oracles import random_connected_arena
    rng = random.Random(71)
    cache = {}
    for _ in range(25):
        arena = random_connected_arena(rng, two_player=True)
        for goal in (Goal.balanced(), Goal.bounded()):
            fresh = decide_winner(arena, goal)
            cached = decide_winner(arena, goal, cache=cache)
            assert fresh.winner == cached.winner
            assert fresh.witness == cached.witness
            assert fresh.log == cached.log


def test_strategy_budget():
    formula = CnfFormula(3, (clause((1, True)),))
    arena = cnf_to_arena(formula)
    with pytest.raises(StrategyBudgetError):
        decide_winner(arena, Goal.balanced(), max_strategies=7)


def test_decide_winner_checks_arity():
    arena = build_arena(2, TWO_LOOPS)
    from colorgames import ContractError
    with pytest.raises(ContractError):
        decide_winner(arena, Goal.frequency(FrequencyVector.uniform(3)))


# --- canonical forms on the parent arena ------------------------------------


def _parent_form(arena, strategy):
    key, order = reachable_canonical_form(arena, strategy.as_dict())
    return key, [arena.edges[i].triple() for i in order]


def _pruned_form(arena, strategy):
    pruned = prune(arena, strategy)
    key, order = reachable_canonical_form(pruned)
    return key, [pruned.edges[i].triple() for i in order]


def _seeded_raw_games(seed):
    """Files of seeded games: 30 CNF arenas with uncolored edges, then
    120 random two-player arenas."""
    rng = random.Random(seed)
    for _ in range(30):
        yield cnf_to_raw_arena(random_formula(rng, max_vars=3,
                                              max_clauses=3))
    for _ in range(120):
        arena = random_connected_arena(rng, two_player=True)
        yield RawArena(arena.k, arena.nodes, arena.initial, arena.edges)


def _seeded_game_arenas(seed):
    """The games of ``_seeded_raw_games``, loaded from their raw text."""
    for raw in _seeded_raw_games(seed):
        yield load_arena(raw.to_json())


def test_parent_canonical_form_matches_pruned_arena():
    for arena in _seeded_game_arenas(606):
        for strategy in enumerate_strategies(arena):
            assert _parent_form(arena, strategy) == \
                _pruned_form(arena, strategy)


def test_canonical_form_matches_id_based_reference():
    # for every strategy, the same key and edge order as a BFS by node
    # ids: on arenas loaded from raw text and on their pruned arenas, the
    # BFS that reads chains off the file (pruned by the reference); on
    # arenas whose chains are explicit edges, loaded or directly
    # constructed, the BFS over the expanded edges
    for raw in _seeded_raw_games(707):
        arena = load_arena(raw.to_json())
        loaded = load_arena(serialize_arena(arena))
        direct = ColoredArena(arena.k, arena.nodes, arena.initial,
                              arena.edges)
        for strategy, on_file in zip(enumerate_strategies(arena),
                                     enumerate_strategies(raw)):
            choice = strategy.as_dict()
            assert reachable_canonical_form(arena, choice) == \
                reference_contracted_canonical_form(raw, choice)
            for a in (loaded, direct):
                assert reachable_canonical_form(a, choice) == \
                    reference_canonical_form(a, choice)
            pruned = prune(arena, strategy)
            assert pruned == prune(loaded, strategy)
            assert arena_fields(pruned) == {
                **arena_fields(pruned),
                **reference_tables(pruned.nodes, pruned.edges)}
            assert reachable_canonical_form(pruned) == \
                reference_contracted_canonical_form(
                    reference_prune(raw, on_file))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_contracted_form_covers_chain_corner_cases(k):
    # a chain of one edge and no fresh node at k = 1, parallel uncolored
    # edges, an uncolored self-loop, and a file node named @0.1, so that
    # edge 0's first chain node is _@0.1
    raw = build_arena(k, [("@0.1", None, "u"), ("@0.1", 1, "u"),
                          ("u", None, "v"), ("u", None, "v"),
                          ("v", None, "v"), ("v", 1, "@0.1"),
                          ("u", 1, "@0.1")],
                      owners={"@0.1": 1, "v": 1}, cls=RawArena)
    arena = load_arena(raw.to_json())
    for strategy, on_file in zip(enumerate_strategies(arena),
                                 enumerate_strategies(raw)):
        choice = strategy.as_dict()
        assert reachable_canonical_form(arena, choice) == \
            reference_contracted_canonical_form(raw, choice)
        assert reachable_canonical_form(prune(arena, strategy)) == \
            reference_contracted_canonical_form(
                reference_prune(raw, on_file))
        assert _parent_form(arena, strategy) == _pruned_form(arena, strategy)
    assert count_strategies(arena) == 4
    assert ("_@0.1" in arena.node_index) == (k > 1)
    assert len(arena.edge_src) == 7 + 4 * (k - 1)


def _shuffled_file(raw, rng):
    """The same file with renamed nodes, and nodes and edges shuffled."""
    nodes = list(raw.nodes)
    rng.shuffle(nodes)
    name = {nd.id: f"m{i}" for i, nd in enumerate(nodes)}
    edges = [Edge(name[e.src], e.color, name[e.dst]) for e in raw.edges]
    rng.shuffle(edges)
    return RawArena(raw.k, [type(nd)(name[nd.id], nd.owner) for nd in nodes],
                    name[raw.initial], edges)


def _expanded_order(raw, order):
    """A canonical order's expanded edge ids: a chain's k edges from its
    head id, with the heads read off the file."""
    heads = {x for x, e in zip(expanded_edge_ids(raw), raw.edges)
             if e.color is None}
    return [j for i in order
            for j in (range(i, i + raw.k) if i in heads else (i,))]


def _reachable_edge_ids(arena, choice):
    """Expanded edge ids reachable from the initial node, by node ids."""
    out = {}
    for eid, e in enumerate(arena.edges):
        out.setdefault(e.src, []).append(eid)
    seen, queue, kept = {arena.initial}, [arena.initial], []
    for u in queue:
        for eid in [choice[u]] if u in choice else out[u]:
            kept.append(eid)
            if arena.edges[eid].dst not in seen:
                seen.add(arena.edges[eid].dst)
                queue.append(arena.edges[eid].dst)
    return sorted(kept)


def test_equal_contracted_keys_match_expanded_graphs_edge_for_edge():
    # each order, its chains expanded, lists exactly the reachable
    # expanded edges; under equal keys two such lists match edge for
    # edge: equal colors, through one injective node map that sends the
    # initial node to the initial node
    rng = random.Random(727)
    raws = [cnf_to_raw_arena(random_formula(rng, max_vars=3, max_clauses=3))
            for _ in range(20)]
    raws += [random_raw_arena(rng) for _ in range(60)]
    raws += [_shuffled_file(raw, rng) for raw in raws]
    first, compared = {}, 0
    for raw in raws:
        arena = load_arena(raw.to_json())
        for strategy in enumerate_strategies(arena):
            choice = strategy.as_dict()
            key, order = reachable_canonical_form(arena, choice)
            ids = _expanded_order(raw, order)
            assert sorted(ids) == _reachable_edge_ids(arena, choice)
            if key not in first:
                first[key] = arena, ids
                continue
            other, other_ids = first[key]
            assert len(other_ids) == len(ids)
            node_map = {other.initial: arena.initial}
            for a, b in zip(other_ids, ids):
                ea, eb = other.edges[a], arena.edges[b]
                assert ea.color == eb.color
                assert node_map.setdefault(ea.src, eb.src) == eb.src
                assert node_map.setdefault(ea.dst, eb.dst) == eb.dst
            assert len(set(node_map.values())) == len(node_map)
            compared += 1
    assert compared > 300


def test_foreign_choices_fail_where_the_reference_fails():
    # a foreign edge fails exactly when its node is reached
    rng = random.Random(808)
    failures = 0
    for _ in range(200):
        arena = random_connected_arena(rng, two_player=True)
        choice = {nd.id: rng.randrange(len(arena.edges))
                  for nd in arena.nodes if rng.random() < 0.5}
        outcomes = []
        for form in (reachable_canonical_form, reference_canonical_form):
            try:
                outcomes.append(form(arena, choice))
            except ContractError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        failures += isinstance(outcomes[0], str)
    assert 0 < failures < 200


def test_canonical_order_sorts_by_final_target_labels():
    # BFS meets n1, n2, n1 along n0's color-1 edges; the canonical order
    # puts both edges to n1 (label 1) before the edge to n2 (label 2)
    arena = build_arena(2, [("n0", 1, "n1"), ("n0", 1, "n2"), ("n0", 1, "n1"),
                            ("n1", 2, "n0"), ("n1", 1, "n2"),
                            ("n2", 2, "n0")], owners={"n1": 1})
    key, order = reachable_canonical_form(arena)
    assert order[:3] == [0, 2, 1]
    assert key[2][:3] == ((0, 1, 1), (0, 1, 1), (0, 1, 2))
    for strategy in enumerate_strategies(arena):
        assert _parent_form(arena, strategy) == _pruned_form(arena, strategy)
        _, order = reachable_canonical_form(arena, strategy.as_dict())
        assert order[:3] == [0, 2, 1]


def test_canonical_form_rejects_foreign_choice():
    arena = build_arena(2, [("a", 1, "b"), ("b", 2, "a"), ("b", 1, "b")],
                        owners={"a": 1})
    with pytest.raises(ContractError):
        reachable_canonical_form(arena, {"a": 1})


def test_sweep_fills_the_cache_like_the_pruned_arena_loop():
    goals = {2: (Goal.balanced(), Goal.bounded(),
                 Goal.frequency(FrequencyVector.of("1/3", "2/3"))),
             3: (Goal.balanced(), Goal.bounded(),
                 Goal.frequency(FrequencyVector.of("1/2", "1/4", "1/4")))}
    cache, reference = {}, {}
    for arena in _seeded_game_arenas(607):
        for goal in goals.get(arena.k, (Goal.balanced(), Goal.bounded())):
            result = decide_winner(arena, goal, cache=cache)
            expected = reference_decide_winner(arena, goal, reference)
            assert (result.winner, result.witness, result.log) == expected
            assert result.explored == len(expected[2])
    assert cache == reference


def _record_json(arena) -> str:
    """An arena's JSON written from its records, not its tables."""
    return json.dumps({
        "k": arena.k, "initial": arena.initial,
        "nodes": [{"id": nd.id, "owner": nd.owner} for nd in arena.nodes],
        "edges": [{"src": e.src, "color": e.color, "dst": e.dst}
                  for e in arena.edges]}, sort_keys=True)


def test_prune_on_tables_matches_record_reference():
    # loaded arenas hold tables only; the pruned arena built from them
    # equals the one built from records in its JSON, records and tables
    cnf = 0
    for arena in _seeded_game_arenas(909):
        loaded = load_arena(serialize_arena(arena))
        cnf += any(nd.id.startswith("@") for nd in arena.nodes)
        for strategy in enumerate_strategies(loaded):
            pruned = prune(loaded, strategy)
            expected = reference_prune(arena, strategy)
            assert hashlib.sha256(pruned.to_json().encode()).digest() == \
                hashlib.sha256(_record_json(expected).encode()).digest()
            fields = arena_fields(pruned)
            assert fields == {**fields, "nodes": expected.nodes,
                              "edges": expected.edges,
                              **reference_tables(expected.nodes,
                                                 expected.edges)}
        assert "nodes" not in vars(loaded) and "edges" not in vars(loaded)
    assert cnf == 30


# p chooses between two edges into the 4-cycle a -1-> b -2-> c -1-> d -2-> a,
# whose a -> b edge has a parallel edge of color 2
_TAMPER_ARENA = [("p", 1, "a"), ("p", 2, "a"), ("a", 1, "b"), ("a", 2, "b"),
                 ("b", 2, "c"), ("c", 1, "d"), ("d", 2, "a")]


def _tampered(payload, order, arena, how, bounded):
    """A stored witness changed by ``how``: two positions swapped, the
    last two edges dropped (their colors cancel, so only the closure
    check sees it), or each a -1-> b replaced by its color-2 twin."""
    ab = {arena.edges.index(Edge("a", c, "b")) for c in (1, 2)}

    def walk(positions):
        if how == "swap":
            return (positions[1], positions[0], *positions[2:])
        if how == "open":
            return positions[:-2]
        return tuple(order.index(*ab - {order[i]}) if order[i] in ab else i
                     for i in positions)
    return walk(payload) if bounded else tuple(
        (walk(positions), c) for positions, c in payload)


@pytest.mark.parametrize("how", ["swap", "open", "color"])
@pytest.mark.parametrize("goal", [Goal.balanced(), Goal.bounded()])
def test_tampered_cache_hits_fail_the_table_check(goal, how):
    bounded = goal.kind == "bounded"
    game = build_arena(2, _TAMPER_ARENA, owners={"p": 1})
    one_player = build_arena(2, _TAMPER_ARENA[2:])
    for arena, choices in ((game, [s.as_dict() for s in
                                   enumerate_strategies(game)]),
                           (one_player, [None])):
        cache = {}
        if arena is game:
            decide = lambda: decide_winner(arena, goal, cache=cache)
        else:
            decide = lambda: graph_decide(arena, goal, cache)
        assert (decide().winner == 0) if arena is game else decide().exists
        prefix = graphs.decision_key_prefix(goal.rates(2))
        for choice in choices:
            ckey, order = reachable_canonical_form(arena, choice)
            exists, payload = cache[(*prefix, ckey)]
            assert exists
            cache[(*prefix, ckey)] = (True, _tampered(
                payload, order, arena, how, bounded))
        with pytest.raises(InternalCheckError, match="^cached "):
            decide()


def test_warm_cache_sweep_builds_no_records(monkeypatch):
    # a second sweep over freshly loaded arenas hits on every strategy
    # and checks each hit on the tables alone
    rng = random.Random(919)
    texts = [serialize_arena(cnf_to_arena(random_formula(
        rng, max_vars=3, max_clauses=3))) for _ in range(40)]
    goals = (Goal.balanced(), Goal.bounded())
    cache = {}
    warm = [decide_winner(load_arena(t), g, cache=cache)
            for t in texts for g in goals]
    size = len(cache)
    monkeypatch.setattr(graphs, "_decide", None)  # a miss would fail
    arenas = [load_arena(t) for t in texts]
    again = [decide_winner(a, g, cache=cache) for a in arenas for g in goals]
    assert again == warm and len(cache) == size
    for arena in arenas:
        assert "nodes" not in vars(arena) and "edges" not in vars(arena)


# p chooses between two edges into the cycle a ==> b -1-> c -2-> a, whose
# chain a ==> b (colors 1, 2) has a parallel a -1-> b edge; only loops
# through the chain balance the colors
_CHAIN_TAMPER_ARENA = [("p", 1, "a"), ("p", 2, "a"), ("a", None, "b"),
                       ("a", 1, "b"), ("b", 1, "c"), ("c", 2, "a")]


def _tampered_chain(payload, chain, twin, how, bounded):
    """A stored witness changed by ``how``: its first two positions
    swapped, the chain's position dropped, the chain replaced by its
    parallel colored edge, or the walk run twice."""
    def walk(positions):
        assert chain in positions
        if how == "swap":
            return (positions[1], positions[0], *positions[2:])
        if how == "drop":
            return tuple(i for i in positions if i != chain)
        if how == "twice":
            return positions * 2
        return tuple(twin if i == chain else i for i in positions)
    return walk(payload) if bounded else tuple(
        (walk(positions), c) for positions, c in payload)


@pytest.mark.parametrize("how", ["swap", "drop", "color", "twice"])
@pytest.mark.parametrize("goal", [Goal.balanced(), Goal.bounded()])
def test_tampered_chain_hits_fail_the_table_check(goal, how):
    # a loop run twice is not simple; a bounded walk run twice is still
    # a witness, so that hit must pass
    bounded = goal.kind == "bounded"
    for triples in (_CHAIN_TAMPER_ARENA, _CHAIN_TAMPER_ARENA[2:]):
        raw = build_arena(2, triples, owners={"p": 1}, cls=RawArena)
        game = triples[0][0] == "p"
        cache = {}

        def decide():
            arena = load_arena(raw.to_json())
            if game:
                return decide_winner(arena, goal, cache=cache).winner == 0
            return graph_decide(arena, goal, cache).exists
        assert decide()
        arena = load_arena(raw.to_json())
        head, twin = (expanded_edge_ids(raw)[triples.index(t)]
                      for t in (("a", None, "b"), ("a", 1, "b")))
        prefix = graphs.decision_key_prefix(goal.rates(2))
        choices = [s.as_dict() for s in enumerate_strategies(arena)]
        for choice in choices if game else [None]:
            ckey, order = reachable_canonical_form(arena, choice)
            exists, payload = cache[(*prefix, ckey)]
            assert exists
            cache[(*prefix, ckey)] = (True, _tampered_chain(
                payload, order.index(head), order.index(twin), how,
                bounded))
        if how == "twice" and bounded:
            assert decide()
            continue
        with pytest.raises(InternalCheckError, match="^cached "):
            decide()


def test_warm_cache_sweep_on_raw_texts_expands_no_arena(monkeypatch):
    # the raw-text twin of the sweep above, with the text a client sends:
    # a second sweep over freshly loaded arenas hits on every strategy
    # and neither expands a chain nor builds a record
    rng = random.Random(919)
    texts = [cnf_to_raw_arena(random_formula(
        rng, max_vars=3, max_clauses=3)).to_json() for _ in range(40)]
    goals = (Goal.balanced(), Goal.bounded())
    cache = {}
    warm = [decide_winner(load_arena(t), g, cache=cache)
            for t in texts for g in goals]
    size = len(cache)
    monkeypatch.setattr(graphs, "_decide", None)  # a miss would fail
    monkeypatch.setattr(arena_module, "_expanded", None)  # so would this
    arenas = [load_arena(t) for t in texts]
    again = [decide_winner(a, g, cache=cache) for a in arenas for g in goals]
    assert again == warm and len(cache) == size
    for arena in arenas:
        assert arena.contracted.chains > 0
        assert not vars(arena).keys() & {"nodes", "edges", *_EXPANDED}


def test_restored_one_player_witnesses_pass_the_exact_checks():
    # one-player hits restored with their witness, on arenas loaded from
    # raw text and on renamed, shuffled copies of them: every loop set
    # and bounded walk passes the exact record checks, each loop and
    # walk starts at a node of the file, and the verdict is the fresh one
    rng = random.Random(929)
    raws = [cnf_to_raw_arena(random_formula(rng, max_vars=3, max_clauses=3))
            for _ in range(15)]
    raws += [random_raw_arena(rng) for _ in range(60)]
    goals = (Goal.balanced(), Goal.bounded())
    cache, restored = {}, 0
    for raw in raws + [_shuffled_file(raw, rng) for raw in raws]:
        files = {nd.id for nd in raw.nodes}
        for goal in goals:
            arena = load_arena(raw.to_json())
            size = len(cache)
            decision = graph_decide(arena, goal, cache)
            assert decision.exists == graph_decide(arena, goal).exists
            if not decision.exists or len(cache) > size:
                continue
            restored += 1
            if goal.kind == "bounded":
                assert bounded_walk_is_exact(arena, decision.witness)
                assert decision.witness.start in files
            else:
                assert loop_set_is_exact(arena, decision.witness,
                                         goal.rates(arena.k))
                assert all(path.start in files
                           for path, _ in decision.witness.loops)
    assert restored > 50


def _miss_payloads(raw, goal):
    """Per strategy of the loaded file, in order: the canonical key, the
    verdict and payload of a cold cache miss on the parent arena, and
    the payload that the pruned-arena reference stores."""
    arena = load_arena(raw.to_json())
    rates = goal.rates(arena.k)
    out = []
    for tau in enumerate_strategies(arena):
        cache = {}
        exists = graphs.cached_decision(cache, arena, rates, tau.as_dict(),
                                        witness=False).exists
        [(key, stored)] = cache.items()
        out.append((key, exists, stored, tau))
    # the misses expanded no chain
    assert not arena.contracted.chains or "edge_src" not in vars(arena)
    for i, (key, exists, stored, tau) in enumerate(out):
        order = reachable_canonical_form(arena, tau.as_dict())[1]
        out[i] = (key, exists, stored, reference_store_decision(
            arena, order, reference_graph_decide(prune(arena, tau), goal)))
    return out


def _differential_files(seed):
    rng = random.Random(seed)
    raws = [cnf_to_raw_arena(random_formula(rng, max_vars=3, max_clauses=3))
            for _ in range(20)]
    raws += [random_raw_arena(rng) for _ in range(150)]
    return rng, raws


@pytest.mark.parametrize("kind", ["balanced", "bounded", "frequency"])
def test_miss_path_matches_the_pruned_arena_reference(kind):
    # every strategy of seeded CNF files and two-player files with
    # uncolored edges: the miss decided on the parent's contracted graph
    # stores the verdict and payload that deciding the pruned arena on
    # its expanded tables, with the unit-walk decomposition, stored
    rng, raws = _differential_files(947)
    seen = Counter()
    for raw in raws:
        goal = (Goal.frequency(random_frequency(rng, raw.k))
                if kind == "frequency" else Goal(kind))
        for _, exists, stored, expected in _miss_payloads(raw, goal):
            assert stored == expected
            assert exists == stored[0]
            seen[exists] += 1
            seen["chain"] += exists and any(e.color is None
                                            for e in raw.edges)
    assert seen[True] > 100 and seen[False] > 100 and seen["chain"] > 50


def _relabeled(raw, rng):
    """The file with renamed nodes and shuffled nodes and edges, with a
    map from its strategies' choice tables to the new file's."""
    nodes = list(raw.nodes)
    rng.shuffle(nodes)
    name = {nd.id: f"m{i}" for i, nd in enumerate(nodes)}
    perm = list(range(len(raw.edges)))
    rng.shuffle(perm)  # edge j of the new file is edge perm[j] of raw
    new = RawArena(raw.k, [type(nd)(name[nd.id], nd.owner) for nd in nodes],
                   name[raw.initial],
                   [Edge(name[e.src], e.color, name[e.dst]) for e in
                    map(raw.edges.__getitem__, perm)])
    old_ids, new_ids = expanded_edge_ids(raw), expanded_edge_ids(new)
    to_new = {old_ids[f]: new_ids[j] for j, f in enumerate(perm)}
    return new, lambda choice: {name[u]: to_new[x] for u, x in choice.items()}


@pytest.mark.parametrize("kind", ["balanced", "bounded", "frequency"])
def test_miss_path_is_invariant_under_relabeling_and_edge_order(kind):
    # renaming the nodes and shuffling nodes and edges keeps every
    # strategy's verdict, and the new file's misses match the
    # pruned-arena reference too
    rng, raws = _differential_files(953)
    compared = 0
    for raw in raws:
        goal = (Goal.frequency(random_frequency(rng, raw.k))
                if kind == "frequency" else Goal(kind))
        new, mapped = _relabeled(raw, rng)
        assert all(stored == expected
                   for _, _, stored, expected in _miss_payloads(new, goal))
        arenas = [load_arena(f.to_json()) for f in (raw, new)]
        rates = goal.rates(raw.k)
        for tau in enumerate_strategies(arenas[0]):
            choices = (tau.as_dict(), mapped(tau.as_dict()))
            verdicts = {graphs.cached_decision({}, a, rates, c).exists
                        for a, c in zip(arenas, choices)}
            assert len(verdicts) == 1
            compared += 1
    assert compared > 500


def test_cold_cached_game_run_expands_nothing(monkeypatch, tmp_path, capsys):
    # cold decide_winner runs with a cache on CNF arenas, misses
    # included, leave the expanded tables unbuilt and build no Edge
    # record; the CLI's solve report is the pruned-arena loop's result
    built = []
    init = Edge.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    rng = random.Random(937)
    texts = [cnf_to_raw_arena(random_formula(rng, max_vars=3, max_clauses=3))
             .to_json() for _ in range(20)]
    goals = (Goal.balanced(), Goal.bounded())
    monkeypatch.setattr(Edge, "__init__", counted)
    misses = 0
    for goal in goals:
        cache = {}
        for text in texts:
            arena = load_arena(text)
            size = len(cache)
            decide_winner(arena, goal, cache=cache)
            misses += len(cache) - size
            assert "edge_src" not in arena.__dict__
            assert not vars(arena).keys() & {"nodes", "edges", *_EXPANDED}
    assert not built and misses > 50
    monkeypatch.undo()
    path = tmp_path / "game.json"
    for text in texts[:6]:
        path.write_text(text)
        for goal in goals:
            code = cli.main(["solve", "--arena", str(path),
                             "--goal", goal.kind])
            report = json.loads(capsys.readouterr().out)
            arena = load_arena(text)
            winner, witness, log = reference_decide_winner(arena, goal, None)
            expected = GameResult(winner, witness, count_strategies(arena),
                                  len(log))
            assert code == winner
            assert report["result"] == expected.to_json_dict()
            assert report["witness"] == (None if witness is None else {
                "type": "strategy", "choices": witness.as_dict()})
