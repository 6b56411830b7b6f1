"""Metamorphic properties of the game solver and the one-player
deciders: transformations that keep the game or graph the same must keep
its answer, and the decision cache must not change any answer.  Seeded;
every case is reproducible."""

import random
from collections import Counter
from fractions import Fraction

from colorgames import (ColoredArena, Edge, FrequencyVector, Goal, Node,
                        RawArena, cnf_to_arena, decide_balanced_path,
                        decide_bounded_path, decide_frequency_path,
                        decide_winner,
                        is_zero_diff_cycle, loop_ratio_matches)
from oracles import (random_connected_arena, random_formula,
                     random_raw_arena, reference_decide_winner)

FREQ = {2: FrequencyVector.of("1/3", "2/3"),
        3: FrequencyVector.of("1/2", "1/4", "1/4")}


def goals_for(arena):
    out = [Goal.balanced(), Goal.bounded()]
    if arena.k in FREQ:
        out.append(Goal.frequency(FREQ[arena.k]))
    return out


def seeded_games(seed):
    rng = random.Random(seed)
    for _ in range(16):
        yield rng, cnf_to_arena(random_formula(rng, max_vars=2,
                                               max_clauses=2))
    for _ in range(60):
        yield rng, random_connected_arena(rng, two_player=True)


# --- transformations ----------------------------------------------------------


def relabeled(arena, rng):
    """Fresh node names, nodes listed in a shuffled order."""
    order = list(arena.nodes)
    rng.shuffle(order)
    name = {nd.id: f"r{i}" for i, nd in enumerate(order)}
    return ColoredArena(arena.k, [Node(name[nd.id], nd.owner) for nd in order],
                        name[arena.initial],
                        [Edge(name[e.src], e.color, name[e.dst])
                         for e in arena.edges])


def edges_shuffled(arena, rng):
    edges = list(arena.edges)
    rng.shuffle(edges)
    return ColoredArena(arena.k, arena.nodes, arena.initial, edges)


def with_unreachable_part(arena, rng):
    """New nodes of both players that only reach into the arena."""
    old = [nd.id for nd in arena.nodes]
    new = [Node(f"x{i}", rng.randint(0, 1)) for i in range(rng.randint(1, 2))]
    edges = list(arena.edges)
    for nd in new:
        for _ in range(rng.randint(1, 2)):
            target = rng.choice(old + [m.id for m in new])
            edges.append(Edge(nd.id, rng.randint(1, arena.k), target))
    return ColoredArena(arena.k, list(arena.nodes) + new, arena.initial,
                        edges)


def with_parallel_copies(arena, rng):
    """Copies of existing edges, inserted at random positions."""
    edges = list(arena.edges)
    for _ in range(rng.randint(1, 2)):
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(arena.edges))
    return ColoredArena(arena.k, arena.nodes, arena.initial, edges)


TRANSFORMS = (relabeled, edges_shuffled, with_unreachable_part,
              with_parallel_copies)


# --- properties -----------------------------------------------------------------


def test_game_preserving_transformations_keep_the_winner():
    for rng, arena in seeded_games(515):
        for goal in goals_for(arena):
            winner = decide_winner(arena, goal).winner
            for transform in TRANSFORMS:
                changed = transform(arena, rng)
                assert decide_winner(changed, goal).winner == winner, \
                    (transform.__name__, goal.kind)


def test_warm_cache_answers_like_a_cold_one():
    # the warm cache holds decisions stored from isomorphic graphs with
    # other node names and edge ids, so every hit is restored elsewhere;
    # the reference decides every pruned arena afresh, with no cache
    warm: dict = {}
    for rng, arena in seeded_games(516):
        variants = [arena] + [t(arena, rng) for t in TRANSFORMS]
        for goal in goals_for(arena):
            for variant in variants:
                decide_winner(variant, goal, cache=warm)
        for goal in goals_for(arena):
            for variant in variants:
                cold = decide_winner(variant, goal)
                hot = decide_winner(variant, goal, cache=warm)
                assert (hot.winner, hot.witness, hot.log) == \
                    (cold.winner, cold.witness, cold.log) == \
                    reference_decide_winner(variant, goal, None)


# --- one-player deciders --------------------------------------------------------


def recolored(arena, perm):
    """Color c becomes perm[c - 1]."""
    return ColoredArena(arena.k, arena.nodes, arena.initial,
                        [Edge(e.src, perm[e.color - 1], e.dst)
                         for e in arena.edges])


def one_player_answers(arena, freq):
    """Verdicts of the three one-player goals, each witness checked."""
    answers = []
    for decision, ok in (
            (decide_frequency_path(arena, freq), lambda w: loop_ratio_matches(
                w, freq)),
            (decide_balanced_path(arena), lambda w: loop_ratio_matches(
                w, FrequencyVector.uniform(arena.k))),
            (decide_bounded_path(arena),
             lambda w: is_zero_diff_cycle(w, arena.k))):
        assert not decision.exists or ok(decision.witness)
        answers.append(decision.exists)
    return answers


def test_one_player_answers_survive_recoloring_and_relabeling():
    # a color permutation with the frequency vector permuted alike, node
    # relabeling and edge reordering keep every one-player verdict
    rng = random.Random(517)
    exists = [0, 0, 0]
    for _ in range(120):
        arena = random_connected_arena(rng, max_nodes=6, max_edges=11,
                                       colors=(2, 3, 4))
        k = arena.k
        weights = [rng.randint(0, 3) for _ in range(k)]
        weights[rng.randrange(k)] += 1
        freq = FrequencyVector(tuple(Fraction(w, sum(weights))
                                     for w in weights))
        answers = one_player_answers(arena, freq)
        exists = [n + a for n, a in zip(exists, answers)]
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        moved = [None] * k
        for a, v in enumerate(freq):
            moved[perm[a] - 1] = v
        assert one_player_answers(recolored(arena, perm),
                                  FrequencyVector(tuple(moved))) == answers
        for transform in (relabeled, edges_shuffled):
            assert one_player_answers(transform(arena, rng), freq) == answers
    assert all(10 < n < 110 for n in exists), exists


def folded_chains(arena, rng):
    """The raw arena with chains colored 1..k through player-0 nodes that
    have no other edge folded back into uncolored edges, each chain with
    probability 3/4, and the number of chains folded.  Such a node has
    its one in-edge on the chain, so chains from other nodes are
    disjoint."""
    k = arena.k
    indeg = Counter(e.dst for e in arena.edges)
    inner = {nd.id for nd in arena.nodes
             if nd.owner == 0 and nd.id != arena.initial
             and indeg[nd.id] == 1 and len(arena.out_edge_ids(nd.id)) == 1}
    fold: dict[int, str] = {}  # first chain edge -> chain end
    skip: set[int] = set()
    for eid, e in enumerate(arena.edges):
        if e.src in inner:
            continue
        chain = [eid]
        while len(chain) < k and arena.edges[chain[-1]].dst in inner:
            chain.extend(arena.out_edge_ids(arena.edges[chain[-1]].dst))
        if [arena.edges[i].color for i in chain] == list(range(1, k + 1)) \
                and rng.random() < 0.75:
            fold[eid] = arena.edges[chain[-1]].dst
            skip.update(chain[1:])
    dropped = {arena.edges[i].src for i in skip}
    nodes = [nd for nd in arena.nodes if nd.id not in dropped]
    edges = [Edge(e.src, None, fold[eid]) if eid in fold else e
             for eid, e in enumerate(arena.edges) if eid not in skip]
    return RawArena(k, nodes, arena.initial, edges), len(fold)


def test_uncolored_expansion_keeps_every_answer():
    # an arena's 1..k chains folded back into uncolored edges, then
    # expanded again in another edge order, so under other fresh names:
    # the one-player verdicts and the game winner stay the same
    rng = random.Random(518)
    folded_total = 0
    for _ in range(120):
        arena = random_raw_arena(rng).desugar()
        raw, folded = folded_chains(arena, rng)
        folded_total += folded
        edges = list(raw.edges)
        rng.shuffle(edges)
        again = RawArena(raw.k, raw.nodes, raw.initial, edges).desugar()
        freq = FREQ.get(arena.k, FrequencyVector.uniform(arena.k))
        assert one_player_answers(again, freq) == \
            one_player_answers(arena, freq)
        for goal in goals_for(arena):
            assert decide_winner(again, goal).winner == \
                decide_winner(arena, goal).winner, goal.kind
    assert folded_total > 100
