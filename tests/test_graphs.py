"""Graph decisions: systems, SCCs, decompositions, witnesses, oracles."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from colorgames import (Circulation, ContractError, FrequencyVector, Goal,
                        build_color_limit_system, graphs, load_arena,
                        decide_balanced_path, decide_bounded_path,
                        decide_frequency_path, decompose_circulation,
                        edge_components, eulerian_circuit,
                        is_zero_diff_cycle, loop_ratio_matches,
                        solve_feasibility)
from builders import TWO_LOOPS, build_arena
from oracles import (_strong_groups, component_edge_ids,
                     loop_combination_exists,
                     random_connected_arena,
                     random_pruning_arena, reference_feasibility,
                     reference_surviving_edges, reference_zero_diff_support)


def test_frequency_vector_integer_form_examples():
    half = FrequencyVector.of("1/2", "1/2")
    assert (half.k, half.den, half.nums) == (2, 2, (1, 1))
    assert half == FrequencyVector.uniform(2)
    skewed = FrequencyVector.of("2/3", "1/3")
    assert (skewed.den, skewed.nums) == (3, (2, 1))
    assert skewed.values == (Fraction(2, 3), Fraction(1, 3))
    assert FrequencyVector.of(1, 0).nums == (1, 0)
    assert FrequencyVector.of("1/3", "1/3", "1/3") \
        == FrequencyVector.uniform(3)


def test_frequency_vector_integer_form_random():
    # nums / den reproduces every rate, with den the least common
    # denominator, so the integer rows of a load program are primitive
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 5)
        raw = [Fraction(rng.randint(0, 5)) for _ in range(k)]
        freq = FrequencyVector(tuple(v / sum(raw) for v in raw)) \
            if sum(raw) else FrequencyVector.uniform(k)
        assert freq.k == k and sum(freq.nums) == freq.den
        assert all(Fraction(p, freq.den) == v
                   for p, v in zip(freq.nums, freq.values))
        assert gcd(freq.den, *freq.nums) == 1


def test_scc_single_node_loop():
    arena = build_arena(1, [("u", 1, "u")])
    assert edge_components(arena, [0]) == [[0]]
    assert graphs._reachable_edge_ids(arena) == [0]


def test_scc_chain_with_end_loops():
    # three components; b has no internal edge, so only a and c form groups
    arena = build_arena(1, [("a", 1, "a"), ("a", 1, "b"), ("b", 1, "c"),
                            ("c", 1, "c")])
    assert edge_components(arena, range(4)) == [[0], [3]]
    assert sorted(graphs._reachable_edge_ids(arena)) == [0, 1, 2, 3]


def test_edge_components_match_reachability_oracle():
    # same groups as the reachability oracle, over all edges and over
    # edge subsets in any order, ordered by smallest node index
    rng = random.Random(19)
    reordered = 0
    for _ in range(400):
        arena = random_connected_arena(rng, max_nodes=7, max_edges=14)

        def by_node(groups):
            return sorted(groups, key=lambda g: min(
                arena.node_index[arena.edges[eid].src] for eid in g))
        everything = component_edge_ids(arena)
        assert edge_components(arena, range(len(arena.edges))) \
            == by_node(everything)
        subset = [eid for eid in range(len(arena.edges))
                  if rng.random() < 0.6]
        rng.shuffle(subset)
        groups = _strong_groups(arena, subset)
        assert edge_components(arena, subset) == by_node(groups)
        reordered += by_node(everything) != everything
        reordered += by_node(groups) != groups
    assert reordered >= 10


def test_limit_system_two_loops_balanced():
    arena = build_arena(2, TWO_LOOPS)
    system = build_color_limit_system(arena, [0, 1],
                                      FrequencyVector.uniform(2))
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment == (Fraction(1, 2), Fraction(1, 2))


def test_limit_system_two_loops_pure_color():
    arena = build_arena(2, TWO_LOOPS)
    lm = FrequencyVector.of(1, 0)
    system = build_color_limit_system(arena, [0, 1], lm)
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment == (Fraction(1), Fraction(0))


def test_limit_system_missing_color_infeasible():
    arena = build_arena(2, [("u", 1, "u")])
    system = build_color_limit_system(arena, [0], FrequencyVector.uniform(2))
    assert not solve_feasibility(system).feasible


def test_decide_frequency_two_cycle():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    assert decide_frequency_path(
        arena, FrequencyVector.of("1/2", "1/2")).exists
    assert not decide_frequency_path(
        arena, FrequencyVector.of("1/3", "2/3")).exists


def test_decide_frequency_needs_single_component():
    # one-way bridge: the two colors never share a component
    arena = build_arena(2, [("u", 1, "u"), ("u", 1, "v"), ("v", 2, "v")])
    assert not decide_frequency_path(
        arena, FrequencyVector.of("1/2", "1/2")).exists


def test_decide_frequency_checks_arity():
    arena = build_arena(2, TWO_LOOPS)
    with pytest.raises(ContractError):
        decide_frequency_path(arena, FrequencyVector.of("1/3", "1/3", "1/3"))


def test_decide_balanced_distinct_self_loops():
    for k in (1, 2, 3, 4):
        arena = build_arena(k, [("u", c, "u") for c in range(1, k + 1)])
        decision = decide_balanced_path(arena)
        assert decision.exists
        assert loop_ratio_matches(decision.witness, FrequencyVector.uniform(k))


def test_decide_balanced_single_color_notexists():
    arena = build_arena(2, [("u", 1, "u")])
    assert not decide_balanced_path(arena).exists


def test_decide_balanced_block_word_alphabet():
    # loops (1*2), (1*3*2*3) and (3) around one node: combining the first
    # with nothing else is already balanced
    arena = build_arena(3, [
        ("u", 1, "a"), ("a", 2, "u"),
        ("u", 1, "b"), ("b", 3, "c"), ("c", 2, "d"), ("d", 3, "u"),
        ("u", 3, "u"),
    ])
    decision = decide_balanced_path(arena)
    assert decision.exists
    assert loop_ratio_matches(decision.witness, FrequencyVector.uniform(3))


def test_decide_bounded_two_loops():
    arena = build_arena(2, TWO_LOOPS)
    decision = decide_bounded_path(arena)
    assert decision.exists
    assert is_zero_diff_cycle(decision.witness, 2)
    assert sorted(decision.witness.colors()) == [1, 2]


def test_decide_bounded_single_color():
    arena = build_arena(2, [("u", 1, "u")])
    assert not decide_bounded_path(arena).exists


def test_decide_bounded_prunes_unbalanced_subcycle():
    # the b<->c cycle is all color 1 and cannot be compensated, so its
    # edges must be pruned; the a<->b cycle remains as the witness
    arena = build_arena(2, [("a", 1, "b"), ("b", 2, "a"), ("b", 1, "c"),
                            ("c", 1, "b")])
    decision = decide_bounded_path(arena)
    assert decision.exists
    walk = decision.witness
    assert is_zero_diff_cycle(walk, 2)
    used = {(e.src, e.dst) for e in walk.edges}
    assert ("b", "c") not in used and ("c", "b") not in used


def test_unreachable_component_is_ignored():
    arena = build_arena(2, [("w", 1, "w"), ("u", 1, "u"), ("u", 2, "u")],
                        initial="w")
    assert not decide_balanced_path(arena).exists
    assert not decide_bounded_path(arena).exists


def test_decompose_two_self_loops():
    arena = build_arena(2, TWO_LOOPS)
    loop_set = decompose_circulation(arena, Circulation({0: 1, 1: 1}))
    assert [(p.colors(), c) for p, c in loop_set.loops] == [([1], 1), ([2], 1)]


def test_decompose_doubled_cycle():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    loop_set = decompose_circulation(arena, Circulation({0: 2, 1: 2}))
    assert len(loop_set.loops) == 1
    path, coeff = loop_set.loops[0]
    assert coeff == 2
    assert path.colors() == [1, 2]


def test_decompose_figure_eight():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u"),
                            ("u", 2, "w"), ("w", 1, "u")])
    loop_set = decompose_circulation(arena, Circulation({i: 1 for i in range(4)}))
    assert len(loop_set.loops) == 2
    assert all(c == 1 for _, c in loop_set.loops)
    assert all(p.is_simple_cycle() for p, _ in loop_set.loops)


def test_decompose_rejects_unconserved_flow():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    with pytest.raises(ContractError):
        decompose_circulation(arena, Circulation({0: 2, 1: 1}))


def test_decompose_support_must_lie_in_one_component():
    # two disjoint loops of one component decompose; across components
    # they are rejected
    one = build_arena(2, [("u", 1, "u"), ("v", 2, "v"), ("u", 1, "v"),
                          ("v", 1, "u")])
    loop_set = decompose_circulation(one, Circulation({0: 1, 1: 1}))
    assert loop_set.combined_counts(2) == [1, 1]
    apart = build_arena(2, [("u", 1, "u"), ("u", 1, "v"), ("v", 2, "v")])
    with pytest.raises(ContractError, match="several"):
        decompose_circulation(apart, Circulation({0: 1, 2: 1}))


def test_euler_triangle():
    arena = build_arena(1, [("a", 1, "b"), ("b", 1, "c"), ("c", 1, "a")])
    walk = eulerian_circuit(arena, Circulation({0: 1, 1: 1, 2: 1}))
    assert len(walk) == 3 and walk.is_cycle()


def test_euler_self_loop_multiplicity():
    arena = build_arena(1, [("u", 1, "u")])
    walk = eulerian_circuit(arena, Circulation({0: 3}))
    assert len(walk) == 3


def test_euler_figure_eight():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u"),
                            ("u", 2, "w"), ("w", 1, "u")])
    walk = eulerian_circuit(arena, Circulation({i: 1 for i in range(4)}))
    assert len(walk) == 4 and walk.is_cycle()


def test_euler_rejects_disconnected_support():
    arena = build_arena(2, [("u", 1, "u"), ("v", 2, "v"), ("u", 1, "v"),
                            ("v", 1, "u")])
    with pytest.raises(ContractError):
        eulerian_circuit(arena, Circulation({0: 1, 1: 1}))


def test_witness_soundness_random():
    rng = random.Random(31)
    targets = {
        2: [FrequencyVector.of("1/2", "1/2"), FrequencyVector.of("1/3", "2/3")],
        3: [FrequencyVector.uniform(3)],
    }
    for _ in range(60):
        arena = random_connected_arena(rng)
        for freq in targets[arena.k]:
            decision = decide_frequency_path(arena, freq)
            if decision.exists:
                assert loop_ratio_matches(decision.witness,
                                          freq)
        bounded = decide_bounded_path(arena)
        if bounded.exists:
            assert is_zero_diff_cycle(bounded.witness, arena.k)
            assert decide_balanced_path(arena).exists


def test_oracle_agreement_sample():
    rng = random.Random(47)
    targets = {
        2: [FrequencyVector.of("1/2", "1/2"), FrequencyVector.of("1/3", "2/3")],
        3: [FrequencyVector.uniform(3)],
    }
    for _ in range(40):
        arena = random_connected_arena(rng)
        for freq in targets[arena.k]:
            got = decide_frequency_path(arena, freq).exists
            want = loop_combination_exists(arena, freq)
            if got and not want:
                want = loop_combination_exists(arena, freq, coeff_bound=12)
            assert got == want


def test_cache_transfers_between_isomorphic_arenas():
    cache = {}
    one = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    two = build_arena(2, [("x", 1, "y"), ("y", 2, "x")])
    d1 = decide_balanced_path(one, cache=cache)
    d2 = decide_balanced_path(two, cache=cache)
    assert d1.exists and d2.exists
    # the transferred witness must live on the second arena's nodes
    nodes = {e.src for p, _ in d2.witness.loops for e in p.edges}
    assert nodes <= {"x", "y"}
    assert loop_ratio_matches(d2.witness, FrequencyVector.uniform(2))


def test_contracted_and_edge_level_systems_agree():
    # the chain-contracted system used internally must be feasible for
    # exactly the edge sets where the per-edge system is
    from colorgames.graphs import _LimitProblem
    rng = random.Random(61)
    targets = {2: [FrequencyVector.uniform(2),
                   FrequencyVector.of("1/3", "2/3")],
               3: [FrequencyVector.uniform(3)]}
    for _ in range(40):
        arena = random_connected_arena(rng)
        for eids in component_edge_ids(arena):
            for lm in targets[arena.k]:
                direct = solve_feasibility(
                    build_color_limit_system(arena, eids, lm)).feasible
                problem = _LimitProblem(arena, eids, lm)
                contracted = problem.solve()
                assert direct == (contracted is not None)
                if contracted is not None:
                    assert gcd(*contracted) == 1
                    loads = problem.expand(contracted)
                    total = sum(loads.values())
                    system = build_color_limit_system(arena, eids, lm)
                    shares = [Fraction(loads.get(e, 0), total)
                              for e in sorted(eids)]
                    assert system.satisfied_by(shares)


def test_cover_row_pruning_matches_forced_edge_reference(monkeypatch):
    # cover-row pruning reaches the forced-edge fixpoint, walks exactly
    # that group's edges, and spends at most (survivors + 1) solves per
    # group and round
    from colorgames import graphs
    problems = []  # [edge ids, solves] per group and round
    rounds = []  # rounds per pruned component

    class CountedProblem(graphs._LimitProblem):
        def __init__(self, *args):
            super().__init__(*args)
            problems.append([self.edge_ids, 0])

    def counted_solve(system):
        problems[-1][1] += 1
        return solve_feasibility(system)

    inside = []  # set while a component is pruned

    def counted_walk(*args, walk=graphs._zero_diff_component_walk):
        rounds.append(1)  # round 1 prunes the component as one group
        inside.append(True)
        try:
            return walk(*args)
        finally:
            inside.pop()

    def counted_groups(*args, groups=graphs.edge_components):
        # the deciders find the top-level components through the same
        # routine; only regroupings between pruning rounds count
        if inside:
            rounds[-1] += 1
        return groups(*args)

    monkeypatch.setattr(graphs, "_LimitProblem", CountedProblem)
    monkeypatch.setattr(graphs, "solve_feasibility", counted_solve)
    monkeypatch.setattr(graphs, "_zero_diff_component_walk", counted_walk)
    monkeypatch.setattr(graphs, "edge_components", counted_groups)
    # round 1 loads neither a->c nor d->b, and the survivors split into
    # {c->d, d->c} and {b->a, a->b}; both support themselves, and the
    # walk follows the group with the smallest edge id, although the
    # other one holds the smallest node
    fixed = build_arena(2, [("a", 1, "c"), ("c", 1, "d"), ("d", 2, "c"),
                            ("d", 1, "b"), ("b", 1, "a"), ("a", 2, "b")])
    rng = random.Random(83)
    arenas = [fixed] + [random_pruning_arena(rng) for _ in range(150)]
    exists = multi_round = 0
    for arena in arenas:
        problems.clear()
        rounds.clear()
        decision = decide_bounded_path(arena)
        verdict, fixpoint = reference_zero_diff_support(arena)
        assert decision.exists == verdict
        if verdict:
            exists += 1
            walk = decision.witness
            assert is_zero_diff_cycle(walk, arena.k)
            group_edges = Counter(arena.edges[eid] for eid in fixpoint)
            walked = Counter(walk.edges)
            assert set(walked) == set(group_edges)
            assert all(walked[e] >= c for e, c in group_edges.items())
        for group, solves in problems:
            assert solves <= len(reference_surviving_edges(arena, group)) + 1
        multi_round += max(rounds, default=0) >= 2
    assert 30 <= exists <= 140 and multi_round >= 20


def test_cache_with_parallel_identical_edges():
    cache = {}
    one = build_arena(2, [("u", 1, "u"), ("u", 1, "u"), ("u", 2, "u")])
    two = build_arena(2, [("w", 1, "w"), ("w", 1, "w"), ("w", 2, "w")])
    d1 = decide_balanced_path(one, cache=cache)
    d2 = decide_balanced_path(two, cache=cache)
    assert d1.exists and d2.exists
    assert loop_ratio_matches(d2.witness, FrequencyVector.uniform(2))


def test_cache_matches_fresh_decisions():
    rng = random.Random(53)
    cache = {}
    for _ in range(40):
        arena = random_connected_arena(rng)
        fresh_b = decide_balanced_path(arena)
        cached_b = decide_balanced_path(arena, cache=cache)
        again = decide_balanced_path(arena, cache=cache)
        assert fresh_b.exists == cached_b.exists == again.exists
        fresh_w = decide_bounded_path(arena)
        cached_w = decide_bounded_path(arena, cache=cache)
        assert fresh_w.exists == cached_w.exists


def test_uniform_frequency_vector_is_shared():
    for k in (1, 2, 3, 7):
        assert FrequencyVector.uniform(k) is FrequencyVector.uniform(k)
        uniform = FrequencyVector.uniform(k)
        assert len(set(uniform)) == 1 and uniform.k == k
        assert (uniform.den, uniform.nums) == (k, (1,) * k)
    assert FrequencyVector.uniform(2) is not FrequencyVector.uniform(3)


def test_frequency_vector_stores_one_rate_vector():
    freq = FrequencyVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert freq.values == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert (freq.nums, freq.den) == ((3, 2, 1), 6)
    assert graphs.decision_key_prefix(freq) == ("limit", freq.values)
    assert all(type(v) is Fraction for v in FrequencyVector((1, 0)).values)
    # rates must be nonnegative and sum to one
    for rates in ([5, 5, 5], [Fraction(1, 2), 0], [], [2, -1]):
        with pytest.raises(ContractError):
            FrequencyVector(tuple(rates))
    # a goal's rates must have one entry per color
    with pytest.raises(ContractError, match="frequency vector has arity 2, "
                                            "arena has 3 colors"):
        Goal.frequency(FrequencyVector.uniform(2)).rates(3)
    assert Goal.balanced().rates(3) is FrequencyVector.uniform(3)
    assert Goal.bounded().rates(3) is None


def random_frequency(rng, k):
    weights = [rng.randint(0, 3) for _ in range(k)]
    weights[rng.randrange(k)] += 1
    return FrequencyVector(tuple(Fraction(w, sum(weights)) for w in weights))


def test_rate_screen_fires_only_on_infeasible_programs(monkeypatch):
    # whenever the screen skips a load program, the rational reference
    # finds the per-edge system infeasible: components of seeded arenas
    # with k = 2..5 under skewed and uniform targets, and every group
    # that bounded support pruning forms
    problems = []

    class Recorded(graphs._LimitProblem):
        def __init__(self, *args):
            super().__init__(*args)
            problems.append(self)

    monkeypatch.setattr(graphs, "_LimitProblem", Recorded)
    rng = random.Random(71)
    for _ in range(80):
        arena = random_connected_arena(rng, max_nodes=6, max_edges=12,
                                       colors=(2, 3, 4, 5))
        decide_frequency_path(arena, random_frequency(rng, arena.k))
        decide_balanced_path(arena)
        decide_bounded_path(arena)
    for _ in range(80):
        decide_bounded_path(random_pruning_arena(rng))

    def no_solve(system):
        raise AssertionError("a screened program reached the solver")
    monkeypatch.setattr(graphs, "solve_feasibility", no_solve)
    screened = [p for p in problems if p.screened]
    for problem in screened:
        assert problem.solve() is None
        assert problem.solve(cover={0}) is None
        system = build_color_limit_system(problem.arena, problem.edge_ids,
                                          problem.rates)
        assert not reference_feasibility(system).feasible
    assert 100 < len(screened) < len(problems) - 100


def test_rate_screen_keeps_a_target_equal_to_a_chain_rate():
    # color 1 has rate 2/3 on the loop u a b and 1/3 on the loop u c d:
    # targets at either end of that range stay feasible, one beyond not
    arena = build_arena(2, [("u", 1, "a"), ("a", 1, "b"), ("b", 2, "u"),
                            ("u", 1, "c"), ("c", 2, "d"), ("d", 2, "u")])
    edge_ids = range(len(arena.edges))
    for freq, loop in ((("2/3", "1/3"), "uab"), (("1/3", "2/3"), "ucd")):
        limit = FrequencyVector.of(*freq)
        assert not graphs._LimitProblem(arena, edge_ids, limit).screened
        decision = decide_frequency_path(arena, FrequencyVector.of(*freq))
        [(path, _)] = decision.witness.loops
        assert "".join(e.src for e in path.edges) == loop
    beyond = FrequencyVector.of("3/4", "1/4")
    assert graphs._LimitProblem(arena, edge_ids, beyond).screened
    assert not decide_frequency_path(arena,
                                     FrequencyVector.of("3/4", "1/4")).exists


def test_load_program_rows_stay_linear_in_colors():
    # k = 256 and uncolored self-loops, each a chain of 256 colors: at
    # most (retained nodes + k) rows, where pairwise rows were 32,640
    k = 256
    arena = load_arena(json.dumps({
        "k": k, "nodes": [{"id": "u", "owner": 0}], "initial": "u",
        "edges": [{"src": "u", "color": None, "dst": "u"}] * 5}))
    problem = graphs._LimitProblem(arena, range(len(arena.edges)),
                                   FrequencyVector.uniform(k))
    for system in (problem.system(), problem.system(cover={0, 1})):
        assert len(system.constraints) <= len(problem.retained) + k
    assert decide_balanced_path(arena).exists
    assert is_zero_diff_cycle(decide_bounded_path(arena).witness, k)
