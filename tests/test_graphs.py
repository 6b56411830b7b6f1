"""Graph decisions: systems, SCCs, decompositions, witnesses, oracles."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from colorgames import (Circulation, ContractError, FrequencyVector,
                        LimitMatrix, build_color_limit_system,
                        decide_balanced_path, decide_bounded_path,
                        decide_frequency_path, decompose_circulation,
                        eulerian_circuit, frequency_to_limit,
                        is_zero_diff_cycle, loop_ratio_matches,
                        solve_feasibility, strongly_connected_components)
from builders import TWO_LOOPS, build_arena
from oracles import (loop_combination_exists, random_connected_arena,
                     random_pruning_arena, reference_surviving_edges,
                     reference_zero_diff_support)


def test_frequency_to_limit_examples():
    assert frequency_to_limit(FrequencyVector.of("1/2", "1/2")).is_zero()
    lm = frequency_to_limit(FrequencyVector.of("2/3", "1/3"))
    assert lm.entry(1, 2) == Fraction(1, 3)
    assert lm.entry(2, 1) == Fraction(-1, 3)
    assert frequency_to_limit(
        FrequencyVector.of("1/3", "1/3", "1/3")).is_zero()


def test_limit_matrix_invariants_random():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 5)
        raw = [Fraction(rng.randint(0, 5)) for _ in range(k)]
        total = sum(raw) or Fraction(1)
        freq = FrequencyVector(tuple(v / total for v in raw)) \
            if sum(raw) else FrequencyVector.uniform(k)
        lm = frequency_to_limit(freq)
        for a in range(1, k + 1):
            assert lm.entry(a, a) == 0
            for b in range(1, k + 1):
                assert lm.entry(a, b) == -lm.entry(b, a)
                for c in range(1, k + 1):
                    assert lm.entry(a, b) + lm.entry(b, c) == lm.entry(a, c)


def test_scc_single_node_loop():
    arena = build_arena(1, [("u", 1, "u")])
    scc = strongly_connected_components(arena)
    assert len(scc.components) == 1
    assert scc.reachable == (True,)


def test_scc_chain_with_end_loops():
    arena = build_arena(1, [("a", 1, "a"), ("a", 1, "b"), ("b", 1, "c"),
                            ("c", 1, "c")])
    scc = strongly_connected_components(arena)
    assert len(scc.components) == 3
    assert all(scc.reachable)
    assert scc.comp_of["a"] != scc.comp_of["b"] != scc.comp_of["c"]


def test_limit_system_two_loops_balanced():
    arena = build_arena(2, TWO_LOOPS)
    system = build_color_limit_system(arena, [0, 1], LimitMatrix.zero(2))
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment == (Fraction(1, 2), Fraction(1, 2))


def test_limit_system_two_loops_pure_color():
    arena = build_arena(2, TWO_LOOPS)
    lm = frequency_to_limit(FrequencyVector.of(1, 0))
    system = build_color_limit_system(arena, [0, 1], lm)
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment == (Fraction(1), Fraction(0))


def test_limit_system_missing_color_infeasible():
    arena = build_arena(2, [("u", 1, "u")])
    system = build_color_limit_system(arena, [0], LimitMatrix.zero(2))
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
        assert loop_ratio_matches(decision.witness, LimitMatrix.zero(k))


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
    assert loop_ratio_matches(decision.witness, LimitMatrix.zero(3))


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
                                          frequency_to_limit(freq))
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
    assert loop_ratio_matches(d2.witness, LimitMatrix.zero(2))


def test_contracted_and_edge_level_systems_agree():
    # the chain-contracted system used internally must be feasible for
    # exactly the edge sets where the per-edge system is
    from colorgames.graphs import (_LimitProblem, _component_edge_ids,
                                   strongly_connected_components)
    rng = random.Random(61)
    targets = {2: [LimitMatrix.zero(2),
                   frequency_to_limit(FrequencyVector.of("1/3", "2/3"))],
               3: [LimitMatrix.zero(3)]}
    for _ in range(40):
        arena = random_connected_arena(rng)
        scc = strongly_connected_components(arena)
        for eids in _component_edge_ids(arena, scc):
            if not eids:
                continue
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

    def counted_walk(*args, walk=graphs._zero_diff_component_walk):
        rounds.append(0)
        return walk(*args)

    def counted_groups(*args, groups=graphs._edge_groups_by_scc):
        rounds[-1] += 1
        return groups(*args)

    monkeypatch.setattr(graphs, "_LimitProblem", CountedProblem)
    monkeypatch.setattr(graphs, "solve_feasibility", counted_solve)
    monkeypatch.setattr(graphs, "_zero_diff_component_walk", counted_walk)
    monkeypatch.setattr(graphs, "_edge_groups_by_scc", counted_groups)
    rng = random.Random(83)
    exists = multi_round = 0
    for _ in range(150):
        arena = random_pruning_arena(rng)
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
    assert loop_ratio_matches(d2.witness, LimitMatrix.zero(2))


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
