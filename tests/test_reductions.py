"""Generators: DIMACS parsing, the CNF game construction, the scheduler."""

import random

import pytest

from colorgames import (CnfFormula, ContractError, DimacsError, Goal,
                        RawArena, ValidationError, cnf_to_arena,
                        cnf_to_raw_arena, color_counts, decide_winner,
                        enumerate_strategies, load_arena, parse_dimacs,
                        reductions, scheduler_arena,
                        simulate_scheduler_policy)
from oracles import (arena_fields, random_formula, reference_tables,
                     tautology_bruteforce)


def clause(*lits):
    return frozenset(lits)


def test_parse_dimacs():
    formula = parse_dimacs("""c a comment
p cnf 3 2
1 -2 0
2 3 0
""")
    assert formula.num_vars == 3
    assert formula.clauses == (clause((1, True), (2, False)),
                               clause((2, True), (3, True)))


def test_parse_dimacs_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # variable out of range
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 1 1\n1 0\n")


def test_tautology_examples():
    assert tautology_bruteforce(CnfFormula(1, (clause((1, True), (1, False)),)))
    assert not tautology_bruteforce(CnfFormula(1, (clause((1, True)),)))
    xor_like = CnfFormula(2, (
        clause((1, True), (2, True)),
        clause((1, False), (2, True)),
        clause((1, True), (2, False)),
        clause((1, False), (2, False)),
    ))
    assert not tautology_bruteforce(xor_like)


def test_tautology_cap():
    big = CnfFormula(25, (clause((1, True)),))
    with pytest.raises(ContractError):
        tautology_bruteforce(big)


def test_cnf_raw_arena_tautology_clause():
    formula = CnfFormula(1, (clause((1, True), (1, False)),))
    raw = cnf_to_raw_arena(formula)
    assert len(raw.nodes) == 4  # v1, v1.1, ~v1.1, v1'
    upper_clause = [e for e in raw.edges if e.src == "v1.1" and e.color == 1]
    lower_clause = [e for e in raw.edges if e.src == "~v1.1" and e.color == 1]
    assert len(upper_clause) == len(lower_clause) == 1
    closing = [e for e in raw.edges if e.color == 2]
    assert len(closing) == 1
    assert closing[0].src == "v1'" and closing[0].dst == "v1"


def test_cnf_raw_arena_positive_clause_only_upper():
    formula = CnfFormula(1, (clause((1, True)),))
    raw = cnf_to_raw_arena(formula)
    assert [e for e in raw.edges if e.src == "v1.1" and e.color == 1]
    assert not [e for e in raw.edges if e.src == "~v1.1" and e.color == 1]


def test_cnf_raw_arena_tables_match_its_records():
    # the construction fills tables without building records; checking
    # the records read off them through the constructor gives the same
    rng = random.Random(18)
    for _ in range(60):
        raw = cnf_to_raw_arena(random_formula(rng))
        fields = arena_fields(raw)
        assert fields == {**fields, **reference_tables(raw.nodes, raw.edges)}
        assert arena_fields(RawArena(raw.k, raw.nodes, raw.initial,
                                     raw.edges)) == fields


def test_cnf_arena_desugared_counts():
    formula = CnfFormula(1, (clause((1, True), (1, False)),))
    raw = cnf_to_raw_arena(formula)
    arena = cnf_to_arena(formula)
    uncolored = sum(1 for e in raw.edges if e.color is None)
    k = raw.k
    assert len(arena.nodes) == len(raw.nodes) + uncolored * (k - 1)
    assert len(arena.edges) == len(raw.edges) + uncolored * (k - 1)
    # chains alone are perfectly balanced across the colors
    raw_colored = color_counts(
        [e.color for e in raw.edges if e.color is not None], k)
    full = color_counts([e.color for e in arena.edges], k)
    assert full == [c + uncolored for c in raw_colored]


@pytest.mark.parametrize("m, n", [(1, 0), (1, 1), (2, 3), (3, 2)])
def test_cnf_size_formulas_match_the_construction(m, n):
    # the sizes the input limits are checked against before building
    formula = CnfFormula(m, tuple(clause((1, True)) for _ in range(n)))
    raw = cnf_to_raw_arena(formula)
    uncolored = sum(1 for e in raw.edges if e.color is None)
    assert len(raw.nodes) == m * (2 * n + 2)
    assert uncolored == m * (2 * n + 3) - 1
    arena = cnf_to_arena(formula)
    assert len(arena.nodes) - len(raw.nodes) == n * (m * (2 * n + 3) - 1)


def test_cnf_limits_are_inclusive(monkeypatch):
    # m = 2, n = 1: 8 raw nodes, 9 chain nodes
    formula = CnfFormula(2, (clause((1, True)),))
    monkeypatch.setattr(reductions, "MAX_CHAIN_NODES", 9)
    cnf_to_raw_arena(formula)
    monkeypatch.setattr(reductions, "MAX_CHAIN_NODES", 8)
    with pytest.raises(ValidationError, match="9 chain nodes"):
        cnf_to_raw_arena(formula)
    monkeypatch.setattr(reductions, "MAX_CHAIN_NODES", 7)
    with pytest.raises(ValidationError, match="8 nodes"):
        cnf_to_raw_arena(formula)


def test_cnf_arena_player_partition():
    formula = CnfFormula(2, (clause((1, True), (2, False)),))
    arena = cnf_to_arena(formula)
    p1 = {nd.id for nd in arena.player_nodes(1)}
    assert p1 == {"v1", "v2"}
    assert arena.initial == "v1"


def test_cnf_arena_validates():
    rng = random.Random(21)
    for _ in range(10):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        clauses = []
        for _ in range(n):
            lits = {(rng.randint(1, m), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 2 * m))}
            clauses.append(frozenset(lits))
        formula = CnfFormula(m, tuple(clauses))
        arena = cnf_to_arena(formula)
        assert arena.k == n + 1
        # serialization keeps it loadable
        from colorgames import serialize_arena
        assert load_arena(serialize_arena(arena)) == arena


def test_scheduler_arena_shape():
    raw = scheduler_arena()
    assert len(raw.nodes) == 11
    player0 = [nd.id for nd in raw.player_nodes(0)]
    assert player0 == ["0,0"]
    branching = [nd.id for nd in raw.nodes
                 if len(raw.out_edge_ids(nd.id)) > 1 and nd.owner == 1]
    assert sorted(branching) == ["0,1", "1,0"]
    # each half-cycle contributes one or two edges of its color
    short0 = [e for e in raw.edges if e.src == "2,0"]
    long0 = [e for e in raw.edges if e.src in ("3,0", "4,0")]
    assert [e.color for e in short0] == [1]
    assert [e.color for e in long0] == [1, 1]


def test_scheduler_simulation_all_adversaries():
    raw = scheduler_arena()
    strategies = list(enumerate_strategies(raw))
    assert len(strategies) == 4
    for adversary in strategies:
        run = simulate_scheduler_policy(raw, adversary, 10_000)
        assert run.max_abs_diff <= 2
        assert len(run.edges) == 10_000


def test_scheduler_simulation_random_adversary():
    raw = scheduler_arena()
    for seed in (0, 1, 7):
        run = simulate_scheduler_policy(raw, seed, 10_000)
        assert run.max_abs_diff <= 2


def test_scheduler_game_player0():
    arena = scheduler_arena().desugar()
    for goal in (Goal.bounded(), Goal.balanced()):
        assert decide_winner(arena, goal).winner == 0


def test_scheduler_file_round_trip_expands_chains():
    raw = scheduler_arena()
    arena = load_arena(raw.to_json())
    uncolored = sum(1 for e in raw.edges if e.color is None)
    assert uncolored == 8
    assert len(arena.nodes) == 11 + uncolored
    assert len(arena.edges) == 14 + uncolored
