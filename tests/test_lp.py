"""Feasibility kernel: simplex examples, oracle agreement, scaling."""

import random
from fractions import Fraction

import pytest

from colorgames import (Constraint, ContractError, FrequencyVector,
                        LinearSystem, build_color_limit_system,
                        decide_bounded_path, decide_frequency_path,
                        integer_scale, solve_feasibility)
from colorgames.lp import RELATIONS, factor_rows
from oracles import (GeneralSystem, component_edge_ids, fm_feasible,
                     random_connected_arena, random_rational_system,
                     random_system, reference_feasibility)


def system_of(num_vars, *rows):
    """A general system over free variables."""
    return GeneralSystem(num_vars, rows)


def solved(general):
    """The solver's result on the general system's solver form, and its
    assignment mapped back to the general variables (None if infeasible)."""
    system, back = general.solver_form()
    result = solve_feasibility(system)
    return result, back(result.assignment) if result.feasible else None


def test_single_variable():
    result, x = solved(system_of(1, ([1], "=", 1), ([1], ">=", 0)))
    assert result.feasible
    assert x == (Fraction(1),)


def test_two_variable_feasible():
    result, x = solved(system_of(2, ([1, 1], "=", 1), ([1, -1], "=", 1),
                                 ([1, 0], ">=", 0), ([0, 1], ">=", 0)))
    assert result.feasible
    assert x == (Fraction(1), Fraction(0))


def test_two_variable_infeasible():
    system = system_of(2, ([1, 1], "=", 1), ([1, -1], "=", 2),
                       ([1, 0], ">=", 0), ([0, 1], ">=", 0))
    assert not solved(system)[0].feasible


def test_free_variables():
    system = system_of(2, ([1, 1], "=", 0), ([1, -1], "<=", -3))
    result, x = solved(system)
    assert result.feasible
    assert system.satisfied_by(x)


def test_degenerate_pivots_terminate():
    # classic cycling-prone shape: many ties at zero
    result, x = solved(system_of(
        3,
        ([1, 1, 1], "=", 0),
        ([1, -1, 0], "=", 0),
        ([0, 1, -1], "=", 0),
        ([1, 0, 0], ">=", 0), ([0, 1, 0], ">=", 0), ([0, 0, 1], ">=", 0),
    ))
    assert result.feasible
    assert x == (Fraction(0),) * 3


def test_feasible_results_recheck_exactly():
    rng = random.Random(5)
    for _ in range(200):
        system = random_system(rng)
        result, x = solved(system)
        if result.feasible:
            assert system.satisfied_by(x)


def test_agreement_with_fourier_motzkin():
    rng = random.Random(17)
    for _ in range(300):
        system = random_system(rng)
        assert solved(system)[0].feasible == fm_feasible(system)


def test_homogeneous_scale_invariance():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        system = GeneralSystem(n)
        for _ in range(rng.randint(1, 5)):
            system.add([rng.randint(-4, 4) for _ in range(n)],
                       rng.choice(["=", ">=", "<="]), 0)
        result, x = solved(system)
        assert result.feasible  # zero always works
        for c in (2, Fraction(1, 3), 7):
            scaled = tuple(c * v for v in x)
            assert system.satisfied_by(scaled)


def test_integer_scale_basic():
    system = LinearSystem(2, [([1, -1], "=", 0), ([1, 0], ">=", 0),
                              ([0, 1], ">=", 0), ([1, 1], "=", 1)])
    vec = integer_scale((Fraction(1, 2), Fraction(1, 2)), system)
    assert vec == [1, 1]
    vec = integer_scale((Fraction(1, 3), Fraction(2, 3)), LinearSystem(
        2, [([2, -1], "=", 0), ([1, 1], "=", 1)]))
    assert vec == [1, 2]


def test_integer_scale_rejects_nonhomogeneous():
    system = LinearSystem(2, [([1, 0], "=", 1), ([0, 1], "=", 1)])
    with pytest.raises(ContractError):
        integer_scale((Fraction(1), Fraction(1)), system)


def test_integer_scale_needs_positive_entry():
    system = LinearSystem(1, [([1], "=", 0)])
    with pytest.raises(ContractError):
        integer_scale((Fraction(0),), system)


# --- the solver's contract: nonnegative variables, = and >= rows --------------


def test_linear_system_takes_nonnegative_variables_and_eq_ge_rows():
    assert RELATIONS == ("=", ">=")
    for flags in (True, False, [True, False]):
        with pytest.raises(TypeError):
            LinearSystem(2, nonneg=flags)
    with pytest.raises(ContractError):
        Constraint((1,), "<=", 0)
    with pytest.raises(ContractError):
        LinearSystem(1, [([1], "<=", 1)])
    # feasible while columns were free by default: x = -1 needs one now
    assert not solve_feasibility(LinearSystem(1, [([1], "=", -1)])).feasible
    result, x = solved(GeneralSystem(1, [([1], "=", -1)]))
    assert result.feasible and x == (Fraction(-1),)


# --- integer tableau against the rational reference ---------------------------


def test_matches_rational_reference_on_random_systems():
    # same pivots => same flag and same assignment, not just the same flag
    rng = random.Random(91)
    feasible = 0
    for _ in range(1200):
        general = random_rational_system(rng)
        system, back = general.solver_form()
        result = solve_feasibility(system)
        assert result == reference_feasibility(system)
        assert not result.feasible or general.satisfied_by(
            back(result.assignment))
        feasible += result.feasible
    assert 200 < feasible < 1000  # both outcomes well represented


def test_matches_rational_reference_on_load_systems(monkeypatch):
    from colorgames import graphs
    from colorgames.graphs import _LimitProblem
    captured = []

    def recording(system):
        captured.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(graphs, "solve_feasibility", recording)
    rng = random.Random(67)
    targets = {2: [FrequencyVector.of("1/3", "2/3")],
               3: [FrequencyVector.of("1/2", "1/3", "1/6")]}
    for _ in range(60):
        arena = random_connected_arena(rng, max_nodes=6, max_edges=12)
        for freq in targets[arena.k] + [FrequencyVector.uniform(arena.k)]:
            decide_frequency_path(arena, freq)
            for eids in component_edge_ids(arena):
                # the per-edge system keeps exact-pivot coverage of cold
                # load-shaped systems, as every load program starts warm
                captured.append(build_color_limit_system(arena, eids, freq))
                problem = _LimitProblem(arena, eids, freq)
                captured.append(problem.system())
                captured.append(problem.system(
                    cover=set(range(len(problem.macros)))))
                captured.extend(problem.system(cover={mi})
                                for mi in range(len(problem.macros)))
        decide_bounded_path(arena)
    assert len(captured) > 1000
    cold = warm = 0
    for system in captured:
        result, reference = (solve_feasibility(system),
                             reference_feasibility(system))
        if system.start is None:  # cold: the reference's very pivots
            cold += 1
            assert result == reference
        else:  # a cover solve from the factored base may end elsewhere
            warm += 1
            assert result.feasible == reference.feasible
            assert not result.feasible or system.satisfied_by(
                result.assignment)
    assert cold > 100 and warm > 500


# --- sign flags of general systems --------------------------------------------


def test_nonneg_attribute_solves_like_explicit_unit_rows():
    # a sign flag costs no row in the solver form, a unit row x_j >= 0
    # on a free column one row and one column more; same verdicts
    rng = random.Random(29)
    for _ in range(300):
        # small enough for Fourier-Motzkin on the explicit form
        source = random_rational_system(rng, max_vars=3, max_cons=5)
        n = source.num_vars
        flags = [rng.random() < 0.6 for _ in range(n)]
        attributed = GeneralSystem(n, source.rows, nonneg=flags)
        explicit = GeneralSystem(n, source.rows)
        for j in range(n):
            if flags[j]:
                explicit.add([int(i == j) for i in range(n)], ">=", 0)
        (result, x), (explicit_result, y) = solved(attributed), solved(explicit)
        assert result.feasible == explicit_result.feasible
        assert not result.feasible or (attributed.satisfied_by(x)
                                       and attributed.satisfied_by(y))
        assert fm_feasible(attributed) == fm_feasible(explicit)


def test_nonneg_all_columns():
    system = LinearSystem(2, [([1, 1], "=", 1), ([1, -1], "=", 1)])
    assert solve_feasibility(system).assignment == (Fraction(1), Fraction(0))
    system.add([1, -1], "=", 3)
    system.add([1, 1], "=", 1)
    assert not solve_feasibility(system).feasible


def test_satisfied_by_rejects_negative_nonneg_entry():
    # every column of a LinearSystem is nonnegative
    system = LinearSystem(2, [([1, 1], "=", 0)])
    assert system.satisfied_by((Fraction(0), Fraction(0)))
    assert not system.satisfied_by((Fraction(-1), Fraction(1)))
    assert not system.satisfied_by((Fraction(1), Fraction(-1)))
    # a general system checks its own sign flags
    general = GeneralSystem(2, [([1, 1], "=", 0)], nonneg=[False, True])
    assert general.satisfied_by((Fraction(0), Fraction(0)))
    assert general.satisfied_by((Fraction(-1), Fraction(1)))
    assert not general.satisfied_by((Fraction(1), Fraction(-1)))
    free = GeneralSystem(2, [([1, 1], "=", 0)])
    assert free.satisfied_by((Fraction(1), Fraction(-1)))


def test_nonneg_flags_must_match_arity():
    # per-column flags live in the general form, which checks their number
    with pytest.raises(ContractError):
        GeneralSystem(2, nonneg=[True])


def test_integer_scale_on_nonneg_systems():
    system = LinearSystem(2, [([2, -1], "=", 0), ([1, 1], "=", 1)])
    assert integer_scale((Fraction(1, 3), Fraction(2, 3)), system) == [1, 2]
    with pytest.raises(ContractError):
        integer_scale((Fraction(-1, 3), Fraction(-2, 3)), system)
    with pytest.raises(ContractError):
        integer_scale((Fraction(0), Fraction(0)), system)
    twice = LinearSystem(2, [([1, 0], "=", 1), ([0, 1], "=", 2)])
    with pytest.raises(ContractError):
        integer_scale((Fraction(1), Fraction(2)), twice)


def test_warm_start_from_factored_rows_matches_reference_verdicts():
    # homogeneous rows factored once, then up to three more rows: the
    # verdict of the cold reference, an assignment that satisfies the
    # system, and the factored rows left untouched
    rng = random.Random(31)
    feasible = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = [([rng.randint(-3, 3) for _ in range(n)], "=", 0)
                for _ in range(rng.randint(0, 5))]
        start = factor_rows(n, rows)
        tableau = [list(row) for row in start.tableau]
        assert len(start.basis) <= len(rows)
        for _ in range(3):
            extra = GeneralSystem(n, [
                ([rng.randint(-1, 2) for _ in range(n)],
                 rng.choice(["=", ">=", "<="]), rng.randint(-2, 3))
                for _ in range(rng.randint(1, 3))], nonneg=True,
            ).solver_form()[0].constraints
            warm = LinearSystem(n, [*rows, *extra], start=start)
            result = solve_feasibility(warm)
            reference = reference_feasibility(
                LinearSystem(n, [*rows, *extra]))
            assert result.feasible == reference.feasible
            assert not result.feasible or warm.satisfied_by(result.assignment)
            feasible += result.feasible
        assert [list(row) for row in start.tableau] == tableau
    assert 200 < feasible < 1000


def test_factored_rows_must_lead_a_nonnegative_system():
    # every system is nonnegative, so the factored rows need only lead it
    rows = [([1, -1], "=", 0)]
    start = factor_rows(2, rows)
    assert LinearSystem(2, rows, start=start).start is start
    assert LinearSystem.integral(2, [*rows], start).start is start
    for system in (LinearSystem, LinearSystem.integral):
        with pytest.raises(ContractError):
            system(2, [([1, 1], "=", 0)], start)
        with pytest.raises(ContractError):
            system(2, [], start)
    with pytest.raises(ContractError):
        factor_rows(2, [([1, 1], ">=", 0)])
    with pytest.raises(ContractError):
        factor_rows(2, [([1, 1], "=", 1)])
