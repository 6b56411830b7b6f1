"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s``.  The heavyweight computations
live in module-scoped fixtures so that the criteria sharing them (1 and
4; 3, 4 and 8) pay for them once.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from colorgames import (CnfFormula, FrequencyVector, Goal,
                        build_schedule, cnf_to_arena, color_counts,
                        decide_balanced_path, decide_bounded_path,
                        decide_frequency_path, decide_winner,
                        enumerate_strategies,
                        measure_convergence, prune, scheduler_arena,
                        simulate_scheduler_policy, solve_feasibility, stream)
from colorgames.games import graph_decide
from colorgames.synth import convergence_profile
from builders import TWO_LOOPS, build_arena
from oracles import (diff_matrix, fm_feasible, growing_block_word,
                     loop_combination_exists, random_connected_arena,
                     random_formula, random_system, round_boundary,
                     tautology_bruteforce, zero_diff_walk_exists)

GOALS = (Goal.balanced(), Goal.bounded())


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {state} [{detail}]")


# --- external witness checks (test-side, no solver involvement) -------------


def check_loop_ratio(loop_set, freq: FrequencyVector, k: int) -> bool:
    counts = [0] * k
    total = 0
    for path, coeff in loop_set.loops:
        for c in path.colors():
            counts[c - 1] += coeff
        total += coeff * len(path)
    if total <= 0:
        return False
    vals = list(freq)
    return all(Fraction(counts[a] - counts[b], total) == vals[a] - vals[b]
               for a in range(k) for b in range(k))


def check_zero_diff_walk(walk, k: int) -> bool:
    if walk.start != walk.end:
        return False
    counts = color_counts(walk.colors(), k)
    return all(c == counts[0] for c in counts)


# --- criterion 1 fixture ------------------------------------------------------


def clause_universe(m: int) -> list[frozenset]:
    """Every nonempty clause over m variables (each variable absent,
    positive, negative, or both)."""
    out = []
    for combo in itertools.product(range(4), repeat=m):
        lits = []
        for var, state in enumerate(combo, start=1):
            if state in (1, 3):
                lits.append((var, True))
            if state in (2, 3):
                lits.append((var, False))
        if lits:
            out.append(frozenset(lits))
    return out


@dataclass
class CnfSweep:
    formulas: int = 0
    mismatches: list = field(default_factory=list)
    goal_disagreements: list = field(default_factory=list)
    exists_answers: int = 0
    player1_answers: int = 0
    player1_rechecked: int = 0
    player1_recheck_failures: int = 0
    seconds: float = 0.0


@pytest.fixture(scope="module")
def cnf_sweep() -> CnfSweep:
    stats = CnfSweep()
    cache: dict = {}
    started = time.monotonic()

    def run_formula(formula: CnfFormula) -> None:
        arena = cnf_to_arena(formula)
        expect_player0 = tautology_bruteforce(formula)
        winners = []
        for goal in GOALS:
            result = decide_winner(arena, goal, cache=cache)
            winners.append(result.winner)
            stats.exists_answers += sum(1 for _, ok in result.log if ok)
            if (result.winner == 0) != expect_player0:
                stats.mismatches.append((formula, goal.kind))
            if result.winner == 1:
                stats.player1_answers += 1
                stats.player1_rechecked += 1
                again = graph_decide(prune(arena, result.witness), goal,
                                     cache)
                if again.exists:
                    stats.player1_recheck_failures += 1
        if winners[0] != winners[1]:
            stats.goal_disagreements.append(formula)
        stats.formulas += 1

    for m in (1, 2, 3):
        universe = clause_universe(m)
        for n in (1, 2, 3):
            for clauses in itertools.combinations(universe, n):
                run_formula(CnfFormula(m, clauses))
    rng = random.Random(20260810)
    for _ in range(200):
        run_formula(random_formula(rng, max_vars=4, max_clauses=4))
    stats.seconds = time.monotonic() - started
    return stats


# --- criterion 3 fixture ------------------------------------------------------

FREQ_TARGETS = {
    2: (FrequencyVector.of("1/2", "1/2"), FrequencyVector.of("1/3", "2/3")),
    3: (FrequencyVector.uniform(3),),
}


@dataclass
class GraphFamily:
    instances: list = field(default_factory=list)
    freq_checks: int = 0
    freq_mismatches: list = field(default_factory=list)
    exists_witnessed: int = 0
    witness_failures: list = field(default_factory=list)
    bounded_decisions: list = field(default_factory=list)
    escalations: int = 0


@pytest.fixture(scope="module")
def graph_family() -> GraphFamily:
    stats = GraphFamily()
    rng = random.Random(424242)
    for index in range(500):
        arena = random_connected_arena(rng)
        stats.instances.append(arena)
        for freq in FREQ_TARGETS[arena.k]:
            decision = decide_frequency_path(arena, freq)
            oracle = loop_combination_exists(arena, freq)
            if decision.exists != oracle:
                # the oracle's coefficient bound may bind; raise and retry
                stats.escalations += 1
                oracle = loop_combination_exists(arena, freq, coeff_bound=12)
            if decision.exists != oracle:
                stats.freq_mismatches.append((index, freq))
            stats.freq_checks += 1
            if decision.exists:
                if check_loop_ratio(decision.witness, freq, arena.k):
                    stats.exists_witnessed += 1
                else:
                    stats.witness_failures.append((index, "ratio", freq))
        bounded = decide_bounded_path(arena)
        stats.bounded_decisions.append(bounded)
        if bounded.exists:
            if check_zero_diff_walk(bounded.witness, arena.k):
                stats.exists_witnessed += 1
            else:
                stats.witness_failures.append((index, "walk", None))
    return stats


# --- the criteria -------------------------------------------------------------


def test_criterion_1_cnf_oracle_equivalence(cnf_sweep):
    ok = not cnf_sweep.mismatches and not cnf_sweep.goal_disagreements
    announce(1, "CNF oracle equivalence", ok,
             f"{cnf_sweep.formulas} formulas, both goals, "
             f"{cnf_sweep.seconds:.0f}s")
    assert cnf_sweep.mismatches == []
    assert cnf_sweep.goal_disagreements == []
    assert cnf_sweep.formulas == 42309 + 200


def test_criterion_2_scheduler_game():
    raw = scheduler_arena()
    arena = raw.desugar()
    winners = {}
    for goal in (Goal.bounded(), Goal.balanced(),
                 Goal.frequency(FrequencyVector.of("1/2", "1/2"))):
        winners[goal.kind] = decide_winner(arena, goal).winner
    adversaries = list(enumerate_strategies(raw))
    peaks = [simulate_scheduler_policy(raw, adv, 100_000).max_abs_diff
             for adv in adversaries]
    ok = all(w == 0 for w in winners.values()) and len(adversaries) == 4 \
        and all(p <= 2 for p in peaks)
    announce(2, "scheduler game", ok,
             f"winners {winners}, policy peaks {peaks}")
    assert winners == {"bounded": 0, "balanced": 0, "frequency": 0}
    assert len(adversaries) == 4
    assert all(p <= 2 for p in peaks)


def test_criterion_3_graph_decision_oracle(graph_family):
    ok = not graph_family.freq_mismatches
    announce(3, "graph-decision oracle", ok,
             f"{len(graph_family.instances)} instances, "
             f"{graph_family.freq_checks} frequency checks, "
             f"{graph_family.escalations} bound escalations")
    assert len(graph_family.instances) == 500
    assert graph_family.freq_mismatches == []


def test_criterion_4_witness_soundness(cnf_sweep, graph_family):
    """Every witness across criteria 1-3 verifies exactly.

    Loop sets and walks surfaced by criterion 3 are re-checked here with
    test-side arithmetic; player-1 strategies from criterion 1 were
    re-checked by re-deciding their pruned arenas; the per-strategy
    Exists answers inside criterion 1 are each verified at construction
    time (an inconsistent witness raises instead of returning).
    """
    ok = (not graph_family.witness_failures
          and cnf_sweep.player1_recheck_failures == 0
          and cnf_sweep.player1_rechecked == cnf_sweep.player1_answers)
    announce(4, "witness soundness", ok,
             f"{graph_family.exists_witnessed} graph witnesses, "
             f"{cnf_sweep.player1_rechecked} strategy re-checks, "
             f"{cnf_sweep.exists_answers} per-strategy exists answers")
    assert graph_family.witness_failures == []
    assert graph_family.exists_witnessed > 0
    assert cnf_sweep.player1_recheck_failures == 0
    assert cnf_sweep.player1_rechecked == cnf_sweep.player1_answers > 0


def _boundary_envelope_holds(schedule, limit, rounds_fitted, rounds_checked):
    marks = [round_boundary(schedule, i)
             for i in range(1, rounds_checked + 1)]
    devs = convergence_profile(stream(schedule), marks, limit)
    c_squared = Fraction(0)
    for (n, dev) in devs[:rounds_fitted]:
        c_squared = max(c_squared, dev * dev * n)
    return all(dev * dev * n <= c_squared for n, dev in devs)


def test_criterion_5_convergence():
    arena = build_arena(2, TWO_LOOPS)
    zero = FrequencyVector.uniform(2)
    balanced = build_schedule(decide_balanced_path(arena).witness, arena)
    dev_balanced = measure_convergence(stream(balanced), 10 ** 6, zero)

    freq = FrequencyVector.of("2/3", "1/3")
    limit = freq
    weighted = build_schedule(decide_frequency_path(arena, freq).witness,
                              arena)
    dev_weighted = measure_convergence(stream(weighted), 10 ** 6, limit)

    env_b = _boundary_envelope_holds(balanced, zero, 50, 100)
    env_w = _boundary_envelope_holds(weighted, limit, 50, 100)

    # mid-round peaks of the balanced schedule sit exactly on dev^2*n == 1
    peaks = [round_boundary(balanced, i - 1) + i for i in range(1, 101)]
    peak_devs = convergence_profile(stream(balanced), peaks, zero)
    peak_sq = {dev * dev * n for n, dev in peak_devs}

    ok = (dev_balanced <= Fraction(1, 100) and dev_weighted <= Fraction(1, 100)
          and env_b and env_w and peak_sq == {Fraction(1)})
    announce(5, "synthesized path convergence", ok,
             f"deviations at 1e6: {dev_balanced} and {dev_weighted}")
    assert dev_balanced <= Fraction(1, 100)
    assert dev_weighted <= Fraction(1, 100)
    assert env_b and env_w
    assert peak_sq == {Fraction(1)}


def test_criterion_6_block_word_fixture():
    word: list[int] = []
    drift_exact = True
    for n in range(1, 51):
        word = growing_block_word(n)
        if diff_matrix(word, 3).entry(3, 1) != n:
            drift_exact = False
            break
    counts = color_counts(word, 3)
    freqs = [Fraction(c, len(word)) for c in counts]
    near_uniform = all(abs(f - Fraction(1, 3)) <= Fraction(5, 100)
                       for f in freqs)
    announce(6, "worked-example word", drift_exact and near_uniform,
             f"drift n at every boundary, block-50 frequencies "
             f"{[str(f) for f in freqs]}")
    assert drift_exact
    assert near_uniform


def test_criterion_7_lp_kernel():
    rng = random.Random(77)
    mismatches = 0
    recheck_failures = 0
    for _ in range(1000):
        # free columns and <= rows, solved in the solver's form
        general = random_system(rng)
        system, back = general.solver_form()
        result = solve_feasibility(system)
        if result.feasible != fm_feasible(general):
            mismatches += 1
        if result.feasible and not general.satisfied_by(
                back(result.assignment)):
            recheck_failures += 1
    ok = mismatches == 0 and recheck_failures == 0
    announce(7, "LP kernel vs Fourier-Motzkin", ok,
             "1000 systems, exact re-checks")
    assert mismatches == 0
    assert recheck_failures == 0


def test_criterion_8_bounded_reconstruction(graph_family):
    witness_bad = []
    missed_walks = []
    for index, (arena, decision) in enumerate(
            zip(graph_family.instances, graph_family.bounded_decisions)):
        if decision.exists:
            if not check_zero_diff_walk(decision.witness, arena.k):
                witness_bad.append(index)
        elif zero_diff_walk_exists(arena, max_len=12):
            missed_walks.append(index)
    n_exists = sum(1 for d in graph_family.bounded_decisions if d.exists)
    ok = not witness_bad and not missed_walks
    announce(8, "bounded-path reconstruction", ok,
             f"{n_exists} witnesses, "
             f"{len(graph_family.instances) - n_exists} negatives swept to "
             f"walk length 12")
    assert witness_bad == []
    assert missed_walks == []
