"""Schedules and streams: construction, emission order, convergence."""

import random
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest

from colorgames import (ContractError, Edge, FinitePath, FrequencyVector,
                        LoopSet, PathStream,
                        bounded_witness_stream, build_schedule,
                        convergence_profile, decide_balanced_path,
                        decide_bounded_path, decide_frequency_path,
                        edge_components, measure_convergence, stream)
from colorgames.synth import shortest_path
from builders import TWO_LOOPS, build_arena
from oracles import (diff_matrix, enumerate_simple_cycles,
                     growing_block_word, random_connected_arena,
                     reference_bounded_stream, reference_profile,
                     reference_shortest_path, reference_stream,
                     round_boundary, round_edges, round_length)


def two_loop_schedule(freq=None):
    arena = build_arena(2, TWO_LOOPS)
    if freq is None:
        decision = decide_balanced_path(arena)
    else:
        decision = decide_frequency_path(arena, freq)
    assert decision.exists
    return arena, build_schedule(decision.witness, arena)


def test_schedule_two_self_loops():
    _, sched = two_loop_schedule()
    assert sched.connectors == ((), ())
    assert [e.color for e in round_edges(sched, 1)] == [1, 2]
    assert [e.color for e in round_edges(sched, 3)] == [1] * 3 + [2] * 3


def test_schedule_adjacent_loops_have_unit_connectors():
    arena = build_arena(2, [("u", 1, "u"), ("v", 2, "v"),
                            ("u", 1, "v"), ("v", 2, "u")])
    loops = LoopSet(((FinitePath([arena.edges[0]]), 1),
                     (FinitePath([arena.edges[1]]), 1)))
    sched = build_schedule(loops, arena)
    assert [len(c) for c in sched.connectors] == [1, 1]
    # every round is a closed walk through the start
    walk = FinitePath(round_edges(sched, 2))
    assert walk.start == walk.end == sched.start


def test_schedule_frequency_two_one():
    _, sched = two_loop_schedule(FrequencyVector.of("2/3", "1/3"))
    assert sched.coeffs == (2, 1)
    assert [e.color for e in round_edges(sched, 1)] == [1, 1, 2]
    assert [e.color for e in round_edges(sched, 2)] == [1] * 4 + [2] * 2


def test_schedule_rejects_disconnected_loops():
    arena = build_arena(2, [("u", 1, "u"), ("u", 1, "v"), ("v", 2, "v")])
    loops = LoopSet(((FinitePath([arena.edges[0]]), 1),
                     (FinitePath([arena.edges[2]]), 1)))
    with pytest.raises(ContractError):
        build_schedule(loops, arena)


def test_connectors_match_component_bounded_search():
    # a shortest path between two nodes of one component never leaves
    # it, so the search over all nodes finds the component search's path
    rng = random.Random(47)
    pairs = 0
    for _ in range(1500):
        arena = random_connected_arena(rng, max_nodes=7, max_edges=14)
        for group in edge_components(arena, range(len(arena.edges))):
            members = {arena.edges[eid].src for eid in group}
            for u in members:
                for v in members:
                    assert shortest_path(arena, u, v) \
                        == reference_shortest_path(arena, members, u, v)
                    pairs += 1
    assert pairs >= 10_000


def test_stream_first_edges():
    _, sched = two_loop_schedule()
    assert [e.color for e in stream(sched).take(6)] == [1, 2, 1, 1, 2, 2]


def test_stream_single_loop_is_periodic():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    decision = decide_balanced_path(arena)
    sched = build_schedule(decision.witness, arena)
    colors = [e.color for e in stream(sched).take(12)]
    assert colors == [1, 2] * 6


def test_round_boundary_arithmetic():
    _, sched = two_loop_schedule(FrequencyVector.of("2/3", "1/3"))
    n = sched.loop_weight()
    bounds = [round_boundary(sched, i) for i in range(1, 8)]
    for i in range(2, 7):
        assert bounds[i] - bounds[i - 1] == bounds[i - 1] - bounds[i - 2] + n
        assert bounds[i] - bounds[i - 1] == round_length(sched, i + 1)


def test_stream_adjacency():
    arena = build_arena(2, [("u", 1, "u"), ("v", 2, "v"),
                            ("u", 1, "v"), ("v", 2, "u")])
    loops = LoopSet(((FinitePath([arena.edges[0]]), 1),
                     (FinitePath([arena.edges[1]]), 1)))
    sched = build_schedule(loops, arena)
    edges = stream(sched).take(400)
    assert edges[0].src == sched.start
    for a, b in zip(edges, edges[1:]):
        assert a.dst == b.src


def test_round_closure_identity():
    arena = build_arena(2, [("u", 1, "u"), ("v", 2, "v"),
                            ("u", 1, "v"), ("v", 2, "u")])
    loops = LoopSet(((FinitePath([arena.edges[0]]), 1),
                     (FinitePath([arena.edges[1]]), 2)))
    sched = build_schedule(loops, arena)
    z = diff_matrix([1], 2) + diff_matrix([2, 2], 2)
    conn = diff_matrix([1], 2) + diff_matrix([2], 2)
    for i in range(1, 7):
        round_diff = diff_matrix(
            [e.color for e in round_edges(sched, i)], 2)
        assert round_diff == z.scaled(i) + conn


def test_measure_convergence_zero_on_period_multiples():
    arena = build_arena(2, [("u", 1, "v"), ("v", 2, "u")])
    sched = build_schedule(decide_balanced_path(arena).witness, arena)
    for n in (2, 10, 40):
        assert measure_convergence(stream(sched), n,
                                   FrequencyVector.uniform(2)) == 0


def test_measure_convergence_boundary_bound_decreasing():
    _, sched = two_loop_schedule()
    zero = FrequencyVector.uniform(2)
    devs = [measure_convergence(stream(sched), round_boundary(sched, i),
                                zero)
            for i in range(1, 11)]
    for i, d in enumerate(devs, start=1):
        assert d <= Fraction(i, round_boundary(sched, i))
    assert all(a >= b for a, b in zip(devs, devs[1:]))


def test_block_word_deviation_shrinks():
    word3 = growing_block_word(3)
    word30 = growing_block_word(30)
    zero = FrequencyVector.uniform(3)
    arena = build_arena(3, [("u", c, "u") for c in (1, 2, 3)])

    def word_stream(word):
        gen = (arena.edges[c - 1] for c in word)
        return PathStream("u", gen)

    d3 = measure_convergence(word_stream(word3), len(word3), zero)
    d30 = measure_convergence(word_stream(word30), len(word30), zero)
    assert d30 < d3
    # pair (3,1) alone drifts by exactly one per block
    m = diff_matrix(word30, 3)
    assert Fraction(m.entry(3, 1), len(word30)) == Fraction(30, len(word30))


def test_convergence_profile_matches_single_measurements():
    _, sched = two_loop_schedule(FrequencyVector.of("2/3", "1/3"))
    lm = FrequencyVector.of("2/3", "1/3")
    marks = [3, 9, 18, 30]
    profile = convergence_profile(stream(sched), marks, lm)
    for mark, dev in profile:
        assert dev == measure_convergence(stream(sched), mark, lm)


def test_peak_envelope_is_square_root():
    # right after the first loop block of round i the deviation peaks at
    # i / i^2, so dev^2 * n is exactly 1 at every peak
    _, sched = two_loop_schedule()
    zero = FrequencyVector.uniform(2)
    peaks = [round_boundary(sched, i - 1) + i for i in range(1, 60)]
    for mark, dev in convergence_profile(stream(sched), peaks, zero):
        assert dev * dev * mark == 1


def test_bounded_stream_small_prefix_diffs():
    arena = build_arena(2, TWO_LOOPS)
    walk = decide_bounded_path(arena).witness
    bs = bounded_witness_stream(walk, (), 2)
    assert bs.bound == 1
    counts = [0, 0]
    for e in bs.take(1000):
        counts[e.color - 1] += 1
        assert abs(counts[0] - counts[1]) <= 1


def test_bounded_stream_figure_eight_long_run():
    # two loops sharing u with opposite per-loop drift (+2 and -2); the
    # walk cancels overall but excursions inside one period persist
    arena = build_arena(2, [("s", 1, "u"), ("u", 1, "v"), ("v", 1, "u"),
                            ("u", 2, "w"), ("w", 2, "u")],
                        initial="s")
    walk = FinitePath([arena.edges[1], arena.edges[2],
                       arena.edges[3], arena.edges[4]])
    access = (arena.edges[0],)
    bs = bounded_witness_stream(walk, access, 2)
    assert bs.bound == 3  # access excursion 1 plus loop drift 2
    counts = [0, 0]
    worst = 0
    for e in bs.take(100_000):
        counts[e.color - 1] += 1
        worst = max(worst, abs(counts[0] - counts[1]))
    assert worst <= bs.bound


def test_bounded_stream_rejects_unbalanced_walk():
    arena = build_arena(2, [("u", 1, "u"), ("u", 2, "u")])
    with pytest.raises(ContractError):
        bounded_witness_stream(FinitePath([arena.edges[0]]), (), 2)


# --- differential tests against the per-edge reference streams ----------------


def seeded_schedules(seed: int, count: int, most: int = 3):
    """Schedules over one to three simple cycles (each rotated to a
    random start) of one component of a seeded random arena, with
    coefficients 1..most."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arena = random_connected_arena(rng, max_nodes=5, max_edges=9)
        group_of = {eid: gi for gi, group in enumerate(
            edge_components(arena, range(len(arena.edges))))
            for eid in group}
        groups: dict[int, list[FinitePath]] = {}
        for ids in enumerate_simple_cycles(arena):
            r = rng.randrange(len(ids))
            loop = FinitePath(arena.edges[i] for i in ids[r:] + ids[:r])
            groups.setdefault(group_of[ids[0]], []).append(loop)
        if not groups:
            continue
        loops = rng.choice(list(groups.values()))
        picked = rng.sample(loops, rng.randint(1, min(3, len(loops))))
        loop_set = LoopSet(tuple((p, rng.randint(1, most)) for p in picked))
        out.append((arena, build_schedule(loop_set, arena)))
    return out


def access_path(arena, target: str) -> tuple[Edge, ...]:
    parent = {arena.initial: None}
    queue = deque([arena.initial])
    while queue:
        u = queue.popleft()
        for eid in arena.out_edge_ids(u):
            e = arena.edges[eid]
            if e.dst not in parent:
                parent[e.dst] = e
                queue.append(e.dst)
    path = []
    while target != arena.initial:
        path.append(parent[target])
        target = parent[target].src
    return tuple(reversed(path))


def random_rates(rng: random.Random, k: int) -> FrequencyVector:
    weights = [rng.randint(0, 4) for _ in range(k)]
    weights[rng.randrange(k)] += 1
    total = sum(weights)
    return FrequencyVector(tuple(Fraction(w, total) for w in weights))


def test_stream_matches_reference_at_round_boundaries():
    rng = random.Random(41)
    for _, sched in seeded_schedules(41, 40):
        lengths = {round_boundary(sched, i) + d for i in range(1, 7)
                   for d in (-1, 0, 1)}
        lengths |= {0, 1, rng.randint(2, 3000)}
        ref = list(islice(reference_stream(sched), max(lengths)))
        for n in sorted(lengths):
            assert stream(sched).take(n) == ref[:n]


def test_stream_matches_reference_across_long_blocks():
    # coefficients in the thousands make blocks of tens of thousands of
    # edges, emitted as runs of at most 4,096 edges and a remainder
    for _, sched in seeded_schedules(45, 8, most=6000):
        n = round_boundary(sched, 2) + 1
        assert stream(sched).take(n) == list(islice(reference_stream(sched),
                                                    n))


def test_stream_takes_in_pieces_match_reference():
    # consecutive takes end inside blocks, so each resumes mid-block
    rng = random.Random(42)
    for _, sched in seeded_schedules(42, 40):
        path_stream = stream(sched)
        pieces = [rng.randint(0, 60) for _ in range(40)]
        got = [e for n in pieces for e in path_stream.take(n)]
        assert got == list(islice(reference_stream(sched), sum(pieces)))
        assert next(path_stream) == next(islice(
            reference_stream(sched), sum(pieces), None))


def test_round_edges_match_reference_rounds():
    for _, sched in seeded_schedules(43, 20):
        ref = list(islice(reference_stream(sched),
                          round_boundary(sched, 5)))
        for i in range(1, 6):
            assert round_edges(sched, i) == \
                ref[round_boundary(sched, i - 1):round_boundary(sched, i)]


def test_bounded_stream_matches_reference():
    rng = random.Random(44)
    checked = with_access = 0
    while checked < 30:
        arena = random_connected_arena(rng, max_nodes=4, max_edges=7)
        decision = decide_bounded_path(arena)
        if not decision.exists:
            continue
        walk = decision.witness
        access = access_path(arena, walk.start)
        n = rng.randint(0, 500)
        for acc in {(), access}:
            got = bounded_witness_stream(walk, acc, arena.k).take(n)
            assert got == list(islice(reference_bounded_stream(walk, acc), n))
        checked += 1
        with_access += bool(access)
    assert with_access > 0


def test_convergence_profile_matches_per_edge_recount():
    rng = random.Random(45)
    for arena, sched in seeded_schedules(45, 30):
        limit = random_rates(rng, arena.k)
        n = rng.randint(1, 4000)
        marks = [rng.randint(1, n) for _ in range(rng.randint(1, 8))]
        marks += [round_boundary(sched, 1), n]
        ref = reference_profile(reference_stream(sched), marks, limit)
        assert convergence_profile(stream(sched), marks, limit) == ref
        prefix = stream(sched).take(max(marks))
        assert convergence_profile(prefix, marks, limit) == ref
        assert measure_convergence(stream(sched), n, limit) == \
            reference_profile(prefix, [n], limit)[0][1]


@pytest.mark.parametrize("k", [2, 5, 255, 256])
def test_convergence_profile_counts_every_color(k):
    # colors that fit in a byte and colors that do not are counted alike
    rng = random.Random(46 + k)
    edges = [Edge("u", rng.choice((1, k, rng.randint(1, k))), "u")
             for _ in range(3000)]
    limit = FrequencyVector.uniform(k) if k > 5 else random_rates(rng, k)
    marks = sorted(rng.sample(range(1, 3001), 3))
    assert convergence_profile(edges, marks, limit) == \
        reference_profile(edges, marks, limit)


@pytest.mark.parametrize("k", [1, 3, 17, 256])
def test_worst_gap_from_the_rate_vector_matches_pairwise_gaps(k):
    # max_a d_a - min_a d_a, d_a = c_a/pos - r_a, is the largest pairwise
    # gap: the same Fraction as the per-pair reference, skewed rates too
    rng = random.Random(47 + k)
    for _ in range(3):
        limit = random_rates(rng, k)
        edges = [Edge("u", rng.choice((1, k, rng.randint(1, k))), "u")
                 for _ in range(rng.randint(1, 2000))]
        marks = sorted({rng.randint(1, len(edges)) for _ in range(3)})
        assert convergence_profile(edges, marks, limit) == \
            reference_profile(edges, marks, limit)


def test_short_stream_raises_contract_error():
    edges = [Edge("u", 1 + i % 2, "u") for i in range(5)]
    with pytest.raises(ContractError):
        PathStream("u", iter(edges)).take(6)
    with pytest.raises(ContractError):
        convergence_profile(PathStream("u", iter(edges)), [2, 6],
                            FrequencyVector.uniform(2))
    with pytest.raises(ContractError):
        measure_convergence(edges, 6, FrequencyVector.uniform(2))
    assert PathStream("u", iter(edges)).take(5) == edges


@pytest.mark.parametrize("k", [2, 256])
@pytest.mark.parametrize("bad", [0, "k+1", None])
def test_color_outside_palette_raises_contract_error(k, bad):
    color = k + 1 if bad == "k+1" else bad
    edges = [Edge("u", 1, "u"), Edge("u", color, "u"), Edge("u", 2, "u")]
    limit = FrequencyVector.uniform(k)
    with pytest.raises(ContractError):
        convergence_profile(edges, [3], limit)
    with pytest.raises(ContractError):
        measure_convergence(edges, 2, limit)
    # the prefix before the bad edge is still measured
    assert measure_convergence(edges, 1, limit) == 1


def test_negative_take_and_empty_marks_raise_contract_error():
    _, sched = two_loop_schedule()
    with pytest.raises(ContractError):
        stream(sched).take(-1)
    with pytest.raises(ContractError):
        measure_convergence(stream(sched), 0, FrequencyVector.uniform(2))
    with pytest.raises(ContractError):
        convergence_profile(stream(sched), [], FrequencyVector.uniform(2))
    assert stream(sched).take(0) == []
