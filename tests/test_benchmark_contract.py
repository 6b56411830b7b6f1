"""What the benchmark in ``perfbench/`` uses of the library still exists.

perfbench is read here, never changed: its span table is executed from
the source text, so that no bytecode is written next to it.
"""

import importlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from colorgames import Edge, FrequencyVector, Goal, graphs
from colorgames.synth import convergence_profile
from builders import TWO_LOOPS, build_arena

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("arena", "games", "graphs", "lp", "reductions", "synth")


def perfbench_spans() -> dict:
    namespace: dict = {"__name__": "perfbench_spans"}
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY),
                 "exec"), namespace)
    return namespace


def library() -> SimpleNamespace:
    """The modules as perfbench's ``run.load_library`` exposes them."""
    return SimpleNamespace(**{mod: importlib.import_module(
        f"colorgames.{mod}") for mod in MODULES})


def test_every_span_target_exists():
    lib = library()
    for mod, attr, _ in perfbench_spans()["SPANS"]:
        assert callable(getattr(getattr(lib, mod), attr)), (mod, attr)


@pytest.mark.parametrize("goal", [
    Goal.balanced(), Goal.bounded(),
    Goal.frequency(FrequencyVector.of("2/3", "1/3"))])
def test_traced_graph_decide_runs(goal):
    # the tracer wraps every span target and graph_decide, called
    # positionally with its cache, and restores them afterwards
    lib = library()
    arena = build_arena(2, TWO_LOOPS)
    originals = [getattr(getattr(lib, mod), attr)
                 for mod, attr, _ in perfbench_spans()["SPANS"]]
    tracer = perfbench_spans()["Tracer"]()
    tracer.install(lib)
    try:
        assert lib.games.graph_decide(arena, goal, None).exists
    finally:
        tracer.uninstall()
    assert tracer.counts["graphs.decide_calls"] == 1
    assert [getattr(getattr(lib, mod), attr) for mod, attr, _ in
            perfbench_spans()["SPANS"]] == originals


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_synth_stream_target_names_match_frequency_vector(k):
    # synth-stream builds its target rates through graphs.LimitMatrix
    edges = [Edge("u", 1 + i * i % k, "u") for i in range(200)]
    marks = [1, 17, 64, 200]
    weights = [1 + a % 3 for a in range(k)]
    freq = tuple(Fraction(w, sum(weights)) for w in weights)
    assert convergence_profile(edges, marks, graphs.LimitMatrix.zero(k)) \
        == convergence_profile(edges, marks, FrequencyVector.uniform(k))
    assert convergence_profile(
        edges, marks, graphs.LimitMatrix.from_frequencies(freq)) \
        == convergence_profile(edges, marks, FrequencyVector(freq))
