"""Command-line surface: exit codes, JSON reports, round trips."""

import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import colorgames
from colorgames import (Edge, InternalCheckError, graphs, scheduler_arena,
                        simulate_scheduler_policy)
from colorgames import cli
from colorgames.arena import MAX_CHAIN_NODES, MAX_COLORS
from colorgames.cli import main
from colorgames.synth import max_abs_diff
from builders import TWO_LOOPS, build_arena
from oracles import (growing_block_word, reference_max_abs_diff,
                     reference_verify_peaks)


@pytest.fixture
def two_loops_file(tmp_path):
    arena = build_arena(2, TWO_LOOPS)
    path = tmp_path / "two_loops.json"
    path.write_text(arena.to_json())
    return str(path)


@pytest.fixture
def single_color_file(tmp_path):
    arena = build_arena(2, [("u", 1, "u")])
    path = tmp_path / "single.json"
    path.write_text(arena.to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_balanced_exists(two_loops_file, capsys):
    code, report = run_cli(capsys, "analyze", "--arena", two_loops_file,
                           "--goal", "balanced")
    assert code == 0
    assert report["schema"] == 1
    assert report["result"]["exists"] is True
    loops = report["witness"]["loops"]
    assert [l["coeff"] for l in loops] == [1, 1]


def test_analyze_frequency_witness_coeffs(two_loops_file, capsys):
    code, report = run_cli(capsys, "analyze", "--arena", two_loops_file,
                           "--goal", "freq", "--freq", "2/3,1/3")
    assert code == 0
    assert sorted(l["coeff"] for l in report["witness"]["loops"]) == [1, 2]


def test_analyze_bounded_not_exists(single_color_file, capsys):
    code, report = run_cli(capsys, "analyze", "--arena", single_color_file,
                           "--goal", "bounded")
    assert code == 1
    assert report["result"]["exists"] is False


def test_analyze_bad_frequency_vector(two_loops_file, capsys):
    for bad in ("1/3,1/3", "1/2,-1/2,1", "2/3,1/3,0"):
        code = main(["analyze", "--arena", two_loops_file,
                     "--goal", "freq", "--freq", bad])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert "error" in report
        assert "internal" not in report  # a user error, not a bug


@pytest.mark.parametrize("k, uncolored", [
    (100_000, 3),  # a 199-byte file that once expanded to 299,998 nodes
    (MAX_COLORS, MAX_CHAIN_NODES // (MAX_COLORS - 1) + 1)])
def test_analyze_rejects_arena_above_input_limits(tmp_path, capsys, k,
                                                  uncolored):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({
        "k": k, "initial": "u", "nodes": [{"id": "u", "owner": 0}],
        "edges": [{"src": "u", "color": None, "dst": "u"}] * uncolored}))
    code = main(["analyze", "--arena", str(path), "--goal", "bounded"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert "limit" in report["error"]
    assert "internal" not in report


def test_analyze_rejects_non_integer_owner(tmp_path, capsys):
    # an owner of true once loaded as player 1
    path = tmp_path / "bool_owner.json"
    path.write_text(json.dumps({
        "k": 2, "initial": "u", "nodes": [{"id": "u", "owner": True}],
        "edges": [{"src": "u", "color": 1, "dst": "u"},
                  {"src": "u", "color": 2, "dst": "u"}]}))
    code = main(["solve", "--arena", str(path), "--goal", "balanced"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["error"] == "owner must be an integer, got True"
    assert "internal" not in report


def single_error_report(capsys, argv) -> dict:
    """Run a command that must fail on the user's input: exit 2 and one
    JSON report, not marked internal."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert "internal" not in report  # a user error, not a bug
    return report


def test_analyze_rejects_non_string_ids(tmp_path, capsys):
    # ids that are JSON numbers once loaded as strings and answered
    path = tmp_path / "number_ids.json"
    path.write_text(json.dumps({
        "k": 1, "initial": 1, "nodes": [{"id": 1, "owner": 0}],
        "edges": [{"src": 1, "color": 1, "dst": 1}]}))
    report = single_error_report(
        capsys, ["analyze", "--arena", str(path), "--goal", "balanced"])
    assert report["error"] == "id must be a string, got 1"


@pytest.mark.parametrize("site", ["arena", "dimacs", "verify-arena",
                                  "prefix"])
def test_file_that_is_not_utf8_is_a_user_error(two_loops_file, tmp_path,
                                               capsys, site):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    prefix = tmp_path / "p.txt"
    prefix.write_text("u 1 u\n")
    argv = {
        "arena": ["analyze", "--arena", str(bad), "--goal", "balanced"],
        "dimacs": ["gen", "cnf", "--dimacs", str(bad)],
        "verify-arena": ["verify", "--arena", str(bad),
                         "--prefix", str(prefix)],
        "prefix": ["verify", "--arena", two_loops_file,
                   "--prefix", str(bad)],
    }[site]
    report = single_error_report(capsys, argv)
    assert report["error"].startswith(f"{bad} is not UTF-8")


@pytest.mark.parametrize("command", ["analyze", "solve", "synth", "verify"])
def test_frequency_arity_mismatch_is_a_user_error(two_loops_file, tmp_path,
                                                  capsys, command):
    prefix = tmp_path / "p.txt"
    prefix.write_text("u 1 u\n")
    argv = [command, "--arena", two_loops_file,
            "--goal", "freq", "--freq", "1/3,1/3,1/3"]
    if command == "verify":
        argv += ["--prefix", str(prefix)]
    report = single_error_report(capsys, argv)
    assert report["error"] == ("frequency vector has arity 3, "
                               "arena has 2 colors")


@pytest.mark.parametrize("header, body", [
    # 2m raw nodes with no clause; one node above the limit
    (f"p cnf {MAX_CHAIN_NODES // 2 + 1} 0", ""),
    # 4m raw nodes, within the limit, but 5m - 1 chain nodes above it
    (f"p cnf {MAX_CHAIN_NODES // 5 + 1} 1", "1 0")],
    ids=["nodes", "chain-nodes"])
def test_gen_cnf_rejects_formula_above_input_limits(tmp_path, capsys,
                                                    header, body):
    dimacs = tmp_path / "hostile.cnf"
    dimacs.write_text(f"{header}\n{body}\n")
    code = main(["gen", "cnf", "--dimacs", str(dimacs)])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert "limit" in report["error"]
    assert "internal" not in report


def test_solve_matches_analyze_without_player1(two_loops_file, capsys):
    code, report = run_cli(capsys, "solve", "--arena", two_loops_file,
                           "--goal", "balanced")
    assert code == 0
    assert report["result"]["winner"] == 0
    assert report["result"]["strategies_total"] == 1


def test_gen_scheduler_and_solve(tmp_path, capsys):
    code, arena_doc = run_cli(capsys, "gen", "scheduler")
    assert code == 0
    assert len(arena_doc["nodes"]) == 11
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(arena_doc))
    code, report = run_cli(capsys, "solve", "--arena", str(path),
                           "--goal", "bounded")
    assert code == 0
    assert report["result"]["winner"] == 0


def test_gen_cnf(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 1 1\n1 -1 0\n")
    code, arena_doc = run_cli(capsys, "gen", "cnf", "--dimacs", str(dimacs))
    assert code == 0
    assert arena_doc["k"] == 2
    dimacs3 = tmp_path / "g.cnf"
    dimacs3.write_text("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
    code, arena_doc = run_cli(capsys, "gen", "cnf", "--dimacs", str(dimacs3))
    assert code == 0
    assert arena_doc["k"] == 4


def test_gen_cnf_bad_dimacs(tmp_path, capsys):
    dimacs = tmp_path / "bad.cnf"
    dimacs.write_text("p cnf 1 1\n1\n")
    code = main(["gen", "cnf", "--dimacs", str(dimacs)])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_solve_strategy_budget_exceeded(tmp_path, capsys):
    dimacs = tmp_path / "three.cnf"
    dimacs.write_text("p cnf 3 1\n1 2 3 0\n")
    code, arena_doc = run_cli(capsys, "gen", "cnf", "--dimacs", str(dimacs))
    path = tmp_path / "three_arena.json"
    path.write_text(json.dumps(arena_doc))
    code = main(["solve", "--arena", str(path), "--goal", "balanced",
                 "--max-strategies", "7"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_solve_report_does_not_grow_with_the_strategies(tmp_path, capsys):
    # two self-loops at the initial node and 12 unreachable player-1
    # nodes with two edges each: 4096 strategies, all with one graph
    triples = TWO_LOOPS + [(f"p{i}", c, f"p{i}")
                           for i in range(12) for c in (1, 2)]
    arena = build_arena(2, triples,
                        owners={f"p{i}": 1 for i in range(12)})
    path = tmp_path / "unreachable.json"
    path.write_text(arena.to_json())
    code = main(["solve", "--arena", str(path), "--goal", "balanced"])
    out = capsys.readouterr().out
    result = json.loads(out)["result"]
    assert code == 0
    assert result["strategies_total"] == result["explored"] == 4096
    assert "log" not in result
    assert len(out.encode()) < 2048


@pytest.mark.parametrize("dimacs, code", [
    ("p cnf 1 1\n1 -1 0\n", 0), ("p cnf 1 1\n1 0\n", 1),
    ("p cnf 2 2\n1 2 0\n-1 0\n", 1)])
def test_solve_raw_and_desugared_files_agree(tmp_path, capsys, dimacs, code):
    # a file with uncolored edges and its desugared form, whose chains
    # are explicit edges: one JSON report each, with the same result
    raw = colorgames.cnf_to_raw_arena(colorgames.parse_dimacs(dimacs))
    results = []
    for name, text in (("raw", raw.to_json()),
                       ("desugared", raw.desugar().to_json())):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        got, report = run_cli(capsys, "solve", "--arena", str(path),
                              "--goal", "bounded")
        assert got == code
        results.append(report["result"])
    assert results[0] == results[1]


def test_solve_cnf_single_clause_player1(tmp_path, capsys):
    dimacs = tmp_path / "x.cnf"
    dimacs.write_text("p cnf 1 1\n1 0\n")
    code, arena_doc = run_cli(capsys, "gen", "cnf", "--dimacs", str(dimacs))
    path = tmp_path / "x_arena.json"
    path.write_text(json.dumps(arena_doc))
    code, report = run_cli(capsys, "solve", "--arena", str(path),
                           "--goal", "balanced")
    assert code == 1
    assert report["result"]["winner"] == 1
    assert "v1" in report["result"]["witness"]


def test_synth_balanced_prefix(two_loops_file, tmp_path, capsys):
    out = tmp_path / "prefix.txt"
    code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                           "--goal", "balanced", "--emit-prefix", "110",
                           "--prefix-out", str(out))
    assert code == 0
    colors = [triple[1] for triple in report["prefix"]]
    assert colors[:6] == [1, 2, 1, 1, 2, 2]
    assert Fraction(report["convergence"]["deviation"]) <= Fraction(1, 10)
    assert len(out.read_text().splitlines()) == 110


def test_synth_bounded_periodic(two_loops_file, capsys):
    code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                           "--goal", "bounded", "--emit-prefix", "50")
    assert code == 0
    bound = report["stream"]["bound"]
    assert report["convergence"]["max_abs_diff"] <= bound
    assert len(report["prefix"]) == 50


def test_synth_frequency_long_prefix(two_loops_file, tmp_path, capsys):
    out = tmp_path / "prefix.txt"
    code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                           "--goal", "freq", "--freq", "2/3,1/3",
                           "--emit-prefix", "100000", "--prefix-out", str(out))
    assert code == 0
    assert Fraction(report["convergence"]["deviation"]) <= Fraction(5, 100)
    assert report["prefix_out"] == {"path": str(out), "length": 100000}
    assert "prefix" not in report


@pytest.mark.parametrize("goal", [["bounded"], ["balanced"],
                                  ["freq", "--freq", "2/3,1/3"]])
def test_synth_long_prefix_needs_prefix_out(two_loops_file, capsys,
                                            monkeypatch, goal):
    def undecided(*args):
        raise AssertionError("the arena was decided")

    monkeypatch.setattr(cli, "graph_decide", undecided)
    code = main(["synth", "--arena", two_loops_file, "--goal", *goal,
                 "--emit-prefix", str(cli.MAX_INLINE_PREFIX + 1)])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert "--prefix-out" in report["error"]
    assert "internal" not in report


def test_synth_long_prefix_goes_to_file_only(two_loops_file, tmp_path,
                                             capsys):
    out = tmp_path / "prefix.txt"
    n = cli.MAX_INLINE_PREFIX + 1
    code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                           "--goal", "bounded", "--emit-prefix", str(n),
                           "--prefix-out", str(out))
    assert code == 0
    assert "prefix" not in report
    assert report["prefix_out"] == {"path": str(out), "length": n}
    assert len(out.read_text().splitlines()) == n
    code, report = run_cli(capsys, "verify", "--arena", two_loops_file,
                           "--prefix", str(out), "--bound", "1")
    assert code == 0 and report["result"]["length"] == n


def test_synth_bounded_access_path_prefix_reverifies(tmp_path, capsys):
    # two shortest access paths lead to the zero-difference loops at u
    arena = build_arena(2, [("s", 1, "a"), ("s", 2, "b"), ("a", 2, "u"),
                            ("b", 1, "u"), ("u", 1, "u"), ("u", 2, "u")])
    path = tmp_path / "access.json"
    path.write_text(arena.to_json())
    out = tmp_path / "prefix.txt"
    code, report = run_cli(capsys, "synth", "--arena", str(path), "--goal",
                           "bounded", "--emit-prefix", "300",
                           "--prefix-out", str(out))
    assert code == 0
    access = report["stream"]["access"]
    assert len(access) == 2 and access[0][0] == "s"
    assert access[-1][2] == report["witness"]["edges"][0][0]
    assert report["prefix"][:2] == access
    assert [line.split() for line in out.read_text().splitlines()] == \
        [[s, str(c), d] for s, c, d in report["prefix"]]
    bound = report["stream"]["bound"]
    code, again = run_cli(capsys, "verify", "--arena", str(path),
                          "--prefix", str(out), "--bound", str(bound))
    assert code == 0 and again["result"]["pass"] is True
    assert again["result"]["max_abs_diff"] == \
        report["convergence"]["max_abs_diff"]


@pytest.mark.parametrize("goal", [["bounded"], ["balanced"],
                                  ["freq", "--freq", "2/3,1/3"]])
def test_synth_long_prefix_is_streamed_in_blocks(two_loops_file, tmp_path,
                                                 capsys, monkeypatch, goal):
    n = 12_345
    monkeypatch.setattr(cli, "MAX_INLINE_PREFIX", 100)
    asked = []
    take = colorgames.PathStream.take

    def counted_take(self, m):
        asked.append(m)
        return take(self, m)

    monkeypatch.setattr(colorgames.PathStream, "take", counted_take)
    runs = []
    for block in (1000, n + 1):
        monkeypatch.setattr(cli, "PREFIX_BLOCK", block)
        asked.clear()
        out = tmp_path / f"prefix-{block}.txt"
        code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                               "--goal", *goal, "--emit-prefix", str(n),
                               "--prefix-out", str(out))
        assert code == 0
        assert sum(asked) == n and max(asked) <= block
        del report["timing"], report["prefix_out"]["path"]
        runs.append((report, out.read_bytes()))
    # blocks of 1000 edges report and write what one block does
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) == n


def test_synth_unwritable_prefix_out_is_an_error(two_loops_file, tmp_path,
                                                 capsys):
    out = tmp_path / "missing" / "prefix.txt"
    code = main(["synth", "--arena", two_loops_file, "--goal", "bounded",
                 "--emit-prefix", "10", "--prefix-out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "cannot write" in report["error"] and "internal" not in report


def test_synth_not_exists(single_color_file, capsys):
    code, report = run_cli(capsys, "synth", "--arena", single_color_file,
                           "--goal", "balanced")
    assert code == 1
    assert report["result"]["exists"] is False
    assert "prefix" not in report


@pytest.mark.parametrize("goal", [["bounded"], ["balanced"],
                                  ["freq", "--freq", "2/3,1/3"]])
@pytest.mark.parametrize("length", ["-3", "0"])
def test_synth_rejects_empty_prefix_for_every_goal(two_loops_file, capsys,
                                                   goal, length):
    code = main(["synth", "--arena", two_loops_file, "--goal", *goal,
                 "--emit-prefix", length])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert "emit-prefix" in report["error"]
    assert "internal" not in report


def test_synth_deviation_is_measured_on_the_emitted_prefix(two_loops_file,
                                                           capsys):
    # the balanced schedule's first-round peak: after "1" the deviation
    # is 1, after "1 2" it is 0, after "1 2 1" it is 1/3
    for n, expected in (("1", 1), ("2", 0), ("3", Fraction(1, 3))):
        code, report = run_cli(capsys, "synth", "--arena", two_loops_file,
                               "--goal", "balanced", "--emit-prefix", n)
        assert code == 0
        assert len(report["prefix"]) == int(n)
        assert Fraction(report["convergence"]["deviation"]) == expected


def test_synth_output_reverifies(two_loops_file, tmp_path, capsys):
    out = tmp_path / "prefix.txt"
    run_cli(capsys, "synth", "--arena", two_loops_file, "--goal", "bounded",
            "--emit-prefix", "40", "--prefix-out", str(out))
    code, report = run_cli(capsys, "verify", "--arena", two_loops_file,
                           "--prefix", str(out), "--bound", "1")
    assert code == 0
    assert report["result"]["pass"] is True


def test_synth_frequency_prefix_reverifies(two_loops_file, tmp_path, capsys):
    out = tmp_path / "prefix.txt"
    run_cli(capsys, "synth", "--arena", two_loops_file, "--goal", "freq",
            "--freq", "2/3,1/3", "--emit-prefix", "9000",
            "--prefix-out", str(out))
    code, report = run_cli(capsys, "verify", "--arena", two_loops_file,
                           "--prefix", str(out), "--goal", "freq",
                           "--freq", "2/3,1/3")
    assert code == 0
    assert Fraction(report["result"]["freq_deviation"]) <= Fraction(5, 100)


def test_verify_alternating_prefix(two_loops_file, tmp_path, capsys):
    prefix = tmp_path / "p.txt"
    prefix.write_text("".join(f"u {c} u\n" for c in (1, 2, 1, 2)))
    code, report = run_cli(capsys, "verify", "--arena", two_loops_file,
                           "--prefix", str(prefix), "--bound", "1")
    assert code == 0
    assert report["result"]["max_abs_diff"] == 1


def test_verify_block_word_peak(tmp_path, capsys):
    arena = build_arena(3, [("u", c, "u") for c in (1, 2, 3)])
    arena_path = tmp_path / "three.json"
    arena_path.write_text(arena.to_json())
    prefix = tmp_path / "word.txt"
    prefix.write_text("".join(f"u {c} u\n"
                              for c in growing_block_word(5)))
    code, report = run_cli(capsys, "verify", "--arena", str(arena_path),
                           "--prefix", str(prefix))
    assert code == 0
    peak = report["result"]["max_diff_matrix"]
    assert peak[2][0] == 5  # color 3 over color 1, one per block


def test_verify_scheduler_simulation(tmp_path, capsys):
    raw = scheduler_arena()
    arena_path = tmp_path / "sched.json"
    arena_path.write_text(raw.to_json())
    run = simulate_scheduler_policy(raw, 3, 2000)
    prefix = tmp_path / "sim.txt"
    prefix.write_text("".join(
        f"{e.src} {'null' if e.color is None else e.color} {e.dst}\n"
        for e in run.edges))
    code, report = run_cli(capsys, "verify", "--arena", str(arena_path),
                           "--prefix", str(prefix), "--bound", "2")
    assert code == 0
    assert report["result"]["pass"] is True


def test_verify_rejects_broken_walk(two_loops_file, tmp_path, capsys):
    prefix = tmp_path / "bad.txt"
    prefix.write_text("u 1 u\nv 2 v\n")
    code = main(["verify", "--arena", two_loops_file,
                 "--prefix", str(prefix)])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_verify_fail_exit_code(two_loops_file, tmp_path, capsys):
    prefix = tmp_path / "ones.txt"
    prefix.write_text("u 1 u\nu 1 u\nu 1 u\n")
    code, report = run_cli(capsys, "verify", "--arena", two_loops_file,
                           "--prefix", str(prefix), "--bound", "2")
    assert code == 1
    assert report["result"]["pass"] is False


@pytest.mark.parametrize("failure", [
    InternalCheckError("loop set does not match the target rates"),
    RuntimeError("simplex exceeded its iteration budget"),
    KeyError("n0"),
])
def test_internal_error_is_an_error_not_a_verdict(two_loops_file, capsys,
                                                  monkeypatch, failure):
    def broken(*args, **kwargs):
        raise failure

    monkeypatch.setattr(graphs, "_loops", broken)  # the deciders' loops
    code = main(["analyze", "--arena", two_loops_file, "--goal", "balanced"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["internal"] is True
    assert report["schema"] == 1
    assert type(failure).__name__ in report["error"]
    assert "Traceback" in captured.err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_error_without_tracebacks(two_loops_file,
                                                      monkeypatch):
    stdout, stderr = ClosedPipe(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    code = main(["analyze", "--arena", two_loops_file, "--goal", "balanced"])
    assert code == 2
    assert stdout.writes == 1  # nothing more was written after the failure
    assert "Traceback" not in stderr.getvalue()
    assert "stdout was closed" in stderr.getvalue()


def test_closed_stdout_pipe_in_a_process(two_loops_file):
    # the reading end is closed before the child writes its report
    env = dict(os.environ, PYTHONPATH=str(
        Path(colorgames.__file__).resolve().parent.parent))
    child = subprocess.Popen(
        [sys.executable, "-m", "colorgames.cli", "synth", "--arena",
         two_loops_file, "--goal", "bounded", "--emit-prefix", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "stdout was closed" in err


_MEASURED_MAIN = """import resource, sys
from colorgames.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)"""


def test_thirty_digit_frequencies_take_bounded_time_and_memory(tmp_path):
    # rates with 30-digit denominators give loop multiplicities of about
    # 60 digits: analyze must not walk the loads unit by unit, and synth
    # must not build a block of that many edges for a 10-edge prefix
    arena = build_arena(3, [("u", 1, "u"), ("u", 2, "u"), ("u", 3, "v"),
                            ("v", 1, "u")])
    path = tmp_path / "three.json"
    path.write_text(arena.to_json())
    second = Fraction(3 * 10 ** 28 + 1, 10 ** 29 + 3)
    third = Fraction(2 * 10 ** 28 + 1, 10 ** 29 + 7)
    rates = (1 - second - third, second, third)
    freq = ",".join(map(str, rates))
    env = dict(os.environ, PYTHONPATH=str(
        Path(colorgames.__file__).resolve().parent.parent))
    for argv in (["analyze"], ["synth", "--emit-prefix", "10"]):
        started = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _MEASURED_MAIN, *argv, "--arena",
             str(path), "--goal", "freq", "--freq", freq],
            capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.monotonic() - started
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        counts, total = [0, 0, 0], 0
        for loop in report["witness"]["loops"]:
            for _, color, _ in loop["edges"]:
                counts[color - 1] += loop["coeff"]
            total += loop["coeff"] * len(loop["edges"])
        assert tuple(Fraction(c, total) for c in counts) == rates
        assert total > 10 ** 50
        if argv[0] == "synth":
            assert len(report["prefix"]) == 10
        assert elapsed < 20
        assert int(child.stderr.split()[-1]) < 100 * 1024  # kB


def test_exponent_notation_frequency_is_refused_at_once(two_loops_file):
    # Fraction("1e-99999999") would build 10**99999999 before any check
    env = dict(os.environ, PYTHONPATH=str(
        Path(colorgames.__file__).resolve().parent.parent))
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-m", "colorgames.cli", "analyze", "--arena",
         two_loops_file, "--goal", "freq", "--freq", "1e-99999999,1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.monotonic() - started < 5
    assert child.returncode == 2
    report = json.loads(child.stdout)  # exactly one JSON document
    assert "exponent" in report["error"]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16])
def test_max_abs_diff_matches_per_edge_count(k):
    # zero-difference walks repeated after an access path, and random
    # color words
    rng = random.Random(90 + k)
    for _ in range(40):
        walk = [c for c in range(1, k + 1) for _ in range(rng.randint(1, 3))]
        rng.shuffle(walk)
        access = [rng.randint(1, k) for _ in range(rng.randint(0, 6))]
        colors = (access + walk * rng.randint(1, 40) if rng.random() < 0.7
                  else [rng.randint(1, k) for _ in range(rng.randint(0, 500))])
        edges = [Edge("u", c, "u") for c in colors]
        assert max_abs_diff(edges, k) == reference_max_abs_diff(edges, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16])
def test_verify_matches_per_entry_peak_reference(k, tmp_path, capsys):
    # random prefixes over one node's self-loops, uncolored steps mixed in
    arena_path = tmp_path / "loops.json"
    arena_path.write_text(json.dumps({
        "k": k, "nodes": [{"id": "u", "owner": 0}], "initial": "u",
        "edges": [{"src": "u", "color": c, "dst": "u"}
                  for c in [*range(1, k + 1), None]]}))
    prefix = tmp_path / "prefix.txt"
    rng = random.Random(40 + k)
    for _ in range(8):
        colors = [None if rng.random() < 0.2 else rng.randint(1, k)
                  for _ in range(rng.randint(1, 300))]
        prefix.write_text("".join(
            f"u {'null' if c is None else c} u\n" for c in colors))
        code, report = run_cli(capsys, "verify", "--arena", str(arena_path),
                               "--prefix", str(prefix))
        assert code == 0
        worst, peak = reference_verify_peaks(
            [Edge("u", c, "u") for c in colors], k)
        assert report["result"]["max_abs_diff"] == worst
        assert report["result"]["max_diff_matrix"] == peak
