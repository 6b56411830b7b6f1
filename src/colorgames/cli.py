"""Command-line surface.

Every invocation writes exactly one JSON report to stdout and uses the
exit code as the machine-readable outcome: 0 for exists / player 0 /
pass, 1 for the negative outcome, 2 for errors.  An internal failure
is reported like any other error, marked ``"internal": true``.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from itertools import chain

from .arena import (ArenaError, ContractError, Edge, FinitePath,
                    FrequencyVector, Goal, ParseError, RawArena, load_arena,
                    load_raw_arena)
from .games import StrategyBudgetError, decide_winner, graph_decide
from .graphs import LoopSet
from .reductions import (DimacsError, cnf_to_raw_arena, parse_dimacs,
                         scheduler_arena)
from .synth import (bounded_witness_stream, build_schedule,
                    convergence_profile, max_abs_diff, shortest_path, stream)

SCHEMA = 1

# A synth report inlines at most this many prefix edges; a longer prefix
# goes to --prefix-out only, since encoding it as JSON costs time and
# memory linear in its length.
MAX_INLINE_PREFIX = 10_000

# A prefix is drawn, written and measured in blocks of at most this many
# edges, so that memory stays constant however long it is.
PREFIX_BLOCK = 1 << 13


class CliError(Exception):
    pass


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: str, error: type[Exception]) -> tuple[str, bytes]:
    """A file's text and bytes; bytes that are not UTF-8 raise ``error``,
    the user error of the file's format."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8"), data
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc}") from exc


def _load_arena_file(path: str, load=load_arena) -> tuple:
    text, data = _read_text(path, ParseError)
    return load(text), {"path": path, "sha256": _digest(data)}


def _goal_from_args(args) -> Goal:
    if args.goal == "balanced":
        if args.freq:
            raise CliError("--freq only applies to --goal freq")
        return Goal.balanced()
    if args.goal == "bounded":
        if args.freq:
            raise CliError("--freq only applies to --goal freq")
        return Goal.bounded()
    if not args.freq:
        raise CliError("--goal freq requires --freq")
    return Goal.frequency(FrequencyVector.parse(args.freq))


def _goal_dict(goal: Goal) -> dict:
    return {
        "kind": goal.kind,
        "freq": None if goal.freq is None else [str(v) for v in goal.freq],
    }


def _witness_dict(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, LoopSet):
        return {"type": "loops",
                "loops": [{"coeff": c,
                           "edges": [e.triple() for e in p.edges]}
                          for p, c in witness.loops]}
    if isinstance(witness, FinitePath):
        return {"type": "walk", "edges": [e.triple() for e in witness.edges]}
    return {"type": "strategy", "choices": witness.as_dict()}


def _emit(report: dict, started: float, code: int) -> int:
    report["schema"] = SCHEMA
    report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    # flushed here, so that a closed pipe surfaces inside main
    print(json.dumps(report, sort_keys=True, indent=2), flush=True)
    return code


def _cmd_analyze(args, started: float) -> int:
    arena, source = _load_arena_file(args.arena)
    goal = _goal_from_args(args)
    decision = graph_decide(arena, goal)
    report = {
        "command": "analyze",
        "input": source,
        "goal": _goal_dict(goal),
        "result": {"exists": decision.exists},
        "witness": _witness_dict(decision.witness),
    }
    return _emit(report, started, 0 if decision.exists else 1)


def _cmd_solve(args, started: float) -> int:
    arena, source = _load_arena_file(args.arena)
    goal = _goal_from_args(args)
    result = decide_winner(arena, goal, max_strategies=args.max_strategies)
    report = {
        "command": "solve",
        "input": source,
        "goal": _goal_dict(goal),
        "result": result.to_json_dict(),
        "witness": None if result.witness is None
        else _witness_dict(result.witness),
    }
    return _emit(report, started, 0 if result.winner == 0 else 1)


def _cmd_synth(args, started: float) -> int:
    n = args.emit_prefix
    if n < 1:
        raise CliError("--emit-prefix must be at least 1")
    if n > MAX_INLINE_PREFIX and not args.prefix_out:
        raise CliError(f"--emit-prefix above {MAX_INLINE_PREFIX} needs "
                       "--prefix-out")
    arena, source = _load_arena_file(args.arena)
    goal = _goal_from_args(args)
    rates = goal.rates(arena.k)
    decision = graph_decide(arena, goal)
    report = {
        "command": "synth",
        "input": source,
        "goal": _goal_dict(goal),
        "result": {"exists": decision.exists},
    }
    if not decision.exists:
        report["witness"] = None
        return _emit(report, started, 1)

    report["witness"] = _witness_dict(decision.witness)
    if rates is None:
        walk = decision.witness
        access = shortest_path(arena, arena.initial, walk.start)
        path_stream = bounded_witness_stream(walk, access, arena.k)
        report["stream"] = {
            "kind": "periodic",
            "access": [e.triple() for e in access],
            "bound": path_stream.bound,
        }

        def measure(edges) -> dict:
            return {"max_abs_diff": max_abs_diff(edges, arena.k)}
    else:
        schedule = build_schedule(decision.witness, arena)
        path_stream = stream(schedule)
        report["stream"] = {"kind": "schedule",
                            "schedule": schedule.to_json_dict()}
        # one mark per block keeps each counted segment one block long
        marks = [*range(PREFIX_BLOCK, n, PREFIX_BLOCK), n]

        def measure(edges) -> dict:
            profile = convergence_profile(edges, marks, rates)
            return {"deviation": str(profile[-1][1])}

    if n <= MAX_INLINE_PREFIX:
        prefix = path_stream.take(n)
        report["prefix"] = [e.triple() for e in prefix]
        blocks = [prefix]
    else:
        blocks = _prefix_blocks(path_stream, n)
    if args.prefix_out:
        try:
            fh = open(args.prefix_out, "w", encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {args.prefix_out}: {exc}") from exc
        with fh:
            measured = measure(chain.from_iterable(_written(blocks, fh)))
        report["prefix_out"] = {"path": args.prefix_out, "length": n}
    else:
        measured = measure(chain.from_iterable(blocks))
    report["convergence"] = {"prefix_length": n, **measured}
    ok = rates is not None or measured["max_abs_diff"] <= path_stream.bound
    return _emit(report, started, 0 if ok else 2)


def _prefix_blocks(path_stream, n: int):
    """The first n edges of a stream, one block at a time."""
    while n > 0:
        block = path_stream.take(min(n, PREFIX_BLOCK))
        n -= len(block)
        yield block


def _written(blocks, fh):
    """Pass blocks through, writing each as 'src color dst' lines first."""
    for block in blocks:
        fh.write("".join([f"{e.src} {e.color} {e.dst}\n" for e in block]))
        yield block


def _cmd_gen(args, started: float) -> int:
    if args.generator == "scheduler":
        raw = scheduler_arena()
        source = {}
    else:
        text, data = _read_text(args.dimacs, DimacsError)
        formula = parse_dimacs(text)
        raw = cnf_to_raw_arena(formula)
        source = {"path": args.dimacs, "sha256": _digest(data)}
    report = raw.to_json_dict()
    # generators emit the arena itself as the single JSON document
    print(json.dumps(report, sort_keys=True, indent=1), flush=True)
    if source:
        print(f"generated from {source['path']}", file=sys.stderr)
    return 0


def _parse_prefix_file(path: str, arena: RawArena) -> list[Edge]:
    """Read 'src color dst' lines and check they form a walk from the
    initial node; 'null' marks an uncolored edge of a raw arena."""
    data, _ = _read_text(path, CliError)
    known = {(e.src, e.color, e.dst) for e in arena.edges}
    edges: list[Edge] = []
    for lineno, raw in enumerate(data.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CliError(f"{path}:{lineno}: expected 'src color dst'")
        src, color_text, dst = parts
        if color_text == "null":
            color = None
        else:
            try:
                color = int(color_text)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: bad color "
                               f"{color_text!r}") from exc
        if (src, color, dst) not in known:
            raise CliError(f"{path}:{lineno}: edge {src} {color_text} {dst} "
                           "is not in the arena")
        edges.append(Edge(src, color, dst))
    if not edges:
        raise CliError(f"{path}: empty prefix")
    if edges[0].src != arena.initial:
        raise CliError("prefix does not start at the initial node")
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            raise CliError(f"prefix breaks adjacency at {a.dst} -> {b.src}")
    return edges


def _cmd_verify(args, started: float) -> int:
    # walks are checked against the arena file as written, so simulation
    # plays over uncolored edges verify directly; uncolored steps do not
    # count toward any color
    arena, source = _load_arena_file(args.arena, load_raw_arena)
    goal = _goal_from_args(args) if args.goal else None
    if goal is not None:
        goal.rates(arena.k)  # checks the frequency vector's arity
    edges = _parse_prefix_file(args.prefix, arena)
    k = arena.k
    counts = [0] * k
    peak = [[0] * k for _ in range(k)]
    colored_steps = 0
    for e in edges:
        if e.color is None:
            continue
        colored_steps += 1
        c = e.color - 1
        counts[c] += 1
        # only differences counts[c] - counts[b] rose, all in row c
        here = counts[c]
        peak[c] = [p if p >= here - v else here - v
                   for p, v in zip(peak[c], counts)]
    # the largest spread over all prefixes is the largest peak difference
    worst = max(map(max, peak))
    result = {
        "length": len(edges),
        "colored_steps": colored_steps,
        "max_abs_diff": worst,
        "max_diff_matrix": peak,
        "frequencies": None if colored_steps == 0 else
        [str(Fraction(c, colored_steps)) for c in counts],
    }
    if goal is not None and goal.kind == "frequency" and colored_steps:
        freqs = [Fraction(c, colored_steps) for c in counts]
        result["freq_deviation"] = str(
            max(abs(f - t) for f, t in zip(freqs, goal.freq)))
    passed = True
    if args.bound is not None:
        passed = worst <= args.bound
        result["bound"] = args.bound
        result["pass"] = passed
    report = {
        "command": "verify",
        "input": source,
        "prefix": {"path": args.prefix},
        "goal": None if goal is None else _goal_dict(goal),
        "result": result,
    }
    return _emit(report, started, 0 if passed else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorgames",
        description="Balanced, bounded-difference and fixed-frequency "
                    "paths in colored graphs and games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_goal(p, required=True):
        p.add_argument("--goal", choices=["balanced", "bounded", "freq"],
                       required=required)
        p.add_argument("--freq", metavar="F1,F2,...",
                       help="exact rationals like 2/3,1/3 (freq goal only)")

    p = sub.add_parser("analyze", help="decide the one-player (graph) "
                                       "problem")
    p.add_argument("--arena", required=True)
    add_goal(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("solve", help="decide the two-player game")
    p.add_argument("--arena", required=True)
    add_goal(p)
    p.add_argument("--max-strategies", type=int, default=1 << 20)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("synth", help="emit a witness schedule and prefix")
    p.add_argument("--arena", required=True)
    add_goal(p)
    p.add_argument("--emit-prefix", type=int, default=1000, metavar="N",
                   help=f"prefix length; inlined in the report up to "
                        f"{MAX_INLINE_PREFIX} edges")
    p.add_argument("--prefix-out", metavar="FILE",
                   help="also write the prefix as 'src color dst' lines "
                        f"(required above {MAX_INLINE_PREFIX} edges)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("gen", help="generate fixture arenas")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("cnf", help="validity game for a DIMACS CNF file")
    g.add_argument("--dimacs", required=True)
    gsub.add_parser("scheduler", help="two-job scheduling arena")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="check a path prefix against an arena")
    p.add_argument("--arena", required=True)
    p.add_argument("--prefix", required=True)
    add_goal(p, required=False)
    p.add_argument("--bound", type=int)
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, started)
    except BrokenPipeError:
        # The reader of stdout went away (`colorgames ... | head`): write
        # nothing more there, and point the descriptor at /dev/null so
        # that the flush at interpreter shutdown cannot raise again.
        _detach_stdout()
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return 2


def _run(args, started: float) -> int:
    try:
        return args.handler(args, started)
    except (ArenaError, ContractError, CliError, DimacsError,
            StrategyBudgetError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)},
                         sort_keys=True), flush=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        # A failed internal check or any other bug is still an error
        # (exit 2), never a negative answer (exit 1).
        print(json.dumps({"schema": SCHEMA, "internal": True,
                          "error": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True), flush=True)
        traceback.print_exc(file=sys.stderr)
        return 2


def _detach_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind stdout, so nothing to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
