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

from .arena import (ArenaError, ColoredArena, ContractError, Edge,
                    FinitePath, FrequencyVector, Goal, RawArena,
                    load_arena, load_raw_arena)
from .games import StrategyBudgetError, decide_winner, graph_decide
from .graphs import (LimitMatrix, LoopSet, frequency_to_limit,
                     strongly_connected_components)
from .reductions import (DimacsError, cnf_to_raw_arena, parse_dimacs,
                         scheduler_arena)
from .synth import (bounded_witness_stream, build_schedule,
                    measure_convergence, stream)

SCHEMA = 1

# A synth report inlines at most this many prefix edges; a longer prefix
# goes to --prefix-out only, since encoding it as JSON costs time and
# memory linear in its length.
MAX_INLINE_PREFIX = 10_000


class CliError(Exception):
    pass


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_arena_file(path: str) -> tuple[ColoredArena, dict]:
    data = _read_file(path)
    arena = load_arena(data.decode("utf-8"))
    return arena, {"path": path, "sha256": _digest(data)}


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


def _check_arity(goal: Goal, arena: ColoredArena) -> None:
    if goal.kind == "frequency" and len(goal.freq) != arena.k:
        raise CliError(f"frequency vector has arity {len(goal.freq)}, "
                       f"arena has {arena.k} colors")


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
    _check_arity(goal, arena)
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
    _check_arity(goal, arena)
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


def _access_path(arena: ColoredArena, target: str) -> tuple[Edge, ...]:
    """Shortest edge path from the initial node to the target."""
    if target == arena.initial:
        return ()
    parent: dict[str, Edge] = {}
    seen = {arena.initial}
    frontier = [arena.initial]
    while frontier:
        nxt = []
        for u in frontier:
            for eid in arena.out_edge_ids(u):
                e = arena.edges[eid]
                if e.dst not in seen:
                    seen.add(e.dst)
                    parent[e.dst] = e
                    nxt.append(e.dst)
        if target in parent:
            path = []
            node = target
            while node != arena.initial:
                path.append(parent[node])
                node = parent[node].src
            path.reverse()
            return tuple(path)
        frontier = nxt
    raise CliError(f"witness start {target!r} is unreachable")


def _cmd_synth(args, started: float) -> int:
    n = args.emit_prefix
    if n < 1:
        raise CliError("--emit-prefix must be at least 1")
    if n > MAX_INLINE_PREFIX and not args.prefix_out:
        raise CliError(f"--emit-prefix above {MAX_INLINE_PREFIX} needs "
                       "--prefix-out")
    arena, source = _load_arena_file(args.arena)
    goal = _goal_from_args(args)
    _check_arity(goal, arena)
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

    if goal.kind == "bounded":
        walk = decision.witness
        access = _access_path(arena, walk.start)
        path_stream = bounded_witness_stream(walk, access, arena.k)
        prefix = path_stream.take(n)
        report["witness"] = _witness_dict(walk)
        report["stream"] = {
            "kind": "periodic",
            "access": [e.triple() for e in access],
            "bound": path_stream.bound,
        }
        seen_max = _max_abs_diff(prefix, arena.k)
        report["convergence"] = {"prefix_length": n,
                                 "max_abs_diff": seen_max}
        ok = seen_max <= path_stream.bound
    else:
        limit = (LimitMatrix.zero(arena.k) if goal.kind == "balanced"
                 else frequency_to_limit(goal.freq))
        schedule = build_schedule(decision.witness, arena)
        prefix = stream(schedule).take(n)
        deviation = measure_convergence(prefix, n, limit)
        report["witness"] = _witness_dict(decision.witness)
        report["stream"] = {"kind": "schedule",
                            "schedule": schedule.to_json_dict()}
        report["convergence"] = {"prefix_length": n,
                                 "deviation": str(deviation)}
        ok = True
    if n <= MAX_INLINE_PREFIX:
        report["prefix"] = [e.triple() for e in prefix]
    if args.prefix_out:
        with open(args.prefix_out, "w", encoding="utf-8") as fh:
            for e in prefix:
                fh.write(f"{e.src} {e.color} {e.dst}\n")
        report["prefix_out"] = {"path": args.prefix_out, "length": n}
    return _emit(report, started, 0 if ok else 2)


def _max_abs_diff(edges, k: int) -> int:
    counts = [0] * k
    worst = 0
    for e in edges:
        counts[e.color - 1] += 1
        spread = max(counts) - min(counts)
        if spread > worst:
            worst = spread
    return worst


def _cmd_gen(args, started: float) -> int:
    if args.generator == "scheduler":
        raw = scheduler_arena()
        source = {}
    else:
        data = _read_file(args.dimacs)
        formula = parse_dimacs(data.decode("utf-8"))
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
    data = _read_file(path).decode("utf-8")
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
    data = _read_file(args.arena)
    arena = load_raw_arena(data.decode("utf-8"))
    source = {"path": args.arena, "sha256": _digest(data)}
    goal = _goal_from_args(args) if args.goal else None
    if goal is not None and goal.kind == "frequency" \
            and len(goal.freq) != arena.k:
        raise CliError(f"frequency vector has arity {len(goal.freq)}, "
                       f"arena has {arena.k} colors")
    edges = _parse_prefix_file(args.prefix, arena)
    k = arena.k
    counts = [0] * k
    peak = [[0] * k for _ in range(k)]
    worst = 0
    colored_steps = 0
    for e in edges:
        if e.color is None:
            continue
        colored_steps += 1
        counts[e.color - 1] += 1
        for a in range(k):
            for b in range(k):
                d = counts[a] - counts[b]
                if d > peak[a][b]:
                    peak[a][b] = d
        spread = max(counts) - min(counts)
        if spread > worst:
            worst = spread
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
