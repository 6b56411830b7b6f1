"""colorgames benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload cnf-game --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root; the library is imported from ``src/``.
Set-up (imports, seeded input generation, warm-up on fixed inputs) is
repeated seven times and its median reported as ``setup_s``.  The timed
phase replays the generated pass of requests, one after another, until
``--seconds`` have elapsed; every result is checked by the benchmark's
own code after its request.  The last stdout line is the JSON result.

``--trace 1`` first runs the same workload and seed untraced in a child
process, then traces itself and reports per-layer self times, counts and
the tracing overhead.  Spans go to ``perfbench/out/``.

``--steady N`` runs N fresh processes on consecutive seeds plus one
repeat of the first seed, prints each metric's median and quartiles, and
fails if a deterministic count drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
LATENCY_LIMIT_MS = 1000.0
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

# counts that must repeat exactly for a seed, per pass
DETERMINISTIC = ("lp.solves", "games.strategies_explored",
                 "graphs.cache_lookups", "graphs.cache_hits",
                 "synth.stream_edges")


class BenchError(Exception):
    """The benchmark cannot run here: no library, or a child run failed."""


def load_library() -> SimpleNamespace:
    """Import colorgames afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules
                 if n == "colorgames" or n.startswith("colorgames.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("colorgames")
    except ImportError as exc:
        raise BenchError(f"cannot import colorgames from {SRC}: {exc}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"colorgames imported from {pkg.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(**{
        mod: importlib.import_module(f"colorgames.{mod}")
        for mod in ("arena", "games", "graphs", "lp", "reductions",
                    "synth")})


def setup(workload, name: str, seed: int):
    """Import, generate the pass from the seed, and warm up."""
    started = time.perf_counter()
    lib = load_library()
    requests = workload.generate(lib, random.Random(f"{name}:{seed}"))
    for req in workload.warmup(lib):
        out = workload.run(lib, req, {} if workload.uses_cache else None)
        if not workload.check(req, out):
            raise BenchError("warm-up request answered wrongly")
    return time.perf_counter() - started, lib, requests


def percentile_at(values: list[float], q: int) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(q / 100 * len(values)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above
    its nearest-rank value."""
    q = 99
    while q > 0 and n - math.ceil(q / 100 * n) < TAIL_BEYOND:
        q -= 1
    return q


def summary(outcome) -> tuple:
    """What a request answered, for the pass fingerprint."""
    result = outcome.result
    if hasattr(result, "winner"):
        return (result.winner, len(result.log))
    if outcome.profile is not None:
        return (result.exists, len(outcome.prefix),
                str(outcome.profile[-1][1]))
    return (result.exists,)


def measure(workload, lib, requests, seconds: float, tracer=None):
    """Replay whole passes until the time is up; at least two passes when
    tracing, so that per-pass counts can be compared."""
    run = workload.run
    if tracer is not None:
        run = tracer.span("bench.request", run)
    latencies: list[list[float]] = [[] for _ in requests]
    attempted = failed = wrong = 0
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline \
            or (tracer is not None and len(passes) < 2):
        cache = {} if workload.uses_cache else None
        before = dict(tracer.counts) if tracer is not None else {}
        digest = hashlib.sha256()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = len(passes) * len(requests) + i
            attempted += 1
            start = time.perf_counter()
            try:
                outcome = run(lib, req, cache)
            except Exception as exc:  # counted, reported, run continues
                failed += 1
                digest.update(f"{i}:error:{type(exc).__name__}".encode())
                print(f"request {i} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            latencies[i].append((time.perf_counter() - start) * 1000)
            try:
                right = workload.check(req, outcome)
            except Exception:  # a result the checks cannot read is wrong
                traceback.print_exc()
                right = False
            if not right:
                wrong += 1
                print(f"request {i} answered wrongly", file=sys.stderr)
            digest.update(f"{i}:{summary(outcome)}".encode())
            del outcome
        if cache is not None:
            digest.update(f"cache:{len(cache)}".encode())
        counts = {key: tracer.counts[key] - before.get(key, 0)
                  for key in tracer.counts} if tracer is not None else {}
        passes.append({"digest": digest.hexdigest()[:16], "counts": counts})
    return SimpleNamespace(latencies=latencies, attempted=attempted,
                           failed=failed, wrong=wrong, passes=passes)


def per_request_ms(m) -> list[float]:
    """Each request's median latency over the passes, sorted; the median
    keeps a passing slowdown of the machine out of the figures."""
    return sorted(statistics.median(v) for v in m.latencies if v)


def throughput(per_request: list[float]) -> float:
    """Requests per second of one closed-loop caller."""
    return len(per_request) * 1000 / sum(per_request)


def end_to_end(m, setup_s: float) -> tuple[dict, dict]:
    """A request that never succeeded counts as missing the latency
    limit."""
    per_request = per_request_ms(m)
    q = tail_percentile(len(per_request))
    within = sum(1 for v in per_request if v <= LATENCY_LIMIT_MS)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (throughput(per_request), "1/s"),
        "latency_p50_ms": (statistics.median(per_request), "ms"),
        "latency_tail_ms": (percentile_at(per_request, q), "ms"),
        "within_limit_ratio": (within / len(m.latencies), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    extra = {
        "latency_tail": f"p{q} of N={len(per_request)} per-request "
                        f"medians over {len(m.passes)} passes",
        "wrong_verdicts": m.wrong,
        "failed_ratio": m.failed / m.attempted,
    }
    return metrics, extra


def per_layer(tracer, m, untraced: dict) -> dict:
    """Self times in ms per request; counts per pass (the first)."""
    selfs = tracer.self_times()
    n = m.attempted
    counts = m.passes[0]["counts"]

    def ms(*names):
        return (sum(selfs.get(x, 0.0) for x in names) * 1000 / n, "ms")

    def ratio(num, den):
        return (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0,
                "ratio")

    def mean(key):
        return (counts.get(key, 0) / counts["lp.solves"]
                if counts.get("lp.solves") else 0.0, "count")

    traced_rps = throughput(per_request_ms(m))
    base_rps = untraced["requests_per_s"]["value"]
    return {
        "arena.load_calls": (counts.get("arena.load_calls", 0), "count"),
        "arena.load_ms": ms("arena.load"),
        "games.strategies_explored": (
            counts.get("games.strategies_explored", 0), "count"),
        "games.prune_ms": ms("games.prune"),
        "games.decide_winner_self_ms": ms("games.decide_winner"),
        "graphs.decide_calls": (counts.get("graphs.decide_calls", 0),
                                "count"),
        "graphs.cache_lookups": (counts.get("graphs.cache_lookups", 0),
                                 "count"),
        "graphs.cache_hit_ratio": ratio("graphs.cache_hits",
                                        "graphs.cache_lookups"),
        "graphs.canon_ms": ms("graphs.canon"),
        "graphs.limit_ms": ms("graphs.limit"),
        "graphs.bounded_ms": ms("graphs.bounded"),
        "graphs.build_system_ms": ms("graphs.build_system"),
        "graphs.integer_scale_ms": ms("graphs.integer_scale"),
        "graphs.decompose_ms": ms("graphs.decompose"),
        "graphs.euler_ms": ms("graphs.euler"),
        "lp.solves": (counts.get("lp.solves", 0), "count"),
        "lp.solve_ms": ms("lp.solve"),
        "lp.feasible_ratio": ratio("lp.feasible", "lp.solves"),
        "lp.vars_per_solve": mean("lp.vars"),
        "lp.rows_per_solve": mean("lp.rows"),
        "synth.schedule_ms": ms("synth.schedule"),
        "synth.stream_edges": (counts.get("synth.stream_edges", 0), "count"),
        "synth.stream_ms": ms("synth.stream"),
        "synth.convergence_ms": ms("synth.convergence"),
        "bench.glue_ms": ms("bench.request", "graphs.decide"),
        "trace.untraced_requests_per_s": (base_rps, "1/s"),
        "trace.traced_requests_per_s": (traced_rps, "1/s"),
        "trace.overhead_pct": (100 * (base_rps - traced_rps) / base_rps,
                               "%"),
    }


def run_child(args: list[str]) -> tuple[dict, dict]:
    """Run this script in a fresh process; return its report and result."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"child run {args} exited {proc.returncode}")
    return json.loads(lines[-2].removeprefix("report ")), \
        json.loads(lines[-1])


def single_run(args, workload) -> int:
    untraced = None
    if args.trace:
        untraced_report, untraced = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"])
    times, generated = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, lib, requests = setup(workload, args.workload, args.seed)
        times.append(elapsed)
        generated.append(requests)
    setup_s = statistics.median(times)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(lib)
    m = measure(workload, lib, requests, args.seconds, tracer)

    drift = [f"pass {i} answered or counted differently from pass 0"
             for i, p in enumerate(m.passes) if p != m.passes[0]]
    if any(g != generated[0] for g in generated):
        drift.append("inputs differ between set-ups of one seed")
    report = {"workload": args.workload, "seed": args.seed,
              "passes": len(m.passes), "requests_per_pass": len(requests),
              "fingerprint": m.passes[0]["digest"]}
    if tracer is None:
        metrics, extra = end_to_end(m, setup_s)
    else:
        tracer.uninstall()
        metrics = per_layer(tracer, m, untraced["metrics"])
        extra = {"counts": {k: m.passes[0]["counts"].get(k, 0)
                            for k in DETERMINISTIC}}
        if untraced_report["fingerprint"] != report["fingerprint"]:
            drift.append("untraced run answered differently")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    if args.workload == "synth-stream" and tracer is None:
        extra["stream_edges_per_s"] = (sum(r.length for r in requests)
                                       * metrics["requests_per_s"][0]
                                       / len(requests))
    report.update(extra)
    report["drift"] = drift
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": m.wrong == 0 and not drift
        and (untraced is None or untraced["correct"]),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def steady(args) -> int:
    """Repeat one workload in fresh processes on consecutive seeds, then
    rerun the first seed and require identical answers and counts."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bench = json.loads(spec.read_text())
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        report, result = run_child(
            ["--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        runs.append((report, result))
        values = " ".join(f"{name}={v['value']:.4g}"
                          for name, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"passes={report['passes']} {values}", flush=True)
    again, _ = run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    first = runs[0][0]
    keys = ("fingerprint", "counts")
    drifted = [k for k in keys if first.get(k) != again.get(k)]
    ok = not drifted and all(r["correct"] and not r["failed"]
                             for _, r in runs)
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  UNSTEADY"
        print(f"{name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"repeat of seed {args.seed}: "
          + ("identical" if not drifted else f"DRIFT in {drifted}"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat over N seeds in fresh processes")
    args = parser.parse_args(argv)
    if args.steady == 1:
        parser.error("--steady needs at least two runs for quartiles")
    try:
        if args.steady:
            return steady(args)
        return single_run(args, WORKLOADS[args.workload])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
