"""Benchmark of the vassgames library: closed-loop rounds of seeded operations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` without installing it.  One process runs one operation at a time
(closed loop, one client, no threads).  A round runs every operation of the
run's pool once, in a seeded order, and rounds repeat until ``--seconds``
have passed, so every run attempts whole rounds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer numbers of the traced rounds,
per round.  Outputs are checked after the timed rounds (see ``check.py``);
a failed check makes the run fail.  Details go to standard error and to
``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from typing import Any, Dict, List

import check
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MODULES = ("core", "semantics", "parity", "bounded", "_simplex", "energy", "solver", "applications", "formats")
SETUP_REPEATS = 15

# op_tail_ms: the highest whole percentile that leaves at least ten of a
# round's operations above it
TAIL = {"frontier-1c": 77, "frontier-2c": 77, "oracle": 95, "mucalc-weaksim": 95}


def load_library() -> types.SimpleNamespace:
    """Import the library afresh from ``src/`` (dropping any loaded copy)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vassgames", "__init__.py")):
        raise ImportError("no vassgames package under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "vassgames" or m.startswith("vassgames.")]:
        del sys.modules[name]
    vg = types.SimpleNamespace(package=importlib.import_module("vassgames"))
    if not os.path.abspath(vg.package.__file__).startswith(src + os.sep):
        raise ImportError("imported vassgames from %s, not from %s" % (vg.package.__file__, src))
    for name in MODULES:
        setattr(vg, name.lstrip("_"), importlib.import_module("vassgames." + name))
    return vg


def setup(instances: List[workloads.Instance]):
    """Import the library and parse every input, SETUP_REPEATS times; the
    median is setup_s and the last repetition is the one that runs."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        vg = load_library()
        prepared = [workloads.prepare(vg, inst) for inst in instances]
        times.append(time.perf_counter() - t0)
    return vg, prepared, times


def one_round(pool, latencies: List[float], results: List[Any], failures: List[str], tracer=None) -> float:
    """Run every operation of the pool once; returns the round's wall time."""
    clock = time.perf_counter
    t_round = clock()
    for i, (_, _, run) in enumerate(pool):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            res = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            res = None
            failures.append("%s: %s" % (type(exc).__name__, exc))
        latencies.append(clock() - t0)
        results.append(res)
    return clock() - t_round


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


class Measurement:
    """The timed rounds of one run and what they produced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # untraced runs: round-major
        self.results: List[Any] = []  # every round, round-major
        self.failures: List[str] = []
        self.round_walls: List[float] = []  # untraced rounds
        self.traced_walls: List[float] = []
        self.per_round: List[Dict[str, float]] = []  # per-layer metrics of traced rounds
        self.spans: List[Any] = []  # of the first traced round
        self.sites: List[str] = []
        self.errors: List[str] = []


def measure(pool, vg, seconds: float, traced: bool) -> Measurement:
    """Whole rounds until ``seconds`` have passed.  A traced run alternates
    untraced and traced rounds as P T T P ..., so that the first, cold round
    does not fall on one side only."""
    m = Measurement()
    tracer = tracing.Tracer(keep_spans=True)
    t_start = time.perf_counter()
    while True:
        if not traced:
            m.round_walls.append(one_round(pool, m.latencies, m.results, m.failures))
        else:
            for on in ((False, True) if len(m.round_walls) % 2 == 0 else (True, False)):
                if not on:
                    m.round_walls.append(one_round(pool, [], m.results, m.failures))
                    continue
                m.sites = tracer.install(vg.package)
                tracer.reset()
                try:
                    m.traced_walls.append(one_round(pool, [], m.results, m.failures, tracer))
                finally:
                    tracer.uninstall()
                m.per_round.append(tracer.metrics())
                if tracer.self_time_sum() > m.traced_walls[-1]:
                    m.errors.append("self times of the traced spans exceed the traced wall time")
                if not m.spans:
                    m.spans = tracer.spans
                tracer.keep_spans = False
        if time.perf_counter() - t_start >= seconds:
            return m


def check_results(pool, prepared, m: Measurement) -> check.Tally:
    """Every round must give the same results, and the first round's are
    checked with the benchmark's own checks."""
    n = len(pool)
    tally = check.Tally()
    tally.errors.extend(m.errors)
    normal = [workloads.normalise(prepared[i].inst, prepared[i].inst.ops[j], r) if r is not None else None
              for (i, j, _), r in zip(pool * (len(m.results) // n), m.results)]
    for k in range(n, len(normal)):
        if normal[k] != normal[k % n]:
            tally.errors.append("operation %d gave different results in different rounds" % (k % n))
    by_instance: Dict[int, List[Any]] = {}
    for (i, j, _), r in zip(pool, normal[:n]):
        by_instance.setdefault(i, [None] * len(prepared[i].inst.ops))[j] = r
    for i, res in sorted(by_instance.items()):
        if all(r is not None for r in res):
            workloads.check_instance(tally, prepared[i].inst, res)
    return tally


def end_to_end(workload: str, n: int, setup_times: List[float], m: Measurement, peak_rss_mb: float):
    # each operation's latency is its median over the rounds, which keeps a
    # burst of machine noise in one round out of the figures
    lat = sorted(statistics.median(m.latencies[k::n]) for k in range(n))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / statistics.median(m.round_walls), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "op_tail_ms": (percentile(lat, TAIL[workload]) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(m: Measurement):
    """Means per traced round, and the tracing overhead per round."""
    out = {}
    for name in m.per_round[0]:
        last = name.rsplit(".", 1)[1]
        unit = "s" if last in ("s", "self_s") else "ratio" if last.endswith("_ratio") else "count"
        out[name] = (statistics.fmean(r[name] for r in m.per_round), unit)
    out["trace.overhead_s"] = (statistics.fmean(m.traced_walls) - statistics.fmean(m.round_walls), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    instances = workloads.pick(args.workload, args.seed, workloads.load_catalogue())
    try:
        vg, prepared, setup_times = setup(instances)
    except ImportError as exc:
        print("cannot import the library: %s" % exc, file=sys.stderr)
        return 2
    pool = [(i, j, workloads.runner(vg, p, op)) for i, p in enumerate(prepared) for j, op in enumerate(p.inst.ops)]
    random.Random("order:%d" % args.seed).shuffle(pool)

    m = measure(pool, vg, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = check_results(pool, prepared, m)

    if args.trace:
        metrics = per_layer(m)
    else:
        metrics = end_to_end(args.workload, len(pool), setup_times, m, peak_rss_mb)
    report = {
        "correct": not tally.errors,
        "attempted": len(m.results),
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_round": len(pool), "instances": ["%s:%d" % (p.inst.family, p.inst.seed) for p in prepared],
        "setup_s": setup_times, "round_s": m.round_walls, "traced_round_s": m.traced_walls,
        "tail_percentile": TAIL[args.workload], "checks_confirmed": tally.confirmed,
        "checks_undecided": tally.undecided, "check_errors": tally.errors[:20], "failures": m.failures[:20],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".result.json", "w") as fh:
        json.dump(dict(detail, **report), fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"sites": m.sites, "fields": ["name", "id", "parent", "op", "start", "end"],
                       "spans": m.spans}, fh)
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
