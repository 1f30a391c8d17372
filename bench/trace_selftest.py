"""Self-test of the per-layer tracing.

Runs one small operation per workload with the tracer installed and checks
that every wrapped function fired where that workload is expected to reach
it and read 0 where the layer is expected to be bypassed, that the self
times add up to at most the traced wall time, and that the bounded oracle
solved at least one capped grid per bracket decision.  A refactor that
moves or renames a wrapped function makes this fail instead of letting the
benchmark report silent zeros.

    python3 bench/trace_selftest.py
"""
from __future__ import annotations

import sys
import time

import tracer as tracing
import workloads
from run import load_library

ALL = ("solver.build_out_game", "solver.vj_minimize", "energy.solve_abstract_energy_parity",
       "simplex.feasible", "parity.solve_parity", "bounded.solve_capped", "bounded.bracket_decide",
       "applications.weaksim_game", "applications.mucalc_game", "applications.restrict_reachable",
       "core.leq", "semantics.vass_step")
SOLVER = {"solver.build_out_game", "solver.vj_minimize", "energy.solve_abstract_energy_parity",
          "parity.solve_parity", "core.leq", "semantics.vass_step"}

# workload -> (family, operation kind, functions expected to fire; all others must read 0)
CASES = {
    "frontier-1c": ("ladder1", "pareto", SOLVER),
    "frontier-2c": ("ladder2", "pareto", SOLVER | {"simplex.feasible"}),
    "oracle": ("oladder", "oracle", {"bounded.bracket_decide", "bounded.solve_capped", "parity.solve_parity"}),
    "mucalc-weaksim": ("mucalc", "mc-global", SOLVER | {"applications.mucalc_game",
                                                         "applications.restrict_reachable"}),
}

# call sites that callers look up by name; each needs its own wrapper
SITES = (
    "vassgames.solver.build_out_game", "vassgames.solver.vj_minimize",
    "vassgames.energy.solve_abstract_energy_parity", "vassgames.solver.solve_abstract_energy_parity",
    "vassgames._simplex.feasible", "vassgames.parity.solve_parity", "vassgames.energy.solve_parity",
    "vassgames.bounded.solve_parity", "vassgames.bounded.solve_capped", "vassgames.bounded.bracket_decide",
    "vassgames.applications.weaksim_game", "vassgames.applications.mucalc_game",
    "vassgames.applications.restrict_reachable", "vassgames.core.leq", "vassgames.solver.leq",
    "vassgames.semantics.vass_step", "vassgames.solver.vass_step",
)


def main() -> int:
    vg = load_library()
    catalogue = workloads.load_catalogue()
    problems = []
    for workload, (family, kind, expected) in CASES.items():
        seed = min(catalogue[family]["included"], key=lambda e: e[1])[0]  # the cheapest instance
        inst = workloads.FAMILIES[family].make(seed, 0)
        prepared = workloads.prepare(vg, inst)
        op = next(op for op in inst.ops if op[0] == kind)
        run = workloads.runner(vg, prepared, op)
        tr = tracing.Tracer()
        sites = tr.install(vg.package)
        try:
            t0 = time.perf_counter()
            run()
            wall = time.perf_counter() - t0
        finally:
            tr.uninstall()
        missing = [s for s in SITES if s not in sites]
        if missing:
            problems.append("%s: not wrapped: %s" % (workload, ", ".join(missing)))
        for name in ALL:
            calls = tr.stats[name].calls
            if (calls > 0) != (name in expected):
                problems.append("%s (%s %d): %s has %d calls, expected %s" % (
                    workload, family, seed, name, calls, "some" if name in expected else "none"))
        if tr.self_time_sum() > wall:
            problems.append("%s: self times %.6f s exceed the traced wall time %.6f s"
                            % (workload, tr.self_time_sum(), wall))
        m = tr.metrics()
        if m["bounded.solve_capped.calls"] < m["bounded.bracket_decide.calls"]:
            problems.append("%s: fewer capped solves than bracket decisions" % workload)
        print("%s: %s %d %s traced, %d call sites" % (workload, family, seed, kind, len(sites)))
    if any(hasattr(getattr(getattr(vg, m.lstrip("_")), f), "__wrapped__") for m, f, _ in tracing.TARGETS):
        problems.append("uninstall left wrappers in the library")
    for p in problems:
        print("FAIL", p)
    print("trace self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
