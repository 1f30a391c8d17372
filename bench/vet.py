"""Vet instance seeds and write ``catalogue.json``.

Tries instance seeds 0, 1, ... of each family until ``share`` are kept.
Each instance runs every operation once, untraced, in three presentations
(run seeds 0, 1 and 2), with a wall-clock limit per presentation, and its
outputs are checked.  An instance is kept when every operation succeeds
within the limit without the abstract solver's bounded fallback; its
slowest presentation's time is recorded.  The others are listed with the
reason.  A failed check is reported and stops the vetting: it points at the
program or the checker, and leaving such an instance out would hide it.

    python3 bench/vet.py [FAMILY ...]

Families not named keep their current catalogue entry.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

import check
import tracer
import workloads
from run import load_library


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


PRESENTATIONS = (0, 1, 2)  # run seeds each instance is vetted with


def vet_family(vg, fam: workloads.Family):
    """Try instance seeds 0, 1, ... until ``fam.share`` are kept."""
    included, excluded = [], []
    seed = 0
    while len(included) < fam.share:
        why, cost = None, 0.0
        for run_seed in PRESENTATIONS:
            why, dt = vet_instance(vg, fam.make(seed, run_seed), fam.limit_s)
            if why:
                break
            cost = max(cost, dt)
        if why:
            excluded.append([seed, why])
        else:
            included.append([seed, round(cost, 4)])
        print("%s %d: %s" % (fam.name, seed, why or "%.3f s" % cost), file=sys.stderr, flush=True)
        seed += 1
    return {"limit_s": fam.limit_s, "included": included, "excluded": excluded}


def vet_instance(vg, inst: workloads.Instance, limit: float):
    """(reason to leave the instance out or None, seconds taken)."""
    p = workloads.prepare(vg, inst)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        raw = [workloads.runner(vg, p, op)() for op in inst.ops]
    except Timeout:
        return "over %g s" % limit, limit
    except Exception as exc:  # a failing operation is what vetting looks for
        return "%s: %s" % (type(exc).__name__, str(exc)[:120]), 0.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    if inst.ops[0][0] != "oracle":
        # the abstract solver falls back to the bounded oracle when the
        # Player-1 strategy product exceeds its budget
        tr = tracer.Tracer()
        tr.install(vg.package)
        try:
            for op in inst.ops:
                workloads.runner(vg, p, op)()
        finally:
            tr.uninstall()
        if tr.stats["bounded.bracket_decide"].calls:
            return "strategy budget exceeded, bounded fallback ran", dt
    tally = check.Tally()
    workloads.check_instance(tally, inst, [workloads.normalise(inst, op, r) for op, r in zip(inst.ops, raw)])
    if tally.errors:
        sys.exit("check failed on %s %d: %s" % (inst.family, inst.seed, tally.errors[:3]))
    return None, dt


def main() -> int:
    ap = argparse.ArgumentParser(description="Vet instance seeds and write catalogue.json.")
    ap.add_argument("families", nargs="*", help="families to vet again (default: all)")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    vg = load_library()
    cat = workloads.load_catalogue() if os.path.exists(workloads.CATALOGUE) else {}
    for name in args.families or list(workloads.FAMILIES):
        cat[name] = vet_family(vg, workloads.FAMILIES[name])
        e = cat[name]
        print("%s: %d kept, %d left out" % (name, len(e["included"]), len(e["excluded"])), file=sys.stderr)
    with open(workloads.CATALOGUE, "w") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
