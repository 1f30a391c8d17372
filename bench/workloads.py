"""The benchmark's workloads: instance families, the operations run on them
and the checks of their outputs.

An *instance* is one generated input (a game, plus an LTS or a formula
where the family needs one) with the operations run on it.  Its structure
comes from an instance seed.  ``catalogue.json`` lists, per family, the
instance seeds the benchmark uses (the first ``share`` seeds that ``vet.py``
kept) and the ones it left out, with the reason.  A run's ``--seed`` renames
every instance's states and orders the round's operations, so each seed
gives different inputs that cost the program the same work.
"""
from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "catalogue.json")

Op = Tuple[Any, ...]


@dataclass
class Instance:
    family: str
    seed: int
    game: gen.GameSpec
    ops: List[Op]
    semantics: str = "vass"
    lts: Optional[str] = None
    formula: Optional[str] = None


@dataclass
class Family:
    name: str
    make: Callable[[int, int], Instance]  # (instance seed, run seed) -> instance
    share: int  # instances per run
    limit_s: float  # vetting leaves out instances slower than this


def _rngs(family: str, seed: int, run_seed: int) -> Tuple[random.Random, random.Random]:
    """The instance's structure and probes come from the first generator,
    its state names from the second."""
    return random.Random("%s:%d" % (family, seed)), random.Random("%s:%d:%d" % (family, seed, run_seed))


def _probes(rng: random.Random, spec: gen.GameSpec, n: int,
            bands: List[Tuple[int, int]]) -> List[Tuple[str, Tuple[int, ...]]]:
    """n distinct probes, one value band per probe in turn."""
    states = [l.split()[1] for l in spec.text.splitlines() if l.startswith("state ")]
    out: List[Tuple[str, Tuple[int, ...]]] = []
    while len(out) < n:
        lo, hi = bands[len(out) % len(bands)]
        p = (rng.choice(states), tuple(rng.randint(lo, hi) for _ in spec.counters))
        if p not in out:
            out.append(p)
    return out


# -- frontier-1c ------------------------------------------------------------

def rand1(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("rand1", seed, run_seed)
    text = gen.random_game(rng, rng.randint(16, 28), 1, p1_branching=8)
    spec, _ = gen.rename(gen.GameSpec("rand1-%d" % seed, text, ("c1",)), pres)
    return Instance("rand1", seed, spec, [("pareto",)])


def ladder1(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("ladder1", seed, run_seed)
    spec, _ = gen.rename(gen.ladder_game(rng, 1, 2, 2, 12, "ladder1-%d" % seed), pres)
    return Instance("ladder1", seed, spec, [("pareto",)])


# -- frontier-2c ------------------------------------------------------------

def energy2(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("energy2", seed, run_seed)
    text = gen.random_game(rng, rng.randint(4, 6), 2, single_sided=False, p1_branching=3)
    spec, _ = gen.rename(gen.GameSpec("energy2-%d" % seed, text, ("c1", "c2")), pres)
    return Instance("energy2", seed, spec, [("pareto-energy",)], semantics="energy")


def ladder2(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("ladder2", seed, run_seed)
    spec, _ = gen.rename(gen.ladder_game(rng, 2, 2, 2, 3, "ladder2-%d" % seed), pres)
    return Instance("ladder2", seed, spec, [("pareto",)])


# -- oracle -----------------------------------------------------------------

def _oracle(family: str, seed: int, run_seed: int, k: int, n: Tuple[int, int], single_sided: bool,
            semantics: str, cap: int, top: int) -> Instance:
    rng, pres = _rngs(family, seed, run_seed)
    text = gen.random_game(rng, rng.randint(*n), k, single_sided=single_sided, p1_branching=3)
    spec, _ = gen.rename(gen.GameSpec("%s-%d" % (family, seed), text, gen.counter_names(k)), pres)
    bands = [(0, top // 3), (top // 3 + 1, 2 * top // 3), (2 * top // 3 + 1, top)]
    ops = [("oracle", semantics, q, v, cap) for q, v in _probes(rng, spec, 6, bands)]
    return Instance(family, seed, spec, ops, semantics=semantics)


def ovass1(seed: int, run_seed: int) -> Instance:
    return _oracle("ovass1", seed, run_seed, 1, (4, 8), True, "vass", 64, 6)


def oenergy1(seed: int, run_seed: int) -> Instance:
    return _oracle("oenergy1", seed, run_seed, 1, (4, 8), False, "energy", 64, 6)


def oenergy2(seed: int, run_seed: int) -> Instance:
    return _oracle("oenergy2", seed, run_seed, 2, (3, 5), False, "energy", 16, 3)


def oladder(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("oladder", seed, run_seed)
    semantics = rng.choice(["vass", "energy"])
    spec, names = gen.rename(gen.ladder_game(rng, 1, 2, 2, 8, "oladder-%d" % seed), pres)
    x = spec.ladder[names["L"]][0][0]
    probes = [x - 1, x, x + 1, rng.choice([v for v in range(10) if abs(v - x) > 1])]
    ops = [("oracle", semantics, names["L"], (v,), 32) for v in probes]
    return Instance("oladder", seed, spec, ops, semantics=semantics)


# -- mucalc-weaksim ---------------------------------------------------------

def weaksim(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("weaksim", seed, run_seed)
    text = gen.random_game(rng, rng.randint(5, 9), 1, p1_branching=3, labels=["a", "b", "tau"])
    lts = gen.random_lts(rng, rng.randint(2, 4), ["a", "b", "tau"])
    spec, _ = gen.rename(gen.GameSpec("weaksim-%d" % seed, text, ("c1",)), pres)
    ops = [("weaksim", q, v) for q, v in _probes(rng, spec, 3, [(0, 3)])]
    return Instance("weaksim", seed, spec, ops, lts=lts)


def mucalc(seed: int, run_seed: int) -> Instance:
    rng, pres = _rngs("mucalc", seed, run_seed)
    text = gen.random_game(rng, rng.randint(5, 9), 1, p1_branching=3)
    states = [l.split()[1] for l in text.splitlines() if l.startswith("state ")]
    formula = gen.random_formula(rng, states, 4)
    spec, names = gen.rename(gen.GameSpec("mucalc-%d" % seed, text, ("c1",)), pres)
    formula = re.sub(r"[A-Za-z_][A-Za-z_0-9]*", lambda m: names.get(m.group(0), m.group(0)), formula)
    ops: List[Op] = [("mc", q, v) for q, v in _probes(rng, spec, 3, [(0, 3)])]
    ops.append(("mc-global",))
    return Instance("mucalc", seed, spec, ops, formula=formula)


WORKLOADS: Dict[str, List[Family]] = {
    "frontier-1c": [Family("rand1", rand1, 40, 0.8), Family("ladder1", ladder1, 4, 0.8)],
    "frontier-2c": [Family("energy2", energy2, 40, 0.8), Family("ladder2", ladder2, 5, 0.8)],
    "oracle": [Family("ovass1", ovass1, 12, 1.0), Family("oenergy1", oenergy1, 12, 1.0),
               Family("oenergy2", oenergy2, 12, 1.0), Family("oladder", oladder, 8, 1.0)],
    "mucalc-weaksim": [Family("weaksim", weaksim, 30, 1.0), Family("mucalc", mucalc, 30, 1.0)],
}
FAMILIES = {f.name: f for fams in WORKLOADS.values() for f in fams}


def load_catalogue() -> Dict[str, Any]:
    with open(CATALOGUE) as fh:
        return json.load(fh)


def pick(workload: str, seed: int, catalogue: Dict[str, Any]) -> List[Instance]:
    """The catalogue's instances of each family, presented for this seed."""
    return [fam.make(s, seed) for fam in WORKLOADS[workload] for s, _ in catalogue[fam.name]["included"]]


# -- running ----------------------------------------------------------------

@dataclass
class Prepared:
    """An instance parsed by the library, ready to run."""

    inst: Instance
    game: Any
    labels: Dict[str, str]
    lts: Any = None
    phi: Any = None


def prepare(vg: Any, inst: Instance) -> Prepared:
    """Parse an instance's text with the library (this is set-up work)."""
    game, labels = vg.formats.parse_game(inst.game.text)
    lts = vg.formats.parse_lts(inst.lts) if inst.lts else None
    phi = vg.applications.parse_formula(inst.formula) if inst.formula else None
    return Prepared(inst, game, labels, lts, phi)


def runner(vg: Any, p: Prepared, op: Op) -> Callable[[], Any]:
    """A closure that performs one operation through the library's public
    entry points (the ones the command line uses)."""
    g = p.game
    kind = op[0]
    if kind == "pareto":
        return lambda: vg.solver.pareto_single_sided_vass(g, g.counters)
    if kind == "pareto-energy":
        return lambda: vg.energy.pareto_energy(g, g.counters)
    if kind == "oracle":
        _, semantics, q, v, cap = op
        gamma = vg.core.PartialConfig.make(q, dict(zip(g.counters, v)))
        return lambda: vg.bounded.bracket_decide(g, semantics, gamma, max_cap=cap)
    if kind == "weaksim":
        _, q, v = op
        theta = dict(zip(g.counters, v))
        s0 = p.lts.states[0]
        return lambda: vg.applications.check_weaksim(p.lts, s0, g, p.labels, q, theta)
    if kind == "mc":
        _, q, v = op
        gamma = vg.core.PartialConfig.make(q, dict(zip(g.counters, v)))
        return lambda: vg.applications.model_check(g, p.phi, gamma)
    if kind == "mc-global":
        return lambda: vg.applications.global_model_check(g, p.phi)
    raise ValueError("unknown operation %r" % (kind,))


def normalise(inst: Instance, op: Op, result: Any) -> Any:
    """A plain, comparable form of an operation's result."""
    if op[0] in ("pareto", "pareto-energy", "mc-global"):
        cs = inst.game.counters
        return {q: sorted(tuple(e.get(c) for c in cs) for e in ac) for q, ac in result.items()}
    if op[0] == "oracle":
        return str(result)
    return bool(result)


def check_instance(tally: check.Tally, inst: Instance, results: List[Any]) -> None:
    """Check one instance's normalised results with the independent checks."""
    spec = inst.game
    kinds = [op[0] for op in inst.ops]
    if kinds[0] in ("pareto", "pareto-energy"):
        check.check_frontier(tally, spec.name, spec.text, inst.semantics, results[0], spec.ladder)
    elif kinds[0] == "oracle":
        verdicts = {(op[2], op[3]): r for op, r in zip(inst.ops, results)}
        check.check_oracle(tally, spec.name, spec.text, inst.semantics, inst.ops[0][4], verdicts, spec.ladder)
    elif kinds[0] == "weaksim":
        cap = 8
        lo = check.weaksim_bracket(inst.lts, spec.text, cap, upper=False)
        hi = check.weaksim_bracket(inst.lts, spec.text, cap, upper=True)
        for (_, q, v), r in zip(inst.ops, results):
            key = ("s0", q, v)
            tally.judge(r, key in lo, key not in hi, "%s weaksim %s %s" % (spec.name, q, v))
    else:
        cap = 8
        lo = check.mucalc_bracket(spec.text, inst.formula, cap, upper=False)
        hi = check.mucalc_bracket(spec.text, inst.formula, cap, upper=True)
        front = results[kinds.index("mc-global")]
        for op, r in zip(inst.ops, results):
            if op[0] != "mc":
                continue
            _, q, v = op
            tally.judge(r, (q, v) in lo, (q, v) not in hi, "%s mc %s %s" % (spec.name, q, v))
            if r != any(check.leq(e, v) for e in front[q]):
                tally.errors.append("%s: model_check and global_model_check disagree at %s %s" % (spec.name, q, v))
        for q, elems in front.items():
            for e in elems:
                tally.judge(True, (q, e) in lo, (q, e) not in hi, "%s global %s %s" % (spec.name, q, e))
                for i, x in enumerate(e):
                    pe = e[:i] + (x - 1,) + e[i + 1:]
                    if x > 0 and not any(check.leq(f, pe) for f in elems):
                        tally.judge(False, (q, pe) in lo, (q, pe) not in hi, "%s global %s %s" % (spec.name, q, pe))
