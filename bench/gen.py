"""Seeded input generators for the benchmark.

Everything here is the benchmark's own: inputs are emitted as game, LTS and
formula text in the library's file formats, so the program under test only
ever sees parsed text, and a change to the library's own generator cannot
change what the benchmark measures.

A *ladder* game has a closed-form frontier.  A Player-1 state ``L`` picks
one of several Player-0 hubs; each hub offers loops that first spend a
credit vector (a chain of decrements, each with an escape to a losing sink)
and then refund it before returning to ``L``.  Player 0 wins from ``L`` with
credit x iff every hub has a loop whose cost is <= x, so the frontier at
``L`` (and at every hub) is the set of minimal pointwise maxima over one
loop per hub.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Vec = Tuple[int, ...]


@dataclass
class GameSpec:
    """A game as text plus what the benchmark knows about it."""

    name: str
    text: str
    counters: Tuple[str, ...]
    ladder: Optional[Dict[str, List[Vec]]] = None  # state -> closed-form frontier


def counter_names(k: int) -> Tuple[str, ...]:
    return tuple("c%d" % (i + 1) for i in range(k))


def _op(kind: str, counter: str) -> str:
    return "%s(%s)" % (kind, counter)


def _emit(counters: Sequence[str], states: Sequence[Tuple[str, int, int]],
          trans: Sequence[Tuple[str, str, str, Optional[str]]]) -> str:
    lines = ["counters " + " ".join(counters)]
    for name, owner, color in states:
        lines.append("state %s owner=%d color=%d" % (name, owner, color))
    for i, (src, op, dst, label) in enumerate(trans):
        extra = " label=%s" % label if label else ""
        lines.append("trans t%d: %s %s %s%s" % (i, src, op, dst, extra))
    return "\n".join(lines) + "\n"


def random_game(rng: random.Random, n: int, k: int, single_sided: bool = True,
                p1_branching: int = 6, labels: Sequence[str] = ()) -> str:
    """Random deadlock-free game on n states and k counters.

    Every state's first exit is a Nop or an Inc, so the syntactic deadlock
    check passes.  At most ``p1_branching`` Player-1 states get a second
    exit, which keeps the Player-1 strategy product at most 2**p1_branching.
    Player-1 exits are Nops when ``single_sided``."""
    counters = counter_names(k)
    states = []
    for i in range(n):
        owner = 1 if rng.random() < 0.3 else 0
        states.append(("q%d" % i, owner, rng.randint(0, 3)))
    trans = []
    branching = 0
    for name, owner, _ in states:
        if owner == 1:
            n_out = 1
            if branching < p1_branching and rng.random() < 0.7:
                n_out = 2
                branching += 1
        else:
            n_out = rng.randint(1, 3)
        for j in range(n_out):
            dst = "q%d" % rng.randrange(n)
            if owner == 1 and single_sided:
                op = "nop"
            elif j == 0:
                op = "nop" if rng.random() < 0.6 else _op("inc", rng.choice(counters))
            else:
                op = _op(rng.choice(["inc", "dec", "dec"]), rng.choice(counters))
            label = rng.choice(labels) if labels else None
            trans.append((name, op, dst, label))
    return _emit(counters, states, trans)


def ladder_frontier(hubs: Sequence[Sequence[Vec]]) -> List[Vec]:
    """Minimal elements of the pointwise maxima over one loop per hub."""
    maxima = {tuple(max(col) for col in zip(*pick)) for pick in itertools.product(*hubs)}
    return sorted(v for v in maxima if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in maxima))


def ladder_game(rng: random.Random, k: int, n_hubs: int, loops: int, top: int, name: str) -> GameSpec:
    """A ladder with n_hubs hubs of ``loops`` loops each; loop costs are
    random vectors with entries in [0, top] (never all zero)."""
    counters = counter_names(k)
    hubs: List[List[Vec]] = []
    for _ in range(n_hubs):
        costs: List[Vec] = []
        while len(costs) < loops:
            v = tuple(rng.randint(0, top) for _ in counters)
            if any(v) and v not in costs:
                costs.append(v)
        hubs.append(costs)
    states = [("L", 1, 2), ("lose", 0, 1)]
    trans = [("lose", "nop", "lose", None)]
    for h, costs in enumerate(hubs):
        hub = "h%d" % h
        states.append((hub, 0, 0))
        trans.append(("L", "nop", hub, None))
        trans.append((hub, "nop", "lose", None))
        for l, cost in enumerate(costs):
            steps = [c for c, x in zip(counters, cost) for _ in range(x)]
            prev = hub
            for i, c in enumerate(steps):
                mid = "h%dl%dd%d" % (h, l, i)
                states.append((mid, 0, 0))
                trans.append((prev, _op("dec", c), mid, None))
                if prev != hub:
                    trans.append((prev, "nop", "lose", None))
                prev = mid
            if prev != hub:
                trans.append((prev, "nop", "lose", None))
            for i, c in enumerate(steps):
                last = i == len(steps) - 1
                nxt = "L" if last else "h%dl%du%d" % (h, l, i)
                if not last:
                    states.append((nxt, 0, 0))
                trans.append((prev, _op("inc", c), nxt, None))
                prev = nxt
    front = ladder_frontier(hubs)
    known = {"L": front, "lose": []}
    for h in range(n_hubs):
        known["h%d" % h] = front
    return GameSpec(name, _emit(counters, states, trans), counters, known)


def rename(spec: GameSpec, rng: random.Random) -> Tuple[GameSpec, Dict[str, str]]:
    """The same game with its states renamed in a random order; declaration
    order is kept, since the solvers' work depends on it.  Returns the new
    spec and the renaming."""
    lines = spec.text.splitlines()
    names = [l.split()[1] for l in lines if l.startswith("state ")]
    ids = list(range(len(names)))
    rng.shuffle(ids)
    new = dict(zip(names, ("v%d" % i for i in ids)))
    out = []
    for line in lines:
        parts = line.split()
        if parts[0] == "state":
            parts[1] = new[parts[1]]
        elif parts[0] == "trans":
            parts[2], parts[4] = new[parts[2]], new[parts[4]]
        out.append(" ".join(parts))
    ladder = {new[q]: v for q, v in spec.ladder.items()} if spec.ladder else None
    return GameSpec(spec.name, "\n".join(out) + "\n", spec.counters, ladder), new


def random_lts(rng: random.Random, n: int, actions: Sequence[str], max_out: int = 2) -> str:
    lines = ["state s%d" % i for i in range(n)]
    edges = set()
    for i in range(n):
        for _ in range(rng.randint(1, max_out)):
            edges.add(("s%d" % i, rng.choice(actions), "s%d" % rng.randrange(n)))
    lines += ["edge %s %s %s" % e for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def random_formula(rng: random.Random, atoms: Sequence[str], depth: int, env: Tuple[str, ...] = ()) -> str:
    """Closed guarded positive mu-calculus formula, fully parenthesised."""
    kinds = ["atom"] + (["var"] if env else [])
    if depth > 0:
        kinds += ["and", "or", "dia", "dia", "gbox", "mu", "nu"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return rng.choice(atoms)
    if kind == "var":
        return rng.choice(env)
    sub = lambda e=env: random_formula(rng, atoms, depth - 1, e)  # noqa: E731
    if kind == "and":
        return "(%s /\\ %s)" % (sub(), sub())
    if kind == "or":
        return "(%s \\/ %s)" % (sub(), sub())
    if kind == "dia":
        return "<> %s" % sub()
    if kind == "gbox":
        return "(P1 /\\ [] %s)" % sub()
    var = "X%d" % len(env)
    return "(%s %s . %s)" % (kind, var, sub(env + (var,)))
