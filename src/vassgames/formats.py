"""Text formats: game files, LTS files, configuration literals, frontier
rendering and a deterministic random instance generator.

Game file syntax, one directive per line ('#' starts a comment):

    counters c1 c2
    state q0 owner=0 color=2
    trans t1: q0 inc(c1) q1
    trans t2: q1 nop q0 label=a

Multi-step updates like inc(c,3) are desugared into chains of unit updates
through fresh color-0 states.  LTS files:

    state s0
    edge s0 a s1
"""
from __future__ import annotations

import random
import re
from typing import Dict, List, Mapping, Optional, Tuple

from .core import (
    Antichain,
    CounterOp,
    DEC,
    INC,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    fresh,
)
from .applications import FiniteLTS

_OP_RE = re.compile(r"^(inc|dec)\(([A-Za-z_][\w]*)(?:\s*,\s*(\d+))?\)$")


def _parse_op(spec: str) -> Tuple[CounterOp, int]:
    """An operation and its repeat count: nop, inc(c), dec(c), inc(c,n) or
    dec(c,n) with n >= 1."""
    if spec == "nop":
        return NOP_OP, 1
    m = _OP_RE.match(spec)
    if not m:
        raise ValueError("bad operation %r" % spec)
    kind, counter, rep = m.group(1), m.group(2), m.group(3)
    n = int(rep) if rep else 1
    if n < 1:
        raise ValueError("repeat count of %r must be at least 1" % spec)
    return CounterOp(kind, counter), n


def _attributes(words: List[str]) -> Dict[str, str]:
    """The key=value words of a directive; each key at most once."""
    attrs: Dict[str, str] = {}
    for word in words:
        key, _, value = word.partition("=")
        if not value:
            raise ValueError("attribute %r has no value" % key)
        if key in attrs:
            raise ValueError("attribute %r given twice" % key)
        attrs[key] = value
    return attrs


def _integer(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError("attribute %r is not an integer: %r" % (key, value)) from None


def parse_game(text: str) -> Tuple[IntegerGame, Dict[str, str]]:
    """Parse a game file; returns the game and the transition labels."""
    counters: Tuple[str, ...] = ()
    saw_counters = False
    states: List[State] = []
    raw_trans: List[Tuple[str, str, CounterOp, int, str, Optional[str]]] = []
    # (tid, source, op, repeat, target, label)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "counters":
                if saw_counters:
                    raise ValueError("duplicate counters line")
                counters = tuple(parts[1:])
                saw_counters = True
            elif kind == "state":
                if len(parts) < 2:
                    raise ValueError("expected 'state <name> [owner=<0|1>] [color=<n>]'")
                name = parts[1]
                attrs = _attributes(parts[2:])
                owner, color = (_integer(k, attrs.pop(k, "0")) for k in ("owner", "color"))
                if attrs:
                    raise ValueError("unknown state attributes %s" % sorted(attrs))
                states.append(State(name, owner, color))
            elif kind == "trans":
                if len(parts) < 5 or not parts[1].endswith(":"):
                    raise ValueError("expected 'trans <id>: <source> <op> <target> [label=<a>]'")
                tid = parts[1][:-1]
                source, opspec, target = parts[2], parts[3], parts[4]
                attrs = _attributes(parts[5:])
                label = attrs.pop("label", None)
                if attrs:
                    raise ValueError("unknown transition attributes %s" % sorted(attrs))
                op, rep = _parse_op(opspec)
                raw_trans.append((tid, source, op, rep, target, label))
            else:
                raise ValueError("unknown directive %r" % kind)
        except (IndexError, ValueError) as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc

    all_states = list(states)
    transitions: List[Transition] = []
    labels: Dict[str, str] = {}

    owners = {s.name: s.owner for s in states}
    # hop names are fresh against every declared state and id
    state_names = set(owners)
    tids = {r[0] for r in raw_trans}
    for tid, source, op, rep, target, label in raw_trans:
        if rep == 1:
            transitions.append(Transition(tid, source, op, target))
            if label is not None:
                labels[tid] = label
            continue
        if source not in owners:
            raise ValueError("transition %r uses unknown state %r" % (tid, source))
        prev = source
        for i in range(rep):
            last = i == rep - 1
            nxt = target if last else fresh("%s__s%d" % (tid, i + 1), state_names)
            if not last:
                all_states.append(State(nxt, owners[source], 0))
            hop = tid if i == 0 else fresh("%s__h%d" % (tid, i), tids)
            transitions.append(Transition(hop, prev, op, nxt))
            if label is not None:
                labels[hop] = label if i == 0 else "tau"
            prev = nxt
    game = IntegerGame(counters, tuple(all_states), tuple(transitions))
    return game, labels


def print_game(game: IntegerGame, labels: Optional[Mapping[str, str]] = None) -> str:
    labels = labels or {}
    lines = ["counters %s" % " ".join(game.counters) if game.counters else "counters"]
    for s in game.states:
        lines.append("state %s owner=%d color=%d" % (s.name, s.owner, s.color))
    for t in game.transitions:
        extra = " label=%s" % labels[t.tid] if t.tid in labels else ""
        lines.append("trans %s: %s %s %s%s" % (t.tid, t.source, t.op, t.target, extra))
    return "\n".join(lines) + "\n"


def parse_lts(text: str) -> FiniteLTS:
    states: List[str] = []
    edges: List[Tuple[str, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "state" and len(parts) == 2:
            states.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise ValueError("line %d: bad LTS directive %r" % (lineno, line))
    return FiniteLTS(tuple(states), tuple(edges))


def parse_config(game: IntegerGame, text: str) -> PartialConfig:
    """Parse 'q0 c=1 d=2' against a game (state and counters are checked)."""
    parts = text.split()
    if not parts:
        raise ValueError("empty configuration")
    state = parts[0]
    if not game.has_state(state):
        raise ValueError("unknown state %r" % state)
    items = []
    for p in parts[1:]:
        c, eq, v = p.partition("=")
        if not eq or c not in game.counters or not v.isdecimal():
            raise ValueError("bad counter assignment %r" % p)
        items.append((c, int(v)))
    return PartialConfig(state, tuple(items))


def frontier_json(game: IntegerGame, frontier: Mapping[str, Antichain]) -> Dict[str, List[Dict[str, int]]]:
    """Per state of frontier, in declaration order, its elements as their
    defined counter values, sorted by value vector in counter order; an
    undefined counter reads -1."""
    out: Dict[str, List[Dict[str, int]]] = {}
    for s in game.states:
        ac = frontier.get(s.name)
        if ac is None:
            continue
        elems = [{c: g.get(c) for c in game.counters if g.get(c) is not None} for g in ac]
        out[s.name] = sorted(elems, key=lambda el: [el.get(c, -1) for c in game.counters])
    return out


def format_frontier(game: IntegerGame, frontier: Mapping[str, Antichain]) -> List[str]:
    """One line per state with a nonempty frontier, listed as frontier_json
    lists it."""
    return [
        "%s: %s" % (name, " ".join("(%s)" % ",".join("%s=%d" % cv for cv in el.items()) for el in elems))
        for name, elems in frontier_json(game, frontier).items()
        if elems
    ]


def generate_game(
    seed: int,
    n_states: int = 4,
    n_counters: int = 1,
    single_sided: bool = True,
) -> Tuple[IntegerGame, Dict[str, str]]:
    """Deterministic random instance: every state keeps an Inc or Nop exit so
    the deadlock check passes; Player-1 states only get Nops when the game is
    single-sided.  Transitions carry random labels for the weak-sim front end."""
    rng = random.Random(seed)
    counters = tuple("c%d" % (i + 1) for i in range(n_counters))
    states = []
    for i in range(n_states):
        owner = rng.choice([0, 0, 1])
        color = rng.randint(0, 3)
        states.append(State("q%d" % i, owner, color))
    transitions: List[Transition] = []
    labels: Dict[str, str] = {}
    tnum = 0
    for s in states:
        n_out = rng.randint(1, 3)
        for j in range(n_out):
            target = "q%d" % rng.randrange(n_states)
            if (s.owner == 1 and single_sided) or not counters or (j == 0):
                op = NOP_OP
            else:
                op = CounterOp(rng.choice([INC, DEC]), rng.choice(counters))
            tid = "t%d" % tnum
            tnum += 1
            transitions.append(Transition(tid, s.name, op, target))
            labels[tid] = rng.choice(["a", "b", "tau"])
    return IntegerGame(counters, tuple(states), tuple(transitions)), labels
