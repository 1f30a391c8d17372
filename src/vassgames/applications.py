"""Reductions of verification questions to single-sided VASS parity games:
weak simulation of a finite process by a labeled VASS, and model checking of
guarded positive mu-calculus formulas on single-sided VASS.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .core import (
    Antichain,
    Budget,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    check_deadlock_free,
    complete_with_sinks,
    is_single_sided,
)
from .solver import ParetoTable

TAU = "tau"


@dataclass(frozen=True)
class FiniteLTS:
    """A finite labeled transition system; the first declared state is
    treated as initial by the command line front end."""

    states: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]  # (source, action, target)

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate LTS states")
        known = set(self.states)
        for s, _, t in self.edges:
            if s not in known or t not in known:
                raise ValueError("LTS edge uses unknown state")

    def out(self, state: str) -> List[Tuple[str, str]]:
        return [(a, t) for s, a, t in self.edges if s == state]


def restrict_reachable(game: IntegerGame, roots: Iterable[str]) -> IntegerGame:
    """Subgame induced by the states graph-reachable from the roots (guards
    ignored, so this over-approximates every semantics)."""
    keep: Set[str] = set()
    stack = list(roots)
    while stack:
        q = stack.pop()
        if q not in keep:
            keep.add(q)
            stack.extend(t.target for t in game.out(q))
    states = tuple(s for s in game.states if s.name in keep)
    transitions = tuple(t for t in game.transitions if t.source in keep)
    return IntegerGame(game.counters, states, transitions)


def _challenge(s: str, q: str) -> str:
    return "%s|%s|1" % (s, q)


def _reply(s: str, q: str) -> str:
    return "%s|%s|0" % (s, q)


def _reply_mid(s: str, q: str, a: str) -> str:
    return "%s|%s^%s|0" % (s, q, a)


def weaksim_game(
    fs: FiniteLTS,
    vass: IntegerGame,
    labels: Mapping[str, str],
) -> IntegerGame:
    """The weak simulation game: Player 1 challenges with moves of the finite
    process, Player 0 answers with weak (tau* a tau*) moves of the VASS.

    Challenge states carry color 2, so Player 0 wins iff it can answer every
    challenge forever.  complete_with_sinks makes a stuck player lose: a
    challenge state without process moves escapes to a sink winning for
    Player 0, an answer state whose VASS moves may all be blocked to a sink
    losing for Player 0.  The result is single-sided and passes the deadlock
    check."""
    lbl = {t.tid: labels.get(t.tid, TAU) for t in vass.transitions}
    actions = sorted({a for _, a, _ in fs.edges})
    vstates = [s.name for s in vass.states]

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("w%d" % len(transitions), src, op, dst))

    for s in fs.states:
        for q in vstates:
            states.append(State(_challenge(s, q), 1, 2))
            states.append(State(_reply(s, q), 0, 1))
            for a in actions:
                states.append(State(_reply_mid(s, q, a), 0, 1))
    transitions_by_label: Dict[str, List[Transition]] = {}
    for t in vass.transitions:
        transitions_by_label.setdefault(lbl[t.tid], []).append(t)

    for s in fs.states:
        moves = fs.out(s)
        for q in vstates:
            # challenges
            for a, s2 in moves:
                add_t(_challenge(s, q), NOP_OP, _reply_mid(s2, q, a))
            for a in actions:
                mid = _reply_mid(s, q, a)
                # leading taus
                for t in transitions_by_label.get(TAU, []):
                    if t.source == q:
                        add_t(mid, t.op, _reply_mid(s, t.target, a))
                if a == TAU:
                    # a tau challenge may be answered by staying put
                    add_t(mid, NOP_OP, _reply(s, q))
                else:
                    for t in transitions_by_label.get(a, []):
                        if t.source == q:
                            add_t(mid, t.op, _reply(s, t.target))
            # trailing taus and handing the turn back
            for t in transitions_by_label.get(TAU, []):
                if t.source == q:
                    add_t(_reply(s, q), t.op, _reply(s, t.target))
            add_t(_reply(s, q), NOP_OP, _challenge(s, q))
    return complete_with_sinks(IntegerGame(vass.counters, tuple(states), tuple(transitions)))


def check_weaksim(
    fs: FiniteLTS,
    s0: str,
    vass: IntegerGame,
    labels: Mapping[str, str],
    q0: str,
    theta: Mapping[str, int],
    budget: Optional[Budget] = None,
) -> bool:
    """Does (q0, theta) weakly simulate s0?"""
    if s0 not in fs.states:
        raise ValueError("unknown process state %r" % s0)
    if not vass.has_state(q0):
        raise ValueError("unknown VASS state %r" % q0)
    if set(theta) != set(vass.counters):
        raise ValueError("initial valuation must cover all counters")
    game = weaksim_game(fs, vass, labels)
    root = _challenge(s0, q0)
    game = restrict_reachable(game, [root])
    table = ParetoTable(game, budget)
    return table.membership(
        PartialConfig.make(root, dict(theta)), frozenset(vass.counters)
    )


# ---------------------------------------------------------------------------
# mu-calculus


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Diamond:
    body: "Formula"


@dataclass(frozen=True)
class Box:
    body: "Formula"


@dataclass(frozen=True)
class GuardedBox:
    """The single-sided-safe box: 'at a Player-1 state, all successors
    satisfy the body' (written  P1 /\\ [] body)."""

    body: "Formula"


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Nu:
    var: str
    body: "Formula"


Formula = object

_TOKEN = _re.compile(r"\s*(\(|\)|\.|/\\|\\/|<>|\[\]|[A-Za-z_][A-Za-z_0-9]*)")


def _tokenize(text: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("cannot tokenize formula at %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_formula(text: str) -> Formula:
    """Parse a positive mu-calculus formula.

    Grammar (loosest first): mu X . f | nu X . f | f \\/ f | f /\\ f |
    <> f | P1 /\\ [] f | ( f ) | identifier.  Identifiers bound by an
    enclosing fixpoint are variables, other identifiers are state atoms."""
    toks = _tokenize(text)
    pos = [0]

    def peek() -> Optional[str]:
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat(tok: Optional[str] = None) -> str:
        if pos[0] >= len(toks):
            raise ValueError("unexpected end of formula")
        got = toks[pos[0]]
        if tok is not None and got != tok:
            raise ValueError("expected %r, got %r" % (tok, got))
        pos[0] += 1
        return got

    def expr(bound: FrozenSet[str]) -> Formula:
        if peek() in ("mu", "nu"):
            kind = eat()
            var = eat()
            if not _re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var) or var in ("mu", "nu", "P1"):
                raise ValueError("bad fixpoint variable %r" % var)
            eat(".")
            body = expr(bound | {var})
            return Mu(var, body) if kind == "mu" else Nu(var, body)
        return disj(bound)

    def disj(bound: FrozenSet[str]) -> Formula:
        f = conj(bound)
        while peek() == "\\/":
            eat()
            f = Or(f, conj(bound))
        return f

    def conj(bound: FrozenSet[str]) -> Formula:
        f = unary(bound)
        parts = [f]
        while peek() == "/\\":
            eat()
            parts.append(unary(bound))
        if len(parts) == 1:
            return parts[0]
        # fold left, recognizing the guarded box P1 /\ [] f
        out = parts[0]
        i = 1
        if isinstance(out, Atom) and out.name == "P1":
            if len(parts) == 2 and isinstance(parts[1], Box):
                return GuardedBox(parts[1].body)
            raise ValueError("P1 may only appear as P1 /\\ [] f")
        while i < len(parts):
            out = And(out, parts[i])
            i += 1
        return out

    def unary(bound: FrozenSet[str]) -> Formula:
        tok = peek()
        if tok == "<>":
            eat()
            return Diamond(unary(bound))
        if tok == "[]":
            eat()
            return Box(unary(bound))
        if tok == "(":
            eat()
            f = expr(bound)
            eat(")")
            return f
        if tok in ("mu", "nu"):
            return expr(bound)
        name = eat()
        if name in (")", ".", "/\\", "\\/"):
            raise ValueError("unexpected token %r" % name)
        if name in bound:
            return Var(name)
        return Atom(name)

    f = expr(frozenset())
    if pos[0] != len(toks):
        raise ValueError("trailing tokens: %s" % " ".join(toks[pos[0]:]))
    return _rename_apart(f)


def _rename_apart(f: Formula, used: Optional[Set[str]] = None, env: Optional[Dict[str, str]] = None) -> Formula:
    """Make bound variable names unique so each variable has one binder."""
    used = used if used is not None else set()
    env = env or {}
    if isinstance(f, Atom):
        return f
    if isinstance(f, Var):
        return Var(env.get(f.name, f.name))
    if isinstance(f, And):
        return And(_rename_apart(f.left, used, env), _rename_apart(f.right, used, env))
    if isinstance(f, Or):
        return Or(_rename_apart(f.left, used, env), _rename_apart(f.right, used, env))
    if isinstance(f, Diamond):
        return Diamond(_rename_apart(f.body, used, env))
    if isinstance(f, Box):
        return Box(_rename_apart(f.body, used, env))
    if isinstance(f, GuardedBox):
        return GuardedBox(_rename_apart(f.body, used, env))
    if isinstance(f, (Mu, Nu)):
        name = f.var
        fresh = name
        i = 0
        while fresh in used:
            i += 1
            fresh = "%s_%d" % (name, i)
        used.add(fresh)
        env2 = dict(env)
        env2[name] = fresh
        body = _rename_apart(f.body, used, env2)
        return Mu(fresh, body) if isinstance(f, Mu) else Nu(fresh, body)
    raise TypeError("not a formula: %r" % (f,))


def free_vars(f: Formula) -> FrozenSet[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Diamond, Box, GuardedBox)):
        return free_vars(f.body)
    if isinstance(f, (Mu, Nu)):
        return free_vars(f.body) - {f.var}
    return frozenset()


def subformulas(f: Formula) -> List[Formula]:
    """All subformulas, outermost first, without duplicates."""
    out: List[Formula] = []
    seen = set()

    def go(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        out.append(g)
        if isinstance(g, (And, Or)):
            go(g.left)
            go(g.right)
        elif isinstance(g, (Diamond, Box, GuardedBox)):
            go(g.body)
        elif isinstance(g, (Mu, Nu)):
            go(g.body)

    go(f)
    return out


def alternation_depth(f: Formula) -> int:
    """Niwinski-style alternation depth of dependent fixpoints."""
    if isinstance(f, (Atom, Var)):
        return 0
    if isinstance(f, (And, Or)):
        return max(alternation_depth(f.left), alternation_depth(f.right))
    if isinstance(f, (Diamond, Box, GuardedBox)):
        return alternation_depth(f.body)
    if isinstance(f, (Mu, Nu)):
        opposite = Nu if isinstance(f, Mu) else Mu
        deps = [
            alternation_depth(g)
            for g in subformulas(f.body)
            if isinstance(g, opposite) and f.var in free_vars(g)
        ]
        return max([1, alternation_depth(f.body)] + [1 + d for d in deps])
    raise TypeError("not a formula: %r" % (f,))


def mucalc_game(vass: IntegerGame, phi: Formula) -> Tuple[IntegerGame, Callable[[str], str]]:
    """Product of a single-sided VASS (owners give the Q0/Q1 partition) with
    a closed guarded formula.  Player 1 owns conjunctions and guarded boxes;
    fixpoint states are colored by alternation depth (odd for mu, even for
    nu), mismatched atoms and stuck guards are odd self-loops, everything
    else is color 0.  Returns the game and the map q -> product root <q, phi>."""
    if free_vars(phi):
        raise ValueError("formula must be closed: free %s" % sorted(free_vars(phi)))
    # the binder map below needs one binder per variable name
    phi = _rename_apart(phi)
    if not is_single_sided(vass):
        raise ValueError("mu-calculus product needs a single-sided VASS")
    bad = check_deadlock_free(vass)
    if bad:
        raise ValueError("VASS may deadlock at states: %s" % ", ".join(bad))
    subs = subformulas(phi)
    for g in subs:
        if isinstance(g, Box):
            raise ValueError("unguarded box is not single-sided safe; use P1 /\\ [] f")
    sidx = {id_key: i for i, id_key in enumerate(subs)}
    binder: Dict[str, Formula] = {}
    for g in subs:
        if isinstance(g, (Mu, Nu)):
            binder[g.var] = g

    def node(q: str, g: Formula) -> str:
        return "%s#%d" % (q, sidx[g])

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("m%d" % len(transitions), src, op, dst))

    for q in vass.state_names():
        qowner = vass.state(q).owner
        for g in subs:
            name = node(q, g)
            if isinstance(g, Atom):
                states.append(State(name, 0, 0 if g.name == q else 1))
            elif isinstance(g, Var):
                states.append(State(name, 0, 0))
            elif isinstance(g, And):
                states.append(State(name, 1, 0))
            elif isinstance(g, Or):
                states.append(State(name, 0, 0))
            elif isinstance(g, Diamond):
                states.append(State(name, 0, 0))
            elif isinstance(g, GuardedBox):
                states.append(State(name, 1, 0 if qowner == 1 else 1))
            elif isinstance(g, Mu):
                d = alternation_depth(g)
                states.append(State(name, 0, d if d % 2 == 1 else d + 1))
            elif isinstance(g, Nu):
                d = alternation_depth(g)
                states.append(State(name, 0, d if d % 2 == 0 else d + 1))
            else:
                raise TypeError("not a formula: %r" % (g,))
    for q in vass.state_names():
        qowner = vass.state(q).owner
        for g in subs:
            name = node(q, g)
            if isinstance(g, Atom):
                add_t(name, NOP_OP, name)
            elif isinstance(g, Var):
                add_t(name, NOP_OP, node(q, binder[g.name]))
            elif isinstance(g, (And, Or)):
                add_t(name, NOP_OP, node(q, g.left))
                add_t(name, NOP_OP, node(q, g.right))
            elif isinstance(g, Diamond):
                for t in vass.out(q):
                    add_t(name, t.op, node(t.target, g.body))
            elif isinstance(g, GuardedBox):
                if qowner == 1:
                    for t in vass.out(q):
                        add_t(name, t.op, node(t.target, g.body))
                else:
                    add_t(name, NOP_OP, name)
            elif isinstance(g, (Mu, Nu)):
                add_t(name, NOP_OP, node(q, g.body))

    game = IntegerGame(vass.counters, tuple(states), tuple(transitions))
    return game, lambda q: node(q, phi)


def model_check(
    vass: IntegerGame,
    phi: Formula,
    gamma0: PartialConfig,
    budget: Optional[Budget] = None,
) -> bool:
    """Does the concrete configuration gamma0 satisfy the closed guarded
    formula phi under VASS semantics?"""
    if set(gamma0.dom) != set(vass.counters):
        raise ValueError("model checking needs a concrete configuration")
    game, root_of = mucalc_game(vass, phi)
    root = root_of(gamma0.state)
    game = restrict_reachable(game, [root])
    table = ParetoTable(game, budget)
    return table.membership(
        PartialConfig(root, gamma0.items), frozenset(vass.counters)
    )


def global_model_check(
    vass: IntegerGame,
    phi: Formula,
    budget: Optional[Budget] = None,
) -> Dict[str, Antichain]:
    """Per VASS state, the Pareto frontier of minimal counter values whose
    configurations satisfy phi."""
    game, root_of = mucalc_game(vass, phi)
    roots = {root_of(q): q for q in vass.state_names()}
    game = restrict_reachable(game, list(roots))
    table = ParetoTable(game, budget)
    frontier = table.frontier(frozenset(vass.counters))
    out: Dict[str, Antichain] = {}
    for root, q in roots.items():
        ac = Antichain()
        for el in frontier[root]:
            ac = ac.insert(PartialConfig(q, el.items))
        out[q] = ac
    return out
