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


def weaksim_game(
    fs: FiniteLTS,
    vass: IntegerGame,
    labels: Mapping[str, str],
) -> Tuple[IntegerGame, Callable[[str, str], str]]:
    """The weak simulation game: Player 1 challenges with moves of the finite
    process, Player 0 answers with weak (tau* a tau*) moves of the VASS.

    Each (process state s, VASS state q) pair gets a block of 2 + |actions|
    product states, in process-major order: the challenge, the reply that
    hands the turn back, and one half-answered reply per action (sorted).
    A state is named by its position in that order, so names are distinct
    whatever the input names are.  Challenge states carry color 2, so
    Player 0 wins iff it can answer every challenge forever.
    complete_with_sinks makes a stuck player lose: a challenge state without
    process moves escapes to a sink winning for Player 0, an answer state
    whose VASS moves may all be blocked to a sink losing for Player 0.  The
    result is single-sided and passes the deadlock check.  Returns the game
    and the map (s, q) -> challenge state."""
    actions = sorted({a for _, a, _ in fs.edges})
    apos = {a: i for i, a in enumerate(actions)}
    spos = {s: i for i, s in enumerate(fs.states)}
    qpos = {q: i for i, q in enumerate(vass.state_names())}
    block = 2 + len(actions)

    def at(s: str, q: str, k: int) -> str:
        """State k of the (s, q) block: 0 challenge, 1 reply, 2 + i the reply to actions[i]."""
        return str((spos[s] * len(qpos) + qpos[q]) * block + k)

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("w%d" % len(transitions), src, op, dst))

    # per VASS state, its moves grouped by label, each group in out() order
    moves: Dict[str, Dict[str, List[Transition]]] = {q: {} for q in qpos}
    for q, by_label in moves.items():
        for t in vass.out(q):
            by_label.setdefault(labels.get(t.tid, TAU), []).append(t)

    for s in fs.states:
        challenges = fs.out(s)
        for q, by_label in moves.items():
            taus = by_label.get(TAU, ())
            challenge, reply = at(s, q, 0), at(s, q, 1)
            states.append(State(challenge, 1, 2))
            for a, s2 in challenges:
                add_t(challenge, NOP_OP, at(s2, q, 2 + apos[a]))
            # trailing taus, then the turn goes back
            states.append(State(reply, 0, 1))
            for t in taus:
                add_t(reply, t.op, at(s, t.target, 1))
            add_t(reply, NOP_OP, challenge)
            for i, a in enumerate(actions):
                mid = at(s, q, 2 + i)
                states.append(State(mid, 0, 1))
                # leading taus
                for t in taus:
                    add_t(mid, t.op, at(s, t.target, 2 + i))
                if a == TAU:
                    # a tau challenge may be answered by staying put
                    add_t(mid, NOP_OP, reply)
                else:
                    for t in by_label.get(a, ()):
                        add_t(mid, t.op, at(s, t.target, 1))
    game = complete_with_sinks(IntegerGame(vass.counters, tuple(states), tuple(transitions)))
    return game, lambda s, q: at(s, q, 0)


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
    game, root_of = weaksim_game(fs, vass, labels)
    root = root_of(s0, q0)
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


_P1_MISUSE = "P1 may only appear as P1 /\\ [] f"


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
        if peek() == "P1":
            # the guarded box P1 /\ [] f takes no further conjuncts
            eat()
            if toks[pos[0]:pos[0] + 2] != ["/\\", "[]"]:
                raise ValueError(_P1_MISUSE)
            pos[0] += 2
            f = GuardedBox(unary(bound))
            if peek() == "/\\":
                raise ValueError(_P1_MISUSE)
            return f
        f = unary(bound)
        while peek() == "/\\":
            eat()
            f = And(f, unary(bound))
        return f

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
        if name == "P1":
            raise ValueError(_P1_MISUSE)
        if name in bound:
            return Var(name)
        return Atom(name)

    f = expr(frozenset())
    if pos[0] != len(toks):
        raise ValueError("trailing tokens: %s" % " ".join(toks[pos[0]:]))
    return _rename_apart(f)


def _kids(f: Formula) -> Tuple[Formula, ...]:
    """The immediate subformulas of f, left to right; every formula walk
    reads children through here."""
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Diamond, Box, GuardedBox, Mu, Nu)):
        return (f.body,)
    if isinstance(f, (Atom, Var)):
        return ()
    raise TypeError("not a formula: %r" % (f,))


def _rename_apart(f: Formula, used: Optional[Set[str]] = None, env: Optional[Dict[str, str]] = None) -> Formula:
    """Make bound variable names unique so each variable has one binder."""
    used = used if used is not None else set()
    env = env or {}
    if isinstance(f, Var):
        return Var(env.get(f.name, f.name))
    if isinstance(f, (Mu, Nu)):
        fresh = f.var
        i = 0
        while fresh in used:
            i += 1
            fresh = "%s_%d" % (f.var, i)
        used.add(fresh)
        return type(f)(fresh, _rename_apart(f.body, used, {**env, f.var: fresh}))
    kids = tuple(_rename_apart(g, used, env) for g in _kids(f))
    return type(f)(*kids) if kids else f


def free_vars(f: Formula) -> FrozenSet[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    out = frozenset().union(*map(free_vars, _kids(f)))
    return out - {f.var} if isinstance(f, (Mu, Nu)) else out


def subformulas(f: Formula) -> List[Formula]:
    """All subformulas, outermost first, without duplicates."""
    out: List[Formula] = []
    seen = set()

    def go(g: Formula) -> None:
        if g not in seen:
            seen.add(g)
            out.append(g)
            for h in _kids(g):
                go(h)

    go(f)
    return out


def _alternation_depths(f: Formula) -> Dict[int, Tuple[int, FrozenSet[str], Dict[Tuple[type, str], int]]]:
    """Per subformula node of f, by identity: its alternation depth, its
    free variables and the deepest fixpoint of each (kind, free variable)
    inside it.  One bottom-up walk visits each node once; a fixpoint reads
    its dependents off its body's table."""
    memo: Dict[int, Tuple[int, FrozenSet[str], Dict[Tuple[type, str], int]]] = {}

    def walk(g: Formula) -> None:
        if id(g) in memo:
            return
        d, free, deepest = 0, frozenset([g.name] if isinstance(g, Var) else []), {}
        for h in _kids(g):
            walk(h)
            e, kid_free, table = memo[id(h)]
            d, free = max(d, e), free | kid_free
            for key, v in table.items():
                deepest[key] = max(v, deepest.get(key, 0))
        if isinstance(g, (Mu, Nu)):
            d = max(d, 1 + deepest.get((Nu if isinstance(g, Mu) else Mu, g.var), 0))
            free -= {g.var}
            for x in free:
                deepest[type(g), x] = max(d, deepest.get((type(g), x), 0))
        memo[id(g)] = d, free, deepest

    walk(f)
    return memo


def alternation_depth(f: Formula) -> int:
    """Niwinski-style alternation depth of dependent fixpoints: a fixpoint
    lies one above every opposite fixpoint inside it with its variable free."""
    return _alternation_depths(f)[id(f)][0]


def mucalc_game(vass: IntegerGame, phi: Formula) -> Tuple[IntegerGame, Callable[[str], str]]:
    """Product of a single-sided VASS (owners give the Q0/Q1 partition) with
    a closed guarded formula.  Player 1 owns conjunctions and guarded boxes;
    fixpoint states are colored by alternation depth (odd for mu, even for
    nu), mismatched atoms and stuck guards are odd self-loops, everything
    else is color 0.  State <q, g> is named q#i for the position i of g in
    subformulas(phi); the states come in VASS-state-major order.  Returns
    the game and the map q -> product root <q, phi>."""
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
    if any(isinstance(g, Box) for g in subs):
        raise ValueError("unguarded box is not single-sided safe; use P1 /\\ [] f")
    sidx = {g: i for i, g in enumerate(subs)}
    binder = {g.var: g for g in subs if isinstance(g, (Mu, Nu))}
    # a fixpoint's color is its alternation depth, raised to the next odd
    # number for mu and the next even one for nu
    depths = _alternation_depths(phi)
    color: Dict[Formula, int] = {}
    for g in binder.values():
        d = depths[id(g)][0]
        color[g] = d + (d + isinstance(g, Mu)) % 2

    def node(q: str, g: Formula) -> str:
        return "%s#%d" % (q, sidx[g])

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("m%d" % len(transitions), src, op, dst))

    for q in vass.state_names():
        p1 = vass.state(q).owner == 1
        for g in subs:
            name = node(q, g)
            if isinstance(g, Atom):
                states.append(State(name, 0, 0 if g.name == q else 1))
                add_t(name, NOP_OP, name)
            elif isinstance(g, GuardedBox) and not p1:
                states.append(State(name, 1, 1))
                add_t(name, NOP_OP, name)
            elif isinstance(g, (Diamond, GuardedBox)):
                states.append(State(name, 1 if isinstance(g, GuardedBox) else 0, 0))
                for t in vass.out(q):
                    add_t(name, t.op, node(t.target, g.body))
            else:
                # And, Or and fixpoints step to their subformulas, a
                # variable to its binder, all at the same VASS state
                states.append(State(name, 1 if isinstance(g, And) else 0, color.get(g, 0)))
                for h in (binder[g.name],) if isinstance(g, Var) else _kids(g):
                    add_t(name, NOP_OP, node(q, h))

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
