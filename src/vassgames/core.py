"""Core types: integer games over counters, partial configurations and antichains.

An integer game is a finite game graph whose transitions carry unit counter
updates (inc/dec/nop).  Configurations pair a state with a partial valuation
of the counters; counters outside the domain are "undefined" and act as
unconstrained.  Winning sets of Player 0 are upward closed in the counter
values, so they are represented by antichains of minimal elements.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

INC = "inc"
DEC = "dec"
NOP = "nop"


class BudgetExceeded(RuntimeError):
    """A node, strategy or time budget ran out before the solver finished."""


@dataclass
class Budget:
    """Resource limits shared by the solvers.  node_budget caps the nodes of
    one out-game; strategy_budget caps the Player-1 strategies one abstract
    energy parity solve enumerates; deadline is a time.monotonic() instant,
    and None disables the time check, which names the layer it stops."""

    node_budget: int = 100000
    strategy_budget: int = 200000
    deadline: Optional[float] = None

    def check_time(self, layer: str) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exceeded in %s" % layer)


@dataclass(frozen=True)
class CounterOp:
    """A unit counter update: inc(c), dec(c) or nop."""

    kind: str
    counter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (INC, DEC, NOP):
            raise ValueError("bad op kind: %r" % (self.kind,))
        if self.kind == NOP and self.counter is not None:
            raise ValueError("nop takes no counter")
        if self.kind != NOP and not self.counter:
            raise ValueError("%s needs a counter" % self.kind)

    @property
    def delta(self) -> int:
        if self.kind == INC:
            return 1
        if self.kind == DEC:
            return -1
        return 0

    def __str__(self) -> str:
        if self.kind == NOP:
            return "nop"
        return "%s(%s)" % (self.kind, self.counter)


NOP_OP = CounterOp(NOP)


def inc(counter: str) -> CounterOp:
    return CounterOp(INC, counter)


def dec(counter: str) -> CounterOp:
    return CounterOp(DEC, counter)


@dataclass(frozen=True)
class State:
    name: str
    owner: int
    color: int

    def __post_init__(self) -> None:
        if self.owner not in (0, 1):
            raise ValueError("owner must be 0 or 1")
        if self.color < 0:
            raise ValueError("color must be nonnegative")


@dataclass(frozen=True)
class Transition:
    tid: str
    source: str
    op: CounterOp
    target: str


@dataclass(frozen=True)
class IntegerGame:
    """A game graph with unit counter updates.

    States and transitions keep their declaration order; all deterministic
    output follows that order.
    """

    counters: Tuple[str, ...]
    states: Tuple[State, ...]
    transitions: Tuple[Transition, ...]

    def __post_init__(self) -> None:
        if len(set(self.counters)) != len(self.counters):
            raise ValueError("duplicate counter names")
        by_name: Dict[str, State] = {}
        for s in self.states:
            if s.name in by_name:
                raise ValueError("duplicate state %r" % s.name)
            by_name[s.name] = s
        out: Dict[str, List[Transition]] = {s.name: [] for s in self.states}
        tids = set()
        for t in self.transitions:
            if t.tid in tids:
                raise ValueError("duplicate transition id %r" % t.tid)
            tids.add(t.tid)
            if t.source not in by_name or t.target not in by_name:
                raise ValueError("transition %r uses unknown state" % t.tid)
            if t.op.kind != NOP and t.op.counter not in self.counters:
                raise ValueError("transition %r uses unknown counter" % t.tid)
            out[t.source].append(t)
        object.__setattr__(self, "_state_by_name", by_name)
        object.__setattr__(self, "_out", {q: tuple(ts) for q, ts in out.items()})
        object.__setattr__(self, "_trans_by_id", {t.tid: t for t in self.transitions})

    def state(self, name: str) -> State:
        return self._state_by_name[name]  # type: ignore[attr-defined]

    def has_state(self, name: str) -> bool:
        return name in self._state_by_name  # type: ignore[attr-defined]

    def transition(self, tid: str) -> Transition:
        return self._trans_by_id[tid]  # type: ignore[attr-defined]

    def out(self, state_name: str) -> Tuple[Transition, ...]:
        return self._out[state_name]  # type: ignore[attr-defined]

    def state_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.states)

    @cached_property
    def moves(self) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
        """The game in integer form, compiled on first use: per state index,
        its moves in out() order as (target index, counter index or -1,
        delta).  Solvers number vertices from these indices."""
        index = {s.name: i for i, s in enumerate(self.states)}
        cidx = {c: i for i, c in enumerate(self.counters)}
        cidx[None] = -1
        out = self._out  # type: ignore[attr-defined]
        return tuple([
            tuple([(index[t.target], cidx[t.op.counter], t.op.delta) for t in out[s.name]])
            for s in self.states
        ])


def is_single_sided(game: IntegerGame) -> bool:
    """True iff every transition leaving a Player-1 state is a Nop."""
    for t in game.transitions:
        if game.state(t.source).owner == 1 and t.op.kind != NOP:
            return False
    return True


def check_deadlock_free(game: IntegerGame) -> List[str]:
    """Conservative syntactic check: a state is safe when it has an outgoing
    Inc or Nop transition (those are enabled at every valuation).  Returns the
    names of states failing the check, in declaration order."""
    bad = []
    for s in game.states:
        if not any(t.op.kind != DEC for t in game.out(s.name)):
            bad.append(s.name)
    return bad


def fresh(name: str, taken: Set[str]) -> str:
    """Append underscores to name until it is not in taken, then claim it."""
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def complete_with_sinks(game: IntegerGame) -> IntegerGame:
    """Give every state failing the deadlock check a Nop escape, last among
    its moves, to an absorbing sink that loses for the state's owner (color 1
    for Player-0 states, color 0 for Player-1 states).  A player only takes
    the escape when stuck, so winning regions are unchanged while the result
    passes the syntactic check.  Names are fresh against the input and each
    other: __sink<owner>, __sinkloop<owner> and __stuck<i> unless taken."""
    bad = check_deadlock_free(game)
    if not bad:
        return game
    names = set(game.state_names())
    tids = {t.tid for t in game.transitions}
    states = list(game.states)
    transitions = list(game.transitions)
    sinks: Dict[int, str] = {}
    for i, name in enumerate(bad):
        owner = game.state(name).owner
        if owner not in sinks:
            sink = sinks[owner] = fresh("__sink%d" % owner, names)
            states.append(State(sink, 0, 1 if owner == 0 else 0))
            transitions.append(Transition(fresh("__sinkloop%d" % owner, tids), sink, NOP_OP, sink))
        transitions.append(Transition(fresh("__stuck%d" % i, tids), name, NOP_OP, sinks[owner]))
    return IntegerGame(game.counters, tuple(states), tuple(transitions))


def _norm_items(items: Iterable[Tuple[str, int]]) -> Tuple[Tuple[str, int], ...]:
    seen = {}
    for c, v in items:
        if c in seen:
            raise ValueError("duplicate counter %r in valuation" % c)
        seen[c] = v
    return tuple(sorted(seen.items()))


@dataclass(frozen=True)
class PartialConfig:
    """A state plus a partial valuation over the counters (values >= 0).

    Counters outside the domain are undefined; under VASS semantics they are
    never blocked and stay undefined under updates."""

    state: str
    items: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _norm_items(self.items))
        for c, v in self.items:
            if v < 0:
                raise ValueError("counter %s negative in partial config" % c)

    @staticmethod
    def make(state: str, valuation: Mapping[str, int] = {}) -> "PartialConfig":
        return PartialConfig(state, tuple(valuation.items()))

    @property
    def dom(self) -> FrozenSet[str]:
        return frozenset(c for c, _ in self.items)

    @property
    def valuation(self) -> Dict[str, int]:
        return dict(self.items)

    def get(self, counter: str) -> Optional[int]:
        for c, v in self.items:
            if c == counter:
                return v
        return None

    def with_value(self, counter: str, value: int) -> "PartialConfig":
        rest = tuple((c, v) for c, v in self.items if c != counter)
        return PartialConfig(self.state, rest + ((counter, value),))

    def __str__(self) -> str:
        parts = " ".join("%s=%d" % (c, v) for c, v in self.items)
        return self.state + (" " + parts if parts else "")


def leq(a: PartialConfig, b: PartialConfig) -> bool:
    """Componentwise order; comparable only on same state and same domain."""
    if a.state != b.state:
        return False
    if a.dom != b.dom:
        return False
    bv = dict(b.items)
    return all(v <= bv[c] for c, v in a.items)


class Antichain:
    """A set of pairwise incomparable partial configs (minimal elements of an
    upward closed set).  Immutable; insert returns a new antichain."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[PartialConfig] = ()):
        elems = frozenset(elements)
        for a in elems:
            for b in elems:
                if a != b and leq(a, b):
                    raise ValueError("antichain elements comparable: %s <= %s" % (a, b))
        self.elements: FrozenSet[PartialConfig] = elems

    def insert(self, gamma: PartialConfig) -> "Antichain":
        kept = [e for e in self.elements if not leq(gamma, e)]
        for e in kept:
            if leq(e, gamma):
                return self
        ac = Antichain.__new__(Antichain)
        ac.elements = frozenset(kept + [gamma])
        return ac

    def covers(self, gamma: PartialConfig) -> bool:
        """True iff gamma is in the upward closure of the antichain."""
        return any(leq(e, gamma) for e in self.elements)

    def __iter__(self) -> Iterator[PartialConfig]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Antichain) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return "Antichain({%s})" % ", ".join(sorted(str(e) for e in self.elements))
