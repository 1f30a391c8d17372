"""Pareto frontiers of minimal winning credit in single-sided VASS parity games.

The solver works by induction on the tracked counter subset C:

* C = {}: the abstract verdict per state, which for single-sided games equals
  the abstract energy parity verdict.
* C nonempty: membership of a configuration with domain C is decided by
  unfolding the game into a finite "out-game" whose states carry labels over
  C (a Karp-Miller style construction, finite by Dickson's lemma) and whose
  counters are the untracked ones; leaves are recolored losing when the label
  drops out of the smaller frontiers (coverability test against their union
  beta) and winning when a label strictly dominates one of its ancestors.
  The frontier itself is then recovered from the membership oracle with a
  Valk-Jantzen style minimization over ideal decompositions of the unknown
  region's complement.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .core import (
    Antichain,
    Budget,
    BudgetExceeded,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    check_deadlock_free,
    complement_ideals,
    is_single_sided,
    leq,
)
from .energy import solve_abstract_energy_parity
from .semantics import vass_step

EXTRACT_LIMIT = 4096  # safety cap when probing a single coordinate upward


Key = Tuple[str, Tuple[int, ...]]  # a label over C: its state and values in sorted counter order


def _coverage(beta: Iterable[PartialConfig], C: FrozenSet[str]) -> Callable[[str, Tuple[int, ...]], bool]:
    """The coverage test for labels over C, with beta grouped once by
    (state, domain) into value tuples; elements of other domains are never
    looked up."""
    index: Dict[Tuple[str, FrozenSet[str]], List[Tuple[int, ...]]] = {}
    for b in beta:
        index.setdefault((b.state, b.dom), []).append(tuple(v for _, v in b.items))
    names = sorted(C)
    drops = [frozenset(names[:i] + names[i + 1:]) for i in range(len(names))]

    def covered(state: str, vals: Tuple[int, ...]) -> bool:
        for i, dom in enumerate(drops):
            rest = vals[:i] + vals[i + 1:]
            if not any(all(x <= y for x, y in zip(b, rest)) for b in index.get((state, dom), ())):
                return False
        return True

    return covered


def covered_by(beta: Iterable[PartialConfig], gamma: PartialConfig) -> bool:
    """Coverability of a label against the union of the smaller frontiers:
    for every tracked counter c, dropping c from gamma must land above some
    element of beta (matching state and domain)."""
    return _coverage(beta, gamma.dom)(gamma.state, tuple(v for _, v in gamma.items))


@dataclass
class OutGame:
    """The finite unfolding used to decide one C-membership query."""

    game: IntegerGame
    root: str
    labels: Dict[str, PartialConfig]
    origin: Dict[str, Optional[str]]  # out-transition id -> original transition id


def build_out_game(
    game: IntegerGame,
    gamma: PartialConfig,
    beta: Iterable[PartialConfig],
    budget: Optional[Budget] = None,
) -> OutGame:
    """Unfold the game from gamma (domain C nonempty) into a finite game over
    the untracked counters.

    Nodes are labeled with configurations of domain C and expanded in
    breadth-first order.  A node whose label is not covered by beta becomes a
    losing (color 1) leaf; beta is indexed once by state and domain, so a
    label is tested only against its own state's elements.  A node whose
    label strictly dominates an ancestor's becomes a winning (color 0) leaf;
    the walk back over the predecessor lists stops at the first such
    ancestor.  Other nodes expand along the VASS-enabled transitions,
    rewriting updates of tracked counters to Nop, and merge with the earliest
    created ancestor carrying an equal label, found through a dict from
    labels to their nodes, instead of growing a new branch."""
    budget = budget or Budget()
    C = gamma.dom
    if not C:
        raise ValueError("build_out_game needs a nonempty tracked domain")
    covered = _coverage(beta, C)
    counters_out = tuple(c for c in game.counters if c not in C)

    labels: List[PartialConfig] = []
    keys: List[Key] = []
    nodes_of: Dict[Key, List[int]] = {}  # label -> its nodes in creation order
    preds: List[List[int]] = []
    leaf_color: Dict[int, int] = {}
    edges: List[Tuple[int, int, object, Optional[str]]] = []  # (src, dst, op, orig tid)

    def new_node(label: PartialConfig, key: Key) -> int:
        if len(labels) >= budget.node_budget:
            raise BudgetExceeded("out-game node budget exceeded")
        n = len(labels)
        labels.append(label)
        keys.append(key)
        nodes_of.setdefault(key, []).append(n)
        preds.append([])
        return n

    root = new_node(gamma, (gamma.state, tuple(v for _, v in gamma.items)))
    work = deque([root])
    ticks = 0
    while work:
        ticks += 1
        if ticks % 64 == 0:
            budget.check_time("out-game unfolding")
        q = work.popleft()
        state, vals = keys[q]
        if not covered(state, vals):
            leaf_color[q] = 1
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        # The ancestors of q are every node with a path to q in the out-game
        # built so far, not only q's branch of the unfolding tree.  Every such
        # node is reachable from the root, so it precedes q on some play and a
        # label below q's is a pumping witness as on the branch.  Merges make
        # many paths into q, and the wider set lets merges and winning leaves
        # fire sooner: the branch alone gave the same frontiers on random
        # games but out-games several times larger, slower and heavier in
        # memory.  The walk stops at the first ancestor q dominates; when
        # there is none it has visited every ancestor, which the merges need.
        seen = {q}
        stack = [q]
        dominates = False
        while stack and not dominates:
            for u in preds[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    s, v = keys[u]
                    if s == state and v != vals and all(x <= y for x, y in zip(v, vals)):
                        dominates = True
                        break
                    stack.append(u)
        if dominates:
            leaf_color[q] = 0
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        for t in game.out(state):
            nxt = vass_step(game, labels[q], t.tid)
            if nxt is None:
                continue
            key = (nxt.state, tuple(v for _, v in nxt.items))
            target = next((n for n in nodes_of.get(key, ()) if n in seen), None)
            if target is None:
                target = new_node(nxt, key)
                work.append(target)
            edges.append((q, target, NOP_OP if t.op.counter in C else t.op, t.tid))
            preds[target].append(q)

    names = ["n%d" % n for n in range(len(labels))]
    states = []
    for n, label in enumerate(labels):
        s = game.state(label.state)
        states.append(State(names[n], s.owner, leaf_color.get(n, s.color)))
    transitions = []
    origin: Dict[str, Optional[str]] = {}
    for i, (src, dst, op, orig) in enumerate(edges):
        tid = "e%d" % i
        transitions.append(Transition(tid, names[src], op, names[dst]))  # type: ignore[arg-type]
        origin[tid] = orig
    out_game = IntegerGame(counters_out, tuple(states), tuple(transitions))
    return OutGame(out_game, names[root], dict(zip(names, labels)), origin)


class ParetoTable:
    """Memoized frontiers per tracked counter subset, with the membership
    oracle they are built from."""

    def __init__(self, game: IntegerGame, budget: Optional[Budget] = None):
        if not is_single_sided(game):
            raise ValueError("Pareto solving needs a single-sided game")
        bad = check_deadlock_free(game)
        if bad:
            raise ValueError("game may deadlock at states: %s" % ", ".join(bad))
        self.game = game
        self.budget = budget or Budget()
        self._frontiers: Dict[FrozenSet[str], Dict[str, Antichain]] = {}
        self._abstract: Optional[Dict[str, int]] = None
        self._query_cache: Dict[PartialConfig, bool] = {}

    def abstract_verdicts(self) -> Dict[str, int]:
        if self._abstract is None:
            self._abstract = solve_abstract_energy_parity(self.game, self.budget)
        return self._abstract

    def _beta(self, C: FrozenSet[str]) -> List[PartialConfig]:
        beta: List[PartialConfig] = []
        for c in sorted(C):
            for ac in self.frontier(C - {c}).values():
                beta.extend(ac)
        return beta

    def solve_c_version(self, gamma: PartialConfig) -> bool:
        """Does Player 0 win every (equivalently, some) full instantiation of
        gamma when only the counters in dom(gamma) are tracked as hard?"""
        C = gamma.dom
        if not C:
            return self.abstract_verdicts()[gamma.state] == 0
        if gamma in self._query_cache:
            return self._query_cache[gamma]
        out = build_out_game(self.game, gamma, self._beta(C), self.budget)
        verdicts = solve_abstract_energy_parity(out.game, self.budget)
        ans = verdicts[out.root] == 0
        self._query_cache[gamma] = ans
        return ans

    def membership(self, gamma: PartialConfig, C: FrozenSet[str]) -> bool:
        """Does some C-instantiation of gamma lie in the Player-0 winning set
        with tracked counters C?  (For upward closed sets this also equals
        "gamma extends to a winning configuration".)"""
        if not gamma.dom <= C:
            raise ValueError("query domain must be inside the tracked set")
        if gamma.dom == C:
            return self.solve_c_version(gamma)
        return self.frontier(gamma.dom)[gamma.state].covers(gamma)

    def frontier(self, C: FrozenSet[str]) -> Dict[str, Antichain]:
        C = frozenset(C)
        if not C <= set(self.game.counters):
            raise ValueError("unknown counters: %s" % sorted(C - set(self.game.counters)))
        if C in self._frontiers:
            return self._frontiers[C]
        if not C:
            result = {
                q: (Antichain([PartialConfig.make(q)]) if w == 0 else Antichain())
                for q, w in self.abstract_verdicts().items()
            }
        else:
            for c in sorted(C):
                self.frontier(C - {c})  # populate the smaller tables first
            counters_order = tuple(c for c in self.game.counters if c in C)
            result = {}
            for q in self.game.state_names():
                result[q] = vj_minimize(
                    lambda g: self.membership(g, C),
                    q,
                    counters_order,
                    self.budget,
                )
        self._frontiers[C] = result
        return result


def _extract_minimal(
    query: Callable[[PartialConfig], bool],
    found: PartialConfig,
    counters_order: Sequence[str],
) -> PartialConfig:
    """Extend a positive partial query to a full domain and minimize it
    coordinatewise (one pass in counter order yields a minimal element of an
    upward closed set)."""
    gamma = found
    for c in counters_order:
        if c in gamma.dom:
            continue
        x = 0
        while not query(gamma.with_value(c, x)):
            x += 1
            if x > EXTRACT_LIMIT:
                raise BudgetExceeded("witness extraction exceeded %d on %s" % (EXTRACT_LIMIT, c))
        gamma = gamma.with_value(c, x)
    for c in counters_order:
        lo, hi = 0, gamma.get(c)
        while lo < hi:
            mid = (lo + hi) // 2
            if query(gamma.with_value(c, mid)):
                hi = mid
            else:
                lo = mid + 1
        gamma = gamma.with_value(c, lo)
    return gamma


def vj_minimize(
    query: Callable[[PartialConfig], bool],
    state: str,
    counters_order: Sequence[str],
    budget: Optional[Budget] = None,
) -> Antichain:
    """Compute the minimal elements of the upward closed set described by the
    membership oracle, Valk-Jantzen style.

    The oracle must answer, for a partial configuration, whether some full
    instantiation belongs to the set; omega coordinates of the complement
    ideals are probed as undefined counters, finite coordinates by direct
    enumeration up to the bound.  Every probe, witness extraction included,
    first checks the deadline."""
    budget = budget or Budget()

    def probe(g: PartialConfig) -> bool:
        budget.check_time("Valk-Jantzen minimisation")
        return query(g)

    minima: List[PartialConfig] = []
    while True:
        ideals = complement_ideals(sorted(minima, key=lambda g: g.items), counters_order, state)
        hit: Optional[PartialConfig] = None
        for ideal in sorted(ideals, key=lambda i: str(i.bounds)):
            finite = ideal.finite_coords
            names = [c for c, _ in finite]
            for vec in itertools.product(*[range(b + 1) for _, b in finite]):
                g = PartialConfig(state, tuple(zip(names, vec)))
                if probe(g):
                    hit = g
                    break
            if hit is not None:
                break
        if hit is None:
            return Antichain(minima)
        new = _extract_minimal(probe, hit, counters_order)
        if any(leq(m, new) or leq(new, m) for m in minima):
            raise RuntimeError("oracle is not upward closed: %s overlaps known minima" % new)
        minima.append(new)


def pareto_single_sided_vass(
    game: IntegerGame,
    counters: Iterable[str],
    budget: Optional[Budget] = None,
) -> Dict[str, Antichain]:
    """Per-state Pareto frontier of minimal credit on the tracked counters
    under VASS semantics, for a single-sided game."""
    table = ParetoTable(game, budget)
    return table.frontier(frozenset(counters))
