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
  The out-game is emitted in the pass that unfolds it, nodes being expanded
  in the order they are created.  The frontier itself is then recovered
  from the membership oracle, Valk-Jantzen style, by a worklist of downward
  closed boxes that still may hold frontier elements.  A box meets the
  upward closed winning set iff its corner does, so one probe decides a
  box; a positive corner is lowered to a minimal element in one pass over
  the counters, and the boxes containing that element are cut just below it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .core import (
    Antichain,
    Budget,
    BudgetExceeded,
    CounterOp,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    check_deadlock_free,
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
    labels to their nodes, instead of growing a new branch.

    The out-game is emitted in the same pass: nodes are expanded in the order
    they are created, so node n's State, appended when n is expanded and its
    leaf color known, lands at position n, and each edge becomes its
    Transition as it is made."""
    budget = budget or Budget()
    C = gamma.dom
    if not C:
        raise ValueError("build_out_game needs a nonempty tracked domain")
    covered = _coverage(beta, C)
    counters_out = tuple(c for c in game.counters if c not in C)

    labels: List[PartialConfig] = []
    keys: List[Key] = []
    names: List[str] = []
    nodes_of: Dict[Key, List[int]] = {}  # label -> its nodes in creation order
    preds: List[List[int]] = []
    states: List[State] = []
    transitions: List[Transition] = []
    origin: Dict[str, Optional[str]] = {}

    def new_node(label: PartialConfig, key: Key) -> int:
        if len(labels) >= budget.node_budget:
            raise BudgetExceeded("out-game node budget exceeded")
        n = len(labels)
        labels.append(label)
        keys.append(key)
        names.append("n%d" % n)
        nodes_of.setdefault(key, []).append(n)
        preds.append([])
        return n

    def add_edge(src: int, dst: int, op: CounterOp, orig: Optional[str]) -> None:
        tid = "e%d" % len(transitions)
        transitions.append(Transition(tid, names[src], op, names[dst]))
        origin[tid] = orig
        preds[dst].append(src)

    new_node(gamma, (gamma.state, tuple(v for _, v in gamma.items)))
    for q, label in enumerate(labels):  # labels grows while it is walked
        if q % 64 == 63:
            budget.check_time("out-game unfolding")
        state, vals = keys[q]
        leaf = None if covered(state, vals) else 1  # q's leaf color; None if q expands
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
        stack = [q] if leaf is None else []
        while stack and leaf is None:
            for u in preds[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    s, v = keys[u]
                    if s == state and v != vals and all(x <= y for x, y in zip(v, vals)):
                        leaf = 0
                        break
                    stack.append(u)
        st = game.state(state)
        states.append(State(names[q], st.owner, st.color if leaf is None else leaf))
        if leaf is not None:
            add_edge(q, q, NOP_OP, None)
            continue
        for t in game.out(state):
            nxt = vass_step(game, label, t.tid)
            if nxt is None:
                continue
            key = (nxt.state, tuple(v for _, v in nxt.items))
            target = next((n for n in nodes_of.get(key, ()) if n in seen), None)
            if target is None:
                target = new_node(nxt, key)
            add_edge(q, target, NOP_OP if t.op.counter in C else t.op, t.tid)

    out_game = IntegerGame(counters_out, tuple(states), tuple(transitions))
    return OutGame(out_game, names[0], dict(zip(names, labels)), origin)


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
        self._query_cache: Dict[PartialConfig, bool] = {}

    def _beta(self, C: FrozenSet[str]) -> List[PartialConfig]:
        beta: List[PartialConfig] = []
        for c in sorted(C):
            for ac in self.frontier(C - {c}).values():
                beta.extend(ac)
        return beta

    def membership(self, gamma: PartialConfig) -> bool:
        """Does gamma lie in the Player-0 winning set with its own domain
        tracked, that is, can Player 0 win from gamma with some credit on
        the counters gamma leaves undefined?  An empty domain, or one whose
        frontier is stored, is read off that frontier; any other domain is
        decided by one cached out-game over it.  While frontier(C) runs,
        every proper subset of C is stored and C is not, so its
        Valk-Jantzen probes read the smaller frontiers and build out-games
        only for corners over C."""
        if not gamma.dom or gamma.dom in self._frontiers:
            return self.frontier(gamma.dom)[gamma.state].covers(gamma)
        if gamma not in self._query_cache:
            out = build_out_game(self.game, gamma, self._beta(gamma.dom), self.budget)
            self._query_cache[gamma] = solve_abstract_energy_parity(out.game, self.budget)[out.root] == 0
        return self._query_cache[gamma]

    def frontier(self, C: FrozenSet[str]) -> Dict[str, Antichain]:
        C = frozenset(C)
        if not C <= set(self.game.counters):
            raise ValueError("unknown counters: %s" % sorted(C - set(self.game.counters)))
        if C in self._frontiers:
            return self._frontiers[C]
        if not C:
            result = {
                q: (Antichain([PartialConfig.make(q)]) if w == 0 else Antichain())
                for q, w in solve_abstract_energy_parity(self.game, self.budget).items()
            }
        else:
            for c in sorted(C):
                self.frontier(C - {c})  # populate the smaller tables first
            counters_order = tuple(c for c in self.game.counters if c in C)
            result = {}
            for q in self.game.state_names():
                result[q] = vj_minimize(self.membership, q, counters_order, self.budget)
        self._frontiers[C] = result
        return result


def _extract_minimal(
    query: Callable[[PartialConfig], bool],
    corner: PartialConfig,
    counters_order: Sequence[str],
) -> PartialConfig:
    """Lower a positive box corner to a minimal element of the set inside its
    box, in one pass: fill each undefined counter by counting up from 0, then
    binary-search each defined one down, both in counter order.  A filled
    value x is least, since x - 1 failed while the later counters were still
    undefined and every later step only fixes those or lowers others; a
    searched value stays least for the same reason."""
    defined, gamma = corner.dom, corner
    for c in [c for c in counters_order if c not in defined]:
        x = 0
        while not query(gamma.with_value(c, x)):
            x += 1
            if x > EXTRACT_LIMIT:
                raise BudgetExceeded("witness extraction exceeded %d on %s" % (EXTRACT_LIMIT, c))
        gamma = gamma.with_value(c, x)
    for c in [c for c in counters_order if c in defined]:
        lo, hi = 0, gamma.get(c)
        while lo < hi:
            mid = (lo + hi) // 2
            if query(gamma.with_value(c, mid)):
                hi = mid
            else:
                lo = mid + 1
        gamma = gamma.with_value(c, lo)
    return gamma


Box = Dict[str, int]  # upper bounds of a downward closed box; other counters unbounded


def _inside(a: Box, b: Box) -> bool:
    """Is every point of box (or point) a in box b?"""
    return all(c in a and a[c] <= v for c, v in b.items())


def vj_minimize(
    query: Callable[[PartialConfig], bool],
    state: str,
    counters_order: Sequence[str],
    budget: Optional[Budget] = None,
) -> Antichain:
    """Compute the minimal elements of the upward closed set described by the
    membership oracle (does some full instantiation of a partial
    configuration belong to it?), Valk-Jantzen style, from one worklist of
    boxes that may still hold minima.  A box's corner is its largest point,
    so the box meets the set iff the corner is in it: one probe decides each
    box, once.  On "no" the box is dropped; on "yes" the corner is lowered to
    a new minimum m, and every open box containing m gives way to its
    undercuts, one per counter c with m[c] > 0, bounded by m[c] - 1.  Boxes
    inside other open boxes are dropped.  The open boxes cover all that is
    neither above a minimum nor in a dropped box, so the set is the upward
    closure of the minima once none is left.  Every probe, witness
    extraction included, first checks the deadline."""
    budget = budget or Budget()

    def probe(g: PartialConfig) -> bool:
        budget.check_time("Valk-Jantzen minimisation")
        return query(g)

    minima: List[PartialConfig] = []
    boxes: List[Box] = [{}]
    while boxes:
        box = boxes.pop()
        corner = PartialConfig(state, tuple(box.items()))
        if not probe(corner):
            continue
        new = _extract_minimal(probe, corner, counters_order)
        if any(leq(m, new) or leq(new, m) for m in minima):
            raise RuntimeError("oracle is not upward closed: %s overlaps known minima" % new)
        minima.append(new)
        m = new.valuation
        split = [b for b in boxes if _inside(m, b)] + [box]
        boxes = [b for b in boxes if not _inside(m, b)]
        for cut in ({**b, c: m[c] - 1} for b in split for c in counters_order if m[c] > 0):
            if not any(_inside(cut, b) for b in boxes):
                boxes = [b for b in boxes if not _inside(b, cut)] + [cut]
    return Antichain(minima)


def pareto_single_sided_vass(
    game: IntegerGame,
    counters: Iterable[str],
    budget: Optional[Budget] = None,
) -> Dict[str, Antichain]:
    """Per-state Pareto frontier of minimal credit on the tracked counters
    under VASS semantics, for a single-sided game."""
    table = ParetoTable(game, budget)
    return table.frontier(frozenset(counters))
