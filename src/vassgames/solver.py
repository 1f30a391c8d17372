"""Pareto frontiers of minimal winning credit in single-sided VASS parity games.

The solver works by induction on the tracked counter subset C:

* C = {}: the abstract verdict per state, which for single-sided games equals
  the abstract energy parity verdict.
* C nonempty: membership of a configuration with domain C is decided by
  unfolding the game into a finite "out-game" whose states carry labels over C
  (a Karp-Miller style construction, finite by Dickson's lemma) and whose
  counters are the untracked ones; leaves are recolored losing when the label
  drops out of the smaller frontiers (coverability test against their union
  beta) and winning when a label strictly dominates one of its ancestors.  The
  out-games of one layer C share one label index, which tests each label's
  coverage and steps it once, and a node's ancestors are read off the tree its
  strongly connected components form.  The frontier itself is then recovered
  from the membership oracle, Valk-Jantzen style, by a worklist of downward
  closed boxes that still may hold frontier elements.  A box meets the upward
  closed winning set iff its corner does, so one probe decides a box; a
  positive corner is lowered to a minimal element in one pass over the
  counters, and the boxes containing that element are cut just below it.
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


class _Label:
    """One label of a LabelIndex."""

    __slots__ = ("num", "cfg", "vals", "leaf", "succ")

    def __init__(self, num: int, cfg: PartialConfig, vals: Tuple[int, ...], leaf: Optional[int]):
        self.num, self.cfg, self.vals, self.leaf, self.succ = num, cfg, vals, leaf, None


class LabelIndex:
    """The labels over C of one layer, numbered as they are met and shared
    by its out-games.  Each keeps its values, its leaf color (1 if beta does
    not cover it, tested once; else None) and, once a node with it expands,
    its successors (label number, out-game op, original tid), stepped once
    by vass_step.  Labels refer to each other by number only, so a dropped
    index is freed at once."""

    def __init__(self, game: IntegerGame, C: FrozenSet[str], beta: Iterable[PartialConfig]):
        self.game, self.C, self.beta = game, C, list(beta)
        self.number: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self.labels: List[_Label] = []
        self.beta_of: Dict[Tuple[str, FrozenSet[str]], List[Tuple[int, ...]]] = {}
        for b in self.beta:
            self.beta_of.setdefault((b.state, b.dom), []).append(tuple(v for _, v in b.items))
        self.drops = [C - {c} for c in sorted(C)]

    def covered(self, state: str, vals: Tuple[int, ...]) -> bool:
        """Is the label covered by beta, each drop of one counter by beta's elements of its domain?"""
        return all(any(all(x <= y for x, y in zip(b, vals[:i] + vals[i + 1:]))
                       for b in self.beta_of.get((state, dom), ())) for i, dom in enumerate(self.drops))

    def label(self, cfg: PartialConfig) -> int:
        key = (cfg.state, tuple(v for _, v in cfg.items))
        if key not in self.number:
            self.number[key] = len(self.labels)
            self.labels.append(_Label(len(self.labels), cfg, key[1], None if self.covered(*key) else 1))
        return self.number[key]

    def successors(self, lab: _Label) -> List[Tuple[int, CounterOp, str]]:
        if lab.succ is None:
            steps = [(vass_step(self.game, lab.cfg, t.tid), t) for t in self.game.out(lab.cfg.state)]
            lab.succ = [(self.label(nxt), NOP_OP if t.op.counter in self.C else t.op, t.tid)
                        for nxt, t in steps if nxt is not None]
        return lab.succ


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
    index: Optional[LabelIndex] = None,
) -> OutGame:
    """Unfold the game from gamma (domain C nonempty) into a finite game over
    the untracked counters; the out-games of one layer may share index, the
    label index of C over the same beta.

    Nodes are labeled with configurations of domain C and expanded in the order
    they are created, the order the out-game lists them in.  A node whose label
    beta does not cover becomes a losing (color 1) leaf, one whose label
    strictly dominates an ancestor's a winning (color 0) leaf.  Other nodes
    expand along the VASS-enabled transitions, rewriting updates of tracked
    counters to Nop, and merge with the earliest node carrying an equal label
    among themselves and their ancestors: every node with a path to them, not
    only their branch.  Each precedes them on some play, so a label below
    theirs is a pumping witness as on the branch, and the out-games are several
    times smaller.  An expanding node's one in-edge comes from its creator, as
    a merge edge u -> v needs v = u or v an ancestor of u.  Each merge edge
    u -> v closes a cycle v ~> u -> v, so the strongly connected components
    form a tree under the creation edges, each entered only by its earliest
    node's creation edge; merging the components on the path from u's up to v's
    keeps it so.  The ancestors of q are thus the members of the components
    from its creator's up to the root's.  Union-find keeps the components,
    rooted at their earliest node, each with a bit mask of its members (bit n
    for node n; kept once a component has two), and each label has a mask of
    the nodes carrying it."""
    budget = budget or Budget()
    C = gamma.dom
    if not C:
        raise ValueError("build_out_game needs a nonempty tracked domain")
    index = index or LabelIndex(game, C, beta)
    nodes: List[_Label] = []
    creator: List[int] = []  # -1 for the root
    up: List[int] = []  # union-find links
    members: Dict[int, int] = {}  # at each root of a component of two or more nodes, their mask
    holders: Dict[int, int] = {}  # label number -> mask of the nodes carrying it
    present: Dict[str, List[_Label]] = {}  # per state, the labels its nodes carry
    states: List[State] = []
    edges: List[Tuple[int, int, CounterOp, Optional[str]]] = []  # source, target, op, original tid

    def new_node(lab: _Label, parent: int) -> int:
        n = len(nodes)
        if n >= budget.node_budget:
            raise BudgetExceeded("out-game node budget exceeded")
        nodes.append(lab)
        creator.append(parent)
        up.append(n)
        if lab.num not in holders:
            present.setdefault(lab.cfg.state, []).append(lab)
        holders[lab.num] = holders.get(lab.num, 0) | 1 << n
        return n

    def find(n: int) -> int:
        while up[n] != n:
            up[n] = n = up[up[n]]
        return n

    new_node(index.labels[index.label(gamma)], -1)
    for q, lab in enumerate(nodes):  # nodes grows while it is walked
        if q % 64 == 63:
            budget.check_time("out-game unfolding")
        anc, r, leaf = 0, creator[q], lab.leaf
        while r >= 0 and leaf is None:  # the components from the creator's up
            r = find(r)
            anc, r = anc | (members.get(r) or 1 << r), creator[r]
        if leaf is None and any(holders[o.num] & anc and all(x <= y for x, y in zip(o.vals, lab.vals))
                                for o in present[lab.cfg.state] if o is not lab):
            leaf = 0
        st = game.state(lab.cfg.state)
        states.append(State("n%d" % q, st.owner, st.color if leaf is None else leaf))
        if leaf is not None:
            edges.append((q, q, NOP_OP, None))
            continue
        anc |= 1 << q
        for num, op, tid in index.successors(lab):
            hit = holders.get(num, 0) & anc
            if hit:
                target = (hit & -hit).bit_length() - 1
                r, top = find(q), find(target)
                while r != top:  # merge the components from q's up to the target's
                    up[r] = parent = find(creator[r])
                    members[parent] = (members.get(parent) or 1 << parent) | (members.pop(r, 0) or 1 << r)
                    r = parent
            else:
                target = new_node(index.labels[num], q)
            edges.append((q, target, op, tid))

    tids = ["e%d" % i for i in range(len(edges))]
    transitions = tuple(Transition(tid, states[s].name, op, states[t].name) for tid, (s, t, op, _) in zip(tids, edges))
    out_game = IntegerGame(tuple(c for c in game.counters if c not in C), tuple(states), transitions)
    return OutGame(out_game, "n0", {st.name: lab.cfg for st, lab in zip(states, nodes)},
                   {tid: e[3] for tid, e in zip(tids, edges)})


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
        self._indexes: Dict[FrozenSet[str], LabelIndex] = {}

    def _beta(self, C: FrozenSet[str]) -> List[PartialConfig]:
        return [b for c in sorted(C) for ac in self.frontier(C - {c}).values() for b in ac]

    def membership(self, gamma: PartialConfig) -> bool:
        """Does gamma lie in the Player-0 winning set with its own domain
        tracked, that is, can Player 0 win from gamma with some credit on
        the counters gamma leaves undefined?  An empty domain, or one whose
        frontier is stored, is read off that frontier; any other domain C is
        decided by one cached out-game over it, and the out-games over C
        share one label index.  While frontier(C) runs, every proper subset
        of C is stored and C is not, so its Valk-Jantzen probes build
        out-games only for corners over C."""
        C = gamma.dom
        if not C or C in self._frontiers:
            return self.frontier(C)[gamma.state].covers(gamma)
        if gamma not in self._query_cache:
            if C not in self._indexes:
                self._indexes[C] = LabelIndex(self.game, C, self._beta(C))
            out = build_out_game(self.game, gamma, self._indexes[C].beta, self.budget, self._indexes[C])
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
