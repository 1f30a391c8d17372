"""Abstract energy parity solving and the energy-to-single-sided embedding.

The abstract question asks, per state, whether Player 0 wins the parity
objective while keeping every counter nonnegative for *some* initial credit.
Player 1 has positional optimal strategies for this objective (Chatterjee &
Doyen, "Energy parity games", TCS 2012), so fixing any positional Player-1
strategy sigma leaves a one-player graph: Player 0 wins from a state iff it
can reach a vertex v of even color d that lies on a closed walk with
componentwise nonnegative effect inside the subgraph of colors <= d.  Such a
walk stays inside one strongly connected component, so each component's
inner edges are tested once.

The solver narrows two sets of states until they are equal: sure, the
states Player 0 is proved to win, and win, the states that no Player-1
strategy tried so far makes Player 0 lose.  Then sure = win is the answer.
For caps K = 1, 2, 4, ..., MAX_CAP, while the grid fits in Budget.node_budget,
bounded.capped_grid builds the saturated grid (increments clamp at K) under
energy semantics from the roots (q, K, ..., K), which are its vertices
0..n-1 in state order, and Zielonka's algorithm solves it:
* q joins sure if (q, K, ..., K) is a grid win.  Saturation only ever
  lowers a counter, so the same strategy wins the real game with credit K.
* the grid gives a positional sigma to try: at each Player-1 state,
  Zielonka's choice at the grid configuration of largest value sum that
  Player 1 wins there, and the first move where it wins none.
Trying sigma removes from win the states that lose the one-player test under
it: by playing sigma, Player 1 beats every Player-0 strategy there from
every credit.  After the grids, every positional Player-1 strategy is tried
in turn, which is complete.  A state in sure but not in win would be a bug.
A game with at most ENUMERATION_LIMIT such strategies builds no grid, since
enumerating them is cheaper; sure stays empty, and the solver stops when
win is.

For one counter, a Bellman-Ford longest-path pass from all vertices at 0
either still improves after |V| rounds, and then a positive cycle exists and
every vertex of the component can pump it, or it settles on potentials p
with p(v) >= p(u) + w on every edge u -> v.  A cycle's effect is then the
sum of the nonpositive slacks p(u) + w - p(v) along it, so it is at most 0
and equals 0 iff every edge is tight; a closed walk splits into cycles, so
one through v with nonnegative effect exists iff v lies on a cycle of tight
edges.

For more counters, a closed walk's edge counts form a circulation: x >= 0 on
the edges, balanced at every vertex, with effect linear in x.  Support pruning
(Kosaraju & Sullivan, STOC 1988) keeps the edges of a strongly connected group
that some circulation with nonnegative effect uses (an exact simplex with
x >= 1 on the edge), splits the kept edges into strongly connected groups and
prunes each again, until a group keeps every edge.  The sum of its edges'
circulations, scaled to integers, is balanced, strongly connected, nonnegative
in effect and at least 1 on every edge, so it is Eulerian: one closed walk
through all of the group's vertices, which are good.  A nonnegative closed
walk is a circulation in every group that holds it, so it is never pruned.

The single-sided embedding of energy games splits only Player-1 counter
updates.  Its losing escapes come from core.complete_with_sinks, which adds
one exactly at the states whose every move is a decrement: the only states
that counters at 0 can leave without a move.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import _simplex
from .bounded import SATURATE, capped_grid
from .core import (
    Budget,
    BudgetExceeded,
    IntegerGame,
    NOP,
    NOP_OP,
    State,
    Transition,
    complete_with_sinks,
    fresh,
)
from .parity import FiniteParityGame, solve_parity
from .semantics import ENERGY

ABSTRACT = "abstract energy parity solver"  # the layer budgets name
ENUMERATION_LIMIT = 64  # Player-1 strategy products up to this skip the certificates
MAX_CAP = 32  # the largest certificate cap

Edge = Tuple[int, int, Tuple[int, ...]]  # (source, target, effect vector)


def _inner_edges(edges: List[Edge], ids: Sequence[int]) -> List[List[int]]:
    """The edges among ids that lie inside a strongly connected component of
    the graph they form, grouped by component, each group in ids order.
    Iterative Tarjan over the vertices those edges touch."""
    succ: Dict[int, List[int]] = {}
    for i in ids:
        u, v, _ = edges[i]
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    comp: Dict[int, int] = {}  # a visited vertex is on the stack until it gets one
    stack: List[int] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    groups: Dict[int, List[int]] = {}
    for i in ids:
        u, v, _ = edges[i]
        if comp[u] == comp[v]:
            groups.setdefault(comp[u], []).append(i)
    return list(groups.values())


def _good_1d(ids: List[int], edges: List[Edge]) -> Set[int]:
    """Vertices of one strongly connected group of one-counter edges that lie
    on a closed walk with nonnegative effect (see the module docstring)."""
    scalar = [(edges[i][0], edges[i][1], edges[i][2][0]) for i in ids]
    dist = {u: 0 for u, _, _ in scalar}
    for _ in range(len(dist)):
        changed = False
        for u, v, w in scalar:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    else:
        return set(dist)  # still improving after |V| rounds: a positive cycle
    tight = [i for i, (u, v, w) in zip(ids, scalar) if dist[v] == dist[u] + w]
    return {edges[i][0] for group in _inner_edges(edges, tight) for i in group}


def _good_multi(ids: List[int], edges: List[Edge], dims: int) -> Set[int]:
    """Vertices of one strongly connected group of multi-counter edges that
    lie on a closed walk with componentwise nonnegative effect, by support
    pruning over a worklist of groups (see the module docstring)."""
    good: Set[int] = set()
    groups = [ids]
    while groups:
        group = groups.pop()
        verts = sorted({edges[e][0] for e in group})  # every target is a source too
        eq_rows = [([(edges[e][0] == v) - (edges[e][1] == v) for e in group], 0) for v in verts]
        ge_rows = [([edges[e][2][d] for e in group], 0) for d in range(dims)]
        n = len(group)
        unit = [[0] * j + [1] + [0] * (n - j - 1) for j in range(n)]  # x[j] >= 1 for the j-th edge
        kept = [e for e, lower in zip(group, unit) if _simplex.feasible(n, eq_rows, ge_rows, lower)]
        if len(kept) == n:
            good.update(verts)
        else:
            groups.extend(_inner_edges(edges, kept))
    return good


def _one_player_win_set(
    n: int,
    colors: Sequence[int],
    edges: List[Edge],
    dims: int,
) -> Set[int]:
    """States from which the single remaining player (Player 0) wins the
    abstract energy parity objective in a fixed graph.

    A vertex of even color d is good when it lies on a closed walk with
    nonnegative effect among the vertices of color <= d; Player 0 wins from
    the states that reach a good vertex.  Such a walk stays inside one SCC of
    that subgraph, so each SCC holding a color-d candidate hands its inner
    edges once to _good_1d (one counter) or _good_multi (more), which both
    return the SCC's vertices that lie on such a walk."""
    good: Set[int] = set()
    for d in sorted({c for c in colors if c % 2 == 0}):
        sub = [i for i, (u, v, _) in enumerate(edges) if colors[u] <= d and colors[v] <= d]
        for group in _inner_edges(edges, sub):
            cand = {edges[i][0] for i in group if colors[edges[i][0]] == d} - good
            if cand:
                good |= cand & (_good_1d(group, edges) if dims == 1 else _good_multi(group, edges, dims))
    # backward reachability to a good vertex, over all edges
    pred: List[List[int]] = [[] for _ in range(n)]
    for u, v, _dl in edges:
        pred[v].append(u)
    win = set(good)
    queue = list(good)
    while queue:
        v = queue.pop()
        for u in pred[v]:
            if u not in win:
                win.add(u)
                queue.append(u)
    return win


def _edges(game: IntegerGame) -> Tuple[List[Edge], List[List[Edge]]]:
    """The moves of a game with counters as (source, target, effect vector)
    edges: those no Player-1 choice affects, and the choices of each
    branching Player-1 state in moves order."""
    dims = len(game.counters)
    zero = (0,) * dims
    # effect[c][delta + 1] is the effect vector of a move changing counter c
    # by delta; a move on no counter (c = -1) reads the all-zero last row
    effect = [[zero[:c] + (d,) + zero[c + 1:] for d in (-1, 0, 1)] for c in range(dims)] + [[zero] * 3]
    fixed_edges: List[Edge] = []
    p1_choices: List[List[Edge]] = []
    for v, (s, ms) in enumerate(zip(game.states, game.moves)):
        es = [(v, dst, effect[c][delta + 1]) for dst, c, delta in ms]
        if s.owner == 1 and len(es) > 1:
            p1_choices.append(es)
        else:
            fixed_edges.extend(es)
    return fixed_edges, p1_choices


def solve_abstract_energy_parity(
    game: IntegerGame,
    budget: Optional[Budget] = None,
) -> Dict[str, int]:
    """Per-state winner (0 or 1) of the parity-and-stay-nonnegative objective
    for some sufficiently large initial credit.

    Requires every state to have a move, since energy semantics never
    disables one; a state without moves is a ValueError.  With counters, one
    loop narrows sure, the states whose all-K root some certificate grid
    wins, and win, the states no Player-1 strategy tried so far makes Player
    0 lose, and stops when they are equal (see the module docstring).  Raises
    BudgetExceeded once more than budget.strategy_budget strategies have been
    tried, or when the deadline passes."""
    budget = budget or Budget()
    moves = game.moves
    # energy semantics never disables a move, so only sinks are a problem
    bad = [s.name for s, ms in zip(game.states, moves) if not ms]
    if bad:
        raise ValueError("states without moves: %s" % ", ".join(bad))

    if not game.counters:
        fg = FiniteParityGame(
            tuple([(s.owner, s.color) for s in game.states]),
            tuple([tuple([dst for dst, _, _ in ms]) for ms in moves]),
        )
        w0, _, _, _ = solve_parity(fg, budget, ABSTRACT)
        return {s.name: (0 if v in w0 else 1) for v, s in enumerate(game.states)}

    fixed_edges, p1_choices = _edges(game)
    n, k = len(game.states), len(game.counters)
    colors = [s.color for s in game.states]
    sure: Set[int] = set()
    win = set(range(n))

    def grid_strategies():
        # each cap's grid adds its wins to sure, then yields its sigma
        cap = 1
        while cap <= MAX_CAP and n * (cap + 1) ** k <= budget.node_budget:
            roots = tuple((q, (cap,) * k) for q in game.state_names())
            grid, configs = capped_grid(game, ENERGY, cap, SATURATE, roots, budget, ABSTRACT)
            w0, _, _, s1 = solve_parity(grid, budget, ABSTRACT)
            sure.update(q for q in range(n) if q in w0)  # root q is vertex q
            top: Dict[int, Tuple[int, int]] = {}  # state -> (value sum, vertex) of its largest Player-1 win
            for v, (s, vec) in enumerate(configs):
                if v in s1 and sum(vec) > top.get(s, (-1, 0))[0]:
                    top[s] = (sum(vec), v)
            sigma = []
            for es in p1_choices:
                if es[0][0] in top:
                    v = top[es[0][0]][1]
                    sigma.append(es[grid.succ[v].index(s1[v])])
                else:
                    sigma.append(es[0])  # Player 1 wins no configuration of this state
            yield sigma
            cap *= 2

    grids = grid_strategies() if math.prod(map(len, p1_choices)) > ENUMERATION_LIMIT else ()
    for tried, sigma in enumerate(itertools.chain(grids, itertools.product(*p1_choices)), 1):
        if tried > budget.strategy_budget:
            raise BudgetExceeded(
                "%s: strategy budget of %d Player-1 strategies exceeded" % (ABSTRACT, budget.strategy_budget)
            )
        budget.check_time(ABSTRACT)
        win &= _one_player_win_set(n, colors, fixed_edges + list(sigma), k)
        if sure - win:
            raise AssertionError("a state won on a capped grid loses under a Player-1 strategy")
        if win == sure:
            break
    return {s.name: (0 if v in win else 1) for v, s in enumerate(game.states)}


def energy_to_single_sided(game: IntegerGame) -> IntegerGame:
    """Embed an energy parity game into a single-sided game whose VASS parity
    verdicts on the original states coincide with the energy verdicts.

    Transitions keep their ids and order, but a Player-1 counter update is
    split by a fresh color-0 Player-0 middle state entered by a nop; then
    complete_with_sinks gives every state whose moves are all decs (a middle
    state firing a dec among them) an escape to a losing sink.  Sound: a move
    taking a counter below 0 loses at once under energy semantics, so
    disabling a Player-0 dec at 0 changes no verdict: the state keeps a nop
    or inc, or else the escape, which only ever loses; a Player-1 dec at 0
    forces its middle state onto the escape, exactly the energy loss; and
    color-0 middle states never change a cycle's highest color, colors being
    max-parity and nonnegative.  Generated names are fresh against the input
    and each other."""
    state_names = set(game.state_names())
    tids = {t.tid for t in game.transitions}
    states: List[State] = list(game.states)
    transitions: List[Transition] = []
    for t in game.transitions:
        if t.op.kind != NOP and game.state(t.source).owner == 1:
            mid = fresh("__t_%s" % t.tid, state_names)
            states.append(State(mid, 0, 0))
            transitions.append(Transition(fresh("%s__in" % t.tid, tids), t.source, NOP_OP, mid))
            t = Transition(fresh("%s__do" % t.tid, tids), mid, t.op, t.target)
        transitions.append(t)
    return complete_with_sinks(IntegerGame(game.counters, tuple(states), tuple(transitions)))


def pareto_energy(
    game: IntegerGame,
    counters: Iterable[str],
    budget: Optional[Budget] = None,
) -> Dict[str, "object"]:
    """Pareto frontier of minimal initial credit for the energy parity
    objective, per original state, over the given counter subset."""
    from .solver import pareto_single_sided_vass

    table = pareto_single_sided_vass(energy_to_single_sided(game), frozenset(counters), budget)
    return {q: table[q] for q in game.state_names()}
