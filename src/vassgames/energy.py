"""Abstract energy parity solving and the energy-to-single-sided embedding.

The abstract question asks, per state, whether Player 0 wins the parity
objective while keeping every counter nonnegative for *some* initial credit.
Player 1 has positional optimal strategies for this objective, so the solver
enumerates Player-1 positional strategies and analyses each induced
one-player graph: Player 0 wins from a state iff it can reach a vertex v of
even color d that lies on a closed walk with componentwise nonnegative effect
inside the subgraph of colors <= d.  Closed-walk existence is a circulation
feasibility question; for one counter it reduces to longest-path reasoning
and for more counters it is decided with an exact integer simplex plus
support pruning.

The single-sided embedding of energy games splits only Player-1 counter
updates.  Its losing escapes come from core.complete_with_sinks, which adds
one exactly at the states whose every move is a decrement: the only states
that counters at 0 can leave without a move.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import _simplex
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

NEG_INF = None  # marker for "unreachable" in longest-path tables


def _tarjan_sccs(n: int, adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Iterative Tarjan; returns SCCs as lists of vertex indices."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(adj[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _has_positive_cycle(verts: Set[int], edges: List[Tuple[int, int, int]]) -> bool:
    """One-dimensional effect: is there a cycle with strictly positive sum?"""
    dist = {v: 0 for v in verts}
    for _ in range(len(verts)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return changed


def _best_closed_walk(v0: int, verts: Set[int], edges: List[Tuple[int, int, int]]) -> Optional[int]:
    """Max effect of a closed walk through v0 (assumes no positive cycle)."""
    dist: Dict[int, Optional[int]] = {v: NEG_INF for v in verts}
    dist[v0] = 0
    for _ in range(max(len(verts) - 1, 1)):
        for u, v, w in edges:
            du = dist[u]
            if du is not None and (dist[v] is None or du + w > dist[v]):
                dist[v] = du + w
    best: Optional[int] = None
    for u, v, w in edges:
        if v == v0 and dist[u] is not None:
            cand = dist[u] + w
            if best is None or cand > best:
                best = cand
    return best


def _circulation_feasible(
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    active: List[int],
    required: int,
    dims: int,
) -> bool:
    """Is there a circulation over the active edges with x[required] >= 1 and
    componentwise nonnegative total effect?"""
    verts = sorted({edges[e][0] for e in active} | {edges[e][1] for e in active})
    n = len(active)
    eq_rows = []
    for v in verts:
        coeffs = [0] * n
        for j, e in enumerate(active):
            u, w, _ = edges[e]
            if u == v:
                coeffs[j] += 1
            if w == v:
                coeffs[j] -= 1
        eq_rows.append((coeffs, 0))
    ge_rows = []
    for d in range(dims):
        coeffs = [edges[e][2][d] for e in active]
        ge_rows.append((coeffs, 0))
    lower = [1 if active[j] == required else 0 for j in range(n)]
    return _simplex.feasible(n, eq_rows, ge_rows, lower)


def _good_multi(
    v0: int,
    edge_ids: List[int],
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    dims: int,
) -> bool:
    """Support-pruning fixpoint: keep edges usable by some nonnegative-effect
    circulation, restrict to the strongly connected piece around v0, repeat.
    Feasible iff the fixpoint still touches v0."""
    active = list(edge_ids)
    while active:
        kept = [e for e in active if _circulation_feasible(edges, active, e, dims)]
        if not kept:
            return False
        verts = sorted({edges[e][0] for e in kept} | {edges[e][1] for e in kept})
        vpos = {v: i for i, v in enumerate(verts)}
        adj: List[List[int]] = [[] for _ in verts]
        for e in kept:
            adj[vpos[edges[e][0]]].append(vpos[edges[e][1]])
        comp_of = {}
        for comp in _tarjan_sccs(len(verts), adj):
            for i in comp:
                comp_of[verts[i]] = id(comp)
        if v0 not in comp_of:
            return False
        cv = comp_of[v0]
        nxt = [e for e in kept if comp_of[edges[e][0]] == cv and comp_of[edges[e][1]] == cv]
        if not any(edges[e][0] == v0 or edges[e][1] == v0 for e in nxt):
            return False
        if nxt == active:
            return True
        active = nxt
    return False


def _one_player_win_set(
    n: int,
    colors: Sequence[int],
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    dims: int,
) -> Set[int]:
    """States from which the single remaining player (Player 0) wins the
    abstract energy parity objective in a fixed graph."""
    good: Set[int] = set()
    for d in sorted({colors[v] for v in range(n) if colors[v] % 2 == 0}):
        verts = [v for v in range(n) if colors[v] <= d]
        vset = set(verts)
        sub = [(i, e) for i, e in enumerate(edges) if e[0] in vset and e[1] in vset]
        if not sub:
            continue
        comps: List[List[int]] = []
        # restrict Tarjan to the sub-vertices via a compact relabeling
        vmap = {v: i for i, v in enumerate(verts)}
        radj: List[List[int]] = [[] for _ in verts]
        for _, (u, v, _dl) in sub:
            radj[vmap[u]].append(vmap[v])
        for comp in _tarjan_sccs(len(verts), radj):
            comps.append([verts[i] for i in comp])
        for comp in comps:
            cset = set(comp)
            cand = [v for v in comp if colors[v] == d and v not in good]
            if not cand:
                continue
            comp_edges = [(i, e) for i, e in sub if e[0] in cset and e[1] in cset]
            if not comp_edges:
                continue
            if dims == 1:
                scalar = [(u, v, dl[0]) for _, (u, v, dl) in comp_edges]
                if _has_positive_cycle(cset, scalar):
                    good.update(cand)
                else:
                    for v0 in cand:
                        best = _best_closed_walk(v0, cset, scalar)
                        if best is not None and best >= 0:
                            good.add(v0)
            else:
                ids = [i for i, _ in comp_edges]
                for v0 in cand:
                    if _good_multi(v0, ids, edges, dims):
                        good.add(v0)
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


def solve_abstract_energy_parity(
    game: IntegerGame,
    budget: Optional[Budget] = None,
) -> Dict[str, int]:
    """Per-state winner (0 or 1) of the parity-and-stay-nonnegative objective
    for some sufficiently large initial credit.

    Requires a deadlock-free game (syntactic check).  Enumeration stops as
    soon as no state is left winning for Player 0; it raises BudgetExceeded
    once more than budget.strategy_budget Player-1 strategies have been
    enumerated, or when the deadline passes."""
    budget = budget or Budget()
    # energy semantics never disables a move, so only sinks are a problem
    bad = [s.name for s in game.states if not game.out(s.name)]
    if bad:
        raise ValueError("states without moves: %s" % ", ".join(bad))

    moves = game.moves
    if not game.counters:
        fg = FiniteParityGame(
            tuple([(s.owner, s.color) for s in game.states]),
            tuple([tuple([dst for dst, _, _ in ms]) for ms in moves]),
        )
        w0, _, _, _ = solve_parity(fg)
        return {s.name: (0 if v in w0 else 1) for v, s in enumerate(game.states)}

    colors = [s.color for s in game.states]
    dims = len(game.counters)
    zero = (0,) * dims
    # effect[c][delta + 1] is the effect vector of a move changing counter c
    # by delta; a move on no counter (c = -1) reads the all-zero last row
    effect = [[zero[:c] + (d,) + zero[c + 1:] for d in (-1, 0, 1)] for c in range(dims)] + [[zero] * 3]
    fixed_edges = []
    p1_choices: List[List[Tuple[int, int, Tuple[int, ...]]]] = []
    for v, (s, ms) in enumerate(zip(game.states, moves)):
        es = [(v, dst, effect[c][delta + 1]) for dst, c, delta in ms]
        if s.owner == 1 and len(es) > 1:
            p1_choices.append(es)
        else:
            fixed_edges.extend(es)

    n = len(game.states)
    win = set(range(n))
    ticks = 0
    for combo in itertools.product(*p1_choices):
        ticks += 1
        if ticks > budget.strategy_budget:
            raise BudgetExceeded(
                "abstract energy parity solver: strategy budget of %d Player-1 strategies exceeded"
                % budget.strategy_budget
            )
        budget.check_time("abstract energy parity solver")
        edges = fixed_edges + list(combo)
        win &= _one_player_win_set(n, colors, edges, dims)
        if not win:
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
