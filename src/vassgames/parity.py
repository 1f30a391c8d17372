"""Finite parity games: Zielonka's recursive solver with strategy extraction
and an exhaustive strategy verifier for small instances.

Vertices are the integers 0..n-1: vertices[v] is v's (owner, color) and
succ[v] the tuple of its successors.  Callers number their vertices
themselves (see bounded.solve_capped and IntegerGame.moves); winning sets
and strategies are given in the same numbers.

Player 0 wins a play iff the highest color seen infinitely often is even.
Every vertex must have at least one outgoing edge.

solve_parity marks subgames in place instead of copying vertex sets: the
bytearray alive holds 1 for each vertex of the subgame being solved.  A
recursive call on the subgame minus an attractor clears the attractor's
vertices in alive and sets them again when it returns, so each call holds
only the list of its own vertices.  Each attractor marks its members with a
stamp of its own and counts an opponent vertex's alive successors the first
time it reaches that vertex (Friedmann & Lange, "Solving parity games in
practice", ATVA 2009).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple


@dataclass(frozen=True)
class FiniteParityGame:
    vertices: Tuple[Tuple[int, int], ...]  # (owner, color) per vertex
    succ: Tuple[Tuple[int, ...], ...]  # successors per vertex

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(self.succ) != n:
            raise ValueError("succ has %d entries for %d vertices" % (len(self.succ), n))
        for v, ss in enumerate(self.succ):
            if not ss:
                raise ValueError("vertex %d has no outgoing edge" % v)
            if min(ss) < 0 or max(ss) >= n:
                raise ValueError("vertex %d has an edge to an unknown vertex" % v)


@dataclass(frozen=True)
class Strategy:
    """Positional strategy: for each owned vertex, the chosen successor."""

    player: int
    choice: Tuple[Tuple[int, int], ...]

    def as_dict(self) -> Dict[int, int]:
        return dict(self.choice)


def solve_parity(game: FiniteParityGame) -> Tuple[FrozenSet[int], FrozenSet[int], Strategy, Strategy]:
    """Zielonka's algorithm.  Returns (W0, W1, s0, s1) where s_i is a
    positional strategy for player i winning on W_i."""
    n = len(game.vertices)
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    succ = game.succ
    pred: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    alive = bytearray(b"\x01") * n
    stamp = [0] * n  # stamp[v] == mark: v is in the attractor being built
    marks = itertools.count(1)

    def attractor(target: List[int], player: int, strat: Dict[int, int]) -> List[int]:
        """Player's attractor to target within the alive vertices; records
        attractor moves for player's vertices newly pulled in."""
        mark = next(marks)
        for v in target:
            stamp[v] = mark
        attr = list(target)
        left: Dict[int, int] = {}  # opponent vertex -> alive successors outside attr
        for w in attr:  # grows while it is read
            for v in pred[w]:
                if not alive[v] or stamp[v] == mark:
                    continue
                if owner[v] == player:
                    if v not in strat:
                        # w joined before v, so the move makes progress
                        strat[v] = w
                else:
                    c = left.get(v)
                    if c is None:
                        c = sum([alive[u] for u in succ[v]])
                    left[v] = c = c - 1
                    if c:
                        continue
                stamp[v] = mark
                attr.append(v)
        return attr

    def solve(sub: List[int]) -> Tuple[List[int], List[int], Dict[int, int], Dict[int, int]]:
        if not sub:
            return [], [], {}, {}
        d = max([color[v] for v in sub])
        i = d % 2
        if d == 0:
            # all colors 0: Player 0 wins everywhere, any choice staying in sub
            s0 = {v: min(w for w in succ[v] if alive[w]) for v in sub if owner[v] == 0}
            return sub, [], s0, {}
        top = [v for v in sub if color[v] == d]
        strat_i: Dict[int, int] = {}
        a = attractor(top, i, strat_i)
        for v in a:
            alive[v] = 0
        w0p, w1p, s0p, s1p = solve([v for v in sub if alive[v]])
        for v in a:
            alive[v] = 1
        opp = w1p if i == 0 else w0p
        if not opp:
            # player i wins all of sub
            si = s0p if i == 0 else s1p
            si.update(strat_i)
            for v in top:
                if owner[v] == i and v not in si:
                    si[v] = min(w for w in succ[v] if alive[w])
            if i == 0:
                return sub, [], si, {}
            return [], sub, {}, si
        strat_o = s1p if i == 0 else s0p
        b = attractor(opp, 1 - i, strat_o)
        for v in b:
            alive[v] = 0
        w0q, w1q, s0q, s1q = solve([v for v in sub if alive[v]])
        for v in b:
            alive[v] = 1
        if i == 0:
            s1q.update(strat_o)
            return w0q, w1q + b, s0q, s1q
        s0q.update(strat_o)
        return w0q + b, w1q, s0q, s1q

    w0, w1, s0, s1 = solve(list(range(n)))
    strat0 = Strategy(0, tuple(sorted(s0.items())))
    strat1 = Strategy(1, tuple(sorted(s1.items())))
    return frozenset(w0), frozenset(w1), strat0, strat1


def verify_strategy(
    game: FiniteParityGame,
    player: int,
    strategy: Strategy,
    claimed: Iterable[int],
) -> bool:
    """Exhaustively check a positional strategy: against every positional
    opponent strategy, every play from a claimed vertex must loop with the
    right parity.  Raises ValueError when the strategy leaves the claimed
    region.  Intended for small games only."""
    succ = game.succ
    n = len(game.vertices)
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    region = set(claimed)
    if not region:
        return True
    choice = strategy.as_dict()
    for v in region:
        if owner[v] == player:
            if v not in choice:
                raise ValueError("strategy undefined at claimed vertex %d" % v)
            if choice[v] not in region:
                raise ValueError("strategy leaves claimed region at %d" % v)
    opp_vertices = [v for v in range(n) if owner[v] != player]
    for combo in itertools.product(*(succ[v] for v in opp_vertices)):
        nxt = dict(choice)
        nxt.update(zip(opp_vertices, combo))
        # follow deterministic successor map from every claimed start
        ok_cache: Dict[int, bool] = {}
        for start in region:
            v = start
            seen: Dict[int, int] = {}
            path: List[int] = []
            while True:
                if v in ok_cache:
                    ok = ok_cache[v]
                    break
                if v in seen:
                    cyc = path[seen[v]:]
                    top = max(color[u] for u in cyc)
                    ok = (top % 2 == 0) == (player == 0)
                    break
                if v not in nxt:
                    # play escaped to a vertex where the strategy is silent
                    ok = False
                    break
                seen[v] = len(path)
                path.append(v)
                v = nxt[v]
            for u in path:
                ok_cache[u] = ok
            if not ok:
                return False
    return True
