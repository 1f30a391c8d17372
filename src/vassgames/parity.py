"""Finite parity games: Zielonka's algorithm with strategy extraction.

Vertices are the integers 0..n-1: vertices[v] is v's (owner, color) and
succ[v] the tuple of its successors.  Callers number their vertices
themselves (bounded.capped_grid numbers configurations from 0 and puts its
sinks after them; IntegerGame.moves numbers states); winning sets and
strategies are given in the same numbers.

Player 0 wins a play iff the highest color seen infinitely often is even.
Every vertex must have at least one outgoing edge.

solve_parity marks subgames in place instead of copying vertex sets: the
bytearray alive holds 1 for each vertex of the subgame being solved.  A
call on the subgame minus an attractor clears the attractor's vertices in
alive and sets them again when it returns, so each call holds only the
list of its own vertices.  solve is Zielonka's definition with its two
recursive calls written as yields and run by core.drive on an explicit
stack, which checks budget's deadline before each call.
Each attractor marks its members with a stamp of its own and counts an
opponent vertex's alive successors the first time it reaches that vertex
(Friedmann & Lange, "Solving parity games in practice", ATVA 2009).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generator, List, Optional, Tuple

from .core import Budget, drive


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


def solve_parity(
    game: FiniteParityGame, budget: Optional[Budget] = None, layer: str = "capped bracket oracle"
) -> Tuple[FrozenSet[int], FrozenSet[int], Dict[int, int], Dict[int, int]]:
    """Zielonka's algorithm.  Returns (W0, W1, s0, s1) where s_i maps each
    vertex of player i in W_i to the successor of a positional strategy
    winning on W_i.  Raises BudgetExceeded naming layer past budget's deadline."""
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

    def solve(sub: List[int]) -> Generator:
        """W and S of sub, indexed by player; yields subgames to solve, sent back their (W, S)."""
        if not sub:
            return [[], []], [{}, {}]
        d = max([color[v] for v in sub])
        i = d % 2
        top = [v for v in sub if color[v] == d]
        strat_i: Dict[int, int] = {}
        a = attractor(top, i, strat_i)
        for v in a:
            alive[v] = 0
        W, S = yield [v for v in sub if alive[v]]
        for v in a:
            alive[v] = 1
        if not W[1 - i]:
            # player i wins all of sub
            W[i] = sub
            S[i].update(strat_i)
            for v in top:
                if owner[v] == i and v not in S[i]:
                    S[i][v] = min(w for w in succ[v] if alive[w])
            return W, S
        strat_o = S[1 - i]
        b = attractor(W[1 - i], 1 - i, strat_o)
        for v in b:
            alive[v] = 0
        W, S = yield [v for v in sub if alive[v]]
        for v in b:
            alive[v] = 1
        W[1 - i] += b
        S[1 - i].update(strat_o)
        return W, S

    W, S = drive(solve, list(range(n)), budget, layer)
    return frozenset(W[0]), frozenset(W[1]), S[0], S[1]
