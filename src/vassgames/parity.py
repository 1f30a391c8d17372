"""Finite parity games: Zielonka's recursive solver with strategy extraction
and an exhaustive strategy verifier for small instances.

Player 0 wins a play iff the highest color seen infinitely often is even.
Every vertex must have at least one outgoing edge.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple

Vertex = Hashable


@dataclass(frozen=True)
class FiniteParityGame:
    vertices: Tuple[Tuple[Vertex, int, int], ...]  # (id, owner, color)
    edges: Tuple[Tuple[Vertex, Vertex], ...]

    def __post_init__(self) -> None:
        ids = [v for v, _, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        idx = {v: i for i, v in enumerate(ids)}
        succ: List[List[int]] = [[] for _ in ids]
        for a, b in self.edges:
            if a not in idx or b not in idx:
                raise ValueError("edge uses unknown vertex")
            succ[idx[a]].append(idx[b])
        for i, ss in enumerate(succ):
            if not ss:
                raise ValueError("vertex %r has no outgoing edge" % (ids[i],))
        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_succ", tuple(tuple(s) for s in succ))

    @property
    def index(self) -> Dict[Vertex, int]:
        return self._idx  # type: ignore[attr-defined]

    @property
    def succ(self) -> Tuple[Tuple[int, ...], ...]:
        return self._succ  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Strategy:
    """Positional strategy: for each owned vertex, the chosen successor."""

    player: int
    choice: Tuple[Tuple[Vertex, Vertex], ...]

    def as_dict(self) -> Dict[Vertex, Vertex]:
        return dict(self.choice)


def _attractor(
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
    owner: Sequence[int],
    sub: Set[int],
    target: Set[int],
    player: int,
    strat: Dict[int, int],
) -> Set[int]:
    """Player's attractor to target within sub; records attractor moves for
    player's vertices newly pulled in (smallest successor index wins)."""
    attr = set(target)
    # count of sub-successors outside attr, for opponent vertices
    cnt = {}
    queue = list(target)
    for v in sub:
        if owner[v] != player and v not in attr:
            cnt[v] = sum(1 for w in succ[v] if w in sub)
    while queue:
        w = queue.pop()
        for v in pred[w]:
            if v not in sub or v in attr:
                continue
            if owner[v] == player:
                if v not in strat:
                    # chosen before v joins, so the move makes progress
                    strat[v] = min(u for u in succ[v] if u in attr)
                attr.add(v)
                queue.append(v)
            else:
                cnt[v] -= 1
                if cnt[v] == 0:
                    attr.add(v)
                    queue.append(v)
    return attr


def solve_parity(game: FiniteParityGame) -> Tuple[FrozenSet[Vertex], FrozenSet[Vertex], Strategy, Strategy]:
    """Zielonka's algorithm.  Returns (W0, W1, s0, s1) where s_i is a
    positional strategy for player i winning on W_i."""
    n = len(game.vertices)
    ids = [v for v, _, _ in game.vertices]
    owner = [o for _, o, _ in game.vertices]
    color = [c for _, _, c in game.vertices]
    succ = game.succ
    pred: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)

    def solve(sub: Set[int]) -> Tuple[Set[int], Set[int], Dict[int, int], Dict[int, int]]:
        if not sub:
            return set(), set(), {}, {}
        d = max(color[v] for v in sub)
        i = d % 2
        if d == 0:
            # all colors 0: Player 0 wins everywhere, any choice staying in sub
            s0 = {v: min(w for w in succ[v] if w in sub) for v in sub if owner[v] == 0}
            return set(sub), set(), s0, {}
        top = {v for v in sub if color[v] == d}
        strat_i: Dict[int, int] = {}
        a = _attractor(succ, pred, owner, sub, set(top), i, strat_i)
        w0p, w1p, s0p, s1p = solve(sub - a)
        opp = w1p if i == 0 else w0p
        if not opp:
            # player i wins all of sub
            si = dict(s0p if i == 0 else s1p)
            si.update(strat_i)
            for v in top:
                if owner[v] == i and v not in si:
                    si[v] = min(w for w in succ[v] if w in sub)
            if i == 0:
                return set(sub), set(), si, {}
            return set(), set(sub), {}, si
        strat_o: Dict[int, int] = dict(s1p if i == 0 else s0p)
        b = _attractor(succ, pred, owner, sub, set(opp), 1 - i, strat_o)
        w0q, w1q, s0q, s1q = solve(sub - b)
        if i == 0:
            w1 = w1q | b
            s1 = dict(s1q)
            s1.update(strat_o)
            return w0q, w1, s0q, s1
        w0 = w0q | b
        s0 = dict(s0q)
        s0.update(strat_o)
        return w0, w1q, s0, s1q

    w0, w1, s0, s1 = solve(set(range(n)))
    strat0 = Strategy(0, tuple((ids[v], ids[w]) for v, w in sorted(s0.items())))
    strat1 = Strategy(1, tuple((ids[v], ids[w]) for v, w in sorted(s1.items())))
    return frozenset(ids[v] for v in w0), frozenset(ids[v] for v in w1), strat0, strat1


def verify_strategy(
    game: FiniteParityGame,
    player: int,
    strategy: Strategy,
    claimed: Iterable[Vertex],
) -> bool:
    """Exhaustively check a positional strategy: against every positional
    opponent strategy, every play from a claimed vertex must loop with the
    right parity.  Raises ValueError when the strategy leaves the claimed
    region.  Intended for small games only."""
    idx = game.index
    succ = game.succ
    n = len(game.vertices)
    owner = [o for _, o, _ in game.vertices]
    color = [c for _, _, c in game.vertices]
    claimed_idx = {idx[v] for v in claimed}
    if not claimed_idx:
        return True
    choice = {idx[a]: idx[b] for a, b in strategy.choice}
    for v in claimed_idx:
        if owner[v] == player:
            if v not in choice:
                raise ValueError("strategy undefined at claimed vertex %r" % (game.vertices[v][0],))
            if choice[v] not in claimed_idx:
                raise ValueError("strategy leaves claimed region at %r" % (game.vertices[v][0],))
    opp_vertices = [v for v in range(n) if owner[v] != player]
    for combo in itertools.product(*(succ[v] for v in opp_vertices)):
        nxt = dict(choice)
        nxt.update(zip(opp_vertices, combo))
        # follow deterministic successor map from every claimed start
        ok_cache: Dict[int, bool] = {}
        for start in claimed_idx:
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
