"""Bounded-counter oracle: solve an integer game exactly on a capped value
grid and bracket the unbounded verdict between two cap treatments.

* saturate: increments clamp at the cap.  This only weakens Player 0, so a
  Player-0 win at any cap is sound for the unbounded game.  Under VASS
  semantics this argument needs the game to be single-sided (higher values
  must never help Player 1).
* overflow-wins-p0: crossing the cap ends the play in an even sink, i.e. the
  overflow is resolved in Player 0's favor.  This only strengthens Player 0,
  so a Player-1 win at any cap is sound.  An energy underflow ends in an odd
  sink in both modes.
"""
from __future__ import annotations

import itertools
from typing import Dict, Tuple

from .core import IntegerGame, PartialConfig, is_single_sided
from .parity import FiniteParityGame, solve_parity
from .semantics import ENERGY, VASS

SATURATE = "saturate"
OVERFLOW_WINS_P0 = "overflow-wins-p0"

WIN0 = "win0"
WIN1 = "win1"
UNKNOWN = "unknown"


def solve_capped(
    game: IntegerGame,
    semantics: str,
    cap: int,
    mode: str,
) -> Dict[Tuple[str, Tuple[int, ...]], int]:
    """Winner (0 or 1) of every configuration with all values in [0, cap].

    Configurations are keyed by (state, value vector in game.counters order).
    A side with no enabled move loses.

    The grid is solved as a FiniteParityGame numbered from game.moves:
    vertex 0 is the overflow sink and 1 the underflow sink, state s at
    vector vec is 2 + s*|grid| + rank(vec), where rank reads vec as a mixed
    radix number in base cap+1 with the last counter fastest, and the sinks
    of stuck configurations come last.  A move that changes counter c by
    delta therefore leads delta*stride[c] away from its target's vertex at
    the same vector, with stride[c] = (cap+1)**(k-1-c) for k counters.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if mode not in (SATURATE, OVERFLOW_WINS_P0):
        raise ValueError("unknown cap mode %r" % mode)
    if semantics not in (ENERGY, VASS):
        raise ValueError("unknown semantics %r" % semantics)
    if semantics == VASS and mode == SATURATE and not is_single_sided(game):
        raise ValueError("saturate mode under VASS semantics needs a single-sided game")

    k = len(game.counters)
    grid = list(itertools.product(range(cap + 1), repeat=k))  # in rank order
    size = len(grid)
    stride = [(cap + 1) ** (k - 1 - c) for c in range(k)]
    # overflow wins for Player 0, underflow loses
    vertices = [(0, 0), (0, 1)] + [(s.owner, s.color) for s in game.states for _ in grid]
    succ = [(0,), (1,)]
    stuck_sink: Dict[int, int] = {}  # owner -> sink vertex, for configs with no enabled move
    for s, moves in zip(game.states, game.moves):
        for r, vec in enumerate(grid):
            out = []
            for dst, c, delta in moves:
                w = 2 + dst * size + r
                if c >= 0:
                    nv = vec[c] + delta
                    if nv < 0:
                        if semantics == VASS:
                            continue  # disabled
                        w = 1
                    elif nv > cap:
                        if mode == OVERFLOW_WINS_P0:
                            w = 0  # else saturate: the value stays at cap
                    else:
                        w += delta * stride[c]
                out.append(w)
            if not out:
                # stuck: the owner loses
                if s.owner not in stuck_sink:
                    stuck_sink[s.owner] = len(vertices)
                    vertices.append((0, 1 if s.owner == 0 else 0))
                out.append(stuck_sink[s.owner])
            succ.append(tuple(out))
    succ.extend((v,) for v in stuck_sink.values())

    w0, _, _, _ = solve_parity(FiniteParityGame(tuple(vertices), tuple(succ)))
    return {
        (s.name, vec): 0 if 2 + i * size + r in w0 else 1
        for i, s in enumerate(game.states)
        for r, vec in enumerate(grid)
    }


def bracket_decide(
    game: IntegerGame,
    semantics: str,
    gamma: PartialConfig,
    max_cap: int = 64,
) -> str:
    """Decide the winner at a concrete configuration by doubling caps.

    Returns "win0" when the saturating cap game is won by Player 0 (sound),
    "win1" when the overflow-favors-Player-0 cap game is won by Player 1
    (sound), and "unknown" when neither happens up to max_cap."""
    if gamma.dom != frozenset(game.counters):
        raise ValueError("bracket_decide needs a concrete configuration")
    vec = tuple(gamma.valuation[c] for c in game.counters)
    if vec and max(vec) >= max_cap:
        return UNKNOWN
    cap = max([1] + [v for v in vec]) + 1 if vec else 1
    saturate_ok = not (semantics == VASS and not is_single_sided(game))
    while True:
        cap = min(cap, max_cap)
        if saturate_ok:
            if solve_capped(game, semantics, cap, SATURATE)[(gamma.state, vec)] == 0:
                return WIN0
        if solve_capped(game, semantics, cap, OVERFLOW_WINS_P0)[(gamma.state, vec)] == 1:
            return WIN1
        if cap >= max_cap:
            return UNKNOWN
        cap *= 2
