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

capped_grid builds only the part of the grid reachable from the given root
configurations.  The roots come first in the given order, then every other
configuration in the order a forward search over game.moves discovers it,
then at most two absorbing sinks, each made when a move first enters it:
Player 0's (color 0) for an overflow under OVERFLOW_WINS_P0, Player 1's
(color 1) for an energy underflow, and the opponent's for a stuck owner.
The explored set is closed under moves, so every play from a root stays
inside it: the game it induces is a subgame of the whole capped grid that
neither player can leave, and each explored configuration has the same
winner in both.  solve_capped solves that game for the oracle; the abstract
energy parity solver (energy.py) builds the same saturated grids under
energy semantics and reads both players' winning regions and Player 1's
strategy off them.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import Budget, IntegerGame, PartialConfig, is_single_sided
from .parity import FiniteParityGame, solve_parity
from .semantics import ENERGY, VASS

SATURATE = "saturate"
OVERFLOW_WINS_P0 = "overflow-wins-p0"

WIN0 = "win0"
WIN1 = "win1"
UNKNOWN = "unknown"


def capped_grid(
    game: IntegerGame,
    semantics: str,
    cap: int,
    mode: str,
    roots: Tuple[Tuple[str, Tuple[int, ...]], ...],
    budget: Optional[Budget] = None,
    layer: str = "capped bracket oracle",
) -> Tuple[FiniteParityGame, List[Tuple[int, Tuple[int, ...]]]]:
    """The part of the cap-limited grid that some play from roots can reach,
    numbered as the module docstring says, and its configurations as (state
    index, value vector in game.counters order): configuration i is vertex
    i.  Roots are (state name, value vector) pairs with all values in
    [0, cap]; a side with no enabled move loses.  Under energy semantics no
    move is disabled and, with SATURATE, none overflows, so each
    configuration's successors are its state's moves one for one.  The
    deadline of budget, if given, is checked on entry and every 64 explored
    configurations, naming layer."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if mode not in (SATURATE, OVERFLOW_WINS_P0):
        raise ValueError("unknown cap mode %r" % mode)
    if semantics not in (ENERGY, VASS):
        raise ValueError("unknown semantics %r" % semantics)
    if semantics == VASS and mode == SATURATE and not is_single_sided(game):
        raise ValueError("saturate mode under VASS semantics needs a single-sided game")

    k = len(game.counters)
    index = {s.name: i for i, s in enumerate(game.states)}
    # explored configurations, numbered from 0 and keyed by themselves
    configs: List[Tuple[int, Tuple[int, ...]]] = []
    number: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for name, vec in roots:
        if name not in index or len(vec) != k or not all(0 <= v <= cap for v in vec):
            raise ValueError("root %r is not a configuration of the cap-%d grid" % ((name, vec), cap))
        conf = (index[name], tuple(vec))
        if conf not in number:
            number[conf] = len(configs)
            configs.append(conf)
    succ: List[Tuple[int, ...]] = []
    entering: List[int] = []  # configurations moving into a sink, written ~winner until numbered
    moves = game.moves
    labels = [(st.owner, st.color) for st in game.states]
    for i, (s, vec) in enumerate(configs):  # grows while it is read
        if budget is not None and not i % 64:
            budget.check_time(layer)
        out = []
        for dst, c, delta in moves[s]:
            nvec = vec
            if c >= 0:
                nv = vec[c] + delta
                if nv < 0:
                    if semantics == VASS:
                        continue  # disabled
                    out.append(~1)  # underflow: Player 1 wins
                    continue
                if nv > cap:
                    if mode == OVERFLOW_WINS_P0:
                        out.append(~0)
                        continue
                    # saturate: the value stays at cap
                else:
                    nvec = vec[:c] + (nv,) + vec[c + 1:]
            conf = (dst, nvec)
            w = number.get(conf)
            if w is None:
                w = number[conf] = len(configs)
                configs.append(conf)
            out.append(w)
        if not out:
            out.append(~(1 - labels[s][0]))  # stuck: the owner's opponent wins
        if min(out) < 0:
            entering.append(i)
        succ.append(tuple(out))
    sink: Dict[int, int] = {}  # winner -> its sink vertex, in order of first use
    for v in entering:
        succ[v] = tuple(w if w >= 0 else sink.setdefault(~w, len(configs) + len(sink)) for w in succ[v])
    vertices = [labels[s] for s, _ in configs] + [(0, w) for w in sink]
    succ += [(v,) for v in sink.values()]
    return FiniteParityGame(tuple(vertices), tuple(succ)), configs


def solve_capped(
    game: IntegerGame,
    semantics: str,
    cap: int,
    mode: str,
    roots: Tuple[Tuple[str, Tuple[int, ...]], ...],
    budget: Optional[Budget] = None,
) -> Dict[Tuple[str, Tuple[int, ...]], int]:
    """Winner (0 or 1) of every configuration of capped_grid(game, semantics,
    cap, mode, roots), keyed by (state name, value vector in game.counters
    order); they are the winners of the whole grid."""
    grid, configs = capped_grid(game, semantics, cap, mode, roots, budget)
    w0, _, _, _ = solve_parity(grid, budget)
    names = game.state_names()
    return {(names[s], vec): 0 if v in w0 else 1 for v, (s, vec) in enumerate(configs)}


def bracket_decide(
    game: IntegerGame,
    semantics: str,
    gamma: PartialConfig,
    max_cap: int = 64,
    budget: Optional[Budget] = None,
) -> str:
    """Decide the winner at a concrete configuration by doubling caps.

    Returns "win0" when the saturating cap game is won by Player 0 (sound),
    "win1" when the overflow-favors-Player-0 cap game is won by Player 1
    (sound), and "unknown" when neither happens up to max_cap.  The grids
    check the deadline of budget, if given, and raise BudgetExceeded naming
    the capped bracket oracle once it passes."""
    if gamma.dom != frozenset(game.counters):
        raise ValueError("bracket_decide needs a concrete configuration")
    vec = tuple(gamma.valuation[c] for c in game.counters)
    if vec and max(vec) > max_cap:
        return UNKNOWN
    root = (gamma.state, vec)
    roots = (root,)
    cap = max([1] + [v for v in vec]) + 1 if vec else 1
    saturate_ok = not (semantics == VASS and not is_single_sided(game))
    while True:
        cap = min(cap, max_cap)
        if saturate_ok:
            if solve_capped(game, semantics, cap, SATURATE, roots, budget=budget)[root] == 0:
                return WIN0
        if solve_capped(game, semantics, cap, OVERFLOW_WINS_P0, roots, budget=budget)[root] == 1:
            return WIN1
        if cap >= max_cap:
            return UNKNOWN
        cap *= 2
