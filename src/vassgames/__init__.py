"""Parity games on vector addition systems with states.

Decides who wins single-sided VASS parity games and computes the Pareto
frontier of minimal initial counter values that let Player 0 win; via an
embedding the same machinery answers multidimensional energy parity
questions, weak simulation of finite processes by labeled VASS, and guarded
positive mu-calculus model checking.
"""
from .core import (
    Antichain,
    Budget,
    BudgetExceeded,
    CounterOp,
    IntegerGame,
    PartialConfig,
    State,
    Transition,
    check_deadlock_free,
    complete_with_sinks,
    dec,
    inc,
    is_single_sided,
    leq,
)
from .semantics import ENERGY, VASS, vass_step
from .parity import FiniteParityGame, Strategy, solve_parity, verify_strategy
from .bounded import OVERFLOW_WINS_P0, SATURATE, UNKNOWN, WIN0, WIN1, bracket_decide, solve_capped
from .energy import energy_to_single_sided, pareto_energy, solve_abstract_energy_parity
from .solver import (
    OutGame,
    ParetoTable,
    build_out_game,
    covered_by,
    pareto_single_sided_vass,
    vj_minimize,
)
from .applications import (
    FiniteLTS,
    check_weaksim,
    global_model_check,
    model_check,
    mucalc_game,
    parse_formula,
    weaksim_game,
)

__version__ = "0.1.0"
