"""Abstract energy parity solving, the single-sided embedding, and the
exact integer feasibility kernel."""
import random

import pytest

from helpers import random_counter_game, reference_feasible
from vassgames import _simplex
from vassgames._simplex import feasible
from vassgames.bounded import UNKNOWN, WIN0, WIN1, bracket_decide
from vassgames.core import (
    Budget,
    BudgetExceeded,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    dec,
    inc,
    is_single_sided,
)
from vassgames.energy import (
    energy_to_single_sided,
    pareto_energy,
    solve_abstract_energy_parity,
)
from vassgames.formats import generate_game
from vassgames.semantics import ENERGY, VASS

G1 = IntegerGame(
    ("c",),
    (State("q0", 0, 2), State("q1", 0, 1), State("q2", 0, 1)),
    (
        Transition("t1", "q0", dec("c"), "q1"),
        Transition("t2", "q1", inc("c"), "q0"),
        Transition("t3", "q0", NOP_OP, "q2"),
        Transition("t4", "q2", NOP_OP, "q2"),
    ),
)

G2 = IntegerGame(
    ("c",),
    (State("q0", 1, 0),),
    (Transition("t1", "q0", dec("c"), "q0"),),
)


class TestSimplex:
    def test_balanced_cycle_feasible(self):
        # x1 = x2 (conservation), effect x1 - x2 >= 0, x1 >= 1
        assert feasible(2, [([1, -1], 0)], [([1, -1], 0)], [1, 0])

    def test_strict_drain_infeasible(self):
        # x >= 1 with effect -x >= 0
        assert not feasible(1, [], [([-1], 0)], [1])

    def test_two_dim_compensation(self):
        # cycles (1,-1) and (-1,2): need a mix; both required >= 1 works
        assert feasible(2, [], [([1, -1], 0), ([-1, 2], 0)], [1, 1])
        # but (1,-1) with (-1,0) cannot compensate dimension 2
        assert not feasible(2, [], [([1, -1], 0), ([-1, 0], 0)], [1, 1])

    def test_agrees_with_fraction_simplex_on_random_systems(self):
        rng = random.Random(5)
        answers = []
        for _ in range(3000):
            n = rng.randint(1, 9)
            eq = [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))]
            ge = [([rng.randint(-3, 3) for _ in range(n)], rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))]
            lower = [rng.randint(0, 1) for _ in range(n)]
            answer = feasible(n, eq, ge, lower)
            assert answer == reference_feasible(n, eq, ge, lower), (n, eq, ge, lower)
            answers.append(answer)
        assert True in answers and False in answers

    def test_agrees_with_fraction_simplex_on_pareto_energy(self, monkeypatch):
        # every distinct cycle-test system the abstract solver poses on
        # general two- and three-counter games
        posed = set()

        def recording(num_vars, eq_rows, ge_rows, lower):
            posed.add((num_vars, tuple((tuple(c), b) for c, b in eq_rows),
                       tuple((tuple(c), b) for c, b in ge_rows), tuple(lower)))
            return feasible(num_vars, eq_rows, ge_rows, lower)

        monkeypatch.setattr(_simplex, "feasible", recording)
        rng = random.Random(2)
        for i in range(24):
            g = random_counter_game(rng, rng.randint(2, 4), 2 + i % 2, single_sided=False)
            pareto_energy(g, g.counters)
        answers = [feasible(*args) for args in posed]
        assert answers == [reference_feasible(*args) for args in posed]
        assert True in answers and False in answers


class TestAbstract:
    def test_pump_game(self):
        assert solve_abstract_energy_parity(G1) == {"q0": 0, "q1": 0, "q2": 1}

    def test_drain_loop(self):
        assert solve_abstract_energy_parity(G2) == {"q0": 1}

    def test_no_counters_reduces_to_parity(self):
        g = IntegerGame(
            (),
            (State("a", 0, 2), State("b", 1, 1)),
            (Transition("t1", "a", NOP_OP, "a"), Transition("t2", "b", NOP_OP, "a")),
        )
        assert solve_abstract_energy_parity(g) == {"a": 0, "b": 0}

    def test_player1_picks_the_worst_branch(self):
        g = IntegerGame(
            ("c",),
            (State("p", 1, 0), State("good", 0, 2), State("bad", 0, 1)),
            (
                Transition("t1", "p", NOP_OP, "good"),
                Transition("t2", "p", NOP_OP, "bad"),
                Transition("t3", "good", NOP_OP, "p"),
                Transition("t4", "bad", dec("c"), "bad"),
                Transition("t5", "bad", NOP_OP, "bad"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"p": 1, "good": 1, "bad": 1}

    def test_two_counter_exchange_cycle(self):
        g = IntegerGame(
            ("c1", "c2"),
            (State("a", 0, 0), State("b", 0, 0)),
            (
                Transition("t1", "a", inc("c1"), "b"),
                Transition("t2", "b", dec("c1"), "a"),
                Transition("t3", "a", dec("c2"), "b"),
                Transition("t4", "b", inc("c2"), "a"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"a": 0, "b": 0}

    def test_two_counter_forced_drain(self):
        # the only cycle drains c2 while pumping c1: no credit survives
        g = IntegerGame(
            ("c1", "c2"),
            (State("a", 0, 0), State("b", 0, 2)),
            (
                Transition("t1", "a", inc("c1"), "b"),
                Transition("t2", "b", dec("c2"), "a"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"a": 1, "b": 1}

    def test_agrees_with_bracket(self):
        rng = random.Random(20240818)
        checked = 0
        for _ in range(25):
            g = random_counter_game(rng, rng.randint(2, 4), rng.randint(1, 2), single_sided=False)
            verdict = solve_abstract_energy_parity(g)
            for q in g.state_names():
                if verdict[q] == 0:
                    # some finite credit must be certified by the cap oracle
                    hits = [
                        bracket_decide(g, ENERGY, PartialConfig.make(q, {c: k for c in g.counters}), max_cap=32)
                        for k in (0, 2, 5)
                    ]
                    assert WIN1 not in hits or WIN0 in hits
                    checked += 1
                else:
                    # no sampled credit may be a certified Player-0 win
                    for k in (0, 2, 5):
                        gamma = PartialConfig.make(q, {c: k for c in g.counters})
                        assert bracket_decide(g, ENERGY, gamma, max_cap=32) != WIN0
                        checked += 1
        assert checked > 40


def all_strategies_lose_for_player1(k):
    """A ring of k Player-1 states, each with two moves to the next, closed
    by a pumping Player-0 state: Player 0 wins under all 2**k strategies."""
    ring = ["p%d" % i for i in range(k)] + ["z"]
    states = tuple(State(q, 1, 0) for q in ring[:-1]) + (State("z", 0, 0),)
    trans = [Transition("t%d%s" % (i, side), ring[i], NOP_OP, ring[i + 1])
             for i in range(k) for side in "ab"]
    trans.append(Transition("pump", "z", inc("c"), "p0"))
    return IntegerGame(("c",), states, tuple(trans))


class TestStrategyBudget:
    def test_large_strategy_product_is_enumerated(self):
        # 209,952 Player-1 strategies, but the first ones already leave
        # Player 0 no winning state
        g, _ = generate_game(30, 40, 1)
        assert set(solve_abstract_energy_parity(g).values()) == {1}

    def test_budget_counts_enumerated_strategies(self):
        k = 4
        g = all_strategies_lose_for_player1(k)
        assert set(solve_abstract_energy_parity(g, Budget(strategy_budget=2 ** k)).values()) == {0}
        with pytest.raises(BudgetExceeded, match="abstract energy parity solver"):
            solve_abstract_energy_parity(g, Budget(strategy_budget=2 ** k - 1))


class TestEmbedding:
    def test_shape(self):
        g2 = energy_to_single_sided(G2)
        assert is_single_sided(g2)
        # one mid state per transition plus the losing loop
        assert len(g2.states) == len(G2.states) + len(G2.transitions) + 1
        assert len(g2.transitions) == 3 * len(G2.transitions) + 1
        mid = "__t_t1"
        assert g2.state(mid).color == 0 and g2.state(mid).owner == 0
        assert g2.state("__lose").color == 1
        kinds = sorted((t.source, t.op.kind, t.target) for t in g2.transitions if t.source == mid)
        assert kinds == [(mid, "dec", "q0"), (mid, "nop", "__lose")]

    def test_embedding_preserves_verdicts(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(12):
            g = random_counter_game(rng, rng.randint(2, 4), 1, single_sided=False)
            emb = energy_to_single_sided(g)
            for q in g.state_names():
                for v in (0, 3):
                    gamma = PartialConfig.make(q, {"c1": v})
                    e = bracket_decide(g, ENERGY, gamma, max_cap=16)
                    w = bracket_decide(emb, VASS, gamma, max_cap=16)
                    if e != UNKNOWN and w != UNKNOWN:
                        assert e == w
                        checked += 1
        assert checked > 20


def test_pareto_energy_examples():
    fr = pareto_energy(G1, ["c"])
    assert set(fr) == {"q0", "q1", "q2"}
    assert {str(e) for e in fr["q0"]} == {"q0 c=1"}
    assert {str(e) for e in fr["q1"]} == {"q1 c=0"}
    assert len(fr["q2"]) == 0
    fr2 = pareto_energy(G2, ["c"])
    assert set(fr2) == {"q0"} and len(fr2["q0"]) == 0
