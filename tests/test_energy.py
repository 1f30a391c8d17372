"""Abstract energy parity solving, the single-sided embedding, and the
exact integer feasibility kernel."""
import math
import random
import time

import pytest

from helpers import _one_player_win_set as reference_one_player_win_set
from helpers import random_counter_game, random_credit_game, reference_energy_to_single_sided, reference_feasible
from vassgames import _simplex, energy
from vassgames._simplex import feasible
from vassgames.bounded import UNKNOWN, WIN0, WIN1, bracket_decide, capped_grid
from vassgames.core import (
    Budget,
    BudgetExceeded,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    complete_with_sinks,
    dec,
    inc,
    is_single_sided,
)
from vassgames.energy import (
    _one_player_win_set,
    energy_to_single_sided,
    pareto_energy,
    solve_abstract_energy_parity,
)
from vassgames.formats import generate_game
from vassgames.semantics import ENERGY, VASS
from vassgames.solver import pareto_single_sided_vass

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

    def test_top_color_only_on_a_draining_cycle(self):
        # one SCC: the color-2 state a lies only on the -1 cycle a b a, the
        # 0 cycle b c b misses it and has top color 1
        g = IntegerGame(
            ("x",),
            (State("a", 0, 2), State("b", 0, 1), State("c", 0, 0)),
            (
                Transition("t1", "a", dec("x"), "b"),
                Transition("t2", "b", NOP_OP, "a"),
                Transition("t3", "b", NOP_OP, "c"),
                Transition("t4", "c", NOP_OP, "b"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"a": 1, "b": 1, "c": 1}

    def test_pump_and_drain_cycles_share_the_state(self):
        g = IntegerGame(
            ("x",),
            (State("a", 0, 2), State("up", 0, 1), State("down", 0, 1)),
            (
                Transition("t1", "a", inc("x"), "up"),
                Transition("t2", "up", NOP_OP, "a"),
                Transition("t3", "a", dec("x"), "down"),
                Transition("t4", "down", NOP_OP, "a"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"a": 0, "up": 0, "down": 0}

    def test_zero_effect_cycle_through_the_state(self):
        # a b a nets 0; the draining detour a c a has the odd top color 3
        g = IntegerGame(
            ("x",),
            (State("a", 0, 2), State("b", 0, 1), State("c", 0, 3)),
            (
                Transition("t1", "a", inc("x"), "b"),
                Transition("t2", "b", dec("x"), "a"),
                Transition("t3", "a", dec("x"), "c"),
                Transition("t4", "c", NOP_OP, "a"),
            ),
        )
        assert solve_abstract_energy_parity(g) == {"a": 0, "b": 0, "c": 0}

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


def test_one_player_check_agrees_with_reference():
    # the Tarjan, Bellman-Ford and support-pruning code the SCC-grouped
    # check replaced, on random graphs with self-loops and effects in
    # {-1,0,1}^k
    rng = random.Random(9)
    shapes = set()
    for _ in range(2000):
        n, dims = rng.randint(1, 8), rng.randint(1, 3)
        colors = [rng.randint(0, 5) for _ in range(n)]
        edges = [
            (u, rng.randrange(n), tuple(rng.randint(-1, 1) for _ in range(dims)))
            for u in range(n)
            for _ in range(rng.randint(1, 3))
        ]
        win = _one_player_win_set(n, colors, edges, dims)
        assert win == reference_one_player_win_set(n, colors, edges, dims), (n, colors, edges, dims)
        shapes.add((dims, 0 < len(win) < n))
    assert shapes == {(k, split) for k in (1, 2, 3) for split in (False, True)}


def test_support_pruning_runs_once_per_group(monkeypatch):
    # seed 6's base game (20 states, 2 counters, 72 Player-1 strategies):
    # support pruning once per candidate vertex made 6,780 simplex calls on
    # 438 distinct systems; once per strongly connected group it makes 1,302
    g, _ = generate_game(6, 20, 2)
    calls = []

    def counting(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(_simplex, "feasible", counting)
    assert set(solve_abstract_energy_parity(g).values()) == {0}
    assert 0 < len(calls) <= 1302


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
    # a node budget of 0 builds no certificate grid, so every strategy tried
    # comes from the enumeration
    def test_large_strategy_product_is_enumerated(self):
        # 209,952 Player-1 strategies, but the first ones already leave
        # Player 0 no winning state
        g, _ = generate_game(30, 40, 1)
        assert set(solve_abstract_energy_parity(g, Budget(node_budget=0)).values()) == {1}

    def test_budget_counts_enumerated_strategies(self):
        k = 4
        g = all_strategies_lose_for_player1(k)
        assert set(solve_abstract_energy_parity(g, Budget(node_budget=0, strategy_budget=2 ** k)).values()) == {0}
        with pytest.raises(BudgetExceeded, match="abstract energy parity solver"):
            solve_abstract_energy_parity(g, Budget(node_budget=0, strategy_budget=2 ** k - 1))


def test_certificate_grids_check_the_deadline():
    # 2.8 million Player-1 strategies: the certificates run, and their first
    # grid already finds the deadline passed
    g, _ = generate_game(0, 60, 1)
    with pytest.raises(BudgetExceeded, match="time budget exceeded in abstract energy parity solver"):
        solve_abstract_energy_parity(g, Budget(deadline=time.monotonic() - 1))


def test_node_budget_bounds_certificate_grids(monkeypatch):
    # 40 states, one counter: the cap-1 grid may hold 80 configurations, so
    # a budget of 79 builds none and the enumerator decides
    g, _ = generate_game(30, 40, 1)
    grids = []
    monkeypatch.setattr(energy, "capped_grid", lambda *args: grids.append(args) or capped_grid(*args))
    assert set(solve_abstract_energy_parity(g, Budget(node_budget=79)).values()) == {1}
    assert grids == []
    assert set(solve_abstract_energy_parity(g, Budget(node_budget=80)).values()) == {1}
    assert [args[2] for args in grids] == [1]


def differential_games():
    """Random games with counters whose Player-1 strategies number at most
    20,000, so the enumerator can check every certificate verdict."""
    shapes = [(6, 1, True), (12, 1, True), (8, 2, True), (20, 1, True), (6, 1, False), (6, 2, False)]
    games = [generate_game(seed, n, k, single_sided)[0] for seed in range(140) for n, k, single_sided in shapes]
    rng = random.Random(20)
    for i in range(300):
        if i % 2:
            games.append(complete_with_sinks(random_counter_game(rng, rng.randint(2, 8), rng.randint(1, 2),
                                                                 single_sided=bool(i % 4 == 1))))
        else:
            games.append(complete_with_sinks(random_credit_game(rng, rng.randint(1, 2))))
    return [g for g in games if math.prod(len(ms) for s, ms in zip(g.states, g.moves) if s.owner == 1) <= 20000]


def test_certificates_agree_with_enumeration(monkeypatch):
    # every game goes through the capped-grid certificates, against plain
    # enumeration (a node budget of 0 builds no grid); a game whose grids
    # leave a state open tries more Player-1 strategies, one one-player test
    # each, than it builds grids, and is counted as a fallback
    monkeypatch.setattr(energy, "ENUMERATION_LIMIT", 0)
    calls = {"grids": 0, "tests": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(energy, "capped_grid", counted("grids", capped_grid))
    monkeypatch.setattr(energy, "_one_player_win_set", counted("tests", _one_player_win_set))
    games = differential_games()
    disagreements = fallbacks = 0
    winners = set()
    for g in games:
        enumerated = solve_abstract_energy_parity(g, Budget(node_budget=0))
        calls.update(grids=0, tests=0)
        verdict = solve_abstract_energy_parity(g)
        fallbacks += calls["tests"] > calls["grids"]
        disagreements += verdict != enumerated
        winners.update(verdict.values())
    # 1,140 games, 10,067 states: 0 disagreements and 0 fallbacks
    assert len(games) >= 1000 and sum(len(g.states) for g in games) >= 10000 and winners == {0, 1}
    assert disagreements == 0 and fallbacks == 0


# one transition of each kind: Player-0 nop and dec, Player-1 nop, inc and dec
MIXED = IntegerGame(
    ("c",),
    (State("a", 0, 2), State("b", 1, 1)),
    (
        Transition("t1", "a", NOP_OP, "b"),
        Transition("t2", "a", dec("c"), "a"),
        Transition("t3", "b", NOP_OP, "a"),
        Transition("t4", "b", inc("c"), "a"),
        Transition("t5", "b", dec("c"), "b"),
    ),
)


def shape(g):
    return ([(s.name, s.owner, s.color) for s in g.states],
            [(t.tid, t.source, str(t.op), t.target) for t in g.transitions])


def renamed(g):
    """The same game with every state and transition renamed, and the state map."""
    names = {s.name: "s%d" % i for i, s in enumerate(g.states)}
    states = tuple(State(names[s.name], s.owner, s.color) for s in g.states)
    trans = tuple(Transition("r%d" % i, names[t.source], t.op, names[t.target])
                  for i, t in enumerate(g.transitions))
    return IntegerGame(g.counters, states, trans), names


class TestEmbedding:
    def test_shape(self):
        emb = energy_to_single_sided(MIXED)
        assert is_single_sided(emb)
        # middle states only for the Player-1 inc and dec; the one escape,
        # from complete_with_sinks, leaves the dec middle state, the only
        # state whose every move is a dec, and comes last among its moves
        assert shape(emb) == (
            [("a", 0, 2), ("b", 1, 1), ("__t_t4", 0, 0), ("__t_t5", 0, 0), ("__sink0", 0, 1)],
            [
                ("t1", "a", "nop", "b"),
                ("t2", "a", "dec(c)", "a"),
                ("t3", "b", "nop", "a"),
                ("t4__in", "b", "nop", "__t_t4"),
                ("t4__do", "__t_t4", "inc(c)", "a"),
                ("t5__in", "b", "nop", "__t_t5"),
                ("t5__do", "__t_t5", "dec(c)", "b"),
                ("__sinkloop0", "__sink0", "nop", "__sink0"),
                ("__stuck0", "__t_t5", "nop", "__sink0"),
            ],
        )
        assert [t.tid for t in emb.out("a")] == ["t1", "t2"]
        assert [t.tid for t in emb.out("__t_t5")] == ["t5__do", "__stuck0"]

    def test_no_decrement_no_losing_loop(self):
        g = IntegerGame(MIXED.counters, MIXED.states,
                        tuple(t for t in MIXED.transitions if t.op.kind != "dec"))
        assert shape(energy_to_single_sided(g)) == (
            [("a", 0, 2), ("b", 1, 1), ("__t_t4", 0, 0)],
            [
                ("t1", "a", "nop", "b"),
                ("t3", "b", "nop", "a"),
                ("t4__in", "b", "nop", "__t_t4"),
                ("t4__do", "__t_t4", "inc(c)", "a"),
            ],
        )

    def test_generated_names_are_fresh(self):
        # an input state named like a middle state used to make two middle
        # states collide ('__t_a_'); here the generated transition ids
        # ('a__in', '__sinkloop0') and the sink state collide too
        g = IntegerGame(
            ("c",),
            (State("q", 1, 0), State("__t_a", 0, 2), State("__sink0", 0, 2)),
            (
                Transition("a", "q", inc("c"), "__t_a"),
                Transition("a_", "q", dec("c"), "q"),
                Transition("a__in", "__t_a", dec("c"), "q"),
                Transition("b", "__t_a", NOP_OP, "__sink0"),
                Transition("__sinkloop0", "__sink0", NOP_OP, "__t_a"),
            ),
        )
        emb = energy_to_single_sided(g)
        assert is_single_sided(emb)
        for t in g.transitions[2:]:
            assert emb.transition(t.tid) == t
        assert {"__t_a_", "__t_a__", "__sink0_"} <= set(emb.state_names())
        plain, names = renamed(g)
        fr, ref = pareto_energy(g, ["c"]), pareto_energy(plain, ["c"])
        assert {q: sorted(e.items for e in ac) for q, ac in fr.items()} == {
            q: sorted(e.items for e in ref[names[q]]) for q in g.state_names()}
        assert any(len(ac) for ac in fr.values()) and any(not len(ac) for ac in fr.values())

    def test_player0_game_named_like_a_middle_state(self):
        g = IntegerGame(
            ("c",),
            (State("q", 0, 0), State("__t_a", 0, 0)),
            (Transition("a", "q", inc("c"), "q"), Transition("a_", "q", NOP_OP, "q"),
             Transition("b", "__t_a", NOP_OP, "__t_a")),
        )
        assert pareto_energy(g, ["c"]) == pareto_single_sided_vass(g, ["c"])

    def test_same_frontiers_as_reference_embedding(self):
        # the lean embedding against the one that split every transition
        rng = random.Random(1)
        compared = skipped = 0
        for _ in range(1000):
            g = random_counter_game(rng, rng.randint(2, 5), rng.randint(1, 2), single_sided=False)
            try:
                fr = pareto_energy(g, g.counters, Budget(deadline=time.monotonic() + 5))
                ref = pareto_single_sided_vass(reference_energy_to_single_sided(g), g.counters,
                                               Budget(deadline=time.monotonic() + 5))
            except BudgetExceeded:
                skipped += 1
                continue
            assert fr == {q: ref[q] for q in g.state_names()}
            compared += 1
        assert skipped <= 10 and compared + skipped == 1000

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
