"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (to the unbuffered real stderr, so the
lines survive pytest's capturing) and covers one numbered criterion:

 1. determinacy and strategy soundness of the finite parity solver
 2. step monotonicity of the VASS semantics on single-sided games
 3. energy/VASS agreement and faithfulness of the single-sided embedding
 4. exactness of computed Pareto frontiers against the bounded oracle
 5. upward closedness of the membership oracle
 6. termination and structure of the unfolding construction
 7. Valk-Jantzen minimization against synthetic generator sets
 8. weak simulation against a direct bounded fixpoint
 9. mu-calculus model checking against direct bounded semantics
10. whole-suite runtime budget
"""
import contextlib
import functools
import io
import os
import random
import time

import conftest
from helpers import (
    brute_force_parity,
    check_strategy,
    mucalc_oracle,
    random_counter_game,
    random_credit_game,
    random_guarded_formula,
    random_lts,
    random_parity_game,
    stays_below_cap,
    weaksim_oracle,
)
from vassgames import cli
from vassgames.applications import Atom, Diamond, FiniteLTS, Nu, Var, check_weaksim, model_check
from vassgames.bounded import UNKNOWN, WIN0, WIN1, bracket_decide
from vassgames.core import (
    Antichain,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    dec,
    inc,
    leq,
)
from vassgames.energy import energy_to_single_sided
from vassgames.parity import solve_parity
from vassgames.semantics import ENERGY, VASS, vass_step
from vassgames.solver import ParetoTable, vj_minimize

from test_solver import check_label_invariant, enumerate_cycles_zero_effect, record_out_games

DATA = os.path.join(os.path.dirname(__file__), "data")

# tables built while checking criteria 4 and 5, each with the out-games it
# built, re-inspected by criterion 6
COLLECTED_TABLES = []


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append("ACCEPTANCE %d FAIL: %s" % (num, desc))
                raise
            conftest.ACCEPTANCE_LINES.append("ACCEPTANCE %d PASS: %s" % (num, desc))

        return wrapper

    return deco


@criterion(1, "parity solver: partition + verified strategies on 500 random games in <30s")
def test_01_parity_determinacy():
    rng = random.Random(10001)
    t0 = time.monotonic()
    for i in range(500):
        g = random_parity_game(rng, rng.randint(1, 8), max_color=4, max_out=2)
        w0, w1, s0, s1 = solve_parity(g)
        assert w0 | w1 == set(range(len(g.vertices))) and not (w0 & w1)
        assert check_strategy(g, 0, s0, w0)
        assert check_strategy(g, 1, s1, w1)
        if i % 25 == 0:
            # spot check against the brute-force oracle as well
            bw0, bw1 = brute_force_parity(g)
            assert bw0 == set(w0) and bw1 == set(w1)
    assert time.monotonic() - t0 < 30.0


@criterion(2, "step monotonicity, both directions, on 1000 single-sided triples each")
def test_02_monotonicity():
    rng = random.Random(10002)
    forward = backward = 0
    while forward < 1000 or backward < 1000:
        g = random_counter_game(rng, rng.randint(2, 4), rng.randint(1, 2), single_sided=True)
        q = rng.choice(g.state_names())
        dom = [c for c in g.counters if rng.random() < 0.8]
        g1 = PartialConfig.make(q, {c: rng.randint(0, 4) for c in dom})
        moves = [t.tid for t in g.out(q) if vass_step(g, g1, t.tid) is not None]
        if not moves:
            continue
        tid = rng.choice(moves)
        g2 = vass_step(g, g1, tid)
        if forward < 1000:
            g3 = PartialConfig.make(q, {c: g1.get(c) + rng.randint(0, 2) for c in dom})
            succ3 = [vass_step(g, g3, t.tid) for t in g.out(q)]
            assert any(g4 is not None and leq(g2, g4) for g4 in succ3)
            forward += 1
        if backward < 1000 and g.state(q).owner == 1:
            g3 = PartialConfig.make(q, {c: max(0, g1.get(c) - rng.randint(0, 2)) for c in dom})
            succ3 = [vass_step(g, g3, t.tid) for t in g.out(q)]
            assert any(g4 is not None and leq(g4, g2) for g4 in succ3)
            backward += 1


@criterion(3, "energy verdicts match the embedded VASS game and, single-sided, direct VASS")
def test_03_energy_vass_agreement():
    rng = random.Random(10003)
    agreed = 0
    for i in range(100):
        single = i % 2 == 0
        g = random_counter_game(rng, rng.randint(2, 5), rng.randint(1, 2), single_sided=single)
        emb = energy_to_single_sided(g)
        probes = [(q, v) for q in g.state_names() for v in (0, 1, 3)]
        for q, v in probes:
            gamma = PartialConfig.make(q, {c: v for c in g.counters})
            e = bracket_decide(g, ENERGY, gamma, max_cap=32)
            w = bracket_decide(emb, VASS, gamma, max_cap=32)
            if e != UNKNOWN and w != UNKNOWN:
                assert e == w
                agreed += 1
            if single:
                d = bracket_decide(g, VASS, gamma, max_cap=32)
                if e != UNKNOWN and d != UNKNOWN:
                    assert e == d
    assert agreed > 300


@criterion(4, "frontier elements certified Win0, pointwise predecessors Win1; CLI golden exact")
def test_04_pareto_exactness(monkeypatch):
    built = record_out_games(monkeypatch)
    rng = random.Random(10004)
    done = 0
    attempts = 0
    predecessors = 0
    while done < 50:
        attempts += 1
        assert attempts < 600, "could not find enough resolvable instances"
        if attempts % 2:
            g = random_counter_game(rng, rng.randint(2, 5), rng.randint(1, 2), single_sided=True)
        else:
            # random_counter_game frontiers are nearly all 0 and have no
            # pointwise predecessors
            g = random_credit_game(rng, rng.randint(1, 2))
        built.clear()
        table = ParetoTable(g)
        frontier = table.frontier(frozenset(g.counters))
        elems = [el for ac in frontier.values() for el in ac]
        if any(el.get(c) > 3 for el in elems for c in el.dom):
            continue
        verdicts = []
        for el in elems:
            verdicts.append((el, bracket_decide(g, VASS, el)))
            for c in el.dom:
                if el.get(c) > 0:
                    pred = el.with_value(c, el.get(c) - 1)
                    if not frontier[pred.state].covers(pred):
                        verdicts.append((pred, bracket_decide(g, VASS, pred)))
        if any(v == UNKNOWN for _, v in verdicts):
            continue  # undersized cap for this instance; draw another
        for gamma, v in verdicts:
            expect = WIN0 if frontier[gamma.state].covers(gamma) else WIN1
            assert v == expect, (gamma, v)
            predecessors += expect == WIN1
        COLLECTED_TABLES.append((g, table, list(built)))
        done += 1
    assert predecessors >= 50, predecessors

    # worked example through the command line, byte for byte
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["pareto", os.path.join(DATA, "g1.game"), "--counters", "c"])
    assert code == 0
    with open(os.path.join(DATA, "g1_frontier.golden")) as fh:
        assert buf.getvalue() == fh.read()


@criterion(5, "membership monotone under the componentwise order, 1000 pairs per instance")
def test_05_membership_upward_closed(monkeypatch):
    built = record_out_games(monkeypatch)
    rng = random.Random(10005)
    for _ in range(3):
        g = random_counter_game(rng, rng.randint(3, 5), 2, single_sided=True)
        built.clear()
        table = ParetoTable(g)
        for _ in range(1000):
            q = rng.choice(g.state_names())
            lo = {c: rng.randint(0, 3) for c in g.counters}
            hi = {c: lo[c] + rng.randint(0, 2) for c in g.counters}
            small = table.membership(PartialConfig.make(q, lo))
            big = table.membership(PartialConfig.make(q, hi))
            assert big or not small
        COLLECTED_TABLES.append((g, table, list(built)))


@criterion(6, "unfolding terminates within the node budget; cycle effect on tracked counters is zero")
def test_06_out_game_structure():
    assert COLLECTED_TABLES, "criteria 4 and 5 must run first"
    outs = 0
    for g, table, out_games in COLLECTED_TABLES:
        # all frontiers were built within the default 1e5 node budget, or
        # BudgetExceeded would have failed the earlier criteria
        assert table.budget.node_budget == 100000
        for out in out_games:
            assert len(out.game.states) <= 100000
            check_label_invariant(g, out)
            enumerate_cycles_zero_effect(g, out, out.labels[out.root].dom)
            outs += 1
    assert outs > 50


@criterion(7, "minimization recovers 200 synthetic generator antichains exactly")
def test_07_vj_minimize():
    rng = random.Random(10007)
    for _ in range(200):
        n = rng.randint(1, 3)
        counters = tuple("c%d" % (i + 1) for i in range(n))
        gens = [
            PartialConfig.make("q", {c: rng.randint(0, 4) for c in counters})
            for _ in range(rng.randint(0, 4))
        ]
        expected = Antichain()
        for g in gens:
            expected = expected.insert(g)

        def query(gamma):
            return any(all(g.get(c) <= gamma.get(c) for c in gamma.dom) for g in gens)

        assert vj_minimize(query, "q", counters) == expected


@criterion(8, "weak simulation agrees with the bounded fixpoint on 100 instances + fixed examples")
def test_08_weaksim():
    rng = random.Random(10008)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 3000, "could not find enough cap-safe instances"
        fs = random_lts(rng, rng.randint(1, 3), rng.randint(1, 4), ["a", "b", "tau"])
        vass = random_counter_game(rng, rng.randint(1, 3), 1, single_sided=True)
        labels = {t.tid: rng.choice(["a", "b", "tau"]) for t in vass.transitions}
        s0, q0 = fs.states[0], vass.state_names()[0]
        theta = {"c1": rng.randint(0, 2)}
        vec0 = tuple(theta[c] for c in vass.counters)
        if not stays_below_cap(vass, [(q0, vec0)], 5):
            continue  # some play can hit the cap; the bounded oracle would lie
        lo = weaksim_oracle(fs, s0, vass, labels, q0, theta, cap=5)
        assert check_weaksim(fs, s0, vass, labels, q0, theta) == lo
        done += 1

    # recharge: one token pays the first 'a', an internal step earns it back
    fs = FiniteLTS(("s0",), (("s0", "a", "s0"),))
    vass = IntegerGame(
        ("c",),
        (State("p", 0, 0), State("r", 0, 0)),
        (
            Transition("t1", "p", dec("c"), "r"),
            Transition("t2", "r", inc("c"), "p"),
            Transition("t3", "p", NOP_OP, "p"),
        ),
    )
    assert check_weaksim(fs, "s0", vass, {"t1": "a", "t2": "tau", "t3": "tau"}, "p", {"c": 1})
    # dec only: three tokens answer exactly three challenges, then nothing
    drain = IntegerGame(
        ("c",), (State("p", 0, 0),), (Transition("t1", "p", dec("c"), "p"),)
    )
    assert not check_weaksim(fs, "s0", drain, {"t1": "a"}, "p", {"c": 3})


@criterion(9, "model checking agrees with direct bounded semantics on 100 formulas")
def test_09_mucalc():
    rng = random.Random(10009)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 3000, "could not find enough cap-safe instances"
        vass = random_counter_game(rng, rng.randint(1, 3), 1, single_sided=True)
        phi = random_guarded_formula(rng, vass, depth=3)
        probes = [(q, (v,)) for q in vass.state_names() for v in (0, 1, 2)]
        if not stays_below_cap(vass, probes, 4):
            continue  # some play can hit the cap; the capped semantics would lie
        lo = mucalc_oracle(vass, phi, 4)
        for q, vec in probes:
            gamma = PartialConfig.make(q, {"c1": vec[0]})
            assert model_check(vass, phi, gamma) == ((q, vec) in lo)
        # always-a-successor holds everywhere on these deadlock-free systems
        always = Nu("X", Diamond(Var("X")))
        assert model_check(vass, always, PartialConfig.make(probes[0][0], {"c1": 0}))
        # atoms are exact
        q0 = vass.state_names()[0]
        for q, vec in probes:
            gamma = PartialConfig.make(q, {"c1": vec[0]})
            assert model_check(vass, Atom(q0), gamma) == (q == q0)
        done += 1


@criterion(10, "whole suite under five minutes, no undecided verdicts")
def test_10_runtime():
    assert time.monotonic() - conftest.SUITE_START < 300.0
