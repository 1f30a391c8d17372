"""Weak simulation checking and mu-calculus model checking."""
import random
import time

import pytest

from helpers import (
    mucalc_oracle,
    random_counter_game,
    random_guarded_formula,
    random_lts,
    reference_alternation_depth,
    reference_challenge,
    reference_free_vars,
    reference_mucalc_game,
    reference_rename_apart,
    reference_subformulas,
    reference_weaksim_game,
    stays_below_cap,
    weaksim_oracle,
)
from vassgames.applications import (
    And,
    Atom,
    Box,
    Diamond,
    FiniteLTS,
    GuardedBox,
    Mu,
    Nu,
    Or,
    Var,
    _rename_apart,
    alternation_depth,
    check_weaksim,
    free_vars,
    global_model_check,
    model_check,
    mucalc_game,
    parse_formula,
    restrict_reachable,
    subformulas,
    weaksim_game,
)
from vassgames.core import (
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    dec,
    inc,
    is_single_sided,
)

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


class TestWeakSim:
    def test_tau_recharge_simulates_forever(self):
        # the VASS answers each 'a' by paying one token, then recharges with
        # an internal step; one token up front suffices forever
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
        labels = {"t1": "a", "t2": "tau", "t3": "tau"}
        assert check_weaksim(fs, "s0", vass, labels, "p", {"c": 1})
        # the first 'a' must be paid before any recharge happens
        assert not check_weaksim(fs, "s0", vass, labels, "p", {"c": 0})

    def test_dec_only_runs_dry(self):
        fs = FiniteLTS(("s0",), (("s0", "a", "s0"),))
        vass = IntegerGame(
            ("c",),
            (State("p", 0, 0),),
            (Transition("t1", "p", dec("c"), "p"),),
        )
        assert not check_weaksim(fs, "s0", vass, {"t1": "a"}, "p", {"c": 3})

    def test_no_challenges_always_holds(self):
        fs = FiniteLTS(("s0",), ())
        vass = IntegerGame(("c",), (State("p", 0, 0),), (Transition("t1", "p", dec("c"), "p"),))
        assert check_weaksim(fs, "s0", vass, {"t1": "a"}, "p", {"c": 0})

    def test_game_is_single_sided(self):
        fs = FiniteLTS(("s0", "s1"), (("s0", "a", "s1"), ("s1", "b", "s0")))
        vass = IntegerGame(
            ("c",),
            (State("p", 0, 0),),
            (Transition("t1", "p", dec("c"), "p"), Transition("t2", "p", inc("c"), "p")),
        )
        g, root_of = weaksim_game(fs, vass, {"t1": "a", "t2": "tau"})
        assert is_single_sided(g)
        assert g.state(root_of("s1", "p")).owner == 1

    def test_matches_bounded_fixpoint(self):
        rng = random.Random(987)
        checked = 0
        tries = 0
        while checked < 10 and tries < 60:
            tries += 1
            fs = random_lts(rng, rng.randint(1, 3), rng.randint(1, 4), ["a", "b", "tau"])
            vass = random_counter_game(rng, rng.randint(1, 3), 1, single_sided=True)
            labels = {t.tid: rng.choice(["a", "b", "tau"]) for t in vass.transitions}
            s0 = fs.states[0]
            q0 = vass.state_names()[0]
            theta = {"c1": rng.randint(0, 2)}
            if not stays_below_cap(vass, [(q0, (theta["c1"],))], 5):
                continue  # a play could hit the cap; the bounded oracle would lie
            lo = weaksim_oracle(fs, s0, vass, labels, q0, theta, cap=5)
            assert check_weaksim(fs, s0, vass, labels, q0, theta) == lo
            checked += 1
        assert checked == 10


class TestParser:
    def test_shapes(self):
        f = parse_formula("mu X . (q1 \\/ <> X)")
        assert f == Mu("X", Or(Atom("q1"), Diamond(Var("X"))))
        g = parse_formula("nu X . P1 /\\ [] X")
        assert g == Nu("X", GuardedBox(Var("X")))

    def test_precedence(self):
        f = parse_formula("a /\\ b \\/ c")
        assert f == Or(And(Atom("a"), Atom("b")), Atom("c"))

    def test_p1_misuse_rejected(self):
        with pytest.raises(ValueError):
            parse_formula("P1 /\\ a")
        with pytest.raises(ValueError):
            parse_formula("P1 /\\ [] a /\\ b")
        for text in ("a /\\ P1", "P1 \\/ a", "P1"):
            with pytest.raises(ValueError):
                parse_formula(text)

    def test_rename_apart(self):
        f = parse_formula("(mu X . <> X) \\/ (nu X . <> X)")
        assert isinstance(f, Or)
        assert f.left.var != f.right.var

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ValueError):
            parse_formula("a b")


class TestAlternation:
    def test_depths(self):
        assert alternation_depth(Atom("a")) == 0
        assert alternation_depth(parse_formula("mu X . <> X")) == 1
        # independent fixpoints do not alternate
        assert alternation_depth(parse_formula("mu X . <> (X \\/ nu Y . <> Y)")) == 1
        # dependent ones do
        f = parse_formula("nu X . mu Y . (<> Y \\/ <> X)")
        assert alternation_depth(f) == 2

    def test_twenty_level_chain_builds_quickly(self):
        # nu X0 . mu X1 . ... (<> X0 \/ ... \/ <> X19 \/ q): every fixpoint
        # depends on every inner one, so recomputing the inner depths at
        # each level takes time exponential in the nesting
        n = 20
        binders = "".join("%s X%d . " % ("mu" if i % 2 else "nu", i) for i in range(n))
        phi = parse_formula(binders + "(" + " \\/ ".join(["<> X%d" % i for i in range(n)] + ["q"]) + ")")
        vass = IntegerGame(("c",), (State("q", 0, 0),), (Transition("t", "q", inc("c"), "q"),))
        start = time.monotonic()
        assert alternation_depth(phi) == n
        game, root_of = mucalc_game(vass, phi)
        assert time.monotonic() - start < 3.0
        assert game.state(root_of("q")).color == n


class TestModelCheck:
    def test_unguarded_box_rejected(self):
        vass = IntegerGame((), (State("q0", 0, 0),), (Transition("t1", "q0", NOP_OP, "q0"),))
        with pytest.raises(ValueError):
            mucalc_game(vass, parse_formula("[] q0"))

    def test_nu_diamond_true_on_loop(self):
        # always some move: holds everywhere under VASS semantics, even with
        # the counter at zero, because the nop exit stays enabled
        vass = IntegerGame(
            ("c",),
            (State("q0", 0, 0),),
            (Transition("t1", "q0", dec("c"), "q0"), Transition("t2", "q0", NOP_OP, "q0")),
        )
        f = parse_formula("nu X . <> X")
        assert model_check(vass, f, PartialConfig.make("q0", {"c": 0}))

    def test_mu_reach(self):
        f = parse_formula("mu X . (q1 \\/ <> X)")
        assert not model_check(G1, f, PartialConfig.make("q0", {"c": 0}))
        assert model_check(G1, f, PartialConfig.make("q0", {"c": 1}))
        assert model_check(G1, f, PartialConfig.make("q1", {"c": 0}))
        assert not model_check(G1, f, PartialConfig.make("q2", {"c": 5}))

    def test_atoms_exact(self):
        f = parse_formula("q2")
        assert model_check(G1, f, PartialConfig.make("q2", {"c": 0}))
        assert not model_check(G1, f, PartialConfig.make("q0", {"c": 0}))

    def test_global_frontier(self):
        fr = global_model_check(G1, parse_formula("mu X . (q1 \\/ <> X)"))
        assert {str(e) for e in fr["q0"]} == {"q0 c=1"}
        assert {str(e) for e in fr["q1"]} == {"q1 c=0"}
        assert len(fr["q2"]) == 0

    def test_matches_direct_semantics(self):
        rng = random.Random(555)
        checked = 0
        tries = 0
        while checked < 10 and tries < 80:
            tries += 1
            vass = random_counter_game(rng, rng.randint(1, 3), 1, single_sided=True)
            phi = random_guarded_formula(rng, vass, depth=2)
            probe = [(q, (v,)) for q in vass.state_names() for v in (0, 1, 2)]
            if not stays_below_cap(vass, probe, 4):
                continue  # a play could hit the cap; the capped semantics would lie
            lo = mucalc_oracle(vass, phi, 4)
            for q, vec in probe:
                gamma = PartialConfig.make(q, {"c1": vec[0]})
                assert model_check(vass, phi, gamma) == ((q, vec) in lo)
            checked += 1
        assert checked == 10


def integer_form(game, root):
    """A game up to state and transition names: counters, (owner, color) per
    state in order, moves by state index, and the root's index."""
    return (game.counters, [(s.owner, s.color) for s in game.states], game.moves,
            game.state_names().index(root))


def test_products_and_walks_match_reference():
    """The one-pass builders make the games the two-pass ones made, and the
    formula walks agree with their per-walk ladders."""
    rng = random.Random(2024)
    for _ in range(500):
        fs = random_lts(rng, rng.randint(1, 3), rng.randint(0, 5), ["a", "b", "tau"])
        vass = random_counter_game(rng, rng.randint(1, 4), rng.randint(0, 2), single_sided=rng.random() < 0.5)
        labels = {t.tid: rng.choice(["a", "b", "c", "tau"]) for t in vass.transitions if rng.random() < 0.8}
        s0, q0 = rng.choice(fs.states), rng.choice(vass.state_names())
        game, root_of = weaksim_game(fs, vass, labels)
        ref = reference_weaksim_game(fs, vass, labels)
        assert integer_form(game, root_of(s0, q0)) == integer_form(ref, reference_challenge(s0, q0))
    for _ in range(500):
        vass = random_counter_game(rng, rng.randint(1, 4), rng.randint(0, 2), single_sided=True)
        phi = random_guarded_formula(rng, vass, depth=rng.randint(0, 4))
        for g in subformulas(phi):
            assert free_vars(g) == reference_free_vars(g)
            assert alternation_depth(g) == reference_alternation_depth(g)
            assert _rename_apart(g) == reference_rename_apart(g)
        assert subformulas(phi) == reference_subformulas(phi)
        game, root_of = mucalc_game(vass, phi)
        ref, ref_root_of = reference_mucalc_game(vass, phi)
        assert game == ref
        assert [root_of(q) for q in vass.state_names()] == [ref_root_of(q) for q in vass.state_names()]


def test_restrict_reachable():
    g = restrict_reachable(G1, ["q2"])
    assert g.state_names() == ("q2",)
    g2 = restrict_reachable(G1, ["q0"])
    assert set(g2.state_names()) == {"q0", "q1", "q2"}
