"""Out-game construction, Valk-Jantzen minimization and Pareto frontiers."""
import itertools
import random
import time

import pytest

from helpers import (
    random_counter_game,
    random_credit_game,
    reference_build_out_game,
    reference_covered_by,
    reference_vj_minimize,
)
from vassgames.bounded import WIN0, WIN1, bracket_decide
from vassgames.core import (
    Antichain,
    Budget,
    BudgetExceeded,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    dec,
    inc,
    leq,
)
from vassgames import solver
from vassgames.semantics import VASS, vass_step
from vassgames.solver import (
    LabelIndex,
    OutGame,
    ParetoTable,
    build_out_game,
    pareto_single_sided_vass,
    vj_minimize,
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


def pc(state, **vals):
    return PartialConfig.make(state, vals)


def covered_by(beta, gamma):
    return LabelIndex(G1, gamma.dom, beta).covered(gamma.state, tuple(v for _, v in gamma.items))


class TestCoveredBy:
    def test_drop_one_coordinate_each(self):
        beta = [pc("q", c1=1), pc("q", c2=0)]
        assert covered_by(beta, pc("q", c1=1, c2=5))
        # c2-drop needs an element over {c1} below (c1=0): none
        assert not covered_by(beta, pc("q", c1=0, c2=5))

    def test_state_must_match(self):
        beta = [pc("q")]
        assert covered_by(beta, pc("q", c1=3))
        assert not covered_by(beta, pc("p", c1=3))

    def test_other_states_and_domains_ignored(self):
        gamma = pc("q", c1=0, c2=7)
        noise = [pc("p", c1=0), pc("p", c2=0), pc("q", c1=0, c2=0), pc("q", c3=0), pc("q")]
        assert not covered_by(noise, gamma)
        # the c1-drop {c2: 7} is now covered, the c2-drop {c1: 0} not yet
        assert not covered_by(noise + [pc("q", c2=7), pc("q", c1=1)], gamma)
        assert covered_by(noise + [pc("q", c2=7), pc("q", c1=0)], gamma)
        for beta in (noise, noise + [pc("q", c2=7), pc("q", c1=0)]):
            assert covered_by(beta, gamma) == reference_covered_by(beta, gamma)

    def test_empty_beta(self):
        assert not covered_by([], pc("q", c1=0))
        assert not covered_by([], pc("q", c1=5, c2=5))
        # an empty domain drops no counter, so it is vacuously covered
        assert covered_by([], pc("q"))

    def test_single_counter_needs_empty_domain_at_same_state(self):
        gamma = pc("q", c=3)
        assert not covered_by([pc("p"), pc("q", c=0)], gamma)
        assert covered_by([pc("p"), pc("q", c=0), pc("q")], gamma)


class TestOutGame:
    def test_uncovered_root_is_losing_leaf(self):
        out = build_out_game(G1, pc("q2", c=0), beta=[pc("q0"), pc("q1")])
        g = out.game
        assert g.counters == ()
        assert g.state(out.root).color == 1
        assert [t for t in g.out(out.root)] and g.out(out.root)[0].target == out.root

    def test_strict_growth_becomes_winning_leaf(self):
        g = IntegerGame(("c",), (State("q", 0, 1),), (Transition("t", "q", inc("c"), "q"),))
        out = build_out_game(g, pc("q", c=0), beta=[pc("q")])
        assert len(out.game.states) == 2
        leaf = [s for s in out.game.states if s.name != out.root][0]
        assert leaf.color == 0
        assert out.labels[leaf.name] == pc("q", c=1)

    def test_merge_goes_to_ancestor_with_equal_label(self):
        beta = [pc("q0"), pc("q1")]
        out = build_out_game(G1, pc("q0", c=1), beta)
        # the pump cycle q0(1) -> q1(0) -> q0(1) must close back on the root
        back = [t for t in out.game.transitions if t.target == out.root and t.source != out.root]
        assert back, "expected a merge edge back to the root"

    def test_tracked_ops_rewritten_to_nop(self):
        beta = [pc("q0"), pc("q1")]
        out = build_out_game(G1, pc("q0", c=1), beta)
        for t in out.game.transitions:
            assert t.op.kind == "nop" or t.op.counter not in ("c",)

    def test_label_step_invariant(self):
        # every expansion edge's labels are related by the original transition
        beta = [pc("q0"), pc("q1")]
        out = build_out_game(G1, pc("q0", c=1), beta)
        check_label_invariant(G1, out)

    def test_node_budget(self):
        g = IntegerGame(("c",), (State("q", 0, 1),), (Transition("t", "q", inc("c"), "q"),))
        with pytest.raises(BudgetExceeded):
            build_out_game(g, pc("q", c=0), beta=[pc("q")], budget=Budget(node_budget=1))

    def test_deadline_names_out_game_unfolding(self):
        # a countdown unfolds one node per value, past the 64-expansion check
        g = IntegerGame(("c",), (State("q", 0, 1),), (Transition("t", "q", dec("c"), "q"),))
        budget = Budget(deadline=time.monotonic() - 1.0)
        with pytest.raises(BudgetExceeded, match="time budget exceeded in out-game unfolding"):
            build_out_game(g, pc("q", c=200), beta=[pc("q")], budget=budget)


class TestOutGameAgainstReference:
    """build_out_game must give the same out-game, field for field, as the
    builder it replaced (helpers.reference_build_out_game)."""

    def test_random_single_sided_games(self):
        games = 0
        for seed in range(300):
            rng = random.Random(seed)
            g = random_counter_game(rng, rng.randint(2, 4), rng.choice([1, 2]), single_sided=True)
            table = ParetoTable(g)
            for r in range(1, len(g.counters) + 1):
                for C in itertools.combinations(g.counters, r):
                    beta = table._beta(frozenset(C))
                    for q in g.state_names():
                        for vals in itertools.product(range(4), repeat=r):
                            gamma = PartialConfig.make(q, dict(zip(C, vals)))
                            assert build_out_game(g, gamma, beta) == reference_build_out_game(g, gamma, beta), (
                                seed, str(gamma))
            games += 1
        assert games == 300

    def test_earliest_equal_label_wins(self):
        # seed 9: n7 and n10 are both labeled q1 c1=1 and both reach n10 when
        # it expands, so its c2-increment loop merges into the earlier n7
        rng = random.Random(9)
        g = random_counter_game(rng, rng.randint(2, 4), rng.choice([1, 2]), single_sided=True)
        beta = ParetoTable(g)._beta(frozenset({"c1"}))
        gamma = pc("q0", c1=2)
        out = build_out_game(g, gamma, beta)
        assert out == reference_build_out_game(g, gamma, beta)
        assert out.labels["n7"] == out.labels["n10"] == pc("q1", c1=1)
        loops = [t for t in out.game.out("n10") if out.origin[t.tid] == "t3"]
        assert [t.target for t in loops] == ["n7"]


class TestSharedIndexAgainstReference:
    """The out-games of one layer share one LabelIndex, which keeps each
    label's coverage and successors from earlier out-games; each must still
    equal, field for field, what the reference builder makes from scratch."""

    def test_layers_in_table_order(self, monkeypatch):
        calls = []
        build = solver.build_out_game

        def recording(game, gamma, beta, budget=None, index=None):
            out = build(game, gamma, beta, budget, index)
            calls.append((gamma, list(beta), index, out))
            return out

        monkeypatch.setattr(solver, "build_out_game", recording)
        total = 0
        for seed in range(200):
            rng = random.Random(seed)
            if seed % 4 == 3:
                g = random_credit_game(rng, rng.choice([1, 2]))
            else:
                g = random_counter_game(rng, rng.randint(2, 4), rng.choice([1, 2]), single_sided=True)
            calls.clear()
            table = ParetoTable(g)
            table.frontier(frozenset(g.counters))
            indexes = {}
            for gamma, beta, index, out in calls:
                assert index is not None and indexes.setdefault(gamma.dom, index) is index, (seed, str(gamma))
                assert beta == table._beta(gamma.dom)
                assert out == reference_build_out_game(g, gamma, beta), (seed, str(gamma))
            total += len(calls)
        assert total > 1500

    def test_earliest_equal_label_through_a_used_index(self):
        # seed 9's layer {c1}, with the index left by its whole frontier: the
        # c2-increment loop at n10 still merges into the earlier n7
        rng = random.Random(9)
        g = random_counter_game(rng, rng.randint(2, 4), rng.choice([1, 2]), single_sided=True)
        table = ParetoTable(g)
        table.frontier(frozenset({"c1"}))
        beta = table._beta(frozenset({"c1"}))
        index = LabelIndex(g, frozenset({"c1"}), beta)
        for q in g.state_names():
            for v in range(4):
                build_out_game(g, pc(q, c1=v), beta, index=index)
        gamma = pc("q0", c1=2)
        out = build_out_game(g, gamma, beta, index=index)
        assert out == reference_build_out_game(g, gamma, beta)
        assert out.labels["n7"] == out.labels["n10"] == pc("q1", c1=1)
        loops = [t for t in out.game.out("n10") if out.origin[t.tid] == "t3"]
        assert [t.target for t in loops] == ["n7"]


def check_label_invariant(game: IntegerGame, out: OutGame) -> None:
    """Expansion edges must satisfy label(dst) = step(label(src)); condition
    self-loops carry no original transition.  This telescopes to a zero net
    effect on tracked counters around every cycle."""
    for t in out.game.transitions:
        orig = out.origin[t.tid]
        if orig is None:
            assert t.source == t.target
            continue
        src_label = out.labels[t.source]
        stepped = vass_step(game, src_label, orig)
        assert stepped == out.labels[t.target]


def record_out_games(monkeypatch):
    """Wrap solver.build_out_game for the rest of the test: the returned list
    receives every out-game it builds."""
    built = []
    build = solver.build_out_game

    def recording(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out)
        return out

    monkeypatch.setattr(solver, "build_out_game", recording)
    return built


def enumerate_cycles_zero_effect(game: IntegerGame, out: OutGame, tracked) -> None:
    """Explicitly check the zero-effect invariant on simple cycles (skipping
    condition self-loops, which have no original transition)."""
    succ = {}
    for t in out.game.transitions:
        if out.origin[t.tid] is not None:
            succ.setdefault(t.source, []).append(t)
    names = [s.name for s in out.game.states]

    def dfs(start, node, path, on_path, depth):
        if depth > 8:
            return
        for t in succ.get(node, []):
            if t.target == start and path:
                total = {c: 0 for c in tracked}
                for e in path + [t]:
                    op = game.transition(out.origin[e.tid]).op
                    if op.counter in total:
                        total[op.counter] += op.delta
                assert all(v == 0 for v in total.values()), (path, t)
            elif t.target not in on_path and names.index(t.target) > names.index(start):
                dfs(start, t.target, path + [t], on_path | {t.target}, depth + 1)

    for s in names:
        dfs(s, s, [], {s}, 0)


class TestVJ:
    def test_synthetic_exact(self):
        rng = random.Random(123)
        counters = ("c1", "c2", "c3")
        for _ in range(30):
            gens = []
            for _ in range(rng.randint(0, 4)):
                gens.append(pc("q", **{c: rng.randint(0, 4) for c in counters}))
            ac = Antichain()
            for g in gens:
                ac = ac.insert(g)

            def query(gamma):
                return any(
                    all(g.get(c) <= gamma.get(c) for c in gamma.dom) for g in gens
                )

            result = vj_minimize(query, "q", counters)
            assert result == ac

    def test_empty_set(self):
        assert len(vj_minimize(lambda g: False, "q", ("c1",))) == 0

    def test_everything(self):
        result = vj_minimize(lambda g: True, "q", ("c1", "c2"))
        assert set(result) == {pc("q", c1=0, c2=0)}

    def test_deadline_checked_on_every_probe(self):
        # the first probe passes the deadline; witness extraction used to
        # probe c1 upward to 100 before the next deadline check
        budget = Budget(deadline=time.monotonic() + 60)
        probes = []

        def query(gamma):
            probes.append(gamma)
            budget.deadline = time.monotonic() - 1
            return gamma.get("c1") is None or gamma.get("c1") >= 100

        with pytest.raises(BudgetExceeded, match="Valk-Jantzen"):
            vj_minimize(query, "q", ("c1",), budget)
        assert probes == [pc("q")]


class TestVJAgainstReference:
    """vj_minimize probes each box corner once; the minimisation it replaced
    (helpers.reference_vj_minimize) enumerated every point of each
    complement ideal.  Both must find the same minima."""

    def test_synthetic_oracles_with_no_more_probes(self):
        rng = random.Random(1985)
        probes = {"boxes": 0, "reference": 0}
        for i in range(1200):
            counters = tuple("c%d" % (j + 1) for j in range(rng.randint(1, 3)))
            if i % 10 == 0:
                gens = []
            elif i % 10 == 1:
                gens = [{c: 0 for c in counters}] + [{c: rng.randint(0, 6) for c in counters}]
            else:
                gens = [{c: rng.randint(0, 6) for c in counters} for _ in range(rng.randint(1, 5))]
            expected = Antichain()
            for g in gens:
                expected = expected.insert(PartialConfig.make("q", g))

            def counted(side):
                def query(gamma):
                    probes[side] += 1
                    return any(all(g[c] <= v for c, v in gamma.items) for g in gens)
                return query

            assert vj_minimize(counted("boxes"), "q", counters) == expected, gens
            assert reference_vj_minimize(counted("reference"), "q", counters) == expected, gens
        assert probes["boxes"] <= probes["reference"], probes

    def test_random_single_sided_games(self, monkeypatch):
        # random_counter_game rarely needs credit, random_credit_game mostly
        # does; every frontier of every counter subset is compared
        multi = 0
        for seed in range(600):
            rng = random.Random(seed)
            if seed % 2:
                g = random_credit_game(rng, rng.choice([1, 2]))
            else:
                g = random_counter_game(rng, rng.randint(2, 4), rng.choice([1, 2]), single_sided=True)
            table = ParetoTable(g)
            table.frontier(frozenset(g.counters))
            with monkeypatch.context() as m:
                m.setattr(solver, "vj_minimize", reference_vj_minimize)
                reference = ParetoTable(g)
                reference.frontier(frozenset(g.counters))
            assert table._frontiers == reference._frontiers, seed
            multi += any(len(ac) > 1 for ac in table.frontier(frozenset(g.counters)).values())
        assert multi > 50


class TestPareto:
    def test_pump_game_frontier(self):
        fr = pareto_single_sided_vass(G1, {"c"})
        assert {str(e) for e in fr["q0"]} == {"q0 c=1"}
        assert {str(e) for e in fr["q1"]} == {"q1 c=0"}
        assert len(fr["q2"]) == 0

    def test_abstract_frontier(self):
        fr = pareto_single_sided_vass(G1, set())
        assert {str(e) for e in fr["q0"]} == {"q0"}
        assert len(fr["q2"]) == 0

    def test_rejects_non_single_sided(self):
        bad = IntegerGame(
            ("c",),
            (State("q0", 1, 0),),
            (Transition("t1", "q0", dec("c"), "q0"), Transition("t2", "q0", NOP_OP, "q0")),
        )
        with pytest.raises(ValueError):
            pareto_single_sided_vass(bad, {"c"})

    def test_membership_consistent_with_frontier(self):
        # a fresh table, so the queries build their out-games instead of
        # reading the stored frontier back
        fr = ParetoTable(G1).frontier(frozenset({"c"}))
        table = ParetoTable(G1)
        for q in G1.state_names():
            for v in range(4):
                gamma = pc(q, c=v)
                assert table.membership(gamma) == fr[q].covers(gamma)

    def test_stored_frontier_answers_without_out_game(self, monkeypatch):
        built = record_out_games(monkeypatch)
        rng = random.Random(4242)
        for g in [G1] + [random_counter_game(rng, rng.randint(2, 4), rng.randint(1, 2), single_sided=True)
                         for _ in range(10)]:
            table = ParetoTable(g)
            fr = table.frontier(frozenset(g.counters))
            built.clear()
            for q in g.state_names():
                for vals in itertools.product(range(4), repeat=len(g.counters)):
                    gamma = PartialConfig.make(q, dict(zip(g.counters, vals)))
                    assert table.membership(gamma) == fr[q].covers(gamma)
            assert not built

    def test_partial_domain_membership_before_any_frontier(self, monkeypatch):
        built = record_out_games(monkeypatch)
        rng = random.Random(909)
        for _ in range(20):
            g = random_counter_game(rng, rng.randint(2, 4), 2, single_sided=True)
            fr = ParetoTable(g).frontier(frozenset({"c1"}))
            table = ParetoTable(g)
            built.clear()
            for q in g.state_names():
                for v in range(4):
                    gamma = pc(q, c1=v)
                    assert table.membership(gamma) == fr[q].covers(gamma)
            # answered by out-games over {c1}, with c2 left untracked
            assert built and all(out.game.counters == ("c2",) for out in built)

    def test_sub_domain_membership_lookup(self):
        # Lemma 6 style: an abstract query reads the abstract frontier
        table = ParetoTable(G1)
        assert table.membership(pc("q0"))
        assert not table.membership(pc("q2"))

    def test_membership_upward_closed_random(self):
        rng = random.Random(2024)
        for _ in range(6):
            g = random_counter_game(rng, rng.randint(2, 4), rng.randint(1, 2), single_sided=True)
            table = ParetoTable(g)
            for _ in range(60):
                q = rng.choice(g.state_names())
                lo = {c: rng.randint(0, 2) for c in g.counters}
                hi = {c: lo[c] + rng.randint(0, 2) for c in g.counters}
                a = table.membership(PartialConfig.make(q, lo))
                b = table.membership(PartialConfig.make(q, hi))
                if a:
                    assert b

    def test_out_game_invariants_on_random_suite(self, monkeypatch):
        built = record_out_games(monkeypatch)
        rng = random.Random(31337)
        total = 0
        for _ in range(10):
            g = random_counter_game(rng, rng.randint(2, 4), 1, single_sided=True)
            built.clear()
            ParetoTable(g).frontier(frozenset(g.counters))
            for out in built:
                check_label_invariant(g, out)
                enumerate_cycles_zero_effect(g, out, out.labels[out.root].dom)
            total += len(built)
        assert total > 0

    def test_frontier_vs_bracket_on_pump_game(self):
        fr = pareto_single_sided_vass(G1, {"c"})
        for q, ac in fr.items():
            for el in ac:
                assert bracket_decide(G1, VASS, el) == WIN0
                for c in el.dom:
                    if el.get(c) > 0:
                        assert bracket_decide(G1, VASS, el.with_value(c, el.get(c) - 1)) == WIN1
