"""Core types: orderings, antichains, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import drop, highest_color, lt
from vassgames.core import (
    Antichain,
    CounterOp,
    IntegerGame,
    NOP_OP,
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

COUNTERS = ("c1", "c2")


def pc(state, **vals):
    return PartialConfig.make(state, vals)


configs = st.builds(
    lambda dom, vals: PartialConfig("q", tuple(zip(dom, vals))),
    st.lists(st.sampled_from(COUNTERS), unique=True),
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2),
)


class TestOps:
    def test_op_validation(self):
        with pytest.raises(ValueError):
            CounterOp("inc")
        with pytest.raises(ValueError):
            CounterOp("nop", "c")
        with pytest.raises(ValueError):
            CounterOp("bump", "c")
        assert inc("c").delta == 1
        assert dec("c").delta == -1
        assert NOP_OP.delta == 0

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            PartialConfig("q", (("c", -1),))


class TestOrdering:
    def test_leq_requires_same_state_and_domain(self):
        assert not leq(pc("q", c1=0), pc("p", c1=5))
        assert not leq(pc("q", c1=0), pc("q", c1=1, c2=1))
        assert not leq(pc("q"), pc("q", c1=0))

    def test_leq_componentwise(self):
        assert leq(pc("q", c1=1, c2=2), pc("q", c1=1, c2=3))
        assert not leq(pc("q", c1=2, c2=2), pc("q", c1=1, c2=3))
        assert lt(pc("q", c1=1), pc("q", c1=2))
        assert not lt(pc("q", c1=1), pc("q", c1=1))

    @given(configs, configs, configs)
    @settings(max_examples=200, deadline=None)
    def test_leq_partial_order(self, a, b, c):
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    def test_restrict_and_drop(self):
        g = pc("q", c1=1, c2=2)
        assert drop(g, "c2") == pc("q", c1=1)


class TestAntichain:
    def test_insert_keeps_minima(self):
        ac = Antichain().insert(pc("q", c1=2, c2=0)).insert(pc("q", c1=0, c2=2))
        assert len(ac) == 2
        ac2 = ac.insert(pc("q", c1=3, c2=3))  # dominated, ignored
        assert ac2 == ac
        ac3 = ac.insert(pc("q", c1=0, c2=0))  # dominates everything
        assert set(ac3) == {pc("q", c1=0, c2=0)}

    def test_covers(self):
        ac = Antichain([pc("q", c1=1, c2=0)])
        assert ac.covers(pc("q", c1=2, c2=5))
        assert not ac.covers(pc("q", c1=0, c2=5))
        assert not ac.covers(pc("p", c1=2, c2=5))

    def test_comparable_elements_rejected(self):
        with pytest.raises(ValueError):
            Antichain([pc("q", c1=0), pc("q", c1=1)])

    @given(st.lists(configs.filter(lambda g: g.dom == frozenset(COUNTERS)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_insert_order_irrelevant(self, elems):
        ac1 = Antichain()
        for e in elems:
            ac1 = ac1.insert(e)
        ac2 = Antichain()
        for e in reversed(elems):
            ac2 = ac2.insert(e)
        assert ac1 == ac2
        # result is exactly the set of minimal elements
        for e in elems:
            assert ac1.covers(e)


class TestGameValidation:
    def make_game(self):
        return IntegerGame(
            ("c",),
            (State("q0", 0, 2), State("q1", 1, 1)),
            (
                Transition("t1", "q0", dec("c"), "q1"),
                Transition("t2", "q0", NOP_OP, "q0"),
                Transition("t3", "q1", NOP_OP, "q0"),
            ),
        )

    def test_lookup_and_order(self):
        g = self.make_game()
        assert g.state_names() == ("q0", "q1")
        assert [t.tid for t in g.out("q0")] == ["t1", "t2"]
        assert highest_color(g) == 2

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError):
            IntegerGame((), (State("q", 0, 0), State("q", 0, 0)), ())

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError):
            IntegerGame((), (State("q", 0, 0),), (Transition("t", "q", inc("c"), "q"),))

    def test_single_sided(self):
        g = self.make_game()
        assert is_single_sided(g)
        bad = IntegerGame(
            ("c",),
            (State("q0", 1, 0),),
            (Transition("t1", "q0", dec("c"), "q0"),),
        )
        assert not is_single_sided(bad)

    def test_deadlock_check_and_completion(self):
        g = IntegerGame(
            ("c",),
            (State("q0", 0, 0), State("q1", 1, 0)),
            (Transition("t1", "q0", dec("c"), "q0"), Transition("t2", "q1", NOP_OP, "q1")),
        )
        assert check_deadlock_free(g) == ["q0"]
        fixed = complete_with_sinks(g)
        assert check_deadlock_free(fixed) == []
        # the escape loses for the stuck state's owner
        sink = [t.target for t in fixed.out("q0") if t.op.kind == "nop"][0]
        assert fixed.state(sink).color == 1
