"""Step semantics: VASS enabledness, undefined counter passthrough."""
from vassgames.core import IntegerGame, NOP_OP, PartialConfig, State, Transition, dec, inc
from vassgames.semantics import vass_step

GAME = IntegerGame(
    ("c", "d"),
    (State("q0", 0, 0), State("q1", 0, 0)),
    (
        Transition("t1", "q0", dec("c"), "q1"),
        Transition("t2", "q0", inc("d"), "q0"),
        Transition("t3", "q1", NOP_OP, "q0"),
        Transition("t4", "q0", dec("d"), "q1"),
    ),
)


def test_vass_step_disabled_at_zero():
    cfg = PartialConfig.make("q0", {"c": 0, "d": 1})
    assert vass_step(GAME, cfg, "t1") is None
    assert vass_step(GAME, cfg, "t4") == PartialConfig.make("q1", {"c": 0, "d": 0})
    zero = PartialConfig.make("q0", {"c": 0, "d": 0})
    assert [t.tid for t in GAME.out("q0") if vass_step(GAME, zero, t.tid) is not None] == ["t2"]


def test_vass_step_undefined_counter_passes_through():
    cfg = PartialConfig.make("q0", {"d": 0})  # c undefined
    nxt = vass_step(GAME, cfg, "t1")
    assert nxt == PartialConfig.make("q1", {"d": 0})
    assert nxt.get("c") is None
    # dec on the defined counter at 0 is still disabled
    assert vass_step(GAME, cfg, "t4") is None
    # with no counter defined, nothing is disabled
    abstract = PartialConfig.make("q0")
    assert all(vass_step(GAME, abstract, t.tid) is not None for t in GAME.out("q0"))
