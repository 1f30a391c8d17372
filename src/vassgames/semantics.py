"""Step semantics for integer games.

Two readings of the counter updates:

* energy: counters range over the integers, every transition is always
  enabled, and Player 0 additionally has to keep all counters nonnegative
  (checked by the objective, not by enabledness);
* vass: counters range over the naturals, a Dec on a defined counter at 0 is
  disabled.  Updates on undefined counters keep them undefined.
"""
from __future__ import annotations

from typing import Optional

from .core import DEC, IntegerGame, PartialConfig

ENERGY = "energy"
VASS = "vass"


def vass_step(game: IntegerGame, cfg: PartialConfig, tid: str) -> Optional[PartialConfig]:
    """Apply a transition under VASS semantics, or None when disabled.

    A Dec is disabled exactly when its counter is defined and 0.  Updates on
    counters outside the domain leave the counter undefined."""
    t = game.transition(tid)
    if t.source != cfg.state:
        raise ValueError("transition %s does not start at %s" % (tid, cfg.state))
    vals = cfg.valuation
    c = t.op.counter
    if c is not None and c in vals:
        if t.op.kind == DEC and vals[c] == 0:
            return None
        vals[c] = vals[c] + t.op.delta
    return PartialConfig.make(t.target, vals)

