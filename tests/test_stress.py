"""Generated game families with closed-form answers, each run through the
command line under a wall-time bound: exit code and exact frontier."""
import time

import pytest

from vassgames import cli


def saturation_gadget(fan):
    """Four states Player 0 loses from behind a Player-1 fan of `fan` states.

    Player 1 answers s3 -> s2 every time, and the cycle s2 -> s3 -> s2 has
    effect -1, so Player 0 loses at s0..s3 from every credit.  On a grid that
    saturates increments at K, Player 1's choice at (s3, K) is s1 instead,
    and under that choice Player 0 wins by s2 -> s3 -> s1 -> s2 (effect 0,
    top color 4).  Every fan state p_i wins at credit 0: Player 1 can only
    move down the fan or to goal, which Player 0 wins by its color-0 loop."""
    lines = [
        "counters c",
        "state s0 owner=0 color=1",
        "state s1 owner=0 color=2",
        "state s2 owner=0 color=3",
        "state s3 owner=1 color=4",
        "state goal owner=0 color=0",
    ]
    lines += ["state p%d owner=1 color=1" % i for i in range(fan)]
    moves = [
        ("s0", "nop", "s0"),
        ("s1", "inc(c)", "s2"),
        ("s1", "nop", "s0"),
        ("s2", "inc(c)", "s0"),
        ("s2", "nop", "s2"),
        ("s2", "dec(c)", "s3"),
        ("s3", "nop", "s2"),
        ("s3", "nop", "s1"),
        ("s3", "nop", "s2"),
        ("goal", "nop", "goal"),
    ]
    for i in range(fan):
        moves += [("p%d" % i, "nop", "p%d" % (i + 1) if i + 1 < fan else "goal"), ("p%d" % i, "nop", "goal")]
    lines += ["trans t%d: %s %s %s" % (j, src, op, dst) for j, (src, op, dst) in enumerate(moves)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fan", [18, 30])
def test_saturation_gadget(capsys, tmp_path, fan):
    # 2**fan * 3 Player-1 strategies: the first enumerated one makes
    # Player 0 lose at s0..s3, which meets what the grids prove
    path = tmp_path / "gadget.game"
    path.write_text(saturation_gadget(fan))
    t0 = time.monotonic()
    code = cli.main(["pareto", str(path)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["goal: (c=0)"] + ["p%d: (c=0)" % i for i in range(fan)]
    assert elapsed < 10.0


def parity_chain(n):
    """States q0..q{n-1}, q_v of owner v % 2 and color 2v, each with a loop
    and q_v with a move to q_{v-1}.  Every color is even, so Player 0 wins
    everywhere; Zielonka nests one call per color, n deep, both on the game
    and on the capped grid the oracle builds from q{n-1}, which has no
    counters to cap and so no sink."""
    lines = ["state q%d owner=%d color=%d" % (v, v % 2, 2 * v) for v in range(n)]
    lines += ["trans a%d: q%d nop q%d" % (v, v, v) for v in range(n)]
    lines += ["trans b%d: q%d nop q%d" % (v, v, v - 1) for v in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [3000])
def test_parity_chain(capsys, tmp_path, n):
    path = tmp_path / "chain.game"
    path.write_text(parity_chain(n))
    t0 = time.monotonic()
    code = cli.main(["solve-abstract", str(path)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["q%d: player0" % v for v in range(n)]
    assert elapsed < 10.0
    t0 = time.monotonic()
    code = cli.main(["oracle", str(path), "--config", "q%d" % (n - 1)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["Win0"]
    assert elapsed < 10.0


CYCLE = "counters c\nstate a owner=0 color=0\nstate b owner=0 color=0\ntrans t0: a nop b\ntrans t1: b nop a\n"


def diamonds(n):
    """<>^n a: on the two-state cycle a <-> b it holds at a iff n is even."""
    return "<> " * n + "a\n"


def alternating_binders(n):
    """mu X0 . <> nu X1 . <> mu X2 . <> ... a, n binders each over one
    diamond: no variable occurs, so it means <>^n a."""
    return "".join("%s X%d . <> " % ("nu" if i % 2 else "mu", i) for i in range(n)) + "a\n"


@pytest.mark.parametrize("family", [diamonds, alternating_binders])
@pytest.mark.parametrize("n", [3000, 3001])
def test_deep_formula(capsys, tmp_path, family, n):
    game, formula = tmp_path / "cycle.game", tmp_path / "deep.mu"
    game.write_text(CYCLE)
    formula.write_text(family(n))
    t0 = time.monotonic()
    code = cli.main(["mc", str(game), "--formula", str(formula), "--init", "a c=0"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["true" if n % 2 == 0 else "false"]
    assert elapsed < 10.0
