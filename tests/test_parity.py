"""Finite parity solver against a brute-force strategy-enumeration oracle,
and the polynomial strategy checker against the exhaustive one."""
import itertools
import random
import time

import pytest

from helpers import (
    brute_force_parity,
    check_strategy,
    random_parity_game,
    reference_solve_parity,
    reference_verify_strategy,
)
from test_stress import saturation_gadget
from vassgames.bounded import SATURATE, capped_grid
from vassgames.core import Budget, BudgetExceeded
from vassgames.formats import parse_game
from vassgames.parity import FiniteParityGame, solve_parity
from vassgames.semantics import ENERGY


def test_textbook_example():
    # v0 (P0, color 1) -> v1, v2; v1 (P1, color 0) -> v0; v2 (P1, color 1) -> v2
    g = FiniteParityGame(((0, 1), (1, 0), (1, 1)), ((1, 2), (0,), (2,)))
    w0, w1, s0, s1 = solve_parity(g)
    # the only cycles are v0-v1 (max color 1, odd) and v2 (odd): Player 1 wins all
    assert w0 == frozenset()
    assert w1 == frozenset({0, 1, 2})
    assert check_strategy(g, 1, s1, w1)


def test_even_self_loop():
    # a = 0 (P0, color 2) -> a, b; b = 1 (P1, color 1) -> a
    g = FiniteParityGame(((0, 2), (1, 1)), ((0, 1), (0,)))
    w0, w1, s0, s1 = solve_parity(g)
    assert w0 == frozenset({0, 1})
    assert check_strategy(g, 0, s0, w0)


def test_vertex_without_edge_rejected():
    with pytest.raises(ValueError):
        FiniteParityGame(((0, 0), (0, 0)), ((1,), ()))
    with pytest.raises(ValueError):
        FiniteParityGame(((0, 0), (0, 0)), ((1,), (2,)))


def test_against_brute_force():
    rng = random.Random(20240817)
    for _ in range(80):
        g = random_parity_game(rng, rng.randint(2, 6))
        w0, w1, s0, s1 = solve_parity(g)
        b0, b1 = brute_force_parity(g)
        assert set(w0) == b0
        assert set(w1) == b1
        assert check_strategy(g, 0, s0, w0)
        assert check_strategy(g, 1, s1, w1)


def test_verify_rejects_false_claim():
    rng = random.Random(99)
    rejected = 0
    for _ in range(60):
        g = random_parity_game(rng, rng.randint(3, 6))
        w0, w1, s0, s1 = solve_parity(g)
        if not w1:
            continue
        # claim the whole board for Player 0 with Player 0's real strategy
        bogus = set(w0) | {next(iter(w1))}
        try:
            ok = check_strategy(g, 0, s0, bogus)
        except ValueError:
            ok = False
        if not ok:
            rejected += 1
        else:
            pytest.fail("verifier accepted a vertex outside the winning region")
    assert rejected > 0


def test_strategy_stays_in_region():
    rng = random.Random(7)
    for _ in range(40):
        g = random_parity_game(rng, rng.randint(2, 6))
        w0, w1, s0, s1 = solve_parity(g)
        for v in w0:
            owner, _ = g.vertices[v]
            if owner == 0:
                assert s0[v] in w0
        for v in w1:
            owner, _ = g.vertices[v]
            if owner == 1:
                assert s1[v] in w1


def test_agrees_with_reference_zielonka():
    # the set-copying solver the alive mask replaced: same winning sets, and
    # both strategies verify
    rng = random.Random(31013)
    for _ in range(1200):
        n = rng.randint(1, 40)
        g = random_parity_game(rng, n, max_color=6, max_out=rng.randint(1, 3))
        w0, w1, s0, s1 = solve_parity(g)
        r0, r1, _, _ = reference_solve_parity(g)
        assert (w0, w1) == (r0, r1)
        assert check_strategy(g, 0, s0, w0)
        assert check_strategy(g, 1, s1, w1)


def _gadget_grids():
    # the saturation gadget's saturated energy grids at caps 1,024 and 2,048
    # (4,121 and 8,217 vertices, 5 colors): Zielonka peels attractor after
    # attractor there, which once nested one call per peel
    game, _ = parse_game(saturation_gadget(18))
    for cap in (1024, 2048):
        roots = tuple((q, (cap,)) for q in game.state_names())
        yield capped_grid(game, ENERGY, cap, SATURATE, roots)[0]


def _reversed_chain(n):
    # v -> v, v-1 with color 2v and owner v % 2: Player 0 wins everywhere,
    # and Zielonka nests one call per color, n deep
    succ = tuple((v, v - 1) if v else (v,) for v in range(n))
    return FiniteParityGame(tuple((v % 2, 2 * v) for v in range(n)), succ)


def test_large_games_verify():
    rng = random.Random(41041)
    randoms = (random_parity_game(rng, rng.randint(200, 2000), max_color=8, max_out=3) for _ in range(100))
    for g in itertools.chain(randoms, _gadget_grids(), [_reversed_chain(3000)]):
        w0, w1, s0, s1 = solve_parity(g)
        assert w0 | w1 == set(range(len(g.vertices))) and not (w0 & w1)
        assert check_strategy(g, 0, s0, w0)
        assert check_strategy(g, 1, s1, w1)
    assert w0 == set(range(3000))  # the last game, the reversed chain


def test_expired_deadline_names_its_layer():
    expired = Budget(deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceeded, match="time budget exceeded in abstract energy parity solver"):
        solve_parity(_reversed_chain(3), expired, "abstract energy parity solver")
    with pytest.raises(BudgetExceeded, match="time budget exceeded in capped bracket oracle"):
        solve_parity(_reversed_chain(3), expired)


def _verdict(verify, g, player, choice, region):
    try:
        return verify(g, player, choice, region)
    except ValueError:
        return "ValueError"


def _follows_non_edge(g, player, choice, region):
    """Does a play from region, with player following choice, reach a vertex
    whose choice is not an edge of g?"""
    reached, todo = set(region), list(region)
    while todo:
        v = todo.pop()
        if g.vertices[v][0] != player:
            targets = g.succ[v]
        elif v not in choice:
            continue
        elif choice[v] not in g.succ[v]:
            return True
        else:
            targets = (choice[v],)
        for w in set(targets) - reached:
            reached.add(w)
            todo.append(w)
    return False


def test_check_strategy_agrees_with_exhaustive_verifier():
    # random (game, player, partial strategy, nonempty region): choices
    # with arbitrary targets at about 90% of the player's vertices; the
    # exhaustive verifier does not check edges, so a followed choice that
    # is not an edge expects ValueError instead of its verdict
    rng = random.Random(13013)
    outcomes = {True: 0, False: 0, "ValueError": 0}
    for _ in range(8000):
        n = rng.randint(1, 7)
        g = random_parity_game(rng, n, max_color=5, max_out=rng.randint(1, 3))
        player = rng.randint(0, 1)
        choice = {v: rng.randrange(n) for v in range(n) if g.vertices[v][0] == player and rng.random() < 0.9}
        region = set(rng.sample(range(n), rng.randint(1, n)))
        got = _verdict(check_strategy, g, player, choice, region)
        if _follows_non_edge(g, player, choice, region):
            expected = "ValueError"
        else:
            expected = _verdict(reference_verify_strategy, g, player, choice, region)
        assert got == expected, (g, player, choice, region)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def test_check_strategy_rejects_a_non_edge():
    # 0 (P0, color 1) -> 1, 1 (P0, color 1) -> 1, 2 (P0, color 0) -> 2: the
    # choice 0 -> 2 is not an edge, and Player 0 loses from 0; both
    # checkers used to accept it on {0, 2}
    g = FiniteParityGame(((0, 1), (0, 1), (0, 0)), ((1,), (1,), (2,)))
    choice = {0: 2, 2: 2}
    assert reference_verify_strategy(g, 0, choice, {0, 2})
    with pytest.raises(ValueError, match="non-edge"):
        check_strategy(g, 0, choice, {0, 2})
    assert check_strategy(g, 0, {2: 2}, {2})
