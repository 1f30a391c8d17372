"""Finite parity solver against a brute-force strategy-enumeration oracle."""
import random

import pytest

from helpers import brute_force_parity, random_parity_game, reference_solve_parity
from vassgames.parity import FiniteParityGame, solve_parity, verify_strategy


def test_textbook_example():
    # v0 (P0, color 1) -> v1, v2; v1 (P1, color 0) -> v0; v2 (P1, color 1) -> v2
    g = FiniteParityGame(((0, 1), (1, 0), (1, 1)), ((1, 2), (0,), (2,)))
    w0, w1, s0, s1 = solve_parity(g)
    # the only cycles are v0-v1 (max color 1, odd) and v2 (odd): Player 1 wins all
    assert w0 == frozenset()
    assert w1 == frozenset({0, 1, 2})
    assert verify_strategy(g, 1, s1, w1)


def test_even_self_loop():
    # a = 0 (P0, color 2) -> a, b; b = 1 (P1, color 1) -> a
    g = FiniteParityGame(((0, 2), (1, 1)), ((0, 1), (0,)))
    w0, w1, s0, s1 = solve_parity(g)
    assert w0 == frozenset({0, 1})
    assert verify_strategy(g, 0, s0, w0)


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
        assert verify_strategy(g, 0, s0, w0)
        assert verify_strategy(g, 1, s1, w1)


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
            ok = verify_strategy(g, 0, s0, bogus)
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
        c0 = s0.as_dict()
        for v in w0:
            owner, _ = g.vertices[v]
            if owner == 0:
                assert c0[v] in w0
        c1 = s1.as_dict()
        for v in w1:
            owner, _ = g.vertices[v]
            if owner == 1:
                assert c1[v] in w1


def test_agrees_with_reference_zielonka():
    # the set-copying solver the alive mask replaced: same winning sets;
    # each strategy keeps its player in its region, and verifies on small games
    rng = random.Random(31013)
    verified = 0
    for _ in range(1200):
        n = rng.randint(1, 40)
        g = random_parity_game(rng, n, max_color=6, max_out=rng.randint(1, 3))
        w0, w1, s0, s1 = solve_parity(g)
        r0, r1, _, _ = reference_solve_parity(g)
        assert (w0, w1) == (r0, r1)
        for player, region, strat in ((0, w0, s0), (1, w1, s1)):
            choice = strat.as_dict()
            for v in region:
                if g.vertices[v][0] == player:
                    assert choice[v] in region
        if n <= 8:
            assert verify_strategy(g, 0, s0, w0)
            assert verify_strategy(g, 1, s1, w1)
            verified += 1
    assert verified > 100
