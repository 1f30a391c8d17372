"""Capped solving and the bracket oracle: soundness directions, monotone
regions, and frozen verdicts for the worked two-state pump game."""
import ast
import os
import random

import pytest

import helpers
from helpers import all_configurations, check_strategy, random_counter_game, reference_solve_capped
import vassgames
from vassgames import bounded
from vassgames.bounded import (
    OVERFLOW_WINS_P0,
    SATURATE,
    UNKNOWN,
    WIN0,
    WIN1,
    bracket_decide,
    solve_capped,
)
from vassgames.core import IntegerGame, NOP_OP, PartialConfig, State, Transition, dec, inc, is_single_sided
from vassgames.parity import solve_parity
from vassgames.semantics import ENERGY, VASS

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


def test_pump_game_verdicts():
    # frozen expectations: winning iff (q0, c >= 1) or (q1, any c); q2 never
    res = solve_capped(G1, VASS, 4, SATURATE, all_configurations(G1, 4))
    for v in range(5):
        assert res[("q0", (v,))] == (0 if v >= 1 else 1)
        assert res[("q1", (v,))] == 0
        assert res[("q2", (v,))] == 1


def test_bracket_on_pump_game():
    assert bracket_decide(G1, VASS, PartialConfig.make("q0", {"c": 1})) == WIN0
    assert bracket_decide(G1, VASS, PartialConfig.make("q0", {"c": 0})) == WIN1
    assert bracket_decide(G1, VASS, PartialConfig.make("q1", {"c": 0})) == WIN0
    assert bracket_decide(G1, VASS, PartialConfig.make("q2", {"c": 9})) == WIN1


def test_drain_loop_loses_energy():
    assert bracket_decide(G2, ENERGY, PartialConfig.make("q0", {"c": 3})) == WIN1


def test_saturate_needs_single_sided_under_vass():
    with pytest.raises(ValueError):
        solve_capped(G2, VASS, 3, SATURATE, all_configurations(G2, 3))
    # but overflow mode is fine for arbitrary games
    solve_capped(G2, VASS, 3, OVERFLOW_WINS_P0, all_configurations(G2, 3))


def test_inflating_loser_stays_unknown():
    # Player 0 can pump forever at an odd color: truly losing, but overflow
    # mode hands Player 0 the win at every cap, so the bracket cannot close.
    g = IntegerGame(
        ("c",),
        (State("q0", 0, 1),),
        (Transition("t1", "q0", inc("c"), "q0"),),
    )
    assert bracket_decide(g, VASS, PartialConfig.make("q0", {"c": 0}), max_cap=8) == UNKNOWN


def test_modes_bracket_each_other():
    # at equal caps, saturate winners for P0 are contained in overflow winners
    rng = random.Random(4242)
    for _ in range(20):
        g = random_counter_game(rng, rng.randint(2, 4), 1, single_sided=True)
        for cap in (2, 4):
            sat = solve_capped(g, VASS, cap, SATURATE, all_configurations(g, cap))
            ovf = solve_capped(g, VASS, cap, OVERFLOW_WINS_P0, all_configurations(g, cap))
            for key, w in sat.items():
                if w == 0:
                    assert ovf[key] == 0


def test_region_upward_closed_and_cap_monotone():
    rng = random.Random(515)
    for _ in range(15):
        g = random_counter_game(rng, rng.randint(2, 4), 1, single_sided=True)
        small = solve_capped(g, VASS, 3, SATURATE, all_configurations(g, 3))
        big = solve_capped(g, VASS, 6, SATURATE, all_configurations(g, 6))
        for (q, (v,)), w in small.items():
            # upward closed in the value
            if w == 0:
                assert all(small[(q, (u,))] == 0 for u in range(v, 4))
            # saturate P0-wins persist at larger caps
            if w == 0:
                assert big[(q, (v,))] == 0


def test_energy_vs_vass_on_single_sided():
    # for single-sided games the two semantics agree wherever both resolve
    rng = random.Random(99)
    checked = 0
    for _ in range(15):
        g = random_counter_game(rng, rng.randint(2, 4), 1, single_sided=True)
        for q in g.state_names():
            for v in (0, 2):
                gamma = PartialConfig.make(q, {"c1": v})
                e = bracket_decide(g, ENERGY, gamma, max_cap=16)
                w = bracket_decide(g, VASS, gamma, max_cap=16)
                if e != UNKNOWN and w != UNKNOWN:
                    assert e == w
                    checked += 1
    assert checked > 20


def test_agrees_with_reference_solve_capped(monkeypatch):
    # the tuple-keyed grid: with every configuration as a root in rank
    # order, the same winners from the same parity game, vertex for vertex,
    # so Zielonka does the same work; both strategies verify on every grid
    games = {bounded: [], helpers: []}
    for module, record in games.items():

        def recording(fg, *args, record=record):
            solved = solve_parity(fg, *args)
            record.append((fg, solved))
            return solved

        monkeypatch.setattr(module, "solve_parity", recording)
    rng = random.Random(6006)
    compared = 0
    for i in range(300):
        k = 1 + i % 3
        g = random_counter_game(rng, rng.randint(2, 4), k, single_sided=rng.random() < 0.5)
        cap = rng.randint(0, 4)
        for semantics in (ENERGY, VASS):
            for mode in (SATURATE, OVERFLOW_WINS_P0):
                if semantics == VASS and mode == SATURATE and not is_single_sided(g):
                    continue
                ref = reference_solve_capped(g, semantics, cap, mode)
                assert solve_capped(g, semantics, cap, mode, all_configurations(g, cap)) == ref
                assert len(ref) == len(g.states) * (cap + 1) ** k
                compared += 1
    assert compared > 1000
    assert games[bounded] == games[helpers]
    for fg, (w0, w1, s0, s1) in games[bounded]:
        assert check_strategy(fg, 0, s0, w0)
        assert check_strategy(fg, 1, s1, w1)


def test_rooted_grid_agrees_with_full_grid():
    # a grid explored from one configuration is closed under moves, so each
    # configuration it reaches has its winner in the whole grid; the grid
    # holds nothing the root does not reach, and at most one sink per winner
    rng = random.Random(7117)
    compared = 0
    for i in range(90):
        k = 1 + i % 3
        g = random_counter_game(rng, rng.randint(2, 4), k, single_sided=rng.random() < 0.5)
        cap = i // 3 % 5
        configs = all_configurations(g, cap)
        probes = configs if len(configs) <= 40 else rng.sample(configs, 40)
        for semantics in (ENERGY, VASS):
            for mode in (SATURATE, OVERFLOW_WINS_P0):
                if semantics == VASS and mode == SATURATE and not is_single_sided(g):
                    continue
                full = reference_solve_capped(g, semantics, cap, mode)
                for root in probes:
                    res = solve_capped(g, semantics, cap, mode, (root,))
                    assert root in res
                    assert {key: full[key] for key in res} == res
                    grid, configs = bounded.capped_grid(g, semantics, cap, mode, (root,))
                    reached, todo = {0}, [0]
                    while todo:
                        for w in grid.succ[todo.pop()]:
                            if w not in reached:
                                reached.add(w)
                                todo.append(w)
                    assert reached == set(range(len(grid.vertices)))
                    sinks = range(len(configs), len(grid.vertices))
                    assert len(sinks) <= 2
                    assert all(grid.succ[v] == (v,) for v in sinks)
                    assert len({grid.vertices[v][1] % 2 for v in sinks}) == len(sinks)
                    compared += 1
    assert compared > 5000


def test_roots_come_first_and_are_checked():
    roots = (("q2", (3,)), ("q0", (0,)), ("q0", (0,)))
    assert list(solve_capped(G1, VASS, 4, SATURATE, roots)) == [
        ("q2", (3,)), ("q0", (0,)), ("q2", (0,))]
    for bad in (("q9", (0,)), ("q0", (5,)), ("q0", (-1,)), ("q0", (0, 0))):
        with pytest.raises(ValueError):
            solve_capped(G1, VASS, 4, SATURATE, (bad,))


def package_imports(module):
    """Names of the vassgames modules a source file imports, at any depth."""
    path = os.path.join(os.path.dirname(vassgames.__file__), module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and not node.module:  # from . import x
                found.update(a.name for a in node.names)
            elif node.level or node.module.startswith("vassgames."):
                found.add(node.module.split(".")[-1])
            elif node.module == "vassgames":
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[-1] for a in node.names if a.name.startswith("vassgames."))
    return found


def names_imported_from(module, source):
    """Names a vassgames source file imports from another vassgames module;
    "*module*" stands for the module object itself."""
    path = os.path.join(os.path.dirname(vassgames.__file__), module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == source:
                found.update(a.name for a in node.names)
            elif node.module in (None, "vassgames") and source in {a.name for a in node.names}:
                found.add("*module*")
        elif isinstance(node, ast.Import) and any(a.name == "vassgames." + source for a in node.names):
            found.add("*module*")
    return found


def test_oracle_and_solver_are_independent():
    # the oracle is the reference the solver is checked against, so neither
    # may call into the other.  The abstract energy solver shares only the
    # grid builder: capped_grid is checked against its own reference
    # (test_agrees_with_reference_solve_capped), and the certificates the
    # solver reads off its grids against the strategy enumerator
    # (test_energy's differential test), so the oracle's verdicts stay an
    # independent check of the solver.
    assert package_imports("bounded").isdisjoint({"solver", "energy", "applications"})
    assert "bounded" not in package_imports("solver")
    assert names_imported_from("energy", "bounded") == {"capped_grid", "SATURATE"}


def test_every_import_is_used():
    # each module loads every name it imports; __init__.py only re-exports
    package = os.path.dirname(vassgames.__file__)
    unused = {}
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - loaded:
            unused[fname] = sorted(imported - loaded)
    assert unused == {}
