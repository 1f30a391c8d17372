"""Command line front end: golden outputs, exit codes, file formats."""
import json
import os
import re
import time

import pytest

from vassgames import cli, formats
from vassgames.core import Budget, BudgetExceeded, PartialConfig
from vassgames.energy import pareto_energy, solve_abstract_energy_parity
from vassgames.solver import build_out_game

DATA = os.path.join(os.path.dirname(__file__), "data")
G1 = os.path.join(DATA, "g1.game")
G2 = os.path.join(DATA, "g2.game")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPareto:
    def test_golden_frontier(self, capsys):
        code, out, _ = run_cli(capsys, "pareto", G1, "--counters", "c")
        assert code == 0
        with open(os.path.join(DATA, "g1_frontier.golden")) as fh:
            assert out == fh.read()

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "pareto", G1, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "pareto"
        assert payload["frontier"] == {"q0": [{"c": 1}], "q1": [{"c": 0}], "q2": []}
        assert "budget" in payload


@pytest.fixture
def chain_game(tmp_path):
    # a 1,200-vertex chain v -> v, v+1 with color v and owner v % 2:
    # Zielonka nests one call per color, 1,200 deep
    lines = ["state v%d owner=%d color=%d" % (v, v % 2, v) for v in range(1200)]
    lines += ["trans a%d: v%d nop v%d" % (v, v, v) for v in range(1200)]
    lines += ["trans b%d: v%d nop v%d" % (v, v, v + 1) for v in range(1199)]
    p = tmp_path / "chain.game"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestExitCodes:
    def test_deadlock_is_an_error_without_repair(self, capsys, tmp_path):
        p = tmp_path / "drain.game"
        p.write_text("counters c\nstate q0 owner=0 color=2\ntrans t1: q0 dec(c) q0\n")
        code, _, err = run_cli(capsys, "pareto", str(p))
        assert code == 2
        assert "complete-sinks" in err

    def test_deadlock_repaired_with_flag(self, capsys, tmp_path):
        # q0 can only decrement: at c=0 the repair's losing escape is its move
        p = tmp_path / "swing.game"
        p.write_text(
            "counters c\n"
            "state q0 owner=0 color=2\n"
            "state q1 owner=0 color=2\n"
            "trans t1: q0 dec(c) q1\n"
            "trans t2: q1 inc(c) q0\n"
        )
        for config, verdict in (("q0 c=1", "player0"), ("q0 c=0", "player1")):
            code, out, _ = run_cli(capsys, "check", str(p), "--config", config, "--complete-sinks")
            assert code == 0 and out == verdict + "\n"
        code, _, err = run_cli(capsys, "check", str(p), "--config", "q0 c=1")
        assert code == 2 and "complete-sinks" in err

    def test_abstract_solve_reads_game_as_written(self, capsys):
        # energy semantics never disables a move, so g2's dec-only q0 needs
        # no repair; it used to exit 2 asking for --complete-sinks
        code, out, _ = run_cli(capsys, "solve-abstract", G2)
        assert code == 0 and out == "q0: player1\n"

    def test_repair_ids_fresh_against_input(self, capsys, tmp_path):
        # q1 can only decrement, so its escape would be '__stuck0', the id of
        # an input transition; the repair used to exit 2 on the duplicate
        text = (
            "counters c\n"
            "state q0 owner=0 color=0\n"
            "state q1 owner=0 color=2\n"
            "trans __stuck0: q0 inc(c) q1\n"
            "trans t2: q1 dec(c) q0\n"
        )
        outs = []
        for name, body in (("clash", text), ("plain", text.replace("__stuck0", "t1"))):
            p = tmp_path / (name + ".game")
            p.write_text(body)
            code, out, _ = run_cli(capsys, "pareto", str(p), "--complete-sinks")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == "q0: (c=0)\nq1: (c=1)\n"

    @pytest.mark.parametrize(
        "body",
        [
            # Player 1 at q1 can only decrement; q0 pumps or hands back
            "state q0 owner=0 color=2\nstate q1 owner=1 color=0\n"
            "trans t1: q1 dec(c) q0\ntrans t2: q0 dec(c) q1\ntrans t3: q0 inc(c) q0\n",
            # Player 0 can only drain
            "state q0 owner=0 color=0\ntrans t1: q0 dec(c) q0\n",
        ],
        ids=["player1-dec-only", "player0-dec-only"],
    )
    def test_energy_game_needs_no_deadlock_repair(self, capsys, tmp_path, body):
        # no energy move is ever disabled, and the embedding adds its own
        # escapes, so pareto-energy and solve-abstract load the game as it is
        p = tmp_path / "energy.game"
        p.write_text("counters c\n" + body)
        game, _ = formats.parse_game(p.read_text())
        expected = pareto_energy(game, game.counters)
        code, out, _ = run_cli(capsys, "pareto-energy", str(p))
        assert code == 0 and out.splitlines() == formats.format_frontier(game, expected)
        code, out, _ = run_cli(capsys, "pareto-energy", str(p), "--format", "json")
        assert code == 0 and json.loads(out)["frontier"] == formats.frontier_json(game, expected)
        verdicts = solve_abstract_energy_parity(game)
        code, out, _ = run_cli(capsys, "solve-abstract", str(p))
        assert code == 0 and out.splitlines() == ["%s: player%d" % (q, verdicts[q]) for q in game.state_names()]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve-abstract", os.path.join(DATA, "nope.game"))
        assert code == 2

    def test_oracle_decided(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", G1, "--config", "q0 c=1")
        assert code == 0 and out.strip() == "Win0"
        code, out, _ = run_cli(capsys, "oracle", G1, "--config", "q0 c=0")
        assert code == 0 and out.strip() == "Win1"

    def test_oracle_unknown(self, capsys, tmp_path):
        # Player 0 pumps forever at an odd color: neither cap mode can close
        p = tmp_path / "pump.game"
        p.write_text(
            "counters c\nstate q0 owner=0 color=1\ntrans t1: q0 inc(c) q0\n"
        )
        code, out, _ = run_cli(capsys, "oracle", str(p), "--config", "q0 c=0", "--cap", "8")
        assert code == 3 and out.strip() == "Unknown"

    def test_oracle_probe_at_max_cap(self, capsys, tmp_path):
        # the cap-3 grid holds c=3, so the probe is decided there, not skipped
        p = tmp_path / "drain.game"
        p.write_text("counters c\nstate q0 owner=0 color=2\ntrans t1: q0 dec(c) q0\n")
        for cap in ("3", "4"):
            code, out, _ = run_cli(capsys, "oracle", str(p), "--config", "q0 c=3", "--cap", cap)
            assert code == 0 and out.strip() == "Win1"
        code, out, _ = run_cli(capsys, "oracle", str(p), "--config", "q0 c=3", "--cap", "2")
        assert code == 3 and out.strip() == "Unknown"

    def test_unread_flags_rejected(self, capsys):
        # each command registers only the flags it reads
        for argv in (
            ["oracle", G1, "--config", "q0 c=1", "--node-budget", "5"],
            ["oracle", G1, "--config", "q0 c=1", "--complete-sinks"],
            ["pareto-energy", G1, "--complete-sinks"],
            ["solve-abstract", G1, "--complete-sinks"],
            ["generate", "--seed", "7", "--format", "json"],
            ["generate", "--seed", "7", "--time-budget-ms", "100"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "oracle", G1, "--config", "q0 c=1", "--format", "json")
        assert code == 0 and json.loads(out) == {"command": "oracle", "verdict": "Win0",
                                                 "budget": {"time_budget_ms": 0}}
        # the abstract solver bounds its certificate grids by the node budget
        code, out, _ = run_cli(capsys, "solve-abstract", G1, "--time-budget-ms", "5000", "--format", "json")
        assert code == 0 and json.loads(out)["budget"] == {"node_budget": 100000, "time_budget_ms": 5000}

    def test_negative_counts_rejected(self, capsys):
        # budgets, the cap and generator sizes are counts: a negative one is
        # a usage error, not a budget already spent or an empty game
        for argv in (
            ["pareto", G1, "--node-budget", "-1"],
            ["pareto", G1, "--time-budget-ms", "-5"],
            ["oracle", G1, "--config", "q0 c=1", "--cap", "-1"],
            ["generate", "--seed", "7", "--states", "-2"],
            ["generate", "--seed", "7", "--counters", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "nonnegative" in capsys.readouterr().err

    def test_deadline_stops_strategy_enumeration(self):
        # over 200,000 Player-1 strategies of this base game, none of which
        # empties Player 0's winning set early; the capped-grid certificates
        # decide it (test_stall_decided), so a node budget of 0 builds none
        game, _ = formats.generate_game(0, 60, 1)
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="time budget exceeded in abstract energy parity solver"):
            solve_abstract_energy_parity(game, Budget(node_budget=0, deadline=t0 + 1.0))
        assert time.monotonic() - t0 < 5.0

    def test_node_budget_bounds_abstract_grids(self, capsys, tmp_path):
        # the same base game: its certificate grids decide it, and with a node
        # budget of 0 no grid is built, so the enumeration meets the deadline
        code, text, _ = run_cli(capsys, "generate", "--seed", "0", "--states", "60", "--counters", "1")
        p = tmp_path / "stall.game"
        p.write_text(text)
        code, _, err = run_cli(capsys, "solve-abstract", str(p), "--node-budget", "0", "--time-budget-ms", "500")
        assert code == 3 and "abstract energy parity solver" in err
        code, out, _ = run_cli(capsys, "solve-abstract", str(p))
        assert code == 0 and len(out.splitlines()) == 60

    def test_deadline_checked_on_every_strategy(self):
        # the first out-game of this 20-state, 2-counter game: 152 states and
        # 41,472 Player-1 strategies, each posing a one-player test over all
        # of them; a check every 256 strategies ran for over a minute past a
        # 2 s deadline.  Every base state wins abstractly, so beta is every
        # state with the empty domain
        game, _ = formats.generate_game(6, 20, 2)
        assert set(solve_abstract_energy_parity(game).values()) == {0}
        beta = [PartialConfig.make(q) for q in game.state_names()]
        out = build_out_game(game, PartialConfig.make("q0", {"c2": 0}), beta)
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="time budget exceeded in abstract energy parity solver"):
            solve_abstract_energy_parity(out.game, Budget(node_budget=0, deadline=t0 + 2.0))
        assert time.monotonic() - t0 < 3.5

    @pytest.mark.parametrize("generate, command, deadline_ms", [
        pytest.param(["--seed", "19", "--states", "5", "--counters", "2", "--general"], "pareto-energy", 15000,
                     id="energy-seed19"),
        pytest.param(["--seed", "0", "--states", "60", "--counters", "1"], "pareto", 1000, id="one-counter-seed0"),
        pytest.param(["--seed", "3", "--states", "60", "--counters", "1"], "pareto", 10000, id="one-counter-seed3"),
        pytest.param(["--seed", "13", "--states", "60", "--counters", "1"], "pareto", 10000, id="one-counter-seed13"),
        pytest.param(["--seed", "22", "--states", "60", "--counters", "1"], "pareto", 10000, id="one-counter-seed22"),
        pytest.param(["--seed", "0", "--states", "20", "--counters", "2"], "pareto", 5000, id="two-counter-seed0"),
        pytest.param(["--seed", "4", "--states", "20", "--counters", "2"], "pareto", 5000, id="two-counter-seed4"),
        pytest.param(["--seed", "6", "--states", "20", "--counters", "2"], "pareto", 2000, id="two-counter-seed6"),
    ])
    def test_stall_decided(self, capsys, tmp_path, generate, command, deadline_ms):
        # Player-1 strategy products of up to 2.7 billion in the base game or
        # an out-game: enumerating them exited 3 at these deadlines, the
        # capped-grid certificates decide them
        _, text, _ = run_cli(capsys, "generate", *generate)
        p = tmp_path / "stall.game"
        p.write_text(text)
        t0 = time.monotonic()
        code, _, err = run_cli(capsys, command, str(p), "--time-budget-ms", str(deadline_ms))
        assert code == 0 and err == ""
        assert time.monotonic() - t0 < deadline_ms / 1000.0

    def test_deadline_stops_oracle(self, capsys, tmp_path):
        # Player 0 pumps three counters at an odd color: no cap decides, and
        # the cap-64 grids hold 274,625 configurations each
        p = tmp_path / "pump3.game"
        p.write_text("counters a b c\nstate q0 owner=0 color=1\n"
                     "trans t1: q0 inc(a) q0\ntrans t2: q0 inc(b) q0\ntrans t3: q0 inc(c) q0\n")
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "oracle", str(p), "--config", "q0 a=0 b=0 c=0", "--time-budget-ms", "200")
        assert code == 3 and out == ""
        assert err.startswith("unknown: time budget exceeded in capped bracket oracle")
        assert time.monotonic() - t0 < 1.0

    def test_large_strategy_product_decided(self, capsys, tmp_path):
        p = tmp_path / "wide.game"
        p.write_text(formats.print_game(*formats.generate_game(30, 40, 1)))
        code, out, _ = run_cli(capsys, "pareto", str(p), "--format", "json")
        assert code == 0
        assert all(v == [] for v in json.loads(out)["frontier"].values())

    def test_deep_parity_chain_decided(self, capsys, chain_game):
        # each vertex wins for the owner of its color by its own loop
        code, out, _ = run_cli(capsys, "solve-abstract", chain_game)
        assert code == 0
        assert out.splitlines() == ["v%d: player%d" % (v, v % 2) for v in range(1200)]

    @pytest.mark.parametrize("command, layer", [
        (["solve-abstract"], "abstract energy parity solver"),
        (["oracle", "--config", "v0"], "capped bracket oracle"),
    ], ids=["solve-abstract", "oracle"])
    def test_deadline_stops_zielonka(self, capsys, chain_game, command, layer):
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, command[0], chain_game, *command[1:], "--time-budget-ms", "500")
        assert code == 3 and out == ""
        assert err.startswith("unknown: time budget exceeded in " + layer)
        assert time.monotonic() - t0 < 1.5

    def test_deep_formula_decided(self, capsys, tmp_path):
        # from q0 c=1 only the loop q0 -> q1 -> q0 reaches q1, so <>^n q1
        # holds iff n is odd; no formula walk recurses once per level
        f = tmp_path / "deep.mu"
        for n, verdict in ((3000, "false"), (2999, "true")):
            f.write_text("<> " * n + "q1\n")
            code, out, _ = run_cli(capsys, "mc", G1, "--formula", str(f), "--init", "q0 c=1")
            assert code == 0 and out.strip() == verdict


class TestCheck:
    def test_membership(self, capsys):
        code, out, _ = run_cli(capsys, "check", G1, "--config", "q0 c=1")
        assert code == 0 and out.strip() == "player0"
        code, out, _ = run_cli(capsys, "check", G1, "--config", "q0 c=0")
        assert code == 0 and out.strip() == "player1"

    def test_abstract_query(self, capsys):
        # no counter assignment: abstract membership at the state
        code, out, _ = run_cli(capsys, "check", G1, "--config", "q1")
        assert code == 0 and out.strip() == "player0"


class TestGenerate:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "generate", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "generate", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "generate", "--seed", "8")
        assert out3 != out1

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--seed", "11", "--states", "5", "--counters", "2")
        game, labels = formats.parse_game(out)
        assert formats.print_game(game, labels) == out


class TestFormats:
    def test_multi_step_desugaring(self):
        text = (
            "counters c\n"
            "state q0 owner=0 color=0\n"
            "state q1 owner=0 color=0\n"
            "trans t1: q0 inc(c,3) q1 label=a\n"
        )
        game, labels = formats.parse_game(text)
        hops = [t for t in game.transitions]
        assert len(hops) == 3
        assert [t.source for t in hops] == ["q0", "t1__s1", "t1__s2"]
        assert hops[-1].target == "q1"
        assert all(t.op.kind == "inc" for t in hops)
        # the label sits on the first hop, the rest are internal
        assert labels[hops[0].tid] == "a"
        assert all(labels[t.tid] == "tau" for t in hops[1:])

    def test_hop_names_fresh_against_declared_names(self, capsys, tmp_path):
        # the hops of t1 would be named like the declared state t1__s1 or
        # the declared transition t1__h1; both used to exit 2 on a duplicate
        base = (
            "counters c\n"
            "state q0 owner=0 color=2\n"
            "state r owner=0 color=1\n"
            "state %s owner=0 color=0\n"
            "trans t0: %s nop r\n"
            "trans t1: q0 inc(c,2) %s\n"
            "trans t2: %s dec(c) q0\n"
            "trans %s: r nop r\n"
        )
        cases = (
            ("t1__s1", "t3", "t1__s1_", "t1__h1", "q0: (c=0)\nt1__s1: (c=1)\nt1__s1_: (c=0)\n"),
            ("p", "t1__h1", "t1__s1", "t1__h1_", "q0: (c=0)\np: (c=1)\nt1__s1: (c=0)\n"),
        )
        for state, tid, hop_state, hop_id, frontier in cases:
            text = base % (state, state, state, state, tid)
            game, _ = formats.parse_game(text)
            assert hop_state in game.state_names() and game.transition(hop_id).source == hop_state
            p = tmp_path / "hops.game"
            p.write_text(text)
            code, out, _ = run_cli(capsys, "pareto", str(p))
            assert code == 0
            assert out == frontier

    def test_zero_repeat_rejected(self, capsys, tmp_path):
        # inc(c,0) used to drop the transition, so pareto answered for
        # another game
        p = tmp_path / "zero.game"
        p.write_text(
            "counters c\n"
            "state q0 owner=0 color=0\n"
            "state q1 owner=0 color=0\n"
            "trans t0: q0 nop q0\n"
            "trans t1: q0 inc(c,0) q1\n"
            "trans t2: q1 nop q1\n"
        )
        code, _, err = run_cli(capsys, "pareto", str(p))
        assert code == 2 and "line 5" in err and "inc(c,0)" in err
        with pytest.raises(ValueError, match="line 1"):
            formats.parse_game("trans t1: q0 dec(c,0) q0\n")

    @pytest.mark.parametrize("state_attrs, trans_attrs, error", [
        (" owner=0 color=2 owner=1", "", "line 2: attribute 'owner' given twice"),
        (" owner", "", "line 2: attribute 'owner' has no value"),
        ("", " label=a label=b", "line 3: attribute 'label' given twice"),
        ("", " label", "line 3: attribute 'label' has no value"),
        ("", " label=", "line 3: attribute 'label' has no value"),
        (" owner=", "", "line 2: attribute 'owner' has no value"),
        (" color=", "", "line 2: attribute 'color' has no value"),
        (" owner=x", "", "line 2: attribute 'owner' is not an integer: 'x'"),
    ])
    def test_bad_attribute_rejected(self, capsys, tmp_path, state_attrs, trans_attrs, error):
        # a repeated attribute used to override the first one, a bare or
        # empty label loaded as the empty action, and an empty or
        # non-integer owner failed without naming the attribute
        p = tmp_path / "attr.game"
        p.write_text("counters c\nstate q0%s\ntrans t1: q0 nop q0%s\n" % (state_attrs, trans_attrs))
        code, _, err = run_cli(capsys, "pareto", str(p))
        assert code == 2 and error in err

    def test_bad_directive_rejected(self):
        with pytest.raises(ValueError):
            formats.parse_game("flooble q0\n")

    @pytest.mark.parametrize("line, needs", [
        ("state", "'state <name> [owner=<0|1>] [color=<n>]'"),
        ("trans t1:", "'trans <id>: <source> <op> <target> [label=<a>]'"),
        ("trans t1: q0", "'trans <id>: <source> <op> <target> [label=<a>]'"),
        ("trans t1: q0 nop", "'trans <id>: <source> <op> <target> [label=<a>]'"),
    ])
    def test_directive_missing_field_rejected(self, line, needs):
        # these used to fail with "list index out of range"
        with pytest.raises(ValueError, match=re.escape("line 2: expected " + needs)):
            formats.parse_game("counters c\n%s\n" % line)

    def test_config_errors(self):
        game, _ = formats.parse_game("counters c\nstate q0\ntrans t1: q0 nop q0\n")
        with pytest.raises(ValueError):
            formats.parse_config(game, "nope c=1")
        with pytest.raises(ValueError):
            formats.parse_config(game, "q0 d=1")
        with pytest.raises(ValueError):
            formats.parse_config(game, "q0 c=1 c=0")
        # a value that is not a count is named like an unknown counter
        with pytest.raises(ValueError, match="bad counter assignment 'c=x'"):
            formats.parse_config(game, "q0 c=x")
        with pytest.raises(ValueError, match="bad counter assignment 'c='"):
            formats.parse_config(game, "q0 c=")


class TestFrontEnds:
    def test_weaksim(self, capsys, tmp_path):
        fs = tmp_path / "proc.lts"
        fs.write_text("state s0\nedge s0 a s0\n")
        vass = tmp_path / "system.game"
        vass.write_text(
            "counters c\n"
            "state p owner=0 color=0\n"
            "state r owner=0 color=0\n"
            "trans t1: p dec(c) r label=a\n"
            "trans t2: r inc(c) p label=tau\n"
            "trans t3: p nop p label=tau\n"
        )
        code, out, _ = run_cli(capsys, "weaksim", "--fs", str(fs), "--vass", str(vass), "--init", "p c=1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "weaksim", "--fs", str(fs), "--vass", str(vass), "--init", "p c=0")
        assert code == 0 and out.strip() == "false"

    @pytest.mark.parametrize("lts, game, init", [
        # process state x|y meets VASS state z where x meets y|z
        ("state x\nstate x|y\nedge x a x|y\nedge x|y a x\n",
         "counters c\nstate y|z\nstate z\ntrans t1: y|z nop z label=a\ntrans t2: z nop y|z label=a\n",
         "y|z c=0"),
        # VASS state p^a next to p, answering action a
        ("state x\nedge x a x\n",
         "counters c\nstate p\nstate p^a\ntrans t1: p nop p^a label=a\ntrans t2: p^a nop p label=a\n",
         "p c=0"),
    ], ids=["pipe", "caret"])
    def test_weaksim_state_names_do_not_collide(self, capsys, tmp_path, lts, game, init):
        fs = tmp_path / "proc.lts"
        fs.write_text(lts)
        vass = tmp_path / "system.game"
        vass.write_text(game)
        code, out, _ = run_cli(capsys, "weaksim", "--fs", str(fs), "--vass", str(vass), "--init", init)
        assert code == 0 and out.strip() == "true"

    def test_mc_and_global(self, capsys, tmp_path):
        f = tmp_path / "reach.mu"
        f.write_text("mu X . (q1 \\/ <> X)\n")
        code, out, _ = run_cli(capsys, "mc", G1, "--formula", str(f), "--init", "q0 c=1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "mc", G1, "--formula", str(f), "--init", "q0 c=0")
        assert code == 0 and out.strip() == "false"
        code, out, _ = run_cli(capsys, "mc-global", G1, "--formula", str(f))
        assert code == 0
        assert out == "q0: (c=1)\nq1: (c=0)\n"
