"""Command line front end: golden outputs, exit codes, file formats."""
import json
import os
import time

import pytest

from vassgames import cli, formats

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


class TestExitCodes:
    def test_deadlock_is_an_error_without_repair(self, capsys):
        code, _, err = run_cli(capsys, "solve-abstract", G2)
        assert code == 2
        assert "complete-sinks" in err

    def test_deadlock_repaired_with_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve-abstract", G2, "--complete-sinks")
        assert code == 0
        assert "q0: player1" in out

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

    def test_deadline_stops_strategy_enumeration(self, capsys, tmp_path):
        # over 200,000 Player-1 strategies, none of which empties Player 0's
        # winning set early
        p = tmp_path / "big.game"
        p.write_text(formats.print_game(*formats.generate_game(0, 60, 1)))
        t0 = time.monotonic()
        code, _, err = run_cli(capsys, "pareto", str(p), "--time-budget-ms", "1000")
        assert code == 3 and "time budget exceeded in abstract energy parity solver" in err
        assert time.monotonic() - t0 < 5.0

    def test_large_strategy_product_decided(self, capsys, tmp_path):
        p = tmp_path / "wide.game"
        p.write_text(formats.print_game(*formats.generate_game(30, 40, 1)))
        code, out, _ = run_cli(capsys, "pareto", str(p), "--format", "json")
        assert code == 0
        assert all(v == [] for v in json.loads(out)["frontier"].values())


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

    def test_bad_directive_rejected(self):
        with pytest.raises(ValueError):
            formats.parse_game("flooble q0\n")

    def test_config_errors(self):
        game, _ = formats.parse_game("counters c\nstate q0\ntrans t1: q0 nop q0\n")
        with pytest.raises(ValueError):
            formats.parse_config(game, "nope c=1")
        with pytest.raises(ValueError):
            formats.parse_config(game, "q0 d=1")


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
