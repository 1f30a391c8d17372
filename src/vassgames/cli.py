"""Command line front end.

Exit codes: 0 for any decided verdict (including Player-1 wins), 2 for
errors, 3 when the solver could not decide within its budgets.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from . import formats
from .applications import check_weaksim, global_model_check, model_check, parse_formula
from .bounded import UNKNOWN, bracket_decide
from .core import (
    Budget,
    BudgetExceeded,
    IntegerGame,
    check_deadlock_free,
    complete_with_sinks,
)
from .energy import pareto_energy, solve_abstract_energy_parity
from .semantics import ENERGY, VASS
from .solver import ParetoTable, pareto_single_sided_vass

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


def _nonnegative_int(text: str) -> int:
    """argparse type of the budget, cap and size flags: a nonnegative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %s" % text)
    return value


def _add_common(p: argparse.ArgumentParser, nodes: bool = True, sinks: bool = True) -> None:
    """Register the shared flags a command reads: --format and
    --time-budget-ms always, --node-budget where its solvers apply it,
    --complete-sinks for commands that load a game through the deadlock
    check."""
    if nodes:
        p.add_argument(
            "--node-budget", type=_nonnegative_int, default=100000, help="node limit of out-games and certificate grids"
        )
    p.add_argument("--time-budget-ms", type=_nonnegative_int, default=0, help="soft wall clock limit (0 = none)")
    if sinks:
        p.add_argument(
            "--complete-sinks", action="store_true", help="repair deadlock-check failures with losing sinks"
        )
    p.add_argument("--format", choices=["text", "json"], default="text")


def _budget(args: argparse.Namespace) -> Budget:
    deadline = time.monotonic() + args.time_budget_ms / 1000.0 if args.time_budget_ms else None
    return Budget(node_budget=getattr(args, "node_budget", Budget.node_budget), deadline=deadline)


def _load_game(path: str, args: argparse.Namespace):
    with open(path) as fh:
        game, labels = formats.parse_game(fh.read())
    if "complete_sinks" in args:  # registered by the commands that need the check
        bad = check_deadlock_free(game)
        if bad:
            if args.complete_sinks:
                game = complete_with_sinks(game)
            else:
                raise ValueError(
                    "states %s may deadlock; rerun with --complete-sinks to add losing escapes"
                    % ", ".join(bad)
                )
    return game, labels


def _counter_list(game: IntegerGame, spec: Optional[str]) -> List[str]:
    if spec is None or spec == "":
        return list(game.counters)
    cs = [c.strip() for c in spec.split(",") if c.strip()]
    for c in cs:
        if c not in game.counters:
            raise ValueError("unknown counter %r" % c)
    return cs


def _emit(args: argparse.Namespace, payload: Dict[str, object], text_lines: List[str]) -> None:
    if args.format == "json":
        echo = {k: getattr(args, k) for k in ("node_budget", "time_budget_ms") if k in args}
        if echo:
            payload["budget"] = echo
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vassgames",
        description="Parity games on counters: Pareto frontiers of minimal credit, "
        "energy reductions, weak simulation and mu-calculus checking.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-abstract", help="per-state abstract verdicts (some-credit wins)")
    p.add_argument("game")
    _add_common(p, sinks=False)

    p = sub.add_parser("pareto", help="Pareto frontier under VASS semantics (single-sided game)")
    p.add_argument("game")
    p.add_argument("--counters", default=None, help="tracked counters, comma separated (default: all)")
    _add_common(p)

    p = sub.add_parser("pareto-energy", help="Pareto frontier of the energy parity objective")
    p.add_argument("game")
    p.add_argument("--counters", default=None)
    _add_common(p, sinks=False)

    p = sub.add_parser("check", help="single membership query at a (partial) configuration")
    p.add_argument("game")
    p.add_argument("--config", required=True, help="e.g. 'q0 c=1'")
    _add_common(p)

    p = sub.add_parser("weaksim", help="does the VASS configuration weakly simulate the process?")
    p.add_argument("--fs", required=True, help="finite process file (first state is initial)")
    p.add_argument("--vass", required=True, help="labeled VASS file (label=... on transitions)")
    p.add_argument("--init", required=True, help="initial VASS configuration, e.g. 'q0 c=0'")
    _add_common(p, sinks=False)

    p = sub.add_parser("mc", help="model check a guarded mu-calculus formula at a configuration")
    p.add_argument("vass")
    p.add_argument("--formula", required=True, help="formula file")
    p.add_argument("--init", required=True)
    _add_common(p)

    p = sub.add_parser("mc-global", help="per-state Pareto frontiers of a formula")
    p.add_argument("vass")
    p.add_argument("--formula", required=True)
    _add_common(p)

    p = sub.add_parser("oracle", help="bounded-cap bracket verdict at a concrete configuration")
    p.add_argument("game")
    p.add_argument("--config", required=True)
    p.add_argument("--cap", type=_nonnegative_int, default=64, help="largest cap tried")
    p.add_argument("--semantics", choices=[ENERGY, VASS], default=VASS)
    _add_common(p, nodes=False, sinks=False)

    p = sub.add_parser("generate", help="emit a deterministic random game file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=_nonnegative_int, default=4)
    p.add_argument("--counters", type=_nonnegative_int, default=1)
    p.add_argument("--general", action="store_true", help="allow Player-1 counter updates")

    return ap


def run(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "generate":
        game, labels = formats.generate_game(
            args.seed, args.states, args.counters, single_sided=not args.general
        )
        sys.stdout.write(formats.print_game(game, labels))
        return EXIT_OK

    budget = _budget(args)

    if cmd == "oracle":
        game, _ = _load_game(args.game, args)
        gamma = formats.parse_config(game, args.config)
        verdict = bracket_decide(game, args.semantics, gamma, max_cap=args.cap, budget=budget)
        label = {"win0": "Win0", "win1": "Win1", "unknown": "Unknown"}[verdict]
        _emit(args, {"command": cmd, "verdict": label}, [label])
        return EXIT_UNKNOWN if verdict == UNKNOWN else EXIT_OK

    if cmd == "solve-abstract":
        game, _ = _load_game(args.game, args)
        verdicts = solve_abstract_energy_parity(game, budget)
        lines = ["%s: player%d" % (q, verdicts[q]) for q in game.state_names()]
        _emit(args, {"command": cmd, "verdicts": {q: "player%d" % w for q, w in verdicts.items()}}, lines)
        return EXIT_OK

    if cmd in ("pareto", "pareto-energy"):
        game, _ = _load_game(args.game, args)
        counters = _counter_list(game, args.counters)
        if cmd == "pareto":
            frontier = pareto_single_sided_vass(game, counters, budget)
        else:
            frontier = pareto_energy(game, counters, budget)
        lines = formats.format_frontier(game, frontier)
        _emit(args, {"command": cmd, "frontier": formats.frontier_json(game, frontier)}, lines)
        return EXIT_OK

    if cmd == "check":
        game, _ = _load_game(args.game, args)
        gamma = formats.parse_config(game, args.config)
        table = ParetoTable(game, budget)
        win = table.membership(gamma)
        _emit(args, {"command": cmd, "verdict": "player0" if win else "player1"},
              ["player0" if win else "player1"])
        return EXIT_OK

    if cmd == "weaksim":
        with open(args.fs) as fh:
            fs = formats.parse_lts(fh.read())
        if not fs.states:
            raise ValueError("process has no states")
        vass, labels = _load_game(args.vass, args)
        gamma = formats.parse_config(vass, args.init)
        ans = check_weaksim(fs, fs.states[0], vass, labels, gamma.state, gamma.valuation, budget)
        _emit(args, {"command": cmd, "verdict": ans}, ["true" if ans else "false"])
        return EXIT_OK

    if cmd in ("mc", "mc-global"):
        game, _ = _load_game(args.vass, args)
        with open(args.formula) as fh:
            phi = parse_formula(fh.read())
        if cmd == "mc":
            gamma = formats.parse_config(game, args.init)
            ans = model_check(game, phi, gamma, budget)
            _emit(args, {"command": cmd, "verdict": ans}, ["true" if ans else "false"])
        else:
            frontier = global_model_check(game, phi, budget)
            lines = formats.format_frontier(game, frontier)
            _emit(args, {"command": cmd, "frontier": formats.frontier_json(game, frontier)}, lines)
        return EXIT_OK

    raise ValueError("unknown command %r" % cmd)


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BudgetExceeded as exc:
        print("unknown: %s" % exc, file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
