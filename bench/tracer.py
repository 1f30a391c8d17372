"""Per-layer tracing from outside the program.

The tracer replaces library functions with wrappers on every module
attribute that refers to them, since callers import most of them by name
(``solver.solve_abstract_energy_parity`` is the same function as
``energy.solve_abstract_energy_parity`` and needs its own wrapper).  A span
wrapper times the call and keeps a stack, so a span's self time is its
duration minus the time of the traced spans it caused.  A count wrapper
only counts calls, for functions called too often to time.
"""
from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

# (module, function, kind); kind "span" or "count"
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("solver", "build_out_game", "span"),
    ("solver", "vj_minimize", "span"),
    ("energy", "solve_abstract_energy_parity", "span"),
    ("_simplex", "feasible", "span"),
    ("parity", "solve_parity", "span"),
    ("bounded", "solve_capped", "span"),
    ("bounded", "bracket_decide", "span"),
    ("applications", "weaksim_game", "span"),
    ("applications", "mucalc_game", "span"),
    ("applications", "restrict_reachable", "span"),
    ("core", "leq", "count"),
    ("semantics", "vass_step", "count"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "amount", "distinct", "good")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.amount = 0  # nodes, vertices, queries or states, per function
        self.distinct: Set[Any] = set()
        self.good = 0  # decided verdicts


def _freeze(rows) -> Tuple:
    return tuple((tuple(c), b) for c, b in rows)


class Tracer:
    """Install with ``install(package)``, read ``stats``, then ``uninstall``."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.stats: Dict[str, Stat] = {}
        self.stack: List[List[float]] = []
        self.keep_spans = keep_spans
        self.spans: List[Tuple[str, int, int, int, float, float]] = []  # name, id, parent, op, start, end
        self.next_id = 0
        self.op_id = 0
        self.sites: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.stats = {name: Stat() for name in self.stats}
        self.spans = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self.stats[name]
            if name == "solver.vj_minimize":
                args = (_counting(st, args[0]),) + args[1:]
            frame = [0.0, self.next_id]
            self.next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if self.keep_spans:
                    self.spans.append((name, frame[1], parent, self.op_id, t0, t1))
            if measure is not None:
                measure(st, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.stats[name].calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: Any) -> List[str]:
        """Wrap every target on every loaded module of the package that
        refers to it.  Returns the patched call sites as module.attribute."""
        prefix = package.__name__
        self.sites = []
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == prefix or name.startswith(prefix + "."))}
        for mod_name, fn_name, kind in TARGETS:
            home = modules["%s.%s" % (prefix, mod_name)]
            fn = getattr(home, fn_name)
            name = "%s.%s" % (mod_name.lstrip("_"), fn_name)
            self.stats[name] = Stat()
            wrapped = self._count(name, fn) if kind == "count" else self._span(name, fn, MEASURES.get(name))
            for site_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
                        self.sites.append("%s.%s" % (site_name, attr))
        return self.sites

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo = []

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, for the calls
        traced since the last reset."""
        s = self.stats

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        product = [s["applications." + f] for f in ("weaksim_game", "mucalc_game", "restrict_reachable")]
        return {
            "solver.build_out_game.calls": s["solver.build_out_game"].calls,
            "solver.build_out_game.self_s": s["solver.build_out_game"].self_time,
            "solver.build_out_game.nodes": s["solver.build_out_game"].amount,
            "solver.vj_minimize.calls": s["solver.vj_minimize"].calls,
            "solver.vj_minimize.queries": s["solver.vj_minimize"].amount,
            "solver.vj_minimize.self_s": s["solver.vj_minimize"].self_time,
            "energy.solve_abstract_energy_parity.calls": s["energy.solve_abstract_energy_parity"].calls,
            "energy.solve_abstract_energy_parity.self_s": s["energy.solve_abstract_energy_parity"].self_time,
            "simplex.feasible.calls": s["simplex.feasible"].calls,
            "simplex.feasible.s": s["simplex.feasible"].total,
            "simplex.feasible.distinct_ratio": ratio(len(s["simplex.feasible"].distinct), s["simplex.feasible"].calls),
            "parity.solve_parity.calls": s["parity.solve_parity"].calls,
            "parity.solve_parity.s": s["parity.solve_parity"].total,
            "parity.solve_parity.vertices": s["parity.solve_parity"].amount,
            "bounded.solve_capped.calls": s["bounded.solve_capped"].calls,
            "bounded.solve_capped.self_s": s["bounded.solve_capped"].self_time,
            "bounded.solve_capped.vertices": s["bounded.solve_capped"].amount,
            "bounded.solve_capped.distinct_ratio": ratio(len(s["bounded.solve_capped"].distinct),
                                                         s["bounded.solve_capped"].calls),
            "bounded.bracket_decide.calls": s["bounded.bracket_decide"].calls,
            "bounded.bracket_decide.decided_ratio": ratio(s["bounded.bracket_decide"].good,
                                                          s["bounded.bracket_decide"].calls),
            "applications.product.s": sum(p.total for p in product),
            "applications.product.states": product[2].amount,
            "core.leq.calls": s["core.leq"].calls,
            "semantics.vass_step.calls": s["semantics.vass_step"].calls,
        }

    def self_time_sum(self) -> float:
        return sum(st.self_time for st in self.stats.values())


def _counting(st: Stat, query: Callable) -> Callable:
    """The membership callback of vj_minimize, counting its calls."""

    def counted(gamma):
        st.amount += 1
        return query(gamma)

    return counted


def _out_game(st: Stat, args, kwargs, res) -> None:
    st.amount += len(res.game.states)


def _simplex(st: Stat, args, kwargs, res) -> None:
    num_vars, eq_rows, ge_rows, lower = args
    st.distinct.add((num_vars, _freeze(eq_rows), _freeze(ge_rows), tuple(lower)))


def _parity(st: Stat, args, kwargs, res) -> None:
    st.amount += len(args[0].vertices)


def _capped(st: Stat, args, kwargs, res) -> None:
    st.amount += len(res)
    st.distinct.add((id(args[0]),) + tuple(args[1:]))


def _bracket(st: Stat, args, kwargs, res) -> None:
    st.good += res != "unknown"


def _restrict(st: Stat, args, kwargs, res) -> None:
    st.amount += len(res.states)


MEASURES: Dict[str, Callable] = {
    "solver.build_out_game": _out_game,
    "simplex.feasible": _simplex,
    "parity.solve_parity": _parity,
    "bounded.solve_capped": _capped,
    "bounded.bracket_decide": _bracket,
    "applications.restrict_reachable": _restrict,
}
