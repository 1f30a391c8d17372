"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive (exhaustive enumeration, bounded
fixpoints) so they do not share code paths with the solvers under test.
"""
from __future__ import annotations

import itertools
import random
import re as _re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from vassgames import _simplex
from vassgames.applications import (
    TAU,
    And,
    Atom,
    Diamond,
    FiniteLTS,
    Formula,
    GuardedBox,
    Mu,
    Nu,
    Or,
    Var,
    _P1_MISUSE,
    _tokenize,
)
from vassgames.core import (
    Antichain,
    Budget,
    BudgetExceeded,
    CounterOp,
    DEC,
    INC,
    IntegerGame,
    NOP_OP,
    PartialConfig,
    State,
    Transition,
    check_deadlock_free,
    complete_with_sinks,
    is_single_sided,
    leq,
)
from vassgames.bounded import OVERFLOW_WINS_P0, SATURATE
from vassgames.energy import _inner_edges
from vassgames.parity import FiniteParityGame, solve_parity
from vassgames.semantics import ENERGY, VASS, vass_step
from vassgames.solver import EXTRACT_LIMIT, OutGame


# ---------------------------------------------------------------------------
# naive order and projection


def lt(a: PartialConfig, b: PartialConfig) -> bool:
    return leq(a, b) and a != b


def drop(gamma: PartialConfig, counter: str) -> PartialConfig:
    """gamma with counter removed from its domain."""
    return PartialConfig(gamma.state, tuple((c, v) for c, v in gamma.items if c != counter))


def highest_color(game: IntegerGame) -> int:
    return max((s.color for s in game.states), default=0)


# ---------------------------------------------------------------------------
# random instances


def random_counter_game(
    rng: random.Random,
    n_states: int,
    n_counters: int,
    single_sided: bool,
    max_color: int = 3,
    max_out: int = 3,
) -> IntegerGame:
    """Deadlock-free random game; every state keeps a Nop or Inc exit."""
    counters = tuple("c%d" % (i + 1) for i in range(n_counters))
    states = []
    for i in range(n_states):
        owner = rng.choice([0, 0, 1])
        states.append(State("q%d" % i, owner, rng.randint(0, max_color)))
    transitions = []
    tnum = 0
    for s in states:
        n_out = rng.randint(1, max_out)
        for j in range(n_out):
            target = "q%d" % rng.randrange(n_states)
            if (single_sided and s.owner == 1) or not counters:
                op = NOP_OP
            elif j == 0:
                op = NOP_OP if rng.random() < 0.6 else CounterOp(INC, rng.choice(counters))
            else:
                op = CounterOp(rng.choice([INC, DEC, DEC]), rng.choice(counters))
            transitions.append(Transition("t%d" % tnum, s.name, op, target))
            tnum += 1
    return IntegerGame(counters, tuple(states), tuple(transitions))


def random_credit_game(rng: random.Random, n_counters: int) -> IntegerGame:
    """Single-sided game whose frontiers at "start" trade counters off: Player
    0 picks one of a few routes to a winning loop, each a shuffled chain of
    decrements that may begin at a Player-1 gate; route states may also take
    one random extra move.  Every Player-0 state can give up to a losing
    loop, which keeps the game deadlock-free."""
    counters = tuple("c%d" % (i + 1) for i in range(n_counters))
    states = [State("lose", 0, 1), State("win", 0, 2), State("start", 0, 1)]
    transitions: List[Transition] = []

    def add(src: str, op: CounterOp, dst: str) -> None:
        transitions.append(Transition("t%d" % len(transitions), src, op, dst))

    add("lose", NOP_OP, "lose")
    add("win", NOP_OP, "win")
    add("start", NOP_OP, "lose")
    route_states = []
    for r in range(rng.randint(1, 3)):
        prev = "start"
        if rng.random() < 0.3:
            states.append(State("gate%d" % r, 1, rng.randint(0, 2)))
            add(prev, NOP_OP, "gate%d" % r)
            prev = "gate%d" % r
        steps = [c for c in counters for _ in range(rng.randint(0, 3))]
        rng.shuffle(steps)
        for i, c in enumerate(steps):
            name = "r%d_%d" % (r, i)
            states.append(State(name, 0, rng.randint(0, 2)))
            add(prev, NOP_OP if prev.startswith("gate") else CounterOp(DEC, c), name)
            add(name, NOP_OP, "lose")
            route_states.append(name)
            prev = name
        add(prev, NOP_OP, "win")
    names = [s.name for s in states]
    for name in route_states:
        if rng.random() < 0.4:
            add(name, CounterOp(rng.choice((INC, DEC)), rng.choice(counters)), rng.choice(names))
    return IntegerGame(counters, tuple(states), tuple(transitions))


def random_parity_game(rng: random.Random, n: int, max_color: int = 4, max_out: int = 2) -> FiniteParityGame:
    vertices = tuple((rng.randint(0, 1), rng.randint(0, max_color)) for _ in range(n))
    edges = []
    for i in range(n):
        for _ in range(rng.randint(1, max_out)):
            edges.append((i, rng.randrange(n)))
    succ: List[List[int]] = [[] for _ in range(n)]
    for a, b in sorted(set(edges)):
        succ[a].append(b)
    return FiniteParityGame(vertices, tuple(tuple(ss) for ss in succ))


def random_lts(rng: random.Random, n_states: int, n_edges: int, actions: Sequence[str]) -> FiniteLTS:
    states = tuple("s%d" % i for i in range(n_states))
    edges = []
    for _ in range(n_edges):
        edges.append((rng.choice(states), rng.choice(actions), rng.choice(states)))
    return FiniteLTS(states, tuple(sorted(set(edges))))


def random_guarded_formula(rng: random.Random, vass: IntegerGame, depth: int, env: Tuple[str, ...] = ()):
    """Closed positive guarded formula of nesting depth <= depth."""
    choices = ["atom"]
    if env:
        choices += ["var"]
    if depth > 0:
        choices += ["and", "or", "dia", "gbox", "mu", "nu"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(vass.state_names()))
    if kind == "var":
        return Var(rng.choice(env))
    if kind == "and":
        return And(random_guarded_formula(rng, vass, depth - 1, env), random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "or":
        return Or(random_guarded_formula(rng, vass, depth - 1, env), random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "dia":
        return Diamond(random_guarded_formula(rng, vass, depth - 1, env))
    if kind == "gbox":
        return GuardedBox(random_guarded_formula(rng, vass, depth - 1, env))
    var = "X%d" % len(env)
    body = random_guarded_formula(rng, vass, depth - 1, env + (var,))
    return Mu(var, body) if kind == "mu" else Nu(var, body)


# ---------------------------------------------------------------------------
# brute-force parity oracle


def brute_force_parity(game: FiniteParityGame) -> Tuple[Set[int], Set[int]]:
    """Winner per vertex by enumerating both players' positional strategies.
    Only usable on tiny games."""
    n = len(game.vertices)
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    succ = game.succ
    p0 = [v for v in range(n) if owner[v] == 0]
    p1 = [v for v in range(n) if owner[v] == 1]

    def outcome(nxt: Dict[int, int], start: int) -> bool:
        seen = {}
        path = []
        v = start
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = nxt[v]
        cyc = path[seen[v]:]
        return max(color[u] for u in cyc) % 2 == 0

    w0 = set()
    for start in range(n):
        win = False
        for c0 in itertools.product(*(succ[v] for v in p0)):
            s0 = dict(zip(p0, c0))
            good = True
            for c1 in itertools.product(*(succ[v] for v in p1)):
                nxt = dict(s0)
                nxt.update(zip(p1, c1))
                if not outcome(nxt, start):
                    good = False
                    break
            if good:
                win = True
                break
        if win:
            w0.add(start)
    return w0, set(range(n)) - w0


# ---------------------------------------------------------------------------
# bounded VASS exploration


def vass_successors(
    game: IntegerGame, q: str, vec: Tuple[int, ...], cap: int, allowed_tids: Optional[Set[str]] = None
) -> List[Tuple[str, Tuple[int, ...]]]:
    """Concrete VASS successors staying within [0, cap]; transitions whose
    update would leave the box are dropped."""
    cidx = {c: i for i, c in enumerate(game.counters)}
    out = []
    for t in game.out(q):
        if allowed_tids is not None and t.tid not in allowed_tids:
            continue
        nv = list(vec)
        if t.op.counter is not None:
            i = cidx[t.op.counter]
            nv[i] += t.op.delta
            if nv[i] < 0 or nv[i] > cap:
                continue
        out.append((t.target, tuple(nv)))
    return out


def stays_below_cap(
    game: IntegerGame, starts: Sequence[Tuple[str, Tuple[int, ...]]], cap: int
) -> bool:
    """True iff no play from the starts can push any counter up to cap (so a
    cap-bounded oracle explores the full relevant space)."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        q, vec = stack.pop()
        if any(v >= cap for v in vec):
            return False
        for nxt in vass_successors(game, q, vec, cap):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def weaksim_oracle(
    fs: FiniteLTS,
    s0: str,
    vass: IntegerGame,
    labels: Dict[str, str],
    q0: str,
    theta: Dict[str, int],
    cap: int,
) -> bool:
    """Greatest fixpoint of the weak simulation conditions on the capped
    product; counter values above cap are treated as unreachable."""
    lbl = {t.tid: labels.get(t.tid, "tau") for t in vass.transitions}
    tau_tids = {tid for tid, a in lbl.items() if a == "tau"}
    confs = [
        (q, vec)
        for q in vass.state_names()
        for vec in itertools.product(range(cap + 1), repeat=len(vass.counters))
    ]

    def tau_closure(starts: Set[Tuple[str, Tuple[int, ...]]]) -> Set[Tuple[str, Tuple[int, ...]]]:
        seen = set(starts)
        stack = list(starts)
        while stack:
            q, vec = stack.pop()
            for nxt in vass_successors(vass, q, vec, cap, tau_tids):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    weak: Dict[Tuple[str, Tuple[int, ...], str], Set[Tuple[str, Tuple[int, ...]]]] = {}
    actions = sorted({a for _, a, _ in fs.edges})
    for q, vec in confs:
        pre = tau_closure({(q, vec)})
        for a in actions:
            if a == "tau":
                weak[(q, vec, a)] = set(pre)
                continue
            mid = set()
            for q1, v1 in pre:
                for nxt in vass_successors(vass, q1, v1, cap, {tid for tid, l in lbl.items() if l == a}):
                    mid.add(nxt)
            weak[(q, vec, a)] = tau_closure(mid)

    rel = {(s, q, vec) for s in fs.states for q, vec in confs}
    changed = True
    while changed:
        changed = False
        for s, q, vec in sorted(rel):
            ok = True
            for a, s2 in fs.out(s):
                if not any((s2, q2, v2) in rel for q2, v2 in weak[(q, vec, a)]):
                    ok = False
                    break
            if not ok:
                rel.discard((s, q, vec))
                changed = True
    vec0 = tuple(theta[c] for c in vass.counters)
    return (s0, q0, vec0) in rel


def mucalc_oracle(vass: IntegerGame, phi, vec_cap: int) -> Set[Tuple[str, Tuple[int, ...]]]:
    """Direct semantics over the capped configuration space; modal steps that
    would leave the box are treated as absent."""
    confs = [
        (q, vec)
        for q in vass.state_names()
        for vec in itertools.product(range(vec_cap + 1), repeat=len(vass.counters))
    ]
    all_set = set(confs)
    succ = {
        (q, vec): vass_successors(vass, q, vec, vec_cap)
        for q, vec in confs
    }

    def ev(f, env: Dict[str, Set]) -> Set:
        if isinstance(f, Atom):
            return {(q, v) for q, v in confs if q == f.name}
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, And):
            return ev(f.left, env) & ev(f.right, env)
        if isinstance(f, Or):
            return ev(f.left, env) | ev(f.right, env)
        if isinstance(f, Diamond):
            body = ev(f.body, env)
            return {c for c in confs if any(n in body for n in succ[c])}
        if isinstance(f, GuardedBox):
            body = ev(f.body, env)
            return {
                (q, v)
                for q, v in confs
                if vass.state(q).owner == 1 and all(n in body for n in succ[(q, v)])
            }
        if isinstance(f, (Mu, Nu)):
            cur = set() if isinstance(f, Mu) else set(all_set)
            while True:
                env2 = dict(env)
                env2[f.var] = cur
                nxt = ev(f.body, env2)
                if nxt == cur:
                    return cur
                cur = nxt
        raise TypeError("oracle cannot evaluate %r" % (f,))

    return ev(phi, {})


# ---------------------------------------------------------------------------
# reference out-game unfolding: every expansion recomputes the ancestors over
# all nodes and tests coverage against all of beta.  solver.build_out_game
# must build the same out-games.


def reference_covered_by(beta: Iterable[PartialConfig], gamma: PartialConfig) -> bool:
    """Coverability of a label against the union of the smaller frontiers:
    for every tracked counter c, dropping c from gamma must land above some
    element of beta (matching state and domain)."""
    beta = list(beta)
    for c in sorted(gamma.dom):
        dropped = drop(gamma, c)
        if not any(leq(b, dropped) for b in beta):
            return False
    return True


def reference_build_out_game(
    game: IntegerGame,
    gamma: PartialConfig,
    beta: Iterable[PartialConfig],
    budget: Optional[Budget] = None,
) -> OutGame:
    """Unfold the game from gamma (domain C nonempty) into a finite game over
    the untracked counters.

    Nodes are labeled with configurations of domain C.  A node whose label is
    not covered by beta becomes a losing (color 1) leaf; a node whose label
    strictly dominates an ancestor's becomes a winning (color 0) leaf; other
    nodes expand along the VASS-enabled transitions, rewriting updates of
    tracked counters to Nop, and merge with an ancestor carrying an equal
    label instead of growing a new branch."""
    budget = budget or Budget()
    C = gamma.dom
    if not C:
        raise ValueError("build_out_game needs a nonempty tracked domain")
    beta = list(beta)
    counters_out = tuple(c for c in game.counters if c not in C)

    labels: Dict[str, PartialConfig] = {}
    color: Dict[str, int] = {}
    owner: Dict[str, int] = {}
    edges: List[Tuple[str, str, object, Optional[str]]] = []  # (src, dst, op, orig tid)
    preds: Dict[str, List[str]] = {}
    order: List[str] = []

    def new_node(label: PartialConfig) -> str:
        name = "n%d" % len(order)
        s = game.state(label.state)
        labels[name] = label
        color[name] = s.color
        owner[name] = s.owner
        preds[name] = []
        order.append(name)
        if len(order) > budget.node_budget:
            raise BudgetExceeded("out-game node budget exceeded")
        return name

    def ancestors(node: str) -> List[str]:
        """Nodes that reach node via current out-edges, node included."""
        seen = {node}
        stack = [node]
        while stack:
            v = stack.pop()
            for u in preds[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return [n for n in order if n in seen]

    root = new_node(gamma)
    work = deque([root])
    ticks = 0
    while work:
        ticks += 1
        if ticks % 64 == 0:
            budget.check_time("out-game unfolding")
        q = work.popleft()
        lab = labels[q]
        if not reference_covered_by(beta, lab):
            color[q] = 1
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        # anc is every node with a path to q in the out-game built so far,
        # not only q's branch of the unfolding tree.  Every such node is
        # reachable from the root, so it precedes q on some play and a label
        # below q's is a pumping witness as on the branch.  Merges make many
        # paths into q, and the wider set lets merges and winning leaves fire
        # sooner: the branch alone gave the same frontiers on random games
        # but out-games several times larger, slower and heavier in memory.
        anc = ancestors(q)
        if any(lt(labels[a], lab) for a in anc):
            color[q] = 0
            edges.append((q, q, NOP_OP, None))
            preds[q].append(q)
            continue
        for t in game.out(lab.state):
            nxt = vass_step(game, lab, t.tid)
            if nxt is None:
                continue
            op_out = NOP_OP if (t.op.counter in C) else t.op
            target = None
            for a in anc:
                if labels[a] == nxt:
                    target = a
                    break
            if target is None:
                target = new_node(nxt)
                work.append(target)
            edges.append((q, target, op_out, t.tid))
            preds[target].append(q)

    states = tuple(State(n, owner[n], color[n]) for n in order)
    transitions = []
    origin: Dict[str, Optional[str]] = {}
    for i, (src, dst, op, orig) in enumerate(edges):
        tid = "e%d" % i
        transitions.append(Transition(tid, src, op, dst))  # type: ignore[arg-type]
        origin[tid] = orig
    out_game = IntegerGame(counters_out, states, tuple(transitions))
    return OutGame(out_game, root, dict(labels), origin)


# ---------------------------------------------------------------------------
# reference feasibility kernel: the phase-1 simplex over fractions that
# _simplex.feasible replaced.  Both use Bland's rule with the same tie-break,
# so they must give the same answer on every system.


def reference_feasible(
    num_vars: int,
    eq_rows: Sequence[Tuple[Sequence[int], int]],
    ge_rows: Sequence[Tuple[Sequence[int], int]],
    lower: Sequence[int],
) -> bool:
    """Is there a rational x with A_eq x = b_eq, A_ge x >= b_ge, x >= lower?"""
    # shift to y = x - lower >= 0
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    n_surplus = len(ge_rows)
    ncols = num_vars + n_surplus
    for coeffs, b in eq_rows:
        shift = sum(c * l for c, l in zip(coeffs, lower))
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * n_surplus
        rows.append(row)
        rhs.append(Fraction(b - shift))
    for j, (coeffs, b) in enumerate(ge_rows):
        shift = sum(c * l for c, l in zip(coeffs, lower))
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * n_surplus
        row[num_vars + j] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(b - shift))
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
    # artificial variable per row; minimize their sum
    basis = [ncols + i for i in range(m)]
    total = ncols + m
    tableau = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[ncols + i] = Fraction(1)
        tableau.append(row)
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            obj[j] += tableau[i][j]
    for j in range(ncols, total):
        obj[j] = Fraction(0)  # artificials priced out while basic

    while True:
        enter = -1
        for j in range(ncols):  # Bland: smallest improving non-artificial column
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return obj[total] == 0
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen; treat as no progress
            return obj[total] == 0
        piv = tableau[leave][enter]
        tableau[leave] = [a / piv for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter


# ---------------------------------------------------------------------------
# reference Zielonka: the solver that copied vertex sets for each subgame and
# recounted every opponent vertex's successors in each attractor.
# parity.solve_parity marks subgames in place and must give the same winning
# sets.


def _attractor(
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
    owner: Sequence[int],
    sub: Set[int],
    target: Set[int],
    player: int,
    strat: Dict[int, int],
) -> Set[int]:
    """Player's attractor to target within sub; records attractor moves for
    player's vertices newly pulled in (smallest successor index wins)."""
    attr = set(target)
    # count of sub-successors outside attr, for opponent vertices
    cnt = {}
    queue = list(target)
    for v in sub:
        if owner[v] != player and v not in attr:
            cnt[v] = sum(1 for w in succ[v] if w in sub)
    while queue:
        w = queue.pop()
        for v in pred[w]:
            if v not in sub or v in attr:
                continue
            if owner[v] == player:
                if v not in strat:
                    # chosen before v joins, so the move makes progress
                    strat[v] = min(u for u in succ[v] if u in attr)
                attr.add(v)
                queue.append(v)
            else:
                cnt[v] -= 1
                if cnt[v] == 0:
                    attr.add(v)
                    queue.append(v)
    return attr


def reference_solve_parity(
    game: FiniteParityGame,
) -> Tuple[FrozenSet[int], FrozenSet[int], Dict[int, int], Dict[int, int]]:
    """Zielonka's algorithm.  Returns (W0, W1, s0, s1) where s_i maps each
    vertex of player i in W_i to its positional strategy's successor."""
    n = len(game.vertices)
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    succ = game.succ
    pred: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)

    def solve(sub: Set[int]) -> Tuple[Set[int], Set[int], Dict[int, int], Dict[int, int]]:
        if not sub:
            return set(), set(), {}, {}
        d = max(color[v] for v in sub)
        i = d % 2
        if d == 0:
            # all colors 0: Player 0 wins everywhere, any choice staying in sub
            s0 = {v: min(w for w in succ[v] if w in sub) for v in sub if owner[v] == 0}
            return set(sub), set(), s0, {}
        top = {v for v in sub if color[v] == d}
        strat_i: Dict[int, int] = {}
        a = _attractor(succ, pred, owner, sub, set(top), i, strat_i)
        w0p, w1p, s0p, s1p = solve(sub - a)
        opp = w1p if i == 0 else w0p
        if not opp:
            # player i wins all of sub
            si = dict(s0p if i == 0 else s1p)
            si.update(strat_i)
            for v in top:
                if owner[v] == i and v not in si:
                    si[v] = min(w for w in succ[v] if w in sub)
            if i == 0:
                return set(sub), set(), si, {}
            return set(), set(sub), {}, si
        strat_o: Dict[int, int] = dict(s1p if i == 0 else s0p)
        b = _attractor(succ, pred, owner, sub, set(opp), 1 - i, strat_o)
        w0q, w1q, s0q, s1q = solve(sub - b)
        if i == 0:
            w1 = w1q | b
            s1 = dict(s1q)
            s1.update(strat_o)
            return w0q, w1, s0q, s1
        w0 = w0q | b
        s0 = dict(s0q)
        s0.update(strat_o)
        return w0, w1q, s0, s1q

    w0, w1, s0, s1 = solve(set(range(n)))
    return frozenset(w0), frozenset(w1), s0, s1


# ---------------------------------------------------------------------------
# strategy checks: the exhaustive verifier, which enumerates the opponent's
# positional strategies, is the reference for the polynomial check_strategy.


def reference_verify_strategy(
    game: FiniteParityGame,
    player: int,
    choice: Dict[int, int],
    claimed: Iterable[int],
) -> bool:
    """Exhaustively check a positional strategy: against every positional
    opponent strategy, every play from a claimed vertex must loop with the
    right parity.  Raises ValueError when the strategy leaves the claimed
    region.  It does not check that the choices are edges of the game.
    Intended for small games only."""
    succ = game.succ
    n = len(game.vertices)
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    region = set(claimed)
    if not region:
        return True
    for v in region:
        if owner[v] == player:
            if v not in choice:
                raise ValueError("strategy undefined at claimed vertex %d" % v)
            if choice[v] not in region:
                raise ValueError("strategy leaves claimed region at %d" % v)
    opp_vertices = [v for v in range(n) if owner[v] != player]
    for combo in itertools.product(*(succ[v] for v in opp_vertices)):
        nxt = dict(choice)
        nxt.update(zip(opp_vertices, combo))
        # follow deterministic successor map from every claimed start
        ok_cache: Dict[int, bool] = {}
        for start in region:
            v = start
            seen: Dict[int, int] = {}
            path: List[int] = []
            while True:
                if v in ok_cache:
                    ok = ok_cache[v]
                    break
                if v in seen:
                    cyc = path[seen[v]:]
                    top = max(color[u] for u in cyc)
                    ok = (top % 2 == 0) == (player == 0)
                    break
                if v not in nxt:
                    # play escaped to a vertex where the strategy is silent
                    ok = False
                    break
                seen[v] = len(path)
                path.append(v)
                v = nxt[v]
            for u in path:
                ok_cache[u] = ok
            if not ok:
                return False
    return True


def check_strategy(
    game: FiniteParityGame,
    player: int,
    choice: Mapping[int, int],
    claimed: Iterable[int],
) -> bool:
    """Polynomial check that the positional strategy choice wins for player
    from every claimed vertex (Emerson, Jutla & Sistla, CAV 1993).  Raises
    ValueError when choice is undefined at a claimed vertex of player or
    leaves the claimed region there, or when a choice a play from the
    claimed vertices follows is not an edge of the game.

    In the strategy graph player follows choice and the opponent takes every
    edge.  Player wins from the claimed vertices iff every play from them
    stays where choice is defined and no reachable cycle has a highest color
    of the opponent's parity.  A cycle whose highest color is d lies in an
    SCC of the color-<=-d part of the graph, on an inner edge leaving a
    color-d vertex."""
    owner = [o for o, _ in game.vertices]
    color = [c for _, c in game.vertices]
    region = set(claimed)
    for v in region:
        if owner[v] == player:
            if v not in choice:
                raise ValueError("strategy undefined at claimed vertex %d" % v)
            if choice[v] not in region:
                raise ValueError("strategy leaves claimed region at %d" % v)
    edges: List[Tuple[int, int, Tuple[int, ...]]] = []
    reached = set(region)
    todo = list(region)
    stuck = False  # a play reaches a vertex of player without a choice
    while todo:
        v = todo.pop()
        if owner[v] == player:
            if v not in choice:
                stuck = True
                continue
            if choice[v] not in game.succ[v]:
                raise ValueError("strategy at %d takes a non-edge to %d" % (v, choice[v]))
            targets: Sequence[int] = (choice[v],)
        else:
            targets = game.succ[v]
        for w in targets:
            edges.append((v, w, ()))
            if w not in reached:
                reached.add(w)
                todo.append(w)
    if stuck:
        return False
    for d in {color[v] for v in reached if color[v] % 2 != player}:
        low = [i for i, (u, w, _) in enumerate(edges) if color[u] <= d and color[w] <= d]
        for group in _inner_edges(edges, low):
            if any(color[edges[i][0]] == d for i in group):
                return False
    return True


# ---------------------------------------------------------------------------
# reference capped grid: the solver that keyed grid vertices by (state,
# vector) tuples.  bounded.solve_capped numbers them arithmetically and must
# give the same winner at every configuration.


def _number_tuple_ids(vertices, edges) -> Tuple[FiniteParityGame, List[object]]:
    """Adapter from (id, owner, color) vertices and (id, id) edges to a
    FiniteParityGame numbered in vertex order; also returns the ids."""
    ids = [v for v, _, _ in vertices]
    idx = {v: i for i, v in enumerate(ids)}
    succ: List[List[int]] = [[] for _ in ids]
    for a, b in edges:
        succ[idx[a]].append(idx[b])
    return FiniteParityGame(tuple((o, c) for _, o, c in vertices), tuple(tuple(ss) for ss in succ)), ids


def all_configurations(game: IntegerGame, cap: int) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Every configuration of the cap grid as bounded.solve_capped roots:
    states in declaration order, then value vectors in rank order (the last
    counter fastest), which makes solve_capped number the whole grid."""
    return tuple(
        (s.name, vec)
        for s in game.states
        for vec in itertools.product(range(cap + 1), repeat=len(game.counters))
    )


def reference_solve_capped(
    game: IntegerGame,
    semantics: str,
    cap: int,
    mode: str,
) -> Dict[Tuple[str, Tuple[int, ...]], int]:
    """Winner (0 or 1) of every configuration with all values in [0, cap].

    Configurations are keyed by (state, value vector in game.counters order).
    A side with no enabled move loses.  The parity game numbers the
    configurations from 0, states in declaration order and vectors in rank
    order, then one absorbing sink per winner that some move enters, in
    order of first use: the numbering bounded.capped_grid gives when every
    configuration is a root (all_configurations).
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if mode not in (SATURATE, OVERFLOW_WINS_P0):
        raise ValueError("unknown cap mode %r" % mode)
    if semantics not in (ENERGY, VASS):
        raise ValueError("unknown semantics %r" % semantics)
    if semantics == VASS and mode == SATURATE and not is_single_sided(game):
        raise ValueError("saturate mode under VASS semantics needs a single-sided game")

    counters = game.counters
    k = len(counters)
    cidx = {c: i for i, c in enumerate(counters)}

    vertices = []
    edges = []
    sinks = []  # (id, owner, color) of each sink, in order of first use

    def sink(winner: int):
        # the absorbing sink Player winner wins, made on first use
        sid = ("__sink", winner)
        if (sid, 0, winner) not in sinks:
            sinks.append((sid, 0, winner))
            edges.append((sid, sid))
        return sid

    def vectors(i: int):
        if i == 0:
            yield ()
            return
        for rest in vectors(i - 1):
            for v in range(cap + 1):
                yield rest + (v,)

    grid = list(vectors(k))
    for s in game.states:
        for vec in grid:
            vertices.append(((s.name, vec), s.owner, s.color))
    for s in game.states:
        outs = game.out(s.name)
        for vec in grid:
            src = (s.name, vec)
            added = False
            for t in outs:
                if t.op.counter is None:
                    edges.append((src, (t.target, vec)))
                    added = True
                    continue
                i = cidx[t.op.counter]
                nv = vec[i] + t.op.delta
                if nv < 0:
                    if semantics == VASS:
                        continue  # disabled
                    edges.append((src, sink(1)))
                    added = True
                    continue
                if nv > cap:
                    if mode == SATURATE:
                        nv = cap
                        edges.append((src, (t.target, vec[:i] + (nv,) + vec[i + 1:])))
                    else:
                        edges.append((src, sink(0)))
                    added = True
                    continue
                edges.append((src, (t.target, vec[:i] + (nv,) + vec[i + 1:])))
                added = True
            if not added:
                # stuck: the owner loses
                edges.append((src, sink(1 - s.owner)))

    fg, ids = _number_tuple_ids(vertices + sinks, edges)
    w0 = {ids[v] for v in solve_parity(fg)[0]}
    result: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    for s in game.states:
        for vec in grid:
            result[(s.name, vec)] = 0 if (s.name, vec) in w0 else 1
    return result


# ---------------------------------------------------------------------------
# reference energy embedding: every transition is split through its own
# Player-0 middle state with an escape.  energy.energy_to_single_sided must
# give the same pareto_energy frontiers on the original states.


def reference_energy_to_single_sided(game: IntegerGame) -> IntegerGame:
    """Embed an energy parity game into a single-sided game whose VASS parity
    verdicts on the original states coincide with the energy verdicts.

    Every transition t is split through a fresh Player-0 state of color 0
    that either fires t's update or escapes to a losing color-1 loop; under
    VASS semantics a disabled Dec forces the escape, which is exactly an
    energy violation."""
    lose = "__lose"
    while game.has_state(lose):
        lose += "_"
    states: List[State] = list(game.states)
    transitions: List[Transition] = []
    mids: Dict[str, str] = {}
    for t in game.transitions:
        mid = "__t_%s" % t.tid
        while game.has_state(mid):
            mid += "_"
        mids[t.tid] = mid
        states.append(State(mid, 0, 0))
    states.append(State(lose, 0, 1))
    for t in game.transitions:
        mid = mids[t.tid]
        transitions.append(Transition("%s__in" % t.tid, t.source, NOP_OP, mid))
        transitions.append(Transition("%s__do" % t.tid, mid, t.op, t.target))
        transitions.append(Transition("%s__bail" % t.tid, mid, NOP_OP, lose))
    transitions.append(Transition("__lose_loop", lose, NOP_OP, lose))
    return IntegerGame(game.counters, tuple(states), tuple(transitions))


# ---------------------------------------------------------------------------
# reference one-player check: the Tarjan, Bellman-Ford and support-pruning
# code that energy._one_player_win_set replaced, kept verbatim, with the
# per-edge circulation test that energy._good_multi absorbed.  It must give
# the same winning set on every graph.

NEG_INF = None  # marker for "unreachable" in longest-path tables


def _tarjan_sccs(n: int, adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Iterative Tarjan; returns SCCs as lists of vertex indices."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(adj[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _has_positive_cycle(verts: Set[int], edges: List[Tuple[int, int, int]]) -> bool:
    """One-dimensional effect: is there a cycle with strictly positive sum?"""
    dist = {v: 0 for v in verts}
    for _ in range(len(verts)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return changed


def _best_closed_walk(v0: int, verts: Set[int], edges: List[Tuple[int, int, int]]) -> Optional[int]:
    """Max effect of a closed walk through v0 (assumes no positive cycle)."""
    dist: Dict[int, Optional[int]] = {v: NEG_INF for v in verts}
    dist[v0] = 0
    for _ in range(max(len(verts) - 1, 1)):
        for u, v, w in edges:
            du = dist[u]
            if du is not None and (dist[v] is None or du + w > dist[v]):
                dist[v] = du + w
    best: Optional[int] = None
    for u, v, w in edges:
        if v == v0 and dist[u] is not None:
            cand = dist[u] + w
            if best is None or cand > best:
                best = cand
    return best


def _circulation_feasible(
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    active: List[int],
    required: int,
    dims: int,
) -> bool:
    """Is there a circulation over the active edges with x[required] >= 1 and
    componentwise nonnegative total effect?"""
    verts = sorted({edges[e][0] for e in active} | {edges[e][1] for e in active})
    n = len(active)
    eq_rows = []
    for v in verts:
        coeffs = [0] * n
        for j, e in enumerate(active):
            u, w, _ = edges[e]
            if u == v:
                coeffs[j] += 1
            if w == v:
                coeffs[j] -= 1
        eq_rows.append((coeffs, 0))
    ge_rows = []
    for d in range(dims):
        coeffs = [edges[e][2][d] for e in active]
        ge_rows.append((coeffs, 0))
    lower = [1 if active[j] == required else 0 for j in range(n)]
    return _simplex.feasible(n, eq_rows, ge_rows, lower)


def _good_multi(
    v0: int,
    edge_ids: List[int],
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    dims: int,
) -> bool:
    """Support-pruning fixpoint: keep edges usable by some nonnegative-effect
    circulation, restrict to the strongly connected piece around v0, repeat.
    Feasible iff the fixpoint still touches v0."""
    active = list(edge_ids)
    while active:
        kept = [e for e in active if _circulation_feasible(edges, active, e, dims)]
        if not kept:
            return False
        verts = sorted({edges[e][0] for e in kept} | {edges[e][1] for e in kept})
        vpos = {v: i for i, v in enumerate(verts)}
        adj: List[List[int]] = [[] for _ in verts]
        for e in kept:
            adj[vpos[edges[e][0]]].append(vpos[edges[e][1]])
        comp_of = {}
        for comp in _tarjan_sccs(len(verts), adj):
            for i in comp:
                comp_of[verts[i]] = id(comp)
        if v0 not in comp_of:
            return False
        cv = comp_of[v0]
        nxt = [e for e in kept if comp_of[edges[e][0]] == cv and comp_of[edges[e][1]] == cv]
        if not any(edges[e][0] == v0 or edges[e][1] == v0 for e in nxt):
            return False
        if nxt == active:
            return True
        active = nxt
    return False


def _one_player_win_set(
    n: int,
    colors: Sequence[int],
    edges: List[Tuple[int, int, Tuple[int, ...]]],
    dims: int,
) -> Set[int]:
    """States from which the single remaining player (Player 0) wins the
    abstract energy parity objective in a fixed graph."""
    good: Set[int] = set()
    for d in sorted({colors[v] for v in range(n) if colors[v] % 2 == 0}):
        verts = [v for v in range(n) if colors[v] <= d]
        vset = set(verts)
        sub = [(i, e) for i, e in enumerate(edges) if e[0] in vset and e[1] in vset]
        if not sub:
            continue
        comps: List[List[int]] = []
        # restrict Tarjan to the sub-vertices via a compact relabeling
        vmap = {v: i for i, v in enumerate(verts)}
        radj: List[List[int]] = [[] for _ in verts]
        for _, (u, v, _dl) in sub:
            radj[vmap[u]].append(vmap[v])
        for comp in _tarjan_sccs(len(verts), radj):
            comps.append([verts[i] for i in comp])
        for comp in comps:
            cset = set(comp)
            cand = [v for v in comp if colors[v] == d and v not in good]
            if not cand:
                continue
            comp_edges = [(i, e) for i, e in sub if e[0] in cset and e[1] in cset]
            if not comp_edges:
                continue
            if dims == 1:
                scalar = [(u, v, dl[0]) for _, (u, v, dl) in comp_edges]
                if _has_positive_cycle(cset, scalar):
                    good.update(cand)
                else:
                    for v0 in cand:
                        best = _best_closed_walk(v0, cset, scalar)
                        if best is not None and best >= 0:
                            good.add(v0)
            else:
                ids = [i for i, _ in comp_edges]
                for v0 in cand:
                    if _good_multi(v0, ids, edges, dims):
                        good.add(v0)
    # backward reachability to a good vertex, over all edges
    pred: List[List[int]] = [[] for _ in range(n)]
    for u, v, _dl in edges:
        pred[v].append(u)
    win = set(good)
    queue = list(good)
    while queue:
        v = queue.pop()
        for u in pred[v]:
            if u not in win:
                win.add(u)
                queue.append(u)
    return win


# ---------------------------------------------------------------------------
# reference reduction games and formula walks, as applications had them before
# each builder became one pass and the walks shared one child function:
# applications.mucalc_game must build equal games, and applications.weaksim_game
# the same games up to state names.  These names may collide
# (reference_weaksim_game raises on process state x|y next to VASS state z).


def reference_challenge(s: str, q: str) -> str:
    return "%s|%s|1" % (s, q)


def reference_reply(s: str, q: str) -> str:
    return "%s|%s|0" % (s, q)


def reference_reply_mid(s: str, q: str, a: str) -> str:
    return "%s|%s^%s|0" % (s, q, a)


def reference_weaksim_game(
    fs: FiniteLTS,
    vass: IntegerGame,
    labels: Mapping[str, str],
) -> IntegerGame:
    """The weak simulation game: Player 1 challenges with moves of the finite
    process, Player 0 answers with weak (tau* a tau*) moves of the VASS.

    Challenge states carry color 2, so Player 0 wins iff it can answer every
    challenge forever.  complete_with_sinks makes a stuck player lose: a
    challenge state without process moves escapes to a sink winning for
    Player 0, an answer state whose VASS moves may all be blocked to a sink
    losing for Player 0.  The result is single-sided and passes the deadlock
    check."""
    lbl = {t.tid: labels.get(t.tid, TAU) for t in vass.transitions}
    actions = sorted({a for _, a, _ in fs.edges})
    vstates = [s.name for s in vass.states]

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("w%d" % len(transitions), src, op, dst))

    for s in fs.states:
        for q in vstates:
            states.append(State(reference_challenge(s, q), 1, 2))
            states.append(State(reference_reply(s, q), 0, 1))
            for a in actions:
                states.append(State(reference_reply_mid(s, q, a), 0, 1))
    transitions_by_label: Dict[str, List[Transition]] = {}
    for t in vass.transitions:
        transitions_by_label.setdefault(lbl[t.tid], []).append(t)

    for s in fs.states:
        moves = fs.out(s)
        for q in vstates:
            # challenges
            for a, s2 in moves:
                add_t(reference_challenge(s, q), NOP_OP, reference_reply_mid(s2, q, a))
            for a in actions:
                mid = reference_reply_mid(s, q, a)
                # leading taus
                for t in transitions_by_label.get(TAU, []):
                    if t.source == q:
                        add_t(mid, t.op, reference_reply_mid(s, t.target, a))
                if a == TAU:
                    # a tau challenge may be answered by staying put
                    add_t(mid, NOP_OP, reference_reply(s, q))
                else:
                    for t in transitions_by_label.get(a, []):
                        if t.source == q:
                            add_t(mid, t.op, reference_reply(s, t.target))
            # trailing taus and handing the turn back
            for t in transitions_by_label.get(TAU, []):
                if t.source == q:
                    add_t(reference_reply(s, q), t.op, reference_reply(s, t.target))
            add_t(reference_reply(s, q), NOP_OP, reference_challenge(s, q))
    return complete_with_sinks(IntegerGame(vass.counters, tuple(states), tuple(transitions)))


def reference_parse_formula(text: str) -> Formula:
    """The recursive descent parser that parse_formula replaced: one Python
    frame per rule and nesting level, so deep formulas hit the recursion limit."""
    toks = _tokenize(text)
    pos = [0]

    def peek() -> Optional[str]:
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat(tok: Optional[str] = None) -> str:
        if pos[0] >= len(toks):
            raise ValueError("unexpected end of formula")
        got = toks[pos[0]]
        if tok is not None and got != tok:
            raise ValueError("expected %r, got %r" % (tok, got))
        pos[0] += 1
        return got

    def expr(bound: FrozenSet[str]) -> Formula:
        if peek() in ("mu", "nu"):
            kind = eat()
            var = eat()
            if not _re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var) or var in ("mu", "nu", "P1"):
                raise ValueError("bad fixpoint variable %r" % var)
            eat(".")
            body = expr(bound | {var})
            return Mu(var, body) if kind == "mu" else Nu(var, body)
        return disj(bound)

    def disj(bound: FrozenSet[str]) -> Formula:
        f = conj(bound)
        while peek() == "\\/":
            eat()
            f = Or(f, conj(bound))
        return f

    def conj(bound: FrozenSet[str]) -> Formula:
        if peek() == "P1":
            # the guarded box P1 /\ [] f takes no further conjuncts
            eat()
            if toks[pos[0]:pos[0] + 2] != ["/\\", "[]"]:
                raise ValueError(_P1_MISUSE)
            pos[0] += 2
            f = GuardedBox(unary(bound))
            if peek() == "/\\":
                raise ValueError(_P1_MISUSE)
            return f
        f = unary(bound)
        while peek() == "/\\":
            eat()
            f = And(f, unary(bound))
        return f

    def unary(bound: FrozenSet[str]) -> Formula:
        tok = peek()
        if tok == "<>":
            eat()
            return Diamond(unary(bound))
        if tok == "[]":
            raise ValueError("unguarded box is not single-sided safe; use P1 /\\ [] f")
        if tok == "(":
            eat()
            f = expr(bound)
            eat(")")
            return f
        if tok in ("mu", "nu"):
            return expr(bound)
        name = eat()
        if name in (")", ".", "/\\", "\\/"):
            raise ValueError("unexpected token %r" % name)
        if name == "P1":
            raise ValueError(_P1_MISUSE)
        if name in bound:
            return Var(name)
        return Atom(name)

    f = expr(frozenset())
    if pos[0] != len(toks):
        raise ValueError("trailing tokens: %s" % " ".join(toks[pos[0]:]))
    return f


def reference_rename_apart(f: Formula, used: Optional[Set[str]] = None, env: Optional[Dict[str, str]] = None) -> Formula:
    """Make bound variable names unique so each variable has one binder."""
    used = used if used is not None else set()
    env = env or {}
    if isinstance(f, Atom):
        return f
    if isinstance(f, Var):
        return Var(env.get(f.name, f.name))
    if isinstance(f, And):
        return And(reference_rename_apart(f.left, used, env), reference_rename_apart(f.right, used, env))
    if isinstance(f, Or):
        return Or(reference_rename_apart(f.left, used, env), reference_rename_apart(f.right, used, env))
    if isinstance(f, Diamond):
        return Diamond(reference_rename_apart(f.body, used, env))
    if isinstance(f, GuardedBox):
        return GuardedBox(reference_rename_apart(f.body, used, env))
    if isinstance(f, (Mu, Nu)):
        name = f.var
        fresh = name
        i = 0
        while fresh in used:
            i += 1
            fresh = "%s_%d" % (name, i)
        used.add(fresh)
        env2 = dict(env)
        env2[name] = fresh
        body = reference_rename_apart(f.body, used, env2)
        return Mu(fresh, body) if isinstance(f, Mu) else Nu(fresh, body)
    raise TypeError("not a formula: %r" % (f,))


def reference_free_vars(f: Formula) -> FrozenSet[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, (And, Or)):
        return reference_free_vars(f.left) | reference_free_vars(f.right)
    if isinstance(f, (Diamond, GuardedBox)):
        return reference_free_vars(f.body)
    if isinstance(f, (Mu, Nu)):
        return reference_free_vars(f.body) - {f.var}
    return frozenset()


def reference_subformulas(f: Formula) -> List[Formula]:
    """All subformulas, outermost first, without duplicates."""
    out: List[Formula] = []
    seen = set()

    def go(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        out.append(g)
        if isinstance(g, (And, Or)):
            go(g.left)
            go(g.right)
        elif isinstance(g, (Diamond, GuardedBox)):
            go(g.body)
        elif isinstance(g, (Mu, Nu)):
            go(g.body)

    go(f)
    return out


def reference_alternation_depth(f: Formula) -> int:
    """Niwinski-style alternation depth of dependent fixpoints."""
    if isinstance(f, (Atom, Var)):
        return 0
    if isinstance(f, (And, Or)):
        return max(reference_alternation_depth(f.left), reference_alternation_depth(f.right))
    if isinstance(f, (Diamond, GuardedBox)):
        return reference_alternation_depth(f.body)
    if isinstance(f, (Mu, Nu)):
        opposite = Nu if isinstance(f, Mu) else Mu
        deps = [
            reference_alternation_depth(g)
            for g in reference_subformulas(f.body)
            if isinstance(g, opposite) and f.var in reference_free_vars(g)
        ]
        return max([1, reference_alternation_depth(f.body)] + [1 + d for d in deps])
    raise TypeError("not a formula: %r" % (f,))


def reference_mucalc_game(vass: IntegerGame, phi: Formula) -> Tuple[IntegerGame, Callable[[str], str]]:
    """Product of a single-sided VASS (owners give the Q0/Q1 partition) with
    a closed guarded formula.  Player 1 owns conjunctions and guarded boxes;
    fixpoint states are colored by alternation depth (odd for mu, even for
    nu), mismatched atoms and stuck guards are odd self-loops, everything
    else is color 0.  Returns the game and the map q -> product root <q, phi>."""
    if reference_free_vars(phi):
        raise ValueError("formula must be closed: free %s" % sorted(reference_free_vars(phi)))
    # the binder map below needs one binder per variable name
    phi = reference_rename_apart(phi)
    if not is_single_sided(vass):
        raise ValueError("mu-calculus product needs a single-sided VASS")
    bad = check_deadlock_free(vass)
    if bad:
        raise ValueError("VASS may deadlock at states: %s" % ", ".join(bad))
    subs = reference_subformulas(phi)
    sidx = {id_key: i for i, id_key in enumerate(subs)}
    binder: Dict[str, Formula] = {}
    for g in subs:
        if isinstance(g, (Mu, Nu)):
            binder[g.var] = g

    def node(q: str, g: Formula) -> str:
        return "%s#%d" % (q, sidx[g])

    states: List[State] = []
    transitions: List[Transition] = []

    def add_t(src: str, op, dst: str) -> None:
        transitions.append(Transition("m%d" % len(transitions), src, op, dst))

    for q in vass.state_names():
        qowner = vass.state(q).owner
        for g in subs:
            name = node(q, g)
            if isinstance(g, Atom):
                states.append(State(name, 0, 0 if g.name == q else 1))
            elif isinstance(g, Var):
                states.append(State(name, 0, 0))
            elif isinstance(g, And):
                states.append(State(name, 1, 0))
            elif isinstance(g, Or):
                states.append(State(name, 0, 0))
            elif isinstance(g, Diamond):
                states.append(State(name, 0, 0))
            elif isinstance(g, GuardedBox):
                states.append(State(name, 1, 0 if qowner == 1 else 1))
            elif isinstance(g, Mu):
                d = reference_alternation_depth(g)
                states.append(State(name, 0, d if d % 2 == 1 else d + 1))
            elif isinstance(g, Nu):
                d = reference_alternation_depth(g)
                states.append(State(name, 0, d if d % 2 == 0 else d + 1))
            else:
                raise TypeError("not a formula: %r" % (g,))
    for q in vass.state_names():
        qowner = vass.state(q).owner
        for g in subs:
            name = node(q, g)
            if isinstance(g, Atom):
                add_t(name, NOP_OP, name)
            elif isinstance(g, Var):
                add_t(name, NOP_OP, node(q, binder[g.name]))
            elif isinstance(g, (And, Or)):
                add_t(name, NOP_OP, node(q, g.left))
                add_t(name, NOP_OP, node(q, g.right))
            elif isinstance(g, Diamond):
                for t in vass.out(q):
                    add_t(name, t.op, node(t.target, g.body))
            elif isinstance(g, GuardedBox):
                if qowner == 1:
                    for t in vass.out(q):
                        add_t(name, t.op, node(t.target, g.body))
                else:
                    add_t(name, NOP_OP, name)
            elif isinstance(g, (Mu, Nu)):
                add_t(name, NOP_OP, node(q, g.body))

    game = IntegerGame(vass.counters, tuple(states), tuple(transitions))
    return game, lambda q: node(q, phi)


# ---------------------------------------------------------------------------
# reference Valk-Jantzen minimisation: after each new minimum it rebuilds the
# ideals of the complement and enumerates every lattice point inside each
# finite part.  solver.vj_minimize probes each box corner once and must give
# the same antichain with no more probes.


@dataclass(frozen=True)
class Ideal:
    """A downward closed box at a state: bound None means the coordinate is
    unbounded (omega); an integer bound b keeps values <= b."""

    state: str
    bounds: Tuple[Tuple[str, Optional[int]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(sorted(dict(self.bounds).items())))

    @property
    def finite_coords(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((c, b) for c, b in self.bounds if b is not None)

    def subsumed_by(self, other: "Ideal") -> bool:
        if self.state != other.state:
            return False
        ob = dict(other.bounds)
        if set(ob) != set(dict(self.bounds)):
            return False
        for c, b in self.bounds:
            o = ob[c]
            if o is None:
                continue
            if b is None or b > o:
                return False
        return True


def reference_complement_ideals(minima: Iterable[PartialConfig], counters: Sequence[str], state: str) -> List[Ideal]:
    """Ideals covering the complement of the upward closure of ``minima`` at
    ``state``, within valuations over ``counters``.

    A valuation avoids the upward closure iff for every minimal element it is
    strictly below in some coordinate; distributing the choice of coordinate
    over the elements yields one candidate box per choice function.  Subsumed
    boxes are dropped."""
    mins = [m for m in minima if m.state == state]
    for m in mins:
        if m.dom != frozenset(counters):
            raise ValueError("minimal element domain mismatch")
    if not mins:
        return [Ideal(state, tuple((c, None) for c in counters))]
    if any(all(v == 0 for _, v in m.items) for m in mins):
        return []

    ideals: List[Ideal] = []

    def go(i: int, bounds: Dict[str, Optional[int]]) -> None:
        if i == len(mins):
            cand = Ideal(state, tuple(bounds.items()))
            for other in ideals:
                if cand.subsumed_by(other):
                    return
            ideals[:] = [o for o in ideals if not o.subsumed_by(cand)] + [cand]
            return
        m = dict(mins[i].items)
        for c in counters:
            if m[c] == 0:
                continue  # cannot be strictly below 0
            nb = m[c] - 1
            old = bounds[c]
            if old is not None and old <= nb:
                go(i + 1, bounds)  # existing bound already ensures strictness
                continue
            bounds[c] = nb
            go(i + 1, bounds)
            bounds[c] = old

    go(0, {c: None for c in counters})
    return ideals


def reference_extract_minimal(
    query: Callable[[PartialConfig], bool],
    found: PartialConfig,
    counters_order: Sequence[str],
) -> PartialConfig:
    """Extend a positive partial query to a full domain and minimize it
    coordinatewise (one pass in counter order yields a minimal element of an
    upward closed set)."""
    gamma = found
    for c in counters_order:
        if c in gamma.dom:
            continue
        x = 0
        while not query(gamma.with_value(c, x)):
            x += 1
            if x > EXTRACT_LIMIT:
                raise BudgetExceeded("witness extraction exceeded %d on %s" % (EXTRACT_LIMIT, c))
        gamma = gamma.with_value(c, x)
    for c in counters_order:
        lo, hi = 0, gamma.get(c)
        while lo < hi:
            mid = (lo + hi) // 2
            if query(gamma.with_value(c, mid)):
                hi = mid
            else:
                lo = mid + 1
        gamma = gamma.with_value(c, lo)
    return gamma


def reference_vj_minimize(
    query: Callable[[PartialConfig], bool],
    state: str,
    counters_order: Sequence[str],
    budget: Optional[Budget] = None,
) -> Antichain:
    """Compute the minimal elements of the upward closed set described by the
    membership oracle, Valk-Jantzen style.

    The oracle must answer, for a partial configuration, whether some full
    instantiation belongs to the set; omega coordinates of the complement
    ideals are probed as undefined counters, finite coordinates by direct
    enumeration up to the bound.  Every probe, witness extraction included,
    first checks the deadline."""
    budget = budget or Budget()

    def probe(g: PartialConfig) -> bool:
        budget.check_time("Valk-Jantzen minimisation")
        return query(g)

    minima: List[PartialConfig] = []
    while True:
        ideals = reference_complement_ideals(sorted(minima, key=lambda g: g.items), counters_order, state)
        hit: Optional[PartialConfig] = None
        for ideal in sorted(ideals, key=lambda i: str(i.bounds)):
            finite = ideal.finite_coords
            names = [c for c, _ in finite]
            for vec in itertools.product(*[range(b + 1) for _, b in finite]):
                g = PartialConfig(state, tuple(zip(names, vec)))
                if probe(g):
                    hit = g
                    break
            if hit is not None:
                break
        if hit is None:
            return Antichain(minima)
        new = reference_extract_minimal(probe, hit, counters_order)
        if any(leq(m, new) or leq(new, m) for m in minima):
            raise RuntimeError("oracle is not upward closed: %s overlaps known minima" % new)
        minima.append(new)
